"""Simulation driver: run configuration, time loop, studies, snapshots, CLI.

A run advances a built-in problem from ``t = 0`` to the final time with a
chosen time integrator and flux limiter, recording bound violations, the
L1 error against the exact solution (when one exists), and a flux-corrected
mass audit.  Steps use ``dt = dt_factor * min(dx, dy)`` except that the
step landing on a snapshot time or on the final time is clipped so the
accumulated time hits it exactly (to roundoff).  A clip that would change
dt by no more than the time tolerance ``t_end * TIME_RTOL`` is not made,
so roundoff gives the implicit solves no new scale.

Each step is a *proposal* followed by a *limiter*:

proposal
    One DIRK step (:func:`time_integration.dirk_step`) on the
    fifth-order-in-space fluxes: ``sdirk5`` on its tableau, ``iex1`` ..
    ``iex4`` on the Runge-Kutta tableau of the extrapolated
    backward-Euler substep chains.  The proposal returns its state, its
    aggregated high-order flux and its stage values, which every run
    folds into ``RunDiagnostics.stage_delta``.  For ``iex`` with
    ``limiter="gmc"`` the substeps already use the semi-discretely
    limited flux; they stop at the stage tolerance ``TOL_STAGE``, so
    their states are bounded only up to it and ``stage_delta`` can read
    about -1e-10 (-2.5e-10 on burgers1d, nx=200, iex4 at dt = h/2); the
    limited step itself keeps ``delta`` >= -1e-12.  With
    ``limit_stages`` the ``sdirk5`` proposal also passes every
    intermediate stage through the limiter (the stages of a high-order
    DIRK method are otherwise not bound preserving), using the
    ``limit_stage`` hook of :func:`time_integration.dirk_step`.
limiter
    ``"none"`` keeps the proposal as the step.  ``"fct"`` limits the
    difference between a first-order solve from the same initial state and
    the proposal's flux cellwise (optionally in several sweeps).  ``"gmc"``
    solves the monolithic fixed point with the proposal's flux frozen and
    produces the bound-preserving update directly.

Only ``be`` falls outside this split: one backward-Euler step of the
first-order scheme (Rusanov flux plus central diffusion), unconditionally
bound preserving and taking no limiter.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .limiters import (LIMITER_CHOICES, _fct_with_flux, _gmc_with_flux,
                       make_semidiscrete_gmc_substep_solver)
from .mesh import FIRST, LAST, CellField
from .metrics import (RunDiagnostics, bound_margin, compute_E1, eoc,
                      total_mass, update_delta)
from .problems import BUILTIN_PROBLEMS, initial_cell_averages, make_grid
from .solvers import (JacobianEngine, NonConvergenceError, make_stage_solver,
                      newton_low_order)
from .time_integration import dirk_step, iex_step, sdirk5_tableau

SCHEME_CHOICES = ("be", "sdirk5", "iex1", "iex2", "iex3", "iex4")

#: Problems whose constructor takes a diffusion coefficient.
_EPSILON_PROBLEMS = ("linear1d", "linear2d", "kpp2d")

#: Relative tolerance for "the accumulated time equals the target time".
TIME_RTOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one simulation run (or one study)."""

    problem: str = "linear1d"
    nx: int = 100
    ny: int | None = None
    scheme: str = "sdirk5"
    limiter: str = "none"
    fct_iters: int = 1
    gamma: float = 0.0
    dt_factor: float = 0.5
    t_final: float | None = None
    solver: str = "fresh-jacobian"  # the only value; callers still name it
    out: str | None = None
    study: tuple = ()
    snapshot_times: tuple = ()
    limit_stages: bool = False
    epsilon: float | None = None

    def __post_init__(self):
        if self.problem not in BUILTIN_PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; choose from "
                             f"{sorted(BUILTIN_PROBLEMS)}")
        if self.scheme not in SCHEME_CHOICES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from "
                             f"{SCHEME_CHOICES}")
        if self.limiter not in LIMITER_CHOICES:
            raise ValueError(f"unknown limiter {self.limiter!r}; choose from "
                             f"{LIMITER_CHOICES}")
        if self.solver != "fresh-jacobian":
            raise ValueError(f"solver {self.solver!r} is not available: the "
                             f"frozen-jacobian mode was removed, every solve "
                             f"picks its Jacobian from how it contracts")
        if self.nx < 5:
            raise ValueError("nx must be at least 5")
        if self.ny is not None and self.ny < 5:
            raise ValueError("ny must be at least 5")
        if self.fct_iters < 1:
            raise ValueError("fct_iters must be at least 1")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if not self.dt_factor > 0.0:
            raise ValueError("dt_factor must be positive")
        if self.t_final is not None and not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if self.scheme == "be" and self.limiter != "none":
            raise ValueError("scheme 'be' is the first-order baseline and "
                             "takes no limiter")
        if self.limit_stages and self.scheme != "sdirk5":
            raise ValueError("limit_stages requires scheme 'sdirk5'")
        if self.limit_stages and self.limiter == "none":
            raise ValueError("limit_stages requires limiter 'fct' or 'gmc'")
        if self.epsilon is not None and self.problem not in _EPSILON_PROBLEMS:
            raise ValueError(f"problem {self.problem!r} takes no epsilon "
                             f"parameter")
        grids = tuple(int(n) for n in self.study)
        if grids:
            if len(grids) < 2:
                raise ValueError("a study needs at least two grids")
            for a, b in zip(grids, grids[1:]):
                if not 0.95 <= b / (2.0 * a) <= 1.05:
                    raise ValueError(f"study grids must refine by a factor "
                                     f"of two, got {a} -> {b}")
        object.__setattr__(self, "study", grids)
        times = tuple(float(s) for s in self.snapshot_times)
        if any(s < 0.0 for s in times):
            raise ValueError("snapshot times must be nonnegative")
        object.__setattr__(self, "snapshot_times", times)


def build_problem(config):
    """Instantiate the problem named by ``config`` with its parameters."""
    ctor = BUILTIN_PROBLEMS[config.problem]
    if config.problem in _EPSILON_PROBLEMS:
        epsilon = 0.0 if config.epsilon is None else float(config.epsilon)
        return ctor(epsilon)
    if config.problem == "vortex2d" and config.t_final is not None:
        # The deformation field reverses at T: the period tracks the run.
        return ctor(float(config.t_final))
    return ctor()


# ---------------------------------------------------------------------------
# Per-step scheme/limiter dispatch
# ---------------------------------------------------------------------------

def _make_stepper(config, spec, grid):
    """Build ``step(u, t, dt) -> (u_new, realized_flux, stage_values)``,
    every state an array of ``grid.shape``.

    The realized flux satisfies the discrete balance
    ``u_new = u - dt * div(flux)`` up to solver tolerance (exactly, for the
    paths that reconstruct the state from the flux), so accumulating its
    boundary contribution gives the flux-corrected mass audit.  One
    :class:`JacobianEngine` serves every implicit solve of the run (the
    semi-discrete GMC substeps of ``iex`` with ``gmc`` included), so each
    solve starts on the matrix and LU that the last converged solve at its
    implicit scale ended with.
    """
    engine = JacobianEngine(spec, grid)

    if config.scheme == "be":
        def step(u, t, dt):
            u_new, flux, _ = newton_low_order(u, spec, grid, dt, t=t,
                                              engine=engine)
            return u_new, flux, ()

        return step

    def limit(u, G_high, dt, t, strict=True):
        if config.limiter == "fct":
            u_low, G_low, _ = newton_low_order(u, spec, grid, dt, t=t,
                                               engine=engine)
            return _fct_with_flux(G_low, u_low, G_high, spec, grid, dt,
                                  config.fct_iters, strict_reference=strict)
        return _gmc_with_flux(u, G_high, spec, grid, dt, config.gamma, t,
                              strict_reference=strict)[:2]

    if config.scheme == "sdirk5":
        tableau = sdirk5_tableau()
        stage_solver = make_stage_solver(engine)
        limit_stage = None
        if config.limit_stages:
            # Stage references of a DIRK tableau with negative coefficients
            # may leave the global bounds; the sign-clamped allowances then
            # hold the stage as close to the bounds as its reference permits.
            limit_stage = lambda *stage: limit(*stage, strict=False)

        def propose(u, t, dt):
            return dirk_step(u, tableau, spec, grid, stage_solver, dt, t=t,
                             limit_stage=limit_stage)
    else:
        p = int(config.scheme[3:])
        if config.limiter == "gmc":
            stage_solver = make_semidiscrete_gmc_substep_solver(
                engine, config.gamma)
        else:
            stage_solver = make_stage_solver(engine)

        def propose(u, t, dt):
            return iex_step(u, p, spec, grid, stage_solver, dt, t=t)

    if config.limiter == "none":
        return propose

    def step(u, t, dt):
        _, G_high, stages = propose(u, t, dt)
        u_new, realized = limit(u, G_high, dt, t)
        return u_new, realized, stages

    return step


def _boundary_outflow(flux, grid):
    """Net mass flow rate out of the domain, ``sum_boundary |S| G``
    (outward), of the per-axis face arrays ``flux``.  Periodic axes
    contribute exactly zero because the wrap face is stored once and
    tied."""
    for axis, G in enumerate(flux):
        term = grid.face_area(axis) * float(np.sum(G[LAST[axis]])
                                            - np.sum(G[FIRST[axis]]))
        out = term if axis == 0 else out + term
    return out


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def snapshot(values, grid, path):
    """Write cell-center coordinates and the cell state ``values`` (an
    array of ``grid.shape``) as plain-text CSV.

    Header ``x,u`` (1D) or ``x,y,u`` (2D); one row per cell in row-major
    order; 17 significant digits so values round-trip bitwise.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    points = grid.center_mesh()[:grid.dim]
    columns = [np.broadcast_to(c, grid.shape).ravel()
               for c in points + (values,)]
    lines = [",".join("xy"[:grid.dim]) + ",u"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _scheme_tag(config):
    """``scheme`` or ``scheme-limiter``, as used in output file names."""
    if config.limiter == "none":
        return config.scheme
    return f"{config.scheme}-{config.limiter}"


def _snapshot_name(config, t):
    return f"{config.problem}_{_scheme_tag(config)}_t{t:.6f}.csv"


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------

def run(config):
    """Advance ``config.problem`` from 0 to the final time.

    Returns ``(RunDiagnostics, final CellField)``.  Snapshots are written
    to ``config.out`` at the requested times (0 means the initial data).
    A step that fails to finish (a spent iteration budget, or a
    ``ValueError`` such as a non-finite residual) raises
    :class:`NonConvergenceError` prefixed ``step k at t=..., dt=...:``
    (``k`` counts from 1), caused by that error and with its report, if any.
    """
    spec = build_problem(config)
    grid = make_grid(spec, config.nx, config.ny)
    u = initial_cell_averages(spec, grid)
    t_end = float(spec.final_time if config.t_final is None
                  else config.t_final)
    if any(s > t_end * (1.0 + TIME_RTOL) for s in config.snapshot_times):
        raise ValueError("snapshot times must not exceed the final time")
    dt_nominal = config.dt_factor * min(grid.spacing)
    step = _make_stepper(config, spec, grid)
    out_dir = Path(config.out) if config.out else None

    diag = RunDiagnostics()
    targets = sorted(set(config.snapshot_times))
    if out_dir and targets and abs(targets[0]) <= t_end * TIME_RTOL:
        snapshot(u, grid, out_dir / _snapshot_name(config, 0.0))
        targets = targets[1:]

    mass0 = total_mass(u, grid)
    outflow = 0.0
    t = 0.0
    steps = 0
    # A step that blows up is reported by the finiteness checks of its
    # solves, not by NumPy warnings on the way there.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t_end - t > t_end * TIME_RTOL:
            stops = [s for s in targets if s - t > t_end * TIME_RTOL]
            next_stop = stops[0] if stops else t_end
            remaining = next_stop - t
            # A step that would differ from the nominal one only by roundoff
            # keeps it, and with it the implicit scales of the solves.
            if (remaining > dt_nominal * (1.0 + 1e-9)
                    or abs(remaining - dt_nominal) <= t_end * TIME_RTOL):
                dt = dt_nominal
            else:
                dt = remaining
            steps += 1
            try:
                u, flux, stages = step(u, t, dt)
            except (NonConvergenceError, ValueError) as err:
                raise NonConvergenceError(
                    f"step {steps} at t={t:.6g}, dt={dt:.6g}: {err}",
                    getattr(err, "report", None)) from err
            t += dt
            update_delta(diag, u, spec)
            for y in stages:
                diag.stage_delta = min(diag.stage_delta, bound_margin(y, spec))
            outflow += dt * _boundary_outflow(flux, grid)
            for s in list(targets):
                if abs(t - s) <= max(abs(s), t_end) * TIME_RTOL:
                    if out_dir:
                        snapshot(u, grid, out_dir / _snapshot_name(config, s))
                    if spec.exact_solution is not None:
                        diag.e1[s] = compute_E1(u, spec, grid, s)
                    targets.remove(s)

    if spec.exact_solution is not None:
        diag.e1[t_end] = compute_E1(u, spec, grid, t_end)
    mass_final = total_mass(u, grid)
    denom = max(abs(mass0), 1e-30)
    diag.mass_drift = (mass_final + outflow - mass0) / denom
    return diag, CellField(grid, u)


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

def convergence_study(config):
    """Run ``config`` on each grid of ``config.study`` and tabulate
    ``dx, E1, EOC, delta`` rows.  Writes a CSV beside the run outputs when
    an output directory is configured."""
    if not config.study:
        raise ValueError("convergence_study requires a grid sequence")
    spec = build_problem(config)
    if spec.exact_solution is None:
        raise ValueError(f"problem {config.problem!r} has no exact solution "
                         f"to study against")
    extent = spec.domain_hi[0] - spec.domain_lo[0]
    rows = []
    errors, spacings = [], []
    for n in config.study:
        ny = None if config.ny is None else int(round(n * config.ny
                                                      / config.nx))
        sub = replace(config, nx=int(n), ny=ny, study=(), snapshot_times=(),
                      out=None)
        diag, _ = run(sub)
        t_end = max(diag.e1)
        errors.append(diag.e1[t_end])
        spacings.append(extent / n)
        rows.append({"nx": int(n), "dx": spacings[-1],
                     "e1": errors[-1], "eoc": None, "delta": diag.delta})
    rates = eoc(errors, spacings)
    for row, rate in zip(rows[1:], rates):
        row["eoc"] = rate
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["dx,E1,EOC,delta"]
        for row in rows:
            eoc_txt = "" if row["eoc"] is None else f"{row['eoc']:.17g}"
            lines.append(f"{row['dx']:.17g},{row['e1']:.17g},{eoc_txt},"
                         f"{row['delta']:.17g}")
        path = out_dir / f"study_{config.problem}_{_scheme_tag(config)}.csv"
        path.write_text("\n".join(lines) + "\n")
    return rows


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

_INT_KEYS = {"nx", "ny", "fct_iters"}
_FLOAT_KEYS = {"gamma", "dt_factor", "t_final", "epsilon"}
_BOOL_KEYS = {"limit_stages"}
_INT_TUPLE_KEYS = {"study"}
_FLOAT_TUPLE_KEYS = {"snapshot_times"}


def _parse_config_value(key, text):
    text = text.strip()
    if key in _INT_KEYS:
        return int(text)
    if key in _FLOAT_KEYS:
        return float(text)
    if key in _BOOL_KEYS:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"invalid boolean for {key!r}: {text!r}")
    if key in _INT_TUPLE_KEYS:
        return tuple(int(v) for v in text.split(",") if v.strip())
    if key in _FLOAT_TUPLE_KEYS:
        return tuple(float(v) for v in text.split(",") if v.strip())
    return text


def load_config_file(path):
    """Parse a ``key=value`` run-configuration file (one pair per line,
    ``#`` comments allowed).  Keys match :class:`RunConfig` field names
    (hyphens and underscores interchangeable)."""
    kwargs = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line must be key=value: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in RunConfig.__dataclass_fields__:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _parse_config_value(key, value)
    return kwargs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mppfv",
        description="Bound-preserving implicit finite-volume solver for "
                    "scalar convection-diffusion problems.")
    parser.add_argument("--config", help="key=value configuration file "
                                         "(explicit flags take precedence)")
    parser.add_argument("--problem", choices=sorted(BUILTIN_PROBLEMS))
    parser.add_argument("--nx", type=int, help="cells along x")
    parser.add_argument("--ny", type=int, help="cells along y (2D; default nx)")
    parser.add_argument("--scheme", choices=SCHEME_CHOICES,
                        help="time integrator (be = first-order baseline)")
    parser.add_argument("--limiter", choices=LIMITER_CHOICES)
    parser.add_argument("--fct-iters", type=int,
                        help="flux-correction sweeps per step")
    parser.add_argument("--gamma", type=float,
                        help="slack parameter of the monolithic limiter")
    parser.add_argument("--dt-factor", type=float,
                        help="dt = dt_factor * min(dx, dy)")
    parser.add_argument("--t-final", type=float, help="override final time")
    parser.add_argument("--out", help="output directory for CSV files")
    parser.add_argument("--study", help="comma-separated grid sizes, each "
                                        "twice the previous")
    parser.add_argument("--snapshot-times",
                        help="comma-separated times at which to write "
                             "solution snapshots")
    parser.add_argument("--limit-stages", action="store_true", default=None,
                        help="limit every DIRK stage value (sdirk5 only)")
    parser.add_argument("--epsilon", type=float,
                        help="diffusion coefficient for the problems that "
                             "take one")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        kwargs = load_config_file(args.config) if args.config else {}
        for key in RunConfig.__dataclass_fields__:
            value = getattr(args, key, None)
            if value is not None:
                if key in _INT_TUPLE_KEYS | _FLOAT_TUPLE_KEYS:
                    value = _parse_config_value(key, value)
                kwargs[key] = value
        config = RunConfig(**kwargs)
    except (ValueError, OSError) as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return 2

    try:
        if config.study:
            rows = convergence_study(config)
            print("dx,E1,EOC,delta")
            for row in rows:
                eoc_txt = "" if row["eoc"] is None else f"{row['eoc']:.3f}"
                print(f"{row['dx']:.6e},{row['e1']:.6e},{eoc_txt},"
                      f"{row['delta']:.3e}")
        else:
            diag, _ = run(config)
            parts = [f"problem={config.problem}",
                     f"scheme={config.scheme}",
                     f"limiter={config.limiter}",
                     f"delta={diag.delta:.6e}",
                     f"mass_drift={diag.mass_drift:.3e}"]
            if diag.e1:
                t_end = max(diag.e1)
                parts.append(f"E1={diag.e1[t_end]:.6e}")
            if np.isfinite(diag.stage_delta):
                parts.append(f"stage_delta={diag.stage_delta:.6e}")
            print(" ".join(parts))
    except NonConvergenceError as exc:
        print(f"error: solver-failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
