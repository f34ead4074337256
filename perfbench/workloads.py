"""The benchmark's workloads, their reference results and the result check.

Each workload is one fixed ``mppfv.harness.RunConfig``.  The inputs are the
deterministic named problems of ``mppfv.problems``; nothing in them is drawn
from a seed.

Reference files (``reference/<workload>.npz``, written by
``make_reference.py``) hold, from the commit that defined the benchmark:

``u``
    the final cell averages;
``steps``
    the number of time steps the run took;
``u_refined`` (the 1D problems, which have no exact solution)
    the final state of the same scheme on a grid with twice as many cells,
    restricted back to this grid by averaging pairs of cells.  ``l1_error`` is
    the L1 distance to it, a stand-in for the error against an exact
    solution that catches a speed-up bought with accuracy.

Tolerance of the final-state check.  The stage solves stop at an absolute
l2 residual of ``TOL_STAGE = 1e-8`` and the GMC fixed points at
``TOL_GMC = 1e-12``, so a change that alters how a solve reaches its
tolerance (a reused LU, another Krylov forcing term, an accelerated fixed
point) may move each solved state by up to about 1e-8 per cell.  The
workload with the most stage solves (bl1d: 32 steps of 5 stages) can add
that up to about 2e-6; ``STATE_ATOL`` allows five times as much, relative
to the width of the problem's global bounds.  A wrong result (a missed
limiter pass, a wrong flux, a lost step) moves the state by 1e-3 or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Largest allowed ``max |u - u_ref|``, as a share of ``global_max - global_min``.
STATE_ATOL = 1e-5
#: Bound-violation and conservation gates applied to every run.
DELTA_MIN = -1e-12
MASS_DRIFT_MAX = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    why: str

    def run_config(self, **overrides):
        from mppfv.harness import RunConfig
        return RunConfig(**{**self.config, **overrides})

    def refined_config(self):
        """The same run on a grid with twice as many cells."""
        return self.run_config(nx=2 * self.config["nx"])

    @property
    def reference_path(self):
        return REFERENCE_DIR / f"{self.name}.npz"


# Rotation2d runs a fixed number of steps: dt = 0.5/128 is a power of two,
# so two steps end exactly at t_final.
_ROTATION_STEPS = 2

WORKLOADS = {w.name: w for w in (
    Workload(
        "burgers1d-iex4-gmc",
        dict(problem="burgers1d", nx=200, scheme="iex4", limiter="gmc",
             dt_factor=0.5, t_final=0.25, solver="fresh-jacobian"),
        "RunConfig(burgers1d, nx=200, iex4, gmc, dt_factor=0.5, t_final=0.25): "
        "semidiscrete GMC fixed point and many small WENO calls, no linear "
        "algebra; isolates the limiter and flux layers."),
    Workload(
        "rotation2d-sdirk5-gmc",
        dict(problem="rotation2d", nx=128, scheme="sdirk5", limiter="gmc",
             dt_factor=0.5, t_final=_ROTATION_STEPS * 0.5 / 128,
             solver="fresh-jacobian"),
        "RunConfig(rotation2d, nx=128, sdirk5, gmc, dt_factor=0.5, 2 steps): "
        "state-independent Jacobian, GMRES with LU preconditioner; isolates "
        "the 2D linear solves."),
    Workload(
        "bl1d-sdirk5-fct-dt5h",
        dict(problem="bl1d", nx=800, scheme="sdirk5", limiter="fct",
             dt_factor=5.0, solver="fresh-jacobian"),
        "RunConfig(bl1d, nx=800, sdirk5, fct, dt_factor=5.0): large steps, "
        "state-dependent Jacobian and direct sparse LU per Newton iteration; "
        "isolates the 1D Newton path."),
)}


def load_reference(workload):
    with np.load(workload.reference_path) as data:
        return {key: data[key] for key in data.files}


def l1_error(diag, u, reference):
    """``RunDiagnostics.e1`` at the final time where the problem has an
    exact solution, else the L1 distance to the refined reference."""
    if diag.e1:
        return float(diag.e1[max(diag.e1)])
    grid = u.grid
    return float(grid.cell_volume
                 * np.sum(np.abs(u.values - reference["u_refined"])))


def check_run(workload, diag, u, reference, steps=None):
    """Return the list of failed checks (empty when the run is correct)."""
    from mppfv.harness import build_problem
    spec = build_problem(workload.run_config())
    failures = []
    if not diag.delta >= DELTA_MIN:
        failures.append(f"delta {diag.delta:.3e} < {DELTA_MIN:g}")
    if not abs(diag.mass_drift) <= MASS_DRIFT_MAX:
        failures.append(f"|mass_drift| {abs(diag.mass_drift):.3e} > "
                        f"{MASS_DRIFT_MAX:g}")
    ref_u = reference["u"]
    if u.values.shape != ref_u.shape:
        failures.append(f"final state shape {u.values.shape} != {ref_u.shape}")
    else:
        scale = spec.global_max - spec.global_min
        miss = float(np.max(np.abs(u.values - ref_u)))
        if not miss <= STATE_ATOL * scale:
            failures.append(f"final state differs from the reference by "
                            f"{miss:.3e} > {STATE_ATOL * scale:.3e}")
    if steps is not None and steps != int(reference["steps"]):
        failures.append(f"{steps} steps, reference {int(reference['steps'])}")
    return failures
