"""Bitwise sweep of every stepper branch, for refactors that must not
change results.

``run OUT`` runs a fixed matrix of small configurations with the ``mppfv``
found on the import path and pickles, per configuration, either the final
state with ``delta``, ``mass_drift``, ``e1`` and ``stage_delta``, or the
class name of the exception the run raised.  ``compare A B`` reads two such
files and reports, per dt factor, how many configurations are bitwise
equal, the largest ``|du|`` as a share of the problem's bound width (of
the range of its initial data where a bound is infinite),
whether the same configurations failed, by name the configurations that
fail in only one of the files, and, grouped by problem, how many finished
configurations are not bitwise equal with each group's largest ``|du|``
per width and, by name, the configuration it comes from.  ``check OUT``
reads one such file and exits non-zero when any
configuration raised or broke a gate: ``|mass_drift| <= MASS_DRIFT_MAX``
for every run, and bound violation ``delta >= DELTA_MIN`` for every run
that is bound preserving (a limiter, or ``be``; the unlimited high-order
schemes overshoot by design).

The matrix: problem (burgers1d nx=30 t=0.06, rotation2d 12^2 for two
steps, bl1d nx=40 t=0.1) x scheme (be, sdirk5, iex2, iex4) x limiter x
``limit_stages`` x ``fct_iters`` in {1, 2} (fct only) x ``gamma`` in
{0, 1} (gmc only); 60 configurations per dt factor.
Then the whole catalogue: each of the 8 built-in problems (1D nx=30, 2D
12^2, epsilon=0.01 where the problem takes one) for two steps with
sdirk5+gmc and iex2+fct, 16 more configurations per dt factor but for
the two already in the matrix (rotation2d sdirk5+gmc and iex2+fct).
Last, two steps on non-square 12x16 cells, where the face areas differ
per axis: rotation2d, linear2d and kpp2d with sdirk5+gmc and iex2+fct,
and vortex2d with iex2+fct, 7 more: 81 configurations per dt factor.
vortex2d sdirk5+gmc is left out because it stalls in step 2 on 12x16
(the GMC fixed point spends its sweeps; ROADMAP item 4): its
face-midpoint velocity is not discretely divergence-free where dx != dy,
and the strict xfail
``test_bar_state_form_equals_flux_form_on_builtin_problems[vortex2d-16x32]``
keeps that defect visible.  Both lists compute two steps' final time
one way, so the overlap is dropped at every dt factor; a catalogue run of
a matrix problem with its own final time (burgers1d, bl1d) carries that
time in its name, and a non-square run its cells, so names are unique.
Result files are pickles: compare only files this script wrote.

Compare two trees::

    PYTHONPATH=<old>/src python tools/stepper_sweep.py run old.pkl
    PYTHONPATH=<new>/src python tools/stepper_sweep.py run new.pkl
    python tools/stepper_sweep.py compare old.pkl new.pkl

Gate one tree on the whole matrix::

    python tools/stepper_sweep.py check new.pkl
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from itertools import product

import numpy as np

DT_FACTORS = (0.5, 5.0)
PROBLEMS = {"burgers1d": dict(nx=30, t_final=0.06),
            "rotation2d": dict(nx=12),
            "bl1d": dict(nx=40, t_final=0.1)}
SCHEMES = ("be", "sdirk5", "iex2", "iex4")
CATALOGUE_SIZES = {1: 30, 2: 12}
CATALOGUE_SCHEMES = (("sdirk5", "gmc"), ("iex2", "fct"))
NON_SQUARE_CELLS = (12, 16)
NON_SQUARE_SCHEMES = {"rotation2d": CATALOGUE_SCHEMES,
                      "linear2d": CATALOGUE_SCHEMES,
                      "kpp2d": CATALOGUE_SCHEMES,
                      "vortex2d": (("iex2", "fct"),)}
#: The gates of ``check``: every bound-preserving run keeps
#: ``delta >= DELTA_MIN``, every run ``|mass_drift| <= MASS_DRIFT_MAX``.
DELTA_MIN = -1e-12
MASS_DRIFT_MAX = 1e-12


def configurations(dt_factor):
    """Every valid configuration of the matrix at one dt factor, as
    ``RunConfig`` keyword dictionaries."""
    from mppfv.harness import RunConfig, build_problem
    from mppfv.limiters import LIMITER_CHOICES

    out = []
    for problem, size in PROBLEMS.items():
        size = dict(size)
        if problem == "rotation2d":
            spec = build_problem(RunConfig(problem=problem))
            size["t_final"] = _two_steps(spec, size["nx"], dt_factor)
        for scheme, limiter in product(SCHEMES, LIMITER_CHOICES):
            if scheme == "be" and limiter != "none":
                continue
            stage_options = ((False, True)
                             if scheme == "sdirk5" and limiter != "none"
                             else (False,))
            iters_options = (1, 2) if limiter == "fct" else (1,)
            gamma_options = (0.0, 1.0) if limiter == "gmc" else (0.0,)
            for limit_stages, fct_iters, gamma in product(
                    stage_options, iters_options, gamma_options):
                out.append(dict(problem=problem, scheme=scheme,
                                limiter=limiter, limit_stages=limit_stages,
                                fct_iters=fct_iters, gamma=gamma,
                                dt_factor=dt_factor, **size))
    return out + [c for c in _catalogue(dt_factor) if c not in out]


def _two_steps(spec, nx, dt_factor, ny=None):
    """The final time of two steps on ``nx`` (by ``ny``) cells, the step
    computed as the harness computes it."""
    from mppfv.problems import make_grid

    return 2.0 * (dt_factor * min(make_grid(spec, nx, ny).spacing))


def _catalogue(dt_factor):
    """Every built-in problem for two steps, then the non-square runs."""
    from mppfv.harness import _EPSILON_PROBLEMS, RunConfig, build_problem
    from mppfv.problems import BUILTIN_PROBLEMS

    runs = [(problem, None, CATALOGUE_SCHEMES) for problem in BUILTIN_PROBLEMS]
    runs += [(problem, NON_SQUARE_CELLS, schemes)
             for problem, schemes in NON_SQUARE_SCHEMES.items()]
    out = []
    for problem, cells, schemes in runs:
        spec = build_problem(RunConfig(problem=problem))
        extra = dict(epsilon=0.01) if problem in _EPSILON_PROBLEMS else {}
        nx, ny = cells or (CATALOGUE_SIZES[spec.dim], None)
        if ny is not None:
            extra["ny"] = ny
        for scheme, limiter in schemes:
            out.append(dict(problem=problem, scheme=scheme, limiter=limiter,
                            limit_stages=False, fct_iters=1, gamma=0.0,
                            dt_factor=dt_factor, nx=nx,
                            t_final=_two_steps(spec, nx, dt_factor, ny),
                            **extra))
    return out


def _key(kwargs):
    return tuple(sorted(kwargs.items()))


def width(config):
    """The width that ``compare`` scales ``|du|`` by: that of the problem's
    global bounds, or the range of its initial data where a bound is
    infinite (steady1d)."""
    from mppfv.harness import build_problem
    from mppfv.problems import initial_cell_averages, make_grid

    spec = build_problem(config)
    bounds = spec.global_max - spec.global_min
    if np.isfinite(bounds):
        return bounds
    u0 = initial_cell_averages(spec, make_grid(spec, config.nx, config.ny))
    return float(np.max(u0) - np.min(u0))


def run_matrix():
    from mppfv.harness import RunConfig, run

    results = {}
    for dt_factor in DT_FACTORS:
        start = time.perf_counter()
        for kwargs in configurations(dt_factor):
            config = RunConfig(**kwargs)
            try:
                diag, u = run(config)
            except Exception as exc:  # record the failure class, keep going
                results[_key(kwargs)] = type(exc).__name__
                continue
            results[_key(kwargs)] = {
                "u": np.array(u.values), "delta": diag.delta,
                "mass_drift": diag.mass_drift, "e1": dict(diag.e1),
                "stage_delta": diag.stage_delta, "width": width(config)}
        print(f"dt_factor {dt_factor}: {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    return results


def _load(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _bits(result):
    """The stored results as raw bytes (or the failure class name)."""
    if isinstance(result, str):
        return result
    scalars = [result[k] for k in ("delta", "mass_drift", "stage_delta")]
    return (result["u"].shape, result["u"].tobytes(),
            np.array(scalars).tobytes(),
            np.array(sorted(result["e1"].items())).tobytes())


def _name(key):
    """A configuration's name: its matrix entries, without the defaults,
    the cells of a non-square run, and the final time where it is not
    that of the problem's matrix runs."""
    c = dict(key)
    name = f"{c['problem']} {c['scheme']}+{c['limiter']}"
    if c["limit_stages"]:
        name += " limit_stages"
    if c["limiter"] == "fct":
        name += f" fct_iters={c['fct_iters']}"
    if c["limiter"] == "gmc":
        name += f" gamma={c['gamma']:g}"
    if "epsilon" in c:
        name += f" epsilon={c['epsilon']:g}"
    if "ny" in c:
        name += f" {c['nx']}x{c['ny']}"
    matrix_t = PROBLEMS.get(c["problem"], {}).get("t_final")
    if matrix_t is not None and c.get("t_final", matrix_t) != matrix_t:
        name += f" t_final={c['t_final']:g}"
    return name


def compare(old, new):
    """Print the comparison, naming the configurations that fail in only
    one file; return True when both files hold the same configurations,
    the same failures and bitwise equal results."""
    if set(old) != set(new):
        print(f"different configurations: {len(set(old) ^ set(new))} "
              f"not in both files")
        return False
    ok = True
    for dt_factor in sorted({dict(k)["dt_factor"] for k in old}):
        keys = [k for k in old if dict(k)["dt_factor"] == dt_factor]
        equal = sum(_bits(old[k]) == _bits(new[k]) for k in keys)
        fail_old = {k for k in keys if isinstance(old[k], str)}
        fail_new = {k for k in keys if isinstance(new[k], str)}
        worst = 0.0
        moved = {}  # problem -> (count, max |du|/width, its key)
        for k in keys:
            if k in fail_old or k in fail_new:
                continue
            du = np.max(np.abs(old[k]["u"] - new[k]["u"])) / old[k]["width"]
            worst = max(worst, du)
            if _bits(old[k]) != _bits(new[k]):
                problem = dict(k)["problem"]
                count, group_worst, at = moved.get(problem, (0, -1.0, k))
                if du > group_worst:
                    group_worst, at = du, k
                moved[problem] = (count + 1, group_worst, at)
        same_failures = fail_old == fail_new
        print(f"dt_factor {dt_factor}: {equal}/{len(keys)} bitwise equal; "
              f"max |du|/width {worst:.3e}; failures {len(fail_old)} -> "
              f"{len(fail_new)}, same set: {same_failures}")
        for label, changed in (("newly failing", fail_new - fail_old),
                               ("newly passing", fail_old - fail_new)):
            for name in sorted(map(_name, changed)):
                print(f"  {label}: {name}")
        for problem, (count, du, at) in sorted(moved.items()):
            print(f"  not bitwise equal: {problem}: {count}, "
                  f"max |du|/width {du:.3e} at {_name(at)}")
        ok = ok and equal == len(keys) and same_failures
    return ok


def gate_failures(key, result):
    """Why the stored result of configuration ``key`` fails the gates
    (empty when it passes)."""
    if isinstance(result, str):
        return [f"raised {result}"]
    c = dict(key)
    bounded = c["limiter"] != "none" or c["scheme"] == "be"
    failures = []
    if bounded and not result["delta"] >= DELTA_MIN:
        failures.append(f"delta {result['delta']:.3e} < {DELTA_MIN:g}")
    if not abs(result["mass_drift"]) <= MASS_DRIFT_MAX:
        failures.append(f"|mass_drift| {abs(result['mass_drift']):.3e} > "
                        f"{MASS_DRIFT_MAX:g}")
    return failures


def check(results):
    """Print, per dt factor, how many configurations fail the gates and,
    by name, each failing one with its reasons; return True when none
    fails."""
    ok = True
    for dt_factor in sorted({dict(k)["dt_factor"] for k in results}):
        keys = [k for k in results if dict(k)["dt_factor"] == dt_factor]
        failing = []
        for k in keys:
            failures = gate_failures(k, results[k])
            if failures:
                failing.append((_name(k), failures))
        failing.sort()
        print(f"dt_factor {dt_factor}: {len(failing)}/{len(keys)} fail")
        for name, failures in failing:
            print(f"  {name}: {'; '.join(failures)}")
        ok = ok and not failing
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the matrix and pickle results")
    p_run.add_argument("out")
    p_cmp = sub.add_parser("compare", help="compare two result files")
    p_cmp.add_argument("old")
    p_cmp.add_argument("new")
    p_check = sub.add_parser("check", help="gate one result file")
    p_check.add_argument("out")
    args = parser.parse_args(argv)
    if args.command == "run":
        results = run_matrix()
        with open(args.out, "wb") as fh:
            pickle.dump(results, fh)
        return 0
    if args.command == "check":
        return 0 if check(_load(args.out)) else 1
    return 0 if compare(_load(args.old), _load(args.new)) else 1


if __name__ == "__main__":
    sys.exit(main())
