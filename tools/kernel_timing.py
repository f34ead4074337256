"""Per-call times of the flux and limiter kernels in two source trees.

Whole-run wall times mix every kernel; this script times each kernel
alone, as the minimum over many calls.  On a machine shared with other
work the minima still move between runs, so compare only trees timed in
the same run.  ::

    python tools/kernel_timing.py A_SRC B_SRC

``A_SRC`` and ``B_SRC`` are the directories that hold each tree's ``mppfv``
package (``<tree>/src``).  The script starts ``RUNS`` fresh processes per
tree, alternating the trees and which of them goes first in each
pair, with BLAS and OpenMP pinned to one thread.  Each process times, on
burgers1d (nx=200) and rotation2d (64 x 64) at their initial states:

``gmc_sweep``
    one sweep of the GMC fixed point of the semidiscrete substep (the
    iex + gmc proposal): low-order flux and bar states, ``G^H`` rebuilt
    from the iterate, budgets, coefficients and the update, at
    ``dt = 5 dx`` so that the sweeps do not converge within the run;
``high_order_flux``, ``low_order_with_bars``, ``zalesak_alphas``, ``divergence``
    one call of each (``divergence`` of the low-order flux set).

It prints, per tree, the minimum over all its processes of the minimum time
per call, in microseconds.  Only names both trees share are called:
``limiters._gmc_fixed_point``, ``gmc_budgets``, ``zalesak_alphas``,
``fluxes.high_order_flux``, ``low_order_with_bars``, ``low_order_rhs``,
``FaceFluxSet.divergence`` and ``BarStateSet.cell_coefficient``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

CASES = {"burgers1d": dict(problem="burgers1d", nx=200),
         "rotation2d": dict(problem="rotation2d", nx=64)}
KERNELS = ("gmc_sweep", "high_order_flux", "low_order_with_bars",
           "zalesak_alphas", "divergence")
#: Sweeps per timed call of the GMC fixed point.
GMC_SWEEPS = 20
REPEATS = 7
#: Fresh processes per tree.
RUNS = 6
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def _per_call(fn, number=None):
    timer = timeit.Timer(fn)
    if number is None:
        number = max(1, timer.autorange()[0] // 4)
    return min(timer.repeat(repeat=REPEATS, number=number)) / number


def _time_case(config):
    from mppfv import fluxes, limiters
    from mppfv.harness import RunConfig, build_problem
    from mppfv.problems import initial_cell_averages, make_grid
    from mppfv.solvers import NonConvergenceError

    spec = build_problem(RunConfig(**config))
    grid = make_grid(spec, config["nx"], None)
    u = initial_cell_averages(spec, grid).values
    dt = 5.0 * min(grid.spacing)
    G_L, bars = fluxes.low_order_with_bars(u, spec, grid, t=0.0)
    G_H = fluxes.high_order_flux(u, spec, grid, t=0.0)
    # ubar_i from the low-order right-hand side a_i (ubar_i - u_i) / |K_i|.
    a = bars.cell_coefficient()
    ubar = u + grid.cell_volume * fluxes.low_order_rhs(u, spec, grid) / a
    q_minus, q_plus = limiters.gmc_budgets(a, ubar, u, spec, 0.0)
    correction = G_L - G_H

    def gmc_sweeps():
        try:
            report = limiters._gmc_fixed_point(
                u, lambda y: fluxes.high_order_flux(y, spec, grid, t=dt),
                spec, grid, dt, 0.0, dt, max_sweeps=GMC_SWEEPS)[2]
        except NonConvergenceError:
            return GMC_SWEEPS + 1
        return report.iterations + 1

    sweeps = gmc_sweeps()
    return {
        "gmc_sweep": _per_call(gmc_sweeps, number=1) / sweeps,
        "high_order_flux": _per_call(
            lambda: fluxes.high_order_flux(u, spec, grid, t=0.0)),
        "low_order_with_bars": _per_call(
            lambda: fluxes.low_order_with_bars(u, spec, grid, t=0.0)),
        "zalesak_alphas": _per_call(
            lambda: limiters.zalesak_alphas(correction, q_minus, q_plus,
                                            grid)),
        "divergence": _per_call(G_L.divergence),
    }


def child():
    print(json.dumps({name: _time_case(config)
                      for name, config in CASES.items()}))


def _run_tree(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARIABLES})
    out = subprocess.run([sys.executable, __file__, "--child"], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", nargs="?", type=Path)
    parser.add_argument("b_src", nargs="?", type=Path)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    if args.a_src is None or args.b_src is None:
        parser.error("A_SRC and B_SRC are required")
    trees = {"A": args.a_src.resolve(), "B": args.b_src.resolve()}
    for label, src in trees.items():
        if not (src / "mppfv" / "__init__.py").is_file():
            parser.error(f"{label}: no mppfv package in {src}")

    best = {label: {} for label in trees}
    for run in range(RUNS):
        order = ("A", "B") if run % 2 == 0 else ("B", "A")
        for label in order:
            for case, times in _run_tree(trees[label]).items():
                for kernel, seconds in times.items():
                    key = (case, kernel)
                    best[label][key] = min(best[label].get(key, seconds),
                                           seconds)

    print(f"A = {trees['A']}\nB = {trees['B']}\n"
          f"min of {RUNS} processes per tree, microseconds per call")
    print(f"{'case':<12}{'kernel':<22}{'A':>10}{'B':>10}{'B/A':>8}")
    for case in CASES:
        for kernel in KERNELS:
            a = best["A"][(case, kernel)] * 1e6
            b = best["B"][(case, kernel)] * 1e6
            print(f"{case:<12}{kernel:<22}{a:>10.1f}{b:>10.1f}{b / a:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
