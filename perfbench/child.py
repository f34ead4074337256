"""One measurement of one workload, in a fresh process.

    python perfbench/child.py setup|timed|traced <workload>

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and BLAS and
OpenMP pinned to one thread.  It prints one JSON object as its last line:

``setup``
    ``setup_s``: importing ``mppfv`` (numpy and scipy are imported first and
    not timed) plus building the problem, the grid, the initial cell
    averages and the stepper, as ``harness.run`` does before its first step.
``timed``
    one untraced ``harness.run``: ``wall_s``, ``peak_rss_mib`` of this
    process, ``l1_error`` and the failed checks.
``traced``
    the same run with the tracer installed: ``wall_s``, the failed checks
    (including the step count) and the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before the setup clock starts)
import scipy.sparse  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

from workloads import WORKLOADS, check_run, l1_error, load_reference

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(workload):
    t0 = time.perf_counter()
    from mppfv.harness import _make_stepper, build_problem
    from mppfv.problems import initial_cell_averages, make_grid
    config = workload.run_config()
    spec = build_problem(config)
    grid = make_grid(spec, config.nx, config.ny)
    initial_cell_averages(spec, grid)
    _make_stepper(config, spec, grid)
    return {"setup_s": time.perf_counter() - t0}


def _run(workload, traced):
    from mppfv import harness
    from mppfv.solvers import NonConvergenceError
    from tracing import ROOT_SPAN, Tracer
    config = workload.run_config()
    reference = load_reference(workload)
    tracer = Tracer() if traced else None
    run = harness.run
    if tracer is not None:
        tracer.install()
        run = tracer.wrap(ROOT_SPAN, harness.run)
    try:
        t0 = time.perf_counter()
        try:
            diag, u = run(config)
            error = None
        except NonConvergenceError as exc:
            error = f"NonConvergenceError: {exc}"
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"wall_s": wall,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if error is not None:
        out["failures"] = [error]
        return out
    steps = None
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall)
        steps = int(out["layers"]["harness.steps"])
    out["failures"] = check_run(workload, diag, u, reference, steps)
    out["l1_error"] = l1_error(diag, u, reference)
    return out


def main(argv):
    kind, name = argv
    workload = WORKLOADS[name]
    if kind == "setup":
        out = _setup(workload)
    elif kind in ("timed", "traced"):
        out = _run(workload, kind == "traced")
    else:
        raise SystemExit(f"unknown measurement {kind!r}")
    import mppfv
    if SRC not in Path(mppfv.__file__).resolve().parents:
        raise SystemExit(f"mppfv was imported from {mppfv.__file__}, "
                         f"not from {SRC}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
