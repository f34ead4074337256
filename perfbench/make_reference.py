"""Record the reference results the benchmark checks every run against.

    python3 perfbench/make_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.npz`` (see ``workloads.py`` for the
contents) for the named workloads, or for all of them.  The step count is
taken from a traced run, whose final state is bitwise that of an untraced
run (``test_tracing.py`` checks this).  Only rerun it when a change is
meant to alter the results, and say so where the change is recorded.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mppfv import harness  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(workload):
    tracer = Tracer()
    tracer.install()
    try:
        diag, u = tracer.wrap(ROOT_SPAN, harness.run)(workload.run_config())
    finally:
        tracer.uninstall()
    data = {"u": u.values,
            "steps": int(tracer.layer_metrics(1.0)["harness.steps"])}
    if not diag.e1:
        _, fine = harness.run(workload.refined_config())
        data["u_refined"] = fine.values.reshape(-1, 2).mean(axis=1)
    workload.reference_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(workload.reference_path, **data)
    print(f"{workload.name}: {data['steps']} steps -> {workload.reference_path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        record(WORKLOADS[name])
