"""The benchmark's tracer (``perfbench/tracing.py``) wraps about 25 ``mppfv``
names, which it looks up by string.  A refactor that renames or moves one of
them breaks the traced benchmark run; this test installs the tracer, makes
one small traced run per configuration and checks that uninstalling
restores every module and class it patched.  iex2+gmc runs its substeps
through the semidiscrete GMC stage solver, iex2+fct through the quasi-Newton
stage solver."""

from pathlib import Path

import pytest
import scipy.sparse.linalg

from mppfv import (fluxes, harness, limiters, mesh, metrics, solvers,
                   time_integration, weno)
from mppfv.harness import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

OWNERS = (fluxes, harness, limiters, mesh, metrics, solvers,
          time_integration, weno, fluxes.FaceFluxSet,
          solvers.SparseBandedMatrix, scipy.sparse.linalg)


@pytest.mark.parametrize("limiter", ["gmc", "fct"], ids=lambda s: f"iex2-{s}")
def test_tracer_installs_every_point_and_unwinds(monkeypatch, limiter):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import ROOT_SPAN, Tracer

    config = RunConfig(problem="burgers1d", nx=40, scheme="iex2",
                       limiter=limiter, t_final=0.05)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.dirk_step is not time_integration.dirk_step
        tracer.wrap(ROOT_SPAN, harness.run)(config)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(1.0)
    assert layers["harness.steps"] >= 1
    assert layers["weno.face_values.calls"] > 0
    # The kernels call the names the tracer patches: a kernel that stops
    # calling them would read 0 here instead of in the benchmark's counts.
    assert layers["limiters.zalesak.calls"] > 0
    if limiter == "gmc":
        assert layers["limiters.gmc_substep.sweeps_per_substep_mean"] > 0
        assert layers["fluxes.low_order.calls"] > 0
    else:
        assert layers["solvers.newton.iters_per_stage_mean"] > 0
        assert layers["solvers.assemble.calls"] > 0
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        assert [k for k in old if old[k] is not new[k]] == [], owner
