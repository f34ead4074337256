"""The tracer changes no result, leaves nothing installed, and its counts
repeat exactly.  Each workload runs here on a small grid for a few steps."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from mppfv import (fluxes, harness, limiters, mesh, metrics, problems,
                   solvers, time_integration, weno)
from run import END_TO_END
from tracing import LAYER_METRICS, ROOT_SPAN, Tracer
from workloads import WORKLOADS

SMALL = {
    "burgers1d-iex4-gmc": dict(nx=40, t_final=0.05),
    "rotation2d-sdirk5-gmc": dict(nx=16, t_final=0.5 / 16),
    "bl1d-sdirk5-fct-dt5h": dict(nx=50, t_final=0.2),
}

OWNERS = (fluxes, harness, limiters, mesh, metrics, problems, solvers,
          time_integration, weno, fluxes.FaceFluxSet,
          solvers.SparseBandedMatrix, scipy.sparse.linalg)


def small_config(name):
    return WORKLOADS[name].run_config(**SMALL[name])


def traced_run(config):
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.dirk_step is not time_integration.dirk_step
        diag, u = tracer.wrap(ROOT_SPAN, harness.run)(config)
    finally:
        tracer.uninstall()
    return diag, u, tracer


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_is_bitwise_untraced_and_unwinds(name):
    config = small_config(name)
    before = [dict(vars(owner)) for owner in OWNERS]
    diag, u = harness.run(config)
    diag_t, u_t, _ = traced_run(config)
    assert np.array_equal(u.values, u_t.values)
    assert (diag.delta, diag.mass_drift, diag.e1) == \
        (diag_t.delta, diag_t.mass_drift, diag_t.e1)
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        changed = [k for k in old if old[k] is not new[k]]
        assert not changed, (owner, changed)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name):
    config = small_config(name)
    runs = [traced_run(config)[2].layer_metrics(1.0) for _ in range(2)]
    counts = [m for m, (unit, _) in LAYER_METRICS.items()
              if unit == "count" and m in runs[0]]
    assert {m: runs[0][m] for m in counts} == {m: runs[1][m] for m in counts}
    assert runs[0]["harness.steps"] >= 1
    assert runs[0]["weno.face_values.calls"] > 0


def test_idle_layers_read_zero():
    burgers = traced_run(small_config("burgers1d-iex4-gmc"))[2].layer_metrics(1.0)
    assert burgers["limiters.gmc_substep.sweeps_per_substep_mean"] > 0
    assert all(v == 0.0 for m, v in burgers.items() if m.startswith("solvers."))
    bl = traced_run(small_config("bl1d-sdirk5-fct-dt5h"))[2].layer_metrics(1.0)
    assert bl["solvers.lu_factor.count"] > 0
    assert bl["solvers.newton.iters_per_stage_mean"] > 0
    assert all(v == 0.0 for m, v in bl.items() if m.startswith("limiters.gmc"))
    rot = traced_run(small_config("rotation2d-sdirk5-gmc"))[2].layer_metrics(1.0)
    assert rot["solvers.gmres.iters"] > 0
    assert rot["limiters.gmc.sweeps_per_step_mean"] > 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == LAYER_METRICS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
