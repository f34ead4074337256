"""``tools/stepper_sweep.py compare`` and ``check`` on hand-made result
files, and the large-step gate: the sweep's iex2/iex4 + gmc
configurations and its kpp2d and vortex2d runs (refreshed 2D
pseudo-Jacobians) run here and keep its ``check`` gates."""

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from mppfv.harness import RunConfig, build_problem, run
from mppfv.problems import initial_cell_averages, make_grid

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_sweep():
    spec = importlib.util.spec_from_file_location(
        "stepper_sweep", TOOLS / "stepper_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = _load_sweep()


@pytest.fixture
def sweep():
    return SWEEP


def _key(**kw):
    config = dict(problem="rotation2d", scheme="iex2", limiter="gmc",
                  limit_stages=False, fct_iters=1, gamma=0.0, dt_factor=5.0)
    config.update(kw)
    return tuple(sorted(config.items()))


def _result(value):
    return {"u": np.full(3, value), "delta": 0.0, "mass_drift": 0.0,
            "e1": {}, "stage_delta": 0.0, "width": 1.0}


def test_compare_names_configurations_that_fail_in_one_file(sweep, capsys):
    fixed, broken, same = (_key(), _key(limiter="fct", fct_iters=2),
                           _key(scheme="sdirk5", limit_stages=True))
    old = {fixed: "NonConvergenceError", broken: _result(0.5),
           same: _result(0.25)}
    new = {fixed: _result(0.5), broken: "NonConvergenceError",
           same: _result(0.25)}
    assert not sweep.compare(old, new)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dt_factor 5.0: 1/3 bitwise equal")
    assert lines[1:] == [
        "  newly failing: rotation2d iex2+fct fct_iters=2",
        "  newly passing: rotation2d iex2+gmc gamma=0"]


def test_compare_passes_identical_files(sweep, capsys):
    results = {_key(): _result(0.5), _key(gamma=1.0): "NonConvergenceError"}
    assert sweep.compare(results, dict(results))
    assert capsys.readouterr().out.splitlines() == [
        "dt_factor 5.0: 2/2 bitwise equal; max |du|/width 0.000e+00; "
        "failures 1 -> 1, same set: True"]


def test_compare_groups_results_that_moved(sweep, capsys):
    moved = {_key(): (_result(0.5), _result(0.5 + 2e-13)),
             _key(gamma=1.0): (_result(0.5), _result(0.5 - 1e-13)),
             _key(problem="bl1d", scheme="sdirk5"):
                 (_result(0.25), _result(0.25 + 1e-9)),
             _key(problem="bl1d"): (_result(0.25), _result(0.25))}
    old = {k: pair[0] for k, pair in moved.items()}
    new = {k: pair[1] for k, pair in moved.items()}
    new[_key(gamma=1.0)]["delta"] = 1.0  # moved, though not in u
    assert not sweep.compare(old, new)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dt_factor 5.0: 1/4 bitwise equal; "
                               "max |du|/width 1.000e-09;")
    assert lines[1:] == [
        "  not bitwise equal: bl1d: 1, max |du|/width 1.000e-09 "
        "at bl1d sdirk5+gmc gamma=0",
        "  not bitwise equal: rotation2d: 2, max |du|/width 2.000e-13 "
        "at rotation2d iex2+gmc gamma=0"]


def test_compare_names_the_largest_move_of_each_group(sweep, capsys):
    # The group's largest move comes first in the file; the later ones, a
    # smaller move and a member that moved only in its scalars (|du| = 0),
    # are counted but not named.
    keys = [_key(scheme="iex4"), _key(), _key(gamma=1.0)]
    old = {k: _result(0.5) for k in keys}
    new = {keys[0]: _result(0.5 + 3e-12), keys[1]: _result(0.5 + 1e-12),
           keys[2]: _result(0.5)}
    new[keys[2]]["delta"] = 1.0
    assert not sweep.compare(old, new)
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  not bitwise equal: rotation2d: 3, max |du|/width 3.000e-12 "
        "at rotation2d iex4+gmc gamma=0"]


def test_check_names_configurations_that_break_a_gate(sweep, capsys,
                                                      tmp_path):
    unlimited = _key(limiter="none", dt_factor=0.5)
    results = {_key(): _result(0.5),
               _key(gamma=1.0): "NonConvergenceError",
               _key(scheme="iex4"): _result(0.5),
               unlimited: _result(0.5)}
    results[_key(scheme="iex4")]["delta"] = -2e-12
    results[_key(scheme="iex4")]["mass_drift"] = 3e-12
    results[unlimited]["delta"] = -0.1  # no limiter: may overshoot
    path = tmp_path / "results.pkl"
    path.write_bytes(pickle.dumps(results))
    assert sweep.main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "dt_factor 0.5: 0/1 fail",
        "dt_factor 5.0: 2/3 fail",
        "  rotation2d iex2+gmc gamma=1: raised NonConvergenceError",
        "  rotation2d iex4+gmc gamma=0: delta -2.000e-12 < -1e-12; "
        "|mass_drift| 3.000e-12 > 1e-12"]


def test_check_passes_results_within_the_gates(sweep, capsys, tmp_path):
    results = {_key(): _result(0.5), _key(gamma=1.0): _result(0.25)}
    results[_key()]["delta"] = sweep.DELTA_MIN
    results[_key(gamma=1.0)]["mass_drift"] = -sweep.MASS_DRIFT_MAX
    path = tmp_path / "results.pkl"
    path.write_bytes(pickle.dumps(results))
    assert sweep.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["dt_factor 5.0: 0/2 fail"]


def test_unbounded_problem_is_scaled_by_its_initial_range(sweep, capsys):
    # steady1d has global_max = inf: a width of inf would report every
    # change of its state as 0.
    config = RunConfig(problem="steady1d", nx=30)
    spec = build_problem(config)
    u0 = initial_cell_averages(spec, make_grid(spec, 30))
    width = sweep.width(config)
    assert spec.global_max == np.inf
    assert width == np.max(u0) - np.min(u0) > 0.2
    key = _key(problem="steady1d", scheme="sdirk5")
    old, new = _result(0.125), _result(0.125 + 1e-9)
    old["width"] = new["width"] = width
    assert not sweep.compare({key: old}, {key: new})
    assert capsys.readouterr().out.splitlines()[1] == (
        f"  not bitwise equal: steady1d: 1, max |du|/width "
        f"{1e-9 / width:.3e} at steady1d sdirk5+gmc gamma=0")


@pytest.mark.parametrize("dt_factor", SWEEP.DT_FACTORS)
def test_configurations_are_distinct_with_unique_names(sweep, dt_factor):
    # The catalogue's runs that repeat a matrix run are dropped, which
    # needs both lists to compute the same final time to the last bit.
    configs = sweep.configurations(dt_factor)
    assert len(configs) == 81
    assert len({sweep._key(c) for c in configs}) == 81
    assert len({sweep._name(sweep._key(c)) for c in configs}) == 81


def _large_step_configurations():
    """The sweep's iex2/iex4 + gmc configurations, both gammas: burgers1d
    and bl1d at both dt factors, rotation2d at 0.5 (at 5 its runs take
    seconds each; ``check`` covers them).  Then the catalogue's kpp2d and
    vortex2d runs at both dt factors, square and 12x16, whose stage solves
    factorize refreshed 2D pseudo-Jacobians: a state-dependent one (kpp2d)
    and one that depends on time only (vortex2d)."""
    return [c for dt_factor in SWEEP.DT_FACTORS
            for c in SWEEP.configurations(dt_factor)
            if c["problem"] in ("kpp2d", "vortex2d")
            or (c["scheme"] in ("iex2", "iex4") and c["limiter"] == "gmc"
                and (c["problem"] != "rotation2d" or dt_factor == 0.5))]


@pytest.mark.parametrize(
    "kwargs", _large_step_configurations(),
    ids=lambda c: f"{SWEEP._name(SWEEP._key(c))} dt={c['dt_factor']:g}")
def test_large_step_gate(kwargs):
    diag, _ = run(RunConfig(**kwargs))
    assert diag.delta >= SWEEP.DELTA_MIN
    assert abs(diag.mass_drift) <= SWEEP.MASS_DRIFT_MAX


def test_large_step_gate_covers_the_matrix():
    counts = {}
    for c in _large_step_configurations():
        key = (c["problem"], c["dt_factor"])
        counts[key] = counts.get(key, 0) + 1
    assert counts == {("burgers1d", 0.5): 4, ("burgers1d", 5.0): 4,
                      ("bl1d", 0.5): 4, ("bl1d", 5.0): 4,
                      ("rotation2d", 0.5): 4,
                      ("kpp2d", 0.5): 4, ("kpp2d", 5.0): 4,
                      ("vortex2d", 0.5): 3, ("vortex2d", 5.0): 3}
