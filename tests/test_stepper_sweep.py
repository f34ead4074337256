"""``tools/stepper_sweep.py compare`` on hand-made result files."""

from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import stepper_sweep
    return stepper_sweep


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
        "  not bitwise equal: bl1d: 1, max |du|/width 1.000e-09",
        "  not bitwise equal: rotation2d: 2, max |du|/width 2.000e-13"]
