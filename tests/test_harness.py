"""Run driver: configuration, config files, CLI, snapshots, studies."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mppfv import harness, solvers
from mppfv.fluxes import divergence
from mppfv.harness import (RunConfig, _make_stepper, build_problem,
                           convergence_study, load_config_file, main, run,
                           snapshot)
from mppfv.limiters import _restore_bounds
from mppfv.mesh import PERIODIC, CellField, StructuredGrid
from mppfv.metrics import RunDiagnostics
from mppfv.problems import initial_cell_averages, make_grid
from mppfv.solvers import NonConvergenceError

from conftest import DIRICHLET, random_flux_set
from oracles import read_snapshot
from test_limiters import _burgers_pulse


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.problem == "linear1d" and cfg.scheme == "sdirk5"
        assert cfg.limiter == "none" and cfg.solver == "fresh-jacobian"

    @pytest.mark.parametrize("kwargs", [
        dict(problem="heat3d"),
        dict(scheme="rk4"),
        dict(limiter="minmod"),
        dict(solver="matrix-free"),
        dict(nx=4),
        dict(problem="linear2d", ny=4),
        dict(fct_iters=0),
        dict(gamma=-0.5),
        dict(dt_factor=0.0),
        dict(t_final=0.0),
        dict(scheme="be", limiter="fct"),
        dict(scheme="iex4", limiter="gmc", limit_stages=True),
        dict(scheme="sdirk5", limiter="none", limit_stages=True),
        dict(problem="burgers1d", epsilon=0.01),
        dict(study=(100,)),
        dict(study=(100, 150)),
        dict(snapshot_times=(-0.1,)),
        dict(solver="frozen-jacobian"),
        dict(gamma=math.nan),
        dict(gamma=math.inf),
        dict(dt_factor=math.nan),
        dict(dt_factor=math.inf),
        dict(t_final=math.nan),
        dict(t_final=math.inf),
        dict(epsilon=math.nan),
        dict(epsilon=math.inf),
        dict(epsilon=-0.01),
        dict(snapshot_times=(math.nan,)),
        dict(snapshot_times=(0.1, math.inf)),
        # Both times name the file linear1d_sdirk5_t0.100000.csv.
        dict(snapshot_times=(0.1, 0.1000001)),
    ])
    def test_rejected_configurations(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_accepted_near_miss_configurations(self):
        RunConfig(scheme="sdirk5", limiter="gmc", limit_stages=True)
        RunConfig(problem="linear1d", epsilon=0.001)
        RunConfig(study=(50, 100, 200))
        RunConfig(study=(50, 98))  # within 5% of doubling
        RunConfig(snapshot_times=(0.1, 0.1, 0.100001))  # one file per time

    def test_study_normalized_to_ints(self):
        cfg = RunConfig(study=("25", "50"))
        assert cfg.study == (25, 50)
        assert all(isinstance(n, int) for n in cfg.study)


class TestBuildProblem:
    def test_epsilon_defaults_to_zero(self):
        spec = build_problem(RunConfig(problem="linear1d"))
        assert spec.diffusion(0.5, 1.0, None) == 0.0

    def test_epsilon_passes_through(self):
        spec = build_problem(RunConfig(problem="linear1d", epsilon=0.001))
        assert spec.diffusion(0.5, 1.0, None) == 0.001

    def test_vortex_period_tracks_final_time(self):
        spec = build_problem(RunConfig(problem="vortex2d", t_final=3.0))
        assert spec.final_time == 3.0
        default = build_problem(RunConfig(problem="vortex2d"))
        assert default.final_time == 1.5


class TestConfigFile:
    def test_parse_with_comments_and_hyphens(self, tmp_path):
        text = """
        # run description
        problem = linear1d
        nx = 64            # inline comment
        dt-factor = 0.25
        snapshot-times = 0.1, 0.2
        study = 32,64
        limit-stages = no
        """
        p = tmp_path / "run.cfg"
        p.write_text(text)
        kwargs = load_config_file(p)
        assert kwargs == dict(problem="linear1d", nx=64, dt_factor=0.25,
                              snapshot_times=(0.1, 0.2), study=(32, 64),
                              limit_stages=False)
        RunConfig(**kwargs)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("cfl = 0.5\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(p)

    def test_bad_boolean_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("limit_stages = maybe\n")
        with pytest.raises(ValueError, match="invalid boolean"):
            load_config_file(p)


class TestSnapshots:
    def test_roundtrip_1d_bitwise(self, tmp_path, rng):
        grid = StructuredGrid((17,), (0.0,), (1.0,), (PERIODIC,))
        u = rng.standard_normal(17) * 1e3
        path = snapshot(u, grid, tmp_path / "deep" / "nested" / "snap.csv")
        header, data = read_snapshot(path)
        assert header == ["x", "u"]
        assert np.array_equal(data[:, 0], grid.axis_centers(0))
        assert np.array_equal(data[:, 1], u)

    def test_2d_row_major_order(self, tmp_path):
        grid = StructuredGrid((3, 2), (0.0, 0.0), (3.0, 2.0),
                              (PERIODIC, PERIODIC))
        u = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # u[iy, ix]
        header, data = read_snapshot(snapshot(u, grid, tmp_path / "s.csv"))
        assert header == ["x", "y", "u"]
        assert data.shape == (6, 3)
        assert np.array_equal(data[:, 2], [1, 2, 3, 4, 5, 6])
        assert np.array_equal(data[:, 0], [0.5, 1.5, 2.5, 0.5, 1.5, 2.5])
        assert np.array_equal(data[:, 1], [0.5, 0.5, 0.5, 1.5, 1.5, 1.5])

    def test_seventeen_digits_roundtrip_exactly(self, tmp_path):
        grid = StructuredGrid((5,), (0.0,), (1.0,), (PERIODIC,))
        u = np.array([1 / 3, math.pi, 1e-300, -2 / 7, 0.1])
        _, data = read_snapshot(snapshot(u, grid, tmp_path / "s.csv"))
        assert np.array_equal(data[:, 1], u)


def _quick(**kw):
    base = dict(problem="linear1d", nx=16, scheme="be", dt_factor=0.5,
                t_final=0.5)
    base.update(kw)
    return RunConfig(**base)


class TestRunLoop:
    def test_final_time_key_and_error_recorded(self):
        diag, u = run(_quick())
        assert set(diag.e1) == {0.5}
        assert diag.e1[0.5] > 0.0
        assert u.values.shape == (16,)
        assert np.isfinite(diag.delta)

    def test_returns_cell_field_on_the_run_grid(self):
        cfg = _quick(problem="rotation2d", nx=8, ny=6, t_final=0.05)
        _, u = run(cfg)
        assert isinstance(u, CellField)
        assert u.grid == make_grid(build_problem(cfg), 8, 6)
        assert u.values.shape == (6, 8) and u.values.dtype == np.float64

    def test_snapshot_files_and_initial_state(self, tmp_path):
        cfg = _quick(snapshot_times=(0.0, 0.25, 0.5), out=str(tmp_path))
        diag, _ = run(cfg)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["linear1d_be_t0.000000.csv",
                         "linear1d_be_t0.250000.csv",
                         "linear1d_be_t0.500000.csv"]
        _, data = read_snapshot(tmp_path / "linear1d_be_t0.000000.csv")
        spec = build_problem(cfg)
        grid = make_grid(spec, cfg.nx)
        assert np.array_equal(data[:, 1], initial_cell_averages(spec, grid))
        # intermediate snapshot times also get an error entry
        assert set(diag.e1) == {0.25, 0.5}

    def test_snapshot_beyond_final_time_rejected(self):
        with pytest.raises(ValueError, match="must not exceed"):
            run(_quick(snapshot_times=(0.6,)))

    def test_intermediate_stop_does_not_change_final_time(self):
        plain = run(_quick())[1]
        diag, stopped = run(_quick(snapshot_times=(0.313,)))
        # The clipped step sequence perturbs a first-order solution at
        # O(dt); both stop times are still hit exactly.
        assert set(diag.e1) == {0.313, 0.5}
        assert stopped.values == pytest.approx(plain.values, rel=0.02)

    def test_deterministic_bitwise(self):
        cfg = RunConfig(problem="burgers1d", nx=40, scheme="sdirk5",
                        limiter="fct", t_final=0.05)
        d1, u1 = run(cfg)
        d2, u2 = run(cfg)
        assert np.array_equal(u1.values, u2.values)
        assert d1.delta == d2.delta and d1.mass_drift == d2.mass_drift

    def test_mass_audit_with_dirichlet_outflow(self):
        diag, _ = run(RunConfig(problem="bl1d", nx=25, scheme="be",
                                t_final=0.05))
        assert abs(diag.mass_drift) <= 1e-10

    def test_stage_delta_tracking(self):
        # Every proposal's stage values are folded in; be has none.
        assert run(_quick(scheme="be"))[0].stage_delta == np.inf
        for scheme in ("sdirk5", "iex2"):
            assert np.isfinite(run(_quick(scheme=scheme))[0].stage_delta)


#: Every stepper branch of ``harness._make_stepper``, run on burgers1d for
#: two steps; ``tests/data/stepper_golden.npz`` holds each final state.
STEPPER_BRANCHES = {
    "be": dict(scheme="be"),
    "sdirk5-none": dict(scheme="sdirk5"),
    "sdirk5-fct": dict(scheme="sdirk5", limiter="fct"),
    "sdirk5-gmc": dict(scheme="sdirk5", limiter="gmc"),
    "iex2-none": dict(scheme="iex2"),
    "iex2-fct": dict(scheme="iex2", limiter="fct"),
    "iex2-gmc": dict(scheme="iex2", limiter="gmc"),
    "sdirk5-fct-stages": dict(scheme="sdirk5", limiter="fct",
                              limit_stages=True),
    "sdirk5-gmc-stages": dict(scheme="sdirk5", limiter="gmc",
                              limit_stages=True),
    "sdirk5-fct-stages-iters2": dict(scheme="sdirk5", limiter="fct",
                                     limit_stages=True, fct_iters=2),
    "iex2-gmc-gamma1": dict(scheme="iex2", limiter="gmc", gamma=1.0),
}
STEPPER_GOLDEN = Path(__file__).parent / "data" / "stepper_golden.npz"


class TestRoundoffLastStep:
    """A last step that differs from the nominal dt only by roundoff keeps
    the nominal dt, so it meets no new implicit scale: the assemblies see
    only the nominal scales, and the run still ends within ``TIME_RTOL``
    of the final time.  At each of these final times, clipping the last
    step would change dt by an ulp or two."""

    @pytest.mark.parametrize("kwargs, scales", [
        (dict(problem="rotation2d", nx=12, scheme="sdirk5", limiter="gmc",
              t_final=3 * 0.5 / 12), 1),
        (dict(problem="linear1d", nx=30, scheme="sdirk5",
              t_final=math.pi / 10), 1),
        # The stage scale a_mm*dt and the low-order scale dt of the FCT.
        (dict(problem="bl1d", nx=40, scheme="sdirk5", limiter="fct",
              t_final=0.05), 2),
    ], ids=["rotation2d", "linear1d", "bl1d"])
    def test_one_factorization_per_scale(self, kwargs, scales, monkeypatch):
        ends = []
        make_stepper = harness._make_stepper

        def recording_stepper(config, spec, grid):
            step = make_stepper(config, spec, grid)

            def recorded(u, t, dt):
                ends.append(t + dt)
                return step(u, t, dt)
            return recorded

        monkeypatch.setattr(harness, "_make_stepper", recording_stepper)
        with mock.patch.object(solvers, "assemble_pseudo_jacobian",
                               wraps=solvers.assemble_pseudo_jacobian) \
                as assemble:
            run(RunConfig(**kwargs))
        assert len({float(call.args[3])
                    for call in assemble.call_args_list}) == scales
        t_end = kwargs["t_final"]
        assert abs(ends[-1] - t_end) <= t_end * harness.TIME_RTOL


class TestBoundaryOutflow:
    @pytest.mark.parametrize("boundary", [
        (DIRICHLET, PERIODIC), (PERIODIC, DIRICHLET), (DIRICHLET, DIRICHLET)])
    def test_equals_total_divergence(self, boundary, rng):
        # sum_i |K| div_i telescopes to the boundary faces' outward flux.
        grid = StructuredGrid((6, 5), (0.0, -1.0), (1.5, 1.0), boundary)
        flux = random_flux_set(grid, rng)
        want = grid.cell_volume * float(np.sum(divergence(flux, grid)))
        got = harness._boundary_outflow(flux, grid)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert abs(got) > 1e-3

    def test_zero_on_periodic_grid(self, rng):
        grid = StructuredGrid((6, 5), (0.0, -1.0), (1.5, 1.0),
                              (PERIODIC, PERIODIC))
        assert harness._boundary_outflow(random_flux_set(grid, rng),
                                         grid) == 0.0


class TestStepperGolden:
    """Pins each (scheme, limiter) branch to the state it reached before
    the stepper was composed as proposal x limiter.  The tolerance admits
    solver-level changes (accelerated fixed points, other Newton
    strategies) but not a miswired branch, which moves the state by 1e-3
    or more."""

    @pytest.mark.parametrize("name", sorted(STEPPER_BRANCHES))
    def test_final_state_matches_golden(self, name):
        nx = 30
        dt = 0.5 * 2.0 / nx        # dt_factor * dx on [-1, 1]
        cfg = RunConfig(problem="burgers1d", nx=nx, t_final=2 * dt,
                        **STEPPER_BRANCHES[name])
        spec = build_problem(cfg)
        diag, u = run(cfg)
        with np.load(STEPPER_GOLDEN) as golden:
            want = golden[name]
        width = spec.global_max - spec.global_min
        assert np.max(np.abs(u.values - want)) <= 1e-7 * width
        assert abs(diag.mass_drift) <= 1e-12
        if cfg.limiter != "none" or cfg.scheme == "be":
            # Unlimited high-order steps overshoot the bounds by design.
            assert diag.delta >= -1e-12


class TestStageLimitedStep:
    """``limit_stages``: every implicit sdirk5 stage is limited through the
    ``limit_stage`` hook of ``dirk_step``, then the step itself.  An unknown
    limiter name is rejected by ``RunConfig`` (see
    ``TestRunConfigValidation.test_rejected_configurations``)."""

    @pytest.mark.parametrize("limiter,kw", [("fct", dict(fct_iters=2)),
                                            ("gmc", dict(gamma=1.0))])
    def test_output_within_bounds_and_conservative(self, limiter, kw):
        spec, grid, u0 = _burgers_pulse(60)
        dt = 0.5 * grid.spacing[0]
        cfg = RunConfig(problem="burgers1d", nx=60, scheme="sdirk5",
                        limiter=limiter, limit_stages=True, **kw)
        out, realized, stages = _make_stepper(cfg, spec, grid)(u0, 0.0, dt)
        assert len(stages) == 5
        assert np.min(out) >= spec.global_min
        assert np.max(out) <= spec.global_max
        assert np.sum(out) == pytest.approx(np.sum(u0), rel=1e-12)
        # The realized flux reproduces the update; the two summation orders
        # agree to roundoff only, so the comparison is not bitwise.
        assert np.allclose(
            out,
            _restore_bounds(u0 - dt * divergence(realized, grid), spec),
            rtol=0.0, atol=1e-12)


class TestLargeStepSemidiscreteGmc:
    """iex2 + gmc at dt = 5h.  With plain diagonal sweeps the substep fixed
    point stalled on both problems (linear1d at residual about 1 after
    5000 sweeps); Anderson mixing lets it converge."""

    @pytest.mark.parametrize("problem,nx,steps", [("linear1d", 40, 4),
                                                  ("rotation2d", 12, 2)])
    def test_finishes_bounded_and_conservative(self, problem, nx, steps):
        h = min(make_grid(build_problem(RunConfig(problem=problem)),
                          nx).spacing)
        diag, _ = run(RunConfig(problem=problem, nx=nx, scheme="iex2",
                                limiter="gmc", dt_factor=5.0,
                                t_final=steps * 5.0 * h))
        assert diag.delta >= -1e-12
        assert abs(diag.mass_drift) <= 1e-12


class TestConvergenceStudy:
    def test_rows_and_rates_on_exact_problem(self, tmp_path):
        cfg = RunConfig(problem="linear1d", nx=16, scheme="be",
                        t_final=0.25, study=(16, 32), out=str(tmp_path))
        rows = convergence_study(cfg)
        assert [r["nx"] for r in rows] == [16, 32]
        extent = 2.0 * math.pi
        assert rows[0]["dx"] == pytest.approx(extent / 16, rel=1e-15)
        assert rows[0]["eoc"] is None and isinstance(rows[1]["eoc"], float)
        assert rows[1]["eoc"] == pytest.approx(
            math.log2(rows[0]["e1"] / rows[1]["e1"]), rel=1e-12)
        csv = (tmp_path / "study_linear1d_be.csv").read_text().splitlines()
        assert csv[0] == "dx,E1,EOC,delta"
        assert len(csv) == 3
        first = csv[1].split(",")
        assert float(first[0]) == rows[0]["dx"]
        assert float(first[1]) == rows[0]["e1"]
        assert first[2] == ""
        assert float(first[3]) == rows[0]["delta"]
        second = csv[2].split(",")
        assert float(second[2]) == rows[1]["eoc"]

    def test_sdirk5_gmc_order_gate(self):
        # End-to-end order of the fifth-order scheme with the GMC limiter
        # on a smooth problem.  The limiter does not act on this data: the
        # limited E1 equals that of limiter="none" to 12 significant digits
        # at all three grids, so this gates the unlimited scheme.  With
        # epsilon = 0 the limited runs drop to about third order by design:
        # the sin^4 data touches both global bounds, so the limiter clips
        # the smooth extrema.  That case is not gated.
        rows = convergence_study(RunConfig(
            problem="linear1d", epsilon=0.1, scheme="sdirk5", limiter="gmc",
            t_final=1.0, study=(40, 80, 160)))
        assert rows[-1]["eoc"] >= 4.5
        assert all(row["delta"] >= -1e-12 for row in rows)

    @pytest.mark.parametrize("scheme, limiter, least", [
        ("iex2", "gmc", 1.8), ("iex4", "gmc", 4.8), ("sdirk5", "fct", 4.3)])
    def test_scheme_family_order_gate(self, scheme, limiter, least):
        # One gate per scheme family on the data of the sdirk5+gmc gate.
        # EOC per refinement: iex2+gmc 2.05, 1.96; iex4+gmc 4.92, 5.23;
        # sdirk5+fct 4.68, 4.50.
        rows = convergence_study(RunConfig(
            problem="linear1d", epsilon=0.1, scheme=scheme, limiter=limiter,
            dt_factor=0.5, t_final=1.0, study=(40, 80, 160)))
        assert rows[-1]["eoc"] >= least
        assert all(row["delta"] >= -1e-12 for row in rows)

    @pytest.mark.parametrize("gamma, least", [(5.0, 4.5), (0.0, 2.6)])
    def test_active_gmc_limiter_order_gate(self, gamma, least):
        # With epsilon = 0 the sin^4 data touches both global bounds, and
        # the unlimited scheme overshoots (delta = -1.6e-3).  The limiter
        # acts: its E1 differs from the unlimited one on every grid
        # (1.461e-2 against 1.557e-2 at 40 cells at gamma = 5), so this
        # gate fails if the limiter goes idle.  High order survives the
        # limiting only with the bound relaxation gamma large enough: EOC
        # 3.88, 5.09 at gamma = 5.  At the default gamma = 0 the result is
        # third order (2.85, 3.04).
        config = RunConfig(problem="linear1d", epsilon=0.0, scheme="sdirk5",
                           limiter="gmc", gamma=gamma, dt_factor=0.5,
                           t_final=1.0, study=(40, 80, 160))
        rows = convergence_study(config)
        assert rows[-1]["eoc"] >= least
        assert all(row["delta"] >= -1e-12 for row in rows)
        unlimited = convergence_study(dataclasses.replace(
            config, limiter="none", gamma=0.0))
        assert min(row["delta"] for row in unlimited) < -1e-4
        assert all(row["e1"] != free["e1"]
                   for row, free in zip(rows, unlimited))

    def test_sdirk5_gmc_2d_order_gate(self):
        # The 2D stage solves of linear2d at dt = h/2 run on the
        # line-factorized iteration matrix.  Here the limiter acts (the
        # unlimited runs overshoot on every grid); EOC 2.95, then 4.25,
        # E1 = 9.23e-3 at 64^2.
        rows = convergence_study(RunConfig(
            problem="linear2d", epsilon=0.01, scheme="sdirk5", limiter="gmc",
            dt_factor=0.5, study=(16, 32, 64)))
        assert rows[-1]["eoc"] >= 4.0
        assert all(row["delta"] >= -1e-12 for row in rows)

    def test_requires_study_grids_and_exact_solution(self):
        with pytest.raises(ValueError, match="grid sequence"):
            convergence_study(RunConfig(problem="linear1d"))
        with pytest.raises(ValueError, match="no exact solution"):
            convergence_study(RunConfig(problem="burgers1d", study=(16, 32)))

    def test_anisotropic_grids_scale_ny(self, monkeypatch):
        seen = []

        def fake_run(sub):
            seen.append(sub)
            return RunDiagnostics(delta=0.1, e1={1.0: 2.0 ** -len(seen)}), None

        monkeypatch.setattr(harness, "run", fake_run)
        cfg = RunConfig(problem="linear2d", nx=10, ny=20, study=(10, 20),
                        scheme="be")
        rows = convergence_study(cfg)
        assert [(s.nx, s.ny) for s in seen] == [(10, 20), (20, 40)]
        assert all(s.study == () and s.snapshot_times == () and s.out is None
                   for s in seen)
        assert rows[1]["eoc"] == pytest.approx(1.0, abs=1e-12)


class TestCommandLine:
    def test_successful_run_reports_summary(self, capsys):
        code = main(["--problem", "linear1d", "--nx", "16", "--scheme", "be",
                     "--t-final", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "problem=linear1d" in out and "scheme=be" in out
        assert "delta=" in out and "mass_drift=" in out and "E1=" in out
        assert "stage_delta=" not in out  # be has no stages
        assert main(["--problem", "linear1d", "--nx", "16", "--scheme",
                     "iex2", "--t-final", "0.1"]) == 0
        assert "stage_delta=" in capsys.readouterr().out

    def test_study_prints_table(self, capsys):
        code = main(["--problem", "linear1d", "--nx", "16", "--scheme", "be",
                     "--t-final", "0.1", "--study", "16,32"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "dx,E1,EOC,delta"
        assert len(out) == 3
        assert out[1].split(",")[2] == ""     # no rate on the first grid
        assert out[2].split(",")[2] != ""

    def test_invalid_configuration_exits_2(self, capsys):
        code = main(["--nx", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid-config:")

    def test_ny_on_a_1d_problem_exits_2(self, capsys):
        for problem, extra in (("bl1d", []),
                               ("linear1d", ["--study", "20,40"])):
            code = main(["--problem", problem, "--nx", "20", "--ny", "7",
                         "--scheme", "be", "--t-final", "0.02"] + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: invalid-config:") and "ny" in err

    def test_missing_config_file_exits_2(self, capsys):
        code = main(["--config", "/nonexistent/run.cfg"])
        assert code == 2
        assert "error: invalid-config:" in capsys.readouterr().err

    def test_non_finite_setting_exits_2(self, capsys):
        # An infinite final time finished after zero steps with delta=inf.
        code = main(["--problem", "linear1d", "--nx", "16", "--t-final",
                     "inf"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid-config: t_final must be finite")

    @staticmethod
    def blocked_out(tmp_path, under):
        """An ``--out`` at a file, or under one."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        return str(blocker / "sub" if under else blocker)

    @pytest.mark.parametrize("under", [False, True])
    def test_unwritable_out_of_a_run_exits_2(self, under, tmp_path, capsys,
                                             monkeypatch):
        # The output directory is made before the first step.
        monkeypatch.setattr(harness, "newton_low_order", mock.Mock(
            side_effect=AssertionError("a step ran")))
        code = main(["--problem", "linear1d", "--nx", "16", "--scheme", "be",
                     "--t-final", "0.1", "--snapshot-times", "0.05",
                     "--out", self.blocked_out(tmp_path, under)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    @pytest.mark.parametrize("under", [False, True])
    def test_unwritable_out_of_a_study_exits_2_before_any_grid(
            self, under, tmp_path, capsys, monkeypatch):
        grids = []
        monkeypatch.setattr(harness, "run", grids.append)
        code = main(["--problem", "linear1d", "--nx", "16", "--scheme", "be",
                     "--t-final", "0.1", "--study", "16,32",
                     "--out", self.blocked_out(tmp_path, under)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid-config:")
        assert grids == []

    def test_solver_failure_exits_3(self, capsys, monkeypatch):
        def exploding_run(config):
            raise NonConvergenceError("stage solve stalled")

        monkeypatch.setattr(harness, "run", exploding_run)
        code = main(["--problem", "linear1d", "--nx", "16"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: solver-failure:")

    # bl1d, sdirk5, dt = 1000h: the mixed quasi-Newton iteration of the
    # third stage of the first step stalls at a residual of 1.2e-4, far
    # above the stage tolerance (5e-8).
    FAILING = dict(problem="bl1d", nx=25, t_final=40.0, scheme="sdirk5",
                   dt_factor=1000.0)

    def test_solver_failure_names_its_step(self):
        with pytest.raises(NonConvergenceError) as exc:
            run(RunConfig(**self.FAILING))
        err = exc.value
        assert str(err).startswith(
            "step 1 at t=0, dt=40: stage 3/5: stage solve stalled at "
            "residual ")
        assert err.report is err.__cause__.report
        assert not err.report.converged

    def test_solver_failure_cli_reports_the_step(self, capsys):
        code = main(["--problem", "bl1d", "--nx", "25", "--t-final", "40",
                     "--scheme", "sdirk5", "--dt-factor", "1000"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: solver-failure: step 1 at t=0, dt=40: stage 3/5: ")

    def test_failing_step_counts_from_one(self, monkeypatch):
        calls = []

        def make_stepper(config, spec, grid):
            def step(u, t, dt):
                calls.append(t)
                if len(calls) == 3:
                    raise NonConvergenceError("stage 2/5: stalled", "report")
                return u, None, ()
            return step

        monkeypatch.setattr(harness, "_make_stepper", make_stepper)
        monkeypatch.setattr(harness, "_boundary_outflow", lambda *_: 0.0)
        config = RunConfig(problem="linear1d", nx=16, scheme="be",
                           dt_factor=1.0, t_final=2.0)
        with pytest.raises(NonConvergenceError) as exc:
            run(config)
        dt = min(make_grid(build_problem(config), 16).spacing)
        assert str(exc.value) == (f"step 3 at t={2 * dt:.6g}, dt={dt:.6g}: "
                                  "stage 2/5: stalled")
        assert exc.value.report == "report"

    # burgers1d at dt = 1000h: the low-order solve of be's first step blows
    # up to a non-finite residual (a ValueError in the step).  The mixed
    # stage solves of sdirk5 and iex2 finish that step, so there the flux
    # returns NaN at every time after the start.
    BLOWUP = ["--problem", "burgers1d", "--nx", "40", "--dt-factor", "1000",
              "--t-final", "50"]

    @staticmethod
    def patch_problem(monkeypatch, **callbacks):
        """Make ``run`` build its problem with ``callbacks(spec)`` in place
        of the named callbacks of the built one."""
        build = harness.build_problem

        def patched(config):
            spec = build(config)
            return dataclasses.replace(spec, **{
                name: make(spec) for name, make in callbacks.items()})

        monkeypatch.setattr(harness, "build_problem", patched)

    def nan_flux_after_start(self, monkeypatch, scheme):
        if scheme != "be":
            self.patch_problem(monkeypatch, flux=lambda spec: (
                lambda axis, u, x, y, t: np.where(
                    np.asarray(t) > 0, np.nan, spec.flux(axis, u, x, y, t))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["be", "sdirk5", "iex2"])
    def test_value_error_in_a_step_is_a_solver_failure(self, scheme, capsys,
                                                       monkeypatch):
        self.nan_flux_after_start(monkeypatch, scheme)
        assert main(self.BLOWUP + ["--scheme", scheme]) == 3
        assert capsys.readouterr().err.startswith(
            "error: solver-failure: step 1 at t=0, dt=50: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["be", "sdirk5", "iex2"])
    def test_value_error_in_a_step_is_the_cause(self, scheme, monkeypatch):
        self.nan_flux_after_start(monkeypatch, scheme)
        config = RunConfig(problem="burgers1d", nx=40, scheme=scheme,
                           dt_factor=1000.0, t_final=50.0)
        with pytest.raises(NonConvergenceError) as exc:
            run(config)
        assert isinstance(exc.value.__cause__, ValueError)
        assert str(exc.value) == (f"step 1 at t=0, dt=50: "
                                  f"{exc.value.__cause__}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_error_in_a_stacked_level_names_its_stage(self,
                                                            monkeypatch):
        # iex3's first level stacks stages 1, 2 and 4, the first substeps
        # of chains 1, 2 and 3 (stage times dt, dt/2 and dt/3).  The
        # wave-speed bound is NaN at stage 4's time only, so it rejects the
        # stacked flux evaluation, and the error names that member.
        self.patch_problem(monkeypatch, wave_speed_bound=lambda spec: (
            lambda axis, ua, ub, ra, rb, x, y, t: np.where(
                np.isclose(t, 50.0 / 3), np.nan,
                spec.wave_speed_bound(axis, ua, ub, ra, rb, x, y, t))))
        config = RunConfig(problem="burgers1d", nx=60, scheme="iex3",
                           dt_factor=3000.0, t_final=50.0)
        with pytest.raises(NonConvergenceError) as exc:
            run(config)
        assert type(exc.value.__cause__) is ValueError
        assert str(exc.value) == ("step 1 at t=0, dt=50: stage 4/6: "
                                  "wave-speed bound must be positive and "
                                  "finite")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_error_in_a_stacked_gmc_level_names_its_stage(
            self, monkeypatch):
        # As above, on iex3+gmc's semi-discrete substeps, in step 2: the
        # engine holds a matrix for every substep scale by then, so no
        # assembly comes first, and the stacked limited-flux evaluation is
        # what the NaN bound at stage 4's time (dt + dt/3) rejects.
        dt = 0.02
        self.patch_problem(monkeypatch, wave_speed_bound=lambda spec: (
            lambda axis, ua, ub, ra, rb, x, y, t: np.where(
                np.isclose(t, dt + dt / 3), np.nan,
                spec.wave_speed_bound(axis, ua, ub, ra, rb, x, y, t))))
        config = RunConfig(problem="burgers1d", nx=50, scheme="iex3",
                           limiter="gmc", dt_factor=dt / (2.0 / 50),
                           t_final=3 * dt)
        with pytest.raises(NonConvergenceError) as exc:
            run(config)
        assert type(exc.value.__cause__) is ValueError
        assert str(exc.value) == ("step 2 at t=0.02, dt=0.02: stage 4/6: "
                                  "wave-speed bound must be positive and "
                                  "finite")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_update_names_its_solve_and_iteration(self, capsys,
                                                         monkeypatch):
        # iex2's second substep (implicit scale dt/2 = 25) meets a
        # pseudo-Jacobian with an empty row, exactly singular; the update's
        # error names the solve and the iteration it failed in.
        assemble = solvers.assemble_pseudo_jacobian

        def singular_at_half_step(values, spec, grid, scale, t=0.0):
            matrix = assemble(values, spec, grid, scale, t)
            if scale == 25.0:
                matrix.stencil[:, 5] = 0.0
            return matrix

        monkeypatch.setattr(solvers, "assemble_pseudo_jacobian",
                            singular_at_half_step)
        assert main(self.BLOWUP + ["--scheme", "iex2"]) == 3
        assert re.fullmatch(
            r"error: solver-failure: step 1 at t=0, dt=50: stage 2/3: stage "
            r"solve: .*singular at iteration \d+\n",
            capsys.readouterr().err)

    @pytest.mark.parametrize("module", ["mppfv", "mppfv.harness"])
    def test_module_entry_point(self, module):
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", module, "--problem", "linear1d",
             "--nx", "16", "--scheme", "be", "--t-final", "0.1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "problem=linear1d" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_snapshot_times_flag_writes_snapshots(self, tmp_path, capsys):
        code = main(["--problem", "linear1d", "--nx", "16", "--scheme", "be",
                     "--t-final", "0.1", "--snapshot-times", "0, 0.05,",
                     "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "linear1d_be_t0.000000.csv", "linear1d_be_t0.050000.csv"]

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = linear1d\nnx = 16\nscheme = be\n"
                       "t-final = 0.1\nsnapshot-times = 0.0\n"
                       f"out = {tmp_path}\n")
        code = main(["--config", str(cfg), "--nx", "24"])
        assert code == 0
        _, data = read_snapshot(tmp_path / "linear1d_be_t0.000000.csv")
        assert data.shape[0] == 24  # flag value, not the file's 16
