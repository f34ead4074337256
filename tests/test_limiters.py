"""Bound-preserving limiters: budgets, face coefficients, FCT and GMC.

The face-coefficient algorithm is validated against the slow face-record
walk of :mod:`oracles` (no shared array layout) plus a frozen hand-worked
4-cell example,
and its cell-bound guarantee is fuzz-tested over random instances.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppfv import limiters
from mppfv.anderson import (ANDERSON_DEPTH, ANDERSON_RESTART,
                            _anderson_coefficients, anderson_mixed)
from mppfv.fluxes import (divergence, high_order_flux, low_order_with_bars,
                          tie_periodic_seam)
from mppfv.limiters import (REFERENCE_SLACK, TOL_GMC, _check_alphas,
                            _check_reference, _fct_with_flux,
                            _gmc_face_terms, _gmc_with_flux,
                            _restore_bounds, _weighted, gmc_budgets,
                            make_semidiscrete_gmc_substep_solver,
                            zalesak_alphas)
from mppfv.mesh import PERIODIC, StructuredGrid
from mppfv.problems import burgers_1d, initial_cell_averages, make_grid
from mppfv.solvers import (JacobianEngine, NonConvergenceError,
                           newton_low_order, stage_tolerance)
from mppfv.time_integration import iex_step

from conftest import DIRICHLET, make_burgers_1d, minus, random_flux_set
from oracles import (face_entry, outward_limited_sums,
                     outward_sums_by_face_loop, solve_one,
                     zalesak_alpha_oracle)


def random_grid(rng):
    if rng.uniform() < 0.5:
        n = int(rng.integers(4, 40))
        b = PERIODIC if rng.uniform() < 0.5 else DIRICHLET
        return StructuredGrid((n,), (0.0,), (1.0,), (b,))
    nx, ny = int(rng.integers(3, 9)), int(rng.integers(3, 9))
    bx = PERIODIC if rng.uniform() < 0.5 else DIRICHLET
    by = PERIODIC if rng.uniform() < 0.5 else DIRICHLET
    return StructuredGrid((nx, ny), (0.0, 0.0), (1.0, 2.0), (bx, by))


def random_budgets(rng, grid):
    shape = grid.shape
    q_plus = np.maximum(0.0, rng.uniform(-0.5, 3.0, shape))   # some zeros
    q_minus = np.minimum(0.0, rng.uniform(-3.0, 0.5, shape))
    return q_minus, q_plus


class TestZalesakCoefficients:
    def test_frozen_four_cell_example(self):
        # Periodic faces carry corrections (1, 4, -2, 1) with unit
        # allowances everywhere.  Hand-worked: P+ = (4, 0, 3, 1),
        # P- = (-1, -6, 0, -1), R+ = (1/4, 1, 1/3, 1),
        # R- = (1, 1/6, 1, 1), so the face coefficients come out
        # (1, 1/6, 1/6, 1/3).
        grid = StructuredGrid((4,), (0.0,), (1.0,), (PERIODIC,))
        dg = (np.array([1.0, 4.0, -2.0, 1.0, 1.0]),)
        q = np.ones(4)
        alphas = zalesak_alphas(dg, -q, q, grid)
        assert np.allclose(alphas[0],
                           [1.0, 1 / 6, 1 / 6, 1 / 3, 1.0], atol=1e-15)
        p_plus, p_minus = outward_sums_by_face_loop(dg, grid)
        assert np.allclose(p_plus, [4.0, 0.0, 3.0, 1.0])
        assert np.allclose(p_minus, [-1.0, -6.0, 0.0, -1.0])

    def test_fuzz_matches_face_record_oracle_and_bounds(self, rng):
        total_faces = 0
        for _ in range(300):
            grid = random_grid(rng)
            fs = random_flux_set(grid, rng)
            # sprinkle exact zeros to exercise the sign tie (and restore
            # the duplicated periodic seam afterwards)
            for axis, arr in enumerate(fs):
                mask = rng.uniform(size=arr.shape) < 0.1
                arr[mask] = 0.0
                tie_periodic_seam(arr, grid, axis)
            q_minus, q_plus = random_budgets(rng, grid)
            alphas = zalesak_alphas(fs, q_minus, q_plus, grid)
            for f, want in zalesak_alpha_oracle(fs, q_minus, q_plus, grid):
                got = face_entry(alphas, grid, f)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                total_faces += 1
            limited = outward_limited_sums(alphas, fs, grid)
            scale = np.maximum.reduce([np.abs(q_minus), np.abs(q_plus),
                                       np.ones_like(limited)])
            slack = 10.0 * np.spacing(scale)
            assert np.all(limited <= q_plus + slack)
            assert np.all(limited >= q_minus - slack)
        assert total_faces >= 10_000

    @given(data=st.data(), n=st.integers(4, 12))
    @settings(max_examples=200, deadline=None)
    def test_property_cell_sums_within_allowances(self, data, n):
        grid = StructuredGrid((n,), (0.0,), (1.0,), (PERIODIC,))
        vals = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n + 1,
            max_size=n + 1))
        arr = np.array(vals)
        arr[-1] = arr[0]
        fs = (arr,)
        q_plus = np.array(data.draw(st.lists(
            st.floats(0, 5), min_size=n, max_size=n)))
        q_minus = -np.array(data.draw(st.lists(
            st.floats(0, 5), min_size=n, max_size=n)))
        alphas = zalesak_alphas(fs, q_minus, q_plus, grid)
        limited = outward_limited_sums(alphas, fs, grid)
        slack = 10.0 * np.spacing(np.maximum(1.0, np.maximum(q_plus, -q_minus)))
        assert np.all(limited <= q_plus + slack)
        assert np.all(limited >= q_minus - slack)

    def test_inactive_when_allowances_exceed_sums(self, rng):
        grid = StructuredGrid((6,), (0.0,), (1.0,), (PERIODIC,))
        fs = random_flux_set(grid, rng)
        big = np.full(6, 1e6)
        alphas = zalesak_alphas(fs, -big, big, grid)
        assert np.all(alphas[0] == 1.0)

    def test_zero_budgets_reject_all_corrections(self, rng):
        grid = StructuredGrid((6,), (0.0,), (1.0,), (PERIODIC,))
        fs = random_flux_set(grid, rng)
        zero = np.zeros(6)
        accepted = _weighted(zalesak_alphas(fs, zero, zero, grid), fs)
        assert np.allclose(accepted[0], 0.0, atol=1e-15)

    def test_sweep_coefficients_range_checked_on_demand(self, rng):
        # zalesak_alphas runs once per fixed-point sweep and skips the
        # range check; the limiters call _check_alphas on the coefficients
        # of the flux they realize.
        grid = StructuredGrid((5,), (0.0,), (1.0,), (PERIODIC,))
        alphas = zalesak_alphas(random_flux_set(grid, rng), -np.ones(5),
                                np.ones(5), grid)
        _check_alphas(alphas)
        alphas[0][1] = -0.1
        with pytest.raises(ValueError, match="coefficients"):
            _check_alphas(alphas)
        alphas[0][1] = 1.2
        with pytest.raises(ValueError, match="coefficients"):
            _check_alphas(alphas)

    def test_nan_coefficient_fails_the_range_check(self):
        with pytest.raises(ValueError, match="coefficients"):
            _check_alphas((np.array([0.5, np.nan]),))


class TestReferenceGuards:
    class _Spec:
        global_min = 0.0
        global_max = 1.0

    def test_reference_within_slack_accepted(self):
        _check_reference(np.array([0.0, 1.0 + 0.5 * REFERENCE_SLACK]),
                         self._Spec(), "state")

    def test_reference_beyond_slack_raises(self):
        with pytest.raises(ValueError, match="outside the global bounds"):
            _check_reference(np.array([0.5, 1.0 + 1e-8]), self._Spec(), "state")

    def test_nan_reference_raises(self):
        for values in ([0.5, np.nan], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="outside the global bounds"):
                _check_reference(np.array(values), self._Spec(), "state")

    def test_restore_bounds_passthrough_and_clip(self):
        spec = self._Spec()
        inside = np.array([0.2, 0.9])
        assert _restore_bounds(inside, spec) is inside
        clipped = _restore_bounds(np.array([-1e-13, 1.0 + 2e-13]), spec)
        assert clipped[0] == 0.0 and clipped[1] == 1.0

    def test_restore_bounds_rejects_genuine_violations(self):
        with pytest.raises(ValueError, match="beyond summation roundoff"):
            _restore_bounds(np.array([-1e-6, 0.5]), self._Spec())

    def test_restore_bounds_with_unbounded_maximum(self):
        class Wide:
            global_min = 0.0
            global_max = np.inf

        out = _restore_bounds(np.array([-1e-12, 100.0]), Wide())
        assert out[0] == 0.0 and out[1] == 100.0


def _burgers_pulse(n):
    spec = burgers_1d()
    grid = make_grid(spec, n)
    x = grid.axis_centers(0)
    u0 = np.where(np.abs(x) < 0.5, 2.0, 0.0)
    return spec, grid, u0


class TestFctStep:
    def test_identity_when_orders_agree(self, rng):
        spec, grid, u0 = _burgers_pulse(50)
        dt = 0.5 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        out, _ = _fct_with_flux(G_L, u_L, G_L, spec, grid, dt, 1)
        assert np.array_equal(out, u_L)

    def test_full_acceptance_away_from_bounds(self):
        spec, grid = make_burgers_1d(32)
        x = grid.axis_centers(0)
        u0 = 1.0 + 0.3 * np.sin(np.pi * x)  # comfortably inside [-4, 4]
        dt = 0.4 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        G_H = high_order_flux(u0, spec, grid)
        out, _ = _fct_with_flux(G_L, u_L, G_H, spec, grid, dt, 1)
        unlimited = u_L + dt * divergence(minus(G_L, G_H), grid)
        assert np.array_equal(out, unlimited)

    def test_output_within_global_bounds_on_shock_data(self):
        spec, grid, u0 = _burgers_pulse(100)
        dt = 0.5 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        G_H = high_order_flux(u0, spec, grid)
        for iterations in (1, 2, 3):
            out, _ = _fct_with_flux(G_L, u_L, G_H, spec, grid, dt,
                                    iterations)
            assert np.min(out) >= spec.global_min
            assert np.max(out) <= spec.global_max

    def test_extra_iterations_recover_more_correction(self):
        spec, grid, u0 = _burgers_pulse(100)
        dt = 0.5 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        G_H = high_order_flux(u0, spec, grid)
        rejected = []
        for iterations in (1, 2, 3):
            _, realized = _fct_with_flux(G_L, u_L, G_H, spec, grid, dt,
                                         iterations)
            rejected.append(np.sum(np.abs(realized[0] - G_H[0])))
        assert rejected[1] <= rejected[0] + 1e-14
        assert rejected[2] <= rejected[1] + 1e-14

    def test_mass_conserved(self):
        spec, grid, u0 = _burgers_pulse(80)
        dt = grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        G_H = high_order_flux(u0, spec, grid)
        out, _ = _fct_with_flux(G_L, u_L, G_H, spec, grid, dt, 2)
        assert np.sum(out) == pytest.approx(np.sum(u0), rel=1e-13)

    def test_low_order_reference_validated(self):
        spec, grid, u0 = _burgers_pulse(20)
        dt = 0.5 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        bad = u_L + 3.0  # far outside [0, 2]
        with pytest.raises(ValueError, match="low-order solution"):
            _fct_with_flux(G_L, bad, G_L, spec, grid, dt, 1)

    def test_iteration_count_validated(self):
        spec, grid, u0 = _burgers_pulse(20)
        dt = 0.5 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        with pytest.raises(ValueError):
            _fct_with_flux(G_L, u_L, G_L, spec, grid, dt, 0)

    def test_non_finite_high_order_flux_raises(self):
        spec, grid, u0 = _burgers_pulse(20)
        dt = 0.5 * grid.spacing[0]
        u_L, G_L, _ = newton_low_order(u0, spec, grid, dt)
        G_H = (G_L[0].copy(),)
        G_H[0][4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _fct_with_flux(G_L, u_L, G_H, spec, grid, dt, 1)


class TestGmcStep:
    def test_constant_state_is_fixed_point(self):
        spec, grid = make_burgers_1d(16)
        u0 = np.full(16, 1.2)
        G_H = high_order_flux(u0, spec, grid)
        out, _, report = _gmc_with_flux(u0, G_H, spec, grid, 0.1, 0.0, 0.0)
        assert report.iterations == 0
        assert np.allclose(out, 1.2, atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_large_step_stays_within_bounds(self, gamma):
        spec, grid, u0 = _burgers_pulse(100)
        dt = 5.0 * grid.spacing[0]
        G_H = high_order_flux(u0, spec, grid)
        out, _, report = _gmc_with_flux(u0, G_H, spec, grid, dt, gamma, 0.0)
        assert report.converged
        assert np.min(out) >= spec.global_min
        assert np.max(out) <= spec.global_max

    def test_mass_conserved(self):
        spec, grid, u0 = _burgers_pulse(64)
        dt = 2.0 * grid.spacing[0]
        G_H = high_order_flux(u0, spec, grid)
        out, _, _ = _gmc_with_flux(u0, G_H, spec, grid, dt, 1.0, 0.0)
        assert np.sum(out) == pytest.approx(np.sum(u0), rel=1e-12)

    def test_validation_errors(self):
        spec, grid, u0 = _burgers_pulse(16)
        G_H = high_order_flux(u0, spec, grid)
        with pytest.raises(ValueError):
            _gmc_with_flux(u0, G_H, spec, grid, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            _gmc_with_flux(u0, G_H, spec, grid, 0.1, -1.0, 0.0)
        with pytest.raises(ValueError, match="previous solution"):
            _gmc_with_flux(u0 + 5.0, G_H, spec, grid, 0.1, 0.0, 0.0)

    @pytest.mark.parametrize("gamma,ceiling", [(0.0, 37), (1.0, 71)])
    def test_sweep_count_ceiling(self, gamma, ceiling):
        # Plain diagonal sweeps needed 112 (gamma=0) and 215 (gamma=1) here;
        # each ceiling is a third of that.
        spec = burgers_1d()
        grid = make_grid(spec, 200)
        u0 = initial_cell_averages(spec, grid)
        G_H = high_order_flux(u0, spec, grid)
        _, _, report = _gmc_with_flux(u0, G_H, spec, grid,
                                      0.5 * grid.spacing[0], gamma, 0.0)
        assert report.converged
        assert report.iterations <= ceiling

    def test_step_limit_stops_at_gmc_tolerance(self):
        # The step-level limit is what makes u^{n+1} bounded, so it keeps
        # the tight tolerance the stage solves no longer sweep to.
        spec, grid, u0 = _burgers_pulse(100)
        G_H = high_order_flux(u0, spec, grid)
        _, _, report = _gmc_with_flux(u0, G_H, spec, grid,
                                      2.0 * grid.spacing[0], 0.0, 0.0)
        assert report.converged
        assert report.tolerance == TOL_GMC
        assert report.residual <= TOL_GMC

    def test_non_finite_high_order_flux_raises(self):
        spec, grid, u0 = _burgers_pulse(32)
        G_H = high_order_flux(u0, spec, grid)
        G_H[0][7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _gmc_with_flux(u0, G_H, spec, grid, 0.1, 0.0, 0.0)

    def test_exhausted_sweeps_raise(self, monkeypatch):
        spec, grid, u0 = _burgers_pulse(32)
        G_H = high_order_flux(u0, spec, grid)
        monkeypatch.setattr(limiters, "MAX_GMC_SWEEPS", 0)
        with pytest.raises(NonConvergenceError):
            _gmc_with_flux(u0, G_H, spec, grid, 0.1, 0.0, 0.0)

    def test_stalled_clipped_start_sweeps_again_from_previous_solution(
            self, monkeypatch):
        # One sdirk5+gmc step of steady1d, nx=30, gamma=1, at dt = 20h:
        # swept from the clipped high-order state the fixed point cycles
        # through MAX_GMC_SWEEPS sweeps; swept again from u^n it converges.
        # The step's report counts both.
        from mppfv import harness
        from mppfv.harness import RunConfig, build_problem, run

        reports = []

        def recording(*args, **kwargs):
            out = gmc(*args, **kwargs)
            reports.append(out[2])
            return out

        gmc = harness._gmc_with_flux
        monkeypatch.setattr(harness, "_gmc_with_flux", recording)
        config = RunConfig(problem="steady1d", nx=30, scheme="sdirk5",
                           limiter="gmc", gamma=1.0, dt_factor=20.0)
        dt = 20.0 * make_grid(build_problem(config), 30).spacing[0]
        diag, _ = run(replace(config, t_final=dt))
        (report,) = reports
        assert report.converged
        assert report.iterations > limiters.MAX_GMC_SWEEPS
        assert diag.delta >= -1e-12
        assert abs(diag.mass_drift) <= 1e-12

    def test_gmc_budget_signs_clamped(self):
        spec, grid, u0 = _burgers_pulse(16)
        G_H = high_order_flux(u0, spec, grid)
        *_, a, a_ubar = _gmc_face_terms(u0, G_H, spec, grid, 0.0, 0.0)
        # Nudge the reference past the bounds: allowances must stay signed.
        shifted = u0 + 1e-10
        qm, qp = gmc_budgets(a, a_ubar, shifted, spec, gamma=3.0)
        assert np.all(qm <= 0.0)
        assert np.all(qp >= 0.0)


class TestAndersonCoefficients:
    def test_matches_least_squares(self, rng):
        dF = rng.standard_normal((4, 50))
        f = rng.standard_normal(50)
        want = np.linalg.lstsq(dF.T, f, rcond=None)[0]
        assert np.allclose(_anderson_coefficients(dF, f), want,
                           rtol=1e-10, atol=1e-12)

    def test_singular_history_falls_back_to_least_squares(self, rng):
        # A zero difference (a repeated residual) makes the Gram matrix
        # singular; the minimum-norm least-squares solution ignores it.
        dF = np.vstack([rng.standard_normal(20), np.zeros(20)])
        f = 0.5 * dF[0]
        c = _anderson_coefficients(dF, f)
        assert np.all(np.isfinite(c))
        assert np.allclose(c, [0.5, 0.0], rtol=0, atol=1e-14)

    def test_mixer_matches_least_squares_over_rotating_history(self, rng):
        # Two members, twelve updates of an affine map each: the history
        # rotates past ANDERSON_DEPTH and member 0 restarts at update 7.
        # Each update must equal the mixing by least squares on the kept
        # differences.
        n = 30
        maps = [(0.95 * np.linalg.qr(rng.standard_normal((n, n)))[0],
                 rng.standard_normal(n)) for _ in range(2)]

        def propose(y, r, res, prev_res, members):
            return np.stack([A @ v + b for (A, b), v in zip(maps, y)])

        y = rng.standard_normal((2, n))
        advance = anderson_mixed(propose, y)
        history = [([], []) for _ in maps]
        previous = [None, None]
        for k in range(12):
            res = [3.0 if k == 7 else 1.0, 1.0]
            want = []
            for i, ((A, b), v) in enumerate(zip(maps, y)):
                T = A @ v + b
                dFs, dTs = history[i]
                if res[i] > ANDERSON_RESTART:
                    del dFs[:], dTs[:]
                    previous[i] = None
                if previous[i] is None:
                    want.append(T)
                else:
                    dFs.append(T - v - previous[i][0])
                    dTs.append(T - previous[i][1])
                    del dFs[:-ANDERSON_DEPTH], dTs[:-ANDERSON_DEPTH]
                    c = np.linalg.lstsq(np.array(dFs).T, T - v, rcond=None)[0]
                    want.append(T - c @ np.array(dTs))
                previous[i] = (T - v, T)
            got = advance(y, None, res, [1.0, 1.0], None)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
            y = got


class TestSemidiscreteGmc:
    def test_reduces_to_low_order_when_budgets_zero(self, rng):
        # With zero allowances every coefficient on an active face is zero,
        # so the limited instantaneous flux is exactly the low-order one.
        spec, grid, u0 = _burgers_pulse(40)
        G_L = low_order_with_bars(u0, spec, grid)[0]
        G_H = high_order_flux(u0, spec, grid)
        correction = minus(G_L, G_H)
        alphas = zalesak_alphas(correction, np.zeros(40), np.zeros(40), grid)
        rhs = -divergence(minus(G_L, _weighted(alphas, correction)), grid)
        assert np.allclose(rhs, -divergence(G_L, grid), atol=1e-13)

    def test_led_at_cells_touching_global_bounds(self):
        spec, grid, u0 = _burgers_pulse(60)  # touches 0 and 2 exactly
        G_L, _, accepted, _, _ = _gmc_face_terms(
            u0, high_order_flux(u0, spec, grid), spec, grid, 0.0, 0.0)
        rhs = -divergence(minus(G_L, accepted), grid)
        at_max = u0 == spec.global_max
        at_min = u0 == spec.global_min
        assert np.all(rhs[at_max] <= 1e-14)
        assert np.all(rhs[at_min] >= -1e-14)

    def test_non_finite_high_order_flux_raises(self, monkeypatch):
        spec, grid, u0 = _burgers_pulse(32)

        def poisoned(values, *args, **kwargs):
            flux = high_order_flux(values, *args, **kwargs)
            flux[0][..., 7] = np.nan
            return flux

        monkeypatch.setattr(limiters, "high_order_flux", poisoned)
        solver = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
        with pytest.raises(ValueError, match="non-finite"):
            solve_one(solver, u0, 0.1, 0.1, u0)

    def test_stage_stops_at_stage_tolerance(self):
        spec, grid, u0 = _burgers_pulse(60)
        solver = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
        dt = 2.0 * grid.spacing[0]
        _, _, report = solve_one(solver, u0, dt, dt, u0)
        assert report.converged
        assert report.iterations > 0
        assert report.tolerance == stage_tolerance(spec, grid)
        assert report.residual <= report.tolerance

    def test_stage_sweep_count_ceiling(self):
        # One iex4 step of burgers1d at dt = h/2: the stages averaged 34.0
        # sweeps when they swept on to the step limit's 1e-13 and 21.2 when
        # they stop at TOL_STAGE.  The ten substeps come in four stacked
        # solves, one report per member.
        spec = burgers_1d()
        grid = make_grid(spec, 200)
        u0 = initial_cell_averages(spec, grid)
        inner = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
        sweeps = []

        def counting(reference, step_dt, stage_time, guess):
            y, flux, reports = inner(reference, step_dt, stage_time, guess)
            sweeps.extend(report.iterations for report in reports)
            return y, flux, reports

        iex_step(u0, 4, spec, grid, counting, 0.5 * grid.spacing[0])
        assert len(sweeps) == 10
        assert np.mean(sweeps) <= 25.0

    def test_substep_solver_bounds_and_identity_at_huge_step(self):
        spec, grid, u0 = _burgers_pulse(60)
        solver = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid), gamma=0.0)
        dt = 50.0 * grid.spacing[0]
        y, realized, report = solve_one(solver, u0, dt, dt, u0)
        assert report.converged
        assert np.array_equal(y, u0 - dt * divergence(realized, grid))
        assert np.min(y) >= spec.global_min - 1e-12
        assert np.max(y) <= spec.global_max + 1e-12
        assert np.sum(y) == pytest.approx(np.sum(u0), rel=1e-12)

    def test_extrapolation_chain_respects_bounds(self):
        # Every internal chain state is a limited substep rebuilt from its
        # realized flux, but its sweeps stop at the stage tolerance, so it
        # is bounded only up to the largest residual entry, at most that
        # l2 tolerance (here the states stray by 1.4e-11 against 1.4e-7;
        # stage_delta reads -3.0e-9 on burgers1d, nx=200, iex4 at
        # dt = h/2).  The extrapolated combination itself carries signed
        # weights and only inherits conservation, not the bounds.
        spec, grid, u0 = _burgers_pulse(50)
        solver = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
        dt = 2.0 * grid.spacing[0]
        u1, _, chains = iex_step(u0, 4, spec, grid, solver, dt)
        assert len(chains) == 10
        slack = stage_tolerance(spec, grid)
        for state in chains:
            assert np.min(state) >= spec.global_min - slack
            assert np.max(state) <= spec.global_max + slack
        assert np.sum(u1) == pytest.approx(np.sum(u0), rel=1e-12)

    @pytest.mark.parametrize("factor", [0.5, 5.0])
    def test_quasi_newton_stage_matches_diagonal_fixed_point(self, factor):
        # One substep of burgers1d, nx=200, by the stage solver (quasi-
        # Newton, then the diagonal map from a plain diagonal update) and
        # by the mixed diagonal map alone, swept to TOL_GMC.  The states
        # differ by 0.13 (0.5h) and 0.11 (5h) of the stage tolerance.
        spec = burgers_1d()
        grid = make_grid(spec, 200)
        u0 = initial_cell_averages(spec, grid)
        dt = factor * grid.spacing[0]
        y, realized, report = solve_one(
            make_semidiscrete_gmc_substep_solver(
                JacobianEngine(spec, grid)), u0, dt, dt, u0)
        assert report.converged
        assert np.array_equal(y, u0 - dt * divergence(realized, grid))
        system = limiters._GmcSystem(
            u0[None], lambda v, _: high_order_flux(v, spec, grid, t=dt),
            spec, grid, dt, 0.0, dt)
        want = system.fixed_point(u0[None], TOL_GMC)[0][0]
        assert np.max(np.abs(y - want)) <= stage_tolerance(spec, grid)

    def test_spent_quasi_newton_budget_goes_on_by_diagonal_map(
            self, monkeypatch):
        # A burgers1d substep at dt = 5h takes 14 quasi-Newton updates.
        # With a budget of 2 the member is handed, unconverged, to the
        # diagonal map instead of raising, and converges there to the same
        # fixed point.
        spec = burgers_1d()
        grid = make_grid(spec, 200)
        u0 = initial_cell_averages(spec, grid)
        dt = 5.0 * grid.spacing[0]
        want = solve_one(make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid)), u0, dt, dt, u0)[0]
        newton = []

        def recording(*args, **kwargs):
            out = quasi_newton(*args, **kwargs)
            newton.append(out[2][0])
            return out

        quasi_newton = limiters._quasi_newton
        monkeypatch.setattr(limiters, "_quasi_newton", recording)
        monkeypatch.setattr(limiters, "MAX_ITER_STAGE", 2)
        y, realized, report = solve_one(
            make_semidiscrete_gmc_substep_solver(
                JacobianEngine(spec, grid)), u0, dt, dt, u0)
        (spent,) = newton
        assert not spent.converged and spent.iterations == 2
        assert report.converged and report.iterations > spent.iterations + 1
        assert np.array_equal(y, u0 - dt * divergence(realized, grid))
        assert np.max(np.abs(y - want)) <= stage_tolerance(spec, grid)

    def test_kpp2d_large_step_finishes_bounded_and_conservative(self):
        # One iex2+gmc step of kpp2d 12^2 at dt = 5h.  The quasi-Newton
        # substeps converge slowly (up to 122 updates) but never freeze; on
        # the diagonal map alone, substep 1 stalls at residual 4.8e-2 after
        # MAX_GMC_SWEEPS.
        from mppfv.harness import RunConfig, build_problem, run

        spec = build_problem(RunConfig(problem="kpp2d"))
        h = min(make_grid(spec, 12).spacing)
        diag, _ = run(RunConfig(problem="kpp2d", nx=12, scheme="iex2",
                                limiter="gmc", dt_factor=5.0, t_final=5.0 * h))
        assert diag.delta >= -1e-12
        assert abs(diag.mass_drift) <= 1e-12
