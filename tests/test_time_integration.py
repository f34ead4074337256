"""Tableaux, order conditions, SSP-stage checks, and the two steppers.

The order-condition oracle below hand-codes the seventeen rooted-tree
conditions through order five from first principles; the production
residual routine must agree with it value for value.
"""

import math

import numpy as np
import pytest

from mppfv.limiters import make_semidiscrete_gmc_substep_solver
from mppfv.problems import burgers_1d, initial_cell_averages, make_grid
from mppfv.solvers import (TOL_STAGE, JacobianEngine, NonConvergenceError,
                           SolverReport, make_stage_solver)
from mppfv.time_integration import (ButcherTableau, check_ssp_stages,
                                    dirk_step, iex_step, iex_tableau,
                                    order_condition_residuals, sdirk5_tableau)

from conftest import make_linear_advection_1d
from oracles import iex_chain_step


def rooted_tree_conditions(A, b, c):
    """All 17 rooted-tree order conditions through order 5, evaluated as
    ``(order, |lhs - 1/gamma(tree)|)`` pairs.  Written independently from
    the production code (trees enumerated by hand)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)

    def s(v):
        return A @ v

    trees = [
        (1, b @ np.ones_like(c), 1.0),
        (2, b @ c, 1 / 2),
        (3, b @ c ** 2, 1 / 3),
        (3, b @ s(c), 1 / 6),
        (4, b @ c ** 3, 1 / 4),
        (4, b @ (c * s(c)), 1 / 8),
        (4, b @ s(c ** 2), 1 / 12),
        (4, b @ s(s(c)), 1 / 24),
        (5, b @ c ** 4, 1 / 5),
        (5, b @ (c ** 2 * s(c)), 1 / 10),
        (5, b @ (s(c) * s(c)), 1 / 20),
        (5, b @ (c * s(c ** 2)), 1 / 15),
        (5, b @ (c * s(s(c))), 1 / 30),
        (5, b @ s(c ** 3), 1 / 20),
        (5, b @ s(c * s(c)), 1 / 40),
        (5, b @ s(s(c ** 2)), 1 / 60),
        (5, b @ s(s(s(c))), 1 / 120),
    ]
    return [(order, abs(lhs - rhs)) for order, lhs, rhs in trees]


class TestTableauConstruction:
    def test_backward_euler_tableau(self):
        tab = iex_tableau(1)
        assert tab.stages == 1
        assert tab.A[0, 0] == 1.0 and tab.b[0] == 1.0 and tab.c[0] == 1.0
        assert tab.order == 1

    def test_five_stage_tableau_is_singly_diagonal(self):
        tab = sdirk5_tableau()
        assert tab.stages == 5
        diag = np.diag(tab.A)
        assert np.all(diag == diag[0])
        assert diag[0] == pytest.approx(4024571134387 / 14474071345096,
                                        abs=1e-16)
        assert np.all(np.triu(tab.A, 1) == 0.0)
        assert np.max(np.abs(tab.A.sum(axis=1) - tab.c)) <= 1e-12
        assert tab.b.sum() == pytest.approx(1.0, abs=1e-13)
        assert tab.c[3] == pytest.approx(0.15, abs=1e-15)

    def test_extrapolation_tableau_block_structure(self):
        p = 4
        tab = iex_tableau(p)
        assert tab.stages == p * (p + 1) // 2
        weights = [math.prod(k / (k - l) for l in range(1, p + 1) if l != k)
                   for k in range(1, p + 1)]
        # Closed form of the extrapolation weights.
        for k, w in enumerate(weights, start=1):
            closed = (-1) ** (p - k) * k ** (p - 1) / (
                math.factorial(k - 1) * math.factorial(p - k))
            assert w == pytest.approx(closed, rel=1e-13)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        offset = 0
        for k in range(1, p + 1):
            block = tab.A[offset:offset + k, offset:offset + k]
            assert np.allclose(block, np.tril(np.full((k, k), 1.0 / k)))
            assert np.allclose(tab.b[offset:offset + k], weights[k - 1] / k)
            assert np.allclose(tab.c[offset:offset + k],
                               np.arange(1, k + 1) / k)
            # No coupling between chains.
            assert not tab.A[offset:offset + k, :offset].any()
            offset += k

    def test_first_order_extrapolation_is_backward_euler(self):
        tab = iex_tableau(1)
        assert tab.stages == 1
        assert tab.A[0, 0] == 1.0 and tab.b[0] == 1.0

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            iex_tableau(0)

    def test_tableau_validation(self):
        with pytest.raises(ValueError):  # upper-triangular entry
            ButcherTableau(A=[[0.5, 0.5], [0.0, 0.5]], b=[0.5, 0.5],
                           c=[1.0, 0.5], order=2)
        with pytest.raises(ValueError):  # row sum != c
            ButcherTableau(A=[[0.5, 0.0], [0.0, 0.5]], b=[0.5, 0.5],
                           c=[1.0, 0.5], order=2)
        with pytest.raises(ValueError):  # weights don't sum to one
            ButcherTableau(A=[[0.5, 0.0], [0.0, 0.5]], b=[0.5, 0.6],
                           c=[0.5, 0.5], order=2)
        with pytest.raises(ValueError):  # shape mismatch
            ButcherTableau(A=[[1.0]], b=[0.5, 0.5], c=[1.0], order=1)


class TestOrderConditions:
    def test_five_stage_method_has_order_five(self):
        tab = sdirk5_tableau()
        for order, residual in rooted_tree_conditions(tab.A, tab.b, tab.c):
            assert residual <= 1e-10, f"order-{order} condition fails"

    def test_backward_euler_has_order_exactly_one(self):
        tab = iex_tableau(1)
        conds = rooted_tree_conditions(tab.A, tab.b, tab.c)
        assert conds[0][1] == 0.0
        assert conds[1][1] == pytest.approx(0.5)  # b.c = 1 != 1/2

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_extrapolation_method_has_order_p(self, p):
        tab = iex_tableau(p)
        conds = rooted_tree_conditions(tab.A, tab.b, tab.c)
        for order, residual in conds:
            if order <= p:
                assert residual <= 1e-10, (p, order, residual)
        if p < 5:
            above = [r for order, r in conds if order == p + 1]
            assert max(above) > 1e-4

    def test_production_residuals_match_oracle(self):
        for tab in (iex_tableau(1), sdirk5_tableau(),
                    iex_tableau(3), iex_tableau(4)):
            got = order_condition_residuals(tab, max_order=5)
            want = rooted_tree_conditions(tab.A, tab.b, tab.c)
            assert len(got) == len(want) == 17
            for (o1, r1), (o2, r2) in zip(got, want):
                assert o1 == o2
                assert r1 == pytest.approx(r2, abs=1e-14)

    def test_max_order_filters_and_validates(self):
        tab = sdirk5_tableau()
        assert len(order_condition_residuals(tab, max_order=3)) == 4
        with pytest.raises(ValueError):
            order_condition_residuals(tab, max_order=6)
        with pytest.raises(ValueError):
            order_condition_residuals(tab, max_order=0)


class TestStageBoundPreservation:
    def test_backward_euler_unconditionally_contractive(self):
        tab = iex_tableau(1)
        assert check_ssp_stages(tab, 10.0)
        assert check_ssp_stages(tab, 1e6)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_extrapolation_stages_pass_at_huge_step(self, p):
        assert check_ssp_stages(iex_tableau(p), 1e6)

    def test_five_stage_method_fails_at_moderate_step(self):
        assert not check_ssp_stages(sdirk5_tableau(), 1e3)

    def test_singular_shift_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            check_ssp_stages(iex_tableau(1), -1.0)


@pytest.fixture
def advdiff_setup():
    spec, grid = make_linear_advection_1d(velocity=1.0, diffusion=0.01, n=24,
                                          wave_speed=1.0)
    u0 = spec.initial_condition(grid.axis_centers(0), 0.0)
    return spec, grid, u0


class TestDirkStep:
    def test_update_is_flux_divergence_identity(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        u1, total, stages = dirk_step(u0, sdirk5_tableau(), spec, grid,
                                      solver, dt=0.01)
        assert isinstance(stages, tuple) and len(stages) == 5
        assert all(isinstance(s, np.ndarray) for s in stages)
        assert np.array_equal(u1, u0 - 0.01 * total.divergence())

    def test_mass_conserved_on_periodic_grid(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        u1, _, _ = dirk_step(u0, sdirk5_tableau(), spec, grid, solver, dt=0.02)
        assert np.sum(u1) == pytest.approx(np.sum(u0), rel=1e-13)

    def test_single_stage_tableau_equals_one_solve(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        u1, _, _ = dirk_step(u0, iex_tableau(1), spec, grid,
                             solver, dt=0.01)
        y, flux, report = solver(u0, 0.01, 0.01, u0)
        assert report.converged
        from mppfv.fluxes import high_order_flux
        assert all(np.array_equal(a, b) for a, b in zip(
            flux.arrays, high_order_flux(y, spec, grid, t=0.01).arrays))
        manual = u0 - 0.01 * flux.divergence()
        assert np.allclose(u1, manual, rtol=0, atol=1e-15)

    def test_explicit_stage_skips_solver(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        calls = []
        inner = make_stage_solver(JacobianEngine(spec, grid))

        def counting(reference, step_dt, stage_time, guess):
            calls.append(step_dt)
            return inner(reference, step_dt, stage_time, guess)

        # Trapezoidal-type tableau: first stage explicit (zero diagonal).
        tab = ButcherTableau(A=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5],
                             c=[0.0, 1.0], order=2)
        dirk_step(u0, tab, spec, grid, counting, dt=0.01)
        assert len(calls) == 1

    def test_explicit_first_stage_does_not_alias_input(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        kept = u0.copy()
        tab = ButcherTableau(A=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5],
                             c=[0.0, 1.0], order=2)
        solver = make_stage_solver(JacobianEngine(spec, grid))
        _, _, stages = dirk_step(u0, tab, spec, grid, solver, dt=0.01)
        first = stages[0]
        assert np.array_equal(first, kept)  # the explicit stage is u^n
        first[0] = 99.0
        assert np.array_equal(u0, kept)  # ... but not aliased to it

    def test_nonpositive_dt_rejected(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        with pytest.raises(ValueError):
            dirk_step(u0, sdirk5_tableau(), spec, grid, solver, dt=0.0)

    def test_stage_failure_raises_with_report(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        report = SolverReport(7, 1.0, False, 1e-8)

        def failing(reference, step_dt, stage_time, guess):
            raise NonConvergenceError("stage solve stalled", report)

        with pytest.raises(NonConvergenceError) as exc:
            dirk_step(u0, sdirk5_tableau(), spec, grid, failing, dt=0.01)
        assert exc.value.report is report
        assert "stage 1/5" in str(exc.value)


@pytest.fixture
def burgers_setup():
    spec = burgers_1d()
    grid = make_grid(spec, 40)
    return spec, grid, initial_cell_averages(spec, grid)


class TestExtrapolationStep:
    def test_first_order_step_is_one_implicit_euler_substep(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        inner = make_stage_solver(JacobianEngine(spec, grid))
        calls = []

        def counting(*args):
            calls.append(args)
            return inner(*args)

        got, _, stages = iex_step(u0, 1, spec, grid, counting, dt=0.01)
        assert len(calls) == len(stages) == 1
        _, flux, _ = inner(u0, 0.01, 0.01, u0)
        assert np.array_equal(got, u0 - 0.01 * flux.divergence())

    def test_chain_states_and_flux_details(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        p = 4
        u1, flux, chains = iex_step(u0, p, spec, grid, solver, dt=0.01)
        assert len(chains) == p * (p + 1) // 2
        assert np.array_equal(u1, u0 - 0.01 * flux.divergence())

    def test_chain_starts_solve_from_step_start(self, advdiff_setup):
        # The first substep of each chain starts from u^n, every other one
        # from the substep before it.
        spec, grid, u0 = advdiff_setup
        inner = make_stage_solver(JacobianEngine(spec, grid))
        guesses, values = [], []

        def recording(reference, step_dt, stage_time, guess):
            guesses.append(np.array(guess))
            y, flux, report = inner(reference, step_dt, stage_time, guess)
            values.append(y)
            return y, flux, report

        iex_step(u0, 3, spec, grid, recording, dt=0.01)
        for m, guess in enumerate(guesses):
            want = u0 if m in (0, 1, 3) else values[m - 1]
            assert np.array_equal(guess, want), m

    def test_matches_direct_extrapolation_of_chain_results(self,
                                                           burgers_setup):
        # The update must equal the closed-form weighted combination of the
        # per-chain backward-Euler results.  The GMC stage values are
        # rebuilt from their flux, so they are the chain results to roundoff
        # (quasi-Newton stage values are iterates, off by the residual).
        spec, grid, u0 = burgers_setup
        solver = make_semidiscrete_gmc_substep_solver(spec, grid)
        p = 3
        u1, _, chains = iex_step(u0, p, spec, grid, solver, dt=0.05)
        finals = [chains[k * (k + 1) // 2 - 1] for k in range(1, p + 1)]
        weights = [math.prod(k / (k - l) for l in range(1, p + 1) if l != k)
                   for k in range(1, p + 1)]
        direct = sum(w * f for w, f in zip(weights, finals))
        assert np.allclose(u1, direct, rtol=0, atol=1e-13)

    def test_mass_conserved(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        u1, _, _ = iex_step(u0, 4, spec, grid, solver, dt=0.02)
        assert np.sum(u1) == pytest.approx(np.sum(u0), rel=1e-13)

    def test_validation(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        with pytest.raises(ValueError):
            iex_step(u0, 0, spec, grid, solver, dt=0.01)
        with pytest.raises(ValueError):
            iex_step(u0, 2, spec, grid, solver, dt=-0.01)

    def test_higher_order_beats_first_order_on_smooth_problem(self, advdiff_setup):
        # One coarse step with p=4 should land far closer to a heavily
        # substepped reference than the p=1 step does.
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        dt = 0.05
        ref = u0.copy()
        m = 200
        for j in range(m):
            ref = iex_step(ref, 1, spec, grid, solver, dt / m,
                           t=j * dt / m)[0]
        e1 = np.max(np.abs(iex_step(u0, 1, spec, grid, solver, dt)[0] - ref))
        e4 = np.max(np.abs(iex_step(u0, 4, spec, grid, solver, dt)[0] - ref))
        assert e4 < e1 / 50.0

    @pytest.mark.parametrize("kind", ["newton", "gmc"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_chain_form_oracle(self, burgers_setup, kind, p):
        spec, grid, u0 = burgers_setup
        solver = (make_stage_solver(JacobianEngine(spec, grid))
                  if kind == "newton"
                  else make_semidiscrete_gmc_substep_solver(spec, grid))
        dt = 2.0 * grid.spacing[0]
        u1, flux, stages = iex_step(u0, p, spec, grid, solver, dt, t=0.1)
        want, want_flux, extrapolated, chains = iex_chain_step(
            u0, p, solver, dt, t=0.1)
        tol = 1e-12 * (spec.global_max - spec.global_min)
        assert np.max(np.abs(u1 - want)) <= tol
        assert np.max(np.abs(u1 - extrapolated)) <= tol
        for got_axis, want_axis in zip(flux.arrays, want_flux.arrays):
            assert np.max(np.abs(got_axis - want_axis)) <= tol
        # Quasi-Newton stage values are iterates, within the stage
        # tolerance of the chain states rebuilt from their flux.
        stage_tol = tol if kind == "gmc" else 2.0 * TOL_STAGE
        assert len(stages) == len(chains) == p * (p + 1) // 2
        for got, chain in zip(stages, chains):
            assert np.max(np.abs(got - chain)) <= stage_tol
