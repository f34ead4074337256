"""Tableaux, order conditions, SSP-stage checks, and the two steppers.

The order-condition oracle below hand-codes the seventeen rooted-tree
conditions through order five from first principles; every tableau's order
is checked against it.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mppfv import time_integration
from mppfv.fluxes import divergence, high_order_flux
from mppfv.limiters import make_semidiscrete_gmc_substep_solver
from mppfv.problems import burgers_1d, initial_cell_averages, make_grid
from mppfv.solvers import (TOL_STAGE, JacobianEngine, NonConvergenceError,
                           SolverReport, make_stage_solver)
from mppfv.time_integration import (ButcherTableau, dirk_step, iex_step,
                                    iex_tableau, sdirk5_tableau)

from conftest import make_linear_advection_1d
from oracles import check_ssp_stages, iex_chain_step, solve_one


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

    def test_sdirk5_coefficients_are_the_nearest_floats(self):
        # Each coefficient is the float nearest to its exact fraction.
        F = Fraction
        d = F(4024571134387, 14474071345096)
        A = [[d, 0, 0, 0, 0],
             [F(9365021263232, 12572342979331), d, 0, 0, 0],
             [F(2144716224527, 9320917548702),
              F(-397905335951, 4008788611757), d, 0, 0],
             [F(-291541413000, 6267936762551), F(226761949132, 4473940808273),
              F(-1282248297070, 9697416712681), d, 0],
             [F(-2481679516057, 4626464057815),
              F(-197112422687, 6604378783090),
              F(3952887910906, 9713059315593),
              F(4906835613583, 8134926921134), d]]
        b = [F(-2522702558582, 12162329469185),
             F(1018267903655, 12907234417901),
             F(4542392826351, 13702606430957),
             F(5001116467727, 12224457745473),
             F(1509636094297, 3891594770934)]
        c = [d, F(5555633399575, 5431021154178),
             F(5255299487392, 12852514622453), F(3, 20),
             F(10449500210709, 14474071345096)]
        tab = sdirk5_tableau()
        for got, exact in ((tab.A, A), (tab.b, b), (tab.c, c)):
            want = np.array([float(x) for x in np.ravel(exact)])
            assert np.array_equal(got.ravel(), want)
            assert np.array_equal(np.signbit(got.ravel()), np.signbit(want))

    def test_package_import_leaves_out_fractions(self):
        # Importing fractions pulls in decimal, about 0.4 MiB and a few ms
        # of every run's start-up.
        src = str(Path(time_integration.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, mppfv.harness; print("
             "sorted({'fractions', 'decimal'} & set(sys.modules)))"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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

    def test_dependency_levels(self):
        # IEX-p: level j holds substep j+1 of the chains k > j, so iex4's
        # ten substeps are four levels of 4, 3, 2 and 1 members.
        assert iex_tableau(4).levels == ((0, 1, 3, 6), (2, 4, 7), (5, 8),
                                         (9,))
        assert sdirk5_tableau().levels == ((0,), (1,), (2,), (3,), (4,))
        # A stage waits for every stage it reads, not only the one before.
        tab = ButcherTableau(A=[[0.5, 0, 0], [0, 0.5, 0], [0.25, 0, 0.75]],
                             b=[0.25, 0.25, 0.5], c=[0.5, 0.5, 1.0])
        assert tab.levels == ((0, 1), (2,))

    def test_iex_tableau_is_built_once_per_order_and_read_only(self):
        tab = iex_tableau(3)
        assert iex_tableau(3) is tab and iex_tableau(2) is not tab
        assert tab.levels is iex_tableau(3).levels
        for values in (tab.A, tab.b, tab.c):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        # The inputs are copied, not frozen.
        A = np.array([[1.0]])
        ButcherTableau(A=A, b=[1.0], c=[1.0])
        A[0, 0] = 0.5

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            iex_tableau(0)

    def test_tableau_validation(self):
        with pytest.raises(ValueError):  # upper-triangular entry
            ButcherTableau(A=[[0.5, 0.5], [0.0, 0.5]], b=[0.5, 0.5],
                           c=[1.0, 0.5])
        with pytest.raises(ValueError):  # row sum != c
            ButcherTableau(A=[[0.5, 0.0], [0.0, 0.5]], b=[0.5, 0.5],
                           c=[1.0, 0.5])
        with pytest.raises(ValueError):  # weights don't sum to one
            ButcherTableau(A=[[0.5, 0.0], [0.0, 0.5]], b=[0.5, 0.6],
                           c=[0.5, 0.5])
        with pytest.raises(ValueError):  # shape mismatch
            ButcherTableau(A=[[1.0]], b=[0.5, 0.5], c=[1.0])


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
        assert np.array_equal(u1, u0 - 0.01 * divergence(total, grid))

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
        y, flux, report = solve_one(solver, u0, 0.01, 0.01, u0)
        assert report.converged
        assert all(np.array_equal(a, b) for a, b in zip(
            flux, high_order_flux(y, spec, grid, t=0.01)))
        manual = u0 - 0.01 * divergence(flux, grid)
        assert np.allclose(u1, manual, rtol=0, atol=1e-15)

    def test_explicit_stage_skips_solver(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        calls = []
        inner = make_stage_solver(JacobianEngine(spec, grid))

        def counting(reference, step_dt, stage_time, guess):
            calls.append((reference.shape, step_dt, stage_time))
            return inner(reference, step_dt, stage_time, guess)

        # Trapezoidal-type tableau: first stage explicit (zero diagonal).
        tab = ButcherTableau(A=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5],
                             c=[0.0, 1.0])
        dirk_step(u0, tab, spec, grid, counting, dt=0.01)
        # One solve, of the implicit stage alone: a stack of one member.
        assert len(calls) == 1
        shape, step_dt, stage_time = calls[0]
        assert shape == (1,) + grid.shape
        assert step_dt.shape == stage_time.shape == (1, 1)
        assert (step_dt.item(), stage_time.item()) == (0.005, 0.01)

    def test_explicit_first_stage_does_not_alias_input(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        kept = u0.copy()
        tab = ButcherTableau(A=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5],
                             c=[0.0, 1.0])
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

    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
    def test_stage_value_error_keeps_its_type_and_names_the_stage(
            self, advdiff_setup, error):
        spec, grid, u0 = advdiff_setup

        def failing(reference, step_dt, stage_time, guess):
            raise error("non-finite residual at iteration 3")

        with pytest.raises(error) as exc:
            dirk_step(u0, sdirk5_tableau(), spec, grid, failing, dt=0.01)
        assert type(exc.value) is error
        assert str(exc.value) == "stage 1/5: non-finite residual at iteration 3"
        assert type(exc.value.__cause__) is error

    @pytest.mark.parametrize("member,named", [(0, "stage 1/6"),
                                              (1, "stage 2/6"),
                                              (2, "stage 4/6"),
                                              (None, "stages 1, 2, 4/6")])
    @pytest.mark.parametrize("error", [ValueError, NonConvergenceError])
    def test_stacked_failure_names_its_member_stage(self, advdiff_setup,
                                                    member, named, error):
        # iex3's first level stacks stages 1, 2 and 4; the error's member
        # attribute is the stack index of the member that failed.
        spec, grid, u0 = advdiff_setup

        def failing(reference, step_dt, stage_time, guess):
            err = error("stalled")
            if member is not None:
                err.member = member
            raise err

        with pytest.raises(error, match=f"^{named}: stalled$"):
            iex_step(u0, 3, spec, grid, failing, dt=0.01)


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
        _, flux, _ = solve_one(inner, u0, 0.01, 0.01, u0)
        assert np.array_equal(got, u0 - 0.01 * divergence(flux, grid))

    def test_chain_states_and_flux_details(self, advdiff_setup):
        spec, grid, u0 = advdiff_setup
        solver = make_stage_solver(JacobianEngine(spec, grid))
        p = 4
        u1, flux, chains = iex_step(u0, p, spec, grid, solver, dt=0.01)
        assert len(chains) == p * (p + 1) // 2
        assert np.array_equal(u1, u0 - 0.01 * divergence(flux, grid))

    def test_chain_starts_solve_from_step_start(self, advdiff_setup):
        # The first substep of each chain starts from u^n, every other one
        # from the substep before it.  Each solve is one dependency level,
        # its members in stage order.
        spec, grid, u0 = advdiff_setup
        inner = make_stage_solver(JacobianEngine(spec, grid))
        guesses, values = {}, {}
        levels = iter(iex_tableau(3).levels)

        def recording(reference, step_dt, stage_time, guess):
            y, flux, reports = inner(reference, step_dt, stage_time, guess)
            for j, m in enumerate(next(levels)):
                guesses[m], values[m] = np.array(guess[j]), y[j]
            return y, flux, reports

        iex_step(u0, 3, spec, grid, recording, dt=0.01)
        assert sorted(guesses) == list(range(6))
        for m, guess in guesses.items():
            want = u0 if m in (0, 1, 3) else values[m - 1]
            assert np.array_equal(guess, want), m

    def test_matches_direct_extrapolation_of_chain_results(self,
                                                           burgers_setup):
        # The update must equal the closed-form weighted combination of the
        # per-chain backward-Euler results.  The GMC stage values are
        # rebuilt from their flux, so they are the chain results to roundoff
        # (quasi-Newton stage values are iterates, off by the residual).
        spec, grid, u0 = burgers_setup
        solver = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
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

        def make_solver():
            # Each step gets its own engine: neither starts on matrices the
            # other left.
            if kind == "newton":
                return make_stage_solver(JacobianEngine(spec, grid))
            return make_semidiscrete_gmc_substep_solver(
                JacobianEngine(spec, grid))

        dt = 2.0 * grid.spacing[0]
        u1, flux, stages = iex_step(u0, p, spec, grid, make_solver(), dt,
                                    t=0.1)
        want, want_flux, extrapolated, chains = iex_chain_step(
            u0, p, make_solver(), dt, grid, t=0.1)
        tol = 1e-12 * (spec.global_max - spec.global_min)
        assert np.max(np.abs(u1 - want)) <= tol
        assert np.max(np.abs(u1 - extrapolated)) <= tol
        for got_axis, want_axis in zip(flux, want_flux):
            assert np.max(np.abs(got_axis - want_axis)) <= tol
        # Quasi-Newton stage values are iterates, within the stage
        # tolerance of the chain states rebuilt from their flux.
        stage_tol = tol if kind == "gmc" else 2.0 * TOL_STAGE
        assert len(stages) == len(chains) == p * (p + 1) // 2
        for got, chain in zip(stages, chains):
            assert np.max(np.abs(got - chain)) <= stage_tol


def member_by_member(inner):
    """The stage solver ``inner`` called once per member of every stacked
    level, in stack order, as a stack of one; the results are stacked
    back."""
    def solver(reference, step_dt, stage_time, guess):
        alone = [solve_one(inner, reference[j], step_dt.flat[j],
                           stage_time.flat[j], guess[j])
                 for j in range(len(reference))]
        y, flux, reports = zip(*alone)
        return (np.stack(y), tuple(np.stack(f) for f in zip(*flux)),
                reports)

    return solver


class TestStackedLevels:
    """Each member of a stacked level keeps the result of its own solve:
    the level loop is bitwise the loop that solves every stage alone."""

    @pytest.mark.parametrize("kind", ["newton", "gmc"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_iex_step_equals_member_by_member_solves(self, burgers_setup,
                                                     kind, p):
        spec, grid, u0 = burgers_setup

        def make_solver():
            if kind == "newton":
                return make_stage_solver(JacobianEngine(spec, grid))
            return make_semidiscrete_gmc_substep_solver(
                JacobianEngine(spec, grid))

        dt = 2.0 * grid.spacing[0]
        stacked = make_solver()
        alone = member_by_member(make_solver())
        for step in range(2):
            t = step * dt
            u1, flux, stages = iex_step(u0, p, spec, grid, stacked, dt, t=t)
            want, want_flux, want_stages = iex_step(u0, p, spec, grid, alone,
                                                    dt, t=t)
            assert np.array_equal(u1, want)
            assert all(np.array_equal(a, b) for a, b in zip(flux, want_flux))
            assert all(np.array_equal(a, b)
                       for a, b in zip(stages, want_stages))
            u0 = u1

    def test_time_dependent_problem_stacks_bitwise(self):
        # vortex2d's velocity depends on t: every member sees its own
        # stage time.
        from mppfv.problems import swirling_vortex_2d

        spec = swirling_vortex_2d()
        grid = make_grid(spec, 10)
        u0 = initial_cell_averages(spec, grid)
        dt = 0.5 * grid.spacing[0]
        u1, _, stages = iex_step(u0, 3, spec, grid,
                                 make_semidiscrete_gmc_substep_solver(
                                     JacobianEngine(spec, grid)), dt, t=0.4)
        want, _, want_stages = iex_step(
            u0, 3, spec, grid,
            member_by_member(make_semidiscrete_gmc_substep_solver(
                JacobianEngine(spec, grid))),
            dt, t=0.4)
        assert np.array_equal(u1, want)
        assert all(np.array_equal(a, b) for a, b in zip(stages, want_stages))

    def test_substep_flux_evaluations_per_level(self, monkeypatch):
        # One iex4+gmc step of burgers1d, nx=200, at dt = h/2.  Each of a
        # level's two iterations (quasi-Newton, then the diagonal map)
        # evaluates the high-order flux once for the whole stack per update
        # of its slowest member, plus once to confirm; each member is
        # evaluated once per update of its own plus once per iteration, and
        # takes as many updates as the same substep solved alone.  The
        # solver holds a matrix per scale across calls, so the members are
        # solved alone on a fresh solver replayed level by level, as
        # member_by_member does.
        from mppfv import limiters

        spec = burgers_1d()
        grid = make_grid(spec, 200)
        u0 = initial_cell_averages(spec, grid)
        inner = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
        evaluated, levels, phases = [], [], []

        def counting_flux(values, *args, **kwargs):
            evaluated.append(len(values))
            return high_order_flux(values, *args, **kwargs)

        def recording(reference, step_dt, stage_time, guess):
            y, flux, reports = inner(reference, step_dt, stage_time, guess)
            levels.append((reference.copy(), step_dt, stage_time,
                           guess.copy(), reports))
            return y, flux, reports

        def phase(solve):
            def recorded(*args, **kwargs):
                out = solve(*args, **kwargs)
                phases.append(out[2])
                return out
            return recorded

        monkeypatch.setattr(limiters, "high_order_flux", counting_flux)
        monkeypatch.setattr(limiters, "_quasi_newton",
                            phase(limiters._quasi_newton))
        monkeypatch.setattr(limiters._GmcSystem, "fixed_point",
                            phase(limiters._GmcSystem.fixed_point))
        iex_step(u0, 4, spec, grid, recording, 0.5 * grid.spacing[0])
        assert [len(level[-1]) for level in levels] == [4, 3, 2, 1]
        # Per level, a quasi-Newton report and then a diagonal-map one.
        assert len(phases) == 2 * len(levels)
        assert len(evaluated) == sum(reports.iterations + 1
                                     for reports in phases)
        assert sum(evaluated) == sum(report.iterations + 1
                                     for *_, reports in levels
                                     for report in reports)
        alone = member_by_member(make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid)))
        for *level, reports in levels:
            assert tuple(alone(*level)[2]) == tuple(reports)
        # The members stop at different updates, so some leave their stack
        # early.
        assert len({r.iterations for r in levels[0][-1]}) > 1

    def test_stalled_member_switches_alone(self, monkeypatch):
        # A sharp pulse at dt = 2h: in step 2 the quasi-Newton residuals of
        # three substeps freeze while the limiter coefficients switch (at
        # 2.2e-2, 1.2e-2 and, just above the tolerance, 7.4e-8).  Those
        # members go on by the diagonal map, each on its own, so the
        # stacked step stays bitwise the step that solves every member
        # alone.
        from mppfv import limiters

        spec = burgers_1d()
        grid = make_grid(spec, 50)
        u0 = np.where(np.abs(grid.axis_centers(0)) < 0.5, 2.0, 0.0)
        newton = []

        def recording(*args, **kwargs):
            out = quasi_newton(*args, **kwargs)
            newton.append(out[2])
            return out

        quasi_newton = limiters._quasi_newton
        monkeypatch.setattr(limiters, "_quasi_newton", recording)
        dt = 2.0 * grid.spacing[0]
        stacked = make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid))
        alone = member_by_member(make_semidiscrete_gmc_substep_solver(
            JacobianEngine(spec, grid)))
        for step in range(2):
            t = step * dt
            del newton[:]
            u1, flux, stages = iex_step(u0, 2, spec, grid, stacked, dt, t=t)
            stacked_newton = [tuple(reports) for reports in newton]
            want, want_flux, want_stages = iex_step(u0, 2, spec, grid, alone,
                                                    dt, t=t)
            assert np.array_equal(u1, want)
            assert all(np.array_equal(a, b) for a, b in zip(flux, want_flux))
            assert all(np.array_equal(a, b)
                       for a, b in zip(stages, want_stages))
            u0 = u1
        # Step 2's first level stacks two members; both freeze, at
        # different updates, well before the budget.
        first = stacked_newton[0]
        assert len(first) == 2
        assert not any(report.converged for report in first)
        assert first[0].iterations != first[1].iterations
        assert max(report.iterations for report in first) < 50
