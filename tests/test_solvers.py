"""Linear algebra, pseudo-Jacobian assembly, and the Newton loops.

The pseudo-Jacobian is validated against central finite differences of an
independently evaluated residual with the wave-speed bound held fixed at
the linearization state (the matrix deliberately omits the bound's own
state dependence, so the comparison freezes it too).
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from mppfv import harness, solvers
from mppfv.fluxes import divergence, high_order_flux, low_order_with_bars
from mppfv.harness import RunConfig, build_problem, run
from mppfv.mesh import FIRST, LAST, PERIODIC, StructuredGrid
from mppfv.solvers import (JacobianEngine, NonConvergenceError,
                           SolverReport, SparseBandedMatrix,
                           assemble_pseudo_jacobian, make_stage_solver,
                           newton_low_order)
from mppfv.problems import (BUILTIN_PROBLEMS, burgers_1d,
                            initial_cell_averages, make_grid)

from conftest import (DIRICHLET, make_advection_2d, make_burgers_1d,
                      make_linear_advection_1d, make_pure_diffusion_1d, shaped)
from oracles import (blended_faces, coo_pseudo_jacobian,
                     line_factorized_dense, solve_one)


def freeze_speed_bound(spec, grid, state, t=0.0):
    """Replace the wave-speed policy with the per-face values it takes at
    ``state`` so finite differences see exactly what the matrix assumes."""
    lam = [faces.lam_a for faces in blended_faces(state, spec, grid, t)]

    def bound(axis, ua, ub, ra, rb, x, y, t):
        return lam[axis]

    return type(spec)(**{**spec.__dict__, "wave_speed_bound": bound})


def residual_fd_jacobian(u, spec, grid, dt, t=0.0, step=1e-7):
    """Central finite differences of r(u) = u - u0 + dt*div(G^L(u))
    column by column (u0 drops out of the derivative)."""
    n = u.size
    J = np.zeros((n, n))

    def div(v):
        flux = low_order_with_bars(v.reshape(grid.shape), spec, grid, t=t)[0]
        return divergence(flux, grid).ravel()

    flat = u.ravel()
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        plus = flat + e
        minus = flat - e
        J[:, j] = ((plus - minus)
                   + dt * (div(plus) - div(minus))) / (2 * step)
    return J


class TestPseudoJacobian:
    def test_matches_finite_differences_nonlinear_1d(self, rng):
        base, grid = make_burgers_1d(16)
        spec = type(base)(**{
            **base.__dict__,
            "diffusion": lambda u, x, y: 0.01 + 0.02 * np.square(
                np.asarray(u, dtype=float)),
            "diffusion_derivative": lambda u, x, y: 0.04 * np.asarray(
                u, dtype=float),
        })
        u = 1.0 + 0.5 * np.sin(2 * np.pi * grid.axis_centers(0))
        dt = 0.03
        frozen = freeze_speed_bound(spec, grid, u)
        got = assemble_pseudo_jacobian(u, frozen, grid, dt).matrix.toarray()
        want = residual_fd_jacobian(u, frozen, grid, dt)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale <= 1e-6

    def test_matches_finite_differences_2d_mixed_boundary(self, rng):
        # Every 2D boundary pair: each axis's face-to-cell map (wrap face
        # assembled once, ghost sides dropped) is checked separately.
        for boundary in [(PERIODIC, PERIODIC), (PERIODIC, DIRICHLET),
                         (DIRICHLET, PERIODIC), (DIRICHLET, DIRICHLET)]:
            base, grid = make_advection_2d(vel=(0.8, -0.6), shape=(5, 4),
                                           boundary=boundary)
            spec = type(base)(**{
                **base.__dict__,
                "diffusion": lambda u, x, y: shaped(0.02, u, x, y),
            })
            u = rng.uniform(0.2, 0.8, grid.shape)
            dt = 0.05
            frozen = freeze_speed_bound(spec, grid, u)
            got = assemble_pseudo_jacobian(u, frozen, grid,
                                           dt).matrix.toarray()
            want = residual_fd_jacobian(u, frozen, grid, dt)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) / scale <= 1e-6, boundary

    def test_pure_upwind_rows(self):
        # f = u, c = 0, speed bound 1, dt = dx: each row is the first-order
        # upwind stencil (-1, 2, 0).
        spec, grid = make_linear_advection_1d(velocity=1.0, n=8,
                                              wave_speed=1.0)
        dt = grid.spacing[0]
        J = assemble_pseudo_jacobian(np.full(8, 0.5), spec, grid,
                                     dt).matrix.toarray()
        for i in range(8):
            assert J[i, i] == pytest.approx(2.0, abs=1e-14)
            assert J[i, (i - 1) % 8] == pytest.approx(-1.0, abs=1e-14)
            assert J[i, (i + 1) % 8] == pytest.approx(0.0, abs=1e-14)

    def test_pure_diffusion_gives_symmetric_tridiagonal(self):
        spec, grid = make_pure_diffusion_1d(coefficient=0.7, n=8)
        dt = 0.01
        h = grid.spacing[0]
        J = assemble_pseudo_jacobian(np.full(8, 0.3), spec, grid,
                                     dt).matrix.toarray()
        r = dt * 0.7 / h ** 2
        want = np.eye(8)
        for i in range(8):
            want[i, i] += 2 * r
            want[i, (i - 1) % 8] -= r
            want[i, (i + 1) % 8] -= r
        assert np.max(np.abs(J - want)) <= 1e-12

    def test_row_sums_one_for_linear_flux_without_diffusion(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, n=10,
                                              wave_speed=2.0)
        J = assemble_pseudo_jacobian(np.linspace(0, 1, 10), spec, grid,
                                     0.04).matrix
        sums = np.asarray(J.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: make_burgers_1d(9),
        lambda: make_burgers_1d(9, boundary=DIRICHLET),
        lambda: make_advection_2d(shape=(4, 5), boundary=(PERIODIC, DIRICHLET)),
    ])
    def test_structural_symmetry(self, make, rng):
        spec, grid = make()
        u = rng.uniform(0.1, 0.9, grid.shape)
        pattern = assemble_pseudo_jacobian(u, spec, grid, 0.02).matrix.copy()
        pattern.data = np.ones_like(pattern.data)
        assert (pattern != pattern.T).nnz == 0


class TestCachedPattern:
    """The CSR matrix of an assembled stencil is the COO assembly of
    ``oracles.coo_pseudo_jacobian``: the same index arrays, explicit zeros
    included, and equal data."""

    @staticmethod
    def assert_same(u, spec, grid, scale, t):
        jac = assemble_pseudo_jacobian(u, spec, grid, scale, t=t)
        want = coo_pseudo_jacobian(u, spec, grid, scale, t=t)
        got = jac.matrix
        assert got.format == want.format
        assert got.indices.dtype == want.indices.dtype
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        # Bitwise but for the sign of zeros: a slot whose only term is
        # -0.0 reads +0.0 from the stencil's CSR matrix.
        assert np.array_equal(got.data, want.data)
        return want

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_builtin_problems_match_coo_assembly(self, name, rng):
        for epsilon in ((None, 0.02) if name in ("linear1d", "linear2d",
                                                 "kpp2d") else (None,)):
            spec = build_problem(RunConfig(problem=name, epsilon=epsilon))
            grid = make_grid(spec, 9, 7 if spec.dim == 2 else None)
            hi = spec.global_max if np.isfinite(spec.global_max) else 2.0
            states = [initial_cell_averages(spec, grid)]
            states += [rng.uniform(spec.global_min, hi, grid.shape)
                       for _ in range(3)]
            for u in states:
                self.assert_same(u, spec, grid, rng.uniform(0.01, 0.5),
                                 rng.uniform(0.0, 0.5))

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET],
                             ids=["periodic", "dirichlet"])
    def test_1d_boundary_kinds_match_coo_assembly(self, boundary, rng):
        for spec, grid in (make_burgers_1d(8, boundary=boundary),
                           make_linear_advection_1d(velocity=1.0, n=6,
                                                    wave_speed=1.0,
                                                    boundary=boundary)):
            self.assert_same(rng.uniform(0.0, 1.0, grid.shape), spec, grid,
                             0.1, 0.0)

    @pytest.mark.parametrize("boundary", list(itertools.product(
        (PERIODIC, DIRICHLET), repeat=2)))
    def test_2d_boundary_pairs_match_coo_assembly(self, boundary, rng):
        spec, grid = make_advection_2d(vel=(0.8, -0.6), shape=(5, 4),
                                       boundary=boundary)
        self.assert_same(rng.uniform(0.2, 0.8, grid.shape), spec, grid,
                         0.05, 0.0)
        diffusive = type(spec)(**{
            **spec.__dict__,
            "diffusion": lambda u, x, y: shaped(0.02, u, x, y),
        })
        self.assert_same(rng.uniform(0.2, 0.8, grid.shape), diffusive, grid,
                         0.05, 0.0)


class TestFactorizationReuse:
    """The iteration-matrix rule of the :mod:`mppfv.solvers` docstring: a
    member assembles when it holds no matrix and at each stall, and keeps
    its matrix and LU otherwise.  Counted on whole runs:
    ``SparseBandedMatrix.factorize`` calls made while the matrix holds no
    LU are factorizations (as the benchmark tracer counts them),
    ``_quasi_newton`` calls are nonlinear solves, and the ``scale``
    arguments of the assemblies are the implicit scales (one engine serves
    every solve of a run)."""

    @staticmethod
    def count(**kwargs):
        """``(factorizations, assemblies, scales, solves)`` of one run."""
        factorized = []
        factorize = SparseBandedMatrix.factorize

        def counted_factorize(matrix):
            if matrix._lu is None:
                factorized.append(matrix)
            return factorize(matrix)

        with mock.patch.object(SparseBandedMatrix, "factorize",
                               counted_factorize), \
                mock.patch.object(solvers, "assemble_pseudo_jacobian",
                                  wraps=solvers.assemble_pseudo_jacobian) \
                as assemble, \
                mock.patch.object(solvers, "_quasi_newton",
                                  wraps=solvers._quasi_newton) as solves:
            run(RunConfig(**kwargs))
        scales = {float(call.args[3]) for call in assemble.call_args_list}
        return (len(factorized), assemble.call_count, scales,
                solves.call_count)

    def assert_one_matrix_per_scale(self, **kwargs):
        # One assembly and one factorization per scale: the matrix the
        # first solve at the stage scale a_mm*dt and at the low-order
        # scale dt assembles serves every later solve there.
        factorized, assembled, scales, _ = self.count(
            scheme="sdirk5", limiter="fct", **kwargs)
        assert assembled == factorized == len(scales) == 2

    @pytest.mark.parametrize("problem", ["rotation2d", "linear2d"])
    def test_state_independent_2d_solves_with_the_held_lu(self, problem):
        self.assert_one_matrix_per_scale(problem=problem, nx=16,
                                         t_final=0.5 / 16)

    def test_state_independent_1d_solves_with_the_held_lu(self):
        self.assert_one_matrix_per_scale(problem="linear1d", nx=20,
                                         t_final=0.1)

    def test_state_independent_refresh_assembles_once_per_solve(self):
        # At dt = h the mixed stage solves stall above STALL_RATIO: each
        # refreshes once, finds the held matrix and stays on its LU.  (At
        # dt = h/2 they contract fast enough never to refresh.)  Two
        # factorizations of the one matrix: ``M`` for the first solve and,
        # from its first stall on, the exact LU, which the engine holds
        # for every later solve.
        factorized, assembled, scales, solves = self.count(
            problem="rotation2d", nx=12, scheme="sdirk5", limiter="gmc",
            dt_factor=1.0, t_final=1.0 / 12)
        assert factorized == 2 * len(scales) == 2
        assert 1 < assembled <= len(scales) + solves

    def test_state_dependent_2d_factorizes_the_refreshed_matrices(self):
        # One step of dt = 0.83 at 12^2: the stage solves stall on the
        # held LU and refresh, and the refreshed matrices differ from it.
        factorized, assembled, scales, _ = self.count(
            problem="kpp2d", nx=12, scheme="sdirk5", dt_factor=5.0,
            t_final=2.5 / 3)
        assert assembled == factorized > len(scales) == 1

    def test_time_dependent_2d_keeps_the_repeated_lu(self):
        # vortex2d's pseudo-Jacobian depends on time but not on the state:
        # a solve's first refresh differs from a matrix held from an
        # earlier stage time, its second repeats the first, and the solve
        # keeps that LU.
        spec = build_problem(RunConfig(problem="vortex2d"))
        factorized, assembled, scales, solves = self.count(
            problem="vortex2d", nx=12, scheme="sdirk5", limiter="gmc",
            dt_factor=2.0, t_final=2.0 * min(make_grid(spec, 12).spacing))
        assert factorized > len(scales) == 1
        assert assembled <= len(scales) + 2 * solves

    def test_1d_factorizes_the_refreshed_matrices(self):
        # On the matrix assembled at its guess alone this low-order solve
        # stalls at 1.7 after 100 iterations.
        factorized, assembled, scales, _ = self.count(
            problem="bl1d", nx=40, t_final=0.1, scheme="be", dt_factor=5.0)
        assert assembled == factorized > len(scales) == 1

    def test_1d_assembles_at_its_guess_and_at_each_stall(self, monkeypatch):
        # bl1d nx=40, the first low-order solve at dt = 5h: two of its 17
        # updates stall (residual ratios 1.46 and 0.69), so it assembles
        # three matrices.  Re-assembling at every update after the first
        # stall assembled six, in six updates.
        ratios = []
        iterate = solvers.iterate

        def recording_iterate(reference, evaluate, advance, *args):
            def recording_advance(y, r, res, prev_res, members):
                ratios.append(res[0] / prev_res[0])
                return advance(y, r, res, prev_res, members)
            return iterate(reference, evaluate, recording_advance, *args)

        monkeypatch.setattr(solvers, "iterate", recording_iterate)
        spec = build_problem(RunConfig(problem="bl1d"))
        grid = make_grid(spec, 40)
        with mock.patch.object(solvers, "assemble_pseudo_jacobian",
                               wraps=assemble_pseudo_jacobian) as assemble:
            _, _, report = newton_low_order(
                initial_cell_averages(spec, grid), spec, grid,
                5.0 * grid.spacing[0])
        stalls = sum(ratio > solvers.STALL_RATIO for ratio in ratios)
        assert report.converged and stalls >= 1
        assert assemble.call_count == 1 + stalls < len(ratios)

    def test_state_dependent_2d_factorizes_with_superlu_at_stalls_only(self):
        # kpp2d 32^2 sdirk5+fct at dt = 2h, two steps: 26 SuperLU
        # factorizations.  Factorizing at every update after a member's
        # first stall made 145.
        spec = build_problem(RunConfig(problem="kpp2d", epsilon=0.01))
        h = min(make_grid(spec, 32).spacing)
        with mock.patch.object(solvers.spla, "splu",
                               wraps=solvers.spla.splu) as splu:
            diag, _ = run(RunConfig(problem="kpp2d", nx=32, epsilon=0.01,
                                    scheme="sdirk5", limiter="fct",
                                    dt_factor=2.0, t_final=4.0 * h))
        assert diag.delta >= -1e-12
        assert 0 < splu.call_count <= 40


class TestHeldMatrix:
    """An engine holds, per implicit scale, the matrix the last converged
    solve there ended with: the first solve at a scale assembles at its
    guess and stage time, and every later solve there starts on the held
    matrix and its LU."""

    @staticmethod
    def recorded(monkeypatch):
        """Lists that fill with ``(state, scale, t)`` of every assembly and
        the matrix of every linear solve."""
        assembled, used = [], []
        assemble = solvers.assemble_pseudo_jacobian
        solve = SparseBandedMatrix.solve

        def recording_assemble(values, spec, grid, scale, t=0.0):
            assembled.append((np.array(values), scale, t))
            return assemble(values, spec, grid, scale, t=t)

        def recording_solve(matrix, rhs):
            used.append(matrix)
            return solve(matrix, rhs)

        monkeypatch.setattr(solvers, "assemble_pseudo_jacobian",
                            recording_assemble)
        monkeypatch.setattr(SparseBandedMatrix, "solve", recording_solve)
        return assembled, used

    def test_first_solve_assembles_at_its_guess_and_stage_time(
            self, rng, monkeypatch):
        spec, grid = make_burgers_1d(16)
        guess = rng.uniform(0.0, 2.0, 16)
        assembled, _ = self.recorded(monkeypatch)
        solver = make_stage_solver(JacobianEngine(spec, grid))
        _, _, report = solve_one(solver, guess, 0.05, 0.3, guess)
        assert report.iterations > 0
        state, scale, t = assembled[0]
        assert np.array_equal(state, guess)
        assert (scale, t) == (0.05, 0.3)

    def test_solve_after_a_refresh_starts_on_its_last_matrix(
            self, monkeypatch):
        # bl1d at dt = 5h: the first low-order solve stalls on the matrix
        # assembled at its guess and refreshes.
        spec = build_problem(RunConfig(problem="bl1d"))
        grid = make_grid(spec, 40)
        dt = 5.0 * grid.spacing[0]
        engine = JacobianEngine(spec, grid)
        assembled, used = self.recorded(monkeypatch)
        u1, _, _ = newton_low_order(initial_cell_averages(spec, grid), spec,
                                    grid, dt, engine=engine)
        first = len(used)
        assert len(assembled) > 1
        newton_low_order(u1, spec, grid, dt, t=dt, engine=engine)
        assert used[first] is used[first - 1]

    def test_solve_that_does_not_stall_assembles_nothing(self, monkeypatch):
        spec, grid = make_burgers_1d(16)
        u0 = 1.0 + np.sin(np.pi * grid.axis_centers(0))
        solver = make_stage_solver(JacobianEngine(spec, grid))
        assembled, used = self.recorded(monkeypatch)
        y, _, _ = solve_one(solver, u0, 0.05, 0.0, u0)
        assert len(assembled) == 1
        held = used[0]
        first = len(used)
        _, _, report = solve_one(solver, y, 0.05, 0.05, y)
        assert report.iterations > 0
        assert len(assembled) == 1
        assert all(matrix is held for matrix in used[first:])

    def test_2d_solve_after_a_stall_starts_exact(self, monkeypatch):
        # rotation2d 16^2 at dt = 10h: the first low-order solve stalls on
        # M and switches to the exact LU of the same matrix (its pattern
        # does not depend on the state); the next solve at that scale
        # starts on that exact matrix and factorizes nothing.
        spec = build_problem(RunConfig(problem="rotation2d"))
        grid = make_grid(spec, 16)
        dt = 10.0 * grid.spacing[0]
        engine = JacobianEngine(spec, grid)
        assembled, used = self.recorded(monkeypatch)
        u1, _, _ = newton_low_order(initial_cell_averages(spec, grid), spec,
                                    grid, dt, engine=engine)
        assert not used[0].exact and used[-1].exact
        assert used[-1].stencil is used[0].stencil
        assert engine.held[dt] is used[-1]
        first = len(used)
        newton_low_order(u1, spec, grid, dt, t=dt, engine=engine)
        assert all(matrix is used[first - 1] for matrix in used[first:])


class TestLuChoice:
    """1D runs factorize the stencil's bands with LAPACK's tridiagonal LU
    and never build a CSR matrix or call SuperLU.  2D solves start on the
    line-factorized ``M``: at small steps they never call SuperLU, and a
    solve that stalls on ``M`` falls back to SuperLU with the
    symmetric-pattern ordering."""

    def test_1d_run_never_calls_splu(self):
        with mock.patch.object(solvers.spla, "splu",
                               wraps=solvers.spla.splu) as splu:
            run(RunConfig(problem="bl1d", nx=40, t_final=0.1, scheme="be",
                          dt_factor=5.0))
        assert splu.call_count == 0

    def test_1d_run_never_builds_a_csr_matrix(self):
        read = []
        with mock.patch.object(SparseBandedMatrix, "matrix",
                               property(read.append)), \
                mock.patch.object(solvers.sp, "csr_matrix",
                                  wraps=solvers.sp.csr_matrix) as csr:
            run(RunConfig(problem="bl1d", nx=40, t_final=0.1, scheme="be",
                          dt_factor=5.0))
        assert read == []
        assert csr.call_count == 0

    # One step of rotation2d 16^2 sdirk5+fct at dt = 10h.
    LARGE_STEP = dict(problem="rotation2d", nx=16, scheme="sdirk5",
                      limiter="fct", dt_factor=10.0, t_final=10.0 / 16)

    def test_2d_run_orders_for_the_symmetric_pattern(self):
        # The large step's solves stall on M and fall back to SuperLU.
        with mock.patch.object(solvers.spla, "splu",
                               wraps=solvers.spla.splu) as splu:
            diag, _ = run(RunConfig(**self.LARGE_STEP))
        assert diag.delta >= -1e-12
        assert splu.call_count > 0
        assert all(call.kwargs == {"permc_spec": "MMD_AT_PLUS_A"}
                   for call in splu.call_args_list)

    def test_2d_large_step_needs_the_exact_fallback(self):
        # On M alone the low-order solve of that step stalls (at 6.3e-10
        # after 100 updates).
        with mock.patch.object(SparseBandedMatrix, "exactly",
                               lambda matrix: matrix), \
                pytest.raises(NonConvergenceError, match="low-order solve"):
            run(RunConfig(**self.LARGE_STEP))

    def test_2d_run_at_small_steps_never_calls_splu(self):
        with mock.patch.object(solvers.spla, "splu",
                               wraps=solvers.spla.splu) as splu:
            run(RunConfig(problem="rotation2d", nx=16, scheme="sdirk5",
                          limiter="gmc", dt_factor=0.5, t_final=1.0 / 16))
        assert splu.call_count == 0


def unit_grid(shape, boundary):
    """A grid on the unit box whose cell arrays have ``shape`` (cell counts
    in array order, x last)."""
    dim = len(shape)
    return StructuredGrid(tuple(reversed(shape)), (0.0,) * dim,
                          (1.0,) * dim, boundary)


def tridiagonal_matrix(m):
    """The cyclic tridiagonal ``m`` as a 1D stencil: on a periodic grid
    when a corner is nonzero, else on a Dirichlet one."""
    n = len(m)
    i = np.arange(n)
    stencil = np.array([m[i, i], m[i, (i - 1) % n], m[i, (i + 1) % n]])
    periodic = m[0, -1] != 0.0 or m[-1, 0] != 0.0
    return SparseBandedMatrix(
        stencil, unit_grid((n,), (PERIODIC if periodic else DIRICHLET,)))


class TestLinearSolve:
    """Solves with 1D stencils and with ``exact`` 2D ones agree with the
    dense solve of their CSR matrix."""

    @staticmethod
    def banded(rng, grid, exact=True):
        """A random diagonally dominant stencil on ``grid``, ``exact`` (a
        2D one is solved with its exact LU, not with ``M``)."""
        stencil = rng.uniform(-1.0, -0.9, (1 + 2 * grid.dim,) + grid.shape)
        stencil[0] = rng.uniform(2.0 * grid.dim + 1.0, 2.0 * grid.dim + 2.0,
                                 grid.shape)
        return SparseBandedMatrix(stencil, grid, exact=exact)

    @staticmethod
    def grids(n):
        """A periodic 1D grid and a 2D grid with a periodic and a Dirichlet
        axis, each of ``n`` cells (``n`` a multiple of 5)."""
        return (unit_grid((n,), (PERIODIC,)),
                unit_grid((n // 5, 5), (PERIODIC, DIRICHLET)))

    def test_identity_returns_rhs(self, rng):
        for grid in self.grids(10):
            stencil = np.zeros((1 + 2 * grid.dim,) + grid.shape)
            stencil[0] = 1.0
            rhs = rng.standard_normal(grid.num_cells)
            got = SparseBandedMatrix(stencil, grid).solve(rhs)
            assert np.allclose(got, rhs, atol=1e-14)

    def test_tridiagonal_roundtrip(self, rng):
        n = 20
        m = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1))
        x = rng.standard_normal(n)
        got = tridiagonal_matrix(m).solve(m @ x)
        assert np.max(np.abs(got - x)) <= 1e-10

    def test_periodic_corner_case_against_dense(self, rng):
        # Every periodic coupling filled, the seam's included.
        for grid in (unit_grid((9,), (PERIODIC,)),
                     unit_grid((4, 5), (PERIODIC, PERIODIC))):
            matrix = self.banded(rng, grid)
            rhs = rng.standard_normal(matrix.grid.num_cells)
            want = np.linalg.solve(matrix.matrix.toarray(), rhs)
            assert np.allclose(matrix.solve(rhs), want, atol=1e-12)

    def test_singular_matrix_raises(self):
        for grid in self.grids(10):
            zero = SparseBandedMatrix(
                np.zeros((1 + 2 * grid.dim,) + grid.shape), grid)
            with pytest.raises(np.linalg.LinAlgError):
                zero.solve(np.ones(grid.num_cells))

    def test_residual_certificate(self, rng):
        for grid in self.grids(30):
            matrix = self.banded(rng, grid)
            rhs = rng.standard_normal(matrix.grid.num_cells)
            x = matrix.solve(rhs)
            residual = matrix.matrix @ x - rhs
            assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(rhs)


class TestTridiagonalLu:
    """1D stencils are factorized by ``dgttrf`` on their three rows (the
    corners by Sherman-Morrison) and must solve as the dense LU does."""

    @staticmethod
    def cyclic(rng, n, corners=True):
        m = (np.diag(rng.uniform(3.0, 4.0, n))
             + np.diag(rng.uniform(-1.0, 0.0, n - 1), 1)
             + np.diag(rng.uniform(-1.0, 0.0, n - 1), -1))
        if corners:
            m[0, -1], m[-1, 0] = rng.uniform(-1.0, -0.1, 2)
        return m

    @staticmethod
    def assert_tridiagonal_solve(m, rng):
        matrix = tridiagonal_matrix(m)
        assert isinstance(matrix.factorize(), solvers._LineFactorization)
        rhs = rng.standard_normal(len(m))
        want = np.linalg.solve(m, rhs)
        got = matrix.solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # The CSR matrix of the stencil is ``m``.
        assert np.array_equal(matrix.matrix.toarray(), m)

    def test_dirichlet_tridiagonal(self, rng):
        self.assert_tridiagonal_solve(self.cyclic(rng, 17, corners=False),
                                      rng)

    @pytest.mark.parametrize("n", [3, 4, 25])
    def test_cyclic_with_corners(self, n, rng):
        self.assert_tridiagonal_solve(self.cyclic(rng, n), rng)

    def test_one_corner_only(self, rng):
        m = self.cyclic(rng, 9)
        m[-1, 0] = 0.0
        self.assert_tridiagonal_solve(m, rng)

    def test_cyclic_with_zero_first_diagonal_entry(self, rng):
        # gamma = -A[0, 0] would be 0; the larger corner takes its place.
        m = self.cyclic(rng, 8)
        m[0, 0] = 0.0
        m[0, 1], m[0, -1] = 2.0, -1.5
        self.assert_tridiagonal_solve(m, rng)

    def test_row_interchange(self, rng):
        # A small leading pivot: dgttrf swaps rows 0 and 1.
        m = self.cyclic(rng, 10, corners=False)
        m[0, 0], m[1, 0] = 1e-6, 5.0
        ipiv = tridiagonal_matrix(m).factorize()._lines[0]._factors[4]
        assert ipiv[0] == 2  # LAPACK's 1-based row index
        self.assert_tridiagonal_solve(m, rng)

    def test_pseudo_jacobian_bands_come_from_the_pattern(self, rng):
        # The stencil's rows are the main, sub- and super-diagonal of the
        # matrix read cyclically, the corners included.
        for boundary in (PERIODIC, DIRICHLET):
            spec, grid = make_burgers_1d(12, boundary=boundary)
            jac = assemble_pseudo_jacobian(rng.uniform(0.0, 2.0, 12), spec,
                                           grid, 0.1)
            dense = jac.matrix.toarray()
            i = np.arange(12)
            for row, offset in zip(jac.stencil, (0, -1, 1)):
                assert np.array_equal(row, dense[i, (i + offset) % 12])
            assert isinstance(jac.factorize(), solvers._LineFactorization)
            rhs = rng.standard_normal(12)
            want = np.linalg.solve(dense, rhs)
            assert np.allclose(jac.solve(rhs), want, rtol=0, atol=1e-12)

    def test_other_patterns_take_superlu(self, rng):
        # Exact 2D stencils, 2D ones with fewer than three cells along an
        # axis, and 1D ones on fewer than three cells.
        for shape, boundary, exact in (
                ((4, 6), (PERIODIC, DIRICHLET), True),
                ((2, 6), (PERIODIC, PERIODIC), False),
                ((2,), (PERIODIC,), False), ((2,), (DIRICHLET,), False)):
            matrix = TestLinearSolve.banded(rng, unit_grid(shape, boundary),
                                            exact)
            assert not isinstance(matrix.factorize(),
                                  solvers._LineFactorization)
            assert matrix.exact
            rhs = rng.standard_normal(matrix.grid.num_cells)
            want = np.linalg.solve(matrix.matrix.toarray(), rhs)
            assert np.allclose(matrix.solve(rhs), want, rtol=0, atol=1e-12)

    def test_singular_tridiagonal_raises(self):
        m = (np.diag(np.full(6, 2.0)) + np.diag(np.full(5, -1.0), 1)
             + np.diag(np.full(5, -1.0), -1))
        m[0, 0] = m[-1, -1] = 1.0  # the Neumann Laplacian: rows sum to 0
        matrix = tridiagonal_matrix(m)
        main, sub, sup = matrix.stencil
        with pytest.raises(np.linalg.LinAlgError):
            solvers._TridiagonalLU(sub, main, sup)
        with pytest.raises(np.linalg.LinAlgError):  # and SuperLU agrees
            matrix.solve(np.ones(6))

    def test_factorizing_leaves_the_stencil_unchanged(self, rng):
        # The periodic corners shift two diagonal entries for
        # Sherman-Morrison; that shift must not reach the held stencil.
        spec, grid = make_burgers_1d(12)
        u = rng.uniform(0.0, 2.0, 12)
        jac = assemble_pseudo_jacobian(u, spec, grid, 0.1)
        assert jac.stencil[1, 0] != 0.0 and jac.stencil[2, -1] != 0.0
        stencil = jac.stencil.copy()
        data = jac.matrix.data.copy()
        jac.factorize()
        assert jac.stencil.tobytes() == stencil.tobytes()
        assert jac.matrix.data.tobytes() == data.tobytes()
        again = assemble_pseudo_jacobian(u, spec, grid, 0.1)
        assert np.array_equal(again.stencil, jac.stencil)


class TestLineFactorization:
    """A 1D stencil is one stack of lines, solved by a ``_TridiagonalLU``.
    A 2D stencil that is not ``exact`` solves with ``M = (D + X) D^{-1}
    (D + Y)``, whose factors are stacks of cyclic tridiagonal lines solved
    by one ``_TridiagonalLU`` each; its exact LU is SuperLU's."""

    @staticmethod
    def random_stencil(rng, grid):
        """A diagonally dominant 2D stencil with the Dirichlet ghost
        couplings zero, as the assembly writes them."""
        matrix = TestLinearSolve.banded(rng, grid, exact=False)
        for axis in range(2):
            if grid.boundary[axis] != PERIODIC:
                matrix.stencil[1 + 2 * axis][FIRST[axis]] = 0.0
                matrix.stencil[2 + 2 * axis][LAST[axis]] = 0.0
        return matrix

    @staticmethod
    def assert_solves_with_m(matrix, rng):
        assert isinstance(matrix.factorize(), solvers._LineFactorization)
        m, a = line_factorized_dense(matrix.stencil, matrix.grid)
        assert np.array_equal(a, matrix.matrix.toarray())
        rhs = rng.standard_normal(matrix.grid.num_cells)
        want = np.linalg.solve(m, rhs)
        got = matrix.solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert not matrix.exact

    @pytest.mark.parametrize("boundary", [
        (PERIODIC, PERIODIC), (PERIODIC, DIRICHLET), (DIRICHLET, PERIODIC),
        (DIRICHLET, DIRICHLET)])
    def test_solves_with_m_on_a_non_square_grid(self, boundary, rng):
        # 5 cells along x, 7 along y: a swapped axis or a missed transpose
        # cannot pass.
        grid = StructuredGrid((5, 7), (0.0, 0.0), (1.0, 1.0), boundary)
        self.assert_solves_with_m(self.random_stencil(rng, grid), rng)

    @pytest.mark.parametrize("boundary", [
        (PERIODIC, DIRICHLET), (DIRICHLET, PERIODIC)])
    def test_pseudo_jacobian_solves_with_m(self, boundary, rng):
        spec, grid = make_advection_2d(vel=(0.8, -0.6), shape=(5, 7),
                                       boundary=boundary)
        diffusive = type(spec)(**{
            **spec.__dict__,
            "diffusion": lambda u, x, y: shaped(0.02, u, x, y),
        })
        jac = assemble_pseudo_jacobian(rng.uniform(0.2, 0.8, grid.shape),
                                       diffusive, grid, 0.3)
        self.assert_solves_with_m(jac, rng)
        assert not np.allclose(line_factorized_dense(jac.stencil, grid)[0],
                               jac.matrix.toarray())

    def test_exact_copy_solves_the_matrix(self, rng):
        grid = StructuredGrid((5, 7), (0.0, 0.0), (1.0, 1.0),
                              (PERIODIC, DIRICHLET))
        matrix = self.random_stencil(rng, grid)
        exact = matrix.exactly()
        assert exact is not matrix and exact.exact and not matrix.exact
        assert exact.stencil is matrix.stencil and exact._lu is None
        assert exact.exactly() is exact
        rhs = rng.standard_normal(grid.num_cells)
        want = np.linalg.solve(matrix.matrix.toarray(), rhs)
        assert np.allclose(exact.solve(rhs), want, rtol=0, atol=1e-12)
        one_d = TestLinearSolve.banded(rng, unit_grid((9,), (PERIODIC,)),
                                       exact=False)
        assert one_d.exactly() is one_d

    @staticmethod
    def lines(rng):
        """Bands of a stack of five lines of 8 cells, ``(sub, main, sup)``:
        a cyclic line, a Dirichlet one, one with a single corner, a cyclic
        one whose first diagonal entry is 0, and a Dirichlet one that needs
        a row interchange."""
        sub, sup = (rng.uniform(-1.0, -0.1, (5, 8)) for _ in range(2))
        main = rng.uniform(3.0, 4.0, (5, 8))
        sub[1, 0] = sup[1, -1] = 0.0
        sup[2, -1] = 0.0
        main[3, 0], sup[3, 0], sub[3, 0] = 0.0, 2.0, -1.5
        main[4, 0], sub[4, 1], sub[4, 0], sup[4, -1] = 1e-6, 5.0, 0.0, 0.0
        return sub, main, sup

    @staticmethod
    def dense_line(sub, main, sup):
        n = len(main)
        i = np.arange(n)
        m = np.zeros((n, n))
        m[i, i] = main
        m[i, (i - 1) % n] += sub
        m[i, (i + 1) % n] += sup
        return m

    @pytest.mark.parametrize("corners", ["both", "none", "one"])
    def test_1d_stencil_is_its_one_line(self, corners, rng):
        # Bitwise: in 1D the line factorization is the one _TridiagonalLU
        # of the stencil's bands (periodic, Dirichlet, one corner only).
        m = TestTridiagonalLu.cyclic(rng, 11, corners=corners != "none")
        if corners == "one":
            m[-1, 0] = 0.0
        stencil = tridiagonal_matrix(m).stencil
        main, sub, sup = stencil
        rhs = rng.standard_normal(11)
        got = solvers._LineFactorization(stencil).solve(rhs)
        want = solvers._TridiagonalLU(sub, main, sup).solve(rhs)
        assert got.tobytes() == want.tobytes()

    def test_stacked_lines_solve_each_line_as_if_alone(self, rng):
        # Bitwise: one dgttrf/dgttrs on the concatenated lines does each
        # line's arithmetic, and a stack of one line is the 1D solve.
        sub, main, sup = self.lines(rng)
        bands = tuple(band.copy() for band in (sub, main, sup))
        stack = solvers._TridiagonalLU(sub, main, sup)
        rhs = rng.standard_normal(main.shape)
        got = stack.solve(rhs.ravel()).reshape(main.shape)
        for line in range(len(main)):
            alone = solvers._TridiagonalLU(sub[line], main[line], sup[line])
            assert np.array_equal(got[line], alone.solve(rhs[line]))
            dense = self.dense_line(sub[line], main[line], sup[line])
            want = np.linalg.solve(dense, rhs[line])
            assert np.max(np.abs(got[line] - want)) <= (
                1e-12 * np.max(np.abs(want)))
        assert all(np.array_equal(a, b)
                   for a, b in zip(bands, (sub, main, sup)))

    def test_singular_line_raises(self, rng):
        # The Neumann Laplacian (rows sum to 0) as the stack's last line.
        sub, main, sup = self.lines(rng)
        main[-1], sub[-1], sup[-1] = 2.0, -1.0, -1.0
        main[-1, [0, -1]] = 1.0
        sub[-1, 0] = sup[-1, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solvers._TridiagonalLU(sub, main, sup)

    def test_singular_line_falls_back_to_the_exact_lu(self, rng):
        # The x-line of the first row is the Neumann Laplacian, so M is
        # singular; the y-couplings make the matrix itself regular.
        grid = StructuredGrid((5, 4), (0.0, 0.0), (1.0, 1.0),
                              (DIRICHLET, PERIODIC))
        matrix = self.random_stencil(rng, grid)
        main, prev_x, next_x = matrix.stencil[:3]
        main[0], prev_x[0], next_x[0] = 2.0, -1.0, -1.0
        main[0, [0, -1]] = 1.0
        prev_x[0, 0] = next_x[0, -1] = 0.0
        matrix.stencil[3:, 0] = 0.25
        rhs = rng.standard_normal(grid.num_cells)
        want = np.linalg.solve(matrix.matrix.toarray(), rhs)
        got = matrix.solve(rhs)
        assert matrix.exact
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSolverReport:
    def test_converged_report_must_meet_tolerance(self):
        with pytest.raises(ValueError):
            SolverReport(iterations=3, residual=1.0, converged=True,
                         tolerance=1e-12)
        ok = SolverReport(iterations=3, residual=1e-13, converged=True,
                          tolerance=1e-12)
        assert ok.converged


class TestIterationLoop:
    """The loop shared by the quasi-Newton solves and the GMC fixed point,
    on a linear contraction: the flux is zero, so the residual is
    ``y - reference``, and each update shrinks it by the factor ``rate``.
    ``seen`` collects the residual norm of every evaluation, ``updates``
    the arguments of every update.  :meth:`solve` runs a stack of one
    member, :meth:`solve_stack` one member per rate."""

    GRID = StructuredGrid((8,), (0.0,), (1.0,), (PERIODIC,))

    def solve(self, rate, tol, max_iter, flux=np.zeros(9)):
        reference = np.zeros((1, 8))
        self.seen, self.updates = [], []

        def evaluate(y, members):
            assert members is None
            self.seen.append(float(np.linalg.norm(y - reference)))
            return (flux[None],)

        def advance(y, r, res, prev_res, members):
            self.updates.append((res[0], prev_res[0]))
            return y - (1.0 - rate) * r

        y, flux, reports = solvers.iterate(
            reference, evaluate, advance, 0.1, np.linspace(1.0, 2.0, 8)[None],
            self.GRID, tol, max_iter, "toy solve")
        return y[0], tuple(f[0] for f in flux), reports[0]

    def solve_stack(self, rates, tol, max_iter, flux=None, first=1,
                    patience=None):
        """Member ``j`` contracts by ``rates[j]`` from its own guess, the
        one of member ``first - 1 + j`` of a larger stack; ``flux`` maps a
        member to its flux (zero when None).  Returns the ``iterate``
        result; ``members`` collects the members of every evaluation."""
        count = len(rates)
        reference = np.zeros((count, 8))
        guess = np.linspace(1.0, 2.0, 8) * np.arange(
            first, first + count, dtype=float)[:, None]
        self.members = []

        def evaluate(y, members):
            ids = range(count) if members is None else members
            self.members.append(list(ids))
            return (np.array([np.zeros(9) if flux is None else flux(i)
                              for i in ids]),)

        def advance(y, r, res, prev_res, members):
            ids = range(count) if members is None else members
            rate = np.array([rates[i] for i in ids])[:, None]
            return y - (1.0 - rate) * r

        return solvers.iterate(reference, evaluate, advance, 0.1, guess,
                               self.GRID, tol, max_iter, "toy solve",
                               patience)

    def test_each_member_stops_on_its_own_residual(self):
        rates = (0.1, 0.3, 0.05, 0.6)
        y, flux, reports = self.solve_stack(rates, 1e-9, 80)
        assert len(reports) == 4
        alone = [self.solve_stack((rate,), 1e-9, 80, first=j + 1)
                 for j, rate in enumerate(rates)]
        for j, (y_j, flux_j, (report,)) in enumerate(alone):
            assert reports[j] == report
            assert np.array_equal(y[j], y_j[0])
            assert np.array_equal(flux[0][j], flux_j[0][0])
        assert reports.iterations == max(r.iterations for r in reports)
        # A member that stopped leaves the stack: the stack evaluates once
        # per update of its slowest member, and each member as often as it
        # does alone.
        stacked = self.solve_stack(rates, 1e-9, 80)[2]
        assert len(self.members) == stacked.iterations + 1
        for j, report in enumerate(stacked):
            assert sum(j in ids for ids in self.members) == (
                report.iterations + 1)

    def test_frozen_member_stops_unconverged_after_patience(self):
        # With patience 3 a member stops once its residual has moved by at
        # most FROZEN_CHANGE in each of its last 3 updates: at rate 0.995
        # (0.5 % per update) after its third update, with the iterate it
        # reached; at rate 0.9 never.  The others go on to tol.
        rates = (0.1, 0.9, 0.995)
        y, _, reports = self.solve_stack(rates, 1e-9, 300, patience=3)
        assert [r.converged for r in reports] == [True, True, False]
        assert reports[2].iterations == 3
        guess = np.linspace(1.0, 2.0, 8) * 3.0
        assert np.allclose(y[2], 0.995**3 * guess, rtol=1e-14, atol=0)
        assert reports[2].residual == np.linalg.norm(y[2])
        for j, rate in enumerate(rates):
            alone = self.solve_stack((rate,), 1e-9, 300, first=j + 1,
                                     patience=3)
            assert alone[2][0] == reports[j]
            assert np.array_equal(alone[0][0], y[j])
        # Without patience the frozen member runs on to the budget.
        with pytest.raises(NonConvergenceError):
            self.solve_stack(rates, 1e-9, 300)

    def test_spent_budget_stops_unconverged_with_patience(self):
        # With patience a member still short of tol when its budget is spent
        # stops there, unconverged, with the iterate it reached, instead of
        # raising; rate 0.9 moves its residual by 10 % per update, so it
        # never freezes.
        y, _, reports = self.solve_stack((0.1, 0.9), 1e-9, 20, patience=3)
        assert [r.converged for r in reports] == [True, False]
        assert reports[1].iterations == 20
        guess = np.linspace(1.0, 2.0, 8) * 2.0
        assert np.allclose(y[1], 0.9**20 * guess, rtol=1e-12, atol=0)
        with pytest.raises(NonConvergenceError):
            self.solve_stack((0.1, 0.9), 1e-9, 20)

    def test_failures_name_their_member(self):
        nan_flux = lambda i: np.full(9, np.nan if i == 2 else 0.0)
        with pytest.raises(ValueError, match="non-finite residual") as exc:
            self.solve_stack((0.1, 0.1, 0.1), 1e-6, 50, nan_flux)
        assert exc.value.member == 2
        with pytest.raises(NonConvergenceError) as exc:
            self.solve_stack((0.01, 0.9, 0.01), 1e-12, 20)
        assert exc.value.member == 1
        assert exc.value.report == SolverReport(20, exc.value.report.residual,
                                                False, 1e-12)

    def test_value_error_of_a_stacked_evaluation_names_its_member(self):
        # Member 1's flux callback rejects its state once it fell below a
        # level the others never reach; the loop finds it by evaluating the
        # members alone.
        count = 3
        guess = np.ones((count, 8)) * np.array([[1.0], [0.5], [2.0]])

        def evaluate(y, members):
            if np.any(y.max(axis=1) < 0.3):
                raise ValueError("wave-speed bound must be positive")
            return (np.zeros((len(y), 9)),)

        def advance(y, r, res, prev_res, members):
            return y - 0.5 * r

        with pytest.raises(ValueError, match="wave-speed") as exc:
            solvers.iterate(np.zeros((count, 8)), evaluate, advance, 0.1,
                            guess, self.GRID, 1e-6, 50, "toy solve")
        assert exc.value.member == 1

    def test_failed_update_keeps_its_type_and_member(self):
        def evaluate(y, members):
            return (np.zeros((len(y), 9)),)

        def advance(y, r, res, prev_res, members):
            if res[0] < 1.0:
                err = np.linalg.LinAlgError("singular")
                err.member = 1
                raise err
            return y - 0.5 * r

        with pytest.raises(np.linalg.LinAlgError) as exc:
            solvers.iterate(np.zeros((2, 8)), evaluate, advance, 0.1,
                            np.ones((2, 8)), self.GRID, 1e-6, 50, "toy solve")
        assert str(exc.value) == "toy solve: singular at iteration 2"
        assert exc.value.member == 1
        assert str(exc.value.__cause__) == "singular"

    def test_stops_at_target(self):
        y, flux, report = self.solve(0.1, 1e-6, 50)
        seen = self.seen
        assert report == SolverReport(len(self.updates), seen[-1], True, 1e-6)
        assert seen[-2] > 1e-6 >= seen[-1]
        assert np.linalg.norm(y) == seen[-1] and not np.any(flux[0])
        assert self.updates[0][1] == np.inf
        assert [prev for _, prev in self.updates[1:]] == seen[:-2]

    def test_contracting_member_stops_at_its_first_residual_within_tol(self):
        # A member still contracting fast stops there all the same, as a
        # stalled one does, in a stack or alone.
        tol = 1e-3
        for rate in (0.1, 0.6):
            report = self.solve(rate, tol, 50)[2]
            assert self.seen[-1] <= tol < self.seen[-2]
            assert report == SolverReport(len(self.seen) - 1, self.seen[-1],
                                          True, tol)
        reports = self.solve_stack((0.1, 0.6), tol, 50)[2]
        assert [r.iterations for r in reports] == [
            self.solve_stack((rate,), tol, 50, first=j + 1)[2][0].iterations
            for j, rate in enumerate((0.1, 0.6))]
        # The last update may still land within tol.
        report = self.solve(0.1, tol, 4)[2]
        assert report == SolverReport(4, self.seen[-1], True, tol)

    def test_spent_budget_raises_with_report(self):
        with pytest.raises(NonConvergenceError, match="^toy solve ") as exc:
            self.solve(0.1, 1e-12, 3)
        assert len(self.seen) == 4
        assert exc.value.report == SolverReport(3, self.seen[-1], False,
                                                1e-12)

    def test_non_finite_residual_raises_after_one_evaluation(self):
        with pytest.raises(ValueError, match="^toy solve: non-finite "
                                             "residual at iteration 0$"):
            self.solve(0.1, 1e-6, 50, flux=np.full(9, np.nan))
        assert len(self.seen) == 1 and not self.updates


class TestNewtonLowOrder:
    def test_constant_state_converges_without_updates(self):
        spec, grid = make_burgers_1d(12)
        u, flux, report = newton_low_order(np.full(12, 0.8), spec, grid,
                                           dt=0.05)
        assert report.converged and report.iterations == 0
        assert np.allclose(u, 0.8, atol=1e-15)

    def test_linear_problem_converges_in_one_update(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, diffusion=0.01,
                                              n=20, wave_speed=1.0)
        u0 = spec.initial_condition(grid.axis_centers(0), 0.0)
        _, _, report = newton_low_order(u0, spec, grid, dt=0.02)
        assert report.converged and report.iterations == 1

    def test_returned_state_is_flux_consistent_bitwise(self, rng):
        spec, grid = make_burgers_1d(16)
        u0 = rng.uniform(0.0, 2.0, 16)
        u, flux, report = newton_low_order(u0, spec, grid, dt=0.1)
        assert report.converged
        assert np.array_equal(u, u0 - 0.1 * divergence(flux, grid))

    def test_large_step_respects_initial_range(self):
        spec = burgers_1d()
        grid = make_grid(spec, 100)
        x = grid.axis_centers(0)
        u0 = np.where(np.abs(x) < 0.5, 2.0, 0.0)
        dt = 10.0 * grid.spacing[0]
        u, _, report = newton_low_order(u0, spec, grid, dt=dt)
        assert report.converged
        assert np.min(u) >= -1e-13
        assert np.max(u) <= 2.0 + 1e-13

    def test_residual_certificate(self, rng):
        spec, grid = make_burgers_1d(16)
        u0 = rng.uniform(0.0, 2.0, 16)
        u, flux, report = newton_low_order(u0, spec, grid, dt=0.05)
        r = u - u0 + 0.05 * divergence(
            low_order_with_bars(u, spec, grid, t=0.05)[0], grid)
        # The recomputed state differs from the converged iterate by at
        # most the solve tolerance, so its own residual is of that order.
        assert np.linalg.norm(r) <= 10.0 * report.tolerance

    def test_exhausted_budget_raises_with_report(self, rng, monkeypatch):
        spec, grid = make_burgers_1d(16)
        u0 = rng.uniform(0.0, 2.0, 16)
        monkeypatch.setattr(solvers, "MAX_ITER_LOW_ORDER", 0)
        with pytest.raises(NonConvergenceError) as exc:
            newton_low_order(u0, spec, grid, dt=0.1)
        assert exc.value.report is not None
        assert not exc.value.report.converged

    def test_nonpositive_dt_rejected(self):
        spec, grid = make_burgers_1d(8)
        with pytest.raises(ValueError):
            newton_low_order(np.zeros(8), spec, grid, dt=0.0)

    def test_held_matrix_engine_reaches_same_solution(self, rng, monkeypatch):
        # A stall ratio of 0 refreshes every update after the first; an
        # infinite one never refreshes, so every update uses the matrix
        # assembled at the guess.
        spec, grid = make_burgers_1d(16)
        u0 = rng.uniform(0.0, 2.0, 16)
        monkeypatch.setattr(solvers, "STALL_RATIO", 0.0)
        fresh, _, rep_fresh = newton_low_order(u0, spec, grid, dt=0.05)
        monkeypatch.setattr(solvers, "STALL_RATIO", np.inf)
        held, _, rep_held = newton_low_order(u0, spec, grid, dt=0.05)
        assert rep_held.converged
        assert rep_held.iterations > rep_fresh.iterations
        assert np.max(np.abs(fresh - held)) <= 1e-10

    def test_dirichlet_problem_steps_cleanly(self, rng):
        spec, grid = make_burgers_1d(16, boundary=DIRICHLET)
        u0 = rng.uniform(0.0, 2.0, 16)
        u, _, report = newton_low_order(u0, spec, grid, dt=0.05)
        assert report.converged
        assert np.all(np.isfinite(u))


class TestNewtonStage:
    def test_stage_solve_converges_on_smooth_data(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, diffusion=0.005,
                                              n=24, wave_speed=1.0)
        u0 = spec.initial_condition(grid.axis_centers(0), 0.0)
        solver = make_stage_solver(JacobianEngine(spec, grid))
        y, flux, report = solve_one(solver, u0, 0.278 * 0.01, 0.0, u0)
        assert report.converged
        assert report.residual <= report.tolerance
        # The returned flux is the one evaluated at the converged stage.
        want = high_order_flux(y, spec, grid, t=0.0)
        assert all(np.array_equal(a, b)
                   for a, b in zip(flux, want))

    def test_non_finite_flux_raises_at_once(self, monkeypatch):
        spec, grid = make_linear_advection_1d(velocity=1.0, diffusion=0.005,
                                              n=24, wave_speed=1.0)
        u0 = spec.initial_condition(grid.axis_centers(0), 0.0)
        calls = []

        def poisoned(values, *args, **kwargs):
            calls.append(1)
            flux = high_order_flux(values, *args, **kwargs)
            flux[0][..., 7] = np.nan
            return flux

        monkeypatch.setattr(solvers.fluxes, "high_order_flux", poisoned)
        solver = make_stage_solver(JacobianEngine(spec, grid))
        with pytest.raises(ValueError, match="non-finite residual"):
            solve_one(solver, u0, 0.278 * 0.01, 0.0, u0)
        assert len(calls) == 1


class TestStageTolerance:
    """The stage solves stop at an RMS residual per cell over the width of
    the global bounds, a target that does not tighten as the grid is
    refined."""

    @staticmethod
    def updates_per_stage(monkeypatch, nx):
        """The mean updates per stage of one sdirk5+gmc step of rotation2d
        on ``nx^2`` cells at dt = h/2, whose every stage report must carry
        the stage tolerance."""
        reports = []

        def recording(engine):
            inner = make_stage_solver(engine)

            def solver(*args):
                out = inner(*args)
                reports.extend(out[2])
                return out
            return solver

        monkeypatch.setattr(harness, "make_stage_solver", recording)
        config = RunConfig(problem="rotation2d", nx=nx, scheme="sdirk5",
                           limiter="gmc", dt_factor=0.5)
        spec = build_problem(config)
        grid = make_grid(spec, nx, nx)
        run(replace(config, t_final=0.5 * min(grid.spacing)))
        assert len(reports) == 5
        tol = solvers.stage_tolerance(spec, grid)
        assert all(report.tolerance == tol for report in reports)
        return np.mean([report.iterations for report in reports])

    def test_updates_per_stage_do_not_grow_with_the_grid(self, monkeypatch):
        # With an absolute l2 tolerance, 15.6 updates per stage at 16^2
        # became 17.8 at 64^2; with the RMS one they are 13.2 and 13.8.
        coarse = self.updates_per_stage(monkeypatch, 16)
        fine = self.updates_per_stage(monkeypatch, 64)
        assert fine <= coarse + 1.0

    def test_tolerance_is_the_rms_residual_over_the_bound_width(self):
        kpp = build_problem(RunConfig(problem="kpp2d"))
        grid = make_grid(kpp, 12, 12)
        width = kpp.global_max - kpp.global_min
        assert solvers.stage_tolerance(kpp, grid) == pytest.approx(
            solvers.TOL_STAGE * width * 12.0, rel=1e-15)
        # steady1d's upper bound is infinite: its width counts as 1.
        steady = build_problem(RunConfig(problem="steady1d"))
        assert solvers.stage_tolerance(
            steady, make_grid(steady, 25)) == solvers.TOL_STAGE * 5.0


class TestMixedStageSolves:
    """The stage solves Anderson-mix their quasi-Newton updates, which
    carries them through large steps the plain updates stall on."""

    def test_kpp2d_large_step_finishes_bounded_and_conservative(self):
        # One sdirk5+gmc step at dt = 5h on 16^2: unmixed, stage 1 stalls
        # at residual 3.2e-8 after MAX_ITER_STAGE updates.
        spec = build_problem(RunConfig(problem="kpp2d"))
        h = min(make_grid(spec, 16).spacing)
        diag, _ = run(RunConfig(problem="kpp2d", nx=16, scheme="sdirk5",
                                limiter="gmc", dt_factor=5.0,
                                t_final=5.0 * h))
        assert diag.delta >= -1e-12
        assert abs(diag.mass_drift) <= 1e-12

    def test_bl1d_large_steps_evaluate_and_assemble_little(self):
        # bl1d nx=100, sdirk5+fct at dt = 5h: unmixed, the stage solves
        # make 266 high-order flux evaluations and the run 199 assemblies;
        # mixed, 182 and 75.
        with mock.patch.object(solvers.fluxes, "high_order_flux",
                               wraps=high_order_flux) as evaluations, \
                mock.patch.object(solvers, "assemble_pseudo_jacobian",
                                  wraps=assemble_pseudo_jacobian) \
                as assemblies:
            run(RunConfig(problem="bl1d", nx=100, scheme="sdirk5",
                          limiter="fct", dt_factor=5.0, t_final=0.1))
        assert evaluations.call_count <= 200
        assert assemblies.call_count <= 100
