"""Face-flux assembly, bar states, and the two equivalent low-order forms.

The bar-state form ``a_i (ubar_i - u_i)`` is built from the face speeds and
bar-state products of :func:`low_order_with_bars` by the cell sums the GMC
limiter uses.

The low-order flux, the divergence and the cell sums are checked against the
face-by-face walks of :mod:`oracles`, which never touch the vectorized array
layout.
"""

import dataclasses

import numpy as np
import pytest

from mppfv.fluxes import (FaceFluxSet, _face_states, divergence,
                          face_array_shapes, high_order_flux,
                          low_order_with_bars, tie_periodic_seam)
from mppfv.harness import RunConfig, build_problem
from mppfv.limiters import _cell_sum, _fct_with_flux, _gmc_with_flux
from mppfv.mesh import PERIODIC, StructuredGrid, ghost_fill
from mppfv.problems import (BUILTIN_PROBLEMS, buckley_leverett_1d, kpp_2d,
                            linear_advdiff_2d, make_grid, steady_gaussian_1d)
from mppfv.solvers import (JacobianEngine, SolverReport,
                           _axis_flux_derivatives, make_stage_solver,
                           newton_low_order)
from mppfv.time_integration import dirk_step, iex_tableau, sdirk5_tableau

from conftest import (DIRICHLET, constant_speed, make_advection_2d,
                      make_burgers_1d, make_linear_advection_1d,
                      random_flux_set, shaped)
from oracles import (blended_faces, blended_flux_derivatives,
                     blended_low_order, cell_slot, divergence_by_face_loop,
                     face_entry, faces, low_order_convective_flux,
                     low_order_diffusive_flux, outward_value)


def assert_face_arrays(flux, grid):
    """``flux`` is a tuple of float arrays of ``face_array_shapes(grid)``."""
    assert isinstance(flux, tuple)
    assert tuple(a.shape for a in flux) == face_array_shapes(grid)
    assert all(a.dtype == np.float64 for a in flux)


class TestFaceFluxSet:
    """Face fluxes are plain tuples of per-axis arrays at every layer."""

    @pytest.mark.parametrize("dim,cells,boundary", [
        (1, (7,), (PERIODIC,)),
        (1, (6,), (DIRICHLET,)),
        (2, (4, 3), (PERIODIC, PERIODIC)),
        (2, (5, 4), (DIRICHLET, PERIODIC)),
    ])
    def test_divergence_matches_face_loop(self, dim, cells, boundary, rng):
        lo, hi = (0.0,) * dim, tuple(float(dim) for _ in range(dim))
        grid = StructuredGrid(cells, lo, hi, boundary)
        fs = random_flux_set(grid, rng)
        got = divergence(fs, grid)
        want = divergence_by_face_loop(fs, grid)
        assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_boundary_face_values_are_owner_outward(self):
        grid = StructuredGrid((4,), (0.0,), (1.0,), (DIRICHLET,))
        fs = (np.array([1.0, 2.0, 3.0, 4.0, 5.0]),)
        boundary = [f for f in faces(grid) if f.neighbor is None]
        assert len(boundary) == 2
        for face in boundary:
            if face.normal < 0:
                # outward at the low end
                assert outward_value(fs, grid, face) == -1.0
            else:
                assert outward_value(fs, grid, face) == 5.0

    def test_validation_errors(self):
        grid = StructuredGrid((5,), (0.0,), (1.0,), (PERIODIC,))
        with pytest.raises(ValueError):
            FaceFluxSet(grid, (np.zeros(5),))  # needs nx + 1 entries
        with pytest.raises(ValueError):
            FaceFluxSet(grid, (np.zeros(6), np.zeros(6)))
        bad = np.zeros(6)
        bad[2] = np.nan
        with pytest.raises(ValueError):
            FaceFluxSet(grid, (bad,))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_layer_returns_per_axis_arrays(self, dim, rng):
        spec, grid = make_burgers_1d(16) if dim == 1 else make_advection_2d()
        u = rng.uniform(0.2, 0.8, grid.shape)
        dt = 0.5 * min(grid.spacing)
        G_H = high_order_flux(u, spec, grid)
        assert_face_arrays(G_H, grid)
        for face_data in low_order_with_bars(u, spec, grid):
            assert_face_arrays(face_data, grid)
        u_L, G_L, _ = newton_low_order(u, spec, grid, dt)
        assert_face_arrays(G_L, grid)
        assert_face_arrays(
            _fct_with_flux(G_L, u_L, G_H, spec, grid, dt, 2)[1], grid)
        assert_face_arrays(
            _gmc_with_flux(u, G_H, spec, grid, dt, 0.0, 0.0)[1], grid)
        solver = make_stage_solver(JacobianEngine(spec, grid))
        assert_face_arrays(
            dirk_step(u, sdirk5_tableau(), spec, grid, solver, dt)[1], grid)

    @pytest.mark.parametrize("exit_", ["dirk_step", "fct"])
    def test_non_finite_flux_raises_at_exit(self, exit_):
        spec, grid = make_burgers_1d(16)
        u = np.full(16, 0.5)
        G = high_order_flux(u, spec, grid)
        G[0][3] = np.nan

        def poisoned(reference, step_dt, stage_time, guess):
            return (reference, tuple(g[None] for g in G),
                    (SolverReport(0, 0.0, True, 1.0),))

        with pytest.raises(ValueError, match="finite"):
            if exit_ == "dirk_step":
                dirk_step(u, iex_tableau(1), spec, grid, poisoned, 0.1)
            else:
                _fct_with_flux(G, u, G, spec, grid, 0.1, 1)


def _on_grid(spec, *cells):
    return spec, make_grid(spec, *cells)


#: A kpp2d Dirichlet entry with values inside the bounds [pi/4, 14 pi/4].
KPP_WALL = (1.0, 9.0)


def _kpp2d(boundary):
    """kpp2d with diffusion 0.05 on the given boundary entries."""
    return _on_grid(dataclasses.replace(kpp_2d(0.05), boundary=boundary),
                    7, 6)


LOW_ORDER_CASES = {
    "burgers-periodic": lambda: make_burgers_1d(11),
    "bl1d-dirichlet": lambda: _on_grid(buckley_leverett_1d(), 9),
    "steady1d-center-flux": lambda: _on_grid(steady_gaussian_1d(), 9),
    "kpp2d-periodic-periodic": lambda: _kpp2d((PERIODIC, PERIODIC)),
    "kpp2d-dirichlet-periodic": lambda: _kpp2d((KPP_WALL, PERIODIC)),
    "kpp2d-periodic-dirichlet": lambda: _kpp2d((PERIODIC, KPP_WALL)),
    "kpp2d-dirichlet-dirichlet": lambda: _kpp2d((KPP_WALL, KPP_WALL)),
}


class TestLowOrderFluxMatchesFaceOracle:
    """The production ``G^L`` at every face against the oracle's one-face
    ``convective - diffusive`` flux, oriented outward from the owner, with
    the Dirichlet boundary value as the ghost state."""

    @pytest.mark.parametrize("case", sorted(LOW_ORDER_CASES))
    def test_every_face_matches(self, case, rng):
        spec, grid = LOW_ORDER_CASES[case]()
        hi = spec.global_max if np.isfinite(spec.global_max) else 1.0
        u = rng.uniform(spec.global_min, hi, grid.shape)
        t = 0.3
        G = low_order_with_bars(u, spec, grid, t=t)[0]
        got, want = [], []
        for face in faces(grid):
            u_i = u[cell_slot(face.owner, grid)]
            if face.neighbor is None:
                u_j = grid.boundary[face.axis][face.normal > 0]
            else:
                u_j = u[cell_slot(face.neighbor, grid)]
            got.append(outward_value(G, grid, face))
            want.append(low_order_convective_flux(u_i, u_j, face, spec, t)
                        - low_order_diffusive_flux(u_i, u_j, face, spec))
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def convective_face_states(u, spec, grid, t=0.0):
    """Per axis, the wave-speed bound ``lam^A``, the diffusion coefficient
    ``c_ij`` and the convective bar-state product ``lam^A ubar^A =
    lam^A (u_i+u_j)/2 - n.(f_j - f_i)/2`` of every face."""
    out = []
    for axis, f in enumerate(blended_faces(u, spec, grid, t)):
        product = f.lam_a * (0.5 * (f.ua + f.ub)) - 0.5 * (f.fb - f.fa)
        out.append((f.lam_a, f.c, tie_periodic_seam(product, grid, axis)))
    return out


def adjacent_range(u, spec, grid):
    """Per face of axis 0, the smaller and larger adjacent state."""
    u_ext = ghost_fill(u, grid, width=1)
    ua, ub = _face_states(u_ext, spec, grid, 0, 0.0)[:2]
    return np.minimum(ua, ub), np.maximum(ua, ub)


def bar_states(u, spec, grid, t=0.0):
    """Per axis, the face bar states ``ubar = (lam ubar)/lam``."""
    _, lam, lam_ubar = low_order_with_bars(u, spec, grid, t)
    return tuple(p / l for l, p in zip(lam, lam_ubar))


def bar_state_form(u, spec, grid, t=0.0):
    """``a_i (ubar_i - u_i) = a_i ubar_i - a_i u_i``, with ``a_i = sum_j
    |S_ij| lam_ij`` and ``a_i ubar_i = sum_j |S_ij| lam_ij ubar_ij``."""
    _, lam, lam_ubar = low_order_with_bars(u, spec, grid, t)
    return _cell_sum(lam_ubar, grid) - _cell_sum(lam, grid) * u


class TestBarStates:
    def test_constant_field_collapses_all_states(self):
        spec, grid = make_burgers_1d(9)
        u = np.full(9, 0.6)
        ubar = bar_states(u, spec, grid)
        assert np.allclose(ubar[0], 0.6, rtol=0, atol=1e-15)

    def test_zero_diffusion_degeneracy(self, rng):
        spec, grid = make_linear_advection_1d(velocity=1.5, diffusion=0.0, n=12)
        u = rng.uniform(0.0, 1.0, 12)
        _, lam, lam_ubar = low_order_with_bars(u, spec, grid)
        lam_a, _, product_a = convective_face_states(u, spec, grid)[0]
        assert np.array_equal(lam_ubar[0], product_a)
        assert np.array_equal(lam[0], lam_a)

    def test_linear_flux_bar_state_is_upwind_value(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, n=5, wave_speed=1.0)
        u = np.array([0.0, 1.0, 0.5, 0.5, 0.5])
        ubar = bar_states(u, spec, grid)
        # Face between the first two cells: (0+1)/2 - (1-0)/2 = 0.
        assert ubar[0][1] == pytest.approx(0.0, abs=1e-15)
        face = next(f for f in faces(grid)
                    if f.owner == (0,) and f.neighbor == (1,))
        assert face_entry(ubar, grid, face) == pytest.approx(0.0, abs=1e-15)

    def test_combined_speed_dominates_convective_bound(self, rng):
        spec, grid = make_burgers_1d(16)
        u = rng.uniform(-2.0, 2.0, 16)
        lam = low_order_with_bars(u, spec, grid)[1][0]
        lam_a, c_mid, _ = convective_face_states(u, spec, grid)[0]
        assert np.all(lam >= lam_a)
        d = grid.spacing[0]
        assert np.allclose(lam, lam_a * (1.0 + 2.0 * c_mid / (lam_a * d)),
                           rtol=1e-14)

    def test_rejects_nonpositive_speed_bound(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, n=6,
                                              wave_speed=0.0)
        with pytest.raises(ValueError):
            low_order_with_bars(np.linspace(0.0, 1.0, 6), spec, grid)

    def test_fuzz_bar_states_within_adjacent_range_square_flux(self, rng):
        n = 12000
        spec, grid = make_burgers_1d(n)
        spec = type(spec)(**{
            **spec.__dict__,
            "diffusion": lambda u, x, y: np.square(np.asarray(u, dtype=float)),
        })
        u = rng.uniform(-4.0, 4.0, n)
        lo, hi = adjacent_range(u, spec, grid)
        ubar = bar_states(u, spec, grid)[0]
        assert np.all(ubar >= lo - 1e-14)
        assert np.all(ubar <= hi + 1e-14)

    def test_fuzz_bar_states_within_adjacent_range_sine_flux(self, rng):
        n = 12000
        base, grid = make_burgers_1d(n)
        spec = type(base)(**{
            **base.__dict__,
            "flux": lambda axis, u, x, y, t: np.sin(np.asarray(u, dtype=float)),
            "flux_derivative": lambda axis, u, x, y, t: np.cos(
                np.asarray(u, dtype=float)),
            "wave_speed_bound": constant_speed(1.0),
            "diffusion": lambda u, x, y: shaped(0.003, u, x),
        })
        u = rng.uniform(-3.0, 3.0, n)
        lo, hi = adjacent_range(u, spec, grid)
        ubar = bar_states(u, spec, grid)[0]
        assert np.all(ubar >= lo - 1e-14)
        assert np.all(ubar <= hi + 1e-14)

    def test_still_fluid_drift_keeps_nonnegative_bar_states(self, rng):
        # With the speed bound at least the local |velocity|, drift toward
        # the origin cannot produce negative bar states from nonnegative
        # data.
        spec = steady_gaussian_1d()
        grid = StructuredGrid((64,), spec.domain_lo, spec.domain_hi,
                              spec.boundary)
        u = rng.uniform(0.0, 1.0, 64)
        assert np.all(bar_states(u, spec, grid)[0] >= -1e-14)

    def test_cell_coefficient_matches_face_loop(self, rng):
        for boundary in [(PERIODIC, PERIODIC), (DIRICHLET, PERIODIC)]:
            spec, grid = make_advection_2d(shape=(5, 4), boundary=boundary)
            spec = type(spec)(**{
                **spec.__dict__,
                "diffusion": lambda u, x, y: shaped(0.02, u, x, y),
            })
            u = rng.uniform(0.0, 1.0, grid.shape)
            _, lam, _ = low_order_with_bars(u, spec, grid)
            a = _cell_sum(lam, grid)
            want = np.zeros(grid.shape)
            for face in faces(grid):
                contrib = face.area * face_entry(lam, grid, face)
                want[cell_slot(face.owner, grid)] += contrib
                if face.neighbor is not None:
                    want[cell_slot(face.neighbor, grid)] += contrib
            assert np.allclose(a, want, rtol=1e-13), boundary

def _builtin_grids():
    """Every builtin problem with its grids: 16 cells in 1D, 16x16 and
    16x32 in 2D."""
    for name in sorted(BUILTIN_PROBLEMS):
        dim = build_problem(RunConfig(problem=name)).dim
        for cells in [(16,)] if dim == 1 else [(16, 16), (16, 32)]:
            yield name, cells, f"{name}-{'x'.join(map(str, cells))}"


def _builtin_identity_cases():
    """Every builtin problem on its grids, vortex2d's non-square one
    marked as failing."""
    for name, cells, case_id in _builtin_grids():
        marks = ()
        if name == "vortex2d" and cells == (16, 32):
            marks = pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="ROADMAP item 4: vortex2d's face-midpoint velocity "
                       "is not discretely divergence-free where dx != dy")
        yield pytest.param(name, cells, marks=marks, id=case_id)


class TestCombinedFaceSpeed:
    """The low-order terms on the one combined face speed ``lam = lam^A +
    2c/d`` against the blended formulas of :mod:`oracles`, which keep the
    wave-speed bound and the diffusion apart: ``G^L``, ``lam``, ``lam
    ubar`` and the flux derivatives of the pseudo-Jacobian, each within
    1e-13 of the largest entry of its face array."""

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name,cells", [
        pytest.param(name, cells, id=case_id)
        for name, cells, case_id in _builtin_grids()])
    def test_matches_blended_formulas(self, name, cells, rng):
        spec = build_problem(RunConfig(problem=name))
        grid = make_grid(spec, *cells)
        hi = spec.global_max if np.isfinite(spec.global_max) else 2.0
        u = rng.uniform(spec.global_min, hi, (3,) + grid.shape)
        t = np.array([0.0, 0.3, 0.7]).reshape((3,) + (1,) * grid.dim)
        got = zip(*low_order_with_bars(u, spec, grid, t=t))
        for got_axis, want_axis in zip(got, blended_low_order(u, spec, grid,
                                                              t)):
            for g, w in zip(got_axis, want_axis):
                self.assert_close(g, w)
        u_ext = ghost_fill(u, grid, width=1)
        for axis, want_axis in enumerate(
                blended_flux_derivatives(u, spec, grid, t)):
            got_axis = _axis_flux_derivatives(u_ext, spec, grid, axis, t)
            for g, w in zip(got_axis, want_axis):
                self.assert_close(g, w)


class TestLowOrderRhs:
    """``a_i (ubar_i - u_i) = -|K_i| div G^L``: the bar-state and flux forms
    of the low-order right-hand side agree where each cell's own flux
    cancels over its faces (see :mod:`mppfv.fluxes`)."""

    def test_constant_field_is_stationary(self):
        spec, grid = make_burgers_1d(10)
        u = np.full(10, 1.3)
        G = low_order_with_bars(u, spec, grid)[0]
        assert np.all(divergence(G, grid) == 0.0)
        assert np.allclose(bar_state_form(u, spec, grid), 0.0, atol=1e-12)

    def test_bar_state_form_equals_flux_form(self, rng):
        spec, grid = make_burgers_1d(8)
        u = rng.uniform(0.0, 2.0, 8)
        rhs = bar_state_form(u, spec, grid) / grid.cell_volume
        div = divergence(low_order_with_bars(u, spec, grid)[0], grid)
        assert np.max(np.abs(rhs + div)) <= 1e-12

    def test_bar_state_form_equals_flux_form_2d(self, rng):
        spec, grid = make_advection_2d(shape=(6, 5),
                                       boundary=(PERIODIC, DIRICHLET))
        spec = type(spec)(**{
            **spec.__dict__,
            "diffusion": lambda u, x, y: shaped(0.015, u, x, y),
        })
        u = rng.uniform(0.0, 1.0, grid.shape)
        rhs = bar_state_form(u, spec, grid) / grid.cell_volume
        div = divergence(low_order_with_bars(u, spec, grid)[0], grid)
        assert np.max(np.abs(rhs + div)) <= 1e-12

    def test_bar_state_form_equals_flux_form_center_evaluated_flux(self, rng):
        # Position-dependent flux evaluated at cell centers keeps the
        # closed-cell cancellation exact.
        spec = steady_gaussian_1d()
        grid = StructuredGrid((32,), spec.domain_lo, spec.domain_hi,
                              spec.boundary)
        u = rng.uniform(0.0, 1.0, 32)
        rhs = bar_state_form(u, spec, grid) / grid.cell_volume
        div = divergence(low_order_with_bars(u, spec, grid)[0], grid)
        assert np.max(np.abs(rhs + div)) <= 1e-12

    @pytest.mark.parametrize("name,cells", _builtin_identity_cases())
    def test_bar_state_form_equals_flux_form_on_builtin_problems(
            self, name, cells, rng):
        spec = build_problem(RunConfig(problem=name))
        grid = make_grid(spec, *cells)
        hi = spec.global_max if np.isfinite(spec.global_max) else 2.0
        u = rng.uniform(spec.global_min, hi, grid.shape)
        rhs = bar_state_form(u, spec, grid, t=0.3) / grid.cell_volume
        div = divergence(low_order_with_bars(u, spec, grid, t=0.3)[0], grid)
        assert np.max(np.abs(rhs + div)) <= 1e-12 * np.max(np.abs(div))

    def test_sign_at_strict_local_extrema_1d(self):
        spec, grid = make_burgers_1d(5)
        u = np.array([0.2, 0.3, 0.9, 0.1, 0.4])
        rhs = -divergence(low_order_with_bars(u, spec, grid)[0], grid)
        assert rhs[2] <= 0.0   # strict local max cannot grow
        assert rhs[3] >= 0.0   # strict local min cannot shrink

    def test_sign_at_strict_local_extrema_2d(self, rng):
        spec, grid = make_advection_2d(shape=(6, 6))
        u = rng.uniform(0.3, 0.7, grid.shape)
        u[3, 2] = 2.0
        u[1, 4] = -1.0
        rhs = -divergence(low_order_with_bars(u, spec, grid)[0], grid)
        assert rhs[3, 2] <= 0.0
        assert rhs[1, 4] >= 0.0

    def test_low_order_with_bars_returns_consistent_pair(self, rng):
        spec, grid = make_burgers_1d(8)
        u = rng.uniform(0.0, 2.0, 8)
        flux = low_order_with_bars(u, spec, grid)[0]
        assert np.allclose(bar_state_form(u, spec, grid),
                           -grid.cell_volume * divergence(flux, grid),
                           rtol=1e-13, atol=1e-15)


class TestHighOrderFlux:
    def test_constant_field_gives_pointwise_flux(self):
        spec, grid = make_burgers_1d(9)
        G = high_order_flux(np.full(9, 0.8), spec, grid)
        # Diffusive part vanishes; convective part is f(0.8) = 0.32 stored
        # along the +axis direction.
        assert np.allclose(G[0], 0.32, rtol=0, atol=1e-15)

    def test_constant_field_gives_pointwise_flux_2d(self):
        spec, grid = make_advection_2d(vel=(1.0, -0.5), shape=(7, 6))
        G = high_order_flux(np.full(grid.shape, 0.4), spec, grid)
        assert np.allclose(G[0], 1.0 * 0.4, atol=1e-15)
        assert np.allclose(G[1], -0.5 * 0.4, atol=1e-15)

    def test_fifth_order_face_accuracy_on_smooth_data(self):
        errs, hs = [], []
        for n in (20, 40, 80, 160):
            spec, grid = make_linear_advection_1d(
                velocity=1.0, n=n, lo=0.0, hi=2.0 * np.pi, wave_speed=1.0)
            h = grid.spacing[0]
            edges = grid.axis_faces(0)
            avgs = (np.cos(edges[:-1]) - np.cos(edges[1:])) / h
            G = high_order_flux(avgs, spec, grid)
            errs.append(np.max(np.abs(G[0] - np.sin(edges))))
            hs.append(h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 4.5

    def test_speed_bound_receives_reconstructed_point_values(self):
        seen = {}

        def recording_bound(axis, ua, ub, ra, rb, x, y, t):
            seen["cells"] = (np.copy(ua), np.copy(ub))
            seen["points"] = (np.copy(ra), np.copy(rb))
            return np.maximum.reduce([np.abs(ua), np.abs(ub), np.abs(ra),
                                      np.abs(rb), np.full(np.shape(ua), 1e-12)])

        base, grid = make_burgers_1d(16)
        spec = type(base)(**{**base.__dict__,
                             "wave_speed_bound": recording_bound})
        x = grid.axis_centers(0)
        high_order_flux(np.sin(np.pi * x) + 1.5, spec, grid)
        ua, ub = seen["cells"]
        ra, rb = seen["points"]
        assert ra.shape == ua.shape and rb.shape == ub.shape
        # The reconstructed arguments are genuinely different data.
        assert np.max(np.abs(ra - ua)) > 1e-6
        assert np.max(np.abs(rb - ub)) > 1e-6

    def test_periodic_seam_entries_identical(self, rng):
        spec, grid = make_advection_2d(shape=(6, 7),
                                       boundary=(PERIODIC, PERIODIC))
        u = rng.uniform(0.0, 1.0, grid.shape)
        for fs in (low_order_with_bars(u, spec, grid)[0],
                   high_order_flux(u, spec, grid)):
            Gx, Gy = fs
            assert np.array_equal(Gx[:, 0], Gx[:, -1])
            assert np.array_equal(Gy[0, :], Gy[-1, :])

    def test_divergence_of_high_order_flux_sums_to_zero_periodic(self, rng):
        # Telescoping conservation: interior sums cancel exactly on a torus.
        spec, grid = make_burgers_1d(24)
        u = rng.uniform(0.0, 2.0, 24)
        div = divergence(high_order_flux(u, spec, grid), grid)
        total = np.sum(div) * grid.cell_volume
        assert total == pytest.approx(0.0, abs=1e-13)

    def test_leaves_state_and_callback_arrays_unchanged(self, rng):
        # Each callback returns one writable array per shape on every call,
        # as a caching problem might; a write into it would go unnoticed
        # by the run and change every later call.
        returned = {}

        def cached(name, value):
            def callback(*args):
                shape = np.broadcast_shapes(*(np.shape(a) for a in args
                                              if isinstance(a, np.ndarray)))
                key = (name, shape)
                if key not in returned:
                    returned[key] = np.full(shape, value)
                return returned[key]
            return callback

        base, grid = make_advection_2d(shape=(7, 6))
        spec = dataclasses.replace(
            base, flux=cached("flux", 0.3),
            diffusion=cached("diffusion", 0.02),
            wave_speed_bound=cached("speed", 1.5))
        u = rng.uniform(0.0, 1.0, grid.shape)
        before = u.copy()
        high_order_flux(u, spec, grid)
        assert np.array_equal(u, before)
        assert {name for name, _ in returned} == {"flux", "diffusion",
                                                  "speed"}
        for (name, _), arr in returned.items():
            assert np.all(arr == {"flux": 0.3, "diffusion": 0.02,
                                  "speed": 1.5}[name])

    def test_y_axis_flux_is_x_axis_flux_of_transposed_state(self, rng):
        # linear2d is symmetric under x <-> y, so any offset or axis slip
        # of the y-axis slicing breaks this bitwise equality.
        spec = linear_advdiff_2d(0.01)
        grid = make_grid(spec, 12)
        u = rng.uniform(0.0, 1.0, grid.shape)
        Gy = high_order_flux(u, spec, grid)[1]
        Gx_of_transpose = high_order_flux(u.T.copy(), spec, grid)[0]
        assert np.array_equal(Gy, Gx_of_transpose.T)


class TestWaveSpeedCheck:
    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kernel", [low_order_with_bars, high_order_flux],
                             ids=["low", "high"])
    def test_rejects_bounds_not_positive_and_finite(self, kernel, bound):
        spec, grid = make_linear_advection_1d(velocity=1.0, n=6,
                                              wave_speed=bound)
        with pytest.raises(ValueError, match="wave-speed bound"):
            kernel(np.linspace(0.0, 1.0, 6), spec, grid)


class TestGhostCoupling:
    def test_dirichlet_low_order_uses_boundary_values(self):
        spec, grid = make_linear_advection_1d(
            velocity=1.0, n=6, boundary=(0.25, 0.75), wave_speed=1.0)
        u = np.full(6, 0.5)
        G = low_order_with_bars(u, spec, grid)[0][0]
        # Low end: upwind of (ghost 0.25 -> cell 0.5) is the ghost value.
        assert G[0] == pytest.approx(0.25, rel=1e-14)
        # High end: upwind of (cell 0.5 -> ghost 0.75) is the cell value.
        assert G[-1] == pytest.approx(0.5, rel=1e-14)

    def test_periodic_ghost_fill_roundtrip(self, rng):
        spec, grid = make_burgers_1d(8)
        u = rng.uniform(0.0, 1.0, 8)
        ext = ghost_fill(u, grid, width=3)
        assert np.array_equal(ext[3:-3], u)
        assert np.array_equal(ext[:3], u[-3:])
        assert np.array_equal(ext[-3:], u[:3])


def _member_states(spec, grid, members, rng):
    """``members`` bounded cell states of ``grid``, stacked along a leading
    axis."""
    lo, hi = spec.global_min, spec.global_max
    return rng.uniform(lo, hi, (members,) + grid.shape)


def _stack_cases():
    """Stacks on 1D periodic (burgers1d), 1D Dirichlet (bl1d) and 2D
    periodic (rotation2d) grids."""
    from mppfv.problems import BUILTIN_PROBLEMS
    for name, cells in (("burgers1d", (40,)), ("bl1d", (40,)),
                        ("rotation2d", (12, 9))):
        spec = BUILTIN_PROBLEMS[name]()
        yield pytest.param(spec, make_grid(spec, *cells), id=name)


class TestMemberStacks:
    """Every cell and face kernel takes a stack of states of shape
    ``(m, *grid.shape)`` and gives each member, bitwise, what that member
    gives alone; the per-member time broadcasts as ``(m,) + (1,)*dim``."""

    @staticmethod
    def assert_members(stacked, alone):
        """Member ``j`` of every array in the (nested) tuple ``stacked``
        equals the array in the same place of ``alone[j]``."""
        def equal(got, want, j):
            if isinstance(want, tuple):
                return all(equal(a, b, j) for a, b in zip(got, want))
            return np.array_equal(got[j], want)

        for j, want in enumerate(alone):
            assert equal(stacked, want, j), j

    @pytest.mark.parametrize("spec,grid", _stack_cases())
    def test_every_kernel_matches_each_member_alone(self, spec, grid, rng):
        from mppfv.limiters import _gmc_face_terms, zalesak_alphas

        u = _member_states(spec, grid, 3, rng)
        t = np.array([0.0, 0.1, 0.35]).reshape((3,) + (1,) * grid.dim)
        for width in (1, 3):
            got = ghost_fill(u, grid, width=width)
            for j in range(3):
                assert np.array_equal(got[j],
                                      ghost_fill(u[j], grid, width))
        self.assert_members(
            high_order_flux(u, spec, grid, t=t),
            [high_order_flux(u[j], spec, grid, t=t.flat[j]) for j in range(3)])
        self.assert_members(
            low_order_with_bars(u, spec, grid, t=t),
            [low_order_with_bars(u[j], spec, grid, t=t.flat[j])
             for j in range(3)])
        G_H = high_order_flux(u, spec, grid, t=t)
        self.assert_members(
            (divergence(G_H, grid),),
            [(divergence(tuple(g[j] for g in G_H), grid),) for j in range(3)])
        budgets = (-rng.uniform(0.0, 1.0, u.shape),
                   rng.uniform(0.0, 1.0, u.shape))
        self.assert_members(
            zalesak_alphas(G_H, *budgets, grid),
            [zalesak_alphas(tuple(g[j] for g in G_H), budgets[0][j],
                            budgets[1][j], grid) for j in range(3)])
        for gamma in (0.0, 1.0):
            self.assert_members(
                _gmc_face_terms(u, G_H, spec, grid, gamma, t),
                [_gmc_face_terms(u[j], tuple(g[j] for g in G_H), spec, grid,
                                 gamma, t.flat[j]) for j in range(3)])

    def test_time_dependent_callbacks_take_per_member_times(self, rng):
        # vortex2d's velocity scales with cos(pi t / T): the stacked
        # kernels evaluate it on a (m, 1, 1) array of times, and the cosine
        # of an array matches that of each scalar time bitwise here.
        from mppfv.problems import swirling_vortex_2d

        spec = swirling_vortex_2d()
        grid = make_grid(spec, 10, 8)
        u = _member_states(spec, grid, 4, rng)
        t = np.array([0.05, 0.3, 0.75, 1.2]).reshape(4, 1, 1)
        stacked = high_order_flux(u, spec, grid, t=t)
        assert not np.array_equal(stacked[0][0], high_order_flux(
            u[0], spec, grid, t=t.flat[1])[0])
        self.assert_members(
            stacked,
            [high_order_flux(u[j], spec, grid, t=t.flat[j]) for j in range(4)])
        self.assert_members(
            low_order_with_bars(u, spec, grid, t=t),
            [low_order_with_bars(u[j], spec, grid, t=t.flat[j])
             for j in range(4)])

    def test_ghost_fill_checks_the_trailing_axes(self):
        grid = make_grid(buckley_leverett_1d(), 8)
        with pytest.raises(ValueError, match="does not match"):
            ghost_fill(np.zeros((2, 9)), grid, width=1)
        assert ghost_fill(np.zeros((2, 3, 8)), grid,
                          width=2).shape == (2, 3, 12)
