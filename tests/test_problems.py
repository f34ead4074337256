"""Builtin benchmark definitions: coefficients, data, and closed forms."""

import math

import numpy as np
import pytest

from mppfv import problems
from mppfv.mesh import DIRICHLET, PERIODIC
from mppfv.problems import (BUILTIN_PROBLEMS, LAMBDA_FLOOR, buckley_leverett_1d,
                            burgers_1d, evaluate_exact, initial_cell_averages,
                            kpp_2d, linear_advdiff_1d, linear_advdiff_2d,
                            make_grid, solid_rotation_2d, steady_gaussian_1d,
                            swirling_vortex_2d, three_body_initial_condition)

from oracles import nested_loop_cell_averages


def build_all():
    out = {}
    for name, ctor in BUILTIN_PROBLEMS.items():
        try:
            out[name] = ctor()
        except TypeError:
            out[name] = ctor(0.001)
    return out


class TestCommonContract:
    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_initial_data_within_global_bounds(self, name):
        spec = build_all()[name]
        grid = make_grid(spec, 37) if spec.dim == 1 else make_grid(spec, 23, 17)
        if spec.dim == 1:
            samples = spec.initial_condition(
                np.linspace(spec.domain_lo[0], spec.domain_hi[0], 999), 0.0)
        else:
            xs = np.linspace(spec.domain_lo[0], spec.domain_hi[0], 101)
            ys = np.linspace(spec.domain_lo[1], spec.domain_hi[1], 103)
            X, Y = np.meshgrid(xs, ys)
            samples = spec.initial_condition(X, Y)
        assert np.min(samples) >= spec.global_min - 1e-14
        assert np.max(samples) <= spec.global_max + 1e-14
        avgs = initial_cell_averages(spec, grid)
        assert np.min(avgs) >= spec.global_min - 1e-14
        assert np.max(avgs) <= spec.global_max + 1e-14

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_diffusion_nonnegative_on_initial_range(self, name):
        spec = build_all()[name]
        u = np.linspace(spec.global_min,
                        min(spec.global_max, spec.global_min + 10.0), 57)
        x = np.full_like(u, 0.5 * (spec.domain_lo[0] + spec.domain_hi[0]))
        y = x if spec.dim == 2 else 0.0
        assert np.min(spec.diffusion(u, x, y)) >= 0.0

    @pytest.mark.parametrize("shapes", [((5,), (5,)), ((3, 4), (4,)),
                                        ((6,), ())])
    def test_constant_coefficients_are_cached_full_arrays(self, shapes):
        u_shape, x_shape = shapes
        u, x = np.zeros(u_shape), np.zeros(x_shape)
        coefficient = problems._constant(0.25)
        wave_speed = problems._constant_wave_speed(2)
        for got, want in ((coefficient(u, x, 0.0), np.full(
                              np.broadcast_shapes(u_shape, x_shape), 0.25)),
                          (wave_speed(0, u, x, u, x, x, 0.0, 0.0), np.full(
                              np.broadcast_shapes(u_shape, x_shape), 2.0))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[...] = 1.0
        assert coefficient(u, x, 0.0) is coefficient(u + 1.0, x, 0.0)

    def test_constant_coefficients_share_one_buffer_per_size(self):
        # A state and a stack of one, or the x- and y-faces of a square
        # grid, hold one array's worth of the constant between them.
        coefficient = problems._constant(0.25)
        state = coefficient(np.zeros((4, 5)), np.zeros(5), 0.0)
        stack = coefficient(np.zeros((1, 4, 5)), np.zeros(5), 0.0)
        y_faces = coefficient(np.zeros((5, 4)), np.zeros((5, 1)), 0.0)
        assert (state.shape, stack.shape, y_faces.shape) == (
            (4, 5), (1, 4, 5), (5, 4))
        assert np.shares_memory(state, stack)
        assert np.shares_memory(state, y_faces)
        assert not stack.flags.writeable
        assert not np.shares_memory(
            state, coefficient(np.zeros(7), np.zeros(7), 0.0))

    def test_exact_at_t0_matches_initial_condition_where_defined(self):
        for spec in build_all().values():
            if spec.exact_solution is None:
                continue
            grid = make_grid(spec, 31) if spec.dim == 1 else make_grid(spec, 13, 11)
            exact0 = evaluate_exact(spec, grid, 0.0)
            ic = spec.initial_condition(*grid.center_mesh())
            # The steady problem's reference is the limit state, not the data.
            if spec.name == "steady1d":
                assert not np.allclose(exact0, ic)
            else:
                assert np.allclose(exact0, ic, atol=1e-12)


class TestCellAveraging:
    def test_quartic_averaged_exactly(self):
        # Cell average of x^4 over [a, b] is (b^5 - a^5) / (5 (b - a)).
        from conftest import make_linear_advection_1d

        spec, grid = make_linear_advection_1d(n=9, lo=-1.0, hi=2.0)
        spec = type(spec)(**{**spec.__dict__,
                             "initial_condition": lambda x, y: np.asarray(x) ** 4})
        avg = initial_cell_averages(spec, grid)
        edges = grid.axis_faces(0)
        exact = (edges[1:] ** 5 - edges[:-1] ** 5) / (5.0 * np.diff(edges))
        assert np.allclose(avg, exact, rtol=1e-14, atol=1e-14)

    def test_2d_separable_polynomial_averaged_exactly(self):
        spec = kpp_2d(0.0)
        spec = type(spec)(**{**spec.__dict__,
                             "initial_condition":
                                 lambda x, y: (np.asarray(x) ** 3
                                               * np.asarray(y) ** 2 + 2.0)})
        grid = make_grid(spec, 6, 5)
        avg = initial_cell_averages(spec, grid)
        xe = grid.axis_faces(0)
        ye = grid.axis_faces(1)
        ax = (xe[1:] ** 4 - xe[:-1] ** 4) / (4.0 * np.diff(xe))
        ay = (ye[1:] ** 3 - ye[:-1] ** 3) / (3.0 * np.diff(ye))
        exact = ay[:, None] * ax[None, :] + 2.0
        assert np.allclose(avg, exact, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("name, cells", [("linear1d", (31,)),
                                             ("rotation2d", (13, 11))])
    def test_bitwise_equal_to_nested_loops(self, name, cells):
        spec = build_all()[name]
        grid = make_grid(spec, *cells)
        avg = initial_cell_averages(spec, grid)
        assert avg.tobytes() == nested_loop_cell_averages(spec, grid).tobytes()


class TestLinearAdvectionDiffusion1D:
    def test_initial_profile_is_sin_fourth_power(self):
        spec = linear_advdiff_1d(0.3)
        x = np.linspace(0.0, 2.0 * np.pi, 257)
        assert np.allclose(spec.initial_condition(x, 0.0), np.sin(x) ** 4,
                           atol=1e-14)

    def test_closed_form_solves_the_pde(self):
        # Insert u(x, t) into u_t + u_x - eps u_xx via central differences.
        eps = 0.07
        spec = linear_advdiff_1d(eps)
        h = 1e-5
        x = np.linspace(0.3, 5.9, 11)
        t = 0.43
        u = spec.exact_solution
        ut = (u(x, 0.0, t + h) - u(x, 0.0, t - h)) / (2 * h)
        ux = (u(x + h, 0.0, t) - u(x - h, 0.0, t)) / (2 * h)
        uxx = (u(x + h, 0.0, t) - 2 * u(x, 0.0, t) + u(x - h, 0.0, t)) / h ** 2
        assert np.allclose(ut + ux - eps * uxx, 0.0, atol=1e-5)

    def test_periodicity_and_bounds(self):
        spec = linear_advdiff_1d(0.001)
        x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        for t in (0.0, 1.3, 6.28):
            vals = spec.exact_solution(x, 0.0, t)
            wrapped = spec.exact_solution(x + 2.0 * np.pi, 0.0, t)
            assert np.allclose(vals, wrapped, atol=1e-13)
            assert np.min(vals) >= 0.0 and np.max(vals) <= 1.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            linear_advdiff_1d(-1e-3)


class TestBurgers1D:
    def test_square_pulse_and_flux(self):
        spec = burgers_1d()
        assert spec.boundary == (PERIODIC,)
        assert (spec.global_min, spec.global_max) == (0.0, 2.0)
        x = np.array([-0.75, -0.25, 0.0, 0.25, 0.75])
        assert np.array_equal(spec.initial_condition(x, 0.0), [0, 2, 2, 2, 0])
        u = np.array([0.0, 1.0, 2.0])
        assert np.allclose(spec.flux(0, u, x[:3], 0.0, 0.0), 0.5 * u ** 2)
        assert np.allclose(spec.flux_derivative(0, u, x[:3], 0.0, 0.0), u)
        assert np.allclose(spec.diffusion(u, x[:3], 0.0), 0.01)

    def test_wave_speed_takes_max_of_cell_and_face_values(self):
        spec = burgers_1d()
        lam = spec.wave_speed_bound(0, 0.5, 0.2, 0.9, 0.1, 0.0, 0.0, 0.0)
        assert lam == pytest.approx(0.9)
        # all-zero states stay strictly positive via the floor
        lam0 = spec.wave_speed_bound(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert lam0 == LAMBDA_FLOOR

    def test_wave_speed_bounded_by_two_for_admissible_states(self):
        spec = burgers_1d()
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.0, 2.0, size=(4, 100))
        lam = spec.wave_speed_bound(0, *vals, 0.0, 0.0, 0.0)
        assert np.max(lam) <= 2.0


class TestBuckleyLeverett1D:
    def test_fractional_flow_values(self):
        spec = buckley_leverett_1d()
        assert spec.boundary == (DIRICHLET,)
        assert spec.dirichlet_values == ((1.0, 0.0),)
        u = np.array([0.0, 0.5, 1.0])
        assert np.allclose(spec.flux(0, u, u, 0.0, 0.0), [0.0, 0.5, 1.0])
        # derivative of u^2/(u^2+(1-u)^2) is 2u(1-u)/den^2
        ud = 0.3
        den = ud ** 2 + 0.7 ** 2
        assert spec.flux_derivative(0, ud, 0.0, 0.0, 0.0) == pytest.approx(
            2 * ud * 0.7 / den ** 2)

    def test_degenerate_diffusion_vanishes_at_and_outside_bounds(self):
        spec = buckley_leverett_1d()
        u = np.array([-0.2, 0.0, 0.5, 1.0, 1.3])
        d = spec.diffusion(u, u, 0.0)
        assert np.allclose(d, [0.0, 0.0, 0.01, 0.0, 0.0])
        assert spec.diffusion(0.25, 0.0, 0.0) == pytest.approx(0.01 * 4 * 0.25 * 0.75)

    def test_ramp_initial_condition(self):
        spec = buckley_leverett_1d()
        x = np.array([0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 1.0])
        assert np.allclose(spec.initial_condition(x, 0.0), [1.0, 0.5, 0.0, 0.0, 0.0])


class TestSteadyGaussian1D:
    def test_reference_profile_values(self):
        spec = steady_gaussian_1d()
        assert spec.exact_solution(0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert spec.exact_solution(1.0, 0.0, 5.0) == pytest.approx(math.exp(-50.0))
        assert spec.exact_solution(-1.0, 0.0, 5.0) == pytest.approx(math.exp(-50.0))

    def test_drift_flux_points_toward_origin(self):
        spec = steady_gaussian_1d()
        u = 1.0
        assert spec.flux(0, u, 0.5, 0.0, 0.0) < 0.0
        assert spec.flux(0, u, -0.5, 0.0, 0.0) > 0.0
        assert spec.flux(0, u, 0.25, 0.0, 0.0) == pytest.approx(-0.25)

    def test_flux_sampling_mode_and_bounds(self):
        spec = steady_gaussian_1d()
        assert spec.flux_at_cell_centers is True
        assert spec.global_min == 0.0
        assert spec.global_max == np.inf

    def test_initial_mass_matches_reference_mass(self):
        # The reference profile carries the same integral as the initial
        # data, so mass conservation drives the run toward it.
        spec = steady_gaussian_1d()
        x = np.linspace(-1.0, 1.0, 200001)
        ic = np.trapezoid(spec.initial_condition(x, 0.0), x)
        ref = np.trapezoid(spec.exact_solution(x, 0.0, 0.0), x)
        assert ic == pytest.approx(ref, rel=1e-6)


class TestRotation2D:
    def test_velocity_field_is_rigid_rotation(self):
        spec = solid_rotation_2d()
        # velocity = flux at u = 1
        vx = spec.flux(0, 1.0, 0.5, 0.75, 0.0)
        vy = spec.flux(1, 1.0, 0.5, 0.75, 0.0)
        assert vx == pytest.approx(-2.0 * np.pi * 0.25)
        assert vy == pytest.approx(0.0)

    def test_exact_solution_rotates_counterclockwise(self):
        spec = solid_rotation_2d()
        # cone centered at (0.5, 0.25) appears at (0.75, 0.5) after a
        # quarter turn
        assert spec.exact_solution(0.75, 0.5, 0.25) == pytest.approx(1.0)
        # after a half turn the left midpoint traces back to the empty right
        assert spec.exact_solution(0.25, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
        # and the cone sits at the top
        assert spec.exact_solution(0.5, 0.75, 0.5) == pytest.approx(1.0)

    def test_full_turn_recovers_initial_data(self):
        spec = solid_rotation_2d()
        grid = make_grid(spec, 32)
        X, Y = grid.center_mesh()
        assert np.allclose(spec.exact_solution(X, Y, 1.0),
                           spec.initial_condition(X, Y), atol=1e-12)

    def test_profile_features(self):
        # slotted disk: 1 inside, 0 in the slot; cone peak 1; hump peak 1/2
        assert three_body_initial_condition(0.55, 0.75) == 1.0
        assert three_body_initial_condition(0.5, 0.75) == 0.0
        assert three_body_initial_condition(0.5, 0.25) == pytest.approx(1.0)
        assert three_body_initial_condition(0.25, 0.5) == pytest.approx(0.5)
        assert three_body_initial_condition(0.05, 0.05) == 0.0


class TestVortex2D:
    def test_velocity_components_and_time_modulation(self):
        spec = swirling_vortex_2d(T=1.5)
        x, y = 0.25, 0.5
        vx = spec.flux(0, 1.0, x, y, 0.0)
        vy = spec.flux(1, 1.0, x, y, 0.0)
        assert vx == pytest.approx(np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y))
        assert vy == pytest.approx(-np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x))
        # modulation vanishes at the half period and reverses afterwards
        assert spec.flux(0, 1.0, x, 0.30, 0.75) == pytest.approx(0.0)
        assert spec.flux(0, 1.0, x, 0.30, 1.4) == pytest.approx(
            -spec.flux(0, 1.0, x, 0.30, 0.1))

    def test_period_parameter_sets_final_time(self):
        assert swirling_vortex_2d(T=2.5).final_time == 2.5
        with pytest.raises(ValueError):
            swirling_vortex_2d(T=0.0)


class TestLinear2D:
    def test_initial_profile_is_diagonal_sin_fourth(self):
        spec = linear_advdiff_2d(0.2)
        x = np.linspace(0, 2 * np.pi, 23)
        y = np.linspace(0, 2 * np.pi, 23)[::-1]
        assert np.allclose(spec.initial_condition(x, y), np.sin(x + y) ** 4,
                           atol=1e-14)

    def test_closed_form_solves_the_pde(self):
        eps = 0.05
        spec = linear_advdiff_2d(eps)
        h = 1e-5
        x = np.linspace(0.2, 6.0, 7)
        y = np.linspace(0.1, 5.0, 7)
        t = 0.37
        u = spec.exact_solution
        ut = (u(x, y, t + h) - u(x, y, t - h)) / (2 * h)
        ux = (u(x + h, y, t) - u(x - h, y, t)) / (2 * h)
        uy = (u(x, y + h, t) - u(x, y - h, t)) / (2 * h)
        uxx = (u(x + h, y, t) - 2 * u(x, y, t) + u(x - h, y, t)) / h ** 2
        uyy = (u(x, y + h, t) - 2 * u(x, y, t) + u(x, y - h, t)) / h ** 2
        assert np.allclose(ut + ux + uy - eps * (uxx + uyy), 0.0, atol=1e-4)


class TestKPP2D:
    def test_rotating_wave_setup(self):
        spec = kpp_2d(0.0)
        assert spec.domain_lo == (-2.0, -2.5)
        assert spec.domain_hi == (2.0, 1.5)
        assert spec.global_min == pytest.approx(np.pi / 4)
        assert spec.global_max == pytest.approx(14 * np.pi / 4)
        assert spec.initial_condition(0.0, 0.0) == pytest.approx(14 * np.pi / 4)
        assert spec.initial_condition(0.6, 0.8) == pytest.approx(14 * np.pi / 4)
        assert spec.initial_condition(1.2, 0.0) == pytest.approx(np.pi / 4)

    def test_flux_is_unit_circle_field(self):
        spec = kpp_2d(0.01)
        u = np.array([0.0, np.pi / 2, np.pi])
        assert np.allclose(spec.flux(0, u, 0, 0, 0), np.sin(u))
        assert np.allclose(spec.flux(1, u, 0, 0, 0), np.cos(u))
        assert np.allclose(spec.flux_derivative(0, u, 0, 0, 0), np.cos(u))
        assert np.allclose(spec.flux_derivative(1, u, 0, 0, 0), -np.sin(u))
        assert np.allclose(spec.diffusion(u, u, u), 0.01)


class TestGridFactory:
    def test_1d_and_2d_dimensions(self):
        spec1 = linear_advdiff_1d(0.0)
        g1 = make_grid(spec1, 50)
        assert g1.dim == 1 and g1.cells_per_axis == (50,)
        assert g1.domain_lo == spec1.domain_lo
        spec2 = kpp_2d(0.0)
        g2 = make_grid(spec2, 16)
        assert g2.dim == 2 and g2.cells_per_axis == (16, 16)
        g3 = make_grid(spec2, 16, 24)
        assert g3.cells_per_axis == (16, 24)

    def test_evaluate_exact_requires_closed_form(self):
        spec = burgers_1d()
        with pytest.raises(ValueError):
            evaluate_exact(spec, make_grid(spec, 10), 0.1)
