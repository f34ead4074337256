"""The reference code of :mod:`oracles` on hand-worked cases: its face
enumeration and its one-face low-order fluxes, which the library tests
compare against."""

import numpy as np
import pytest

from mppfv.mesh import PERIODIC

from conftest import DIRICHLET, make_burgers_1d, make_linear_advection_1d
from oracles import faces, low_order_convective_flux, low_order_diffusive_flux
from test_mesh import grid_1d, grid_2d


class TestFaceEnumeration:
    """The reference face enumeration of :mod:`oracles`."""

    def test_periodic_1d_face_count_and_wrap(self):
        g = grid_1d(6)
        recs = faces(g)
        assert len(recs) == 6
        wrap = [r for r in recs if r.neighbor == (0,) and r.owner == (5,)]
        assert len(wrap) == 1
        assert all(r.normal == +1 for r in recs)
        assert all(r.area == 1.0 for r in recs)

    def test_dirichlet_1d_face_count_and_normals(self):
        g = grid_1d(6, boundary=DIRICHLET)
        recs = faces(g)
        assert len(recs) == 7
        boundary = [r for r in recs if r.neighbor is None]
        assert len(boundary) == 2
        low = next(r for r in boundary if r.midpoint == (0.0,))
        high = next(r for r in boundary if r.midpoint == (1.0,))
        assert low.normal == -1 and low.owner == (0,)
        assert high.normal == +1 and high.owner == (5,)

    def test_each_interior_connection_listed_once(self):
        g = grid_2d(4, 3)
        recs = faces(g)
        # fully periodic: every cell has 4 faces, each shared by two cells
        assert len(recs) == 2 * 4 * 3
        seen = set()
        for r in recs:
            key = frozenset((r.owner, r.neighbor)) if r.neighbor else (r.owner, r.midpoint)
            assert (r.axis, key) not in seen
            seen.add((r.axis, key))

    def test_mixed_boundary_2d_counts(self):
        g = grid_2d(4, 3, bx=DIRICHLET, by=PERIODIC)
        recs = faces(g)
        x_faces = [r for r in recs if r.axis == 0]
        y_faces = [r for r in recs if r.axis == 1]
        assert len(x_faces) == (4 + 1) * 3
        assert len(y_faces) == 4 * 3
        assert sum(1 for r in x_faces if r.neighbor is None) == 2 * 3

    def test_face_midpoints_lie_on_face_planes(self):
        g = grid_2d(4, 3, bx=DIRICHLET, by=PERIODIC)
        xf = set(np.round(g.axis_faces(0), 12))
        for r in faces(g):
            if r.axis == 0:
                assert np.round(r.midpoint[0], 12) in xf

    def test_spacing_is_center_to_center_distance(self):
        g = grid_2d(4, 10)
        for r in faces(g):
            assert r.spacing == pytest.approx(g.spacing[r.axis])


class TestSingleFaceFluxes:
    """The one-face reference fluxes of :mod:`oracles` on hand-worked
    values."""

    def _face(self, spec_grid):
        spec, grid = spec_grid
        face = next(f for f in faces(grid) if f.normal > 0)
        return spec, face

    def test_convective_consistency_at_equal_states(self):
        spec, face = self._face(make_burgers_1d(8))
        u = 0.7
        assert low_order_convective_flux(u, u, face, spec) == pytest.approx(
            face.normal * 0.5 * u * u, abs=1e-15)

    def test_convective_pure_upwind_for_linear_flux(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, n=8,
                                              wave_speed=1.0)
        face = next(f for f in faces(grid) if f.normal > 0)
        # n.(f_j + f_i)/2 - lam (u_j - u_i)/2 with f=u, lam=1 upwinds exactly.
        assert low_order_convective_flux(2.0, 0.0, face, spec) == pytest.approx(2.0)

    def test_convective_square_flux_value(self):
        spec, face = self._face(make_burgers_1d(8))
        # (0 + 2)/2 - (1/2)*2*(2 - 0) = -1 with the max-|state| speed bound.
        assert low_order_convective_flux(0.0, 2.0, face, spec) == pytest.approx(-1.0)

    def test_convective_rejects_nonpositive_speed_bound(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, n=8,
                                              wave_speed=0.0)
        face = next(iter(faces(grid)))
        with pytest.raises(ValueError):
            low_order_convective_flux(0.0, 1.0, face, spec)

    def test_diffusive_zero_at_equal_states(self):
        spec, face = self._face(make_burgers_1d(8))
        assert low_order_diffusive_flux(0.3, 0.3, face, spec) == 0.0

    def test_diffusive_constant_coefficient_value(self):
        spec, grid = make_linear_advection_1d(velocity=1.0, diffusion=0.001,
                                              n=10)
        face = next(iter(faces(grid)))
        assert face.spacing == pytest.approx(0.1)
        assert low_order_diffusive_flux(0.0, 1.0, face, spec) == pytest.approx(
            0.01, rel=1e-14)

    def test_diffusive_degenerate_parabolic_coefficient(self):
        # c(u) = 4u(1-u) evaluated at the mean of (0, 1) gives c = 1.
        base = make_burgers_1d(8)
        spec, grid = base
        spec = type(spec)(**{
            **spec.__dict__,
            "diffusion": lambda u, x, y: 4.0 * np.asarray(u) * (1.0 - np.asarray(u)),
        })
        face = next(iter(faces(grid)))
        assert low_order_diffusive_flux(0.0, 1.0, face, spec) == pytest.approx(
            1.0 / face.spacing, rel=1e-14)
