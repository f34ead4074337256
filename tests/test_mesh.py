"""Grid geometry, ghost-layer filling, and the reference face enumeration
of :mod:`oracles`."""

import itertools

import numpy as np
import pytest

from mppfv.fluxes import (adjacent_center_coordinates, face_array_shapes,
                          face_coordinates)
from mppfv.mesh import (DIRICHLET, PERIODIC, CellField, StructuredGrid,
                        ghost_fill)

from oracles import face_entry, face_xy, faces


def grid_1d(n=8, boundary=PERIODIC, lo=0.0, hi=1.0):
    return StructuredGrid(1, (n,), (lo,), (hi,), (boundary,))


def grid_2d(nx=4, ny=3, bx=PERIODIC, by=PERIODIC):
    return StructuredGrid(2, (nx, ny), (0.0, -1.0), (2.0, 1.0), (bx, by))


class TestGeometry:
    def test_spacing_and_volume_1d(self):
        g = grid_1d(10, lo=-1.0, hi=3.0)
        assert g.spacing == (0.4,)
        assert g.cell_volume == pytest.approx(0.4)
        assert g.face_area(0) == 1.0
        assert g.num_cells == 10
        assert g.shape == (10,)

    def test_spacing_and_volume_2d(self):
        g = grid_2d(4, 10)
        assert g.spacing == (0.5, 0.2)
        assert g.cell_volume == pytest.approx(0.1)
        assert g.face_area(0) == pytest.approx(0.2)  # x-normal face spans dy
        assert g.face_area(1) == pytest.approx(0.5)
        assert g.shape == (10, 4)  # row-major, x fastest

    def test_cell_centers_match_axis_centers(self):
        g = grid_1d(5, lo=2.0, hi=7.0)
        assert np.allclose(g.axis_centers(0), [2.5, 3.5, 4.5, 5.5, 6.5])

    def test_axis_faces_span_domain(self):
        g = grid_1d(4, lo=0.0, hi=2.0)
        assert np.allclose(g.axis_faces(0), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            StructuredGrid(3, (2, 2, 2), (0,) * 3, (1,) * 3, (PERIODIC,) * 3)
        with pytest.raises(ValueError):
            StructuredGrid(1, (0,), (0.0,), (1.0,), (PERIODIC,))
        with pytest.raises(ValueError):
            StructuredGrid(1, (4,), (1.0,), (0.0,), (PERIODIC,))
        with pytest.raises(ValueError):
            StructuredGrid(1, (4,), (0.0,), (1.0,), ("reflecting",))

    def test_cell_field_shape_checked(self):
        g = grid_2d(4, 3)
        CellField(g, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            CellField(g, np.zeros((4, 3)))


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


POINT_GRIDS = [grid_1d(), grid_1d(boundary=DIRICHLET),
               grid_2d(4, 3, bx=DIRICHLET, by=PERIODIC), grid_2d(5, 6)]


class TestPoints:
    def test_arrays_lie_along_reversed_array_axes(self):
        g = grid_2d(4, 3)
        x, y = g.points([np.arange(4.0), np.arange(3.0)])
        assert (x.shape, y.shape) == ((4,), (3, 1))
        assert np.broadcast_shapes(x.shape, y.shape) == g.shape
        x, y = grid_1d(5).points([np.arange(5.0)])
        assert x.shape == (5,) and y == 0.0

    @pytest.mark.parametrize("g", POINT_GRIDS)
    def test_points_broadcast_to_cell_and_face_shapes(self, g):
        for c in g.center_mesh():
            assert np.broadcast_shapes(np.shape(c), g.shape) == g.shape
        for axis, shape in enumerate(face_array_shapes(g)):
            sides = adjacent_center_coordinates(g, axis)
            for c in face_coordinates(g, axis) + sides[0] + sides[1]:
                assert np.broadcast_shapes(np.shape(c), shape) == shape

    @pytest.mark.parametrize("g", POINT_GRIDS)
    def test_face_points_are_the_face_midpoints(self, g):
        shapes = face_array_shapes(g)
        for k in range(2):
            coords = [np.broadcast_to(face_coordinates(g, axis)[k], shape)
                      for axis, shape in enumerate(shapes)]
            for r in faces(g):
                assert face_entry(coords, g, r) == face_xy(r)[k]

    @pytest.mark.parametrize("g", POINT_GRIDS)
    def test_cached_points_are_shared_and_read_only(self, g):
        for axis in range(g.dim):
            points = face_coordinates(g, axis)
            sides = adjacent_center_coordinates(g, axis)
            assert face_coordinates(g, axis) is points
            assert adjacent_center_coordinates(g, axis) is sides
            arrays = [c for c in points + sides[0] + sides[1]
                      if isinstance(c, np.ndarray)]
            assert len(arrays) == 3 * g.dim
            for c in arrays:
                assert not c.flags.writeable
                with pytest.raises(ValueError):
                    c[...] = 0.0

    def test_periodic_neighbours_of_the_seam_wrap(self):
        g = grid_1d(8)
        (xa, _), (xb, _) = adjacent_center_coordinates(g, 0)
        centers = g.axis_centers(0)
        assert xa[0] == centers[-1] and xb[-1] == centers[0]
        assert np.array_equal(xa[1:], centers) and np.array_equal(xb[:-1], centers)
        (xa, _), (xb, _) = adjacent_center_coordinates(
            grid_1d(8, boundary=DIRICHLET), 0)
        assert xa[0] < 0.0 and xb[-1] > 1.0


class TestGhostFill:
    def test_periodic_wrap_1d(self):
        spec_like = None
        g = grid_1d(5)
        ext = ghost_fill(np.arange(5.0), spec_like, g, width=2)
        assert ext.shape == (9,)
        assert np.array_equal(ext, [3, 4, 0, 1, 2, 3, 4, 0, 1])

    def test_dirichlet_fill_uses_per_side_values(self):
        g = grid_1d(4, boundary=DIRICHLET)

        class Spec:
            dirichlet_values = ((7.0, -3.0),)

        values = np.array([1.0, 2.0, 3.0, 4.0])
        ext = ghost_fill(values, Spec(), g, width=3)
        assert np.array_equal(ext[:3], [7.0, 7.0, 7.0])
        assert np.array_equal(ext[-3:], [-3.0, -3.0, -3.0])
        assert np.array_equal(ext[3:-3], values)

    def test_dirichlet_without_values_raises(self):
        g = grid_1d(4, boundary=DIRICHLET)

        class Spec:
            dirichlet_values = (None,)

        with pytest.raises(ValueError):
            ghost_fill(np.zeros(4), Spec(), g)

    def test_2d_mixed_axes(self):
        g = grid_2d(3, 2, bx=PERIODIC, by=DIRICHLET)

        class Spec:
            dirichlet_values = (None, (9.0, 8.0))

        vals = np.arange(6.0).reshape(2, 3)  # [iy, ix]
        ext = ghost_fill(vals, Spec(), g, width=1)
        assert ext.shape == (4, 5)
        # periodic x: wrap columns
        assert np.array_equal(ext[1, :], [2, 0, 1, 2, 0])
        # dirichlet y: constant rows
        assert np.all(ext[0, :] == 9.0)
        assert np.all(ext[-1, :] == 8.0)

    def test_width_validated(self):
        g = grid_1d(4)
        with pytest.raises(ValueError):
            ghost_fill(np.zeros(4), None, g, width=0)

    @pytest.mark.parametrize("cells", [(2,), (5,), (2, 3), (5, 4)])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_bitwise_equal_to_numpy_pad(self, cells, width, rng):
        # np.pad "wrap" repeats the period when the width exceeds it.
        for boundary in itertools.product((PERIODIC, DIRICHLET),
                                          repeat=len(cells)):
            dim = len(cells)
            g = StructuredGrid(dim, cells, (0.0,) * dim, (1.0,) * dim,
                               boundary)

            class Spec:
                dirichlet_values = tuple(tuple(rng.random(2))
                                         for _ in range(dim))

            values = rng.random(g.shape)
            want = values
            for axis, b in enumerate(boundary):
                pad = [(0, 0)] * dim
                pad[-1 - axis] = (width, width)
                want = (np.pad(want, pad, mode="wrap") if b == PERIODIC else
                        np.pad(want, pad, mode="constant",
                               constant_values=(Spec.dirichlet_values[axis],)))
            got = ghost_fill(values, Spec(), g, width=width)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_array_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ghost_fill(np.zeros(5), None, grid_1d(4), width=1)


class TestClosedCellIdentity:
    """Per cell, the outward surface vectors sum to zero: every cell has a
    matched pair of faces per axis, so sum_j |S_ij| n_ij = 0 componentwise."""

    @pytest.mark.parametrize("make", [
        lambda: grid_1d(5, boundary=PERIODIC),
        lambda: grid_1d(5, boundary=DIRICHLET),
        lambda: grid_2d(4, 3, bx=PERIODIC, by=DIRICHLET),
        lambda: grid_2d(3, 4, bx=DIRICHLET, by=DIRICHLET),
    ])
    def test_outward_surface_vectors_cancel(self, make):
        g = make()
        totals = {}
        for face in faces(g):
            vec = np.zeros(g.dim)
            vec[face.axis] = face.normal * face.area
            totals[face.owner] = totals.get(face.owner, 0.0) + vec
            if face.neighbor is not None:
                totals[face.neighbor] = totals.get(face.neighbor, 0.0) - vec
        assert len(totals) == g.num_cells
        for cell, total in totals.items():
            assert np.allclose(total, 0.0, atol=1e-15), cell
