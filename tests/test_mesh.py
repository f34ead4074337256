"""Grid geometry, face points and ghost-layer filling."""

import itertools

import numpy as np
import pytest

from mppfv.fluxes import (adjacent_center_coordinates, face_array_shapes,
                          face_coordinates)
from mppfv.mesh import PERIODIC, CellField, StructuredGrid, ghost_fill

from conftest import DIRICHLET
from oracles import face_entry, face_xy, faces


def grid_1d(n=8, boundary=PERIODIC, lo=0.0, hi=1.0):
    return StructuredGrid((n,), (lo,), (hi,), (boundary,))


def grid_2d(nx=4, ny=3, bx=PERIODIC, by=PERIODIC):
    return StructuredGrid((nx, ny), (0.0, -1.0), (2.0, 1.0), (bx, by))


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
            StructuredGrid((2, 2, 2), (0,) * 3, (1,) * 3, (PERIODIC,) * 3)
        with pytest.raises(ValueError):
            StructuredGrid((0,), (0.0,), (1.0,), (PERIODIC,))
        with pytest.raises(ValueError):
            StructuredGrid((4,), (1.0,), (0.0,), (PERIODIC,))
        with pytest.raises(ValueError):
            StructuredGrid((4,), (0.0,), (1.0,), ("reflecting",))

    def test_cell_field_shape_checked(self):
        g = grid_2d(4, 3)
        CellField(g, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            CellField(g, np.zeros((4, 3)))


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
        g = grid_1d(5)
        ext = ghost_fill(np.arange(5.0), g, width=2)
        assert ext.shape == (9,)
        assert np.array_equal(ext, [3, 4, 0, 1, 2, 3, 4, 0, 1])

    def test_dirichlet_fill_uses_per_side_values(self):
        g = grid_1d(4, boundary=(7.0, -3.0))
        values = np.array([1.0, 2.0, 3.0, 4.0])
        ext = ghost_fill(values, g, width=3)
        assert np.array_equal(ext[:3], [7.0, 7.0, 7.0])
        assert np.array_equal(ext[-3:], [-3.0, -3.0, -3.0])
        assert np.array_equal(ext[3:-3], values)

    def test_dirichlet_without_values_raises(self):
        # A Dirichlet axis carries its values in its boundary entry, so a
        # grid whose entry is not PERIODIC nor a pair of finite values is
        # rejected when it is built.
        for entry in ("dirichlet", (1.0, 2.0, 3.0), (0.0, np.nan),
                      (np.inf, 0.0), (None, 1.0), None, 5.0):
            with pytest.raises(ValueError):
                grid_1d(4, boundary=entry)
        with pytest.raises(ValueError):
            grid_2d(bx=PERIODIC, by=(1.0,))

    def test_dirichlet_pairs_are_stored_as_python_floats(self):
        g = grid_2d(bx=np.array([1, 2]), by=PERIODIC)
        assert g.boundary == ((1.0, 2.0), PERIODIC)
        assert all(type(v) is float for v in g.boundary[0])
        same = grid_2d(bx=(1.0, 2.0))
        assert g == same and hash(g) == hash(same)
        assert (g.dim, grid_1d().dim) == (2, 1)

    def test_2d_mixed_axes(self):
        g = grid_2d(3, 2, bx=PERIODIC, by=(9.0, 8.0))
        vals = np.arange(6.0).reshape(2, 3)  # [iy, ix]
        ext = ghost_fill(vals, g, width=1)
        assert ext.shape == (4, 5)
        # periodic x: wrap columns
        assert np.array_equal(ext[1, :], [2, 0, 1, 2, 0])
        # dirichlet y: constant rows
        assert np.all(ext[0, :] == 9.0)
        assert np.all(ext[-1, :] == 8.0)

    def test_width_validated(self):
        g = grid_1d(4)
        with pytest.raises(ValueError):
            ghost_fill(np.zeros(4), g, width=0)

    @pytest.mark.parametrize("cells", [(2,), (5,), (2, 3), (5, 4)])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_bitwise_equal_to_numpy_pad(self, cells, width, rng):
        # np.pad "wrap" repeats the period when the width exceeds it.
        dim = len(cells)
        for periodic in itertools.product((True, False), repeat=dim):
            boundary = tuple(PERIODIC if p else tuple(rng.random(2))
                             for p in periodic)
            g = StructuredGrid(cells, (0.0,) * dim, (1.0,) * dim, boundary)
            values = rng.random(g.shape)
            want = values
            for axis, b in enumerate(boundary):
                pad = [(0, 0)] * dim
                pad[-1 - axis] = (width, width)
                want = (np.pad(want, pad, mode="wrap") if b == PERIODIC else
                        np.pad(want, pad, mode="constant",
                               constant_values=(b,)))
            got = ghost_fill(values, g, width=width)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_array_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ghost_fill(np.zeros(5), grid_1d(4), width=1)


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
