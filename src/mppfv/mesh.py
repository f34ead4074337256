"""Uniform structured 1D/2D grids with ghost-layer boundary handling.

Cells are axis-aligned boxes of identical size.  Fields store one value per
cell (the cell average).  Boundary conditions enter through ghost layers:
periodic axes wrap the interior values, Dirichlet axes are filled with the
prescribed constant boundary value.  Face enumeration lists x-faces first,
then y-faces, each in row-major order, so that downstream assembly is
deterministic.

Array-axis convention: grid axis ``k`` is array axis ``-1-k`` of every cell
and face array, in 1D and 2D alike, so x is the last array axis and y the
one before it (``values[iy, ix]``, row-major with x fastest), and
:attr:`StructuredGrid.shape` lists the cell counts in reverse.  Kernels
between face and cell arrays are one loop over grid axes and meet the
convention only through :func:`axis_index` (and the index tuples ``LOW``,
``HIGH``, ``FIRST``, ``LAST`` built from it once), :func:`sides` and
:func:`fluxes.adjacent_cells`.  Beyond these, only the calls that hand an
array axis to NumPy or index a shape write ``-1 - axis``: the padding of
:func:`ghost_fill`, :func:`fluxes.adjacent_slices`,
:func:`fluxes.face_array_shapes` and the per-axis transposes of the WENO
face values and :func:`metrics.cell_center_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Ghost-layer width sufficient for every stencil used by the package
#: (five-cell reconstructions centered on either side of a face).
GHOST_WIDTH = 3

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


def axis_index(axis, index):
    """Index tuple applying ``index`` along grid axis ``axis`` (array axis
    ``-1-axis``) of a cell or face array of either dimension."""
    return (Ellipsis, index) + (slice(None),) * axis


#: Per grid axis, the index tuples of the low-side entries (all but the
#: last), the high-side entries (all but the first), and the first and last
#: one-entry slabs along that axis.
LOW = tuple(axis_index(k, slice(None, -1)) for k in range(2))
HIGH = tuple(axis_index(k, slice(1, None)) for k in range(2))
FIRST = tuple(axis_index(k, slice(None, 1)) for k in range(2))
LAST = tuple(axis_index(k, slice(-1, None)) for k in range(2))


def sides(arr, axis):
    """``(arr[:-1], arr[1:])`` along grid axis ``axis``: of a face array,
    the low and high face of every cell; of a cell array extended by one
    layer, the low and high cell of every face."""
    return arr[LOW[axis]], arr[HIGH[axis]]


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform structured grid on an axis-aligned box.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    cells_per_axis : tuple of int
        Number of cells along each axis, ``(nx,)`` or ``(nx, ny)``.
    domain_lo, domain_hi : tuple of float
        Physical coordinates of the box corners.
    boundary : tuple of str
        Per-axis boundary type, ``"periodic"`` or ``"dirichlet"``.
    """

    dim: int
    cells_per_axis: tuple
    domain_lo: tuple
    domain_hi: tuple
    boundary: tuple

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        for name in ("cells_per_axis", "domain_lo", "domain_hi", "boundary"):
            if len(getattr(self, name)) != self.dim:
                raise ValueError(f"{name} must have length dim={self.dim}")
        if any(n <= 0 for n in self.cells_per_axis):
            raise ValueError("cells_per_axis entries must be positive")
        if any(hi <= lo for lo, hi in zip(self.domain_lo, self.domain_hi)):
            raise ValueError("domain_hi must exceed domain_lo on every axis")
        if any(b not in (PERIODIC, DIRICHLET) for b in self.boundary):
            raise ValueError("boundary entries must be 'periodic' or 'dirichlet'")

    @cached_property
    def spacing(self):
        """Per-axis cell size ``(Δx,)`` or ``(Δx, Δy)``."""
        return tuple(
            (hi - lo) / n
            for lo, hi, n in zip(self.domain_lo, self.domain_hi, self.cells_per_axis)
        )

    @property
    def nx(self):
        return self.cells_per_axis[0]

    @property
    def ny(self):
        return self.cells_per_axis[1] if self.dim == 2 else 1

    @cached_property
    def shape(self):
        """ndarray shape of a cell field, the cell counts in reverse axis
        order: ``(nx,)`` in 1D, ``(ny, nx)`` in 2D."""
        return tuple(reversed(self.cells_per_axis))

    @cached_property
    def num_cells(self):
        return int(np.prod(self.cells_per_axis))

    @cached_property
    def cell_volume(self):
        """|K_i|: Δx in 1D, Δx·Δy in 2D (identical for every cell)."""
        vol = 1.0
        for h in self.spacing:
            vol *= h
        return vol

    def face_area(self, axis):
        """|S_ij| of a face with normal along ``axis``: 1 in 1D, the
        transverse spacing in 2D."""
        if self.dim == 1:
            return 1.0
        return self.spacing[1 - axis]

    def axis_centers(self, axis):
        """Cell-center coordinates along one axis (length ``cells_per_axis[axis]``)."""
        lo = self.domain_lo[axis]
        h = self.spacing[axis]
        return lo + h * (np.arange(self.cells_per_axis[axis]) + 0.5)

    def axis_faces(self, axis):
        """Face-plane coordinates along one axis (length ``n+1``, from lo to hi)."""
        lo = self.domain_lo[axis]
        h = self.spacing[axis]
        return lo + h * np.arange(self.cells_per_axis[axis] + 1)

    def center_mesh(self):
        """Cell-center coordinate arrays shaped like a field.

        Returns ``(X,)`` in 1D or ``(X, Y)`` in 2D with ``X[iy, ix]`` etc.
        """
        if self.dim == 1:
            return (self.axis_centers(0),)
        X, Y = np.meshgrid(self.axis_centers(0), self.axis_centers(1), indexing="xy")
        return (X, Y)

    def extended_axis_centers(self, axis, width, wrap_periodic=True):
        """Cell-center coordinates along ``axis`` including ``width`` ghost
        layers per side.

        For a periodic axis with ``wrap_periodic`` the ghost coordinates are
        the wrapped in-domain centers (the coordinates at which coefficient
        functions must be evaluated so that wrap faces see consistent data);
        otherwise ghosts get their true out-of-domain positions.
        """
        n = self.cells_per_axis[axis]
        lo = self.domain_lo[axis]
        h = self.spacing[axis]
        idx = np.arange(-width, n + width)
        if self.boundary[axis] == PERIODIC and wrap_periodic:
            idx = idx % n
        return lo + h * (idx + 0.5)


@dataclass
class CellField:
    """A scalar field of cell averages attached to a grid."""

    grid: StructuredGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape "
                f"{self.grid.shape}"
            )

    def copy(self):
        return CellField(self.grid, self.values.copy())


class FaceRecord(NamedTuple):
    """One geometric face: owner cell, neighbor cell (``None`` for a ghost
    slot on a Dirichlet boundary), normal axis and sign (outward from the
    owner), face area, face-midpoint coordinates, and the distance between
    the two adjacent cell centers."""

    owner: tuple
    neighbor: tuple
    axis: int
    normal: int
    area: float
    midpoint: tuple
    spacing: float


def cell_center(grid, cell_index):
    """Midpoint coordinates of one cell.

    ``cell_index`` is ``(ix,)`` or an int in 1D, ``(ix, iy)`` in 2D.
    """
    if np.isscalar(cell_index):
        cell_index = (int(cell_index),)
    if len(cell_index) != grid.dim:
        raise ValueError(f"cell index must have {grid.dim} components")
    coords = []
    for axis, i in enumerate(cell_index):
        n = grid.cells_per_axis[axis]
        if not 0 <= i < n:
            raise IndexError(f"cell index {i} out of range [0, {n}) on axis {axis}")
        coords.append(grid.domain_lo[axis] + grid.spacing[axis] * (i + 0.5))
    return tuple(coords)


def faces(grid):
    """Enumerate every geometric face exactly once.

    Returns a list of :class:`FaceRecord`.  Interior faces have the owner on
    the low side and normal +1; a periodic wrap face connects the last cell
    back to the first.  Dirichlet boundary faces keep the interior cell as
    owner (outward normal, so the low-end face has normal −1) and
    ``neighbor=None`` marking the ghost slot.  In 2D, x-normal faces are
    listed first, then y-normal faces, each in row-major order.
    """
    out = []
    if grid.dim == 1:
        _axis_faces_1d(grid, out)
    else:
        _axis_faces_2d(grid, axis=0, out=out)
        _axis_faces_2d(grid, axis=1, out=out)
    return out


def _axis_faces_1d(grid, out):
    nx = grid.nx
    xf = grid.axis_faces(0)
    h = grid.spacing[0]
    if grid.boundary[0] == PERIODIC:
        for i in range(nx):
            out.append(FaceRecord((i,), ((i + 1) % nx,), 0, +1, 1.0, (xf[i + 1],), h))
    else:
        out.append(FaceRecord((0,), None, 0, -1, 1.0, (xf[0],), h))
        for i in range(nx - 1):
            out.append(FaceRecord((i,), (i + 1,), 0, +1, 1.0, (xf[i + 1],), h))
        out.append(FaceRecord((nx - 1,), None, 0, +1, 1.0, (xf[nx],), h))


def _axis_faces_2d(grid, axis, out):
    nx, ny = grid.nx, grid.ny
    area = grid.face_area(axis)
    xf = grid.axis_faces(0)
    yf = grid.axis_faces(1)
    xc = grid.axis_centers(0)
    yc = grid.axis_centers(1)
    periodic = grid.boundary[axis] == PERIODIC

    h = grid.spacing[axis]
    if axis == 0:
        for iy in range(ny):
            if periodic:
                for ix in range(nx):
                    out.append(
                        FaceRecord((ix, iy), ((ix + 1) % nx, iy), 0, +1, area,
                                   (xf[ix + 1], yc[iy]), h)
                    )
            else:
                out.append(FaceRecord((0, iy), None, 0, -1, area, (xf[0], yc[iy]), h))
                for ix in range(nx - 1):
                    out.append(
                        FaceRecord((ix, iy), (ix + 1, iy), 0, +1, area,
                                   (xf[ix + 1], yc[iy]), h)
                    )
                out.append(
                    FaceRecord((nx - 1, iy), None, 0, +1, area, (xf[nx], yc[iy]), h)
                )
    else:
        for iy in range(ny if periodic else ny - 1):
            for ix in range(nx):
                jy = (iy + 1) % ny
                out.append(
                    FaceRecord((ix, iy), (ix, jy), 1, +1, area, (xc[ix], yf[iy + 1]), h)
                )
        if not periodic:
            extra = []
            for ix in range(nx):
                extra.append(FaceRecord((ix, 0), None, 1, -1, area, (xc[ix], yf[0]), h))
            for ix in range(nx):
                extra.append(
                    FaceRecord((ix, ny - 1), None, 1, +1, area, (xc[ix], yf[ny]), h)
                )
            out.extend(extra)


def ghost_fill(field, problem_spec, time=0.0, width=GHOST_WIDTH):
    """Extend a cell field with ``width`` ghost layers per side.

    Periodic axes copy wrapped interior values; Dirichlet axes fill every
    ghost layer with the prescribed constant boundary value taken from
    ``problem_spec.dirichlet_values`` (a per-axis ``(lo_value, hi_value)``
    pair).  Returns a plain ndarray of shape ``interior + 2*width`` per axis.

    Raises
    ------
    ValueError
        If a Dirichlet axis has no boundary values on the problem spec.
    """
    if width < 1:
        raise ValueError("ghost width must be >= 1")
    grid = field.grid
    values = field.values if isinstance(field, CellField) else np.asarray(field)
    ext = values
    for axis in range(grid.dim):
        pad = [(0, 0)] * ext.ndim
        pad[-1 - axis] = (width, width)
        if grid.boundary[axis] == PERIODIC:
            ext = np.pad(ext, pad, mode="wrap")
        else:
            dvals = getattr(problem_spec, "dirichlet_values", None)
            if dvals is None or dvals[axis] is None:
                raise ValueError(
                    f"axis {axis} is Dirichlet but the problem spec provides "
                    "no boundary values"
                )
            ext = np.pad(ext, pad, mode="constant",
                         constant_values=(dvals[axis],))
    return ext
