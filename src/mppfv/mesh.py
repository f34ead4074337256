"""Uniform structured 1D/2D grids with ghost-layer boundary handling.

Cells are axis-aligned boxes of identical size.  A cell state is a plain
float array of :attr:`StructuredGrid.shape` holding one value per cell (the
cell average); every kernel takes and returns states in that form.
:class:`CellField`, which attaches the grid, is only the final state that
:func:`harness.run` returns.  Boundary conditions enter through ghost
layers: periodic axes wrap the interior values, Dirichlet axes are filled
with their constant boundary values.  Both live on the grid, one entry of
:attr:`StructuredGrid.boundary` per axis: :data:`PERIODIC`, or the
Dirichlet pair ``(low, high)`` of the values beyond its two ends.

Array-axis convention: grid axis ``k`` is array axis ``-1-k`` of every cell
and face array, in 1D and 2D alike, so x is the last array axis and y the
one before it (``values[iy, ix]``, row-major with x fastest), and
:attr:`StructuredGrid.shape` lists the cell counts in reverse.  Axes ahead
of the grid axes are member axes: the cell and face kernels take a stack
of states, shape ``(m, *grid.shape)``, and treat each member as if it came
alone (the stacked stage solves of :mod:`time_integration`); a per-member
value such as the time broadcasts against the stack as an
``(m,) + (1,)*dim`` array.  Kernels
between face and cell arrays are one loop over grid axes and meet the
convention only through :func:`axis_index` (and the index tuples ``LOW``,
``HIGH``, ``FIRST``, ``LAST`` built from it once), :func:`sides` and
:func:`fluxes.adjacent_cells`.  Points meet it only through
:meth:`StructuredGrid.points`, which turns one coordinate array per grid
axis into the ``(x, y)`` pair that problem callbacks take, broadcastable
to the cell or face array (``y`` is 0.0 in 1D); every producer of points
(cell centers, face midpoints, the cells beside a face, quadrature
nodes, snapshots) goes through it.  Beyond these, only the calls that
hand an array axis to NumPy or index a shape write ``-1 - axis``: the
ghost layers of :func:`ghost_fill`, the seam layers of
:func:`fluxes.adjacent_cells`, :func:`fluxes.adjacent_slices`,
:func:`fluxes.face_array_shapes` and the per-axis transposes of the WENO
face values and :func:`metrics.cell_center_values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Ghost-layer width sufficient for every stencil used by the package
#: (five-cell reconstructions centered on either side of a face).
GHOST_WIDTH = 3

#: The boundary entry of a periodic axis; any other is a Dirichlet pair.
PERIODIC = "periodic"


def _boundary_entry(entry):
    """One axis's boundary entry, checked: :data:`PERIODIC`, or a Dirichlet
    pair ``(low, high)`` as two finite Python floats."""
    if isinstance(entry, str) and entry == PERIODIC:
        return entry
    pair = np.asarray(() if isinstance(entry, str) else entry, dtype=float)
    if pair.shape != (2,) or not np.all(np.isfinite(pair)):
        raise ValueError(f"boundary entry {entry!r} is neither {PERIODIC!r} "
                         "nor a pair of finite values")
    return tuple(pair.tolist())


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
    cells_per_axis : tuple of int
        Number of cells along each axis, ``(nx,)`` or ``(nx, ny)``; its
        length is the dimension :attr:`dim`, 1 or 2.
    domain_lo, domain_hi : tuple of float
        Physical coordinates of the box corners.
    boundary : tuple
        Per axis, :data:`PERIODIC` or the Dirichlet pair ``(low, high)`` of
        the values :func:`ghost_fill` puts beyond the two ends, stored as
        two finite Python floats so that the grid stays hashable.
    """

    cells_per_axis: tuple
    domain_lo: tuple
    domain_hi: tuple
    boundary: tuple

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        for name in ("domain_lo", "domain_hi", "boundary"):
            if len(getattr(self, name)) != self.dim:
                raise ValueError(f"{name} must have length dim={self.dim}")
        if any(n <= 0 for n in self.cells_per_axis):
            raise ValueError("cells_per_axis entries must be positive")
        if any(hi <= lo for lo, hi in zip(self.domain_lo, self.domain_hi)):
            raise ValueError("domain_hi must exceed domain_lo on every axis")
        object.__setattr__(self, "boundary",
                           tuple(map(_boundary_entry, self.boundary)))

    @cached_property
    def dim(self):
        """Spatial dimension, the number of grid axes."""
        return len(self.cells_per_axis)

    @cached_property
    def spacing(self):
        """Per-axis cell size ``(Δx,)`` or ``(Δx, Δy)``."""
        return tuple(
            (hi - lo) / n
            for lo, hi, n in zip(self.domain_lo, self.domain_hi, self.cells_per_axis)
        )

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
        """|S_ij| of a face with normal along ``axis``: the product of the
        other axes' spacings (1 in 1D)."""
        return math.prod((h for k, h in enumerate(self.spacing) if k != axis),
                         start=1.0)

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

    def points(self, per_axis):
        """The ``(x, y)`` pair that problem callbacks take, from one
        coordinate array per grid axis: array ``k`` becomes a read-only
        view along array axis ``-1-k``, so the pair broadcasts to a cell or
        face array; ``y`` is 0.0 in 1D."""
        coords = tuple(np.reshape(c, (-1,) + (1,) * k)
                       for k, c in enumerate(per_axis))
        for c in coords:
            c.setflags(write=False)
        return coords + (0.0,) * (2 - self.dim)

    def center_mesh(self):
        """Cell-center points ``(x, y)``, broadcastable to the cell shape."""
        return self.points([self.axis_centers(k) for k in range(self.dim)])

    def extended_axis_centers(self, axis, width):
        """Cell-center coordinates along ``axis`` including ``width`` ghost
        layers per side.  On a periodic axis the ghosts get the wrapped
        in-domain centers, where coefficient functions must be evaluated so
        that wrap faces see consistent data; on a Dirichlet axis, their
        true out-of-domain positions."""
        n = self.cells_per_axis[axis]
        idx = np.arange(-width, n + width)
        if self.boundary[axis] == PERIODIC:
            idx = idx % n
        return self.domain_lo[axis] + self.spacing[axis] * (idx + 0.5)


@dataclass
class CellField:
    """A scalar field of cell averages attached to a grid: the final state
    that :func:`harness.run` returns."""

    grid: StructuredGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape "
                f"{self.grid.shape}"
            )


def ghost_fill(values, grid, width=GHOST_WIDTH):
    """Extend the cell state ``values`` (an array of ``grid.shape``, or a
    stack of them along leading axes) with ``width`` ghost layers per side
    of every grid axis.

    Periodic axes copy wrapped interior values; a Dirichlet axis fills its
    low and high ghost layers with the two values of its pair in
    ``grid.boundary``.  Returns a plain ndarray of shape ``interior +
    2*width`` per grid axis, leading axes unchanged.

    Raises
    ------
    ValueError
        If the trailing axes of the values are not ``grid.shape``.
    """
    if width < 1:
        raise ValueError("ghost width must be >= 1")
    ext = np.asarray(values, dtype=float)
    if ext.shape[max(ext.ndim - grid.dim, 0):] != grid.shape:
        raise ValueError(f"values shape {ext.shape} does not match grid "
                         f"shape {grid.shape}")
    for axis, boundary in enumerate(grid.boundary):
        if boundary == PERIODIC:
            # Whole periods cover the layers even when width exceeds n.
            periods = -(-width // ext.shape[-1 - axis])
            tiled = (ext if periods == 1 else
                     np.concatenate((ext,) * periods, axis=-1 - axis))
            before = tiled[axis_index(axis, slice(-width, None))]
            after = tiled[axis_index(axis, slice(None, width))]
        else:
            shape = list(ext.shape)
            shape[-1 - axis] = width
            before, after = (np.full(shape, v) for v in boundary)
        ext = np.concatenate((before, ext, after), axis=-1 - axis)
    return ext
