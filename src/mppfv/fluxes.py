"""Numerical face fluxes and bar states.

For the conservation law ``u_t + div f = div(c grad u)`` on a structured
grid, this module assembles, for every geometric face at once (there is no
one-face-at-a-time path),

* the combined low-order face speed ``lam = lam^A + 2 c_ij/|x_j - x_i|``:
  the wave-speed bound ``lam^A`` plus the diffusion ``c_ij =
  c((u_i+u_j)/2)`` at the face over the distance of the two centers,
* the low-order flux ``G^L = n.(f_i + f_j)/2 - lam (u_j - u_i)/2``, the
  local Lax-Friedrichs (Rusanov) convective flux minus the diffusive flux
  ``c_ij (u_j - u_i)/|x_j - x_i|``,
* the bar-state product ``lam ubar = lam (u_i+u_j)/2 - n.(f_j - f_i)/2``
  of the bar state ``ubar`` of the GMC form (Kuzmin, CMAME 361, 2020),
  which lies between ``u_i`` and ``u_j`` when ``lam^A`` bounds the wave
  speed.  The GMC limiter only ever sums this product, so it is all that
  is formed.  Speed and product satisfy
  ``sum_j |S_ij| lam_ij (ubar_ij - u_i) = -sum_j |S_ij| G^L_ij`` cellwise
  where the cell's own flux cancels, ``sum_j |S_ij| n.f(u_i, x_ij) = 0``
  at the points ``x_ij`` where ``f`` is sampled: for every ``f`` without
  x-dependence or sampled at cell centers, and the builtin velocities on
  square cells, not vortex2d's where dx != dy (ROADMAP item 4).  That is
  the identity behind the local-extremum-diminishing low-order scheme and
  the GMC diagonal map; :func:`low_order_with_bars` returns ``G^L``,
  ``lam`` and ``lam ubar`` from one pass, and the GMC limiter sums the
  last two per cell,
* the high-order flux ``G^H = F^H - P^H`` built from fifth-order WENO face
  values (Rusanov form on the two reconstructed point values) and the
  linear fourth-order face derivative with the diffusion coefficient
  averaged over the two reconstructed states.

Storage convention: face data are plain tuples of per-axis arrays (see
:func:`face_array_shapes`).  The array of an axis holds the flux *along the
positive axis direction* at every face plane, laid out like a cell state
(grid axis ``k`` is array axis ``-1-k``, see :mod:`mesh`) with one more
entry along the face normal: shape ``(nx+1,)`` in 1D and ``(ny, nx+1)`` /
``(ny+1, nx)`` for x-/y-faces in 2D.  Face speeds, bar states and limiter
coefficients use the same layout; :func:`divergence` gives the cell balance
of a flux.  On periodic axes the wrap face appears at both array ends; the
far entry is copied bitwise from the near one so every geometric face has
exactly one computed value and antisymmetry ``G_ij = -G_ji`` is exact.
:func:`adjacent_cells` gives the two cells of every face; the kernels
between face and cell arrays are one loop over grid axes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import weno
from .mesh import (FIRST, GHOST_WIDTH, LAST, PERIODIC, axis_index,
                   ghost_fill, sides)
from .problems import LAMBDA_FLOOR


# ---------------------------------------------------------------------------
# Face-array geometry helpers
# ---------------------------------------------------------------------------

def face_array_shapes(grid):
    """Per-axis shapes of the face arrays: the cell shape with one more
    entry along the face normal."""
    cells = grid.shape
    shapes = []
    for axis in range(grid.dim):
        shape = list(cells)
        shape[-1 - axis] += 1
        shapes.append(tuple(shape))
    return tuple(shapes)


@functools.lru_cache(maxsize=16)
def face_coordinates(grid, axis):
    """Face-midpoint points ``(x, y)`` of ``axis``, broadcastable to its
    face-array shape; computed once per grid and read-only."""
    per_axis = [grid.axis_centers(k) for k in range(grid.dim)]
    per_axis[axis] = grid.axis_faces(axis)
    return grid.points(per_axis)


@functools.lru_cache(maxsize=16)
def adjacent_center_coordinates(grid, axis):
    """Cell-center points ``((xa, ya), (xb, yb))`` of the two cells
    adjacent to each face of ``axis``, broadcastable to its face-array
    shape; periodic ghost cells get wrapped in-domain coordinates.
    Computed once per grid and read-only."""
    n = grid.cells_per_axis[axis]
    ext = grid.extended_axis_centers(axis, 1)
    per_axis = [grid.axis_centers(k) for k in range(grid.dim)]
    out = []
    for centers in (ext[: n + 1], ext[1:]):
        per_axis[axis] = centers
        out.append(grid.points(per_axis))
    return tuple(out)


def adjacent_slices(grid, width, axis):
    """Index tuples selecting, from a ghost-extended array (or a stack of
    them along leading axes), the low-side and high-side cell values of
    every face of ``axis`` (face-array shape)."""
    lo = [Ellipsis] + [slice(width, width + n) for n in grid.shape]
    hi = lo.copy()
    n = grid.cells_per_axis[axis]
    lo[-1 - axis] = slice(width - 1, width + n)
    hi[-1 - axis] = slice(width, width + n + 1)
    return tuple(lo), tuple(hi)


def adjacent_cells(values, grid, axis, fill):
    """The low-side and high-side cell values of every face of ``axis``
    (face-array shape): the wrapped cell across a periodic seam, ``fill``
    beyond a Dirichlet boundary."""
    first, last = values[FIRST[axis]], values[LAST[axis]]
    if grid.boundary[axis] == PERIODIC:
        before, after = last, first
    else:
        before = after = np.full_like(first, fill)
    return sides(np.concatenate((before, values, after), axis=-1 - axis), axis)


def tie_periodic_seam(arr, grid, axis):
    """Copy the near wrap-face entry over the far one (in place) so both
    array ends of a periodic axis hold bitwise-identical values."""
    if grid.boundary[axis] == PERIODIC:
        arr[LAST[axis]] = arr[FIRST[axis]]
    return arr


# ---------------------------------------------------------------------------
# Face fluxes
# ---------------------------------------------------------------------------

def divergence(faces, grid):
    """Per-cell ``(1/|K_i|) sum_j |S_ij| G_ij`` (outward) of the per-axis
    face arrays ``faces``."""
    spacing = grid.spacing
    for axis, G in enumerate(faces):
        low, high = sides(G, axis)
        term = (high - low) / spacing[axis]
        out = term if axis == 0 else out + term
    return out


def check_finite(faces):
    """Raise ``ValueError`` unless every face value of ``faces`` is finite."""
    if not all(np.isfinite(a).all() for a in faces):
        raise ValueError("non-finite face flux")


@dataclass
class FaceFluxSet:
    """Per-axis face fluxes with checked shapes and finite values.

    The package passes face fluxes as plain tuples and builds none of
    these; the benchmark's tracer counts their constructions.
    """

    grid: object
    arrays: tuple

    def __post_init__(self):
        self.arrays = tuple(np.asarray(a, dtype=float) for a in self.arrays)
        shapes = tuple(a.shape for a in self.arrays)
        if shapes != face_array_shapes(self.grid):
            raise ValueError(f"face array shapes {shapes}, expected "
                             f"{face_array_shapes(self.grid)}")
        check_finite(self.arrays)


# ---------------------------------------------------------------------------
# Wave-speed evaluation
# ---------------------------------------------------------------------------

def _wave_speeds(spec, axis, ua, ub, ra, rb, xf, yf, t):
    lam = np.asarray(spec.wave_speed_bound(axis, ua, ub, ra, rb, xf, yf, t),
                     dtype=float)
    # NaN fails both comparisons.
    if not (lam.min() > 0.0 and lam.max() < np.inf):
        raise ValueError("wave-speed bound must be positive and finite")
    return np.maximum(lam, LAMBDA_FLOOR)


# ---------------------------------------------------------------------------
# Low-order assembly
# ---------------------------------------------------------------------------

def _face_states(u_ext, spec, grid, axis, t):
    """Face data shared by the low-order flux of ``axis`` and its
    pseudo-Jacobian, so the Jacobian differentiates exactly the flux the
    residual uses: ``(ua, ub, face_xy, a_xy, b_xy, lam, u_mid)``, the
    adjacent states of a one-ghost-layer array, the face coordinates, the
    flux sampling coordinates of each side, the combined face speed
    ``lam = lam^A + 2 c/d`` (the wave-speed bound and the diffusion at the
    mean state over the spacing) and the mean state."""
    lo, hi = adjacent_slices(grid, 1, axis)
    ua, ub = u_ext[lo], u_ext[hi]
    face_xy = face_coordinates(grid, axis)
    lam_a = _wave_speeds(spec, axis, ua, ub, ua, ub, *face_xy, t)
    if spec.flux_at_cell_centers:
        a_xy, b_xy = adjacent_center_coordinates(grid, axis)
    else:
        a_xy = b_xy = face_xy
    u_mid = 0.5 * (ua + ub)
    c_mid = np.asarray(spec.diffusion(u_mid, *face_xy), dtype=float)
    lam = lam_a + 2.0 * c_mid / grid.spacing[axis]
    return ua, ub, face_xy, a_xy, b_xy, lam, u_mid


def _axis_low_order(u_ext, spec, grid, axis, t):
    """``(G^L, lam, lam ubar)`` on the faces of ``axis``."""
    ua, ub, _, a_xy, b_xy, lam, u_mid = _face_states(u_ext, spec, grid,
                                                     axis, t)
    fa = np.asarray(spec.flux(axis, ua, *a_xy, t), dtype=float)
    fb = np.asarray(spec.flux(axis, ub, *b_xy, t), dtype=float)
    G = 0.5 * (fa + fb) - 0.5 * lam * (ub - ua)
    lam_ubar = lam * u_mid - 0.5 * (fb - fa)
    return tuple(tie_periodic_seam(v, grid, axis) for v in (G, lam, lam_ubar))


def low_order_with_bars(values, spec, grid, t=0.0):
    """Low-order fluxes and bar states of the cell state ``values`` (an
    array of ``grid.shape``) in one pass.

    Returns ``(G^L, lam, lam ubar)``, each a per-axis tuple of face arrays:
    the flux ``G^L = n.(f_i + f_j)/2 - lam (u_j - u_i)/2``, the combined
    face speed ``lam = lam^A + 2 c_ij/|x_j - x_i|`` and the bar-state
    product ``lam ubar = lam (u_i + u_j)/2 - n.(f_j - f_i)/2``.
    """
    u_ext = ghost_fill(values, grid, width=1)
    return tuple(zip(*(_axis_low_order(u_ext, spec, grid, axis, t)
                       for axis in range(grid.dim))))


# ---------------------------------------------------------------------------
# High-order assembly
# ---------------------------------------------------------------------------

#: Per grid axis, the interior of a ``GHOST_WIDTH``-extended array along it.
_INTERIOR = tuple(axis_index(k, slice(GHOST_WIDTH, -GHOST_WIDTH))
                  for k in range(2))


def _axis_high_order(u_ext, spec, grid, axis, t):
    w = GHOST_WIDTH
    line = u_ext
    for other in range(grid.dim):
        if other != axis:
            line = line[_INTERIOR[other]]
    # The WENO kernels reconstruct along the last array axis, fastest on
    # contiguous rows; both read this one copy.
    line = np.ascontiguousarray(line.swapaxes(-1, -1 - axis))
    um, up = weno.face_values_line(line, ghost=w)
    dP = weno.face_derivatives_line(line, grid.spacing[axis], ghost=w)
    um, up, dP = (v.swapaxes(-1, -1 - axis) for v in (um, up, dP))

    lo, hi = adjacent_slices(grid, w, axis)
    ua, ub = u_ext[lo], u_ext[hi]
    xf, yf = face_coordinates(grid, axis)
    lam = _wave_speeds(spec, axis, ua, ub, um, up, xf, yf, t)

    # G^H = (f(um) + f(up) - lam (up - um) - (c(um) + c(up)) dP) / 2, in
    # place on the two arrays made here: callbacks may return shared or
    # read-only arrays, and ``um`` or ``up`` themselves.
    GH = np.add(spec.flux(axis, um, xf, yf, t), spec.flux(axis, up, xf, yf, t),
                dtype=float)
    tmp = np.subtract(up, um)
    tmp *= lam
    GH -= tmp
    np.add(spec.diffusion(um, xf, yf), spec.diffusion(up, xf, yf), out=tmp)
    tmp *= dP
    GH -= tmp
    GH *= 0.5
    return tie_periodic_seam(GH, grid, axis)


def high_order_flux(values, spec, grid, t=0.0):
    """``F^H - P^H`` per face: Rusanov form on the two WENO face values minus
    the reconstructed diffusive flux (fourth-order face derivative times the
    average of the diffusion coefficient at the two reconstructed states),
    a per-axis tuple of face arrays."""
    u_ext = ghost_fill(values, grid, width=GHOST_WIDTH)
    return tuple(_axis_high_order(u_ext, spec, grid, axis, t)
                 for axis in range(grid.dim))
