"""Reference code for the tests: the grid walked one geometric face at a time.

This is reference code.  ``mppfv`` never imports it, and it shares no array
layout with the library: faces are :class:`FaceRecord` tuples enumerated one
by one, cells are index tuples ``(ix,)`` or ``(ix, iy)``, and the low-order
fluxes are evaluated on scalars, face by face.  The one bridge to the
library's per-axis face arrays is :func:`face_entry`, which reads a single
entry at a record.  Tests hold the library's whole-array kernels against
these walks.

Two oracles are of another kind, each an assembly the library replaced
and the tests hold bitwise equal to it: :func:`coo_pseudo_jacobian`
assembles the pseudo-Jacobian from the library's per-face derivatives
through a COO matrix, where :mod:`mppfv.solvers` writes a per-cell
stencil; :func:`nested_loop_cell_averages` projects the initial data with
one quadrature loop per dimension on full coordinate meshes, where
:func:`mppfv.problems.initial_cell_averages` runs one loop over broadcast
points.  A third, :func:`iex_chain_step`, is the extrapolation step in its
chain form (backward-Euler chains and the Aitken-Neville recurrence),
where :func:`mppfv.time_integration.iex_step` runs the DIRK stage loop on
the Runge-Kutta tableau; the two agree to roundoff and solver tolerance.

The WENO5 face values of :func:`reference_face_values_line` are a fourth
such oracle: the classic formulation (three candidates and three weights
per side, built by small helpers from the five stencil values) that
:func:`mppfv.weno.face_values_line` replaced with a kernel on shared
differences; the two agree to roundoff.
:func:`line_factorized_dense` is a fifth: the dense iteration matrix
``M = (D + X) D^{-1} (D + Y)`` that :mod:`mppfv.solvers` solves line by
line on a 2D stencil, its couplings read face record by face record.
:func:`blended_low_order` and :func:`blended_flux_derivatives` are a
sixth: the low-order flux, face speed, bar-state product and flux
derivatives written with the wave-speed bound and the diffusion as
separate terms, the bar state blended from the convective one by the
ratio ``2c/(lam^A d)``, where :mod:`mppfv.fluxes` forms one combined face
speed; the two agree to roundoff.

Last, helpers that only the tests use: the stage-MPP inequality of a
Butcher tableau, a reader for the snapshot CSV files of
:func:`mppfv.harness.snapshot`, and :func:`solve_one`, which runs one
stage solve through the stacked stage contract as a stack of one.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from mppfv.fluxes import (_wave_speeds, adjacent_cells,
                          adjacent_center_coordinates, adjacent_slices,
                          divergence, face_coordinates, tie_periodic_seam)
from mppfv.mesh import LAST, PERIODIC, ghost_fill
from mppfv.problems import _GL_NODES, _GL_WEIGHTS, LAMBDA_FLOOR
from mppfv.solvers import _axis_flux_derivatives
from mppfv.weno import EPS_WENO, LINEAR_WEIGHTS_RIGHT


# ---------------------------------------------------------------------------
# Face enumeration
# ---------------------------------------------------------------------------

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
    (nx,) = grid.cells_per_axis
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
    nx, ny = grid.cells_per_axis
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


def cell_slot(cell, grid):
    """Index of a face-record cell tuple into the cell-value array."""
    if grid.dim == 1:
        return (cell[0],)
    return (cell[1], cell[0])


# ---------------------------------------------------------------------------
# Reading the library's face arrays at a record
# ---------------------------------------------------------------------------

def face_entry(arrays, grid, face):
    """The entry at ``face`` of per-axis face arrays (a flux, a bar-state
    field, limiter coefficients), stored along +axis."""
    if grid.dim == 1:
        i = face.owner[0]
        index = (i + 1,) if face.normal > 0 else (0,)
    else:
        ix, iy = face.owner
        if face.axis == 0:
            index = (iy, ix + 1) if face.normal > 0 else (iy, 0)
        else:
            index = (iy + 1, ix) if face.normal > 0 else (0, ix)
    return arrays[face.axis][index]


def outward_value(flux, grid, face):
    """Flux through ``face`` of the per-axis face arrays ``flux``, oriented
    outward from its owner cell."""
    v = face_entry(flux, grid, face)
    return v if face.normal > 0 else -v


# ---------------------------------------------------------------------------
# Low-order fluxes through one face
# ---------------------------------------------------------------------------

def face_xy(face):
    x = face.midpoint[0]
    y = face.midpoint[1] if len(face.midpoint) > 1 else 0.0
    return x, y


def low_order_convective_flux(u_i, u_j, face, spec, t=0.0):
    """Rusanov flux ``n.(f(u_j)+f(u_i))/2 - lam^A (u_j - u_i)/2`` through one
    face, oriented outward from the owner cell (``u_i`` owner, ``u_j``
    neighbor)."""
    x, y = face_xy(face)
    lam = float(np.asarray(
        spec.wave_speed_bound(face.axis, u_i, u_j, u_i, u_j, x, y, t)))
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError("wave-speed bound must be positive and finite")
    lam = max(lam, LAMBDA_FLOOR)
    if spec.flux_at_cell_centers:
        shift = 0.5 * face.normal * face.spacing
        ci = [x, y]
        cj = [x, y]
        ci[face.axis] -= shift
        cj[face.axis] += shift
        f_i = float(np.asarray(spec.flux(face.axis, u_i, ci[0], ci[1], t)))
        f_j = float(np.asarray(spec.flux(face.axis, u_j, cj[0], cj[1], t)))
    else:
        f_i = float(np.asarray(spec.flux(face.axis, u_i, x, y, t)))
        f_j = float(np.asarray(spec.flux(face.axis, u_j, x, y, t)))
    return face.normal * 0.5 * (f_j + f_i) - 0.5 * lam * (u_j - u_i)


def low_order_diffusive_flux(u_i, u_j, face, spec):
    """``c_ij (u_j - u_i)/|x_j - x_i|`` with ``c_ij`` evaluated at the mean
    state and the face midpoint, oriented outward from the owner cell."""
    x, y = face_xy(face)
    c = float(np.asarray(spec.diffusion(0.5 * (u_i + u_j), x, y)))
    return c * (u_j - u_i) / face.spacing


# ---------------------------------------------------------------------------
# Cell sums and the Zalesak limiter, walked over the records
# ---------------------------------------------------------------------------

def divergence_by_face_loop(flux, grid):
    """Slow-path divergence: walk the geometric face records one by one."""
    div = np.zeros(grid.shape)
    for face in faces(grid):
        outward = outward_value(flux, grid, face) * face.area / grid.cell_volume
        div[cell_slot(face.owner, grid)] += outward
        if face.neighbor is not None:
            div[cell_slot(face.neighbor, grid)] -= outward
    return div


def outward_sums_by_face_loop(flux, grid):
    """Cellwise ``(sum |S| max(0, dG_outward), sum |S| min(0, dG_outward))``,
    walked over the face records."""
    p_plus = np.zeros(grid.shape)
    p_minus = np.zeros(grid.shape)
    for f in faces(grid):
        v = outward_value(flux, grid, f) * f.area
        p_plus[cell_slot(f.owner, grid)] += max(0.0, v)
        p_minus[cell_slot(f.owner, grid)] += min(0.0, v)
        if f.neighbor is not None:
            p_plus[cell_slot(f.neighbor, grid)] += max(0.0, -v)
            p_minus[cell_slot(f.neighbor, grid)] += min(0.0, -v)
    return p_plus, p_minus


def zalesak_by_face_records(flux, q_minus, q_plus, grid):
    """The limiter written as a per-record walk over the geometric faces."""
    p_plus, p_minus = outward_sums_by_face_loop(flux, grid)
    recs = list(faces(grid))

    def r_plus(cell):
        p = p_plus[cell_slot(cell, grid)]
        return min(1.0, q_plus[cell_slot(cell, grid)] / p) if p > 0 else 1.0

    def r_minus(cell):
        p = p_minus[cell_slot(cell, grid)]
        return min(1.0, q_minus[cell_slot(cell, grid)] / p) if p < 0 else 1.0

    return p_plus, p_minus, r_plus, r_minus, recs


def zalesak_alpha_oracle(flux, q_minus, q_plus, grid):
    """Face-record restatement of the coefficient rule: a list of
    ``(FaceRecord, alpha)``."""
    p_plus, p_minus, r_plus, r_minus, recs = zalesak_by_face_records(
        flux, q_minus, q_plus, grid)
    out = []
    for f in recs:
        dg = f.normal * outward_value(flux, grid, f)  # value stored along +axis
        lo, hi = (f.owner, f.neighbor) if f.normal > 0 else (f.neighbor, f.owner)
        rp_lo = r_plus(lo) if lo is not None else 1.0
        rm_lo = r_minus(lo) if lo is not None else 1.0
        rp_hi = r_plus(hi) if hi is not None else 1.0
        rm_hi = r_minus(hi) if hi is not None else 1.0
        alpha = min(rp_lo, rm_hi) if dg >= 0.0 else min(rm_lo, rp_hi)
        out.append((f, alpha))
    return out


def outward_limited_sums(alphas, flux, grid):
    """Cellwise ``sum |S| alpha dG`` (outward), via the face records."""
    total = np.zeros(grid.shape)
    for f in faces(grid):
        v = face_entry(alphas, grid, f) * outward_value(flux, grid, f) * f.area
        total[cell_slot(f.owner, grid)] += v
        if f.neighbor is not None:
            total[cell_slot(f.neighbor, grid)] -= v
    return total


# ---------------------------------------------------------------------------
# The low-order flux with separate speed and diffusion terms
# ---------------------------------------------------------------------------

class BlendedFaces(NamedTuple):
    """The face data of one axis that the blended formulas read: the
    adjacent states, the wave-speed bound ``lam_a``, the diffusion ``c``
    at the mean state and its derivative ``cp``, the flux ``fa``/``fb``
    and its derivative ``fpa``/``fpb`` of each side, and the spacing."""

    ua: np.ndarray
    ub: np.ndarray
    lam_a: np.ndarray
    c: np.ndarray
    cp: np.ndarray
    fa: np.ndarray
    fb: np.ndarray
    fpa: np.ndarray
    fpb: np.ndarray
    spacing: float


def blended_faces(u, spec, grid, t=0.0):
    """Per axis, the :class:`BlendedFaces` of the state (or stack of
    states) ``u`` at time ``t``."""
    u_ext = ghost_fill(u, grid, width=1)
    out = []
    for axis in range(grid.dim):
        lo, hi = adjacent_slices(grid, 1, axis)
        ua, ub = u_ext[lo], u_ext[hi]
        xy = face_coordinates(grid, axis)
        a_xy, b_xy = (adjacent_center_coordinates(grid, axis)
                      if spec.flux_at_cell_centers else (xy, xy))
        u_mid = 0.5 * (ua + ub)

        def array(value):
            return np.broadcast_to(np.asarray(value, dtype=float), ua.shape)

        out.append(BlendedFaces(
            ua, ub, _wave_speeds(spec, axis, ua, ub, ua, ub, *xy, t),
            array(spec.diffusion(u_mid, *xy)),
            array(spec.diffusion_derivative(u_mid, *xy)),
            array(spec.flux(axis, ua, *a_xy, t)),
            array(spec.flux(axis, ub, *b_xy, t)),
            array(spec.flux_derivative(axis, ua, *a_xy, t)),
            array(spec.flux_derivative(axis, ub, *b_xy, t)),
            grid.spacing[axis]))
    return out


def blended_low_order(u, spec, grid, t=0.0):
    """Per axis, ``(G^L, lam, lam ubar)`` by the blended formulas: ``G^L``
    with separate wave-speed and diffusion terms, ``ratio = 2c/(lam_a d)``,
    ``lam = lam_a (1 + ratio)`` and the bar state ``ubar = (ubar_a + ratio
    u_mid)/(1 + ratio)`` of the convective one ``ubar_a = u_mid - (fb -
    fa)/(2 lam_a)``; periodic seams tied as the library ties them."""
    out = []
    for axis, f in enumerate(blended_faces(u, spec, grid, t)):
        u_mid = 0.5 * (f.ua + f.ub)
        G = (0.5 * (f.fa + f.fb) - 0.5 * f.lam_a * (f.ub - f.ua)
             - f.c * (f.ub - f.ua) / f.spacing)
        ubar_a = u_mid - (f.fb - f.fa) / (2.0 * f.lam_a)
        ratio = 2.0 * f.c / (f.lam_a * f.spacing)
        lam = f.lam_a * (1.0 + ratio)
        ubar = (ubar_a + ratio * u_mid) / (1.0 + ratio)
        out.append(tuple(tie_periodic_seam(v, grid, axis)
                         for v in (G, lam, lam * ubar)))
    return out


def blended_flux_derivatives(u, spec, grid, t=0.0):
    """Per axis, ``(dG/du_L, dG/du_R)`` of the low-order flux with separate
    wave-speed and diffusion terms, ``f'/2 ± lam_a/2 ± c/d - c' slope/2``
    (``slope = (u_R - u_L)/d``); the seams are not tied, as
    ``solvers._axis_flux_derivatives`` leaves them."""
    out = []
    for f in blended_faces(u, spec, grid, t):
        slope = (f.ub - f.ua) / f.spacing
        diffusive = f.c / f.spacing
        out.append((0.5 * f.fpa + 0.5 * f.lam_a + diffusive
                    - 0.5 * f.cp * slope,
                    0.5 * f.fpb - 0.5 * f.lam_a - diffusive
                    - 0.5 * f.cp * slope))
    return out


# ---------------------------------------------------------------------------
# The pseudo-Jacobian through a COO matrix
# ---------------------------------------------------------------------------

def _face_adjacent_ids(grid, axis):
    """Flattened cell ids on the low/high side of each face of ``axis``,
    with -1 marking a ghost side, and the mask of faces to assemble (on
    periodic axes the wrap face is counted once, at the near array end)."""
    ids = np.arange(grid.num_cells).reshape(grid.shape)
    low, high = adjacent_cells(ids, grid, axis, -1)
    use = np.ones(low.shape, dtype=bool)
    if grid.boundary[axis] == PERIODIC:
        use[LAST[axis]] = False
    return low.ravel(), high.ravel(), use.ravel()


def coo_pseudo_jacobian(field_in, spec, grid, scale, t=0.0):
    """``J = I + (scale/|K_i|) sum_faces |S| dG^L/du_j`` as a canonical CSR
    matrix, assembled from (row, column, value) triplets whose duplicates
    scipy sums in triplet order.  The identity goes into the same batch, so
    the explicit zeros of one-sided couplings stay in the pattern."""
    u_ext = ghost_fill(field_in, grid, width=1)
    rows, cols, vals = [], [], []
    for axis in range(grid.dim):
        dGdL, dGdR = _axis_flux_derivatives(u_ext, spec, grid, axis, t)
        low, high, use = _face_adjacent_ids(grid, axis)
        dL = dGdL.ravel()[use]
        dR = dGdR.ravel()[use]
        L, R = low[use], high[use]
        coef = scale / grid.spacing[axis]
        mL, mR = L >= 0, R >= 0
        both = mL & mR
        # Row of the low-side cell: the face is outward-oriented (+axis).
        rows.append(L[mL]);   cols.append(L[mL]);   vals.append(coef * dL[mL])
        rows.append(L[both]); cols.append(R[both]); vals.append(coef * dR[both])
        # Row of the high-side cell: the same face is inward (-axis).
        rows.append(R[mR]);   cols.append(R[mR]);   vals.append(-coef * dR[mR])
        rows.append(R[both]); cols.append(L[both]); vals.append(-coef * dL[both])
    N = grid.num_cells
    rows.append(np.arange(N))
    cols.append(np.arange(N))
    vals.append(np.ones(N))
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N)).tocsr()
    A.sum_duplicates()
    return A


def line_factorized_dense(stencil, grid):
    """The dense iteration matrix ``M = (D + X) D^{-1} (D + Y)`` of a 2D
    pseudo-Jacobian ``stencil``, with ``D`` its diagonal and ``X``, ``Y``
    its couplings across the x- and the y-faces, read one face record at a
    time (the two couplings of a face: the owner's to its next cell, the
    neighbor's to its previous one).  Returns ``(M, D + X + Y)``."""
    n = grid.num_cells
    d = np.diag(stencil[0].ravel())
    couplings = [np.zeros((n, n)), np.zeros((n, n))]
    for face in faces(grid):
        if face.neighbor is None:
            continue
        low, high = (cell_slot(cell, grid)
                     for cell in (face.owner, face.neighbor))
        i, j = (np.ravel_multi_index(cell, grid.shape)
                for cell in (low, high))
        couplings[face.axis][i, j] += stencil[2 + 2 * face.axis][low]
        couplings[face.axis][j, i] += stencil[1 + 2 * face.axis][high]
    x, y = couplings
    return (d + x) @ np.linalg.inv(d) @ (d + y), d + x + y


# ---------------------------------------------------------------------------
# Cell averages, one quadrature loop per dimension
# ---------------------------------------------------------------------------

def nested_loop_cell_averages(spec, grid):
    """Cell averages of the initial data by the per-axis 5-point
    Gauss-Legendre rule: a loop over the x nodes in 1D; in 2D, nested loops
    (x outer) on ``np.meshgrid`` arrays, the weights multiplied x first."""
    vals = np.zeros(grid.shape)
    if grid.dim == 1:
        x = grid.axis_centers(0)
        h = grid.spacing[0]
        for node, w in zip(_GL_NODES, _GL_WEIGHTS):
            vals += w * spec.initial_condition(x + node * h, 0.0)
        return vals
    X, Y = np.meshgrid(grid.axis_centers(0), grid.axis_centers(1),
                       indexing="xy")
    hx, hy = grid.spacing
    for nx_, wx in zip(_GL_NODES, _GL_WEIGHTS):
        for ny_, wy in zip(_GL_NODES, _GL_WEIGHTS):
            vals += wx * wy * spec.initial_condition(X + nx_ * hx,
                                                     Y + ny_ * hy)
    return vals


# ---------------------------------------------------------------------------
# The extrapolation step as backward-Euler chains
# ---------------------------------------------------------------------------

def solve_one(stage_solver, reference, step_dt, stage_time, guess):
    """One stage of a stage solver (the stacked contract of
    :func:`mppfv.time_integration.dirk_step`) as a stack of one member:
    returns its ``(y, flux, SolverReport)`` with the member axis dropped."""
    member = (1,) * (np.ndim(reference) + 1)
    y, flux, reports = stage_solver(
        np.asarray(reference)[None], np.full(member, step_dt),
        np.full(member, stage_time), np.asarray(guess)[None])
    assert len(reports) == 1
    return y[0], tuple(f[0] for f in flux), reports[0]


def iex_chain_step(u_n, p, stage_solver, dt, grid, t=0.0):
    """One IEX-p step in chain form.

    For k = 1..p, k backward-Euler substeps of size dt/k are chained, each
    solved alone by the stage solver (:func:`solve_one`) with reference and
    guess the previous chain state; the next chain state is
    rebuilt from the substep's flux, ``y - (dt/k) div flux``.  The chain
    results and the chains' averaged fluxes are extrapolated by the
    Aitken-Neville recurrence

        T_jk = T_{j,k-1} + (T_{j,k-1} - T_{j-1,k-1}) / (j/(j-k+1) - 1).

    Returns ``(u^n - dt div F_pp, F_pp, T_pp, chain states)``, the flux a
    per-axis tuple of face arrays of ``grid`` and the chain states arrays
    in chain order.
    """
    u0 = np.asarray(u_n, dtype=float)
    T, F, chain_states = {}, {}, []
    for k in range(1, p + 1):
        y, flux_sum = u0, None
        for j in range(1, k + 1):
            _, flux, _ = solve_one(stage_solver, y, dt / k, t + j * dt / k, y)
            y = y - (dt / k) * divergence(flux, grid)
            chain_states.append(y)
            flux_sum = flux if flux_sum is None else tuple(
                a + b for a, b in zip(flux_sum, flux))
        T[(k, 1)] = y
        F[(k, 1)] = tuple(a * (1.0 / k) for a in flux_sum)
    for k in range(2, p + 1):
        for j in range(k, p + 1):
            w = 1.0 / (j / (j - k + 1) - 1.0)
            T[(j, k)] = T[(j, k - 1)] + w * (T[(j, k - 1)] - T[(j - 1, k - 1)])
            F[(j, k)] = tuple(a + w * (a - b) for a, b in
                              zip(F[(j, k - 1)], F[(j - 1, k - 1)]))
    flux_pp = F[(p, p)]
    return (u0 - dt * divergence(flux_pp, grid), flux_pp, T[(p, p)],
            chain_states)


# ---------------------------------------------------------------------------
# WENO5 face values, one candidate and one weight at a time
# ---------------------------------------------------------------------------

def _smoothness_indicators(v0, v1, v2, v3, v4):
    """Classic smoothness indicators of the three quadratic sub-stencils."""
    b0 = 13.0 / 12.0 * (v0 - 2.0 * v1 + v2) ** 2 + 0.25 * (v0 - 4.0 * v1 + 3.0 * v2) ** 2
    b1 = 13.0 / 12.0 * (v1 - 2.0 * v2 + v3) ** 2 + 0.25 * (v1 - v3) ** 2
    b2 = 13.0 / 12.0 * (v2 - 2.0 * v3 + v4) ** 2 + 0.25 * (3.0 * v2 - 4.0 * v3 + v4) ** 2
    return b0, b1, b2


def _candidates_right(v0, v1, v2, v3, v4):
    """Sub-stencil quadratic values at the right face of the center cell."""
    p0 = (2.0 * v0 - 7.0 * v1 + 11.0 * v2) / 6.0
    p1 = (-v1 + 5.0 * v2 + 2.0 * v3) / 6.0
    p2 = (2.0 * v2 + 5.0 * v3 - v4) / 6.0
    return p0, p1, p2


def _candidates_left(v0, v1, v2, v3, v4):
    """Sub-stencil quadratic values at the left face of the center cell."""
    p0 = (-v0 + 5.0 * v1 + 2.0 * v2) / 6.0
    p1 = (2.0 * v1 + 5.0 * v2 - v3) / 6.0
    p2 = (11.0 * v2 - 7.0 * v3 + 2.0 * v4) / 6.0
    return p0, p1, p2


def _nonlinear_weights(b0, b1, b2, side):
    """Normalized weights of the right (``side > 0``) or left face."""
    d = LINEAR_WEIGHTS_RIGHT if side > 0 else LINEAR_WEIGHTS_RIGHT[::-1]
    a0 = d[0] / (EPS_WENO + b0) ** 2
    a1 = d[1] / (EPS_WENO + b1) ** 2
    a2 = d[2] / (EPS_WENO + b2) ** 2
    s = a0 + a1 + a2
    return a0 / s, a1 / s, a2 / s


def reference_face_values_line(v_ext, ghost=3):
    """Both-side WENO face values along the last axis, with the signature
    and output layout of :func:`mppfv.weno.face_values_line`."""
    if ghost < 3:
        raise ValueError("face_values_line needs at least 3 ghost layers")
    m = v_ext.shape[-1]
    n = m - 2 * ghost
    lo = ghost - 3  # shift so exactly 3 ghost layers are consumed
    s0 = v_ext[..., lo + 0 : lo + n + 2]
    s1 = v_ext[..., lo + 1 : lo + n + 3]
    s2 = v_ext[..., lo + 2 : lo + n + 4]
    s3 = v_ext[..., lo + 3 : lo + n + 5]
    s4 = v_ext[..., lo + 4 : lo + n + 6]
    b0, b1, b2 = _smoothness_indicators(s0, s1, s2, s3, s4)

    w0, w1, w2 = _nonlinear_weights(b0, b1, b2, +1)
    p0, p1, p2 = _candidates_right(s0, s1, s2, s3, s4)
    right = w0 * p0 + w1 * p1 + w2 * p2  # right-face value of each center cell

    w0, w1, w2 = _nonlinear_weights(b0, b1, b2, -1)
    p0, p1, p2 = _candidates_left(s0, s1, s2, s3, s4)
    left = w0 * p0 + w1 * p1 + w2 * p2  # left-face value of each center cell

    # Center cells run from interior index -1 to n; face k takes the right
    # face of cell k-1 (minus side) and the left face of cell k (plus side).
    return right[..., 0 : n + 1], left[..., 1 : n + 2]


# ---------------------------------------------------------------------------
# Butcher-tableau checks
# ---------------------------------------------------------------------------

def check_ssp_stages(tableau, mu, tol=1e-12):
    """Stage-MPP inequality: with ``X = (I + mu*A)^{-1}``, return True iff
    ``A@X >= 0`` entrywise and ``(A@X)@e <= e`` entrywise.

    Methods passing this for arbitrarily large ``mu`` have unconditionally
    MPP stages when the semi-discretization is MPP under forward Euler.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``I + mu*A`` is singular.
    """
    M = tableau.stages
    X = np.linalg.solve(np.eye(M) + mu * tableau.A, np.eye(M))
    AX = tableau.A @ X
    return bool(np.all(AX >= -tol) and np.all(AX @ np.ones(M) <= 1.0 + tol))


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------

def read_snapshot(path):
    """Read a snapshot CSV back into coordinate and value arrays."""
    rows = Path(path).read_text().strip().splitlines()
    header = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    return header, data
