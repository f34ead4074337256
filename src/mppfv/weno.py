"""Fifth-order WENO reconstruction from cell averages.

Provides point values at cell-face midpoints (nonlinearly weighted, classic
fifth-order construction on a five-cell stencil), first derivatives at face
midpoints (linear four-cell formula, see below), and the linear degree-4
cell-average-to-center-point conversion used by error metrics.

Face values use three quadratic sub-stencil candidates combined with
smoothness-indicator weights: linear weights (1/10, 3/5, 3/10) at the right
face (mirrored at the left face), classic smoothness indicators,
regularization ``EPS_WENO = 1e-6``, weight exponent 2 (Jiang & Shu, JCP 126,
1996).  :func:`face_values_line` evaluates them in a shared-difference form:
the first and second differences of the line are formed once, every
smoothness indicator and every regularized reciprocal ``1/(EPS_WENO +
beta)^2`` once per cell (both faces of a cell use it), and only four
quadratic values per face, since the low-side cell's second and third
candidates at a face are the high-side cell's first and second.  Each side
is normalized by one division.  The result equals the textbook sequence of
operations to roundoff, not bitwise.

Face derivatives use the unique five-cell formula of order >= 4,

    u'(x_{i+1/2}) ~= (v_{i-1} - 15 v_i + 15 v_{i+1} - v_{i+2}) / (12 h),

the derivative of the cubic interpolating the four cell averages centered on
the face.  Its coefficients are antisymmetric about the face, which makes it
exact for cell averages of polynomials through degree 4 (odd part: cubic
reproduction; degree-4 even part: cancels by antisymmetry).  No three-cell
sub-stencil combination can exceed second order for the face derivative, so
the nonlinear weighting used for values degenerates here and the linear
formula is used directly, one value per face.

The public kernels work on whole lines of a ghost-extended array: they are
vectorized over leading array dimensions, reconstruct along the last axis,
and return one entry per face (values and derivatives) or per cell (center
values).  A single five-cell stencil ``v`` is the line ``[0, *v, 0]`` with
``ghost=3``: of ``um, up = face_values_line(...)``, ``um[1]`` is the center
cell's right-face value and ``up[0]`` its left-face value.

The kernels write their temporaries in place, but only into arrays they
allocated in the same call: the input line (often a view of a ghost-filled
state) is only read, and no buffer outlives a call.
"""

from __future__ import annotations

import numpy as np

#: Regularization added to smoothness indicators before weighting.
EPS_WENO = 1e-6

#: Linear (optimal) weights for the right-face value; the left face uses the
#: reverse order.
LINEAR_WEIGHTS_RIGHT = (0.1, 0.6, 0.3)

#: Coefficients of the degree-4 cell-average -> center-point conversion.
CENTER_STENCIL = np.array([9.0, -116.0, 2134.0, -116.0, 9.0]) / 1920.0


# ---------------------------------------------------------------------------
# Vectorized kernels on ghost-extended arrays (last axis = reconstruction
# axis).  An input with n interior cells and g >= 3 ghosts per side yields
# n + 1 face positions (face k sits between interior cells k-1 and k).
# ---------------------------------------------------------------------------

def face_values_line(v_ext, ghost=3):
    """Both–side WENO face values along the last axis.

    Parameters
    ----------
    v_ext : ndarray (..., n + 2*ghost)
        Cell averages with ``ghost >= 3`` ghost layers on each side.

    Returns
    -------
    u_minus, u_plus : ndarray (..., n + 1)
        ``u_minus[..., k]`` is the reconstruction at face k from the low-side
        cell (its right-face value); ``u_plus[..., k]`` from the high-side
        cell (its left-face value).
    """
    if ghost < 3:
        raise ValueError("face_values_line needs at least 3 ghost layers")
    m = v_ext.shape[-1]
    n = m - 2 * ghost
    lo = ghost - 3  # shift so exactly 3 ghost layers are consumed
    # The kernel runs along the flattened line: v[r*m + j] is entry lo + j of
    # row r, row r's faces are entries r*m .. r*m + n of each face array,
    # and the entries between them mix two rows and are dropped.  Every
    # operation then sweeps one contiguous run instead of one run per row.
    v = np.ascontiguousarray(v_ext).reshape(-1)[lo:]
    size = v_ext.size - m + n + 1  # entries of a flat face array

    # First and second differences: d[j] = v[j+1] - v[j],
    # q[j] = v[j] - 2 v[j+1] + v[j+2], the latter scaled in place to
    # 4 EPS_WENO + (13/3) q^2, the part of 4 (EPS_WENO + beta) it carries.
    d = np.subtract(v[1 : size + 5], v[: size + 4])
    q = np.subtract(d[1:], d[:-1])
    q *= q
    q *= 13.0 / 3.0
    q += 4.0 * EPS_WENO

    # r_k = 1 / (4 EPS_WENO + 4 beta_k)^2 of the three sub-stencils of the
    # cells -1..n of each row (entry r*m + i is cell i - 1 of row r); the
    # factor 16 it lacks cancels in the normalization.
    r0 = np.multiply(d[1 : size + 2], 3.0)
    r0 -= d[: size + 1]
    r1 = np.add(d[1 : size + 2], d[2 : size + 3])
    r2 = np.multiply(d[2 : size + 3], -3.0)
    r2 += d[3 : size + 4]
    for k, r in enumerate((r0, r1, r2)):
        r *= r
        r += q[k : k + size + 1]
        r *= r
        np.divide(1.0, r, out=r)

    # The four distinct quadratic values at face k (between cells k-1 and
    # k), on the stencils of cells k-3..k-1, k-2..k, k-1..k+1 and k..k+2.
    # The minus side combines the first three, the plus side the last three;
    # the second lands in q, which no one reads any more.
    out_minus, out_plus = np.empty(v_ext.shape), np.empty(v_ext.shape)
    cand_a = np.multiply(d[:size], -0.4, out=out_minus.reshape(-1)[:size])
    cand_a += d[1 : size + 1]
    cand_a *= 5.0 / 6.0
    cand_a += v[2 : size + 2]
    cand_b = np.multiply(d[2 : size + 2], 2.0, out=q[:size])
    cand_b += d[1 : size + 1]
    cand_b *= 1.0 / 6.0
    cand_b += v[2 : size + 2]
    cand_c = np.multiply(d[2 : size + 2], -2.0)
    cand_c -= d[3 : size + 3]
    cand_c *= 1.0 / 6.0
    cand_c += v[3 : size + 3]
    cand_d = np.multiply(d[4 : size + 4], 0.4, out=out_plus.reshape(-1)[:size])
    cand_d -= d[3 : size + 3]
    cand_d *= 5.0 / 6.0
    cand_d += v[3 : size + 3]

    # Each side weighs its outer, middle and inner candidate by g0 r, g1 r
    # and g2 r of its cell (g the linear weights), here divided by g1, and
    # normalizes with one division.  The numerators overwrite the outer
    # candidates, which only one side reads, and the denominators overwrite
    # d, which no one reads any more.
    g0, g1, g2 = LINEAR_WEIGHTS_RIGHT
    den, tmp = d[:size], np.empty(size)
    for u, (r_out, r_mid, r_in), p_mid, p_in, cells in (
            (cand_a, (r0, r1, r2), cand_b, cand_c, slice(0, size)),
            (cand_d, (r2, r1, r0), cand_c, cand_b, slice(1, size + 1))):
        r_out, r_mid, r_in = r_out[cells], r_mid[cells], r_in[cells]
        np.multiply(r_out, g0 / g1, out=den)
        u *= den
        np.multiply(r_in, g2 / g1, out=tmp)
        den += tmp
        den += r_mid
        tmp *= p_in
        u += tmp
        np.multiply(r_mid, p_mid, out=tmp)
        u += tmp
        u /= den
    return out_minus[..., : n + 1], out_plus[..., : n + 1]


def face_derivatives_line(v_ext, h, ghost=3):
    """Face-midpoint first derivatives along the last axis, one per face.

    Returns an ndarray of shape ``(..., n + 1)``.
    """
    if ghost < 2:
        raise ValueError("face_derivatives_line needs at least 2 ghost layers")
    m = v_ext.shape[-1]
    n = m - 2 * ghost
    lo = ghost - 2
    # Along the flattened line, as in face_values_line.
    v = np.ascontiguousarray(v_ext).reshape(-1)[lo:]
    size = v_ext.size - m + n + 1
    out = np.empty(v_ext.shape)
    du = np.subtract(v[2 : size + 2], v[1 : size + 1],
                     out=out.reshape(-1)[:size])
    du *= 15.0
    du -= v[3 : size + 3]
    du += v[:size]
    du /= 12.0 * h
    return out[..., : n + 1]


def center_point_values_line(v_ext, ghost=2):
    """Degree-4 center-point conversion along the last axis.

    Returns the n interior point values ``(..., n)``.
    """
    if ghost < 2:
        raise ValueError("center_point_values_line needs at least 2 ghost layers")
    m = v_ext.shape[-1]
    n = m - 2 * ghost
    lo = ghost - 2
    c = CENTER_STENCIL
    return (
        c[0] * v_ext[..., lo + 0 : lo + n]
        + c[1] * v_ext[..., lo + 1 : lo + n + 1]
        + c[2] * v_ext[..., lo + 2 : lo + n + 2]
        + c[3] * v_ext[..., lo + 3 : lo + n + 3]
        + c[4] * v_ext[..., lo + 4 : lo + n + 4]
    )
