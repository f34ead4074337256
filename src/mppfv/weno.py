"""Fifth-order WENO reconstruction from cell averages.

Provides point values at cell-face midpoints (nonlinearly weighted, classic
fifth-order construction on a five-cell stencil), first derivatives at face
midpoints (linear four-cell formula, see below), and the linear degree-4
cell-average-to-center-point conversion used by error metrics.

Face values use three quadratic sub-stencil candidates combined with
smoothness-indicator weights: linear weights (1/10, 3/5, 3/10) at the right
face (mirrored at the left face), classic smoothness indicators,
regularization ``EPS_WENO = 1e-6``, weight exponent 2.

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
    d = LINEAR_WEIGHTS_RIGHT if side > 0 else LINEAR_WEIGHTS_RIGHT[::-1]
    a0 = d[0] / (EPS_WENO + b0) ** 2
    a1 = d[1] / (EPS_WENO + b1) ** 2
    a2 = d[2] / (EPS_WENO + b2) ** 2
    s = a0 + a1 + a2
    return a0 / s, a1 / s, a2 / s


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
    u_minus = right[..., 0 : n + 1]
    u_plus = left[..., 1 : n + 2]
    return u_minus, u_plus


def face_derivatives_line(v_ext, h, ghost=3):
    """Face-midpoint first derivatives along the last axis, one per face.

    Returns an ndarray of shape ``(..., n + 1)``.
    """
    if ghost < 2:
        raise ValueError("face_derivatives_line needs at least 2 ghost layers")
    m = v_ext.shape[-1]
    n = m - 2 * ghost
    lo = ghost - 2
    a = v_ext[..., lo + 0 : lo + n + 1]
    b = v_ext[..., lo + 1 : lo + n + 2]
    c = v_ext[..., lo + 2 : lo + n + 3]
    d = v_ext[..., lo + 3 : lo + n + 4]
    return (a - 15.0 * b + 15.0 * c - d) / (12.0 * h)


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
