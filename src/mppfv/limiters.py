"""Bound-preserving flux limiting.

Two strategies produce the per-face coefficients ``alpha in [0,1]`` of the
limited scheme ``u = u^n - (dt/|K|) sum |S| [G^L - alpha (G^L - G^H)]``:

* Flux-corrected transport (FCT): after the low-order solution ``u^L`` is
  known, Zalesak's algorithm caps the antidiffusive corrections
  ``dG = G^L - G^H`` by the cell allowances
  ``Q^± = (|K|/dt)(u^{max/min} - u^L)``; optional extra passes re-limit the
  rejected remainder ``(1-alpha) dG`` against the budgets of the updated
  solution.

* Global monolithic convex (GMC) limiting: the high-order flux is frozen at
  step start while the low-order flux and bar states are treated
  implicitly.  With ``a_i = sum |S| lam_ij`` and the bar-state cell average
  ``ubar_i``, the limited scheme is the fixed point of

      u_i = [u^n_i + nu_i a_i (1+gamma) g_i(u)] / [1 + nu_i a_i (1+gamma)]

  where ``g_i = u_i + (ubar*_i - u_i)/(1+gamma)``,
  ``ubar*_i = ubar_i + (1/a_i) sum |S| alpha dG``, and the allowances are
  ``Q^± = a_i [(u^{max/min} - ubar_i) + gamma (u^{max/min} - u_i)]``.
  Any solution is bounded with no time-step restriction.  One kernel,
  ``_gmc_fixed_point``, holds the sweep loop; it takes ``G^H`` as a
  callable of the iterate, which returns the frozen step-start flux for
  the step-level limiter ``_gmc_with_flux`` and rebuilds the flux from
  the iterate for the semi-discrete stage solver below.  Each sweep mixes
  the diagonal update above with the previous ``ANDERSON_DEPTH`` sweeps
  (type-II Anderson acceleration, Walker & Ni 2011), which needs a
  fraction of the plain sweeps and converges at large steps where they
  stall.  The mixed iterates are not projected onto the bounds;
  boundedness comes from the converged fixed point, whose state is
  recomputed from the realized flux.  Each caller passes its own stopping
  tolerances: the step-level limit, which makes ``u^{n+1}`` bounded,
  sweeps to ``TOL_GMC_TARGET`` (``TOL_GMC`` on stagnation); a stage stops
  at ``solvers.TOL_STAGE``, as the quasi-Newton stage solves do.

Both limiters are mass conservative: the correction arrays are
antisymmetric per geometric face, so their divergences sum to zero.
The coefficients are one plain array per axis, laid out like the face
fluxes of :mod:`fluxes`; they, the allowances and the cell sums are built
by one loop over grid axes on the array-axis convention of :mod:`mesh`,
with :func:`fluxes.adjacent_cells` giving each face its two cells.

Also here: the implicit-Euler stage solver on the semi-discrete GMC
limiting (both flux orders evaluated at the stage state, limited so the
semi-discretization is locally-extremum-diminishing with respect to the
global bounds), which runs the stages of the extrapolation integrator in
the DIRK stage loop of :mod:`time_integration`.  Its stages stop at
``TOL_STAGE``, so the chain states are bounded only up to that
tolerance; boundedness with no step-size limit holds at the fixed point,
and the step-level limit removes what the stages leave.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .fluxes import (adjacent_cells, check_finite, divergence,
                     high_order_flux, low_order_with_bars, tie_periodic_seam)
from .mesh import sides
from .metrics import bound_margin
from .solvers import (STALL_RATIO, TOL_STAGE, NonConvergenceError,
                      SolverReport)

TOL_GMC = 1e-12
#: Sweep until this tighter residual when reachable; fall back to TOL_GMC
#: on stagnation so realized states stay well inside the 1e-12 slack.
TOL_GMC_TARGET = 1e-13
#: Number of past sweeps the Anderson mixing of the GMC fixed point keeps,
#: and the residual growth over one sweep that drops them.  Dropping them
#: on any growth can lock the sweeps into a cycle just above TOL_GMC.
ANDERSON_DEPTH = 5
ANDERSON_RESTART = 2.0
# The plain diagonal sweep contracts at a rate that degrades with the step
# size (thousands of sweeps at dt ~ 5 dx on a shock); Anderson mixing cuts
# that to tens or hundreds, and the cap bounds the rest.
MAX_GMC_SWEEPS = 5000
LIMITER_CHOICES = ("none", "fct", "gmc")

#: Allowed out-of-bounds slack of reference states before limiting is
#: considered invalid (solver tolerances leave states this close).
REFERENCE_SLACK = 1e-9


def _check_alphas(alphas):
    """Raise ``ValueError`` unless every limiter coefficient lies in
    [0, 1]."""
    for a in alphas:
        if a.size and (np.min(a) < 0.0 or np.max(a) > 1.0):
            raise ValueError("limiter coefficients must lie in [0, 1]")


def _weighted(alphas, flux):
    """The coefficient-weighted flux ``alpha * G`` (elementwise per face)."""
    return tuple(a * g for a, g in zip(alphas, flux))


def _outward_sums(flux, grid):
    """Cellwise ``(sum |S| max(0, dG_outward), sum |S| min(0, dG_outward))``."""
    for axis, dg in enumerate(flux):
        area = grid.face_area(axis)
        low, high = sides(dg, axis)
        plus = area * (np.maximum(0.0, high) + np.maximum(0.0, -low))
        minus = area * (np.minimum(0.0, high) + np.minimum(0.0, -low))
        if axis == 0:
            p_plus, p_minus = plus, minus
        else:
            p_plus, p_minus = p_plus + plus, p_minus + minus
    return p_plus, p_minus


def zalesak_alphas(flux_corrections, q_minus, q_plus, grid):
    """Per-face limiter coefficients capping the outward correction sums by
    the cell allowances, one array per axis.

    With the correction sums ``P^±`` and the ratios
    ``R^± = min(1, Q^±/P^±)`` (``R = 1`` where ``P = 0``),
    ``alpha_ij = min(R_i^+, R_j^-)`` where the correction leaves cell ``i``
    (and symmetrically otherwise), so that
    ``Q_i^- <= sum |S| alpha dG <= Q_i^+`` holds for every cell.  Callers
    pass allowances clamped to ``Q^- <= 0 <= Q^+`` (cell arrays).

    The fixed-point sweeps call this once per sweep, so the coefficients
    are not range-checked here: the limiters call :func:`_check_alphas` on
    the coefficients of each flux they realize."""
    p_plus, p_minus = _outward_sums(flux_corrections, grid)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        r_plus = np.where(p_plus > 0.0,
                          np.minimum(1.0, q_plus / np.where(p_plus > 0.0,
                                                            p_plus, 1.0)),
                          1.0)
        r_minus = np.where(p_minus < 0.0,
                           np.minimum(1.0, q_minus / np.where(p_minus < 0.0,
                                                              p_minus, -1.0)),
                           1.0)
    alphas = []
    for axis, dg in enumerate(flux_corrections):
        # Ghost cells impose no budget.
        rp_lo, rp_hi = adjacent_cells(r_plus, grid, axis, 1.0)
        rm_lo, rm_hi = adjacent_cells(r_minus, grid, axis, 1.0)
        alpha = np.where(dg >= 0.0,
                         np.minimum(rp_lo, rm_hi),
                         np.minimum(rm_lo, rp_hi))
        alphas.append(tie_periodic_seam(alpha, grid, axis))
    return tuple(alphas)


# ---------------------------------------------------------------------------
# FCT
# ---------------------------------------------------------------------------

def _check_reference(values, spec, what):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if lo < spec.global_min - REFERENCE_SLACK or hi > spec.global_max + REFERENCE_SLACK:
        raise ValueError(
            f"{what} lies outside the global bounds "
            f"[{spec.global_min}, {spec.global_max}]: range [{lo}, {hi}]")


#: Largest bound violation attributable to rounding of the assembled flux
#: sums; anything beyond this rate indicates a limiter defect and raises.
_ROUNDOFF_VIOLATION = 1e-10


def _restore_bounds(values, spec):
    """Snap summation roundoff off a limited state.

    The limited updates satisfy the global bounds exactly in exact
    arithmetic, but the assembled sums mix flux terms that are many orders
    larger than the headroom of a near-bound cell, so the computed state
    can stray below/above the bounds by roughly ``eps * max|flux term|``
    (observed at the 1e-28 scale).  Clipping such a state back is a
    rounding correction, not a limiter action; violations beyond roundoff
    scale are a defect and raise instead of being hidden.
    """
    worst = bound_margin(values, spec)
    if worst >= 0.0:
        return values
    if worst < -_ROUNDOFF_VIOLATION:
        raise ValueError(
            f"limited update violates the global bounds by {-worst:.3e}, "
            "beyond summation roundoff")
    return np.clip(values, spec.global_min, spec.global_max)


def _fct_with_flux(G_L, u_L, G_H, spec, grid, dt, iterations,
                   strict_reference=True):
    """Flux-corrected step ``u = u^L + (dt/|K|) sum |S| alpha (G^L - G^H)``
    with allowances ``Q^± = (|K|/dt)(u^{max/min} - u^L)``; returns
    ``(u, realized flux)``, ``u`` an array like ``u_L``.

    ``iterations > 1`` re-limits the rejected remainder ``(1-alpha) dG``
    against the budgets of the updated solution, recovering more of the
    high-order flux.  With ``strict_reference`` the output lies in the
    global bounds up to roundoff whenever ``u^L`` does (precondition,
    checked).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if strict_reference:
        _check_reference(u_L, spec, "the low-order solution")
    u = u_L.copy()
    remainder = tuple(gl - gh for gl, gh in zip(G_L, G_H))
    realized = G_L
    volume_rate = grid.cell_volume / dt
    for _ in range(iterations):
        q_plus = np.maximum(0.0, volume_rate * (spec.global_max - u))
        q_minus = np.minimum(0.0, volume_rate * (spec.global_min - u))
        alphas = zalesak_alphas(remainder, q_minus, q_plus, grid)
        _check_alphas(alphas)
        accepted = _weighted(alphas, remainder)
        u = u + dt * divergence(accepted, grid)
        realized = tuple(g - c for g, c in zip(realized, accepted))
        remainder = tuple(g - c for g, c in zip(remainder, accepted))
    check_finite(realized)
    if strict_reference:
        u = _restore_bounds(u, spec)
    return u, realized


# ---------------------------------------------------------------------------
# GMC
# ---------------------------------------------------------------------------

def gmc_budgets(a, ubar_cell, values, spec, gamma):
    """Allowances ``Q^± = a[(bound - ubar_i) + gamma (bound - u_i)]``,
    clamped to their guaranteed sign (the references sit within the bounds
    only up to solver tolerance)."""
    if gamma == 0.0:
        q_plus = a * (spec.global_max - ubar_cell)
        q_minus = a * (spec.global_min - ubar_cell)
    else:
        q_plus = a * ((spec.global_max - ubar_cell)
                      + gamma * (spec.global_max - values))
        q_minus = a * ((spec.global_min - ubar_cell)
                       + gamma * (spec.global_min - values))
    return np.minimum(0.0, q_minus), np.maximum(0.0, q_plus)


def _cell_sum(per_axis, grid):
    """Sum ``|S_ij| q_ij`` over the faces of each cell."""
    for axis, q in enumerate(per_axis):
        low, high = sides(q, axis)
        term = grid.face_area(axis) * (low + high)
        out = term if axis == 0 else out + term
    return out


def _gmc_face_terms(u, G_H, spec, grid, gamma, t):
    """The GMC terms of state ``u`` against high-order flux ``G_H``: the
    low-order flux ``G^L`` at time ``t``, the limiter coefficients
    ``alpha``, the accepted correction ``alpha (G^L - G^H)``, the cell
    coefficients ``a_i = sum_j |S_ij| lam_ij`` and the bar-state averages
    ``ubar_i = (1/a_i) sum_j |S_ij| lam_ij ubar_ij``."""
    G_L, lam, ubar_face = low_order_with_bars(u, spec, grid, t=t)
    a = _cell_sum(lam, grid)
    ubar = _cell_sum(tuple(l * b for l, b in zip(lam, ubar_face)), grid) / a
    correction = tuple(gl - gh for gl, gh in zip(G_L, G_H))
    q_minus, q_plus = gmc_budgets(a, ubar, u, spec, gamma)
    alphas = zalesak_alphas(correction, q_minus, q_plus, grid)
    return G_L, alphas, _weighted(alphas, correction), a, ubar


def _anderson_coefficients(dF, f):
    """The least-squares solution ``c`` of ``dF^T c = f`` for the few rows
    of ``dF``, from the Cholesky factors of the Gram matrix ``dF dF^T``
    (LAPACK ``dposv``); ``lstsq`` takes over when that matrix is not
    numerically positive definite."""
    _, c, info = lapack.dposv(dF @ dF.T, dF @ f)
    if info != 0 or not np.all(np.isfinite(c)):
        c = np.linalg.lstsq(dF.T, f, rcond=None)[0]
    return c


def _gmc_fixed_point(u0, high_flux, spec, grid, dt, gamma, t, tol, target):
    """The GMC fixed point ``u = u0 - dt div(G^L(u) - alpha(u) (G^L(u) -
    high_flux(u)))``, the only GMC sweep loop.

    ``high_flux`` returns a frozen ``G^H`` for the step-level limiter and
    rebuilds it from the iterate for the semidiscrete stage; the low-order
    flux is evaluated at time ``t``.  Each sweep evaluates the diagonal map
    ``T(u) = (u0 + w g(u))/(1 + w)`` and mixes it with the last
    ``ANDERSON_DEPTH`` differences of ``T`` and of ``f = T(u) - u``
    (type-II Anderson acceleration): ``u <- T(u) - dT c`` with ``c`` the
    least-squares solution of ``dF c = f``.  A sweep whose residual grew
    more than ``ANDERSON_RESTART``-fold drops the history and takes the
    plain ``u <- T(u)``.  Sweeps stop at the first absolute l2 residual at
    most ``target``, or at most ``tol`` once they stall or reach
    ``MAX_GMC_SWEEPS``; the report's tolerance is ``tol``.  Returns
    ``(u0 - dt div(realized), realized, SolverReport)``.  A non-finite
    residual raises ``ValueError`` at once (a finite one means a finite
    realized flux); the limiter coefficients are range-checked on exit.
    """
    nu = dt / grid.cell_volume
    max_sweeps = MAX_GMC_SWEEPS
    u = u0.copy()
    prev_res = np.inf
    # Rows hold the last differences of f and T(u), in rotating order;
    # ``kept`` counts the differences stored since the last restart.
    dF = np.empty((ANDERSON_DEPTH, u.size))
    dT = np.empty((ANDERSON_DEPTH, u.size))
    kept, f_prev = 0, None
    for sweep in range(max_sweeps + 1):
        G_L, alphas, accepted, a, ubar = _gmc_face_terms(
            u, high_flux(u), spec, grid, gamma, t)
        realized = tuple(gl - c for gl, c in zip(G_L, accepted))
        residual = u - u0 + dt * divergence(realized, grid)
        res = float(np.linalg.norm(np.ravel(residual)))
        if not np.isfinite(res):
            raise ValueError(f"bound-preserving fixed point: non-finite "
                             f"residual at sweep {sweep}")
        stalled = res > STALL_RATIO * prev_res
        if (res <= target
                or (res <= tol and (stalled or sweep == max_sweeps))):
            _check_alphas(alphas)
            return (u0 - dt * divergence(realized, grid), realized,
                    SolverReport(sweep, res, True, tol))
        if sweep == max_sweeps:
            raise NonConvergenceError(
                f"bound-preserving fixed point stalled at residual "
                f"{res:.3e} after {max_sweeps} sweeps",
                SolverReport(max_sweeps, res, False, tol))
        if res > ANDERSON_RESTART * prev_res:
            # The last mixed sweep made things worse: drop the history.
            kept, f_prev = 0, None
        prev_res = res
        ustar = ubar + grid.cell_volume * divergence(accepted, grid) / a
        g = u + (ustar - u) / (1.0 + gamma)
        w = nu * a * (1.0 + gamma)
        T = np.ravel((u0 + w * g) / (1.0 + w))
        f = T - np.ravel(u)
        mixed = T
        if f_prev is not None:
            dF[kept % ANDERSON_DEPTH] = f - f_prev
            dT[kept % ANDERSON_DEPTH] = T - T_prev
            kept += 1
            rows = min(kept, ANDERSON_DEPTH)
            mixed = T - _anderson_coefficients(dF[:rows], f) @ dT[:rows]
        u = mixed.reshape(u0.shape)
        f_prev, T_prev = f, T
    raise AssertionError("unreachable")


def _gmc_with_flux(u_n, G_H, spec, grid, dt, gamma, t, strict_reference=True):
    """One bound-preserving step: the fixed point of
    :func:`_gmc_fixed_point` from ``u^n`` with ``G_H`` frozen at step start
    and the low-order flux at ``t + dt``, swept to ``TOL_GMC_TARGET`` (to
    ``TOL_GMC`` on stagnation): this solve is what makes ``u^{n+1}``
    bounded.  Returns ``(u^{n+1}, realized flux, SolverReport)``.  With
    ``strict_reference`` the previous solution must lie in the global
    bounds, and roundoff is snapped back into them.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if strict_reference:
        _check_reference(u_n, spec, "the previous solution")
    u_new, realized, report = _gmc_fixed_point(
        u_n, lambda _: G_H, spec, grid, dt, gamma, t + dt, TOL_GMC,
        TOL_GMC_TARGET)
    if strict_reference:
        u_new = _restore_bounds(u_new, spec)
    return u_new, realized, report


# ---------------------------------------------------------------------------
# Semi-discrete GMC limiting (for integrators with SSP stages)
# ---------------------------------------------------------------------------

def make_semidiscrete_gmc_substep_solver(spec, grid, gamma=0.0):
    """Stage solver on the limited semi-discretization, for
    :func:`time_integration.dirk_step` and
    :func:`time_integration.iex_step`.

    ``solver(reference, step_dt, stage_time, guess)`` solves the
    implicit-Euler stage ``y = reference + step_dt * RHS(y)``, where
    ``RHS = -(1/|K|) sum |S| [G^L - alpha (G^L - G^H)]`` has both flux
    orders and the allowances evaluated at ``y``, by the same
    Anderson-mixed fixed point as the step-level limiter (with the
    high-order flux rebuilt at every iterate), sweeping from ``reference``
    (the guess is not used), and returns ``(y, realized flux,
    SolverReport)``; the stage value is recomputed from the realized flux,
    so chained stages conserve mass exactly.  The sweeps stop at the first
    absolute l2 residual at most ``TOL_STAGE``, the rule and norm of the
    quasi-Newton stage solver, and the report carries that tolerance.

    The allowances keep every bar-state average within the global bounds,
    so this semi-discretization is locally extremum diminishing with
    respect to them and its implicit-Euler stages preserve the bounds with
    no step-size limit at the fixed point.  A stage stopped at
    ``TOL_STAGE`` is bounded only up to that tolerance; the step-level
    limit makes the step's result bounded.
    """

    def solver(reference, step_dt, stage_time, guess):
        return _gmc_fixed_point(
            reference, lambda y: high_order_flux(y, spec, grid, t=stage_time),
            spec, grid, step_dt, gamma, stage_time, TOL_STAGE, TOL_STAGE)

    return solver
