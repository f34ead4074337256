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
  implicitly.  With the combined face speeds ``lam_ij`` and bar-state
  products ``lam_ij ubar_ij`` of :func:`fluxes.low_order_with_bars`, the
  cell sums ``a_i = sum |S| lam_ij`` and ``a_i ubar_i = sum |S| lam_ij
  ubar_ij`` (the bar-state cell average ``ubar_i`` is never formed on its
  own), the limited scheme is the fixed point of

      u_i = [u^n_i + nu_i a_i (1+gamma) g_i(u)] / [1 + nu_i a_i (1+gamma)]

  where ``g_i = u_i + (ubar*_i - u_i)/(1+gamma)``,
  ``ubar*_i = (a_i ubar_i + sum |S| alpha dG)/a_i``, and the allowances are
  ``Q^± = a_i u^{max/min} (1+gamma) - a_i ubar_i - gamma a_i u_i``.
  Any solution is bounded with no time-step restriction.  One kernel,
  ``_gmc_face_terms``, evaluates the terms of this map, and
  :class:`_GmcSystem` keeps them per member for both maps that solve it:
  this diagonal map, which ``anderson.anderson_mixed`` mixes with the
  previous updates (type-II Anderson acceleration, Walker & Ni 2011), and,
  for the semi-discrete stages below, the quasi-Newton map of
  ``solvers._quasi_newton`` on the limited flux.  ``G^H`` is a callable of
  the iterate: it returns the frozen step-start flux for the step-level
  limiter ``_gmc_with_flux``, which sweeps from the clipped high-order
  state ``u^n - dt div G^H`` (and again from ``u^n``, unmixed, if that
  stalls), and rebuilds the flux from the iterate for the stages.  A plain
  diagonal update is a convex combination of the reference and bounded
  states, so it is bounded where they are; the mixed ones are not
  projected onto the bounds, and boundedness comes from the converged
  fixed point, whose state is recomputed from the realized flux.
  ``solvers.iterate`` stops every member at its first residual at most
  its tolerance: ``TOL_GMC`` for the step-level limit, which makes
  ``u^{n+1}`` bounded, and ``solvers.stage_tolerance`` for a stage, as for
  the quasi-Newton stage solves.

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
the DIRK stage loop of :mod:`time_integration`.  That loop hands it each
dependency level as one stack (substep j of every chain).  The members
take the Anderson-mixed quasi-Newton updates of the stage solves, on the
run's held pseudo-Jacobians and clipped into the bounds; a member whose
residual freezes there (the limiter coefficients switch between iterates)
or that spends its budget goes on alone by the mixed diagonal map, and
every member ends with a plain diagonal update from its iterate (and
mixed ones after it while its residual is above the tolerance).  Each
update evaluates the flux once for the whole stack, and each member is
mixed and stopped on its own, so each keeps the result of its substep
solved alone.  Its stages stop at the stage tolerance, so the chain states
are bounded only up to their largest residual entry, at most that l2
tolerance; boundedness with no step-size limit holds at the fixed point,
and the step-level limit removes what the stages leave.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .anderson import anderson_mixed
from .fluxes import (adjacent_cells, check_finite, divergence,
                     high_order_flux, low_order_with_bars, tie_periodic_seam)
from .mesh import sides
from .metrics import bound_margin
from .solvers import (FROZEN_PATIENCE, MAX_ITER_STAGE, NonConvergenceError,
                      StackReport, _quasi_newton, iterate, stage_tolerance,
                      take)

TOL_GMC = 1e-12
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
    [0, 1] (a NaN does not)."""
    for a in alphas:
        if a.size and not (np.min(a) >= 0.0 and np.max(a) <= 1.0):
            raise ValueError("limiter coefficients must lie in [0, 1]")


def _weighted(alphas, flux):
    """The coefficient-weighted flux ``alpha * G`` (elementwise per face)."""
    return tuple(a * g for a, g in zip(alphas, flux))


def zalesak_alphas(flux_corrections, q_minus, q_plus, grid):
    """Per-face limiter coefficients capping the outward correction sums by
    the cell allowances, one array per axis.

    With the sums ``P^±`` of the positive and the negative outward
    corrections of each cell (from each face's parts ``max(dG, 0)`` and
    ``min(dG, 0)``) and the ratios ``R^± = min(1, Q^±/P^±)`` (``R = 1``
    where ``P = 0``), ``alpha_ij = min(R_i^+, R_j^-)`` where the
    correction leaves cell ``i`` (and symmetrically otherwise), so that
    ``Q_i^- <= sum |S| alpha dG <= Q_i^+`` holds for every cell.  Callers
    pass allowances clamped to ``Q^- <= 0 <= Q^+`` (cell arrays).

    The fixed-point sweeps call this once per sweep, so the coefficients
    are not range-checked here: the limiters call :func:`_check_alphas` on
    the coefficients of each flux they realize."""
    # P^+ = p_out and P^- = -p_in: the corrections that leave and that
    # enter each cell (a face's positive part leaves its low cell).
    p_out = p_in = 0.0
    for axis, dg in enumerate(flux_corrections):
        pos_lo, pos_hi = sides(np.maximum(dg, 0.0), axis)
        neg_lo, neg_hi = sides(np.minimum(dg, 0.0), axis)
        p_out = p_out + grid.face_area(axis) * (pos_hi - neg_lo)
        p_in = p_in + grid.face_area(axis) * (pos_lo - neg_hi)
    # The last axis's parts would stay alive through the ratios and the
    # coefficients, and raise the peak memory of every sweep.
    del pos_lo, pos_hi, neg_lo, neg_hi
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        r_plus, r_minus = (
            np.where(p > 0.0, np.minimum(1.0, q / np.where(p > 0.0, p, 1.0)),
                     1.0)
            for q, p in ((q_plus, p_out), (-q_minus, p_in)))
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
    """Raise ``ValueError`` unless ``values`` lie within the global bounds
    up to ``REFERENCE_SLACK`` (a NaN does not)."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if not (lo >= spec.global_min - REFERENCE_SLACK
            and hi <= spec.global_max + REFERENCE_SLACK):
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

def gmc_budgets(a, a_ubar, values, spec, gamma):
    """Allowances ``Q^± = a bound (1+gamma) - a ubar - gamma a u`` of the
    cell coefficients ``a``, the bar-state sums ``a ubar`` and the states
    ``u``, clamped to their guaranteed sign (the references sit within the
    bounds only up to solver tolerance)."""
    taken = a_ubar + gamma * a * values
    q_plus = a * (spec.global_max * (1.0 + gamma)) - taken
    q_minus = a * (spec.global_min * (1.0 + gamma)) - taken
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
    coefficients ``a_i = sum_j |S_ij| lam_ij`` and the bar-state sums
    ``a_i ubar_i = sum_j |S_ij| lam_ij ubar_ij``."""
    G_L, lam, lam_ubar = low_order_with_bars(u, spec, grid, t=t)
    a, a_ubar = (_cell_sum(q, grid) for q in (lam, lam_ubar))
    correction = tuple(gl - gh for gl, gh in zip(G_L, G_H))
    q_minus, q_plus = gmc_budgets(a, a_ubar, u, spec, gamma)
    alphas = zalesak_alphas(correction, q_minus, q_plus, grid)
    return G_L, alphas, _weighted(alphas, correction), a, a_ubar


class _GmcSystem:
    """The GMC systems ``u = u0 - dt div(G^L(u) - alpha(u) (G^L(u) -
    high_flux(u)))`` of a stack of members, and the one kernel both maps of
    their solves read.

    ``u0`` is a stack of cell states, shape ``(m, *grid.shape)``; ``dt``
    and ``t`` broadcast against it (per-member ``(m,) + (1,)*dim`` arrays,
    or scalars).  ``high_flux(u, members)`` returns a frozen ``G^H`` for
    the step-level limiter and rebuilds it from the iterate for the
    semidiscrete stage (``members`` as in :func:`solvers.iterate`); the
    low-order flux is evaluated at time ``t``.  :meth:`realized_flux`
    evaluates the terms of :func:`_gmc_face_terms` at the iterates of
    ``members`` and keeps, per member, those of its latest evaluation
    (``alphas``, ``accepted``, ``a`` and ``a_ubar``, stacked over all
    members); :meth:`diagonal_map` reads them.  An evaluation of some
    members before the first of the whole stack (``solvers.iterate``
    evaluating members alone to find the one that raised) keeps nothing.
    """

    def __init__(self, u0, high_flux, spec, grid, dt, gamma, t):
        self.u0, self.high_flux = u0, high_flux
        self.spec, self.grid = spec, grid
        self.dt, self.gamma, self.t = dt, gamma, t
        self.nu = dt / grid.cell_volume
        self.alphas = None

    def realized_flux(self, u, members):
        """The limited flux ``G^L - alpha (G^L - G^H)`` of the iterates
        ``u`` of ``members``, for :func:`solvers.iterate`."""
        G_L, alphas, accepted, a, a_ubar = _gmc_face_terms(
            u, self.high_flux(u, members), self.spec, self.grid, self.gamma,
            take(self.t, members))
        if members is None:
            self.alphas, self.accepted, self.a, self.a_ubar = (
                alphas, accepted, a, a_ubar)
        elif self.alphas is not None:
            for full, part in zip((*self.alphas, *self.accepted, self.a,
                                   self.a_ubar),
                                  (*alphas, *accepted, a, a_ubar)):
                full[members] = part
        return tuple(gl - c for gl, c in zip(G_L, accepted))

    def diagonal_map(self, u, r, res, prev_res, members):
        """The diagonal map ``T(u) = (u0 + w g(u))/(1 + w)`` of the
        iterates ``u`` of ``members`` (an update's arguments), from the
        terms of their latest evaluation."""
        accepted = tuple(take(x, members) for x in self.accepted)
        a = take(self.a, members)
        ustar = (take(self.a_ubar, members)
                 + self.grid.cell_volume * divergence(accepted, self.grid)) / a
        g = u + (ustar - u) / (1.0 + self.gamma)
        w = take(self.nu, members) * a * (1.0 + self.gamma)
        return (take(self.u0, members) + w * g) / (1.0 + w)

    def fixed_point(self, guess, tol, mixed=True):
        """The fixed points by :func:`solvers.iterate` from ``guess``, to
        ``tol`` in at most ``MAX_GMC_SWEEPS`` updates, each the diagonal
        map, mixed per member by :func:`anderson.anderson_mixed` unless
        ``mixed`` is false (then every update is bounded).  Returns
        the stacks ``(u0 - dt div(realized), realized)`` and the
        :class:`solvers.StackReport`, and raises as
        :func:`solvers.iterate` (a finite residual means a finite realized
        flux); the limiter coefficients each member stopped at are
        range-checked on exit."""
        _, realized, reports = iterate(
            self.u0, self.realized_flux,
            anderson_mixed(self.diagonal_map, guess) if mixed
            else self.diagonal_map, self.dt, guess, self.grid, tol,
            MAX_GMC_SWEEPS, "bound-preserving fixed point")
        _check_alphas(self.alphas)
        return (self.u0 - self.dt * divergence(realized, self.grid),
                realized, reports)


def _gmc_with_flux(u_n, G_H, spec, grid, dt, gamma, t, strict_reference=True):
    """One bound-preserving step: the fixed point of :class:`_GmcSystem`
    with ``G_H`` frozen at step start and the low-order flux at ``t +
    dt``, swept to ``TOL_GMC``: this solve is what makes ``u^{n+1}``
    bounded.  It sweeps from the high-order state ``u^n - dt div G_H``
    clipped into the global bounds, close to the limited one at small
    steps; where that spends ``MAX_GMC_SWEEPS`` (the mixed iterates can
    cycle at large steps), it sweeps again from ``u^n`` by the plain
    diagonal map, which contracts slowly but steadily there, and the
    report counts both.  Returns ``(u^{n+1}, realized flux,
    SolverReport)``.
    With ``strict_reference`` the previous solution must lie in the
    global bounds, and roundoff is snapped back into them.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if strict_reference:
        _check_reference(u_n, spec, "the previous solution")
    check_finite(G_H)
    start = np.clip(u_n - dt * divergence(G_H, grid), spec.global_min,
                    spec.global_max)
    G_H = tuple(g[None] for g in G_H)
    system = _GmcSystem(u_n[None], lambda *_: G_H, spec, grid, dt, gamma,
                        t + dt)
    try:
        u_new, realized, (report,) = system.fixed_point(start[None], TOL_GMC)
    except NonConvergenceError as err:
        spent = err.report.iterations
        u_new, realized, (report,) = system.fixed_point(u_n[None], TOL_GMC,
                                                        mixed=False)
        report = replace(report, iterations=spent + report.iterations)
    u_new, realized = u_new[0], tuple(g[0] for g in realized)
    if strict_reference:
        u_new = _restore_bounds(u_new, spec)
    return u_new, realized, report


# ---------------------------------------------------------------------------
# Semi-discrete GMC limiting (for integrators with SSP stages)
# ---------------------------------------------------------------------------

def make_semidiscrete_gmc_substep_solver(engine, gamma=0.0):
    """Stage solver on the limited semi-discretization of the engine's
    problem and grid, for :func:`time_integration.dirk_step` and
    :func:`time_integration.iex_step`.

    ``solver(reference, step_dt, stage_time, guess)`` solves, for every
    member of the stacked stage contract of
    :func:`time_integration.dirk_step`, the implicit-Euler stage
    ``y = reference + step_dt * RHS(y)``, where
    ``RHS = -(1/|K|) sum |S| [G^L - alpha (G^L - G^H)]`` has both flux
    orders and the allowances evaluated at ``y``, and returns the stacks
    ``(y, realized flux)`` and a :class:`solvers.StackReport`.

    Each member is solved in two parts, on one :class:`_GmcSystem`.  First
    the Anderson-mixed quasi-Newton iteration of the stage solves
    (:func:`solvers._quasi_newton`) on the limited flux, from the guess
    clipped into the global bounds, on the matrix ``engine`` holds for
    the member's scale, with every iterate clipped into the bounds.  It
    stops a member at its first residual at most the stage tolerance
    (``solvers.stage_tolerance``), or, unconverged, once its residual has
    stayed frozen for ``solvers.FROZEN_PATIENCE`` updates (the limiter
    coefficients switch between iterates, and quasi-Newton updates can
    freeze there) or it has spent ``MAX_ITER_STAGE`` updates.  Then every
    member takes one plain diagonal update from its iterate, and the
    Anderson-mixed diagonal map of the step-level limiter goes on from
    there to that tolerance; a member that converged mostly stops at once.
    The stage value is recomputed from the realized flux there, so chained
    stages conserve mass exactly.  A member's report counts the updates of
    both parts and the plain one between them.

    The allowances keep every bar-state average within the global bounds,
    so this semi-discretization is locally extremum diminishing with
    respect to them and its implicit-Euler stages preserve the bounds with
    no step-size limit at the fixed point; a stage stopped at the stage
    tolerance is bounded only up to it (the module docstring says why).
    """
    spec, grid = engine.spec, engine.grid
    bounds = (spec.global_min, spec.global_max)
    tol = stage_tolerance(spec, grid)

    def solver(reference, step_dt, stage_time, guess):
        system = _GmcSystem(
            reference,
            lambda y, members: high_order_flux(y, spec, grid,
                                               t=take(stage_time, members)),
            spec, grid, step_dt, gamma, stage_time)
        y, _, newton = _quasi_newton(
            reference, system.realized_flux, step_dt, stage_time,
            np.clip(guess, *bounds), engine, tol, MAX_ITER_STAGE,
            "stage solve", mixed=True, bounds=bounds,
            patience=FROZEN_PATIENCE)
        # One plain diagonal update from every member's iterate.
        y = system.diagonal_map(y, None, None, None, None)
        y, realized, sweeps = system.fixed_point(y, tol)
        return y, realized, StackReport(
            replace(last, iterations=first.iterations + 1 + last.iterations)
            for first, last in zip(newton, sweeps))

    return solver
