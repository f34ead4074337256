"""Diagonally implicit Runge-Kutta (DIRK) machinery.

Provides Butcher tableaus (a five-stage fifth-order SDIRK with rational
coefficients, and the implicit-Euler extrapolation family IEX-p in
Runge-Kutta form, whose IEX-1 is backward Euler) and the one DIRK stage
loop with stage-flux aggregation and an optional per-stage limit hook; the
extrapolation stepper is that loop on the IEX-p tableau.  Stage fluxes are
per-axis tuples of face arrays (see :mod:`fluxes`).

The loop solves the stages by dependency level (:attr:`ButcherTableau.levels`):
a stage's level is one more than the highest level of the stages it reads
(``A[m, s] != 0``), and the implicit stages of a level go to the stage
solver in one call, stacked along a leading member axis (the member axes of
:mod:`mesh`).  The stage solver's contract is stacked in, stacked out: the
references, guesses, implicit steps ``a_mm dt`` and stage times of the
members in, their values and fluxes and one :class:`solvers.SolverReport`
per member out, each member's result that of its own solve
(:func:`solvers.iterate` stops and freezes every member on its own
residual).  SDIRK5's levels are single stages; IEX-p's are the substeps
with the same index in every chain, so iex4's ten substeps are four stacked
solves of 4, 3, 2 and 1 members.

The IEX-p method of order p runs, for k = 1..p, a chain of k backward-Euler
substeps of size dt/k, then extrapolates the k first-order results to order
p.  Written as a Runge-Kutta method it has p(p+1)/2 stages in k-indexed
blocks with A block-diagonal (block k is 1/k times the lower-triangular
ones matrix) and weights w_k/k repeated over block k, where
``w_k = prod_{l != k} k/(k-l)`` are the extrapolation weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fluxes import check_finite, divergence, high_order_flux
from .solvers import NonConvergenceError


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of a diagonally implicit Runge-Kutta method.

    Invariants (validated): A is lower triangular, row sums of A equal c and
    the weights b sum to one, both within 1e-12.  The arrays are float
    copies of the inputs, read-only, so a tableau can be shared.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        A, b, c = (np.array(x, dtype=float) for x in (self.A, self.b, self.c))
        M = len(b)
        if A.shape != (M, M) or c.shape != (M,):
            raise ValueError("tableau dimensions are inconsistent")
        if np.any(np.abs(np.triu(A, 1)) > 0.0):
            raise ValueError("tableau must be diagonally implicit "
                             "(strictly upper part of A zero)")
        if np.max(np.abs(A.sum(axis=1) - c)) > 1e-12:
            raise ValueError("row sums of A must equal c within 1e-12")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ValueError("weights b must sum to 1 within 1e-12")
        for name, value in zip("Abc", (A, b, c)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def stages(self):
        return len(self.b)

    @functools.cached_property
    def levels(self):
        """The stage indices by dependency level, in stage order within
        each level: stage m's level is one more than the highest level of
        the stages s < m with ``A[m, s] != 0`` (0 when there are none), so
        the stages of a level depend only on those of earlier levels."""
        level = []
        for m in range(self.stages):
            level.append(1 + max((level[s] for s in range(m)
                                  if self.A[m, s] != 0.0), default=-1))
        return tuple(tuple(m for m in range(self.stages) if level[m] == k)
                     for k in range(max(level) + 1))


# The five-stage SDIRK method's rational coefficients, each written as the
# quotient of two integers: Python rounds int / int correctly, so every
# float is the nearest to its exact fraction.

#: Diagonal entry shared by all stages of the five-stage SDIRK method.
_SDIRK5_DIAG = 4024571134387 / 14474071345096

_SDIRK5_A = [
    [_SDIRK5_DIAG, 0, 0, 0, 0],
    [9365021263232 / 12572342979331, _SDIRK5_DIAG, 0, 0, 0],
    [2144716224527 / 9320917548702,
     -397905335951 / 4008788611757, _SDIRK5_DIAG, 0, 0],
    [-291541413000 / 6267936762551,
     226761949132 / 4473940808273,
     -1282248297070 / 9697416712681, _SDIRK5_DIAG, 0],
    [-2481679516057 / 4626464057815,
     -197112422687 / 6604378783090,
     3952887910906 / 9713059315593,
     4906835613583 / 8134926921134, _SDIRK5_DIAG],
]
_SDIRK5_B = [
    -2522702558582 / 12162329469185,
    1018267903655 / 12907234417901,
    4542392826351 / 13702606430957,
    5001116467727 / 12224457745473,
    1509636094297 / 3891594770934,
]
_SDIRK5_C = [
    _SDIRK5_DIAG,
    5555633399575 / 5431021154178,
    5255299487392 / 12852514622453,
    3 / 20,
    10449500210709 / 14474071345096,
]


def sdirk5_tableau():
    """Five-stage, fifth-order SDIRK tableau with identical diagonal
    entries."""
    return ButcherTableau(A=_SDIRK5_A, b=_SDIRK5_B, c=_SDIRK5_C, name="sdirk5")


@functools.cache
def iex_tableau(p):
    """Runge-Kutta representation of the order-p implicit-Euler
    extrapolation method (IEX-p) with p(p+1)/2 stages, built once per
    order and shared (with its levels) by every step."""
    if p < 1:
        raise ValueError("extrapolation order p must be >= 1")
    M = p * (p + 1) // 2
    A = np.zeros((M, M))
    b = np.zeros(M)
    c = np.zeros(M)
    offset = 0
    for k in range(1, p + 1):
        w_k = 1.0
        for l in range(1, p + 1):
            if l != k:
                w_k *= k / (k - l)
        for r in range(k):
            row = offset + r
            A[row, offset: offset + r + 1] = 1.0 / k
            c[row] = (r + 1) / k
            b[row] = w_k / k
        offset += k
    return ButcherTableau(A=A, b=b, c=c, name=f"iex{p}")


def dirk_step(u_n, tableau, spec, grid, stage_solver, dt, t=0.0,
              limit_stage=None):
    """One DIRK step of the high-order scheme.

    Each stage solves ``y = r - (a_mm*dt/|K|) sum |S| G^H(y)`` with ``r``
    accumulating the prior stage fluxes; the recorded stage fluxes are
    aggregated as ``G^H = sum_m b_m (F^H - P^H)(y^(m))`` and the update is
    ``u^{n+1} = u^n - (dt/|K|) sum |S| G^H`` (computed exactly in that
    form, so re-substituting the returned flux reproduces the update
    bitwise).  A stage solve starts from the previous stage's value, or
    from its own reference ``r`` when ``A[m, m-1] = 0`` (the first stage,
    and the first stage of each IEX chain, which does not follow on from
    the stage before it).

    The stages are solved level by level (:attr:`ButcherTableau.levels`):
    the implicit stages of a level go to one ``stage_solver`` call, stacked
    along a leading member axis in stage order, and each member's result
    is that of its own solve.

    Parameters
    ----------
    stage_solver : callable(reference, step_dt, stage_time, guess) ->
        (values, flux, StackReport)
        Nonlinear solver for a stack of stages, the stage contract:
        ``reference`` and ``guess`` have shape ``(m, *grid.shape)``, and
        ``step_dt`` (``a_mm * dt``, the effective implicit step) and
        ``stage_time`` shape ``(m,) + (1,)*dim``, one entry per member.  It
        returns the converged stage values, the high-order flux evaluated
        there (per-axis face arrays with the same leading axis) and one
        :class:`solvers.SolverReport` per member, and raises
        :class:`NonConvergenceError` or ``ValueError`` on failure, naming
        the member in the error's ``member`` attribute.  Stages with
        ``a_mm = 0`` are explicit and call :func:`fluxes.high_order_flux`
        instead.
    limit_stage : callable(reference, flux, step_dt, start_time) ->
        (values, flux), optional
        Replaces the value and flux of every stage with ``a_mm != 0`` by a
        limited pair, treating the stage as a step of size ``step_dt``
        from ``reference`` that starts at ``stage_time - step_dt``.  Later
        stages accumulate the limited fluxes and start their solve from
        the limited value.

    Returns
    -------
    (ndarray, tuple of ndarray, tuple of ndarray)
        The new state, the aggregated flux (one face array per axis) and
        every stage value, all cell states of ``grid.shape`` like ``u_n``.

    Raises
    ------
    NonConvergenceError, ValueError
        The stage solver's, re-raised as the same type with a
        ``stage m/M:`` prefix (the failing member's stage) and, for
        :class:`NonConvergenceError`, the same report.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, b, c = tableau.A, tableau.b, tableau.c
    member_shape = (-1,) + (1,) * np.ndim(u_n)
    stage_values = [None] * tableau.stages
    stage_fluxes = [None] * tableau.stages

    def stage_reference(m, out):
        out[...] = u_n
        for s in range(m):
            if A[m, s] != 0.0:
                out -= (dt * A[m, s]) * divergence(stage_fluxes[s], grid)
        return out

    for level in tableau.levels:
        implicit = [m for m in level if A[m, m] != 0.0]
        for m in level:
            if A[m, m] == 0.0:
                stage_values[m] = stage_reference(m, np.empty_like(u_n))
                stage_fluxes[m] = high_order_flux(stage_values[m], spec, grid,
                                                  t=t + c[m] * dt)
        if not implicit:
            continue
        reference = np.empty((len(implicit),) + u_n.shape)
        for j, m in enumerate(implicit):
            stage_reference(m, reference[j])
        guess = [stage_values[m - 1] if m and A[m, m - 1] != 0.0 else
                 reference[j] for j, m in enumerate(implicit)]
        # A stack of one is a view: a level of one copies nothing.
        guess = guess[0][None] if len(guess) == 1 else np.stack(guess)
        step_dt = [A[m, m] * dt for m in implicit]
        stage_time = [t + c[m] * dt for m in implicit]
        try:
            y, flux, _ = stage_solver(
                reference, np.reshape(step_dt, member_shape),
                np.reshape(stage_time, member_shape), guess)
        except (NonConvergenceError, ValueError) as err:
            raise _at_stage(err, implicit, tableau.stages) from err
        for j, m in enumerate(implicit):
            stage_values[m] = y[j]
            stage_fluxes[m] = tuple(f[j] for f in flux)
            if limit_stage is not None:
                stage_values[m], stage_fluxes[m] = limit_stage(
                    reference[j], stage_fluxes[m], step_dt[j],
                    stage_time[j] - step_dt[j])

    total = tuple(f * b[0] for f in stage_fluxes[0])
    for m in range(1, tableau.stages):
        total = tuple(g + f * b[m] for g, f in zip(total, stage_fluxes[m]))
    check_finite(total)
    return u_n - dt * divergence(total, grid), total, tuple(stage_values)


def _at_stage(err, stages, count):
    """``err`` as the same type, prefixed with the stage among ``stages``
    (the members of the failed solve) that its ``member`` names; every
    member's when it names none and there are several."""
    member = getattr(err, "member", None)
    if member is None and len(stages) == 1:
        member = 0
    where = (f"stage {stages[member] + 1}" if member is not None else
             "stages " + ", ".join(str(m + 1) for m in stages))
    message = f"{where}/{count}: {err}"
    if isinstance(err, NonConvergenceError):
        return NonConvergenceError(message, err.report)
    return type(err)(message)


def iex_step(u_n, p, spec, grid, stage_solver, dt, t=0.0):
    """One step of the order-p implicit-Euler extrapolation method:
    :func:`dirk_step` on :func:`iex_tableau` ``(p)``.

    The stages are the k backward-Euler substeps of size dt/k of chain
    k = 1..p, in that order, and the update weighs chain k's fluxes by
    ``w_k/k``, which conserves mass exactly.  ``stage_solver`` is as for
    :func:`dirk_step`, which solves substep j of every chain k >= j as one
    stacked level; the first substep of every chain starts its solve from
    ``u^n``.

    Returns
    -------
    (ndarray, tuple of ndarray, tuple of ndarray)
        The new state, the extrapolated flux (one face array per axis), and
        every substep chain state (the "intermediate stages" of the method).
    """
    return dirk_step(u_n, iex_tableau(p), spec, grid, stage_solver, dt, t=t)
