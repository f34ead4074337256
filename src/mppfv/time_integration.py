"""Diagonally implicit Runge-Kutta (DIRK) machinery.

Provides Butcher tableaus (a five-stage fifth-order SDIRK with exact
rational coefficients, and the implicit-Euler extrapolation family IEX-p in
Runge-Kutta form, whose IEX-1 is backward Euler) and the one DIRK stage
loop with stage-flux aggregation and an optional per-stage limit hook; the
extrapolation stepper is that loop on the IEX-p tableau.  Stage fluxes are
per-axis tuples of face arrays (see :mod:`fluxes`).

The IEX-p method of order p runs, for k = 1..p, a chain of k backward-Euler
substeps of size dt/k, then extrapolates the k first-order results to order
p.  Written as a Runge-Kutta method it has p(p+1)/2 stages in k-indexed
blocks with A block-diagonal (block k is 1/k times the lower-triangular
ones matrix) and weights w_k/k repeated over block k, where
``w_k = prod_{l != k} k/(k-l)`` are the extrapolation weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fluxes import check_finite, divergence, high_order_flux
from .solvers import NonConvergenceError


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of a diagonally implicit Runge-Kutta method.

    Invariants (validated): A is lower triangular, row sums of A equal c and
    the weights b sum to one, both within 1e-12.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int
    name: str = ""

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self):
        return len(self.b)


#: Diagonal entry shared by all stages of the five-stage SDIRK method.
_SDIRK5_DIAG = Fraction(4024571134387, 14474071345096)

_SDIRK5_A = [
    [_SDIRK5_DIAG, 0, 0, 0, 0],
    [Fraction(9365021263232, 12572342979331), _SDIRK5_DIAG, 0, 0, 0],
    [Fraction(2144716224527, 9320917548702),
     Fraction(-397905335951, 4008788611757), _SDIRK5_DIAG, 0, 0],
    [Fraction(-291541413000, 6267936762551),
     Fraction(226761949132, 4473940808273),
     Fraction(-1282248297070, 9697416712681), _SDIRK5_DIAG, 0],
    [Fraction(-2481679516057, 4626464057815),
     Fraction(-197112422687, 6604378783090),
     Fraction(3952887910906, 9713059315593),
     Fraction(4906835613583, 8134926921134), _SDIRK5_DIAG],
]
_SDIRK5_B = [
    Fraction(-2522702558582, 12162329469185),
    Fraction(1018267903655, 12907234417901),
    Fraction(4542392826351, 13702606430957),
    Fraction(5001116467727, 12224457745473),
    Fraction(1509636094297, 3891594770934),
]
_SDIRK5_C = [
    _SDIRK5_DIAG,
    Fraction(5555633399575, 5431021154178),
    Fraction(5255299487392, 12852514622453),
    Fraction(3, 20),
    Fraction(10449500210709, 14474071345096),
]


def sdirk5_tableau():
    """Five-stage, fifth-order SDIRK tableau with identical diagonal entries,
    stored as exact integer fractions and converted to floats once."""
    A = np.array([[float(a) for a in row] for row in _SDIRK5_A])
    return ButcherTableau(A=A, b=[float(x) for x in _SDIRK5_B],
                          c=[float(x) for x in _SDIRK5_C], order=5,
                          name="sdirk5")


def iex_tableau(p):
    """Runge-Kutta representation of the order-p implicit-Euler
    extrapolation method (IEX-p) with p(p+1)/2 stages."""
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
    return ButcherTableau(A=A, b=b, c=c, order=p, name=f"iex{p}")


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

    Parameters
    ----------
    stage_solver : callable(reference, step_dt, stage_time, guess) ->
        (values, flux, SolverReport)
        Nonlinear solver for one stage with effective implicit step
        ``step_dt = a_mm * dt``; returns the converged stage value with the
        high-order flux evaluated there, and raises
        :class:`NonConvergenceError` on failure.  Stages with ``a_mm = 0``
        are explicit and call :func:`fluxes.high_order_flux` instead.
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
    NonConvergenceError
        The stage solver's, re-raised with a ``stage m/M:`` prefix and the
        same report.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, b, c = tableau.A, tableau.b, tableau.c
    stage_values = []
    stage_fluxes = []
    for m in range(tableau.stages):
        r = u_n.copy()
        for s in range(m):
            if A[m, s] != 0.0:
                r -= (dt * A[m, s]) * divergence(stage_fluxes[s], grid)
        stage_time = t + c[m] * dt
        step_dt = A[m, m] * dt
        if A[m, m] == 0.0:
            y = r
            flux = high_order_flux(y, spec, grid, t=stage_time)
        else:
            guess = y if m and A[m, m - 1] != 0.0 else r
            try:
                y, flux, _ = stage_solver(r, step_dt, stage_time, guess)
            except NonConvergenceError as err:
                raise NonConvergenceError(
                    f"stage {m + 1}/{tableau.stages}: {err}",
                    err.report) from err
        if limit_stage is not None and A[m, m] != 0.0:
            y, flux = limit_stage(r, flux, step_dt, stage_time - step_dt)
        stage_values.append(y)
        stage_fluxes.append(flux)

    total = tuple(f * b[0] for f in stage_fluxes[0])
    for m in range(1, tableau.stages):
        total = tuple(g + f * b[m] for g, f in zip(total, stage_fluxes[m]))
    check_finite(total)
    return u_n - dt * divergence(total, grid), total, tuple(stage_values)


def iex_step(u_n, p, spec, grid, stage_solver, dt, t=0.0):
    """One step of the order-p implicit-Euler extrapolation method:
    :func:`dirk_step` on :func:`iex_tableau` ``(p)``.

    The stages are the k backward-Euler substeps of size dt/k of chain
    k = 1..p, in that order, and the update weighs chain k's fluxes by
    ``w_k/k``, which conserves mass exactly.  ``stage_solver`` is as for
    :func:`dirk_step`; the first substep of every chain starts its solve
    from ``u^n``.

    Returns
    -------
    (ndarray, tuple of ndarray, tuple of ndarray)
        The new state, the extrapolated flux (one face array per axis), and
        every substep chain state (the "intermediate stages" of the method).
    """
    return dirk_step(u_n, iex_tableau(p), spec, grid, stage_solver, dt, t=t)
