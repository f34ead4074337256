"""Diagonally implicit Runge-Kutta (DIRK) machinery.

Provides Butcher tableaus (backward Euler, a five-stage fifth-order SDIRK
with exact rational coefficients, and the implicit-Euler extrapolation
family IEX-p in Runge-Kutta form), rooted-tree order-condition residuals,
the stage-MPP inequality checker, the generic DIRK stepper with stage-flux
aggregation and an optional per-stage limit hook, and the extrapolation
stepper in its production (Aitken-Neville tableau) form.

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

from .fluxes import FaceFluxSet, high_order_flux
from .mesh import CellField, cell_values
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


def backward_euler_tableau():
    """The one-stage first-order implicit Euler tableau."""
    return ButcherTableau(A=[[1.0]], b=[1.0], c=[1.0], order=1, name="be")


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


def order_condition_residuals(tableau, max_order=5):
    """Rooted-tree order-condition residuals up to ``max_order`` (<= 5).

    Returns a list of ``(order, residual)`` pairs, one per rooted tree (17
    trees through order 5): a method has order q exactly when every residual
    of order <= q vanishes.
    """
    if not 1 <= max_order <= 5:
        raise ValueError("max_order must be between 1 and 5")
    A, b, c = tableau.A, tableau.b, tableau.c
    e = np.ones_like(c)
    Ac = A @ c
    Ac2 = A @ (c * c)
    A2c = A @ Ac
    conditions = [
        (1, b @ e, 1.0),
        (2, b @ c, 1.0 / 2.0),
        (3, b @ (c * c), 1.0 / 3.0),
        (3, b @ Ac, 1.0 / 6.0),
        (4, b @ (c ** 3), 1.0 / 4.0),
        (4, b @ (c * Ac), 1.0 / 8.0),
        (4, b @ Ac2, 1.0 / 12.0),
        (4, b @ A2c, 1.0 / 24.0),
        (5, b @ (c ** 4), 1.0 / 5.0),
        (5, b @ ((c * c) * Ac), 1.0 / 10.0),
        (5, b @ (Ac * Ac), 1.0 / 20.0),
        (5, b @ (c * Ac2), 1.0 / 15.0),
        (5, b @ (c * A2c), 1.0 / 30.0),
        (5, b @ (A @ (c ** 3)), 1.0 / 20.0),
        (5, b @ (A @ (c * Ac)), 1.0 / 40.0),
        (5, b @ (A @ Ac2), 1.0 / 60.0),
        (5, b @ (A @ A2c), 1.0 / 120.0),
    ]
    return [(order, abs(lhs - rhs)) for order, lhs, rhs in conditions
            if order <= max_order]


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


@dataclass
class StageSet:
    """The intermediate solutions of one DIRK step and their recorded
    high-order fluxes (one of each per stage)."""

    stages: tuple
    fluxes: tuple

    def __post_init__(self):
        if len(self.stages) != len(self.fluxes):
            raise ValueError("stage values and stage fluxes must match in count")


def dirk_step(u_n, tableau, spec, grid, stage_solver, dt, t=0.0,
              limit_stage=None):
    """One DIRK step of the high-order scheme.

    Each stage solves ``y = r - (a_mm*dt/|K|) sum |S| G^H(y)`` with ``r``
    accumulating the prior stage fluxes; the recorded stage fluxes are
    aggregated as ``G^H = sum_m b_m (F^H - P^H)(y^(m))`` and the update is
    ``u^{n+1} = u^n - (dt/|K|) sum |S| G^H`` (computed exactly in that
    form, so re-substituting the returned flux set reproduces the update
    bitwise).

    Parameters
    ----------
    stage_solver : callable(reference, step_dt, stage_time, guess) ->
        (values, FaceFluxSet, SolverReport)
        Nonlinear solver for one stage with effective implicit step
        ``step_dt = a_mm * dt``; returns the converged stage value with the
        high-order flux evaluated there, and raises
        :class:`NonConvergenceError` on failure.  Stages with ``a_mm = 0``
        are explicit and call :func:`fluxes.high_order_flux` instead.
    limit_stage : callable(reference, flux, step_dt, start_time) ->
        (CellField, FaceFluxSet), optional
        Replaces the value and flux of every stage with ``a_mm != 0`` by a
        limited pair, treating the stage as a step of size ``step_dt``
        from ``reference`` that starts at ``stage_time - step_dt``.  Later
        stages accumulate the limited fluxes and start their solve from
        the limited value.

    Returns
    -------
    (CellField, FaceFluxSet, StageSet)

    Raises
    ------
    NonConvergenceError
        The stage solver's, re-raised with a ``stage m/M:`` prefix and the
        same report.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u0 = cell_values(u_n)
    A, b, c = tableau.A, tableau.b, tableau.c
    stage_fields = []
    stage_fluxes = []
    guess = u0
    for m in range(tableau.stages):
        r = u0.copy()
        for s in range(m):
            if A[m, s] != 0.0:
                r -= (dt * A[m, s]) * stage_fluxes[s].divergence()
        stage_time = t + c[m] * dt
        step_dt = A[m, m] * dt
        if A[m, m] == 0.0:
            y = r
            flux = high_order_flux(y, spec, grid, t=stage_time)
        else:
            try:
                y, flux, _ = stage_solver(r, step_dt, stage_time, guess)
            except NonConvergenceError as err:
                raise NonConvergenceError(
                    f"stage {m + 1}/{tableau.stages}: {err}",
                    err.report) from err
        if limit_stage is not None and A[m, m] != 0.0:
            limited, flux = limit_stage(r, flux, step_dt,
                                        stage_time - step_dt)
            y = limited.values
        stage_fields.append(CellField(grid, y))
        stage_fluxes.append(flux)
        guess = y

    total = stage_fluxes[0] * b[0]
    for m in range(1, tableau.stages):
        total = total + stage_fluxes[m] * b[m]
    total.check_finite()
    u_new = u0 - dt * total.divergence()
    return (CellField(grid, u_new), total,
            StageSet(tuple(stage_fields), tuple(stage_fluxes)))


def iex_step(u_n, p, spec, grid, substep_solver, dt, t=0.0):
    """One step of the order-p implicit-Euler extrapolation method.

    For k = 1..p, k backward-Euler substeps of size dt/k are chained; the
    first-order results are extrapolated with the Aitken-Neville recurrence

        T_jk = T_{j,k-1} + (T_{j,k-1} - T_{j-1,k-1}) / (j/(j-k+1) - 1).

    The same recurrence is applied to the per-chain averaged substep fluxes
    (the updates are affine in them with weights summing to one), and the
    returned state is ``u^n - (dt/|K|) sum |S| F_pp`` with the extrapolated
    flux set, which conserves mass exactly.

    Parameters
    ----------
    substep_solver : callable(values, sub_dt, sub_time) ->
        (values, FaceFluxSet)
        Solves one implicit-Euler substep and reports the realized flux, so
        that ``out = in - (sub_dt/|K|) sum |S| flux`` holds.

    Returns
    -------
    (CellField, FaceFluxSet, list[CellField])
        The new state, the extrapolated flux set, and every substep chain
        state (the "intermediate stages" of the method).
    """
    if p < 1:
        raise ValueError("extrapolation order p must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    u0 = cell_values(u_n)

    T = {}
    F = {}
    chain_states = []
    for k in range(1, p + 1):
        y = u0
        flux_sum = None
        for j in range(1, k + 1):
            y, flux = substep_solver(y, dt / k, t + j * dt / k)
            chain_states.append(CellField(grid, np.asarray(y, dtype=float)))
            flux_sum = flux if flux_sum is None else flux_sum + flux
        T[(k, 1)] = np.asarray(y, dtype=float)
        F[(k, 1)] = flux_sum * (1.0 / k)

    for k in range(2, p + 1):
        for j in range(k, p + 1):
            w = 1.0 / (j / (j - k + 1) - 1.0)
            T[(j, k)] = T[(j, k - 1)] + w * (T[(j, k - 1)] - T[(j - 1, k - 1)])
            F[(j, k)] = F[(j, k - 1)] + w * (F[(j, k - 1)] - F[(j - 1, k - 1)])

    flux_pp = F[(p, p)].check_finite()
    u_new = u0 - dt * flux_pp.divergence()
    return CellField(grid, u_new), flux_pp, chain_states
