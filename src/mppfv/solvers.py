"""Newton-type solvers for the implicit low- and high-order systems.

The backward-Euler low-order system and each DIRK stage are solved with a
Newton-like iteration whose iteration matrix is a *pseudo-Jacobian*: the
exact derivative of the low-order residual with the dependence of the
wave-speed bound on the solution ignored.  The same matrix serves the
high-order stage systems (differentiating a WENO residual exactly is not
worth the cost), which turns Newton into a robust quasi-Newton iteration;
the residual always uses the true (low- or high-order) fluxes, so converged
answers are exact solutions of the intended systems regardless of the
iteration matrix.

Per face with low-side state ``u_L``, high-side state ``u_R``, spacing
``d``, wave-speed bound ``lam``, face diffusion ``c`` and its state
derivative ``c'`` (evaluated at the mean state; the face states come from
:func:`fluxes._face_states`, the same ones the low-order flux uses), the
flux derivatives are

    dG/du_L = f'(u_L)/2 + lam/2 + c/d - (c'/2) (u_R - u_L)/d
    dG/du_R = f'(u_R)/2 - lam/2 - c/d - (c'/2) (u_R - u_L)/d

and the pseudo-Jacobian is ``J = I + (scale/|K_i|) sum_faces |S| dG/du_j``
with ``scale`` the total implicit weight (the time step for backward
Euler, ``a_mm * dt`` for stage ``m``).  Cell ids are the flattened cell
array of the :mod:`mesh` axis convention, so the face-to-cell map of every
axis comes from :func:`fluxes.adjacent_cells` with no dimension branch.

The matrix is held as a per-cell stencil, an array of shape
``(1 + 2*dim, *grid.shape)``: row 0 is the diagonal, rows ``1 + 2*axis``
and ``2 + 2*axis`` are each cell's couplings to the previous and the next
cell along ``axis`` (across the seam of a periodic axis; zero where that
cell is a Dirichlet ghost, which is data, not an unknown).  The diagonal
sums its face terms in the order a COO assembly does, so the stencil read
as CSR equals a COO assembly's data (bitwise, but for the sign of zeros).
Only SuperLU and the tests read it as CSR
(:attr:`SparseBandedMatrix.matrix`), through index arrays computed once per
grid; every face between two cells keeps both off-diagonal positions
(explicit zeros included), so the pattern is structurally symmetric.

Linear solves (modified Newton with the Jacobian reused across solves,
Hairer & Wanner, *Solving ODEs II*, §IV.8), one rule in every dimension:
the :class:`JacobianEngine` holds, per implicit scale, the matrix and LU
that the last converged solve at that scale ended with, and the next solve
there starts on it.  The first solve at a scale assembles the
pseudo-Jacobian at its guess.  Once an iterate's residual is more than
``STALL_RATIO`` of the previous one, every later update of that solve
assembles the pseudo-Jacobian at its iterate and factorizes it.  A
refreshed matrix whose stencil equals that of the matrix in use (signs of
zeros aside) keeps that LU for the rest of the solve, with no further
assembly: the pseudo-Jacobian of a state-independent problem (rotation2d)
or of one that depends on time only (vortex2d).

Each LU fits its matrix (:class:`SparseBandedMatrix`).  The three rows
of a 1D stencil are the bands of a tridiagonal matrix, with two corner
entries on a periodic axis: LAPACK ``dgttrf``/``dgttrs`` factorize and
solve it in ``O(N)``, the corners by Sherman–Morrison (Press et al.,
*Numerical Recipes*, §2.7).  The 2D pattern is structurally symmetric, so
SuperLU orders it by minimum degree on ``A^T + A`` (``MMD_AT_PLUS_A``)
rather than by its default COLAMD, with about half the fill.

One loop, ``_quasi_newton``, runs every such solve; its two callers differ
only in the flux they iterate on and in their reference and starting
states: the low-order backward-Euler step (:func:`newton_low_order`) and
a stage of the DIRK loop, an IEX substep included (the solver from
:func:`make_stage_solver`).  It stops at the first iterate whose l2
residual meets the tolerance and returns that iterate with the flux
evaluated there; when the budget runs out it raises
:class:`NonConvergenceError` whose report carries the final residual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import fluxes
from .mesh import FIRST, LAST, PERIODIC, ghost_fill, sides

TOL_LOW_ORDER = 1e-12
TOL_STAGE = 1e-8
MAX_ITER_LOW_ORDER = 100
# The stage iteration matrix is the low-order pseudo-Jacobian, so convergence
# is linear with a rate that degrades as the step size grows; large-step runs
# (dt ~ 5 dx on a shock) need ~60 iterations per stage.
MAX_ITER_STAGE = 200
#: An iterate whose residual is more than this share of the previous one has
#: stalled: quasi-Newton refreshes its matrix, GMC may stop at its tolerance.
STALL_RATIO = 0.5


class NonConvergenceError(RuntimeError):
    """A nonlinear solve exhausted its iteration budget."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one nonlinear or linear solve."""

    iterations: int
    residual: float
    converged: bool
    tolerance: float

    def __post_init__(self):
        if self.converged and not self.residual <= self.tolerance:
            raise ValueError("converged report must satisfy its tolerance")


class _TridiagonalLU:
    """LAPACK ``gttrf`` factors of a cyclic tridiagonal matrix given by its
    bands (row ``i`` holds ``sub[i]``, ``main[i]``, ``sup[i]`` in columns
    ``i-1``, ``i``, ``i+1`` mod ``N``; the bands are left unchanged).

    Nonzero corners ``top = A[0, N-1]`` and ``bottom = A[N-1, 0]`` are split
    off by Sherman–Morrison (Press et al., *Numerical Recipes*, §2.7):
    ``A = T + u v^T`` with ``u = (gamma, 0, ..., bottom)`` and
    ``v = (1, 0, ..., top/gamma)``, ``T`` tridiagonal.  ``gamma = -A[0, 0]``
    (or minus the larger corner when that is 0), and ``T^{-1} u`` is solved
    once, here.  Raises ``LinAlgError`` when ``T`` or the correction is
    exactly singular.
    """

    def __init__(self, sub, main, sup):
        top, bottom = sub[0], sup[-1]
        cyclic = top != 0.0 or bottom != 0.0
        if cyclic:
            gamma = -main[0] if main[0] != 0.0 else -max(abs(top),
                                                         abs(bottom))
            main = main.copy()
            main[0] -= gamma
            main[-1] -= top * bottom / gamma
        *self._factors, info = lapack.dgttrf(sub[1:], main, sup[:-1])
        if info > 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal factor is exactly singular at row {info - 1}")
        self._z = None
        if cyclic:
            u = np.zeros(len(main))
            u[0], u[-1] = gamma, bottom
            z = lapack.dgttrs(*self._factors, u)[0]
            self._v_last = top / gamma
            denom = 1.0 + z[0] + self._v_last * z[-1]
            if denom == 0.0:
                raise np.linalg.LinAlgError("cyclic correction is singular")
            self._z = z / denom

    def solve(self, b):
        x = lapack.dgttrs(*self._factors, b)[0]
        if self._z is not None:
            x -= (x[0] + self._v_last * x[-1]) * self._z
        return x


@dataclass(eq=False)
class SparseBandedMatrix:
    """The pseudo-Jacobian on ``grid`` as its per-cell ``stencil`` (see the
    module docstring), with a cached factorization.

    Every matrix is solved with its own LU, which fits the stencil.  The
    three rows of a 1D stencil on ``N >= 3`` cells go straight to
    :class:`_TridiagonalLU`.  Any other matrix gets SuperLU on
    :attr:`matrix` with the minimum-degree ordering of ``A^T + A``, which
    suits a structurally symmetric pattern (rotation2d 128²: L+U 2.44M →
    1.08M nonzeros against the default COLAMD).  SuperLU also decides every
    matrix the tridiagonal LU finds singular.
    """

    stencil: np.ndarray
    grid: object
    _lu: object = field(default=None, repr=False)

    @functools.cached_property
    def matrix(self):
        """The matrix as CSR, on the index arrays cached for its grid."""
        indices, indptr, slots = _csr_index(self.grid)
        data = np.bincount(slots, weights=self.stencil.ravel(),
                           minlength=len(indices) + 1)[:-1]
        n = self.grid.num_cells
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def factorize(self):
        """Compute (once) and return the LU factorization; the returned
        object solves with ``.solve(b)``."""
        if self._lu is None:
            if len(self.stencil) == 3 and self.grid.num_cells >= 3:
                main, sub, sup = self.stencil
                try:
                    self._lu = _TridiagonalLU(sub, main, sup)
                except np.linalg.LinAlgError:
                    pass  # SuperLU decides
            if self._lu is None:
                try:
                    self._lu = spla.splu(self.matrix.tocsc(),
                                         permc_spec="MMD_AT_PLUS_A")
                except RuntimeError as err:  # splu signals exact singularity
                    raise np.linalg.LinAlgError(str(err)) from err
        return self._lu

    def solve(self, rhs):
        """Solve ``A x = rhs`` with the LU of :meth:`factorize`."""
        return self.factorize().solve(np.ravel(np.asarray(rhs, dtype=float)))


@functools.lru_cache(maxsize=16)
def _csr_index(grid):
    """``(indices, indptr, slots)``: the CSR index arrays of the
    pseudo-Jacobian on ``grid`` and the data slot of every entry of the
    flattened stencil, ``nnz`` for a Dirichlet ghost coupling (not
    stored).  Computed on the grid's first use, shared and read-only."""
    n = grid.num_cells
    ids = np.arange(n).reshape(grid.shape)
    cols = [ids]
    for axis in range(grid.dim):
        low, high = fluxes.adjacent_cells(ids, grid, axis, -1)
        cols += [sides(low, axis)[0], sides(high, axis)[1]]
    cols = np.ravel(cols)
    rows = np.tile(ids.ravel(), len(cols) // n)
    stored = cols >= 0
    entries, inverse = np.unique(rows[stored] * n + cols[stored],
                                 return_inverse=True)
    slots = np.full(len(cols), len(entries))
    slots[stored] = inverse
    r, c = np.divmod(entries, n)
    index = np.int32 if max(len(entries), n) < 2**31 else np.int64
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))))
    out = (c.astype(index), indptr.astype(index), slots)
    for arr in out:
        arr.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Pseudo-Jacobian assembly
# ---------------------------------------------------------------------------

def _axis_flux_derivatives(u_ext, spec, grid, axis, t):
    """Per-face ``(dG/du_L, dG/du_R)`` of the low-order flux."""
    ua, ub, face_xy, a_xy, b_xy, lam, u_mid, c = fluxes._face_states(
        u_ext, spec, grid, axis, t)
    fpa = np.asarray(spec.flux_derivative(axis, ua, *a_xy, t), dtype=float)
    fpb = np.asarray(spec.flux_derivative(axis, ub, *b_xy, t), dtype=float)
    d = grid.spacing[axis]
    cp = np.asarray(spec.diffusion_derivative(u_mid, *face_xy), dtype=float)
    slope = (ub - ua) / d
    shape = ua.shape
    dGdL = np.broadcast_to(0.5 * fpa + 0.5 * lam + c / d - 0.5 * cp * slope,
                           shape)
    dGdR = np.broadcast_to(0.5 * fpb - 0.5 * lam - c / d - 0.5 * cp * slope,
                           shape)
    return dGdL, dGdR


def assemble_pseudo_jacobian(values, spec, grid, scale, t=0.0):
    """Pseudo-Jacobian ``J = I + (scale/|K_i|) sum_faces |S| dG^L/du_j`` at
    the given state, with the wave-speed bound held fixed.

    ``scale`` is the total implicit weight: the time step itself for the
    backward-Euler system, ``a_mm * dt`` for DIRK stage ``m``.  Ghost cells
    of Dirichlet boundaries are data, not unknowns: their couplings are
    zero.
    """
    u_ext = ghost_fill(values, spec, grid, width=1)
    stencil = np.zeros((1 + 2 * grid.dim,) + grid.shape)
    main = stencil[0]
    for axis in range(grid.dim):
        coef = scale / grid.spacing[axis]
        dL, dR = (fluxes.tie_periodic_seam(coef * d, grid, axis)
                  for d in _axis_flux_derivatives(u_ext, spec, grid, axis, t))
        (dL_lo, dL_hi), (dR_lo, dR_hi) = sides(dL, axis), sides(dR, axis)
        # The order of a COO assembly: each cell's high face (where the
        # cell is the low side), then its low face, axis by axis.  The zero
        # start changes no bit once the identity is added.
        main += dL_hi
        main -= dR_lo
        prev, nxt = stencil[1 + 2 * axis], stencil[2 + 2 * axis]
        prev[...] = -dL_lo
        nxt[...] = dR_hi
        if grid.boundary[axis] != PERIODIC:
            prev[FIRST[axis]] = nxt[LAST[axis]] = 0.0
    main += 1.0
    return SparseBandedMatrix(stencil, grid)


# ---------------------------------------------------------------------------
# Linear-solve strategy of the quasi-Newton loop
# ---------------------------------------------------------------------------

class JacobianEngine:
    """The problem and grid of a run, and in ``held`` the pseudo-Jacobian
    (with its LU) that the last converged quasi-Newton solve at each
    implicit scale ``float(step_dt)`` ended with; one engine serves every
    solve of the run, and only :func:`_quasi_newton` reads ``held``."""

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self.held = {}


def _l2(v):
    return float(np.linalg.norm(np.ravel(v)))


# ---------------------------------------------------------------------------
# The quasi-Newton loop
# ---------------------------------------------------------------------------

def _quasi_newton(reference, flux_of, step_dt, stage_time, guess, engine,
                  tol, max_iter, what):
    """Solve ``y - reference + (step_dt/|K_i|) sum |S| flux_of(y) = 0`` by
    quasi-Newton iteration from ``guess``; the only Newton loop.

    Updates start on the matrix the engine holds for ``step_dt``, the one
    the last converged solve at that scale ended with; the first solve at
    a scale assembles the pseudo-Jacobian at ``guess`` and ``stage_time``.
    Once a residual exceeds ``STALL_RATIO`` times the previous one, every
    later update refreshes: it assembles the pseudo-Jacobian at its iterate
    and solves with that matrix's LU.  A refreshed matrix equal to the one
    in use is not factorized again: the solve keeps that LU and stops
    refreshing (a pseudo-Jacobian that does not depend on the state).  A
    converged solve leaves the engine holding the matrix it ended with.

    Returns ``(y, flux_of(y), SolverReport)`` once the l2 residual is at
    most ``tol``.  ``report.iterations`` counts Newton updates.  A
    non-finite residual raises ``ValueError`` at once.  Raises
    :class:`NonConvergenceError` carrying the final residual after
    ``max_iter`` updates; ``what`` names the solve in both messages.
    """
    y = np.asarray(guess, dtype=float).copy()
    scale = float(step_dt)
    jac = engine.held.get(scale)
    if jac is None:
        jac = assemble_pseudo_jacobian(y, engine.spec, engine.grid, step_dt,
                                       t=stage_time)
    prev_res, refresh, stall = np.inf, False, STALL_RATIO
    for k in range(max_iter + 1):
        flux = flux_of(y)
        r = y - reference + step_dt * fluxes.divergence(flux, engine.grid)
        res = _l2(r)
        if not np.isfinite(res):
            raise ValueError(f"{what}: non-finite residual at iteration {k}")
        if res <= tol:
            engine.held[scale] = jac
            return y, flux, SolverReport(k, res, True, tol)
        if k == max_iter:
            raise NonConvergenceError(
                f"{what} stalled at residual {res:.3e} "
                f"after {max_iter} iterations",
                SolverReport(max_iter, res, False, tol))
        refresh = refresh or res > stall * prev_res
        prev_res = res
        if refresh:
            fresh = assemble_pseudo_jacobian(y, engine.spec, engine.grid,
                                             step_dt, t=stage_time)
            if np.array_equal(fresh.stencil, jac.stencil):
                refresh, stall = False, np.inf
            else:
                jac = fresh
        y += jac.solve(-np.ravel(r)).reshape(y.shape)
    raise AssertionError("unreachable")


def newton_low_order(u_n, spec, grid, dt, t=0.0, engine=None):
    """Solve the low-order backward-Euler system
    ``u - u^n + (dt/|K_i|) sum |S| G^L(u) = 0`` to l2 residual at most
    ``TOL_LOW_ORDER`` in at most ``MAX_ITER_LOW_ORDER`` updates.

    Returns ``(u^L, G^L, SolverReport)``, ``G^L`` a per-axis tuple of face
    arrays; raises :class:`NonConvergenceError` when the iteration budget
    is exhausted.  The returned state is recomputed from the returned
    fluxes, ``u^L = u^n - (dt/|K|) sum |S| G^L``, so the pair is exactly
    conservative; the reported residual is that of the final Newton
    iterate, from which the returned state differs by at most the
    tolerance.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if engine is None:
        engine = JacobianEngine(spec, grid)
    stage_time = t + dt
    _, flux, report = _quasi_newton(
        u_n,
        lambda u: fluxes.low_order_with_bars(u, spec, grid, t=stage_time)[0],
        dt, stage_time, u_n, engine, TOL_LOW_ORDER, MAX_ITER_LOW_ORDER,
        "low-order solve")
    return u_n - dt * fluxes.divergence(flux, grid), flux, report


def make_stage_solver(engine):
    """Stage-solver callable for :func:`time_integration.dirk_step` on the
    engine's problem and grid; every stage of every step starts on the
    matrix the engine holds for its implicit scale.

    ``solver(reference, step_dt, stage_time, guess)`` solves
    ``y - reference + (step_dt/|K_i|) sum |S| G^H(y) = 0`` and returns
    ``(y, G^H(y), SolverReport)``, ``G^H(y)`` a per-axis tuple of face
    arrays; it raises on non-convergence.
    """
    spec, grid = engine.spec, engine.grid

    def solver(reference, step_dt, stage_time, guess):
        return _quasi_newton(
            reference,
            lambda y: fluxes.high_order_flux(y, spec, grid, t=stage_time),
            step_dt, stage_time, guess, engine, TOL_STAGE, MAX_ITER_STAGE,
            "stage solve")

    return solver

