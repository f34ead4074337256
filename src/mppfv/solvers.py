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

The matrix is assembled into a sparsity pattern computed once per grid
(the first time that grid is assembled): the CSR index arrays and the data
slot of every face term, the terms summed into their slots in the order a
COO-to-CSR conversion sums them, so the data equal those of a COO
assembly (bitwise, but for the sign of zeros: every slot starts at +0.0).
Every face keeps both off-diagonal positions (explicit zeros included), so
the pattern is structurally symmetric.

Linear solves (modified Newton, Hairer & Wanner, *Solving ODEs II*,
§IV.8): every solve starts on the frozen matrix for its implicit scale,
factorized once per scale and held by the :class:`JacobianEngine`.  Once an
iterate's residual is more than ``STALL_RATIO`` of the previous one, every
later update of that solve assembles the pseudo-Jacobian at its iterate.
If the assembled data equal the frozen matrix's (state-independent
problems), the frozen LU solves it and every later update of the solve,
with no further assembly; otherwise 1D factorizes it and 2D runs GMRES
preconditioned by the frozen LU (relative tolerance 1e-13).

Each LU fits its matrix (:class:`SparseBandedMatrix`).  The 1D
pseudo-Jacobian is tridiagonal, with two corner entries on a periodic
axis: LAPACK ``dgttrf``/``dgttrs`` factorize and solve it in ``O(N)``,
the corners by Sherman–Morrison (Press et al., *Numerical Recipes*,
§2.7).  The 2D pattern is structurally symmetric, so SuperLU orders it by
minimum degree on ``A^T + A`` (``MMD_AT_PLUS_A``) rather than by its
default COLAMD, with about half the fill.  The GMRES preconditioner is the
same LU.

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
from .mesh import LAST, PERIODIC, ghost_fill
from .problems import initial_cell_averages

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


def _cyclic_band_slots(indptr, indices):
    """Data slots of the sub-, main and super-diagonal of a CSR matrix read
    cyclically (row ``i``, columns ``i-1``, ``i``, ``i+1`` mod ``N``), as a
    ``(3, N)`` array in which ``nnz`` marks an entry that is not stored; so
    the corner ``[0, N-1]`` is the first sub-diagonal slot and ``[N-1, 0]``
    the last super-diagonal one.  ``None`` when ``N < 3``, an entry lies
    off these diagonals or one is stored twice."""
    n, nnz = len(indptr) - 1, int(indptr[-1])
    if n < 3 or nnz > 3 * n:
        return None
    rows = np.repeat(np.arange(n), np.diff(indptr))
    band = (indices - rows + 1) % n  # 0 sub, 1 main, 2 super
    if np.any(band > 2):
        return None
    slots = np.full((3, n), nnz)
    slots[band, rows] = np.arange(nnz)
    if np.count_nonzero(slots < nnz) < nnz:
        return None
    return slots


class _TridiagonalLU:
    """LAPACK ``gttrf`` factors of a cyclic tridiagonal matrix given by its
    bands (row ``i`` holds ``sub[i]``, ``main[i]``, ``sup[i]`` in columns
    ``i-1``, ``i``, ``i+1`` mod ``N``; ``main`` is overwritten).

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


@dataclass
class SparseBandedMatrix:
    """Banded sparse matrix (tridiagonal with periodic corners in 1D,
    5-point pattern with periodic wrap in 2D) with a cached factorization.

    The stored pattern is structurally symmetric by construction: every
    face contributes both off-diagonal positions (values may be zero).

    The LU fits the pattern.  A matrix of ``N >= 3`` rows stored only on
    the three cyclic diagonals (main, first sub- and super-diagonal, the
    two periodic corners) gets :class:`_TridiagonalLU`.  Any other gets
    SuperLU with the minimum-degree ordering of ``A^T + A``, which suits a
    structurally symmetric pattern (rotation2d 128²: L+U 2.44M → 1.08M
    nonzeros against the default COLAMD).  SuperLU also decides every
    matrix the tridiagonal LU finds singular.  ``_bands`` holds the slots
    of :func:`_cyclic_band_slots`, found from the pattern unless given.
    """

    matrix: object
    _lu: object = field(default=None, repr=False, compare=False)
    _bands: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = m
        if self._bands is None:
            self._bands = _cyclic_band_slots(m.indptr, m.indices)

    def factorize(self):
        """Compute (once) and return the LU factorization; the returned
        object solves with ``.solve(b)``."""
        if self._lu is None:
            if self._bands is not None:
                bands = np.append(self.matrix.data, 0.0)[self._bands]
                try:
                    self._lu = _TridiagonalLU(*bands)
                except np.linalg.LinAlgError:
                    pass  # SuperLU decides
            if self._lu is None:
                try:
                    self._lu = spla.splu(self.matrix.tocsc(),
                                         permc_spec="MMD_AT_PLUS_A")
                except RuntimeError as err:  # splu signals exact singularity
                    raise np.linalg.LinAlgError(str(err)) from err
        return self._lu

    def solve(self, rhs, preconditioner=None, rtol=1e-13):
        """Solve ``A x = rhs``: directly via LU, or by preconditioned GMRES
        when another factorized matrix is supplied as preconditioner."""
        b = np.ravel(np.asarray(rhs, dtype=float))
        if preconditioner is None:
            return self.factorize().solve(b)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return np.zeros_like(b)
        lu = preconditioner.factorize()
        M = spla.LinearOperator(self.matrix.shape, matvec=lu.solve)
        x, info = spla.gmres(self.matrix, b, M=M, restart=60, maxiter=300,
                             rtol=rtol, atol=0.0)
        if info != 0 or np.linalg.norm(self.matrix @ x - b) > 10 * rtol * nb:
            return self.factorize().solve(b)
        return x


# ---------------------------------------------------------------------------
# Pseudo-Jacobian assembly
# ---------------------------------------------------------------------------

def _face_adjacent_ids(grid, axis):
    """Flattened cell ids on the low/high side of each face of ``axis``,
    with -1 marking a ghost side, and the mask of faces to assemble (on
    periodic axes the wrap face is counted once, at the near array end)."""
    ids = np.arange(grid.num_cells).reshape(grid.shape)
    low, high = fluxes.adjacent_cells(ids, grid, axis, -1)
    use = np.ones(low.shape, dtype=bool)
    if grid.boundary[axis] == PERIODIC:
        use[LAST[axis]] = False
    return low.ravel(), high.ravel(), use.ravel()


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


class _JacobianPattern:
    """The pseudo-Jacobian's sparsity pattern on one grid.

    ``groups[axis]`` lists the face-term groups of that axis in assembly
    order as ``(faces, sign, side)``: the flat indices of the faces in the
    group, the sign of the term and which flux derivative it takes (0 for
    ``dG/du_L``, 1 for ``dG/du_R``).  The groups are the row of the
    low-side cell (the face is outward, +axis): its diagonal and, where
    both sides are cells, its high-side column; then the row of the
    high-side cell (the face is inward, -axis): its diagonal and its
    low-side column.  ``slots`` maps every term, the identity's last, to
    its CSR data slot.
    """

    def __init__(self, grid):
        N = grid.num_cells
        self.groups, rows, cols = [], [], []
        for axis in range(grid.dim):
            low, high, use = _face_adjacent_ids(grid, axis)
            faces = np.flatnonzero(use)
            L, R = low[faces], high[faces]
            mL, mR = L >= 0, R >= 0
            both = mL & mR
            groups = []
            for m, sign, side, row, col in ((mL, 1.0, 0, L, L),
                                            (both, 1.0, 1, L, R),
                                            (mR, -1.0, 1, R, R),
                                            (both, -1.0, 0, R, L)):
                groups.append((faces[m], sign, side))
                rows.append(row[m])
                cols.append(col[m])
            self.groups.append(groups)
        ids = np.arange(N)
        rows = np.concatenate(rows + [ids])
        cols = np.concatenate(cols + [ids])
        entries, self.slots = np.unique(rows * N + cols, return_inverse=True)
        self.nnz = len(entries)
        r, c = np.divmod(entries, N)
        index = np.int32 if max(self.nnz, N) < 2**31 else np.int64
        self.shape = (N, N)
        self.indices = c.astype(index)
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(r, minlength=N)))).astype(index)
        # Every matrix on this grid shares these; none may change them.
        self.indices.setflags(write=False)
        self.indptr.setflags(write=False)
        self.bands = _cyclic_band_slots(self.indptr, self.indices)

    def matrix(self, terms):
        """The CSR matrix with each term summed into its slot, in order."""
        data = np.bincount(self.slots, weights=terms, minlength=self.nnz)
        csr = sp.csr_matrix((data, self.indices, self.indptr),
                            shape=self.shape)
        return SparseBandedMatrix(csr, _bands=self.bands)


@functools.lru_cache(maxsize=16)
def _jacobian_pattern(grid):
    """The grid's pattern, built on its first assembly."""
    return _JacobianPattern(grid)


def assemble_pseudo_jacobian(values, spec, grid, scale, t=0.0):
    """Pseudo-Jacobian ``J = I + (scale/|K_i|) sum_faces |S| dG^L/du_j`` at
    the given state, with the wave-speed bound held fixed.

    ``scale`` is the total implicit weight: the time step itself for the
    backward-Euler system, ``a_mm * dt`` for DIRK stage ``m``.  Ghost cells
    of Dirichlet boundaries are data, not unknowns: they contribute no
    columns.  The matrix shares the grid's cached index arrays.
    """
    u_ext = ghost_fill(values, spec, grid, time=t, width=1)
    pattern = _jacobian_pattern(grid)
    terms = []
    for axis, groups in enumerate(pattern.groups):
        dG = [d.ravel() for d in _axis_flux_derivatives(u_ext, spec, grid,
                                                        axis, t)]
        coef = scale / grid.spacing[axis]
        terms += [sign * coef * dG[side][faces]
                  for faces, sign, side in groups]
    # The identity's ones are summed into the diagonal slots last; explicit
    # zeros of one-sided (pure upwind) couplings stay in the pattern.
    terms.append(np.ones(grid.num_cells))
    return pattern.matrix(np.concatenate(terms))


def frozen_jacobian(spec, grid, dt):
    """Constant-coefficient pseudo-Jacobian, factorized once.

    Linearizes about the constant state ``ubar = (max u0 - min u0)/2`` of
    the initial data; at a constant state the slope-dependent diffusion
    terms vanish, so the matrix is exactly the discrete linear
    convection-diffusion operator and can be reused across all steps.
    """
    u0 = initial_cell_averages(spec, grid)
    ubar = 0.5 * (float(np.max(u0)) - float(np.min(u0)))
    frozen_state = np.full(grid.shape, ubar)
    jac = assemble_pseudo_jacobian(frozen_state, spec, grid, dt, t=0.0)
    jac.factorize()
    return jac


# ---------------------------------------------------------------------------
# Linear-solve strategy of the quasi-Newton loop
# ---------------------------------------------------------------------------

class JacobianEngine:
    """Holds one frozen factorization per implicit scale ``step_dt`` and
    solves each quasi-Newton update.

    A refreshed update assembles the pseudo-Jacobian at its iterate.  When
    its data equal the frozen matrix's, the frozen LU solves it (bitwise
    what factorizing it again would give); otherwise 1D factorizes it and
    2D runs GMRES preconditioned by the frozen LU.
    """

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self._frozen = {}

    def frozen(self, step_dt):
        key = float(step_dt)
        if key not in self._frozen:
            self._frozen[key] = frozen_jacobian(self.spec, self.grid, key)
        return self._frozen[key]

    def newton_update(self, state, step_dt, stage_time, residual, refresh):
        """Solve ``J delta = -residual``: ``J`` is the frozen matrix, or the
        pseudo-Jacobian at ``state`` when ``refresh`` is true.  Returns
        ``delta`` and whether a refreshed matrix equalled the frozen one."""
        rhs = -np.ravel(residual)
        frozen = self.frozen(step_dt)
        if refresh:
            jac = assemble_pseudo_jacobian(state, self.spec, self.grid,
                                           step_dt, t=stage_time)
            if not np.array_equal(jac.matrix.data, frozen.matrix.data):
                preconditioner = None if self.grid.dim == 1 else frozen
                delta = jac.solve(rhs, preconditioner=preconditioner)
                return delta.reshape(self.grid.shape), False
        return frozen.solve(rhs).reshape(self.grid.shape), refresh


def _l2(v):
    return float(np.linalg.norm(np.ravel(v)))


# ---------------------------------------------------------------------------
# The quasi-Newton loop
# ---------------------------------------------------------------------------

def _quasi_newton(reference, flux_of, step_dt, stage_time, guess, engine,
                  tol, max_iter, what):
    """Solve ``y - reference + (step_dt/|K_i|) sum |S| flux_of(y) = 0`` by
    quasi-Newton iteration from ``guess``; the only Newton loop.  Updates
    use the frozen matrix until a residual exceeds ``STALL_RATIO`` times the
    previous one, and are refreshed for the rest of the solve, unless a
    refreshed matrix equals the frozen one: then the frozen LU serves the
    rest.

    Returns ``(y, flux_of(y), SolverReport)`` once the l2 residual is at
    most ``tol``.  ``report.iterations`` counts Newton updates.  A
    non-finite residual raises ``ValueError`` at once.  Raises
    :class:`NonConvergenceError` carrying the final residual after
    ``max_iter`` updates; ``what`` names the solve in both messages.
    """
    y = np.asarray(guess, dtype=float).copy()
    prev_res, refresh, stall = np.inf, False, STALL_RATIO
    for k in range(max_iter + 1):
        flux = flux_of(y)
        r = y - reference + step_dt * flux.divergence()
        res = _l2(r)
        if not np.isfinite(res):
            raise ValueError(f"{what}: non-finite residual at iteration {k}")
        if res <= tol:
            return y, flux, SolverReport(k, res, True, tol)
        if k == max_iter:
            raise NonConvergenceError(
                f"{what} stalled at residual {res:.3e} "
                f"after {max_iter} iterations",
                SolverReport(max_iter, res, False, tol))
        refresh = refresh or res > stall * prev_res
        prev_res = res
        delta, exact = engine.newton_update(y, step_dt, stage_time, r,
                                            refresh)
        if exact:  # the frozen matrix is the pseudo-Jacobian: keep its LU
            refresh, stall = False, np.inf
        y += delta
    raise AssertionError("unreachable")


def newton_low_order(u_n, spec, grid, dt, t=0.0, engine=None,
                     tol=TOL_LOW_ORDER, max_iter=MAX_ITER_LOW_ORDER):
    """Solve the low-order backward-Euler system
    ``u - u^n + (dt/|K_i|) sum |S| G^L(u) = 0`` to l2 residual <= tol.

    Returns ``(u^L, G^L FaceFluxSet, SolverReport)``; raises
    :class:`NonConvergenceError` when the iteration budget is exhausted.
    The returned state is recomputed from the returned fluxes,
    ``u^L = u^n - (dt/|K|) sum |S| G^L``, so the pair is exactly
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
        u_n, lambda u: fluxes.low_order_flux_set(u, spec, grid, t=stage_time),
        dt, stage_time, u_n, engine, tol, max_iter, "low-order solve")
    return u_n - dt * flux.divergence(), flux, report


def make_stage_solver(engine):
    """Stage-solver callable for :func:`time_integration.dirk_step` on the
    engine's problem and grid, sharing the engine's frozen factorizations
    across all stages and steps.

    ``solver(reference, step_dt, stage_time, guess)`` solves
    ``y - reference + (step_dt/|K_i|) sum |S| G^H(y) = 0`` and returns
    ``(y, G^H(y), SolverReport)``; it raises on non-convergence.
    """
    spec, grid = engine.spec, engine.grid

    def solver(reference, step_dt, stage_time, guess):
        return _quasi_newton(
            reference,
            lambda y: fluxes.high_order_flux(y, spec, grid, t=stage_time),
            step_dt, stage_time, guess, engine, TOL_STAGE, MAX_ITER_STAGE,
            "stage solve")

    return solver

