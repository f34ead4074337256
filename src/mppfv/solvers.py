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

One loop, :func:`iterate`, runs every nonlinear solve, on a stack of
members (the member axes of :mod:`mesh`; a single solve is a stack of
one): it takes the l2 norm of each member's residual ``y - reference +
step_dt div(G)``, checks it is finite, stops each member at its first
residual at most the solve's tolerance, raises
:class:`NonConvergenceError` on a spent budget and otherwise calls its
caller's update.  A member that stops leaves the stack with the
iterate and flux it stopped at, so each member's result and report are
those of its solve alone, and the others go on without it.  The
quasi-Newton update (``_quasi_newton``, for :func:`newton_low_order` and the stages of
:func:`make_stage_solver`, IEX substeps included) solves with the
pseudo-Jacobian above, one held matrix and LU per member's scale.
:func:`anderson.anderson_mixed` turns a proposed map into the update by
type-II Anderson mixing, with one history and least-squares problem per
member: the quasi-Newton map of the stage solves, and
``limiters._gmc_fixed_point``'s GMC diagonal map.  The low-order solve
takes the plain quasi-Newton update (:mod:`anderson` says why).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import fluxes
from .anderson import anderson_mixed
from .mesh import FIRST, LAST, PERIODIC, ghost_fill, sides

TOL_LOW_ORDER = 1e-12
TOL_STAGE = 1e-8
MAX_ITER_LOW_ORDER = 100
# The stage iteration matrix is the low-order pseudo-Jacobian, so the plain
# update converges linearly at a rate that degrades as the step grows.  The
# mixed updates of large-step runs (dt = 5h) take 12.5 per stage on bl1d
# nx=800 (at most 17) and 37-70 on kpp2d at 16^2-64^2 (at most 88).
MAX_ITER_STAGE = 200
#: An iterate whose residual is more than this share of the previous one has
#: stalled, and quasi-Newton refreshes its matrix.
STALL_RATIO = 0.5


class NonConvergenceError(RuntimeError):
    """A nonlinear solve exhausted its iteration budget, or a time step
    failed to finish (``harness.run`` keeps the step's error as cause)."""

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


# ---------------------------------------------------------------------------
# The nonlinear iteration loop
# ---------------------------------------------------------------------------

class StackReport(tuple):
    """The :class:`SolverReport` of every member of a stacked solve, in
    stack order.  Its ``iterations`` are the stack's: the updates the
    stacked solve made, which are its slowest member's."""

    @property
    def iterations(self):
        return max(report.iterations for report in self)


def take(value, members):
    """The entries of the per-member ``value`` that belong to ``members``
    (all of them when ``members`` is None); a scalar belongs to every
    member."""
    if members is None or np.ndim(value) == 0:
        return value
    return value[members]


def _blame(err, member):
    """``err``, naming the stack ``member`` it came from (kept when set)."""
    if getattr(err, "member", None) is None:
        err.member = member
    return err


def iterate(reference, evaluate, advance, step_dt, guess, grid, tol, max_iter,
            what):
    """Solve ``y - reference + (step_dt/|K_i|) sum |S| evaluate(y) = 0``
    for every member of a stack from ``guess`` by the updates
    ``y = advance(y, r, res, prev_res, members)``.

    ``reference`` and ``guess`` are stacks of cell states, shape
    ``(m, *grid.shape)``; ``step_dt`` broadcasts against them (a per-member
    ``(m,) + (1,)*dim`` array, or one scalar for all).  ``evaluate(y,
    members)`` returns the stacked face flux of the iterate stack ``y``.
    ``members`` lists the stack indices of the rows of ``y``, ``r`` (the
    residuals) and the lists ``res`` (their l2 norms) and ``prev_res``
    (the previous ones, infinite at first); it is None while every member
    is in the stack.

    Each member stops at its first residual at most ``tol``.  A member
    that stops leaves the stack, so later evaluations and updates see only
    the members still iterating, and keeps the iterate and flux it stopped
    at, as if it had been solved alone.  Returns the stacks ``(y,
    evaluate(y))`` and a :class:`StackReport` with each member's number of
    updates and ``tol``.  A non-finite residual raises ``ValueError`` at
    once, a spent budget :class:`NonConvergenceError` with the member's
    final residual.  A ``ValueError`` (``LinAlgError`` included) from
    ``advance`` is raised again as the same type, with the iteration in
    its message.  ``what`` names the solve in every message, and the
    error's ``member`` attribute is the stack index of the member that
    raised it, also for a ``ValueError`` from ``evaluate`` (an update's
    error keeps the member it names, if any).
    """
    count = len(guess)
    y, members, out = guess, None, None
    ids, prev_res, reports = range(count), [np.inf] * count, [None] * count
    for k in range(max_iter + 1):
        try:
            flux = evaluate(y, members)
        except ValueError as err:
            raise _blame(err, _first_failing(evaluate, y, ids))
        r = y - reference + step_dt * fluxes.divergence(flux, grid)
        # Each member's l2 norm, as np.linalg.norm takes it.
        res = [math.sqrt(row.dot(row)) for row in r.reshape(len(r), -1)]
        stop = []
        for j, value in enumerate(res):
            if not math.isfinite(value):
                raise _blame(ValueError(
                    f"{what}: non-finite residual at iteration {k}"), ids[j])
            if value <= tol:
                reports[ids[j]] = SolverReport(k, value, True, tol)
                stop.append(j)
        if stop:
            if len(stop) == len(ids) and out is None:
                return y, flux, StackReport(reports)
            out = out or (np.empty((count,) + y.shape[1:]), tuple(
                np.empty((count,) + f.shape[1:]) for f in flux))
            done = [ids[j] for j in stop]
            out[0][done] = y[stop]
            for f_out, f in zip(out[1], flux):
                f_out[done] = f[stop]
            if len(stop) == len(ids):
                return out + (StackReport(reports),)
            keep = [j for j in range(len(ids)) if j not in stop]
            ids = [ids[j] for j in keep]
            members = np.array(ids)
            y, r, reference, step_dt = (take(v, keep)
                                        for v in (y, r, reference, step_dt))
            res, prev_res = ([v[j] for j in keep] for v in (res, prev_res))
        if k == max_iter:
            raise _blame(NonConvergenceError(
                f"{what} stalled at residual {res[0]:.3e} after {max_iter} "
                f"iterations", SolverReport(max_iter, res[0], False, tol)),
                ids[0])
        try:
            y = advance(y, r, res, prev_res, members)
        except ValueError as err:
            raise _blame(type(err)(f"{what}: {err} at iteration {k}"),
                         getattr(err, "member", None)) from err
        prev_res = res


def _first_failing(evaluate, y, ids):
    """The stack index of the first member whose flux, evaluated alone,
    raises ``ValueError`` (the first member when none does)."""
    if len(ids) > 1:
        for j, member in enumerate(ids):
            try:
                evaluate(y[j:j + 1], np.array([member]))
            except ValueError:
                return member
    return ids[0]


def _quasi_newton(reference, flux_of, step_dt, stage_time, guess, engine,
                  tol, max_iter, what, mixed):
    """Solve ``y - reference + (step_dt/|K_i|) sum |S| flux_of(y) = 0`` by
    quasi-Newton iteration from ``guess`` for every member of a stack:
    :func:`iterate` to ``tol``, with this update.  ``step_dt`` and
    ``stage_time`` hold one value per member (any shape with ``m``
    entries).

    Each member's updates start on the matrix the engine holds for its
    ``step_dt``, the one the last converged solve at that scale ended with;
    the first solve at a scale assembles the pseudo-Jacobian at the
    member's guess and ``stage_time``.  Once a member's residual exceeds
    ``STALL_RATIO`` times its previous one, every later update of that
    member refreshes: it assembles the pseudo-Jacobian at its iterate and
    solves with that matrix's LU.  A refreshed matrix equal to the one in
    use is not factorized again: the member keeps that LU and stops
    refreshing (a pseudo-Jacobian that does not depend on the state).  A
    converged solve leaves the engine holding, for each member's scale in
    stack order, the matrix that member ended with.  Returns and raises as
    :func:`iterate`.

    With ``mixed`` the update is the proposal ``y + J^{-1}(-r)``, mixed per
    member by :func:`anderson.anderson_mixed`; a member keeps its history
    across its matrix refreshes.  Without, it is the proposal itself.
    """
    y = np.array(guess, dtype=float)
    scales = [float(s) for s in np.ravel(step_dt)]
    times = np.ravel(stage_time)
    spec, grid = engine.spec, engine.grid
    jac = [engine.held.get(scale) for scale in scales]
    for i, matrix in enumerate(jac):
        if matrix is None:
            try:
                jac[i] = assemble_pseudo_jacobian(y[i], spec, grid,
                                                  scales[i], t=times[i])
            except ValueError as err:
                raise _blame(err, i)
    refresh, stall = [False] * len(y), [STALL_RATIO] * len(y)

    def propose(y, r, res, prev_res, members):
        proposal = np.empty_like(y)
        for j, i in enumerate(range(len(y)) if members is None else members):
            try:
                refresh[i] = refresh[i] or res[j] > stall[i] * prev_res[j]
                if refresh[i]:
                    fresh = assemble_pseudo_jacobian(y[j], spec, grid,
                                                     scales[i], t=times[i])
                    if np.array_equal(fresh.stencil, jac[i].stencil):
                        refresh[i], stall[i] = False, np.inf
                    else:
                        jac[i] = fresh
                proposal[j] = y[j] + jac[i].solve(-np.ravel(r[j])).reshape(
                    y[j].shape)
            except ValueError as err:
                raise _blame(err, i)
        return proposal

    update = anderson_mixed(propose, y) if mixed else propose
    out = iterate(reference, flux_of, update, step_dt, y, grid, tol, max_iter,
                  what)
    for scale, matrix in zip(scales, jac):
        engine.held[scale] = matrix
    return out


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
    _, flux, reports = _quasi_newton(
        u_n[None],
        lambda u, _: fluxes.low_order_with_bars(u, spec, grid,
                                                t=stage_time)[0],
        dt, stage_time, u_n[None], engine, TOL_LOW_ORDER, MAX_ITER_LOW_ORDER,
        "low-order solve", mixed=False)
    flux = tuple(f[0] for f in flux)
    return u_n - dt * fluxes.divergence(flux, grid), flux, reports[0]


def make_stage_solver(engine):
    """Stage-solver callable for :func:`time_integration.dirk_step` on the
    engine's problem and grid; every stage of every step starts on the
    matrix the engine holds for its implicit scale, and its quasi-Newton
    updates are Anderson-mixed (:func:`_quasi_newton`).

    ``solver(reference, step_dt, stage_time, guess)`` solves the stacked
    stages ``y - reference + (step_dt/|K_i|) sum |S| G^H(y) = 0``, one per
    member (the stage contract of :func:`time_integration.dirk_step`), and
    returns ``(y, G^H(y), StackReport)``, ``G^H(y)`` a per-axis tuple of
    stacked face arrays; it raises on non-convergence.
    """
    spec, grid = engine.spec, engine.grid

    def solver(reference, step_dt, stage_time, guess):
        return _quasi_newton(
            reference,
            lambda y, members: fluxes.high_order_flux(
                y, spec, grid, t=take(stage_time, members)),
            step_dt, stage_time, guess, engine, TOL_STAGE, MAX_ITER_STAGE,
            "stage solve", mixed=True)

    return solver

