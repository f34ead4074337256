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
``d``, combined face speed ``lam = lam^A + 2c/d`` (the wave-speed bound
and the face diffusion ``c``) and the state derivative ``c'`` of the
diffusion (evaluated at the mean state; the face states come from
:func:`fluxes._face_states`, the same ones the low-order flux uses), the
flux derivatives are

    dG/du_L = (f'(u_L) + lam)/2 - c' (u_R - u_L)/(2d)
    dG/du_R = (f'(u_R) - lam)/2 - c' (u_R - u_L)/(2d)

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
Only SuperLU, the exact LU of a 2D matrix, and the tests read it as CSR
(:attr:`SparseBandedMatrix.matrix`, converted from the stencil when read);
every face between two cells keeps both off-diagonal positions (explicit
zeros included), so the pattern is structurally symmetric.

The iteration matrix follows one rule in every dimension: modified Newton,
which re-evaluates the Jacobian only when convergence is slow (Hairer &
Wanner, *Solving ODEs II*, §IV.8).  The :class:`JacobianEngine` holds, per
implicit scale, the matrix and factorization that the last solve at that
scale ended with, and each member of a solve starts on it.  A member
assembles the pseudo-Jacobian at its iterate in two cases: when it holds no
matrix (the first solve at a scale, at its guess), and at each stall, an
update whose residual is more than ``STALL_RATIO`` of the previous one.  A
matrix assembled at a stall is solved with its exact LU
(:meth:`SparseBandedMatrix.exactly`).  Otherwise the member keeps the
matrix and LU it has.  A stall whose stencil equals the held one (signs of
zeros aside) keeps the held matrix, solved exactly, and ends the member's
stalls for that solve: the pseudo-Jacobian of a state-independent problem
(rotation2d) or of one that depends on time only (vortex2d).

Every stencil is factorized line by line (:class:`_LineFactorization`).
Along each axis, the diagonal and that axis's couplings form a stack of
cyclic tridiagonal lines, factorized and solved by one LAPACK
``dgttrf``/``dgttrs`` call on the concatenated lines in ``O(N)``, the
corners of every line at once by Sherman–Morrison (Press et al.,
*Numerical Recipes*, §2.7).  In 1D the one stack is the matrix, so the
solve is exact.  A 2D stencil ``D + X + Y`` (its diagonal, its x- and its
y-couplings) is solved with the two stacks' product ``M = (D + X) D^{-1}
(D + Y)``, the approximate factorization of Beam & Warming (AIAA J. 16,
1978), ``M - J = X D^{-1} Y``, which builds no fill.  ``M`` is only the
iteration matrix; the residual keeps the true fluxes.  At small steps it
contracts almost as well as the exact LU (rotation2d 128² at dt = h/2:
20.6 updates per stage against 20.0).  At large steps it may not contract
at all (rotation2d 16² at dt = 10h: on ``M`` alone the low-order solve
stalls at 6.3e-10 after 100 updates), so a solve's first stall switches it
to the exact LU: SuperLU on the CSR matrix with the minimum-degree
ordering of ``A^T + A`` (``MMD_AT_PLUS_A``), which suits the structurally
symmetric pattern with about half the fill of the default COLAMD.  The
held matrix keeps the switch, so later solves at that scale start on the
exact LU.

One loop, :func:`iterate`, runs every nonlinear solve, on a stack of
members (the member axes of :mod:`mesh`; a single solve is a stack of
one): it takes the l2 norm of each member's residual ``y - reference +
step_dt div(G)``, checks it is finite, stops each member at its first
residual at most the solve's tolerance, raises
:class:`NonConvergenceError` on a spent budget (or, on request, stops a
member there or once its residual freezes) and otherwise calls its
caller's update.  A member that stops leaves the stack with the
iterate and flux it stopped at, so each member's result and report are
those of its solve alone, and the others go on without it.  The
quasi-Newton update (``_quasi_newton``) solves with the pseudo-Jacobian
above, one held matrix and factorization per member's scale.  It serves
:func:`newton_low_order`, the stages of :func:`make_stage_solver` (SDIRK5
stages and IEX substeps) and the semi-discrete GMC substeps of
``limiters.make_semidiscrete_gmc_substep_solver``; for the last its
iterates are clipped into the global bounds, and a member whose residual
freezes or whose budget is spent leaves it for the GMC diagonal map.
:func:`anderson.anderson_mixed` turns a proposed map into the update by
type-II Anderson mixing, with one history and least-squares problem per
member: the quasi-Newton map of the stage solves, and the GMC diagonal
map of ``limiters._GmcSystem``.  The low-order solve takes the plain
quasi-Newton update (:mod:`anderson` says why).
"""

from __future__ import annotations

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
#: stalled, and quasi-Newton assembles its matrix anew.
STALL_RATIO = 0.5
#: A residual that moves by at most this share of the previous one has
#: frozen.  Clipped quasi-Newton updates on a limited flux can freeze where
#: the limiter coefficients switch (a burgers1d pulse at dt = 2h stays at
#: 2.2e-2 for 190 updates); slow but converging ones (kpp2d 12^2 at
#: dt = 5h, up to 122 updates) never stayed within 1 % for two updates
#: running.
FROZEN_CHANGE = 1e-2
#: Updates for which a residual may stay frozen before the semi-discrete
#: GMC substeps hand the member to the diagonal map (the ``patience`` of
#: :func:`iterate`).
FROZEN_PATIENCE = 3


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
    """LAPACK ``gttrf`` factors of a stack of cyclic tridiagonal lines given
    by their bands, each of shape ``(lines, N)`` (or ``(N,)`` for one line):
    row ``i`` of line ``l`` holds ``sub[l, i]``, ``main[l, i]``,
    ``sup[l, i]`` in columns ``i-1``, ``i``, ``i+1`` mod ``N`` of that line.
    The bands are left unchanged.  Right-hand sides and solutions are the
    lines concatenated.

    All lines go to one ``dgttrf``/``dgttrs`` call on their concatenation,
    with zero couplings between lines, so each line is factorized as if
    alone.  A line's nonzero corners ``top = A[0, N-1]`` and
    ``bottom = A[N-1, 0]`` are split off by Sherman–Morrison (Press et al.,
    *Numerical Recipes*, §2.7), vectorized over the lines:
    ``A = T + u v^T`` with ``u = (gamma, 0, ..., bottom)`` and
    ``v = (1, 0, ..., top/gamma)``, ``T`` tridiagonal.  ``gamma = -A[0, 0]``
    (or minus the larger corner when that is 0), and ``T^{-1} u`` is solved
    once, here, for all lines at once.  Raises ``LinAlgError`` when ``T``
    or a line's correction is exactly singular.
    """

    def __init__(self, sub, main, sup):
        sub, main, sup = (np.atleast_2d(band) for band in (sub, main, sup))
        top, bottom = sub[:, 0], sup[:, -1]
        cyclic = np.flatnonzero((top != 0.0) | (bottom != 0.0))
        main = main.copy()
        if len(cyclic):
            top, bottom, first = top[cyclic], bottom[cyclic], main[cyclic, 0]
            gamma = np.where(first != 0.0, -first,
                             -np.maximum(abs(top), abs(bottom)))
            main[cyclic, 0] -= gamma
            main[cyclic, -1] -= top * bottom / gamma
        # The concatenated off-diagonals, zero between lines.
        lower, upper = sub.copy(), sup.copy()
        lower[:, 0] = upper[:, -1] = 0.0
        *self._factors, info = lapack.dgttrf(lower.ravel()[1:], main.ravel(),
                                             upper.ravel()[:-1])
        if info > 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal factor is exactly singular at row {info - 1}")
        self._z = None
        if len(cyclic):
            u = np.zeros(main.shape)
            u[cyclic, 0], u[cyclic, -1] = gamma, bottom
            z = lapack.dgttrs(*self._factors, u.ravel())[0].reshape(
                main.shape)
            self._v_last = np.zeros(len(main))
            self._v_last[cyclic] = top / gamma
            denom = 1.0 + z[:, 0] + self._v_last * z[:, -1]
            if np.any(denom == 0.0):
                raise np.linalg.LinAlgError("cyclic correction is singular")
            self._z = z / denom[:, None]

    def solve(self, b):
        x = lapack.dgttrs(*self._factors, b)[0]
        if self._z is not None:
            lines = x.reshape(self._z.shape)
            lines -= ((lines[:, 0] + self._v_last * lines[:, -1])[:, None]
                      * self._z)
        return x


class _LineFactorization:
    """The line factorization of a stencil: one :class:`_TridiagonalLU` per
    axis, over that axis's lines (the rows of the cell array for x, its
    columns for y), each with the diagonal ``D`` and that axis's
    couplings.  In 1D the one factor is the matrix itself.  In 2D it is the
    approximate factorization ``M = (D + X) D^{-1} (D + Y)`` of Beam &
    Warming (AIAA J. 16, 1978), ``X`` and ``Y`` the x- and y-couplings, so
    ``M - A = X D^{-1} Y``; ``M x = b`` is solved as ``(D + X) w = b``,
    then ``(D + Y) x = D w``.  Raises ``LinAlgError`` when a line is
    exactly singular."""

    def __init__(self, stencil):
        self._d = stencil[0]
        self._lines = []
        for axis in range(self._d.ndim):
            bands = stencil.swapaxes(-1, -1 - axis)  # this axis's lines last
            self._lines.append(_TridiagonalLU(bands[1 + 2 * axis], bands[0],
                                              bands[2 + 2 * axis]))
        if self._d.ndim == 1:  # the one factor solves, with no work added
            self.solve = self._lines[0].solve

    def solve(self, b):
        """``(D + X) w = b``, then ``(D + Y) x = D w`` on the y-lines."""
        w = np.swapaxes(self._d * self._lines[0].solve(b).reshape(
            self._d.shape), -1, -2)
        return np.swapaxes(self._lines[1].solve(w.ravel()).reshape(w.shape),
                           -1, -2).ravel()


@dataclass(eq=False)
class SparseBandedMatrix:
    """The pseudo-Jacobian on ``grid`` as its per-cell ``stencil`` (see the
    module docstring), with a cached factorization.

    A stencil with at least three cells along each axis is solved with
    :class:`_LineFactorization`: exactly in 1D, and with the iteration
    matrix ``M`` in 2D unless the matrix is ``exact`` (the module
    docstring says when a solve makes it so).  Any other matrix,
    an ``exact`` 2D one, and every matrix whose lines are exactly singular,
    get SuperLU on :attr:`matrix` with the minimum-degree ordering of
    ``A^T + A``, which suits a structurally symmetric pattern (rotation2d
    128²: L+U 2.44M → 1.08M nonzeros against the default COLAMD); SuperLU
    decides whether such a matrix is singular.  A matrix that falls back to
    SuperLU becomes ``exact``.
    """

    stencil: np.ndarray
    grid: object
    _lu: object = field(default=None, repr=False)
    exact: bool = False

    @property
    def matrix(self):
        """The matrix as CSR: each stencil entry summed into its row and
        column, the Dirichlet ghost couplings dropped and explicit zeros
        kept."""
        grid = self.grid
        n = grid.num_cells
        ids = np.arange(n).reshape(grid.shape)
        cols = [ids]
        for axis in range(grid.dim):
            low, high = fluxes.adjacent_cells(ids, grid, axis, -1)
            cols += [sides(low, axis)[0], sides(high, axis)[1]]
        cols = np.ravel(cols)
        rows = np.tile(ids.ravel(), len(cols) // n)
        stored = cols >= 0
        csr = sp.coo_matrix((self.stencil.ravel()[stored],
                             (rows[stored], cols[stored])),
                            shape=(n, n)).tocsr()
        csr.data += 0.0  # a lone -0.0 coupling reads +0.0
        return csr

    def exactly(self):
        """This matrix solved with its exact LU: itself when its
        factorization is exact (every 1D matrix), else an ``exact`` copy
        without a factorization."""
        if self.exact or len(self.stencil) == 3:
            return self
        return SparseBandedMatrix(self.stencil, self.grid, exact=True)

    def factorize(self):
        """Compute (once) and return the factorization; the returned
        object solves with ``.solve(b)``."""
        if self._lu is None:
            if min(self.stencil.shape[1:]) >= 3 and (
                    len(self.stencil) == 3 or not self.exact):
                try:
                    self._lu = _LineFactorization(self.stencil)
                except np.linalg.LinAlgError:
                    pass  # SuperLU decides
            if self._lu is None:
                self.exact = True
                try:
                    self._lu = spla.splu(self.matrix.tocsc(),
                                         permc_spec="MMD_AT_PLUS_A")
                except RuntimeError as err:  # splu signals exact singularity
                    raise np.linalg.LinAlgError(str(err)) from err
        return self._lu

    def solve(self, rhs):
        """Solve ``A x = rhs`` with the factorization of :meth:`factorize`
        (``M x = rhs`` for a 2D matrix solved with ``M``)."""
        return self.factorize().solve(np.ravel(np.asarray(rhs, dtype=float)))


# ---------------------------------------------------------------------------
# Pseudo-Jacobian assembly
# ---------------------------------------------------------------------------

def _axis_flux_derivatives(u_ext, spec, grid, axis, t):
    """Per-face ``(dG/du_L, dG/du_R)`` of the low-order flux."""
    ua, ub, face_xy, a_xy, b_xy, lam, u_mid = fluxes._face_states(
        u_ext, spec, grid, axis, t)
    fpa = np.asarray(spec.flux_derivative(axis, ua, *a_xy, t), dtype=float)
    fpb = np.asarray(spec.flux_derivative(axis, ub, *b_xy, t), dtype=float)
    cp = np.asarray(spec.diffusion_derivative(u_mid, *face_xy), dtype=float)
    c_slope = cp * (ub - ua) / (2.0 * grid.spacing[axis])
    shape = ua.shape
    return (np.broadcast_to(0.5 * (fpa + lam) - c_slope, shape),
            np.broadcast_to(0.5 * (fpb - lam) - c_slope, shape))


def assemble_pseudo_jacobian(values, spec, grid, scale, t=0.0):
    """Pseudo-Jacobian ``J = I + (scale/|K_i|) sum_faces |S| dG^L/du_j`` at
    the given state, with the wave-speed bound held fixed.

    ``scale`` is the total implicit weight: the time step itself for the
    backward-Euler system, ``a_mm * dt`` for DIRK stage ``m``.  Ghost cells
    of Dirichlet boundaries are data, not unknowns: their couplings are
    zero.
    """
    u_ext = ghost_fill(values, grid, width=1)
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
    (with its factorization) that the last quasi-Newton solve at each
    implicit scale ``float(step_dt)`` ended with, by the rule of the module
    docstring; one engine serves every solve of the run, and only
    :func:`_quasi_newton` reads ``held``."""

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
            what, patience=None):
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

    Each member stops at its first residual at most ``tol``.  With
    ``patience``, a member also stops, unconverged, once its residual has
    frozen (it moved by at most ``FROZEN_CHANGE`` of the one before in
    each of the member's last ``patience`` updates) or its budget is
    spent, for its caller to go on by another method.  A member that
    stops leaves the stack, so later evaluations and updates see only the
    members still iterating, and keeps the iterate and flux it stopped
    at, as if it had been solved alone.  Returns the stacks ``(y,
    evaluate(y))`` and a :class:`StackReport` with each member's number
    of updates and ``tol`` (``converged`` false for a member stopped by
    ``patience``).  A non-finite residual raises ``ValueError`` at once;
    without ``patience``, a spent budget raises
    :class:`NonConvergenceError` with the member's final residual.  A
    ``ValueError`` (``LinAlgError`` included) from
    ``advance`` is raised again as the same type, with the iteration in
    its message.  ``what`` names the solve in every message, and the
    error's ``member`` attribute is the stack index of the member that
    raised it, also for a ``ValueError`` from ``evaluate`` (an update's
    error keeps the member it names, if any).
    """
    count = len(guess)
    y, members, out = guess, None, None
    ids, prev_res, reports = range(count), [np.inf] * count, [None] * count
    moved_at = [0] * count
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
            i = ids[j]
            if value <= tol:
                reports[i] = SolverReport(k, value, True, tol)
                stop.append(j)
            elif patience is not None:
                if abs(value - prev_res[j]) > FROZEN_CHANGE * prev_res[j]:
                    moved_at[i] = k
                if k - moved_at[i] >= patience or k == max_iter:
                    reports[i] = SolverReport(k, value, False, tol)
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
                  tol, max_iter, what, mixed, bounds=None, patience=None):
    """Solve ``y - reference + (step_dt/|K_i|) sum |S| flux_of(y) = 0`` by
    quasi-Newton iteration from ``guess`` for every member of a stack:
    :func:`iterate` to ``tol``, with this update.  ``step_dt`` and
    ``stage_time`` hold one value per member (any shape with ``m``
    entries).

    Each member's matrix follows the rule of the module docstring, at its
    ``step_dt`` and ``stage_time``.  A solve that returns leaves the engine
    holding, for each member's scale in stack order, the matrix that
    member ended with.  Returns and raises as :func:`iterate`.

    With ``mixed`` the update is the proposal ``y + J^{-1}(-r)``, mixed per
    member by :func:`anderson.anderson_mixed`; a member keeps its history
    when it assembles.  Without, it is the proposal itself.
    With ``bounds = (lo, hi)`` every update is clipped into them, and
    ``patience`` stops frozen and spent members as in :func:`iterate`;
    the engine then holds the matrices the members stopped with.
    """
    y = np.array(guess, dtype=float)
    scales = [float(s) for s in np.ravel(step_dt)]
    times = np.ravel(stage_time)
    spec, grid = engine.spec, engine.grid
    jac = [engine.held.get(scale) for scale in scales]
    stall = [STALL_RATIO] * len(y)

    def propose(y, r, res, prev_res, members):
        proposal = np.empty_like(y)
        for j, i in enumerate(range(len(y)) if members is None else members):
            try:
                held = jac[i]
                if held is None or res[j] > stall[i] * prev_res[j]:
                    jac[i] = assemble_pseudo_jacobian(y[j], spec, grid,
                                                      scales[i], t=times[i])
                    if held is not None:
                        if np.array_equal(jac[i].stencil, held.stencil):
                            jac[i], stall[i] = held, np.inf
                        jac[i] = jac[i].exactly()
                proposal[j] = y[j] + jac[i].solve(-np.ravel(r[j])).reshape(
                    y[j].shape)
            except ValueError as err:
                raise _blame(err, i)
        return proposal

    update = anderson_mixed(propose, y) if mixed else propose
    if bounds is not None:
        unclipped = update
        update = lambda *args: np.clip(unclipped(*args), *bounds)
    out = iterate(reference, flux_of, update, step_dt, y, grid, tol, max_iter,
                  what, patience)
    for scale, matrix in zip(scales, jac):
        if matrix is not None:
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
    engine's problem and grid, whose quasi-Newton updates take the
    iteration matrix by the rule of the module docstring and are
    Anderson-mixed (:func:`_quasi_newton`).

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

