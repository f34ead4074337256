"""Type-II Anderson mixing of the updates of :func:`solvers.iterate`.

:func:`anderson_mixed` turns a map that an update proposes for a stack of
members into the mixed update (Walker & Ni, SIAM J. Numer. Anal. 49, 2011),
with one history, restart and least-squares problem per member, so each
member's iterates are those of its solve alone.  The GMC fixed point of
:mod:`limiters` proposes its diagonal map.  The stage solves of
:mod:`solvers` propose the quasi-Newton map ``y - J^{-1} r(y)`` with the
held low-order pseudo-Jacobian ``J``; mixing it is, on a linear problem,
essentially GMRES preconditioned by ``J``, with no extra flux evaluation.
The low-order solve is not mixed: ``J`` is its own residual's Jacobian
except for the wave-speed bound, so the plain update already contracts
fast, and mixing it took more updates and flux evaluations (bl1d, nx=800
at dt = 5h: 9.44 → 15.50 updates per solve).
"""

import math

import numpy as np
from scipy.linalg import lapack

#: Number of past updates an Anderson-mixed solve keeps, and the residual
#: growth over one update that drops them.  Dropping them on any growth can
#: lock the GMC sweeps into a cycle just above ``limiters.TOL_GMC``.
ANDERSON_DEPTH = 5
ANDERSON_RESTART = 2.0


def _anderson_coefficients(dF, f):
    """The least-squares solution ``c`` of ``dF^T c = f`` for the few rows
    of ``dF``, from the Cholesky factors of the Gram matrix ``dF dF^T``
    (LAPACK ``dposv``); ``lstsq`` takes over when that matrix is not
    numerically positive definite."""
    _, c, info = lapack.dposv(dF @ dF.T, dF @ f)
    if info != 0 or not all(map(math.isfinite, c.tolist())):
        c = np.linalg.lstsq(dF.T, f, rcond=None)[0]
    return c


def anderson_mixed(propose, guess):
    """An update for :func:`solvers.iterate` on the stack ``guess`` that
    mixes the map ``propose(y, r, res, prev_res, members)`` (an update's
    arguments; it returns the stack ``T(y)`` and leaves ``y`` as it is) by
    type-II Anderson acceleration, per member: with the member's last
    ``ANDERSON_DEPTH`` differences ``dT`` of ``T`` and ``dF`` of ``f = T(y) -
    y``, ``y <- T(y) - dT c``, ``c`` the least-squares solution of ``dF c =
    f``.  A member whose residual grew more than ``ANDERSON_RESTART``-fold
    drops its history and takes the plain ``y <- T(y)``."""
    # Per member, rows hold the last differences of f and T(y), in rotating
    # order; ``kept`` counts the differences stored since the last restart.
    dF, dT = np.empty((2, len(guess), ANDERSON_DEPTH, guess[0].size))
    kept, f_prev, T_prev = ([x] * len(guess) for x in (0, None, None))

    def advance(y, r, res, prev_res, members):
        T = propose(y, r, res, prev_res, members).reshape(len(y), -1)
        f = T - y.reshape(len(y), -1)
        mixed = []
        for j, i in enumerate(range(len(y)) if members is None else members):
            if res[j] > ANDERSON_RESTART * prev_res[j]:
                # The last mixed update made things worse: drop the history.
                kept[i], f_prev[i] = 0, None
            if f_prev[i] is None:
                mixed.append(T[j])
            else:
                dF[i, kept[i] % ANDERSON_DEPTH] = f[j] - f_prev[i]
                dT[i, kept[i] % ANDERSON_DEPTH] = T[j] - T_prev[i]
                kept[i] += 1
                rows = min(kept[i], ANDERSON_DEPTH)
                mixed.append(T[j] - _anderson_coefficients(dF[i, :rows], f[j])
                             @ dT[i, :rows])
            f_prev[i], T_prev[i] = f[j], T[j]
        return (mixed[0] if len(mixed) == 1 else np.stack(mixed)).reshape(
            y.shape)

    return advance
