"""Problem definitions: flux, diffusion, wave-speed bounds, initial/boundary
data, global solution bounds, and exact solutions where available.

The PDE solved is the scalar conservation law with (possibly degenerate)
diffusion

    u_t + div f(u, x, t) = div( c(u, x) grad u ),      c >= 0,

on a box, with periodic or constant-Dirichlet boundaries.  A
:class:`ProblemSpec` bundles everything a scheme needs; the module ships
eight named benchmark constructors (four 1D, four 2D).

All evaluation callbacks are vectorized over numpy arrays and share the
signature convention ``(u, x, y, t)``; flux-like callbacks additionally
take the axis as the first argument.  The points ``(x, y)`` come from
:meth:`mesh.StructuredGrid.points`: arrays that broadcast to the cell or
face array they describe (not full meshes), with ``y = 0.0`` in 1D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import StructuredGrid, PERIODIC


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one PDE instance.

    Fields
    ------
    name : str
        Registry name (e.g. ``"burgers1d"``).
    domain_lo, domain_hi : tuple
        Box corners; their length is the dimension :attr:`dim`.
    boundary : tuple
        Per axis, :data:`mesh.PERIODIC` or the Dirichlet pair ``(low,
        high)``; :func:`make_grid` hands it to the grid, which checks it
        and holds the values for :func:`mesh.ghost_fill`.
    flux : callable(axis, u, x, y, t) -> ndarray
        Component of f along ``axis``.
    flux_derivative : callable(axis, u, x, y, t) -> ndarray
        d(flux component)/du, used by the iteration matrices.
    diffusion : callable(u, x, y) -> ndarray
        Nonnegative diffusion coefficient c(u, x).
    diffusion_derivative : callable(u, x, y) -> ndarray
        dc/du.
    wave_speed_bound : callable(axis, ua, ub, ra, rb, x, y, t) -> ndarray
        Per-face positive bound on the convective wave speed; receives the
        two adjacent cell averages and the two face-reconstructed values
        (callers without reconstructions pass the cell averages twice).
    initial_condition : callable(x, y) -> ndarray
        Pointwise initial data; projected to cell averages by quadrature.
    global_min, global_max : float
        Global solution bounds enforced by the limiters (``inf`` allowed).
    final_time : float
        Default integration horizon.
    exact_solution : callable(x, y, t) -> ndarray, optional
        Reference solution for error measurement, if known.
    flux_at_cell_centers : bool
        Where the x-dependence of f is sampled in the low-order flux and bar
        states.  ``False`` (default) samples at the face midpoint, which
        keeps the bar states inside the local value hull for velocity fields
        bounded by the wave-speed policy.  The flux-form/bar-state-form
        identity of :mod:`fluxes` then holds where the sampled velocity is
        discretely divergence-free: for the builtin incompressible flows on
        square cells, but not for vortex2d where dx != dy (ROADMAP item 4).
        ``True`` samples at the two adjacent cell centers, which keeps the
        identity exact for compressible drift (used by the steady problem,
        whose only enforced bound, zero, is scale-invariant and therefore
        survives center sampling).  High-order fluxes always sample at face
        midpoints, where the reconstructed point values live.
    """

    name: str
    domain_lo: tuple
    domain_hi: tuple
    boundary: tuple
    flux: Callable
    flux_derivative: Callable
    diffusion: Callable
    diffusion_derivative: Callable
    wave_speed_bound: Callable
    initial_condition: Callable
    global_min: float
    global_max: float
    final_time: float
    exact_solution: Optional[Callable] = None
    flux_at_cell_centers: bool = False

    @property
    def dim(self):
        """Spatial dimension."""
        return len(self.domain_lo)


#: Floor applied by wave-speed policies so bar-state formulas may divide by
#: the bound.
LAMBDA_FLOOR = 1e-12


def _filled(value):
    """``filled(a, b)``: ``np.full`` of ``value`` shaped like ``a`` and
    ``b`` broadcast together, returned read-only, so every caller shares
    it.  Each pair of shapes gets a view of one buffer per size, so the
    x- and y-faces of a square grid, or a state and a stack of one, share
    their storage."""
    cache, buffers = {}, {}

    def filled(a, b):
        key = (np.shape(a), np.shape(b))
        out = cache.get(key)
        if out is None:
            shape = np.broadcast_shapes(*key)
            size = math.prod(shape)
            if size not in buffers:
                buffers[size] = np.full(size, value)
                buffers[size].flags.writeable = False
            out = cache[key] = buffers[size].reshape(shape)
        return out

    return filled


def _constant_wave_speed(value):
    filled = _filled(float(value))

    def policy(axis, ua, ub, ra, rb, x, y, t):
        return filled(ua, ub)

    return policy


def _constant(value):
    """The coefficient callback ``(u, x, y) -> value`` (diffusion or its
    derivative), shaped like ``u`` and ``x`` broadcast together; the array
    is read-only and shared between calls."""
    filled = _filled(value)

    def coefficient(u, x, y):
        return filled(u, x)

    return coefficient


def _transport(velocity):
    """``flux`` and ``flux_derivative`` of linear transport ``f = v u`` by
    the velocity field ``velocity(axis, x, y, t)``, as keyword arguments of
    :class:`ProblemSpec`."""
    def flux(axis, u, x, y, t):
        return velocity(axis, x, y, t) * np.asarray(u, dtype=float)

    def flux_derivative(axis, u, x, y, t):
        return velocity(axis, x, y, t) * np.ones(np.shape(u))

    return dict(flux=flux, flux_derivative=flux_derivative)


def make_grid(spec, nx, ny=None):
    """Build the :class:`StructuredGrid` matching a problem's domain; ``ny``
    (default ``nx``) only for a 2D problem."""
    if ny is not None and spec.dim < 2:
        raise ValueError(f"problem {spec.name!r} is 1D and takes no ny")
    cells = (int(nx), int(nx) if ny is None else int(ny))[:spec.dim]
    return StructuredGrid(cells, spec.domain_lo, spec.domain_hi, spec.boundary)


# ---------------------------------------------------------------------------
# 1D benchmarks
# ---------------------------------------------------------------------------

def linear_advdiff_1d(epsilon):
    """Linear advection-diffusion ``u_t + u_x = eps*u_xx`` on [0, 2*pi],
    periodic, with the classic sin^4 initial profile and a closed-form exact
    solution; bounds [0, 1], final time 2*pi."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    eps = float(epsilon)

    def exact(x, y, t):
        return (0.375
                - 0.5 * np.exp(-4.0 * eps * t) * np.cos(2.0 * (x - t))
                + 0.125 * np.exp(-16.0 * eps * t) * np.cos(4.0 * (x - t)))

    return ProblemSpec(
        name="linear1d",
        domain_lo=(0.0,),
        domain_hi=(2.0 * np.pi,),
        boundary=(PERIODIC,),
        **_transport(lambda axis, x, y, t: 1.0),
        diffusion=_constant(eps),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=_constant_wave_speed(1.0),
        initial_condition=lambda x, y: exact(x, y, 0.0),
        global_min=0.0,
        global_max=1.0,
        final_time=2.0 * np.pi,
        exact_solution=exact,
    )


def burgers_1d():
    """Viscous Burgers equation ``u_t + (u^2/2)_x = 0.01*u_xx`` on [-1, 1],
    periodic, square-pulse initial data (2 inside |x|<1/2, else 0); bounds
    [0, 2], final time 0.25.  The wave-speed bound per face is the maximum of
    the adjacent cell averages and face reconstructions, floored away from
    zero."""
    eps = 0.01

    def wave_speed(axis, ua, ub, ra, rb, x, y, t):
        m = np.maximum(np.maximum(ua, ub), np.maximum(ra, rb))
        return np.maximum(m, LAMBDA_FLOOR)

    return ProblemSpec(
        name="burgers1d",
        domain_lo=(-1.0,),
        domain_hi=(1.0,),
        boundary=(PERIODIC,),
        flux=lambda axis, u, x, y, t: 0.5 * np.asarray(u, dtype=float) ** 2,
        flux_derivative=lambda axis, u, x, y, t: np.asarray(u, dtype=float),
        diffusion=_constant(eps),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=wave_speed,
        initial_condition=lambda x, y: np.where(np.abs(x) < 0.5, 2.0, 0.0),
        global_min=0.0,
        global_max=2.0,
        final_time=0.25,
        exact_solution=None,
    )


def buckley_leverett_1d():
    """Viscous Buckley-Leverett equation on [0, 1] with fractional-flow flux
    ``u^2/(u^2+(1-u)^2)`` and degenerate diffusion ``0.01*4u(1-u)`` (zero
    outside [0, 1]); Dirichlet data u(0)=1, u(1)=0, ramp initial condition;
    bounds [0, 1], wave-speed bound 2, final time 0.2."""
    eps = 0.01

    def flux(axis, u, x, y, t):
        u = np.asarray(u, dtype=float)
        den = u ** 2 + (1.0 - u) ** 2
        return u ** 2 / den

    def flux_derivative(axis, u, x, y, t):
        u = np.asarray(u, dtype=float)
        den = u ** 2 + (1.0 - u) ** 2
        return 2.0 * u * (1.0 - u) / den ** 2

    def diffusion(u, x, y):
        u = np.asarray(u, dtype=float)
        inside = (u >= 0.0) & (u <= 1.0)
        return np.where(inside, eps * 4.0 * u * (1.0 - u), 0.0)

    def diffusion_derivative(u, x, y):
        u = np.asarray(u, dtype=float)
        inside = (u >= 0.0) & (u <= 1.0)
        return np.where(inside, eps * (4.0 - 8.0 * u), 0.0)

    return ProblemSpec(
        name="bl1d",
        domain_lo=(0.0,),
        domain_hi=(1.0,),
        boundary=((1.0, 0.0),),
        flux=flux,
        flux_derivative=flux_derivative,
        diffusion=diffusion,
        diffusion_derivative=diffusion_derivative,
        wave_speed_bound=_constant_wave_speed(2.0),
        initial_condition=lambda x, y: np.where(x < 1.0 / 3.0,
                                                np.maximum(1.0 - 3.0 * x, 0.0), 0.0),
        global_min=0.0,
        global_max=1.0,
        final_time=0.2,
        exact_solution=None,
    )


def steady_gaussian_1d():
    """Convection-diffusion balance with linear drift toward the origin,
    ``f(u, x) = -eps*x*u/sigma^2`` and constant diffusion eps = sigma^2 =
    0.01, on [-1, 1] with homogeneous Dirichlet data.  The sin^2 initial mass
    relaxes to the steady Gaussian ``exp(-x^2/(2 sigma^2))``, which serves as
    the reference solution; only the lower bound 0 is enforced; final time
    20."""
    eps = 0.01
    sigma2 = 0.01
    drift = eps / sigma2  # = 1

    return ProblemSpec(
        name="steady1d",
        domain_lo=(-1.0,),
        domain_hi=(1.0,),
        boundary=((0.0, 0.0),),
        **_transport(lambda axis, x, y, t: -drift * np.asarray(x, dtype=float)),
        diffusion=_constant(eps),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=_constant_wave_speed(1.0),
        initial_condition=lambda x, y: np.sqrt(2.0 * np.pi) * 0.1
        * np.sin(2.0 * np.pi * x) ** 2,
        global_min=0.0,
        global_max=np.inf,
        final_time=20.0,
        exact_solution=lambda x, y, t: np.exp(-x ** 2 / (2.0 * sigma2)),
        flux_at_cell_centers=True,
    )


# ---------------------------------------------------------------------------
# 2D benchmarks
# ---------------------------------------------------------------------------

def three_body_initial_condition(x, y):
    """Hump, cone and slotted disk on [0, 1]^2 (shared by the rotation and
    vortex benchmarks)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r_hump = np.sqrt((x - 0.25) ** 2 + (y - 0.5) ** 2)
    r_cone = np.sqrt((x - 0.5) ** 2 + (y - 0.25) ** 2)
    r_disk = np.sqrt((x - 0.5) ** 2 + (y - 0.75) ** 2)
    hump = 0.25 + 0.25 * np.cos(np.pi * np.minimum(r_hump, 0.15) / 0.15)
    cone = 1.0 - r_cone / 0.15
    in_disk = (r_disk <= 0.15) & ~((np.abs(x - 0.5) < 0.025) & (y < 0.85))
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    out = np.where(r_cone <= 0.15, cone, out)
    out = np.where(in_disk, 1.0, out)
    out = np.where(r_hump <= 0.15, hump, out)
    return out


def solid_rotation_2d():
    """Rigid-body rotation of the three-body profile about (0.5, 0.5):
    velocity ``2*pi*(0.5 - y, x - 0.5)`` on [0, 1]^2, periodic; one full
    revolution per unit time; bounds [0, 1], wave-speed bound pi, final
    time 1."""

    def velocity(axis, x, y, t):
        if axis == 0:
            return 2.0 * np.pi * (0.5 - np.asarray(y, dtype=float))
        return 2.0 * np.pi * (np.asarray(x, dtype=float) - 0.5)

    def exact(x, y, t):
        # The profile rotates rigidly: trace each point back by angle 2*pi*t.
        theta = 2.0 * np.pi * t
        dx = np.asarray(x, dtype=float) - 0.5
        dy = np.asarray(y, dtype=float) - 0.5
        x0 = 0.5 + np.cos(theta) * dx + np.sin(theta) * dy
        y0 = 0.5 - np.sin(theta) * dx + np.cos(theta) * dy
        return three_body_initial_condition(x0, y0)

    return ProblemSpec(
        name="rotation2d",
        domain_lo=(0.0, 0.0),
        domain_hi=(1.0, 1.0),
        boundary=(PERIODIC, PERIODIC),
        **_transport(velocity),
        diffusion=_constant(0.0),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=_constant_wave_speed(np.pi),
        initial_condition=three_body_initial_condition,
        global_min=0.0,
        global_max=1.0,
        final_time=1.0,
        exact_solution=exact,
    )


def swirling_vortex_2d(T=1.5):
    """Swirling deformation of the three-body profile on [0, 1]^2, periodic:
    velocity ``(sin^2(pi x) sin(2 pi y), -sin^2(pi y) sin(2 pi x)) *
    cos(pi t / T)``.  The flow reverses at T/2, so the exact solution at time
    T equals the initial data; bounds [0, 1], wave-speed bound 1."""
    if T <= 0:
        raise ValueError("vortex period T must be positive")
    T = float(T)

    def velocity(axis, x, y, t):
        g = np.cos(np.pi * t / T)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if axis == 0:
            return np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y) * g
        return -np.sin(np.pi * y) ** 2 * np.sin(2.0 * np.pi * x) * g

    return ProblemSpec(
        name="vortex2d",
        domain_lo=(0.0, 0.0),
        domain_hi=(1.0, 1.0),
        boundary=(PERIODIC, PERIODIC),
        **_transport(velocity),
        diffusion=_constant(0.0),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=_constant_wave_speed(1.0),
        initial_condition=three_body_initial_condition,
        global_min=0.0,
        global_max=1.0,
        final_time=T,
        exact_solution=None,
    )


def linear_advdiff_2d(epsilon):
    """Linear advection-diffusion ``u_t + u_x + u_y = eps*(u_xx + u_yy)`` on
    [0, 2*pi]^2, periodic, with the diagonal sin^4(x+y) profile and a
    closed-form exact solution; bounds [0, 1], final time 0.5."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    eps = float(epsilon)

    def exact(x, y, t):
        s = x + y - 2.0 * t
        return (0.375
                - 0.5 * np.exp(-8.0 * eps * t) * np.cos(2.0 * s)
                + 0.125 * np.exp(-32.0 * eps * t) * np.cos(4.0 * s))

    return ProblemSpec(
        name="linear2d",
        domain_lo=(0.0, 0.0),
        domain_hi=(2.0 * np.pi, 2.0 * np.pi),
        boundary=(PERIODIC, PERIODIC),
        **_transport(lambda axis, x, y, t: 1.0),
        diffusion=_constant(eps),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=_constant_wave_speed(1.0),
        initial_condition=lambda x, y: exact(x, y, 0.0),
        global_min=0.0,
        global_max=1.0,
        final_time=0.5,
        exact_solution=exact,
    )


def kpp_2d(epsilon):
    """Nonconvex-flux rotating-wave benchmark: ``f(u) = (sin u, cos u)`` with
    optional diffusion eps on [-2, 2] x [-2.5, 1.5], periodic; initial data
    14*pi/4 inside the unit disk at the origin, pi/4 outside; bounds
    [pi/4, 14*pi/4], wave-speed bound 1, final time 1."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    eps = float(epsilon)

    def flux(axis, u, x, y, t):
        u = np.asarray(u, dtype=float)
        return np.sin(u) if axis == 0 else np.cos(u)

    def flux_derivative(axis, u, x, y, t):
        u = np.asarray(u, dtype=float)
        return np.cos(u) if axis == 0 else -np.sin(u)

    return ProblemSpec(
        name="kpp2d",
        domain_lo=(-2.0, -2.5),
        domain_hi=(2.0, 1.5),
        boundary=(PERIODIC, PERIODIC),
        flux=flux,
        flux_derivative=flux_derivative,
        diffusion=_constant(eps),
        diffusion_derivative=_constant(0.0),
        wave_speed_bound=_constant_wave_speed(1.0),
        initial_condition=lambda x, y: np.where(np.sqrt(x ** 2 + y ** 2) <= 1.0,
                                                14.0 * np.pi / 4.0, np.pi / 4.0),
        global_min=np.pi / 4.0,
        global_max=14.0 * np.pi / 4.0,
        final_time=1.0,
        exact_solution=None,
    )


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def evaluate_exact(spec, grid, t):
    """Exact solution sampled at cell centers, an array of ``grid.shape``.

    Raises
    ------
    ValueError
        If the problem has no exact solution.
    """
    if spec.exact_solution is None:
        raise ValueError(f"problem {spec.name!r} has no exact solution")
    return np.asarray(spec.exact_solution(*grid.center_mesh(), t),
                      dtype=float)


#: 5-point Gauss-Legendre rule on [-1/2, 1/2] (exact through degree 9).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_NODES = 0.5 * _GL_NODES
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def initial_cell_averages(spec, grid):
    """Project the pointwise initial condition to cell averages with a
    per-axis 5-point Gauss-Legendre rule (positive weights, so averages stay
    inside the global bounds whenever the pointwise data does).  The terms
    of the tensor rule are summed with the x node outermost.  Returns an
    array of ``grid.shape``."""
    centers = [grid.axis_centers(k) for k in range(grid.dim)]
    vals = np.zeros(grid.shape)
    for nodes in itertools.product(zip(_GL_NODES, _GL_WEIGHTS),
                                   repeat=grid.dim):
        weight = math.prod(w for _, w in nodes)
        per_axis = [c + node * h
                    for c, (node, _), h in zip(centers, nodes, grid.spacing)]
        vals += weight * spec.initial_condition(*grid.points(per_axis))
    return vals


#: Registry used by the command-line harness.
BUILTIN_PROBLEMS = {
    "linear1d": linear_advdiff_1d,
    "burgers1d": burgers_1d,
    "bl1d": buckley_leverett_1d,
    "steady1d": steady_gaussian_1d,
    "rotation2d": solid_rotation_2d,
    "vortex2d": swirling_vortex_2d,
    "linear2d": linear_advdiff_2d,
    "kpp2d": kpp_2d,
}
