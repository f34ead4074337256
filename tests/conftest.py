"""Shared fixtures: small custom problems with known closed forms, and
random periodic-consistent flux sets."""

import numpy as np
import pytest

from mppfv.fluxes import face_array_shapes, tie_periodic_seam
from mppfv.mesh import PERIODIC, StructuredGrid
from mppfv.problems import LAMBDA_FLOOR, ProblemSpec

#: The homogeneous Dirichlet boundary entry of an axis.
DIRICHLET = (0.0, 0.0)


def constant_speed(value):
    def policy(axis, ua, ub, ra, rb, x, y, t):
        return np.full(np.broadcast_shapes(np.shape(ua), np.shape(ub)), float(value))

    return policy


def make_linear_advection_1d(velocity=1.0, diffusion=0.0, n=None,
                             lo=0.0, hi=1.0, boundary=PERIODIC,
                             wave_speed=None):
    """Constant-coefficient advection-diffusion on [lo, hi]; ``boundary``
    is the one axis's entry, :data:`PERIODIC` or a Dirichlet pair."""
    eps = float(diffusion)
    v = float(velocity)

    spec = ProblemSpec(
        name="linear-test",
        domain_lo=(lo,),
        domain_hi=(hi,),
        boundary=(boundary,),
        flux=lambda axis, u, x, y, t: v * np.asarray(u, dtype=float),
        flux_derivative=lambda axis, u, x, y, t: v * np.ones(np.shape(u)),
        diffusion=lambda u, x, y: np.full(
            np.broadcast_shapes(np.shape(u), np.shape(x)), eps),
        diffusion_derivative=lambda u, x, y: np.zeros(
            np.broadcast_shapes(np.shape(u), np.shape(x))),
        wave_speed_bound=constant_speed(abs(v) if wave_speed is None else wave_speed),
        initial_condition=lambda x, y: 0.5 + 0.4 * np.sin(
            2.0 * np.pi * (np.asarray(x) - lo) / (hi - lo)),
        global_min=0.0,
        global_max=1.0,
        final_time=1.0,
        exact_solution=None,
    )
    if n is None:
        return spec
    grid = StructuredGrid((n,), (lo,), (hi,), (boundary,))
    return spec, grid


def make_pure_diffusion_1d(coefficient=1.0, n=None, boundary=PERIODIC):
    """Constant-coefficient heat equation with (numerically) zero advection."""
    c = float(coefficient)
    spec = ProblemSpec(
        name="diffusion-test",
        domain_lo=(0.0,),
        domain_hi=(1.0,),
        boundary=(boundary,),
        flux=lambda axis, u, x, y, t: np.zeros(
            np.broadcast_shapes(np.shape(u), np.shape(x))),
        flux_derivative=lambda axis, u, x, y, t: np.zeros(
            np.broadcast_shapes(np.shape(u), np.shape(x))),
        diffusion=lambda u, x, y: np.full(
            np.broadcast_shapes(np.shape(u), np.shape(x)), c),
        diffusion_derivative=lambda u, x, y: np.zeros(
            np.broadcast_shapes(np.shape(u), np.shape(x))),
        wave_speed_bound=constant_speed(1e-12),
        initial_condition=lambda x, y: 0.5 + 0.4 * np.sin(2.0 * np.pi * np.asarray(x)),
        global_min=0.0,
        global_max=1.0,
        final_time=1.0,
        exact_solution=None,
    )
    if n is None:
        return spec
    grid = StructuredGrid((n,), (0.0,), (1.0,), (boundary,))
    return spec, grid


def shaped(value, *templates):
    shape = np.broadcast_shapes(*(np.shape(t) for t in templates))
    return np.full(shape, float(value))


def make_burgers_1d(n=None, eps=0.01, boundary=PERIODIC, lo=-1.0, hi=1.0):
    """Inviscid-square flux with constant diffusion and a max-|state| bound."""
    spec = ProblemSpec(
        name="burgers-test",
        domain_lo=(lo,),
        domain_hi=(hi,),
        boundary=(boundary,),
        flux=lambda axis, u, x, y, t: 0.5 * np.square(np.asarray(u, dtype=float)),
        flux_derivative=lambda axis, u, x, y, t: np.asarray(u, dtype=float),
        diffusion=lambda u, x, y: shaped(eps, u, x),
        diffusion_derivative=lambda u, x, y: shaped(0.0, u, x),
        wave_speed_bound=lambda axis, ua, ub, ra, rb, x, y, t: np.maximum(
            np.maximum.reduce([np.abs(ua), np.abs(ub),
                               np.abs(ra), np.abs(rb)]), LAMBDA_FLOOR),
        initial_condition=lambda x, y: 1.0 + np.sin(
            np.pi * np.asarray(x, dtype=float)),
        global_min=-4.0,
        global_max=4.0,
        final_time=1.0,
        exact_solution=None,
    )
    if n is None:
        return spec
    return spec, StructuredGrid((n,), (lo,), (hi,), (boundary,))


def make_advection_2d(vel=(1.0, -0.5), shape=(6, 5),
                      boundary=(PERIODIC, PERIODIC)):
    """Constant-velocity advection on the unit square."""
    vx, vy = float(vel[0]), float(vel[1])
    spec = ProblemSpec(
        name="advection2d-test",
        domain_lo=(0.0, 0.0),
        domain_hi=(1.0, 1.0),
        boundary=tuple(boundary),
        flux=lambda axis, u, x, y, t: (vx if axis == 0 else vy)
        * np.asarray(u, dtype=float),
        flux_derivative=lambda axis, u, x, y, t: shaped(
            vx if axis == 0 else vy, u),
        diffusion=lambda u, x, y: shaped(0.0, u, x, y),
        diffusion_derivative=lambda u, x, y: shaped(0.0, u, x, y),
        wave_speed_bound=lambda axis, ua, ub, ra, rb, x, y, t: shaped(
            max(abs(vx if axis == 0 else vy), LAMBDA_FLOOR), ua, ub),
        initial_condition=lambda x, y: np.zeros(np.broadcast_shapes(
            np.shape(x), np.shape(y))),
        global_min=0.0,
        global_max=1.0,
        final_time=1.0,
        exact_solution=None,
    )
    grid = StructuredGrid(tuple(shape), (0.0, 0.0), (1.0, 1.0), boundary)
    return spec, grid


def random_flux_set(grid, rng):
    """Random per-axis face arrays of ``grid``, periodic seams tied."""
    return tuple(tie_periodic_seam(rng.standard_normal(shape), grid, axis)
                 for axis, shape in enumerate(face_array_shapes(grid)))


def minus(a, b):
    """The per-axis difference ``a - b`` of two face fluxes."""
    return tuple(x - y for x, y in zip(a, b))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
