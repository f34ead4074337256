"""Bound-preserving implicit finite-volume schemes for scalar
convection-diffusion equations on uniform 1D/2D grids.

The package combines fifth-order WENO spatial reconstruction with
diagonally implicit (DIRK) and extrapolated backward-Euler (IEX) time
integrators, and enforces global solution bounds either by flux-corrected
transport or by a monolithic convex limiter, both built on a provably
bound-preserving first-order companion scheme.
"""

__version__ = "0.1.0"
