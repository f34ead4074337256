"""Bound-preserving implicit finite-volume schemes for scalar
convection-diffusion equations on uniform 1D/2D grids.

The package combines fifth-order WENO spatial reconstruction with
diagonally implicit (DIRK) and extrapolated backward-Euler (IEX) time
integrators, and enforces global solution bounds either by flux-corrected
transport or by a monolithic convex limiter, both built on a provably
bound-preserving first-order companion scheme.
"""

from .fluxes import (FaceFluxSet, high_order_flux, low_order_flux_set,
                     low_order_with_bars)
from .harness import (RunConfig, build_problem, convergence_study, main,
                      read_snapshot, run, snapshot)
from .limiters import (LIMITER_CHOICES, make_semidiscrete_gmc_substep_solver,
                       zalesak_alphas)
from .mesh import (DIRICHLET, GHOST_WIDTH, PERIODIC, CellField,
                   StructuredGrid, ghost_fill)
from .metrics import (RunDiagnostics, cell_center_values, compute_E1, eoc,
                      total_mass, update_delta)
from .problems import (BUILTIN_PROBLEMS, ProblemSpec, evaluate_exact,
                       initial_cell_averages, make_grid)
from .solvers import (JacobianEngine, NonConvergenceError, SolverReport,
                      assemble_pseudo_jacobian, frozen_jacobian,
                      make_stage_solver, newton_low_order)
from .time_integration import (ButcherTableau, check_ssp_stages, dirk_step,
                               iex_step, iex_tableau,
                               order_condition_residuals, sdirk5_tableau)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROBLEMS", "ButcherTableau", "CellField",
    "DIRICHLET", "FaceFluxSet", "GHOST_WIDTH",
    "JacobianEngine", "LIMITER_CHOICES", "NonConvergenceError", "PERIODIC",
    "ProblemSpec", "RunConfig", "RunDiagnostics",
    "SolverReport", "StructuredGrid",
    "assemble_pseudo_jacobian", "build_problem", "cell_center_values",
    "check_ssp_stages", "compute_E1", "convergence_study", "dirk_step",
    "eoc", "evaluate_exact", "frozen_jacobian",
    "ghost_fill", "high_order_flux", "iex_step", "iex_tableau",
    "initial_cell_averages", "low_order_flux_set",
    "low_order_with_bars", "main", "make_grid",
    "make_semidiscrete_gmc_substep_solver", "make_stage_solver",
    "newton_low_order", "order_condition_residuals", "read_snapshot",
    "run", "sdirk5_tableau", "snapshot",
    "total_mass", "update_delta", "zalesak_alphas",
]
