"""Run diagnostics: bound-violation magnitude, L1 error, convergence order.

The bound diagnostic is ``delta = min_i min{u_i - u^min, u^max - u_i}``,
tracked as a running minimum over every recorded state of a run (negative
values measure overshoot/undershoot magnitude).  The error metric is

    E1(t) = |K_i| sum_i |utilde_i(t) - u_exact(x_i, y_i, t)|

where ``utilde`` are cell-center point values recovered from the cell
averages by the fourth-degree center-stencil conversion applied dimension
by dimension (linear, no nonlinear weights: the metric targets smooth
solutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import weno
from .mesh import ghost_fill
from .problems import evaluate_exact


@dataclass
class RunDiagnostics:
    """Accumulated diagnostics of one simulation run."""

    delta: float = np.inf
    e1: dict = field(default_factory=dict)        # time -> E1(t)
    mass_drift: float = 0.0                       # relative, flux-corrected
    stage_delta: float = np.inf                   # over intermediate stages


def bound_margin(values, spec):
    """``min_i min{u_i - u^min, u^max - u_i}`` of one cell state: negative
    by the largest bound violation; an infinite ``u^max`` bounds nothing."""
    low = float(np.min(values - spec.global_min))
    if not np.isfinite(spec.global_max):
        return low
    return min(low, float(np.min(spec.global_max - values)))


def update_delta(diag, values, spec):
    """Fold one state into the running bound-violation minimum."""
    diag.delta = min(diag.delta, bound_margin(values, spec))
    return diag


def cell_center_values(values, grid):
    """Cell-center point values from cell averages (degree-4 conversion,
    dimension by dimension)."""
    values = ghost_fill(values, grid, width=2)
    for axis in range(grid.dim):  # x, then y, each on the last array axis
        line = values.swapaxes(-1, -1 - axis)
        values = weno.center_point_values_line(line, ghost=2).swapaxes(
            -1, -1 - axis)
    return values


def compute_E1(values, spec, grid, t):
    """``E1(t) = |K| sum_i |utilde_i - u_exact(center_i, t)|``."""
    exact = evaluate_exact(spec, grid, t)
    utilde = cell_center_values(values, grid)
    return float(grid.cell_volume * np.sum(np.abs(utilde - exact)))


def eoc(errors, spacings):
    """Experimental orders of convergence between consecutive grids:
    ``rate_k = log(E_k / E_{k+1}) / log(h_k / h_{k+1})``."""
    errors = np.asarray(errors, dtype=float)
    spacings = np.asarray(spacings, dtype=float)
    if errors.shape != spacings.shape:
        raise ValueError("errors and spacings must have equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = (np.log(errors[:-1] / errors[1:])
                 / np.log(spacings[:-1] / spacings[1:]))
    return [float(r) for r in rates]


def total_mass(values, grid):
    """``sum_i |K_i| u_i``."""
    return float(grid.cell_volume * np.sum(values))
