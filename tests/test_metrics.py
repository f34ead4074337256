"""Diagnostics: bound-violation tracking, discrete L1 error, EOC, mass."""

import dataclasses
import math

import numpy as np
import pytest

from mppfv.mesh import PERIODIC, StructuredGrid
from mppfv.metrics import (RunDiagnostics, cell_center_values, compute_E1,
                           eoc, total_mass, update_delta)
from mppfv.problems import linear_advdiff_1d

from test_weno import quartic_cell_averages


class _Bounds:
    def __init__(self, lo, hi):
        self.global_min = lo
        self.global_max = hi


class TestUpdateDelta:
    def test_interior_state_distance_to_bounds(self):
        diag = RunDiagnostics()
        update_delta(diag, np.array([0.3, 0.6, 0.5]), _Bounds(0.0, 1.0))
        assert diag.delta == pytest.approx(0.3, abs=1e-16)

    def test_running_minimum_over_states(self):
        diag = RunDiagnostics()
        update_delta(diag, np.array([0.5]), _Bounds(0.0, 1.0))
        update_delta(diag, np.array([0.9]), _Bounds(0.0, 1.0))   # worse: 0.1
        update_delta(diag, np.array([0.5]), _Bounds(0.0, 1.0))   # no change
        assert diag.delta == pytest.approx(0.1, abs=1e-16)

    def test_negative_for_violations(self):
        diag = RunDiagnostics()
        update_delta(diag, np.array([-1e-3, 0.5]), _Bounds(0.0, 1.0))
        assert diag.delta == pytest.approx(-1e-3, abs=1e-18)
        update_delta(diag, np.array([0.2, 1.0 + 2e-3]), _Bounds(0.0, 1.0))
        assert diag.delta == pytest.approx(-2e-3, rel=1e-12)

    def test_unbounded_maximum_uses_lower_distance_only(self):
        diag = RunDiagnostics()
        update_delta(diag, np.array([5.0, 7.0]), _Bounds(0.0, np.inf))
        assert diag.delta == pytest.approx(5.0)

    def test_defaults(self):
        diag = RunDiagnostics()
        assert diag.delta == np.inf and diag.stage_delta == np.inf
        assert diag.e1 == {} and diag.mass_drift == 0.0


def _periodic_spec_grid(n, lo=0.0, hi=1.0):
    spec = linear_advdiff_1d(0.0)
    grid = StructuredGrid(1, (n,), (lo,), (hi,), (PERIODIC,))
    return spec, grid


class TestCellCenterValues:
    def test_constant_reproduced_exactly(self):
        spec, grid = _periodic_spec_grid(12)
        out = cell_center_values(np.full(12, 0.7), spec, grid)
        assert np.allclose(out, 0.7, rtol=0.0, atol=1e-15)

    def test_fourth_order_convergence_1d(self):
        spec, _ = _periodic_spec_grid(8)
        errs = []
        for n in (16, 32):
            grid = StructuredGrid(1, (n,), (0.0,), (1.0,), (PERIODIC,))
            x = grid.axis_centers(0)
            h = grid.spacing[0]
            # exact sin averages via the antiderivative difference
            avg = (np.cos(2 * np.pi * (x - h / 2))
                   - np.cos(2 * np.pi * (x + h / 2))) / (2 * np.pi * h)
            out = cell_center_values(avg, spec, grid)
            errs.append(np.max(np.abs(out - np.sin(2 * np.pi * x))))
        rate = math.log2(errs[0] / errs[1])
        assert rate > 3.7

    def test_quartic_averages_recover_center_values(self):
        # Degree-4 data: the conversion is exact up to roundoff.  Periodic
        # wrap breaks the polynomial, so only interior cells count.
        spec, grid = _periodic_spec_grid(20)
        x = grid.axis_centers(0)
        h = grid.spacing[0]
        coeffs = (0.3, -1.2, 0.8, 0.05, 2.0)
        avg = quartic_cell_averages(coeffs, x, h)
        out = cell_center_values(np.asarray(avg, dtype=float), spec, grid)
        point = sum(c * x ** k for k, c in enumerate(coeffs))
        assert np.allclose(out[2:-2], point[2:-2], rtol=0.0, atol=1e-12)


class TestComputeE1:
    def test_constant_offset_gives_offset_times_measure(self):
        spec, grid = _periodic_spec_grid(40, lo=0.0, hi=2.0)
        exact_now = spec.exact_solution(grid.axis_centers(0), None, 0.0)
        const_spec = dataclasses.replace(
            spec, exact_solution=lambda x, y, t: np.full_like(
                np.asarray(x, dtype=float), 0.4))
        field = np.full(40, 0.4 + 1e-3)
        e1 = compute_E1(field, const_spec, grid, t=0.0)
        assert e1 == pytest.approx(1e-3 * 2.0, rel=1e-13)
        assert exact_now.shape == (40,)  # the builtin really is nonconstant

    def test_decreases_at_high_order_on_builtin_problem(self):
        spec = linear_advdiff_1d(0.0)
        errs = []
        for n in (32, 64):
            grid = StructuredGrid(1, (n,), spec.domain_lo, spec.domain_hi,
                                  spec.boundary)
            x = grid.axis_centers(0)
            h = grid.spacing[0]
            # fourth-degree-accurate averages of the initial profile
            offsets = np.array([-0.5 + 1e-17, -0.25, 0.0, 0.25, 0.5 - 1e-17])
            w = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0  # Boole's rule
            samples = np.array([spec.initial_condition(x + o * h, None)
                                for o in offsets])
            avg = w @ samples
            errs.append(compute_E1(avg, spec, grid, t=0.0))
        assert errs[0] / errs[1] > 12.0  # ~4th order in the average quadrature


class TestEoc:
    def test_exact_power_law(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        errors = [3.7 * h ** 3.5 for h in hs]
        rates = eoc(errors, hs)
        assert len(rates) == 3
        assert np.allclose(rates, 3.5, rtol=0.0, atol=1e-12)

    def test_irregular_refinement_ratio(self):
        rates = eoc([1.0, 1.0 / 27.0], [1.0, 1.0 / 3.0])
        assert rates[0] == pytest.approx(3.0, abs=1e-13)

    def test_zero_error_yields_infinite_rate(self):
        rates = eoc([1e-3, 0.0], [0.1, 0.05])
        assert math.isinf(rates[0]) and rates[0] > 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            eoc([1.0, 0.5], [0.1])


class TestTotalMass:
    def test_unit_field_measures_domain(self):
        grid = StructuredGrid(1, (10,), (0.0,), (2.0,), (PERIODIC,))
        assert total_mass(np.ones(10), grid) == pytest.approx(2.0, rel=1e-15)

    def test_matches_volume_weighted_sum(self, rng):
        grid = StructuredGrid(2, (6, 4), (0.0, 0.0), (3.0, 1.0),
                              (PERIODIC, PERIODIC))
        u = rng.standard_normal(grid.shape)
        want = grid.cell_volume * float(np.sum(u))
        assert total_mass(u, grid) == want
