"""Reconstruction kernels checked against first-principles symbolic oracles.

The oracle path never reuses the production coefficient tables: sub-stencil
polynomials are fitted by solving average-matching systems in exact rational
arithmetic, smoothness indicators are computed from their defining integrals,
and the optimal linear weights are derived by matching the five-cell
reconstruction.  The production kernels must agree with this independent
construction.  A single five-cell stencil is fed to the line kernels as a
line of its own (see :func:`face_value`).  The face-value kernel is also
held, on whole lines, to the classic formulation it replaced
(:func:`oracles.reference_face_values_line`), whose weights and candidates
the tests read directly.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from mppfv.fluxes import high_order_flux
from mppfv.weno import (CENTER_STENCIL, EPS_WENO, LINEAR_WEIGHTS_RIGHT,
                        center_point_values_line, face_derivatives_line,
                        face_values_line)

from conftest import make_linear_advection_1d
from oracles import (_candidates_right, _nonlinear_weights,
                     _smoothness_indicators, reference_face_values_line)

X = sp.Symbol("x")


def face_value(v, side):
    """WENO value at the right (``"+"``) or left (``"-"``) face of the
    center cell of the five averages ``v``: the line ``[0, *v, 0]`` with
    three ghost layers has that cell as its one interior cell."""
    um, up = face_values_line(np.array([0.0, *v, 0.0]), ghost=3)
    return float(um[1] if side == "+" else up[0])


def face_weights(v, side):
    """The three nonlinear weights behind :func:`face_value`."""
    b = _smoothness_indicators(*np.asarray(v, dtype=float))
    return tuple(float(w) for w in
                 _nonlinear_weights(*b, +1 if side == "+" else -1))


def face_derivative(v, h, side):
    """Face derivative at the right or left face of the center cell of the
    five averages ``v`` (the line kernel yields ``[left, right]``)."""
    d = face_derivatives_line(np.asarray(v, dtype=float), h, ghost=2)
    return float(d[1] if side == "+" else d[0])


def center_value(v):
    """Center-point value of the middle cell of the five averages ``v``."""
    return float(center_point_values_line(np.asarray(v, dtype=float),
                                          ghost=2)[0])


def _fit_average_polynomial(averages, centers, h):
    """Polynomial of degree len(averages)-1 whose cell averages match.

    ``centers`` are the cell midpoints; exact rational arithmetic.
    """
    n = len(averages)
    coeffs = sp.symbols(f"a0:{n}")
    p = sum(c * X ** k for k, c in enumerate(coeffs))
    eqs = []
    for vbar, xc in zip(averages, centers):
        avg = sp.integrate(p, (X, xc - sp.Rational(1, 2) * h,
                               xc + sp.Rational(1, 2) * h)) / h
        eqs.append(sp.Eq(avg, vbar))
    sol = sp.solve(eqs, coeffs, dict=True)[0]
    return p.subs(sol)


def _oracle_smoothness(p, h):
    """Sum of scaled squared-derivative integrals over the center cell."""
    total = sp.Integer(0)
    for order in (1, 2):
        d = sp.diff(p, X, order)
        total += h ** (2 * order - 1) * sp.integrate(
            d ** 2, (X, -h / 2, h / 2))
    return total


@functools.lru_cache(maxsize=None)
def _oracle_symbolic_reconstruction(side):
    """Sub-stencil face values and smoothness indicators as exact
    expressions in the symbolic averages ``v0..v4``, plus the linear
    weights; derived once per side."""
    h = sp.Integer(1)
    vs = sp.symbols("v0:5")
    centers = [k * h for k in range(-2, 3)]
    face = h / 2 if side == "+" else -h / 2
    candidates = []
    betas = []
    for k in range(3):
        p = _fit_average_polynomial(list(vs[k:k + 3]), centers[k:k + 3], h)
        candidates.append(sp.expand(p.subs(X, face)))
        betas.append(sp.expand(_oracle_smoothness(p, h)))
    return vs, candidates, betas, _oracle_linear_weights(side)


def _oracle_face_value(averages, side):
    """Full nonlinear reconstruction derived from scratch (rational until the
    final regularized weighting, which is evaluated in float).  Each average
    enters as the exact rational value of the float the kernel receives."""
    vs, cand_exprs, beta_exprs, gammas = _oracle_symbolic_reconstruction(side)
    sample = {v: sp.Rational(float(a)) for v, a in zip(vs, averages)}
    candidates = [float(c.subs(sample)) for c in cand_exprs]
    betas = [float(b.subs(sample)) for b in beta_exprs]
    alphas = [g / (EPS_WENO + b) ** 2 for g, b in zip(gammas, betas)]
    s = sum(alphas)
    return sum(a / s * c for a, c in zip(alphas, candidates))


def _oracle_linear_weights(side):
    """Solve for the weights that turn the three sub-stencil face values into
    the five-cell (degree-4) face value for every input."""
    h = sp.Integer(1)
    centers = [k * h for k in range(-2, 3)]
    face = h / 2 if side == "+" else -h / 2
    vs = sp.symbols("v0:5")
    p5 = _fit_average_polynomial(list(vs), centers, h)
    target = sp.expand(p5.subs(X, face))
    g = sp.symbols("g0:3")
    combo = sp.Integer(0)
    for k in range(3):
        pk = _fit_average_polynomial(list(vs[k:k + 3]), centers[k:k + 3], h)
        combo += g[k] * pk.subs(X, face)
    eqs = [sp.Eq(sp.expand(combo).coeff(v), target.coeff(v)) for v in vs]
    sol = sp.solve(eqs, g, dict=True)[0]
    return [float(sol[gk]) for gk in g]


class TestLinearWeightDerivation:
    def test_right_face_weights_are_1_6_3_tenths(self):
        assert np.allclose(_oracle_linear_weights("+"), [0.1, 0.6, 0.3])
        assert np.allclose(_oracle_linear_weights("-"), [0.3, 0.6, 0.1])
        assert np.allclose(LINEAR_WEIGHTS_RIGHT, [0.1, 0.6, 0.3])

    def test_center_conversion_matches_vandermonde_solve(self):
        # Derive the average->center-point stencil by evaluating the fitted
        # degree-4 polynomial at 0 and reading off the coefficients.
        h = sp.Integer(1)
        vs = sp.symbols("v0:5")
        p5 = _fit_average_polynomial(list(vs), [k * h for k in range(-2, 3)], h)
        val = sp.expand(p5.subs(X, 0))
        derived = [float(val.coeff(v)) for v in vs]
        assert np.allclose(derived, CENTER_STENCIL, rtol=0, atol=1e-15)


class TestFaceValueOracle:
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_matches_symbolic_reconstruction_on_random_data(self, side, rng):
        for _ in range(60):
            vals = rng.uniform(-2.0, 2.0, 5)
            got = face_value(vals, side)
            want = _oracle_face_value(vals, side)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_scale_invariance_in_h(self, rng):
        # Face values depend only on the averages, not the spacing: the
        # same averages on a 1000 times finer grid give the same
        # (diffusion-free, constant-speed) high-order flux.
        vals = rng.uniform(0.0, 1.0, 9)
        fluxes = []
        for hi in (1.0, 1e-3):
            spec, grid = make_linear_advection_1d(velocity=1.0, n=9, hi=hi,
                                                  wave_speed=1.0)
            fluxes.append(high_order_flux(vals, spec, grid)[0])
        assert fluxes[0] == pytest.approx(fluxes[1], rel=1e-14)

    def test_convex_combination_bounded_by_candidate_range(self, rng):
        for _ in range(200):
            vals = rng.uniform(-1.0, 1.0, 5)
            w = face_weights(vals, "+")
            assert all(x >= 0 for x in w)
            assert sum(w) == pytest.approx(1.0, abs=1e-14)

    def test_constant_data_reproduced_exactly(self):
        st = (0.7,) * 5
        for side in "+-":
            assert face_value(st, side) == pytest.approx(0.7, abs=1e-15)
            assert face_weights(st, side) == pytest.approx(
                LINEAR_WEIGHTS_RIGHT if side == "+" else LINEAR_WEIGHTS_RIGHT[::-1])

    def test_mirror_symmetry(self, rng):
        vals = rng.uniform(0.0, 1.0, 5)
        left = face_value(vals, "-")
        right = face_value(vals[::-1], "+")
        assert left == pytest.approx(right, rel=1e-14)


def quartic_cell_averages(coeffs, centers, h):
    """Exact cell averages of a polynomial given by ``coeffs`` (low->high),
    from the antiderivatives of its monomials in rational arithmetic (every
    argument is a rational or a binary float, so each converts exactly)."""
    coeffs = [Fraction(c) for c in coeffs]
    h = Fraction(h)

    def antiderivative(x):
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    return [float((antiderivative(Fraction(xc) + h / 2)
                   - antiderivative(Fraction(xc) - h / 2)) / h)
            for xc in centers]


def random_quartic(rng):
    """Five coefficients (low->high) drawn from U(-3, 3), each the exact
    rational value of its binary float."""
    return [Fraction(c) for c in rng.uniform(-3, 3, 5)]


class TestDegree4Reproduction:
    """The linear parts of the reconstruction are exact through degree 4."""

    def test_center_point_value_reproduces_quartics(self, rng):
        h = Fraction(1, 7)
        for _ in range(25):
            coeffs = random_quartic(rng)
            avgs = quartic_cell_averages(coeffs, [k * h for k in range(-2, 3)], h)
            exact = float(coeffs[0])  # polynomial value at the cell center x=0
            got = center_value(avgs)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_face_derivative_reproduces_quartics(self, side, rng):
        h = Fraction(1, 5)
        face = h / 2 if side == "+" else -h / 2
        for _ in range(25):
            coeffs = random_quartic(rng)
            exact = float(sum(k * c * face ** (k - 1)
                              for k, c in enumerate(coeffs) if k))
            avgs = quartic_cell_averages(coeffs, [k * h for k in range(-2, 3)], h)
            got = face_derivative(avgs, float(h), side)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_linear_weighted_face_value_reproduces_quartics(self, rng):
        # The optimal-weight combination of the production candidates must
        # return the unique degree-4 polynomial's face value.
        h = Fraction(1, 3)
        for _ in range(25):
            coeffs = random_quartic(rng)
            exact = float(sum(c * (h / 2) ** k for k, c in enumerate(coeffs)))
            avgs = quartic_cell_averages(coeffs, [k * h for k in range(-2, 3)], h)
            cand = _candidates_right(*avgs)
            got = sum(g * q for g, q in zip(LINEAR_WEIGHTS_RIGHT, cand))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_quadratics_reproduced_with_any_weighting(self, rng):
        # Every sub-stencil already matches a quadratic, so the nonlinear
        # weighting cannot perturb it.
        h = 0.2
        centers = [k * h for k in range(-2, 3)]
        for _ in range(10):
            a, b, c = rng.uniform(-2, 2, 3)
            avgs = [a + b * xc + c * (xc ** 2 + h ** 2 / 12.0) for xc in centers]
            for side, x in (("+", h / 2), ("-", -h / 2)):
                exact = a + b * x + c * x ** 2
                got = face_value(avgs, side)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


class TestShockBehaviour:
    def test_weights_collapse_onto_smooth_substencil(self):
        # A jump in the last cell should suppress the rightmost candidate.
        st = (1.0, 1.0, 1.0, 1.0, 100.0)
        w = face_weights(st, "+")
        assert w[2] < 1e-4
        assert face_value(st, "+") == pytest.approx(1.0, abs=1e-3)

    def test_no_overshoot_at_step_data(self):
        st = (0.0, 0.0, 0.0, 2.0, 2.0)
        for side in "+-":
            v = face_value(st, side)
            assert -1e-12 <= v <= 2.0 + 1e-12


class TestKernelMatchesReference:
    """The shared-difference kernel against the classic formulation, to
    ``32 eps max(1, max|v|)`` on every face of whole lines."""

    @staticmethod
    def assert_matches(v, ghost=3):
        got = face_values_line(v, ghost=ghost)
        want = reference_face_values_line(v, ghost=ghost)
        bound = 32.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(v)))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= bound

    @pytest.mark.parametrize("m,ghost", [(206, 3), (806, 3), (48, 4)])
    def test_random_lines(self, m, ghost, rng):
        self.assert_matches(rng.uniform(-2.0, 2.0, m), ghost)

    @pytest.mark.parametrize("ghost", [3, 4])
    def test_both_axes_of_a_2d_state(self, ghost, rng):
        # The x-axis line is a block of whole rows, the y-axis line the
        # strided view the high-order flux hands over.
        u_ext = rng.uniform(0.0, 1.0, (11 + 2 * ghost, 17 + 2 * ghost))
        inner = slice(ghost, -ghost)
        self.assert_matches(u_ext[inner, :], ghost)
        self.assert_matches(u_ext[:, inner].swapaxes(-1, -2), ghost)

    @pytest.mark.parametrize("data", ["step", "constant", "eps", "sqrt-eps"])
    def test_special_data(self, data, rng):
        # Amplitudes of EPS_WENO and of its square root put the smoothness
        # indicators far below and near the regularization.
        m = 64
        v = {"step": lambda: np.where(np.arange(m) < m // 2, 0.0, 2.0),
             "constant": lambda: np.full(m, 0.7),
             "eps": lambda: EPS_WENO * rng.uniform(-1.0, 1.0, m),
             "sqrt-eps": lambda: np.sqrt(EPS_WENO) * rng.uniform(-1.0, 1.0, m),
             }[data]()
        self.assert_matches(v)
        self.assert_matches(np.tile(v, (3, 1)))

    def test_kernels_leave_their_input_unchanged(self, rng):
        # Any write into the read-only input lines would raise.
        u_ext = rng.uniform(0.0, 1.0, (14, 19))
        u_ext.flags.writeable = False
        for line in (u_ext[3:-3, :], u_ext[:, 3:-3].swapaxes(-1, -2)):
            face_values_line(line)
            face_derivatives_line(line, 0.1)


class TestVectorizedKernels:
    def test_2d_leading_axes_broadcast(self, rng):
        v = rng.uniform(0.0, 1.0, (4, 13))
        um, up = face_values_line(v)
        row_um, row_up = face_values_line(v[2])
        assert np.allclose(um[2], row_um)
        assert np.allclose(up[2], row_up)

    def test_ghost_width_validated(self):
        with pytest.raises(ValueError):
            face_values_line(np.zeros(10), ghost=2)
        with pytest.raises(ValueError):
            face_derivatives_line(np.zeros(10), 0.1, ghost=1)
        with pytest.raises(ValueError):
            center_point_values_line(np.zeros(10), ghost=1)


class TestFifthOrderConvergence:
    def test_face_value_error_decays_at_fifth_order(self):
        errs = []
        hs = [0.1, 0.05, 0.025, 0.0125]
        for h in hs:
            centers = np.array([k * h for k in range(-2, 3)])
            # smooth, non-polynomial data via exact averages of sin
            avgs = (np.cos(centers - h / 2) - np.cos(centers + h / 2)) / h
            got = face_value(avgs, "+")
            errs.append(abs(got - np.sin(h / 2)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert rates[-1] > 4.5
