"""Axial integral: the factored offsets path and non-finite phases; the
fixed-rule complex integrator."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from spdc import quadrature
from spdc.errors import DomainError, QuadratureError
from spdc.quadrature import MAX_PANELS, complex_quad, ell_integral

# roughly geometric |phi| values over the validated range, added at both signs
MARKED_PHASES = (20.0, 50.0, 100.0, 200.0, 400.0, 700.0, 1100.0, 1600.0)
# small offsets, so column b_k holds phases just below and above b_k
OFFSETS = np.array([-0.3, -0.01, 0.0, 0.02, 0.3])


def reference(phi, xi, C):
    def part(f):
        return quad(f, -1.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-13)[0]

    def f(l):
        return np.exp(-0.5j * phi * l) / (1.0 + 1j * l * xi - C * xi * xi * l * l)

    return part(lambda l: f(l).real) + 1j * part(lambda l: f(l).imag)


def phase_grid(kind):
    marked = np.array(MARKED_PHASES)
    if kind == "linear":
        b = np.linspace(-1700.0, 1700.0, 241)
    else:
        dwm = np.linspace(-41.0, 41.0, 121)
        b = -dwm * dwm  # a negative quadratic coefficient, as at negative kappa0
    return np.concatenate((b, marked, -marked))


class TestOffsets:
    @pytest.mark.parametrize("kind", ["linear", "squared"])
    @pytest.mark.parametrize("xi", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("C", [0.0, 1e-3])
    def test_equals_the_summed_phase_grid(self, kind, xi, C):
        b = phase_grid(kind)
        for shift in (0.0, 3.5):
            a = OFFSETS + shift
            got = ell_integral(b, xi, C, offsets=a)
            want = ell_integral(a[:, None] + b[None, :], xi, C)
            assert got.shape == (a.size, b.size)
            scale = abs(ell_integral(0.0, xi, C))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_one_rule_per_call(self):
        quadrature.gauss_legendre.cache_clear()
        ell_integral(phase_grid("linear"), 1.0, 1e-3, offsets=OFFSETS + 3.5)
        assert quadrature.gauss_legendre.cache_info().currsize == 1

    def test_shapes(self):
        assert isinstance(ell_integral(3.0, 1.0), complex)
        assert ell_integral(3.0, 1.0, offsets=[0.0, 1.0]).shape == (2,)
        assert ell_integral(np.zeros((2, 3)), 1.0).shape == (2, 3)
        assert ell_integral(np.zeros((2, 3)), 1.0, offsets=[1.0]).shape == (1, 2, 3)
        assert ell_integral(np.zeros(0), 1.0, offsets=[1.0, 2.0]).shape == (2, 0)

    def test_plain_call_is_the_zero_offset_row(self):
        b = phase_grid("linear")
        assert np.array_equal(
            ell_integral(b, 1.0), ell_integral(b, 1.0, offsets=[0.0])[0]
        )

    def test_matches_adaptive_reference(self):
        for phi in (0.0, 7.0, -55.0, 430.0, 1650.0):
            assert ell_integral(phi, 1.0, 1e-3) == pytest.approx(
                reference(phi, 1.0, 1e-3), rel=1e-8, abs=1e-12
            )


class TestNonFinitePhase:
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_scalar_is_nan(self, phi):
        value = ell_integral(phi, 1.0)
        assert math.isnan(value.real) and math.isnan(value.imag)

    def test_array_keeps_finite_entries(self):
        phi = np.array([0.0, math.nan, 30.0, math.inf, -math.inf, 500.0])
        got = ell_integral(phi, 1.0)
        bad = ~np.isfinite(phi)
        assert np.all(np.isnan(got[bad].real) & np.isnan(got[bad].imag))
        for k in np.flatnonzero(~bad):
            assert got[k] == pytest.approx(ell_integral(phi[k], 1.0), rel=1e-14)

    def test_non_finite_offset_row_is_nan(self):
        for bad in (math.nan, math.inf, -math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ell_integral(np.array([0.0, 40.0]), 1.0, offsets=[bad, 1.0])
            assert np.all(np.isnan(got[0].real) & np.isnan(got[0].imag))
            assert np.all(np.isfinite(got[1]))
            assert got[1, 1] == pytest.approx(ell_integral(41.0, 1.0), rel=1e-14)


class TestRuleCap:
    def test_largest_rule_matches_reference(self):
        # 0.78 * 5000 + 10 + 24 = 3,934 nodes, just under the 4,000 cap;
        # scipy's oscillatory-weight quad (QAWO) is the reference at C = 0
        phi, xi = 5000.0, 1.0

        def part(f, weight):
            return quad(f, -1.0, 1.0, weight=weight, wvar=0.5 * phi,
                        epsabs=1e-14, epsrel=1e-12, limit=200)[0]

        def u(l):
            return 1.0 / (1.0 + (l * xi) ** 2)

        def v(l):
            return -l * xi / (1.0 + (l * xi) ** 2)

        want = part(u, "cos") + part(v, "sin") + 1j * (part(v, "cos") - part(u, "sin"))
        assert ell_integral(phi, xi) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("phi", [5200.0, -2.0e4, 1e307])
    def test_beyond_cap_raises(self, phi):
        with pytest.raises(DomainError, match="4000 Gauss-Legendre nodes"):
            ell_integral(phi, 1.0)

    def test_offset_beyond_cap_raises(self):
        with pytest.raises(DomainError):
            ell_integral(np.array([0.0, 10.0]), 1.0, offsets=[0.0, 6000.0])


class TestComplexQuad:
    def test_exact_on_polynomials_below_degree_16(self):
        # the order-8 rule already integrates degree 15 exactly, so both
        # passes agree to rounding
        rng = np.random.default_rng(61)
        coef = rng.normal(size=16) + 1j * rng.normal(size=16)
        poly = np.polynomial.Polynomial(coef)
        edges = np.array([-1.0, -0.2, 0.3, 2.0])
        value, err = complex_quad(poly, edges, tol=1e-12)
        anti = poly.integ()
        want = anti(edges[-1]) - anti(edges[0])
        assert abs(value - want) <= 1e-13 * abs(want)
        assert err <= 1e-13 * abs(want)

    def test_budget_exceeded_carries_finite_estimate(self):
        # a pole 1e-3 off one coarse panel: the two orders disagree
        def f(x):
            return 1.0 / (x - (0.5 + 1e-3j))

        with pytest.raises(QuadratureError) as info:
            complex_quad(f, np.array([0.0, 1.0]), tol=1e-9)
        assert math.isfinite(info.value.estimate) and info.value.estimate > 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        calls = []
        with pytest.raises(QuadratureError, match="tolerance"):
            complex_quad(calls.append, np.array([0.0, 1.0]), tol=tol)
        assert calls == []

    def test_panel_cap_raises_before_evaluating(self):
        calls = []
        with pytest.raises(QuadratureError, match="cap"):
            complex_quad(calls.append, np.linspace(0.0, 1.0, MAX_PANELS + 2), tol=1e-9)
        assert calls == []
