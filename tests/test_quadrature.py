"""Axial integral: the factored offsets path and the refusal of non-finite
phases; the fixed-rule complex integrator."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

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

    def test_one_rule_per_call(self, monkeypatch):
        sizes = []
        rule = quadrature.gauss_legendre
        monkeypatch.setattr(quadrature, "gauss_legendre", lambda n: sizes.append(n) or rule(n))
        quadrature._ell_weights.cache_clear()
        ell_integral(phase_grid("linear"), 1.0, 1e-3, offsets=OFFSETS + 3.5)
        assert len(set(sizes)) == 1

    def test_shapes(self):
        assert isinstance(ell_integral(3.0, 1.0), float)
        assert isinstance(ell_integral(np.array(3.0), 1.0), float)
        assert ell_integral(3.0, 1.0, offsets=[0.0, 1.0]).shape == (2,)
        assert ell_integral(np.zeros((2, 3)), 1.0).shape == (2, 3)
        assert ell_integral(np.zeros((2, 3)), 1.0, offsets=[1.0]).shape == (1, 2, 3)
        assert ell_integral(np.zeros(0), 1.0, offsets=[1.0, 2.0]).shape == (2, 0)

    def test_plain_call_is_the_zero_offset_row(self):
        # bit for bit, for a whole grid and for single phases
        b = phase_grid("linear")
        for xi, C in ((1.0, 0.0), (0.3, 1e-3), (8.0, 0.05)):
            row = ell_integral(b, xi, C, offsets=[0.0])[0]
            assert ell_integral(b, xi, C).tobytes() == row.tobytes()
            for phi in (0.0, 3.7, -250.0):
                row = ell_integral(np.array([phi]), xi, C, offsets=[0.0])
                assert np.array(ell_integral(phi, xi, C)).tobytes() == row.tobytes()

    def test_matches_adaptive_reference(self):
        for phi in (0.0, 7.0, -55.0, 430.0, 1650.0):
            assert ell_integral(phi, 1.0, 1e-3) == pytest.approx(
                reference(phi, 1.0, 1e-3), rel=1e-8, abs=1e-12
            )


class TestPairOffsets:
    """The linear oracle's pair table I(t_i + c_p): in-panel phases t_i of
    two panel half-widths as ``offsets``, panel centres c_p as columns."""

    PHASES = np.concatenate([hw * np.polynomial.legendre.leggauss(8)[0] for hw in (30.0, 60.0)])
    CENTRES = np.linspace(-1200.0, 1200.0, 41)

    @staticmethod
    def explicit(t, c, xi, C):
        return ell_integral(t[:, None] + c[None, :], xi, C)

    @pytest.mark.parametrize("xi", [0.01, 1.0, 12.0])
    @pytest.mark.parametrize("C", [0.0, 5e-3, -5e-3])
    def test_equals_the_explicit_grid(self, xi, C):
        t, c = self.PHASES, self.CENTRES
        got = ell_integral(c, xi, C, offsets=t)
        assert got.shape == (t.size, c.size)
        want = self.explicit(t, c, xi, C)
        assert np.max(np.abs(got - want)) <= 1e-13 * abs(ell_integral(0.0, xi, C))

    def test_one_zero_centre_is_the_row_call(self):
        # the centre factor (cos 0, sin 0) is (1, 0): the column is the plain
        # call on the in-panel phases, to rounding
        got = ell_integral(np.array([0.0]), 1.0, 1e-3, offsets=self.PHASES)[:, 0]
        want = ell_integral(self.PHASES, 1.0, 1e-3)
        assert np.max(np.abs(got - want)) <= 1e-15 * abs(ell_integral(0.0, 1.0, 1e-3))

    def test_blocks_cover_every_column(self):
        # past one column block (~2,500 columns at |phi| ~ 960) with the 16
        # phases, then past two with two rows
        for t, c in ((self.PHASES, np.linspace(-900.0, 900.0, 3001)),
                     (np.array([-0.5, 1.5]), np.linspace(-900.0, 900.0, 7001))):
            got = ell_integral(c, 2.0, 0.0, offsets=t)
            want = self.explicit(t, c, 2.0, 0.0)
            assert np.max(np.abs(got - want)) <= 1e-13 * abs(ell_integral(0.0, 2.0, 0.0))

    @pytest.mark.parametrize("centres", [
        [math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0], [6000.0, 0.0], [0.0, -5300.0],
    ])
    def test_bad_centre_raises_before_any_arithmetic(self, monkeypatch, centres):
        # the rule-size peak includes the centres: a rule is never built
        monkeypatch.setattr(quadrature, "_ell_weights", None)
        TestNonFinitePhase.raises(np.array(centres), offsets=[0.0, 10.0])


class TestWeightsCache:
    """The cached weights row changes no bit of ``ell_integral``."""

    PHASES = np.concatenate((np.linspace(-40.0, 40.0, 161), [-700.0, 0.5, 230.0]))

    @pytest.mark.parametrize("xi", [1e-3, 1.0, 12.0])
    @pytest.mark.parametrize("C", [0.0, 1e-3, 0.05])
    def test_warm_equals_cold(self, xi, C):
        for phi in (*self.PHASES.tolist(), self.PHASES):
            quadrature._ell_weights.cache_clear()
            cold = ell_integral(phi, xi, C)
            warm = ell_integral(phi, xi, C)
            assert quadrature._ell_weights.cache_info().hits == 1
            assert np.array(warm).tobytes() == np.array(cold).tobytes()

    def test_bounded_and_read_only(self):
        assert quadrature._ell_weights.cache_parameters()["maxsize"] is not None
        quadrature._ell_weights.cache_clear()
        ell_integral(3.0, 1.0, 1e-3)
        ell_integral(3.0, 1.0, 1e-3)
        assert quadrature._ell_weights.cache_info()[:2] == (1, 1)  # one hit, one miss
        for array in (*quadrature._ell_weights(64, 1.0, 1e-3), *quadrature.gauss_legendre(64)):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_single_phase_matches_the_array_path():
    """A float phase skips the array bookkeeping and keeps every bit."""
    for xi, C in ((1e-3, 0.0), (1.0, 1e-3), (12.0, 0.05)):
        for phi in np.linspace(-150.0, 150.0, 801).tolist():
            one = ell_integral(np.array([phi]), xi, C)[0]
            assert np.array(ell_integral(phi, xi, C)).tobytes() == np.array(one).tobytes()


class TestNonFinitePhase:
    """A NaN or infinite phase or offset raises DomainError at the rule-size
    check, before any arithmetic on it could warn."""

    @staticmethod
    def raises(phi, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="4000 Gauss-Legendre nodes"):
                ell_integral(phi, 1.0, **kwargs)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_scalar_is_nan(self, phi):
        self.raises(phi)
        self.raises(np.float64(phi))

    def test_array_keeps_finite_entries(self):
        finite = np.array([0.0, 30.0, 500.0])
        assert np.all(np.isfinite(ell_integral(finite, 1.0)))
        for bad in ([math.nan], [math.inf], [-math.inf], [math.inf, -math.inf]):
            self.raises(np.concatenate((finite, bad)))
            self.raises(np.array(bad[0]))

    def test_non_finite_offset_row_is_nan(self):
        for bad in (math.nan, math.inf, -math.inf):
            self.raises(np.array([0.0, 40.0]), offsets=[bad, 1.0])
        # each sum a_j + b_k is inf + -inf
        self.raises(np.array([-math.inf]), offsets=[math.inf])
        self.raises(np.array([math.inf]), offsets=[-math.inf])


def scaled_exp1(z):
    """e^z E1(z): scipy's ``exp1`` for |z| < 20, above that (where e^z
    overflows first) the continued fraction of A&S 5.1.22, 60 terms deep."""
    if abs(z) < 20.0:
        return np.exp(z) * exp1(z)
    tail = 0.0
    for k in range(60, 0, -1):
        tail = k / (1.0 + k / (z + tail))
    return 1.0 / (z + tail)


def ell_integral_exact(phi, xi):
    """The C = 0 axial integral in closed form, I = J(a, r) / (i xi).

    With a = phi / 2 and the pole r = i / xi,
    J = integral of exp(-i a l) / (l - r) over [-1, 1]
      = e^(ia) G(ia(-1 - r)) - e^(-ia) G(ia(1 - r)), G(z) = e^z E1(z),
    less 2 pi i sign(a) e^(-iar) when the path crosses E1's branch cut
    (a Im r < 0 and |Re r| < 1).
    """
    a, r = 0.5 * phi, 1j / xi
    j = (np.exp(1j * a) * scaled_exp1(1j * a * (-1.0 - r))
         - np.exp(-1j * a) * scaled_exp1(1j * a * (1.0 - r)))
    if a * r.imag < 0.0 and abs(r.real) < 1.0:
        j -= 2j * math.pi * math.copysign(1.0, a) * np.exp(-1j * a * r)
    return j / (1j * xi)


class TestRuleCap:
    def test_largest_rule_matches_reference(self):
        # 0.78 * 5000 + 10 + 24 = 3,934 nodes, just under the 4,000 cap;
        # the reference is the exact C = 0 integral through E1
        phi, xi = 5000.0, 1.0
        want = ell_integral_exact(phi, xi)
        assert ell_integral(phi, xi) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("phi", [5200.0, -2.0e4, 1e307])
    def test_beyond_cap_raises(self, phi):
        with pytest.raises(DomainError, match="4000 Gauss-Legendre nodes"):
            ell_integral(phi, 1.0)

    def test_offset_beyond_cap_raises(self):
        with pytest.raises(DomainError):
            ell_integral(np.array([0.0, 10.0]), 1.0, offsets=[0.0, 6000.0])


class TestRealValue:
    """f(-l) = conj f(l) for real phi, xi and C, so I is real and the rule folds."""

    CASES = [(1e-3, 0.0), (1.0, 1e-3), (5.0, -0.01), (12.0, 0.05)]
    # one rule per array call; the scalar phases stay on a few small rules
    PHASES = np.concatenate((np.linspace(-600.0, 600.0, 241), [-0.0, 3.7, -41.0]))
    SCALAR_PHASES = (-40.0, -3.7, -0.0, 0.0, 0.5, 17.0, 40.0)

    @pytest.mark.parametrize("xi, C", CASES)
    def test_imaginary_part_is_exactly_zero(self, xi, C):
        # only the real sum is formed: a float, or a float64 array
        for phi in self.SCALAR_PHASES:
            assert type(ell_integral(phi, xi, C)) is float
        assert ell_integral(self.PHASES, xi, C).dtype == np.float64
        got = ell_integral(self.PHASES, xi, C, offsets=OFFSETS + 3.5)
        assert got.dtype == np.float64

    @pytest.mark.parametrize("phi, xi, parity", [
        (100.0, 1.0, 0), (101.3, 1.0, 1), (100.0, 0.1, 1), (101.3, 0.1, 0),
        (100.0, 5.0, 0), (101.3, 5.0, 1),
    ])
    def test_rule_of_either_parity_matches_the_exact_integral(self, phi, xi, parity):
        # an odd rule's middle node x = 0 pairs with itself
        assert quadrature._ell_rule_size(phi, xi) % 2 == parity
        phases = np.array([-phi, -0.4 * phi, 0.7 * phi, phi])
        got = ell_integral(phases, xi)
        for value, p in zip((ell_integral(phi, xi), *got), (phi, *phases)):
            assert value == pytest.approx(ell_integral_exact(p, xi), rel=1e-8)

    @pytest.mark.parametrize("xi", [1e-3, 0.1, 1.0, 5.0, 12.0])
    @pytest.mark.parametrize("C", [0.0, 1e-3, 0.05, 0.2, -0.01])
    def test_equals_the_unfolded_complex_sum(self, xi, C):
        def unfolded(b, a):
            # the complex sum over all n nodes, factored as the offsets path is
            n = quadrature._ell_rule_size(np.max(np.abs(np.add.outer(a, b))), xi)
            x, w = quadrature.gauss_legendre(n)
            rows = np.exp(-0.5j * np.outer(a, x)) * w / (1.0 + 1j * x * xi - C * xi * xi * x * x)
            return rows @ np.exp(-0.5j * np.outer(x, b))

        scale = abs(ell_integral(0.0, xi, C))
        got = ell_integral(self.PHASES, xi, C)
        assert np.max(np.abs(got - unfolded(self.PHASES, np.zeros(1))[0])) <= 1e-14 * scale
        got = ell_integral(self.PHASES, xi, C, offsets=OFFSETS + 3.5)
        assert np.max(np.abs(got - unfolded(self.PHASES, OFFSETS + 3.5))) <= 1e-14 * scale


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

    def test_long_layout_runs_in_bounded_blocks(self):
        # 1000 panels: four blocks, each call on at most one block's nodes
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(1j * x)

        edges = np.linspace(0.0, 10.0, 1001)
        value, _ = complex_quad(f, edges, tol=1e-12)
        assert max(sizes) == 16 * quadrature._BLOCK_PANELS
        assert sum(sizes) == 24 * 1000
        assert abs(value - (np.exp(10j) - 1.0) / 1j) <= 1e-13

    def test_signs_multiply_their_panels_across_blocks(self):
        # 700 panels of width pi, three blocks: sin integrates to 2 (-1)^k on
        # panel k, so with signs (-1)^k every panel adds 2
        n = 700
        edges = np.linspace(0.0, n * math.pi, n + 1)
        signs = 1.0 - 2.0 * (np.arange(n) % 2)

        def f(x):
            return np.sin(x) + 0j

        value, err = complex_quad(f, edges, tol=1e-12, signs=signs)
        assert abs(value - 2.0 * n) <= 1e-12 * 2.0 * n
        assert err <= 1e-12 * 2.0 * n
