"""Aggregate overlap parameters and the two overlap-integral routes."""

import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import spdc

from spdc.beams import BeamTriple, GaussianMode, scaled_beam_parameter
from spdc.config import load_config
from spdc.errors import (
    DegenerateConfigurationError,
    DomainError,
    QuadratureError,
    SpdcError,
)
from spdc.materials import CONSTANTS, MaterialOptics, domain_walls, poling_profile
from spdc.overlap import (
    OverlapParams,
    _direct_coefficients,
    _domain_panels,
    _panel_width,
    _quadratic_roots,
    aggregate_parameters,
    overlap_direct,
    overlap_params,
    overlap_simplified,
    phase_mismatch_coefficients,
)
from spdc.quadrature import MAX_PANELS, _fused_rule, complex_quad
from spdc.rates import equal_focus_beams, pairs_closed_form

from conftest import CONFIG_DIR, LAMBDA_1, LAMBDA_2, LAMBDA_P, N_1, N_2, N_P


def random_inputs(rng):
    k = rng.uniform(3e6, 3e7, 3)
    xi = 10 ** rng.uniform(-2, 1, 3)
    return (k[0], k[1], k[2], xi[0], xi[1], xi[2])


def random_beam_config(rng):
    """Beam triple + material with xi values spanning [0.01, 10]."""
    Lz = 10 ** rng.uniform(-3, -1.5)
    lam1 = rng.uniform(0.8e-6, 1.8e-6)
    lam2 = rng.uniform(0.8e-6, 1.8e-6)
    lamp = 1.0 / (1.0 / lam1 + 1.0 / lam2)
    n_p, n_1, n_2 = rng.uniform(1.5, 2.3, 3)
    xis = 10 ** rng.uniform(math.log10(0.01), 1.0, 3)
    kp = 2 * math.pi * n_p / lamp
    k1 = 2 * math.pi * n_1 / lam1
    k2 = 2 * math.pi * n_2 / lam2
    beams = BeamTriple(
        pump=GaussianMode(lamp, n_p, math.sqrt(Lz / (kp * xis[0]))),
        signal=GaussianMode(lam1, n_1, math.sqrt(Lz / (k1 * xis[1]))),
        idler=GaussianMode(lam2, n_2, math.sqrt(Lz / (k2 * xis[2]))),
        crystal_length=Lz,
    )
    material = MaterialOptics(
        ng_p=n_p + 0.05, ng_1=n_1 + 0.04, ng_2=n_2 + 0.06, d_eff=2.4e-12,
    )
    delta_k = rng.uniform(-2.0, 2.0) * 2.0 * math.pi / Lz
    return beams, material, delta_k


def adaptive_axial(xi, C, phi):
    """Adaptive reference for the integral over l in [-1, 1] of
    exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2), to 1e-12 absolute per part."""
    def part(fn):
        return quad(lambda l: fn(np.exp(-0.5j * phi * l)
                                 / (1.0 + 1j * l * xi - C * xi * xi * l * l)),
                    -1.0, 1.0, epsabs=1e-12, epsrel=0.0, limit=200)[0]

    return part(np.real) + 1j * part(np.imag)


def adaptive_overlap_direct(beams, material, delta_k, tol=1e-13):
    """overlap_direct by scipy's adaptive quad: a real and an imaginary call
    per poling domain, with an absolute floor from the integral of |f|."""
    Lz = beams.crystal_length

    def f(z):
        qb_p = scaled_beam_parameter(beams.pump, z)
        qb_1c = np.conj(scaled_beam_parameter(beams.signal, z))
        qb_2c = np.conj(scaled_beam_parameter(beams.idler, z))
        return np.exp(-1j * delta_k * z) / (qb_p * qb_1c + qb_p * qb_2c + qb_1c * qb_2c)

    z = np.linspace(-Lz / 2.0, Lz / 2.0, 20001)
    floor = tol * np.trapezoid(np.abs(f(z)), z)
    edges = np.concatenate(([-Lz / 2.0], domain_walls(material.poling_period, Lz),
                            [Lz / 2.0]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sign = poling_profile(0.5 * (a + b), material.poling_period, Lz)
        epsabs = floor * (b - a) / Lz
        re = quad(lambda t: f(t).real, a, b, epsabs=epsabs, epsrel=tol, limit=200)[0]
        im = quad(lambda t: f(t).imag, a, b, epsabs=epsabs, epsrel=tol, limit=200)[0]
        total += sign * (re + 1j * im)
    w_p, w_1, w_2 = beams.waists()
    return -1j * material.chi2_eff * math.sqrt(8.0 / math.pi) * w_p * w_1 * w_2 * total


def equal_focus_triple(Lz, xi, n=(1.8, 1.8, 1.8), z0=(0.0, 0.0, 0.0)):
    """Pump at 775 nm, signal and idler at 1550 nm, all at focal parameter xi."""
    modes = []
    for lam, n_j, z0_j in zip((775e-9, 1550e-9, 1550e-9), n, z0):
        k = 2 * math.pi * n_j / lam
        modes.append(GaussianMode(lam, n_j, math.sqrt(Lz / (k * xi)), z0=z0_j))
    return BeamTriple(*modes, crystal_length=Lz)


def focused_triple(xis, Lz=1e-300):
    """PPKTP-like beams whose focal parameters are ``xis``; a zero one takes a
    waist so wide that Lz / (k w0^2) underflows to 0."""
    modes = []
    for lam, n, xi in zip((LAMBDA_P, LAMBDA_1, LAMBDA_2), (N_P, N_1, N_2), xis):
        k = 2 * math.pi * n / lam
        modes.append(GaussianMode(lam, n, math.sqrt(Lz / (k * xi)) if xi else 1e46))
    return BeamTriple(*modes, crystal_length=Lz)


class TestAggregateFocalParameter:
    def test_equal_focus_collinear(self):
        k1, k2 = 7.03e6, 7.36e6
        kp = k1 + k2
        xi0 = 0.7
        assert aggregate_parameters(kp, k1, k2, xi0, xi0, xi0, 1.0)[0] == pytest.approx(
            xi0, rel=1e-14
        )

    def test_plane_wave_pump_limit(self):
        k1, k2, kp = 7.0e6, 7.4e6, 14.4e6
        xi0 = 0.45
        # a plane-wave pump zeroes the divisor of A+B+, not that of xi
        with np.errstate(divide="ignore"):
            got = aggregate_parameters(*map(np.float64, (kp, k1, k2, 0.0, xi0, xi0)), 1.0)[0]
        assert got == pytest.approx(xi0, rel=1e-14)

    def test_signal_idler_swap_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            a = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)[0]
            b = aggregate_parameters(kp, k2, k1, xp, x2, x1, 1.0)[0]
            assert a == pytest.approx(b, rel=1e-13)

    def test_zero_denominator(self):
        # every focal parameter zero: each of the four divisors is zero
        with pytest.raises(DegenerateConfigurationError, match="xi_agg = nan"):
            overlap_params(focused_triple((0.0, 0.0, 0.0)))


class TestQuadraticCoefficient:
    def test_zero_at_wavevector_matching(self):
        k1, k2 = 7.03e6, 7.36e6
        assert aggregate_parameters(k1 + k2, k1, k2, 0.3, 0.5, 0.7, 1.0)[1] == 0.0

    def test_sign_follows_mismatch(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            c = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)[1]
            assert math.copysign(1.0, c) == math.copysign(1.0, kp - k1 - k2)

    def test_algebraic_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            c = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)[1]
            num = (
                k1 * x1 * (x2 - xp) + k2 * x2 * (x1 - xp) + kp * xp * (x1 + x2)
            )
            lhs = c * num * num
            rhs = (kp - k1 - k2) * x1 * x2 * xp * (k1 * x1 + k2 * x2 + kp * xp)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNormalizationCoefficient:
    def test_hand_algebra_equal_case(self):
        # k1 k1 (2 k1) xi^3 / (Lz (k1 + k1 + 2 k1) xi) = k1^2 xi^2 / (2 Lz);
        # units 1/m^3 as required
        k1 = 7.0e6
        kp = 2.0 * k1
        xi = 0.37
        Lz = 8e-3
        got = aggregate_parameters(kp, k1, k1, xi, xi, xi, Lz)[2]
        assert got == pytest.approx(k1**2 * xi**2 / (2.0 * Lz), rel=1e-13)

    def test_degree_two_homogeneity_in_xi(self):
        # numerator is cubic and denominator linear in the xi_j, so scaling
        # all of them by s scales D by s^2
        rng = np.random.default_rng(34)
        for _ in range(100):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            base = aggregate_parameters(kp, k1, k2, xp, x1, x2, 5e-3)[2]
            doubled = aggregate_parameters(kp, k1, k2, 2 * xp, 2 * x1, 2 * x2, 5e-3)[2]
            assert doubled == pytest.approx(4.0 * base, rel=1e-13)


class TestAPlusBPlus:
    def test_equal_focus_collinear_is_four(self):
        k1, k2 = 7.03e6, 7.36e6
        kp = k1 + k2
        xi0 = 1.3
        assert aggregate_parameters(kp, k1, k2, xi0, xi0, xi0, 1.0)[3] == pytest.approx(
            4.0, rel=1e-13
        )

    def test_defining_relation(self):
        rng = np.random.default_rng(35)
        for _ in range(300):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            xi, _, _, ab = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)
            sigma = k1 * x1 + k2 * x2 + kp * xp
            assert xi / ab == pytest.approx(
                kp * kp * x1 * x2 * xp / (sigma * sigma), rel=1e-12
            )

    def test_scale_invariance_in_xi(self):
        # sigma * numerator is quadratic-plus-linear = cubic total, matching
        # the cubic denominator: A+B+ is unchanged under xi_j -> s xi_j
        rng = np.random.default_rng(36)
        for _ in range(100):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            s = rng.uniform(0.1, 10.0)
            base = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)[3]
            scaled = aggregate_parameters(kp, k1, k2, s * xp, s * x1, s * x2, 1.0)[3]
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            kp, k1, k2, xp, x1, x2 = random_inputs(rng)
            a = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)[3]
            b = aggregate_parameters(kp, k2, k1, xp, x2, x1, 1.0)[3]
            assert a == pytest.approx(b, rel=1e-13)

    def test_zero_focal_parameter_rejected(self):
        with pytest.raises(DegenerateConfigurationError, match="a_plus_b_plus = inf"):
            overlap_params(focused_triple((0.0, 0.5, 0.5)))


class TestPhaseMismatch:
    def test_narrowband_pump_linear_in_difference(self):
        ng1, ng2, ngp = 1.76, 1.85, 1.80
        Lz, c = 1e-2, CONSTANTS.c
        dwm = 3.7e11
        coeff_p, coeff_m = phase_mismatch_coefficients(ngp, ng1, ng2, Lz, c)
        phi = coeff_p * 0.0 + coeff_m * dwm
        assert phi == pytest.approx((ng1 - ng2) / (2 * c) * dwm * Lz, rel=1e-14)
        assert coeff_p * 0.0 + coeff_m * (2 * dwm) == pytest.approx(2 * phi, rel=1e-14)

    def test_degenerate_group_indices_flat(self):
        ng = 1.8
        coeff_p, coeff_m = phase_mismatch_coefficients(1.9, ng, ng, 1e-2, CONSTANTS.c)
        for dwm in (0.0, 1e11, -3e12):
            assert coeff_p * 0.0 + coeff_m * dwm == 0.0


class TestOverlapSimplified:
    def test_collimated_unmatched_limit(self):
        # phi = 0, xi -> 0, C = 0: the axial integral tends to 2
        params = OverlapParams(xi_agg=1e-9, C_quad=0.0, D_norm=3.2e11,
                               a_plus_b_plus=4.0, phi=0.0)
        chi, wp, w1, w2, Lz = 4.8e-12, 26e-6, 38e-6, 37e-6, 1e-2
        got = overlap_simplified(params, chi, wp, w1, w2, Lz)
        expected = -1j * chi * math.sqrt(2 / math.pi) * wp * w1 * w2 * params.D_norm * 2.0
        assert got == pytest.approx(expected, rel=1e-9)

    def test_axial_integral_identity(self):
        # numerical check of the arctangent reduction at xi = 1: pi/2
        for xi in (0.1, 1.0, 10.0):
            val, _ = quad(lambda l: 1.0 / (1.0 + l * l * xi * xi), -1.0, 1.0,
                          epsabs=1e-13, epsrel=1e-13)
            assert abs(val - 2.0 * math.atan(xi) / xi) <= 1e-10
        val, _ = quad(lambda l: 1.0 / (1.0 + l * l), -1.0, 1.0,
                      epsabs=1e-13, epsrel=1e-13)
        assert abs(val - math.pi / 2.0) <= 1e-10

    def test_linear_in_chi(self):
        params = OverlapParams(xi_agg=0.8, C_quad=0.002, D_norm=3.2e11,
                               a_plus_b_plus=4.1, phi=1.7)
        base = overlap_simplified(params, 1e-12, 26e-6, 38e-6, 37e-6, 1e-2)
        scaled = overlap_simplified(params, 7e-12, 26e-6, 38e-6, 37e-6, 1e-2)
        assert scaled == pytest.approx(7.0 * base, rel=1e-14)

    def test_near_pole_refused(self):
        # large C with tiny xi parks a denominator root on the interval
        params = OverlapParams(xi_agg=1e-7, C_quad=1e14, D_norm=3.2e11,
                               a_plus_b_plus=4.0, phi=0.0)
        with pytest.raises(QuadratureError, match="cap"):
            overlap_simplified(params, 4.8e-12, 26e-6, 38e-6, 37e-6, 1e-2)

    @pytest.mark.parametrize("phi", [0.0, 7.0])
    def test_panel_cap_refuses_every_near_pole(self, phi):
        # C xi^2 = 1 +- eps puts a root within ~max(eps, xi) of l = +-1, so
        # |1 +- i xi - C xi^2| < 1e-6 there; the panels, at most half the
        # root's distance wide, then pass the cap
        rng = np.random.default_rng(29)
        n = 1000
        xi = 10.0 ** rng.uniform(-12.0, -6.5, n)
        eps = 10.0 ** rng.uniform(-12.0, -6.5, n) * rng.choice([-1.0, 1.0], n)
        C = (1.0 + eps) / (xi * xi)
        assert np.all(np.abs(1.0 + 1j * xi - C * xi * xi) < 1e-6)
        for x, c in zip(xi.tolist(), C.tolist()):
            params = OverlapParams(xi_agg=x, C_quad=c, D_norm=1.0, a_plus_b_plus=4.0,
                                   phi=phi)
            with pytest.raises(QuadratureError, match="cap"):
                overlap_simplified(params, 1.0, 1.0, 1.0, 1.0, 1e-2)

    def test_root_just_outside_the_interval_is_integrated(self):
        # C xi^2 = 1 / 1.001^2 puts the roots 1e-3 beyond l = +-1: 4,000
        # panels, within the cap
        xi, phi = 1e-9, 3.0
        C = 1.0 / (1.001 * xi) ** 2
        params = OverlapParams(xi_agg=xi, C_quad=C, D_norm=1.0, a_plus_b_plus=4.0, phi=phi)
        got = overlap_simplified(params, 1.0, 1.0, 1.0, 1.0, 1e-2)
        expected = -1j * math.sqrt(2 / math.pi) * adaptive_axial(xi, C, phi)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("xi", [1e200, math.nan])
    def test_non_finite_denominator_rejected(self, xi):
        params = OverlapParams(xi_agg=xi, C_quad=0.01, D_norm=3.2e11,
                               a_plus_b_plus=4.0, phi=0.0)
        with pytest.raises(DomainError, match="denominator"):
            overlap_simplified(params, 4.8e-12, 26e-6, 38e-6, 37e-6, 1e-2)

    def test_converges_at_lobe_zero(self):
        # phi sits where the axial integral nearly cancels, so its magnitude
        # cannot set the absolute error floor
        xi, C, phi = 0.20083582608313252, 0.01326656821367835, -6.70751546026526
        params = OverlapParams(xi, C, 1.0, 41.3193483938146, phi)
        got = overlap_simplified(params, 4.8e-12, 1e-5, 1e-5, 1e-5, 1e-2,
                                 quad_tol=1e-9)
        expected = -1j * 4.8e-12 * math.sqrt(2 / math.pi) * 1e-15 * adaptive_axial(xi, C, phi)
        assert math.isfinite(abs(got))
        assert abs(got - expected) <= 1e-9 * 4.8e-12 * 1e-15 * 2.0

    def test_nonconvergence_carries_estimate(self):
        # a mismatch far beyond what the subdivision budget can resolve
        from spdc.errors import QuadratureError

        params = OverlapParams(xi_agg=0.5, C_quad=0.0, D_norm=3.2e11,
                               a_plus_b_plus=4.0, phi=1e7)
        with pytest.raises(QuadratureError):
            overlap_simplified(params, 4.8e-12, 26e-6, 38e-6, 37e-6, 1e-2,
                               quad_tol=1e-12)


class TestOverlapDirect:
    def test_zero_nonlinearity(self, ppktp_base_beams):
        material = MaterialOptics(ng_p=1.81, ng_1=1.76, ng_2=1.85, d_eff=0.0)
        assert overlap_direct(ppktp_base_beams, material, 0.0) == 0.0

    def test_collimated_sinc_suppression(self):
        # |O(dk)| / |O(0)| tracks |sinc(dk Lz / 2)| for weak focusing
        Lz = 5e-3
        n = 1.8
        lam1 = lam2 = 1.55e-6
        lamp = 0.775e-6
        xi = 0.005
        kp = 2 * math.pi * n / lamp
        k1 = k2 = 2 * math.pi * n / lam1
        beams = BeamTriple(
            GaussianMode(lamp, n, math.sqrt(Lz / (kp * xi))),
            GaussianMode(lam1, n, math.sqrt(Lz / (k1 * xi))),
            GaussianMode(lam2, n, math.sqrt(Lz / (k2 * xi))),
            crystal_length=Lz,
        )
        material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12)
        base = abs(overlap_direct(beams, material, 0.0))
        for m in (0.5, 1.5, 2.5, 4.5, 8.5):
            dk = 2.0 * m * math.pi / Lz
            ratio = abs(overlap_direct(beams, material, dk)) / base
            x = dk * Lz / 2.0
            assert abs(ratio - abs(math.sin(x) / x)) <= 0.02

    def test_matches_simplified_on_random_configs(self):
        rng = np.random.default_rng(40)
        for _ in range(4):
            beams, material, dk = random_beam_config(rng)
            direct = overlap_direct(beams, material, dk, quad_tol=1e-10)
            params = overlap_params(beams, delta_k=dk)
            simplified = overlap_simplified(
                params, material.chi2_eff, *beams.waists(),
                beams.crystal_length, quad_tol=1e-10,
            )
            assert abs(direct - simplified) <= 1e-9 * abs(direct)

    @pytest.mark.parametrize("cycles", [0.0, 2.3, 17.6])
    def test_matches_adaptive_reference_strong_focus(self, cycles):
        # xi = 10, so z_R = Lz / 20; displaced waists and unequal indices
        # give the denominator zeros off the axis and C != 0
        Lz = 1e-2
        beams = equal_focus_triple(Lz, 10.0, n=(1.83, 1.74, 1.81),
                                   z0=(0.4e-3, -0.2e-3, 0.1e-3))
        material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12)
        dk = cycles * 2.0 * math.pi / Lz
        got = overlap_direct(beams, material, dk, quad_tol=1e-11)
        want = adaptive_overlap_direct(beams, material, dk)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("offset", [0.0, 2500.0, -9000.0])
    def test_poled_matches_adaptive_reference(self, offset):
        Lz, period = 1e-3, 10e-6
        beams = equal_focus_triple(Lz, 0.8)
        material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12, poling_period=period)
        dk = 2.0 * math.pi / period + offset
        got = overlap_direct(beams, material, dk, quad_tol=1e-11)
        want = adaptive_overlap_direct(beams, material, dk)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("offset", [0.0, 3100.0])
    def test_poled_partial_domain_displaced_foci(self, offset):
        # 1 mm is 200.6 half-periods, so the last domain is partial; the
        # displaced foci make c1 and c0 complex
        Lz, period = 1e-3, 9.97e-6
        beams = equal_focus_triple(Lz, 0.8, n=(1.83, 1.74, 1.81),
                                   z0=(0.15e-3, -0.1e-3, 0.05e-3))
        material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12, poling_period=period)
        dk = 2.0 * math.pi / period + offset
        got = overlap_direct(beams, material, dk, quad_tol=1e-11)
        want = adaptive_overlap_direct(beams, material, dk)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_panel_cap_raises_before_building_walls(self):
        # four times as many domains as the panel cap: the walls alone take
        # megabytes, the order-16 nodes tens of megabytes
        Lz = 1e-3
        period = 2.0 * Lz / (4 * MAX_PANELS)
        material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12, poling_period=period)
        beams = equal_focus_triple(Lz, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match="cap"):
                overlap_direct(beams, material, 2.0 * math.pi / period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_near_cap_unpoled_layout_stays_small(self):
        # 39,960 panels of ~1.1 pi phase on the shipped 1 cm crystal: past the
        # layout's few floats per panel, one block of nodes at a time
        config = load_config(CONFIG_DIR / "ppktp_type2.json")
        beams, material = config.beam_triple(), config.material_optics()
        dk = 0.999 * 40_000 * 1.1 * math.pi / beams.crystal_length
        tracemalloc.start()
        try:
            value = overlap_direct(beams, material, dk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(abs(value)) and value != 0.0
        assert peak < 2e6

    @pytest.mark.parametrize("dk", [math.nan, math.inf])
    def test_non_finite_mismatch_rejected(self, ppktp_material, ppktp_base_beams, dk):
        with pytest.raises(DomainError, match="delta_k"):
            overlap_direct(ppktp_base_beams, ppktp_material, dk)
        params = overlap_params(ppktp_base_beams, delta_k=dk)
        with pytest.raises(DomainError, match="phi"):
            overlap_simplified(params, 4.8e-12, 26e-6, 38e-6, 37e-6, 1e-2)

    def test_qpm_peak_at_first_order(self):
        Lz, period = 1e-3, 10e-6
        n = 1.8
        lam1 = lam2 = 1.55e-6
        lamp = 0.775e-6
        kp = 2 * math.pi * n / lamp
        k1 = k2 = 2 * math.pi * n / lam1
        xi = 0.05
        beams = BeamTriple(
            GaussianMode(lamp, n, math.sqrt(Lz / (kp * xi))),
            GaussianMode(lam1, n, math.sqrt(Lz / (k1 * xi))),
            GaussianMode(lam2, n, math.sqrt(Lz / (k2 * xi))),
            crystal_length=Lz,
        )
        material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12,
                                  poling_period=period)
        dk0 = 2.0 * math.pi / period
        step = 2.0 * math.pi / Lz
        dks = dk0 + step * np.linspace(-3, 3, 13)
        mags = [abs(overlap_direct(beams, material, dk, 1e-8)) for dk in dks]
        peak = dks[int(np.argmax(mags))]
        assert abs(peak - dk0) <= step


def sorted_roots(roots):
    return np.sort_complex(np.asarray(roots, dtype=complex))


class TestQuadraticRoots:
    def test_matches_numpy_on_random_coefficients(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            c *= 10.0 ** rng.uniform(-20, 20, 3)
            got = sorted_roots(_quadratic_roots(*c))
            want = sorted_roots(np.roots(c))
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_double_root(self):
        r = 0.3 - 2.1j
        got = _quadratic_roots(2.0, -4.0 * r, 2.0 * r * r)
        assert len(got) == 2
        assert max(abs(g - r) for g in got) <= 1e-7 * abs(r)
        assert _quadratic_roots(3.0, 0.0, 0.0) == (0j, 0j)

    @pytest.mark.parametrize("xi", [1e-3, 0.7, 12.0])
    def test_linear_reduced_denominator(self, xi):
        # C = 0: the reduced denominator 1 + i xi l has the one root i / xi
        got = _quadratic_roots(-0.0 * xi * xi, 1j * xi, 1.0)
        assert len(got) == 1
        assert abs(got[0] - 1j / xi) <= 1e-15 * abs(1j / xi)
        assert np.allclose(got, np.roots([1j * xi, 1.0]), rtol=1e-15, atol=0.0)

    def test_no_cancellation_when_b2_dominates(self):
        # x^2 + 1e9 x + 1: the naive formula loses the small root to cancellation
        small, large = sorted(_quadratic_roots(1.0, 1e9, 1.0), key=abs)
        assert small == pytest.approx(-1e-9, rel=1e-15)
        assert large == pytest.approx(-1e9, rel=1e-15)
        assert sorted_roots((small, large)) == pytest.approx(
            sorted_roots(np.roots([1.0, 1e9, 1.0])), rel=1e-14)

    def test_no_overflow_in_the_discriminant(self):
        # the direct-form coefficients of one focus 1e200 m away: c1^2 alone
        # overflows
        small, large = sorted(_quadratic_roots(1e-14, 1e186, 1e184), key=abs)
        assert small == pytest.approx(-1e-2, rel=1e-15)
        assert large == pytest.approx(-1e200, rel=1e-15)


class TestDirectIntegrandPieces:
    def test_coefficients_match_beam_parameter_product(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            Lz = 10 ** rng.uniform(-3, -1.5)
            beams = equal_focus_triple(Lz, 10 ** rng.uniform(-1, 1),
                                       n=tuple(rng.uniform(1.5, 2.3, 3)),
                                       z0=tuple(rng.uniform(-0.3, 0.3, 3) * Lz))
            z = rng.uniform(-0.5, 0.5, 64) * Lz
            qb_p = scaled_beam_parameter(beams.pump, z)
            qb_1c = np.conj(scaled_beam_parameter(beams.signal, z))
            qb_2c = np.conj(scaled_beam_parameter(beams.idler, z))
            want = qb_p * qb_1c + qb_p * qb_2c + qb_1c * qb_2c
            c2, c1, c0 = _direct_coefficients(beams)
            got = (c2 * z + c1) * z + c0
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("per_domain_width", [1.0, 0.3])
    def test_panel_signs_match_poling_profile(self, per_domain_width):
        # 1 mm holds 219.78 half-periods of 9.1 um: the last domain is partial
        Lz, period = 1e-3, 9.1e-6
        runs = _domain_panels(Lz, period, per_domain_width * 0.5 * period)
        u, _ = _fused_rule()
        for lefts, width, signs in runs:
            assert len(signs) == len(lefts)
            nodes = lefts[:, None] + width * u
            want = poling_profile(nodes.ravel(), period, Lz).reshape(nodes.shape)
            assert np.array_equal(np.broadcast_to(signs[:, None], nodes.shape), want)

    @pytest.mark.parametrize("period", [9.1e-6, 10e-6])
    def test_poled_runs_tile_the_crystal(self, period):
        # every domain but the last in one run, the last in another: partial
        # at 9.1 um, full to rounding at 10 um; the panels abut from -Lz/2 to
        # Lz/2
        Lz = 1e-3
        (full, step, _), (last, last_step, _) = _domain_panels(Lz, period, 0.3 * 0.5 * period)
        assert step == 0.5 * period / 4 and len(full) == 4 * (len(domain_walls(period, Lz)))
        assert len(last) == 4 and last_step <= step * (1.0 + 1e-12)
        edges = np.concatenate((full, last, [last[-1] + last_step]))
        widths = np.diff(edges)
        assert edges[0] == -0.5 * Lz and edges[-1] == pytest.approx(0.5 * Lz, rel=1e-14)
        assert np.allclose(widths[:len(full)], step, rtol=1e-9, atol=0.0)
        assert np.allclose(widths[len(full):], last_step, rtol=1e-9, atol=0.0)

    def test_unpoled_layout_has_no_signs(self):
        (lefts, width, signs), = _domain_panels(1e-2, None, 3e-3)
        assert signs is None
        assert width == 2.5e-3
        assert np.allclose(lefts, [-5e-3, -2.5e-3, 0.0, 2.5e-3], rtol=1e-12, atol=1e-18)


class TestSeparatedOscillation:
    """``complex_quad`` takes exp(-i rate x) at the node x = a + width u as
    exp(-i rate a) exp(-i rate width u): one exponential per panel, with the
    poling sign, and one table per run. On the same nodes this equals the
    exponential evaluated at every node, to rounding of the integral of |f|,
    the scale the quadrature budget is relative to."""

    @pytest.mark.parametrize("Lz, period, offset", [
        (1e-3, 9.1e-6, 0.0),  # partial last domain
        (1e-3, 9.1e-6, 2.0e3),
        (1e-2, 9.999999999999999e-06, 0.0),  # 2,001 domains, the last a sliver
        (1e-2, 9.999999999999999e-06, 150.0),
        (1e-2, None, 0.999 * 4000 * 1.1 * math.pi / 1e-2),  # 3,996 panels
    ], ids=["1mm-qpm", "1mm-off", "1cm-sliver-qpm", "1cm-sliver-off", "unpoled-4000"])
    def test_equals_the_exponential_at_every_node(self, Lz, period, offset):
        beams = equal_focus_triple(Lz, 1.0, z0=(0.1 * Lz, 0.0, -0.05 * Lz))
        coeffs = c2, c1, c0 = _direct_coefficients(beams)
        rate = offset if period is None else 2.0 * math.pi / period + offset
        runs = _domain_panels(Lz, period, _panel_width(coeffs, -0.5 * Lz, 0.5 * Lz, rate))

        def f(x):
            return 1.0 / ((c2 * x + c1) * x + c0)

        value, err = complex_quad(f, runs, 1e-9, rate)
        want, want_err = complex_quad(lambda x: np.exp(-1j * rate * x) * f(x), runs, 1e-9)
        unsigned = [(lefts, width, None) for lefts, width, _ in runs]
        scale = complex_quad(lambda x: np.abs(f(x)) + 0j, unsigned, 1e-9)[0].real
        assert abs(value - want) <= 1e-13 * scale
        assert abs(err - want_err) <= 1e-13 * scale
        if period is not None:  # near QPM the value is a sizeable part of the scale
            assert abs(value - want) <= 1e-13 * abs(want)


def extreme_beams(crystal_length=1e-2, waist=None, z0=0.0, indices=None):
    """PPKTP-like type-II beams with one extreme field."""
    waists = (30e-6, 40e-6, 40e-6) if waist is None else (waist,) * 3
    modes = [GaussianMode(lam, n, w, z0=z0) for lam, n, w in
             zip((LAMBDA_P, LAMBDA_1, LAMBDA_2), indices or (N_P, N_1, N_2), waists)]
    return BeamTriple(*modes, crystal_length=crystal_length)


@pytest.mark.parametrize("beams", [
    extreme_beams(crystal_length=1e300),
    extreme_beams(crystal_length=1e-300),
    extreme_beams(waist=1e-160),
    # equal indices make k_p = k_1 + k_2 exact, so c2 is 0 as well as c1, c0
    extreme_beams(waist=1e-160, indices=(1.8, 1.8, 1.8)),
    extreme_beams(z0=1e200),
], ids=["length-1e300", "length-1e-300", "waist-1e-160", "waist-1e-160-matched",
        "foci-at-1e200"])
@pytest.mark.parametrize("delta_k", [0.0, 150.0])
def test_extreme_beams_raise_typed_or_stay_finite(ppktp_material, beams, delta_k):
    # pytest turns every RuntimeWarning into an error, so an overflow inside
    # numpy fails here as well as a non-finite result
    def direct():
        return overlap_direct(beams, ppktp_material, delta_k)

    def simplified():
        params = overlap_params(beams, delta_k=delta_k)
        return overlap_simplified(params, ppktp_material.chi2_eff, *beams.waists(),
                                  beams.crystal_length)

    for form in (direct, simplified):
        try:
            value = form()
        except SpdcError:
            continue
        assert math.isfinite(abs(value))


@pytest.mark.parametrize("beams", [
    extreme_beams(crystal_length=1e300),
    extreme_beams(waist=1e-160),
], ids=["length-1e300", "waist-1e-160"])
def test_overflowing_parameters_are_named(ppktp_material, beams):
    # every xi_j is inf, so sigma and u are too and all four quotients are NaN
    def simplified():
        return overlap_simplified(overlap_params(beams), ppktp_material.chi2_eff,
                                  *beams.waists(), beams.crystal_length)

    for call in (lambda: overlap_params(beams),
                 lambda: pairs_closed_form(ppktp_material, beams), simplified):
        with pytest.raises(DegenerateConfigurationError,
                           match="xi_agg = nan, C_quad = nan, D_norm = nan, a_plus_b_plus = nan"):
            call()


@pytest.mark.parametrize("beams, named", [
    # every focal parameter zero, so each quotient's divisor is zero
    (focused_triple((0.0, 0.0, 0.0), np.float64(1e-300)), "xi_agg"),
    (focused_triple((0.0, 0.0, 0.0), np.float64(1e-300)), "C_quad"),
    (focused_triple((0.0, 0.0, 0.0), np.float64(1e-300)), "D_norm"),
    (focused_triple((0.0, 0.0, 0.0), np.float64(1e-300)), "a_plus_b_plus"),
    (focused_triple((0.0, 0.5, 0.5), np.float64(1e-300)), "a_plus_b_plus"),
    # xi ~ 1e-298, so u and x1 x2 xp underflow to zero divisors
    (extreme_beams(crystal_length=np.float64(1e-300)), ""),
], ids=["aggregate_focal_parameter", "quadratic_coefficient",
        "normalization_coefficient", "a_plus_b_plus", "a_plus_b_plus-pump-only",
        "overlap_params"])
def test_numpy_scalar_zero_divisor_raises_without_warning(beams, named):
    # a numpy-scalar crystal length makes every focal parameter a numpy
    # scalar; pytest turns a RuntimeWarning from their division into an error
    with pytest.raises(DegenerateConfigurationError, match="not finite") as err:
        overlap_params(beams)
    if named:
        assert re.search(rf"\b{named} = (nan|inf|-inf)\b", str(err.value))


def displace(beams, roles, z0):
    """``beams`` with the foci of the named modes moved to ``z0``."""
    return dataclasses.replace(beams, **{
        role: dataclasses.replace(getattr(beams, role), z0=z0) for role in roles
    })


class TestOverlapParamsBundle:
    def test_fields_consistent(self, ppktp_base_beams):
        dk = 123.0
        p = overlap_params(ppktp_base_beams, delta_k=dk)
        k_p, k_1, k_2 = ppktp_base_beams.wavevectors()
        xis = (ppktp_base_beams.xi_p, ppktp_base_beams.xi_1, ppktp_base_beams.xi_2)
        assert (p.xi_agg, p.C_quad, p.D_norm, p.a_plus_b_plus) == aggregate_parameters(
            k_p, k_1, k_2, *xis, ppktp_base_beams.crystal_length)
        assert p.phi == dk * ppktp_base_beams.crystal_length
        assert p.D_norm > 0

    @pytest.mark.parametrize("shifted", [("pump", "signal", "idler"), ("idler",)])
    def test_displaced_focus_rejected(self, ppktp_material, ppktp_base_beams, shifted):
        beams = displace(equal_focus_beams(ppktp_base_beams, 1.0), shifted, 3e-3)
        with pytest.raises(DomainError, match="z0"):
            overlap_params(beams)
        with pytest.raises(DomainError, match="z0"):
            pairs_closed_form(ppktp_material, beams)

    def test_displaced_foci_lower_the_direct_overlap(self, ppktp_material, ppktp_base_beams):
        # foci 3 mm off-centre in a 1 cm crystal at xi = 1: |O| drops to
        # 0.956 of the centred value, which the reduced form cannot see
        centred = equal_focus_beams(ppktp_base_beams, 1.0)
        displaced = displace(centred, ("pump", "signal", "idler"), 3e-3)
        ratio = (abs(overlap_direct(displaced, ppktp_material, 0.0))
                 / abs(overlap_direct(centred, ppktp_material, 0.0)))
        assert ratio == pytest.approx(0.9558, abs=1e-3)


def test_overlaps_import_no_scipy():
    # scipy is a test-side reference only; the package integrates without it
    code = """
import math, sys
from spdc.beams import BeamTriple, GaussianMode
from spdc.materials import MaterialOptics
from spdc.overlap import overlap_direct, overlap_params, overlap_simplified
modes = [GaussianMode(lam, 1.8, 30e-6) for lam in (775e-9, 1550e-9, 1550e-9)]
beams = BeamTriple(*modes, crystal_length=1e-2)
material = MaterialOptics(1.85, 1.84, 1.86, 2.4e-12, poling_period=10e-6)
direct = overlap_direct(beams, material, 2 * math.pi / 10e-6)
simplified = overlap_simplified(overlap_params(beams, 0.0), material.chi2_eff,
                                *beams.waists(), beams.crystal_length)
assert math.isfinite(abs(direct)) and math.isfinite(abs(simplified))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(pathlib.Path(spdc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
