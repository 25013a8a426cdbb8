"""Gaussian mode bookkeeping and normalization."""

import math

import numpy as np
import pytest

from spdc.beams import (
    BeamTriple,
    GaussianMode,
    focal_parameter,
    mode_function,
    scaled_beam_parameter,
)
from spdc.errors import DomainError
from spdc.quadrature import gauss_legendre


def disc_norm(mode, z, radius_waists=6.0, order=96):
    """2-D quadrature of |g|^2 over a disc, in polar coordinates."""
    R = radius_waists * mode.waist_at(z)
    xr, wr = gauss_legendre(order)
    xt, wt = gauss_legendre(order)
    r = 0.5 * R * (xr + 1.0)
    theta = math.pi * (xt + 1.0)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    vals = np.abs(mode_function(mode, rr * np.cos(tt), rr * np.sin(tt), z)) ** 2
    wgrid = np.outer(wr * 0.5 * R * r, wt * math.pi)
    return float(np.sum(vals * wgrid))


class TestScaledBeamParameter:
    def test_focus_value(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6, z0=0.3e-3)
        qb = scaled_beam_parameter(mode, mode.z0)
        assert qb == pytest.approx(-mode.w0**2, rel=1e-15)

    def test_frozen_example(self):
        # w0 = 10 um, k = 1e7 -> lambda chosen to match; z - z0 = 1 mm
        k = 1e7
        n = 1.6
        lam = 2.0 * math.pi * n / k
        mode = GaussianMode(lam, n, 10e-6)
        qb = scaled_beam_parameter(mode, 1e-3)
        # cross-checked via qbar = 2 i q / k with q = z + i z_R
        assert qb.real == pytest.approx(-1e-10, rel=1e-12)
        assert qb.imag == pytest.approx(2e-10, rel=1e-12)
        q = 1e-3 + 1j * mode.z_R
        assert qb == pytest.approx(2j * q / k, rel=1e-14)

    def test_imaginary_part_increases_with_z(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        zs = np.linspace(-5e-3, 5e-3, 11)
        ims = [scaled_beam_parameter(mode, z).imag for z in zs]
        assert np.all(np.diff(ims) > 0)


class TestModeFunction:
    def test_on_axis_focus_value(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        g = mode_function(mode, 0.0, 0.0, 0.0)
        expected = math.sqrt(mode.k * mode.z_R / math.pi) / (1j * mode.z_R)
        assert g == pytest.approx(expected, rel=1e-14)
        assert abs(g) == pytest.approx(math.sqrt(mode.k / (math.pi * mode.z_R)), rel=1e-14)

    def test_waist_intensity_ratio(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        on_axis = abs(mode_function(mode, 0.0, 0.0, 0.0)) ** 2
        at_waist = abs(mode_function(mode, mode.w0, 0.0, 0.0)) ** 2
        assert at_waist / on_axis == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_normalized_at_three_planes(self):
        mode = GaussianMode(1550e-9, 1.74, 18e-6, z0=0.2e-3)
        for z in (mode.z0, mode.z0 + 2 * mode.z_R, mode.z0 - 2 * mode.z_R):
            assert abs(disc_norm(mode, z) - 1.0) <= 1e-8

    def test_normalized_random_modes(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            mode = GaussianMode(
                lambda_vac=rng.uniform(0.4e-6, 2.0e-6),
                n=rng.uniform(1.0, 2.5),
                w0=10 ** rng.uniform(-6, -4),
                z0=rng.uniform(-1e-3, 1e-3),
            )
            for z in (mode.z0, mode.z0 + 2 * mode.z_R, mode.z0 - 2 * mode.z_R):
                assert abs(disc_norm(mode, z) - 1.0) <= 1e-8


class TestFocalParameter:
    def test_rayleigh_relation(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        assert focal_parameter(mode, 2.0 * mode.z_R) == pytest.approx(1.0, rel=1e-12)

    def test_collimated_limit(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        assert focal_parameter(mode, 1e-12) < 1e-6

    def test_two_expressions_agree(self):
        mode = GaussianMode(810e-9, 1.8, 30e-6)
        Lz = 10e-3
        via_k = Lz / (mode.k * mode.w0**2)
        via_zr = Lz / (2.0 * mode.z_R)
        assert abs(via_k - via_zr) <= 1e-12 * via_k
        assert focal_parameter(mode, Lz) == pytest.approx(via_k, rel=1e-15)

    def test_scaling_laws(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        Lz = 5e-3
        base = focal_parameter(mode, Lz)
        assert focal_parameter(mode, 2 * Lz) == pytest.approx(2 * base, rel=1e-15)
        wide = GaussianMode(810e-9, 1.8, 50e-6)
        assert focal_parameter(wide, Lz) == pytest.approx(base / 4.0, rel=1e-15)

    def test_nonpositive_length(self):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        with pytest.raises(DomainError):
            focal_parameter(mode, 0.0)


class TestInvariants:
    def test_rayleigh_range_two_ways(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            lam = rng.uniform(0.4e-6, 2.0e-6)
            n = rng.uniform(1.0, 2.5)
            w0 = 10 ** rng.uniform(-6, -4)
            mode = GaussianMode(lam, n, w0)
            zr_a = mode.k * w0**2 / 2.0
            zr_b = math.pi * w0**2 * n / lam
            assert abs(zr_a - zr_b) <= 1e-12 * zr_a
            assert mode.z_R == pytest.approx(zr_a, rel=1e-15)

    def test_equal_collocated_scaled_sum(self):
        # three identical modes at focus: the pairwise q_bar sum is 3 w0^4, real
        w0 = 22e-6
        mode = GaussianMode(810e-9, 1.8, w0)
        qb = scaled_beam_parameter(mode, 0.0)
        total = qb * np.conj(qb) + qb * np.conj(qb) + np.conj(qb) * np.conj(qb)
        assert total == pytest.approx(3.0 * w0**4, rel=1e-14)
        assert abs(total.imag) <= 1e-20

    def test_beam_triple_focal_parameters(self):
        triple = BeamTriple(
            pump=GaussianMode(775e-9, 1.77, 26e-6),
            signal=GaussianMode(1550e-9, 1.73, 38e-6),
            idler=GaussianMode(1550e-9, 1.81, 37e-6),
            crystal_length=10e-3,
        )
        for mode, xi in (
            (triple.pump, triple.xi_p),
            (triple.signal, triple.xi_1),
            (triple.idler, triple.xi_2),
        ):
            assert xi == pytest.approx(focal_parameter(mode, 10e-3), rel=1e-15)
            assert xi > 0

    def test_invalid_modes_rejected(self):
        with pytest.raises(DomainError):
            GaussianMode(810e-9, 1.8, -1e-6)
        with pytest.raises(DomainError):
            GaussianMode(-810e-9, 1.8, 1e-6)
        with pytest.raises(DomainError):
            GaussianMode(810e-9, 0.5, 1e-6)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field, named", [
        ("lambda_vac", "lambda_vac"), ("n", "refractive index"),
        ("w0", "waist must"), ("z0", "z0"),
    ])
    def test_non_finite_field_named(self, field, named, value):
        kwargs = {"lambda_vac": 810e-9, "n": 1.8, "w0": 25e-6, "z0": 0.0, field: value}
        with pytest.raises(DomainError, match=named):
            GaussianMode(**kwargs)

    @pytest.mark.parametrize("Lz", [math.nan, math.inf])
    def test_non_finite_crystal_length(self, Lz):
        mode = GaussianMode(810e-9, 1.8, 25e-6)
        with pytest.raises(DomainError, match="crystal length"):
            BeamTriple(mode, mode, mode, crystal_length=Lz)

    @pytest.mark.parametrize("w0", [1e-300, 1e200])
    def test_rayleigh_range_must_be_finite_positive(self, w0):
        # k w0^2 underflows to 0 or overflows to inf
        with pytest.raises(DomainError, match="Rayleigh range"):
            GaussianMode(810e-9, 1.8, w0)
