"""Spatial overlap of the pump, signal and idler Gaussian modes.

The three-mode overlap against the phase factor exp(-i dk z) over the
crystal is what sets the absolute pair rate. It is computed two independent
ways: ``overlap_direct`` integrates the product of beam parameters along z
exactly as written, while ``overlap_simplified`` uses the algebraic
reduction to a single dimensionless axial integral over l = 2z/Lz with
aggregate parameters (xi, C, D); see Bennink, Phys. Rev. A 81, 053805
(2010) for the lineage of that reduction. The two must agree to quadrature
tolerance, which the test suite exploits as a cross-check of the whole
parameter algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamTriple, scaled_beam_parameter
from .errors import (
    DegenerateConfigurationError,
    OverlapSingularityError,
)
from .materials import MaterialOptics, domain_walls, poling_profile
from .quadrature import complex_quad

# refuse the reduced integrand when its denominator dips below this
_MIN_DENOMINATOR = 1e-6


@dataclass(frozen=True)
class OverlapParams:
    """Aggregate parameters of the reduced overlap integral.

    Attributes:
        xi_agg: aggregate focal parameter (dimensionless).
        C_quad: quadratic denominator coefficient; exactly 0 for k_p = k_1 + k_2.
        D_norm: normalization coefficient (1/m^3).
        a_plus_b_plus: denominator product entering the closed-form rate.
        phi: phase mismatch dk * Lz (dimensionless).
    """

    xi_agg: float
    C_quad: float
    D_norm: float
    a_plus_b_plus: float
    phi: float


def _xi_numerator(k_p, k_1, k_2, xi_p, xi_1, xi_2) -> float:
    return (
        k_1 * xi_1 * (xi_2 - xi_p)
        + k_2 * xi_2 * (xi_1 - xi_p)
        + k_p * xi_p * (xi_1 + xi_2)
    )


def _xi_denominator(k_p, k_1, k_2, xi_p, xi_1, xi_2) -> float:
    return k_1 * xi_1 + k_2 * xi_2 + k_p * xi_p


def aggregate_focal_parameter(k_p, k_1, k_2, xi_p, xi_1, xi_2) -> float:
    """Aggregate focal parameter of the three-beam overlap.

    xi = [k1 x1 (x2 - xp) + k2 x2 (x1 - xp) + kp xp (x1 + x2)]
         / (k1 x1 + k2 x2 + kp xp)
    """
    den = _xi_denominator(k_p, k_1, k_2, xi_p, xi_1, xi_2)
    if den == 0.0:
        raise DegenerateConfigurationError(
            "k1*xi1 + k2*xi2 + kp*xip vanishes; focal parameters degenerate"
        )
    return _xi_numerator(k_p, k_1, k_2, xi_p, xi_1, xi_2) / den


def quadratic_coefficient(k_p, k_1, k_2, xi_p, xi_1, xi_2) -> float:
    """Quadratic coefficient C of the reduced denominator 1 + i l xi - C xi^2 l^2.

    Proportional to (kp - k1 - k2), so exactly zero at perfect collinear
    wavevector matching.
    """
    num = _xi_numerator(k_p, k_1, k_2, xi_p, xi_1, xi_2)
    if num == 0.0:
        raise DegenerateConfigurationError(
            "aggregate-xi numerator vanishes; quadratic coefficient undefined"
        )
    sigma = _xi_denominator(k_p, k_1, k_2, xi_p, xi_1, xi_2)
    return (k_p - k_1 - k_2) * xi_1 * xi_2 * xi_p * sigma / (num * num)


def normalization_coefficient(k_p, k_1, k_2, xi_p, xi_1, xi_2, Lz) -> float:
    """Normalization coefficient D = k1 k2 kp x1 x2 xp / (Lz (k1 x1 + k2 x2 + kp xp)).

    Units 1/m^3. The length in the denominator is the crystal length.
    """
    if Lz <= 0.0:
        raise DegenerateConfigurationError(f"Lz must be positive, got {Lz}")
    sigma = _xi_denominator(k_p, k_1, k_2, xi_p, xi_1, xi_2)
    if sigma == 0.0:
        raise DegenerateConfigurationError(
            "k1*xi1 + k2*xi2 + kp*xip vanishes; normalization degenerate"
        )
    return k_p * k_1 * k_2 * xi_p * xi_1 * xi_2 / (Lz * sigma)


def a_plus_b_plus(k_p, k_1, k_2, xi_p, xi_1, xi_2) -> float:
    """Denominator product A+B+ of the closed-form rate.

    Satisfies xi / (A+B+) = kp^2 x1 x2 xp / (k1 x1 + k2 x2 + kp xp)^2 and
    equals 4 for equal focal parameters under collinear matching.
    """
    if k_p == 0.0 or xi_p == 0.0 or xi_1 == 0.0 or xi_2 == 0.0:
        raise DegenerateConfigurationError(
            "A+B+ undefined for vanishing pump wavevector or focal parameter"
        )
    sigma = _xi_denominator(k_p, k_1, k_2, xi_p, xi_1, xi_2)
    num = _xi_numerator(k_p, k_1, k_2, xi_p, xi_1, xi_2)
    return sigma * num / (k_p * k_p * xi_1 * xi_2 * xi_p)


def phase_mismatch_coefficients(ng_p, ng_1, ng_2, Lz, c) -> tuple:
    """First-order derivatives of phi = dk * Lz in the two detunings (s).

    Returns (d phi / d delta_omega_pump, d phi / d delta_omega_minus) for the
    sum detuning (w1 - w10) + (w2 - w20) and the difference detuning
    (w1 - w10) - (w2 - w20).
    """
    return (
        (ng_1 + ng_2 - 2.0 * ng_p) / (2.0 * c) * Lz,
        (ng_1 - ng_2) / (2.0 * c) * Lz,
    )


def phase_mismatch_phi(
    delta_omega_pump: float,
    delta_omega_minus: float,
    ng_p: float,
    ng_1: float,
    ng_2: float,
    Lz: float,
    c: float,
    qpm_shift: float = 0.0,
):
    """First-order phase mismatch phi = dk * Lz around the matched band center.

    delta_omega_pump is the sum detuning (w1 - w10) + (w2 - w20) and
    delta_omega_minus the difference detuning (w1 - w10) - (w2 - w20), both
    rad/s. ``qpm_shift`` adds any residual mismatch at band center (0 for
    perfect quasi-phase matching). Accepts arrays.
    """
    coeff_sum, coeff_diff = phase_mismatch_coefficients(ng_p, ng_1, ng_2, Lz, c)
    return (
        coeff_sum * np.asarray(delta_omega_pump)
        + coeff_diff * np.asarray(delta_omega_minus)
        + qpm_shift
    )


def overlap_params(beams: BeamTriple, delta_k: float = 0.0) -> OverlapParams:
    """Bundle the aggregate parameters for a beam triple at mismatch delta_k."""
    k_p, k_1, k_2 = beams.wavevectors()
    xi_p, xi_1, xi_2 = beams.xi_p, beams.xi_1, beams.xi_2
    Lz = beams.crystal_length
    return OverlapParams(
        xi_agg=aggregate_focal_parameter(k_p, k_1, k_2, xi_p, xi_1, xi_2),
        C_quad=quadratic_coefficient(k_p, k_1, k_2, xi_p, xi_1, xi_2),
        D_norm=normalization_coefficient(k_p, k_1, k_2, xi_p, xi_1, xi_2, Lz),
        a_plus_b_plus=a_plus_b_plus(k_p, k_1, k_2, xi_p, xi_1, xi_2),
        phi=delta_k * Lz,
    )


def overlap_prefactor(chi_eff: float, waists: tuple, D_norm: float) -> complex:
    """Factor -i chi_eff sqrt(2/pi) w_p w_1 w_2 D in front of the reduced axial integral."""
    w_p, w_1, w_2 = waists
    return -1j * chi_eff * math.sqrt(2.0 / math.pi) * w_p * w_1 * w_2 * D_norm


def _denominator_minimum(xi: float, C: float) -> float:
    """Minimum of |1 + i l xi - C xi^2 l^2| over l in [-1, 1]."""
    # |den|^2 = (1 - C xi^2 u)^2 + xi^2 u with u = l^2 in [0, 1]
    xi2 = xi * xi
    candidates = [0.0, 1.0]
    if C != 0.0:
        u_star = (2.0 * C - 1.0) / (2.0 * C * C * xi2) if xi2 > 0.0 else -1.0
        if 0.0 < u_star < 1.0:
            candidates.append(u_star)
    vals = [(1.0 - C * xi2 * u) ** 2 + xi2 * u for u in candidates]
    return math.sqrt(min(vals))


def overlap_simplified(
    params: OverlapParams,
    chi_eff: float,
    w_p: float,
    w_1: float,
    w_2: float,
    Lz: float,
    quad_tol: float = 1e-9,
) -> complex:
    """Overlap from the reduced axial integral over l in [-1, 1].

    O = -i chi_eff sqrt(2/pi) w_p w_1 w_2 D
        * integral of exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2).

    Exact for any C (no small-C approximation is made here). A denominator
    root approaching the integration interval, possible only for extreme
    focusing with large C, raises instead of silently integrating through a
    near-pole. Units m/V * m.
    """
    xi, C, phi = params.xi_agg, params.C_quad, params.phi
    if _denominator_minimum(xi, C) < _MIN_DENOMINATOR:
        raise OverlapSingularityError(
            f"reduced denominator reaches |1 + i l xi - C xi^2 l^2| < "
            f"{_MIN_DENOMINATOR:g} inside [-1, 1] (xi={xi:.4g}, C={C:.4g}); "
            "configuration outside the validity of the reduced form"
        )

    def integrand(ell):
        return np.exp(-0.5j * phi * ell) / (
            1.0 + 1j * ell * xi - C * xi * xi * ell * ell
        )

    value, _err = complex_quad(integrand, -1.0, 1.0, tol=quad_tol)
    return overlap_prefactor(chi_eff, (w_p, w_1, w_2), params.D_norm) * value


def overlap_direct(
    beams: BeamTriple,
    material: MaterialOptics,
    delta_k: float,
    quad_tol: float = 1e-9,
) -> complex:
    """Overlap from direct axial quadrature of the beam-parameter product.

    O = -i chi_eff sqrt(8/pi) w_p w_1 w_2
        * integral over z in [-Lz/2, Lz/2] of
          chi_bar(z) exp(-i dk z) / (qb_p qb_1* + qb_p qb_2* + qb_1* qb_2*),

    with chi_bar the poling sign profile when the material is periodically
    poled. Poled integrands are split at the domain walls so every panel is
    smooth. Units m/V * m.
    """
    Lz = beams.crystal_length

    def denominator(z):
        qb_p = scaled_beam_parameter(beams.pump, z)
        qb_1c = np.conj(scaled_beam_parameter(beams.signal, z))
        qb_2c = np.conj(scaled_beam_parameter(beams.idler, z))
        return qb_p * qb_1c + qb_p * qb_2c + qb_1c * qb_2c

    def integrand(z):
        return np.exp(-1j * delta_k * z) / denominator(z)

    walls = domain_walls(material.poling_period, Lz)
    edges = np.concatenate(([-Lz / 2.0], walls, [Lz / 2.0]))

    # scale hint keeps per-panel absolute floors commensurate with the result
    scale_hint = Lz / abs(denominator(0.0))
    total = 0.0 + 0.0j
    total_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sign = poling_profile(0.5 * (a + b), material.poling_period, Lz)
        if sign == 0.0:
            continue
        value, err = complex_quad(integrand, a, b, tol=quad_tol,
                                  scale_hint=scale_hint)
        total += sign * value
        total_err += err

    prefactor = (
        -1j
        * material.chi2_eff
        * math.sqrt(8.0 / math.pi)
        * beams.pump.w0
        * beams.signal.w0
        * beams.idler.w0
    )
    return prefactor * total
