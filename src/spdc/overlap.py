"""Spatial overlap of the pump, signal and idler Gaussian modes.

The overlap against exp(-i dk z) over the crystal sets the absolute pair
rate. ``overlap_direct`` integrates the product of the three beam parameters
along z; ``overlap_simplified`` integrates the reduced axial form over
l = 2z/Lz with aggregate parameters (xi, C, D) (Bennink, Phys. Rev. A 81,
053805 (2010)). Their agreement cross-checks the parameter algebra, which
``aggregate_parameters`` writes once, for floats and arrays alike, with
(xi, C, D, A+B+) unchecked; ``overlap_params`` is the one checked path and
raises DegenerateConfigurationError naming each one not finite.

Both forms integrate exp(-i rate x) / (c2 x^2 + c1 x + c0) through one
routine, ``_axial_integral``: the reduced denominator (-C xi^2, i xi, 1),
the direct one expanded from the linear beam parameters. The closed-form
roots size the panels (at most ~pi of phase and half the distance to the
nearest root, so a near-pole passes ``quadrature.MAX_PANELS`` and raises
QuadratureError); they are even on an unpoled interval, and a poled
crystal's domains split alike, one sign per panel, which
``quadrature.complex_quad`` applies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._numpy import np
from .beams import BeamTriple
from .errors import DegenerateConfigurationError, DomainError
from .materials import MaterialOptics, domain_walls
from .quadrature import complex_quad, panel_count

# phase one quadrature panel may span: a little over pi, so that a poling
# domain anywhere in the central first-order QPM lobe, pi (1 + period / 2 Lz)
# of phase, stays one panel
_MAX_PANEL_PHASE = 1.1 * math.pi


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


_PARAMETER_NAMES = ("xi_agg", "C_quad", "D_norm", "a_plus_b_plus")


def aggregate_parameters(k_p, k_1, k_2, xi_p, xi_1, xi_2, Lz) -> tuple:
    """(xi, C, D, A+B+) of the three beams, unchecked; floats or arrays that broadcast.

    With sigma = k1 x1 + k2 x2 + kp xp and
    u = k1 x1 (x2 - xp) + k2 x2 (x1 - xp) + kp xp (x1 + x2):
    xi = u / sigma, C = (kp - k1 - k2) x1 x2 xp sigma / u^2,
    D = kp k1 k2 xp x1 x2 / (Lz sigma) and A+B+ = sigma u / (kp^2 x1 x2 xp).
    Python floats raise ZeroDivisionError on a zero divisor; arrays give
    whatever numpy's division gives there.
    """
    sigma = k_1 * xi_1 + k_2 * xi_2 + k_p * xi_p
    u = k_1 * xi_1 * (xi_2 - xi_p) + k_2 * xi_2 * (xi_1 - xi_p) + k_p * xi_p * (xi_1 + xi_2)
    return (
        u / sigma,
        (k_p - k_1 - k_2) * xi_1 * xi_2 * xi_p * sigma / (u * u),
        k_p * k_1 * k_2 * xi_p * xi_1 * xi_2 / (Lz * sigma),
        sigma * u / (k_p * k_p * xi_1 * xi_2 * xi_p),
    )


def _checked_parameters(args: tuple) -> tuple:
    """``aggregate_parameters(*args)``, raising DegenerateConfigurationError that
    names each value that is not finite.

    The arguments run as Python floats, numpy scalars too, so that a zero
    divisor raises ZeroDivisionError instead of warning."""
    args = tuple(map(float, args))
    try:
        values = aggregate_parameters(*args)
    except ZeroDivisionError:  # rerun where a zero divisor gives inf or NaN
        with np.errstate(all="ignore"):
            values = tuple(map(float, aggregate_parameters(*map(np.float64, args))))
    bad = [f"{name} = {value}" for name, value in zip(_PARAMETER_NAMES, values)
           if not math.isfinite(value)]
    if bad:
        raise DegenerateConfigurationError(
            f"aggregate parameters not finite: {', '.join(bad)}; a wavevector or "
            "focal parameter is zero or over- or underflows"
        )
    return values


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


def overlap_params(beams: BeamTriple, delta_k: float = 0.0) -> OverlapParams:
    """Bundle the aggregate parameters for a beam triple at mismatch delta_k.

    The reduction behind them puts every focus at the crystal centre, so a
    displaced focus raises; ``overlap_direct`` takes any ``z0``.
    """
    z0s = (beams.pump.z0, beams.signal.z0, beams.idler.z0)
    if any(z0s):
        raise DomainError(
            f"the reduced overlap needs every focus at the crystal centre, got "
            f"z0 = {z0s} m (pump, signal, idler); use overlap_direct"
        )
    xi, C, D, ab = _checked_parameters(
        (*beams.wavevectors(), beams.xi_p, beams.xi_1, beams.xi_2, beams.crystal_length))
    return OverlapParams(xi_agg=xi, C_quad=C, D_norm=D, a_plus_b_plus=ab,
                         phi=delta_k * beams.crystal_length)


def overlap_prefactor(chi_eff: float, waists: tuple, D_norm: float) -> complex:
    """Factor -i chi_eff sqrt(2/pi) w_p w_1 w_2 D in front of the reduced axial integral."""
    w_p, w_1, w_2 = waists
    return -1j * chi_eff * math.sqrt(2.0 / math.pi) * w_p * w_1 * w_2 * D_norm


def _quadratic_roots(c2, c1, c0) -> tuple:
    """Roots of c2 x^2 + c1 x + c0 (not all zero), free of cancellation.

    With the coefficients scaled to at most 1, so that c1^2 cannot overflow,
    q = -(c1 + s sqrt(c1^2 - 4 c2 c0)) / 2 takes the sign s that adds
    magnitudes; the roots are q / c2 and c0 / q, only c0 / q when c2 = 0.
    """
    scale = max(abs(c2), abs(c1), abs(c0))
    c2, c1, c0 = c2 / scale, c1 / scale, c0 / scale
    d = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * (c1 + d if (c1.conjugate() * d).real >= 0.0 else c1 - d)
    if q == 0.0:  # c1 = 0 and c2 c0 = 0: a double root at 0, or a constant
        return (0j, 0j) if c2 else ()
    return (q / c2, c0 / q) if c2 else (c0 / q,)


def _panel_width(coeffs: tuple, lo: float, hi: float, rate: float) -> float:
    """Widest panel for exp(-i rate x) / (c2 x^2 + c1 x + c0) on [lo, hi]; coeffs = (c2, c1, c0).

    A panel spans at most ~pi of phase and half the distance from [lo, hi]
    to the nearest root of the denominator (``_quadratic_roots``). Inside
    those limits the order-8 sum is within ~1e-13 of the integral of |f|.
    """
    if not (all(map(cmath.isfinite, coeffs)) and any(coeffs)):
        raise DomainError(f"overlap denominator is zero or not finite on [{lo:.4g}, {hi:.4g}]")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    gaps = [math.hypot(max(abs(r.real - mid) - half, 0.0), r.imag)
            for r in _quadratic_roots(*coeffs)]
    width = min(hi - lo, 0.5 * min(gaps, default=math.inf))
    return width if rate == 0.0 else min(width, _MAX_PANEL_PHASE / abs(rate))


def _direct_coefficients(beams: BeamTriple) -> tuple:
    """(c2, c1, c0) in z of qb_p qb_1* + qb_p qb_2* + qb_1* qb_2*, where
    qb_j(z) = a_j + b_j z with a_j = -w0_j^2 - (2i/k_j) z0_j and b_j = 2i/k_j."""
    (ap, bp), (a1, b1), (a2, b2) = ((-m.w0 * m.w0 - 2j / m.k * m.z0, 2j / m.k)
                                    for m in (beams.pump, beams.signal, beams.idler))
    a1, b1, a2, b2 = a1.conjugate(), b1.conjugate(), a2.conjugate(), b2.conjugate()
    return (bp * (b1 + b2) + b1 * b2,
            ap * (b1 + b2) + bp * (a1 + a2) + a1 * b2 + b1 * a2,
            ap * (a1 + a2) + a1 * a2)


def _domain_panels(Lz: float, period: float | None, width: float) -> tuple:
    """Edges on [-Lz/2, Lz/2] splitting each domain alike into panels <= ``width``, and
    each panel's sign: +1 first, as in ``materials.poling_profile``. Unpoled
    (``period`` None), evenly spaced edges and no signs."""
    if period is None:
        return np.linspace(-0.5 * Lz, 0.5 * Lz, panel_count(Lz, width) + 1), None
    domain = min(Lz, 0.5 * period)
    per_domain = panel_count(domain, width)
    # raises past the panel cap before the domain walls are built
    panel_count(Lz, domain / per_domain)
    walls = np.concatenate(([-0.5 * Lz], domain_walls(period, Lz), [0.5 * Lz]))
    steps = np.arange(per_domain) / per_domain
    edges = np.append(walls[:-1, None] + np.outer(np.diff(walls), steps), walls[-1])
    return edges, np.repeat(1.0 - 2.0 * (np.arange(len(walls) - 1) % 2), per_domain)


def _axial_integral(coeffs: tuple, rate: float, half: float, period: float | None,
                    quad_tol: float) -> complex:
    """Integral over [-half, half] of exp(-i rate x) / ((c2 x + c1) x + c0), times the
    poling sign of ``period`` (None unpoled), to ``quad_tol`` by ``complex_quad``."""
    c2, c1, c0 = coeffs
    edges, signs = _domain_panels(2.0 * half, period, _panel_width(coeffs, -half, half, rate))
    return complex_quad(lambda x: np.exp(-1j * rate * x) / ((c2 * x + c1) * x + c0),
                        edges, quad_tol, signs)[0]


def overlap_simplified(params: OverlapParams, chi_eff: float, w_p: float, w_1: float,
                       w_2: float, Lz: float, quad_tol: float = 1e-9) -> complex:
    """Overlap from the reduced axial integral over l in [-1, 1].

    O = -i chi_eff sqrt(2/pi) w_p w_1 w_2 D
        * integral of exp(-i phi l / 2) / (1 + i l xi - C xi^2 l^2).

    Exact for any C (no small-C approximation is made here). A denominator
    root near the integration interval, possible only for extreme focusing
    with large C, narrows the panels to half its distance from [-1, 1]; past
    ``MAX_PANELS`` panels (a root within 8e-5 of the interval at phi = 0)
    the layout raises QuadratureError instead of integrating through a
    near-pole. ``Lz`` is not read. Units m/V * m.
    """
    xi, C, phi = params.xi_agg, params.C_quad, params.phi
    if not math.isfinite(phi):
        raise DomainError(f"phase mismatch phi must be finite, got {phi}")
    value = _axial_integral((-C * xi * xi, 1j * xi, 1.0), 0.5 * phi, 1.0, None, quad_tol)
    return overlap_prefactor(chi_eff, (w_p, w_1, w_2), params.D_norm) * value


def overlap_direct(beams: BeamTriple, material: MaterialOptics, delta_k: float,
                   quad_tol: float = 1e-9) -> complex:
    """Overlap from direct axial quadrature of the beam-parameter product.

    O = -i chi_eff sqrt(8/pi) w_p w_1 w_2
        * integral over z in [-Lz/2, Lz/2] of
          chi_bar(z) exp(-i dk z) / (qb_p qb_1* + qb_p qb_2* + qb_1* qb_2*),

    with chi_bar the poling sign, one per panel, since no panel straddles a
    domain wall. Raises QuadratureError when the layout needs more than
    ``MAX_PANELS`` panels or the error estimate is over ``quad_tol``.
    Units m/V * m.
    """
    if not math.isfinite(delta_k):
        raise DomainError(f"delta_k must be finite, got {delta_k}")
    value = _axial_integral(_direct_coefficients(beams), delta_k, 0.5 * beams.crystal_length,
                            material.poling_period, quad_tol)
    w_p, w_1, w_2 = beams.waists()
    return -1j * material.chi2_eff * math.sqrt(8.0 / math.pi) * w_p * w_1 * w_2 * value
