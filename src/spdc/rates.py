"""Absolute pair-generation rates for Gaussian-beam SPDC.

The closed-form rate per pump photon,

    N = (64 pi^3 hbar c / eps0)
        * ng1 ng2 ngp / (np^3 n1 n2 |ng1 - ng2|)
        * |chi_eff|^2 / (lambda1^2 lambda2^2)
        * arctan(xi) / (A+B+),

holds for linear phase matching (nondegenerate or type-II) with the
quadratic denominator coefficient C ~ 0. ``pairs_via_bruteforce`` evaluates
the underlying frequency-space probability integral by honest 2-D
quadrature, with no delta-function shortcut, and serves as the oracle for
the closed form; ``pairs_degenerate_numeric`` runs the same quadrature for
quadratic phase matching. All paths freeze the slowly varying spectral
prefactors at the band centers so they test the same model.

Rates are reported per pump photon and per second per milliwatt of pump
power (N * P / (hbar omega_p) with P = 1 mW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

from ._numpy import np
from .beams import BeamTriple, GaussianMode
from .errors import DegenerateDispersionError, DomainError, QuadratureError
from .materials import CONSTANTS, MaterialOptics, PhysicalConstants
from .overlap import (
    aggregate_parameters,
    overlap_params,
    overlap_prefactor,
    phase_mismatch_coefficients,
)
from .quadrature import ell_integral, panel_nodes

_MILLIWATT = 1e-3
# relative ng_1 == ng_2 threshold below which the linear model is refused
_DEGENERATE_NG_RTOL = 1e-9
# relative error the default phi window is sized for, per error term
_WINDOW_TARGET = 1e-4
# k in the default window's pole-lobe reach k xi ln(1 / target), where the
# lobe exp(-|phi| / xi) is target^k and its cross term with the 1/phi tail
# target^(k/2) times 8 / (pi xi Phi); k = 1.5 puts both under the target
_LOBE_WINDOW_FACTOR = 1.5
# widest phi window half-width of the brute-force integrals: it bounds the dwm grid
_MAX_PHI_HALFWIDTH = 2.0e4
# Gauss-Hermite pump-axis order on the fine pass (the coarse pass takes half)
# and the most the phase spread of a broadband pump may raise it to
_PUMP_ORDER = 8
_MAX_PUMP_ORDER = 256

METHOD_CLOSED_FORM = "closed_form"
METHOD_BRUTE_FORCE = "brute_force"


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump spectrum s(dw) of the detuning dw from the pump centre.

    The centre is 2 pi c / ``beams.pump.lambda_vac``, the one home of the
    pump wavelength. ``bandwidth`` is the RMS width (rad/s) of the spectral
    density |s|^2, which integrates to one; CW operation is the narrowband
    limit. There is no power: rates are per pump photon and per mW.
    """

    bandwidth: float

    def __post_init__(self):
        if not (self.bandwidth > 0.0):
            raise DomainError(f"pump bandwidth must be positive, got {self.bandwidth}")

    def spectral_amplitude(self, detuning):
        """Normalized amplitude s(dw), units 1/sqrt(rad/s)."""
        return np.sqrt(self.spectral_density(detuning))

    def spectral_density(self, detuning):
        """|s(dw)|^2, units 1/(rad/s)."""
        sigma = self.bandwidth
        d = np.asarray(detuning)
        return np.exp(-(d * d) / (2.0 * sigma * sigma)) / (
            sigma * math.sqrt(2.0 * math.pi)
        )


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate computation.

    ``quadrature_error_estimate`` is a relative estimate for the
    brute-force path, None for the closed form: the refinement difference
    plus the next-order tail term plus the pole lobe beyond the window, all
    left after the analytic 1/phi^2 tail has been added to the window
    integral. For the brute-force path ``diagnostics`` holds the method,
    the phi window and its dwm edge, each pass's Gauss-Hermite pump order,
    dwm node count and (rows, columns) phi grid under ``passes``, the raw
    ``window_integral`` and the ``tail_correction`` (pairs per pump
    photon, summing to the result) and the three estimate terms;
    informational only.
    """

    pairs_per_pump_photon: float
    pairs_per_s_per_mW: float
    xi_agg: float
    a_plus_b_plus: float
    method: str
    quadrature_error_estimate: Optional[float] = None
    diagnostics: Mapping = field(default_factory=dict)


def _angular_frequency(lambda_vac: float, constants: PhysicalConstants) -> float:
    """Angular frequency 2 pi c / lambda_vac (rad/s) of a vacuum wavelength."""
    return 2.0 * math.pi * constants.c / lambda_vac


def pairs_per_second(
    pairs_per_pump_photon: float,
    power: float,
    omega_p: float,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Scale a per-photon pair probability by the pump photon flux P/(hbar w)."""
    return pairs_per_pump_photon * power / (constants.hbar * omega_p)


def _require_nondegenerate(material: MaterialOptics):
    dng = abs(material.ng_1 - material.ng_2)
    if dng <= _DEGENERATE_NG_RTOL * max(material.ng_1, material.ng_2):
        raise DegenerateDispersionError(
            "signal and idler group indices coincide; the linear "
            "phase-matching rate diverges. Use pairs_degenerate_numeric "
            "(CLI: --degenerate --kappa0 <s^2/m>) instead."
        )


def _atan(x):
    """``math.atan`` of a float, or of each element of an array.

    ``np.arctan`` differs from it in the last bit on some inputs, which
    would change printed digits between a scan row and a single call.
    """
    if isinstance(x, float):
        return math.atan(x)
    return np.fromiter(map(math.atan, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _closed_form(material, modes, xi, ab, constants) -> tuple:
    """The closed form: (pairs per pump photon, pairs per s per mW) from xi_agg and A+B+.

    ``xi`` and ``ab`` are floats or arrays; the material must have passed
    ``_require_nondegenerate``.
    """
    pump, signal, idler = modes
    dng = abs(material.ng_1 - material.ng_2)
    index_factor = (
        material.ng_1 * material.ng_2 * material.ng_p
        / (pump.n ** 3 * signal.n * idler.n * dng)
    )
    lam_1 = signal.lambda_vac
    lam_2 = idler.lambda_vac
    chi = material.chi2_eff
    n_pairs = (
        64.0 * math.pi ** 3 * constants.hbar * constants.c / constants.epsilon0
        * index_factor
        * (chi * chi) / (lam_1 * lam_1 * lam_2 * lam_2)
        * _atan(xi) / ab
    )
    omega_p = _angular_frequency(pump.lambda_vac, constants)
    return n_pairs, pairs_per_second(n_pairs, _MILLIWATT, omega_p, constants)


def closed_form_kernel(
    material: MaterialOptics,
    modes: tuple,
    waists: tuple,
    Lz,
    constants: PhysicalConstants = CONSTANTS,
) -> tuple:
    """The closed-form rate over arrays of waists or crystal lengths, in one pass.

    ``modes`` are the pump, signal and idler modes, of which only the
    wavelength, index and focus position are read; the waists
    (w_p, w_1, w_2) and the crystal length ``Lz`` are arrays that
    broadcast, or floats beside them. Returns (pairs per pump photon,
    pairs per s per mW, xi_agg, A+B+, ok). Each element comes from the
    operations, in their order, of ``GaussianMode``, ``BeamTriple``,
    ``overlap_params`` and ``pairs_closed_form`` on that point's beams, so
    it is bit-identical to them, and ``ok`` is true exactly where all
    their checks pass; elsewhere the values are whatever the arithmetic
    gave. Call it under ``np.errstate(all="ignore")``. Raises
    DegenerateDispersionError as ``pairs_closed_form`` does, since that
    check is on the material alone.
    """
    _require_nondegenerate(material)
    pump, signal, idler = modes
    k_p, k_1, k_2 = pump.k, signal.k, idler.k
    w_p, w_1, w_2 = waists
    inf = math.inf
    ok = (0.0 < Lz) & (Lz < inf) & (not (pump.z0 or signal.z0 or idler.z0))
    for k, w in ((k_p, w_p), (k_1, w_1), (k_2, w_2)):
        z_R = 0.5 * k * w * w
        ok = ok & (0.0 < w) & (w < inf) & (0.0 < z_R) & (z_R < inf)
    xi_p = Lz / (k_p * w_p * w_p)
    xi_1 = Lz / (k_1 * w_1 * w_1)
    xi_2 = Lz / (k_2 * w_2 * w_2)
    xi, C, D, ab = aggregate_parameters(k_p, k_1, k_2, xi_p, xi_1, xi_2, Lz)
    n_pairs, rate = _closed_form(material, modes, xi, ab, constants)
    # the finite parameters overlap_params checks, then pairs_closed_form's checks
    ok = (
        ok & np.isfinite(C) & np.isfinite(D) & (0.0 < xi) & (xi < inf)
        & (0.0 < ab) & (ab < inf) & (abs(rate) < inf)
    )
    return n_pairs, rate, xi, ab, ok


def _positive_params(beams: BeamTriple):
    """``overlap_params``, with xi_agg and A+B+ checked positive and finite."""
    params = overlap_params(beams)
    xi, ab = params.xi_agg, params.a_plus_b_plus
    if not (0.0 < xi < math.inf and 0.0 < ab < math.inf):
        raise DomainError(
            f"aggregate parameters xi={xi:.4g}, A+B+={ab:.4g} must be positive "
            "and finite; configuration outside the validity of the rate formula"
        )
    return params


def pairs_closed_form(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
) -> RateResult:
    """Closed-form pair probability per pump photon and rate per s per mW."""
    _require_nondegenerate(material)
    params = _positive_params(beams)
    xi, ab = params.xi_agg, params.a_plus_b_plus
    modes = (beams.pump, beams.signal, beams.idler)
    n_pairs, rate = _closed_form(material, modes, xi, ab, constants)
    if not math.isfinite(rate):  # also catches a non-finite n_pairs
        raise DomainError(f"closed-form rate {rate:.4g} per s per mW is not finite")
    return RateResult(
        pairs_per_pump_photon=n_pairs,
        pairs_per_s_per_mW=rate,
        xi_agg=xi,
        a_plus_b_plus=ab,
        method=METHOD_CLOSED_FORM,
    )


def _auto_phi_halfwidth(xi: float) -> float:
    """Default phi window half-width of the brute-force integrals.

    After the 1/phi^2 tail correction two errors are left, each sized here
    to ``_WINDOW_TARGET`` of the rate. The first is the next-order tail
    term, ~ coeff / Phi^2 with coeff / Phi the tail's share of the rate
    (coeff = 2 xi / (pi (1 + xi^2) arctan(xi))), so Phi >= sqrt(coeff /
    target). The second is the lobe exp(-|phi| / xi) of the pole at
    l = i / xi, which the 1/phi^2 series does not see, so
    Phi >= k xi ln(1 / target). The floor of 50 keeps the window where the
    asymptotic tail series holds; ``_MAX_PHI_HALFWIDTH`` caps it.
    """
    x = abs(xi)
    if x < 1e-12:
        coeff = 2.0 / math.pi  # limit of the tail coefficient as xi -> 0
    else:
        coeff = 2.0 * x / (math.pi * (1.0 + x * x) * math.atan(x))
    return min(_MAX_PHI_HALFWIDTH, max(
        50.0,
        math.sqrt(coeff / _WINDOW_TARGET),
        _LOBE_WINDOW_FACTOR * x * math.log(1.0 / _WINDOW_TARGET),
    ))


@lru_cache(maxsize=None)
def _pump_rule(order: int):
    """Probabilists' Gauss-Hermite nodes and weights for the unit Gaussian density."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / math.sqrt(2.0 * math.pi)


def _pump_rule_order(phase_spread: float) -> int:
    """Fine-pass Gauss-Hermite order for a pump of phase spread |coeff_p| sigma.

    The row integrals oscillate like exp(i coeff_p sigma x) in the unit
    pump variable x, and an n-node rule integrates exp(i kappa x) against
    the Gaussian to ~ n! kappa^(2n) / (2n)!, so the order grows like
    kappa^2. It is even, so the coarse pass takes exactly half.
    """
    growth = phase_spread * phase_spread
    if not (growth <= 0.5 * (_MAX_PUMP_ORDER - _PUMP_ORDER)):
        raise QuadratureError(
            f"pump phase spread {phase_spread:.4g} rad needs a Gauss-Hermite "
            f"rule of more than {_MAX_PUMP_ORDER} nodes"
        )
    return _PUMP_ORDER + 2 * int(growth)


def _dwm_panel_edges(coeff_m: float, power: int, phi_halfwidth: float):
    """Fine and coarse difference-detuning panel edges over the phi window.

    Each side gets m = max(2, ceil(Phi / (2 pi))) panels whose edges sit
    where |coeff_m| |dwm|^power = Phi k / m, so every panel spans at most
    2 pi of phase and the outermost edge maps to exactly ``phi_halfwidth``.
    That is one period of the fastest oscillation of |ell_integral|^2,
    whose spectrum in phi lies within [-1, 1]; eight Gauss-Legendre nodes
    resolve it. The coarse layout drops every other edge and keeps the
    last one.
    """
    m = max(2, int(math.ceil(phi_halfwidth / (2.0 * math.pi))))
    pos = (phi_halfwidth * (np.arange(m + 1) / m) / abs(coeff_m)) ** (1.0 / power)
    pos_coarse = pos[::2] if m % 2 == 0 else np.append(pos[::2], pos[-1])
    return (
        np.concatenate((-pos[::-1], pos[1:])),
        np.concatenate((-pos_coarse[::-1], pos_coarse[1:])),
    )


def _bruteforce_rate(
    material: MaterialOptics,
    beams: BeamTriple,
    pump: PumpSpec,
    constants: PhysicalConstants,
    quad_tol: float,
    phi_halfwidth: Optional[float],
    gvd_kappa0: Optional[float] = None,
) -> RateResult:
    """Integrate |psi|^2 of the joint spectral amplitude over both detunings.

    The phase mismatch is phi = coeff_p dwp + coeff_m dwm^power in the sum
    (dwp) and difference (dwm) detunings, with power 1 and the coefficients
    of ``phase_mismatch_coefficients`` (linear phase matching), or with
    ``gvd_kappa0`` power 2 and coeff_m = kappa0 Lz / 4 (degenerate). A given
    ``phi_halfwidth`` outside (0, ``_MAX_PHI_HALFWIDTH``] raises DomainError
    before any grid is built. The pump axis is a Gauss-Hermite rule for the
    Gaussian pump density and the dwm axis Gauss-Legendre panels over the
    phi window; a pass with half the pump nodes and half as many dwm panels
    gives the refinement estimate. The analytic 1/phi^2 tail beyond the
    window is added to the window integral, and the error estimate adds the
    refinement difference, the next-order tail term and the pole lobe beyond
    the window. Each pass gets its whole table of axial integrals from one
    ``ell_integral`` call with the pump rows as ``offsets``, so the complex
    exponentials number (pump rows + dwm columns) per node x >= 0 of the
    folded rule, half the rule's nodes, and the real table is one matrix
    product.
    """
    if not (quad_tol > 0.0):
        raise DomainError(f"quad_tol must be positive, got {quad_tol}")
    params = _positive_params(beams)
    xi, C = params.xi_agg, params.C_quad
    if phi_halfwidth is None:
        phi_halfwidth = _auto_phi_halfwidth(xi)
    elif not (0.0 < phi_halfwidth <= _MAX_PHI_HALFWIDTH):
        raise DomainError(f"phi_halfwidth {phi_halfwidth} not in (0, {_MAX_PHI_HALFWIDTH:g}]")
    Lz = beams.crystal_length
    coeff_p, coeff_m = phase_mismatch_coefficients(material.ng_p, material.ng_1,
                                                   material.ng_2, Lz, constants.c)
    power, diag = 1, {}
    if gvd_kappa0 is not None:
        power, coeff_m, diag = 2, 0.25 * gvd_kappa0 * Lz, {"gvd_kappa0": gvd_kappa0}

    sigma = pump.bandwidth
    order = _pump_rule_order(abs(coeff_p) * sigma)
    dwm_fine, dwm_coarse = _dwm_panel_edges(coeff_m, power, phi_halfwidth)
    passes = {}

    def window_integral(name, pump_order, dwm_edges):
        x, x_w = _pump_rule(pump_order)
        if power == 2:
            # phi = coeff_m dwm^2 is even in dwm and the edges are symmetric
            # about 0: integrate over dwm >= 0 and double. The linear phi is
            # not even, so power 1 keeps both sides.
            dwm, dwm_w = panel_nodes(dwm_edges[len(dwm_edges) // 2:], 8)
            dwm_w *= 2.0
        else:
            dwm, dwm_w = panel_nodes(dwm_edges, 8)
        axial = ell_integral(
            coeff_m * dwm ** power, xi, C, offsets=coeff_p * sigma * x,
        )
        passes[name] = {
            "pump_rule_order": pump_order,
            "dwm_nodes": dwm.size,
            "phi_grid": axial.shape,
        }
        return float(x_w @ ((axial * axial) @ dwm_w))

    # a non-finite pass makes the refinement estimate NaN or inf, which the
    # check below rejects, so numpy's floating-point warnings would only
    # add noise
    with np.errstate(all="ignore"):
        fine = window_integral("fine", order, dwm_fine)
        coarse = window_integral("coarse", order // 2, dwm_coarse)

    # |ell_integral|^2 ~ 8 / (|1 + i xi - C xi^2|^2 phi^2) beyond the
    # window; its two tails in dwm, against a pump density that integrates
    # to one
    w_minus = float(dwm_fine[-1])
    edge_denominator_sq = (1.0 - C * xi * xi) ** 2 + xi * xi
    tail_abs = 16.0 / (
        (2 * power - 1) * edge_denominator_sq * coeff_m ** 2 * w_minus ** (2 * power - 1)
    )
    # on the lobe side of phi the pole at l = i / xi adds
    # P = (2 pi / xi) exp(-|phi| / (2 xi)) to ell_integral; bound |P|^2 and
    # its cross term with the 2 / (|phi| sqrt(1 + xi^2)) endpoint terms
    # beyond the window, then map phi to dwm
    phi_edge = abs(coeff_m) * w_minus ** power
    lobe_abs = (
        4.0 * math.pi ** 2 * math.exp(-phi_edge / xi) / xi
        + 32.0 * math.pi * math.exp(-0.5 * phi_edge / xi) / ((1.0 + xi * xi) * phi_edge)
    ) / (abs(coeff_m) * w_minus ** (power - 1))
    total = fine + tail_abs
    refinement = abs(fine - coarse) / total
    # with g(l) = 1 / (1 + i xi l - C xi^2 l^2), the oscillating
    # -(8 / phi^2) Re(exp(-i phi) g(1) g(-1)*) part of |ell_integral|^2 and,
    # for power 2, its one-signed 1/phi^3 part; 1 + 4 / Phi covers the
    # terms one order further out
    next_order = (2 * power - 1) * (1.0 + 4.0 / phi_edge) * tail_abs / (phi_edge * total)
    lobe = lobe_abs / total
    if not (refinement <= quad_tol):
        raise QuadratureError(
            f"brute-force quadrature refinement estimate {refinement:.3e} "
            f"exceeds tolerance {quad_tol:.3e}",
            estimate=refinement,
        )

    # d(w1) d(w2) = d(dwp) d(dwm) / 2
    amplitude = _jsa_prefactor(material, beams, constants) * abs(
        overlap_prefactor(material.chi2_eff, beams.waists(), params.D_norm)
    )
    to_pairs = 0.5 * amplitude * amplitude
    n_pairs = to_pairs * total
    omega_p = _angular_frequency(beams.pump.lambda_vac, constants)
    return RateResult(
        pairs_per_pump_photon=n_pairs,
        pairs_per_s_per_mW=pairs_per_second(n_pairs, _MILLIWATT, omega_p, constants),
        xi_agg=xi,
        a_plus_b_plus=params.a_plus_b_plus,
        method=METHOD_BRUTE_FORCE,
        quadrature_error_estimate=refinement + next_order + lobe,
        diagnostics={
            "method": "Gauss-Hermite pump x Gauss-Legendre dwm, 1/phi^2 tail added",
            "phi_halfwidth": phi_halfwidth,
            "delta_omega_minus_halfwidth": w_minus,
            **diag,
            "passes": passes,
            "window_integral": to_pairs * fine,
            "tail_correction": to_pairs * tail_abs,
            "refinement_estimate": refinement,
            "next_order_estimate": next_order,
            "lobe_estimate": lobe,
        },
    )


def pairs_via_bruteforce(
    material: MaterialOptics,
    beams: BeamTriple,
    pump: PumpSpec,
    constants: PhysicalConstants = CONSTANTS,
    quad_tol: float = 1e-4,
    *,
    phi_halfwidth: Optional[float] = None,
) -> RateResult:
    """Pair probability by 2-D quadrature of the frequency-space integral.

    Integrates |psi(w1, w2)|^2 of the joint spectral amplitude over the pump
    band and the phase-matching band in the sum/difference detuning
    coordinates, with the linear phase-mismatch model and the axial integral
    evaluated pointwise (no delta-function reduction). The squared axial
    integral has a slowly decaying 1/phi^2 tail, which is added
    analytically beyond the phi window; the default window keeps what that
    leaves out (the next-order tail term and the pole lobe at large xi)
    near 1e-4 of the rate, and ``phi_halfwidth`` overrides it. The
    quadrature refinement estimate must come in under ``quad_tol``.
    """
    _require_nondegenerate(material)
    return _bruteforce_rate(material, beams, pump, constants, quad_tol, phi_halfwidth)


def pairs_degenerate_numeric(
    material: MaterialOptics,
    beams: BeamTriple,
    pump: PumpSpec,
    gvd_kappa0: float,
    constants: PhysicalConstants = CONSTANTS,
    quad_tol: float = 1e-4,
    *,
    phi_halfwidth: Optional[float] = None,
) -> RateResult:
    """Pair probability for quadratic (degenerate type-0/I) phase matching.

    Same quadrature as ``pairs_via_bruteforce`` with the difference
    detuning entering the mismatch quadratically,
    phi = a dwp + (kappa0 / 4) dwm^2 Lz; no closed form is claimed for this
    case. ``gvd_kappa0`` is the group-velocity-dispersion coefficient at the
    degenerate point (s^2/m). The default phi window is the linear-model
    one, which is conservative here because the tail decays faster in dwm.
    """
    if not (math.isfinite(gvd_kappa0) and gvd_kappa0 != 0.0):
        raise DomainError(
            f"gvd_kappa0 must be finite and nonzero for the degenerate path, "
            f"got {gvd_kappa0}"
        )
    return _bruteforce_rate(material, beams, pump, constants, quad_tol, phi_halfwidth,
                            gvd_kappa0)


def overlap_value(
    omega1,
    omega2,
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
):
    """Overlap O(w1, w2) of the joint spectral amplitude.

    Waists, focal parameters and normalization are frozen at the central
    wavelengths of ``beams``; only the phase mismatch varies with (w1, w2),
    through the linear model. Accepts arrays.
    """
    params = overlap_params(beams)
    d1 = np.asarray(omega1) - _angular_frequency(beams.signal.lambda_vac, constants)
    d2 = np.asarray(omega2) - _angular_frequency(beams.idler.lambda_vac, constants)
    coeff_p, coeff_m = phase_mismatch_coefficients(
        material.ng_p, material.ng_1, material.ng_2, beams.crystal_length, constants.c,
    )
    # an overflowing or inf - inf phase is left to ell_integral, which refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        phi = coeff_p * (d1 + d2) + coeff_m * (d1 - d2)
    pref = overlap_prefactor(material.chi2_eff, beams.waists(), params.D_norm)
    return pref * ell_integral(phi, params.xi_agg, params.C_quad)


def _jsa_prefactor(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants,
) -> float:
    """Frequency-independent factor of psi in front of s(w1 + w2 - wp0) O(w1, w2)."""
    return math.sqrt(
        2.0 * math.pi ** 2 * constants.hbar
        / (constants.epsilon0 * beams.pump.lambda_vac
           * beams.signal.lambda_vac * beams.idler.lambda_vac)
    ) * math.sqrt(
        material.ng_1 * material.ng_2 * material.ng_p
        / (beams.pump.n ** 2 * beams.signal.n ** 2 * beams.idler.n ** 2)
    )


def jsa_value(
    omega1,
    omega2,
    pump: PumpSpec,
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
):
    """Joint spectral amplitude psi(w1, w2).

    psi = sqrt(2 pi^2 hbar N_p / (eps0 lp0 l10 l20))
          * sqrt(ng1 ng2 ngp / (np^2 n1^2 n2^2))
          * s(w1 + w2 - wp0) * O(w1, w2)

    with the central wavelengths and phase indices of ``beams``,
    wp0 = 2 pi c / lp0, the spectrum s of ``pump`` and O from
    ``overlap_value``. N_p = 1: |psi|^2 integrated over both frequencies is
    the pair probability per pump photon. Accepts arrays.
    """
    # O first: it refuses a non-finite phase before the pump detuning could warn
    overlap = overlap_value(omega1, omega2, material, beams, constants)
    wp0 = _angular_frequency(beams.pump.lambda_vac, constants)
    s = pump.spectral_amplitude(np.asarray(omega1) + np.asarray(omega2) - wp0)
    return _jsa_prefactor(material, beams, constants) * s * overlap


def bennink_ratio(
    n_p: float, n_1: float, n_2: float,
    ng_p: float, ng_1: float, ng_2: float,
    epsilon_qpm: float = 1.0,
) -> float:
    """Ratio of this rate model to the Bennink (2010) Eq. 40 prediction.

    ratio = (1/epsilon) ng1 ng2 ngp / (n1^2 n2^2 np^2), where epsilon is
    Bennink's efficiency factor (~1 for AR-coated bulk crystals).
    """
    if not (epsilon_qpm > 0.0):
        raise DomainError(f"epsilon must be positive, got {epsilon_qpm}")
    return (ng_1 * ng_2 * ng_p) / (n_1 ** 2 * n_2 ** 2 * n_p ** 2) / epsilon_qpm


def tutorial_correction_factor(n_p: float, n_1: float, n_2: float, ng_p: float) -> float:
    """Order-unity factor relating the plane-wave-pump rate to the revised one.

    factor = n1 n2 ngp / np^3; multiplies previously published collimated
    rates to account for the fully continuous pump treatment.
    """
    for name, n in (("n_p", n_p), ("n_1", n_1), ("n_2", n_2), ("ng_p", ng_p)):
        if not (n >= 1.0):
            raise DomainError(f"{name} must be >= 1, got {n}")
    return n_1 * n_2 * ng_p / n_p ** 3


def apply_table_correction(rate_published: float, factor: float) -> float:
    """Apply a correction factor to a published theoretical rate (1/(s mW))."""
    if not (factor > 0.0):
        raise DomainError(f"correction factor must be positive, got {factor}")
    return rate_published * factor


def collimated_limit_rates(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
) -> tuple:
    """Collimated-limit (xi -> 0) type-II rates per second per milliwatt.

    Returns (R_SM, R_revised): the single-mode collimated formula with the
    older index factor ng1 ng2 / (n1^2 n2^2 np), and the revised one with
    ng1 ng2 ngp / (n1 n2 np^4). Their ratio is exactly
    ``tutorial_correction_factor``. The pump wavelength, phase indices and
    crystal length come from ``beams``, and the pump's Gaussian amplitude
    sigma_p is half its waist (w = 2 sigma). The formula assumes
    signal/idler collection with sigma_1 = sigma_2 = sigma_p sqrt(2); the
    signal and idler waists are not read.
    """
    _require_nondegenerate(material)
    n_p, n_1, n_2 = beams.pump.n, beams.signal.n, beams.idler.n
    sigma_p = 0.5 * beams.pump.w0
    dng = abs(material.ng_1 - material.ng_2)
    omega_p = _angular_frequency(beams.pump.lambda_vac, constants)
    common = (
        1.0 / (16.0 * math.pi * constants.epsilon0 * constants.c ** 2)
        * material.d_eff ** 2 * omega_p ** 2 / dng
        * _MILLIWATT / sigma_p ** 2
        * beams.crystal_length
    )
    r_sm = common * material.ng_1 * material.ng_2 / (n_1 ** 2 * n_2 ** 2 * n_p)
    r_revised = common * material.ng_1 * material.ng_2 * material.ng_p / (
        n_1 * n_2 * n_p ** 4
    )
    return r_sm, r_revised


def equal_focus_waists(base: BeamTriple, xi) -> tuple:
    """The waists (w_p, w_1, w_2) that give every mode of ``base`` focal parameter ``xi``.

    w = sqrt(Lz / (k xi)), taken with ``math.sqrt`` for a positive number
    and ``np.sqrt`` for an array; both are correctly rounded, so they agree
    bit for bit. An array element that is not positive gives NaN or inf
    (and a RuntimeWarning outside ``np.errstate``), which ``GaussianMode``
    refuses.
    """
    Lz = base.crystal_length
    # a Python number is never an array, and testing it so leaves numpy unloaded
    array = not isinstance(xi, (int, float)) and isinstance(xi, np.ndarray)
    sqrt = np.sqrt if array else math.sqrt
    return (sqrt(Lz / (base.pump.k * xi)), sqrt(Lz / (base.signal.k * xi)),
            sqrt(Lz / (base.idler.k * xi)))


def equal_focus_beams(base: BeamTriple, xi: float) -> BeamTriple:
    """Rescale all waists so every focal parameter equals ``xi``."""
    if xi <= 0.0:
        raise DomainError(f"focal parameter must be positive, got {xi}")
    w_p, w_1, w_2 = equal_focus_waists(base, xi)

    def remode(mode: GaussianMode, w: float) -> GaussianMode:
        return GaussianMode(lambda_vac=mode.lambda_vac, n=mode.n, w0=w, z0=mode.z0)

    return BeamTriple(
        pump=remode(base.pump, w_p),
        signal=remode(base.signal, w_1),
        idler=remode(base.idler, w_2),
        crystal_length=base.crystal_length,
    )


def focus_optimize(
    material: MaterialOptics,
    base_beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
    xi_range: tuple = (0.01, 10.0),
) -> tuple:
    """Maximize the closed-form rate over the equal-focusing family.

    On the family xi_1 = xi_2 = xi_p = xi (all waists rescaled) the
    aggregate focal parameter is xi_agg = 2 k_p xi / (k_1 + k_2 + k_p) and
    A+B+ = 2 (k_1 + k_2 + k_p) / k_p is constant, so the rate is
    K arctan(xi_agg), which never decreases in xi. The maximum over the
    bracket is at its upper end: returns (hi, rate at hi).
    """
    lo, hi = xi_range
    if not (0.0 < lo < hi < math.inf):
        raise DomainError(f"xi_range must satisfy 0 < lo < hi < inf, got {xi_range}")
    beams = equal_focus_beams(base_beams, hi)
    return float(hi), pairs_closed_form(material, beams, constants).pairs_per_s_per_mW
