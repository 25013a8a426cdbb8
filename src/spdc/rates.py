"""Absolute pair-generation rates for Gaussian-beam SPDC.

The closed-form rate per pump photon,

    N = (64 pi^3 hbar c / eps0)
        * ng1 ng2 ngp / (np^3 n1 n2 |ng1 - ng2|)
        * |chi_eff|^2 / (lambda1^2 lambda2^2)
        * arctan(xi) / (A+B+),

holds for linear phase matching (nondegenerate or type-II) with the
quadratic denominator coefficient C ~ 0. ``pairs_via_bruteforce`` evaluates
the underlying frequency-space probability integral by quadrature, with no
delta-function shortcut, and serves as the oracle for the closed form.
In the linear phase model each pump detuning only shifts the phase
mismatch, so the pump axis integrates out exactly and the oracle is one
quadrature over the difference detuning that takes no pump spectrum.
``pairs_degenerate_numeric`` runs the same quadrature for quadratic phase
matching, where the pump axis does not integrate out and stays a
Gauss-Hermite rule over the pump bandwidth. All paths freeze the slowly
varying spectral prefactors at the band centers so they test the same model.

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
from .quadrature import ell_integral, gauss_legendre, panel_nodes

_MILLIWATT = 1e-3
# relative ng_1 == ng_2 threshold below which the linear model is refused
_DEGENERATE_NG_RTOL = 1e-9
# the oracle's one relative error target: the phi window is sized for it, per
# error term, and the refinement estimate must come in under it
_WINDOW_TARGET = 1e-4
# k in the window's pole-lobe reach k xi ln(1 / target), where the
# lobe exp(-|phi| / xi) is target^k and its cross term with the 1/phi tail
# target^(k/2) times 8 / (pi xi Phi); k = 1.5 puts both under the target
_LOBE_WINDOW_FACTOR = 1.5
# cap on the derived phi window half-width, which grows like xi: it bounds the
# dwm grid at absurd xi (from ~1,450), whose phases ell_integral then refuses
_MAX_PHI_HALFWIDTH = 2.0e4
# Gauss-Hermite pump-axis order on the fine pass (the coarse pass takes half)
# and the most the phase spread of a broadband pump may raise it to. They, and
# _pump_rule_order, serve only the degenerate path: the linear oracle
# integrates the pump axis out
_PUMP_ORDER = 8
_MAX_PUMP_ORDER = 256

METHOD_CLOSED_FORM = "closed_form"
METHOD_BRUTE_FORCE = "brute_force"


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate computation.

    ``quadrature_error_estimate`` is a relative estimate for the
    brute-force path, None for the closed form: the refinement difference
    plus the next-order tail term plus the pole lobe beyond the window, all
    left after the analytic 1/phi^2 tail has been added to the window
    integral. For the brute-force path ``diagnostics`` holds the method,
    the phi window Phi and its dwm edge jacobian Phi^(1 / power) (the
    passes run over v = dwm / jacobian), each pass's dwm node count over
    both sides of dwm = 0 and (rows, columns) phi grid under ``passes``
    (in-panel nodes by panels on the linear path, whose pump axis
    integrates out; pump rows by the v >= 0 nodes, with the Gauss-Hermite
    pump order, on the degenerate path), the raw
    ``window_integral`` and the ``tail_correction`` (pairs per pump photon,
    summing to the result) and the three estimate terms; informational only.
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
    """The phi window half-width of the brute-force integrals.

    After the 1/phi^2 tail correction two errors are left, each sized here
    to ``_WINDOW_TARGET`` of the rate. The first is the next-order tail
    term, ~ coeff / Phi^2 with coeff / Phi the tail's share of the rate
    (coeff = 2 xi / (pi (1 + xi^2) arctan(xi))), so Phi >= sqrt(coeff /
    target). The second is the lobe exp(-|phi| / xi) of the pole at
    l = i / xi, which the 1/phi^2 series does not see, so
    Phi >= k xi ln(1 / target). The floor of 50 keeps the window where the
    asymptotic tail series holds; ``_MAX_PHI_HALFWIDTH`` caps it, so the dwm
    grid stays bounded at any xi.
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
    kappa^2. It is even, so the coarse pass takes exactly half. Only the
    degenerate path has a pump rule, so only it is refused past the cap.
    """
    growth = phase_spread * phase_spread
    if not (growth <= 0.5 * (_MAX_PUMP_ORDER - _PUMP_ORDER)):
        raise QuadratureError(
            f"pump phase spread {phase_spread:.4g} rad needs a Gauss-Hermite "
            f"rule of more than {_MAX_PUMP_ORDER} nodes"
        )
    return _PUMP_ORDER + 2 * int(growth)


def _bruteforce_rate(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants,
    gvd_kappa0: Optional[float] = None,
    pump_bandwidth: Optional[float] = None,
) -> RateResult:
    """Integrate |psi|^2 over dwm (linear) or over dwm and the pump band (degenerate).

    The phase mismatch is phi = coeff_p dwp + coeff_m dwm^power in the sum
    (dwp) and difference (dwm) detunings, with power 1 and the coefficients
    of ``phase_mismatch_coefficients`` (linear phase matching), or with
    ``gvd_kappa0`` power 2 and coeff_m = kappa0 Lz / 4 (degenerate). Both
    passes run over v = |coeff_m|^(1 / power) dwm, where that term is
    sign(coeff_m) v^power, so the detuning scale is one factor, the
    Jacobian |coeff_m|^(-1 / power); a zero or non-finite one raises
    ``DomainError``. The phi window is Phi = ``_auto_phi_halfwidth(xi)``.
    Each side of v = 0 has m = max(2, ceil(Phi / (2 pi))) panels of equal
    phase, each at most 2 pi: one period of the fastest oscillation of
    |ell_integral|^2 (its spectrum in phi lies within [-1, 1]), which 8
    Gauss-Legendre nodes resolve. A coarse pass of ceil(m / 2) panels per
    side gives the refinement estimate, which must come in under
    ``_WINDOW_TARGET`` or ``QuadratureError`` is raised. The analytic
    1/phi^2 tail beyond the window is added to the window integral, and the
    error estimate adds the refinement difference, the next-order tail term
    and the pole lobe beyond the window.

    Linear: each pump row only shifts phi and the pump density integrates
    to one, so the pump axis integrates out and takes no bandwidth. With
    panels of half-width hw = Phi / (2 count) and centres hw (2k + 1), one
    ``ell_integral`` call serves both passes: the 16 in-panel phases sign hw
    t_i as ``offsets``, the fine and coarse centre phases as columns; each
    pass sums its own block with weights hw w_i. Degenerate: phi is not
    shift-invariant, so the pump axis is a Gauss-Hermite rule for the
    Gaussian pump density of RMS width ``pump_bandwidth`` (rad/s), of half
    the order on the coarse pass, and each pass is one call with the pump
    rows as ``offsets`` and as columns the phases on the v >= 0 panels
    between v = sqrt(Phi k / count), doubled as phi is even in v.
    """
    params = _positive_params(beams)
    xi, C = params.xi_agg, params.C_quad
    Phi = _auto_phi_halfwidth(xi)  # the phi window half-width
    Lz = beams.crystal_length
    coeff_p, coeff_m = phase_mismatch_coefficients(material.ng_p, material.ng_1,
                                                   material.ng_2, Lz, constants.c)
    power, method, diag = 1, "pump axis integrated out (linear)", {}
    if gvd_kappa0 is not None:
        power, coeff_m = 2, 0.25 * gvd_kappa0 * Lz
        method, diag = "Gauss-Hermite pump", {"gvd_kappa0": gvd_kappa0}
    sign = math.copysign(1.0, coeff_m)
    m = max(2, int(math.ceil(Phi / (2.0 * math.pi))))
    counts = (m, -(-m // 2))  # fine and coarse panels per side

    # numpy's floating-point warnings would only add noise: a coeff_m that
    # underflowed to 0 or overflowed gives a Jacobian refused here, and a
    # non-finite pass a refinement estimate that the check below rejects
    with np.errstate(all="ignore"):
        jacobian = float(np.float64(abs(coeff_m)) ** (-1.0 / power))
        if not (0.0 < jacobian < math.inf):
            raise DomainError(f"difference-detuning coefficient {coeff_m:.4g} of phi has "
                              f"no positive finite detuning scale (got {jacobian:.4g})")
        if power == 1:
            t, w = gauss_legendre(8)
            halves = [Phi / (2 * count) for count in counts]
            centres = np.concatenate([hw * np.arange(1 - 2 * count, 2 * count, 2)
                                      for hw, count in zip(halves, counts)])
            axial = ell_integral(sign * centres, xi, C,
                                 offsets=sign * np.concatenate([hw * t for hw in halves]))
            squared, split = axial * axial, 2 * m
            blocks = (squared[:8, :split], squared[8:, split:])
            sums = [float((hw * w) @ block.sum(axis=1)) for hw, block in zip(halves, blocks)]
            grids = [{"dwm_nodes": block.size, "phi_grid": block.shape} for block in blocks]
        else:
            order = _pump_rule_order(abs(coeff_p) * pump_bandwidth)
            sums, grids = [], []
            for pump_order, count in zip((order, order // 2), counts):
                x, x_w = _pump_rule(pump_order)
                v, v_w = panel_nodes(np.sqrt(Phi * np.arange(count + 1) / count), 8)
                axial = ell_integral(sign * v * v, xi, C,
                                     offsets=coeff_p * pump_bandwidth * x)
                sums.append(float(x_w @ ((axial * axial) @ (2.0 * v_w))))
                grids.append({"pump_rule_order": pump_order, "dwm_nodes": 2 * v_w.size,
                              "phi_grid": axial.shape})
    fine, coarse = sums
    passes = dict(zip(("fine", "coarse"), grids))

    # |ell_integral|^2 ~ 8 / (|1 + i xi - C xi^2|^2 phi^2) beyond the
    # window; its two tails in v = |phi|^(1 / power), against a pump
    # density that integrates to one
    edge_denominator_sq = (1.0 - C * xi * xi) ** 2 + xi * xi
    tail_abs = 16.0 / ((2 * power - 1) * edge_denominator_sq * Phi ** (2.0 - 1.0 / power))
    # on the lobe side of phi the pole at l = i / xi adds
    # P = (2 pi / xi) exp(-|phi| / (2 xi)) to ell_integral; bound |P|^2 and
    # its cross term with the 2 / (|phi| sqrt(1 + xi^2)) endpoint terms
    # beyond the window, then map phi to v
    lobe_abs = (4.0 * math.pi ** 2 * math.exp(-Phi / xi) / xi
                + 32.0 * math.pi * math.exp(-0.5 * Phi / xi) / ((1.0 + xi * xi) * Phi)
                ) / Phi ** (1.0 - 1.0 / power)
    total = fine + tail_abs
    refinement = abs(fine - coarse) / total
    # with g(l) = 1 / (1 + i xi l - C xi^2 l^2), the oscillating
    # -(8 / phi^2) Re(exp(-i phi) g(1) g(-1)*) part of |ell_integral|^2 and,
    # for power 2, its one-signed 1/phi^3 part; 1 + 4 / Phi covers the
    # terms one order further out
    next_order = (2 * power - 1) * (1.0 + 4.0 / Phi) * tail_abs / (Phi * total)
    lobe = lobe_abs / total
    if not (refinement <= _WINDOW_TARGET):
        raise QuadratureError(
            f"brute-force quadrature refinement estimate {refinement:.3e} "
            f"exceeds tolerance {_WINDOW_TARGET:.3e}",
            estimate=refinement,
        )

    # d(w1) d(w2) = d(dwp) d(dwm) / 2, and d(dwm) = jacobian dv
    amplitude = _jsa_prefactor(material, beams, constants) * abs(
        overlap_prefactor(material.chi2_eff, beams.waists(), params.D_norm)
    )
    to_pairs = 0.5 * amplitude * amplitude * jacobian
    n_pairs = to_pairs * total
    omega_p = _angular_frequency(beams.pump.lambda_vac, constants)
    rate = pairs_per_second(n_pairs, _MILLIWATT, omega_p, constants)
    if not math.isfinite(rate):  # also catches a non-finite n_pairs
        raise DomainError(f"brute-force rate {rate:.4g} per s per mW is not finite")
    return RateResult(
        pairs_per_pump_photon=n_pairs,
        pairs_per_s_per_mW=rate,
        xi_agg=xi,
        a_plus_b_plus=params.a_plus_b_plus,
        method=METHOD_BRUTE_FORCE,
        quadrature_error_estimate=refinement + next_order + lobe,
        diagnostics={
            "method": f"{method} x Gauss-Legendre dwm, 1/phi^2 tail added",
            "phi_halfwidth": Phi,
            "delta_omega_minus_halfwidth": jacobian * Phi ** (1.0 / power),
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
    constants: PhysicalConstants = CONSTANTS,
) -> RateResult:
    """Pair probability by quadrature of the frequency-space integral.

    Integrates |psi(w1, w2)|^2 of the joint spectral amplitude over the
    phase-matching band, as one quadrature over the difference detuning,
    with the linear phase-mismatch model and the axial integral evaluated
    pointwise (no delta-function reduction). Each pump detuning only
    shifts phi, and the pump density integrates to one, so the pump axis
    integrates out exactly and the oracle takes no pump spectrum. The
    quadrature runs over v = |phi|, and the detuning scale 1 / |coeff_m|,
    which carries the closed form's 1 / |ng_1 - ng_2|, multiplies its sum
    once. The slowly decaying 1/phi^2 tail of the squared axial integral is
    added analytically beyond the phi window; the window, derived from xi,
    keeps what that leaves out (the next-order tail term and the pole lobe
    at large xi) near 1e-4 of the rate. The quadrature refinement estimate
    must come in under the same 1e-4, or ``QuadratureError`` is raised.
    """
    _require_nondegenerate(material)
    return _bruteforce_rate(material, beams, constants)


def pairs_degenerate_numeric(
    material: MaterialOptics,
    beams: BeamTriple,
    pump_bandwidth: float,
    gvd_kappa0: float,
    constants: PhysicalConstants = CONSTANTS,
) -> RateResult:
    """Pair probability for quadratic (degenerate type-0/I) phase matching.

    Same quadrature as ``pairs_via_bruteforce`` with the difference
    detuning entering the mismatch quadratically,
    phi = a dwp + (kappa0 / 4) dwm^2 Lz; no closed form is claimed for this
    case. ``gvd_kappa0`` is the group-velocity-dispersion coefficient at the
    degenerate point (s^2/m). The quadrature runs over v = sqrt(|kappa0| Lz
    / 4) dwm, so at fixed pump and sign the rate goes as |kappa0|^(-1/2); a
    kappa0 whose coefficient underflows to 0 raises ``DomainError``. The
    phi window is the linear-model one, which is conservative here because
    the tail decays faster in v, and the refinement estimate must come in
    under the same 1e-4. This phi is not shift-invariant in dwp, so the
    pump axis does not integrate out: it is a Gauss-Hermite rule for the
    Gaussian pump density of RMS width ``pump_bandwidth`` (rad/s, centred
    on 2 pi c / ``beams.pump.lambda_vac``), whose order grows with the phase
    spread |a| sigma; past 256 nodes ``QuadratureError`` is raised.
    """
    if not (math.isfinite(gvd_kappa0) and gvd_kappa0 != 0.0):
        raise DomainError(
            f"gvd_kappa0 must be finite and nonzero for the degenerate path, "
            f"got {gvd_kappa0}"
        )
    if not (0.0 < pump_bandwidth < math.inf):
        raise DomainError(
            f"pump bandwidth must be positive and finite, got {pump_bandwidth}"
        )
    return _bruteforce_rate(material, beams, constants, gvd_kappa0, pump_bandwidth)


def _jsa_prefactor(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants,
) -> float:
    """sqrt(2 pi^2 hbar / (eps0 lp0 l10 l20)) * sqrt(ng1 ng2 ngp / (np^2 n1^2 n2^2)).

    The joint spectral amplitude is psi = this * s(w1 + w2 - wp0) * O(w1, w2),
    with s the normalised pump spectrum and O = ``overlap_prefactor`` times
    ``ell_integral(phi)``; |psi|^2 over both frequencies is the pair
    probability per pump photon.
    """
    return math.sqrt(
        2.0 * math.pi ** 2 * constants.hbar
        / (constants.epsilon0 * beams.pump.lambda_vac
           * beams.signal.lambda_vac * beams.idler.lambda_vac)
    ) * math.sqrt(
        material.ng_1 * material.ng_2 * material.ng_p
        / (beams.pump.n ** 2 * beams.signal.n ** 2 * beams.idler.n ** 2)
    )


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
