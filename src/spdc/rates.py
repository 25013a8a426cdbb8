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
the closed form. Both paths freeze the slowly varying spectral prefactors
at the band centers so they test the same model.

Rates are reported per pump photon and per second per milliwatt of pump
power (N * P / (hbar omega_p) with P = 1 mW).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .beams import BeamTriple, GaussianMode
from .errors import DegenerateDispersionError, DomainError, QuadratureError
from .materials import CONSTANTS, MaterialOptics, PhysicalConstants
from .overlap import (
    OverlapParams,
    overlap_params,
    phase_mismatch_coefficients,
    phase_mismatch_phi,
)
from .quadrature import ell_integral, panel_edges, panel_nodes

_MILLIWATT = 1e-3
# relative ng_1 == ng_2 threshold below which the linear model is refused
_DEGENERATE_NG_RTOL = 1e-9

METHOD_CLOSED_FORM = "closed_form"
METHOD_BRUTE_FORCE = "brute_force"


@dataclass(frozen=True)
class PumpSpec:
    """Pump field: power, central wavelength and Gaussian spectral shape.

    ``bandwidth`` is the RMS width (rad/s) of the spectral density |s|^2,
    which integrates to one. CW operation is the narrowband limit: pick a
    bandwidth much smaller than the phase-matching bandwidth.
    """

    power: float
    central_lambda: float
    bandwidth: float

    def __post_init__(self):
        if self.power <= 0.0:
            raise DomainError(f"pump power must be positive, got {self.power}")
        if self.central_lambda <= 0.0:
            raise DomainError(
                f"pump wavelength must be positive, got {self.central_lambda}"
            )
        if self.bandwidth <= 0.0:
            raise DomainError(
                f"pump bandwidth must be positive, got {self.bandwidth}"
            )

    def omega0(self, constants: PhysicalConstants = CONSTANTS) -> float:
        """Central angular frequency (rad/s)."""
        return 2.0 * math.pi * constants.c / self.central_lambda

    def spectral_amplitude(self, omega, constants: PhysicalConstants = CONSTANTS):
        """Normalized amplitude s(omega), units 1/sqrt(rad/s)."""
        sigma = self.bandwidth
        d = np.asarray(omega) - self.omega0(constants)
        return (2.0 * math.pi * sigma * sigma) ** -0.25 * np.exp(
            -(d * d) / (4.0 * sigma * sigma)
        )

    def spectral_density(self, omega, constants: PhysicalConstants = CONSTANTS):
        """|s(omega)|^2, units 1/(rad/s)."""
        sigma = self.bandwidth
        d = np.asarray(omega) - self.omega0(constants)
        return np.exp(-(d * d) / (2.0 * sigma * sigma)) / (
            sigma * math.sqrt(2.0 * math.pi)
        )


@dataclass(frozen=True)
class JsaSample:
    """One joint-spectral-amplitude sample psi(omega1, omega2).

    Units of psi are such that |psi|^2 integrated over both angular
    frequencies is the (dimensionless) pair probability.
    """

    omega1: float
    omega2: float
    psi: complex


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate computation.

    ``quadrature_error_estimate`` is a relative estimate (refinement
    difference plus window-truncation estimate) for the brute-force path,
    None for the closed form. ``diagnostics`` carries window sizes and the
    like; informational only.
    """

    pairs_per_pump_photon: float
    pairs_per_s_per_mW: float
    xi_agg: float
    a_plus_b_plus: float
    method: str
    quadrature_error_estimate: Optional[float] = None
    diagnostics: Mapping = field(default_factory=dict)


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


def pairs_closed_form(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
) -> RateResult:
    """Closed-form pair probability per pump photon and rate per s per mW."""
    _require_nondegenerate(material)

    params = overlap_params(beams)
    xi, ab = params.xi_agg, params.a_plus_b_plus
    if xi <= 0.0 or ab <= 0.0:
        raise DomainError(
            f"aggregate parameters xi={xi:.4g}, A+B+={ab:.4g} must be "
            "positive; configuration outside the validity of the rate formula"
        )

    n_p, n_1, n_2 = beams.pump.n, beams.signal.n, beams.idler.n
    dng = abs(material.ng_1 - material.ng_2)
    index_factor = (
        material.ng_1 * material.ng_2 * material.ng_p
        / (n_p ** 3 * n_1 * n_2 * dng)
    )
    lam_1 = beams.signal.lambda_vac
    lam_2 = beams.idler.lambda_vac
    chi = material.chi2_eff
    n_pairs = (
        64.0 * math.pi ** 3 * constants.hbar * constants.c / constants.epsilon0
        * index_factor
        * (chi * chi) / (lam_1 * lam_1 * lam_2 * lam_2)
        * math.atan(xi) / ab
    )
    omega_p = 2.0 * math.pi * constants.c / beams.pump.lambda_vac
    return RateResult(
        pairs_per_pump_photon=n_pairs,
        pairs_per_s_per_mW=pairs_per_second(n_pairs, _MILLIWATT, omega_p, constants),
        xi_agg=xi,
        a_plus_b_plus=ab,
        method=METHOD_CLOSED_FORM,
    )


def _auto_phi_halfwidth(xi: float, target: float) -> float:
    """Window half-width in phi for a given relative truncation target.

    The squared axial integral decays like 1/phi^2, so the discarded tail of
    its phi integral is ~ 2 xi / (pi (1 + xi^2) arctan(xi) Phi); invert for
    Phi. Verified against direct evaluation to a few percent of itself.
    """
    x = abs(xi)
    if x < 1e-12:
        coeff = 2.0 / math.pi  # limit of the tail coefficient as xi -> 0
    else:
        coeff = 2.0 * x / (math.pi * (1.0 + x * x) * math.atan(x))
    return min(2.0e4, max(50.0, coeff / target))


def _pair_integral_2d(
    pump: PumpSpec,
    phi_fn: Callable,
    xi: float,
    C: float,
    dwp_edges: np.ndarray,
    dwm_edges: np.ndarray,
    order_p: int,
    order_m: int,
    constants: PhysicalConstants,
) -> float:
    """Tensor-panel quadrature of |s(wp)|^2 |I_ell(phi)|^2 over (dwp, dwm)."""
    dwp_nodes, dwp_w = panel_nodes(dwp_edges, order_p)
    dwm_nodes, dwm_w = panel_nodes(dwm_edges, order_m)
    s2 = pump.spectral_density(pump.omega0(constants) + dwp_nodes, constants)
    phis = phi_fn(dwp_nodes[:, None], dwm_nodes[None, :])
    inner = np.abs(ell_integral(phis, xi, C)) ** 2 @ dwm_w
    return float(np.sum(dwp_w * s2 * inner))


def _brute_force_prefactor(
    material: MaterialOptics,
    beams: BeamTriple,
    D: float,
    constants: PhysicalConstants,
) -> float:
    """All frequency-independent coefficients of the probability integral."""
    w_p, w_1, w_2 = beams.waists()
    lam_p = beams.pump.lambda_vac
    lam_1 = beams.signal.lambda_vac
    lam_2 = beams.idler.lambda_vac
    chi = material.chi2_eff
    return (
        4.0 * math.pi * constants.hbar * (chi * chi)
        / (constants.epsilon0 * lam_p * lam_1 * lam_2)
        * material.ng_1 * material.ng_2 * material.ng_p
        / (beams.pump.n ** 2 * beams.signal.n ** 2 * beams.idler.n ** 2)
        * (w_p * w_1 * w_2) ** 2
        * D * D
    )


def _brute_force_common(
    material: MaterialOptics,
    beams: BeamTriple,
    pump: PumpSpec,
    params: OverlapParams,
    constants: PhysicalConstants,
    phi_fn: Callable,
    dwm_edges: np.ndarray,
    dwm_edges_coarse: np.ndarray,
    quad_tol: float,
    pump_halfwidth_sigmas: float,
    tail_abs: float,
    diag: dict,
) -> RateResult:
    xi, C = params.xi_agg, params.C_quad

    w_half = pump_halfwidth_sigmas * pump.bandwidth
    dwp_edges = panel_edges(-w_half, w_half, 1.5 * pump.bandwidth)
    dwp_coarse = panel_edges(-w_half, w_half, 3.0 * pump.bandwidth)

    fine = _pair_integral_2d(
        pump, phi_fn, xi, C, dwp_edges, dwm_edges, 8, 8, constants
    )
    coarse = _pair_integral_2d(
        pump, phi_fn, xi, C, dwp_coarse, dwm_edges_coarse, 8, 8, constants
    )
    if fine <= 0.0:
        quad_est = 0.0
        truncation = 0.0
    else:
        quad_est = abs(fine - coarse) / fine
        # |s|^2 integrates to ~1 over the pump window, so the fine value is
        # directly comparable to the dwm-integral tail estimate
        truncation = tail_abs / fine
    if quad_est > quad_tol:
        raise QuadratureError(
            f"brute-force quadrature refinement estimate {quad_est:.3e} "
            f"exceeds tolerance {quad_tol:.3e}",
            estimate=quad_est,
        )

    n_pairs = 0.5 * _brute_force_prefactor(
        material, beams, params.D_norm, constants
    ) * fine
    omega_p = 2.0 * math.pi * constants.c / beams.pump.lambda_vac
    diag = dict(diag)
    diag["quad_refinement_estimate"] = quad_est
    diag["truncation_estimate"] = truncation
    return RateResult(
        pairs_per_pump_photon=n_pairs,
        pairs_per_s_per_mW=pairs_per_second(n_pairs, _MILLIWATT, omega_p, constants),
        xi_agg=xi,
        a_plus_b_plus=params.a_plus_b_plus,
        method=METHOD_BRUTE_FORCE,
        quadrature_error_estimate=quad_est + truncation,
        diagnostics=diag,
    )


def pairs_via_bruteforce(
    material: MaterialOptics,
    beams: BeamTriple,
    pump: PumpSpec,
    constants: PhysicalConstants = CONSTANTS,
    quad_tol: float = 1e-4,
    *,
    target_truncation: float = 1e-3,
    phi_halfwidth: Optional[float] = None,
    pump_halfwidth_sigmas: float = 6.0,
    qpm_shift: float = 0.0,
) -> RateResult:
    """Pair probability by 2-D quadrature of the frequency-space integral.

    Integrates |s(w1 + w2)|^2 |O(w1, w2)|^2 over the pump band and the
    phase-matching band in the sum/difference detuning coordinates, with the
    linear phase-mismatch model and the axial integral evaluated pointwise
    (no delta-function reduction). The difference-detuning window is sized
    so the analytically estimated truncated tail stays below
    ``target_truncation`` (the squared axial integral has a slowly decaying
    1/phi^2 tail; a fixed small window would silently lose several percent).
    Window overrides: ``phi_halfwidth`` (in phi units). The quadrature
    refinement estimate must come in under ``quad_tol``.
    """
    _require_nondegenerate(material)
    if quad_tol <= 0.0:
        raise DomainError(f"quad_tol must be positive, got {quad_tol}")

    coeff_p, coeff_m = phase_mismatch_coefficients(
        material.ng_p, material.ng_1, material.ng_2,
        beams.crystal_length, constants.c,
    )
    params = overlap_params(beams)
    xi = params.xi_agg
    if phi_halfwidth is None:
        phi_halfwidth = _auto_phi_halfwidth(xi, target_truncation)

    w_minus = phi_halfwidth / abs(coeff_m)
    dphi = math.pi  # panel width in phi units resolving the oscillation
    dwm_edges = panel_edges(-w_minus, w_minus, dphi / abs(coeff_m))
    dwm_coarse = panel_edges(-w_minus, w_minus, 2.0 * dphi / abs(coeff_m))

    def phi_fn(dwp, dwm):
        return coeff_p * dwp + coeff_m * dwm + qpm_shift

    # discarded 1/phi^2 tail of the squared axial integral, in dwm units
    x = abs(xi)
    tail_abs = 16.0 / ((1.0 + x * x) * phi_halfwidth) / abs(coeff_m)

    diag = {
        "phi_halfwidth": phi_halfwidth,
        "delta_omega_minus_halfwidth": w_minus,
        "pump_halfwidth_sigmas": pump_halfwidth_sigmas,
    }
    return _brute_force_common(
        material, beams, pump, params, constants, phi_fn,
        dwm_edges, dwm_coarse, quad_tol, pump_halfwidth_sigmas,
        tail_abs, diag,
    )


def pairs_degenerate_numeric(
    material: MaterialOptics,
    beams: BeamTriple,
    pump: PumpSpec,
    gvd_kappa0: float,
    constants: PhysicalConstants = CONSTANTS,
    quad_tol: float = 1e-4,
    *,
    phi_halfwidth: Optional[float] = None,
    pump_halfwidth_sigmas: float = 6.0,
    qpm_shift: float = 0.0,
) -> RateResult:
    """Pair probability for quadratic (degenerate type-0/I) phase matching.

    Same nested quadrature as ``pairs_via_bruteforce`` with the difference
    detuning entering the mismatch quadratically,
    phi = a dwp + (kappa0 / 4) dwm^2 Lz; no closed form is claimed for this
    case. ``gvd_kappa0`` is the group-velocity-dispersion coefficient at the
    degenerate point (s^2/m).
    """
    if gvd_kappa0 == 0.0:
        raise DomainError("gvd_kappa0 must be nonzero for the degenerate path")
    if quad_tol <= 0.0:
        raise DomainError(f"quad_tol must be positive, got {quad_tol}")

    Lz = beams.crystal_length
    coeff_p, _ = phase_mismatch_coefficients(
        material.ng_p, material.ng_1, material.ng_2, Lz, constants.c
    )
    quad_coeff = 0.25 * abs(gvd_kappa0) * Lz
    sign = 1.0 if gvd_kappa0 > 0 else -1.0

    params = overlap_params(beams)
    xi = params.xi_agg
    if phi_halfwidth is None:
        # quadratic phi decays faster in dwm; the linear-model window is
        # conservative here
        phi_halfwidth = _auto_phi_halfwidth(xi, 1e-3)

    # panel edges where |phi| crosses multiples of pi, denser near the center
    m_count = max(2, int(math.ceil(phi_halfwidth / math.pi)))
    phis = math.pi * np.arange(m_count + 1)
    pos = np.sqrt(phis / quad_coeff)
    dwm_edges = np.concatenate((-pos[::-1], pos[1:]))
    idx = list(range(0, len(pos), 2))
    if idx[-1] != len(pos) - 1:
        idx.append(len(pos) - 1)
    pos_c = pos[idx]
    dwm_coarse = np.concatenate((-pos_c[::-1], pos_c[1:]))
    w_minus = float(pos[-1])

    # discarded tail of F ~ 8/((1+xi^2) phi^2) with phi quadratic in dwm
    x = abs(xi)
    tail_abs = 16.0 / (3.0 * (1.0 + x * x) * quad_coeff ** 2 * w_minus ** 3)

    def phi_fn(dwp, dwm):
        return coeff_p * dwp + sign * quad_coeff * dwm * dwm + qpm_shift

    diag = {
        "phi_halfwidth": phi_halfwidth,
        "delta_omega_minus_halfwidth": w_minus,
        "pump_halfwidth_sigmas": pump_halfwidth_sigmas,
        "gvd_kappa0": gvd_kappa0,
    }
    return _brute_force_common(
        material, beams, pump, params, constants, phi_fn,
        dwm_edges, dwm_coarse, quad_tol, pump_halfwidth_sigmas,
        tail_abs, diag,
    )


@dataclass(frozen=True)
class OverlapEvaluator:
    """Frequency-dependent overlap with band-center-frozen prefactors.

    The geometric coefficients (waists, focal parameters, normalization) are
    evaluated once at the central wavelengths; only the phase mismatch
    varies with (w1, w2), through the linear model. Calls accept arrays.
    """

    material: MaterialOptics
    beams: BeamTriple
    constants: PhysicalConstants
    params: OverlapParams
    qpm_shift: float = 0.0

    def __call__(self, omega1, omega2):
        c = self.constants.c
        w10 = 2.0 * math.pi * c / self.beams.signal.lambda_vac
        w20 = 2.0 * math.pi * c / self.beams.idler.lambda_vac
        d1 = np.asarray(omega1) - w10
        d2 = np.asarray(omega2) - w20
        phi = phase_mismatch_phi(
            d1 + d2, d1 - d2,
            self.material.ng_p, self.material.ng_1, self.material.ng_2,
            self.beams.crystal_length, c, self.qpm_shift,
        )
        axial = ell_integral(phi, self.params.xi_agg, self.params.C_quad)
        w_p, w_1, w_2 = self.beams.waists()
        pref = (
            -1j * self.material.chi2_eff * math.sqrt(2.0 / math.pi)
            * w_p * w_1 * w_2 * self.params.D_norm
        )
        return pref * axial


def make_overlap_evaluator(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
    qpm_shift: float = 0.0,
) -> OverlapEvaluator:
    """Build the O(w1, w2) evaluator used by the joint spectral amplitude."""
    return OverlapEvaluator(
        material=material,
        beams=beams,
        constants=constants,
        params=overlap_params(beams, delta_k=0.0),
        qpm_shift=qpm_shift,
    )


def jsa_value(
    omega1,
    omega2,
    pump: PumpSpec,
    material: MaterialOptics,
    overlap: OverlapEvaluator,
    constants: PhysicalConstants = CONSTANTS,
):
    """Joint spectral amplitude psi(w1, w2).

    psi = sqrt(2 pi^2 hbar N_p / (eps0 lp0 l10 l20))
          * sqrt(ng1 ng2 ngp / (np^2 n1^2 n2^2))
          * s(w1 + w2) * O(w1, w2),

    with central vacuum wavelengths and phase indices in the prefactor and
    N_p = 1: |psi|^2 integrated over both frequencies is the pair
    probability per pump photon. Accepts arrays.
    """
    beams = overlap.beams
    lam_p0 = pump.central_lambda
    lam_10 = beams.signal.lambda_vac
    lam_20 = beams.idler.lambda_vac
    pref = math.sqrt(
        2.0 * math.pi ** 2 * constants.hbar
        / (constants.epsilon0 * lam_p0 * lam_10 * lam_20)
    ) * math.sqrt(
        material.ng_1 * material.ng_2 * material.ng_p
        / (beams.pump.n ** 2 * beams.signal.n ** 2 * beams.idler.n ** 2)
    )
    s = pump.spectral_amplitude(np.asarray(omega1) + np.asarray(omega2), constants)
    return pref * s * overlap(omega1, omega2)


def jsa_sample(
    omega1: float,
    omega2: float,
    pump: PumpSpec,
    material: MaterialOptics,
    overlap: OverlapEvaluator,
    constants: PhysicalConstants = CONSTANTS,
) -> JsaSample:
    """Evaluate the joint spectral amplitude at one frequency pair."""
    psi = jsa_value(omega1, omega2, pump, material, overlap, constants)
    return JsaSample(omega1=float(omega1), omega2=float(omega2), psi=complex(psi))


def bennink_ratio(
    n_p: float, n_1: float, n_2: float,
    ng_p: float, ng_1: float, ng_2: float,
    epsilon_qpm: float = 1.0,
) -> float:
    """Ratio of this rate model to the Bennink (2010) Eq. 40 prediction.

    ratio = (1/epsilon) ng1 ng2 ngp / (n1^2 n2^2 np^2), where epsilon is
    Bennink's efficiency factor (~1 for AR-coated bulk crystals).
    """
    if epsilon_qpm <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon_qpm}")
    return (ng_1 * ng_2 * ng_p) / (n_1 ** 2 * n_2 ** 2 * n_p ** 2) / epsilon_qpm


def tutorial_correction_factor(n_p: float, n_1: float, n_2: float, ng_p: float) -> float:
    """Order-unity factor relating the plane-wave-pump rate to the revised one.

    factor = n1 n2 ngp / np^3; multiplies previously published collimated
    rates to account for the fully continuous pump treatment.
    """
    for name, n in (("n_p", n_p), ("n_1", n_1), ("n_2", n_2), ("ng_p", ng_p)):
        if n < 1.0:
            raise DomainError(f"{name} must be >= 1, got {n}")
    return n_1 * n_2 * ng_p / n_p ** 3


def apply_table_correction(rate_published: float, factor: float) -> float:
    """Apply a correction factor to a published theoretical rate (1/(s mW))."""
    if factor <= 0.0:
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
    omega_p = 2.0 * math.pi * constants.c / beams.pump.lambda_vac
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


def equal_focus_beams(base: BeamTriple, xi: float) -> BeamTriple:
    """Rescale all waists so every focal parameter equals ``xi``."""
    if xi <= 0.0:
        raise DomainError(f"focal parameter must be positive, got {xi}")
    Lz = base.crystal_length

    def remode(mode: GaussianMode) -> GaussianMode:
        w = math.sqrt(Lz / (mode.k * xi))
        return GaussianMode(lambda_vac=mode.lambda_vac, n=mode.n, w0=w, z0=mode.z0)

    return BeamTriple(
        pump=remode(base.pump),
        signal=remode(base.signal),
        idler=remode(base.idler),
        crystal_length=Lz,
    )


def focus_optimize(
    material: MaterialOptics,
    base_beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
    xi_range: tuple = (0.01, 10.0),
) -> tuple:
    """Maximize the closed-form rate over the equal-focusing family.

    Scans the one-parameter family xi_1 = xi_2 = xi_p = xi by rescaling all
    waists. Returns (xi_opt, rate_max) with the bracket converged to 1e-4
    relative. A coarse pre-scan checks unimodality; if it sees multiple
    interior maxima the search falls back to a dense scan and warns.

    Note the closed-form objective saturates with focusing on this family
    (A+B+ is constant along it), so the maximizer typically sits at the
    upper end of ``xi_range``.
    """
    lo, hi = xi_range
    if not (0.0 < lo < hi):
        raise DomainError(f"xi_range must satisfy 0 < lo < hi, got {xi_range}")

    def rate(xi: float) -> float:
        return pairs_closed_form(
            material, equal_focus_beams(base_beams, xi), constants
        ).pairs_per_s_per_mW

    grid = np.geomspace(lo, hi, 33)
    vals = np.array([rate(x) for x in grid])
    interior_maxima = 0
    for i in range(1, len(grid) - 1):
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]:
            interior_maxima += 1
    if interior_maxima > 1:
        warnings.warn(
            "rate objective is not unimodal on the bracket; "
            "falling back to a dense scan",
            stacklevel=2,
        )
        dense = np.geomspace(lo, hi, 1000)
        dvals = np.array([rate(x) for x in dense])
        i = int(np.argmax(dvals))
        return float(dense[i]), float(dvals[i])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c_pt = b - invphi * (b - a)
    d_pt = a + invphi * (b - a)
    fc, fd = rate(c_pt), rate(d_pt)
    while (b - a) > 1e-4 * max(abs(a), abs(b)):
        if fc > fd:
            b, d_pt, fd = d_pt, c_pt, fc
            c_pt = b - invphi * (b - a)
            fc = rate(c_pt)
        else:
            a, c_pt, fc = c_pt, d_pt, fd
            d_pt = a + invphi * (b - a)
            fd = rate(d_pt)
    xi_opt = 0.5 * (a + b)
    return float(xi_opt), float(rate(xi_opt))
