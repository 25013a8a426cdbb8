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
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .beams import BeamTriple, GaussianMode
from .errors import DegenerateDispersionError, DomainError, QuadratureError
from .materials import CONSTANTS, MaterialOptics, PhysicalConstants
from .overlap import (
    OverlapParams,
    overlap_params,
    overlap_prefactor,
    phase_mismatch_coefficients,
    phase_mismatch_phi,
)
from .quadrature import ell_integral, panel_edges, panel_nodes

_MILLIWATT = 1e-3
# relative ng_1 == ng_2 threshold below which the linear model is refused
_DEGENERATE_NG_RTOL = 1e-9
# brute-force pump window half-width in units of the pump bandwidth sigma
_PUMP_HALFWIDTH_SIGMAS = 6.0

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


def _dwm_panel_edges(coeff_m: float, power: int, phi_halfwidth: float):
    """Fine and coarse difference-detuning panel edges over the phi window.

    Each side gets m = max(2, ceil(Phi / pi)) panels whose edges sit where
    |coeff_m| |dwm|^power = Phi k / m, so every panel spans at most pi of
    phase and the outermost edge maps to exactly ``phi_halfwidth``. The
    coarse layout drops every other edge and keeps the last one.
    """
    m = max(2, int(math.ceil(phi_halfwidth / math.pi)))
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
    coeff_p: float,
    coeff_m: float,
    power: int,
    phi_halfwidth: Optional[float],
    qpm_shift: float,
    diag: dict,
) -> RateResult:
    """Integrate |psi|^2 of the joint spectral amplitude over both detunings.

    The phase mismatch is phi = coeff_p dwp + coeff_m dwm^power + qpm_shift
    in the sum (dwp) and difference (dwm) detunings: power 1 is linear
    phase matching, power 2 the degenerate quadratic one. Tensor
    Gauss-Legendre panels cover +-6 pump sigmas and the phi window; a pass
    on a layout with half as many panels per axis gives the refinement
    estimate, and the analytic 1/phi^2 tail beyond the window the
    truncation estimate.
    """
    if not (quad_tol > 0.0):
        raise DomainError(f"quad_tol must be positive, got {quad_tol}")
    params = overlap_params(beams)
    xi = params.xi_agg
    if phi_halfwidth is None:
        phi_halfwidth = _auto_phi_halfwidth(xi, 1e-3)

    sigma = pump.bandwidth
    w_pump = _PUMP_HALFWIDTH_SIGMAS * sigma
    dwm_fine, dwm_coarse = _dwm_panel_edges(coeff_m, power, phi_halfwidth)

    def window_integral(dwp_edges, dwm_edges):
        dwp, dwp_w = panel_nodes(dwp_edges, 8)
        dwm, dwm_w = panel_nodes(dwm_edges, 8)
        s2 = pump.spectral_density(pump.omega0(constants) + dwp, constants)
        phi = coeff_p * dwp[:, None] + coeff_m * dwm[None, :] ** power + qpm_shift
        inner = np.abs(ell_integral(phi, xi, params.C_quad)) ** 2 @ dwm_w
        return float(np.sum(dwp_w * s2 * inner))

    # a non-finite pass makes quad_est NaN or inf, which the check below
    # rejects, so numpy's floating-point warnings would only add noise
    with np.errstate(all="ignore"):
        fine = window_integral(panel_edges(-w_pump, w_pump, 1.5 * sigma), dwm_fine)
        coarse = window_integral(panel_edges(-w_pump, w_pump, 3.0 * sigma), dwm_coarse)

    # |ell_integral|^2 ~ 8 / ((1 + xi^2) phi^2) beyond the window; its two
    # tails in dwm, against a pump density that integrates to ~1
    w_minus = float(dwm_fine[-1])
    tail_abs = 16.0 / (
        (2 * power - 1) * (1.0 + xi * xi) * coeff_m ** 2 * w_minus ** (2 * power - 1)
    )
    if fine <= 0.0:
        quad_est = truncation = 0.0
    else:
        quad_est = abs(fine - coarse) / fine
        truncation = tail_abs / fine
    if not (quad_est <= quad_tol):
        raise QuadratureError(
            f"brute-force quadrature refinement estimate {quad_est:.3e} "
            f"exceeds tolerance {quad_tol:.3e}",
            estimate=quad_est,
        )

    # d(w1) d(w2) = d(dwp) d(dwm) / 2
    amplitude = _jsa_prefactor(pump, material, beams, constants) * abs(
        overlap_prefactor(material.chi2_eff, beams.waists(), params.D_norm)
    )
    n_pairs = 0.5 * amplitude * amplitude * fine
    omega_p = 2.0 * math.pi * constants.c / beams.pump.lambda_vac
    return RateResult(
        pairs_per_pump_photon=n_pairs,
        pairs_per_s_per_mW=pairs_per_second(n_pairs, _MILLIWATT, omega_p, constants),
        xi_agg=xi,
        a_plus_b_plus=params.a_plus_b_plus,
        method=METHOD_BRUTE_FORCE,
        quadrature_error_estimate=quad_est + truncation,
        diagnostics={
            "phi_halfwidth": phi_halfwidth,
            "delta_omega_minus_halfwidth": w_minus,
            "pump_halfwidth_sigmas": _PUMP_HALFWIDTH_SIGMAS,
            **diag,
            "quad_refinement_estimate": quad_est,
            "truncation_estimate": truncation,
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
    qpm_shift: float = 0.0,
) -> RateResult:
    """Pair probability by 2-D quadrature of the frequency-space integral.

    Integrates |psi(w1, w2)|^2 of the joint spectral amplitude over the pump
    band and the phase-matching band in the sum/difference detuning
    coordinates, with the linear phase-mismatch model and the axial integral
    evaluated pointwise (no delta-function reduction). The phi window
    defaults to the half-width whose analytically estimated truncated tail
    is 0.1% of the rate (the squared axial integral has a slowly decaying
    1/phi^2 tail; a fixed small window would silently lose several
    percent); ``phi_halfwidth`` overrides it. The quadrature refinement
    estimate must come in under ``quad_tol``.
    """
    _require_nondegenerate(material)
    coeff_p, coeff_m = phase_mismatch_coefficients(
        material.ng_p, material.ng_1, material.ng_2,
        beams.crystal_length, constants.c,
    )
    return _bruteforce_rate(
        material, beams, pump, constants, quad_tol,
        coeff_p, coeff_m, 1, phi_halfwidth, qpm_shift, {},
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
    qpm_shift: float = 0.0,
) -> RateResult:
    """Pair probability for quadratic (degenerate type-0/I) phase matching.

    Same quadrature as ``pairs_via_bruteforce`` with the difference
    detuning entering the mismatch quadratically,
    phi = a dwp + (kappa0 / 4) dwm^2 Lz; no closed form is claimed for this
    case. ``gvd_kappa0`` is the group-velocity-dispersion coefficient at the
    degenerate point (s^2/m). The default phi window is the linear-model
    one, which is conservative here because the tail decays faster in dwm.
    """
    if gvd_kappa0 == 0.0:
        raise DomainError("gvd_kappa0 must be nonzero for the degenerate path")
    Lz = beams.crystal_length
    coeff_p, _ = phase_mismatch_coefficients(
        material.ng_p, material.ng_1, material.ng_2, Lz, constants.c
    )
    return _bruteforce_rate(
        material, beams, pump, constants, quad_tol,
        coeff_p, 0.25 * gvd_kappa0 * Lz, 2, phi_halfwidth, qpm_shift,
        {"gvd_kappa0": gvd_kappa0},
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

    def __call__(self, omega1, omega2):
        c = self.constants.c
        w10 = 2.0 * math.pi * c / self.beams.signal.lambda_vac
        w20 = 2.0 * math.pi * c / self.beams.idler.lambda_vac
        d1 = np.asarray(omega1) - w10
        d2 = np.asarray(omega2) - w20
        phi = phase_mismatch_phi(
            d1 + d2, d1 - d2,
            self.material.ng_p, self.material.ng_1, self.material.ng_2,
            self.beams.crystal_length, c,
        )
        axial = ell_integral(phi, self.params.xi_agg, self.params.C_quad)
        pref = overlap_prefactor(
            self.material.chi2_eff, self.beams.waists(), self.params.D_norm
        )
        return pref * axial


def make_overlap_evaluator(
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants = CONSTANTS,
) -> OverlapEvaluator:
    """Build the O(w1, w2) evaluator used by the joint spectral amplitude."""
    return OverlapEvaluator(
        material=material,
        beams=beams,
        constants=constants,
        params=overlap_params(beams, delta_k=0.0),
    )


def _jsa_prefactor(
    pump: PumpSpec,
    material: MaterialOptics,
    beams: BeamTriple,
    constants: PhysicalConstants,
) -> float:
    """Frequency-independent factor of psi in front of s(w1 + w2) O(w1, w2)."""
    return math.sqrt(
        2.0 * math.pi ** 2 * constants.hbar
        / (constants.epsilon0 * pump.central_lambda
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
    pref = _jsa_prefactor(pump, material, overlap.beams, constants)
    s = pump.spectral_amplitude(np.asarray(omega1) + np.asarray(omega2), constants)
    return pref * s * overlap(omega1, omega2)


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
