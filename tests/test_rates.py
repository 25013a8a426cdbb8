"""Closed-form rate, brute-force oracle, correction factors, optimizer."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spdc.beams import BeamTriple, GaussianMode
from spdc.config import load_config
from spdc.errors import (
    DegenerateConfigurationError,
    DegenerateDispersionError,
    DomainError,
    QuadratureError,
    SpdcError,
)
from spdc.materials import CONSTANTS, MaterialOptics, poling_profile
from spdc.overlap import (
    overlap_params,
    overlap_prefactor,
    overlap_simplified,
    phase_mismatch_coefficients,
)
from spdc.quadrature import ell_integral, panel_nodes
from spdc.rates import (
    _MAX_PHI_HALFWIDTH,
    _atan,
    _auto_phi_halfwidth,
    _jsa_prefactor,
    _pump_rule,
    _pump_rule_order,
    apply_table_correction,
    bennink_ratio,
    closed_form_kernel,
    collimated_limit_rates,
    equal_focus_beams,
    equal_focus_waists,
    focus_optimize,
    pairs_closed_form,
    pairs_degenerate_numeric,
    pairs_per_second,
    pairs_via_bruteforce,
    tutorial_correction_factor,
)
from conftest import CONFIG_DIR

HBAR, C = CONSTANTS.hbar, CONSTANTS.c


def zero_chi(material):
    import dataclasses
    return dataclasses.replace(material, d_eff=0.0)


@pytest.fixture
def phi_window(monkeypatch):
    """``phi_window(w)`` makes w the phi window half-width the oracles derive."""
    return lambda w: monkeypatch.setattr("spdc.rates._auto_phi_halfwidth", lambda xi: w)


class TestPumpRule:
    @pytest.mark.parametrize("order", [8, 26, 256])
    def test_normalized_density(self, order):
        # the degenerate path's pump rows: the unit Gaussian density
        # integrates to one and has unit variance
        x, w = _pump_rule(order)
        assert abs(w.sum() - 1.0) <= 1e-13
        assert abs(w @ (x * x) - 1.0) <= 1e-13


class TestClosedForm:
    def test_zero_nonlinearity(self, ppktp_material, ppktp_base_beams):
        res = pairs_closed_form(zero_chi(ppktp_material), ppktp_base_beams)
        assert res.pairs_per_pump_photon == 0.0
        assert res.pairs_per_s_per_mW == 0.0

    def test_rate_conversion_invariant(self, ppktp_material, ppktp_base_beams):
        res = pairs_closed_form(ppktp_material, ppktp_base_beams)
        omega_p = 2 * math.pi * C / ppktp_base_beams.pump.lambda_vac
        expected = res.pairs_per_pump_photon * 1e-3 / (HBAR * omega_p)
        assert res.pairs_per_s_per_mW == pytest.approx(expected, rel=1e-12)
        assert res.method == "closed_form"
        assert res.quadrature_error_estimate is None

    def test_quadratic_in_d_eff(self, ppktp_material, ppktp_base_beams):
        import dataclasses
        base = pairs_closed_form(ppktp_material, ppktp_base_beams)
        scaled = pairs_closed_form(
            dataclasses.replace(ppktp_material, d_eff=3.0 * ppktp_material.d_eff),
            ppktp_base_beams,
        )
        assert scaled.pairs_per_pump_photon == pytest.approx(
            9.0 * base.pairs_per_pump_photon, rel=1e-13
        )

    def test_linear_in_power(self, ppktp_material, ppktp_base_beams):
        res = pairs_closed_form(ppktp_material, ppktp_base_beams)
        omega_p = 2 * math.pi * C / ppktp_base_beams.pump.lambda_vac
        r1 = pairs_per_second(res.pairs_per_pump_photon, 1e-3, omega_p)
        r5 = pairs_per_second(res.pairs_per_pump_photon, 5e-3, omega_p)
        assert r5 == pytest.approx(5.0 * r1, rel=1e-14)

    def test_signal_idler_relabeling_symmetry(self, ppktp_material, ppktp_base_beams):
        import dataclasses
        swapped_material = dataclasses.replace(
            ppktp_material,
            ng_1=ppktp_material.ng_2, ng_2=ppktp_material.ng_1,
        )
        swapped_beams = BeamTriple(
            pump=ppktp_base_beams.pump,
            signal=ppktp_base_beams.idler,
            idler=ppktp_base_beams.signal,
            crystal_length=ppktp_base_beams.crystal_length,
        )
        a = pairs_closed_form(ppktp_material, ppktp_base_beams)
        b = pairs_closed_form(swapped_material, swapped_beams)
        assert a.pairs_per_pump_photon == pytest.approx(
            b.pairs_per_pump_photon, rel=1e-12
        )

    def test_degenerate_dispersion_redirects(self, ppktp_material, ppktp_base_beams):
        import dataclasses
        degenerate = dataclasses.replace(ppktp_material, ng_2=ppktp_material.ng_1)
        with pytest.raises(DegenerateDispersionError, match="degenerate"):
            pairs_closed_form(degenerate, ppktp_base_beams)


class TestClosedFormKernel:
    def test_array_pass_is_the_per_point_calls(self, ppktp_material, ppktp_base_beams):
        """Each element has the bits of pairs_closed_form, and ok is true exactly where it succeeds."""
        b = ppktp_base_beams
        modes = (b.pump, b.signal, b.idler)
        w = np.concatenate((np.geomspace(1e-170, 1e10, 400), [-3e-5, 0.0, math.inf]))
        with np.errstate(all="ignore"):
            n_pairs, rate, xi, ab, ok = closed_form_kernel(ppktp_material, modes, (w, w, w),
                                                           b.crystal_length)
        for k, wk in enumerate(w.tolist()):
            try:
                beams = BeamTriple(*(GaussianMode(m.lambda_vac, m.n, wk) for m in modes),
                                   crystal_length=b.crystal_length)
                res = pairs_closed_form(ppktp_material, beams)
            except SpdcError:
                assert not ok[k]
                continue
            assert ok[k]
            got = (res.pairs_per_pump_photon, res.pairs_per_s_per_mW, res.xi_agg,
                   res.a_plus_b_plus)
            assert got == (n_pairs[k], rate[k], xi[k], ab[k])
        assert 0 < np.count_nonzero(ok) < w.size

    @pytest.mark.parametrize("waists, Lz, name", [
        ((1e40, 1e40, 1e40), 0.01, "C_quad"),
        ((1e-115, 1e-115, 1e-115), 1e-300, "D_norm"),
        ((1e15, 1e15, 1e15), 1e-300, "xi_agg"),
        # xi_1 = 1e10 and xi_p = xi_2 ~ 1e-175
        ((8e82, 3.8e-10, 1.2e83), 0.01, "a_plus_b_plus"),
    ], ids=["C_quad", "D_norm", "xi_agg", "a_plus_b_plus"])
    def test_each_underflow_names_its_check(self, ppktp_material, ppktp_base_beams,
                                            waists, Lz, name):
        """The kernel's mask is also the scalar call's: the error names the bad parameter."""
        modes = (ppktp_base_beams.pump, ppktp_base_beams.signal, ppktp_base_beams.idler)
        beams = BeamTriple(*(GaussianMode(m.lambda_vac, m.n, w) for m, w in zip(modes, waists)),
                           crystal_length=Lz)
        with pytest.raises(DegenerateConfigurationError, match=rf"not finite: .*\b{name} = "):
            pairs_closed_form(ppktp_material, beams)
        with np.errstate(all="ignore"):
            ok = closed_form_kernel(ppktp_material, modes, np.array([waists]).T, Lz)[4]
        assert not ok[0]

    def test_overflowing_rate_is_not_ok(self, ppktp_material, ppktp_base_beams):
        import dataclasses
        huge = dataclasses.replace(ppktp_material, d_eff=1e160)
        with pytest.raises(DomainError, match="closed-form rate inf per s per mW"):
            pairs_closed_form(huge, ppktp_base_beams)
        b = ppktp_base_beams
        with np.errstate(all="ignore"):
            ok = closed_form_kernel(huge, (b.pump, b.signal, b.idler),
                                    np.array([b.waists()]).T, b.crystal_length)[4]
        assert not ok[0]

    def test_arctan_is_math_atan(self):
        # np.arctan is off by an ulp on some inputs, which would show in printed digits
        x = np.random.default_rng(3).uniform(0.0, 20.0, 100_000)
        assert _atan(x).tolist() == [math.atan(v) for v in x.tolist()]
        assert _atan(0.5) == math.atan(0.5)


class TestBruteForce:
    def test_matches_closed_form_at_unit_xi(self, ppktp_material, ppktp_base_beams):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        cf = pairs_closed_form(ppktp_material, beams)
        bf = pairs_via_bruteforce(ppktp_material, beams)
        rel = abs(bf.pairs_per_pump_photon - cf.pairs_per_pump_photon) / cf.pairs_per_pump_photon
        assert rel < 0.01
        assert bf.method == "brute_force"
        assert bf.quadrature_error_estimate is not None
        assert rel <= 3.0 * bf.quadrature_error_estimate + 1e-3

    def test_zero_nonlinearity(self, ppktp_material, ppktp_base_beams):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        res = pairs_via_bruteforce(zero_chi(ppktp_material), beams)
        assert res.pairs_per_pump_photon == 0.0

    def test_degenerate_dispersion_redirects(self, ppktp_material, ppktp_base_beams):
        import dataclasses
        degenerate = dataclasses.replace(ppktp_material, ng_2=ppktp_material.ng_1)
        with pytest.raises(DegenerateDispersionError):
            pairs_via_bruteforce(degenerate, ppktp_base_beams)

    def test_diagnostics_report_passes_and_error_split(self, ppktp_material, ppktp_base_beams):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        d = pairs_via_bruteforce(ppktp_material, beams).diagnostics
        assert "pump_halfwidth_sigmas" not in d
        assert "pump axis integrated out" in d["method"]
        fine, coarse = d["passes"]["fine"], d["passes"]["coarse"]
        # one table: the 8 in-panel nodes of each pass by its panel centres,
        # m and ceil(m / 2) panels of equal phase on each side
        m = max(2, math.ceil(d["phi_halfwidth"] / (2 * math.pi)))
        for grid, count in zip((fine, coarse), (m, -(-m // 2))):
            assert "pump_rule_order" not in grid
            assert grid["phi_grid"] == (8, 2 * count)
            assert grid["dwm_nodes"] == 8 * 2 * count
        assert coarse["dwm_nodes"] < fine["dwm_nodes"]
        for key in ("refinement_estimate", "next_order_estimate", "lobe_estimate"):
            assert 0.0 <= d[key] < 2e-4
        assert 0.0 < d["tail_correction"] < 0.01 * d["window_integral"]

    def test_broadband_pump_raises_rule_order(self, ppktp_material, ppktp_base_beams,
                                              monkeypatch):
        # on the degenerate path a pump whose bandwidth spreads phi by ~3 rad
        # per sigma needs more Gauss-Hermite nodes, and twice as many move
        # the value by less than its estimate
        import dataclasses
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        m = dataclasses.replace(ppktp_material, ng_2=ppktp_material.ng_1)
        coeff_p, _ = phase_mismatch_coefficients(
            m.ng_p, m.ng_1, m.ng_2, beams.crystal_length, C
        )
        broad = 3.0 / abs(coeff_p)
        res = pairs_degenerate_numeric(m, beams, broad, 1e-25)
        order = res.diagnostics["passes"]["fine"]["pump_rule_order"]
        assert order == _pump_rule_order(abs(coeff_p) * broad)
        assert order > _pump_rule_order(1e-3) == 8
        monkeypatch.setattr("spdc.rates._pump_rule_order", lambda spread: 2 * order)
        ref = pairs_degenerate_numeric(m, beams, broad, 1e-25)
        assert ref.diagnostics["passes"]["fine"]["pump_rule_order"] == 2 * order
        dev = abs(res.pairs_per_pump_photon / ref.pairs_per_pump_photon - 1.0)
        assert dev <= res.quadrature_error_estimate <= 2e-4

    @pytest.mark.parametrize("xi", [0.1, 1.0, 5.0])
    def test_one_row_matches_the_pump_by_dwm_table(self, xi):
        # the 2-D integral the one row replaces: 8 Gauss-Hermite pump rows
        # by the fine dwm nodes, built from ell_integral's offsets, at the
        # shipped bandwidth
        cfg = load_config(CONFIG_DIR / "ppktp_type2.json")
        material = cfg.material_optics()
        beams = equal_focus_beams(cfg.beam_triple(), xi)
        d = pairs_via_bruteforce(material, beams).diagnostics
        coeff_p, coeff_m = phase_mismatch_coefficients(
            material.ng_p, material.ng_1, material.ng_2, beams.crystal_length, C
        )
        params = overlap_params(beams)
        # the fine layout in dwm: 2 m equal panels out to |coeff_m dwm| = Phi
        m = max(2, math.ceil(d["phi_halfwidth"] / (2 * math.pi)))
        edges = np.linspace(-1.0, 1.0, 2 * m + 1) * d["phi_halfwidth"] / abs(coeff_m)
        dwm, dwm_w = panel_nodes(edges, 8)
        x, x_w = _pump_rule(8)
        axial = ell_integral(coeff_m * dwm, params.xi_agg, params.C_quad,
                             offsets=coeff_p * cfg.pump_bandwidth * x)
        amplitude = _jsa_prefactor(material, beams, CONSTANTS) * abs(
            overlap_prefactor(material.chi2_eff, beams.waists(), params.D_norm)
        )
        table = 0.5 * amplitude * amplitude * float(x_w @ ((axial * axial) @ dwm_w))
        assert abs(d["window_integral"] / table - 1.0) <= 1e-10

    def test_pump_phase_spread_past_the_rule_cap_raises(self):
        with pytest.raises(QuadratureError, match="Gauss-Hermite"):
            _pump_rule_order(100.0)
        with pytest.raises(QuadratureError):
            _pump_rule_order(math.nan)


def degenerate_setup(Lz, waist=2e-3):
    lamp, lam = 405e-9, 810e-9
    n, ng = 2.2, 2.3
    material = MaterialOptics(ng, ng, ng, d_eff=4.8e-12)
    beams = BeamTriple(
        GaussianMode(lamp, n, waist),
        GaussianMode(lam, n, waist),
        GaussianMode(lam, n, waist),
        crystal_length=Lz,
    )
    return material, beams, 1e10  # pump bandwidth, rad/s


class TestOverflowingOracleRate:
    """The oracles refuse a rate that overflows, as the closed form does."""

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = load_config(CONFIG_DIR / "ppktp_type2.json")
        return cfg.material_optics(), cfg.beam_triple(), cfg.pump_bandwidth

    @pytest.mark.parametrize("d_eff", [1e150, 1e160])
    def test_non_finite_rate_raises(self, setup, d_eff):
        import dataclasses
        material, beams, bandwidth = setup
        huge = dataclasses.replace(material, d_eff=d_eff)
        with pytest.raises(DomainError, match="brute-force rate inf per s per mW is not finite"):
            pairs_via_bruteforce(huge, beams)
        with pytest.raises(DomainError, match="brute-force rate inf per s per mW is not finite"):
            pairs_degenerate_numeric(huge, beams, bandwidth, 1e-25)

    def test_largest_finite_rate_stays(self, setup):
        import dataclasses
        material, beams, _ = setup
        large = dataclasses.replace(material, d_eff=1e140)
        for result in (pairs_via_bruteforce(large, beams), pairs_closed_form(large, beams)):
            assert result.pairs_per_s_per_mW == pytest.approx(1.4228e308, rel=1e-4)


class TestDegenerateNumeric:
    KAPPA0 = 1e-25  # s^2/m, representative normal GVD at degeneracy

    def test_zero_nonlinearity(self):
        material, beams, bandwidth = degenerate_setup(4e-3)
        import dataclasses
        res = pairs_degenerate_numeric(
            dataclasses.replace(material, d_eff=0.0), beams, bandwidth, self.KAPPA0,
        )
        assert res.pairs_per_pump_photon == 0.0

    def test_monotone_in_gvd(self):
        material, beams, bandwidth = degenerate_setup(4e-3)
        rates = []
        for kappa in np.geomspace(1e-26, 1e-24, 5):
            res = pairs_degenerate_numeric(material, beams, bandwidth, kappa)
            rates.append(res.pairs_per_pump_photon)
        assert all(a > b for a, b in zip(rates[:-1], rates[1:]))

    def test_length_scaling_three_halves(self):
        lengths = np.array([1e-3, 2e-3, 4e-3, 8e-3])
        rates = []
        for Lz in lengths:
            material, beams, bandwidth = degenerate_setup(Lz)
            res = pairs_degenerate_numeric(material, beams, bandwidth, self.KAPPA0)
            rates.append(res.pairs_per_pump_photon)
        slope = np.polyfit(np.log(lengths), np.log(rates), 1)[0]
        assert abs(slope - 1.5) <= 0.15

    def test_zero_kappa_rejected(self):
        material, beams, bandwidth = degenerate_setup(4e-3)
        with pytest.raises(DomainError):
            pairs_degenerate_numeric(material, beams, bandwidth, 0.0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -math.inf, 0.0, -1e10])
    def test_bad_pump_bandwidth_raises_domain_error(self, monkeypatch, bandwidth):
        # refused as bad input before the quadrature builds a pump rule
        material, beams, _ = degenerate_setup(4e-3)
        monkeypatch.setattr("spdc.rates._bruteforce_rate",
                            lambda *args: pytest.fail("reached the quadrature"))
        with pytest.raises(DomainError, match="pump bandwidth must be positive and finite"):
            pairs_degenerate_numeric(material, beams, bandwidth, self.KAPPA0)

    @pytest.mark.parametrize("window", [None, 150.0])
    def test_folded_dwm_axis_matches_the_full_table(self, phi_window, window):
        """phi = sign v^2 is even in v = sqrt|coeff_m| dwm, so summing the
        v >= 0 half of the symmetric panel layout with doubled weights gives
        the sum over the whole table."""
        if window is not None:
            phi_window(window)
        material, beams, bandwidth = degenerate_setup(4e-3)
        res = pairs_degenerate_numeric(material, beams, bandwidth, self.KAPPA0)
        d = res.diagnostics
        fine = d["passes"]["fine"]
        coeff_p, _ = phase_mismatch_coefficients(
            material.ng_p, material.ng_1, material.ng_2, beams.crystal_length, C
        )
        coeff_m = 0.25 * self.KAPPA0 * beams.crystal_length
        params = overlap_params(beams)
        # m panels of equal phase Phi / m on each side: edges +-sqrt(Phi k / m)
        m = max(2, math.ceil(d["phi_halfwidth"] / (2 * math.pi)))
        half = np.sqrt(d["phi_halfwidth"] * np.arange(m + 1) / m)
        v, v_w = panel_nodes(np.concatenate((-half[::-1], half[1:])), 8)
        assert fine["dwm_nodes"] == v.size
        x, x_w = _pump_rule(fine["pump_rule_order"])
        axial = ell_integral(math.copysign(1.0, coeff_m) * v ** 2, params.xi_agg,
                             params.C_quad, offsets=coeff_p * bandwidth * x)
        amplitude = _jsa_prefactor(material, beams, CONSTANTS) * abs(
            overlap_prefactor(material.chi2_eff, beams.waists(), params.D_norm)
        )
        jacobian = abs(coeff_m) ** -0.5  # d(dwm) = jacobian dv
        full = 0.5 * amplitude * amplitude * jacobian * float(
            x_w @ (np.abs(axial) ** 2 @ v_w))
        assert abs(d["window_integral"] / full - 1.0) <= 1e-14


    def test_both_oracles_count_dwm_nodes_alike(self, ppktp_material, ppktp_base_beams,
                                                narrowband_pump):
        # the degenerate path folds its table onto v >= 0 and counts both sides
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        linear = pairs_via_bruteforce(ppktp_material, beams).diagnostics["passes"]
        degenerate = pairs_degenerate_numeric(ppktp_material, beams, narrowband_pump,
                                              self.KAPPA0).diagnostics["passes"]
        for name in ("fine", "coarse"):
            assert degenerate[name]["dwm_nodes"] == linear[name]["dwm_nodes"]


class TestDetuningJacobian:
    """d(dwm) = |coeff_m|^(-1 / power) dv: the detuning scale is one exact factor.

    The passes run over v, where phi = sign v^power, so the scale of dwm
    changes the oracle only through that factor. On the degenerate path
    pairs * sqrt|kappa0| is the same at any kappa0, out to 1e-300 and
    1e300; on the linear path the closed form scales with 1 / |ng_1 - ng_2|
    exactly as the oracle does, so their ratio, one plus the
    ``rate --oracle`` deviation, does not move with ng_2.
    """

    @pytest.mark.parametrize("path, scale", [
        ("degenerate", 1e-300), ("degenerate", 1e300), ("linear", 1e-6), ("linear", 30.0),
    ])
    def test_scale_is_one_factor(self, ppktp_material, ppktp_base_beams, path, scale):
        import dataclasses
        if path == "degenerate":
            material, beams, bandwidth = degenerate_setup(4e-3)

            def invariant(kappa0):
                res = pairs_degenerate_numeric(material, beams, bandwidth, kappa0)
                return res.pairs_per_pump_photon * math.sqrt(abs(kappa0))

            reference = invariant(1e-25)
        else:
            # ng_2 moves to ng_1 + scale (ng_2 - ng_1); the phase indices stay
            beams = equal_focus_beams(ppktp_base_beams, 1.0)
            m = ppktp_material

            def invariant(scale):
                moved = dataclasses.replace(m, ng_2=m.ng_1 + scale * (m.ng_2 - m.ng_1))
                return (pairs_via_bruteforce(moved, beams).pairs_per_s_per_mW
                        / pairs_closed_form(moved, beams).pairs_per_s_per_mW)

            reference = invariant(1.0)
        assert abs(invariant(scale) / reference - 1.0) <= 1e-13


class TestOraclePinned:
    """Oracle values on the shipped PPKTP config, pinned to 1e-12 relative.

    The linear values sit within 1e-4 of the closed form (before the tail
    correction they read 1e-3 low); the degenerate one is within 2e-6 of
    the same quadrature on a phi window of 2000.
    """

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = load_config(CONFIG_DIR / "ppktp_type2.json")
        return cfg.material_optics(), cfg.beam_triple(), cfg.pump_bandwidth

    @pytest.mark.parametrize("xi, expected", [
        (0.1, 10400.834022804098),
        (1.0, 81953.08080740322),
        (5.0, 143308.14540862717),
    ])
    def test_linear(self, setup, xi, expected):
        material, beams, _ = setup
        beams = equal_focus_beams(beams, xi)
        res = pairs_via_bruteforce(material, beams)
        assert res.pairs_per_s_per_mW == pytest.approx(expected, rel=1e-12)
        closed = pairs_closed_form(material, beams).pairs_per_s_per_mW
        assert abs(expected / closed - 1.0) <= 1e-4

    def test_degenerate(self, setup):
        import dataclasses
        material, beams, bandwidth = setup
        res = pairs_degenerate_numeric(
            dataclasses.replace(material, ng_2=material.ng_1),
            equal_focus_beams(beams, 1.0), bandwidth, 1e-25,
        )
        assert res.pairs_per_s_per_mW == pytest.approx(2319354.7095129, rel=1e-12)


class TestOracleSweep:
    """The tail-corrected oracle against the closed form over the validated xi range.

    At xi >= 8 a window that ignores the pole lobe exp(-|phi| / xi) reads
    2.5e-3 to 1.7e-2 low; the default window has to reach past it.
    """

    XIS = sorted(set(np.geomspace(0.05, 12.0, 27).tolist()) | {0.1, 1.0, 5.0, 8.0, 10.0})

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = load_config(CONFIG_DIR / "ppktp_type2.json")
        return cfg.material_optics(), cfg.beam_triple(), cfg.pump_bandwidth

    @pytest.mark.parametrize("xi", XIS, ids=[f"{x:.4g}" for x in XIS])
    def test_linear_within_estimate(self, setup, xi):
        material, beams, _ = setup
        beams = equal_focus_beams(beams, xi)
        res = pairs_via_bruteforce(material, beams)
        closed = pairs_closed_form(material, beams).pairs_per_pump_photon
        dev = abs(res.pairs_per_pump_photon / closed - 1.0)
        assert dev <= res.quadrature_error_estimate <= 2e-4
        assert res.diagnostics["phi_halfwidth"] == _auto_phi_halfwidth(res.xi_agg)
        # the coarse pass, equal dwm panels at either parity of m, stays an
        # honest refinement: over this range it reads ~6e-9 at most
        assert res.diagnostics["refinement_estimate"] <= 1e-7

    def test_memory_stays_bounded(self, setup):
        # a broadband pump (phase spread 8 rad: 134 pump rows) on the
        # degenerate path at xi = 30: the axial table is built in blocks of
        # columns, so the peak stays near the 134 x 528 table and one block
        import dataclasses
        material, beams, _ = setup
        material = dataclasses.replace(material, ng_2=material.ng_1)
        beams = equal_focus_beams(beams, 30.0)
        coeff_p, _ = phase_mismatch_coefficients(material.ng_p, material.ng_1,
                                                 material.ng_2, beams.crystal_length, C)
        bandwidth = 8.0 / abs(coeff_p)
        # build the rules outside the trace
        pairs_degenerate_numeric(material, beams, bandwidth, 1e-25)
        tracemalloc.start()
        try:
            res = pairs_degenerate_numeric(material, beams, bandwidth, 1e-25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["passes"]["fine"]["pump_rule_order"] == 134
        assert peak <= 20e6

    @pytest.mark.parametrize("xi", [0.1, 1.0, 8.0])
    def test_degenerate_within_estimate(self, setup, phi_window, xi):
        import dataclasses
        material, beams, bandwidth = setup
        material = dataclasses.replace(material, ng_2=material.ng_1)
        beams = equal_focus_beams(beams, xi)
        res = pairs_degenerate_numeric(material, beams, bandwidth, 1e-25)
        phi_window(2000.0)
        ref = pairs_degenerate_numeric(material, beams, bandwidth, 1e-25)
        dev = abs(res.pairs_per_pump_photon / ref.pairs_per_pump_photon - 1.0)
        assert dev <= res.quadrature_error_estimate <= 2e-4

    @pytest.mark.parametrize("degenerate", [False, True], ids=["linear", "degenerate"])
    @pytest.mark.parametrize("xi", [300.0, 1e4, 1e8])
    def test_absurd_xi_refused_on_a_capped_window(self, setup, monkeypatch, xi, degenerate):
        # the derived window grows like xi: the cap bounds the dwm grid, and
        # the axial rule refuses the phases before any is integrated
        import dataclasses
        material, beams, bandwidth = setup
        beams = equal_focus_beams(beams, xi)
        windows = []

        def window(xi_agg):
            windows.append(_auto_phi_halfwidth(xi_agg))
            return windows[-1]

        monkeypatch.setattr("spdc.rates._auto_phi_halfwidth", window)
        with pytest.raises(DomainError, match=r"\|phi\| = .*, xi = "):
            if degenerate:
                pairs_degenerate_numeric(dataclasses.replace(material, ng_2=material.ng_1),
                                         beams, bandwidth, 1e-25)
            else:
                pairs_via_bruteforce(material, beams)
        assert len(windows) == 1 and 0.0 < windows[0] <= _MAX_PHI_HALFWIDTH


class TestPhiWindow:
    KAPPA0 = 1e-25

    @pytest.fixture(params=["linear", "degenerate"])
    def oracle(self, request, phi_window, ppktp_material, ppktp_base_beams):
        """phi window half-width -> (result, phi at the outermost dwm panel edge)."""
        if request.param == "linear":
            material = ppktp_material
            beams = equal_focus_beams(ppktp_base_beams, 1.0)
            coeff_m = abs(material.ng_1 - material.ng_2) / (2 * C) * beams.crystal_length

            def run(window):
                phi_window(window)
                res = pairs_via_bruteforce(material, beams)
                return res, coeff_m * res.diagnostics["delta_omega_minus_halfwidth"]
        else:
            material, beams, bandwidth = degenerate_setup(4e-3)
            quad_coeff = 0.25 * self.KAPPA0 * beams.crystal_length

            def run(window):
                phi_window(window)
                res = pairs_degenerate_numeric(material, beams, bandwidth, self.KAPPA0)
                w_minus = res.diagnostics["delta_omega_minus_halfwidth"]
                return res, quad_coeff * w_minus ** 2
        return run

    def test_window_edge_maps_to_phi_halfwidth(self, oracle):
        res, phi_edge = oracle(50.0)
        assert res.diagnostics["phi_halfwidth"] == 50.0
        assert phi_edge == pytest.approx(50.0, rel=1e-12)

    def test_widening_recovers_the_estimated_tail(self, oracle):
        # the raw window integral gained by widening the window is the tail
        # it stops dropping
        narrow, _ = oracle(50.0)
        wide, _ = oracle(200.0)
        raw_narrow = narrow.diagnostics["window_integral"]
        gain = wide.diagnostics["window_integral"] - raw_narrow
        drop = (narrow.diagnostics["tail_correction"]
                - wide.diagnostics["tail_correction"])
        assert drop > 0.0
        assert gain / drop == pytest.approx(1.0, abs=0.02)

    def test_reported_value_independent_of_window(self, oracle):
        # with the tail added, widening the window moves the value by less
        # than the two error estimates together
        narrow, _ = oracle(50.0)
        wide, _ = oracle(200.0)
        dev = abs(narrow.pairs_per_pump_photon / wide.pairs_per_pump_photon - 1.0)
        assert dev <= narrow.quadrature_error_estimate + wide.quadrature_error_estimate

    def test_value_is_window_integral_plus_tail(self, oracle):
        res, _ = oracle(50.0)
        d = res.diagnostics
        assert res.pairs_per_pump_photon == pytest.approx(
            d["window_integral"] + d["tail_correction"], rel=1e-14, abs=0.0
        )
        assert res.quadrature_error_estimate == pytest.approx(
            d["refinement_estimate"] + d["next_order_estimate"] + d["lobe_estimate"],
            rel=1e-14, abs=0.0,
        )


class TestJsa:
    """The joint spectral amplitude psi = prefactor * s * O the oracle integrates,
    built here from ``_jsa_prefactor``, ``overlap_prefactor``, ``ell_integral``
    and a normalised Gaussian pump density."""

    def test_unit_index_prefactor_reduction(self):
        # with all indices and group indices equal to one the index factor
        # drops out of the amplitude entirely
        material = MaterialOptics(1.0, 1.0, 1.0, d_eff=2.4e-12)
        beams = BeamTriple(
            GaussianMode(775e-9, 1.0, 200e-6),
            GaussianMode(1550e-9, 1.0, 283e-6),
            GaussianMode(1550e-9, 1.0, 283e-6),
            crystal_length=5e-3,
        )
        expected = math.sqrt(2 * math.pi**2 * HBAR
                             / (CONSTANTS.epsilon0 * 775e-9 * 1550e-9 * 1550e-9))
        assert _jsa_prefactor(material, beams, CONSTANTS) == pytest.approx(expected, rel=1e-12)

    def test_evaluator_matches_overlap_simplified_pointwise(
        self, ppktp_material, ppktp_base_beams
    ):
        # the vectorized overlap inside the rate integrals must agree with
        # the adaptive-quadrature overlap at individual frequency pairs
        import dataclasses

        beams = equal_focus_beams(ppktp_base_beams, 0.8)
        params = overlap_params(beams)
        pref = overlap_prefactor(ppktp_material.chi2_eff, beams.waists(), params.D_norm)
        coeff_p, coeff_m = phase_mismatch_coefficients(
            ppktp_material.ng_p, ppktp_material.ng_1, ppktp_material.ng_2,
            beams.crystal_length, C,
        )
        rng = np.random.default_rng(60)
        for _ in range(8):
            d1, d2 = rng.uniform(-3e13, 3e13, 2)
            phi = float(coeff_p * (d1 + d2) + coeff_m * (d1 - d2))
            got = pref * ell_integral(phi, params.xi_agg, params.C_quad)
            ref = overlap_simplified(
                dataclasses.replace(params, phi=phi), ppktp_material.chi2_eff,
                *beams.waists(), beams.crystal_length, quad_tol=1e-12,
            )
            assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_grid_integral_reproduces_bruteforce(
        self, phi_window, ppktp_material, ppktp_base_beams
    ):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        phi_hw = 40.0
        phi_window(phi_hw)
        bf = pairs_via_bruteforce(ppktp_material, beams)
        sigma = 1e10  # any width: the pump density integrates to one
        params = overlap_params(beams)
        coeff_p, coeff_m = phase_mismatch_coefficients(
            ppktp_material.ng_p, ppktp_material.ng_1, ppktp_material.ng_2,
            beams.crystal_length, C,
        )
        w_m = phi_hw / abs(coeff_m)
        dp = np.linspace(-6 * sigma, 6 * sigma, 161)
        dm = np.linspace(-w_m, w_m, 641)
        DP, DM = np.meshgrid(dp, dm, indexing="ij")
        s = np.exp(-DP * DP / (4 * sigma * sigma)) / math.sqrt(sigma * math.sqrt(2 * math.pi))
        overlap = overlap_prefactor(ppktp_material.chi2_eff, beams.waists(), params.D_norm) \
            * ell_integral(coeff_p * DP + coeff_m * DM, params.xi_agg, params.C_quad)
        psi = _jsa_prefactor(ppktp_material, beams, CONSTANTS) * s * overlap
        cell = (dp[1] - dp[0]) * (dm[1] - dm[0]) * 0.5  # Jacobian d(w1,w2)
        total = float(np.sum(np.abs(psi) ** 2) * cell)
        # the grid covers the phi window only, so it is the raw window
        # integral, before the tail beyond the window is added
        assert total == pytest.approx(bf.diagnostics["window_integral"], rel=1e-4, abs=0.0)


class TestCorrectionFactors:
    def test_bennink_ratio_identity(self):
        assert bennink_ratio(1, 1, 1, 1, 1, 1) == 1.0

    def test_bennink_ratio_high_index(self):
        got = bennink_ratio(2.2, 2.2, 2.2, 2.2, 2.2, 2.2)
        assert got == pytest.approx(2.2 ** -3, rel=1e-12)
        assert got == pytest.approx(0.0939, abs=2e-4)

    def test_bennink_ratio_efficiency(self):
        base = bennink_ratio(1.8, 1.75, 1.82, 1.85, 1.79, 1.86)
        halved = bennink_ratio(1.8, 1.75, 1.82, 1.85, 1.79, 1.86, epsilon_qpm=0.5)
        assert halved == pytest.approx(2.0 * base, rel=1e-14)

    def test_tutorial_factor_identity(self):
        assert tutorial_correction_factor(1.8, 1.8, 1.8, 1.8) == pytest.approx(1.0, rel=1e-15)

    def test_tutorial_factor_ppktp_consistent_triple(self):
        # an index triple consistent with the published 1.02996(4) factor
        n_p, n_1, n_2 = 1.7581310005150028, 1.7349061194074447, 1.8157731108173114
        ng_p = 1.02996 * n_p**3 / (n_1 * n_2)
        assert 1.0 < ng_p < 2.5
        got = tutorial_correction_factor(n_p, n_1, n_2, ng_p)
        assert got == pytest.approx(1.02996, abs=0.004)

    def test_tutorial_factor_bibo_consistent_triple(self):
        n_p, n_1, n_2 = 1.7737, 1.75, 1.75
        ng_p = 1.09166 * n_p**3 / (n_1 * n_2)
        assert 1.0 < ng_p < 2.5
        got = tutorial_correction_factor(n_p, n_1, n_2, ng_p)
        assert got == pytest.approx(1.09166, abs=0.002)

    def test_apply_table_correction_rows(self):
        assert apply_table_correction(53.87e6, 1.09166) == pytest.approx(
            58.81e6, rel=5e-4
        )
        assert apply_table_correction(23.58e6, 1.02996) == pytest.approx(
            24.29e6, rel=5e-4
        )
        assert apply_table_correction(94.86e6, 1.00648) == pytest.approx(
            95.43e6, rel=2e-3
        )

    def test_apply_table_correction_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            apply_table_correction(1.0, 0.0)


def collimated_beams(n, sigma_p, Lz):
    """775 -> 1550 + 1550 nm beams with w_p = 2 sigma_p and w_1 = w_2 = sqrt(2) w_p."""
    w_p = 2.0 * sigma_p
    return BeamTriple(
        GaussianMode(775e-9, n[0], w_p),
        GaussianMode(1550e-9, n[1], math.sqrt(2.0) * w_p),
        GaussianMode(1550e-9, n[2], math.sqrt(2.0) * w_p),
        crystal_length=Lz,
    )


class TestCollimatedLimit:
    def test_ratio_is_tutorial_factor(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = rng.uniform(1.2, 2.4, 3)
            ng = n + rng.uniform(0.01, 0.2, 3)
            material = MaterialOptics(ng[0], ng[1], ng[2], d_eff=2.4e-12)
            r_sm, r_rev = collimated_limit_rates(
                material, collimated_beams(n, 100e-6, 1e-2)
            )
            factor = tutorial_correction_factor(n[0], n[1], n[2], ng[0])
            assert r_rev / r_sm == pytest.approx(factor, rel=1e-12)

    def test_scaling_laws(self, ppktp_material, ppktp_base_beams):
        n = [m.n for m in (ppktp_base_beams.pump, ppktp_base_beams.signal,
                           ppktp_base_beams.idler)]
        r_sm, r_rev = collimated_limit_rates(
            ppktp_material, collimated_beams(n, 100e-6, 1e-2))
        r_sm2, r_rev2 = collimated_limit_rates(
            ppktp_material, collimated_beams(n, 100e-6, 2e-2))
        assert r_sm2 == pytest.approx(2 * r_sm, rel=1e-14)
        assert r_rev2 == pytest.approx(2 * r_rev, rel=1e-14)
        r_sm3, _ = collimated_limit_rates(
            ppktp_material, collimated_beams(n, 200e-6, 1e-2))
        assert r_sm3 == pytest.approx(r_sm / 4.0, rel=1e-14)

    def test_limit_consistency_with_closed_form(self):
        n = 1.78
        Lz = 1e-2
        material = MaterialOptics(1.81, 1.76, 1.85, d_eff=2.4e-12)
        k_p = 2 * math.pi * n / 775e-9
        sigma_p = math.sqrt(Lz / (4.0 * k_p * 0.005))  # xi_p = 0.005
        beams = collimated_beams((n, n, n), sigma_p, Lz)
        assert beams.xi_p == pytest.approx(0.005, rel=1e-12)
        assert beams.xi_1 == pytest.approx(beams.xi_p, rel=1e-12)
        res = pairs_closed_form(material, beams)
        _, r_rev = collimated_limit_rates(material, beams)
        assert res.pairs_per_s_per_mW == pytest.approx(r_rev, rel=0.02)


class TestFocusOptimize:
    @pytest.mark.parametrize("hi", [math.inf, math.nan])
    def test_bracket_must_be_finite(self, ppktp_material, ppktp_base_beams, hi):
        with pytest.raises(DomainError, match="xi_range"):
            focus_optimize(ppktp_material, ppktp_base_beams, xi_range=(0.1, hi))

    def test_limits_and_boundary_argmax(self, ppktp_material, ppktp_base_beams):
        lo, hi = 0.01, 10.0
        xi_opt, rate_max = focus_optimize(ppktp_material, ppktp_base_beams,
                                          xi_range=(lo, hi))
        # the closed-form objective saturates: argmax at the upper edge
        dense = np.geomspace(lo, hi, 1000)
        rates = [
            pairs_closed_form(
                ppktp_material, equal_focus_beams(ppktp_base_beams, x)
            ).pairs_per_s_per_mW
            for x in dense
        ]
        i = int(np.argmax(rates))
        step = dense[i] / dense[i - 1]
        assert xi_opt <= dense[i] * step and xi_opt >= dense[i] / step
        assert rate_max == pytest.approx(rates[i], rel=1e-3)
        # objective tends to zero for weak focusing
        weak = pairs_closed_form(
            ppktp_material, equal_focus_beams(ppktp_base_beams, 1e-4)
        ).pairs_per_s_per_mW
        assert weak < 2e-4 / math.atan(hi) * rate_max

    def test_monotone_saturation_along_family(self, ppktp_material, ppktp_base_beams):
        xis = np.geomspace(0.01, 10, 40)
        rates = [
            pairs_closed_form(
                ppktp_material, equal_focus_beams(ppktp_base_beams, x)
            ).pairs_per_s_per_mW
            for x in xis
        ]
        assert all(b > a for a, b in zip(rates[:-1], rates[1:]))
        # A+B+ constant along the family
        abs_ = [
            pairs_closed_form(
                ppktp_material, equal_focus_beams(ppktp_base_beams, x)
            ).a_plus_b_plus
            for x in (0.01, 1.0, 10.0)
        ]
        assert max(abs_) - min(abs_) <= 1e-12 * abs_[0]

    def test_bracket_stability(self, ppktp_material, ppktp_base_beams):
        xi_a, _ = focus_optimize(ppktp_material, ppktp_base_beams, xi_range=(5.0, 10.0))
        xi_b, _ = focus_optimize(ppktp_material, ppktp_base_beams, xi_range=(9.0, 10.0))
        assert abs(xi_a - xi_b) <= 1e-3 * xi_a

    def test_invalid_range(self, ppktp_material, ppktp_base_beams):
        with pytest.raises(DomainError):
            focus_optimize(ppktp_material, ppktp_base_beams, xi_range=(2.0, 1.0))
        with pytest.raises(DomainError):
            focus_optimize(ppktp_material, ppktp_base_beams, xi_range=(0.0, 1.0))

    @pytest.mark.parametrize("xi_range", [(0.01, 10.0), (0.5, 2.0), (3.0, 12.0)],
                             ids=["0.01-10", "0.5-2", "3-12"])
    def test_answer_is_the_top_of_the_bracket(
        self, ppktp_material, ppktp_base_beams, xi_range
    ):
        xi_opt, rate_max = focus_optimize(ppktp_material, ppktp_base_beams,
                                          xi_range=xi_range)
        hi = xi_range[1]
        assert xi_opt == hi
        assert rate_max == pairs_closed_form(
            ppktp_material, equal_focus_beams(ppktp_base_beams, hi)
        ).pairs_per_s_per_mW


class TestEqualFocusWaists:
    @pytest.mark.parametrize("xi", [1, 2.5, np.float64(2.5)])
    def test_number_gives_floats(self, ppktp_base_beams, xi):
        waists = equal_focus_waists(ppktp_base_beams, xi)
        assert all(type(w) is float for w in waists)

    def test_array_gives_arrays_equal_to_the_scalar_ones(self, ppktp_base_beams):
        xis = np.array([0.5, 1.0, 2.5])
        waists = equal_focus_waists(ppktp_base_beams, xis)
        assert all(isinstance(w, np.ndarray) and w.shape == xis.shape for w in waists)
        for i, xi in enumerate(xis.tolist()):
            assert tuple(w[i] for w in waists) == equal_focus_waists(ppktp_base_beams, xi)


class TestDimensionalAudit:
    # SI base-dimension exponents as (m, kg, s, A)
    HBAR_D = np.array([2, 1, -1, 0])
    C_D = np.array([1, 0, -1, 0])
    EPS0_D = np.array([-3, -1, 4, 2])
    CHI_D = np.array([-1, -1, 3, 1])  # m/V
    LAMBDA_D = np.array([1, 0, 0, 0])

    def test_closed_form_rate_dimensionless(self):
        total = (
            self.HBAR_D + self.C_D - self.EPS0_D
            + 2 * self.CHI_D - 4 * self.LAMBDA_D
        )
        assert np.all(total == 0)

    def test_rate_per_second_dimensions(self):
        # P / (hbar omega): watts over joules gives 1/s
        watt = np.array([2, 1, -3, 0])
        omega = np.array([0, 0, -1, 0])
        total = watt - (self.HBAR_D + omega)
        assert np.all(total == np.array([0, 0, -1, 0]))


NAN = math.nan


class TestNanInputs:
    @pytest.mark.parametrize("call", [
        lambda: poling_profile(0.0, NAN, 1e-3),
        lambda: poling_profile(0.0, 10e-6, NAN),
        lambda: tutorial_correction_factor(1.8, 1.8, 1.8, NAN),
        lambda: apply_table_correction(1e6, NAN),
        lambda: bennink_ratio(1.8, 1.8, 1.8, 1.8, 1.8, 1.8, epsilon_qpm=NAN),
    ], ids=[
        "poling_profile-period", "poling_profile-length", "tutorial_correction_factor",
        "apply_table_correction", "bennink_ratio",
    ])
    def test_nan_raises_domain_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("kappa0", [NAN, math.inf, -math.inf])
    def test_non_finite_kappa0_raises_domain_error(
        self, ppktp_material, ppktp_base_beams, narrowband_pump, kappa0
    ):
        with pytest.raises(DomainError, match="gvd_kappa0 must be finite and nonzero"):
            pairs_degenerate_numeric(ppktp_material, ppktp_base_beams,
                                     narrowband_pump, kappa0)


def test_negative_aggregate_parameters_raise_on_every_rate_path(narrowband_pump):
    """n_p < n_1 = n_2 with a tight pump focus gives xi_agg = -0.0205 and
    A+B+ = -2400: the closed form and both oracles refuse them alike, before
    the oracle's error terms could overflow."""
    def setup(ng_2):
        material = MaterialOptics(ng_p=1.1, ng_1=1.2, ng_2=ng_2, d_eff=2.4e-12)
        beams = BeamTriple(GaussianMode(775e-9, 1.0, 5e-6), GaussianMode(1550e-9, 3.0, 200e-6),
                           GaussianMode(1550e-9, 3.0, 200e-6), crystal_length=0.01)
        return material, beams

    # the linear paths need distinct signal and idler group indices
    for call in (lambda: pairs_closed_form(*setup(1.25)),
                 lambda: pairs_via_bruteforce(*setup(1.25)),
                 lambda: pairs_degenerate_numeric(*setup(1.2), narrowband_pump, 1e-25)):
        with pytest.raises(DomainError, match=r"xi=-0\.02051, A\+B\+=-2400 must be positive"):
            call()
