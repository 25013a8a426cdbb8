"""Closed-form rate, brute-force oracle, correction factors, optimizer."""

import math

import numpy as np
import pytest

from spdc import (
    BeamTriple,
    GaussianMode,
    MaterialOptics,
    PumpSpec,
    apply_table_correction,
    bennink_ratio,
    collimated_limit_rates,
    equal_focus_beams,
    focus_optimize,
    jsa_value,
    make_overlap_evaluator,
    pairs_closed_form,
    pairs_degenerate_numeric,
    pairs_per_second,
    pairs_via_bruteforce,
    tutorial_correction_factor,
)
from spdc.errors import DegenerateDispersionError, DomainError
from spdc.materials import CONSTANTS

HBAR, C = CONSTANTS.hbar, CONSTANTS.c


def zero_chi(material):
    import dataclasses
    return dataclasses.replace(material, d_eff=0.0)


class TestPumpSpec:
    def test_normalized_density(self, narrowband_pump):
        x, w = np.polynomial.legendre.leggauss(200)
        half = 12.0 * narrowband_pump.bandwidth
        omega = narrowband_pump.omega0() + half * x
        norm = half * np.sum(w * narrowband_pump.spectral_density(omega))
        assert abs(norm - 1.0) <= 1e-9

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            PumpSpec(power=0.0, central_lambda=775e-9, bandwidth=1e10)
        with pytest.raises(DomainError):
            PumpSpec(power=1e-3, central_lambda=775e-9, bandwidth=-1.0)

    def test_amplitude_squares_to_density(self, narrowband_pump):
        omega = narrowband_pump.omega0() + 3e9
        s = narrowband_pump.spectral_amplitude(omega)
        assert s * s == pytest.approx(narrowband_pump.spectral_density(omega), rel=1e-12)


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


class TestBruteForce:
    def test_matches_closed_form_at_unit_xi(
        self, ppktp_material, ppktp_base_beams, narrowband_pump
    ):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        cf = pairs_closed_form(ppktp_material, beams)
        bf = pairs_via_bruteforce(
            ppktp_material, beams, narrowband_pump, phi_halfwidth=200.0
        )
        rel = abs(bf.pairs_per_pump_photon - cf.pairs_per_pump_photon) / cf.pairs_per_pump_photon
        assert rel < 0.01
        assert bf.method == "brute_force"
        assert bf.quadrature_error_estimate is not None
        assert rel <= 3.0 * bf.quadrature_error_estimate + 1e-3

    def test_zero_nonlinearity(self, ppktp_material, ppktp_base_beams, narrowband_pump):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        res = pairs_via_bruteforce(
            zero_chi(ppktp_material), beams, narrowband_pump, phi_halfwidth=40.0
        )
        assert res.pairs_per_pump_photon == 0.0

    def test_bandwidth_halving_stable(
        self, ppktp_material, ppktp_base_beams
    ):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        wide = PumpSpec(power=1e-3, central_lambda=775e-9, bandwidth=2e10)
        narrow = PumpSpec(power=1e-3, central_lambda=775e-9, bandwidth=1e10)
        a = pairs_via_bruteforce(ppktp_material, beams, wide, phi_halfwidth=120.0)
        b = pairs_via_bruteforce(ppktp_material, beams, narrow, phi_halfwidth=120.0)
        assert abs(a.pairs_per_pump_photon - b.pairs_per_pump_photon) \
            <= 0.005 * a.pairs_per_pump_photon

    def test_qpm_shift_invariance(self, ppktp_material, ppktp_base_beams, narrowband_pump):
        # a constant mismatch offset only relabels which frequencies match
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        a = pairs_via_bruteforce(ppktp_material, beams, narrowband_pump,
                                 phi_halfwidth=150.0)
        b = pairs_via_bruteforce(ppktp_material, beams, narrowband_pump,
                                 phi_halfwidth=150.0, qpm_shift=3.0)
        assert abs(a.pairs_per_pump_photon - b.pairs_per_pump_photon) \
            <= 0.03 * a.pairs_per_pump_photon

    def test_degenerate_dispersion_redirects(
        self, ppktp_material, ppktp_base_beams, narrowband_pump
    ):
        import dataclasses
        degenerate = dataclasses.replace(ppktp_material, ng_2=ppktp_material.ng_1)
        with pytest.raises(DegenerateDispersionError):
            pairs_via_bruteforce(degenerate, ppktp_base_beams, narrowband_pump)


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
    pump = PumpSpec(power=1e-3, central_lambda=lamp, bandwidth=1e10)
    return material, beams, pump


class TestDegenerateNumeric:
    KAPPA0 = 1e-25  # s^2/m, representative normal GVD at degeneracy

    def test_zero_nonlinearity(self):
        material, beams, pump = degenerate_setup(4e-3)
        import dataclasses
        res = pairs_degenerate_numeric(
            dataclasses.replace(material, d_eff=0.0), beams, pump,
            self.KAPPA0, phi_halfwidth=100.0,
        )
        assert res.pairs_per_pump_photon == 0.0

    def test_monotone_in_gvd(self):
        material, beams, pump = degenerate_setup(4e-3)
        rates = []
        for kappa in np.geomspace(1e-26, 1e-24, 5):
            res = pairs_degenerate_numeric(material, beams, pump, kappa,
                                           phi_halfwidth=150.0)
            rates.append(res.pairs_per_pump_photon)
        assert all(a > b for a, b in zip(rates[:-1], rates[1:]))

    def test_length_scaling_three_halves(self):
        lengths = np.array([1e-3, 2e-3, 4e-3, 8e-3])
        rates = []
        for Lz in lengths:
            material, beams, pump = degenerate_setup(Lz)
            res = pairs_degenerate_numeric(material, beams, pump, self.KAPPA0,
                                           phi_halfwidth=150.0)
            rates.append(res.pairs_per_pump_photon)
        slope = np.polyfit(np.log(lengths), np.log(rates), 1)[0]
        assert abs(slope - 1.5) <= 0.15

    def test_zero_kappa_rejected(self):
        material, beams, pump = degenerate_setup(4e-3)
        with pytest.raises(DomainError):
            pairs_degenerate_numeric(material, beams, pump, 0.0)


class TestPhiWindow:
    KAPPA0 = 1e-25

    @pytest.fixture(params=["linear", "degenerate"])
    def oracle(self, request, ppktp_material, ppktp_base_beams, narrowband_pump):
        """phi_halfwidth -> (result, phi at the outermost dwm panel edge)."""
        if request.param == "linear":
            material, pump = ppktp_material, narrowband_pump
            beams = equal_focus_beams(ppktp_base_beams, 1.0)
            coeff_m = abs(material.ng_1 - material.ng_2) / (2 * C) * beams.crystal_length

            def run(phi_halfwidth):
                res = pairs_via_bruteforce(material, beams, pump,
                                           phi_halfwidth=phi_halfwidth)
                return res, coeff_m * res.diagnostics["delta_omega_minus_halfwidth"]
        else:
            material, beams, pump = degenerate_setup(4e-3)
            quad_coeff = 0.25 * self.KAPPA0 * beams.crystal_length

            def run(phi_halfwidth):
                res = pairs_degenerate_numeric(material, beams, pump, self.KAPPA0,
                                               phi_halfwidth=phi_halfwidth)
                w_minus = res.diagnostics["delta_omega_minus_halfwidth"]
                return res, quad_coeff * w_minus ** 2
        return run

    def test_window_edge_maps_to_phi_halfwidth(self, oracle):
        res, phi_edge = oracle(50.0)
        assert res.diagnostics["phi_halfwidth"] == 50.0
        assert phi_edge == pytest.approx(50.0, rel=1e-12)

    def test_widening_recovers_the_estimated_tail(self, oracle):
        # the rate gained by widening the window is the tail it stops dropping
        narrow, _ = oracle(50.0)
        wide, _ = oracle(200.0)
        gain = wide.pairs_per_pump_photon / narrow.pairs_per_pump_photon - 1.0
        drop = (narrow.diagnostics["truncation_estimate"]
                - wide.diagnostics["truncation_estimate"])
        assert drop > 0.0
        assert gain / drop == pytest.approx(1.0, abs=0.02)


class TestJsa:
    def unit_index_setup(self, unit_group=False):
        Lz = 5e-3
        ng_1, ng_2 = (1.0, 1.0) if unit_group else (1.05, 1.1)
        material = MaterialOptics(1.0, ng_1, ng_2, d_eff=2.4e-12)
        beams = BeamTriple(
            GaussianMode(775e-9, 1.0, 200e-6),
            GaussianMode(1550e-9, 1.0, 283e-6),
            GaussianMode(1550e-9, 1.0, 283e-6),
            crystal_length=Lz,
        )
        pump = PumpSpec(power=1e-3, central_lambda=775e-9, bandwidth=1e10)
        return material, beams, pump

    def test_zero_outside_pump_band(self):
        material, beams, pump = self.unit_index_setup()
        ev = make_overlap_evaluator(material, beams)
        w10 = 2 * math.pi * C / 1550e-9
        far = w10 + 1e3 * pump.bandwidth  # spectral amplitude underflows to 0
        assert jsa_value(far, w10, pump, material, ev) == 0.0

    def test_unit_index_prefactor_reduction(self):
        # with all indices and group indices equal to one the index factor
        # drops out of the amplitude entirely
        material, beams, pump = self.unit_index_setup(unit_group=True)
        ev = make_overlap_evaluator(material, beams)
        w10 = 2 * math.pi * C / 1550e-9
        w1, w2 = w10 + 3e9, w10 - 1e9
        psi = jsa_value(w1, w2, pump, material, ev)
        expected = (
            math.sqrt(2 * math.pi**2 * HBAR
                      / (CONSTANTS.epsilon0 * 775e-9 * 1550e-9 * 1550e-9))
            * pump.spectral_amplitude(w1 + w2)
            * ev(w1, w2)
        )
        assert psi == pytest.approx(expected, rel=1e-12)

    def test_evaluator_matches_overlap_simplified_pointwise(
        self, ppktp_material, ppktp_base_beams
    ):
        # the vectorized evaluator inside the rate integrals must agree with
        # the adaptive-quadrature overlap at individual frequency pairs
        import dataclasses
        from spdc import overlap_simplified, phase_mismatch_phi

        beams = equal_focus_beams(ppktp_base_beams, 0.8)
        ev = make_overlap_evaluator(ppktp_material, beams)
        w10 = 2 * math.pi * C / beams.signal.lambda_vac
        w20 = 2 * math.pi * C / beams.idler.lambda_vac
        rng = np.random.default_rng(60)
        for _ in range(8):
            d1, d2 = rng.uniform(-3e13, 3e13, 2)
            got = ev(w10 + d1, w20 + d2)
            phi = phase_mismatch_phi(
                d1 + d2, d1 - d2,
                ppktp_material.ng_p, ppktp_material.ng_1, ppktp_material.ng_2,
                beams.crystal_length, C,
            )
            params = dataclasses.replace(ev.params, phi=float(phi))
            ref = overlap_simplified(
                params, ppktp_material.chi2_eff, *beams.waists(),
                beams.crystal_length, quad_tol=1e-12,
            )
            assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_grid_integral_reproduces_bruteforce(
        self, ppktp_material, ppktp_base_beams, narrowband_pump
    ):
        beams = equal_focus_beams(ppktp_base_beams, 1.0)
        phi_hw = 40.0
        bf = pairs_via_bruteforce(
            ppktp_material, beams, narrowband_pump, phi_halfwidth=phi_hw
        )
        ev = make_overlap_evaluator(ppktp_material, beams)
        sigma = narrowband_pump.bandwidth
        coeff_m = (ppktp_material.ng_1 - ppktp_material.ng_2) / (2 * C) \
            * beams.crystal_length
        w_m = phi_hw / abs(coeff_m)
        dp = np.linspace(-6 * sigma, 6 * sigma, 161)
        dm = np.linspace(-w_m, w_m, 641)
        DP, DM = np.meshgrid(dp, dm, indexing="ij")
        w10 = 2 * math.pi * C / beams.signal.lambda_vac
        w20 = 2 * math.pi * C / beams.idler.lambda_vac
        w1 = w10 + 0.5 * (DP + DM)
        w2 = w20 + 0.5 * (DP - DM)
        psi = jsa_value(w1, w2, narrowband_pump, ppktp_material, ev)
        cell = (dp[1] - dp[0]) * (dm[1] - dm[0]) * 0.5  # Jacobian d(w1,w2)
        total = float(np.sum(np.abs(psi) ** 2) * cell)
        assert total == pytest.approx(bf.pairs_per_pump_photon, rel=0.01)


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

    def test_non_unimodal_falls_back_to_dense_scan(
        self, ppktp_material, ppktp_base_beams, monkeypatch
    ):
        # a synthetic two-hump objective must trip the pre-scan and still
        # return the global maximum
        import spdc.rates as rates_mod

        def fake_rate(material, beams, constants=CONSTANTS):
            xi = beams.xi_p
            val = math.exp(-((math.log10(xi) + 1.0) ** 2) * 30) \
                + 2.0 * math.exp(-((math.log10(xi) - 0.5) ** 2) * 30)
            return rates_mod.RateResult(val, val, xi, 4.0, "closed_form")

        monkeypatch.setattr(rates_mod, "pairs_closed_form", fake_rate)
        with pytest.warns(UserWarning, match="not unimodal"):
            xi_opt, rate_max = rates_mod.focus_optimize(
                ppktp_material, ppktp_base_beams, xi_range=(0.01, 10.0)
            )
        assert xi_opt == pytest.approx(10 ** 0.5, rel=0.01)
        assert rate_max == pytest.approx(2.0, rel=0.01)


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
