"""Dispersion models, wavenumbers and the poling profile."""

import math
import zlib

import numpy as np
import pytest

from spdc.beams import GaussianMode
from spdc.errors import ConfigError, DomainError, WavelengthRangeError
from spdc.materials import (
    CONSTANTS,
    DispersionModel,
    MaterialOptics,
    _range_grid,
    builtin_material_names,
    domain_walls,
    group_index,
    load_builtin_material,
    load_dispersion_model,
    poling_profile,
    refractive_index,
)

VACUUM = DispersionModel("vacuum", "", "constant", (1.0,), (1e-8, 1e-3))

BUILTINS = ("vacuum", "ktp_y", "ktp_z", "ppln_mgo_e")


def models_under_test():
    return [load_builtin_material(name) for name in BUILTINS]


class TestRefractiveIndex:
    def test_vacuum_identity(self):
        assert refractive_index(VACUUM, 810e-9) == 1.0

    def test_ktp_y_group_index_near_table_value(self):
        # pump-wavelength group index consistent with the published 1.811(2)
        model = load_builtin_material("ktp_y")
        assert abs(group_index(model, 775e-9) - 1.811) <= 0.002

    def test_local_smoothness(self):
        model = load_builtin_material("ktp_z")
        rng = np.random.default_rng(11)
        for lam in rng.uniform(0.6e-6, 3.0e-6, 25):
            delta = lam * 1e-5
            n0 = refractive_index(model, lam)
            n1 = refractive_index(model, lam + delta)
            # local Lipschitz bound from the analytic slope, with headroom
            slope = abs(n0 - group_index(model, lam)) / lam
            assert abs(n1 - n0) <= 2.0 * (slope + 1e-3 / lam * 1e-6) * delta + 1e-12

    def test_out_of_range_names_bound(self):
        model = load_builtin_material("ktp_y")
        with pytest.raises(WavelengthRangeError, match="below lambda_min"):
            refractive_index(model, 100e-9)
        with pytest.raises(WavelengthRangeError, match="above lambda_max"):
            refractive_index(model, 10e-6)

    def test_deterministic(self):
        model = load_builtin_material("ppln_mgo_e")
        a = refractive_index(model, 812.3e-9)
        b = refractive_index(model, 812.3e-9)
        assert a == b  # bit identical


class TestGroupIndex:
    def test_constant_model(self):
        assert group_index(VACUUM, 810e-9) == 1.0

    @pytest.mark.parametrize("name", BUILTINS)
    def test_matches_finite_difference(self, name):
        model = load_builtin_material(name)
        lo, hi = model.valid_range
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        lams = rng.uniform(lo * 1.05, hi * 0.95, 100)
        for lam in lams:
            h = lam * 1e-6
            fd = refractive_index(model, lam) - lam * (
                refractive_index(model, lam + h) - refractive_index(model, lam - h)
            ) / (2.0 * h)
            ng = group_index(model, lam)
            assert abs(ng - fd) <= 1e-8 * abs(ng)

    def test_ppln_table_value(self):
        # shipped PPLN-like model reproduces the published pump group index
        model = load_builtin_material("ppln_mgo_e")
        assert abs(group_index(model, 775e-9) - 2.292) <= 0.001

    def test_boundary_rejected(self):
        model = load_builtin_material("ktp_y")
        lo, hi = model.valid_range
        with pytest.raises(WavelengthRangeError):
            group_index(model, lo)
        with pytest.raises(WavelengthRangeError):
            group_index(model, hi)


# L = lambda_um^2 at 1.55 um, the pole of each model below
POLE_L = (1.55e-6 / 1e-6) * (1.55e-6 / 1e-6)


@pytest.mark.parametrize("model", [
    DispersionModel("s", "", "sellmeier", (3.0, 1e-12, POLE_L), (1e-6, 2.1e-6)),
    DispersionModel("p", "", "pole", (3.0, 1e-12, POLE_L, 0.0, 0.0, 0.0), (1e-6, 2.1e-6)),
], ids=lambda model: model.form)
@pytest.mark.parametrize("index", [refractive_index, group_index],
                         ids=lambda index: index.__name__)
def test_pole_at_the_wavelength_raises_domain_error(index, model):
    with pytest.raises(DomainError, match=f"1.5500e-06 m lies on a pole of the {model.form} model"):
        index(model, 1.55e-6)


class TestSellmeierForm:
    """The ``sellmeier`` form, on Schott's N-BK7 fit (wavelength squared in um^2)."""

    B = (1.03961212, 0.231792344, 1.01046945)
    C = (6.00069867e-3, 2.00179144e-2, 103.560653)
    BK7 = DispersionModel("N-BK7", "", "sellmeier",
                          (1.0, B[0], C[0], B[1], C[1], B[2], C[2]), (0.3e-6, 2.5e-6))

    def test_index_is_the_formula(self):
        for lam in np.random.default_rng(41).uniform(0.31e-6, 2.49e-6, 100):
            L = (lam * 1e6) ** 2
            n2 = 1.0 + sum(b * L / (L - c) for b, c in zip(self.B, self.C))
            assert refractive_index(self.BK7, lam) == pytest.approx(math.sqrt(n2), rel=1e-15)
        # catalogue n_d at the helium d line
        assert refractive_index(self.BK7, 587.56e-9) == pytest.approx(1.5168, abs=1e-4)

    def test_group_index_matches_finite_difference(self):
        for lam in np.random.default_rng(42).uniform(0.32e-6, 2.4e-6, 100):
            h = lam * 1e-6
            fd = refractive_index(self.BK7, lam) - lam * (
                refractive_index(self.BK7, lam + h) - refractive_index(self.BK7, lam - h)
            ) / (2.0 * h)
            assert abs(group_index(self.BK7, lam) - fd) <= 1e-8 * fd

    def test_even_coefficient_count_rejected(self):
        with pytest.raises(ConfigError, match="odd coefficient count"):
            DispersionModel("N-BK7", "", "sellmeier", self.BK7.coefficients[:-1],
                            self.BK7.valid_range)


class TestWavenumber:
    """The in-medium wavevector k = 2 pi n / lambda, held by ``GaussianMode.k``."""

    def test_unit_values(self):
        assert GaussianMode(2.0 * math.pi, 1.0, 1.0).k == pytest.approx(1.0, rel=1e-15)
        assert GaussianMode(1e-6, 2.0, 30e-6).k == pytest.approx(4.0 * math.pi * 1e6,
                                                                 rel=1e-15)

    def test_consistent_with_omega_over_c(self):
        model = load_builtin_material("ktp_y")
        lam = 810e-9
        n = refractive_index(model, lam)
        omega = 2.0 * math.pi * CONSTANTS.c / lam
        k = GaussianMode(lam, n, 30e-6).k
        assert k == pytest.approx(omega / CONSTANTS.c * n, rel=1e-12)

    def test_nonpositive_wavelength(self):
        with pytest.raises(DomainError):
            GaussianMode(0.0, 1.5, 30e-6)


class TestPolingProfile:
    def test_unpoled_center(self):
        assert poling_profile(0.0, None, 1e-3) == 1.0

    def test_outside_medium(self):
        assert poling_profile(0.6e-3, None, 1e-3) == 0.0
        assert poling_profile(-0.6e-3, 10e-6, 1e-3) == 0.0

    def test_first_domain_positive(self):
        Lz, period = 1e-3, 10e-6
        assert poling_profile(-Lz / 2 + 1e-9, period, Lz) == 1.0

    def test_values_and_domain_count(self):
        Lz, period = 200e-6, 20e-6  # commensurate: 20 half-period domains
        z = np.linspace(-Lz / 2 + 1e-12, Lz / 2 - 1e-12, 40001)
        prof = poling_profile(z, period, Lz)
        assert set(np.unique(prof)) <= {-1.0, 1.0}
        flips = int(np.sum(prof[1:] != prof[:-1]))
        assert flips + 1 == int(round(Lz / (period / 2)))

    def test_nonpositive_period(self):
        with pytest.raises(DomainError):
            poling_profile(0.0, -1e-6, 1e-3)

    def test_qpm_first_order_peak(self):
        # profile integrated against exp(-i dk z) peaks at dk = 2 pi / period
        Lz, period = 2e-3, 10e-6
        z = np.linspace(-Lz / 2, Lz / 2, 400001)
        prof = poling_profile(z, period, Lz)
        dk0 = 2.0 * math.pi / period
        dks = np.linspace(0.2 * dk0, 2.0 * dk0, 181)
        step = dks[1] - dks[0]
        # prof exp(-i dk z) for each dk in turn: one multiply per step
        # instead of one full-grid exponential
        weighted = prof * np.exp(-1j * dks[0] * z)
        turn = np.exp(-1j * step * z)
        mags = []
        for _ in dks:
            mags.append(abs(np.trapezoid(weighted, z)))
            weighted *= turn
        peak = dks[int(np.argmax(mags))]
        assert abs(peak - dk0) <= step

    def test_domain_walls_inside(self):
        walls = domain_walls(10e-6, 1e-3)
        assert np.all(np.abs(walls) < 0.5e-3)
        assert np.all(np.diff(walls) > 0)


class TestPhysicalConstants:
    def test_codata_values_frozen(self):
        assert CONSTANTS.c == 299792458.0
        assert CONSTANTS.hbar == pytest.approx(1.054571817e-34, rel=1e-9)
        assert CONSTANTS.epsilon0 == pytest.approx(8.8541878128e-12, rel=1e-10)
        with pytest.raises(Exception):
            CONSTANTS.c = 1.0  # immutable


class TestMaterialOptics:
    def test_chi2_definition(self):
        m = MaterialOptics(1.6, 1.6, 1.7, d_eff=3e-12)
        assert m.chi2_eff == 2.0 * m.d_eff

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            MaterialOptics(0.9, 1.6, 1.7, 3e-12)
        with pytest.raises(DomainError):
            MaterialOptics(1.6, 1.6, 1.7, -3e-12)
        with pytest.raises(DomainError):
            MaterialOptics(1.6, 1.6, 1.7, 3e-12, poling_period=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["ng_p", "ng_1", "ng_2", "d_eff", "poling_period"])
    def test_non_finite_field_named(self, field, value):
        kwargs = {"ng_p": 1.6, "ng_1": 1.6, "ng_2": 1.7, "d_eff": 3e-12, field: value}
        with pytest.raises(DomainError, match=field.replace("_period", " period")):
            MaterialOptics(**kwargs)

    def test_zero_d_eff_allowed(self):
        m = MaterialOptics(1.6, 1.6, 1.7, 0.0)
        assert m.chi2_eff == 0.0


class TestLoader:
    def test_unknown_form_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "x", "axis": "", "form": "cauchy", '
            '"coefficients": [1.5], "valid_range_m": [1e-7, 1e-5]}'
        )
        with pytest.raises(ConfigError, match="cauchy"):
            load_dispersion_model(bad)

    def test_unphysical_range_rejected(self, tmp_path):
        # declared range crosses the IR pole where n^2 drops below 1
        import json

        doc = {
            "name": "bad", "axis": "", "form": "pole",
            "coefficients": [4.59423, 0.06206, 0.04763, 110.80672, 86.12171, 0.0],
            "valid_range_m": [4.3e-07, 9.4e-06],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="n\\^2"):
            load_dispersion_model(bad)

    def test_range_grid_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(3)
        ranges = [model.valid_range for model in models_under_test()]
        ranges += [tuple(sorted(pair)) for pair in rng.uniform(1e-8, 1e-4, (50, 2))]
        ranges += [(1e-7, 1e-7 * (1 + 2 ** -40)), (5e-324, 1e300)]
        for lo, hi in ranges:
            assert _range_grid(lo, hi) == np.linspace(lo, hi, 64).tolist()

    def test_pole_on_a_grid_wavelength_rejected(self, tmp_path):
        # a Sellmeier pole exactly at the first grid wavelength: n^2 has a
        # zero divisor there, which must read as unphysical, not raise
        import json

        lo = 4e-7
        lam_um = lo / 1e-6
        doc = {
            "name": "pole", "axis": "", "form": "sellmeier",
            "coefficients": [2.0, 1.0, lam_um * lam_um],
            "valid_range_m": [lo, 2e-6],
        }
        bad = tmp_path / "pole.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="n\\^2 = nan"):
            load_dispersion_model(bad)

    def test_builtins_enumerate_and_load(self):
        names = builtin_material_names()
        for name in BUILTINS:
            assert name in names
        for model in models_under_test():
            lo, hi = model.valid_range
            assert refractive_index(model, 0.5 * (lo + hi)) >= 1.0

    def test_builtin_model_is_read_once(self):
        assert load_builtin_material("ktp_y") is load_builtin_material("ktp_y")

    def test_unknown_builtin_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ConfigError, match="unknown builtin material"):
                load_builtin_material("no_such_crystal")
