"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and runtime budget is pinned here; nothing is left
to later calibration.
"""

import json
import math
import time
import zlib

import numpy as np
import pytest
from scipy.integrate import quad

from spdc.beams import BeamTriple, GaussianMode
from spdc.config import load_table_fixture
from spdc.materials import MaterialOptics, group_index, load_builtin_material, refractive_index
from spdc.overlap import (
    aggregate_parameters,
    overlap_direct,
    overlap_params,
    overlap_simplified,
)
from spdc.rates import (
    bennink_ratio,
    collimated_limit_rates,
    equal_focus_beams,
    pairs_closed_form,
    pairs_via_bruteforce,
    tutorial_correction_factor,
)
from spdc.cli import cmd_table
from conftest import CONFIG_DIR

from test_beams import disc_norm


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {n:>2} {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    rows = load_table_fixture(CONFIG_DIR / "table1.cfg")
    worst = 0.0
    for row in rows:
        got = row["rate_published"] * row["correction_factor"]
        rel = abs(got - row["rate_revised"]) / row["rate_revised"]
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 0.002 and elapsed < 1.0,
        f"published-rate rows reproduce within 0.2% (worst {worst:.2e}), "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_closed_form_vs_bruteforce(ppktp_material, ppktp_base_beams):
    t0 = time.perf_counter()
    worst = 0.0
    for xi in (0.1, 1.0, 5.0):
        beams = equal_focus_beams(ppktp_base_beams, xi)
        cf = pairs_closed_form(ppktp_material, beams)
        bf = pairs_via_bruteforce(ppktp_material, beams)
        rel = abs(bf.pairs_per_pump_photon - cf.pairs_per_pump_photon) \
            / cf.pairs_per_pump_photon
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 2e-4 and elapsed < 60.0,
        f"closed form vs brute force within 2e-4 at xi in {{0.1, 1, 5}} "
        f"(worst {worst:.2e}), {elapsed:.1f} s",
    )


def test_criterion_03_dual_overlap_representation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    tol = 1e-9
    worst = 0.0
    for _ in range(10):
        Lz = 10 ** rng.uniform(-3, -1.5)
        lam1 = rng.uniform(0.8e-6, 1.8e-6)
        lam2 = rng.uniform(0.8e-6, 1.8e-6)
        lamp = 1.0 / (1.0 / lam1 + 1.0 / lam2)
        n_p, n_1, n_2 = rng.uniform(1.5, 2.3, 3)
        xis = 10 ** rng.uniform(math.log10(0.01), 1.0, 3)
        kp = 2 * math.pi * n_p / lamp
        k1 = 2 * math.pi * n_1 / lam1
        k2 = 2 * math.pi * n_2 / lam2
        beams = BeamTriple(
            GaussianMode(lamp, n_p, math.sqrt(Lz / (kp * xis[0]))),
            GaussianMode(lam1, n_1, math.sqrt(Lz / (k1 * xis[1]))),
            GaussianMode(lam2, n_2, math.sqrt(Lz / (k2 * xis[2]))),
            crystal_length=Lz,
        )
        material = MaterialOptics(
            n_p + 0.05, n_1 + 0.04, n_2 + 0.06, d_eff=2.4e-12,
        )
        dk = rng.uniform(-2.0, 2.0) * 2.0 * math.pi / Lz
        direct = overlap_direct(beams, material, dk, quad_tol=tol)
        simplified = overlap_simplified(
            overlap_params(beams, delta_k=dk), material.chi2_eff,
            *beams.waists(), Lz, quad_tol=tol,
        )
        worst = max(worst, abs(direct - simplified) / abs(direct))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst <= 3.0 * (tol + tol) and elapsed < 30.0,
        f"direct vs simplified overlap within 3x combined tolerance on 10 "
        f"random configs (worst {worst:.2e}), {elapsed:.1f} s",
    )


def test_criterion_04_axial_integral_identity():
    worst = 0.0
    for xi in (0.1, 1.0, 10.0):
        num, _ = quad(lambda l: 1.0 / (1.0 + l * l * xi * xi), -1.0, 1.0,
                      epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(num - 2.0 * math.atan(xi) / xi))
    num1, _ = quad(lambda l: 1.0 / (1.0 + l * l), -1.0, 1.0,
                   epsabs=1e-13, epsrel=1e-13)
    pi_half = abs(num1 - math.pi / 2.0)
    report(
        4,
        worst <= 1e-10 and pi_half <= 1e-10,
        f"axial integral equals 2 arctan(xi)/xi (worst {worst:.2e}; "
        f"pi/2 deviation {pi_half:.2e})",
    )


def test_criterion_05_algebraic_identities():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        k = rng.uniform(3e6, 3e7, 3)
        xi = 10 ** rng.uniform(-2, 1, 3)
        kp, k1, k2 = k
        xp, x1, x2 = xi
        # defining relation of A+B+
        agg, _, _, ab = aggregate_parameters(kp, k1, k2, xp, x1, x2, 1.0)
        sigma = k1 * x1 + k2 * x2 + kp * xp
        rhs = kp * kp * x1 * x2 * xp / (sigma * sigma)
        worst = max(worst, abs(agg / ab - rhs) / abs(rhs))
        # equal-focus collinear values
        kp_sum = k1 + k2
        x0 = x1
        agg0, _, _, ab0 = aggregate_parameters(kp_sum, k1, k2, x0, x0, x0, 1.0)
        worst = max(worst, abs(ab0 - 4.0) / 4.0)
        worst = max(worst, abs(agg0 - x0) / x0)
        # C vanishes at exact wavevector matching (scaled by its prefactor)
        c_val = aggregate_parameters(kp_sum, k1, k2, xp, x1, x2, 1.0)[1]
        c_scale = kp_sum * x1 * x2 * xp * sigma / (
            k1 * x1 * (x2 - xp) + k2 * x2 * (x1 - xp) + kp_sum * xp * (x1 + x2)
        ) ** 2
        worst = max(worst, abs(c_val) / abs(c_scale))
        # collimated ratio equals the tutorial correction factor
        n = rng.uniform(1.2, 2.4, 3)
        ng = n + rng.uniform(0.01, 0.2, 3)
        material = MaterialOptics(ng[0], ng[1], ng[2], d_eff=2.4e-12)
        beams = BeamTriple(
            GaussianMode(775e-9, n[0], 2e-4),
            GaussianMode(1550e-9, n[1], 2e-4),
            GaussianMode(1550e-9, n[2], 2e-4),
            crystal_length=1e-2,
        )
        r_sm, r_rev = collimated_limit_rates(material, beams)
        factor = tutorial_correction_factor(n[0], n[1], n[2], ng[0])
        worst = max(worst, abs(r_rev / r_sm - factor) / factor)
    report(
        5,
        worst <= 1e-12,
        f"aggregate-parameter identities hold to 1e-12 over 1000 draws "
        f"(worst {worst:.2e})",
    )


def test_criterion_06_bennink_ratio_spot_value():
    got = bennink_ratio(2.2, 2.2, 2.2, 2.2, 2.2, 2.2, epsilon_qpm=1.0)
    expected = 2.2 ** -3
    rel = abs(got - expected) / expected
    report(
        6,
        rel <= 1e-12 and abs(got - 0.0939) < 2e-4,
        f"ratio at indices 2.2 equals 2.2^-3 = {expected:.6f} (rel {rel:.2e})",
    )


def test_criterion_07_collimated_limit_consistency():
    lamp, lam = 775e-9, 1550e-9
    n = 1.78
    material = MaterialOptics(1.81, 1.76, 1.85, d_eff=2.4e-12)
    k_p = 2 * math.pi * n / lamp
    worst = 0.0
    for xi in (0.01, 0.005):
        sigma_p = math.sqrt(1e-2 / (4.0 * k_p * xi))
        beams = BeamTriple(
            GaussianMode(lamp, n, 2.0 * sigma_p),
            GaussianMode(lam, n, 2.0 * math.sqrt(2.0) * sigma_p),
            GaussianMode(lam, n, 2.0 * math.sqrt(2.0) * sigma_p),
            crystal_length=1e-2,
        )
        res = pairs_closed_form(material, beams)
        _, r_rev = collimated_limit_rates(material, beams)
        worst = max(worst, abs(res.pairs_per_s_per_mW - r_rev) / r_rev)
    report(
        7,
        worst < 0.02,
        f"closed form matches collimated limit within 2% at xi <= 0.01 "
        f"(worst {worst:.2e})",
    )


def test_criterion_08_mode_normalization():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        mode = GaussianMode(
            lambda_vac=rng.uniform(0.4e-6, 2.0e-6),
            n=rng.uniform(1.0, 2.5),
            w0=10 ** rng.uniform(-6, -4),
            z0=rng.uniform(-1e-3, 1e-3),
        )
        for z in (mode.z0, mode.z0 + 2 * mode.z_R, mode.z0 - 2 * mode.z_R):
            worst = max(worst, abs(disc_norm(mode, z) - 1.0))
    report(
        8,
        worst <= 1e-8,
        f"mode intensity integrates to 1 within 1e-8 for 20 modes x 3 planes "
        f"(worst {worst:.2e})",
    )


def test_criterion_09_group_index_oracle():
    worst = 0.0
    for name in ("vacuum", "ktp_y", "ktp_z", "ppln_mgo_e"):
        model = load_builtin_material(name)
        lo, hi = model.valid_range
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for lam in rng.uniform(lo * 1.05, hi * 0.95, 100):
            h = lam * 1e-6
            fd = refractive_index(model, lam) - lam * (
                refractive_index(model, lam + h) - refractive_index(model, lam - h)
            ) / (2.0 * h)
            ng = group_index(model, lam)
            worst = max(worst, abs(ng - fd) / abs(ng))
    report(
        9,
        worst < 1e-8,
        f"analytic group index matches finite differences over 100 wavelengths "
        f"per shipped model (worst {worst:.2e})",
    )


def test_criterion_10_experimental_rates_excluded(tmp_path, capsys):
    rows = load_table_fixture(CONFIG_DIR / "table1.cfg")
    has_metadata = all(row["rate_experimental"] is not None for row in rows)
    # scaling the experimental column must not affect pass/fail
    doc = json.loads((CONFIG_DIR / "table1.cfg").read_text())
    for row in doc["rows"]:
        row["R_exp_per_s_per_mW"] = [row["R_exp_per_s_per_mW"][0] * 10.0, 0.0]
    perturbed = tmp_path / "t.cfg"
    perturbed.write_text(json.dumps(doc))
    code = cmd_table(load_table_fixture(perturbed))
    capsys.readouterr()
    report(
        10,
        has_metadata and code == 0,
        "experimental rates ship as fixture metadata and are excluded from "
        "pass/fail",
    )
