"""Command-line interface: parsing, outputs, determinism, exit codes."""

import copy
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdc.cli import MAX_SCAN_POINTS, build_parser, main
from spdc.config import ExperimentConfig, load_config, parse_config
from spdc.errors import SpdcError
from spdc.materials import CONSTANTS
from spdc.overlap import overlap_params
from spdc.quadrature import ell_integral
from spdc.rates import equal_focus_beams, pairs_closed_form
from conftest import CONFIG_DIR, REPO_ROOT

PPKTP_CONFIG = CONFIG_DIR / "ppktp_type2.json"
DISPERSION_CONFIG = CONFIG_DIR / "ppktp_type2_dispersion.json"
TABLE_FIXTURE = CONFIG_DIR / "table1.cfg"


def load_json(path):
    return json.loads(path.read_text())


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header, rows = lines[0], lines[1:]
    return header, [ln.split(",") for ln in rows]


class TestRateCommand:
    def test_closed_form_output(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--config", PPKTP_CONFIG)
        assert code == 0 and err == ""
        assert "pairs per s per mW (closed form)" in out
        assert "8.19529701251e+04" in out

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--config", PPKTP_CONFIG, "--oracle")
        assert code == 0
        dev_line = [ln for ln in out.splitlines() if "relative deviation" in ln][0]
        dev = float(dev_line.split(":")[1])
        assert abs(dev) < 0.01

    def test_energy_conservation_rejected(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["beams"]["lambda_1_m"] = 1.49e-6
        cfg = write_json(tmp_path, "bad.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1
        assert "energy conservation" in err

    def test_zero_d_eff_rate_zero(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["d_eff_m_per_V"] = 0.0
        cfg = write_json(tmp_path, "zero.json", doc)
        code, out, _ = run_cli(capsys, "rate", "--config", cfg)
        assert code == 0
        assert "0.00000000000e+00" in out

    def test_degenerate_redirects(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["indices"]["ng_2"] = doc["material"]["indices"]["ng_1"]
        cfg = write_json(tmp_path, "deg.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 2
        assert "degenerate" in err.lower()

    def test_degenerate_path_runs(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["indices"]["ng_2"] = doc["material"]["indices"]["ng_1"]
        cfg = write_json(tmp_path, "deg.json", doc)
        code, out, _ = run_cli(
            capsys, "rate", "--config", cfg, "--degenerate", "--kappa0", "1e-25",
        )
        assert code == 0
        assert "degenerate numeric" in out

    def test_oracle_nan_estimate_is_numerical_error(self, capsys, monkeypatch):
        # NaN axial integrals make the refinement estimate NaN, which must
        # fail the tolerance check
        import spdc.rates

        monkeypatch.setattr(
            spdc.rates, "ell_integral",
            lambda b, xi, C, offsets: np.full((len(offsets), len(b)), math.nan),
        )
        code, _, err = run_cli(capsys, "rate", "--config", PPKTP_CONFIG, "--oracle")
        assert code == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:")
        assert "estimate nan" in lines[0]

    def test_oracle_cw_limit_pump(self, capsys, tmp_path):
        # the Gauss-Hermite pump axis evaluates no density, so a vanishing
        # bandwidth is the CW limit, not an underflow
        doc = load_json(PPKTP_CONFIG)
        doc["pump"]["bandwidth_rad_s"] = 1e-300
        cfg = write_json(tmp_path, "narrow.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg, "--oracle")
        assert code == 0 and err == ""
        dev = float(out.split("oracle relative deviation:")[1].split()[0])
        est = float(out.split("oracle error estimate:")[1].split()[0])
        assert abs(dev) <= est <= 2e-4

    def test_non_numeric_quad_tol_rejected(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["run"]["quad_tol"] = "abc"
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg, "--oracle")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: run.quad_tol:")

    # --tol is checked when parsed, whether or not an oracle reads it
    @pytest.mark.parametrize("mode", [["--oracle"], ["--degenerate", "--kappa0", "1e-25"], []],
                             ids=["oracle", "degenerate", "plain"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "abc"])
    def test_bad_tol_flag_is_validation_error(self, capsys, mode, value):
        code, out, err = run_cli(capsys, "rate", "--config", PPKTP_CONFIG, *mode,
                                 f"--tol={value}")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --tol:")

    @pytest.mark.parametrize("mode", [["--oracle"], ["--degenerate", "--kappa0", "1e-25"]],
                             ids=["oracle", "degenerate"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_bad_quad_tol_config_is_validation_error(self, capsys, tmp_path, mode, value):
        doc = load_json(PPKTP_CONFIG)
        doc["run"]["quad_tol"] = value
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg, *mode)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: run.quad_tol:")

    @pytest.mark.parametrize("command", [
        ("rate",),
        ("scan", "--variable", "xi", "--range", "0.5:2", "--points", "3"),
        ("optimize",),
    ], ids=["rate", "scan", "optimize"])
    @pytest.mark.parametrize("run, where", [
        ({"quad_tol": "abc"}, "run.quad_tol"),
        ({"quad_tol": 0.0}, "run.quad_tol"),
        ({"optimize": {"xi_max": "x"}}, "run.optimize.xi_max"),
        ({"optimize": []}, "run.optimize"),
    ], ids=["quad_tol_text", "quad_tol_zero", "xi_max_text", "optimize_list"])
    def test_bad_run_block_fails_every_command(self, capsys, tmp_path, command, run, where):
        doc = load_json(PPKTP_CONFIG)
        doc["run"] = run
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, *command, "--config", cfg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}:")

    @pytest.mark.parametrize("kappa0", ["nan", "inf", "-inf"])
    def test_non_finite_kappa0_rejected(self, capsys, kappa0):
        code, out, err = run_cli(capsys, "rate", "--config", PPKTP_CONFIG,
                                 "--degenerate", f"--kappa0={kappa0}")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: gvd_kappa0 must be finite and nonzero")

    def test_valid_tol_flag_reaches_the_oracle(self, capsys):
        # 1e-12 is a valid tolerance, tighter than the oracle's refinement reaches
        code, out, err = run_cli(capsys, "rate", "--config", PPKTP_CONFIG, "--oracle",
                                 "--tol", "1e-12")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:")
        assert "refinement estimate" in lines[0]
        assert lines[0].endswith("exceeds tolerance 1.000e-12")

    # n_p < n_1 = n_2 and a tight pump focus: xi_agg = -0.0205, A+B+ = -2400;
    # the closed form needs distinct signal and idler group indices
    @pytest.mark.parametrize("ng_2, mode", [(1.25, []),
                                            (1.2, ["--degenerate", "--kappa0", "1e-25"])],
                             ids=["closed_form", "degenerate"])
    def test_negative_aggregate_parameters_are_one_error_line(self, capsys, tmp_path, ng_2,
                                                              mode):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["indices"].update(n_p=1.0, n_1=3.0, n_2=3.0, ng_p=1.1, ng_1=1.2,
                                          ng_2=ng_2)
        doc["beams"].update(waist_p_m=5e-6, waist_1_m=200e-6, waist_2_m=200e-6)
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg, *mode)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: aggregate parameters xi=-0.02051, A+B+=-2400 must be positive and "
            "finite; configuration outside the validity of the rate formula"
        ]

    def test_underflowing_waist_is_domain_error(self, capsys, tmp_path):
        # k w0^2 underflows to 0: no Rayleigh range, no focal parameter
        doc = load_json(PPKTP_CONFIG)
        doc["beams"]["waist_p_m"] = 1e-300
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Rayleigh range")

    # all three waists at 1e-160: k w0^2 is subnormal and xi overflows;
    # wavelengths x 1e300: k_p^2 underflows in the A+B+ divisor
    @pytest.mark.parametrize("block, values", [
        ("beams", {"waist_p_m": 1e-160, "waist_1_m": 1e-160, "waist_2_m": 1e-160}),
        ("material", {"d_eff_m_per_V": 1e300}),
        ("material", {"crystal_length_m": 1e300}),
        ("beams", {"lambda_p_m": 7.75e293, "lambda_1_m": 1.55e294,
                   "lambda_2_m": 1.55e294}),
    ], ids=["waists", "d_eff", "crystal_length", "wavelengths"])
    def test_non_finite_closed_form_rejected(self, capsys, tmp_path, block, values):
        doc = load_json(PPKTP_CONFIG)
        doc[block].update(values)
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_missing_field_reports_name(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        del doc["pump"]["power_W"]
        cfg = write_json(tmp_path, "missing.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1
        assert "pump.power_W" in err


class TestScanCommand:
    def test_two_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "xi", "--range", "0.5:2.0", "--points", "2",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "x,pairs_per_s_per_mW,xi_agg,a_plus_b_plus,status"
        assert len(rows) == 2
        assert all(r[-1] == "ok" for r in rows)

    def test_row_count_matches_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "Lz", "--range", "0.002:0.02", "--points", "17",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 17

    def test_deterministic_output(self, tmp_path, capsys):
        args = ("scan", "--config", PPKTP_CONFIG, "--variable", "waist",
                "--range", "1e-5:1e-4", "--points", "9")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*map(str, args), "--out", str(a)]) == 0
        assert main([*map(str, args), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_xi_scan_monotone_rate(self, capsys):
        # the closed-form objective saturates monotonically along equal focus
        code, out, _ = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "xi", "--range", "0.01:10", "--points", "100", "--log",
        )
        assert code == 0
        _, rows = csv_rows(out)
        rates = [float(r[1]) for r in rows]
        assert len(rates) == 100
        assert all(b > a for a, b in zip(rates[:-1], rates[1:]))

    def test_delta_k_scan_symmetric_when_deeply_collimated(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        Lz = doc["material"]["crystal_length_m"]
        idx = doc["material"]["indices"]
        # focal parameters ~ 1e-10: the odd-in-mismatch part of the axial
        # integral scales with xi and drops below 1e-9
        for key, lam, n in (
            ("waist_p_m", doc["beams"]["lambda_p_m"], idx["n_p"]),
            ("waist_1_m", doc["beams"]["lambda_1_m"], idx["n_1"]),
            ("waist_2_m", doc["beams"]["lambda_2_m"], idx["n_2"]),
        ):
            k = 2 * math.pi * n / lam
            doc["beams"][key] = math.sqrt(Lz / (k * 1e-10))
        cfg = write_json(tmp_path, "collimated_deep.json", doc)
        span = 2 * math.pi / Lz * 3.0
        code, out, _ = run_cli(
            capsys, "scan", "--config", cfg,
            "--variable", "delta_k", f"--range={-span}:{span}", "--points", "21",
        )
        assert code == 0
        _, rows = csv_rows(out)
        rates = np.array([float(r[1]) for r in rows])
        center = rates[10]
        asym = np.abs(rates - rates[::-1]) / center
        assert np.max(asym) < 1e-9

    def test_degenerate_rows_flagged_run_continues(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["indices"]["ng_2"] = doc["material"]["indices"]["ng_1"]
        cfg = write_json(tmp_path, "deg.json", doc)
        code, out, _ = run_cli(
            capsys, "scan", "--config", cfg,
            "--variable", "xi", "--range", "0.1:1.0", "--points", "4",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4
        assert all(r[-1] == "DegenerateDispersionError" for r in rows)
        assert all(r[1] == "nan" or float(r[1]) != float(r[1]) for r in rows)

    def test_bad_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "xi", "--range", "5:1", "--points", "10",
        )
        assert code == 1 and "range" in err

    # -1e308:1e308 has finite ends, but hi - lo overflows
    @pytest.mark.parametrize("span, log", [
        ("-inf:1", False), ("1:inf", False), ("1:inf", True),
        ("-1e308:1e308", False),
    ], ids=["neg_inf", "pos_inf", "pos_inf_log", "overflow"])
    def test_non_finite_grid_rejected(self, capsys, span, log):
        code, out, err = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG, "--variable", "delta_k",
            f"--range={span}", "--points", "3", *(["--log"] if log else []),
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: scan range")
        assert "finite grid points" in lines[0]

    def test_phase_beyond_axial_rule_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG, "--variable", "delta_k",
            "--range=1e307:1e308", "--points", "3",
        )
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        assert [r[-1] for r in rows] == ["DomainError"] * 3

    def test_phase_beyond_axial_rule_keeps_closed_form_columns(self, capsys):
        # only the suppression factor failed: xi_agg and A+B+ are the
        # closed-form values the rate command prints
        code, out, _ = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG, "--variable", "delta_k",
            "--range=1e307:1e308", "--points", "3",
        )
        assert code == 0
        _, rows = csv_rows(out)
        code, rate_out, _ = run_cli(capsys, "rate", "--config", PPKTP_CONFIG)
        assert code == 0
        xi_line = next(l for l in rate_out.splitlines() if l.startswith("xi_agg"))
        for r in rows:
            assert r[1] == "nan" and r[-1] == "DomainError"
            assert math.isfinite(float(r[2])) and math.isfinite(float(r[3]))
            assert xi_line == f"xi_agg = {r[2]}  A+B+ = {r[3]}"

    def test_negative_range_after_space(self, capsys):
        args = ("scan", "--config", PPKTP_CONFIG, "--variable", "delta_k")
        code, out, err = run_cli(capsys, *args, "--range", "-2000:2000",
                                 "--points", "5")
        assert code == 0 and err == ""
        assert run_cli(capsys, *args, "--range=-2000:2000", "--points", "5") \
            == (0, out, "")

    def test_one_point_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "xi", "--range", "1:2", "--points", "1",
        )
        assert code == 1 and "points" in err

    @pytest.mark.parametrize("points", [MAX_SCAN_POINTS + 1, 100_000_000_000])
    def test_points_above_cap_rejected(self, capsys, points):
        code, out, err = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "xi", "--range", "1:2", "--points", points,
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: scan needs 2 to")

    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, target):
        path = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG, "--variable", "Lz",
            "--range", "0.002:0.02", "--points", "3", "--out", path,
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path} (")


def library_row(config, variable, x):
    """A scan row from library calls at this one point, as the CLI prints it."""
    rate = xi_agg = ab = math.nan
    status = "ok"
    try:
        material = config.material_optics()
        if variable == "xi":
            beams = equal_focus_beams(config.beam_triple(), x)
        elif variable == "waist":
            beams = dataclasses.replace(config, waist_p=x, waist_1=x, waist_2=x).beam_triple()
        elif variable == "Lz":
            beams = dataclasses.replace(config, crystal_length=x).beam_triple()
        else:
            beams = config.beam_triple()
        res = pairs_closed_form(material, beams, CONSTANTS)
        xi_agg, ab = res.xi_agg, res.a_plus_b_plus
        rate = res.pairs_per_s_per_mW
        if variable == "delta_k":
            p = overlap_params(beams, delta_k=x)
            here = abs(ell_integral(p.phi, p.xi_agg, p.C_quad)) ** 2
            rate *= here / abs(ell_integral(0.0, p.xi_agg, p.C_quad)) ** 2
    except SpdcError as exc:
        rate, status = math.nan, type(exc).__name__
    return ",".join(["{:.11e}".format(v) for v in (x, rate, xi_agg, ab)] + [status])


class TestScanRowsMatchLibrary:
    """Each row equals the library evaluated at that point alone, to every printed digit."""

    @pytest.mark.parametrize("config_path", [PPKTP_CONFIG, DISPERSION_CONFIG],
                             ids=["literal", "dispersion"])
    @pytest.mark.parametrize("variable, lo, hi, points, log, statuses", [
        ("xi", 0.05, 10.0, 11, True, {"ok"}),
        ("xi", -1.0, 5.0, 7, False, {"ok", "DomainError"}),
        ("waist", 8e-6, 2e-4, 9, False, {"ok"}),
        ("Lz", 1e-3, 4e-2, 9, True, {"ok"}),
        ("delta_k", -2000.0, 2000.0, 21, False, {"ok"}),
        # |phi| = 1e4 at both ends is past the axial rule's cap
        ("delta_k", -1e6, 1e6, 3, False, {"ok", "DomainError"}),
        ("delta_k", 1e307, 1e308, 3, False, {"DomainError"}),
    ], ids=["xi_log", "xi_failing", "waist", "Lz_log", "delta_k", "delta_k_mixed",
            "delta_k_failing"])
    def test_rows_equal_per_point_library_calls(self, capsys, config_path, variable,
                                                lo, hi, points, log, statuses):
        args = ["scan", "--config", config_path, "--variable", variable,
                f"--range={lo!r}:{hi!r}", "--points", points]
        code, out, err = run_cli(capsys, *args, *(["--log"] if log else []))
        assert code == 0 and err == ""
        config = load_config(config_path)
        grid = np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)
        rows = out.splitlines()[1:]
        assert rows == [library_row(config, variable, x) for x in grid.tolist()]
        assert {r.rsplit(",", 1)[1] for r in rows} == statuses
        if variable == "delta_k":  # a failing row keeps the closed-form columns
            assert all("nan" not in r.split(",")[2:4] for r in rows)

    @pytest.mark.parametrize("config_path", [PPKTP_CONFIG, DISPERSION_CONFIG],
                             ids=["literal", "dispersion"])
    @pytest.mark.parametrize("variable, lo, hi, points, log, statuses", [
        # a negative waist gives the same xi_j as a positive one, yet fails
        ("waist", -1e-4, 1e-4, 801, False, {"ok", "DomainError"}),
        ("waist", 1e-300, 1e300, 1201, True,
         {"ok", "DomainError", "DegenerateConfigurationError"}),
        ("Lz", -1.0, 1.0, 801, False, {"ok", "DomainError"}),
        # huge Lz overflows the aggregate parameters, which overlap_params names
        ("Lz", 1e-300, 1e300, 1201, True, {"ok", "DegenerateConfigurationError"}),
        ("xi", 1e-320, 1e-300, 401, True, {"DomainError", "DegenerateConfigurationError"}),
    ], ids=["waist_signs", "waist_log", "Lz_signs", "Lz_log", "xi_subnormal"])
    def test_hostile_grids(self, capsys, config_path, variable, lo, hi, points, log,
                           statuses):
        """Grids where the array pass hands many rows back to the per-point code."""
        self.test_rows_equal_per_point_library_calls(
            capsys, config_path, variable, lo, hi, points, log, statuses)

    @pytest.mark.parametrize("edit, variable, lo, hi, statuses", [
        # the configured pump waist underflows its Rayleigh range, so `rate`
        # exits 2 and the array pass fails as a whole; every row comes from
        # the per-point path, whose own waists replace the failing one
        ({"beams": {"waist_p_m": 1e-200}}, "waist", 2e-5, 4e-5, {"ok"}),
        # a 10 m crystal: delta_k Lz overflows to inf on the last two points
        ({"material": {"crystal_length_m": 10.0},
          "beams": {"waist_p_m": 7.9e-4, "waist_1_m": 1.13e-3, "waist_2_m": 1.1e-3}},
         "delta_k", 1e307, 1.7e308, {"DomainError"}),
    ], ids=["failing_beams", "overflowing_phase"])
    def test_edited_config(self, capsys, tmp_path, edit, variable, lo, hi, statuses):
        doc = load_json(PPKTP_CONFIG)
        for block, values in edit.items():
            doc[block].update(values)
        cfg = write_json(tmp_path, "cfg.json", doc)
        self.test_rows_equal_per_point_library_calls(
            capsys, cfg, variable, lo, hi, 3, False, statuses)


class TestRepeatedCalls:
    """Calls in one process leave nothing behind for the next."""

    SCAN = ("scan", "--config", PPKTP_CONFIG, "--variable", "xi",
            "--range", "0.1:5", "--points", "7")
    RATE = ("rate", "--config", PPKTP_CONFIG)

    @staticmethod
    def fresh(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "spdc.cli", *map(str, args)],
                              capture_output=True, text=True, env=env, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize("first, second", [
        (SCAN + ("--log",), SCAN),
        (RATE + ("--oracle",), RATE),
    ], ids=["scan_log_then_linear", "rate_oracle_then_plain"])
    def test_second_call_matches_a_fresh_process(self, capsys, first, second):
        got = [run_cli(capsys, *first), run_cli(capsys, *second)]
        assert got == [self.fresh(*first), self.fresh(*second)]
        assert got[0][1] != got[1][1]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


def test_package_exports_entry_points_only():
    import spdc

    public = {name for name, value in vars(spdc).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(spdc.__all__) and len(public) <= 8
    assert isinstance(spdc.load_config(PPKTP_CONFIG), ExperimentConfig)


def test_closed_stdout_exits_1_quietly():
    """`spdc scan ... | head -1`: exit 1, nothing on stderr, no traceback."""
    args = ("scan", "--config", PPKTP_CONFIG, "--variable", "xi", "--range", "0.1:5",
            "--points", "20000")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "spdc.cli", *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # the 1.4 MB of rows cannot all sit in the pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")
    assert first.decode().rstrip("\n") == "x,pairs_per_s_per_mW,xi_agg,a_plus_b_plus,status"


class TestUsageErrors:
    """Usage errors, argparse's and the commands' own, exit 1 with one error line."""

    @pytest.mark.parametrize("args, message", [
        (("scan", "--config", PPKTP_CONFIG, "--variable", "xi", "--range", "1:2",
          "--points", "abc"), "error: --points: invalid int value: 'abc'"),
        (("rate",), "error: the following arguments are required: --config"),
        (("optimize", "--xi-range", "1:2"),
         "error: the following arguments are required: --config"),
        ((), "error: the following arguments are required: command"),
        (("rate", "--config", PPKTP_CONFIG, "--bogus"),
         "error: unrecognized arguments: --bogus"),
        (("rate", "--config", PPKTP_CONFIG, "--degenerate"),
         "error: --degenerate requires --kappa0 <s^2/m>"),
        (("scan", "--config", PPKTP_CONFIG, "--variable", "xi", "--range=0:2",
          "--points", "3", "--log"), "error: log-spaced scans need a positive lower bound"),
        (("scan", "--config", PPKTP_CONFIG, "--variable", "xi", "--range=-1:2",
          "--points", "3", "--log"), "error: log-spaced scans need a positive lower bound"),
    ], ids=["bad_points", "rate_without_config", "optimize_without_config",
            "no_command", "unknown_flag", "degenerate_without_kappa0", "log_from_zero",
            "log_from_negative"])
    def test_usage_error_exits_1(self, capsys, args, message):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert err.splitlines() == [message]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rate", "--help"])
        captured = capsys.readouterr()
        assert info.value.code == 0 and captured.err == ""
        assert "--tol" in captured.out


class TestConfigLoading:
    def test_dispersion_by_relative_path(self, capsys, tmp_path):
        model_doc = {
            "name": "toy", "axis": "", "form": "constant",
            "coefficients": [1.7753396151123781],
            "valid_range_m": [1e-7, 1e-5],
        }
        (tmp_path / "toy.json").write_text(json.dumps(model_doc))
        doc = load_json(PPKTP_CONFIG)
        del doc["material"]["indices"]
        doc["material"]["dispersion"] = {
            "pump": "toy.json", "signal": "toy.json", "idler": "toy.json",
        }
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        # constant model has ng_1 = ng_2, so the rate path must redirect
        assert code == 2
        assert "degenerate" in err.lower()

    def test_unknown_builtin_lists_available(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        del doc["material"]["indices"]
        doc["material"]["dispersion"] = {
            "pump": "builtin:nope", "signal": "builtin:ktp_y",
            "idler": "builtin:ktp_z",
        }
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1
        assert "nope" in err and "ktp_y" in err

    def test_both_index_sources_rejected(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["dispersion"] = {
            "pump": "builtin:ktp_y", "signal": "builtin:ktp_y",
            "idler": "builtin:ktp_z",
        }
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1
        assert "exactly one" in err

    def test_dispersion_pole_at_a_band_centre_is_one_error_line(self, capsys, tmp_path):
        # the signal model's pole sits at its 1.55 um band centre, between two
        # points of the 64-point range grid, so the loader accepts the model
        lam_um = 1.55e-6 / 1e-6
        signal = write_json(tmp_path, "signal.json", {
            "name": "pole", "form": "sellmeier",
            "coefficients": [3.0, 1e-12, lam_um * lam_um], "valid_range_m": [1e-6, 2.1e-6],
        })
        doc = load_json(DISPERSION_CONFIG)
        doc["material"]["dispersion"]["signal"] = str(signal)
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "pole: wavelength" in lines[0] and "on a pole of the sellmeier model" in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400],
                             ids=["NaN", "Infinity", "int_beyond_float"])
    def test_non_finite_index_rejected(self, capsys, tmp_path, value):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["indices"]["n_1"] = value
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1 and out == ""
        assert err.startswith("error: material.indices.n_1:")

    def test_non_numeric_poling_period_rejected(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["material"]["poling_period_m"] = "abc"
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1 and out == ""
        assert err.startswith("error: material.poling_period_m:")

    @pytest.mark.parametrize("command", ["rate", "table"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_rejected(self, capsys, tmp_path, command, kind):
        path = tmp_path
        if kind == "not_utf8":
            path = tmp_path / "binary.json"
            path.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, command, "--config", path)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_unknown_pump_shape_rejected(self, capsys, tmp_path):
        doc = load_json(PPKTP_CONFIG)
        doc["pump"]["shape"] = "sech"
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, _, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1
        assert "pump.shape" in err

    @pytest.mark.parametrize("value", [5, None, "x", [1.8, 1.8]],
                             ids=["number", "null", "string", "list"])
    @pytest.mark.parametrize("key, config", [
        ("indices", PPKTP_CONFIG), ("dispersion", DISPERSION_CONFIG),
    ], ids=["indices", "dispersion"])
    def test_index_source_must_be_an_object(self, capsys, tmp_path, key, config, value):
        doc = load_json(config)
        doc["material"][key] = value
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: material.{key}: must be an object"]

    @pytest.mark.parametrize("ref", ["", "x" * 300, "builtin:\x00"],
                             ids=["config_directory", "name_too_long", "nul_builtin"])
    def test_unreadable_dispersion_reference_rejected(self, capsys, tmp_path, ref):
        doc = load_json(DISPERSION_CONFIG)
        doc["material"]["dispersion"]["pump"] = ref
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def field_paths(doc, prefix=()):
    """Key paths of every field of a JSON object, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


VALID_CONFIGS = [load_json(PPKTP_CONFIG), load_json(DISPERSION_CONFIG)]
CONFIG_FIELDS = [
    (i, path) for i, doc in enumerate(VALID_CONFIGS) for path in field_paths(doc)
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
def test_parse_config_accepts_or_raises_spdc_error(field, value):
    index, path = field
    doc = copy.deepcopy(VALID_CONFIGS[index])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        result = parse_config(doc, CONFIG_DIR)
    except SpdcError:
        return
    assert isinstance(result, ExperimentConfig)


class TestTableCommand:
    def test_shipped_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--config", TABLE_FIXTURE)
        assert code == 0
        assert out.count("PASS") == 3
        assert "metadata only" in out

    def test_identity_factors(self, capsys, tmp_path):
        doc = load_json(TABLE_FIXTURE)
        for row in doc["rows"]:
            row["correction_factor"] = [1.0, 0.0]
            row["R_th_revised_per_s_per_mW"] = row["R_th_published_per_s_per_mW"]
        cfg = write_json(tmp_path, "ident.cfg", doc)
        code, out, _ = run_cli(capsys, "table", "--config", cfg)
        assert code == 0
        assert out.count("PASS") == 3

    def test_perturbed_factor_fails_with_delta(self, capsys, tmp_path):
        doc = load_json(TABLE_FIXTURE)
        doc["rows"][1]["correction_factor"] = [1.2, 0.0]
        cfg = write_json(tmp_path, "bad.cfg", doc)
        code, out, _ = run_cli(capsys, "table", "--config", cfg)
        assert code == 2
        assert "FAIL" in out and "delta" in out

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["rows"][0].update(correction_factor="abc"),
        lambda doc: doc["rows"][0].update(tolerance_rel="x"),
        lambda doc: doc["rows"][0].update(correction_factor=[]),
        lambda doc: doc["rows"][0].update(R_th_revised_per_s_per_mW=0),
        lambda doc: doc["rows"][0].update(tolerance_rel=0),
        lambda doc: doc["rows"][0].update(correction_factor=math.nan),
        lambda doc: doc["rows"].append(5),
        lambda doc: doc["rows"],
    ], ids=["factor_string", "tolerance_string", "factor_empty", "revised_zero",
            "tolerance_zero", "factor_nan", "row_not_object", "top_level_list"])
    def test_malformed_fixture_rejected(self, capsys, tmp_path, edit):
        doc = load_json(TABLE_FIXTURE)
        cfg = write_json(tmp_path, "bad.cfg", edit(doc) or doc)
        code, out, err = run_cli(capsys, "table", "--config", cfg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_missing_row_field(self, capsys, tmp_path):
        doc = load_json(TABLE_FIXTURE)
        del doc["rows"][0]["R_th_published_per_s_per_mW"]
        cfg = write_json(tmp_path, "short.cfg", doc)
        code, _, err = run_cli(capsys, "table", "--config", cfg)
        assert code == 1
        assert "missing field" in err


class TestOptimizeCommand:
    def test_matches_dense_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--config", PPKTP_CONFIG, "--xi-range", "0.05:8",
        )
        assert code == 0
        xi_line = [ln for ln in out.splitlines() if ln.startswith("xi_opt")][0]
        xi_opt = float(xi_line.split(":")[1])
        code2, out2, _ = run_cli(
            capsys, "scan", "--config", PPKTP_CONFIG,
            "--variable", "xi", "--range", "0.05:8", "--points", "1000", "--log",
        )
        assert code2 == 0
        _, rows = csv_rows(out2)
        xs = np.array([float(r[0]) for r in rows])
        rates = np.array([float(r[1]) for r in rows])
        best = xs[int(np.argmax(rates))]
        step = xs[-1] / xs[-2]
        assert best / step <= xi_opt <= best * step

    def test_range_shrink_stability(self, capsys):
        vals = []
        for span in ("6:8", "7.5:8"):
            code, out, _ = run_cli(
                capsys, "optimize", "--config", PPKTP_CONFIG, "--xi-range", span,
            )
            assert code == 0
            xi_line = [ln for ln in out.splitlines() if ln.startswith("xi_opt")][0]
            vals.append(float(xi_line.split(":")[1]))
        assert abs(vals[0] - vals[1]) <= 1e-3 * vals[0]

    @pytest.mark.parametrize("block, where", [
        ({"xi_min": "x"}, "run.optimize.xi_min"),
        ({"xi_max": "x"}, "run.optimize.xi_max"),
        ("x", "run.optimize"),
    ], ids=["xi_min", "xi_max", "not_an_object"])
    def test_malformed_bracket_rejected(self, capsys, tmp_path, block, where):
        doc = load_json(PPKTP_CONFIG)
        doc["run"]["optimize"] = block
        cfg = write_json(tmp_path, "cfg.json", doc)
        code, out, err = run_cli(capsys, "optimize", "--config", cfg)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}:")

    def test_negative_range_after_space(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--config", PPKTP_CONFIG, "--xi-range", "-1:3",
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "0 < lo < hi" in lines[0]

    @pytest.mark.parametrize("span", ["0.1:inf", "0.1:nan"])
    def test_non_finite_bracket_rejected(self, capsys, span):
        code, out, err = run_cli(
            capsys, "optimize", "--config", PPKTP_CONFIG, f"--xi-range={span}",
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: optimize range")

    def test_inverted_range_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", "--config", PPKTP_CONFIG, "--xi-range", "3:1",
        )
        assert code == 1
        assert "lo < hi" in err
