"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned and been checked. A run is a sequence of
passes; pass ``k`` draws its inputs from ``numpy.random.default_rng([seed,
0, k])`` and writes them as config files, which are all the program sees.
Jittered inputs come in antithetic pairs (+u, -u), so the work in a pair
of passes, and hence its time, barely depends on the seed.

``Op.run`` is the timed call into the program. ``Op.check`` compares its
output with an independent call of the library at the same inputs and
raises ``CheckFailed`` on any mismatch; it returns accuracy figures.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.integrate

import spdc.cli
import spdc.config
import spdc.overlap
import spdc.quadrature
import spdc.rates
from spdc.materials import CONSTANTS

FMT12 = "{:.11e}"  # the CLI's 12 significant digits

# PPKTP type-II at 775 -> 1550 + 1550 nm: KTP y/z Sellmeier values, with
# n_p = (n_1 + n_2) / 2 so that k_p = k_1 + k_2 exactly (closed-form regime)
KTP_N1 = 1.7349061194074447
KTP_N2 = 1.8157731108173114
KTP_INDICES = {
    "n_p": (KTP_N1 + KTP_N2) / 2.0,
    "n_1": KTP_N1,
    "n_2": KTP_N2,
    "ng_p": 1.8101841458646204,
    "ng_1": 1.7628826167484315,
    "ng_2": 1.8514984196951656,
}

ORACLE_REGIMES = (("xi01", 0.1), ("xi1", 1.0), ("xi5", 5.0))
ORACLE_TOL = 1e-2          # criterion 02: closed form vs brute force
DEGENERATE_KAPPA0 = 1e-25  # s^2/m
ELL_REF_TOL = 1e-10        # adaptive reference for the delta_k scan ratios
ELL_RATIO_TOL = 1e-8       # ell_integral's documented accuracy
XI_JITTER = 0.2

CROSSCHECK_TOL = 1e-9      # quadrature tolerance of both overlap forms
UNPOLED_BATCHES = 4
UNPOLED_BATCH_SIZE = 10
POLED_LENGTH = 1e-2        # m
POLED_PERIOD = 10e-6       # m
POLED_TOL = 1e-2           # |direct| vs (2/pi) |O_simplified(dk - K)|

SCAN_VARIABLES = ("xi", "waist", "Lz", "delta_k")
SCAN_POINTS = (50, 400)


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    kind: str
    config_kind: Optional[str]  # "literal", "dispersion" or None
    path: str
    run: Callable[[], object]
    check: Callable[[object], dict]


class Inputs:
    """Writes the generated config files of one run under ``root``."""

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.seed = seed
        self._count = 0
        self._design_pool = None

    def rng(self, k: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, k])

    def write(self, stem: str, doc: dict) -> str:
        path = self.root / f"{stem}-{self._count:05d}.json"
        self._count += 1
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)


# ------------------------------------------------------------------ helpers
def call_cli(argv: list) -> tuple:
    """Run ``spdc.cli.main`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = spdc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _cli_ok(result) -> str:
    code, out, err = result
    _require(code == 0, f"exit code {code}, stderr {err.strip()!r}")
    _require(err == "", f"stderr not empty: {err.strip()!r}")
    return out


def _value_after(out: str, label: str) -> str:
    for line in out.splitlines():
        before, found, after = line.partition(label)
        if found and after.split():
            return after.split()[0]
    raise CheckFailed(f"output has no value after {label!r}")


def _same12(got: str, want: float, what: str):
    _require(got == FMT12.format(want), f"{what}: got {got}, expected {FMT12.format(want)}")


def _waist(lam: float, n: float, Lz: float, xi: float) -> float:
    """Waist giving focal parameter ``xi``: xi = Lz / (k w0^2)."""
    return math.sqrt(Lz / (2.0 * math.pi * n / lam * xi))


def _energy_conserving_pump(lam1: float, lam2: float) -> float:
    return 1.0 / (1.0 / lam1 + 1.0 / lam2)


def _doc(material: dict, lam1, lam2, waists, power=1e-3, bandwidth=1e10,
         run=None) -> dict:
    w_p, w_1, w_2 = waists
    return {
        "material": material,
        "beams": {
            "lambda_p_m": _energy_conserving_pump(lam1, lam2),
            "lambda_1_m": lam1,
            "lambda_2_m": lam2,
            "waist_p_m": w_p,
            "waist_1_m": w_1,
            "waist_2_m": w_2,
        },
        "pump": {"power_W": power, "bandwidth_rad_s": bandwidth,
                 "shape": "gaussian"},
        "run": run or {"quad_tol": 1e-4},
    }


def _ppktp_doc(xi: float, Lz: float = 1e-2, indices=None) -> dict:
    """PPKTP type-II literal config with every focal parameter equal to xi."""
    idx = dict(indices or KTP_INDICES)
    lam1 = lam2 = 1550e-9
    lamp = _energy_conserving_pump(lam1, lam2)
    waists = (
        _waist(lamp, idx["n_p"], Lz, xi),
        _waist(lam1, idx["n_1"], Lz, xi),
        _waist(lam2, idx["n_2"], Lz, xi),
    )
    material = {"d_eff_m_per_V": 2.4e-12, "crystal_length_m": Lz,
                "poling_period_m": None, "indices": idx}
    return _doc(material, lam1, lam2, waists)


def _library_objects(path: str):
    config = spdc.config.load_config(path)
    return config, config.material_optics(), config.beam_triple()


def expected_closed_form(path: str):
    """Closed-form RateResult by a direct library call."""
    _, material, beams = _library_objects(path)
    return spdc.rates.pairs_closed_form(material, beams, CONSTANTS)


def _check_closed_form_lines(out: str, path: str):
    ref = expected_closed_form(path)
    _same12(_value_after(out, "pairs per pump photon (closed form):"),
            ref.pairs_per_pump_photon, "pairs per pump photon")
    _same12(_value_after(out, "pairs per s per mW (closed form):"),
            ref.pairs_per_s_per_mW, "pairs per s per mW")
    _same12(_value_after(out, "xi_agg ="), ref.xi_agg, "xi_agg")
    _same12(_value_after(out, "A+B+ ="), ref.a_plus_b_plus, "A+B+")
    return ref


def _finite_estimate(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    _require(math.isfinite(value) and value >= 0.0, f"{what}: {value!r}")
    return value


# ------------------------------------------------------------------- oracle
def _check_oracle(path: str):
    def check(result) -> dict:
        out = _cli_ok(result)
        ref = _check_closed_form_lines(out, path)
        brute = float(_value_after(out, "oracle pairs per s per mW (brute force):"))
        dev = abs(brute - ref.pairs_per_s_per_mW) / ref.pairs_per_s_per_mW
        _require(dev <= ORACLE_TOL, f"oracle deviation {dev:.3e} > {ORACLE_TOL}")
        _finite_estimate(_value_after(out, "oracle error estimate:"),
                         "oracle error estimate")
        return {"oracle_rel_dev": dev}
    return check


def _check_degenerate(path: str):
    def check(result) -> dict:
        out = _cli_ok(result)
        _, _, beams = _library_objects(path)
        params = spdc.overlap.overlap_params(beams)
        _same12(_value_after(out, "xi_agg ="), params.xi_agg, "xi_agg")
        rate = float(_value_after(out, "pairs per s per mW:"))
        _require(math.isfinite(rate) and rate > 0.0, f"degenerate rate {rate!r}")
        est = _finite_estimate(_value_after(out, "quadrature error estimate:"),
                               "degenerate error estimate")
        _require(est <= ORACLE_TOL, f"degenerate error estimate {est:.3e}")
        return {}
    return check


def oracle_pass(inputs: Inputs, k: int) -> list:
    """One brute-force oracle run per focusing regime plus one degenerate
    (quadratic phase-matching) run, each with xi jittered by up to 20%.

    The jitter is antithetic across pass pairs: passes 2j and 2j + 1 draw
    the same u per case and use xi0 (1 + 0.2 u) and xi0 (1 - 0.2 u).
    """
    rng = inputs.rng(k // 2)
    sign = 1.0 if k % 2 == 0 else -1.0
    ops = []
    for kind, xi0 in ORACLE_REGIMES:
        xi = xi0 * (1.0 + sign * XI_JITTER * rng.uniform(0.0, 1.0))
        path = inputs.write(kind, _ppktp_doc(xi))
        argv = ["rate", "--config", path, "--oracle"]
        ops.append(Op(kind, "literal", path,
                      lambda argv=argv: call_cli(argv), _check_oracle(path)))
    xi = 1.0 + sign * XI_JITTER * rng.uniform(0.0, 1.0)
    degenerate = dict(KTP_INDICES, ng_2=KTP_INDICES["ng_1"])
    path = inputs.write("degenerate", _ppktp_doc(xi, indices=degenerate))
    argv = ["rate", "--config", path, "--degenerate",
            "--kappa0", repr(DEGENERATE_KAPPA0)]
    ops.append(Op("degenerate", "literal", path,
                  lambda argv=argv: call_cli(argv), _check_degenerate(path)))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- crosscheck
def _unpoled_doc(rng: np.random.Generator) -> dict:
    """One random unpoled configuration, drawn as acceptance criterion 03 does."""
    Lz = 10 ** rng.uniform(-3, -1.5)
    lam1 = rng.uniform(0.8e-6, 1.8e-6)
    lam2 = rng.uniform(0.8e-6, 1.8e-6)
    lamp = _energy_conserving_pump(lam1, lam2)
    n_p, n_1, n_2 = rng.uniform(1.5, 2.3, 3)
    xis = 10 ** rng.uniform(math.log10(0.01), 1.0, 3)
    dk = rng.uniform(-2.0, 2.0) * 2.0 * math.pi / Lz
    material = {
        "d_eff_m_per_V": 2.4e-12, "crystal_length_m": Lz,
        "indices": {"n_p": n_p, "n_1": n_1, "n_2": n_2,
                    "ng_p": n_p + 0.05, "ng_1": n_1 + 0.04, "ng_2": n_2 + 0.06},
    }
    waists = (_waist(lamp, n_p, Lz, xis[0]), _waist(lam1, n_1, Lz, xis[1]),
              _waist(lam2, n_2, Lz, xis[2]))
    return _doc(material, lam1, lam2, waists, run={"delta_k": dk})


def _poled_doc(xi: float, offset: float) -> dict:
    """1 cm PPKTP-like crystal, 10 um period, probed at dk = K + offset."""
    n = 1.8
    lam1 = lam2 = 1550e-9
    lamp = _energy_conserving_pump(lam1, lam2)
    Lz = POLED_LENGTH
    material = {
        "d_eff_m_per_V": 2.4e-12, "crystal_length_m": Lz,
        "poling_period_m": POLED_PERIOD,
        "indices": {"n_p": n, "n_1": n, "n_2": n,
                    "ng_p": 1.85, "ng_1": 1.84, "ng_2": 1.86},
    }
    waists = (_waist(lamp, n, Lz, xi), _waist(lam1, n, Lz, xi),
              _waist(lam2, n, Lz, xi))
    return _doc(material, lam1, lam2, waists, run={"qpm_offset": offset})


def _overlaps(path: str, poled: bool) -> tuple:
    """(overlap_direct, overlap_simplified) for one generated config.

    Unpoled: both forms at the config's delta_k. Poled: the direct form at
    dk = K + offset and the simplified (unpoled) form at the offset alone.
    """
    config, material, beams = _library_objects(path)
    if poled:
        offset = config.run["qpm_offset"]
        dk_direct = 2.0 * math.pi / material.poling_period + offset
        dk_simplified = offset
    else:
        dk_direct = dk_simplified = config.run["delta_k"]
    direct = spdc.overlap.overlap_direct(beams, material, dk_direct,
                                         quad_tol=CROSSCHECK_TOL)
    simplified = spdc.overlap.overlap_simplified(
        spdc.overlap.overlap_params(beams, delta_k=dk_simplified),
        material.chi2_eff, *beams.waists(), beams.crystal_length,
        quad_tol=CROSSCHECK_TOL,
    )
    return direct, simplified


def _unpoled_batch(paths: list) -> list:
    return [_overlaps(path, False) for path in paths]


def _check_unpoled(paths: list):
    def check(result) -> dict:
        limit = 3.0 * (2.0 * CROSSCHECK_TOL)
        worst = 0.0
        for path, (direct, simplified) in zip(paths, result):
            rel = abs(direct - simplified) / abs(direct)
            _require(rel <= limit, f"{path}: direct vs simplified {rel:.3e} > {limit:.1e}")
            worst = max(worst, rel)
        return {"unpoled_rel_diff": worst}
    return check


def _check_poled(result) -> dict:
    direct, simplified = result
    ref = 2.0 / math.pi * abs(simplified)
    rel = abs(abs(direct) - ref) / ref
    _require(rel <= POLED_TOL, f"poled |O| vs (2/pi)|O_s| {rel:.3e} > {POLED_TOL}")
    return {"poled_rel_dev": rel}


def crosscheck_pass(inputs: Inputs, k: int) -> list:
    """Dual overlap representation at tolerance 1e-9: batches of random
    unpoled configs (one batch is one criterion-03 set of ten), and an
    antithetic pair of poled crystals near first-order QPM.

    Single unpoled configs take 1.5 or 3 ms depending on how the adaptive
    quadrature splits, so batches keep the per-operation latency from
    jumping between those two modes from seed to seed. Poled offsets stay
    inside the central phase-matching lobe (|dk - K| Lz <= pi); near the
    lobe's zeros the first-order QPM reference loses its relative accuracy.
    """
    rng = inputs.rng(k)
    ops = []
    for _ in range(UNPOLED_BATCHES):
        paths = [inputs.write("unpoled", _unpoled_doc(rng))
                 for _ in range(UNPOLED_BATCH_SIZE)]
        ops.append(Op("unpoled", "literal", paths[0],
                      lambda paths=paths: _unpoled_batch(paths),
                      _check_unpoled(paths)))
    u = rng.uniform(0.0, 1.0)
    offset = rng.uniform(-0.5, 0.5) * 2.0 * math.pi / POLED_LENGTH
    for sign in (1.0, -1.0):
        path = inputs.write("poled", _poled_doc(1.0 + sign * XI_JITTER * u,
                                                sign * offset))
        ops.append(Op("poled", "literal", path,
                      lambda path=path: _overlaps(path, True), _check_poled))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- design
def _literal_design_doc(rng: np.random.Generator) -> dict:
    Lz = 10 ** rng.uniform(math.log10(2e-3), math.log10(2e-2))
    lam1, lam2 = rng.uniform(1500e-9, 1600e-9, 2)
    waists = tuple(10 ** rng.uniform(math.log10(15e-6), math.log10(80e-6), 3))
    material = {"d_eff_m_per_V": rng.uniform(2e-12, 3e-12),
                "crystal_length_m": Lz, "indices": dict(KTP_INDICES)}
    return _doc(material, lam1, lam2, waists)


def _dispersion_design_doc(rng: np.random.Generator) -> dict:
    Lz = 10 ** rng.uniform(math.log10(2e-3), math.log10(2e-2))
    waists = tuple(10 ** rng.uniform(math.log10(15e-6), math.log10(80e-6), 3))
    if rng.uniform() < 0.5:  # KTP type-II
        lam1, lam2 = rng.uniform(1500e-9, 1600e-9, 2)
        material = {"d_eff_m_per_V": 2.4e-12, "crystal_length_m": Lz,
                    "dispersion": {"pump": "builtin:ktp_y",
                                   "signal": "builtin:ktp_y",
                                   "idler": "builtin:ktp_z"}}
    else:  # MgO:LN type-0, nondegenerate
        lam1 = rng.uniform(1300e-9, 1450e-9)
        lam2 = rng.uniform(1650e-9, 1900e-9)
        material = {"d_eff_m_per_V": 14e-12, "crystal_length_m": Lz,
                    "poling_period_m": 19.5e-6,
                    "dispersion": {"pump": "builtin:ppln_mgo_e",
                                   "signal": "builtin:ppln_mgo_e",
                                   "idler": "builtin:ppln_mgo_e"}}
    return _doc(material, lam1, lam2, waists)


def _table_doc(rng: np.random.Generator) -> dict:
    rows = []
    for i in range(int(rng.integers(3, 7))):
        factor = rng.uniform(1.0, 1.1)
        published = rng.uniform(1e7, 1e8)
        row = {
            "name": f"row_{i}",
            "correction_factor": [factor, 0.002],
            "R_th_published_per_s_per_mW": [published, 0.1 * published],
            "R_th_revised_per_s_per_mW":
                [published * factor * (1.0 + rng.uniform(-1e-4, 1e-4)), 0.0],
            "tolerance_rel": 0.002,
        }
        if rng.uniform() < 0.5:
            row["R_exp_per_s_per_mW"] = [published * rng.uniform(0.8, 1.4), 0.0]
        rows.append(row)
    return {"rows": rows}


def _design_pool(inputs: Inputs) -> dict:
    """Config files shared by every design pass of a run."""
    if inputs._design_pool is None:
        rng = inputs.rng(0, stream=1)
        inputs._design_pool = {
            "literal": [inputs.write("lit", _literal_design_doc(rng)) for _ in range(6)],
            "dispersion": [inputs.write("disp", _dispersion_design_doc(rng))
                           for _ in range(6)],
            "table": inputs.write("table", _table_doc(rng)),
        }
    return inputs._design_pool


def _check_rate(path: str):
    def check(result) -> dict:
        _check_closed_form_lines(_cli_ok(result), path)
        return {}
    return check


def _scan_grid(lo: float, hi: float, points: int, log: bool) -> np.ndarray:
    return np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)


def expected_scan_rows(path: str, variable: str, lo: float, hi: float,
                       points: int, log: bool) -> list:
    """Scan rows as direct library calls at the same inputs give them."""
    config, material, base = _library_objects(path)
    grid = _scan_grid(lo, hi, points, log)
    rows = []
    for x in grid:
        x = float(x)
        m, beams = material, base
        if variable == "xi":
            beams = spdc.rates.equal_focus_beams(base, x)
        elif variable == "waist":
            beams = dataclasses.replace(config, waist_p=x, waist_1=x,
                                        waist_2=x).beam_triple()
        elif variable == "Lz":
            changed = dataclasses.replace(config, crystal_length=x)
            m, beams = changed.material_optics(), changed.beam_triple()
        res = spdc.rates.pairs_closed_form(m, beams, CONSTANTS)
        rate = res.pairs_per_s_per_mW
        if variable == "delta_k":
            p = spdc.overlap.overlap_params(beams, delta_k=x)
            ell = spdc.quadrature.ell_integral
            rate *= abs(ell(p.phi, p.xi_agg, p.C_quad)) ** 2 \
                / abs(ell(0.0, p.xi_agg, p.C_quad)) ** 2
        rows.append(",".join((FMT12.format(x), FMT12.format(rate),
                              FMT12.format(res.xi_agg),
                              FMT12.format(res.a_plus_b_plus), "ok")))
    return rows


def _check_scan(path, variable, lo, hi, points, log):
    def check(result) -> dict:
        lines = _cli_ok(result).splitlines()
        _require(lines[:1] == [spdc.cli.CSV_HEADER], "scan CSV header")
        want = expected_scan_rows(path, variable, lo, hi, points, log)
        _require(len(lines) - 1 == len(want),
                 f"scan rows: got {len(lines) - 1}, expected {len(want)}")
        for got, exp in zip(lines[1:], want):
            _require(got == exp, f"scan row {got!r} != {exp!r}")
        if variable == "delta_k":
            _check_axial_ratios(path, _scan_grid(lo, hi, points, log))
        return {}
    return check


def _check_axial_ratios(path: str, delta_ks) -> None:
    """|I(phi)|^2 / |I(0)|^2 from ``ell_integral`` against adaptive quadrature.

    The scan rows are compared with the same ``ell_integral`` the CLI
    calls, so this check evaluates the reduced axial integral
    I(phi) = integral over l in [-1, 1] of exp(-i phi l / 2) / (1 + i l xi -
    C xi^2 l^2) independently, with scipy's adaptive ``quad`` to an absolute
    error of ELL_REF_TOL |I(0)|, and requires the ratios to agree to
    ELL_RATIO_TOL relative (absolute below a ratio of 1, so that lobe zeros
    do not demand an impossible relative accuracy).
    """
    _, _, beams = _library_objects(path)
    p0 = spdc.overlap.overlap_params(beams, delta_k=0.0)
    xi, C = p0.xi_agg, p0.C_quad
    ell0 = spdc.quadrature.ell_integral(0.0, xi, C)

    def reference(phi: float) -> complex:
        def integrand(ell):
            return np.exp(-0.5j * phi * ell) / (1.0 + 1j * ell * xi - C * xi * xi * ell * ell)
        value, _ = scipy.integrate.quad(integrand, -1.0, 1.0, complex_func=True,
                                        epsabs=ELL_REF_TOL * abs(ell0), epsrel=0.0,
                                        limit=400)
        return value

    ref0 = reference(0.0)
    for dk in delta_ks:
        phi = spdc.overlap.overlap_params(beams, delta_k=float(dk)).phi
        want = abs(reference(phi)) ** 2 / abs(ref0) ** 2
        got = abs(spdc.quadrature.ell_integral(phi, xi, C)) ** 2 / abs(ell0) ** 2
        _require(abs(got - want) <= ELL_RATIO_TOL * max(want, 1.0),
                 f"delta_k {float(dk)!r}: ell_integral ratio {got!r}, "
                 f"adaptive quadrature {want!r}")


def _check_optimize(path: str, xi_range: tuple):
    def check(result) -> dict:
        out = _cli_ok(result)
        _, material, base = _library_objects(path)
        xi_opt, rate = spdc.rates.focus_optimize(material, base, CONSTANTS, xi_range)
        best = spdc.rates.equal_focus_beams(base, xi_opt)
        for label, want in (("xi_opt:", xi_opt), ("pairs per s per mW:", rate),
                            ("waist_p at optimum:", best.pump.w0),
                            ("waist_1 at optimum:", best.signal.w0),
                            ("waist_2 at optimum:", best.idler.w0)):
            _same12(_value_after(out, label), want, label)
        return {}
    return check


def _check_table(path: str):
    def check(result) -> dict:
        out = _cli_ok(result)
        rows = spdc.config.load_table_fixture(path)
        lines = {ln.split()[0]: ln for ln in out.splitlines()[1:-1]}
        for row in rows:
            line = lines.get(row["name"])
            _require(line is not None, f"table row {row['name']} missing")
            fields = line.split()
            computed = spdc.rates.apply_table_correction(
                row["rate_published"], row["correction_factor"])
            _require(fields[4] == f"{computed:.4e}", f"table row {row['name']}: {line!r}")
            _require(fields[-1] == "PASS", f"table row {row['name']} not PASS")
        return {}
    return check


def _scan_op(rng, path, config_kind, variable, points) -> Op:
    log = False
    if variable == "xi":
        lo, hi = rng.uniform(0.02, 0.2), rng.uniform(5.0, 10.0)
        log = bool(rng.uniform() < 0.5)
    elif variable == "waist":
        lo, hi = rng.uniform(8e-6, 15e-6), rng.uniform(1e-4, 2e-4)
    elif variable == "Lz":
        lo, hi = rng.uniform(1e-3, 3e-3), rng.uniform(2e-2, 4e-2)
    else:
        Lz = spdc.config.load_config(path).crystal_length
        hi = rng.uniform(1.0, 4.0) * 2.0 * math.pi / Lz
        lo = -hi
    argv = ["scan", "--config", path, "--variable", variable,
            f"--range={lo!r}:{hi!r}", "--points", str(points)]
    if log:
        argv.append("--log")
    return Op(f"scan.{variable}", config_kind, path,
              lambda: call_cli(argv),
              _check_scan(path, variable, lo, hi, points, log))


def design_pass(inputs: Inputs, k: int) -> list:
    """Interactive design commands: rate on literal and dispersion configs,
    one scan per variable with stratified point counts, optimize, table."""
    pool = _design_pool(inputs)
    rng = inputs.rng(k)
    ops = []

    def choose(config_kind):
        paths = pool[config_kind]
        return paths[int(rng.integers(len(paths)))]

    def pick():
        config_kind = "literal" if rng.uniform() < 0.5 else "dispersion"
        return choose(config_kind), config_kind

    for config_kind, count in (("literal", 4), ("dispersion", 3)):
        for _ in range(count):
            path = choose(config_kind)
            argv = ["rate", "--config", path]
            ops.append(Op(f"rate.{config_kind}", config_kind, path,
                          lambda argv=argv: call_cli(argv), _check_rate(path)))
    lo_pts, hi_pts = SCAN_POINTS
    strata = rng.permutation(len(SCAN_VARIABLES))
    for variable, stratum in zip(SCAN_VARIABLES, strata):
        frac = (stratum + rng.uniform()) / len(SCAN_VARIABLES)
        points = int(lo_pts + frac * (hi_pts - lo_pts))
        path, config_kind = pick()
        ops.append(_scan_op(rng, path, config_kind, variable, points))
    for _ in range(2):
        path, config_kind = pick()
        xi_range = (rng.uniform(0.01, 0.1), rng.uniform(3.0, 10.0))
        argv = ["optimize", "--config", path,
                f"--xi-range={xi_range[0]!r}:{xi_range[1]!r}"]
        ops.append(Op("optimize", config_kind, path,
                      lambda argv=argv: call_cli(argv),
                      _check_optimize(path, xi_range)))
    table = pool["table"]
    ops.append(Op("table", None, table,
                  lambda: call_cli(["table", "--config", table]),
                  _check_table(table)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "oracle": oracle_pass,
    "crosscheck": crosscheck_pass,
    "design": design_pass,
}
