"""Batch command-line front end.

Subcommands: ``rate`` (closed form, optionally cross-checked against the
brute-force oracle), ``scan`` (CSV of rate vs a swept variable), ``table``
(published-rate correction table check) and ``optimize`` (focal-parameter
search). All output is deterministic: identical configs give byte-identical
output. Numbers are printed with 12 significant digits in scientific
notation. Errors go to stderr with a nonzero exit code (1 validation,
2 numerical).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .config import ExperimentConfig, _number, load_config, load_table_fixture
from .errors import ConfigError, QuadratureError, SpdcError
from .materials import CONSTANTS
from .overlap import overlap_params
from .quadrature import ell_integral
from .rates import (
    apply_table_correction,
    equal_focus_beams,
    focus_optimize,
    pairs_closed_form,
    pairs_degenerate_numeric,
    pairs_via_bruteforce,
)

_FMT = "{:.11e}"  # 12 significant digits
SCAN_VARIABLES = ("xi", "waist", "Lz", "delta_k")
_RANGE_FLAGS = ("--range", "--xi-range")
CSV_HEADER = "x,pairs_per_s_per_mW,xi_agg,a_plus_b_plus,status"


def _fmt(value: float) -> str:
    return _FMT.format(value)


def cmd_rate(
    config: ExperimentConfig,
    oracle: bool = False,
    tol: float = None,
    degenerate: bool = False,
    kappa0: float = None,
    out=None,
) -> int:
    """Print the pair rate for one configuration."""
    out = out or sys.stdout
    material = config.material_optics()
    beams = config.beam_triple()
    quad_tol = (
        tol if tol is not None
        else _number(config.run.get("quad_tol", 1e-4), "run.quad_tol")
    )

    if degenerate:
        if kappa0 is None:
            raise ConfigError("--degenerate requires --kappa0 <s^2/m>")
        pump = config.pump_spec()
        res = pairs_degenerate_numeric(
            material, beams, pump, kappa0, CONSTANTS, quad_tol
        )
        print(f"method: degenerate numeric (kappa0 = {_fmt(kappa0)} s^2/m)", file=out)
        print(f"pairs per pump photon:  {_fmt(res.pairs_per_pump_photon)}", file=out)
        print(f"pairs per s per mW:     {_fmt(res.pairs_per_s_per_mW)}", file=out)
        print(f"xi_agg = {_fmt(res.xi_agg)}  A+B+ = {_fmt(res.a_plus_b_plus)}", file=out)
        print(
            f"quadrature error estimate: {res.quadrature_error_estimate:.3e}",
            file=out,
        )
        return 0

    res = pairs_closed_form(material, beams, CONSTANTS)
    print(f"pairs per pump photon (closed form): {_fmt(res.pairs_per_pump_photon)}", file=out)
    print(f"pairs per s per mW (closed form):    {_fmt(res.pairs_per_s_per_mW)}", file=out)
    print(f"xi_agg = {_fmt(res.xi_agg)}  A+B+ = {_fmt(res.a_plus_b_plus)}", file=out)
    if oracle:
        pump = config.pump_spec()
        ref = pairs_via_bruteforce(material, beams, pump, CONSTANTS, quad_tol)
        dev = (ref.pairs_per_s_per_mW - res.pairs_per_s_per_mW) / res.pairs_per_s_per_mW \
            if res.pairs_per_s_per_mW != 0.0 else 0.0
        print(f"oracle pairs per s per mW (brute force): {_fmt(ref.pairs_per_s_per_mW)}", file=out)
        print(f"oracle relative deviation: {dev:+.3e}", file=out)
        print(
            f"oracle error estimate: {ref.quadrature_error_estimate:.3e}",
            file=out,
        )
    return 0


def _scan_point(config: ExperimentConfig, variable: str, x: float) -> tuple:
    """(rate, xi_agg, a_plus_b_plus, status) at one scan point.

    A step that raises leaves NaN for what it did not compute: when only
    the delta_k suppression fails, the closed-form xi_agg and A+B+ stay.
    """
    rate = xi_agg = ab = math.nan
    try:
        material = config.material_optics()
        if variable == "xi":
            beams = equal_focus_beams(config.beam_triple(), x)
        elif variable == "waist":
            cfg = dataclasses.replace(config, waist_p=x, waist_1=x, waist_2=x)
            beams = cfg.beam_triple()
        elif variable == "Lz":
            beams = dataclasses.replace(config, crystal_length=x).beam_triple()
        else:
            beams = config.beam_triple()
        res = pairs_closed_form(material, beams, CONSTANTS)
        xi_agg, ab = res.xi_agg, res.a_plus_b_plus
        suppression = 1.0
        if variable == "delta_k":
            params = overlap_params(beams, delta_k=x)
            base = abs(ell_integral(0.0, params.xi_agg, params.C_quad)) ** 2
            here = abs(ell_integral(params.phi, params.xi_agg, params.C_quad)) ** 2
            suppression = here / base
        rate = res.pairs_per_s_per_mW * suppression
    except SpdcError as exc:
        return rate, xi_agg, ab, type(exc).__name__
    return rate, xi_agg, ab, "ok"


def cmd_scan(
    config: ExperimentConfig,
    variable: str,
    lo: float,
    hi: float,
    points: int,
    log_spacing: bool = False,
    out=None,
) -> int:
    """Emit a CSV of rate vs the swept variable."""
    out = out or sys.stdout
    if variable not in SCAN_VARIABLES:
        raise ConfigError(f"scan variable {variable!r} not one of {SCAN_VARIABLES}")
    if points < 2:
        raise ConfigError(f"scan needs at least 2 points, got {points}")
    if not (lo < hi):
        raise ConfigError(f"scan range must satisfy lo < hi, got {lo}:{hi}")
    if log_spacing and lo <= 0.0:
        raise ConfigError("log-spaced scans need a positive lower bound")
    # an infinite end, or hi - lo beyond the float range, gives non-finite points
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.geomspace(lo, hi, points) if log_spacing else np.linspace(lo, hi, points)
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"scan range {lo}:{hi} must give finite grid points")

    print(CSV_HEADER, file=out)
    for x in grid:
        rate, xi_agg, ab, status = _scan_point(config, variable, float(x))
        print(
            ",".join((_fmt(float(x)), _fmt(rate), _fmt(xi_agg), _fmt(ab), status)),
            file=out,
        )
    return 0


def cmd_table(rows: list, out=None) -> int:
    """Check published rates against their correction factors."""
    out = out or sys.stdout
    all_pass = True
    header = (
        f"{'row':<24}{'factor':>12}{'R_published':>16}{'R_revised':>16}"
        f"{'computed':>16}{'R_exp':>16}  result"
    )
    print(header, file=out)
    for row in rows:
        computed = apply_table_correction(row["rate_published"], row["correction_factor"])
        rel = abs(computed - row["rate_revised"]) / row["rate_revised"]
        ok = rel <= row["tolerance_rel"]
        all_pass &= ok
        r_exp = row["rate_experimental"]
        r_exp_s = f"{r_exp:.4e}" if r_exp is not None else "-"
        verdict = "PASS" if ok else f"FAIL (delta {rel:.2e} > {row['tolerance_rel']:.2e})"
        print(
            f"{row['name']:<24}{row['correction_factor']:>12.5f}"
            f"{row['rate_published']:>16.4e}{row['rate_revised']:>16.4e}"
            f"{computed:>16.4e}{r_exp_s:>16}  {verdict}",
            file=out,
        )
    print(
        "note: experimental column is metadata only and takes no part in pass/fail",
        file=out,
    )
    return 0 if all_pass else 2


def cmd_optimize(config: ExperimentConfig, xi_range: tuple = None, out=None) -> int:
    """Search the equal-focusing family for the rate maximum."""
    out = out or sys.stdout
    if xi_range is None:
        blk = config.run.get("optimize", {})
        if not isinstance(blk, dict):
            raise ConfigError("run.optimize: must be an object")
        xi_range = (
            _number(blk.get("xi_min", 0.01), "run.optimize.xi_min"),
            _number(blk.get("xi_max", 10.0), "run.optimize.xi_max"),
        )
    lo, hi = xi_range
    if not (0.0 < lo < hi):
        raise ConfigError(f"optimize range must satisfy 0 < lo < hi, got {lo}:{hi}")
    material = config.material_optics()
    base = config.beam_triple()
    xi_opt, rate_max = focus_optimize(material, base, CONSTANTS, (lo, hi))
    best = equal_focus_beams(base, xi_opt)
    print(f"xi_opt:            {_fmt(xi_opt)}", file=out)
    print(f"pairs per s per mW: {_fmt(rate_max)}", file=out)
    print(f"waist_p at optimum: {_fmt(best.pump.w0)} m", file=out)
    print(f"waist_1 at optimum: {_fmt(best.signal.w0)} m", file=out)
    print(f"waist_2 at optimum: {_fmt(best.idler.w0)} m", file=out)
    return 0


def _parse_range(text: str, flag: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{flag}: expected lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{flag}: expected numbers, got {text!r}") from None
    return lo, hi


def _attach_ranges(argv: list) -> list:
    """Rewrite ``--range -2:2`` (argparse takes -2:2 for an option) as ``--range=-2:2``."""
    out = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and arg.startswith("-") and ":" in arg:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdc",
        description="Absolute brightness of Gaussian-beam SPDC sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="pair rate for one configuration")
    p_rate.add_argument("--config", required=True)
    p_rate.add_argument("--oracle", action="store_true",
                        help="also run the brute-force oracle and report the deviation")
    p_rate.add_argument("--tol", type=float, default=None,
                        help="quadrature tolerance for the oracle")
    p_rate.add_argument("--degenerate", action="store_true",
                        help="use the quadratic phase-matching numeric path")
    p_rate.add_argument("--kappa0", type=float, default=None,
                        help="GVD coefficient at degeneracy (s^2/m)")

    p_scan = sub.add_parser("scan", help="CSV of rate vs a swept variable")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--variable", required=True, choices=SCAN_VARIABLES)
    p_scan.add_argument("--range", required=True, dest="span",
                        help="lo:hi in SI units (xi dimensionless)")
    p_scan.add_argument("--points", required=True, type=int)
    p_scan.add_argument("--log", action="store_true",
                        help="log-spaced grid instead of linear")
    p_scan.add_argument("--out", default=None, help="CSV path (default stdout)")

    p_table = sub.add_parser("table", help="published-rate correction check")
    p_table.add_argument("--config", required=True, help="table fixture path")

    p_opt = sub.add_parser("optimize", help="maximize rate over equal focusing")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--xi-range", default=None,
                       help="lo:hi bracket for the focal parameter")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_ranges(argv))
    try:
        if args.command == "rate":
            config = load_config(args.config)
            return cmd_rate(
                config,
                oracle=args.oracle,
                tol=args.tol,
                degenerate=args.degenerate,
                kappa0=args.kappa0,
            )
        if args.command == "scan":
            config = load_config(args.config)
            lo, hi = _parse_range(args.span, "--range")
            if args.out:
                try:
                    fh = open(args.out, "w", encoding="utf-8")
                except OSError as exc:  # a directory, a missing parent, no permission
                    raise ConfigError(f"cannot write {args.out} ({exc.strerror})") from None
                with fh:
                    return cmd_scan(config, args.variable, lo, hi, args.points,
                                    args.log, out=fh)
            return cmd_scan(config, args.variable, lo, hi, args.points, args.log)
        if args.command == "table":
            rows = load_table_fixture(args.config)
            return cmd_table(rows)
        if args.command == "optimize":
            config = load_config(args.config)
            xi_range = (
                _parse_range(args.xi_range, "--xi-range")
                if args.xi_range else None
            )
            return cmd_optimize(config, xi_range)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except SpdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
