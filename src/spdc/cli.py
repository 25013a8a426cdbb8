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
import functools
import itertools
import math
import os
import sys

from ._numpy import np
from .config import ExperimentConfig, load_config, load_table_fixture
from .errors import ConfigError, QuadratureError, SpdcError
from .materials import CONSTANTS
from .overlap import overlap_params
from .quadrature import ell_integral
from .rates import (
    apply_table_correction,
    closed_form_kernel,
    equal_focus_beams,
    equal_focus_waists,
    focus_optimize,
    pairs_closed_form,
    pairs_degenerate_numeric,
    pairs_via_bruteforce,
)

_FMT = "{:.11e}"  # 12 significant digits
_CSV_ROW = ",".join([_FMT] * 4 + ["{}"])  # x, rate, xi_agg, A+B+, status
SCAN_VARIABLES = ("xi", "waist", "Lz", "delta_k")
_RANGE_FLAGS = ("--range", "--xi-range")
# points one scan may have: bounds the grid before it is allocated
MAX_SCAN_POINTS = 1_000_000
CSV_HEADER = "x,pairs_per_s_per_mW,xi_agg,a_plus_b_plus,status"


def _fmt(value: float) -> str:
    return _FMT.format(value)


def cmd_rate(
    config: ExperimentConfig,
    oracle: bool = False,
    tol: float = None,
    degenerate: bool = False,
    kappa0: float = None,
) -> int:
    """Print the pair rate for one configuration."""
    material = config.material_optics()
    beams = config.beam_triple()
    quad_tol = config.quad_tol if tol is None else tol

    if degenerate:
        if kappa0 is None:
            raise ConfigError("--degenerate requires --kappa0 <s^2/m>")
        pump = config.pump_spec()
        res = pairs_degenerate_numeric(
            material, beams, pump, kappa0, CONSTANTS, quad_tol
        )
        print(f"method: degenerate numeric (kappa0 = {_fmt(kappa0)} s^2/m)")
        print(f"pairs per pump photon:  {_fmt(res.pairs_per_pump_photon)}")
        print(f"pairs per s per mW:     {_fmt(res.pairs_per_s_per_mW)}")
        print(f"xi_agg = {_fmt(res.xi_agg)}  A+B+ = {_fmt(res.a_plus_b_plus)}")
        print(f"quadrature error estimate: {res.quadrature_error_estimate:.3e}")
        return 0

    res = pairs_closed_form(material, beams, CONSTANTS)
    print(f"pairs per pump photon (closed form): {_fmt(res.pairs_per_pump_photon)}")
    print(f"pairs per s per mW (closed form):    {_fmt(res.pairs_per_s_per_mW)}")
    print(f"xi_agg = {_fmt(res.xi_agg)}  A+B+ = {_fmt(res.a_plus_b_plus)}")
    if oracle:
        pump = config.pump_spec()
        ref = pairs_via_bruteforce(material, beams, pump, CONSTANTS, quad_tol)
        dev = (ref.pairs_per_s_per_mW - res.pairs_per_s_per_mW) / res.pairs_per_s_per_mW \
            if res.pairs_per_s_per_mW != 0.0 else 0.0
        print(f"oracle pairs per s per mW (brute force): {_fmt(ref.pairs_per_s_per_mW)}")
        print(f"oracle relative deviation: {dev:+.3e}")
        print(f"oracle error estimate: {ref.quadrature_error_estimate:.3e}")
    return 0


def _scan_rows(config: ExperimentConfig, variable: str, grid: list):
    """Yield (rate, xi_agg, a_plus_b_plus, status) for each point of ``grid``.

    An xi, waist or Lz scan is one pass of ``closed_form_kernel`` over the
    whole grid; a row that fails any of the per-point checks is computed
    again with ``_point_row``, so that its status names the error. For
    delta_k the material, the beams, the closed form and the zero-phase
    axial integral are computed once, so that a point costs one
    ``ell_integral`` call. A step that raises leaves NaN for what it did
    not compute: when only the delta_k suppression fails, the closed-form
    xi_agg and A+B+ stay.
    """
    nan = math.nan
    if variable != "delta_k":
        for x, (rate, xi_agg, ab, ok) in zip(grid, _closed_form_pass(config, variable, grid)):
            yield (rate, xi_agg, ab, "ok") if ok else _point_row(config, variable, x)
        return
    kept = (nan, nan)  # the closed-form columns a failing row still shows
    try:
        material = config.material_optics()
        base = config.beam_triple()
        res = pairs_closed_form(material, base, CONSTANTS)
        kept = (res.xi_agg, res.a_plus_b_plus)
        params = overlap_params(base)
        zero = ell_integral(0.0, params.xi_agg, params.C_quad) ** 2
    except SpdcError as exc:
        yield from itertools.repeat((nan, *kept, type(exc).__name__), len(grid))
        return
    for x in grid:
        # on-axis suppression I(phi)^2 / I(0)^2 (I is real) at phi = delta_k Lz
        phi = x * base.crystal_length
        try:
            here = ell_integral(phi, params.xi_agg, params.C_quad) ** 2
        except SpdcError as exc:
            yield (nan, *kept, type(exc).__name__)
        else:
            yield (res.pairs_per_s_per_mW * (here / zero), *kept, "ok")


def _closed_form_pass(config: ExperimentConfig, variable: str, grid: list):
    """(rate, xi_agg, A+B+, ok) per point of an xi, waist or Lz grid, in one array pass.

    ``ok`` is true where the point passes every check of ``_point_row``.
    When the material or the configured beams fail, it is false throughout.
    """
    x = np.array(grid)
    try:
        material = config.material_optics()
        base = config.beam_triple()
        modes = (base.pump, base.signal, base.idler)
        waists, Lz = base.waists(), base.crystal_length
        # failing points give inf or NaN and ok false; xi <= 0 gives NaN or inf waists
        with np.errstate(all="ignore"):
            if variable == "xi":
                waists = equal_focus_waists(base, x)
            elif variable == "waist":
                waists = (x, x, x)
            else:
                Lz = x
            _, rate, xi_agg, ab, ok = closed_form_kernel(material, modes, waists, Lz,
                                                         CONSTANTS)
    except SpdcError:
        return itertools.repeat((math.nan, math.nan, math.nan, False), len(grid))
    return zip(rate.tolist(), xi_agg.tolist(), ab.tolist(), ok.tolist())


def _point_row(config: ExperimentConfig, variable: str, x: float) -> tuple:
    """One xi, waist or Lz scan row from the beams of that point alone."""
    try:
        material = config.material_optics()
        if variable == "xi":
            beams = equal_focus_beams(config.beam_triple(), x)
        elif variable == "waist":
            beams = dataclasses.replace(config, waist_p=x, waist_1=x, waist_2=x).beam_triple()
        else:
            beams = dataclasses.replace(config, crystal_length=x).beam_triple()
        point = pairs_closed_form(material, beams, CONSTANTS)
    except SpdcError as exc:
        return (math.nan, math.nan, math.nan, type(exc).__name__)
    return (point.pairs_per_s_per_mW, point.xi_agg, point.a_plus_b_plus, "ok")


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
    if not (2 <= points <= MAX_SCAN_POINTS):
        raise ConfigError(
            f"scan needs 2 to {MAX_SCAN_POINTS:,} points, got {points}"
        )
    if not (lo < hi):
        raise ConfigError(f"scan range must satisfy lo < hi, got {lo}:{hi}")
    if log_spacing and lo <= 0.0:
        raise ConfigError("log-spaced scans need a positive lower bound")
    # an infinite end, or hi - lo beyond the float range, gives non-finite points
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.geomspace(lo, hi, points) if log_spacing else np.linspace(lo, hi, points)
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"scan range {lo}:{hi} must give finite grid points")

    grid = grid.tolist()
    print(CSV_HEADER, file=out)
    for x, (rate, xi_agg, ab, status) in zip(grid, _scan_rows(config, variable, grid)):
        print(_CSV_ROW.format(x, rate, xi_agg, ab, status), file=out)
    return 0


def cmd_table(rows: list) -> int:
    """Check published rates against their correction factors."""
    all_pass = True
    header = (
        f"{'row':<24}{'factor':>12}{'R_published':>16}{'R_revised':>16}"
        f"{'computed':>16}{'R_exp':>16}  result"
    )
    print(header)
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
            f"{computed:>16.4e}{r_exp_s:>16}  {verdict}"
        )
    print("note: experimental column is metadata only and takes no part in pass/fail")
    return 0 if all_pass else 2


def cmd_optimize(config: ExperimentConfig, xi_range: tuple = None) -> int:
    """Search the equal-focusing family for the rate maximum."""
    lo, hi = config.xi_range if xi_range is None else xi_range
    if not (0.0 < lo < hi < math.inf):
        raise ConfigError(
            f"optimize range must satisfy 0 < lo < hi < inf, got {lo}:{hi}"
        )
    material = config.material_optics()
    base = config.beam_triple()
    xi_opt, rate_max = focus_optimize(material, base, CONSTANTS, (lo, hi))
    best = equal_focus_beams(base, xi_opt)
    print(f"xi_opt:            {_fmt(xi_opt)}")
    print(f"pairs per s per mW: {_fmt(rate_max)}")
    print(f"waist_p at optimum: {_fmt(best.pump.w0)} m")
    print(f"waist_1 at optimum: {_fmt(best.signal.w0)} m")
    print(f"waist_2 at optimum: {_fmt(best.idler.w0)} m")
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


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse that reports a usage error as ConfigError (exit 1), not exit 2.

    argparse words its messages "argument --x: ..."; the prefix goes, so
    they read like the package's own "--x: ..." ones.
    """

    def error(self, message):
        raise ConfigError(message.removeprefix("argument "))


def _attach_ranges(argv: list) -> list:
    """Rewrite ``--range -2:2`` (argparse takes -2:2 for an option) as ``--range=-2:2``."""
    out = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and arg.startswith("-") and ":" in arg:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process, as parsing leaves it unchanged."""
    parser = _Parser(
        prog="spdc",
        description="Absolute brightness of Gaussian-beam SPDC sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="pair rate for one configuration")
    p_rate.add_argument("--config", required=True)
    p_rate.add_argument("--oracle", action="store_true",
                        help="also run the brute-force oracle and report the deviation")
    p_rate.add_argument("--tol", type=_tolerance, default=None,
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


def _dispatch(argv: list) -> int:
    args = build_parser().parse_args(_attach_ranges(argv))
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
    # optimize: the required subparsers admit no other command
    config = load_config(args.config)
    xi_range = _parse_range(args.xi_range, "--xi-range") if args.xi_range else None
    return cmd_optimize(config, xi_range)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`spdc scan ... | head`): Python's
        # recipe points stdout at devnull so that the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
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
