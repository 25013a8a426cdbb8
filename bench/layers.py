"""Per-layer metrics computed from the spans and counters of a traced run.

Totals (``.s``, ``.calls``, counts of evaluations) are per pass, so they can
be set against the end-to-end ``wall_s`` of the same workload. Times with a
``ms``/``us``/``ns`` unit are means per call (or per point, per phase value).
A layer that a workload does not touch reports 0.
"""

from __future__ import annotations

import numpy as np

Q, R, O, C, CLI = ("spdc.quadrature.", "spdc.rates.", "spdc.overlap.",
                   "spdc.config.", "spdc.cli.")
LAYERS = ("config", "materials", "beams", "overlap", "quadrature", "rates", "cli")

UNITS = {
    "import.spdc_s": "s",
    "import.scipy_integrate_s": "s",
    "config.load_config.ms.literal": "ms",
    "config.load_config.ms.dispersion": "ms",
    "config.load_config.calls": "count",
    "materials.index_evals": "count",
    "materials.index_eval_us": "us",
    "overlap.overlap_params.us": "us",
    "rates.pairs_closed_form.us": "us",
    "rates.pairs_closed_form.calls": "count",
    "rates.focus_optimize.ms": "ms",
    "rates.focus_optimize.closed_form_calls": "count",
    "cli.cmd_rate.self_ms": "ms",
    "cli.cmd_scan.self_ms_per_point": "ms",
    "cli.cmd_optimize.self_ms": "ms",
    "cli.cmd_table.ms": "ms",
    "quadrature.ell_integral.s": "s",
    "quadrature.ell_integral.calls": "count",
    "quadrature.ell_integral.phi_evals": "count",
    "quadrature.ell_integral.ns_per_phi": "ns",
    "rates.pairs_via_bruteforce.s.xi01": "s",
    "rates.pairs_via_bruteforce.s.xi1": "s",
    "rates.pairs_via_bruteforce.s.xi5": "s",
    "rates.pairs_degenerate_numeric.s": "s",
    "rates.bruteforce.phi_evals": "count",
    "rates.bruteforce.self_s": "s",
    "rates.pairs_via_bruteforce.max_rel_dev": "1",
    "quadrature.complex_quad.s": "s",
    "quadrature.complex_quad.calls": "count",
    "quadrature.complex_quad.integrand_evals": "count",
    "overlap.overlap_direct.unpoled_s": "s",
    "overlap.overlap_direct.poled_s": "s",
    "overlap.overlap_simplified.s": "s",
    "overlap.overlap_direct.max_rel_diff": "1",
    "overlap.overlap_direct.poled_max_rel_dev": "1",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "1",
}


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(tracer, passes: int, stats: dict, imports: dict,
                  untraced_s: float, traced_s: float) -> dict:
    cols = tracer.columns()
    ids = {name: i for i, name in enumerate(tracer.names)}
    span_kind = np.array([k for k, _ in tracer.op_meta], dtype=str)[cols["op"]]
    span_config = np.array([c or "" for _, c in tracer.op_meta], dtype=str)[cols["op"]]
    dur, self_t, work = cols["dur"], cols["self"], cols["work"]

    def spans(qualname):
        return cols["name"] == ids.get(qualname, -1)

    def per_pass(value):
        return float(value) / passes

    def mean(values):
        return float(values.mean()) if values.size else 0.0

    def leaf(qualnames):
        nids = [ids[q] for q in qualnames if q in ids]
        return (sum(tracer.leaf_calls[i] for i in nids),
                sum(tracer.leaf_time[i] for i in nids))

    m = {
        "import.spdc_s": imports.get("spdc", 0.0),
        "import.scipy_integrate_s": imports.get("scipy.integrate", 0.0),
    }

    load = spans(C + "load_config")
    m["config.load_config.ms.literal"] = mean(dur[load & (span_config == "literal")]) * 1e3
    m["config.load_config.ms.dispersion"] = \
        mean(dur[load & (span_config == "dispersion")]) * 1e3
    m["config.load_config.calls"] = per_pass(load.sum())
    n_index, t_index = leaf(["spdc.materials.refractive_index",
                             "spdc.materials.group_index"])
    m["materials.index_evals"] = per_pass(n_index)
    m["materials.index_eval_us"] = _ratio(t_index, n_index) * 1e6

    m["overlap.overlap_params.us"] = mean(dur[spans(O + "overlap_params")]) * 1e6
    closed = spans(R + "pairs_closed_form")
    m["rates.pairs_closed_form.us"] = mean(dur[closed]) * 1e6
    m["rates.pairs_closed_form.calls"] = per_pass(closed.sum())
    optimize = spans(R + "focus_optimize")
    m["rates.focus_optimize.ms"] = mean(dur[optimize]) * 1e3
    under_optimize = tracer.has_ancestor(cols, [R + "focus_optimize"])
    m["rates.focus_optimize.closed_form_calls"] = _ratio(
        (closed & under_optimize).sum(), optimize.sum())

    m["cli.cmd_rate.self_ms"] = mean(self_t[spans(CLI + "cmd_rate")]) * 1e3
    scan = spans(CLI + "cmd_scan")
    m["cli.cmd_scan.self_ms_per_point"] = _ratio(self_t[scan].sum(), work[scan].sum()) * 1e3
    m["cli.cmd_optimize.self_ms"] = mean(self_t[spans(CLI + "cmd_optimize")]) * 1e3
    m["cli.cmd_table.ms"] = mean(dur[spans(CLI + "cmd_table")]) * 1e3

    ell = spans(Q + "ell_integral")
    m["quadrature.ell_integral.s"] = per_pass(dur[ell].sum())
    m["quadrature.ell_integral.calls"] = per_pass(ell.sum())
    m["quadrature.ell_integral.phi_evals"] = per_pass(work[ell].sum())
    m["quadrature.ell_integral.ns_per_phi"] = _ratio(dur[ell].sum(), work[ell].sum()) * 1e9

    brute = spans(R + "pairs_via_bruteforce")
    for regime in ("xi01", "xi1", "xi5"):
        m[f"rates.pairs_via_bruteforce.s.{regime}"] = \
            per_pass(dur[brute & (span_kind == regime)].sum())
    degenerate = spans(R + "pairs_degenerate_numeric")
    m["rates.pairs_degenerate_numeric.s"] = per_pass(dur[degenerate].sum())
    ell_in_brute = ell & tracer.has_ancestor(
        cols, [R + "pairs_via_bruteforce", R + "pairs_degenerate_numeric"])
    m["rates.bruteforce.phi_evals"] = per_pass(work[ell_in_brute].sum())
    m["rates.bruteforce.self_s"] = per_pass(
        dur[brute | degenerate].sum() - dur[ell_in_brute].sum())
    m["rates.pairs_via_bruteforce.max_rel_dev"] = max(stats.get("oracle_rel_dev", [0.0]))

    cquad = spans(Q + "complex_quad")
    m["quadrature.complex_quad.s"] = per_pass(dur[cquad].sum())
    m["quadrature.complex_quad.calls"] = per_pass(cquad.sum())
    m["quadrature.complex_quad.integrand_evals"] = per_pass(work[cquad].sum())
    direct = spans(O + "overlap_direct")
    m["overlap.overlap_direct.unpoled_s"] = per_pass(dur[direct & (span_kind == "unpoled")].sum())
    m["overlap.overlap_direct.poled_s"] = per_pass(dur[direct & (span_kind == "poled")].sum())
    m["overlap.overlap_simplified.s"] = per_pass(dur[spans(O + "overlap_simplified")].sum())
    m["overlap.overlap_direct.max_rel_diff"] = max(stats.get("unpoled_rel_diff", [0.0]))
    m["overlap.overlap_direct.poled_max_rel_dev"] = max(stats.get("poled_rel_dev", [0.0]))

    for layer in LAYERS:
        prefix = f"spdc.{layer}."
        in_layer = np.array([n.startswith(prefix) for n in tracer.names], dtype=bool)
        span_self = self_t[in_layer[cols["name"]]].sum()
        leaf_self = sum(t for i, t in tracer.leaf_time.items() if in_layer[i])
        m[f"layer.{layer}.self_s"] = per_pass(span_self + leaf_self)

    m["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    return {name: float(m[name]) for name in UNITS}
