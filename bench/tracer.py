"""Span tracer that wraps the public functions of the ``spdc`` modules.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds every public
module-level function of the traced modules, in every ``spdc`` namespace
that imported it, to a timing wrapper, and ``Tracer.uninstall`` puts the
originals back.

Two kinds of wrapper exist:

* span wrappers record one span per call (name, start, end, parent span,
  operation id, and a work count such as the number of phase values passed
  to ``ell_integral``) in flat in-memory columns;
* leaf wrappers, used for small functions called thousands of times per
  operation (Sellmeier evaluations, beam parameters inside quadrature
  integrands), only add to a call count and a busy time, so tracing does
  not flood memory.

A span's self time is its duration minus the time covered by its child
spans and by the leaf calls made directly under it. Spans are recorded only
on the thread that installed the tracer; the benchmark runs the program
single-threaded (``SPDC_THREADS`` unset).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

TRACED_MODULES = (
    "spdc.config",
    "spdc.materials",
    "spdc.beams",
    "spdc.overlap",
    "spdc.quadrature",
    "spdc.rates",
    "spdc.cli",
)

# cheap functions called per integrand node or per dispersion evaluation
LEAF_FUNCTIONS = frozenset({
    "spdc.materials.refractive_index",
    "spdc.materials.group_index",
    "spdc.materials.poling_profile",
    "spdc.beams.focal_parameter",
    "spdc.beams.scaled_beam_parameter",
    "spdc.overlap.aggregate_focal_parameter",
    "spdc.overlap.quadratic_coefficient",
    "spdc.overlap.normalization_coefficient",
    "spdc.overlap.a_plus_b_plus",
    "spdc.overlap.phase_mismatch_phi",
    "spdc.quadrature.gauss_legendre",
    "spdc.quadrature.panel_edges",
    "spdc.quadrature.panel_nodes",
    "spdc.rates.pairs_per_second",
    "spdc.rates.equal_focus_beams",
})


def _phi_count(args, kwargs):
    phi = args[0] if args else kwargs["phi"]
    return float(np.size(phi))


def _scan_points(args, kwargs):
    return float(args[4] if len(args) > 4 else kwargs["points"])


# work counted per span: phase values per ell_integral call, points per scan
WORK_COUNTERS = {
    "spdc.quadrature.ell_integral": _phi_count,
    "spdc.cli.cmd_scan": _scan_points,
}
COUNTED_INTEGRAND = "spdc.quadrature.complex_quad"


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.child = array("d")
        self.work = array("d")
        self.leaf_calls = defaultdict(int)
        self.leaf_time = defaultdict(float)
        self.op_meta: list = []
        self.active = False
        self._stack: list = []
        self._in_leaf = False
        self._op_id = -1
        self._thread = None
        self._patched: list = []

    # ----------------------------------------------------------- recording
    def name_id(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    def begin_op(self, kind: str, config_kind) -> int:
        """Tag the spans that follow with a new operation id."""
        self._op_id = len(self.op_meta)
        self.op_meta.append((kind, config_kind))
        return self._op_id

    def _mine(self) -> bool:
        return self.active and threading.get_ident() == self._thread

    def _span_wrapper(self, qualname, fn):
        nid = self.name_id(qualname)
        work_of = WORK_COUNTERS.get(qualname)
        counts_integrand = qualname == COUNTED_INTEGRAND

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            evals = [0]
            if counts_integrand:
                f = args[0]

                def counted(t):
                    evals[0] += 1
                    return f(t)

                args = (counted,) + args[1:]
            row = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.span_name.append(nid)
            self.parent.append(parent)
            self.op.append(self._op_id)
            self.child.append(0.0)
            self.work.append(work_of(args, kwargs) if work_of else 0.0)
            self._stack.append(row)
            t0 = time.perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.end[row] = t1
                if counts_integrand:
                    self.work[row] = float(evals[0])
                if parent >= 0:
                    self.child[parent] += t1 - t0

        return wrapper

    def _leaf_wrapper(self, qualname, fn):
        nid = self.name_id(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            self.leaf_calls[nid] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_leaf = False
                self.leaf_time[nid] += dt
                if self._stack:
                    self.child[self._stack[-1]] += dt

        return wrapper

    # ------------------------------------------------------------ patching
    def install(self):
        """Rebind every public function of the traced modules to a wrapper."""
        wrappers = {}
        for modname in TRACED_MODULES:
            module = sys.modules[modname]
            for name, fn in _public_functions(module):
                qualname = f"{modname}.{name}"
                make = (self._leaf_wrapper if qualname in LEAF_FUNCTIONS
                        else self._span_wrapper)
                wrappers[id(fn)] = (fn, make(qualname, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "spdc" and not modname.startswith("spdc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        self._thread = threading.get_ident()

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.active = False

    # ------------------------------------------------------------- results
    def columns(self) -> dict:
        """Span columns as numpy arrays (durations and self times in s)."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - np.frombuffer(self.child, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=float),
        }

    def has_ancestor(self, cols: dict, qualnames) -> np.ndarray:
        """Boolean per span: some strict ancestor is one of ``qualnames``."""
        ids = {self._name_ids[q] for q in qualnames if q in self._name_ids}
        parent = cols["parent"]
        name = cols["name"]
        hit = np.zeros(len(parent), dtype=bool)
        # parents are opened, hence numbered, before their children
        for i in range(len(parent)):
            p = parent[i]
            if p >= 0:
                hit[i] = hit[p] or name[p] in ids
        return hit

    def save(self, path):
        """Write every span and counter once, as one compressed npz file."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=cols["name"], start=cols["start"], end=cols["end"],
            parent=cols["parent"], op=cols["op"], work=cols["work"],
            op_kind=np.array([k for k, _ in self.op_meta], dtype=str),
            leaf_name=np.array(list(self.leaf_calls), dtype=np.int32),
            leaf_calls=np.array(list(self.leaf_calls.values()), dtype=np.int64),
            leaf_time=np.array([self.leaf_time[k] for k in self.leaf_calls]),
        )
