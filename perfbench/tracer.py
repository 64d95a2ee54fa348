"""Span tracing of the fracext layers, installed from outside the package.

``Tracer`` wraps the public functions of each fracext module and rebinds the
wrapper in every fracext module that imported the function by name
(``from .special import psi`` binds ``psi`` per module, so patching the
defining module alone would miss those call sites).  Each wrapped call
records a span: name, start, end, parent span and operation index.  Spans
stay in compact in-memory arrays until the benchmark writes them out.

The Macdonald kernel ``bessel_k`` (1.6e5 calls per ``verify``) and the
cached quadrature-grid builders are counted but get no span; their time is
part of the self time of the span that called them (for ``bessel_k``,
``special.psi``).

``layer_metrics`` turns spans and counters into the per-layer metrics the
benchmark reports, normalised per operation.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("special", "spectral", "extension", "numdiff", "weighted",
           "variational", "suite", "cli")

# the named checks of `fracext verify`, one `suite.<check>.ms` metric each
CHECK_NAMES = ("energy", "isometry", "virial", "dtn", "trace0", "taylor", "ode",
               "trace_ineq", "parts", "fourier", "minimize", "orthogonality",
               "nonexpansive", "commute", "holder_slope")

# counters kept besides the spans
COUNTERS = ("special.bessel_k.calls", "special.psi.points",
            "special.psi.distinct", "extension.extend.points",
            "weighted.quad_nodes", "variational.fe_nodes")


class Tracer:
    """Installable span recorder for one process."""

    def __init__(self):
        import fracext
        self.modules = {m: importlib.import_module(f"fracext.{m}")
                        for m in MODULES}
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self.counts = {name: [0] for name in COUNTERS}
        self._psi_args = []
        self._patches = self._build_patches(
            [fracext] + list(self.modules.values()))

    # -- patching ---------------------------------------------------------

    def _targets(self, short):
        m = self.modules[short]
        found = [(n, getattr(m, n)) for n in getattr(m, "__all__", ())
                 if inspect.isfunction(getattr(m, n, None))]
        if short == "cli":
            found.append(("main", m.main))
        if short == "weighted":
            found += [("_cells_geometric", m._cells_geometric),
                      ("_cells_log_transformed", m._cells_log_transformed)]
        return found

    def _build_patches(self, bind_in):
        patches = []
        for short in MODULES:
            for fname, original in self._targets(short):
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in bind_in:
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        suite = self.modules["suite"]
        registry = tuple((name, self._span(f"suite.{name}", fn))
                         for name, fn in suite._REGISTRY)
        patches.append((suite, "_REGISTRY", suite._REGISTRY, registry))
        return patches

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        if name == "special.bessel_k":
            return self._count_calls(fn, self.counts["special.bessel_k.calls"])
        if name.startswith("weighted._cells_"):
            return self._count_nodes(fn, self.counts["weighted.quad_nodes"])
        if name == "special.psi":
            return self._span(name, fn, self._record_psi_args)
        if name == "extension.extend":
            return self._span(name, fn, None, self._count_curve_points)
        if name == "variational.graded_mesh":
            return self._span(name, fn, None, self._count_fe_nodes)
        return self._span(name, fn)

    def _span(self, name, fn, on_args=None, on_result=None):
        nid = self._name_id(name)
        span_name, parent, op_index = self.span_name, self.parent, self.op_index
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(args)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            op_index.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_calls(fn, box):
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_nodes(fn, box):
        def wrapper(*args, **kwargs):
            nodes, weights = fn(*args, **kwargs)
            box[0] += nodes.size
            return nodes, weights
        wrapper.__wrapped__ = fn
        return wrapper

    def _record_psi_args(self, args):
        y = np.array(args[1], dtype=float).ravel()
        self.counts["special.psi.points"][0] += y.size
        self._psi_args.append((float(args[0]), y))

    def _count_curve_points(self, curve):
        self.counts["extension.extend.points"][0] += curve.values.size

    def _count_fe_nodes(self, mesh):
        self.counts["variational.fe_nodes"][0] += mesh.size

    # -- operations -------------------------------------------------------

    def run_op(self, index, fn, *args):
        """Run one benchmark operation traced, under a root span ``bench.op``.

        Returns ``(result, seconds)``; the time covers ``fn`` only, not the
        installation of the wrappers or the bookkeeping after the op.
        """
        root = self._span("bench.op", fn)
        self.op = index
        self.install()
        try:
            t0 = time.perf_counter()
            result = root(*args)
            return result, time.perf_counter() - t0
        finally:
            self.uninstall()
            self._close_op()

    def _close_op(self):
        """Fold the psi arguments of the finished operation into a count of
        distinct (s, y) pairs, so argument copies never outlive one op."""
        if self._psi_args:
            s = np.concatenate([np.full(y.size, s) for s, y in self._psi_args])
            y = np.concatenate([y for _, y in self._psi_args])
            pairs = np.unique(np.stack([s, y], axis=1), axis=0)
            self.counts["special.psi.distinct"][0] += pairs.shape[0]
        self._psi_args = []
        self.op = -1

    def spans(self):
        return SpanSet(list(self.names), *(np.array(a) for a in (
            self.span_name, self.parent, self.op_index, self.start, self.end)))

    def counters(self):
        return {name: box[0] for name, box in self.counts.items()}


class SpanSet:
    """Spans as parallel arrays; ``name`` indexes into ``names``."""

    def __init__(self, names, name, parent, op, start, end):
        self.names = list(names)
        self.name = np.asarray(name, np.int32)
        self.parent = np.asarray(parent, np.int32)
        self.op = np.asarray(op, np.int32)
        self.start = np.asarray(start, float)
        self.end = np.asarray(end, float)

    def save(self, path, meta=None):
        """Write the spans, plus a JSON-able ``meta`` dict, to an .npz file."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names, dtype=str), name=self.name,
                     parent=self.parent, op=self.op, start=self.start,
                     end=self.end, meta=np.array(json.dumps(meta or {})))

    @classmethod
    def load(cls, path):
        """(SpanSet, meta) from a file written by ``save``."""
        with np.load(path) as z:
            spans = cls(z["names"].tolist(), z["name"], z["parent"], z["op"],
                        z["start"], z["end"])
            return spans, json.loads(str(z["meta"]))

    @classmethod
    def concat(cls, sets):
        """One span set from several, with names and parents re-indexed."""
        ids = {}
        parts = {k: [np.zeros(0, np.int32)] for k in ("name", "parent", "op")}
        parts.update(start=[np.zeros(0)], end=[np.zeros(0)])
        offset = 0
        for s in sets:
            remap = np.array([ids.setdefault(n, len(ids)) for n in s.names],
                             np.int32)
            parts["name"].append(remap[s.name])
            parts["parent"].append(np.where(s.parent >= 0, s.parent + offset, -1))
            parts["op"].append(s.op)
            parts["start"].append(s.start)
            parts["end"].append(s.end)
            offset += s.name.size
        return cls(list(ids), *(np.concatenate(parts[k]) for k in
                                ("name", "parent", "op", "start", "end")))

    def by_name(self):
        """{name: (calls, inclusive_s, self_s)}; self time is the duration
        minus the time covered by direct child spans."""
        dur = self.end - self.start
        has_parent = self.parent >= 0
        own = dur - np.bincount(self.parent[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(self.name, minlength=n)
        incl = np.bincount(self.name, weights=dur, minlength=n)
        slf = np.bincount(self.name, weights=own, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(slf[i]))
                for i, name in enumerate(self.names)}


def layer_metrics(spans: SpanSet, counts: dict, n_ops: int, check_names,
                  import_ms: float, output_bytes: float,
                  overhead_pct: float) -> dict:
    """Per-layer metrics, each as {"value", "unit"}, normalised per op."""
    agg = spans.by_name()

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0] / n_ops

    def incl_ms(name):
        return agg.get(name, (0, 0.0, 0.0))[1] * 1e3 / n_ops

    def self_ms(name):
        return agg.get(name, (0, 0.0, 0.0))[2] * 1e3 / n_ops

    def layer_self_s(prefix):
        return sum(v[2] for k, v in agg.items() if k.startswith(prefix))

    def per(total_s, count):
        return total_s * 1e9 / count if count else 0.0

    psi_points = counts["special.psi.points"]
    fe_nodes = counts["variational.fe_nodes"]
    out = {
        "special.psi.calls": (calls("special.psi"), "calls/op"),
        "special.psi.points": (psi_points / n_ops, "points/op"),
        "special.psi.self_ms": (self_ms("special.psi"), "ms/op"),
        "special.psi.ns_per_point": (
            per(agg.get("special.psi", (0, 0, 0))[2], psi_points), "ns/point"),
        "special.bessel_k.calls": (
            counts["special.bessel_k.calls"] / n_ops, "calls/op"),
        "special.psi.distinct_ratio": (
            counts["special.psi.distinct"] / psi_points if psi_points else 0.0,
            "ratio"),
        "special.psi_deriv.calls": (calls("special.psi_deriv"), "calls/op"),
        "extension.extend.self_ms": (self_ms("extension.extend"), "ms/op"),
        "extension.extend.ns_per_point": (
            per(agg.get("extension.extend", (0, 0, 0))[1],
                counts["extension.extend.points"]), "ns/point"),
        "extension.trace0.self_ms": (self_ms("extension.trace0"), "ms/op"),
        "extension.conormal_trace.self_ms": (
            self_ms("extension.conormal_trace"), "ms/op"),
        "extension.derivative_curve.self_ms": (
            self_ms("extension.derivative_curve"), "ms/op"),
        "extension.ode_residual.self_ms": (
            self_ms("extension.ode_residual"), "ms/op"),
        "numdiff.apply_db.calls": (calls("numdiff.apply_db"), "calls/op"),
        "numdiff.power_fit_limit.calls": (
            calls("numdiff.power_fit_limit"), "calls/op"),
        "numdiff.power_fit_limit.self_ms": (
            self_ms("numdiff.power_fit_limit"), "ms/op"),
        "weighted.mode_energy.calls": (calls("weighted.mode_energy"), "calls/op"),
        "weighted.mode_energy.self_ms": (
            self_ms("weighted.mode_energy"), "ms/op"),
        "weighted.make_grid.calls": (calls("weighted.make_grid"), "calls/op"),
        "weighted.quad_nodes": (counts["weighted.quad_nodes"] / n_ops, "nodes/op"),
        "variational.minimize_curve.self_ms": (
            self_ms("variational.minimize_curve"), "ms/op"),
        "variational.minimize_profile.self_ms": (
            self_ms("variational.minimize_profile"), "ms/op"),
        "variational.minimize_negative.self_ms": (
            self_ms("variational.minimize_negative"), "ms/op"),
        "variational.fe_nodes": (fe_nodes / n_ops, "nodes/op"),
        "variational.ns_per_node": (
            per(layer_self_s("variational."), fe_nodes), "ns/node"),
        "spectral.self_ms": (layer_self_s("spectral.") * 1e3 / n_ops, "ms/op"),
    }
    for check in check_names:
        out[f"suite.{check}.ms"] = (incl_ms(f"suite.{check}"), "ms/op")
    out["cli.import_ms"] = (import_ms, "ms")
    out["cli.verify_ms"] = (incl_ms("cli.main"), "ms/op")
    out["cli.output_bytes"] = (output_bytes, "bytes/op")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
