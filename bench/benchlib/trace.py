"""Parent-linked call spans recorded around frkan's public functions.

The benchmark never edits the library.  In a traced run it replaces each
public function listed in ``TRACED`` with a wrapper that records one span
per call (name, start, end, parent span) and, for some functions, a count
such as rows or bytes.  A wrapper is installed at every place a caller
looks the name up: on the class for methods, and in every ``frkan``
module that bound the function under its own name (``frkan.layers``
imports ``basis_matrix`` from ``frkan.splines``, for example).  Spans stay
in memory until the run ends.

Spans and counts recorded inside a ``training.train`` call belong to
that call's model (the ``k``-th train call of a run trains the workload's
``k mod n``-th model), so per-model figures can be told apart.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from array import array
from functools import wraps

GROUP_SPAN = "training.train"   # spans under one of these belong to its model


class Tracer:
    """Spans of one single-threaded run, stored column-wise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # span name table
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("d")      # per-span count (rows, nodes, bytes), 0 if unused
        self.counters = {}       # (name, group span or -1) -> total not kept per span
        self.own_s = 0.0         # time spent in the wrappers outside the calls they time
        self._stack = []
        self._by_name = []
        self._indexed_at = -1

    def __len__(self):
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.n.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int):
        self.end[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed while span {popped} is open")

    def add(self, counter: str, amount: float, group: int = -1):
        key = (counter, group)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def total(self, counter: str, groups=None) -> float:
        """A counter summed over all groups, or over ``groups`` only."""
        return sum(v for (name, g), v in self.counters.items()
                   if name == counter and (groups is None or g in groups))

    def name_of(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def spans_named(self, name: str) -> list:
        """Indices of the spans called ``name``, in start order."""
        if self._indexed_at != len(self):
            self._by_name = [[] for _ in self.names]
            for i, k in enumerate(self.name_id):
                self._by_name[k].append(i)
            self._indexed_at = len(self)
        nid = self._name_ids.get(name)
        return [] if nid is None else self._by_name[nid]

    def ancestor(self, i: int, name: str) -> int:
        """The nearest enclosing span called ``name``, or -1."""
        nid = self._name_ids.get(name)
        p = self.parent[i]
        while p >= 0 and self.name_id[p] != nid:
            p = self.parent[p]
        return p

    def has_ancestor(self, i: int, name: str) -> bool:
        return self.ancestor(i, name) >= 0


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not counted twice.
    """
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s0, e0 = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s0), min(ends[c], e0)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e0 - s0) - covered)
    return out


# -- what gets wrapped ---------------------------------------------------------


def _grid(layer):
    """(a, b, K, dg) of a spline layer, whichever way it stores its grid."""
    g = getattr(layer, "kv", layer)
    return g.a, g.b, g.K, (g.b - g.a) / g.G


def _note_batch_in_span(tracer, i, args, kwargs, result):
    X = args[1]
    a, b, K, dg = _grid(args[0])
    inside = ((X >= a - K * dg) & (X <= b + K * dg)).sum()
    group = tracer.ancestor(i, GROUP_SPAN)
    tracer.add("splines.batch_in_span", float(inside), group)
    tracer.add("splines.batch_inputs", float(X.size), group)


def _note_tape_in_span(tracer, i, args, kwargs, result):
    layer, tape, xs = args[0], args[1], args[4]
    a, b, K, dg = _grid(layer)
    lo, hi = a - K * dg, b + K * dg
    group = tracer.ancestor(i, GROUP_SPAN)
    tracer.add("splines.tape_in_span", sum(1 for v in tape.values(xs) if lo <= v <= hi), group)
    tracer.add("splines.tape_inputs", len(xs), group)


def _note_rows(tracer, i, args, kwargs, result):
    tracer.n[i] = len(args[1])


def _note_tape_nodes(tracer, i, args, kwargs, result):
    tracer.n[i] = len(args[0])


def _note_basis(tracer, i, args, kwargs, result):
    rows = len(args[0])
    tracer.n[i] = rows
    # bytes of the dense (rows x bases) float64 result, computed from shapes
    tracer.add("splines.basis_matrix_bytes", rows * result.shape[1] * 8.0)


def _note_checkpoint_size(tracer, i, args, kwargs, result):
    tracer.n[i] = os.path.getsize(args[1])


# (module, class or None, attribute, span annotator or None)
TRACED = (
    ("autodiff", "Tape", "gradient_vector", _note_tape_nodes),
    ("splines", None, "basis_window_on_tape", None),
    ("splines", None, "basis_matrix", _note_basis),
    ("splines", None, "spline_eval", None),
    ("layers", "Network", "tape_forward", None),
    ("layers", "Network", "forward_batch", _note_rows),
    ("layers", "Network", "set_flat", None),
    ("layers", "Network", "assert_knots_sorted", None),
    ("layers", "KANLayer", "tape_forward", _note_tape_in_span),
    ("layers", "FRKANLayer", "tape_forward", _note_tape_in_span),
    ("layers", "MLPLayer", "tape_forward", None),
    ("layers", "LayerNorm", "tape_forward", None),
    ("layers", "KANLayer", "forward_batch", _note_batch_in_span),
    ("layers", "FRKANLayer", "forward_batch", _note_batch_in_span),
    ("layers", "MLPLayer", "forward_batch", None),
    ("layers", "LayerNorm", "forward_batch", None),
    ("layers", None, "save_checkpoint", _note_checkpoint_size),
    ("layers", None, "load_checkpoint", None),
    ("knots", None, "audit_network_knots", None),
    ("knots", None, "scan_breakpoints", None),
    ("training", None, "train", None),
    ("training", None, "regularized_loss", _note_rows),
    ("training", None, "adam_step", None),
    ("training", None, "evaluate", None),
    ("tasks", None, "generate_feynman", None),
    ("tasks", None, "generate_classification", None),
)

# The step clock of an untraced run: only training steps and the train
# calls they belong to are timed.
STEP_CLOCK = (("training", None, "train", None),
              ("training", None, "regularized_loss", None))


def span_name(module: str, cls: str | None, attr: str) -> str:
    return f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"


def _wrap(fn, name, tracer, note):
    clock = tracer.clock

    @wraps(fn)
    def wrapper(*args, **kwargs):
        entered = clock()
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if note is not None:
            note(tracer, i, args, kwargs, result)
        tracer.own_s += clock() - entered - (tracer.end[i] - tracer.start[i])
        return result
    return wrapper


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self):
        self._undo = []

    def install(self, tracer: Tracer, table=TRACED):
        frkan_modules = [m for k, m in sys.modules.items()
                         if (k == "frkan" or k.startswith("frkan.")) and m is not None]
        for module, cls, attr, note in table:
            owner_mod = sys.modules[f"frkan.{module}"]
            name = span_name(module, cls, attr)
            if cls is not None:
                owner = getattr(owner_mod, cls)
                original = owner.__dict__[attr]
                self._set(owner, attr, _wrap(original, name, tracer, note))
                continue
            original = getattr(owner_mod, attr)
            wrapper = _wrap(original, name, tracer, note)
            for m in frkan_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------------

CLASSES = ("KANLayer", "FRKANLayer", "MLPLayer", "LayerNorm")

# metric -> (kind, unit, span names).  "mean": mean wall time per call;
# "self": mean self time per call; "n": mean of the per-span count.
_SPAN_METRICS = {
    "autodiff.gradient_vector_ms": ("mean", "ms", ("autodiff.Tape.gradient_vector",)),
    "training.regularized_loss_ms": ("mean", "ms", ("training.regularized_loss",)),
    "training.regularized_loss_self_ms": ("self", "ms", ("training.regularized_loss",)),
    "training.adam_step_ms": ("mean", "ms", ("training.adam_step",)),
    "training.evaluate_ms": ("mean", "ms", ("training.evaluate",)),
    "layers.Network.tape_forward_ms": ("mean", "ms", ("layers.Network.tape_forward",)),
    **{f"layers.{c}.tape_forward_ms": ("mean", "ms", (f"layers.{c}.tape_forward",))
       for c in CLASSES},
    "layers.Network.set_flat_ms": ("mean", "ms", ("layers.Network.set_flat",)),
    "layers.Network.assert_knots_sorted_ms":
        ("mean", "ms", ("layers.Network.assert_knots_sorted",)),
    **{f"layers.{c}.forward_batch_ms": ("mean", "ms", (f"layers.{c}.forward_batch",))
       for c in CLASSES},
    "layers.save_checkpoint_ms": ("mean", "ms", ("layers.save_checkpoint",)),
    "layers.load_checkpoint_ms": ("mean", "ms", ("layers.load_checkpoint",)),
    "layers.checkpoint_bytes": ("n", "B", ("layers.save_checkpoint",)),
    "splines.basis_window_on_tape_us": ("mean", "us", ("splines.basis_window_on_tape",)),
    "splines.basis_matrix_ms": ("mean", "ms", ("splines.basis_matrix",)),
    "splines.basis_matrix_rows": ("n", "count", ("splines.basis_matrix",)),
    "splines.spline_eval_ms": ("mean", "ms", ("splines.spline_eval",)),
    "knots.audit_network_knots_ms": ("mean", "ms", ("knots.audit_network_knots",)),
    "knots.scan_breakpoints_self_ms": ("self", "ms", ("knots.scan_breakpoints",)),
    "tasks.generate_ms":
        ("mean", "ms", ("tasks.generate_feynman", "tasks.generate_classification")),
}
_SCALE = {"ms": 1e3, "us": 1e6}

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "autodiff.tape_nodes_per_sample": "count",
    **{k: unit for k, (_, unit, _) in _SPAN_METRICS.items()},
    "splines.basis_matrix_bytes_computed": "B",
    "splines.in_span_frac": "frac",
    "knots.forward_rows_per_audit": "count",
    "knots.forward_calls_per_audit": "count",
    "trace_overhead_frac": "frac",
}


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_groups(tracer: Tracer, labels) -> dict:
    """Train span index -> the label of the model it trained."""
    return {j: labels[k % len(labels)]
            for k, j in enumerate(tracer.spans_named(GROUP_SPAN))}


def _by_model(tracer: Tracer, name: str, groups: dict) -> dict:
    """Spans called ``name`` inside a train call, by model label."""
    out = {label: [] for label in groups.values()}
    for i in tracer.spans_named(name):
        g = tracer.ancestor(i, GROUP_SPAN)
        if g >= 0:
            out[groups[g]].append(i)
    return out


def step_times(tracer: Tracer, labels) -> dict:
    """Per model, the wall time in seconds of each of its training steps."""
    steps = _by_model(tracer, "training.regularized_loss", model_groups(tracer, labels))
    return {label: [tracer.end[i] - tracer.start[i] for i in idx]
            for label, idx in steps.items()}


def _in_span_frac(tracer: Tracer, groups=None) -> float:
    """Share of spline-layer inputs inside [a - K dg, b + K dg]: the tape's
    inputs where a tape was recorded, otherwise forward_batch's.  ``groups``
    limits the count to the spans under those train calls."""
    for kind in ("tape", "batch"):
        inputs = tracer.total(f"splines.{kind}_inputs", groups)
        if inputs:
            return tracer.total(f"splines.{kind}_in_span", groups) / inputs
    return 0.0


def per_model_figures(tracer: Tracer, labels) -> dict:
    """Tape nodes per sample, in-span share and median step time of each
    model a training workload trains; pooled per-layer metrics mix them."""
    groups = model_groups(tracer, labels)
    nodes = _by_model(tracer, "autodiff.Tape.gradient_vector", groups)
    rows = _by_model(tracer, "training.regularized_loss", groups)
    steps = step_times(tracer, labels)
    out = {}
    for label in labels:
        mine = {j for j, lab in groups.items() if lab == label}
        out[label] = {
            "autodiff.tape_nodes_per_sample": _ratio(
                sum(tracer.n[i] for i in nodes.get(label, ())),
                sum(tracer.n[i] for i in rows.get(label, ()))),
            "splines.in_span_frac": _in_span_frac(tracer, mine),
            "training.step_ms_p50": (statistics.median(steps[label]) * 1e3
                                     if steps.get(label) else 0.0),
        }
    return out


def per_layer_metrics(tracer: Tracer, selfs: list, overhead_frac: float) -> dict:
    """Per-layer metrics from one traced run, given each span's self time.

    A function the workload never called reads 0; the run checks
    separately that every function its workload is meant to exercise
    recorded spans.
    """
    out = {}
    for metric, (kind, unit, names) in _SPAN_METRICS.items():
        idx = [i for name in names for i in tracer.spans_named(name)]
        if kind == "n":
            out[metric] = _mean([tracer.n[i] for i in idx])
        elif kind == "self":
            out[metric] = _mean([selfs[i] for i in idx]) * _SCALE[unit]
        else:
            out[metric] = _mean([tracer.end[i] - tracer.start[i] for i in idx]) * _SCALE[unit]
    grads = tracer.spans_named("autodiff.Tape.gradient_vector")
    rows = tracer.spans_named("training.regularized_loss")
    out["autodiff.tape_nodes_per_sample"] = _ratio(sum(tracer.n[i] for i in grads),
                                                   sum(tracer.n[i] for i in rows))
    basis = tracer.spans_named("splines.basis_matrix")
    out["splines.basis_matrix_bytes_computed"] = _ratio(
        tracer.total("splines.basis_matrix_bytes"), len(basis))
    out["splines.in_span_frac"] = _in_span_frac(tracer)
    audits = tracer.spans_named("knots.audit_network_knots")
    in_audit = [i for i in tracer.spans_named("layers.Network.forward_batch")
                if tracer.has_ancestor(i, "knots.audit_network_knots")]
    out["knots.forward_rows_per_audit"] = _ratio(sum(tracer.n[i] for i in in_audit),
                                                 len(audits))
    out["knots.forward_calls_per_audit"] = _ratio(len(in_audit), len(audits))
    out["trace_overhead_frac"] = overhead_frac
    return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def span_summary(tracer: Tracer, selfs: list) -> dict:
    """Per span name: calls, total and self seconds, and parent names."""
    summary = {}
    for i in range(len(tracer)):
        name = tracer.name_of(i)
        entry = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "parents": {}})
        entry["calls"] += 1
        entry["total_s"] += tracer.end[i] - tracer.start[i]
        entry["self_s"] += selfs[i]
        p = tracer.parent[i]
        pname = tracer.name_of(p) if p >= 0 else None
        entry["parents"][str(pname)] = entry["parents"].get(str(pname), 0) + 1
    return summary
