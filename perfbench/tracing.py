"""Span tracer that wraps uqb2's public entry points from outside the package.

Nothing inside ``src/uqb2`` is changed.  ``Tracer.install`` replaces each
entry point in ``TARGETS`` by a wrapper at every place a caller looks it up:
every module of the package whose namespace holds the function (``cli`` and
``conformance`` import ``field_init`` by name, ``isoclass`` imports ``build``
from ``repmod``) and, for methods, the class.  ``uninstall`` puts the
originals back.

A timed wrapper records one span per call: name, start, end, parent span and
request id.  Spans stay in memory until ``write_spans``.  ``CycNum.mul`` is
only counted, because one call takes a few microseconds and timing it would
cost more than it measures.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

from uqb2 import cli, conformance, cyclotomic, expr, isoclass, lattice, linalg
from uqb2 import pbw, repmod, structure, torus

SPAN = "span"  # time every call
COUNT = "count"  # count calls only
OUTCOME = "outcome"  # time every call and count the calls that returned a true value

# (span name, owner, attribute, mode)
TARGETS = (
    ("cyclotomic.field_init", cyclotomic, "field_init", SPAN),
    ("cyclotomic.CycNum.invert", cyclotomic.CycNum, "invert", SPAN),
    ("cyclotomic.CycNum.mul", cyclotomic.CycNum, "__mul__", COUNT),
    ("pbw.PBWAlgebra.mul", pbw.PBWAlgebra, "mul", SPAN),
    ("pbw.PBWAlgebra.power_commutation_identity", pbw.PBWAlgebra, "power_commutation_identity", SPAN),
    ("structure.center_report", structure, "center_report", SPAN),
    ("structure.zt_power_identity", structure, "zt_power_identity", SPAN),
    ("torus.verify_embedding", torus, "verify_embedding", SPAN),
    ("torus.affine_center_checks", torus, "affine_center_checks", SPAN),
    ("lattice.smith_normal_form", lattice, "smith_normal_form", SPAN),
    ("lattice.nonneg_hilbert_basis", lattice, "nonneg_hilbert_basis", SPAN),
    ("linalg.mat_mul", linalg, "mat_mul", SPAN),
    ("linalg.SparseEchelon.insert", linalg.SparseEchelon, "insert", OUTCOME),
    ("linalg.nullspace", linalg, "nullspace", SPAN),
    ("linalg.mat_rank", linalg, "mat_rank", SPAN),
    ("repmod.build", repmod, "build", SPAN),
    ("repmod.verify_relations", repmod, "verify_relations", SPAN),
    ("repmod.is_simple", repmod, "is_simple", SPAN),
    ("repmod.central_character", repmod, "central_character", SPAN),
    ("isoclass.find_intertwiner", isoclass, "find_intertwiner", SPAN),
    ("isoclass.iso_predicate", isoclass, "iso_predicate", SPAN),
    ("expr.parse", expr, "parse", SPAN),
    ("expr.evaluate", expr, "evaluate", SPAN),
    ("cli.main", cli, "main", SPAN),
    ("conformance.run_conformance", conformance, "run_conformance", SPAN),
)


def _span_name(name, args):
    # one span name per m of the sweep, so the trace shows which m moved
    return "%s.m%d" % (name, args[0]) if name == "conformance.run_conformance" else name


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, request id)
        self.counts = {}  # count-only name -> calls
        self.outcomes = {}  # OUTCOME name -> calls that returned a true value
        self.request = None
        self._stack = []
        self._patches = self._plan()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, outcome):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if outcome:
            self.outcomes[name] = 0

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (_span_name(name, args), start, end, parent, self.request)
            if outcome and result:
                self.outcomes[name] += 1
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _plan(self):
        """(holder, attribute, original, wrapper) for every place a target is looked up."""
        package = [mod for key, mod in sys.modules.items() if key == "uqb2" or key.startswith("uqb2.")]
        patches = []
        for name, owner, attr, mode in TARGETS:
            original = owner.__dict__[attr]
            if mode == COUNT:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, mode == OUTCOME)
            # a method may sit under two names, as CycNum.__rmul__ = __mul__
            for holder in [owner] if isinstance(owner, type) else package:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original, wrapper))
        return patches

    def install(self):
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its wrapped children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self):
        """{name: {"calls", "busy_s", "self_s"}}; busy_s is inclusive time."""
        out = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += self_s
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})["calls"] = calls
        return out

    def write_spans(self, path):
        """Write the spans as gzip-compressed JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                }) + "\n")


# (metric name, span name, statistic, unit); the order is the print order
LAYER_METRICS = (
    ("cyclotomic.field_init.calls", "cyclotomic.field_init", "calls", "count"),
    ("cyclotomic.field_init.busy_s", "cyclotomic.field_init", "busy_s", "s"),
    ("cyclotomic.CycNum.invert.calls", "cyclotomic.CycNum.invert", "calls", "count"),
    ("cyclotomic.CycNum.invert.busy_s", "cyclotomic.CycNum.invert", "busy_s", "s"),
    ("cyclotomic.CycNum.mul.calls", "cyclotomic.CycNum.mul", "calls", "count"),
    ("pbw.PBWAlgebra.mul.calls", "pbw.PBWAlgebra.mul", "calls", "count"),
    ("pbw.PBWAlgebra.mul.busy_s", "pbw.PBWAlgebra.mul", "busy_s", "s"),
    ("pbw.PBWAlgebra.mul.self_s", "pbw.PBWAlgebra.mul", "self_s", "s"),
    ("pbw.PBWAlgebra.power_commutation_identity.busy_s",
     "pbw.PBWAlgebra.power_commutation_identity", "busy_s", "s"),
    ("structure.center_report.busy_s", "structure.center_report", "busy_s", "s"),
    ("structure.zt_power_identity.busy_s", "structure.zt_power_identity", "busy_s", "s"),
    ("torus.verify_embedding.busy_s", "torus.verify_embedding", "busy_s", "s"),
    ("torus.affine_center_checks.busy_s", "torus.affine_center_checks", "busy_s", "s"),
    ("lattice.smith_normal_form.busy_s", "lattice.smith_normal_form", "busy_s", "s"),
    ("lattice.nonneg_hilbert_basis.busy_s", "lattice.nonneg_hilbert_basis", "busy_s", "s"),
    ("linalg.mat_mul.calls", "linalg.mat_mul", "calls", "count"),
    ("linalg.mat_mul.busy_s", "linalg.mat_mul", "busy_s", "s"),
    ("linalg.SparseEchelon.insert.calls", "linalg.SparseEchelon.insert", "calls", "count"),
    ("linalg.SparseEchelon.insert.busy_s", "linalg.SparseEchelon.insert", "busy_s", "s"),
    ("linalg.SparseEchelon.insert.useful_ratio", "linalg.SparseEchelon.insert", "useful_ratio", "ratio"),
    ("linalg.nullspace.busy_s", "linalg.nullspace", "busy_s", "s"),
    ("linalg.mat_rank.busy_s", "linalg.mat_rank", "busy_s", "s"),
    ("repmod.build.busy_s", "repmod.build", "busy_s", "s"),
    ("repmod.verify_relations.busy_s", "repmod.verify_relations", "busy_s", "s"),
    ("repmod.is_simple.calls", "repmod.is_simple", "calls", "count"),
    ("repmod.is_simple.busy_s", "repmod.is_simple", "busy_s", "s"),
    ("repmod.is_simple.self_s", "repmod.is_simple", "self_s", "s"),
    ("repmod.central_character.busy_s", "repmod.central_character", "busy_s", "s"),
    ("isoclass.find_intertwiner.calls", "isoclass.find_intertwiner", "calls", "count"),
    ("isoclass.find_intertwiner.busy_s", "isoclass.find_intertwiner", "busy_s", "s"),
    ("isoclass.iso_predicate.busy_s", "isoclass.iso_predicate", "busy_s", "s"),
    ("expr.parse.busy_s", "expr.parse", "busy_s", "s"),
    ("expr.evaluate.self_s", "expr.evaluate", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
) + tuple(
    ("conformance.run_conformance.m%d.busy_s" % m, "conformance.run_conformance.m%d" % m, "busy_s", "s")
    for m in (5, 7, 8, 12, 16, 20)
)


def layer_metrics(tracer):
    """Every metric of LAYER_METRICS, 0 for a layer the workload never called."""
    totals = tracer.totals()
    out = {}
    for metric, name, stat, unit in LAYER_METRICS:
        entry = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if stat == "useful_ratio":
            value = tracer.outcomes.get(name, 0) / entry["calls"] if entry["calls"] else 0.0
        else:
            value = entry[stat]
        out[metric] = {"value": value, "unit": unit}
    return out


def top_self_times(tracer, requests=None, top=3):
    """The `top` span names by self time, over the spans of the given request ids."""
    totals = {}
    for (name, _, _, _, request), self_s in zip(tracer.spans, tracer.self_times()):
        if requests is None or request in requests:
            totals[name] = totals.get(name, 0.0) + self_s
    ranked = sorted(totals.items(), key=lambda item: -item[1])[:top]
    return [(name, round(value, 4)) for name, value in ranked]
