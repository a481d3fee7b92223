"""Span recorder for the traced run, attached to the library from outside.

`Recorder.install()` replaces every function named in LAYERS by a wrapper
that records one span per call: name, start, end, its own id, the id of the
enclosing span and the benchmark task it ran in.  Module-level functions
are replaced in every `chevtwist` module namespace that binds them, since
`cli` and `twist` import names directly; methods are replaced on their
class, a class name means its constructor, and a CLI command means its
click callback.  Self time is a span's duration minus the time its child
spans cover.  Scalar `FqElem` arithmetic is left unwrapped: a wrapper costs
about as much as the operation, so its time shows in its callers' self time.

Spans stay in memory and are written out at the end.  To bound memory, at
most SPANS_PER_TASK spans are kept per task; calls and self time still
count every call, and the span file records how many spans were dropped.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from array import array
from collections import Counter

import click

LAYERS = [
    "gf.Fq",
    "groups.enumerate_group",
    "groups.mul_stack",
    "groups.mul_left_stack",
    "groups.mul_pairwise",
    "groups.FiniteGroup.indices_of_stack",
    "groups.canonical_stack",
    "twist.twisted_orbits",
    "cli.reidemeister",
    "groups.FiniteGroup.cayley",
    "groups.FiniteGroup.inverse_indices",
    "twist.reidemeister_count",
    "twist.are_twisted_conjugate",
    "twist.twisted_orbit_of",
    "twist.twist_step",
    "twist.power_reduction_check",
    "groups.generators",
    "groups.is_member",
    "auts.GroupAut.__call__",
    "auts.GroupAut.compose",
    "cli.aut_compose",
    "groups.GrpElem.__mul__",
    "groups.GrpElem.inverse",
    "matrices.Mat.__mul__",
    "matrices.Mat.inverse",
    "matrices.Mat.det",
    "matrices.Mat.__pow__",
    "polyring.RatFrac",
    "polyring.poly_gcd",
    "polyring.Poly.__mul__",
    "polyring.Poly.__divmod__",
    "polyring.ring_automorphisms",
    "polyring.fixed_element",
    "polyring.factorize",
    "polyring.is_irreducible",
    "polyring.RingDesc.contains",
    "polyring.RingDesc.is_unit",
    "polyring.RingDesc.is_unit_of",
    "polyring.RingAut.__call__",
    "witness.trace_certificate",
    "witness.witness_sl",
    "witness.witness_sp",
    "witness.witness_so",
    "witness.power_identity_check",
    "witness.obstruction_report",
    "witness.explicit_conjugator",
    "witness.block_constraint_check",
    "witness.d4_tau_suite",
]

# Counters recorded at layer boundaries.  bytes_computed is the size of the
# operand and result stacks of one product, computed from array shapes, not
# measured traffic.
COUNTERS = {
    "groups.enumerate_group.cache_hits": "count",
    "groups.enumerate_group.elements": "count",
    "groups.mul_stack.bytes_computed": "B",
    "groups.mul_left_stack.bytes_computed": "B",
    "groups.mul_pairwise.bytes_computed": "B",
    "groups.FiniteGroup.indices_of_stack.lookups": "count",
    "twist.are_twisted_conjugate.true": "count",
    "twist.are_twisted_conjugate.false": "count",
    "twist.are_twisted_conjugate.unknown": "count",
    "twist.twisted_orbit_of.visited": "count",
    "polyring.ring_automorphisms.scanned": "count",
    "polyring.ring_automorphisms.kept": "count",
}

SPANS_PER_TASK = 200
SPAN_FIELDS = ["name", "start_ns", "end_ns", "id", "parent", "task"]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    units["fail_frac"] = "frac"
    return units


def _product_bytes(name):
    def hook(counts, args, result):
        counts[f"{name}.bytes_computed"] += args[1].nbytes + args[2].nbytes + result.nbytes
    return hook


def _lookups(counts, args, result):
    counts["groups.FiniteGroup.indices_of_stack.lookups"] += args[1].shape[0]


def _decision(counts, args, result):
    verdict = {True: "true", False: "false", None: "unknown"}[result[0]]
    counts[f"twist.are_twisted_conjugate.{verdict}"] += 1


def _visited(counts, args, result):
    counts["twist.twisted_orbit_of.visited"] += len(result)


def _automorphisms(counts, args, result):
    field = args[0].field
    # the candidate pool: e Frobenius powers times the q^3 - q PGL_2 cosets
    counts["polyring.ring_automorphisms.scanned"] += field.e * (field.q ** 3 - field.q)
    counts["polyring.ring_automorphisms.kept"] += len(result)


class Recorder:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.names = []
        self.spans = array("q")
        self.stack = []
        self.last_id = 0
        self.task = -1
        self.task_labels = []
        self.task_spans = 0
        self.dropped = 0
        self._undo = []
        self.enumerate_lru = None
        self._enumerated = weakref.WeakSet()
        self._task_name = self._name_id("task")

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _call(self, nid, name, hook, fn, args, kwargs):
        self.last_id += 1
        frame = [self.last_id, 0]
        parent = self.stack[-1][0] if self.stack else 0
        self.stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            if self.task_spans < SPANS_PER_TASK:
                self.spans.extend((nid, start, end, frame[0], parent, self.task))
                self.task_spans += 1
            else:
                self.dropped += 1
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        call = self._call

        def wrapper(*args, **kwargs):
            return call(nid, name, hook, fn, args, kwargs)

        return wrapper

    def run_task(self, label, fn):
        """Run one benchmark task as a root span."""
        self.task = len(self.task_labels)
        self.task_labels.append(label)
        self.task_spans = 0
        return self._call(self._task_name, "task", None, fn, (), {})

    def _enumerated_elements(self, counts, args, result):
        if result not in self._enumerated:  # a cache hit returns the same group
            self._enumerated.add(result)
            counts["groups.enumerate_group.elements"] += result.order

    def _hook(self, name):
        if name == "groups.enumerate_group":
            return self._enumerated_elements
        if name in ("groups.mul_stack", "groups.mul_left_stack", "groups.mul_pairwise"):
            return _product_bytes(name)
        return {
            "groups.FiniteGroup.indices_of_stack": _lookups,
            "twist.are_twisted_conjugate": _decision,
            "twist.twisted_orbit_of": _visited,
            "polyring.ring_automorphisms": _automorphisms,
        }.get(name)

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "chevtwist"]
        for name in LAYERS:
            module, *path = name.split(".")
            owner = importlib.import_module(f"chevtwist.{module}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            attr = path[-1]
            target = getattr(owner, attr)
            hook = self._hook(name)
            if isinstance(target, type):
                self._replace(target, "__init__", self.wrap(name, target.__init__, hook))
            elif isinstance(target, click.Command):
                self._replace(target, "callback", self.wrap(name, target.callback, hook))
            elif isinstance(owner, type):
                self._replace(owner, attr, self.wrap(name, target, hook))
            else:
                if name == "groups.enumerate_group":
                    self.enumerate_lru = target
                wrapper = self.wrap(name, target, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._replace(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def harvest_cache_hits(self):
        """Add enumerate_group's cache hits so far; call before each cache clear."""
        self.counts["groups.enumerate_group.cache_hits"] += self.enumerate_lru.cache_info().hits

    def metrics(self):
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            header = {"fields": SPAN_FIELDS, "names": self.names, "tasks": self.task_labels,
                      "spans_kept": len(self.spans) // len(SPAN_FIELDS), "spans_dropped": self.dropped}
            fh.write(json.dumps(header) + "\n")
            width = len(SPAN_FIELDS)
            for i in range(0, len(self.spans), width):
                fh.write(json.dumps(self.spans[i:i + width].tolist()) + "\n")
