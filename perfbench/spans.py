"""Span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of every ``torsionlab``
module from outside the package: the program's source is not touched.
Functions copied into other modules by ``from .x import y`` are replaced in
every module that holds them, so callers in ``spectrum``, ``torsion``,
``harness``, ``families`` and ``cli`` see the wrapped version too.

Each wrapped call records one span (name, parent span, start, end) in flat
arrays kept in memory; the spans are written out once, at the end of the
run.  Hot leaf methods of the ring's value types (``Monomial``, ``Element``,
``RewriteRule``) and a few one-line helpers are counted, not spanned, so the
traced run stays close to the untraced one.

A span's self time is its duration minus the part covered by its child
spans; per-layer metrics are sums of self times and counts over groups of
span names.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
import types
import weakref
from array import array

PACKAGE = "torsionlab"
LAYERS = ("ring", "ideals", "spectrum", "torsion", "families", "harness",
          "dsl", "cli", "reports", "oracles")

# Value types and one-line helpers called hundreds of thousands of times per
# round: counted only.
COUNTED_CLASSES = ("ring.Monomial", "ring.Element", "ring.RewriteRule")
COUNTED_NAMES = (
    "ring.grlex_key",
    "ring.RingPresentation.is_normal",
    "ring.RingPresentation.check_variable_range",
)
# Private functions that are layer boundaries in their own right.
PRIVATE_SPANS = ("spectrum._witness_scan",)

ENUM = "ring.RingPresentation.normal_monomials_of_degree"
NF = "ring.RingPresentation.normal_form_monomial"
SCAN = "spectrum._witness_scan"
SATURATION = "ideals.ideal_saturation"
GAMMA = ("torsion.gamma_small_cyclic", "torsion.gamma_large_cyclic")
CLAIM = "families.WindowedClaim.run"
CLAIM_TAGS = ("idem50A", "idem50C", "nil40A", "nil40B", "nil40C", "nil40D")

# metric prefix -> span names whose calls and self time it sums
SPAN_GROUPS = {
    "ring.enum": (ENUM,),
    "ring.nf": (NF,),
    "ring.confluence": ("ring.check_local_confluence",),
    "ideals.contains": ("ideals.IdealHandle.contains_monomial",),
    "ideals.generators": ("ideals.IdealHandle.monomial_generators",),
    "ideals.lifted": ("ideals.IdealHandle.lifted_monomials",),
    "ideals.membership": ("ideals.ideal_membership",),
    "ideals.colon": ("ideals.ideal_colon", "ideals.ideal_colon_ideal"),
    "ideals.intersection": ("ideals.ideal_intersection",),
    "ideals.saturation": (SATURATION,),
    "ideals.minprimes": ("ideals.minimal_primes",),
    "spectrum.scan": (SCAN,),
    "torsion.gamma": GAMMA,
    "torsion.fairness": ("torsion.fairness_report",
                         "torsion.fairness_from_parts"),
    "torsion.bounded_exponent": ("torsion.bounded_torsion_exponent",),
    "families.instantiate": ("families.instantiate",),
    "harness.generate": ("harness.random_instance",),
    "harness.check": ("harness.check_instance",),
    "dsl.parse": ("dsl.parse",),
    "cli.execute": ("cli.execute",),
    "reports.render": ("reports.render",),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("ring.enum.calls", "count", "lower"),
    ("ring.enum.outer_calls", "count", "lower"),
    ("ring.enum.self_s", "s", "lower"),
    ("ring.enum.recompute_ratio", "ratio", "lower"),
    ("ring.nf.calls", "count", "lower"),
    ("ring.nf.self_s", "s", "lower"),
    ("ring.nf.distinct_ratio", "ratio", "higher"),
    ("ring.divides.calls", "count", "lower"),
    ("ring.mul.calls", "count", "lower"),
    ("ring.confluence.self_s", "s", "lower"),
    ("ideals.contains.calls", "count", "lower"),
    ("ideals.contains.self_s", "s", "lower"),
    ("ideals.generators.calls", "count", "lower"),
    ("ideals.lifted.calls", "count", "lower"),
    ("ideals.lifted.self_s", "s", "lower"),
    ("ideals.membership.calls", "count", "lower"),
    ("ideals.membership.self_s", "s", "lower"),
    ("ideals.colon.calls", "count", "lower"),
    ("ideals.colon.self_s", "s", "lower"),
    ("ideals.intersection.calls", "count", "lower"),
    ("ideals.saturation.calls", "count", "lower"),
    ("ideals.saturation.steps", "count", "lower"),
    ("ideals.saturation.self_s", "s", "lower"),
    ("ideals.minprimes.self_s", "s", "lower"),
    ("spectrum.scan.calls", "count", "lower"),
    ("spectrum.scan.distinct_ratio", "ratio", "higher"),
    ("spectrum.scan.self_s", "s", "lower"),
    ("torsion.gamma.calls", "count", "lower"),
    ("torsion.gamma.steps", "count", "lower"),
    ("torsion.gamma.self_s", "s", "lower"),
    ("torsion.fairness.self_s", "s", "lower"),
    ("torsion.bounded_exponent.self_s", "s", "lower"),
    ("families.instantiate.self_s", "s", "lower"),
) + tuple(("families.claim.self_s.%s" % tag, "s", "lower")
          for tag in CLAIM_TAGS) + (
    ("harness.generate.self_s", "s", "lower"),
    ("harness.check.self_s", "s", "lower"),
    ("dsl.parse.self_s", "s", "lower"),
    ("cli.execute.self_s", "s", "lower"),
    ("reports.render.self_s", "s", "lower"),
    ("oracles.calls", "count", "lower"),
) + tuple(("%s.self_s" % layer, "s", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
)


def _ideal_key(ideal):
    # Element.terms is a plain dict, read directly so the key costs no
    # counted calls.
    return tuple(tuple(g.terms) for g in ideal.generators)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {}
        self._ring_serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1).__next__
        self._enum_keys = set()
        self._nf_keys = set()
        self._scan_keys = set()
        self.steps = {SATURATION: 0, GAMMA[0]: 0, GAMMA[1]: 0}

    # ------------------------------------------------------------ recording

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def _open(self, nid):
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(self.clock())
        return sid

    def _close(self, sid):
        self.span_end[sid] = self.clock()
        self.stack.pop()

    def _span_wrapper(self, fn, name, observe=None):
        # _open and _close inlined: this wrapper runs about a million times
        # in a traced harness round.
        nid = self.name_id(name)
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _claim_wrapper(self, fn, tags):
        """WindowedClaim.run spans are named after the claim's family."""
        ids = {claim: self.name_id("%s.%s" % (CLAIM, tag))
               for claim, tag in tags.items()}
        fallback = self.name_id(CLAIM)

        def wrapper(claim, *args, **kwargs):
            sid = self._open(ids.get(claim, fallback))
            try:
                return fn(claim, *args, **kwargs)
            finally:
                self._close(sid)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _serial(self, ring):
        serial = self._ring_serials.get(ring)
        if serial is None:
            serial = self._ring_serials[ring] = self._next_serial()
        return serial

    def _observer(self, name):
        if name == ENUM:
            return lambda args, result: self._enum_keys.add(
                (self._serial(args[0]), args[1]))
        if name == NF:
            return lambda args, result: self._nf_keys.add(
                (self._serial(args[0]), args[1]))
        if name == SCAN:
            return lambda args, result: self._scan_keys.add(
                (self._serial(args[0].ring), _ideal_key(args[0]),
                 _ideal_key(args[1]), args[2]))
        if name in self.steps:
            def add_steps(args, result):
                self.steps[name] += result.steps
            return add_steps
        return None

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every public function and method of the package's layers."""
        for layer in LAYERS:
            importlib.import_module("%s.%s" % (PACKAGE, layer))
        modules = {name: module for name, module in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replaced = {}
        for modname, module in modules.items():
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                full = "%s.%s" % (layer, attr)
                if isinstance(obj, types.FunctionType):
                    if attr.startswith("_") and full not in PRIVATE_SPANS:
                        continue
                    replaced[obj] = self._wrap(obj, full)
                elif isinstance(obj, type) and not attr.startswith("_"):
                    self._wrap_class(obj, full, modules)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _wrap(self, fn, name):
        if name in COUNTED_NAMES:
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name, self._observer(name))

    def _wrap_class(self, cls, prefix, modules):
        counted = prefix in COUNTED_CLASSES
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            full = "%s.%s" % (prefix, attr)
            if isinstance(member, (classmethod, staticmethod)):
                inner = member.__func__
                wrapped = (self._count_wrapper(inner, full) if counted
                           else self._wrap(inner, full))
                setattr(cls, attr, type(member)(wrapped))
            elif isinstance(member, types.FunctionType):
                if full == CLAIM:
                    families = modules["%s.families" % PACKAGE]
                    tags = {claim: tag for tag, spec in families.FAMILIES.items()
                            for claim in spec.claims}
                    wrapped = self._claim_wrapper(member, tags)
                elif counted:
                    wrapped = self._count_wrapper(member, full)
                else:
                    wrapped = self._wrap(member, full)
                setattr(cls, attr, wrapped)

    # ------------------------------------------------------------ results

    def self_times(self):
        """(calls, self seconds) per span name, from the recorded spans."""
        n = len(self.span_start)
        child = [0.0] * n
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        # Children start after their parent, so they have larger ids.
        for sid in range(n - 1, -1, -1):
            duration = ends[sid] - starts[sid]
            nid = names[sid]
            calls[nid] += 1
            selfs[nid] += duration - child[sid]
            parent = parents[sid]
            if parent >= 0:
                child[parent] += duration
        return {name: (calls[i], selfs[i]) for i, name in enumerate(self.names)}

    def outer_calls(self, name):
        """Spans of this name whose parent span has another name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(1 for sid in range(len(names))
                   if names[sid] == nid
                   and (parents[sid] < 0 or names[parents[sid]] != nid))

    def per_layer(self, ops_per_s):
        """Every PER_LAYER metric as {name: value}."""
        table = self.self_times()

        def group(names):
            calls = sum(table.get(n, (0, 0.0))[0] for n in names)
            return calls, sum(table.get(n, (0, 0.0))[1] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for prefix, names in SPAN_GROUPS.items():
            out["%s.calls" % prefix], out["%s.self_s" % prefix] = group(names)
        enum_calls = out["ring.enum.calls"]
        out["ring.enum.outer_calls"] = self.outer_calls(ENUM)
        out["ring.enum.recompute_ratio"] = ratio(enum_calls, len(self._enum_keys))
        out["ring.nf.distinct_ratio"] = ratio(len(self._nf_keys), out["ring.nf.calls"])
        out["ring.divides.calls"] = self.counts.get("ring.Monomial.divides", [0])[0]
        out["ring.mul.calls"] = self.counts.get("ring.Monomial.mul", [0])[0]
        out["ideals.saturation.steps"] = self.steps[SATURATION]
        out["torsion.gamma.steps"] = self.steps[GAMMA[0]] + self.steps[GAMMA[1]]
        out["spectrum.scan.distinct_ratio"] = ratio(
            len(self._scan_keys), out["spectrum.scan.calls"])
        for tag in CLAIM_TAGS:
            out["families.claim.self_s.%s" % tag] = group(
                ("%s.%s" % (CLAIM, tag),))[1]
        for layer in LAYERS:
            names = [n for n in table if n.partition(".")[0] == layer]
            out["%s.calls" % layer], out["%s.self_s" % layer] = group(names)
        out["trace.spans"] = len(self.span_start)
        out["trace.ops_per_s"] = ops_per_s
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", self.span_name.typecode],
                        ["parent", self.span_parent.typecode],
                        ["start", self.span_start.typecode],
                        ["end", self.span_end.typecode]],
            "byteorder": sys.byteorder,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False
