"""Spans and counters recorded from outside the program.

The tracer swaps timing wrappers in for torbun's public functions while one
traced operation runs, and puts the originals back afterwards, so untraced
operations run the program exactly as shipped.  A function is replaced in
every torbun module namespace that holds it (for example both
`torbun.fans.fan_from_ray_lists` and `torbun.problem.fan_from_ray_lists`),
so calls between modules are seen too.  A few hot methods are replaced at
class level, and only counted.

A span records (operation id, span id, parent span id, name, start, end).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# span name, defining module, public function
FUNCTIONS = (
    ("problem.parse", "torbun.problem", "parse_problem"),
    ("fans.build", "torbun.fans", "fan_from_ray_lists"),
    ("fans.generic", "torbun.fans", "find_generic_vector"),
    ("fans.certify", "torbun.fans", "is_generic_diagonal"),
    ("lattice.snf", "torbun.lattice", "snf"),
    ("weights.mw_product", "torbun.weights", "mw_product"),
    ("weights.pairs", "torbun.weights", "displacement_pairs"),
    ("weights.balancing", "torbun.weights", "check_balancing"),
    ("equivariant.residue", "torbun.equivariant", "residue_sum"),
    ("equivariant.mult", "torbun.equivariant", "cone_equivariant_multiplicity"),
    ("equivariant.pp_to_mw", "torbun.equivariant", "pp_to_mw"),
    ("presentations.reduce", "torbun.presentations", "reduce_product"),
    ("presentations.oracle", "torbun.presentations", "poincare_dual_mw"),
    ("presentations.presentation", "torbun.presentations", "homology_presentation"),
    ("presentations.presentation", "torbun.presentations", "equivariant_presentation"),
)

# span name, defining module, class, method; timed at class level
METHODS = (
    ("problem.weight", "torbun.problem", "Problem", "weight"),
    ("polyhedra.dim", "torbun.polyhedra", "Polyhedron", "dim"),
    ("polyhedra.is_empty", "torbun.polyhedra", "Polyhedron", "is_empty"),
)

# counter name, defining module, class, method; counted only
COUNTED = (
    ("polyhedra.built", "torbun.polyhedra", "Polyhedron", "__init__"),
    ("algebra.mul_calls", "torbun.algebra", "AlgebraElement", "__mul__"),
    ("polynomials.lf_add_calls", "torbun.polynomials", "LinearFraction", "__add__"),
)

# public memoised functions whose cache_info() feeds hit ratios and sizes
MEMOS = (
    ("is_generic_diagonal", "torbun.fans", "is_generic_diagonal"),
    ("is_face", "torbun.fans", "is_face"),
    ("cone_sublattice", "torbun.fans", "cone_sublattice"),
    ("normal_generator", "torbun.lattice", "normal_generator"),
)


def _torbun_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "torbun" or name.startswith("torbun."))]


def clear_memos():
    """Empty every module-level memo of the program, as a fresh process has."""
    seen = set()
    for module in _torbun_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()


@dataclass
class OpTrace:
    spans: list = field(default_factory=list)  # [name, span id, parent id, start, end]
    counts: Counter = field(default_factory=Counter)
    memo_delta: dict = field(default_factory=dict)  # memo -> (hits, misses)
    memo_size: dict = field(default_factory=dict)  # memo -> entries after the op
    generic_attempts: int = 0


class Tracer:
    """Installs the wrappers around one operation at a time."""

    def __init__(self):
        self.missing = []  # span, counter and "memo <label>" names not found
        self._patches = []  # (owner, attribute, original, replacement)
        self._stack = []
        self.current: OpTrace | None = None
        self.memos = {}
        for label, mod, attr in MEMOS:
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is not None and callable(getattr(fn, "cache_info", None)):
                self.memos[label] = fn
            else:
                self.missing.append(f"memo {label}")
        self._plan()

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = tracer.current
            parent = tracer._stack[-1] if tracer._stack else None
            record = [name, len(trace.spans), parent, 0.0, 0.0]
            trace.spans.append(record)
            tracer._stack.append(record[1])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer._stack.pop()
            if name == "fans.generic" and isinstance(result, tuple) and len(result) == 2:
                trace.generic_attempts += result[1]  # find_generic_vector returns (v, attempts)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.current.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _plan(self):
        modules = _torbun_modules()
        for name, mod, attr in FUNCTIONS:
            original = getattr(sys.modules.get(mod), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            replacement = self._timed(name, original)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, replacement))
        for name, mod, cls_name, attr in METHODS + COUNTED:
            cls = getattr(sys.modules.get(mod), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._timed(name, original.func))
                replacement.__set_name__(cls, attr)
            elif (name, mod, cls_name, attr) in COUNTED:
                replacement = self._counted(name, original)
            else:
                replacement = self._timed(name, original)
            self._patches.append((cls, attr, original, replacement))

    # -- one traced operation -----------------------------------------------------

    def run(self, fn, *args):
        """Call fn(*args) with every wrapper installed; return its result and
        the OpTrace of the call."""
        trace = OpTrace()
        before = {k: m.cache_info() for k, m in self.memos.items()}
        self.current = trace
        for owner, key, _original, replacement in self._patches:
            setattr(owner, key, replacement)
        try:
            result = fn(*args)
        finally:
            for owner, key, original, _replacement in self._patches:
                setattr(owner, key, original)
            self.current = None
            self._stack.clear()
        for k, m in self.memos.items():
            after = m.cache_info()
            trace.memo_delta[k] = (after.hits - before[k].hits, after.misses - before[k].misses)
            trace.memo_size[k] = after.currsize
        return result, trace


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics


def _child_time(trace: OpTrace) -> Counter:
    """Span id -> summed duration of its direct children."""
    children = Counter()
    for s in trace.spans:
        if s[2] is not None:
            children[s[2]] += s[4] - s[3]
    return children


def _durations(trace: OpTrace, names, self_time=False):
    """Total time (s) of the spans named in `names`, counting a span nested in
    another one of `names` only once; with self_time, minus direct children."""
    by_id = {s[1]: s for s in trace.spans}
    children = _child_time(trace)
    total = 0.0
    for s in trace.spans:
        if s[0] not in names:
            continue
        parent = s[2]
        nested = False
        while parent is not None:
            if by_id[parent][0] in names:
                nested = True
                break
            parent = by_id[parent][2]
        if nested:
            continue
        total += (s[4] - s[3]) - (children[s[1]] if self_time else 0.0)
    return total


def _calls(trace: OpTrace, name):
    return sum(1 for s in trace.spans if s[0] == name)


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def _per_op(fn):
    return lambda traces: sum(fn(t) for t in traces) / len(traces)


def _ms(names, self_time=False):
    return _per_op(lambda t: 1000.0 * _durations(t, set(names), self_time))


def _hit_ratio(memo):
    def f(traces):
        hits = sum(t.memo_delta[memo][0] for t in traces)
        misses = sum(t.memo_delta[memo][1] for t in traces)
        return _ratio(hits, misses)

    return f


# metric name -> (unit, function of the list of OpTraces, the spans, counters
# and memos it reads); values are means per operation, except hit ratios
# (over all traced operations) and memo entries (the most seen after one)
LAYER_METRICS = {
    "problem.parse_ms": ("ms", _ms(["problem.parse"], self_time=True), ["problem.parse"]),
    "problem.weight_ms": ("ms", _ms(["problem.weight"]), ["problem.weight"]),
    "fans.build_ms": ("ms", _ms(["fans.build"]), ["fans.build"]),
    "fans.build_calls": ("count", _per_op(lambda t: _calls(t, "fans.build")), ["fans.build"]),
    "fans.generic_ms": ("ms", _ms(["fans.generic"]), ["fans.generic"]),
    "fans.generic_attempts": ("count", _per_op(lambda t: t.generic_attempts), ["fans.generic"]),
    "fans.certify_calls": (
        "count",
        _per_op(lambda t: sum(t.memo_delta["is_generic_diagonal"])),
        ["memo is_generic_diagonal"],
    ),
    "fans.certify_hit_ratio": ("ratio", _hit_ratio("is_generic_diagonal"), ["memo is_generic_diagonal"]),
    "fans.is_face_hit_ratio": ("ratio", _hit_ratio("is_face"), ["memo is_face"]),
    "fans.memo_entries": (
        "count",
        lambda traces: max(
            sum(t.memo_size[k] for k in ("is_generic_diagonal", "is_face", "cone_sublattice")) for t in traces
        ),
        ["memo is_generic_diagonal", "memo is_face", "memo cone_sublattice"],
    ),
    "polyhedra.built": ("count", _per_op(lambda t: t.counts["polyhedra.built"]), ["polyhedra.built"]),
    "polyhedra.fm_ms": ("ms", _ms(["polyhedra.dim", "polyhedra.is_empty"]), ["polyhedra.dim", "polyhedra.is_empty"]),
    "polyhedra.dim_calls": ("count", _per_op(lambda t: _calls(t, "polyhedra.dim")), ["polyhedra.dim"]),
    "lattice.snf_calls": ("count", _per_op(lambda t: _calls(t, "lattice.snf")), ["lattice.snf"]),
    "lattice.snf_ms": ("ms", _ms(["lattice.snf"]), ["lattice.snf"]),
    "lattice.normal_generator_hit_ratio": ("ratio", _hit_ratio("normal_generator"), ["memo normal_generator"]),
    "lattice.memo_entries": (
        "count",
        lambda traces: max(t.memo_size["normal_generator"] for t in traces),
        ["memo normal_generator"],
    ),
    "polynomials.lf_add_calls": (
        "count",
        _per_op(lambda t: t.counts["polynomials.lf_add_calls"]),
        ["polynomials.lf_add_calls"],
    ),
    "algebra.mul_calls": ("count", _per_op(lambda t: t.counts["algebra.mul_calls"]), ["algebra.mul_calls"]),
    "weights.mw_product_ms": ("ms", _ms(["weights.mw_product"]), ["weights.mw_product"]),
    "weights.pairs_ms": ("ms", _ms(["weights.pairs"]), ["weights.pairs"]),
    "weights.balancing_ms": ("ms", _ms(["weights.balancing"]), ["weights.balancing"]),
    "weights.balancing_calls": ("count", _per_op(lambda t: _calls(t, "weights.balancing")), ["weights.balancing"]),
    "equivariant.residue_ms": ("ms", _ms(["equivariant.residue"]), ["equivariant.residue"]),
    "equivariant.residue_calls": (
        "count",
        _per_op(lambda t: _calls(t, "equivariant.residue")),
        ["equivariant.residue"],
    ),
    "equivariant.mult_ms": ("ms", _ms(["equivariant.mult"]), ["equivariant.mult"]),
    "equivariant.pp_to_mw_ms": ("ms", _ms(["equivariant.pp_to_mw"]), ["equivariant.pp_to_mw"]),
    "presentations.reduce_ms": ("ms", _ms(["presentations.reduce"]), ["presentations.reduce"]),
    "presentations.reduce_calls": (
        "count",
        _per_op(lambda t: _calls(t, "presentations.reduce")),
        ["presentations.reduce"],
    ),
    "presentations.oracle_ms": ("ms", _ms(["presentations.oracle"]), ["presentations.oracle"]),
    "presentations.presentation_ms": (
        "ms",
        _ms(["presentations.presentation"]),
        ["presentations.presentation"],
    ),
}


def layer_metrics(tracer: Tracer, traces):
    """Per-layer metrics over the traced operations, plus the names of those
    that are absent because the program no longer has what they read."""
    missing = set(tracer.missing)
    out = {}
    absent = []
    for name, (unit, fn, needs) in LAYER_METRICS.items():
        if not traces or missing.intersection(needs):
            absent.append(name)
        else:
            out[name] = (fn(traces), unit)
    return out, absent


def span_summary(traces):
    """Per span name: calls, inclusive seconds and self seconds, summed."""
    out = {}
    for t in traces:
        children = _child_time(t)
        for s in t.spans:
            calls, incl, self_ = out.get(s[0], (0, 0.0, 0.0))
            d = s[4] - s[3]
            out[s[0]] = (calls + 1, incl + d, self_ + d - children[s[1]])
    return out
