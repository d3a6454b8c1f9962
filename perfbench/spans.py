"""
Tracing for the per-layer run: wrappers around each layer's public functions,
installed from outside the program at every module binding that holds them.

A span records its op (the request it belongs to), layer, start, end and
parent span.  A layer's self time is its spans' duration minus the time of
the traced calls made inside them.  Leaf calls that run millions of times
per pass (the order test ``leq``) are not recorded one by one: their count
and time are added to their layer and to the calling span.

Installing the wrappers replaces, in every ``wilfcollapse`` module, each
name bound to a wrapped function, because ``cli`` and ``engine`` import
names directly; ``engine`` obtains ``leq`` through ``leq_function``, so
that function is replaced by one handing out traced order tests.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# layer -> (module, name) of the public functions whose calls it covers
FUNCTIONS = {
    "encodings.generate": [("encodings", "generate")],
    "encodings.leq": [("encodings", "class_leq")],
    "engine.count": [("engine", "count_avoiders")],
    "engine.group": [
        ("engine", name)
        for name in (
            "wilf_classes",
            "canonical_groups",
            "verify_soundness",
            "verify_completeness",
            "collapse_rows",
            "gf_crosscheck",
        )
    ],
    "canonical.key": [
        ("canonical", name)
        for name in (
            "canonical_key",
            "canonical_partition",
            "canonical_pair",
            "canonical_class_count",
        )
    ],
    "genfun.gf": [
        ("genfun", name)
        for name in ("class_gf", "avoid_gf_layered", "avoid_gf_sum_word", "involve_gf_sum_word")
    ],
    "genfun.lis_poly": [("genfun", "lis_count_poly"), ("genfun", "reduced_lis_poly")],
    "genfun.roots": [("genfun", "lis_root"), ("genfun", "layered_root")],
    "cli": [("cli", "run")],
}

# layer -> (class in series, method name)
METHODS = {
    "series.normalize": [("RationalGF", "__post_init__")],
    "series.arith": [
        ("RationalGF", name) for name in ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__")
    ],
    "series.expand": [("RationalGF", "expand"), ("TruncSeries", "integers")],
}

LEAF = "encodings.leq"


def _after_generate(tracer, args, result, hit):
    if not hit:
        tracer.count("encodings.generate.elements", len(result))


def _after_normalize(tracer, args, result, hit):
    degree = args[0].den.degree
    if degree > tracer.counts["series.den_degree_max"]:
        tracer.counts["series.den_degree_max"] = degree


def _after_expand(tracer, args, result, hit):
    if len(args) > 1:  # RationalGF.expand(order); TruncSeries.integers() has none
        tracer.count("series.expand.coeffs", args[1] + 1)


def _after_root(tracer, args, result, hit):
    tracer.count("genfun.roots.found")


AFTER = {
    "encodings.generate": _after_generate,
    "series.normalize": _after_normalize,
    "series.expand": _after_expand,
    "genfun.roots": _after_root,
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # A frame is [time of traced calls inside it, span index, layer,
        # leaf calls inside it, their time]; the bottom frame stands for the
        # harness outside every op.
        self.stack = [[0.0, -1, "harness", 0, 0.0]]
        self.spans: list[tuple] = []  # (op, layer, start, end, parent span)
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.edges: Counter = Counter()  # (caller layer, callee layer) -> calls
        self.counts: Counter = Counter()
        self.op = -1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, layer: str, fn):
        """A traced stand-in for fn, attributing its calls to layer."""
        clock, stack, after = self.clock, self.stack, AFTER.get(layer)

        if layer == LEAF:
            # Kept minimal: it runs millions of times in a brute-force pass.
            def traced_leaf(*args):
                start = clock()
                result = fn(*args)
                duration = clock() - start
                frame = stack[-1]
                frame[0] += duration
                frame[3] += 1
                frame[4] += duration
                return result

            return traced_leaf

        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(self.spans)
            self.spans.append(None)
            frame = [0.0, index, layer, 0, 0.0]
            stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self.self_s[layer] += duration - frame[0]
                self.calls[layer] += 1
                self.edges[parent[2], layer] += 1
                self._add_leaf_calls(frame)
                self.spans[index] = (self.op, layer, start, end, parent[1])
            # An lru_cache hit runs no code, so it adds no miss.
            hit = cache_info is not None and cache_info().misses == misses
            self.hits[layer] += hit
            if after is not None:
                after(self, args, result, hit)
            return result

        return traced

    def _add_leaf_calls(self, frame: list) -> None:
        if frame[3]:
            self.calls[LEAF] += frame[3]
            self.self_s[LEAF] += frame[4]
            self.edges[frame[2], LEAF] += frame[3]
            frame[3], frame[4] = 0, 0.0

    def attributed_s(self) -> float:
        """Time inside traced calls: the sum of every layer's self time."""
        return self.stack[0][0]

    def summary(self) -> dict:
        self._add_leaf_calls(self.stack[0])
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "attributed_s": self.attributed_s(),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install() -> Tracer:
    """Wrap every traced layer of the imported wilfcollapse package."""
    tracer = Tracer()
    package = {
        name: module
        for name, module in list(sys.modules.items())
        if name == "wilfcollapse" or name.startswith("wilfcollapse.")
    }
    replace: dict[int, tuple] = {}
    for layer, targets in FUNCTIONS.items():
        for module, name in targets:
            original = getattr(package[f"wilfcollapse.{module}"], name)
            replace[id(original)] = (original, tracer.wrap(layer, original))

    encodings = package["wilfcollapse.encodings"]
    leq_function = encodings.leq_function
    traced_leq = {}

    def traced_leq_function(class_id):
        if class_id not in traced_leq:
            traced_leq[class_id] = tracer.wrap("encodings.leq", leq_function(class_id))
        return traced_leq[class_id]

    replace[id(leq_function)] = (leq_function, traced_leq_function)

    for module in package.values():
        for name, value in list(vars(module).items()):
            entry = replace.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])

    series = package["wilfcollapse.series"]
    for layer, targets in METHODS.items():
        for cls_name, name in targets:
            cls = getattr(series, cls_name)
            setattr(cls, name, tracer.wrap(layer, cls.__dict__[name]))
    return tracer
