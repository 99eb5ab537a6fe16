"""Span recorder for the traced run, kept outside the program under test.

``install`` wraps every public function of polylat's layer modules and
rebinds the wrapper wherever a caller looks the name up: the package
namespace, each module's globals (``from .gfseries import gf_coeffs`` in
``counting`` binds its own name; ``oracle.enum_plateau`` in ``verify`` is
looked up in ``oracle``'s globals) and dicts of functions held in module
globals (``cli._COUNTERS``, ``counting._AUTHORITATIVE``). Nothing under
``src/`` changes, and ``uninstall`` restores every binding.

A call that enters a layer from another layer (or from the benchmark)
records a span: name, layer, start, end, parent span, operation id and the
calling layer. A call from inside the same layer runs unrecorded, except
the verify suites, which always get a span so each has its own time.
Functions called very often are aggregated into one count and one time per
layer instead of a span each, and generators are timed per ``next``; both
must be leaves (they call no other layer). Self time is a span's duration
minus its child spans and the aggregated time spent inside it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("combinatorics", "gfseries", "counting", "oracle", "asymptotics", "verify", "cli")
SUITES = ("delannoy", "vandermonde", "lemma41", "tables", "bijection", "asymptotics")

# Aggregated instead of one span per call: layer -> names (None: every function).
AGGREGATED = {
    "combinatorics": None,
    "oracle": {"project", "unproject", "lateral_area_voxels", "is_face_connected",
               "format_cc", "format_plateau", "parse_cc", "parse_plateau"},
}

NAME, LAYER, START, END, PARENT, OP, CALLER = range(7)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "combinatorics.calls": "count",
    "combinatorics.self_s": "s",
    "gfseries.gf_coeffs.calls": "count",
    "gfseries.gf_coeffs.terms": "count",
    "gfseries.self_s": "s",
    "counting.calls": "count",
    "counting.self_s": "s",
    "counting.series_expansions": "count",
    "counting.cache_lookups": "count",
    "counting.cache_hit_ratio": "ratio",
    "oracle.calls": "count",
    "oracle.objects": "count",
    "oracle.self_s": "s",
    "oracle.objects_per_s": "1/s",
    "oracle.workers2_speedup": "ratio",
    "asymptotics.fit_family.calls": "count",
    "asymptotics.self_s": "s",
    **{f"verify.suite.{suite}.s": "s" for suite in SUITES},
    "verify.checks.fail": "count",
    "verify.checks.paper_discrepancy": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[tuple[str, int | None]] = []  # (layer, span index; None for an aggregated call)
        self.inside: dict[int, float] = defaultdict(float)  # span index -> aggregated seconds inside it
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])  # layer -> [calls, seconds]
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._patches: list[tuple[dict, object, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _counter(self, qualname: str):
        """The per-function counts to update after each call, or None."""
        counts = self.counts
        if qualname == "gfseries.gf_coeffs":
            def count(caller, result):
                counts["gfseries.gf_coeffs.calls"] += 1
                counts["gfseries.gf_coeffs.terms"] += len(result)
                if caller == "counting":
                    counts["counting.series_expansions"] += 1
        elif qualname in ("counting.count_cc", "counting.r_gf"):
            def count(caller, result):
                counts["counting.cache_lookups"] += 1
        elif qualname == "asymptotics.fit_family":
            def count(caller, result):
                counts["asymptotics.fit_family.calls"] += 1
        elif qualname.startswith("oracle.enum_") or qualname == "oracle.dump_objects":
            def count(caller, result):
                if caller != "oracle":
                    counts["oracle.objects"] += result
        else:
            count = None
        return count

    def _span_wrapper(self, layer: str, qualname: str, fn, stage: bool):
        spans, stack = self.spans, self.stack
        count = self._counter(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else "bench"
            if caller == layer and not stage:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                span = [qualname, layer, 0.0, 0.0, stack[-1][1] if stack else None, self.op, caller]
                spans.append(span)
                stack.append((layer, index))
                span[START] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    stack.pop()
            if count:
                count(caller, result)
            return result

        return wrapper

    def _aggregate(self, layer: str, seconds: float) -> None:
        hot = self.hot[layer]
        hot[1] += seconds
        if self.stack and self.stack[-1][1] is not None:
            self.inside[self.stack[-1][1]] += seconds

    def _aggregated_wrapper(self, layer: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            self.hot[layer][0] += 1
            stack.append((layer, None))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                self._aggregate(layer, seconds)

        return wrapper

    def _generator_wrapper(self, layer: str, fn):
        stack = self.stack

        def timed(gen):
            self.hot[layer][0] += 1
            while True:
                stack.append((layer, None))
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    seconds = perf_counter() - start
                    stack.pop()
                    self._aggregate(layer, seconds)
                self.counts[f"{layer}.objects"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return timed(fn(*args, **kwargs))

        return wrapper

    def wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(layer, fn)
        names = AGGREGATED.get(layer, set())
        if layer in AGGREGATED and (names is None or name in names):
            return self._aggregated_wrapper(layer, fn)
        stage = layer == "verify" and name.startswith("suite_")
        return self._span_wrapper(layer, f"{layer}.{name}", fn, stage)

    # -- installation -----------------------------------------------------

    def _rebind(self, namespace: dict, wrappers: dict, depth: int = 0) -> None:
        for key, value in list(namespace.items()):
            if isinstance(key, str) and key.startswith("__"):
                continue
            if inspect.isfunction(value) and id(value) in wrappers:
                self._patches.append((namespace, key, value))
                namespace[key] = wrappers[id(value)]
            elif isinstance(value, dict) and depth < 2:
                self._rebind(value, wrappers, depth + 1)

    def install(self, package) -> "Tracer":
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
        # A fully aggregated layer is a leaf that other modules reach only by
        # names they import, so its own globals stay unwrapped.
        owners = [module for layer, module in zip(LAYERS, modules) if AGGREGATED.get(layer, ()) is not None]
        for namespace in [vars(package)] + [vars(module) for module in owners]:
            self._rebind(namespace, wrappers)
        return self

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_times(self) -> tuple[Counter, dict, dict]:
        """(entry calls, self seconds, entry seconds) per layer."""
        calls, self_s, entry_s = Counter(), defaultdict(float), defaultdict(float)
        children = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            layer = span[LAYER]
            self_s[layer] += duration - children[index] - self.inside.get(index, 0.0)
            if span[CALLER] != layer:
                calls[layer] += 1
                entry_s[layer] += duration
        for layer, (n, seconds) in self.hot.items():
            calls[layer] += n
            self_s[layer] += seconds
            entry_s[layer] += seconds
        return calls, self_s, entry_s

    def layer_seconds_by_op(self, layer: str) -> dict[int, float]:
        by_op = defaultdict(float)
        for span in self.spans:
            if span[LAYER] == layer and span[CALLER] != layer:
                by_op[span[OP]] += span[END] - span[START]
        return by_op

    def metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics (the rest come from outputs)."""
        calls, self_s, entry_s = self.layer_times()
        out = {}
        for layer in LAYERS:
            if f"{layer}.calls" in PER_LAYER_UNITS:
                out[f"{layer}.calls"] = calls[layer]
            if f"{layer}.self_s" in PER_LAYER_UNITS:
                out[f"{layer}.self_s"] = self_s[layer]
        for name in ("gfseries.gf_coeffs.calls", "gfseries.gf_coeffs.terms", "counting.series_expansions",
                     "counting.cache_lookups", "oracle.objects", "asymptotics.fit_family.calls"):
            out[name] = self.counts[name]
        lookups = self.counts["counting.cache_lookups"]
        out["counting.cache_hit_ratio"] = (
            (lookups - self.counts["counting.series_expansions"]) / lookups if lookups else 0.0
        )
        out["oracle.objects_per_s"] = out["oracle.objects"] / entry_s["oracle"] if entry_s["oracle"] else 0.0
        for suite in SUITES:
            out[f"verify.suite.{suite}.s"] = sum(
                span[END] - span[START] for span in self.spans if span[NAME] == f"verify.suite_{suite}"
            )
        return out

    def write(self, path) -> None:
        """Write the spans and aggregates out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                record = dict(zip(("name", "layer", "start", "end", "parent", "op", "caller"), span))
                record["id"] = index
                stream.write(json.dumps(record) + "\n")
            for layer, (n, seconds) in sorted(self.hot.items()):
                stream.write(json.dumps({"aggregate": layer, "calls": n, "seconds": seconds}) + "\n")
