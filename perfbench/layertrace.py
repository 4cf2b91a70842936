"""Spans and counters around the public functions of each symbalance layer.

Nothing under src/ changes: `Tracer.install` replaces every public function
of the layer modules by a wrapper, rebinding the name in every symbalance
module that imported it, and `uninstall` puts the originals back.  A span
is `[name, op, parent, start, end]`, kept in memory; `op` is the index of
the benchmark operation that caused it and `parent` the index of the
enclosing span (-1 at the top).  Functions whose own cost is close to a
span's cost (HOT) get call counters only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from workloads import ROW_CACHE_LIMIT

PACKAGE = "symbalance"
LAYERS = ("cli", "conjectures", "census", "bisection", "spectral", "symfun", "exactnum")
HOT = frozenset({
    "binom", "binom_mod_p", "cospi_frac", "sinpi_frac", "sign_sinpi", "is_trivial",
    "is_prime", "krawtchouk", "multinomial", "exact_div", "signed_sum",
    "predicted_balanced", "round_real", "orbit_size", "mvector_of"})
# Left unwrapped: called once per row entry inside weight_elem, so even a
# counter would double the traced cost of the weight loop.
UNWRAPPED = frozenset({"dominated"})

# Counters fed from a function's return value.
_RESULT_COUNTS = {
    "conjectures.scan_conjecture1": ("conjectures.cells", len),
    "conjectures.scan_conjecture2": ("conjectures.cells", len),
    "bisection.find_all_solutions": ("bisection.witnesses", lambda r: len(r.witnesses or ())),
}


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def find_caches(modules: dict) -> dict:
    """Every module-level object with cache_info(), as "layer.name"."""
    caches = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)):
                caches[f"{layer}.{name.lstrip('_')}"] = obj
    return caches


def clear_caches(caches: dict) -> None:
    for cache in caches.values():
        cache.cache_clear()


# The caches whose counters the traced run reports.  One that a later
# version drops reads as zero.
REPORTED_CACHES = ("exactnum.pascal_row", "spectral.krawtchouk_table",
                   "symfun.count_vectors", "exactnum.parity_word")


def cache_snapshot(caches: dict) -> dict:
    out = {}
    for name in REPORTED_CACHES:
        info = caches[name].cache_info() if name in caches else None
        out[f"{name}.hits"] = info.hits if info else 0
        out[f"{name}.misses"] = info.misses if info else 0
        out[f"{name}.currsize"] = info.currsize if info else 0
    return out


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.rows_used: dict = {}  # pascal_row key -> row bytes, by last use
        self.row_bytes: dict = {}  # pascal_row key -> row bytes, kept across passes
        self.op = -1
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.rows_used.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        tally = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            span = [name, self.op, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if tally:
                counts[tally[0]] += tally[1](result)
            return result
        return wrapper

    def _generator_span(self, name: str, fn):
        """One span per step, so the caller's work between steps is not
        charged to the generator."""
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                span = [name, self.op, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span[4] = clock()
                counts[name + ".yields"] += 1
                yield item
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        if name == "exactnum.binom":
            @functools.wraps(fn)
            def wrapper(n, k):
                counts[name] += 1
                if n > ROW_CACHE_LIMIT and 0 <= k <= n:
                    counts["exactnum.binom.uncached"] += 1
                return fn(n, k)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _row_recorder(self, fn):
        """Counts pascal_row calls and keeps the keys in order of last use,
        with each row's size measured once when it is first seen."""
        counts, used, sizes = self.counts, self.rows_used, self.row_bytes

        @functools.wraps(fn)
        def wrapper(n):
            counts["exactnum.pascal_row"] += 1
            used.pop(n, None)
            row = fn(n)
            if n not in sizes:
                sizes[n] = sys.getsizeof(row) + sum(map(sys.getsizeof, row))
            used[n] = sizes[n]
            return row
        return wrapper

    # -- installation ------------------------------------------------------

    def _wrappers(self) -> dict:
        """original function -> wrapper, for every public function."""
        out = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if attr == "pascal_row":
                    out[obj] = self._row_recorder(obj)
                elif (attr.startswith("_") or attr in UNWRAPPED
                      or not inspect.isfunction(obj) or obj.__module__ != module.__name__):
                    continue
                elif attr in HOT:
                    out[obj] = self._counter(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    out[obj] = self._generator_span(name, obj)
                else:
                    out[obj] = self._span(name, obj)
        return out

    def install(self) -> None:
        wrappers = self._wrappers()
        targets = [sys.modules[PACKAGE], *self.modules.values()]
        for module in targets:
            for attr, obj in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self) -> tuple[Counter, Counter]:
        """Total span time per function name, and self time per layer: a
        span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for (name, _, parent, start, end), inner in zip(self.spans, child):
            total[name] += end - start
            own[name.split(".", 1)[0]] += end - start - inner
        return total, own

    def row_cache_bytes(self, currsize: int) -> int:
        """Computed size of the cached rows: those of the `currsize` most
        recently used row keys (what an LRU cache holds, and every row while
        the cache is unbounded), each tuple and its ints counted by
        getsizeof."""
        sizes = list(self.rows_used.values())
        return sum(sizes[-currsize:]) if currsize else 0


def write_spans(path, passes: list[tuple[int, list]]) -> None:
    """Write kept spans as JSON lines, one per span, tagged with the pass."""
    with open(path, "w", encoding="utf-8") as out:
        for pass_index, spans in passes:
            for name, op, parent, start, end in spans:
                out.write(json.dumps({"pass": pass_index, "op": op, "name": name,
                                      "parent": parent, "start": start, "end": end}))
                out.write("\n")

