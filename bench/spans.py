"""In-memory span tracing of fanocalc's public layers, from outside the package.

The tracer records one span per call at each layer boundary: a name, a start
and end time, the index of the enclosing span and the pass it belongs to.
Self time is a span's duration minus the time its child spans cover; child
spans of a synchronous call nest inside their parent and do not overlap, so
that is the duration minus the sum of the children's durations.

Wrappers are installed by rebinding every lookup site of a traced function:
the defining module, every ``from ... import`` binding in another fanocalc
module (found by identity), and class attributes for methods.  No library
file changes, and :func:`uninstall` restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (defining module, attribute, span name).  Methods name their class.
FUNCTIONS = (
    ("fanocalc.schubert", "multiply", "schubert.multiply"),
    ("fanocalc.chern", "tensor_chern", "chern.tensor_chern"),
    ("fanocalc.chern", "section_chern", "chern.section_chern"),
    ("fanocalc.chern", "tangent_bundle", "chern.tangent_bundle"),
    ("fanocalc.profiles", "section_model", "profiles.section_model"),
    ("fanocalc.profiles", "section_profile", "profiles.section_profile"),
    ("fanocalc.blowup", "quartic_number", "blowup.quartic_number"),
    ("fanocalc.blowup", "chi_riemann_roch", "blowup.chi_riemann_roch"),
    ("fanocalc.dsl", "parse", "dsl.parse"),
    ("fanocalc.scenarios", "run", "scenarios.run"),
    ("fanocalc.scenarios", "builtin_scenarios", "scenarios.builtin_scenarios"),
    ("fanocalc.cli", "main", "cli.main"),
)
METHODS = (
    ("fanocalc.schubert", "SchubertCycle", "__init__", "schubert.cycle_init"),
    ("fanocalc.schubert", "SchubertCycle", "pieri", "schubert.pieri"),
    ("fanocalc.dsl", "Document", "build", "dsl.build"),
    ("fanocalc.scenarios", "Report", "to_json", "scenarios.report"),
    ("fanocalc.scenarios", "Report", "to_text", "scenarios.report"),
)
# lru_cache'd functions whose hit ratio comes from cache_info() deltas.
CACHED = {
    "chern.tangent_bundle": ("fanocalc.chern", "tangent_bundle"),
    "profiles.section_profile": ("fanocalc.profiles", "section_profile"),
}

# Ladder rungs, timed by the benchmark's own spans around each call.
TENSOR_RUNGS = ((2, 5), (2, 6), (3, 6), (2, 7), (2, 8), (3, 7))
PRODUCT_RUNGS = ((3, 8), (4, 8))


def tensor_span(k: int, n: int) -> str:
    return f"chern.tensor_chern.gr{k}-{n}"


def products_span(k: int, n: int) -> str:
    return f"schubert.products.gr{k}-{n}"


# Per-layer metrics of one pass: (name, unit).  Each is reported twice, with
# ".cold" for the first pass in a fresh process and ".warm" for later ones.
LAYER_METRICS = (
    ("schubert.multiply.calls", "count"),
    ("schubert.multiply.self_s", "s"),
    ("schubert.pieri.calls", "count"),
    ("schubert.pieri.self_s", "s"),
    ("schubert.pieri.nonzero_ratio", "ratio"),
    ("schubert.cycle_init.calls", "count"),
    ("schubert.cycle_init.self_s", "s"),
    *((products_span(k, n) + ".s", "s") for k, n in PRODUCT_RUNGS),
    ("chern.tensor_chern.calls", "count"),
    ("chern.tensor_chern.self_s", "s"),
    *((tensor_span(k, n) + ".s", "s") for k, n in TENSOR_RUNGS),
    ("chern.section_chern.calls", "count"),
    ("chern.section_chern.self_s", "s"),
    ("chern.tangent_bundle.hit_ratio", "ratio"),
    ("profiles.section_model.calls", "count"),
    ("profiles.section_model.self_s", "s"),
    ("profiles.section_profile.hit_ratio", "ratio"),
    ("blowup.quartic_number.calls", "count"),
    ("blowup.quartic_number.self_s", "s"),
    ("blowup.chi_riemann_roch.calls", "count"),
    ("blowup.chi_riemann_roch.self_s", "s"),
    ("dsl.parse.calls", "count"),
    ("dsl.parse.self_s", "s"),
    ("dsl.parse.bytes", "bytes"),
    ("dsl.build.self_s", "s"),
    ("scenarios.run.self_s", "s"),
    ("scenarios.report.self_s", "s"),
    ("scenarios.builtin_scenarios.self_s", "s"),
    ("scenarios.assertions.total", "count"),
    ("scenarios.assertions.failed", "count"),
    ("cli.main.self_s", "s"),
)


class Tracer:
    """Spans of the current pass, held in flat arrays until :meth:`end_pass`."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self.begin_pass()

    def begin_pass(self):
        """Drop any recorded spans and counters and snapshot the caches."""
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters: dict[str, int] = {}
        self._cache_before = _cache_snapshot()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def end_pass(self) -> dict:
        """Aggregate the pass's spans into ``{name: [calls, self_s, total_s]}``.

        The returned dict also carries the pass's counters and cache-info
        deltas under ``"counters"`` and ``"cache"``; the span arrays are
        then released.
        """
        if self._stack:
            raise RuntimeError("a traced span is still open at the end of a pass")
        n = len(self.start)
        child = [0.0] * n
        duration = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        layers: dict[str, list] = {}
        for i in range(n):
            entry = layers.setdefault(self._names[self.name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration[i] - child[i]
            entry[2] += duration[i]
        after = _cache_snapshot()
        cache = {
            key: (after[key][0] - self._cache_before[key][0], after[key][1] - self._cache_before[key][1])
            for key in after
        }
        summary = {"pass": self.pass_id, "layers": layers, "counters": self.counters, "cache": cache}
        self.pass_id += 1
        self.begin_pass()
        return summary


def _cache_snapshot() -> dict:
    """(hits, misses) of each cached layer."""
    out = {}
    for name, (module, attr) in CACHED.items():
        info = _original(getattr(sys.modules[module], attr)).cache_info()
        out[name] = (info.hits, info.misses)
    return out


def _original(fn):
    return getattr(fn, "__fanocalc_traced__", fn)


def _wrap(tracer: Tracer, name: str, fn):
    name_id = tracer.intern(name)
    open_, close = tracer.open, tracer.close
    if name == "schubert.pieri":
        def traced(self, *args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(self, *args, **kwargs)
            finally:
                close(index)
            if not result.is_zero():
                tracer.count("schubert.pieri.nonzero", 1)
            return result
    elif name == "dsl.parse":
        def traced(source, *args, **kwargs):
            tracer.count("dsl.parse.bytes", len(source.encode("utf-8")))
            index = open_(name_id)
            try:
                return fn(source, *args, **kwargs)
            finally:
                close(index)
    elif name == "scenarios.run":
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                report = fn(*args, **kwargs)
            finally:
                close(index)
            tracer.count("scenarios.assertions.total", report.total)
            tracer.count("scenarios.assertions.failed", report.failed)
            return report
    else:
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)
    functools.update_wrapper(traced, fn)
    traced.__fanocalc_traced__ = fn
    return traced


def install(tracer: Tracer) -> list:
    """Rebind every lookup site of the traced layers; return the undo list."""
    modules = [m for key, m in sorted(sys.modules.items()) if key == "fanocalc" or key.startswith("fanocalc.")]
    undo = []
    for module, attr, name in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        if hasattr(original, "__fanocalc_traced__"):
            raise RuntimeError(f"{module}.{attr} is already traced")
        wrapper = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)
    for module, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, name, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


def pass_metrics(summary: dict) -> dict:
    """The per-layer metric values of one traced pass, keyed by base name."""
    layers, counters, cache = summary["layers"], summary["counters"], summary["cache"]

    def layer(name, field):  # field: 0 calls, 1 self seconds, 2 total seconds
        return layers.get(name, (0, 0.0, 0.0))[field]

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        hits, misses = cache[name]
        return ratio(hits, hits + misses)

    values = {}
    for name, unit in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = layer(base, 0)
        elif field == "self_s":
            values[name] = layer(base, 1)
        elif field == "s":
            values[name] = layer(base, 2)
        elif field == "hit_ratio":
            values[name] = hit_ratio(base)
        elif name == "schubert.pieri.nonzero_ratio":
            values[name] = ratio(counters.get("schubert.pieri.nonzero", 0), layer("schubert.pieri", 0))
        else:
            values[name] = counters.get(name, 0)
    return values


def cache_mismatches(summary: dict) -> list:
    """Cached layers whose wrapper call count disagrees with cache_info()."""
    out = []
    for name in CACHED:
        hits, misses = summary["cache"][name]
        seen = summary["layers"].get(name, (0,))[0]
        if seen != hits + misses:
            out.append(f"{name}: {seen} traced calls, cache_info counts {hits + misses}")
    return out
