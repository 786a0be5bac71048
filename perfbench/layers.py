"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of each wittkit module (and a few
named methods and private cache helpers) and rebinds every module attribute
that refers to the same function object: a module that did
``from .qfield import ideal_mul`` holds its own binding, and calls through
it must be traced too.  Spans are kept in memory and written out when the
run ends, never into the pipeline's artifacts or cache.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the benchmark is one thread.
Spans are recorded only while a unit is open, so cache resets and checks
made by the harness between units stay out of the layers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("qfield", "rayclass", "witt", "cyclotomic", "domains", "automata", "modular", "algrec", "cli")
METHODS = (("domains", "BigComplex", "eq_strict"), ("domains", "ExactCyclotomic", "eq"))
PRIVATE = (("cli", "_cache_load"), ("cli", "_cache_store"))
UNIT = "bench.unit"


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    true: int = 0
    hits: int = 0
    items: int = 0
    max_dim: int = 0
    max_bits: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


def _cm_cache_size(stat, args, kwargs):
    return len(sys.modules["wittkit.modular"]._CM_CACHE)


def _cm_hit(stat, before, args, kwargs, result):
    if len(sys.modules["wittkit.modular"]._CM_CACHE) == before:
        stat.hits += 1


def _count_true(stat, before, args, kwargs, result):
    if result is True:
        stat.true += 1


def _count_ideals(stat, before, args, kwargs, result):
    stat.items += len(args[1])


def _lll_shape(stat, args, kwargs):
    basis = args[0]
    bits = max((abs(int(x)).bit_length() for row in basis for x in row), default=0)
    stat.max_dim = max(stat.max_dim, len(basis))
    stat.max_bits = max(stat.max_bits, bits)


def _cache_read(stat, before, args, kwargs, result):
    if result is not None:
        stat.bytes_read += (Path(args[0]) / f"{args[1]}.json").stat().st_size


def _cache_written(stat, before, args, kwargs, result):
    stat.bytes_written += (Path(args[0]) / f"{args[1]}.json").stat().st_size


# name -> (before(stat, args, kwargs) -> token, after(stat, token, args, kwargs, result));
# `before` sees every call, `after` only the calls that return.
HOOKS = {
    "modular.cm_point": (_cm_cache_size, _cm_hit),
    "rayclass.congruent_mod": (None, _count_true),
    "rayclass.classify_ideals": (None, _count_ideals),
    "algrec.lll_reduce": (_lll_shape, None),
    "cli._cache_load": (None, _cache_read),
    "cli._cache_store": (None, _cache_written),
}


class Tracer:
    """In-memory spans and per-name aggregates for one traced pass."""

    def __init__(self, max_spans: int = 100_000):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._unit_id = -1
        self._patches: list[tuple] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, ok: bool) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, t0, child = frame
        dur = t1 - t0
        st = self.stat(name)
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child
        if not ok:
            st.failed += 1
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, name, t0, t1, self._unit_id, ok))
        else:
            self.dropped += 1

    def unit_begin(self) -> list:
        self._unit_id += 1
        return self._enter(UNIT)

    def unit_end(self, frame: list, ok: bool) -> None:
        self._exit(frame, ok)

    def _wrap(self, name: str, fn):
        tracer = self
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            token = before(tracer.stat(name), args, kwargs) if before else None
            frame = tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(frame, ok)
            if after:
                after(tracer.stat(name), token, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it in every wittkit module that holds it."""
        mods = {n: m for n, m in sys.modules.items() if n == "wittkit" or n.startswith("wittkit.")}
        targets: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = mods.get(f"wittkit.{layer}")
            if mod is None:
                self.missing.append(layer)
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for layer, attr in PRIVATE:
            obj = getattr(mods.get(f"wittkit.{layer}"), attr, None)
            if obj is None:
                self.missing.append(f"{layer}.{attr}")
            else:
                targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods.get(f"wittkit.{layer}"), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is None:
                self.missing.append(f"{layer}.{cls_name}.{meth}")
                continue
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += st.self_s
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "missing_targets": self.missing,
            "spans_dropped": self.dropped,
            "stats": {n: vars(s) for n, s in sorted(self.stats.items())},
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "unit", "ok"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
