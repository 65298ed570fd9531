"""Span recorder that wraps distlab's public functions from outside `src/`.

`Tracer.install()` replaces every public module-level function of the layer
modules, plus a few hot methods, with a recording wrapper.  A function is
rebound everywhere the same object is referenced: in every distlab module
namespace (``from .bits import pack_values`` makes a second binding) and in
module-level dicts such as ``harness.MATRIX_DECODERS``.  `Tracer.restore()`
puts every original back and reports any binding it could not restore.

Calls to cold functions become spans (name, start, end, parent id, rep).
Calls to hot functions (called per node or per query) only feed per-name
aggregates, so tracing a 200 000-query batch stays cheap in memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = ("graph", "preserving", "sparse", "additive", "bits", "labels", "harness")

# (module, class, method): methods traced besides the module-level functions.
METHODS = (
    ("graph", "Graph", "apsp"),
    ("bits", "BitWriter", "getvalue"),
    ("bits", "BitCursor", "read_packed"),
    ("bits", "BitCursor", "read_id_set"),
    ("labels", "LabelSet", "decode"),
)

# Called per node, per level or per query: aggregated, never kept as spans.
HOT = {
    "bits.pack_values",
    "bits.gamma_length",
    "bits.BitWriter.getvalue",
    "bits.BitCursor.read_packed",
    "bits.BitCursor.read_id_set",
    "labels.LabelSet.decode",
    "harness.pair_decode",
}
HOT_PREFIXES = ("preserving.parse_", "sparse.parse_", "additive.parse_")

# Hot names whose every duration is kept, for percentiles.
KEEP_DURATIONS = {"harness.pair_decode"}


class Agg:
    __slots__ = ("count", "total_ns", "durations")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.durations: list[int] = []


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, rep)
        self.agg: dict[str, Agg] = {}
        self.calls: dict[str, list] = {}  # name -> [args] of each call, for names in capture
        self.capture: set[str] = set()
        self.rep = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._bindings: list[tuple[object, str, object]] = []  # (owner, key, original)
        self._wrappers: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _is_hot(self, name: str) -> bool:
        return name in HOT or name.startswith(HOT_PREFIXES)

    def _wrap(self, fn, name: str):
        clock = time.perf_counter_ns
        if self._is_hot(name):
            agg = self.agg.setdefault(name, Agg())
            keep = name in KEEP_DURATIONS

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    agg.count += 1
                    agg.total_ns += dt
                    if keep:
                        agg.durations.append(dt)

            return hot

        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def cold(*args, **kwargs):
            if any(open_name == name for _, open_name in stack):
                return fn(*args, **kwargs)  # re-entrant call: the outer span covers it
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.rep))
            if name in tracer.capture:
                tracer.calls.setdefault(name, []).append(args)
            return result

        return cold

    # -- installing --------------------------------------------------------

    @staticmethod
    def _modules():
        return [mod for name, mod in list(sys.modules.items())
                if name == "distlab" or name.startswith("distlab.")]

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._set(val, dkey, wrapper)

    def _set(self, owner, key, value) -> None:
        self._wrappers.add(id(value))
        if isinstance(owner, dict):
            self._bindings.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._bindings.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, distlab, scheme: str) -> None:
        """Wrap the layer modules' public functions and the METHODS list.

        The scheme's raw pair decoder is wrapped under `harness.pair_decode`
        in `harness.PAIR_DECODERS` only, so it is timed where
        `LabelSet.decode` dispatches to it and nowhere else.
        """
        if self._bindings:
            raise RuntimeError("tracer already installed")
        seen: set[int] = set()
        for short in LAYER_MODULES:
            mod = getattr(distlab, short)
            for key, fn in list(vars(mod).items()):
                if key.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or id(fn) in seen:
                    continue
                seen.add(id(fn))
                self._rebind_everywhere(fn, self._wrap(fn, f"{short}.{fn.__name__}"))
        for short, cls_name, meth in METHODS:
            cls = getattr(getattr(distlab, short), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._set(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}"))
        decoders = getattr(distlab.harness, "PAIR_DECODERS", None)
        if isinstance(decoders, dict) and scheme in decoders:
            self._set(decoders, scheme, self._wrap(decoders[scheme], "harness.pair_decode"))

    def restore(self) -> int:
        """Undo every binding, newest first.  Returns how many wrappers are
        still reachable from distlab's module namespaces, module-level dicts
        and classes afterwards (0 when everything was restored)."""
        for owner, key, original in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._bindings.clear()
        left = 0
        for mod in self._modules():
            for val in vars(mod).values():
                inner = val.values() if isinstance(val, dict) else (
                    vars(val).values() if isinstance(val, type) else ()
                )
                left += sum(id(v) in self._wrappers for v in (val, *inner))
        return left

    # -- reading -----------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Summed duration of the outermost spans (or aggregate) of `name`."""
        if name in self.agg:
            return self.agg[name].total_ns / 1e9
        return sum(t1 - t0 for _, _, n, t0, t1, _ in self.spans if n == name) / 1e9

    def self_s(self, name: str) -> float:
        """Span time of `name` minus the time its direct child spans cover."""
        ids = {sid: t1 - t0 for sid, _, n, t0, t1, _ in self.spans if n == name}
        children = sum(t1 - t0 for _, parent, _, t0, t1, _ in self.spans if parent in ids)
        return (sum(ids.values()) - children) / 1e9

    def count(self, name: str) -> int:
        if name in self.agg:
            return self.agg[name].count
        return sum(1 for s in self.spans if s[2] == name)

    def durations_ns(self, name: str) -> list[int]:
        agg = self.agg.get(name)
        return agg.durations if agg else []

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per hot aggregate."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, t0, t1, rep in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": t0, "end_ns": t1, "rep": rep,
                }) + "\n")
            for name, agg in sorted(self.agg.items()):
                fh.write(json.dumps({
                    "aggregate": name, "count": agg.count, "total_ns": agg.total_ns,
                }) + "\n")
