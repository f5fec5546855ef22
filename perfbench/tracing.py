"""Span tracing of calls into destab's layers, for the traced run only.

``Tracer.install`` wraps the public functions of every layer module, plus the
public and arithmetic methods of the classes those modules define, and rebinds
every ``destab.*`` attribute that refers to a wrapped object (for example both
``destab.polytope.enumerate_vertices`` and ``destab.stability.enumerate_vertices``).
Names a layer no longer defines are simply absent and report zero.
``Tracer.uninstall`` puts every original back.

A span is (id, name, start, end, parent id, op id).  Self time is a span's
duration minus the time its direct child spans cover; it is accumulated for
every span as it ends.  The first KEEP_SPANS spans are also kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Iterator

LAYERS = (
    "cli",
    "instances",
    "model",
    "pivots",
    "poly",
    "polytope",
    "stability",
    "combinatorics",
    "p1",
)

# Dunder methods traced besides public names: value arithmetic and validation.
TRACED_DUNDERS = frozenset({"__add__", "__sub__", "__neg__", "__call__", "__post_init__"})

# Spans kept in memory and written out; self times and counts cover all spans.
KEEP_SPANS = 20_000

REDUCE = "stability.reduce_destabilizer"
DECIDE = "stability.decide_destabilizing"

# (metric, unit); every metric is a per-op mean over the traced ops unless noted.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("polytope.solve_unique.calls", "calls/op"),
    ("polytope.enumerate_vertices.calls", "calls/op"),
    ("polytope.vertex_yield", "1"),
    ("polytope.self_ms_per_op", "ms/op"),
    ("stability.decide_destabilizing.calls", "calls/op"),
    ("stability.decide_destabilizing.self_ms_per_op", "ms/op"),
    ("stability.constants.calls", "calls/op"),
    ("model.validate_filtration.calls", "calls/op"),
    ("stability.reduce_destabilizer.decides_per_call", "calls/call"),
    ("stability.region_minima.self_ms_per_op", "ms/op"),
    ("p1.flag_pivots.self_ms_per_op", "ms/op"),
    ("pivots.pivots_from_matrix.self_ms_per_op", "ms/op"),
    ("pivots.project_pivots.calls", "calls/op"),
    ("cli.build_parser.self_ms_per_op", "ms/op"),
    ("cli.main.self_ms_per_op", "ms/op"),
    ("instances.parse_instance.self_ms_per_op", "ms/op"),
    ("instances.verdict_json.self_ms_per_op", "ms/op"),
    ("instances.instance_json.self_ms_per_op", "ms/op"),
    ("combinatorics.self_ms_per_op", "ms/op"),
    ("poly.poly_cmp.calls", "calls/op"),
    ("poly.self_ms_per_op", "ms/op"),
    *((f"{layer}.self_share", "1") for layer in LAYERS),
    ("trace.overhead_frac", "1"),
)


def _targets(layer: str, module: Any) -> Iterator[tuple[Any, str, Any, str]]:
    """(owner, attribute, raw value, span name) for everything traced in a layer."""
    for name, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr, raw in list(vars(obj).items()):
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                public = not attr.startswith("_") or attr in TRACED_DUNDERS
                if public and callable(fn) and not isinstance(fn, type):
                    yield obj, attr, raw, f"{layer}.{name}.{attr}"
        elif callable(obj) and not name.startswith("_"):
            yield module, name, obj, f"{layer}.{name}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.returned: list[int] = []  # summed len() of results, for vertex yield
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.op_id = -1
        self.decides_in_reduce = 0
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._reduce_depth = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn: Any) -> Any:
        idx = self._index.get(name)
        if idx is None:  # counts accumulate across installs
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.returned.append(0)
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns, returned, spans = self.calls, self.self_ns, self.returned, self.spans
        counts_result = name == "polytope.enumerate_vertices"
        is_reduce = name == REDUCE
        is_decide = name == DECIDE
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer._next_id
            tracer._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            if is_reduce:
                tracer._reduce_depth += 1
            elif is_decide and tracer._reduce_depth:
                tracer.decides_in_reduce += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counts_result:
                    returned[idx] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                if is_reduce:
                    tracer._reduce_depth -= 1
                duration = end - start
                calls[idx] += 1
                self_ns[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span < KEEP_SPANS:
                    spans.append((span, idx, start, end, parent, tracer.op_id))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced name and rebind each destab attribute that refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions: dict[int, Any] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"destab.{layer}")
            except ImportError:
                continue
            for owner, attr, raw, name in _targets(layer, module):
                if owner is module:
                    functions[id(raw)] = self._wrap(name, raw)
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "destab" or modname.startswith("destab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    @property
    def total(self) -> int:
        """Spans recorded so far, kept or not."""
        return self._next_id

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------

    def _total(self, prefix: str, values: list[int]) -> int:
        return sum(v for n, v in zip(self.names, values) if n == prefix or n.startswith(prefix + "."))

    def metrics(self, ops: int, traced_ns: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics over ``ops`` traced ops that took ``traced_ns`` in total."""
        def calls(name: str) -> int:
            return self.calls[self._index[name]] if name in self._index else 0

        def self_ms(prefix: str) -> float:
            return self._total(prefix, self.self_ns) / 1e6 / ops

        solves = calls("polytope.solve_unique")
        reduces = calls(REDUCE)
        returned = self._total("polytope.enumerate_vertices", self.returned)
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            head, _, tail = metric.rpartition(".")
            if tail == "calls":
                out[metric] = calls(head) / ops
            elif tail == "self_ms_per_op":
                out[metric] = self_ms(head)
            elif tail == "self_share":
                out[metric] = self._total(head, self.self_ns) / traced_ns
            elif metric == "polytope.vertex_yield":
                out[metric] = returned / solves if solves else 0.0
            elif metric == "stability.reduce_destabilizer.decides_per_call":
                out[metric] = self.decides_in_reduce / reduces if reduces else 0.0
            else:
                out[metric] = overhead_frac
        return out

    def write_spans(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "kept": len(self.spans),
            "total": self.total,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
