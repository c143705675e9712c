"""Traced mode: per-layer self time, counted at the program's public functions.

Each layer is a set of functions, wrapped where the calling module looks
them up (a module attribute or a class attribute), so the program itself
is untouched.  A wrapper records one span; a layer's *self* time is the
span's duration minus the part its child spans cover.  Summed over every
layer, self times telescope to the time spent inside top-level spans, so

    traced wall time = sum of layer self times + residual

holds exactly, where the residual is op time no wrapped function covers.

Spans are kept in memory (capped) and written as a Chrome trace when the
run ends.  Wrappers only record while :attr:`Tracer.active` is set, so
reference checks between operations never show up as program time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "LAYER_TARGETS", "COUNT_TARGETS"]

_SPAN_CAP = 100_000

# layer -> [(module or "module:Class", attribute), ...]
LAYER_TARGETS: dict[str, list[tuple[str, str]]] = {
    "stream.validation": [
        ("repro.stream.processor", "screen_point"),
        ("repro.stream.processor", "screen_interval"),
        ("repro.stream.processor", "screen_points"),
        ("repro.stream.processor", "screen_intervals"),
        ("repro.cluster.coordinator", "screen_points"),
        ("repro.cluster.coordinator", "screen_intervals"),
    ],
    "stream.durability.encode": [("repro.stream.processor", "canonical_json")],
    "stream.durability.append": [
        ("repro.stream.durability:WriteAheadLog", "append"),
        ("repro.stream.durability:WriteAheadLog", "append_many"),
        ("repro.stream.durability:WriteAheadLog", "flush"),
    ],
    "stream.durability.snapshot": [
        ("repro.stream.processor:StreamProcessor", "checkpoint"),
    ],
    "stream.durability.snapshot_load": [
        ("repro.stream.processor", "load_latest_snapshot"),
    ],
    "stream.durability.replay": [
        ("repro.stream.processor:StreamProcessor", "recover"),
    ],
    "stream.processor": [
        ("repro.stream.processor:StreamProcessor", "process_point"),
        ("repro.stream.processor:StreamProcessor", "process_interval"),
        ("repro.stream.processor:StreamProcessor", "process_points"),
        ("repro.stream.processor:StreamProcessor", "process_intervals"),
        ("repro.stream.processor:StreamProcessor", "query"),
        ("repro.stream.processor:StreamProcessor", "close"),
    ],
    "sketch.ams.scatter": [
        ("repro.sketch.ams:SketchMatrix", "update_point"),
        ("repro.sketch.ams:SketchMatrix", "update_interval"),
        ("repro.sketch.ams:SketchMatrix", "update_points"),
        ("repro.sketch.ams:SketchMatrix", "update_intervals"),
        ("repro.sketch.ams:SketchMatrix", "combined"),
        ("repro.sketch.plane", "add_totals"),
        ("repro.sketch.bulk", "add_totals"),
    ],
    "sketch.bulk.decompose": [
        ("repro.sketch.bulk", "decompose_quaternary"),
        ("repro.sketch.bulk", "decompose_binary"),
        ("repro.core.dyadic", "quaternary_cover_arrays"),
        ("repro.core.dyadic", "dyadic_cover_arrays"),
    ],
    "sketch.plane.point_kernel": [
        ("repro.sketch.plane:EH3Plane", "point_totals"),
    ],
    "sketch.plane.interval_kernel": [
        ("repro.sketch.plane:EH3Plane", "interval_totals"),
    ],
    "query.hierarchy.update": [
        ("repro.query.hierarchy:DyadicHierarchy", "update_point"),
        ("repro.query.hierarchy:DyadicHierarchy", "update_points"),
        ("repro.query.hierarchy:DyadicHierarchy", "update_interval"),
        ("repro.query.hierarchy:DyadicHierarchy", "update_intervals"),
    ],
    "query.hierarchy.descent": [
        ("repro.query.hierarchy:DyadicHierarchy", "heavy_hitters"),
        ("repro.query.hierarchy:DyadicHierarchy", "quantile"),
        ("repro.query.hierarchy:DyadicHierarchy", "predicted_envelopes"),
        ("repro.query.hierarchy:DyadicHierarchy", "estimate_blocks"),
    ],
    "query.plan": [
        ("repro.query.engine", "plan_for_scheme"),
        ("repro.cluster.coordinator", "plan_for_scheme"),
    ],
    "query.engine.probe": [
        ("repro.query.engine", "probe_for_plan"),
        ("repro.query.engine", "point_probe"),
    ],
    "query.engine.product": [("repro.query.engine", "product")],
    "cluster.protocol.encode": [("repro.cluster.coordinator", "encode_frame")],
    "cluster.protocol.decode": [("repro.cluster.coordinator", "decode_frame")],
    "cluster.transport.wait": [("repro.cluster.transport:ProcessShardLink", "recv")],
    "cluster.transport.send": [("repro.cluster.transport:ProcessShardLink", "send")],
    "cluster.coordinator": [
        ("repro.cluster.coordinator:ClusterProcessor", "ingest_points"),
        ("repro.cluster.coordinator:ClusterProcessor", "ingest_intervals"),
        ("repro.cluster.coordinator:ClusterProcessor", "flush"),
        ("repro.cluster.coordinator:ClusterProcessor", "checkpoint"),
        ("repro.cluster.coordinator:ClusterProcessor", "supervise"),
        ("repro.cluster.coordinator:ClusterProcessor", "query"),
    ],
    "cluster.coordinator.merge": [
        ("repro.cluster.coordinator:ClusterProcessor", "_merged"),
        ("repro.cluster.coordinator:ClusterProcessor", "merged_sketch"),
        ("repro.cluster.coordinator", "sketch_from_dict"),
        ("repro.cluster.coordinator", "_matrix_from"),
    ],
    "rangesum.multidim": [
        ("repro.rangesum.multidim:ProductGenerator", "mixed_sum"),
        ("repro.rangesum.multidim:ProductGenerator", "rect_sum"),
    ],
    "apps.spatialjoin2d": [
        ("repro.apps.spatialjoin2d", "sketch_rect_dataset"),
        ("repro.apps.spatialjoin2d", "estimate_rect_join"),
    ],
    "obs": [
        ("repro.obs", "counter"),
        ("repro.obs", "gauge"),
        ("repro.obs", "histogram"),
        ("repro.obs", "rate"),
        ("repro.obs", "span"),
        ("repro.obs", "start_span"),
        ("repro.obs", "monotonic"),
        ("repro.obs:Counter", "inc"),
        ("repro.obs:Gauge", "set"),
        ("repro.obs:Histogram", "observe"),
        ("repro.obs:EWMARate", "mark"),
        ("repro.obs:_Span", "__enter__"),
        ("repro.obs:_Span", "__exit__"),
    ],
}

# Counted (not timed) call sites: name -> targets.
COUNT_TARGETS: dict[str, list[tuple[str, str]]] = {
    "scalar_updates": [
        ("repro.sketch.atomic:AtomicSketch", "update_interval"),
        ("repro.sketch.atomic:AtomicSketch", "update_point"),
    ],
}


def _resolve(target: str) -> Any:
    import importlib

    module_name, _, class_name = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class Tracer:
    """Wraps the layer functions and accounts self time per layer."""

    def __init__(self) -> None:
        self.active = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_ns = 0
        self._stack: list[int] = []
        self._spans: list[tuple[str, str, int, int, int]] = []
        self._dropped = 0
        self._installed: list[tuple[Any, str, Any]] = []
        self._origin = time.perf_counter_ns()
        # Hooks a workload sets to count the work of one call.
        self.on_call: dict[str, Callable[[tuple, dict, Any], None]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYER_TARGETS.items():
            for owner_name, attr in targets:
                self._patch(owner_name, attr, lambda fn, a=attr, l=layer: self._timed(l, a, fn))
        for name, targets in COUNT_TARGETS.items():
            for owner_name, attr in targets:
                self._patch(owner_name, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _patch(self, owner_name: str, attr: str, make: Callable[[Any], Any]) -> None:
        owner = _resolve(owner_name)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _timed(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter_ns
        hook_key = f"{layer}:{name}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                child = stack.pop()
                self.self_ns[layer] += duration - child
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                if len(self._spans) < _SPAN_CAP:
                    self._spans.append((layer, name, start, duration, len(stack)))
                else:
                    self._dropped += 1
                hook = self.on_call.get(hook_key)
                if hook is not None:
                    hook(args, kwargs, result)

        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- operation scope ---------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
        """Call one benchmark operation traced; returns (result, ns)."""
        self.active = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            self.active = False
            self.op_ns += elapsed
        return result, elapsed

    # -- output ------------------------------------------------------------

    def residual_ns(self) -> int:
        return self.op_ns - sum(self.self_ns.values())

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self._origin) / 1000.0,
                "dur": duration / 1000.0,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"depth": depth},
            }
            for layer, name, start, duration, depth in self._spans
        ]
        document = {
            "traceEvents": events,
            "otherData": {"dropped_spans": self._dropped},
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle)
