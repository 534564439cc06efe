"""Per-layer tracing from outside the library.

:class:`Tracer` keeps spans in memory (name, start, end, parent, request id)
and :func:`install` wraps the public functions through which callers reach
each layer, so a traced run measures every layer without touching
``src/``.  A layer's *self time* is its span time minus the time its child
spans cover; the benchmark's own ``request`` span is the root of each call,
so its self time is the ``unattributed`` remainder (user hooks and glue)
and all self times together sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

ROOT_SPAN = "request"

#: (span name, module, attribute path) of every wrapped entry point.
TARGETS = [
    ("planner.plan", "repro.planner.planner", "plan"),
    ("compiled.kernel", "repro.compiled.walk_kernel", "CompiledWalkKernel.run"),
    ("compiled.structures", "repro.compiled.structures", "get_structures"),
    ("engine.step", "repro.engine.step", "BatchedStepEngine.step_instances"),
    ("engine.expand", "repro.engine.step", "BatchedStepEngine.expand_entries"),
    ("engine.gather", "repro.engine.step", "batch_gather_neighbors"),
    ("selection.select", "repro.engine.step", "segmented_warp_select"),
    ("api.finalize", "repro.api.results", "SampleResult.from_instances"),
    ("oom.run", "repro.oom.scheduler", "OutOfMemorySampler.run"),
    ("distributed.step_all", "repro.distributed.transport", "InProcessTransport.step_all"),
    ("distributed.exchange", "repro.distributed.router", "MigrationRouter.exchange"),
]


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self):
        #: One ``[name, start, end, parent index, request id]`` per span.
        self.spans: List[list] = []
        #: ``calibrated_time_s`` of the first plan of each request id.
        self.plan_predictions: Dict[int, float] = {}
        #: Edges gathered by all ``engine.gather`` calls.
        self.gathered_edges = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id: Optional[int] = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            request_id = self.spans[parent][4]
        else:
            parent = -1
        record = [name, 0.0, 0.0, parent, request_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total self seconds, total seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for index, (name, start, end, _parent, _req) in enumerate(self.spans):
            row = out[name]
            row["self_s"] += (end - start) - child_time[index]
            row["total_s"] += end - start
            row["calls"] += 1
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p, _r in self.spans if n == name]

    def dump(self, path: str) -> None:
        """Write every span (times relative to the first span) as JSON."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - base, 9), round(end - base, 9), parent, req]
            for name, start, end, parent, req in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": rows}, fh)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if name == "compiled.structures":
        from repro.compiled.structures import structure_cache_stats

        @functools.wraps(fn)
        def structures(*args, **kwargs):
            misses = structure_cache_stats()["misses"]
            record = tracer.open("compiled.structure_hit")
            try:
                return fn(*args, **kwargs)
            finally:
                if structure_cache_stats()["misses"] != misses:
                    record[0] = "compiled.structure_build"
                tracer.close(record)

        return structures

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if name == "planner.plan":
            req = record[4]
            if req is not None and req not in tracer.plan_predictions:
                tracer.plan_predictions[req] = float(result.calibrated_time_s)
        elif name == "engine.gather":
            tracer.gathered_edges += int(result.size)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that restores the originals."""
    undo = []
    for name, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(_wrap(tracer, name, raw.__func__))
        else:
            replacement = _wrap(tracer, name, raw)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, raw))

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore
