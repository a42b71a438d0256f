"""In-memory span tracing of the simulator's layers, from outside ``src/``.

:class:`SpanRecorder` wraps the public functions of each layer module
(:data:`LAYERS`) so that every call records one span: name, start, end
and parent.  Spans are kept in flat arrays (24 bytes each) because a
traced pass records millions of them; per-layer call counts and self
times are derived from the arrays after the run by :func:`aggregate`.

Self time follows the usual definition: a span's duration minus the part
of its interval covered by its child spans (:func:`self_times`).

Installing the wrappers patches classes and modules process-wide, so a
traced segment must run after every untraced measurement of the same
process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

#: One entry per layer: (layer name, [(module, class or None, methods)]).
#: ``methods`` is "public" (every method not starting with ``_``), "all"
#: (private ones too: the driver's fault servicing runs in private
#: methods scheduled as event callbacks) or an explicit tuple.  A class
#: entry also covers every subclass defined anywhere in ``repro``.
LAYERS: tuple = (
    ("runtime", [("repro.runtime", "UvmRuntime", "public")]),
    ("workloads", [("repro.workloads.base", "Workload", ("kernel_specs",)),
                   ("repro.workloads.registry", None, ("make_workload",))]),
    ("core.engine", [("repro.core.engine", "Simulator", "public")]),
    ("gpu.sm", [("repro.gpu.sm", "StreamingMultiprocessor", "public")]),
    ("memory.tlb", [("repro.memory.tlb", "Tlb", "public")]),
    ("memory.lru", [("repro.memory.lru", "FlatLRU", "public"),
                    ("repro.memory.lru", "HierarchicalLRU", "public"),
                    ("repro.memory.lru", "RandomMembership", "public")]),
    ("memory.page_table", [("repro.memory.page_table", "GpuPageTable",
                            "public")]),
    ("core.driver", [("repro.core.driver", "UvmDriver", "all")]),
    ("core.events", [("repro.core.events", "EventQueue", "public")]),
    ("interconnect.pcie", [("repro.interconnect.pcie", "PcieChannel",
                            "public"),
                           ("repro.interconnect.pcie", "PcieLink",
                            "public")]),
    ("policy", [("repro.policy.base", "Policy", "public")]),
    ("stats", [("repro.stats", "SimStats", ("to_json", "to_json_dict"))]),
    ("sweep.cache", [("repro.sweep.cache", "RunCache", ("load", "store"))]),
    ("sweep", [("repro.sweep.executor", None,
                ("execute_cell", "execute_cells", "_default_local_runner"))]),
    ("tune", [(module, None, "public") for module in (
        "repro.tune.tuner", "repro.tune.drivers", "repro.tune.objective",
        "repro.tune.cards", "repro.tune.evaluate")]
     + [("repro.tune.drivers", "SearchDriver", "public"),
        ("repro.tune.objective", "Objective", "public"),
        ("repro.tune.evaluate", "LocalEvaluator", "public")]),
    ("serve.client", [("repro.serve.client", "ServeClient", "public")]),
)

#: Span names that differ from ``<layer>.<function>``: the serial sweep
#: executes each cell through this private runner, which is the cell
#: execution the ``sweep.execute_cell`` metrics describe.
RENAMED = {"sweep._default_local_runner": "sweep.execute_cell"}


class SpanRecorder:
    """Flat, append-only span store; each thread has its own call stack,
    so a span's parent is the innermost open span of its own thread."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.start = array("q")
        self.end = array("q")
        self._local = threading.local()
        self._threads = 0
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        local = self._local
        if not hasattr(local, "stack"):
            with self._lock:
                local.stack, local.thread = [], self._threads
                self._threads += 1
        stack = local.stack
        with self._lock:
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(local.thread)
            self.start.append(self.clock())
            self.end.append(0)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a span ``name``.

        A generator function gets one span per ``next`` instead, so the
        time to produce each item is charged to it and not to whoever
        consumes the items in between.
        """
        name_id = self.name_id(name)
        recorder = self
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    index = recorder.open(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(index)
                    yield item
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)
        return wrapper

    # --- installing the wrappers ----------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Wrap every function :data:`LAYERS` names, process-wide."""
        replaced: dict[int, object] = {}
        for layer, targets in layers:
            for module_name, class_name, methods in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._wrap_module(layer, module, methods, replaced)
                else:
                    base = getattr(module, class_name)
                    for cls in [base] + _subclasses(base):
                        self._wrap_class(layer, cls, methods)
        # ``from module import function`` copies the reference: rebind
        # every copy held by an already imported repro module.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_module(self, layer, module, methods, replaced) -> None:
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) \
                    or value.__module__ != module.__name__ \
                    or not _selected(attr, methods):
                continue
            name = f"{layer}.{attr}"
            replaced[id(value)] = self.wrap(RENAMED.get(name, name), value)

    def _wrap_class(self, layer, cls, methods) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value) or attr.startswith("__") \
                    or not _selected(attr, methods):
                continue
            self._patched.append((cls, attr, value))
            setattr(cls, attr, self.wrap(f"{layer}.{attr}", value))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)


def _selected(attr: str, methods) -> bool:
    if methods == "all":
        return True
    if methods == "public":
        return not attr.startswith("_")
    return attr in methods


def _subclasses(cls) -> list:
    """Every subclass defined in ``repro``, each once (a class reached
    along two inheritance paths must not be wrapped twice)."""
    found: dict = {}
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro"):
            found[sub] = None
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


# --- deriving per-layer numbers ---------------------------------------------

def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other are counted once, and a child that
    reaches outside its parent only covers the part inside.  Spans need
    not be in any order; ``parent`` holds an index into the same arrays,
    or -1 for a root.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start), dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    if len(kids):
        kids = kids[np.lexsort((start[kids], parent[kids]))]
        owner = parent[kids]
        origin = min(start.min(), end.min())
        lo = np.maximum(start[kids], start[owner]) - origin
        hi = np.minimum(end[kids], end[owner]) - origin
        # Running maximum of the clipped ends of earlier siblings: an
        # offset per parent keeps one parent's maximum from leaking
        # into the next parent's children.
        group = np.cumsum(np.r_[0, owner[1:] != owner[:-1]])
        offset = int(max(hi.max(), 0)) + 1
        reach = np.maximum.accumulate(hi + group * offset)
        frontier = np.r_[0, reach[:-1]] - group * offset
        first = np.r_[True, owner[1:] != owner[:-1]]
        frontier[first] = 0
        gain = hi - np.maximum(lo, frontier)
        np.add.at(covered, owner, np.maximum(gain, 0))
    return end - start - covered


def _arrays(recorder: SpanRecorder):
    return (np.frombuffer(recorder.name, dtype=np.int32),
            np.frombuffer(recorder.start, dtype=np.int64),
            np.frombuffer(recorder.end, dtype=np.int64),
            np.frombuffer(recorder.parent, dtype=np.int32))


def aggregate(recorder: SpanRecorder) -> dict:
    """``{span name: (calls, self ns)}`` over every recorded span."""
    if not len(recorder):
        return {}
    name, start, end, parent = _arrays(recorder)
    selfs = self_times(start, end, parent)
    size = len(recorder.names)
    calls = np.bincount(name, minlength=size)
    self_ns = np.zeros(size, dtype=np.int64)
    np.add.at(self_ns, name, selfs)
    return {recorder.names[i]: (int(calls[i]), int(self_ns[i]))
            for i in range(size) if calls[i]}


def layer_metrics(spans: dict) -> dict:
    """The per-layer metrics that come from spans (see README.md)."""

    def calls(*names) -> int:
        return sum(spans.get(name, (0, 0))[0] for name in names)

    def under(prefix: str) -> list[str]:
        return [name for name in spans
                if name == prefix or name.startswith(prefix + ".")]

    def self_s(prefix: str) -> float:
        return sum(spans[name][1] for name in under(prefix)) / 1e9

    return {
        "workloads.kernel_specs.self_s": self_s("workloads.kernel_specs"),
        "core.engine.launch_kernel.calls": calls("core.engine.launch_kernel"),
        "core.engine.self_s": self_s("core.engine"),
        "gpu.sm.next_ready_warp.calls": calls("gpu.sm.next_ready_warp"),
        "gpu.sm.self_s": self_s("gpu.sm"),
        "core.engine.tlb_shootdown.calls":
            calls("core.engine.tlb_shootdown"),
        "memory.tlb.invalidate.calls": calls("memory.tlb.invalidate"),
        "memory.tlb.self_s": self_s("memory.tlb"),
        "memory.lru.insert.calls": calls("memory.lru.insert"),
        "memory.lru.touch.calls": calls("memory.lru.touch"),
        "memory.lru.victim.calls": calls("memory.lru.victim",
                                         "memory.lru.victim_block",
                                         "memory.lru.victim_page"),
        "memory.lru.self_s": self_s("memory.lru"),
        "memory.page_table.calls": calls(*under("memory.page_table")),
        "memory.page_table.self_s": self_s("memory.page_table"),
        "core.driver.on_new_fault.calls": calls("core.driver.on_new_fault"),
        "core.driver.self_s": self_s("core.driver"),
        "core.events.pop.calls": calls("core.events.pop"),
        "core.events.self_s": self_s("core.events"),
        "interconnect.pcie.transfers.calls":
            calls("interconnect.pcie.schedule"),
        "interconnect.pcie.self_s": self_s("interconnect.pcie"),
        "policy.hook.calls": calls(*under("policy")),
        "policy.self_s": self_s("policy"),
        "stats.to_json.self_s": self_s("stats"),
        "sweep.cache.load.calls": calls("sweep.cache.load"),
        "sweep.cache.store.self_s": self_s("sweep.cache.store"),
        "sweep.execute_cell.self_s": self_s("sweep.execute_cell"),
        "tune.self_s": self_s("tune"),
    }


def depths(parent) -> np.ndarray:
    """Nesting depth of every span (0 for a root)."""
    parent = np.asarray(parent, dtype=np.int64)
    depth = np.zeros(len(parent), dtype=np.int64)
    has_parent = parent >= 0
    while True:
        updated = np.where(has_parent, depth[parent] + 1, 0)
        if np.array_equal(updated, depth):
            return depth
        depth = updated


def chrome_trace(recorder: SpanRecorder, max_events: int = 50_000) -> dict:
    """The spans as Chrome trace JSON, cut to the shallowest levels.

    A traced pass records millions of spans, so the file keeps every
    span down to the deepest nesting level whose spans still fit in
    ``max_events``.  Cutting by depth keeps each kept span's parent, so
    the result still nests.  Each thread is a track of its own.
    """
    events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
               "args": {"name": "perfbench"}}]
    limit = -1
    if len(recorder):
        name, start, end, parent = _arrays(recorder)
        thread = np.frombuffer(recorder.thread, dtype=np.int32)
        depth = depths(parent)
        per_level = np.cumsum(np.bincount(depth))
        limit = int(np.searchsorted(per_level, max_events, side="right")) - 1
        origin = int(start.min())
        for i in np.flatnonzero(depth <= limit):
            events.append({
                "ph": "X", "name": recorder.names[name[i]],
                "cat": "layer", "pid": 1, "tid": int(thread[i]),
                "ts": (int(start[i]) - origin) / 1000.0,
                "dur": (int(end[i]) - int(start[i])) / 1000.0,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "perfbench", "spans": len(recorder),
                          "spans_written": len(events) - 1,
                          "max_depth_written": limit}}
