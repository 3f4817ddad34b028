"""Layer spans and the cProfile pass of the traced benchmark run.

The benchmark measures its end-to-end metrics with nothing installed.
For the per-layer metrics it runs the same workload again with
:func:`instrument` active: every public entry point listed in
:data:`TARGETS` is wrapped, from outside the program, by a function that
records a span (name, start, end, parent) in a :class:`Recorder`. Spans
stay in memory until the run ends. A layer's self time is its spans'
duration minus the part covered by their child spans.

Only the thread that created the recorder records: the experiment
service answers requests on its own threads in the driver process, and
those calls are the server's, not the driver's.

:func:`profile_buckets` turns one ``cProfile`` pass into host-time
shares per ``repro`` subpackage (``core``, ``memory``, ``branch``, ...).
"""

from __future__ import annotations

import functools
import importlib
import os
import pstats
import threading
import time
from contextlib import contextmanager

#: ``(module, class or None, attribute, span name)`` for every wrapped
#: public entry point, grouped by layer. ``service.client`` records no
#: span; it keeps each client built, for its wire telemetry.
TARGETS = (
    ("repro.validation.campaign", "ValidationCampaign", "step2_lmbench", "validation.lmbench"),
    ("repro.validation.campaign", "ValidationCampaign", "evaluate", "validation.evaluate"),
    ("repro.tuning.irace", None, "race", "tuning.race"),
    ("repro.engine.engine", "EvaluationEngine", "simulate_batch", "engine"),
    ("repro.engine.engine", "EvaluationEngine", "evaluate_batch", "engine"),
    ("repro.engine.engine", "EvaluationEngine", "submit_batch", "engine"),
    ("repro.engine.engine", "EvaluationEngine", "poll_batch", "engine"),
    ("repro.engine.engine", "EvaluationEngine", "measure_hw", "engine"),
    ("repro.engine.engine", "EvaluationEngine", "result_key", "engine.key"),
    ("repro.engine.executors", "SerialExecutor", "run", "engine.executor"),
    ("repro.engine.executors", "FabricExecutor", "run", "engine.executor"),
    ("repro.engine.executors", "FabricExecutor", "submit", "fabric.submit"),
    ("repro.engine.executors", "FabricExecutor", "poll", "fabric.poll"),
    ("repro.workloads.base", None, "trace_program", "trace.record"),
    ("repro.trace.columnar", "ColumnarTrace", "build", "trace.columnar"),
    ("repro.trace.columnar", "ColumnarTrace", "from_blob", "trace.columnar"),
    ("repro.hardware.board", "HardwareCore", "measure", "hardware.measure"),
    ("repro.simulator.simulator", "SnipeSim", "run", "simulator"),
    ("repro.engine.executors", None, "simulate_batch", "simulator"),
    ("repro.core.inorder", "InOrderCore", "__init__", "core.construct"),
    ("repro.core.ooo", "OutOfOrderCore", "__init__", "core.construct"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "__init__", "memory.construct"),
    ("repro.store.resultstore", "ResultStore", "get_sim", "store"),
    ("repro.store.resultstore", "ResultStore", "get_sims", "store"),
    ("repro.store.resultstore", "ResultStore", "put_sim", "store"),
    ("repro.store.resultstore", "ResultStore", "put_sim_many", "store"),
    ("repro.store.resultstore", "ResultStore", "get_hw", "store"),
    ("repro.store.resultstore", "ResultStore", "put_hw", "store"),
    ("repro.store.resultstore", "ResultStore", "get_cost", "store"),
    ("repro.store.resultstore", "ResultStore", "put_cost_many", "store"),
    ("repro.service.client", "ServiceClient", "__init__", "service.client"),
)


def _instructions(result) -> int:
    """Simulated instructions in a simulator call's result."""
    if isinstance(result, list):
        return sum(stats.instructions for stats in result)
    return result.instructions


#: Span name -> function of the wrapped call's result giving the work
#: count the span adds to its layer.
COUNTS = {
    "simulator": _instructions,
    "trace.record": len,
}


class Recorder:
    """In-memory spans of one thread, plus what the wrappers observed."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        #: ``[name, start, end, parent index or -1, count]`` per span.
        self.spans: list = []
        self._stack: list = []
        #: Service clients built while instrumented (wire telemetry).
        self.clients: list = []
        #: Every config an executor was handed: the unique trials.
        self.executed_configs: list = []

    def records(self) -> bool:
        """True on the recording thread."""
        return threading.get_ident() == self.thread

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack.pop()

    def durations(self, name: str) -> list:
        """Durations in seconds of every span called ``name``."""
        return [end - start for span_name, start, end, _p, _c in self.spans
                if span_name == name]

    def summary(self) -> dict:
        """``{name: {calls, total_s, self_s, count}}`` over all spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _parent, count) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
            entry["count"] += count
        return out


def merge_summaries(*summaries) -> dict:
    """Sum span summaries of several processes name by name."""
    out: dict = {}
    for summary in summaries:
        for name, entry in (summary or {}).items():
            into = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "count": 0})
            for field in into:
                into[field] += entry[field]
    return out


def _span_wrapper(recorder: Recorder, name: str, fn):
    count = COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.records():
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index, count(result) if count and result is not None else 0)
        return result
    return wrapper


def _race_wrapper(recorder: Recorder, fn):
    """``race`` with each instance step (one ``batch_evaluate``) a span."""
    spanned = _span_wrapper(recorder, "tuning.race", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        step = kwargs.get("batch_evaluate")
        if step is not None and recorder.records():
            kwargs["batch_evaluate"] = _span_wrapper(recorder, "tuning.step", step)
        return spanned(*args, **kwargs)
    return wrapper


def _executor_wrapper(recorder: Recorder, name: str, fn):
    """Executor entry point that also notes the configs it was handed."""
    spanned = _span_wrapper(recorder, name, fn)

    @functools.wraps(fn)
    def wrapper(self, groups, *args, **kwargs):
        if recorder.records():
            for configs, _key, _trace in groups:
                recorder.executed_configs.extend(configs)
        return spanned(self, groups, *args, **kwargs)
    return wrapper


def _client_wrapper(recorder: Recorder, fn):
    """Client constructor that keeps the client (not a span)."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        recorder.clients.append(self)
    return wrapper


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every :data:`TARGETS` entry point while the block runs."""
    patches = []
    try:
        for module_name, class_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if name == "service.client":
                wrapped = _client_wrapper(recorder, fn)
            elif name == "tuning.race":
                wrapped = _race_wrapper(recorder, fn)
            elif name == "engine.executor":
                wrapped = _executor_wrapper(recorder, name, fn)
            else:
                wrapped = _span_wrapper(recorder, name, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            patches.append((owner, attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)


def profile_buckets(profiler) -> dict:
    """Host-time share per ``repro`` subpackage of one ``cProfile`` pass.

    Each function's own time (``tottime``) goes to the subpackage its
    file sits in (``repro/memory/cache.py`` -> ``memory``, a module
    directly in the package -> ``repro``); functions outside ``repro``
    go to ``other``.
    """
    totals: dict = {}
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        _, found, rest = filename.replace(os.sep, "/").rpartition("/repro/")
        bucket = (rest.partition("/")[0] if "/" in rest else "repro") if found else "other"
        totals[bucket] = totals.get(bucket, 0.0) + tottime
    whole = sum(totals.values()) or 1.0
    return {bucket: seconds / whole for bucket, seconds in totals.items()}
