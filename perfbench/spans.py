"""Span tracing around the public calls of the ``repro`` layers.

The benchmark does not change the program to trace it: :func:`install`
replaces selected public functions and methods with wrappers that record one
span per call (name, start, end, parent span, request id) while the tracer is
enabled, and call straight through otherwise.  Spans stay in memory; the
aggregates :meth:`Tracer.aggregate` returns are what the per-layer metrics are
computed from; :meth:`Tracer.reset` appends the raw spans to the tracer's
``sink`` file (JSON lines) before dropping them.

A span's *self time* is its duration minus the time covered by its child
spans.  Spans nest per thread; a call that re-enters a function of the same
span name (the recursive wire codec) folds into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name) of every wrapped public call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.net.protocol", "encode", "net.encode"),
    ("repro.net.protocol", "decode", "net.decode"),
    ("repro.net.protocol", "encode_frame", "net.encode_frame"),
    ("repro.net.replica", "ReplicaSet.submit", "net.dispatch"),
    ("repro.serving.batcher", "MicroBatcher.submit", "serving.admit"),
    ("repro.core.fairds", "FairDS.lookup_batch", "fairds.lookup_batch"),
    ("repro.core.fairds", "FairDS.dataset_distribution_batch", "fairds.distribution"),
    ("repro.core.fairds", "FairDS.nearest_labeled", "fairds.nearest"),
    ("repro.core.fairds", "FairDS.ingest", "fairds.ingest"),
    ("repro.core.fairds", "FairDS.certainty_batch", "fairds.certainty"),
    ("repro.core.fairds", "FairDS.refresh", "fairds.refresh"),
    ("repro.core.fairds", "FairDS.fit", "fairds.fit"),
    ("repro.embedding.pca_embedder", "PCAEmbedder.transform", "embedding.transform"),
    ("repro.embedding.pca_embedder", "PCAEmbedder.fit", "embedding.fit"),
    ("repro.clustering.kmeans", "KMeans.predict", "clustering.predict"),
    ("repro.clustering.kmeans", "KMeans.fit", "clustering.fit"),
    ("repro.dataio.sampler", "WeightedClusterSampler.__init__", "dataio.sampler"),
    ("repro.dataio.sampler", "WeightedClusterSampler.__iter__", "dataio.sampler"),
    ("repro.storage.documentdb", "Collection.find", "storage.find"),
    ("repro.storage.documentdb", "Collection.get", "storage.get"),
    ("repro.storage.documentdb", "Collection.fetch_payloads", "storage.fetch"),
    ("repro.storage.documentdb", "Collection.insert_many", "storage.insert"),
    ("repro.storage.vector_index", "VectorIndex.query_batch", "storage.index_query"),
    ("repro.storage.vector_index", "ClusteredVectorIndex.query_batch", "storage.index_query"),
    ("repro.storage.vector_index", "VectorIndex.add", "storage.index_add"),
    ("repro.storage.vector_index", "ClusteredVectorIndex.add", "storage.index_add"),
    ("repro.nn.trainer", "Trainer.fit", "nn.train"),
    ("repro.nn.trainer", "Trainer.fine_tune", "nn.train"),
    ("repro.core.fairms", "FairMS.recommend", "fairms.recommend"),
    ("repro.core.fairms", "FairMS.register", "fairms.register"),
    ("repro.core.fairms", "FairMS.load", "fairms.load"),
)

#: Modules imported before patching, so names imported with ``from x import f``
#: are found and replaced wherever they were bound.
_IMPORT_FIRST = ("repro.net.server", "repro.net.client", "repro.api.deployment")


class _Open:
    __slots__ = ("span_id", "parent", "request", "name", "start", "child_s")

    def __init__(self, span_id, parent, request, name, start):
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder; off until :attr:`enabled` is set."""

    def __init__(self, sink=None) -> None:
        #: JSON-lines file that :meth:`reset` appends finished spans to.
        self.sink = sink
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Finished spans: (span_id, parent_id, request_id, name, start, end, self_s).
        self.spans: List[Tuple[int, Optional[int], int, str, float, float, float]] = []
        #: Counts and sums recorded at the same boundaries, by key.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Admission time of queued serving payloads, by ``id(payload)``.
        self.admitted: Dict[int, float] = {}

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> Optional[_Open]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            return None
        span_id = next(self._ids)
        request = parent.request if parent is not None else span_id
        frame = _Open(span_id, parent, request, name, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame: Optional[_Open]) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        if frame.parent is not None:
            frame.parent.child_s += duration
        record = (frame.span_id, frame.parent.span_id if frame.parent else None,
                  frame.request, frame.name, frame.start, end, duration - frame.child_s)
        with self._lock:
            self.spans.append(record)

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (the benchmark's own op roots)."""
        return _Span(self, name)

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``; plus every
        count under ``counts``."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        with self._lock:
            spans = list(self.spans)
            counts = dict(self.counts)
        for _sid, _pid, _rid, name, start, end, self_s in spans:
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["total_s"] += end - start
        result = {name: dict(agg) for name, agg in out.items()}
        result["counts"] = counts
        return result

    def reset(self) -> None:
        """Write the buffered spans to :attr:`sink` (if set) and clear all state."""
        with self._lock:
            spans, self.spans = self.spans, []
            self.counts.clear()
            self.admitted.clear()
        if self.sink is None or not spans:
            return
        with open(self.sink, "a", encoding="utf-8") as fh:
            for sid, pid, rid, name, start, end, self_s in spans:
                fh.write(json.dumps({"id": sid, "parent": pid, "request": rid, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.frame = tracer, name, None

    def __enter__(self) -> None:
        if self.tracer.enabled:
            self.frame = self.tracer.enter(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


# -- counters recorded at the wrapped boundaries ------------------------------------
def _count_frame(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("net.frames")
    tracer.add("net.frame_bytes", len(out))


def _count_rows(key: str) -> Callable:
    def hook(tracer: Tracer, args, kwargs, out) -> None:
        tracer.add(key, len(args[1]))
    return hook


def _count_find(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("storage.docs_scanned", len(out))


def _count_lookup(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("fairds.labels_returned", sum(len(r) for r in out))


def _count_train(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("nn.epochs", out.epochs_run)


def _note_admission(tracer: Tracer, args, kwargs, out) -> None:
    request = args[1]
    with tracer._lock:
        tracer.admitted[id(request.payload)] = request.admitted_at


def _time_dispatch(tracer: Tracer, args, kwargs, future) -> None:
    """Server-side handling time of one wire request: dispatch to result."""
    start = time.perf_counter()
    future.add_done_callback(
        lambda _f: tracer.add("net.server_s", time.perf_counter() - start)
    )
    tracer.add("net.dispatched")


_HOOKS: Dict[str, Callable] = {
    "net.encode_frame": _count_frame,
    "embedding.transform": _count_rows("embedding.rows"),
    "storage.find": _count_find,
    "fairds.lookup_batch": _count_lookup,
    "nn.train": _count_train,
    "serving.admit": _note_admission,
    "net.dispatch": _time_dispatch,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    hook = _HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            if name == "serving.admit":
                tracer.add("serving.rejected")
            raise
        finally:
            tracer.exit(frame)
        if hook is not None and frame is not None:
            hook(tracer, args, kwargs, out)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


def wrap_handler(tracer: Tracer, handler: Callable) -> Callable:
    """A serving batch handler that records batch size, queue wait (admission
    to handler start) and a ``serving.handler`` span."""

    @functools.wraps(handler)
    def traced(payloads):
        if not tracer.enabled:
            return handler(payloads)
        mono = time.monotonic()
        with tracer._lock:
            waits = [tracer.admitted.pop(id(p), None) for p in payloads]
        waits = [mono - t for t in waits if t is not None]
        tracer.add("serving.batches")
        tracer.add("serving.batch_payloads", len(payloads))
        tracer.add("serving.queue_wait_s", sum(waits))
        tracer.add("serving.queued", len(waits))
        frame = tracer.enter("serving.handler")
        try:
            return handler(payloads)
        finally:
            tracer.exit(frame)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` call (and each serving runtime's handlers)
    so ``tracer`` records them while enabled.  Idempotent per process."""
    for module in _IMPORT_FIRST:
        importlib.import_module(module)
    for module_name, path, span_name in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if parents else getattr(owner, attr)
        if hasattr(original, "__perfbench_original__"):
            continue
        wrapped = _wrap(tracer, span_name, original)
        setattr(owner, attr, wrapped)
        if not parents:
            # Rebind copies made by ``from module import name`` elsewhere.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro.") \
                        and getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)

    from repro.serving.runtime import ServingRuntime

    original_init = ServingRuntime.__init__
    if hasattr(original_init, "__perfbench_original__"):
        return

    @functools.wraps(original_init)
    def init(self, handlers, *args, **kwargs):
        handlers = {op: wrap_handler(tracer, fn) for op, fn in handlers.items()}
        original_init(self, handlers, *args, **kwargs)

    init.__perfbench_original__ = original_init
    ServingRuntime.__init__ = init
