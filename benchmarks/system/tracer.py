"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`Tracer.install`
wraps the public entry point of each layer, named by dotted path in
:data:`TARGETS`, and the load generators open one root span per
operation. Nothing under ``src/`` knows about this module.

A span is the tuple ``(span_id, parent_id, name, start, end, request_id,
work)``. ``start``/``end`` are ``time.perf_counter()`` readings — on Linux
that is the system-wide monotonic clock, so spans written by the traced
server process line up with the client's. ``work`` is an optional count
of what the call processed (points, pairs), taken from its arguments.

A target that no longer resolves is listed in ``Tracer.missing`` and its
metrics read as absent; it never stops a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: span name -> dotted path of the entry point it times. Paths go through
#: package-level exports where one exists, so moving a module does not
#: orphan its span.
TARGETS = {
    "serving.http.handler": "repro.serving.http._Handler.do_POST",
    "serving.service.top_k": "repro.serving.SimilarityService.top_k",
    "serving.sharding.top_k": "repro.serving.ShardedService.top_k",
    "serving.sharding.insert": "repro.serving.ShardedService.insert",
    "serving.sharding.delete": "repro.serving.ShardedService.delete",
    "serving.batching.call": "repro.serving.MicroBatcher.__call__",
    "serving.wal.append": "repro.serving.wal.ShardWAL.append",
    "core.encoder.embed": "repro.MetricModel.embed",
    "core.encoder.extend_prefix": "repro.core.TrajectoryEncoder.extend_prefix",
    "core.store.query_embedding": "repro.EmbeddingStore.query_embedding",
    "core.store.upsert": "repro.EmbeddingStore.upsert_embeddings",
    "core.store.remove": "repro.EmbeddingStore.remove",
    "streaming.ingest.ingest": "repro.streaming.StreamIngestor.ingest",
    "streaming.ingest.query": "repro.streaming.StreamIngestor.query",
    "streaming.window.classify": "repro.streaming.SlidingWindowStore.classify",
    "streaming.window.apply": "repro.streaming.SlidingWindowStore.apply",
    "core.model.fit": "repro.NeuTraj.fit",
    "measures.matrix.pairwise": "repro.measures.pairwise_distances",
    "core.sampling.sample": "repro.core.PairSampler.sample",
    "core.trainer.step": "repro.core.training_step",
    "nn.forward": "repro.core.TrajectoryEncoder.encode",
    "nn.backward": "repro.nn.Tensor.backward",
    "nn.optim.clip": "repro.nn.clip_grad_norm",
    "nn.optim.step": "repro.nn.Adam.step",
}

#: HTTP header that carries the client's request id to the handler span.
REQUEST_ID_HEADER = "X-Bench-Request-Id"


def _points_in(trajectories):
    return sum(len(t) for t in trajectories)


#: span name -> function of the call's arguments giving its ``work``.
WORK = {
    "core.encoder.embed": lambda self, trajectories, *a, **k:
        _points_in(trajectories),
    "nn.forward": lambda self, trajectories, *a, **k:
        _points_in(trajectories),
    "core.encoder.extend_prefix": lambda self, state, points: len(points),
    "streaming.window.classify": lambda self, points: len(points),
    "measures.matrix.pairwise": lambda trajectories, *a, **k:
        len(trajectories) * (len(trajectories) - 1) // 2,
}

#: span name -> function of the call's arguments giving its request id
#: (only the HTTP handler learns it from outside the process).
REQUEST_ID = {
    "serving.http.handler": lambda self: self.headers.get(REQUEST_ID_HEADER),
}


def _from_args(reader, args, kwargs):
    """What ``reader`` makes of a call's arguments; ``None`` when the
    signature it was written for has changed."""
    if reader is None:
        return None
    try:
        return reader(*args, **kwargs)
    except (TypeError, AttributeError):
        return None


def resolve(dotted):
    """``(owner, attribute name, value)`` for a dotted path.

    Imports the longest importable module prefix, then walks attributes.
    Raises ``LookupError`` when any step is missing.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError as exc:
            raise LookupError(f"{dotted}: {exc}") from exc
    raise LookupError(f"{dotted}: no importable module prefix")


class Tracer:
    """Records spans while ``enabled``; one per process."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.missing = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, request_id=None, work=None):
        """Record one span around the body of a ``with`` statement."""
        if not self.enabled:
            yield
            return
        span_id, parent_id, request_id = self._open(request_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close((span_id, parent_id, name, start,
                         time.perf_counter(), request_id, work))

    def _open(self, request_id):
        stack = self._stack()
        span_id = f"{self._pid}:{next(self._ids)}"
        if stack:
            parent_id, inherited = stack[-1]
            request_id = inherited if request_id is None else request_id
        else:
            parent_id = None
        stack.append((span_id, request_id))
        return span_id, parent_id, request_id

    def _close(self, record):
        self._stack().pop()
        self.spans.append(record)

    def _wrapper(self, name, fn):
        work_of = WORK.get(name)
        request_of = REQUEST_ID.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            request_id = _from_args(request_of, args, {})
            span_id, parent_id, request_id = self._open(request_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                work = _from_args(work_of, args, kwargs)
                self._close((span_id, parent_id, name, start, end,
                             request_id, work))

        return traced

    # ------------------------------------------------------------- patching

    def install(self, targets=None):
        """Wrap every resolvable target; list the rest in ``missing``."""
        for name, dotted in (targets or TARGETS).items():
            try:
                owner, attribute, original = resolve(dotted)
            except LookupError:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, wrapped)
                continue
            # A module-level function is also bound, by ``from x import
            # f``, in every module that imported it before now.
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is original):
                    self._patch(module, attribute, original, wrapped)

    def _patch(self, owner, attribute, original, wrapped):
        setattr(owner, attribute, wrapped)
        self._patched.append((owner, attribute, original))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------- persistence

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "missing": self.missing}, handle)

    def absorb(self, path):
        """Add the spans another process dumped (the traced server)."""
        with open(path) as handle:
            payload = json.load(handle)
        self.spans.extend(tuple(span) for span in payload["spans"])
        self.missing.extend(name for name in payload["missing"]
                            if name not in self.missing)


# ------------------------------------------------------------------ analysis

SPAN_ID, PARENT, NAME, START, END, REQUEST, WORK_DONE = range(7)


def duration(span):
    return span[END] - span[START]


def adopt_by_request(spans, root_name):
    """Parent each orphan span that carries a request id to its root.

    The traced server's handler spans have no parent in their own process;
    the client's root span of the same request id is their cause.
    """
    roots = {str(span[REQUEST]): span[SPAN_ID] for span in spans
             if span[NAME] == root_name and span[REQUEST] is not None}
    adopted = []
    for span in spans:
        if (span[PARENT] is None and span[NAME] != root_name
                and str(span[REQUEST]) in roots):
            span = (span[SPAN_ID], roots[str(span[REQUEST])]) + tuple(span[2:])
        adopted.append(tuple(span))
    return adopted


def self_times(spans):
    """``{span_id: self time}``: duration minus the direct children's."""
    out = {span[SPAN_ID]: duration(span) for span in spans}
    for span in spans:
        if span[PARENT] in out:
            out[span[PARENT]] -= duration(span)
    return out


class SpanTable:
    """Spans grouped by name, with the sums the per-layer metrics need."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self._groups = defaultdict(list)
        for span in spans:
            self._groups[span[NAME]].append(span)

    def of(self, *names):
        return [span for name in names for span in self._groups[name]]

    def count(self, *names):
        return len(self.of(*names))

    def total_s(self, *names):
        return sum(duration(span) for span in self.of(*names))

    def self_s(self, *names):
        return sum(self.selfs[span[SPAN_ID]] for span in self.of(*names))

    def work(self, *names):
        return sum(span[WORK_DONE] or 0 for span in self.of(*names))

    def us_per_work(self, name):
        work = self.work(name)
        return self.total_s(name) * 1e6 / work if work else 0.0

    def mean_ms(self, name, self_time=False):
        count = self.count(name)
        total = self.self_s(name) if self_time else self.total_s(name)
        return total * 1000.0 / count if count else 0.0

    def p50_ms(self, name, self_time=False):
        values = [self.selfs[span[SPAN_ID]] if self_time else duration(span)
                  for span in self.of(name)]
        return statistics.median(values) * 1000.0 if values else 0.0

    def encoder_behind_batcher(self):
        """The three metrics of a service that encodes through its
        micro-batcher (the batcher runs ``embed`` on its own thread, so the
        wait is a difference of medians, not a parent and a child)."""
        return {
            "serving.batching.wait_ms": (self.p50_ms("serving.batching.call")
                                         - self.p50_ms("core.encoder.embed")),
            "core.encoder.embed_call_ms": self.p50_ms("core.encoder.embed"),
            "core.encoder.embed_us_per_point": self.us_per_work(
                "core.encoder.embed"),
        }

    def share_of_roots(self, root, *names):
        """Self time of the ``names`` spans over the root spans' time."""
        total = self.total_s(root)
        return self.self_s(*names) / total if total else 1.0
