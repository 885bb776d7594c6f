"""Stream ingester: durable acks, incremental re-embedding, backpressure.

:class:`StreamIngestor` is the orchestrator that composes the streaming
tier out of existing subsystems:

* the :class:`~repro.streaming.window.SlidingWindowStore` decides what
  each offered point *means* (applied / buffered / duplicate / late);
* every state-changing (accepted) point in a batch is appended to a
  :class:`~repro.serving.wal.ShardWAL` record and **fsynced before the
  window is mutated** (the batch is classified with a dry run first) —
  the ack-after-fsync invariant the durable serving tier already
  enforces, strengthened so a failed append leaves the window untouched
  and a retried batch is re-accepted instead of dedup-ing away points
  that never became durable;
* segments touched by applied points are re-embedded *incrementally*
  through the encoder's :class:`~repro.core.encoder.PrefixState` fold —
  O(new points), every segment a batch touched folded together as rows
  of one padded batch, each bit-identical to re-encoding it alone from
  scratch — and upserted into an :class:`~repro.core.store.EmbeddingStore`
  keyed by segment id;
* re-embedding runs through a :class:`~repro.serving.batching.MicroBatcher`
  with a bounded in-flight budget. When applied points outrun the
  encoder, segments simply stay *dirty* (a set bounded by the number of
  live segments — bounded memory by construction) and the ingester is
  **degraded**: it keeps accepting points and keeps answering queries
  from the slightly stale table, flagging the staleness instead of
  stalling or crashing.
* ingest admission is load-shed by an
  :class:`~repro.resilience.admission.AdmissionGate` — under overload
  callers get :class:`~repro.exceptions.ServiceOverloadedError`
  immediately; retrying (with backoff) is the caller's choice.

Crash safety: the constructor loads the log's snapshot, replays the
accepted points :meth:`ShardWAL.replay` yields past it, in LSN order,
into the window (deterministic by the window's replay contract) and
re-encodes every live segment from scratch, a bounded block of segments
per batched fold — equal to the pre-crash incremental states because the
prefix fold is chunk- and batch-invariant. A killed ingester therefore
restarts with zero acknowledged-point loss.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.atomicio import atomic_savez, read_npz
from ..core.encoder import PrefixState, TrajectoryEncoder
from ..core.store import EmbeddingStore
from ..exceptions import ServiceClosedError
from ..resilience.admission import AdmissionGate
from ..serving.batching import MicroBatcher
from ..serving.metrics import MetricsRegistry
from ..serving.wal import OP_INSERT, ShardWAL
from .events import StreamPoint, points_from_record, points_to_record
from .window import SlidingWindowStore, WindowConfig

__all__ = ["IngestResult", "StreamConfig", "StreamIngestor",
           "StreamQueryResult", "STREAM_BASE_TAG"]

#: ``ShardWAL`` base tag: bumping it invalidates old durable state.
STREAM_BASE_TAG = "stream-v1"

#: Most segments one synchronous re-embed folds at once: recovery folds
#: the whole window in blocks of this many.
_FOLD_ROWS = 64


@dataclass(frozen=True)
class StreamConfig:
    """Ingester knobs on top of the window semantics.

    Attributes
    ----------
    window:
        Sliding-window shape (lateness, TTL, reorder bound, segment roll).
    encode_batch_size:
        Micro-batch cap for segment re-embeds.
    max_pending_encodes:
        In-flight re-embed jobs before further dirty segments are
        *deferred* (degraded mode) instead of queued — the bounded-queue
        half of backpressure.
    admission_limit:
        Concurrent ``ingest`` calls admitted before shedding (0 = off).
    snapshot_every:
        Accepted points between automatic snapshots (0 = manual only).
    sync_encode:
        Re-embed inline inside ``ingest`` instead of through the
        batcher. Deterministic and simple — what the chaos tests and the
        recovery path use; production ingest wants the async default.
    segment_bytes:
        WAL rotation threshold, passed to the
        :class:`~repro.serving.wal.ShardWAL`.
    """

    window: WindowConfig = WindowConfig()
    encode_batch_size: int = 8
    max_pending_encodes: int = 8
    admission_limit: int = 32
    snapshot_every: int = 0
    sync_encode: bool = False
    segment_bytes: int = 8 << 20


@dataclass
class IngestResult:
    """Per-batch outcome: status tallies plus the durability point."""

    accepted: int = 0
    applied: int = 0
    buffered: int = 0
    duplicates: int = 0
    late: int = 0
    evicted_segments: int = 0
    lsn: Optional[int] = None
    degraded: bool = False


@dataclass(frozen=True)
class StreamQueryResult:
    """A kNN answer over the live window, with freshness context.

    ``degraded`` is True when some live segments have applied points not
    yet folded into their embedding (the answer may be slightly stale);
    ``watermark`` dates the window the answer was computed against.
    """

    segment_ids: np.ndarray
    distances: np.ndarray
    degraded: bool
    watermark: float


class StreamIngestor:
    """Fault-tolerant continuous ingest over one encoder and one window.

    Parameters
    ----------
    encoder:
        A fitted :class:`~repro.core.encoder.TrajectoryEncoder` (e.g.
        ``model.encoder``); only its inference paths are used.
    directory:
        Durable directory (WAL segments + snapshot generations). The
        constructor recovers whatever state it finds there.
    config:
        :class:`StreamConfig`.
    backend:
        Search backend for the window's embedding table (``"exact"`` or
        ``"ivf"``; IVF is maintained incrementally on insert/evict).
    registry:
        Optional shared :class:`~repro.serving.metrics.MetricsRegistry`.
    wal_hook:
        Fault-injection seam forwarded to the WAL (crash tests).
    encode_hook:
        Called once per segment that a re-embed folds new points into —
        the seam the overload tests use to inject encoder latency/failures.
    """

    def __init__(self, encoder: TrajectoryEncoder, directory,
                 config: StreamConfig = StreamConfig(), *,
                 backend="exact", registry: Optional[MetricsRegistry] = None,
                 wal_hook=None, encode_hook=None, **backend_options):
        self.encoder = encoder
        self.config = config
        self._lock = threading.Lock()
        self._closed = False
        self._encode_hook = encode_hook
        self._store = EmbeddingStore(None, backend=backend,
                                     dim=encoder.config.embedding_dim,
                                     **backend_options)
        self._window = SlidingWindowStore(config.window)
        self._prefix: Dict[int, PrefixState] = {}
        self._dirty: Set[int] = set()
        self._inflight: Set[int] = set()
        self._accepted_total = 0
        self._accepted_since_snapshot = 0
        self._recovered_points = 0
        self._gate = AdmissionGate(config.admission_limit)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_status = {
            status: self.metrics.counter(
                f"stream_points_{status}_total",
                f"points whose ingest outcome was '{status}'")
            for status in ("applied", "buffered", "duplicate", "late")}
        self._m_evicted = self.metrics.counter(
            "stream_segments_evicted_total", "segments aged out of the window")
        self._m_shed = self.metrics.counter(
            "stream_ingest_shed_total", "ingest calls refused by admission")
        self._g_degraded = self.metrics.gauge(
            "stream_degraded", "1 when re-embedding lags applied points")
        self._g_window = self.metrics.gauge(
            "stream_window_points", "points currently in window segments")
        self._g_backlog = self.metrics.gauge(
            "stream_backlog_segments", "dirty segments awaiting re-embed")
        self._h_ingest = self.metrics.histogram(
            "stream_ingest_seconds", "ingest batch latency (durable ack)")
        self._batcher: Optional[MicroBatcher] = None
        self._log = ShardWAL(directory, STREAM_BASE_TAG, hook=wal_hook,
                             segment_bytes=config.segment_bytes)
        try:
            self._recover()
            if not config.sync_encode:
                self._batcher = MicroBatcher(
                    self._encode_batch, name="stream-encoder",
                    max_batch_size=config.encode_batch_size)
                with self._lock:
                    self._schedule_locked()
        except BaseException:
            self.close()  # or the open segment leaks
            raise

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Snapshot + log replay, then rebuild embeddings for the window."""
        with self._lock:
            if self._log.snapshot is not None:
                arrays = read_npz(self._log.snapshot)
                self._window = SlidingWindowStore.from_snapshot_arrays(
                    self.config.window, arrays)
                self._accepted_total = int(arrays["stream_meta"][0])
            for record in self._log.replay():
                for point in points_from_record(record):
                    self._window.apply(point)
                self._recovered_points += int(record.ids.shape[0])
                self._accepted_total = max(self._accepted_total,
                                           int(record.ids.max()) + 1)
            # Re-encode every live segment from scratch, shortest first so
            # each block's rows fold for about as many steps. The prefix
            # fold is chunk- and batch-invariant, so these states are
            # bit-identical to the incremental ones the pre-crash process
            # had built.
            self._reembed_locked(sorted(
                self._window.live_segments(),
                key=lambda segment_id: len(self._window.segment(segment_id))))
            self._set_gauges_locked()

    # --------------------------------------------------------------- ingest

    def ingest(self, points: Sequence[StreamPoint]) -> IngestResult:
        """Offer a batch of points; returns once accepted ones are durable.

        Every point is classified by the window (a dry run — no state
        changes yet); the accepted ones (applied or reorder-buffered)
        are appended as one fsynced WAL record, and only then is the
        window mutated — so a crash after the return loses none of
        them, and a WAL failure fails the whole batch with the window
        untouched (the retry is re-accepted, not absorbed as duplicates
        of points that were never logged). Raises
        :class:`~repro.exceptions.ServiceOverloadedError` when admission
        sheds the call — retry with backoff.
        """
        result = IngestResult()
        batch = list(points)
        if not batch:
            return result
        started = time.monotonic()
        try:
            admitted = self._gate.admit("stream ingest")
            admitted.__enter__()
        except BaseException:
            self._m_shed.inc()
            raise
        try:
            with self._lock:
                if self._closed:
                    raise ServiceClosedError("stream ingester is closed")
                # Durability before mutation: classify the batch with a
                # dry run, fsync the accepted points into the WAL, and
                # only then apply them. If the append raises, the window
                # is untouched — the whole batch fails, and a client
                # retry re-classifies identically instead of dedup-ing
                # away points that were never made durable.
                statuses = self._window.classify(batch)
                accepted = [point for point, status in zip(batch, statuses)
                            if status in ("applied", "buffered")]
                if accepted:
                    ids, rows = points_to_record(accepted,
                                                 self._accepted_total)
                    result.lsn = self._log.append(OP_INSERT, ids, rows)
                    self._accepted_total += len(accepted)
                    self._accepted_since_snapshot += len(accepted)
                result.accepted = len(accepted)
                touched: Set[int] = set()
                evicted: List[int] = []
                for point, planned in zip(batch, statuses):
                    applied = self._window.apply(point)
                    if applied.status != planned:
                        raise RuntimeError(
                            f"window classify/apply drift on "
                            f"{point!r}: planned {planned}, "
                            f"applied {applied.status}")
                    if applied.status == "applied":
                        result.applied += 1
                    elif applied.status == "buffered":
                        result.buffered += 1
                    elif applied.status == "duplicate":
                        result.duplicates += 1
                    else:
                        result.late += 1
                    self._m_status[applied.status].inc()
                    touched.update(sid for sid, _ in applied.appended)
                    evicted.extend(applied.evicted)
                if evicted:
                    self._retire_segments_locked(evicted)
                    result.evicted_segments = len(evicted)
                    self._m_evicted.inc(len(evicted))
                self._dirty.update(sid for sid in touched
                                   if sid not in set(evicted))
                if self.config.sync_encode:
                    self._reembed_locked(sorted(self._dirty))
                else:
                    self._schedule_locked()
                result.degraded = self._degraded_locked()
                if (self.config.snapshot_every
                        and self._accepted_since_snapshot
                        >= self.config.snapshot_every):
                    self._snapshot_locked()
                self._set_gauges_locked()
        finally:
            admitted.__exit__(None, None, None)
        self._h_ingest.observe(time.monotonic() - started)
        return result

    # -------------------------------------------------------- re-embedding

    def _tails_locked(self, segment_ids: Sequence[int]
                      ) -> List[Tuple[int, PrefixState, np.ndarray]]:
        """``(segment id, state, new points)`` for each of ``segment_ids``
        whose embedding lacks some of its points; the points are a copy,
        safe to fold outside the lock.

        Caller must hold ``self._lock``. Evicted segments are cleaned up
        and current ones marked clean instead.
        """
        jobs = []
        for segment_id in segment_ids:
            if not self._window.has_segment(segment_id):
                self._prefix.pop(segment_id, None)
                self._dirty.discard(segment_id)
                continue
            segment = self._window.segment(segment_id)
            state = self._prefix.get(segment_id)
            if state is None:
                state = self.encoder.init_prefix()
            if state.length < len(segment):
                jobs.append((segment_id, state,
                             segment.points(state.length)))
            else:
                self._dirty.discard(segment_id)
        return jobs

    def _fold(self, jobs: List[Tuple[int, PrefixState, np.ndarray]]
              ) -> List[PrefixState]:
        """Every job's new points folded into its state, in one batch."""
        if self._encode_hook is not None:
            for _ in jobs:
                self._encode_hook()
        return self.encoder.extend_prefixes([state for _, state, _ in jobs],
                                            [tail for _, _, tail in jobs])

    def _commit_locked(self, jobs: List[Tuple[int, PrefixState, np.ndarray]],
                       states: List[PrefixState]) -> None:
        """Keep the folded states and upsert their embeddings in one call.

        Caller must hold ``self._lock``. A segment evicted since its tail
        was taken is dropped (its embedding is already gone); one that
        gained points meanwhile stays dirty for another round.
        """
        ids, rows = [], []
        for (segment_id, _, _), state in zip(jobs, states):
            if not self._window.has_segment(segment_id):
                self._prefix.pop(segment_id, None)
                self._dirty.discard(segment_id)
                continue
            self._prefix[segment_id] = state
            ids.append(segment_id)
            rows.append(state.h)
            if state.length >= len(self._window.segment(segment_id)):
                self._dirty.discard(segment_id)
        if ids:
            self._store.upsert_embeddings(np.concatenate(rows), ids)

    def _reembed_locked(self, segment_ids: Sequence[int]) -> None:
        """Bring ``segment_ids`` up to date, ``_FOLD_ROWS`` per fold.

        Caller must hold ``self._lock`` — this is the synchronous path
        (``sync_encode=True``, ``wait_until_current`` and recovery), where
        the caller is the only thread and holding the lock through the
        encode is free.
        """
        for start in range(0, len(segment_ids), _FOLD_ROWS):
            jobs = self._tails_locked(segment_ids[start:start + _FOLD_ROWS])
            if jobs:
                self._commit_locked(jobs, self._fold(jobs))

    def _schedule_locked(self) -> None:
        """Submit dirty segments up to the in-flight budget.

        Caller must hold ``self._lock``. Whatever does not fit stays in
        the dirty set (degraded mode) for a later round.
        """
        if self._batcher is None or self._closed:
            return
        for segment_id in sorted(self._dirty - self._inflight):
            if len(self._inflight) >= self.config.max_pending_encodes:
                break
            self._inflight.add(segment_id)
            self._batcher.submit(segment_id)

    def _encode_batch(self, segment_ids: List[int]) -> List[None]:
        """Batcher worker: bring the submitted segments up to date, with
        the encoder *outside* the lock.

        Snapshot every submitted segment's new points under the lock, fold
        them all unlocked (so a slow encode never stalls ``ingest()`` or
        ``query()``), then re-acquire to commit. The segments stay in
        ``self._inflight`` until then, so the scheduler never
        double-submits one; points that arrive mid-encode leave a segment
        dirty for another round, and so does a failed fold.
        """
        with self._lock:
            jobs = self._tails_locked(segment_ids)
        try:
            states = self._fold(jobs)
        except BaseException:
            with self._lock:
                self._inflight.difference_update(segment_ids)
            raise
        with self._lock:
            self._inflight.difference_update(segment_ids)
            self._commit_locked(jobs, states)
            self._schedule_locked()
            self._set_gauges_locked()
        return [None] * len(segment_ids)

    def _degraded_locked(self) -> bool:
        """Whether applied points have outrun re-embedding.

        Caller must hold ``self._lock``.
        """
        return bool(self._dirty)

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded_locked()

    def wait_until_current(self, timeout_s: float = 30.0) -> bool:
        """Block until every segment's embedding is current (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                if not self._dirty:
                    return True
                if self.config.sync_encode:
                    self._reembed_locked(sorted(self._dirty))
                    continue
                self._schedule_locked()
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def _retire_segments_locked(self, segment_ids: List[int]) -> None:
        """Drop evicted segments' embeddings and encoder states.

        Caller must hold ``self._lock``.
        """
        self._store.remove(segment_ids)
        for segment_id in segment_ids:
            self._prefix.pop(segment_id, None)
            self._dirty.discard(segment_id)
        backend = self._store.backend
        if hasattr(backend, "maybe_compact"):
            backend.maybe_compact()

    def _set_gauges_locked(self) -> None:
        """Refresh the window/backlog gauges. Caller must hold
        ``self._lock``."""
        stats = self._window.stats()
        self._g_degraded.set(1.0 if self._dirty else 0.0)
        self._g_window.set(stats["window_points"])
        self._g_backlog.set(len(self._dirty))

    # ---------------------------------------------------------------- query

    def query(self, points: np.ndarray, k: int = 10) -> StreamQueryResult:
        """kNN over the live window for a raw (n, 2) query trajectory."""
        state = self.encoder.encode_prefix(
            np.asarray(points, dtype=np.float64))
        with self._lock:
            ids, distances = self._store.query_embedding(state.embedding,
                                                         int(k))
            return StreamQueryResult(segment_ids=ids, distances=distances,
                                     degraded=self._degraded_locked(),
                                     watermark=self._window.watermark)

    def window_embeddings(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(segment_ids, embeddings)`` — the online-anomaly feed."""
        with self._lock:
            return (np.asarray(self._store.ids, dtype=np.int64),
                    np.array(self._store.embeddings))

    def window_segments(self) -> Dict[int, np.ndarray]:
        """Segment id -> (n, 2) points for every live segment (copies)."""
        with self._lock:
            return {segment_id: self._window.segment(segment_id).points()
                    for segment_id in self._window.live_segments()}

    # ----------------------------------------------------------- durability

    def snapshot(self) -> dict:
        """Commit a snapshot generation and truncate the WAL behind it."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        """Caller must hold ``self._lock``."""
        arrays = self._window.snapshot_arrays()
        arrays["stream_meta"] = np.array([self._accepted_total],
                                         dtype=np.int64)

        def save_fn(path: str) -> None:
            atomic_savez(path, compressed=True, **arrays)

        manifest = self._log.checkpoint(
            save_fn, count=self._window.stats()["window_points"],
            next_id=self._accepted_total)
        self._accepted_since_snapshot = 0
        return manifest

    # ------------------------------------------------------------ lifecycle

    def stats(self) -> Dict:
        with self._lock:
            window = self._window.stats()
            out = {
                "window": window,
                "accepted_total": self._accepted_total,
                "applied_lsn": self._log.applied_lsn,
                "recovered_points": self._recovered_points,
                "degraded": self._degraded_locked(),
                "dirty_segments": len(self._dirty),
                "inflight_encodes": len(self._inflight),
                "store_rows": len(self._store),
                "admission": self._gate.stats(),
                "wal": self._log.stats()["wal"],
                "search": self._store.search_stats(),
            }
        if self._batcher is not None:
            out["encoder_batcher"] = self._batcher.stats()
        return out

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            log = self._log
        if self._batcher is not None:
            self._batcher.close()
        log.close()

    def __enter__(self) -> "StreamIngestor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
