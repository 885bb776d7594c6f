"""Sliding-window state machine: dedup, reordering, watermarks, eviction.

:class:`SlidingWindowStore` is the *deterministic core* of the streaming
tier: a pure in-memory state machine whose entire state is a function of
the sequence of accepted points in arrival order. It knows nothing about
WALs, encoders or embedding stores — the ingester replays the accepted
sequence from the WAL after a crash and lands, by construction, in the
same window state.

Semantics (see DESIGN.md "Streaming ingest" for the full contract):

* **Event time only.** Timestamps come from the points themselves; this
  module never reads a clock, so replay is exact and the determinism
  lint stays clean.
* **Per-source sequence numbers, at-least-once dedup.** Each source
  numbers its points ``1, 2, ...``. A point at or below the source's
  ``applied_through`` mark (or already applied above it) is a duplicate:
  acknowledged, counted, state unchanged.
* **Bounded reordering.** Out-of-order points wait in a per-source
  buffer of at most ``reorder_buffer`` slots until their gap fills. A
  full buffer force-advances over the lowest gap (the skipped sequence
  range is counted as abandoned — a retransmit arriving later dedups
  away below ``applied_through``).
* **Watermark and lateness.** The watermark trails the maximum accepted
  event time by ``lateness_s``. Points older than the watermark are
  *late*: counted and dropped, never silently and never applied. The
  watermark is monotone because the maximum is.
* **Segment-granular TTL eviction.** Applied points append to their
  source's active *segment* (a growing trajectory); segments roll at
  ``max_segment_points`` so prefix-encoded history ages out in bounded
  chunks. A segment whose newest point falls ``ttl_s`` behind the
  watermark is evicted wholesale — the caller drops its embedding.

The class is deliberately not thread-safe: the ingester serialises all
access under its own lock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .events import StreamPoint

__all__ = ["ApplyResult", "Segment", "SlidingWindowStore", "WindowConfig"]


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the sliding window.

    Attributes
    ----------
    lateness_s:
        Event-time slack the watermark trails the newest accepted point
        by; points older than the watermark are counted and dropped.
    ttl_s:
        Event-time a segment may idle behind the watermark before it is
        evicted (with its embedding).
    reorder_buffer:
        Out-of-order points held per source while waiting for their
        sequence gap to fill.
    max_segment_points:
        Roll a source's growing segment after this many points, bounding
        both encoder state growth and eviction granularity.
    """

    lateness_s: float = 30.0
    ttl_s: float = 300.0
    reorder_buffer: int = 16
    max_segment_points: int = 512

    def __post_init__(self) -> None:
        if self.lateness_s < 0:
            raise ConfigurationError("lateness_s must be >= 0")
        if self.ttl_s <= 0:
            raise ConfigurationError("ttl_s must be > 0")
        if self.reorder_buffer < 1:
            raise ConfigurationError("reorder_buffer must be >= 1")
        if self.max_segment_points < 2:
            raise ConfigurationError("max_segment_points must be >= 2")


@dataclass
class Segment:
    """One contiguous run of applied points from one source."""

    segment_id: int
    source_id: int
    first_seq: int
    last_seq: int
    sealed: bool = False
    seqs: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last_t(self) -> float:
        return self.times[-1]

    def points(self, start: int = 0) -> np.ndarray:
        """The (n - start, 2) coordinates of the points from ``start`` on,
        in applied order (a copy)."""
        return np.stack([np.asarray(self.xs[start:], dtype=np.float64),
                         np.asarray(self.ys[start:], dtype=np.float64)],
                        axis=1)


@dataclass
class _SourceState:
    applied_through: int = 0
    applied_above: Set[int] = field(default_factory=set)
    buffer: Dict[int, StreamPoint] = field(default_factory=dict)
    segment_id: Optional[int] = None


@dataclass
class ApplyResult:
    """What one accepted point did to the window.

    ``status`` is ``"applied"`` (point in a segment now, possibly with
    buffered followers — see ``appended``), ``"buffered"`` (waiting for
    its gap; acknowledged but not yet in a segment), ``"duplicate"`` or
    ``"late"``. ``accepted`` is True for applied/buffered — exactly the
    points the ingester must make durable before acking.
    """

    status: str
    accepted: bool
    appended: List[Tuple[int, StreamPoint]] = field(default_factory=list)
    opened: List[int] = field(default_factory=list)
    rolled: List[Tuple[int, int]] = field(default_factory=list)
    evicted: List[int] = field(default_factory=list)
    abandoned: List[Tuple[int, int, int]] = field(default_factory=list)


class SlidingWindowStore:
    """Deterministic sliding-window state over per-source point streams."""

    def __init__(self, config: WindowConfig = WindowConfig()):
        self.config = config
        self._sources: Dict[int, _SourceState] = {}
        self._segments: Dict[int, Segment] = {}
        # Lazy eviction heap: one (last_t, segment_id) entry per applied
        # point; entries superseded by newer appends (or by eviction) are
        # discarded when popped. Keeps eviction amortised O(1) per point
        # instead of O(live segments).
        self._evict_heap: List[Tuple[float, int]] = []
        self._next_segment_id = 0
        self._max_t = -np.inf
        self.applied = 0
        self.duplicates = 0
        self.late_dropped = 0
        self.gaps_abandoned = 0
        self.segments_rolled = 0
        self.segments_evicted = 0

    # ----------------------------------------------------------- inspection

    @property
    def watermark(self) -> float:
        """Event-time watermark (−inf until the first accepted point)."""
        return self._max_t - self.config.lateness_s

    @property
    def max_event_t(self) -> float:
        return self._max_t

    def segment(self, segment_id: int) -> Segment:
        return self._segments[segment_id]

    def has_segment(self, segment_id: int) -> bool:
        """Whether ``segment_id`` is still live (O(1))."""
        return segment_id in self._segments

    def live_segments(self) -> List[int]:
        """Ids of all segments currently in the window, ascending."""
        return sorted(self._segments)

    def buffered(self) -> int:
        """Points currently parked in reorder buffers."""
        return sum(len(s.buffer) for s in self._sources.values())

    def source_ids(self) -> List[int]:
        return sorted(self._sources)

    def applied_through(self, source_id: int) -> int:
        state = self._sources.get(source_id)
        return 0 if state is None else state.applied_through

    def stats(self) -> Dict:
        return {
            "watermark": float(self.watermark),
            "max_event_t": float(self._max_t),
            "sources": len(self._sources),
            "segments": len(self._segments),
            "window_points": sum(len(s) for s in self._segments.values()),
            "buffered": self.buffered(),
            "applied": self.applied,
            "duplicates": self.duplicates,
            "late_dropped": self.late_dropped,
            "gaps_abandoned": self.gaps_abandoned,
            "segments_rolled": self.segments_rolled,
            "segments_evicted": self.segments_evicted,
        }

    # ----------------------------------------------------------- planning

    def classify(self, points: Sequence[StreamPoint]) -> List[str]:
        """Dry-run a batch through dedup -> lateness -> reorder, unmutated.

        Returns the status :meth:`apply` would assign each point were the
        batch applied in offer order (``"applied"``, ``"buffered"``,
        ``"duplicate"`` or ``"late"``). The window itself is untouched.

        This is what lets the ingester put durability *before* mutation:
        it classifies the batch, fsyncs the accepted points into the WAL,
        and only then applies them — so a failed WAL append leaves the
        window unchanged and a retried batch re-classifies identically
        instead of dedup-ing away points that were never made durable.

        The shadow state below mirrors :meth:`apply`'s decision branches
        exactly; ``tests/streaming/test_window.py`` property-tests the
        agreement over adversarial arrival orders.
        """
        shadow: Dict[int, Tuple[List[int], Set[int], Set[int]]] = {}
        max_t = self._max_t
        statuses: List[str] = []
        for point in points:
            sh = shadow.get(point.source_id)
            if sh is None:
                state = self._sources.get(point.source_id)
                sh = (([0], set(), set()) if state is None else
                      ([state.applied_through], set(state.applied_above),
                       set(state.buffer)))
                shadow[point.source_id] = sh
            through, above, buffered = sh
            if (point.seq <= through[0] or point.seq in above
                    or point.seq in buffered):
                statuses.append("duplicate")
                continue
            if point.t < max_t - self.config.lateness_s:
                statuses.append("late")
                continue
            max_t = max(max_t, point.t)
            if point.seq == through[0] + 1:
                statuses.append("applied")
                through[0] = point.seq
                above.discard(point.seq)
            else:
                statuses.append("buffered")
                buffered.add(point.seq)
                if len(buffered) > self.config.reorder_buffer:
                    through[0] = min(buffered) - 1
            while through[0] + 1 in buffered:
                through[0] += 1
                buffered.discard(through[0])
                above.discard(through[0])
        return statuses

    # ------------------------------------------------------------- mutation

    def apply(self, point: StreamPoint) -> ApplyResult:
        """Run one point through dedup -> lateness -> reorder -> append.

        Mutates the window and returns what happened; the ingester turns
        ``appended``/``opened``/``rolled``/``evicted`` into encoder-state
        and embedding-store maintenance.
        """
        state = self._sources.setdefault(point.source_id, _SourceState())
        if (point.seq <= state.applied_through
                or point.seq in state.applied_above
                or point.seq in state.buffer):
            self.duplicates += 1
            return ApplyResult(status="duplicate", accepted=False)
        if point.t < self.watermark:
            self.late_dropped += 1
            return ApplyResult(status="late", accepted=False)

        result = ApplyResult(status="applied", accepted=True)
        self._max_t = max(self._max_t, point.t)
        if point.seq == state.applied_through + 1:
            self._append(state, point, result)
            self._drain_buffer(state, result)
        else:
            state.buffer[point.seq] = point
            result.status = "buffered"
            if len(state.buffer) > self.config.reorder_buffer:
                self._force_advance(state, result)
        self._evict_stale(result)
        return result

    def _append(self, state: _SourceState, point: StreamPoint,
                result: ApplyResult) -> None:
        """Append one in-order point to the source's active segment."""
        segment = (None if state.segment_id is None
                   else self._segments.get(state.segment_id))
        if segment is not None and len(segment) >= self.config.max_segment_points:
            segment.sealed = True
            old_id = segment.segment_id
            segment = None
            state.segment_id = None
            self.segments_rolled += 1
            result.rolled.append((old_id, self._next_segment_id))
        if segment is None:
            segment = Segment(segment_id=self._next_segment_id,
                              source_id=point.source_id,
                              first_seq=point.seq, last_seq=point.seq)
            self._segments[segment.segment_id] = segment
            state.segment_id = segment.segment_id
            self._next_segment_id += 1
            result.opened.append(segment.segment_id)
        segment.seqs.append(point.seq)
        segment.times.append(point.t)
        segment.xs.append(point.x)
        segment.ys.append(point.y)
        segment.last_seq = point.seq
        heapq.heappush(self._evict_heap, (point.t, segment.segment_id))
        state.applied_through = point.seq
        state.applied_above.discard(point.seq)
        self.applied += 1
        result.appended.append((segment.segment_id, point))

    def _drain_buffer(self, state: _SourceState, result: ApplyResult) -> None:
        """Apply buffered points whose gap just closed."""
        while state.applied_through + 1 in state.buffer:
            follower = state.buffer.pop(state.applied_through + 1)
            self._append(state, follower, result)

    def _force_advance(self, state: _SourceState, result: ApplyResult) -> None:
        """Reorder buffer overflowed: abandon the lowest gap and move on."""
        lowest = min(state.buffer)
        gap_from = state.applied_through + 1
        self.gaps_abandoned += 1
        result.abandoned.append(
            (next(iter(state.buffer.values())).source_id, gap_from, lowest - 1))
        state.applied_through = lowest - 1
        self._drain_buffer(state, result)

    def _evict_stale(self, result: ApplyResult) -> None:
        """Drop segments idle past the TTL horizon behind the watermark.

        Amortised O(1) per applied point: pop the lazy heap while its
        top falls below the horizon. A popped entry either evicts its
        segment (``last_t`` really is below the horizon) or is a stale
        entry — superseded by a newer append, or for a segment already
        gone — and is discarded. Every heap entry is popped at most
        once, and the entry for a segment's newest point always carries
        ``t == last_t``, so no evictable segment is ever missed.
        """
        horizon = self.watermark - self.config.ttl_s
        if not self._evict_heap or not np.isfinite(horizon):
            return
        stale: Set[int] = set()
        while self._evict_heap and self._evict_heap[0][0] < horizon:
            _, sid = heapq.heappop(self._evict_heap)
            segment = self._segments.get(sid)
            if segment is not None and segment.last_t < horizon:
                stale.add(sid)
        for sid in sorted(stale):
            segment = self._segments.pop(sid)
            state = self._sources.get(segment.source_id)
            if state is not None and state.segment_id == sid:
                state.segment_id = None
            self.segments_evicted += 1
            result.evicted.append(sid)

    # ----------------------------------------------------------- snapshot

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """The whole window state as flat arrays (npz-serialisable)."""
        source_ids = sorted(self._sources)
        src = np.array([[sid, self._sources[sid].applied_through,
                         -1 if self._sources[sid].segment_id is None
                         else self._sources[sid].segment_id]
                        for sid in source_ids], dtype=np.int64
                       ).reshape(len(source_ids), 3)
        above = np.array([[sid, seq] for sid in source_ids
                          for seq in sorted(self._sources[sid].applied_above)],
                         dtype=np.int64).reshape(-1, 2)
        buffered = np.array(
            [[p.source_id, p.seq, p.t, p.x, p.y] for sid in source_ids
             for p in sorted(self._sources[sid].buffer.values())],
            dtype=np.float64).reshape(-1, 5)
        seg_ids = sorted(self._segments)
        seg_meta = np.array([[s, self._segments[s].source_id,
                              self._segments[s].first_seq,
                              self._segments[s].last_seq,
                              int(self._segments[s].sealed)]
                             for s in seg_ids], dtype=np.int64
                            ).reshape(len(seg_ids), 5)
        seg_points = np.array(
            [[s, seq, t, x, y] for s in seg_ids
             for seq, t, x, y in zip(self._segments[s].seqs,
                                     self._segments[s].times,
                                     self._segments[s].xs,
                                     self._segments[s].ys)],
            dtype=np.float64).reshape(-1, 5)
        counters = np.array([self.applied, self.duplicates, self.late_dropped,
                             self.gaps_abandoned, self.segments_rolled,
                             self.segments_evicted, self._next_segment_id],
                            dtype=np.int64)
        return {
            "window_sources": src,
            "window_applied_above": above,
            "window_buffered": buffered,
            "window_seg_meta": seg_meta,
            "window_seg_points": seg_points,
            "window_counters": counters,
            "window_max_t": np.array(self._max_t),
        }

    @classmethod
    def from_snapshot_arrays(cls, config: WindowConfig,
                             arrays: Dict[str, np.ndarray]
                             ) -> "SlidingWindowStore":
        """Rebuild a window from :meth:`snapshot_arrays` output."""
        window = cls(config)
        counters = np.asarray(arrays["window_counters"], dtype=np.int64)
        (window.applied, window.duplicates, window.late_dropped,
         window.gaps_abandoned, window.segments_rolled,
         window.segments_evicted, window._next_segment_id) = (
            int(v) for v in counters)
        window._max_t = float(arrays["window_max_t"])
        for sid, through, seg in np.asarray(arrays["window_sources"],
                                            dtype=np.int64):
            window._sources[int(sid)] = _SourceState(
                applied_through=int(through),
                segment_id=None if seg < 0 else int(seg))
        for sid, seq in np.asarray(arrays["window_applied_above"],
                                   dtype=np.int64):
            window._sources[int(sid)].applied_above.add(int(seq))
        for row in np.asarray(arrays["window_buffered"], dtype=np.float64):
            point = StreamPoint(source_id=int(row[0]), seq=int(row[1]),
                                t=float(row[2]), x=float(row[3]),
                                y=float(row[4]))
            window._sources[point.source_id].buffer[point.seq] = point
        for seg_id, source_id, first_seq, last_seq, sealed in np.asarray(
                arrays["window_seg_meta"], dtype=np.int64):
            window._segments[int(seg_id)] = Segment(
                segment_id=int(seg_id), source_id=int(source_id),
                first_seq=int(first_seq), last_seq=int(last_seq),
                sealed=bool(sealed))
        for row in np.asarray(arrays["window_seg_points"], dtype=np.float64):
            segment = window._segments[int(row[0])]
            segment.seqs.append(int(row[1]))
            segment.times.append(float(row[2]))
            segment.xs.append(float(row[3]))
            segment.ys.append(float(row[4]))
        # Seed the lazy eviction heap with each segment's newest point —
        # the one entry whose presence the eviction invariant needs.
        window._evict_heap = [(segment.last_t, sid)
                              for sid, segment in window._segments.items()
                              if segment.times]
        heapq.heapify(window._evict_heap)
        return window

    def state_fingerprint(self) -> Dict:
        """Comparable summary of the window state (chaos-test oracle).

        Two windows that processed equivalent accepted sequences produce
        equal fingerprints: per-source progress, per-segment point runs,
        and the watermark. Counters are excluded — duplicate/late counts
        legitimately differ between an interrupted run (which re-offers
        points) and an uninterrupted one.
        """
        return {
            "sources": {sid: (state.applied_through,
                              tuple(sorted(state.applied_above)),
                              tuple(sorted(state.buffer)))
                        for sid, state in self._sources.items()},
            "segments": {sid: (segment.source_id, segment.sealed,
                               tuple(segment.seqs),
                               tuple(segment.times),
                               tuple(segment.xs), tuple(segment.ys))
                         for sid, segment in self._segments.items()},
            "watermark": float(self.watermark),
            "next_segment_id": self._next_segment_id,
        }
