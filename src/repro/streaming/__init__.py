"""Fault-tolerant continuous ingest over the O(L) encoder (ROADMAP item 3).

The paper's linear-time encoder is pitched for trajectories that *grow* —
points arriving continuously from a fleet of sources. This package turns
that pitch into a hardened subsystem:

* :mod:`~repro.streaming.events` — the wire vocabulary: per-source,
  sequence-numbered, event-timestamped points, plus their WAL codec.
* :mod:`~repro.streaming.window` — the deterministic sliding-window state
  machine: seq dedup, bounded reordering, watermark/TTL eviction.
* :mod:`~repro.streaming.ingest` — the orchestrator: WAL-durable acks,
  incremental (prefix-state) re-embedding through the micro-batcher,
  admission-gated backpressure with a deferred/degraded mode, snapshot +
  replay crash recovery, and online anomaly scores over the live window.
"""

from .events import STREAM_WAL_DIM, StreamPoint, points_from_record, points_to_record
from .ingest import IngestResult, StreamConfig, StreamIngestor
from .window import SlidingWindowStore, WindowConfig

__all__ = [
    "STREAM_WAL_DIM",
    "IngestResult",
    "SlidingWindowStore",
    "StreamConfig",
    "StreamIngestor",
    "StreamPoint",
    "WindowConfig",
    "points_from_record",
    "points_to_record",
]
