"""Workload ``stream_ingest``: the ingest path, arrival to queryable.

An in-process ``StreamIngestor`` (``sync_encode=True``, so an ack means
queryable; ``WindowConfig(lateness_s=30, ttl_s=120)``) is fed the
fault-injected replay of a Porto fleet (5% duplicates, 10% reordered, 2%
dropped, 1% late) in batches of 64 by one producer, with a ``query``
every 5 batches; then the directory is closed and reopened. This is
classify -> WAL fsync -> prefix fold -> index upsert -> evict, using the
encoder incrementally and the WAL one record per batch — both unlike the
serving workloads — with TTL eviction live and queries beside writes.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import numpy as np

import oracle
import tracer as tracing
from common import (ROOT_SPAN, closed_loop, derive_seed, peak_rss_mb,
                    percentile, porto, public, untrained_model, work_dir)

NAME = "stream_ingest"
BATCH = 64
QUERY_EVERY = 5    # batches
QUERY_POINTS = 30  # every query costs the same, whatever the seed
K = 10
SIZES = {
    # ~80k arrivals: several times what one run consumes, so the stream
    # never runs dry; the start spread keeps the live window the same size
    # wherever the run stops.
    "full": {"sources": 600, "min_points": 60, "max_points": 200,
             "start_spread_s": 1500.0, "fold_checks": 12, "warmup_s": 1.5},
    "quick": {"sources": 150, "min_points": 20, "max_points": 40,
              "start_spread_s": 150.0, "fold_checks": 4, "warmup_s": 0.2},
}


def _stream_config():
    window = public("WindowConfig")(lateness_s=30.0, ttl_s=120.0)
    return public("StreamConfig")(window=window, sync_encode=True)


def make_inputs(seed, sizes):
    world = SimpleNamespace(sizes=sizes, seed=seed)
    world.fleet = fleet = public("generate_porto")(
        public("PortoConfig")(num_trajectories=sizes["sources"],
                              min_points=sizes["min_points"],
                              max_points=sizes["max_points"]),
        seed=derive_seed(seed, 1))
    replay = public("StreamReplayConfig")(
        start_spread_s=sizes["start_spread_s"], duplicate_fraction=0.05,
        reorder_fraction=0.10, drop_fraction=0.02, late_fraction=0.01)
    world.arrivals, _ = public("replay_stream")(fleet, replay,
                                                seed=derive_seed(seed, 2))
    world.queries = [np.asarray(t.points) for t in
                     porto(64, QUERY_POINTS, QUERY_POINTS,
                           derive_seed(seed, 3))]
    return world


def start(world, stack, traced):
    world.encoder = untrained_model(list(world.fleet),
                                    derive_seed(world.seed, 4)).encoder
    world.directory = stack.enter_context(work_dir(NAME)) / "stream"
    world.ingestor = public("StreamIngestor")(world.encoder, world.directory,
                                              _stream_config())
    stack.callback(lambda: world.ingestor.close())


def measure(world, seconds, tracer):
    ingestor = world.ingestor
    world.results = []

    def op(client, seq, request_id):
        cycle, slot = divmod(seq, QUERY_EVERY + 1)
        if slot == QUERY_EVERY:
            points = world.queries[cycle % len(world.queries)]
            answer = ingestor.query(points, k=K)
            return "query", len(answer.segment_ids) > 0, 1.0, None
        first = (cycle * QUERY_EVERY + slot) * BATCH
        batch = world.arrivals[first:first + BATCH]
        if not batch:
            return None
        result = ingestor.ingest(batch)
        world.results.append((len(batch), result))
        return "ingest", True, float(len(batch)), None

    load = closed_loop(op, 1, seconds, tracer,
                       warmup_s=world.sizes["warmup_s"])
    world.stats = ingestor.stats()
    world.rss_mb = peak_rss_mb([os.getpid()])
    return load


def end_to_end(load, world):
    acks = load.latencies_ms("ingest")
    return {
        "ops_per_s": load.rate("ingest"),
        "op_p50_ms": percentile(acks, 50),
        "op_p95_ms": percentile(acks, 95),
        "aux_p50_ms": percentile(load.latencies_ms("query"), 50),
        "peak_rss_mb": world.rss_mb,
    }


def _window_state(ingestor):
    ids, embeddings = ingestor.window_embeddings()
    return ingestor.window_segments(), dict(zip(ids.tolist(), embeddings))


def check(load, world):
    ingestor, window = world.ingestor, world.stats["window"]
    offered = sum(count for count, _ in world.results)
    tallies = {field: sum(getattr(result, field) for _, result
                          in world.results)
               for field in ("accepted", "applied", "buffered", "duplicates",
                             "late")}
    world.offered, world.accepted = offered, tallies["accepted"]
    segments, embeddings = _window_state(ingestor)
    picked = sorted(segments)[::max(1, len(segments)
                                    // world.sizes["fold_checks"])]
    folded = sum(1 for segment_id in picked if np.array_equal(
        embeddings[segment_id],
        world.encoder.encode_prefix(segments[segment_id]).embedding))

    ingestor.close()
    began = time.perf_counter()
    reopened = public("StreamIngestor")(world.encoder, world.directory,
                                        _stream_config())
    world.recovery_s = time.perf_counter() - began
    try:
        world.recovered_points = reopened.stats()["recovered_points"]
        reopened_segments, reopened_embeddings = _window_state(reopened)
    finally:
        reopened.close()
    return [
        oracle.check_equal(
            "every offered point got one status", offered,
            tallies["applied"] + tallies["buffered"] + tallies["duplicates"]
            + tallies["late"]),
        oracle.check_equal("accepted = applied + buffered",
                           tallies["accepted"],
                           tallies["applied"] + tallies["buffered"]),
        oracle.check_equal("window counters match the acks",
                           (world.stats["accepted_total"],
                            window["duplicates"], window["late_dropped"]),
                           (tallies["accepted"], tallies["duplicates"],
                            tallies["late"])),
        oracle.check_equal("folded embeddings = encode_prefix, bit for bit",
                           folded, len(picked)),
        oracle.check_arrays_equal("window segments survive a reopen",
                                  segments, reopened_segments),
        oracle.check_arrays_equal("window embeddings survive a reopen",
                                  embeddings, reopened_embeddings),
        oracle.Check("queries ran beside ingest", bool(load.of("query")),
                     f"{len(load.of('query'))} queries, "
                     f"{len(load.of('ingest'))} batches"),
    ]


def layers(load, world, spans):
    table = tracing.SpanTable(spans)
    wal, window = world.stats["wal"], world.stats["window"]
    accepted = world.stats["accepted_total"]
    applies = table.count("streaming.window.apply")
    return {
        "core.encoder.extend_prefix_us_per_point": table.us_per_work(
            "core.encoder.extend_prefix"),
        "core.encoder.prefix_calls": table.count(
            "core.encoder.extend_prefix"),
        "core.store.upsert_ms": table.p50_ms("core.store.upsert"),
        "core.store.removes": table.count("core.store.remove"),
        "core.store.search_ms": table.p50_ms("core.store.query_embedding"),
        "serving.wal.fsyncs": wal["fsyncs"],
        "serving.wal.fsync_ms_mean": (
            wal["fsync_seconds"] * 1000.0 / wal["fsyncs"]
            if wal["fsyncs"] else 0.0),
        "serving.wal.appends_per_fsync": (
            wal["appended"] / wal["fsyncs"] if wal["fsyncs"] else 0.0),
        "serving.wal.bytes_per_point": (wal["bytes"] / accepted
                                        if accepted else 0.0),
        "streaming.window.classify_us_per_point": table.us_per_work(
            "streaming.window.classify"),
        "streaming.window.apply_us_per_point": (
            table.total_s("streaming.window.apply") * 1e6 / applies
            if applies else 0.0),
        "streaming.window.accept_ratio": (
            world.accepted / world.offered if world.offered else 0.0),
        "streaming.window.evicted_segments": window["segments_evicted"],
        "streaming.ingest.self_ms_per_batch": table.mean_ms(
            "streaming.ingest.ingest", self_time=True),
        "streaming.ingest.recovery_s": world.recovery_s,
        "streaming.ingest.recovered_points": world.recovered_points,
        "loadgen.ack_p99_ms": percentile(load.latencies_ms("ingest"), 99),
        "trace.unattributed_share": table.share_of_roots(ROOT_SPAN,
                                                         ROOT_SPAN),
    }
