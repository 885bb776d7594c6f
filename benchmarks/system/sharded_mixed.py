"""Workload ``sharded_mixed``: reads beside writes on the sharded tier.

An in-process ``ShardedService`` (2 forked shards, ``index="ivf"``, a
durable directory, other defaults) over a store built by embedding real
trajectories and adding seeded jitter copies. Two client threads issue
90% ``top_k`` / 5% ``insert`` / 5% ``delete`` (of ids that client
inserted) with short 10-30-point trajectories. The work sits in
``serving.sharding`` (pipe IPC, scatter and merge), the IVF search and
the shard mutation path (WAL fsync, index pending rows and tombstones);
the encoder does little and HTTP is bypassed. Because each shard's pipe
is serial, a slow write delays the reads queued behind it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from types import SimpleNamespace

import numpy as np

import oracle
import tracer as tracing
from common import (ROOT_SPAN, closed_loop, derive_seed, peak_rss_mb,
                    percentile, porto, public, untrained_model, work_dir)

NAME = "sharded_mixed"
CLIENTS = 2
SHARDS = 2
K = 10
SIZES = {
    "full": {"base": 2000, "rows": 160_000, "ops": 8000, "recall": 32,
             "self_checks": 40, "warmup_s": 1.0},
    "quick": {"base": 100, "rows": 2000, "ops": 400, "recall": 8,
              "self_checks": 8, "warmup_s": 0.2},
}
READ_SHARE, INSERT_SHARE = 0.90, 0.05
KEEP = 20  # inserted ids each client never deletes: the top-1 check's sample
RECALL_FLOOR = 0.9
JITTER = 0.05  # of each embedding dimension's spread


def make_inputs(seed, sizes):
    world = SimpleNamespace(sizes=sizes, seed=seed)
    world.base = porto(sizes["base"], 10, 30, derive_seed(seed, 1))
    world.ops = porto(sizes["ops"], 10, 30, derive_seed(seed, 2))
    world.recall_queries = porto(sizes["recall"], 10, 30,
                                 derive_seed(seed, 3))
    rng = np.random.default_rng(derive_seed(seed, 4))
    world.draws = [rng.random(sizes["ops"]) for _ in range(CLIENTS)]
    return world


def start(world, stack, traced):
    seed, sizes, base = world.seed, world.sizes, world.base
    world.model = untrained_model(base, derive_seed(seed, 5))
    real = world.model.embed(base)
    copies = -(-sizes["rows"] // len(base))
    spread = real.std(axis=0)
    noise = np.random.default_rng(derive_seed(seed, 6))
    world.matrix = np.concatenate(
        [real] + [real + noise.normal(0.0, JITTER, real.shape) * spread
                  for _ in range(copies - 1)])[:sizes["rows"]]
    world.ids = np.arange(len(world.matrix), dtype=np.int64)

    directory = stack.enter_context(work_dir(NAME))
    public("save_bundle")(directory / "bundle", world.model, None,
                          probes=base[:4])
    public("save_partitions")(directory / "partitions", world.ids,
                              world.matrix, num_shards=SHARDS)
    world.service = public("ShardedService")(
        directory / "partitions", bundle_dir=directory / "bundle",
        config=public("ShardedConfig")(index="ivf"),
        durable_dir=directory / "durable")
    stack.callback(world.service.close)
    world.service.warmup()


def measure(world, seconds, tracer):
    service = world.service
    # Read-only recall phase, before any write: it repeats for a seed.
    world.recall_answers = [service.top_k(q, k=K).ids
                            for q in world.recall_queries]

    inserted = [[] for _ in range(CLIENTS)]   # ids this client may delete
    world.surviving = [{} for _ in range(CLIENTS)]  # id -> trajectory
    world.deleted_at = {}
    world.partial = 0
    lock = threading.Lock()
    per_client = len(world.ops) // CLIENTS

    def op(client, seq, request_id):
        if seq >= per_client:
            return None
        trajectory = world.ops[client * per_client + seq]
        draw = world.draws[client][seq]
        if (draw >= READ_SHARE + INSERT_SHARE
                and len(inserted[client]) > KEEP):
            victim = inserted[client].pop(
                int(draw * 1e6) % len(inserted[client]))
            removed = service.delete([victim])
            with lock:
                world.deleted_at[victim] = time.perf_counter()
            del world.surviving[client][victim]
            return "delete", removed == 1, 1.0, None
        if READ_SHARE <= draw < READ_SHARE + INSERT_SHARE:
            new_id = service.insert([trajectory])[0]
            inserted[client].append(new_id)
            world.surviving[client][new_id] = trajectory
            return "insert", True, 1.0, None
        began = time.perf_counter()
        result = service.top_k(trajectory, k=K)
        if result.partial:
            with lock:
                world.partial += 1
        return "top_k", not result.partial, 1.0, (began, result.ids)

    def snapshot():
        world.busy_before = service.shard_busy_seconds()

    load = closed_loop(op, CLIENTS, seconds, tracer,
                       warmup_s=world.sizes["warmup_s"],
                       on_measure_start=snapshot)
    world.busy = [after - before for after, before
                  in zip(service.shard_busy_seconds(), world.busy_before)]
    world.stats = service.stats()
    workers = world.stats["store"]["sharding"]["workers"]
    world.rss_mb = peak_rss_mb([os.getpid()]
                               + [w["pid"] for w in workers.values()])
    return load


def end_to_end(load, world):
    reads = load.latencies_ms("top_k")
    return {
        "ops_per_s": load.rate("top_k", "insert", "delete"),
        "op_p50_ms": percentile(reads, 50),
        "op_p95_ms": percentile(reads, 95),
        "aux_p50_ms": percentile(load.latencies_ms("insert", "delete"), 50),
        "peak_rss_mb": world.rss_mb,
    }


def _recall(world):
    truths = [oracle.brute_force_top_k(world.matrix, world.ids,
                                       world.model.embed([q])[0], K)[0]
              for q in world.recall_queries]
    return oracle.recall_at_k(world.recall_answers, truths)


def check(load, world):
    service = world.service
    world.recall = _recall(world)
    surviving = {new_id: trajectory for own in world.surviving
                 for new_id, trajectory in own.items()}
    # Inserts and deletes of the warm-up count too: the store kept them.
    expected = len(world.matrix) + len(surviving)
    sample = sorted(surviving)[:world.sizes["self_checks"]]
    own_top1 = sum(1 for new_id in sample
                   if service.top_k(surviving[new_id], k=1).ids == [new_id])
    answers = [s.info for s in load.of("top_k") if s.ok]
    writes = len(load.of("insert", "delete"))
    return [
        oracle.check_at_least("recall_at_10", world.recall, RECALL_FLOOR),
        oracle.check_equal("size() = initial + inserts - deletes",
                           service.size(), expected),
        oracle.check_equal("surviving inserts are their own top-1",
                           own_top1, len(sample)),
        oracle.check_deleted_never_returned(answers, world.deleted_at),
        oracle.Check("writes ran beside reads", writes > 0 and bool(answers),
                     f"{len(answers)} reads, {writes} writes"),
    ]


def layers(load, world, spans):
    table = tracing.SpanTable(spans)
    ops = max(len(load.samples), 1)
    busy = world.busy
    wal = [w["durability"]["wal"] for w
           in world.stats["store"]["sharding"]["workers"].values()]
    fsyncs = sum(w["fsyncs"] for w in wal)
    # Rows the WALs hold: every insert, plus one record per delete.
    written = (sum(len(own) for own in world.surviving)
               + 2 * len(world.deleted_at))
    batcher = world.stats["batcher"]
    return {
        "serving.sharding.shard_busy_ms_per_op": sum(busy) * 1000.0 / ops,
        "serving.sharding.busy_share": (statistics.fmean(busy)
                                        / load.seconds),
        "serving.sharding.skew": (max(busy) / statistics.fmean(busy)
                                  if sum(busy) else 0.0),
        "serving.sharding.coordinator_ms_per_topk": (
            table.mean_ms("serving.sharding.top_k")
            - table.mean_ms("serving.batching.call")
            - max(busy) * 1000.0 / ops),
        "serving.sharding.partial_answers": world.partial,
        **table.encoder_behind_batcher(),
        "serving.batching.mean_batch_size": batcher["mean_batch_size"],
        "serving.batching.batches": batcher["batches"],
        "serving.wal.fsyncs": fsyncs,
        "serving.wal.fsync_ms_mean": (
            sum(w["fsync_seconds"] for w in wal) * 1000.0 / fsyncs
            if fsyncs else 0.0),
        "serving.wal.appends_per_fsync": (
            sum(w["appended"] for w in wal) / fsyncs if fsyncs else 0.0),
        "serving.wal.bytes_per_point": (
            sum(w["bytes"] for w in wal) / written if written else 0.0),
        "loadgen.topk_p99_ms": percentile(load.latencies_ms("top_k"), 99),
        "oracle.recall_at_10": world.recall,
        "trace.unattributed_share": table.share_of_roots(ROOT_SPAN,
                                                         ROOT_SPAN),
    }
