"""Durability benchmark: WAL append throughput, recovery time, restart.

Three sections, each with functional hard gates (checked by
``check_bench_regression.py --only durability``) plus loose wall-clock
numbers for trend-watching:

* **append** — acked-append throughput of one :class:`ShardWAL` under 4
  concurrent appender threads. Hard gates: every acked LSN is durable
  when ``append`` returns, and a reopen recovers exactly the acked
  records.
* **recovery** — time to rebuild a shard store from (a) pure WAL replay
  of ``records`` insert batches and (b) a checksummed snapshot plus an
  empty WAL after ``compact``-style truncation. Hard gate: both paths
  recover an id-identical store; the snapshot path must replay zero
  records.
* **restart** — a 2-shard durable service; SIGKILL shard 0 and time the
  next query, which must respawn the shard from snapshot + WAL, retry,
  and answer ``partial=False`` with every acked row still present. Hard
  gates: zero acked-write loss, exactly one restart, complete answer.

Timing comparisons against the committed ``BENCH_durability.json`` use a
loosened threshold (fsync and fork latency on shared 1-CPU runners are
far noisier than compute kernels).

Run with ``PYTHONPATH=src python benchmarks/bench_durability.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_durability.json"

CONFIG = {
    "embedding_dim": 16,
    "append_threads": 4,
    "appends_per_thread": 60,
    "recovery_records": 400,
    "rows_per_record": 4,
    "restart_rows": 200,
    "num_shards": 2,
    "k": 10,
    "seed": 2026,
}


def _append_section(wal_dir: Path, config: dict) -> dict:
    from repro.serving.wal import OP_INSERT, ShardWAL

    dim = config["embedding_dim"]
    threads = config["append_threads"]
    per_thread = config["appends_per_thread"]
    rng = np.random.default_rng(config["seed"])
    rows = rng.standard_normal((threads * per_thread, dim))

    wal = ShardWAL(wal_dir, "bench")
    unacked = []
    lock = threading.Lock()

    def appender(thread_id: int) -> None:
        for i in range(per_thread):
            row = thread_id * per_thread + i
            ids = np.array([row], dtype=np.int64)
            lsn = wal.append(OP_INSERT, ids, rows[row:row + 1])
            if wal.durable_lsn < lsn:  # ack before fsync = lost-write bug
                with lock:
                    unacked.append(lsn)

    workers = [threading.Thread(target=appender, args=(t,))
               for t in range(threads)]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    stats = wal.stats()["wal"]
    wal.close()

    reopened = ShardWAL(wal_dir, "bench")
    recovered = len(list(reopened.replay()))
    reopened.close()

    acked = threads * per_thread
    return {
        "acked": acked,
        "appends_per_s": acked / elapsed,
        "fsyncs": int(stats["fsyncs"]),
        "durable_ok": not unacked,
        "recovered": recovered,
    }


def _recovery_section(base_dir: Path, config: dict) -> dict:
    from repro.core.store import EmbeddingStore
    from repro.serving.wal import OP_INSERT, ShardWAL

    dim = config["embedding_dim"]
    records = config["recovery_records"]
    per_record = config["rows_per_record"]
    rng = np.random.default_rng(config["seed"] + 1)

    wal_dir = base_dir / "recovery"
    wal = ShardWAL(wal_dir, "bench")
    next_id = 0
    for _ in range(records):
        ids = np.arange(next_id, next_id + per_record, dtype=np.int64)
        wal.append(OP_INSERT, ids, rng.standard_normal((per_record, dim)))
        next_id += per_record

    def replay_into_store() -> "tuple[EmbeddingStore, int]":
        recovery = ShardWAL(wal_dir, "bench")
        store = EmbeddingStore(None, dim=dim)
        replayed = 0
        for record in recovery.replay():
            store.add_embeddings(record.embeddings,
                                 ids=[int(i) for i in record.ids])
            replayed += 1
        recovery.close()
        return store, replayed

    started = time.perf_counter()
    store, replayed = replay_into_store()
    wal_replay_s = time.perf_counter() - started
    reference_ids = sorted(int(i) for i in store.ids)

    wal.checkpoint(store.save, count=len(store), next_id=next_id)
    wal.close()

    started = time.perf_counter()
    snapshot_store = EmbeddingStore.load(wal.snapshot, None)
    _, post_snapshot_replayed = replay_into_store()
    snapshot_recover_s = time.perf_counter() - started

    return {
        "records": records,
        "rows": next_id,
        "wal_replay_s": wal_replay_s,
        "wal_replayed_records": replayed,
        "snapshot_recover_s": snapshot_recover_s,
        "post_snapshot_replayed": post_snapshot_replayed,
        "id_identical": sorted(int(i) for i in snapshot_store.ids)
        == reference_ids,
    }


def _restart_section(base_dir: Path, config: dict) -> dict:
    from repro.core.partition import save_partitions
    from repro.exceptions import ShardUnavailableError
    from repro.serving import ShardedConfig, ShardedService

    dim = config["embedding_dim"]
    rows = config["restart_rows"]
    rng = np.random.default_rng(config["seed"] + 2)
    embeddings = rng.standard_normal((rows, dim))
    ids = np.arange(rows, dtype=np.int64)
    part_dir = base_dir / "parts"
    save_partitions(part_dir, ids, embeddings,
                    num_shards=config["num_shards"])

    service = ShardedService(
        part_dir, config=ShardedConfig(request_timeout_s=60.0),
        durable_dir=base_dir / "durable")
    try:
        acked = service.insert_embeddings(
            rng.standard_normal((20, dim)))
        query = rng.standard_normal(dim)
        service.query_embedding(query, k=config["k"])  # warm path

        os.kill(service.target._shards[0]._proc.pid, signal.SIGKILL)
        started = time.perf_counter()
        result = service.query_embedding(query, k=config["k"])
        restart_s = time.perf_counter() - started

        present = set()
        for handle in service.target._shards:
            try:
                present.update(handle.call("ids", None, 60.0))
            except ShardUnavailableError:
                pass  # a shard left dead: its rows count as lost
        stats = service.stats()["durability"]
        return {
            "restart_s": restart_s,
            "partial": bool(result.partial),
            "restarts": int(stats["restarts"]),
            "acked_rows": len(acked) + rows,
            "acked_lost": len((set(acked) | set(ids.tolist())) - present),
        }
    finally:
        service.close()


def run_all(config=CONFIG) -> dict:
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-durability-") as tmp:
        tmp = Path(tmp)
        entry = results["append"] = _append_section(tmp / "append", config)
        print(f"  append: {entry['appends_per_s']:.0f} acked/s, "
              f"{entry['fsyncs']} fsyncs for {entry['acked']} appends")
        results["recovery"] = _recovery_section(tmp, config)
        print(f"  recovery: replay {results['recovery']['wal_replay_s']:.3f}s"
              f" for {results['recovery']['records']} records, snapshot "
              f"{results['recovery']['snapshot_recover_s']:.3f}s")
        results["restart"] = _restart_section(tmp, config)
        print(f"  restart: {results['restart']['restart_s']:.3f}s, "
              f"partial={results['restart']['partial']}, "
              f"acked_lost={results['restart']['acked_lost']}")
    return {
        "schema": "repro.bench_durability.v1",
        "config": {k: (list(v) if isinstance(v, list) else v)
                   for k, v in config.items()},
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_all()
    results = report["results"]
    append = results["append"]
    ok = (append["durable_ok"] and append["recovered"] == append["acked"]
          and results["recovery"]["id_identical"]
          and not results["restart"]["partial"]
          and results["restart"]["restarts"] == 1
          and results["restart"]["acked_lost"] == 0)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
