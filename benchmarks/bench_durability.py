"""Durability benchmark: WAL append throughput, recovery time, failover.

Three sections, each with functional hard gates (checked by
``check_bench_regression.py --only durability``) plus loose wall-clock
numbers for trend-watching:

* **append** — acked-append throughput of one :class:`ShardWAL` under 4
  concurrent appender threads at fsync windows of 0 / 2 / 8 ms. Hard
  gates: every acked LSN is durable when ``append`` returns, a reopen
  recovers exactly the acked records, and the 8 ms group-commit window
  issues strictly fewer fsyncs than there were appends (it batched).
* **recovery** — time to rebuild a shard store from (a) pure WAL replay
  of ``records`` insert batches and (b) a checksummed snapshot plus an
  empty WAL after ``compact``-style truncation. Hard gate: both paths
  recover an id-identical store; the snapshot path must replay zero
  records.
* **failover** — a 2-shard durable service with one standby per shard;
  SIGKILL the shard-0 primary and time the next query, which must
  promote the standby and answer ``partial=False`` with every acked row
  still present. Hard gates: zero acked-write loss, exactly one
  failover, complete answer.

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
    "fsync_windows_ms": [0.0, 2.0, 8.0],
    "recovery_records": 400,
    "rows_per_record": 4,
    "failover_rows": 200,
    "num_shards": 2,
    "k": 10,
    "seed": 2026,
}


def _append_section(wal_dir: Path, window_ms: float, config: dict) -> dict:
    from repro.serving.wal import OP_INSERT, ShardWAL

    dim = config["embedding_dim"]
    threads = config["append_threads"]
    per_thread = config["appends_per_thread"]
    rng = np.random.default_rng(config["seed"])
    rows = rng.standard_normal((threads * per_thread, dim))

    wal = ShardWAL(wal_dir, fsync_window_ms=window_ms)
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
    stats = wal.stats()
    wal.close()

    reopened = ShardWAL(wal_dir)
    recovered = len(reopened.drain_recovered())
    reopened.close()

    acked = threads * per_thread
    return {
        "window_ms": window_ms,
        "acked": acked,
        "appends_per_s": acked / elapsed,
        "fsyncs": int(stats["fsyncs"]),
        "durable_ok": not unacked,
        "recovered": recovered,
    }


def _recovery_section(base_dir: Path, config: dict) -> dict:
    from repro.core.store import EmbeddingStore
    from repro.serving.wal import OP_INSERT, ShardDurability, ShardWAL

    dim = config["embedding_dim"]
    records = config["recovery_records"]
    per_record = config["rows_per_record"]
    rng = np.random.default_rng(config["seed"] + 1)

    wal_dir = base_dir / "recovery"
    wal = ShardWAL(wal_dir)
    next_id = 0
    for _ in range(records):
        ids = np.arange(next_id, next_id + per_record, dtype=np.int64)
        wal.append(OP_INSERT, ids, rng.standard_normal((per_record, dim)))
        next_id += per_record

    def replay_into_store() -> "tuple[EmbeddingStore, int]":
        recovery = ShardWAL(wal_dir)
        store = EmbeddingStore(None, dim=dim)
        replayed = 0
        for record in recovery.drain_recovered():
            store.add_embeddings(record.embeddings,
                                 ids=[int(i) for i in record.ids])
            replayed += 1
        recovery.close()
        return store, replayed

    started = time.perf_counter()
    store, replayed = replay_into_store()
    wal_replay_s = time.perf_counter() - started
    reference_ids = sorted(int(i) for i in store.ids)

    dur = ShardDurability(wal_dir, base_tag="bench")
    dur.commit_snapshot(store.save, count=len(store), next_id=next_id,
                        applied_lsn=records, wal=wal)
    wal.close()

    started = time.perf_counter()
    snapshot_store = EmbeddingStore.load(dur.snapshot_path(), None)
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


def _failover_section(base_dir: Path, config: dict) -> dict:
    from repro.core.partition import save_partitions
    from repro.serving import ShardedConfig, ShardedService

    dim = config["embedding_dim"]
    rows = config["failover_rows"]
    rng = np.random.default_rng(config["seed"] + 2)
    embeddings = rng.standard_normal((rows, dim))
    ids = np.arange(rows, dtype=np.int64)
    part_dir = base_dir / "parts"
    save_partitions(part_dir, ids, embeddings,
                    num_shards=config["num_shards"])

    service = ShardedService(
        part_dir, config=ShardedConfig(replicas=1, request_timeout_s=60.0),
        durable_dir=base_dir / "durable")
    try:
        acked = service.insert_embeddings(
            rng.standard_normal((20, dim)))
        query = rng.standard_normal(dim)
        service.query_embedding(query, k=config["k"])  # warm path

        os.kill(service.target._shards[0]._proc.pid, signal.SIGKILL)
        started = time.perf_counter()
        result = service.query_embedding(query, k=config["k"])
        failover_s = time.perf_counter() - started

        present = set()
        for handle in service.target._shards:
            present.update(handle.call("ids", None, 60.0))
        stats = service.stats()["durability"]
        return {
            "failover_s": failover_s,
            "partial": bool(result.partial),
            "failovers": int(stats["failovers"]),
            "acked_rows": len(acked) + rows,
            "acked_lost": len((set(acked) | set(ids.tolist())) - present),
        }
    finally:
        service.close()


def run_all(config=CONFIG) -> dict:
    results = {"append": {}}
    with tempfile.TemporaryDirectory(prefix="bench-durability-") as tmp:
        tmp = Path(tmp)
        for window_ms in config["fsync_windows_ms"]:
            label = f"window_{window_ms:g}ms"
            entry = _append_section(tmp / f"append-{window_ms:g}",
                                    window_ms, config)
            results["append"][label] = entry
            print(f"  append {label}: {entry['appends_per_s']:.0f} acked/s, "
                  f"{entry['fsyncs']} fsyncs for {entry['acked']} appends")
        results["recovery"] = _recovery_section(tmp, config)
        print(f"  recovery: replay {results['recovery']['wal_replay_s']:.3f}s"
              f" for {results['recovery']['records']} records, snapshot "
              f"{results['recovery']['snapshot_recover_s']:.3f}s")
        results["failover"] = _failover_section(tmp, config)
        print(f"  failover: {results['failover']['failover_s']:.3f}s, "
              f"partial={results['failover']['partial']}, "
              f"acked_lost={results['failover']['acked_lost']}")
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
    ok = (all(e["durable_ok"] and e["recovered"] == e["acked"]
              for e in results["append"].values())
          and results["recovery"]["id_identical"]
          and not results["failover"]["partial"]
          and results["failover"]["acked_lost"] == 0)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
