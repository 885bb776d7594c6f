"""Sharded serving benchmark: scatter-gather top-k throughput vs shard count.

Splits a synthetic embedding store (100k and 1M rows, Gaussian, seeded)
across 1/2/4 shard workers with ``save_partitions`` and drives the
scatter-gather coordinator (:class:`~repro.serving.sharding.ShardedService`,
search-only — no encoder) with serial ``query_embedding`` calls.

Two throughput numbers per configuration:

* ``wall_qps`` — measured queries/second. Honest but machine-bound: on a
  runner with fewer cores than shards the workers time-slice one CPU, so
  wall time *cannot* show a parallel speedup.
* ``projected_qps`` — the steady-state pipeline bound
  ``1 / max(coordinator_s_per_query, max_shard_busy_s_per_query)`` from
  *measured* per-component busy time (every worker reply carries its
  shard's compute seconds; the coordinator's share is the wall residual).
  This is what the same run answers at once shards stop sharing a core.

The headline, ``speedup_4_vs_1_at_1m``, is 4-shard over 1-shard top-k
throughput at 1M rows, taken from ``wall_qps`` when the machine has at
least as many CPUs as shards and from ``projected_qps`` otherwise (the
report's ``floor_basis`` records which). The acceptance floor in
``check_bench_regression.py`` is 2x. ``identical`` records that every
sharded configuration returned exactly the single-store answer.

Run with ``PYTHONPATH=src python benchmarks/bench_sharded_serving.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

if __package__:
    from .latency import percentiles_ms
else:  # run as a script: sibling import off sys.path[0]
    from latency import percentiles_ms

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_sharding.json"

CONFIG = {
    "embedding_dim": 16,
    "scales": {"100k": 100_000, "1m": 1_000_000},
    "shard_counts": [1, 2, 4],
    "queries": 40,
    "k": 10,
    "identity_queries": 8,
    "ivf_nlist": 256,  # the 100k IVF side-section
    "ivf_nprobe": 16,
    "seed": 2024,
}


def make_embeddings(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)).astype(np.float32)


def bench_config(partition_dir, queries, k, reference, identity_queries,
                 index="exact", **backend_options) -> dict:
    """Drive one sharded configuration; returns measurements + identity."""
    from repro.serving import ShardedConfig, ShardedService

    config = ShardedConfig(index=index, **backend_options)
    with ShardedService(partition_dir, config=config) as service:
        service.query_embedding(queries[0], k=k)  # warmup / first-touch
        busy_before = service.shard_busy_seconds()
        latencies = []
        start = time.perf_counter()
        for query in queries:
            t0 = time.perf_counter()
            service.query_embedding(query, k=k)
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        busy = [after - before for after, before
                in zip(service.shard_busy_seconds(), busy_before)]

        identical = True
        if reference is not None:
            for query in queries[:identity_queries]:
                want, _ = reference.query_embedding(query, k=k)
                got = service.query_embedding(query, k=k)
                if got.partial or got.ids != [int(i) for i in want]:
                    identical = False
                    break

    num_queries = len(queries)
    coordinator_s = max(0.0, elapsed - sum(busy)) / num_queries
    max_shard_s = max(busy) / num_queries
    # Steady-state pipeline bound: with shards on their own cores the
    # slowest stage (coordinator or busiest shard) sets the throughput.
    projected_qps = 1.0 / max(coordinator_s, max_shard_s)
    result = {
        "shards": len(busy),
        "queries": num_queries,
        "seconds": elapsed,
        "wall_qps": num_queries / elapsed,
        "projected_qps": projected_qps,
        "coordinator_s_per_query": coordinator_s,
        "max_shard_busy_s_per_query": max_shard_s,
        "shard_busy_s": busy,
        "identical": identical,
    }
    result.update(percentiles_ms(latencies))
    return result


def run_all(config=CONFIG) -> dict:
    from repro.core.partition import save_partitions
    from repro.core.store import EmbeddingStore

    dim = config["embedding_dim"]
    k = config["k"]
    queries = make_embeddings(config["queries"], dim,
                              seed=config["seed"] + 1).astype(np.float64)
    cpu_count = os.cpu_count() or 1
    floor_basis = ("wall" if cpu_count >= max(config["shard_counts"])
                   else "projected")

    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-sharding-") as tmp:
        tmp = Path(tmp)
        for label, rows in config["scales"].items():
            embeddings = make_embeddings(rows, dim, seed=config["seed"])
            reference = EmbeddingStore(None, dim=dim)
            reference.add_embeddings(embeddings)
            ids = np.asarray(reference.ids, dtype=np.int64)

            scale_results = {}
            for shards in config["shard_counts"]:
                part_dir = tmp / f"{label}-{shards}"
                save_partitions(part_dir, ids, embeddings,
                                num_shards=shards)
                scale_results[str(shards)] = bench_config(
                    part_dir, queries, k, reference,
                    config["identity_queries"])
                print(f"  {label} exact @{shards} shard(s): "
                      f"wall {scale_results[str(shards)]['wall_qps']:.1f} "
                      f"qps, projected "
                      f"{scale_results[str(shards)]['projected_qps']:.1f}")
            results[label] = scale_results

            if label == "100k":
                # IVF side-section: same partitions, ANN per shard. No
                # identity check — IVF trades exactness for speed (its
                # recall contract lives in BENCH_ann.json).
                results["100k_ivf"] = {
                    str(s): bench_config(
                        tmp / f"{label}-{s}", queries, k, None,
                        0, index="ivf", nlist=config["ivf_nlist"],
                        nprobe=config["ivf_nprobe"])
                    for s in config["shard_counts"]}
            del reference, embeddings

    basis_key = "wall_qps" if floor_basis == "wall" else "projected_qps"
    at_1m = results["1m"]
    speedups = {
        "speedup_4_vs_1_at_1m_wall":
            at_1m["4"]["wall_qps"] / at_1m["1"]["wall_qps"],
        "speedup_4_vs_1_at_1m_projected":
            at_1m["4"]["projected_qps"] / at_1m["1"]["projected_qps"],
    }
    speedups["speedup_4_vs_1_at_1m"] = (
        at_1m["4"][basis_key] / at_1m["1"][basis_key])
    identical = all(entry["identical"]
                    for label in config["scales"]
                    for entry in results[label].values())
    results.update(speedups)
    results["identical"] = identical
    return {
        "schema": "repro.bench_sharding.v1",
        "config": {k_: (dict(v) if isinstance(v, dict) else v)
                   for k_, v in config.items()},
        "cpu_count": cpu_count,
        "floor_basis": floor_basis,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_all()
    results = report["results"]
    print(f"\n{'configuration':<18} {'wall qps':>9} {'proj qps':>9} "
          f"{'p50 ms':>8} {'p99 ms':>8} {'coord ms':>9} {'shard ms':>9}")
    for label in ("100k", "1m", "100k_ivf"):
        for shards, entry in results[label].items():
            name = f"{label}@{shards}"
            print(f"{name:<18} {entry['wall_qps']:>9.1f} "
                  f"{entry['projected_qps']:>9.1f} {entry['p50_ms']:>8.2f} "
                  f"{entry['p99_ms']:>8.2f} "
                  f"{entry['coordinator_s_per_query'] * 1e3:>9.2f} "
                  f"{entry['max_shard_busy_s_per_query'] * 1e3:>9.2f}")
    print(f"speedup 4 vs 1 shard at 1M ({report['floor_basis']} basis, "
          f"{report['cpu_count']} cpu): "
          f"{results['speedup_4_vs_1_at_1m']:.2f}x "
          f"(wall {results['speedup_4_vs_1_at_1m_wall']:.2f}x, projected "
          f"{results['speedup_4_vs_1_at_1m_projected']:.2f}x, "
          f"identical={results['identical']})")

    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if results["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
