"""Serving-layer benchmark: single-query latency and micro-batched throughput.

Measures the deployment pattern end to end (paper §VI-A, served online by
``repro.serving``):

* **offline_serial** — the baseline a one-shot script gets: sequential
  ``EmbeddingStore.query`` calls, one trajectory encoded per call;
  reported as per-query latency percentiles and queries/second.
* **service@{1,4,16}** — the same queries through a
  :class:`~repro.serving.service.SimilarityService` (result cache off)
  with 1, 4, and 16 concurrent client threads; the micro-batcher
  coalesces concurrent encodes into padded batched encoder calls.

The headline number is ``speedup_16_vs_serial`` — service throughput with
16 concurrent clients over the serial single-query baseline; the
acceptance floor is 2x. An ``identical`` flag records that the service
returned the same top-k ids as the offline store for every sampled query
(a speedup over wrong answers is not reported).

Run with ``PYTHONPATH=src python benchmarks/bench_serving.py``;
``scripts/check_bench_regression.py`` compares a fresh run against the
committed ``BENCH_serving.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path

if __package__:
    from .latency import percentiles_ms
else:  # run as a script: sibling import off sys.path[0]
    from latency import percentiles_ms

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_serving.json"

#: Benchmark scale: small enough to finish in well under a minute, large
#: enough that encoder batching dominates timer noise.
CONFIG = {
    "num_seeds": 40,
    "num_database": 256,
    "embedding_dim": 16,
    "epochs": 2,
    "measure": "hausdorff",
    "queries_per_client": 32,
    "concurrency": [1, 4, 16],
    "max_batch_size": 16,
}


def build_world(config=CONFIG):
    """Train a small model and fill a store; returns (model, store, queries)."""
    from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
    from repro.core.store import EmbeddingStore

    seeds = list(generate_porto(
        PortoConfig(num_trajectories=config["num_seeds"], min_points=10,
                    max_points=25), seed=0))
    database = list(generate_porto(
        PortoConfig(num_trajectories=config["num_database"], min_points=10,
                    max_points=25), seed=1))
    queries = list(generate_porto(
        PortoConfig(num_trajectories=max(config["concurrency"])
                    * config["queries_per_client"], min_points=10,
                    max_points=25), seed=2))
    model = NeuTraj(NeuTrajConfig(
        measure=config["measure"], embedding_dim=config["embedding_dim"],
        epochs=config["epochs"], sampling_num=5, batch_anchors=10,
        cell_size=400.0, seed=0))
    model.fit(seeds)
    store = EmbeddingStore(model)
    store.add(database)
    return model, store, queries


def bench_offline_serial(store, queries, k=10) -> dict:
    """Sequential one-trajectory-per-call store queries (the baseline)."""
    store.query(queries[0], k=k)  # warmup / first-touch
    latencies = []
    start = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        store.query(query, k=k)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    result = {"queries": len(queries), "seconds": elapsed,
              "qps": len(queries) / elapsed}
    result.update(percentiles_ms(latencies))
    return result


def bench_service(service, queries, clients, per_client, k=10) -> dict:
    """`clients` threads, each issuing `per_client` distinct queries."""
    service.top_k(queries[0], k=k, use_cache=False)  # warmup
    batches_before = service.stats()["batcher"]
    latencies = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(idx):
        mine = queries[idx * per_client:(idx + 1) * per_client]
        barrier.wait()
        for query in mine:
            t0 = time.perf_counter()
            service.top_k(query, k=k, use_cache=False)
            latencies[idx].append(time.perf_counter() - t0)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    batches_after = service.stats()["batcher"]
    dispatched_batches = batches_after["batches"] - batches_before["batches"]
    dispatched_items = batches_after["items"] - batches_before["items"]
    total = clients * per_client
    result = {
        "clients": clients,
        "queries": total,
        "seconds": elapsed,
        "qps": total / elapsed,
        "mean_batch_size": (dispatched_items / dispatched_batches
                            if dispatched_batches else 0.0),
    }
    result.update(percentiles_ms([l for per in latencies for l in per]))
    return result


def check_identical(service, store, queries, k=10) -> bool:
    """Service answers must match the offline store exactly."""
    for query in queries:
        expected, _ = store.query(query, k=k)
        got = service.top_k(query, k=k, use_cache=False)
        if got.ids != [int(i) for i in expected]:
            return False
    return True


def run_all(config=CONFIG) -> dict:
    from repro.serving import ServingConfig, SimilarityService

    model, store, queries = build_world(config)
    per_client = config["queries_per_client"]

    offline = bench_offline_serial(store, queries[:2 * per_client])

    service_results = {}
    service = SimilarityService(
        model, store,
        ServingConfig(max_batch_size=config["max_batch_size"],
                      cache_capacity=0))
    try:
        for clients in config["concurrency"]:
            service_results[str(clients)] = bench_service(
                service, queries, clients, per_client)
        identical = check_identical(service, store, queries[:16])
    finally:
        service.close()

    top_concurrency = str(max(config["concurrency"]))
    return {
        "schema": "repro.bench_serving.v1",
        "config": dict(config),
        "cpu_count": os.cpu_count(),
        "results": {
            "offline_serial": offline,
            "service": service_results,
            "speedup_16_vs_serial": (service_results[top_concurrency]["qps"]
                                     / offline["qps"]),
            "identical": identical,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_all()
    results = report["results"]
    print(f"{'workload':<16} {'qps':>9} {'p50 ms':>8} {'p95 ms':>8} "
          f"{'batch':>6}")
    offline = results["offline_serial"]
    print(f"{'offline serial':<16} {offline['qps']:>9.1f} "
          f"{offline['p50_ms']:>8.2f} {offline['p95_ms']:>8.2f} {'1.0':>6}")
    for clients, entry in results["service"].items():
        print(f"{'service@' + clients:<16} {entry['qps']:>9.1f} "
              f"{entry['p50_ms']:>8.2f} {entry['p95_ms']:>8.2f} "
              f"{entry['mean_batch_size']:>6.1f}")
    print(f"speedup @16 clients vs serial: "
          f"{results['speedup_16_vs_serial']:.2f}x "
          f"(identical={results['identical']})")

    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if results["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
