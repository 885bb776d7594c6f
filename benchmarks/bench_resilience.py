"""Resilience benchmark: serving behaviour under injected faults.

Where ``bench_serving`` measures the happy path, this benchmark measures
the *contract under failure* introduced by the fault-tolerance layer:

* **faulty_encoder** — a :class:`~repro.testing.FlakyCallable` makes the
  encoder raise on a scripted schedule while queries keep arriving. The
  circuit breaker must trip and the grid-index fallback must keep
  answering (``degraded=True``); every query must end in an answer or a
  *typed* error — ``failed`` counts anything else and must be 0. p50/p99
  latency is reported across all queries, including the degraded ones.
* **load_shedding** — more concurrent clients than ``max_inflight``
  permits; the admission gate must shed the excess with
  :class:`~repro.exceptions.ServiceOverloadedError` (the HTTP 429 path)
  and ``accepted + shed`` must equal ``offered``.
* **no_hangs** — the whole run is wall-clock-bounded; a single stuck
  future or un-joined thread fails the benchmark.

Run with ``PYTHONPATH=src python benchmarks/bench_resilience.py``;
``scripts/check_bench_regression.py --only resilience`` compares a fresh
run against the committed ``BENCH_resilience.json``. The functional
fields (``failed``, ``breaker_opened``, shed accounting) are hard
checks; latency uses a loose threshold because degraded-path timings on
shared CPUs are noisy.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_resilience.json"

CONFIG = {
    "num_seeds": 30,
    "num_database": 96,
    "embedding_dim": 16,
    "epochs": 2,
    "measure": "hausdorff",
    "faulty_queries": 60,
    "encoder_fail_from": 9,  # calls >= this index all fail: a hard outage
    "breaker_failure_threshold": 3,
    "breaker_reset_s": 30.0,
    "shed_clients": 6,
    "shed_queries_per_client": 10,
    "max_inflight": 2,
    "encoder_latency_ms": 2.0,
    "wall_clock_budget_s": 120.0,
}


def _percentiles_ms(latencies_s) -> dict:
    arr = np.asarray(latencies_s) * 1000.0
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


class _WrappedModel:
    """Delegate everything to the real model except ``embed``."""

    def __init__(self, model, embed):
        self._model = model
        self.embed = embed

    def __getattr__(self, name):
        return getattr(self._model, name)


def build_world(config=CONFIG):
    """(model, store, fallback index, queries) for the fault scenarios."""
    from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
    from repro.core.store import EmbeddingStore
    from repro.index.grid_index import GridInvertedIndex

    seeds = list(generate_porto(
        PortoConfig(num_trajectories=config["num_seeds"], min_points=10,
                    max_points=25), seed=0))
    database = list(generate_porto(
        PortoConfig(num_trajectories=config["num_database"], min_points=10,
                    max_points=25), seed=1))
    queries = list(generate_porto(
        PortoConfig(num_trajectories=max(
            config["faulty_queries"],
            config["shed_clients"] * config["shed_queries_per_client"]),
            min_points=10, max_points=25), seed=2))
    model = NeuTraj(NeuTrajConfig(
        measure=config["measure"], embedding_dim=config["embedding_dim"],
        epochs=config["epochs"], sampling_num=5, batch_anchors=10,
        cell_size=400.0, seed=0))
    model.fit(seeds)
    store = EmbeddingStore(model)
    ids = store.add(database)
    fallback = GridInvertedIndex(model._require_fitted().grid)
    for traj_id, traj in zip(ids, database):
        fallback.insert(traj_id, np.asarray(traj.points))
    return model, store, fallback, queries


def run_all(config=CONFIG) -> dict:
    from repro.exceptions import (ServiceOverloadedError,
                                  ServiceUnavailableError)
    from repro.serving import ServingConfig, SimilarityService
    from repro.testing import FaultInjected, FlakyCallable

    wall_start = time.perf_counter()
    model, store, fallback, queries = build_world(config)

    # ---------------------------------------------------- faulty encoder
    # The encoder dies for good partway in: healthy calls, then a run of
    # consecutive failures that must trip the breaker, then degraded
    # answers from the grid index for the rest of the load.
    flaky = FlakyCallable(
        model.embed,
        fail_on=range(config["encoder_fail_from"],
                      config["faulty_queries"] * 4))
    service = SimilarityService(
        _WrappedModel(model, flaky), store,
        ServingConfig(cache_capacity=0,
                      breaker_failure_threshold=config[
                          "breaker_failure_threshold"],
                      breaker_reset_s=config["breaker_reset_s"]),
        fallback_index=fallback)
    answered = degraded = typed_errors = failed = 0
    latencies = []
    try:
        for query in queries[:config["faulty_queries"]]:
            t0 = time.perf_counter()
            try:
                result = service.top_k(query, k=10, use_cache=False,
                                       timeout=30.0)
                answered += 1
                if result.degraded:
                    degraded += 1
            except (FaultInjected, ServiceUnavailableError):
                typed_errors += 1   # pre-trip failures surface typed
            # Counting the hard-failure bucket is the point of this
            # bench.  # repro: disable=exception-hygiene
            except Exception:       # noqa: BLE001 - the hard failure bucket
                failed += 1
            latencies.append(time.perf_counter() - t0)
        breaker_stats = service.breaker.stats()
        snap = service.registry.snapshot()
    finally:
        service.close()
    faulty = {
        "queries": config["faulty_queries"],
        "answered": answered,
        "degraded": degraded,
        "typed_errors": typed_errors,
        "failed": failed,
        "breaker_opened": breaker_stats["transitions"] > 0,
        "encoder_failures": snap.get("repro_encoder_failures_total", 0),
    }
    faulty.update(_percentiles_ms(latencies))

    # ------------------------------------------------------ load shedding
    slow = FlakyCallable(model.embed,
                         latency_s=config["encoder_latency_ms"] / 1000.0)
    service = SimilarityService(
        _WrappedModel(model, slow), store,
        ServingConfig(cache_capacity=0,
                      max_inflight=config["max_inflight"]),
        fallback_index=fallback)
    clients = config["shed_clients"]
    per_client = config["shed_queries_per_client"]
    accepted_counts = [0] * clients
    shed_counts = [0] * clients
    barrier = threading.Barrier(clients)

    def client(idx):
        mine = queries[idx * per_client:(idx + 1) * per_client]
        barrier.wait()
        for query in mine:
            try:
                service.top_k(query, k=10, use_cache=False, timeout=30.0)
                accepted_counts[idx] += 1
            except ServiceOverloadedError:
                shed_counts[idx] += 1

    try:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        hung_threads = sum(1 for t in threads if t.is_alive())
        gate_stats = service.stats()["resilience"]["admission"]
    finally:
        service.close()
    offered = clients * per_client
    accepted = sum(accepted_counts)
    shed = sum(shed_counts)
    shedding = {
        "offered": offered,
        "accepted": accepted,
        "shed": shed,
        "shed_rate": shed / offered,
        "accounting_exact": accepted + shed == offered,
        "gate_shed_counter": gate_stats["shed"],
        "hung_threads": hung_threads,
    }

    wall = time.perf_counter() - wall_start
    return {
        "schema": "repro.bench_resilience.v1",
        "config": dict(config),
        "cpu_count": os.cpu_count(),
        "results": {
            "faulty_encoder": faulty,
            "load_shedding": shedding,
            "wall_clock_s": wall,
            "no_hangs": (hung_threads == 0
                         and wall < config["wall_clock_budget_s"]),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_all()
    results = report["results"]
    faulty = results["faulty_encoder"]
    shedding = results["load_shedding"]
    print(f"faulty encoder : {faulty['answered']}/{faulty['queries']} "
          f"answered ({faulty['degraded']} degraded, "
          f"{faulty['typed_errors']} typed errors, {faulty['failed']} hard "
          f"failures), p50 {faulty['p50_ms']:.2f} ms, "
          f"p99 {faulty['p99_ms']:.2f} ms, "
          f"breaker_opened={faulty['breaker_opened']}")
    print(f"load shedding  : {shedding['accepted']}/{shedding['offered']} "
          f"accepted, {shedding['shed']} shed "
          f"(rate {shedding['shed_rate']:.2f}), "
          f"accounting_exact={shedding['accounting_exact']}")
    print(f"no hangs       : {results['no_hangs']} "
          f"(wall {results['wall_clock_s']:.1f}s)")

    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    ok = (faulty["failed"] == 0 and faulty["breaker_opened"]
          and shedding["accounting_exact"] and results["no_hangs"])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
