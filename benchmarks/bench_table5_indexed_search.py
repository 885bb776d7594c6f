"""Table V — online similarity search with spatial indexes, plus the
IVF ANN sweep over the embedding store.

Part 1 (pytest, paper artefact): Fréchet search through a bounding-box
R-tree and a grid inverted index, ranking the candidates with BruteForce
/ AP / NeuTraj. Expected shape (paper): indexes shrink the
involved-trajectory count below the DB size; NeuTraj is the fastest
ranker under both indexes.

Part 2 (standalone, ``run_all``/``main``): the deployment-scale
embedding search the paper's Table V implies but never measures — an
IVF index (``repro.index.ann``) over synthetic clustered embeddings:

* **recall sweep @100k** — recall@10 vs the exact scan across ``nprobe``
  settings, with the fraction of the database each setting scans;
* **qps @1M** — queries/second of the IVF search against the
  brute-force scan at a million embeddings, same answers measured for
  recall.

Acceptance (gated by ``scripts/check_bench_regression.py --only ann``):
the selected 100k operating point reaches recall@10 >= 0.9 while
scanning <= 10% of the database, and IVF at 1M is >= 5x the brute-force
qps. Run with ``PYTHONPATH=src python
benchmarks/bench_table5_indexed_search.py`` to refresh
``BENCH_ann.json``.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (db_sizes_for_scale, format_table,
                               run_indexed_search_time)
from repro.index import RTree


@pytest.fixture(scope="module")
def table5(porto_workload):
    sizes = db_sizes_for_scale(porto_workload.scale)
    return run_indexed_search_time(porto_workload, db_sizes=sizes), sizes


def test_table5_indexed_search(benchmark, table5, porto_workload, report):
    results, sizes = table5

    # Kernel: an R-tree range query over the database.
    tree = RTree.from_trajectories(porto_workload.database)
    window = porto_workload.queries[0].bbox
    benchmark(lambda: tree.query(window))

    rows = []
    for index_name in ("rtree", "grid"):
        for method in ("BruteForce", "AP", "NeuTraj"):
            cells = {r.db_size: r for r in results
                     if r.index_name == index_name and r.method == method}
            rows.append(
                [index_name, method]
                + [f"{cells[s].seconds_per_query:.4f}s" for s in sizes])
        involved = {r.db_size: r.involved for r in results
                    if r.index_name == index_name and r.method == "BruteForce"}
        rows.append([index_name, "# involved"]
                    + [f"{involved[s]:.0f}" for s in sizes])
    report("table5_indexed_search",
           format_table("Table V: online search time with index (per query)",
                        ["index", "method"] + [f"db={s}" for s in sizes],
                        rows))

    for index_name in ("rtree", "grid"):
        for size in sizes:
            brute = next(r for r in results if r.index_name == index_name
                         and r.method == "BruteForce" and r.db_size == size)
            neural = next(r for r in results if r.index_name == index_name
                          and r.method == "NeuTraj" and r.db_size == size)
            assert neural.seconds_per_query < brute.seconds_per_query
            assert brute.involved <= size


# --------------------------------------------------------------------------
# Part 2: IVF ANN recall/qps sweep over synthetic embeddings
# --------------------------------------------------------------------------

DEFAULT_ANN_OUTPUT = Path(__file__).resolve().parent / "BENCH_ann.json"

#: Synthetic-embedding sweep. Clustered data (Gaussian mixture) matches
#: what a trained encoder produces — embeddings of similar trajectories
#: bunch together — and is what makes an inverted file effective.
ANN_CONFIG = {
    "dim": 16,
    "clusters": 256,
    "spread": 0.7,
    "recall": {"count": 100_000, "queries": 100, "k": 10,
               "nlist": 320, "nprobes": [4, 8, 16, 32],
               "selected_nprobe": 16, "seed": 7},
    "qps": {"count": 1_000_000, "queries": 32, "k": 10,
            "nlist": 1024, "nprobe": 8, "seed": 11},
}


def synthetic_embeddings(count, dim, seed, clusters=256, spread=0.15):
    """Clustered float32 embeddings: `clusters` Gaussian modes."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim)).astype(np.float32)
    assign = rng.integers(0, clusters, size=count)
    noise = (spread * rng.standard_normal(size=(count, dim))
             ).astype(np.float32)
    return centers[assign] + noise


def exact_topk_ids(vectors, query, k):
    """The store's brute-force scan (ExactBackend idiom) on float32."""
    diffs = vectors - query[None, :]
    distances = (diffs * diffs).sum(axis=1)
    order = np.argpartition(distances, k - 1)[:k]
    return order[np.argsort(distances[order], kind="stable")]


def _make_queries(vectors, count, rng, spread):
    """Perturbed database rows: near-neighbour queries with answers."""
    pick = rng.choice(vectors.shape[0], size=count, replace=False)
    jitter = (0.3 * spread
              * rng.standard_normal(size=(count, vectors.shape[1])))
    return vectors[pick] + jitter.astype(np.float32)


def bench_ann_recall(config=ANN_CONFIG) -> dict:
    """Recall@k vs exact and scanned fraction across nprobe settings."""
    from repro.index.ann import IVFConfig, IVFIndex

    section = config["recall"]
    vectors = synthetic_embeddings(
        section["count"], config["dim"], section["seed"],
        clusters=config["clusters"], spread=config["spread"])
    ids = np.arange(section["count"], dtype=np.int64)
    rng = np.random.default_rng(section["seed"] + 1)
    queries = _make_queries(vectors, section["queries"], rng,
                            config["spread"])
    k = section["k"]
    exact = [ids[exact_topk_ids(vectors, q, k)] for q in queries]

    t0 = time.perf_counter()
    index = IVFIndex.build(ids, vectors,
                           IVFConfig(nlist=section["nlist"], seed=0))
    build_s = time.perf_counter() - t0

    sweep = []
    for nprobe in section["nprobes"]:
        before = index.stats()["candidates_scanned"]
        hits = 0
        t0 = time.perf_counter()
        for query, truth in zip(queries, exact):
            got, _ = index.search(query, k, nprobe=nprobe)
            hits += len(set(got.tolist()) & set(truth.tolist()))
        elapsed = time.perf_counter() - t0
        scanned = index.stats()["candidates_scanned"] - before
        sweep.append({
            "nprobe": nprobe,
            "recall_at_10": hits / (len(queries) * k),
            "scanned_fraction": scanned / (len(queries) * section["count"]),
            "qps": len(queries) / elapsed,
        })
    selected = next(s for s in sweep
                    if s["nprobe"] == section["selected_nprobe"])
    return {"count": section["count"], "nlist": section["nlist"],
            "build_seconds": build_s, "sweep": sweep, "selected": selected}


def bench_ann_qps(config=ANN_CONFIG) -> dict:
    """IVF vs brute-force queries/second at 1M synthetic embeddings."""
    from repro.index.ann import IVFConfig, IVFIndex

    section = config["qps"]
    vectors = synthetic_embeddings(
        section["count"], config["dim"], section["seed"],
        clusters=config["clusters"], spread=config["spread"])
    ids = np.arange(section["count"], dtype=np.int64)
    rng = np.random.default_rng(section["seed"] + 1)
    queries = _make_queries(vectors, section["queries"], rng,
                            config["spread"])
    k = section["k"]

    exact_topk_ids(vectors, queries[0], k)  # first-touch warmup
    t0 = time.perf_counter()
    exact = [ids[exact_topk_ids(vectors, q, k)] for q in queries]
    exact_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    index = IVFIndex.build(ids, vectors,
                           IVFConfig(nlist=section["nlist"],
                                     nprobe=section["nprobe"], seed=0))
    build_s = time.perf_counter() - t0

    index.search(queries[0], k)  # warmup
    before = index.stats()["candidates_scanned"]
    hits = 0
    t0 = time.perf_counter()
    for query, truth in zip(queries, exact):
        got, _ = index.search(query, k)
        hits += len(set(got.tolist()) & set(truth.tolist()))
    ivf_s = time.perf_counter() - t0
    scanned = index.stats()["candidates_scanned"] - before

    return {
        "count": section["count"], "nlist": section["nlist"],
        "nprobe": section["nprobe"], "build_seconds": build_s,
        "exact_qps": len(queries) / exact_s,
        "ivf_qps": len(queries) / ivf_s,
        "speedup": exact_s / ivf_s,
        "recall_at_10": hits / (len(queries) * k),
        "scanned_fraction": scanned / (len(queries) * section["count"]),
    }


def run_all(config=ANN_CONFIG) -> dict:
    import os

    recall = bench_ann_recall(config)
    qps = bench_ann_qps(config)
    return {
        "schema": "repro.bench_ann.v1",
        "config": dict(config),
        "cpu_count": os.cpu_count(),
        "results": {"recall_100k": recall, "qps_1m": qps},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="IVF ANN recall/qps sweep (writes BENCH_ann.json)")
    parser.add_argument("--output", type=Path, default=DEFAULT_ANN_OUTPUT)
    args = parser.parse_args(argv)

    report = run_all()
    recall = report["results"]["recall_100k"]
    qps = report["results"]["qps_1m"]
    print(f"recall sweep @{recall['count']} (nlist={recall['nlist']}, "
          f"build {recall['build_seconds']:.1f}s):")
    print(f"  {'nprobe':>7} {'recall@10':>10} {'scanned':>9} {'qps':>9}")
    for row in recall["sweep"]:
        print(f"  {row['nprobe']:>7} {row['recall_at_10']:>10.3f} "
              f"{row['scanned_fraction']:>8.1%} {row['qps']:>9.0f}")
    print(f"qps @{qps['count']} (nlist={qps['nlist']}, "
          f"nprobe={qps['nprobe']}, build {qps['build_seconds']:.1f}s):")
    print(f"  exact {qps['exact_qps']:.1f} qps -> ivf {qps['ivf_qps']:.1f} "
          f"qps ({qps['speedup']:.1f}x, recall@10 {qps['recall_at_10']:.3f}, "
          f"scanned {qps['scanned_fraction']:.2%})")

    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    ok = (recall["selected"]["recall_at_10"] >= 0.9
          and recall["selected"]["scanned_fraction"] <= 0.10
          and qps["speedup"] >= 5.0)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
