"""Efficiency experiments: online search time (Tables IV & V) and offline
training/embedding time (Table VI)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets import Grid, PortoConfig, Trajectory, generate_porto
from ..eval import (Timing, embedding_knn, measure as time_call,
                    rerank_with_exact, top_k_from_distances)
from ..index import (GridInvertedIndex, RTree, search_embedding, search_exact)
from ..measures import get_measure
from .common import ap_comparator, train_variant
from .workloads import ExperimentScale, Workload, build_workload, current_scale


@dataclass(frozen=True)
class SearchTiming:
    """Per-query search cost of one method at one database size."""

    method: str
    db_size: int
    seconds_per_query: float


def _porto_database(size: int, scale: ExperimentScale,
                    seed: int = 5) -> List[Trajectory]:
    ds = generate_porto(
        PortoConfig(num_trajectories=size, min_points=10,
                    max_points=scale.max_points), seed=seed)
    return list(ds)


def db_sizes_for_scale(scale: Optional[ExperimentScale] = None) -> List[int]:
    """Scaled stand-ins for the paper's 1k/5k/10k/200k sub-corpora."""
    scale = scale or current_scale()
    return {"smoke": [50, 100],
            "small": [100, 300, 1000],
            "medium": [200, 1000, 3000]}[scale.name]


def run_search_time(measure_name: str, workload: Workload,
                    db_sizes: Optional[Sequence[int]] = None,
                    num_queries: int = 5, k: int = 50
                    ) -> List[SearchTiming]:
    """Table IV row group for one measure: BruteForce / AP / NeuTraj.

    NeuTraj and AP follow the paper's protocol: database sketches and
    embeddings are precomputed; the per-query cost covers query
    sketch/embedding, the linear scan, and exact re-ranking of the top-k.
    ERP has no AP row (dash in the paper).
    """
    scale = workload.scale
    db_sizes = list(db_sizes or db_sizes_for_scale(scale))
    measure = get_measure(measure_name)
    model = train_variant("neutraj", workload, measure_name)
    plain = train_variant("nt_no_sam", workload, measure_name)
    has_ap = measure_name != "erp"
    approx = ap_comparator(measure_name, workload) if has_ap else None

    results: List[SearchTiming] = []
    for size in db_sizes:
        database = _porto_database(size, scale)
        queries = database[:num_queries]

        def brute():
            for q in queries:
                distances = np.array([measure(q, t) for t in database])
                top_k_from_distances(distances, k)

        timing = time_call(brute)
        results.append(SearchTiming("BruteForce", size,
                                    timing.seconds / num_queries))

        if has_ap:
            sketches = [approx.preprocess(t.points) for t in database]

            def ap_search():
                for q in queries:
                    qs = approx.preprocess(q.points)
                    distances = np.array([
                        approx.signature_distance(qs, s) for s in sketches])
                    cand = top_k_from_distances(distances, k)
                    rerank_with_exact(q, database, cand, measure, k)

            timing = time_call(ap_search)
            results.append(SearchTiming("AP", size,
                                        timing.seconds / num_queries))

        for name, m in (("NT-No-SAM", plain), ("NeuTraj", model)):
            db_emb = m.embed(database)

            def neural_search(m=m, db_emb=db_emb):
                for q in queries:
                    q_emb = m.embed([q])[0]
                    cand = embedding_knn(q_emb, db_emb, k)
                    rerank_with_exact(q, database, cand, measure, k)

            timing = time_call(neural_search)
            results.append(SearchTiming(name, size,
                                        timing.seconds / num_queries))
    return results


@dataclass(frozen=True)
class IndexedTiming:
    """Table V cell: per-query time plus candidate count under an index."""

    index_name: str
    method: str
    db_size: int
    seconds_per_query: float
    involved: float  # mean candidate count


def run_indexed_search_time(workload: Workload,
                            db_sizes: Optional[Sequence[int]] = None,
                            num_queries: int = 5, k: int = 50
                            ) -> List[IndexedTiming]:
    """Table V: Fréchet search under an R-tree and a grid inverted index."""
    scale = workload.scale
    db_sizes = list(db_sizes or db_sizes_for_scale(scale))
    measure = get_measure("frechet")
    model = train_variant("neutraj", workload, "frechet")
    approx = ap_comparator("frechet", workload)

    results: List[IndexedTiming] = []
    for size in db_sizes:
        database = _porto_database(size, scale)
        queries = database[:num_queries]
        margin = 2.0 * scale.cell_size
        indexes = {
            "rtree": RTree.from_trajectories(database),
            "grid": GridInvertedIndex.from_trajectories(
                database, Grid(workload.bbox, scale.cell_size * 4)),
        }
        for index_name, index in indexes.items():
            involved: List[int] = []

            def brute():
                for q in queries:
                    r = search_exact(index, q, database, measure, k,
                                     margin=margin)
                    involved.append(r.num_candidates)

            timing = time_call(brute)
            results.append(IndexedTiming(index_name, "BruteForce", size,
                                         timing.seconds / num_queries,
                                         float(np.mean(involved))))

            sketches = [approx.preprocess(t.points) for t in database]

            def ap_search():
                from ..index import search_approx
                for q in queries:
                    search_approx(index, q, database, approx, sketches, k,
                                  margin=margin)

            timing = time_call(ap_search)
            results.append(IndexedTiming(index_name, "AP", size,
                                         timing.seconds / num_queries,
                                         float(np.mean(involved))))

            db_emb = model.embed(database)

            def neural():
                for q in queries:
                    q_emb = model.embed([q])[0]
                    search_embedding(index, q, q_emb, db_emb, k,
                                     margin=margin)

            timing = time_call(neural)
            results.append(IndexedTiming(index_name, "NeuTraj", size,
                                         timing.seconds / num_queries,
                                         float(np.mean(involved))))
    return results


@dataclass(frozen=True)
class TrainingCost:
    """Table VI row: offline training and bulk-embedding cost."""

    method: str
    seconds_per_epoch: float
    epochs_to_converge: int
    total_seconds: float
    embed_seconds: float
    embed_count: int


def run_training_time(workload: Workload, measure_name: str = "frechet",
                      embed_count: Optional[int] = None
                      ) -> List[TrainingCost]:
    """Table VI: per-epoch/total training time + bulk embedding time."""
    scale = workload.scale
    embed_count = embed_count or 4 * len(workload.database)
    bulk = _porto_database(embed_count, scale, seed=9)
    rows: List[TrainingCost] = []
    for variant in ("siamese", "neutraj", "nt_no_sam", "nt_no_ws"):
        model = train_variant(variant, workload, measure_name)
        history = model.history
        timing = time_call(lambda: model.embed(bulk))
        rows.append(TrainingCost(
            method=variant,
            seconds_per_epoch=history.total_seconds / history.num_epochs,
            epochs_to_converge=history.epochs_to_converge(rel_tol=0.05),
            total_seconds=history.total_seconds,
            embed_seconds=timing.seconds,
            embed_count=embed_count,
        ))
    return rows
