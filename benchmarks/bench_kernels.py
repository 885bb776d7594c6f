"""Micro-benchmarks for the hot-path kernel rewrites.

Unlike the `bench_table*` / `bench_fig*` files (which regenerate paper
artefacts), this script times each optimised kernel against the reference
implementation it replaced and writes the results to ``BENCH_kernels.json``
next to this file:

* **pairwise_dtw** — seed-distance precompute: an explicit per-pair
  ``measure.distance`` loop vs ``pairwise_distances`` as ``fit`` calls it
  (the chunked driver over the batched anti-diagonal DP kernels, in
  process), with the same call on a 2-worker pool as a third timing;
* **samlstm_epoch** — one SAM-LSTM training epoch: the paper-equation
  cell unrolled op by op (per-step input projections + sliced sigmoid
  gates) vs hoisted whole-sequence projections + the fused recurrence
  core (two tape nodes per step, masked carry folded in);
* **embedding_distance_matrix** — all-pairs embedding search distances:
  the O(N²·d)-memory broadcast vs the chunked Gram-matrix form;
* **memory_write** — ``SpatialMemory.write``: the per-sample Python loop
  vs the duplicate-resolving vectorised scatter;
* **embed_single**, **extend_prefix_point**, **embed_batch** — inference:
  the tape engine under ``no_grad`` (``encode(update_memory=False)``, and
  one ``tape_step`` on a point projected by itself) vs the tape-free kernel
  behind ``embed`` / ``extend_prefix``. Gated on ``identical`` only;
* **prefix_fold_batch** — the ingest re-embed of 45 segments with 1-2 new
  points each: one ``extend_prefix`` per segment vs one
  ``extend_prefixes`` call folding them all as rows of a padded batch.
  Gated on ``identical`` only (every row's ``h``, ``c`` and ``length``);
* **store_mutation** — 200 mixed single-row ``add_embeddings`` /
  ``remove`` / ``upsert_embeddings`` on an ``EmbeddingStore`` of 1 000 and
  of 100 000 rows: the copy-the-table statements the store used to run
  (``np.concatenate``, boolean-mask copy, ``np.isin`` sweeps) vs the
  in-place layout. Gated on ``identical`` and on ``flat_in_n``: the
  per-mutation time at 100 000 rows within 3x of the one at 1 000 — the
  shape of the cost, not a timing floor;
* **ivf_kmeans** — the IVF coarse quantizer's k-means as a shard trains
  it (65 536 × 32 float32 sample, 283 cells): one GEMM per 16 384-row
  chunk scaled by −2 afterwards and ``np.add.at`` centroid sums vs
  2 048-row GEMM blocks on −2·centroids and per-cell sums over a radix
  sort of the labels. Reports the traced scratch peak of each as well;
  gated on ``identical`` (centroids and final assignment, bit for bit).

Every pairing also checks that old and new paths agree (bit-identical
where the rewrite promises it) — a speedup over a wrong answer is not
reported.

Run with ``PYTHONPATH=src python benchmarks/bench_kernels.py``;
``scripts/check_bench_regression.py`` compares a fresh run against the
committed JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_kernels.json"

#: Knobs shared by the benchmark and the acceptance narrative: N=80
#: synthetic Porto trajectories for the DTW matrix, a 2-worker pool.
CONFIG = {
    "pairwise_num_trajectories": 80,
    "pairwise_workers": 2,
    "epoch_num_seeds": 60,
    "epoch_embedding_dim": 32,
    "embedding_rows": 2000,
    "embedding_dim": 64,
    "write_batch": 256,
    "write_steps": 40,
    "infer_embedding_dim": 32,
    "infer_single_points": 75,
    "infer_batch": 100,
    "infer_batch_points": 30,
    "fold_segments": 45,
    "store_rows": [1000, 100_000],
    "store_dim": 32,
    "store_mutations": 200,
    "ivf_rows": 65536,
    "ivf_dim": 32,
    "ivf_nlist": 283,
}

#: ``store_mutation``: the per-mutation time may grow this much from the
#: small table to the large one before the cost counts as O(N) again.
STORE_FLAT_RATIO = 3.0


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of ``repeats`` runs (the usual noise filter)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _porto(n: int):
    from repro.datasets import PortoConfig, generate_porto
    return list(generate_porto(
        PortoConfig(num_trajectories=n, min_points=60, max_points=120),
        seed=7))


def bench_pairwise_dtw() -> dict:
    """Seed-distance matrix: per-pair loop vs in-process batched vs pool."""
    from repro.measures import get_measure, pairwise_distances

    trajs = _porto(CONFIG["pairwise_num_trajectories"])
    points = [np.asarray(t.points, dtype=np.float64) for t in trajs]
    measure = get_measure("dtw")
    workers = CONFIG["pairwise_workers"]
    out = {}

    def per_pair():
        matrix = np.zeros((len(points), len(points)), dtype=np.float64)
        for i, a in enumerate(points):
            for j in range(i + 1, len(points)):
                matrix[i, j] = matrix[j, i] = measure.distance(a, points[j])
        out["loop"] = matrix

    before = _best_of(per_pair, repeats=1)
    after = _best_of(lambda: out.update(
        in_process=pairwise_distances(trajs, measure, workers=1)))
    pool = _best_of(lambda: out.update(
        pool=pairwise_distances(trajs, measure, workers=workers)))
    identical = bool(np.array_equal(out["loop"], out["in_process"])
                     and np.array_equal(out["loop"], out["pool"]))
    return {
        "before": "explicit per-pair measure.distance loop",
        "after": ("pairwise_distances(workers=1): batched anti-diagonal "
                  "kernels, chunked in process"),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "pool": f"the same call on a process pool (workers={workers})",
        "pool_s": pool,
        "cpu_count": os.cpu_count(),
        "identical": identical,
    }


def _make_training_setup():
    from repro.core.config import NeuTrajConfig
    from repro.core.encoder import TrajectoryEncoder
    from repro.core.sampling import PairSampler
    from repro.core.similarity import distance_to_similarity, suggest_alpha
    from repro.datasets import TrajectoryDataset, Grid
    from repro.datasets.grid import CoordinateNormalizer
    from repro.measures import get_measure, pairwise_distances
    from repro.nn.optim import Adam

    trajs = _porto(CONFIG["epoch_num_seeds"])
    matrix = pairwise_distances(trajs, get_measure("hausdorff"))
    similarity = distance_to_similarity(matrix, suggest_alpha(matrix))
    cfg = NeuTrajConfig(embedding_dim=CONFIG["epoch_embedding_dim"],
                        sampling_num=5, cell_size=150.0)
    dataset = TrajectoryDataset(trajs)
    grid = Grid.for_dataset(dataset, cfg.cell_size, margin=cfg.cell_size)
    encoder = TrajectoryEncoder(grid, CoordinateNormalizer.fit(trajs), cfg,
                                np.random.default_rng(0))
    sampler = PairSampler(similarity, cfg.sampling_num, weighted=True,
                          rng=np.random.default_rng(1))
    optimizer = Adam(encoder.parameters(), lr=0.005)
    return trajs, encoder, sampler, optimizer


def _seed_gather(self, cells):
    """Pre-optimisation ``SpatialMemory.gather``: double fancy index."""
    cells = np.asarray(cells, dtype=int)
    coords = cells[:, None, :] + self._window[None, :, :]
    p, q = self.grid_shape
    valid = ((coords[..., 0] >= 0) & (coords[..., 0] < p)
             & (coords[..., 1] >= 0) & (coords[..., 1] < q))
    gx = np.clip(coords[..., 0], 0, p - 1)
    gy = np.clip(coords[..., 1], 0, q - 1)
    return self.data[gx, gy] * valid[..., None]


def _seed_write(self, cells, values, gates, mask=None):
    """Pre-optimisation ``SpatialMemory.write``: per-sample Python loop."""
    from repro.nn.tensor import logistic as _sigmoid
    cells = np.asarray(cells, dtype=int)
    values = np.asarray(values)
    if self.bounded:
        values = np.tanh(values)
    gate_weight = _sigmoid(np.asarray(gates))
    p, q = self.grid_shape
    for b in range(len(cells)):
        if mask is not None and not mask[b]:
            continue
        gx, gy = int(cells[b, 0]), int(cells[b, 1])
        if not (0 <= gx < p and 0 <= gy < q):
            continue
        # Reference loop over the SpatialMemory buffer (not a tape
        # Tensor).  # repro: disable=tape-discipline
        self.data[gx, gy] = (gate_weight[b] * values[b]
                             + (1.0 - gate_weight[b]) * self.data[gx, gy])


def _seed_forward(self, inputs, mask, cells, memory, update_memory=False):
    """Pre-optimisation ``SAMLSTM.forward``: the paper-equation cell op by
    op, one step at a time, the padded-step carry two ``where`` nodes."""
    from repro.nn.tensor import Tensor, where
    h = c = Tensor(np.zeros((len(inputs), self.hidden_size)))
    for t in range(inputs.shape[1]):
        step_mask = mask[:, t]
        h_new, c_new = self.cell(
            Tensor(inputs[:, t, :]), cells[:, t, :], h, c, memory,
            write=update_memory, step_mask=step_mask)
        h = where(step_mask[:, None], h_new, h)
        c = where(step_mask[:, None], c_new, c)
    return h


def bench_samlstm_epoch() -> dict:
    """One training epoch: seed-faithful reference path vs optimised path.

    The reference restores the seed's per-step input projections and
    sliced sigmoid gates (the reference ``SAMLSTMCell.forward``, unrolled
    here) plus the original per-sample memory write loop and
    double-fancy-index gather, temporarily patched onto
    :class:`Recurrent` and :class:`SpatialMemory`.
    """
    from repro.core.trainer import train_epoch
    from repro.nn.rnn import Recurrent
    from repro.nn.sam import SpatialMemory

    seed_path = ((Recurrent, "forward", _seed_forward),
                 (SpatialMemory, "gather", _seed_gather),
                 (SpatialMemory, "write", _seed_write))
    stats = {}
    times = {}
    for fused in (False, True):
        # Best of two fresh-setup epochs per path: the run is deterministic,
        # so repeats only filter scheduler noise, never change the loss.
        for _ in range(2):
            trajs, encoder, sampler, optimizer = _make_training_setup()
            anchors = np.arange(len(trajs))
            patched = []
            if not fused:
                for owner, name, fn in seed_path:
                    patched.append((owner, name, getattr(owner, name)))
                    setattr(owner, name, fn)
            try:
                start = time.perf_counter()
                stats[fused] = train_epoch(
                    encoder, trajs, sampler, optimizer, anchors,
                    batch_size=10, grad_clip=5.0,
                    rng=np.random.default_rng(2), epoch=0)
                elapsed = time.perf_counter() - start
                times[fused] = min(times.get(fused, elapsed), elapsed)
            finally:
                for owner, name, fn in patched:
                    setattr(owner, name, fn)
    loss_gap = abs(stats[True].loss - stats[False].loss)
    return {
        "before": ("seed path: per-step projections, sliced sigmoid gates, "
                   "loop write, fancy-index gather"),
        "after": ("hoisted sequence projections, fused recurrence core "
                  "(2 tape nodes/step), scatter write, flat-take gather"),
        "before_s": times[False],
        "after_s": times[True],
        "speedup": times[False] / times[True],
        "identical": bool(loss_gap < 1e-9),
        "epoch_loss": stats[True].loss,
    }


def bench_embedding_distance_matrix() -> dict:
    """All-pairs search distances: broadcast vs chunked Gram matrix."""
    from repro.eval.knn import embedding_distance_matrix

    rng = np.random.default_rng(3)
    emb = rng.normal(size=(CONFIG["embedding_rows"], CONFIG["embedding_dim"]))

    def broadcast():
        diffs = emb[:, None, :] - emb[None, :, :]
        return np.sqrt((diffs * diffs).sum(axis=-1))

    before = _best_of(broadcast)
    after = _best_of(lambda: embedding_distance_matrix(emb))
    max_diff = float(np.max(np.abs(broadcast()
                                   - embedding_distance_matrix(emb))))
    return {
        "before": "O(N²·d)-memory broadcast",
        "after": "chunked Gram-matrix form (‖a‖²+‖b‖²−2a·b)",
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "identical": bool(max_diff < 1e-9),
        "max_abs_diff": max_diff,
    }


def bench_memory_write() -> dict:
    """SpatialMemory.write: per-sample loop vs vectorised scatter."""
    from repro.nn.sam import SpatialMemory
    from repro.nn.tensor import logistic as _sigmoid

    rng = np.random.default_rng(4)
    grid, d = (40, 40), 32
    batch, steps = CONFIG["write_batch"], CONFIG["write_steps"]
    cells = rng.integers(0, grid[0], size=(steps, batch, 2))
    values = rng.normal(size=(steps, batch, d))
    gates = rng.normal(size=(steps, batch, d))

    def loop_write(mem, c, v, g):
        if mem.bounded:
            v = np.tanh(v)
        w = _sigmoid(g)
        for b in range(len(c)):
            gx, gy = int(c[b, 0]), int(c[b, 1])
            # Reference loop over the SpatialMemory buffer (not a
            # tape Tensor).  # repro: disable=tape-discipline
            mem.data[gx, gy] = (w[b] * v[b]
                                + (1.0 - w[b]) * mem.data[gx, gy])

    slow = SpatialMemory(grid, d, bandwidth=1)
    fast = SpatialMemory(grid, d, bandwidth=1)
    before = _best_of(lambda: [loop_write(slow, cells[t], values[t], gates[t])
                               for t in range(steps)])
    after = _best_of(lambda: [fast.write(cells[t], values[t], gates[t])
                              for t in range(steps)])
    identical = bool(np.array_equal(slow.data, fast.data))
    return {
        "before": "per-sample Python loop",
        "after": "vectorised scatter with last-writer chaining",
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "identical": identical,
    }


def _inference_encoder():
    """An untrained SAM encoder with a non-zero memory (reads matter)."""
    from repro.core.config import NeuTrajConfig
    from repro.core.encoder import TrajectoryEncoder
    from repro.datasets import Grid
    from repro.datasets.grid import CoordinateNormalizer

    cfg = NeuTrajConfig(embedding_dim=CONFIG["infer_embedding_dim"],
                        cell_size=400.0)
    encoder = TrajectoryEncoder(
        Grid((0.0, 0.0, 20000.0, 20000.0), cfg.cell_size),
        CoordinateNormalizer(mean=[10000.0, 10000.0], std=[4000.0, 4000.0]),
        cfg, np.random.default_rng(0))
    # A training-style pass fills the memory the way fit() does.
    encoder.encode(_walks(200, 30, seed=1), update_memory=True)
    return encoder


def _walks(count: int, points: int, seed: int):
    from repro.datasets import Trajectory
    rng = np.random.default_rng(seed)
    return [Trajectory(rng.uniform(0.0, 20000.0, size=(points, 2)))
            for _ in range(count)]


def _inference_row(before_label, tape, kernel, calls: int) -> dict:
    """Time ``calls`` back-to-back calls of each path; compare outputs."""
    before = _best_of(lambda: [tape() for _ in range(calls)]) / calls
    after = _best_of(lambda: [kernel() for _ in range(calls)]) / calls
    return {
        "before": before_label,
        "after": "tape-free kernel (plain arrays, hoisted window indices)",
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "identical": bool(np.array_equal(tape(), kernel())),
    }


def _tape_fold(encoder, points, h, c):
    """The fold as the tape engine runs it: one point at a time, each
    projected by itself, through ``tape_step`` under ``no_grad``, from the
    (1, d) states ``h``, ``c``; returns the final ``h`` array."""
    from repro.nn.rnn import tape_step
    from repro.nn.tensor import Tensor, no_grad

    inputs = encoder.normalizer.transform(points)
    cells = encoder.grid.to_cells(points)
    cell = encoder.rnn.cell
    with no_grad():
        h, c = Tensor(h.copy()), Tensor(c.copy())
        for t in range(len(points)):
            x = Tensor(inputs[t:t + 1])
            h, c, _ = tape_step(
                cell, x @ cell.w_gates.transpose() + cell.b_gates,
                x @ cell.w_cand.transpose() + cell.b_cand, h, c,
                encoder.memory.gather(cells[t:t + 1]))
    return h.data


def _bench_embed(count: int, points: int, calls: int) -> dict:
    encoder = _inference_encoder()
    batch = _walks(count, points, seed=5)
    zeros = np.zeros((1, encoder.config.embedding_dim))

    def tape():
        return np.concatenate([_tape_fold(encoder, t.points, zeros, zeros)
                               for t in batch])

    return _inference_row("per-point tape_step fold from zero states "
                          "under no_grad, row by row",
                          tape, lambda: encoder.embed(batch), calls)


def bench_embed_single() -> dict:
    """Single-query ``embed`` (the /v1/topk encode): tape vs kernel."""
    return _bench_embed(1, CONFIG["infer_single_points"], calls=20)


def bench_embed_batch() -> dict:
    """Batched ``embed`` (bulk store build): tape vs kernel."""
    return _bench_embed(CONFIG["infer_batch"], CONFIG["infer_batch_points"],
                        calls=2)


def bench_extend_prefix_point() -> dict:
    """One-point ``extend_prefix`` (the ingest fold): tape vs kernel."""
    encoder = _inference_encoder()
    points = _walks(1, 31, seed=6)[0].points
    state = encoder.encode_prefix(points[:30])
    point = points[30:]
    return _inference_row(
        "one-point projection + tape_step under no_grad",
        lambda: _tape_fold(encoder, point, state.h, state.c),
        lambda: encoder.extend_prefix(state, point).h, calls=500)


def bench_prefix_fold_batch() -> dict:
    """The ingest re-embed: per-segment folds vs one batched fold."""
    encoder = _inference_encoder()
    rng = np.random.default_rng(7)
    walks = _walks(CONFIG["fold_segments"], 40, seed=8)
    states = [encoder.encode_prefix(walk.points[:int(rng.integers(0, 30))])
              for walk in walks]
    tails = [walk.points[state.length:state.length + int(rng.integers(1, 3))]
             for walk, state in zip(walks, states)]

    def per_segment():
        return [encoder.extend_prefix(state, tail)
                for state, tail in zip(states, tails)]

    def batched():
        return encoder.extend_prefixes(states, tails)

    before = _best_of(per_segment, repeats=5)
    after = _best_of(batched, repeats=5)
    return {
        "before": f"{len(states)} extend_prefix calls, one per segment",
        "after": "one extend_prefixes call, segments as rows of a batch",
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "identical": all(
            alone.length == row.length and np.array_equal(alone.h, row.h)
            and np.array_equal(alone.c, row.c)
            for alone, row in zip(per_segment(), batched())),
    }


class _SeedTable:
    """Pre-optimisation ``EmbeddingStore`` mutation path: every call
    copies the whole table and sweeps every id."""

    def __init__(self, embeddings, ids):
        self.embeddings, self.ids = embeddings, ids

    def add(self, rows, ids):
        self.embeddings = np.concatenate([self.embeddings, rows], axis=0)
        self.ids = np.concatenate([self.ids, ids])

    def remove(self, ids):
        keep = ~np.isin(self.ids, ids)
        self.embeddings = self.embeddings[keep]
        self.ids = self.ids[keep]

    def upsert(self, rows, ids):
        present = ids[np.isin(ids, self.ids)]
        if present.size:
            self.remove(present)
        self.add(rows, ids)

    def top_k(self, query, k):
        diffs = self.embeddings - query[None, :]
        distances = np.sqrt((diffs * diffs).sum(axis=1))
        order = np.lexsort((self.ids, distances))[:k]
        return self.ids[order], distances[order]


def _store_schedule(rows: int, seed: int):
    """``(op, row, id)`` triples: add / remove / replace / insert-by-upsert
    in turn, over ids that are in the table when their turn comes."""
    rng = np.random.default_rng(seed)
    dim, steps = CONFIG["store_dim"], CONFIG["store_mutations"]
    victims = rng.choice(rows, size=steps, replace=False).tolist()
    fresh = iter(range(rows, rows + steps))
    schedule = []
    for step in range(steps):
        row = rng.normal(size=(1, dim))
        op = ("add", "remove", "upsert", "upsert")[step % 4]
        target = victims[step] if step % 4 in (1, 2) else next(fresh)
        schedule.append((op, row, np.array([target], dtype=np.int64)))
    return schedule


def bench_store_mutation() -> dict:
    """Single-row store mutations: copy-the-table vs in place."""
    from repro.core.store import EmbeddingStore

    dim, steps = CONFIG["store_dim"], CONFIG["store_mutations"]
    per_mutation = {}
    identical = True
    for rows in CONFIG["store_rows"]:
        base = np.random.default_rng(10).normal(size=(rows, dim))
        ids = np.arange(rows, dtype=np.int64)
        schedule = _store_schedule(rows, seed=11)
        state = {}

        def reference():
            table = state["before"] = _SeedTable(base, ids)
            for op, row, row_id in schedule:
                if op == "remove":
                    table.remove(row_id)
                else:
                    getattr(table, op)(row, row_id)

        def store_calls():
            for op, row, row_id in schedule:
                if op == "remove":
                    store.remove(row_id)
                elif op == "add":
                    store.add_embeddings(row, ids=row_id)
                else:
                    store.upsert_embeddings(row, row_id)

        before = _best_of(reference) / steps
        times = []
        for _ in range(3):  # the store mutates: a fresh one per timing
            store = state["after"] = EmbeddingStore(None, dim=dim)
            store.add_embeddings(base, ids=ids)
            times.append(_best_of(store_calls, repeats=1) / steps)
        per_mutation[rows] = (before, min(times))
        query = base[0] + 0.5
        want_ids, want_d = state["before"].top_k(query, 10)
        got_ids, got_d = state["after"].query_embedding(query, 10)
        identical &= bool(
            state["after"].ids == state["before"].ids.tolist()
            and state["after"].embeddings.tobytes()
            == state["before"].embeddings.tobytes()
            and np.array_equal(want_ids, got_ids)
            and np.array_equal(want_d, got_d))
    small, large = CONFIG["store_rows"]
    scaling = per_mutation[large][1] / per_mutation[small][1]
    return {
        "before": ("np.concatenate / boolean-mask copy of the table and "
                   "np.isin over every id, per mutation"),
        "after": ("EmbeddingStore in place: spare-capacity buffers, holes, "
                  "sorted id index"),
        "before_s": per_mutation[large][0],
        "after_s": per_mutation[large][1],
        "speedup": per_mutation[large][0] / per_mutation[large][1],
        "rows": large,
        "small_rows": small,
        "small_before_s": per_mutation[small][0],
        "small_after_s": per_mutation[small][1],
        "after_scaling": scaling,
        "flat_in_n": bool(scaling <= STORE_FLAT_RATIO),
        "identical": identical,
    }


def _seed_chunked_assign(vectors, centroids):
    """Pre-optimisation IVF assignment: one GEMM per 16 384-row chunk,
    the whole (chunk × nlist) product scaled by -2 afterwards."""
    cent_sq = (centroids * centroids).sum(axis=1)
    out = np.empty(vectors.shape[0], dtype=np.int64)
    for start in range(0, vectors.shape[0], 16384):
        chunk = vectors[start:start + 16384]
        scores = chunk @ centroids.T
        scores *= -2.0
        scores += cent_sq[None, :]
        out[start:start + 16384] = np.argmin(scores, axis=1)
    return out


def _seed_kmeans(vectors, k, rng, iters=10):
    """Pre-optimisation IVF k-means: centroid sums by ``np.add.at``."""
    n = vectors.shape[0]
    centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        assign = _seed_chunked_assign(vectors, centroids)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, vectors)
        live = counts > 0
        centroids[live] = sums[live] / counts[live, None]
        dead = np.flatnonzero(~live)
        if dead.size:
            centroids[dead] = vectors[rng.choice(n, size=dead.size,
                                                 replace=False)]
    return centroids


def _traced_peak_mib(fn) -> float:
    """Peak traced allocation of one ``fn()`` call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench_ivf_kmeans() -> dict:
    """IVF k-means: chunk GEMMs + ``np.add.at`` vs GEMM blocks + sorted
    per-cell sums, on a shard-sized training sample."""
    from repro.index.ann import _chunked_assign, kmeans

    rng = np.random.default_rng(12)
    dim, k = CONFIG["ivf_dim"], CONFIG["ivf_nlist"]
    centers = rng.normal(size=(300, dim)).astype(np.float32)
    vectors = (centers[rng.integers(0, 300, size=CONFIG["ivf_rows"])]
               + 0.4 * rng.standard_normal(
                   size=(CONFIG["ivf_rows"], dim)).astype(np.float32))
    paths = {"before": (_seed_kmeans, _seed_chunked_assign),
             "after": (kmeans, _chunked_assign)}
    row, out = {}, {}
    for label, (train, assign) in paths.items():
        def run():
            centroids = train(vectors, k, np.random.default_rng(0))
            out[label] = centroids, assign(vectors, centroids)
        row[f"{label}_s"] = _best_of(run)
        row[f"{label}_peak_mib"] = _traced_peak_mib(run)
    (want_c, want_a), (got_c, got_a) = out["before"], out["after"]
    return {
        "before": ("one GEMM per 16 384-row chunk, product scaled by -2, "
                   "np.add.at centroid sums"),
        "after": ("2 048-row GEMM blocks on -2*centroids, per-cell "
                  "np.add.reduce over a radix sort of the labels"),
        **row,
        "speedup": row["before_s"] / row["after_s"],
        "identical": bool(want_c.tobytes() == got_c.tobytes()
                          and np.array_equal(want_a, got_a)),
    }


KERNELS = {
    "pairwise_dtw": bench_pairwise_dtw,
    "samlstm_epoch": bench_samlstm_epoch,
    "embedding_distance_matrix": bench_embedding_distance_matrix,
    "memory_write": bench_memory_write,
    "embed_single": bench_embed_single,
    "extend_prefix_point": bench_extend_prefix_point,
    "embed_batch": bench_embed_batch,
    "prefix_fold_batch": bench_prefix_fold_batch,
    "store_mutation": bench_store_mutation,
    "ivf_kmeans": bench_ivf_kmeans,
}


def run_all() -> dict:
    kernels = {}
    for name, fn in KERNELS.items():
        kernels[name] = fn()
        entry = kernels[name]
        print(f"{name}: {entry['before_s']:.3g}s -> {entry['after_s']:.3g}s "
              f"({entry['speedup']:.2f}x, identical={entry['identical']})")
    return {
        "schema": "repro.bench_kernels.v1",
        "config": dict(CONFIG),
        "cpu_count": os.cpu_count(),
        "kernels": kernels,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    report = run_all()
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[saved to {args.output}]")
    failures = [name for name, entry in report["kernels"].items()
                if not (entry["identical"] and entry.get("flat_in_n", True))]
    if failures:
        print(f"equivalence (or flat_in_n) FAILED for: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
