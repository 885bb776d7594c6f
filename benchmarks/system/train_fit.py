"""Workload ``train_fit``: the train path and the batched embedding.

``NeuTraj(measure="dtw", embedding_dim=32, cell_size=400).fit(seeds)``
with the matrix cache off and the default precompute workers (seed
distances -> sampling -> forward -> backward -> Adam), then ``model.embed``
of 100-trajectory chunks of a database for the rest of the run, then HR@10
of the embedding against an exact-DTW ground truth computed during set-up. No
serving code runs, so serving changes must leave this workload flat, and
training-kernel or precompute work shows only here.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from types import SimpleNamespace

import numpy as np

import oracle
import tracer as tracing
from common import (ROOT_SPAN, closed_loop, derive_seed, peak_rss_mb,
                    percentile, porto, public)

NAME = "train_fit"
K = 10
MIN_EMBED_CALLS = 10
CHUNK = 100  # trajectories per embed call
SIZES = {
    # One length for every trajectory: DTW and the padded encoder batches
    # then cost the same whatever the seed, so seeds differ only in shape.
    "full": {"seeds": 60, "epochs": 2, "database": 200, "queries": 8,
             "min_points": 30, "max_points": 30},
    "quick": {"seeds": 16, "epochs": 2, "database": 40, "queries": 4,
              "min_points": 8, "max_points": 14},
}
#: Far above chance (10 of 200) and far below what this much training
#: reaches on every seed tried; see README "Oracle".
HR_FLOOR = 0.2


def make_inputs(seed, sizes):
    world = SimpleNamespace(seed=seed)
    lo, hi = sizes["min_points"], sizes["max_points"]
    world.seeds = porto(sizes["seeds"], lo, hi, derive_seed(seed, 1))
    world.database = porto(sizes["database"], lo, hi, derive_seed(seed, 2))
    world.query_rows = list(range(sizes["queries"]))
    world.epochs = sizes["epochs"]
    return world


def start(world, stack, traced):
    world.truth = public("cross_distances")(
        [world.database[row] for row in world.query_rows], world.database,
        public("get_measure")("dtw"))
    world.config = public("NeuTrajConfig")(
        measure="dtw", embedding_dim=32, epochs=world.epochs,
        cell_size=400.0, seed=derive_seed(world.seed, 3))
    precompute = public("get_precompute_config")()
    if precompute.cache_dir is not None:  # REPRO_MATRIX_CACHE_DIR was set
        public("set_precompute_config")(
            dataclasses.replace(precompute, cache_dir=None))
    world.workers = precompute.workers


def measure(world, seconds, tracer):
    world.model = public("NeuTraj")(world.config)
    chunks = [world.database[first:first + CHUNK]
              for first in range(0, len(world.database), CHUNK)]

    def op(client, seq, request_id):
        if seq == 0:
            world.history = world.model.fit(world.seeds)
            return "fit", True, float(len(world.seeds)), None
        chunk = chunks[seq % len(chunks)]
        embedded = world.model.embed(chunk)
        return "embed", embedded.shape == (len(chunk), 32), \
            float(len(chunk)), None

    load = closed_loop(op, 1, seconds, tracer,
                       min_ops=1 + MIN_EMBED_CALLS)
    world.rss_mb = peak_rss_mb([os.getpid()])
    return load


def _embed_window(load):
    """The embed calls only run once ``fit`` has returned."""
    fit = load.of("fit")[0]
    return fit.end, max(load.start + load.seconds - fit.end, 1e-9)


def end_to_end(load, world):
    calls = load.latencies_ms("embed")
    return {
        "ops_per_s": load.rate("embed", window=_embed_window(load)),
        "op_p50_ms": percentile(calls, 50),
        "op_p95_ms": percentile(calls, 95),
        "aux_p50_ms": percentile(load.latencies_ms("fit"), 50),
        "peak_rss_mb": world.rss_mb,
    }


def check(load, world):
    world.embeddings = world.model.embed(world.database)
    world.hr = oracle.hit_ratio_at_k(world.embeddings, world.query_rows,
                                     world.truth, K)
    return [
        oracle.check_losses_fall([e.loss for e in world.history.epochs]),
        oracle.check_at_least("hr_at_10", world.hr, HR_FLOOR),
        oracle.Check("embeddings are finite",
                     bool(np.isfinite(world.embeddings).all())),
    ]


def layers(load, world, spans):
    table = tracing.SpanTable(spans)
    # ``TrajectoryEncoder.encode`` also runs, tape-free, under ``embed``;
    # only the calls a training step made are the training forward pass.
    steps = {span[tracing.SPAN_ID] for span in table.of("core.trainer.step")}
    forward_s = sum(tracing.duration(span) for span in table.of("nn.forward")
                    if span[tracing.PARENT] in steps)
    precompute_s = table.total_s("measures.matrix.pairwise")
    epochs = [e.seconds for e in world.history.epochs]
    return {
        "measures.matrix.precompute_s": precompute_s,
        "measures.matrix.pairs_per_s": (
            table.work("measures.matrix.pairwise") / precompute_s
            if precompute_s else 0.0),
        "measures.matrix.workers": world.workers,
        "core.sampling.sample_s": table.total_s("core.sampling.sample"),
        "core.sampling.calls": table.count("core.sampling.sample"),
        "core.trainer.step_self_s": table.self_s("core.trainer.step"),
        "core.trainer.steps": len(steps),
        "core.trainer.first_epoch_s": epochs[0],
        "core.trainer.median_epoch_s": statistics.median(epochs),
        "nn.forward_s": forward_s,
        "nn.backward_s": table.total_s("nn.backward"),
        "nn.optim_s": table.total_s("nn.optim.clip", "nn.optim.step"),
        "core.encoder.batch_embed_us_per_point": table.us_per_work(
            "core.encoder.embed"),
        "oracle.hr_at_10": world.hr,
        # No layer is named for NeuTraj.fit's own work (grid, alpha, epoch
        # bookkeeping), so it counts as unattributed with the loop's.
        "trace.unattributed_share": table.share_of_roots(
            ROOT_SPAN, ROOT_SPAN, "core.model.fit"),
    }
