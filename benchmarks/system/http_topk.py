"""Workload ``http_topk``: the whole query path over the wire.

``python -m repro serve --bundle B`` runs as a subprocess with its
defaults (exact index, 2 ms batcher, cache on). Two keep-alive
connections POST ``/v1/topk`` in a closed loop; 80% of the requests are
distinct 40-120-point trajectories and 20% come from a hot set of 16.
Long trajectories over a small store put the time in ``serving.http``,
``serving.batching`` and the single-query encoder, and next to none in
the store scan; the hot set gives the result cache a hit ratio to measure.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import oracle
import tracer as tracing
from common import (HERE, ROOT_SPAN, SRC, closed_loop, derive_seed,
                    peak_rss_mb, percentile, porto, public, untrained_model,
                    work_dir)

NAME = "http_topk"
CLIENTS = 2
K = 10
SIZES = {
    "full": {"store": 1000, "distinct": 3000, "hot": 16,
             "hot_share": 0.2, "min_points": 40, "max_points": 120,
             "warmup_s": 1.5},
    "quick": {"store": 80, "distinct": 200, "hot": 2, "hot_share": 0.5,
              "min_points": 10, "max_points": 20, "warmup_s": 0.3},
}
SAMPLE_EVERY = 10
READY_TIMEOUT_S = 60.0


def _free_port():
    # `repro serve --port 0` means "default port", so pick one here.
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _stop_server(process):
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def _get_json(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def make_inputs(seed, sizes):
    world = SimpleNamespace(sizes=sizes, seed=seed)
    lo, hi = sizes["min_points"], sizes["max_points"]
    world.database = porto(sizes["store"], lo, hi, derive_seed(seed, 1))
    world.distinct = porto(sizes["distinct"], lo, hi, derive_seed(seed, 2))
    world.hot = porto(sizes["hot"], lo, hi, derive_seed(seed, 3))
    world.bodies = {
        kind: [json.dumps({"trajectory": t.points.tolist(), "k": K}).encode()
               for t in pool]
        for kind, pool in (("distinct", world.distinct), ("hot", world.hot))}
    rng = np.random.default_rng(derive_seed(seed, 4))
    # Per client: which requests are hot, and which hot entry they take.
    world.plan = [(rng.random(sizes["distinct"]) < sizes["hot_share"],
                   rng.integers(0, sizes["hot"], sizes["distinct"]))
                  for _ in range(CLIENTS)]
    return world


def start(world, stack, traced):
    world.model = untrained_model(world.database,
                                  derive_seed(world.seed, 5))
    store = public("EmbeddingStore")(world.model)
    store.add(world.database)
    world.matrix = np.array(store.embeddings)
    world.ids = np.asarray(store.ids, dtype=np.int64)

    directory = stack.enter_context(work_dir(NAME))
    bundle = directory / "bundle"
    public("save_bundle")(bundle, world.model, store,
                          probes=world.database[:4])
    world.port = _free_port()
    serve = ["serve", "--bundle", str(bundle), "--port", str(world.port)]
    world.spans_file = directory / "server-spans.json"
    if traced:
        command = [sys.executable, str(HERE / "launch.py"),
                   "--spans", str(world.spans_file), "--"] + serve
    else:
        command = [sys.executable, "-m", "repro"] + serve
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    world.server = subprocess.Popen(command, env=env,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
    stack.callback(_stop_server, world.server)
    give_up = time.monotonic() + READY_TIMEOUT_S
    while True:
        if world.server.poll() is not None:
            raise RuntimeError(
                f"server exited with code {world.server.returncode}")
        try:
            status, _ = _get_json(world.port, "/readyz")
            if status == 200:
                return
        except (OSError, ValueError):
            pass
        if time.monotonic() > give_up:
            raise RuntimeError("server not ready within "
                               f"{READY_TIMEOUT_S:.0f} s")
        time.sleep(0.02)


def measure(world, seconds, tracer):
    connections = [http.client.HTTPConnection("127.0.0.1", world.port,
                                              timeout=10)
                   for _ in range(CLIENTS)]
    headers = {"Content-Type": "application/json"}
    per_client = len(world.distinct) // CLIENTS

    def op(client, seq, request_id):
        is_hot, hot_index = world.plan[client]
        # Wrapping past the distinct pool would turn misses into hits.
        if seq >= per_client:
            return None
        if is_hot[seq]:
            kind, index = "hot", int(hot_index[seq])
        else:
            kind, index = "distinct", client * per_client + seq
        connection = connections[client]
        try:
            connection.request(
                "POST", "/v1/topk", body=world.bodies[kind][index],
                headers=dict(headers,
                             **{tracing.REQUEST_ID_HEADER: request_id}))
            response = connection.getresponse()
            payload = json.loads(response.read())
        except (OSError, http.client.HTTPException):
            connection.close()  # the next request reconnects
            raise
        ok = response.status == 200
        cached = bool(ok and payload.get("cached"))
        sampled = (payload.get("ids") if ok and seq % SAMPLE_EVERY == 0
                   else None)
        return ("cached" if cached else "computed", ok, 1.0,
                (kind, index, sampled))

    def snapshot():
        world.stats_before = _get_json(world.port, "/v1/stats")[1]

    try:
        load = closed_loop(op, CLIENTS, seconds, tracer,
                           warmup_s=world.sizes["warmup_s"],
                           on_measure_start=snapshot)
        world.stats_after = _get_json(world.port, "/v1/stats")[1]
    finally:
        for connection in connections:
            connection.close()
    world.rss_mb = peak_rss_mb([os.getpid(), world.server.pid])
    return load


def collect_spans(world, tracer):
    """The traced server writes its spans when it stops."""
    _stop_server(world.server)
    tracer.absorb(world.spans_file)


def end_to_end(load, world):
    every = load.latencies_ms("cached", "computed")
    return {
        "ops_per_s": load.rate("cached", "computed"),
        "op_p50_ms": percentile(every, 50),
        "op_p95_ms": percentile(every, 95),
        "aux_p50_ms": percentile(load.latencies_ms("cached"), 50),
        "peak_rss_mb": world.rss_mb,
    }


def check(load, world):
    pools = {"distinct": world.distinct, "hot": world.hot}
    sampled = [(pools[kind][index], ids)
               for kind, index, ids in (s.info for s in load.samples if s.ok)
               if ids is not None]
    return [
        oracle.check_sampled_top_k(
            "sampled /v1/topk answers", sampled, world.matrix, world.ids,
            lambda trajectory: world.model.embed([trajectory])[0], K),
        oracle.Check("cache answered hot requests",
                     bool(load.of("cached")),
                     f"{len(load.of('cached'))} cached answers"),
    ]


def _delta(after, before, *path):
    for key in path:
        after, before = after[key], before[key]
    return after - before


def layers(load, world, spans):
    """Per-layer metrics from the merged client + server spans."""
    table = tracing.SpanTable(tracing.adopt_by_request(spans, ROOT_SPAN))
    # A root span's self time is what the request spent outside the
    # handler: both socket hops and the stdlib server's framing.
    handled = {span[tracing.PARENT]
               for span in table.of("serving.http.handler")}
    wire = [table.selfs[span[tracing.SPAN_ID]] * 1000.0
            for span in table.of(ROOT_SPAN)
            if span[tracing.SPAN_ID] in handled]
    lost = sum(table.selfs[span[tracing.SPAN_ID]]
               for span in table.of(ROOT_SPAN)
               if span[tracing.SPAN_ID] not in handled)
    before, after = world.stats_before, world.stats_after
    hits = _delta(after, before, "cache", "hits")
    lookups = hits + _delta(after, before, "cache", "misses")
    batches = _delta(after, before, "batcher", "batches")
    searches = _delta(after, before, "store", "search_backend", "queries")
    http_errors = (after["metrics"].get("repro_http_errors_total", 0)
                   - before["metrics"].get("repro_http_errors_total", 0))
    return {
        "serving.http.wire_ms": percentile(wire, 50),
        "serving.http.handler_self_ms": table.p50_ms("serving.http.handler",
                                                     self_time=True),
        "serving.http.requests": _delta(after, before, "metrics",
                                        "repro_http_requests_total"),
        "serving.http.errors": http_errors,
        "serving.service.topk_self_ms": table.p50_ms("serving.service.top_k",
                                                     self_time=True),
        "serving.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serving.cache.lookups": lookups,
        **table.encoder_behind_batcher(),
        "serving.batching.mean_batch_size": (
            _delta(after, before, "batcher", "items") / batches
            if batches else 0.0),
        "serving.batching.batches": batches,
        "core.store.search_ms": table.p50_ms("core.store.query_embedding"),
        "core.store.candidates_per_query": (
            _delta(after, before, "store", "search_backend",
                   "candidates_scanned") / searches if searches else 0.0),
        "loadgen.topk_p99_ms": percentile(
            load.latencies_ms("cached", "computed"), 99),
        # Client time of requests whose handler span never turned up.
        "trace.unattributed_share": (
            lost / table.total_s(ROOT_SPAN) if table.count(ROOT_SPAN)
            else 1.0),
    }
