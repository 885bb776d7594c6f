"""One pipeline, three deployments: local, 1-shard and 2-shard parity.

``SimilarityService`` is the only implementation of the request path,
and it runs over one target: one in-process shard for a local store,
forked shard workers under ``ShardedService``. So every behaviour in
front of the search (validation, sanitize mode, k checks, deadlines,
the result cache and its invalidation, counters, ``stats()`` and
``readiness()`` shapes, HTTP statuses) and behind it (acked writes
surviving a restart) must be the same whichever shape serves. Each test
runs once per tier over one bundle.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.partition import save_partitions
from repro.core.store import EmbeddingStore
from repro.exceptions import (DeadlineExceededError, InvalidTrajectoryError,
                              ServiceClosedError)
from repro.serving import (ServingConfig, ShardedConfig, ShardedService,
                           SimilarityService, make_server, save_bundle)
from repro.testing.faults import KillWorkerOnce

pytestmark = pytest.mark.sharding

TIERS = {"local": 0, "1-shard": 1, "2-shard": 2}
TIE_ROW = 3  # the store holds this row's embedding three times


@pytest.fixture(scope="module")
def world(serving_world, tmp_path_factory):
    """(bundle dir, {shards: partition dir}, reference store, items)."""
    model, items = serving_world
    root = tmp_path_factory.mktemp("tier-parity")
    embeddings = model.embed(items[:16])
    # Exact duplicates under fresh ids: distance ties the merge must
    # order by id, on whichever shards the ring puts them.
    embeddings = np.concatenate([embeddings, embeddings[[TIE_ROW, TIE_ROW]]])
    store = EmbeddingStore(model)
    store.add_embeddings(embeddings)
    save_bundle(root / "bundle", model, store, probes=items[:2])
    partitions = {}
    for shards in (1, 2):
        partitions[shards] = root / f"partitions-{shards}"
        save_partitions(partitions[shards],
                        np.asarray(store.ids, dtype=np.int64),
                        store.embeddings, num_shards=shards,
                        next_id=store.next_id)
    return root / "bundle", partitions, store, items


def _make(world, tier, request_hooks=None, durable_dir=None, **knobs):
    """The ``tier`` deployment of the one bundle, built with ``knobs``."""
    bundle, partitions, _, _ = world
    knobs.setdefault("max_wait_ms", 0.0)
    if TIERS[tier] == 0:
        return SimilarityService.from_bundle(bundle, ServingConfig(**knobs),
                                             durable_dir=durable_dir)
    return ShardedService(partitions[TIERS[tier]], bundle_dir=bundle,
                          config=ShardedConfig(**knobs),
                          request_hooks=request_hooks,
                          durable_dir=durable_dir)


@pytest.fixture(params=list(TIERS))
def tier_name(request):
    return request.param


@pytest.fixture
def tier(tier_name, world):
    service = _make(world, tier_name)
    yield service
    service.close()


def _counter(service, name):
    return service.registry.snapshot()[name]


# ------------------------------------------------------------------ answers


def test_topk_ids_match_the_offline_store_ties_included(tier, world):
    _, _, reference, items = world
    for k in (1, 3, 7, len(reference)):
        for query in (items[TIE_ROW], items[0], items[17]):
            want_ids, want_dist = reference.query(query, k=k)
            got = tier.top_k(query, k=k, use_cache=False)
            assert got.ids == [int(i) for i in want_ids]
            np.testing.assert_allclose(got.distances, want_dist, rtol=1e-5)
            assert not (got.partial or got.degraded or got.cached)
    assert tier.top_k(items[TIE_ROW], k=3).ids == [TIE_ROW, 16, 17]


# -------------------------------------------------------------------- cache


def test_cache_hits_then_dies_with_every_mutation(tier, world, tmp_path):
    _, partitions, _, items = world
    query = items[4]

    def hit_then(mutate):
        assert tier.top_k(query, k=3).cached
        mutate()
        assert not tier.top_k(query, k=3).cached

    assert not tier.top_k(query, k=3).cached
    hit_then(lambda: tier.insert([items[18]]))
    hit_then(lambda: tier.delete([18]))  # the id that insert assigned
    assert not tier.top_k(query, k=3, use_cache=False).cached  # honoured
    if isinstance(tier, ShardedService):
        hit_then(lambda: tier.reload(
            partition_dir=partitions[tier.num_shards]))
        hit_then(lambda: tier.restart_shard(0))


@pytest.mark.faults
def test_partial_answers_never_touch_the_cache(world, tmp_path):
    _, _, reference, items = world
    hook = KillWorkerOnce(None, tmp_path / "killed.marker")
    with _make(world, "2-shard", request_hooks={1: hook},
               breaker_failure_threshold=1, breaker_reset_s=60.0,
               request_timeout_s=10.0) as service:
        for _ in range(3):  # the first request kills shard 1
            answer = service.top_k(items[0], k=5)
            assert answer.partial and not answer.cached
            assert all(service.ring.shard_for(i) == 0 for i in answer.ids)
        assert len(service._cache) == 0
        assert _counter(service, "repro_partial_answers_total") == 3
        service.restart_shard(1)
        healed = service.top_k(items[0], k=5)
        assert not healed.partial and not healed.cached
        assert healed.ids == [int(i) for i in reference.query(items[0], 5)[0]]
        assert service.top_k(items[0], k=5).cached


# --------------------------------------------------------------- durability


@pytest.mark.durability
def test_acked_writes_survive_a_reopen(tier_name, world, tmp_path):
    _, _, _, items = world
    durable = tmp_path / "durable"
    queries = (items[0], items[19], items[TIE_ROW])

    def answers(service):
        k = service.size()
        return [service.top_k(q, k=k, use_cache=False) for q in queries]

    with _make(world, tier_name, durable_dir=durable) as service:
        new_ids = service.insert(items[18:22])
        service.compact()  # a snapshot under half of the writes
        assert service.delete([new_ids[1], 0, 999]) == 2
        want, next_id = answers(service), service.stats()["store"]["next_id"]
        assert service.stats()["durability"]["durable_dir"] == str(durable)
    with _make(world, tier_name, durable_dir=durable) as service:
        got = answers(service)
        assert [a.ids for a in got] == [a.ids for a in want]
        assert [a.distances for a in got] == [a.distances for a in want]
        assert sorted(got[0].ids) == sorted(
            (set(range(18)) - {0}) | (set(new_ids) - {new_ids[1]}))
        assert service.insert([items[22]]) == [next_id]


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _call(url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(urllib.request.Request(url, data=data),
                                timeout=30) as response:
        return json.loads(response.read())


def _serve(bundle, durable):
    """``python -m repro serve`` on ``bundle`` with no ``--shards``,
    answering; returns (process, base url)."""
    port = _free_port()
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        src, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--bundle", str(bundle),
         "--durable-dir", str(durable), "--port", str(port)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    url = f"http://127.0.0.1:{port}"
    give_up = time.monotonic() + 60.0
    while time.monotonic() < give_up and process.poll() is None:
        try:
            _call(url + "/healthz")
            return process, url
        except OSError:
            time.sleep(0.05)
    process.kill()
    process.wait()
    raise AssertionError(f"server never answered (exit {process.poll()})")


@pytest.mark.durability
def test_local_serve_keeps_acked_writes_across_sigkill(world, tmp_path):
    """``serve --bundle b --durable-dir d`` with no ``--shards``: inserts
    and deletes answered 200 survive SIGKILL and a restart, ids and
    ranking identical."""
    bundle, _, _, items = world
    durable = tmp_path / "durable"
    process, url = _serve(bundle, durable)
    try:
        ids = _call(url + "/v1/insert", {"trajectories": [
            t.points.tolist() for t in items[18:21]]})["ids"]
        assert _call(url + "/v1/delete", {"ids": [ids[0], 2]}) == {
            "removed": 2}
        size = _call(url + "/healthz")["store_size"]
        query = {"trajectory": items[19].points.tolist(), "k": size,
                 "use_cache": False}
        want = _call(url + "/v1/topk", query)
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait()
    assert size == 18 + 3 - 2
    process, url = _serve(bundle, durable)
    try:
        assert _call(url + "/healthz")["store_size"] == size
        got = _call(url + "/v1/topk", query)
        assert (got["ids"], got["distances"]) == (want["ids"],
                                                  want["distances"])
        assert ids[0] not in got["ids"] and 2 not in got["ids"]
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait()


# ----------------------------------------------------------------- boundary


def test_sanitize_mode_reports_the_same_quality(tier, tier_name, world):
    _, _, _, items = world
    clean = np.asarray(items[5].points, dtype=np.float64)
    dirty = np.vstack([clean[:3], clean[2:3], [[np.nan, 0.0]], clean[3:]])
    with _make(world, "local", sanitize=True) as reference:
        want = reference.top_k(dirty.tolist(), k=4)
    with _make(world, tier_name, sanitize=True) as sanitizing:
        got = sanitizing.top_k(dirty.tolist(), k=4)
        assert _counter(sanitizing, "repro_sanitize_repaired_total") == 1
        assert sanitizing.stats()["sanitize_mode"] is True
    assert want.quality["nonfinite_dropped"] == 1 and not want.quality["clean"]
    assert got.quality == want.quality
    assert got.ids == want.ids
    with pytest.raises(InvalidTrajectoryError):  # strict mode still rejects
        tier.top_k(dirty.tolist(), k=4)


@pytest.mark.parametrize("bad_k", [0, True, 2.5, -3])
def test_bad_k_is_rejected_before_the_encoder(tier, world, bad_k):
    _, _, _, items = world
    before = tier.stats()["batcher"]["items"]
    with pytest.raises(ValueError):
        tier.top_k(items[0], k=bad_k, use_cache=False)
    assert tier.stats()["batcher"]["items"] == before


def test_malformed_input_counts_as_a_validation_error(tier):
    bad_inputs = [[], [[0.0, float("nan")]], [[1.0, 2.0, 3.0]], "nope"]
    for bad in bad_inputs:
        with pytest.raises(InvalidTrajectoryError):
            tier.top_k(bad, k=3)
        with pytest.raises(InvalidTrajectoryError):
            tier.insert([bad])
    assert _counter(tier, "repro_validation_errors_total") == 2 * len(
        bad_inputs)
    assert tier.stats()["batcher"]["items"] == 0


def test_deadline_raised_inside_the_batcher_is_counted(tier, world,
                                                       monkeypatch):
    _, _, _, items = world

    def expired(item, timeout=None, deadline=None):
        raise DeadlineExceededError("expired while queued")

    with monkeypatch.context() as patch:  # undone before the tier closes
        patch.setattr(tier, "_batcher", expired)
        with pytest.raises(DeadlineExceededError):
            tier.top_k(items[0], k=3, use_cache=False)
        with pytest.raises(DeadlineExceededError):
            tier.embed(items[0])
    assert _counter(tier, "repro_deadline_exceeded_total") == 2
    assert _counter(tier, "repro_request_errors_total") == 2


def test_closed_service_refuses_work(tier, world):
    _, _, _, items = world
    assert tier.top_k(items[0], k=2).ids  # primes the cache
    tier.close()
    assert tier.closed
    with pytest.raises(ServiceClosedError):
        tier.top_k(items[0], k=2)  # not even from the cache
    with pytest.raises(ServiceClosedError):
        tier.query_embedding(np.zeros(tier.target.dim), k=2)


# ------------------------------------------------------------------- shapes


def test_stats_and_readiness_share_one_shape(tier, tier_name, world):
    with _make(world, "local") as local:
        local.warmup()
        want_stats, want_ready = local.stats(), local.readiness()
    assert "durability" in want_stats
    assert want_ready["checks"]["shard_0_alive"] is True
    assert tier.readiness()["ready"] is False  # not yet warmed
    assert tier.warmup() >= 1
    stats, ready = tier.stats(), tier.readiness()
    assert ready["ready"] is True
    assert set(stats) == set(want_stats)
    for section in ("store", "durability", "cache", "batcher", "resilience"):
        assert set(stats[section]) == set(want_stats[section])
    assert (set(stats["store"]["search_backend"])
            == set(want_stats["store"]["search_backend"]))
    # One more liveness check per shard past the first; nothing else.
    assert set(ready["checks"]) - set(want_ready["checks"]) == {
        f"shard_{s}_alive" for s in range(1, max(1, TIERS[tier_name]))}
    assert set(want_ready["checks"]) <= set(ready["checks"])


# --------------------------------------------------------------------- http


def _post(server, path, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


def test_malformed_requests_get_the_same_http_status(tier, world):
    _, _, _, items = world
    good = items[0].points.tolist()
    cases = [
        ("/v1/topk", {"trajectory": []}, 400),
        ("/v1/topk", {"trajectory": [[0.0, "x"]]}, 400),
        ("/v1/topk", {"trajectory": "nope"}, 400),
        ("/v1/topk", {"k": 3}, 400),
        ("/v1/topk", {"trajectory": good, "k": 0}, 400),
        ("/v1/topk", {"trajectory": good, "k": True}, 400),
        ("/v1/topk", {"trajectory": good, "k": 2.5}, 400),
        ("/v1/topk", {"trajectory": good, "k": 10 ** 6}, 400),
        ("/v1/embed", {"trajectory": [[1.0]]}, 400),
        ("/v1/insert", {"trajectories": [[]]}, 400),
        ("/v1/insert", {"trajectories": "nope"}, 400),
        ("/v1/delete", {"ids": "nope"}, 400),
        ("/v1/ingest", {"points": []}, 409),  # no stream attached
        ("/v1/nope", {}, 404),
        ("/v1/topk", {"trajectory": good, "k": 3}, 200),
    ]
    server = make_server(tier)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for path, payload, want in cases:
            assert _post(server, path, payload) == want, (path, payload)
        assert _post(server, "/v1/topk", None, raw=b"{not json") == 400
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


# ---------------------------------------------------------------------- cli


def test_serve_passes_cache_capacity_to_the_sharded_tier(world, monkeypatch):
    import repro.__main__ as cli

    bundle, partitions, _, _ = world
    seen = {}

    def self_test(server, service):
        seen["capacity"] = service.stats()["cache"]["capacity"]
        seen["tier"] = type(service).__name__
        return 0

    monkeypatch.setattr(cli, "_self_test", self_test)
    code = cli.main(["serve", "--bundle", str(bundle), "--once",
                     "--shards", "2", "--partitions", str(partitions[2]),
                     "--cache-capacity", "7"])
    assert (code, seen) == (0, {"capacity": 7, "tier": "ShardedService"})
