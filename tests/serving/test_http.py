"""Smoke tests for the stdlib HTTP front end and the serve CLI."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import ServingConfig, SimilarityService, make_server


@pytest.fixture
def server(serving_world, fresh_store):
    model, items = serving_world
    service = SimilarityService(model, fresh_store,
                                ServingConfig(),
                                probes=items[:2])
    srv = make_server(service)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    service.close()


def _call(server, path, payload=None, method=None):
    """(status, parsed body) for a request against the test server."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=data,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _json(body):
    return json.loads(body.decode())


def test_healthz(server):
    status, body = _call(server, "/healthz")
    assert status == 200
    payload = _json(body)
    assert payload["status"] == "ok"
    assert payload["store_size"] == 16


def test_topk_matches_offline(server, serving_world, fresh_store):
    _, items = serving_world
    query = items[1]
    status, body = _call(server, "/v1/topk",
                         {"trajectory": query.points.tolist(), "k": 5})
    assert status == 200
    payload = _json(body)
    expected_ids, expected_dist = fresh_store.query(query, k=5)
    assert payload["ids"] == [int(i) for i in expected_ids]
    np.testing.assert_allclose(payload["distances"], expected_dist, atol=1e-9)
    assert payload["cached"] is False
    # Second identical request is served from cache.
    status, body = _call(server, "/v1/topk",
                         {"trajectory": query.points.tolist(), "k": 5})
    assert _json(body)["cached"] is True


def test_embed(server, serving_world):
    model, items = serving_world
    status, body = _call(server, "/v1/embed",
                         {"trajectory": items[0].points.tolist()})
    assert status == 200
    embedding = _json(body)["embedding"]
    assert np.array_equal(embedding, model.embed([items[0]])[0])


def test_insert_and_delete(server, serving_world):
    _, items = serving_world
    status, body = _call(
        server, "/v1/insert",
        {"trajectories": [t.points.tolist() for t in items[16:18]]})
    assert status == 200
    new_ids = _json(body)["ids"]
    assert new_ids == [16, 17]
    status, body = _call(server, "/healthz")
    assert _json(body)["store_size"] == 18
    status, body = _call(server, "/v1/delete", {"ids": new_ids})
    assert status == 200
    assert _json(body)["removed"] == 2


def test_metrics_exposition_advances(server, serving_world):
    _, items = serving_world
    status, before_body = _call(server, "/metrics")
    assert status == 200

    def counter_value(text, name):
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        return 0.0

    before = counter_value(before_body.decode(), "repro_topk_requests_total")
    _call(server, "/v1/topk", {"trajectory": items[2].points.tolist(),
                               "k": 3})
    status, after_body = _call(server, "/metrics")
    text = after_body.decode()
    assert status == 200
    assert "# TYPE repro_topk_requests_total counter" in text
    assert "# TYPE repro_topk_latency_seconds histogram" in text
    assert "repro_http_requests_total" in text
    after = counter_value(text, "repro_topk_requests_total")
    assert after == before + 1


def test_stats_endpoint(server):
    status, body = _call(server, "/v1/stats")
    assert status == 200
    payload = _json(body)
    assert {"store", "cache", "batcher", "metrics"} <= set(payload)


def test_unknown_route_404(server):
    status, body = _call(server, "/nope")
    assert status == 404
    assert "error" in _json(body)
    status, _ = _call(server, "/v1/nope", {"x": 1})
    assert status == 404


def test_bad_json_400(server):
    request = urllib.request.Request(server.url + "/v1/topk",
                                     data=b"this is not json")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


def test_missing_fields_400(server):
    status, body = _call(server, "/v1/topk", {"k": 3})
    assert status == 400
    assert "trajectory" in _json(body)["error"]
    status, _ = _call(server, "/v1/topk", {}, method="POST")
    assert status == 400
    status, _ = _call(server, "/v1/insert", {"trajectories": "nope"})
    assert status == 400
    status, _ = _call(server, "/v1/delete", {"ids": 7})
    assert status == 400


def test_invalid_trajectory_400(server):
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 1.0, 2.0]], "k": 3})
    assert status == 400
    status, _ = _call(server, "/v1/topk",
                      {"trajectory": [[0.0, 1.0]], "k": "three"})
    assert status == 400


def test_serve_cli_once(bundle_dir, capsys):
    """`python -m repro serve --bundle <dir> --once` full loopback pass."""
    from repro.__main__ import main

    assert main(["serve", "--bundle", str(bundle_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "self-test passed" in out
    assert "healthz: 200" in out


def test_serve_cli_bad_bundle(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["serve", "--bundle", str(tmp_path / "nope"),
                 "--once"]) == 2


# ------------------------------------------------- robustness contract (PR 3)

def test_readyz_lifecycle(server):
    service = server.service
    status, body = _call(server, "/readyz")
    assert status == 503
    payload = _json(body)
    assert payload["ready"] is False
    assert payload["checks"]["warmed"] is False
    service.warmup(queries=1)
    status, body = _call(server, "/readyz")
    assert status == 200
    assert _json(body)["ready"] is True
    # liveness stays 200 regardless of readiness
    assert _call(server, "/healthz")[0] == 200


def _force(service, exc):
    def boom(*args, **kwargs):
        raise exc
    service.top_k = boom


def test_shed_request_maps_to_429(server):
    from repro.exceptions import ServiceOverloadedError
    _force(server.service, ServiceOverloadedError("top_k shed: 4/4 in flight"))
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 429
    assert "shed" in _json(body)["error"]


def test_unavailable_maps_to_503(server):
    from repro.exceptions import ServiceUnavailableError
    _force(server.service, ServiceUnavailableError("breaker open"))
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 503
    assert "breaker" in _json(body)["error"]


def test_closed_service_maps_to_503(server):
    from repro.exceptions import ServiceClosedError
    _force(server.service, ServiceClosedError("batcher is closed"))
    status, _ = _call(server, "/v1/topk",
                      {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 503


def test_deadline_maps_to_504(server):
    from repro.exceptions import DeadlineExceededError
    _force(server.service, DeadlineExceededError("no answer within 0.05s"))
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 504
    assert "within" in _json(body)["error"]


def test_topk_answer_serialized(server):
    """A top-k answer goes out as exactly these keys (no ``degraded``)."""
    from repro.serving.service import TopKResult

    def partial(*args, **kwargs):
        return TopKResult(ids=[3, 1], distances=[0.25, 0.5], partial=True)

    server.service.top_k = partial
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 200
    assert _json(body) == {"ids": [3, 1], "distances": [0.25, 0.5],
                           "cached": False, "quality": None,
                           "partial": True}


def test_admin_compact_single_process(server):
    status, body = _call(server, "/admin/compact", method="POST")
    assert status == 200
    assert _json(body) == {"compacted": {"0": False}}  # exact backend


def test_admin_reload_unsupported_409(server):
    status, body = _call(server, "/admin/reload", {})
    assert status == 409
    assert "reload" in _json(body)["error"]
