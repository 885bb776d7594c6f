"""HTTP-level request validation and sanitize-mode behaviour.

Covers the explicit ``k`` bounds at request parsing (400, never 500) and
the end-to-end acceptance path: a server in sanitize mode answers top-k
on spiked / duplicated / out-of-grid queries with 200s and accurate
quality reports.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import ServingConfig, SimilarityService, make_server


def _spin_up(service):
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def _tear_down(srv, thread, service):
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    service.close()


@pytest.fixture
def strict_server(serving_world, fresh_store):
    model, _ = serving_world
    service = SimilarityService(model, fresh_store,
                                ServingConfig())
    srv, thread = _spin_up(service)
    yield srv
    _tear_down(srv, thread, service)


@pytest.fixture
def sanitize_server(serving_world, fresh_store):
    model, _ = serving_world
    service = SimilarityService(
        model, fresh_store, ServingConfig(sanitize=True))
    srv, thread = _spin_up(service)
    yield srv
    _tear_down(srv, thread, service)


def _post(server, path, payload):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


TRAJ = [[0.0, 0.0], [100.0, 100.0], [200.0, 200.0]]


class TestKValidation:
    @pytest.mark.parametrize("k", [0, -1, -100])
    def test_k_below_one_is_400(self, strict_server, k):
        status, body = _post(strict_server, "/v1/topk",
                             {"trajectory": TRAJ, "k": k})
        assert status == 400
        assert "k must be >= 1" in body["error"]

    def test_k_above_store_size_is_400(self, strict_server):
        status, body = _post(strict_server, "/v1/topk",
                             {"trajectory": TRAJ, "k": 17})  # store has 16
        assert status == 400
        assert "exceeds store size" in body["error"]

    def test_k_equal_store_size_is_200(self, strict_server):
        status, body = _post(strict_server, "/v1/topk",
                             {"trajectory": TRAJ, "k": 16})
        assert status == 200
        assert len(body["ids"]) == 16

    def test_k_not_integer_is_400(self, strict_server):
        for bad in ("5", 2.5, True, None):
            status, body = _post(strict_server, "/v1/topk",
                                 {"trajectory": TRAJ, "k": bad})
            assert status == 400, bad


class TestSanitizeOverHTTP:
    def _dirty(self, points, grid_bbox):
        dirty = [list(map(float, p)) for p in points]
        dirty.insert(2, list(dirty[2]))                  # duplicate
        xmin, ymin, xmax, ymax = grid_bbox
        dirty.insert(1, [xmax + (xmax - xmin), ymax])    # out-of-grid
        dirty.insert(1, [float("nan"), 0.0])             # dropout (json nan)
        return dirty

    def test_dirty_queries_answer_200_with_quality(self, sanitize_server,
                                                   serving_world):
        model, items = serving_world
        dirty = self._dirty(items[17].points.tolist(),
                            model.encoder.grid.bbox)
        status, body = _post(sanitize_server, "/v1/topk",
                             {"trajectory": dirty, "k": 3})
        assert status == 200
        assert len(body["ids"]) == 3
        quality = body["quality"]
        assert quality["action"] == "repaired"
        assert quality["nonfinite_dropped"] == 1
        assert quality["clamped_points"] >= 1
        assert quality["duplicates_collapsed"] >= 1

    def test_same_dirty_query_rejected_in_strict_mode(self, strict_server,
                                                      serving_world):
        model, items = serving_world
        dirty = self._dirty(items[17].points.tolist(),
                            model.encoder.grid.bbox)
        status, body = _post(strict_server, "/v1/topk",
                             {"trajectory": dirty, "k": 3})
        assert status == 400
        assert "error" in body

    def test_clean_query_reports_pass(self, sanitize_server, serving_world):
        _, items = serving_world
        status, body = _post(sanitize_server, "/v1/topk",
                             {"trajectory": items[16].points.tolist(),
                              "k": 2})
        assert status == 200
        assert body["quality"]["action"] == "pass"
        assert body["quality"]["clean"] is True

    def test_metrics_expose_sanitize_counters(self, sanitize_server,
                                              serving_world):
        model, items = serving_world
        dirty = self._dirty(items[18].points.tolist(),
                            model.encoder.grid.bbox)
        _post(sanitize_server, "/v1/topk", {"trajectory": dirty, "k": 1})
        request = urllib.request.Request(sanitize_server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            text = response.read().decode()
        assert "repro_sanitize_repaired_total 1" in text
