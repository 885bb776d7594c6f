"""Serving-tier integration: attach_stream, /v1/ingest and /v1/stream."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.model import MetricModel
from repro.core.store import EmbeddingStore
from repro.exceptions import ReloadError
from repro.serving import ServingConfig, SimilarityService, make_server
from repro.streaming import StreamConfig, StreamIngestor, WindowConfig

from tests.streaming.conftest import in_order_points, make_encoder

pytestmark = pytest.mark.streaming

_STREAM = StreamConfig(window=WindowConfig(ttl_s=1e9), sync_encode=True)


def _service():
    encoder = make_encoder(use_sam=True)
    model = MetricModel(encoder.config)
    model.encoder = encoder
    store = EmbeddingStore(None, dim=encoder.config.embedding_dim)
    store.add_embeddings(np.zeros((2, encoder.config.embedding_dim)))
    return SimilarityService(model, store, ServingConfig())


def _rows(points):
    return [[p.source_id, p.seq, p.t, p.x, p.y] for p in points]


def test_stream_methods_require_attachment():
    service = _service()
    try:
        with pytest.raises(ReloadError):
            service.stream_ingest(_rows(in_order_points(1, 3)))
        with pytest.raises(ReloadError):
            service.stream_stats()
        assert service.stats()["stream"] is None
    finally:
        service.close()


def test_attached_stream_ingests_and_reports(tmp_path):
    service = _service()
    ingestor = StreamIngestor(service.model.encoder, tmp_path, _STREAM)
    try:
        service.attach_stream(ingestor)
        report = service.stream_ingest(_rows(in_order_points(1, 5)))
        assert report["accepted"] == 5 and report["applied"] == 5
        assert report["lsn"] == 1 and not report["degraded"]
        again = service.stream_ingest(_rows(in_order_points(1, 5)))
        assert again["duplicates"] == 5 and again["accepted"] == 0
        stats = service.stream_stats()
        assert stats["window"]["window_points"] == 5
        assert service.stats()["stream"]["accepted_total"] == 5
        with pytest.raises(ValueError):
            service.stream_ingest([[1, 2, 3]])  # not a 5-field row
    finally:
        service.close()
        ingestor.close()


@pytest.fixture
def stream_server(tmp_path):
    service = _service()
    ingestor = StreamIngestor(service.model.encoder, tmp_path, _STREAM)
    service.attach_stream(ingestor)
    srv = make_server(service)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    service.close()
    ingestor.close()


def _call(server, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def test_http_ingest_round_trip(stream_server):
    status, body = _call(stream_server, "/v1/ingest",
                         {"points": _rows(in_order_points(3, 4))})
    assert status == 200
    assert body["accepted"] == 4 and body["applied"] == 4

    status, body = _call(stream_server, "/v1/stream")
    assert status == 200
    assert body["window"]["window_points"] == 4
    assert body["accepted_total"] == 4


def test_http_ingest_validates_payload(stream_server):
    status, body = _call(stream_server, "/v1/ingest", {"points": "nope"})
    assert status == 400
    status, body = _call(stream_server, "/v1/ingest",
                         {"points": [[1, 2, 3]]})
    assert status == 400
    status, body = _call(stream_server, "/v1/ingest", {})
    assert status == 400


def test_http_stream_routes_409_without_attachment(tmp_path):
    service = _service()
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = _call(srv, "/v1/ingest",
                             {"points": _rows(in_order_points(1, 2))})
        assert status == 409
        assert "stream" in body["error"]
        status, _ = _call(srv, "/v1/stream")
        assert status == 409
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        service.close()
