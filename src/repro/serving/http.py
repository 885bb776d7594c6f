"""Zero-dependency HTTP front end for :class:`SimilarityService`.

A deliberately small JSON API over the stdlib
:class:`~http.server.ThreadingHTTPServer` (one thread per connection; the
micro-batcher coalesces their encoder work — see DESIGN.md for why this
stands in for a production RPC stack):

==========  =======================  ==========================================
method      path                     body / response
==========  =======================  ==========================================
GET         ``/healthz``             liveness: ``{"status": "ok", ...}`` —
                                     200 whenever the process can answer
GET         ``/readyz``              readiness: 200 when the service can give
                                     good answers (store loaded, warmed up,
                                     breaker not open), else 503 with the
                                     failing checks in the body
GET         ``/metrics``             Prometheus text exposition
GET         ``/v1/stats``            operational snapshot (JSON)
GET         ``/v1/stream``           streaming-ingest snapshot: window /
                                     watermark / backlog stats (409 when no
                                     stream ingester is attached)
POST        ``/v1/topk``             ``{"trajectory": [[x,y],...], "k": 5}`` ->
                                     ``{"ids": [...], "distances": [...]}``
POST        ``/v1/embed``            ``{"trajectory": [[x,y],...]}`` ->
                                     ``{"embedding": [...]}``
POST        ``/v1/insert``           ``{"trajectories": [[[x,y],...],...]}`` ->
                                     ``{"ids": [...]}``
POST        ``/v1/delete``           ``{"ids": [...]}`` -> ``{"removed": n}``
POST        ``/v1/ingest``           ``{"points": [[source_id, seq, t, x, y],
                                     ...]}`` -> per-batch ingest report; acked
                                     only after the stream WAL fsync (409 when
                                     no stream ingester is attached, 429 when
                                     its admission gate sheds)
POST        ``/admin/compact``       ``{}`` -> ``{"compacted": {"0": true}}``
                                     — folds pending IVF inserts/tombstones
POST        ``/admin/reload``        ``{"partition_dir": ..., "bundle_dir":
                                     ...}`` -> generation-flip report (sharded
                                     tier only; 409 when unsupported/failed)
POST        ``/admin/restart/<id>``  respawn one shard worker; on a durable
                                     tier it recovers snapshot + WAL (sharded
                                     tier only; 409 when unsupported)
==========  =======================  ==========================================

One service class serves every shape:
:class:`~repro.serving.service.SimilarityService` over one in-process
shard, or its subclass :class:`~repro.serving.service.ShardedService`
over forked shard workers — every route but two calls the one shared
pipeline.
``/admin/reload`` and ``/admin/restart/<id>`` exist only on the sharded
tier and answer 409 elsewhere.

Errors come back as ``{"error": "..."}`` with 400 (bad request), 404
(unknown route), 409 (no encoder / unsupported admin op / failed
reload), 429 (load shed — retry later), 503 (degradation the service
could not absorb: breaker open with no fallback, every shard down, or
shut down), 504 (request deadline expired), or 500 (unexpected).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..exceptions import (DeadlineExceededError, InvalidTrajectoryError,
                          NotFittedError, PartialWriteError, ReloadError,
                          ServiceClosedError, ServiceOverloadedError,
                          ServiceUnavailableError)
from .service import SimilarityService

__all__ = ["ServingHTTPServer", "make_server", "serve"]

MAX_BODY_BYTES = 16 << 20  # refuse absurd request bodies


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a :class:`SimilarityService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: SimilarityService, quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"

    # ---------------------------------------------------------------- plumbing

    @property
    def service(self) -> SimilarityService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        self._send(status, json.dumps(payload).encode())

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            self._send_error_json(400, "missing request body")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(400, "request body too large")
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError:
            self._send_error_json(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    def _observe(self, route: str, status: int, seconds: float) -> None:
        reg = self.service.registry
        reg.counter("repro_http_requests_total",
                    "HTTP requests handled (any route).").inc()
        if status >= 400:
            reg.counter("repro_http_errors_total",
                        "HTTP requests answered with 4xx/5xx.").inc()
        reg.histogram("repro_http_request_seconds",
                      "HTTP request handling latency.").observe(seconds)

    def _route(self, handler) -> None:
        start = time.monotonic()
        status = 500
        try:
            status = handler()
        except (InvalidTrajectoryError, ValueError) as exc:
            status = 400
            self._send_error_json(status, str(exc))
        except (NotFittedError, ReloadError) as exc:
            status = 409
            self._send_error_json(status, str(exc))
        except ServiceOverloadedError as exc:
            status = 429
            self._send_error_json(status, str(exc))
        except DeadlineExceededError as exc:
            status = 504
            self._send_error_json(status, str(exc))
        except PartialWriteError as exc:
            # The durably applied ids let the client retry idempotently.
            status = 503
            self._send_json(status, {"error": str(exc),
                                     "applied_ids": exc.applied_ids})
        except (ServiceUnavailableError, ServiceClosedError) as exc:
            status = 503
            self._send_error_json(status, str(exc))
        except BrokenPipeError:
            pass  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 - must answer something
            self._send_error_json(status, f"internal error: {exc}")
        finally:
            self._observe(self.path, status, time.monotonic() - start)

    # ------------------------------------------------------------------ routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._route(self._get_healthz)
        elif self.path == "/readyz":
            self._route(self._get_readyz)
        elif self.path == "/metrics":
            self._route(self._get_metrics)
        elif self.path == "/v1/stats":
            self._route(self._get_stats)
        elif self.path == "/v1/stream":
            self._route(self._get_stream)
        else:
            self._route(self._not_found)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/topk":
            self._route(self._post_topk)
        elif self.path == "/v1/embed":
            self._route(self._post_embed)
        elif self.path == "/v1/insert":
            self._route(self._post_insert)
        elif self.path == "/v1/delete":
            self._route(self._post_delete)
        elif self.path == "/v1/ingest":
            self._route(self._post_ingest)
        elif self.path == "/admin/compact":
            self._route(self._post_compact)
        elif self.path == "/admin/reload":
            self._route(self._post_reload)
        elif self.path.startswith("/admin/restart/"):
            self._route(self._post_restart)
        else:
            self._route(self._not_found)

    def _not_found(self) -> int:
        self._send_error_json(404, f"no such route: {self.path}")
        return 404

    def _get_healthz(self) -> int:
        self._send_json(200, {"status": "ok",
                              "store_size": self.service.size()})
        return 200

    def _get_readyz(self) -> int:
        readiness = self.service.readiness()
        status = 200 if readiness["ready"] else 503
        self._send_json(status, readiness)
        return status

    def _get_metrics(self) -> int:
        body = self.service.render_metrics().encode()
        self._send(200, body, content_type="text/plain; version=0.0.4")
        return 200

    def _get_stats(self) -> int:
        self._send_json(200, self.service.stats())
        return 200

    def _get_stream(self) -> int:
        self._send_json(200, self.service.stream_stats())
        return 200

    def _post_topk(self) -> int:
        payload = self._read_json()
        if payload is None:
            return 400
        if "trajectory" not in payload:
            self._send_error_json(400, "missing field: trajectory")
            return 400
        k = payload.get("k", self.service.config.default_k)
        if not isinstance(k, int) or isinstance(k, bool):
            self._send_error_json(400, "k must be an integer")
            return 400
        if k < 1:
            self._send_error_json(400, "k must be >= 1")
            return 400
        store_size = self.service.size()
        if store_size and k > store_size:
            self._send_error_json(
                400, f"k={k} exceeds store size {store_size}")
            return 400
        use_cache = bool(payload.get("use_cache", True))
        result = self.service.top_k(payload["trajectory"], k=k,
                                    use_cache=use_cache)
        self._send_json(200, result.to_json())
        return 200

    def _post_embed(self) -> int:
        payload = self._read_json()
        if payload is None:
            return 400
        if "trajectory" not in payload:
            self._send_error_json(400, "missing field: trajectory")
            return 400
        embedding = self.service.embed(payload["trajectory"])
        self._send_json(200, {"embedding": [float(x) for x in embedding]})
        return 200

    def _post_insert(self) -> int:
        payload = self._read_json()
        if payload is None:
            return 400
        trajectories = payload.get("trajectories")
        if not isinstance(trajectories, list):
            self._send_error_json(400, "trajectories must be a list")
            return 400
        ids = self.service.insert(trajectories)
        self._send_json(200, {"ids": ids})
        return 200

    def _post_delete(self) -> int:
        payload = self._read_json()
        if payload is None:
            return 400
        ids = payload.get("ids")
        if not isinstance(ids, list):
            self._send_error_json(400, "ids must be a list")
            return 400
        removed = self.service.delete(ids)
        self._send_json(200, {"removed": removed})
        return 200

    def _post_ingest(self) -> int:
        payload = self._read_json()
        if payload is None:
            return 400
        points = payload.get("points")
        if not isinstance(points, list):
            self._send_error_json(
                400, "points must be a list of [source_id, seq, t, x, y]")
            return 400
        self._send_json(200, self.service.stream_ingest(points))
        return 200

    def _post_compact(self) -> int:
        # Body is optional (an empty POST compacts everything).
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(min(length, MAX_BODY_BYTES))
        compacted = self.service.compact()
        self._send_json(200, {"compacted": {str(s): bool(v)
                                            for s, v in compacted.items()}})
        return 200

    def _post_reload(self) -> int:
        payload = self._read_json()
        if payload is None:
            return 400
        reload_fn = getattr(self.service, "reload", None)
        if reload_fn is None:
            raise ReloadError(
                "this service does not support zero-downtime reload "
                "(sharded tier only); restart it with the new bundle")
        result = reload_fn(partition_dir=payload.get("partition_dir"),
                           bundle_dir=payload.get("bundle_dir"))
        self._send_json(200, result)
        return 200

    def _post_restart(self) -> int:
        # Body is optional; the shard id rides in the path.
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(min(length, MAX_BODY_BYTES))
        suffix = self.path[len("/admin/restart/"):]
        try:
            shard_id = int(suffix)
        except ValueError:
            self._send_error_json(400, f"shard id must be an integer, "
                                       f"got {suffix!r}")
            return 400
        restart_fn = getattr(self.service, "restart_shard", None)
        if restart_fn is None:
            raise ReloadError(
                "this service has no shard workers to restart "
                "(sharded tier only)")
        result = restart_fn(shard_id)
        self._send_json(200, {"restarted": shard_id, "shard": result})
        return 200


def make_server(service: SimilarityService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> ServingHTTPServer:
    """Bind (but do not start) a serving HTTP server; ``port=0`` picks one."""
    return ServingHTTPServer((host, port), service, quiet=quiet)


def serve(service: SimilarityService, host: str = "127.0.0.1",
          port: int = 8080, quiet: bool = False,
          ready: Optional[threading.Event] = None) -> None:
    """Blocking serve loop (Ctrl-C returns cleanly and closes the service)."""
    server = make_server(service, host=host, port=port, quiet=quiet)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
