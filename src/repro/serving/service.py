"""The similarity-query service: one query pipeline over one target.

:class:`SimilarityService` is the long-lived object the paper's §VI-A
deployment pattern implies but one-shot scripts never build: the trained
encoder wrapped with a micro-batcher (so concurrent queries share padded
encoder calls), an LRU result cache, and metrics, in front of wherever
the database embeddings live. It is the only implementation of the
request path

    validate -> sanitize -> admit -> deadline -> cache -> batch-encode
    -> search -> shape result -> count

and it runs over one search target, the shard coordinator of
:mod:`repro.serving.sharding`. Given an
:class:`~repro.core.store.EmbeddingStore`, the target is one shard
called in process; :class:`ShardedService` is this class over N forked
shard workers, plus reload and restart. Every deployment shape thus
writes through the same code and, given a ``durable_dir``, logs before
it acknowledges. The service is transport-agnostic —
:mod:`repro.serving.http` exposes it over HTTP, tests and benchmarks
drive it in-process.

Consistency model: every mutation (``insert``/``delete``, a sharded
``reload``) lands on the target first and then bumps a generation
counter that is part of every cache key, so stale cache entries die with
their generation; partial answers are never cached.

Robustness model (DESIGN.md "Operational robustness"): requests are
validated at the boundary (:class:`InvalidTrajectoryError` — never deep
inside the encoder), admitted through a bounded
:class:`~repro.resilience.AdmissionGate` (full ⇒ typed
:class:`ServiceOverloadedError`, the HTTP 429/load-shedding path), and
carry a deadline through the micro-batcher. An encode that raises
fails only the request that sent it (the batcher re-encodes a failed
batch item by item) and is counted; every other request is answered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.model import MetricModel
from ..core.partition import HashRing
from ..core.store import EmbeddingStore
from ..dataquality import QualityReport, SanitizeConfig, sanitize
from ..datasets.trajectory import Trajectory
from ..exceptions import (ConfigurationError, DeadlineExceededError,
                          InvalidTrajectoryError, NotFittedError,
                          PartialWriteError, ReloadError, ServiceClosedError,
                          ServiceOverloadedError)
from ..resilience.admission import AdmissionGate
from .batching import MicroBatcher
from .bundle import Bundle, load_bundle, load_bundle_model
from .cache import LRUCache, result_key
from .metrics import DEFAULT_SIZE_BUCKETS
from .sharding import _ShardHandle, _ShardTarget

PathLike = Union[str, Path]

__all__ = ["ServingConfig", "ShardedConfig", "ShardedService",
           "SimilarityService", "TopKResult"]

_DEFAULT = object()  # sentinel: timeout=None means "no deadline"

#: The log base of a bundle without a store: it starts empty, so every
#: such bundle is the same base.
_EMPTY_STORE_BASE = "repro.bundle.empty-store"


@dataclass
class ServingConfig:
    """Tunables of the online service.

    Attributes
    ----------
    max_batch_size:
        Encoder micro-batch cap; concurrent requests beyond this start the
        next batch. The batcher never holds a batch open: it encodes
        whatever queued while the previous encode ran.
    cache_capacity:
        LRU result-cache entries; 0 disables caching.
    default_k:
        ``k`` used when a query does not specify one.
    max_points:
        Longest trajectory accepted at the boundary; longer requests fail
        validation with :class:`InvalidTrajectoryError` (0 disables).
    max_inflight:
        Concurrent ``top_k``/``embed`` requests admitted; the rest are
        shed with :class:`ServiceOverloadedError` (HTTP 429). 0 disables.
    default_timeout_s:
        Per-request deadline when the caller does not pass one
        (``None`` disables deadlines by default).
    sanitize:
        Boundary mode. ``False`` (default) keeps the strict contract —
        malformed input raises :class:`InvalidTrajectoryError`.
        ``True`` switches to *repair-with-report*: requests pass through
        :func:`repro.dataquality.sanitize` (spikes removed, duplicates
        collapsed, out-of-grid points clamped), answers carry a
        ``quality`` report, and only unrepairable input (e.g. no finite
        points at all) is rejected.
    sanitize_config:
        :class:`~repro.dataquality.SanitizeConfig` for sanitize mode.
        ``None`` derives one from the model: bbox = the encoder's grid,
        ``max_jump`` = 100 grid cells. Ignored when ``sanitize=False``.
    index:
        Store search strategy: ``"exact"`` (default, brute-force scan)
        or ``"ivf"`` (sub-linear ANN via
        :class:`~repro.index.ann.IVFIndex`). Every shard worker installs
        it on its store at startup.
    nlist:
        IVF cell count; 0 picks ``auto_nlist(len(store))`` (~sqrt(N)).
        Only used when ``index="ivf"``.
    nprobe:
        IVF cells scanned per query (the recall/latency dial). Only
        used when ``index="ivf"``.
    wal_segment_bytes:
        WAL log-rotation threshold per shard.
    """

    max_batch_size: int = 16
    cache_capacity: int = 1024
    default_k: int = 10
    max_points: int = 100_000
    max_inflight: int = 0
    default_timeout_s: Optional[float] = 30.0
    sanitize: bool = False
    sanitize_config: Optional[SanitizeConfig] = None
    index: str = "exact"
    nlist: int = 0
    nprobe: int = 8
    wal_segment_bytes: int = 64 << 20

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.cache_capacity < 0:
            raise ConfigurationError("cache_capacity must be >= 0")
        if self.default_k < 1:
            raise ConfigurationError("default_k must be >= 1")
        if self.max_points < 0:
            raise ConfigurationError("max_points must be >= 0")
        if self.max_inflight < 0:
            raise ConfigurationError("max_inflight must be >= 0")
        if (self.default_timeout_s is not None
                and self.default_timeout_s <= 0):
            raise ConfigurationError(
                "default_timeout_s must be positive (or None)")
        if self.index not in ("exact", "ivf"):
            raise ConfigurationError(
                f"index must be 'exact' or 'ivf', got {self.index!r}")
        if self.nlist < 0:
            raise ConfigurationError("nlist must be >= 0 (0 = auto)")
        if self.nprobe < 1:
            raise ConfigurationError("nprobe must be >= 1")
        if self.wal_segment_bytes < 4096:
            raise ConfigurationError("wal_segment_bytes must be >= 4096")


@dataclass
class ShardedConfig(ServingConfig):
    """:class:`ServingConfig` plus the forked tier's own tunables.

    Every inherited field keeps its meaning on the coordinator
    (``index``/``nlist``/``nprobe`` configure each shard's local
    backend).

    Attributes
    ----------
    breaker_failure_threshold / breaker_reset_s:
        Consecutive transport failures that open a shard's circuit
        breaker, and how long it stays open before the shard is probed
        again: a dead worker drops out of the scatter after a few
        requests, not thirty seconds.
    request_timeout_s:
        Per-shard call timeout: a shard that does not answer within this
        window is treated as unavailable for that request (and the
        failure counts toward its breaker).
    boot_timeout_s:
        How long to wait for a worker to load its partition at startup,
        restart, and reload-prepare.
    """

    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 5.0
    request_timeout_s: float = 30.0
    boot_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError("breaker_failure_threshold must be >= 1")
        if self.breaker_reset_s < 0:
            raise ConfigurationError("breaker_reset_s must be >= 0")
        if self.request_timeout_s <= 0:
            raise ConfigurationError("request_timeout_s must be positive")
        if self.boot_timeout_s <= 0:
            raise ConfigurationError("boot_timeout_s must be positive")


@dataclass(frozen=True)
class TopKResult:
    """Answer to one top-k query.

    ``quality`` is the sanitize-mode boundary report (what was repaired
    in the query before answering); ``None`` in strict mode. It is
    recomputed per request, so even cache hits report accurately.

    ``partial`` marks sharded answers that are missing at least one
    shard (dead worker / open breaker / timeout): the ids are exact for
    the surviving partitions but rows owned by unavailable shards could
    not be considered. Always ``False`` from the single-process service.
    """

    ids: List[int]
    distances: List[float]
    cached: bool = False
    quality: Optional[Dict] = None
    partial: bool = False

    def to_json(self) -> Dict:
        return {"ids": self.ids, "distances": self.distances,
                "cached": self.cached, "quality": self.quality,
                "partial": self.partial}


class SimilarityService:
    """Online trajectory-similarity queries: encoder + search target.

    Parameters
    ----------
    model:
        Fitted :class:`MetricModel` (the O(L) encoder). ``None`` builds
        a *search-only* service: ``query_embedding``/``insert_embeddings``
        work, trajectory entry points raise
        :class:`~repro.exceptions.NotFittedError`.
    store:
        :class:`EmbeddingStore` holding the database embeddings (the
        O(N·d) search side). It becomes one shard served in process:
        the shard adopts the object, installs ``config.index`` on it and
        mutates it in place on ``insert``/``delete`` (``self.store``).
        :class:`ShardedService` passes its forked target here instead.
    config:
        :class:`ServingConfig`; defaults are sensible for tests.
    probes:
        Representative trajectories for :meth:`warmup` and self-tests.
    durable_dir:
        Write-ahead log + snapshot root: every ``insert``/``delete`` is
        fsynced before it is acknowledged and recovered by the next
        service over the same base (a snapshot then supersedes ``store``).
    base_tag:
        Fingerprint of the on-disk bytes ``store`` was loaded from, which
        ``durable_dir`` requires; :meth:`from_bundle` supplies it.
    """

    def __init__(self, model: Optional[MetricModel],
                 store: Union[EmbeddingStore, _ShardTarget],
                 config: Optional[ServingConfig] = None,
                 probes: Optional[Sequence[Trajectory]] = None,
                 durable_dir: Optional[PathLike] = None,
                 base_tag: Optional[str] = None):
        self.config = config or ServingConfig()
        self._adopt_model(model)
        if isinstance(store, _ShardTarget):
            self.target = store
        else:
            # One in-process shard has no pipe to time out and no worker
            # to respawn: the forked tier's own knobs keep their defaults.
            sharded = (self.config if isinstance(self.config, ShardedConfig)
                       else ShardedConfig(**vars(self.config)))
            self.target = _ShardTarget(store, sharded,
                                       durable_dir=durable_dir,
                                       base_tag=base_tag)
        self.store = self.target.store
        self.probes: List[Trajectory] = list(probes or [])
        self.stream = None  # optional StreamIngestor; see attach_stream()
        self.registry = self.target.registry
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._generation = 0
        self._cache = LRUCache(self.config.cache_capacity)
        self._closed = False
        self._warmed = False

        reg = self.registry
        self._m_queries = reg.counter(
            "repro_topk_requests_total", "Top-k queries answered.")
        self._m_embeds = reg.counter(
            "repro_embed_requests_total", "Embed-only requests answered.")
        self._m_inserts = reg.counter(
            "repro_inserted_trajectories_total", "Trajectories inserted.")
        self._m_deletes = reg.counter(
            "repro_deleted_trajectories_total", "Trajectories deleted.")
        self._m_cache_hits = reg.counter(
            "repro_cache_hits_total", "Top-k answers served from cache.")
        self._m_cache_misses = reg.counter(
            "repro_cache_misses_total", "Top-k answers computed fresh.")
        self._m_errors = reg.counter(
            "repro_request_errors_total", "Requests that raised.")
        self._m_shed = reg.counter(
            "repro_shed_requests_total",
            "Requests refused by the admission gate (HTTP 429).")
        self._m_validation = reg.counter(
            "repro_validation_errors_total",
            "Requests rejected at input validation.")
        self._m_sanitize_repaired = reg.counter(
            "repro_sanitize_repaired_total",
            "Requests whose trajectory was repaired by the sanitizer.")
        self._m_sanitize_rejected = reg.counter(
            "repro_sanitize_rejected_total",
            "Requests the sanitizer could not repair (rejected).")
        self._m_deadline = reg.counter(
            "repro_deadline_exceeded_total",
            "Requests dropped because their deadline expired.")
        self._m_encoder_failures = reg.counter(
            "repro_encoder_failures_total",
            "Trajectories whose encode raised, each counted once.")
        self._h_latency = reg.histogram(
            "repro_topk_latency_seconds", "End-to-end top-k latency.")
        self._h_encode = reg.histogram(
            "repro_encode_batch_seconds", "Batched encoder call latency.")
        self._h_batch_size = reg.histogram(
            "repro_encode_batch_size", "Trajectories per encoder batch.",
            buckets=DEFAULT_SIZE_BUCKETS)

        self._gate = AdmissionGate(self.config.max_inflight)

        # A target that forks processes has done so before it got here;
        # only then does the batcher's worker thread start.
        self._batcher: Optional[MicroBatcher] = None
        if model is not None:
            self._batcher = MicroBatcher(
                self._encode_batch,
                max_batch_size=self.config.max_batch_size,
                on_batch=self._record_batch,
                name="repro-encode-batcher")

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_bundle(cls, bundle: Union[Bundle, PathLike],
                    config: Optional[ServingConfig] = None,
                    durable_dir: Optional[PathLike] = None
                    ) -> "SimilarityService":
        """Build a service from a :class:`Bundle` or a bundle directory.

        With ``durable_dir`` the log's base is the bundle's
        :attr:`~Bundle.store_tag` (a fixed tag for a bundle without a
        store), so a bundle replaced under the same directory starts a
        fresh log.
        """
        if not isinstance(bundle, Bundle):
            bundle = load_bundle(bundle)
        base_tag = bundle.store_tag
        if base_tag is None:  # no tag for rows no manifest vouches for
            base_tag = None if len(bundle.store) else _EMPTY_STORE_BASE
        return cls(bundle.model, bundle.store, config=config,
                   probes=bundle.probes, durable_dir=durable_dir,
                   base_tag=base_tag)

    def _adopt_model(self, model: Optional[MetricModel]) -> None:
        """Install the encoder and what derives from it.

        Sanitize mode defaults to the encoder's grid: bbox = the grid's,
        ``max_jump`` = 100 cells. A search-only service has no grid and
        admits no trajectories, so it has no sanitize config either.
        """
        sanitize_cfg: Optional[SanitizeConfig] = None
        if model is not None:
            grid = model._require_fitted().grid
            if self.config.sanitize:
                sanitize_cfg = (self.config.sanitize_config or SanitizeConfig(
                    max_jump=100.0 * grid.cell_size))
                if sanitize_cfg.bbox is None:
                    sanitize_cfg = sanitize_cfg.with_bbox(grid.bbox)
        self.model = model
        # Like `model`, a single reference swapped whole (by __init__ and
        # a sharded reload); a request admits under whichever is current.
        # repro: disable=lockset
        self._sanitize_config = sanitize_cfg

    # ------------------------------------------------------------ encoder path

    def _encode_batch(self, trajectories: List[Trajectory]) -> np.ndarray:
        try:
            return self.model.embed(trajectories)
        except Exception:
            # The batcher splits a failed batch until each error comes
            # from a call of one item, and hands that error to that
            # item's request alone: counting those calls counts each
            # request that receives an encode error once.
            if len(trajectories) == 1:
                self._m_encoder_failures.inc()
            raise

    def _record_batch(self, batch_size: int, seconds: float) -> None:
        self._h_batch_size.observe(batch_size)
        self._h_encode.observe(seconds)

    def _require_batcher(self) -> MicroBatcher:
        if self._batcher is None:
            raise NotFittedError(
                "this service has no encoder (search-only); use "
                "query_embedding/insert_embeddings")
        return self._batcher

    def _resolve_deadline(self, timeout):
        """Map a caller timeout to (timeout_s, monotonic deadline)."""
        if timeout is _DEFAULT:
            timeout = self.config.default_timeout_s
        if timeout is None:
            return None, None
        return timeout, time.monotonic() + timeout

    @contextmanager
    def _counting_errors(self, timeout: Optional[float] = None):
        """Count what a request raises, by kind, on its way out.

        A future that outlives ``timeout`` becomes the same typed
        :class:`DeadlineExceededError` the batcher raises for an item it
        never got to.
        """
        try:
            yield
        except ServiceOverloadedError:
            self._m_shed.inc()
            self._m_errors.inc()
            raise
        except FuturesTimeoutError as exc:
            self._m_deadline.inc()
            self._m_errors.inc()
            raise DeadlineExceededError(
                f"no answer within {timeout}s") from exc
        except DeadlineExceededError:
            self._m_deadline.inc()
            self._m_errors.inc()
            raise
        except Exception:
            self._m_errors.inc()
            raise

    def _admit_trajectory(self, trajectory
                          ) -> "Tuple[Trajectory, Optional[QualityReport]]":
        """Boundary admission under the configured mode.

        Strict mode (default): validate-or-raise, no report. Sanitize
        mode: repair the input with a
        :class:`~repro.dataquality.QualityReport`; only unrepairable
        input still raises (and counts as rejected). Anything malformed
        raises the typed :class:`InvalidTrajectoryError`.
        """
        sanitizing = self._sanitize_config is not None
        report = None
        try:
            if sanitizing:
                traj, report = sanitize(
                    getattr(trajectory, "points", trajectory),
                    self._sanitize_config,
                    traj_id=getattr(trajectory, "traj_id", None))
            else:
                traj = (trajectory if isinstance(trajectory, Trajectory)
                        else Trajectory(trajectory))
        except (InvalidTrajectoryError, TypeError, ValueError) as exc:
            if sanitizing:
                self._m_sanitize_rejected.inc()
            self._m_validation.inc()
            if isinstance(exc, InvalidTrajectoryError):
                raise
            raise InvalidTrajectoryError(
                f"not a valid trajectory: {exc}") from exc
        if report is not None and report.modified:
            self._m_sanitize_repaired.inc()
        limit = self.config.max_points
        if limit and len(traj.points) > limit:
            self._m_validation.inc()
            raise InvalidTrajectoryError(
                f"trajectory has {len(traj.points)} points "
                f"(limit {limit})")
        return traj, report

    def _check_k(self, k: Optional[int]) -> int:
        if k is None:
            k = self.config.default_k
        if (not isinstance(k, (int, np.integer)) or isinstance(k, bool)
                or k < 1):
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return int(k)

    def embed(self, trajectory: Trajectory,
              timeout: Optional[float] = _DEFAULT) -> np.ndarray:
        """Embedding of one trajectory via the micro-batcher."""
        self._m_embeds.inc()
        timeout, deadline = self._resolve_deadline(timeout)
        with self._counting_errors(timeout):
            batcher = self._require_batcher()
            query, _ = self._admit_trajectory(trajectory)
            with self._gate.admit("embed"):
                return batcher(query, timeout=timeout, deadline=deadline)

    # ------------------------------------------------------------- query path

    def top_k(self, trajectory: Trajectory, k: Optional[int] = None,
              use_cache: bool = True,
              timeout: Optional[float] = _DEFAULT) -> TopKResult:
        """Top-k ids + embedding distances for a query trajectory.

        Bit-for-bit identical to the offline
        :meth:`EmbeddingStore.query` path, whether the request runs alone
        or shares an encoder batch (a row's embedding never depends on
        its batch-mates). Over a sharded target the answer is id-identical to
        a single-store exact scan while every shard is healthy, and
        covers the survivors (``partial=True``) when some are not.
        An encode that raises fails this request with that error and
        no other.
        """
        start = time.monotonic()
        timeout, deadline = self._resolve_deadline(timeout)
        try:
            with self._counting_errors(timeout):
                batcher = self._require_batcher()
                k = self._check_k(k)
                query, report = self._admit_trajectory(trajectory)
                quality = None if report is None else report.to_json()
                with self._gate.admit("top_k"):
                    return self._answer_top_k(batcher, query, k, use_cache,
                                              timeout, deadline, quality)
        finally:
            self._h_latency.observe(time.monotonic() - start)

    def query_embedding(self, embedding: np.ndarray,
                        k: Optional[int] = None,
                        timeout: Optional[float] = _DEFAULT) -> TopKResult:
        """Top-k for an already-computed query embedding (never cached)."""
        timeout, deadline = self._resolve_deadline(timeout)
        with self._counting_errors(timeout):
            k = self._check_k(k)
            embedding = np.asarray(embedding, dtype=np.float64)
            if embedding.shape != (self.target.dim,):
                raise ValueError(
                    f"expected embedding of shape ({self.target.dim},), "
                    f"got {embedding.shape}")
            self._open_generation()
            with self._gate.admit("query_embedding"):
                return self._search(embedding, k, deadline)

    def _open_generation(self) -> int:
        """The current cache generation; refuses work once closed."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            return self._generation

    def _answer_top_k(self, batcher: MicroBatcher, query: Trajectory, k: int,
                      use_cache: bool, timeout: Optional[float],
                      deadline: Optional[float],
                      quality: Optional[Dict]) -> TopKResult:
        # The cache key is built from the *sanitized* points, so distinct
        # dirty requests that repair to the same clean trajectory share an
        # entry; `quality` is re-derived per request even on hits.
        key = result_key(query.points, k, self.model.config.measure,
                         self._open_generation())
        if use_cache:
            hit = self._cache.get(key)
            if hit is not None:
                self._m_queries.inc()
                self._m_cache_hits.inc()
                return TopKResult(ids=list(hit[0]),
                                  distances=list(hit[1]), cached=True,
                                  quality=quality)
            self._m_cache_misses.inc()
        embedding = batcher(query, timeout=timeout, deadline=deadline)
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceededError(
                "deadline expired before the store search")
        result = self._search(embedding, k, deadline, quality)
        if use_cache and not result.partial:
            self._cache.put(key, (result.ids, result.distances))
        return result

    def _search(self, embedding: np.ndarray, k: int,
                deadline: Optional[float],
                quality: Optional[Dict] = None) -> TopKResult:
        ids, distances, partial = self.target.search(embedding, k, deadline)
        self._m_queries.inc()
        return TopKResult(ids=[int(i) for i in ids],
                          distances=[float(d) for d in distances],
                          quality=quality, partial=partial)

    # --------------------------------------------------------------- mutation

    def _bump_generation(self) -> int:
        """Retire every cached answer; call after the target changed."""
        with self._lock:
            self._generation += 1
            generation = self._generation
        self._cache.clear()
        return generation

    def insert(self, trajectories: Sequence[Trajectory]) -> List[int]:
        """Embed + insert trajectories; returns their assigned ids.

        Embeddings are computed through the micro-batcher — on its
        thread, never under a target lock —
        so a bulk insert coalesces with concurrent queries instead of
        stalling them. In sanitize mode, inserted trajectories are
        repaired the same way queries are, so the target only ever
        holds clean data.
        """
        timeout, deadline = self._resolve_deadline(_DEFAULT)
        with self._counting_errors(timeout):
            items = [self._admit_trajectory(t)[0] for t in trajectories]
            if not items:
                return []
            batcher = self._require_batcher()
            futures = [batcher.submit(t, deadline=deadline) for t in items]
            embeddings = np.stack([f.result(timeout=timeout)
                                   for f in futures])
            return self._insert_rows(embeddings, deadline)

    def insert_embeddings(self, embeddings: np.ndarray,
                          deadline: Optional[float] = None) -> List[int]:
        """Insert precomputed embedding rows; returns their assigned ids."""
        with self._counting_errors():
            embeddings = np.asarray(embeddings, dtype=np.float64)
            if embeddings.ndim != 2 or embeddings.shape[1] != self.target.dim:
                raise ValueError(
                    f"expected embeddings of shape (n, {self.target.dim}), "
                    f"got {embeddings.shape}")
            if embeddings.shape[0] == 0:
                return []
            return self._insert_rows(embeddings, deadline)

    def _insert_rows(self, embeddings: np.ndarray,
                     deadline: Optional[float]) -> List[int]:
        try:
            assigned = self.target.insert_embeddings(embeddings, deadline)
        except PartialWriteError as exc:
            self._m_inserts.inc(len(exc.applied_ids))
            raise
        finally:
            self._bump_generation()  # rows that landed are searchable
        self._m_inserts.inc(len(assigned))
        return assigned

    def delete(self, ids: Sequence[int]) -> int:
        """Remove entries by id; returns how many were removed."""
        with self._counting_errors():
            id_list = [int(i) for i in ids]
            if not id_list:
                return 0
            try:
                removed = self.target.delete(id_list)
            except PartialWriteError as exc:
                self._m_deletes.inc(len(exc.applied_ids))
                raise
            finally:
                self._bump_generation()
            self._m_deletes.inc(removed)
            return removed

    # ----------------------------------------------------------- maintenance

    def compact(self) -> Dict[int, bool]:
        """Fold pending inserts/tombstones on the target's index(es).

        Returns ``{shard: compacted}`` (an in-process store is shard
        0); ``False`` means that backend has nothing to compact (the
        exact scan has no deferred state). A durable service also
        snapshots every shard and truncates its log behind it.
        """
        return self.target.compact()

    def size(self) -> int:
        """Rows the target holds (the ``/healthz`` store size)."""
        return self.target.size()

    # -------------------------------------------------------- streaming ingest

    def attach_stream(self, ingestor) -> None:
        """Attach a :class:`~repro.streaming.ingest.StreamIngestor`.

        Enables the ``/v1/ingest`` and ``/v1/stream`` HTTP routes.
        Lifecycle stays with the caller: the ingester owns its own WAL and
        snapshot directory, so closing this service does *not* close it.
        """
        self.stream = ingestor

    def stream_ingest(self, rows: Sequence[Sequence[float]]) -> Dict:
        """Apply ``[source_id, seq, t, x, y]`` rows to the attached stream.

        The transport-facing half of :meth:`attach_stream` — rows arrive
        as plain lists (JSON), are validated into
        :class:`~repro.streaming.events.StreamPoint`, and acknowledged
        only after the ingester's WAL fsync. Raises
        :class:`~repro.exceptions.ReloadError` when no stream is attached
        (the HTTP layer maps it to 409, the capability-missing status).
        """
        if self.stream is None:
            raise ReloadError("this service has no stream ingester attached "
                              "(build one with repro.streaming and call "
                              "attach_stream)")
        from ..streaming.events import StreamPoint
        points = []
        for row in rows:
            if len(row) != 5:
                raise ValueError("each point must be [source_id, seq, t, x, y]"
                                 f", got {row!r}")
            source_id, seq, t, x, y = row
            points.append(StreamPoint(source_id=int(source_id), seq=int(seq),
                                      t=float(t), x=float(x), y=float(y)))
        return asdict(self.stream.ingest(points))

    def stream_stats(self) -> Dict:
        """Operational snapshot of the attached stream ingester."""
        if self.stream is None:
            raise ReloadError("this service has no stream ingester attached")
        return self.stream.stats()

    # ------------------------------------------------------------- lifecycle

    def warmup(self, queries: int = 4) -> int:
        """Run a few probe queries through the full path; returns how many.

        Exercises the encoder, the batcher and the target's search so the
        first real request does not pay first-touch allocation costs.
        Uses the bundle's probes when present, otherwise a synthetic
        trajectory inside the model's grid; a search-only service sends
        seeded random embeddings instead. A completed warmup flips the
        service to ready (see :meth:`readiness`).
        """
        if self.model is None:
            rng = np.random.default_rng(0)
            served = max(1, queries)
            for _ in range(served):
                self.query_embedding(rng.standard_normal(self.target.dim),
                                     k=1)
        else:
            probes = self.probes[:queries] or [self.synthetic_probe()]
            served = len(probes)
            for probe in probes:
                if self.size() > 0:
                    self.top_k(probe, k=1, use_cache=False)
                else:
                    self.embed(probe)
        with self._lock:
            self._warmed = True
        return served

    def synthetic_probe(self) -> Trajectory:
        """A short trajectory through the centre of the model's grid."""
        if self.model is None:
            raise NotFittedError("a search-only service has no encoder grid")
        encoder = self.model._require_fitted()
        xmin, ymin, xmax, ymax = encoder.grid.bbox
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        step = encoder.grid.cell_size
        return Trajectory([[cx - step, cy], [cx, cy], [cx + step, cy]])

    def readiness(self) -> Dict:
        """Readiness checks for ``/readyz`` (distinct from liveness).

        Ready means: the target has data, :meth:`warmup` completed, the
        service is accepting work, and
        whatever the target adds (every shard alive) holds too.
        """
        with self._lock:
            warmed = self._warmed
            closed = self._closed
        checks = {
            "store_nonempty": self.size() > 0,
            "warmed": warmed,
            "accepting_requests": not closed,
            **self.target.readiness_checks(),
        }
        return {"ready": all(checks.values()), "checks": checks}

    def stats(self) -> Dict:
        """JSON-friendly operational snapshot (also the ``/v1/stats`` body)."""
        with self._lock:
            generation = self._generation
        stats = self.target.stats()
        stats["store"].update(
            generation=generation, embedding_dim=self.target.dim,
            measure=(None if self.model is None
                     else self.model.config.measure))
        stats.update({
            "sanitize_mode": self._sanitize_config is not None,
            "cache": self._cache.stats(),
            "batcher": (None if self._batcher is None
                        else self._batcher.stats()),
            "resilience": {"admission": self._gate.stats()},
            "readiness": self.readiness(),
            "stream": None if self.stream is None else self.stream.stats(),
            "uptime_seconds": time.monotonic() - self._started,
            "metrics": self.registry.snapshot(),
        })
        return stats

    def render_metrics(self) -> str:
        """Prometheus text exposition (the ``/metrics`` body)."""
        self.target.refresh_gauges()
        return self.registry.render()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self, drain: bool = True) -> None:
        """Shut down: the batcher first (pending futures never hang — see
        its docs), then whatever the target owns."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._batcher is not None:
            self._batcher.close(drain=drain)
        self.target.close()

    def __enter__(self) -> "SimilarityService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _load_encoder(bundle_dir: Optional[Path], dim: int):
    """The coordinator's encoder from ``bundle_dir`` (``None`` in, ``None``
    out: a search-only tier), checked against the partitions' ``dim``."""
    if bundle_dir is None:
        return None
    model, _ = load_bundle_model(bundle_dir)
    if model.config.embedding_dim != dim:
        raise ConfigurationError(
            f"bundle embedding_dim {model.config.embedding_dim} != "
            f"partition manifest {dim}")
    return model


class ShardedService(SimilarityService):
    """:class:`SimilarityService` over N forked shard worker processes.

    The whole request path — validation, sanitize mode, admission,
    deadlines, the result cache, micro-batched encoding,
    ``stats``/``readiness``/metrics, ``close`` — is the inherited one;
    this class only builds the target from a partition directory (which
    forks a worker per partition) and adds the operations an in-process
    store has no use for.

    Parameters
    ----------
    partition_dir:
        Directory written by :func:`repro.core.partition.save_partitions`
        (or ``python -m repro shard-tool split``); fixes the shard count.
    bundle_dir:
        Serving bundle whose model becomes the coordinator's encoder
        (workers only ever see embeddings). ``None`` builds a
        *search-only* tier: ``query_embedding``/``insert_embeddings``
        work, trajectory entry points raise
        :class:`~repro.exceptions.NotFittedError`.
    config:
        :class:`ShardedConfig`.
    request_hooks:
        ``{shard_id: hook}`` fault-injection hooks; each worker calls
        ``hook.trigger()`` before every request (see
        :class:`repro.testing.faults.KillWorkerOnce`).
    durable_dir:
        Root directory for per-shard WALs and snapshots. ``None`` keeps
        mutations in worker memory only: restarts rebuild from the
        partition files.
    wal_hooks:
        ``{shard_id: hook}`` crash-injection hooks fired inside the
        shard's WAL append path (see
        :class:`repro.testing.faults.KillAtWALPoint`).
    """

    def __init__(self, partition_dir: PathLike,
                 bundle_dir: Optional[PathLike] = None,
                 config: Optional[ShardedConfig] = None,
                 request_hooks: Optional[Dict] = None,
                 durable_dir: Optional[PathLike] = None,
                 wal_hooks: Optional[Dict] = None):
        config = config or ShardedConfig()
        # Fork-before-threads: the target forks every worker here; the
        # first coordinator thread (the micro-batcher) only starts in
        # super().__init__ below.
        target = _ShardTarget(partition_dir, config, durable_dir=durable_dir,
                              request_hooks=request_hooks,
                              wal_hooks=wal_hooks)
        try:
            self.bundle_dir = None if bundle_dir is None else Path(bundle_dir)
            super().__init__(_load_encoder(self.bundle_dir, target.dim),
                             target, config)
        except Exception:
            target.close()  # every forked worker: nothing survives
            raise
        self.num_shards = target.num_shards

    def reload(self, partition_dir: Optional[PathLike] = None,
               bundle_dir: Optional[PathLike] = None) -> Dict:
        """Zero-downtime flip to a new partition/bundle generation.

        Two phases: every worker *prepares* (loads the new generation
        alongside the one still serving), then every worker *activates*
        (atomic in-worker swap; the worker is serial, so no request ever
        sees a half-flipped store) and the coordinator swaps its own
        encoder and id state and retires the result cache. Any prepare
        failure aborts everywhere and the old generation keeps serving —
        :class:`ReloadError`.

        The shard count is fixed for the life of the tier; resharding is
        the offline ``shard-tool split`` + restart path.
        """
        bundle = self.bundle_dir if bundle_dir is None else Path(bundle_dir)
        try:
            new_model = _load_encoder(bundle, self.target.dim)
        except ConfigurationError as exc:
            raise ReloadError(str(exc)) from exc
        report = self.target.reload(partition_dir)
        self.bundle_dir = bundle
        if new_model is not None:
            self._adopt_model(new_model)
        report["generation"] = self._bump_generation()
        return report

    def restart_shard(self, shard_id: int) -> Dict:
        """Respawn one worker from its current boot spec (admin path).

        On a durable tier the restarted worker recovers snapshot + WAL,
        and the coordinator re-adopts its id space so recovered rows
        survive the restart id-identically; without one the worker
        rebuilds from its partition file, so cached answers are retired
        either way.
        """
        stats = self.target.restart_shard(shard_id)
        self._bump_generation()
        return stats

    @property
    def ring(self) -> HashRing:
        """The id-routing ring (identical to shard-tool split's)."""
        return self.target._ring

    @property
    def shards(self) -> List[_ShardHandle]:
        """Per-shard handles — a read-only diagnostics surface."""
        return list(self.target._shards)

    def shard_busy_seconds(self) -> List[float]:
        """Cumulative worker-side busy time per shard (bench input)."""
        return [h.busy_seconds() for h in self.target._shards]
