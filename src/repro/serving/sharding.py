"""Sharded scatter-gather serving tier.

Scales :class:`~repro.serving.service.SimilarityService` past one GIL by
splitting the embedding store across N worker *processes*, each owning
one consistent-hash partition (see :mod:`repro.core.partition`) with its
own :class:`~repro.core.backends.SearchBackend` and no encoder. The
worker half lives in :mod:`repro.serving.shard_worker`; this module is
the parent side, which is the same query pipeline over a different
:class:`~repro.serving.service.SearchTarget`: :class:`ShardedService`
*is* a ``SimilarityService`` (validation, sanitize mode, admission,
deadlines, result cache, breaker-guarded micro-batched encoding, metrics
are inherited, not re-implemented) whose target, ``_ShardTarget``, is
the coordinator:

* **Queries** arrive as the *embedding* the pipeline already encoded,
  fan out to every shard in parallel, and merge per-shard top-k with the
  deterministic ``(distance, id)`` order
  (:func:`~repro.serving.router.merge_top_k`) — so a sharded answer is
  id-identical to the single-store exact scan.
* **Mutations** route to exactly one shard by hashing the trajectory id
  on the ring; the coordinator owns the global id space.
* **Failures** are per-shard: each worker sits behind its own
  :class:`~repro.resilience.CircuitBreaker`, and a dead/slow/tripped
  shard drops out of the scatter — the query still answers from the
  surviving shards, flagged ``partial=True`` — until every shard is
  unavailable (:class:`~repro.exceptions.ShardUnavailableError`).
* **Reload** is zero-downtime and two-phase: ``prepare`` loads the new
  partition generation in every worker *alongside* the old one
  (requests keep answering from the old), then ``activate`` flips each
  worker and the coordinator's encoder atomically; any prepare failure
  aborts the whole reload and the old generation keeps serving. A flip
  retires the result cache through the same generation bump a mutation
  does.

Worker protocol (one ``multiprocessing`` pipe per shard, request serial
per worker): requests are ``(req_id, op, payload)`` tuples, replies are
``(req_id, status, result, busy_s)`` where ``busy_s`` is the worker-side
CPU time spent on the request — the input to the critical-path
throughput model in ``benchmarks/bench_sharded_serving.py``. The parent
matches replies by ``req_id`` and silently drains stale replies left by
timed-out calls, so one slow request can never mis-pair a later one.
Workers are spawned with the ``fork`` start method **before** the
coordinator starts any threads — ``ShardedService`` builds the target
(which forks) first and only then runs the pipeline's constructor, which
starts the micro-batcher; forking a threaded process is undefined
behaviour.

Fault injection: ``request_hooks={shard_id: hook}`` installs an object
whose ``trigger()`` runs in the worker before each request —
:class:`repro.testing.faults.KillWorkerOnce` slots in directly, which is
how the degraded-mode tests kill exactly one shard exactly once.
``wal_hooks={shard_id: hook}`` reaches deeper: the hook fires inside the
WAL append path (``after_write`` / ``before_fsync`` / ``after_fsync``),
which is how the crash-chaos tests kill a worker mid-group-commit.

Durability (``durable_dir=...``): each worker keeps a per-shard
write-ahead log (:mod:`repro.serving.wal`) and acknowledges a mutation
only after its record is fsynced, so ``restart_shard`` and a cold
coordinator start recover to an id-identical store (snapshot + WAL
replay) including the coordinator's ``_next_id``. With
``config.replicas > 0`` each shard also runs warm-standby workers that
tail the primary's acked WAL; when a primary dies the coordinator
*promotes* a replica (it catches up to the end of the log, repairs any
torn tail, and takes over the WAL for append) instead of degrading to a
partial answer, then respawns a replacement replica that rebuilds from
the shared snapshot+WAL. The old primary is always torn down before
promotion so the log never has two appenders.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait as _mp_wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.partition import HashRing, load_partition_manifest
from ..exceptions import (ConfigurationError, CorruptArtifactError,
                          PartialWriteError, ReloadError,
                          ReproError, ServiceClosedError,
                          ShardUnavailableError)
from ..resilience.breaker import CLOSED as _BREAKER_CLOSED
from ..resilience.breaker import CircuitBreaker
from .bundle import load_bundle_model
from .metrics import MetricsRegistry
from .router import group_by_shard, merge_top_k
from .service import SearchTarget, ServingConfig, SimilarityService
from .shard_worker import _BOOT_REQ_ID, _shard_worker_main

PathLike = Union[str, Path]

__all__ = ["ShardedConfig", "ShardedService", "ShardRequestError"]

_LOG = logging.getLogger(__name__)


class ShardRequestError(ReproError):
    """A shard worker processed the request but raised while doing so.

    Transport-level failures (dead worker, timeout, open breaker) raise
    :class:`~repro.exceptions.ShardUnavailableError` instead and count
    against the shard's circuit breaker; this error does not — the
    worker is healthy, the request was bad.
    """


@dataclass
class ShardedConfig(ServingConfig):
    """:class:`ServingConfig` plus the sharded tier's own tunables.

    Every inherited field keeps its meaning on the coordinator
    (``index``/``nlist``/``nprobe`` configure each shard's local
    backend, and ``index="keep"`` has nothing to keep here); the
    breaker pair also configures every per-shard transport breaker, and
    defaults tighter than the single-process service's because a dead
    worker should drop out of the scatter after a few requests, not
    thirty seconds.

    Attributes
    ----------
    request_timeout_s:
        Per-shard call timeout: a shard that does not answer within this
        window is treated as unavailable for that request (and the
        failure counts toward its breaker).
    boot_timeout_s:
        How long to wait for a worker to load its partition at startup,
        restart, and reload-prepare.
    fsync_window_ms:
        Group-commit window for durable tiers: 0 fsyncs on every ack;
        a positive window batches fsyncs, trading up to that much ack
        latency for amortised disk flushes under concurrent writers.
    wal_segment_bytes:
        WAL log-rotation threshold per shard.
    replicas:
        Warm-standby workers per shard tailing the primary's acked WAL;
        requires ``durable_dir`` on the service. 0 disables replication.
    """

    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 5.0
    request_timeout_s: float = 30.0
    boot_timeout_s: float = 120.0
    fsync_window_ms: float = 0.0
    wal_segment_bytes: int = 64 << 20
    replicas: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.index == "keep":
            raise ConfigurationError(
                "index must be 'exact' or 'ivf' on the sharded tier, got "
                "'keep'")
        if self.request_timeout_s <= 0:
            raise ConfigurationError("request_timeout_s must be positive")
        if self.boot_timeout_s <= 0:
            raise ConfigurationError("boot_timeout_s must be positive")
        if self.fsync_window_ms < 0:
            raise ConfigurationError("fsync_window_ms must be >= 0")
        if self.wal_segment_bytes < 4096:
            raise ConfigurationError("wal_segment_bytes must be >= 4096")
        if self.replicas < 0:
            raise ConfigurationError("replicas must be >= 0")


# --------------------------------------------------------------- parent side


class _ShardHandle:
    """Parent-side proxy for one shard worker: pipe + process + breaker.

    Thread-safe: ``call`` serialises requests to the worker under the
    handle lock (the worker itself is a serial loop), tracks the
    worker's cumulative busy time, and converts transport failures
    (dead worker, timeout) into
    :class:`~repro.exceptions.ShardUnavailableError` while counting
    them against the shard's circuit breaker.
    """

    def __init__(self, shard_id: int, boot: Dict, config: "ShardedConfig",
                 ctx: multiprocessing.context.BaseContext,
                 hook=None, wal_hook=None):
        self.shard_id = shard_id
        self._boot = dict(boot)
        self._hook = hook
        self._wal_hook = wal_hook
        self._config = config
        self._ctx = ctx
        self._lock = threading.Lock()
        self.breaker = self._new_breaker()
        self._conn = None
        self._proc = None
        self._req_seq = _BOOT_REQ_ID
        self._requests = 0
        self._failures = 0
        self._busy_s = 0.0
        self._spawn_locked()

    # -------------------------------------------------------------- lifecycle

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self._config.breaker_failure_threshold,
            reset_timeout_s=self._config.breaker_reset_s)

    def _spawn_locked(self) -> None:
        """Fork the worker and wait for its boot report.

        Caller must hold ``self._lock`` (or be ``__init__``, before the
        handle is shared).
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self.shard_id, self._boot, self._hook,
                  self._wal_hook),
            name=f"repro-shard-{self.shard_id}", daemon=True)
        proc.start()
        child_conn.close()
        self._conn, self._proc = parent_conn, proc
        self._req_seq = _BOOT_REQ_ID
        reply = self._recv_locked(
            time.monotonic() + self._config.boot_timeout_s, _BOOT_REQ_ID)
        if reply[1] != "ok":
            self._teardown_locked()
            raise ShardUnavailableError(
                f"shard {self.shard_id} failed to boot: {reply[2]}")

    def _teardown_locked(self) -> None:
        """Close the pipe and reap the process. Caller must hold
        ``self._lock``."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._conn = None
        self._proc = None

    def restart(self) -> None:
        """Respawn the worker from its current boot spec.

        An explicit operator action (tests, ``shard-tool``, admin): the
        circuit breaker is replaced by a fresh closed one, so the first
        request after a successful restart goes straight through instead
        of waiting out the open window.
        """
        with self._lock:
            self._teardown_locked()
            self._spawn_locked()
            self.breaker = self._new_breaker()

    def close(self) -> None:
        """Best-effort graceful shutdown, then teardown."""
        with self._lock:
            if self._conn is not None and self._proc is not None \
                    and self._proc.is_alive():
                try:
                    self._req_seq += 1
                    self._conn.send((self._req_seq, "shutdown", None))
                    self._recv_locked(time.monotonic() + 2.0, self._req_seq)
                except (ShardUnavailableError, OSError):
                    pass  # dying worker: terminate below either way
            self._teardown_locked()

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._proc is not None and self._proc.is_alive()

    # --------------------------------------------------------------- requests

    def _recv_locked(self, deadline: float, want_req_id: int):
        """Wait for the reply to ``want_req_id``, draining stale replies.

        Caller must hold ``self._lock``. Raises
        :class:`ShardUnavailableError` on timeout or a dead worker
        (without touching the breaker — the caller decides).
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardUnavailableError(
                    f"shard {self.shard_id} did not answer in time")
            try:
                ready = _mp_wait([self._conn, self._proc.sentinel],
                                 timeout=remaining)
                if self._conn not in ready:
                    if self._proc.sentinel in ready:
                        raise EOFError("worker process died")
                    continue  # timed out this round; loop re-checks
                reply = self._conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise ShardUnavailableError(
                    f"shard {self.shard_id} worker died: {exc}") from exc
            if reply[0] < want_req_id:
                continue  # stale reply from a timed-out earlier call
            return reply

    def call(self, op: str, payload, timeout: Optional[float] = None):
        """One request/reply round-trip with the worker.

        Raises :class:`ShardUnavailableError` when the worker is down,
        its breaker is open, or the reply misses ``timeout`` — those
        count as breaker failures. A worker-side exception raises
        :class:`ShardRequestError` and does *not* trip the breaker.
        """
        with self._lock:
            if self._conn is None or self._proc is None:
                raise ShardUnavailableError(
                    f"shard {self.shard_id} is down")
            if not self.breaker.allow():
                raise ShardUnavailableError(
                    f"shard {self.shard_id} circuit breaker is open")
            self._req_seq += 1
            req_id = self._req_seq
            deadline = time.monotonic() + (timeout if timeout is not None
                                           else 3600.0)
            try:
                self._conn.send((req_id, op, payload))
                reply = self._recv_locked(deadline, req_id)
            except ShardUnavailableError:
                self._failures += 1
                self.breaker.record_failure()
                if self._proc is not None and not self._proc.is_alive():
                    self._teardown_locked()
                raise
            except (BrokenPipeError, OSError) as exc:
                self._failures += 1
                self.breaker.record_failure()
                self._teardown_locked()
                raise ShardUnavailableError(
                    f"shard {self.shard_id} pipe broke: {exc}") from exc
            _, status, result, busy = reply
            self._requests += 1
            self._busy_s += float(busy)
            self.breaker.record_success()
        if status != "ok":
            raise ShardRequestError(f"shard {self.shard_id}: {result}")
        return result

    def stats(self) -> Dict:
        with self._lock:
            return {"shard": self.shard_id,
                    "alive": (self._proc is not None
                              and self._proc.is_alive()),
                    "requests": self._requests,
                    "transport_failures": self._failures,
                    "busy_seconds": self._busy_s,
                    "breaker": self.breaker.stats()}

    def busy_seconds(self) -> float:
        """Cumulative worker-side busy time (critical-path bench input)."""
        with self._lock:
            return self._busy_s


class _ShardTarget(SearchTarget):
    """Scatter-gather :class:`SearchTarget` over N shard worker processes.

    Owns what only a sharded tier has: the forked workers and their
    standbys, failover/promotion, partial answers,
    :class:`PartialWriteError`, and the global id space. Constructing
    it forks every worker, so it must happen before the owning process
    starts a thread (see :class:`ShardedService`).
    """

    def __init__(self, partition_dir: PathLike, config: ShardedConfig,
                 request_hooks: Optional[Dict],
                 durable_dir: Optional[PathLike],
                 wal_hooks: Optional[Dict]):
        self.config = config
        self.partition_dir = Path(partition_dir)
        self.durable_dir = None if durable_dir is None else Path(durable_dir)
        if self.config.replicas > 0 and self.durable_dir is None:
            raise ConfigurationError(
                "replicas require durable_dir: a standby tails the "
                "primary's WAL, which only exists on a durable tier")
        manifest = load_partition_manifest(self.partition_dir)
        self.num_shards = int(manifest["num_shards"])
        self.dim = int(manifest["embedding_dim"])
        self._ring = HashRing(self.num_shards,
                              vnodes=int(manifest["vnodes"]))
        hooks, wal_hooks = request_hooks or {}, wal_hooks or {}
        # Workers MUST fork before any coordinator thread exists
        # (micro-batcher, scatter pool): forking a threaded process can
        # deadlock the child on locks held by threads that don't exist
        # there.
        self._ctx = multiprocessing.get_context("fork")
        self._shards: List[_ShardHandle] = []
        self._replicas: Dict[int, List[_ShardHandle]] = {
            s: [] for s in range(self.num_shards)}
        try:
            for shard_id in range(self.num_shards):
                self._shards.append(self._spawn_handle(
                    shard_id, "primary", hooks.get(shard_id),
                    wal_hooks.get(shard_id)))
            for shard_id in range(self.num_shards):
                for _ in range(self.config.replicas):
                    self._replicas[shard_id].append(
                        self._spawn_handle(shard_id, "replica"))
        except Exception:
            for handle in self._all_handles():
                handle.close()
            raise
        self._lock = threading.Lock()
        self._next_id = int(manifest["next_id"])
        self._count = int(manifest["total_count"])
        self._failover_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, self.num_shards),
            thread_name_prefix="repro-scatter")
        if self.durable_dir is not None:
            # WAL replay may have advanced shards past the partition
            # manifest's id space; adopt the workers' recovered state.
            self._resync_id_space()
        self.registry = reg = MetricsRegistry()
        self._m_partial = reg.counter(
            "repro_partial_answers_total",
            "Top-k answers missing at least one shard.")
        self._m_shard_requests = reg.counter(
            "repro_shard_requests_total", "Per-shard requests issued.")
        self._m_shard_failures = reg.counter(
            "repro_shard_failures_total",
            "Per-shard transport failures (dead worker, timeout).")
        self._m_reloads = reg.counter(
            "repro_reloads_total", "Successful generation flips.")
        self._m_failovers = reg.counter(
            "repro_failovers_total",
            "Replica promotions after a primary failure.")
        self._h_scatter = reg.histogram(
            "repro_scatter_seconds",
            "Fan-out + merge time per top-k (excludes encoding).")
        self._g_breaker = reg.gauge(
            "repro_shard_breaker_open",
            "1 when the shard's circuit breaker is open/half-open.")
        self._g_fsync = reg.gauge(
            "repro_wal_fsync_seconds",
            "Duration of the shard's most recent WAL fsync.")

    # ---------------------------------------------------- durability plumbing

    def _boot_spec(self, partition_dir: Path, role: str = "primary") -> Dict:
        """The boot dict every worker (primary and replica) forks with."""
        return {"partition_dir": str(partition_dir), "role": role,
                "index": self.config.index, "nlist": self.config.nlist,
                "nprobe": self.config.nprobe,
                "durable_dir": (None if self.durable_dir is None
                                else str(self.durable_dir)),
                "fsync_window_ms": self.config.fsync_window_ms,
                "wal_segment_bytes": self.config.wal_segment_bytes}

    def _all_handles(self) -> List[_ShardHandle]:
        # Runs without _failover_lock on purpose: it is also the cleanup
        # path of __init__, which can fail before that lock exists.
        # Promotion swaps list slots atomically (CPython) and handles
        # close idempotently, so a stale snapshot here is harmless.
        # repro: disable=lockset
        handles = list(self._shards)
        for standby in self._replicas.values():
            handles.extend(standby)
        return handles

    def _spawn_handle(self, shard_id: int, role: str, hook=None,
                      wal_hook=None) -> _ShardHandle:
        """Fork one worker for ``shard_id``.

        Replacement standbys are forked after coordinator threads
        exist; that is safe *only* because a worker re-execs nothing and
        takes no coordinator locks — the initial fleet is still forked
        before any thread starts, and post-thread spawns reuse the same
        (fork) path the ``restart_shard`` admin action already exercises.
        """
        return _ShardHandle(shard_id,
                            self._boot_spec(self.partition_dir, role),
                            self.config, self._ctx, hook, wal_hook)

    def _resync_id_space(self) -> None:
        """Adopt recovered per-shard state into the coordinator's counters.

        After WAL replay a shard may hold rows (and a ``next_id``
        high-water mark) the partition manifest has never heard of; the
        global id space must start past every shard's recovered ids or a
        fresh insert would collide with a recovered one.
        """
        infos: List[Dict] = []
        for handle in self._shards:
            try:
                infos.append(handle.call("ping", None,
                                         self.config.boot_timeout_s))
            except (ShardUnavailableError, ShardRequestError) as exc:
                _LOG.warning("id-space resync skipped shard %d: %s",
                             handle.shard_id, exc)
        with self._lock:
            self._next_id = max([self._next_id]
                                + [int(i["next_id"]) for i in infos])
            if len(infos) == self.num_shards:
                self._count = sum(int(i["count"]) for i in infos)

    def _tail_replicas(self, shard_id: int) -> None:
        """Nudge the shard's standbys to apply newly acked WAL records."""
        for replica in self._replicas.get(shard_id, ()):
            try:
                replica.call("catch_up", None, self.config.request_timeout_s)
            except (ShardUnavailableError, ShardRequestError) as exc:
                _LOG.warning("replica catch-up failed on shard %d: %s",
                             shard_id, exc)

    def _promote(self, shard_id: int, failed: _ShardHandle) -> None:
        """Promote a standby to primary after the primary failed.

        Serialised under ``_failover_lock``; racing scatter legs that
        all saw the same dead primary are detected by handle identity —
        promotion swaps the handle, so a ``failed`` that is no longer
        installed means another leg already promoted. (Liveness checks
        race here: right after SIGKILL ``Process.is_alive()`` can still
        report True, and one failure leaves the breaker closed.) The old
        primary's handle is closed (worker terminated) *before* the
        standby takes over the WAL so the log never has two appenders.
        """
        with self._failover_lock:
            current = self._shards[shard_id]
            if current is not failed:
                return  # another caller already promoted
            standbys = self._replicas.get(shard_id, [])
            if not standbys:
                raise ShardUnavailableError(
                    f"shard {shard_id} is down and has no replica")
            current.close()
            replica = standbys.pop(0)
            try:
                info = replica.call("promote", None,
                                    self.config.boot_timeout_s)
            except (ShardUnavailableError, ShardRequestError) as exc:
                replica.close()
                raise ShardUnavailableError(
                    f"shard {shard_id}: replica promotion failed: "
                    f"{exc}") from exc
            replica._boot["role"] = "primary"
            replica._hook = current._hook
            self._shards[shard_id] = replica
            self._m_failovers.inc()
            with self._lock:
                self._next_id = max(self._next_id, int(info["next_id"]))
            _LOG.warning(
                "shard %d: promoted replica (count=%d, applied_lsn=%d)",
                shard_id, info["count"], info["durability"]["applied_lsn"])
            try:
                standbys.append(self._spawn_handle(shard_id, "replica"))
            except (ShardUnavailableError, OSError) as exc:
                _LOG.warning("shard %d: could not respawn a replacement "
                             "replica: %s", shard_id, exc)

    def _shard_call(self, shard_id: int, op: str, payload,
                    timeout: Optional[float]):
        """One shard request with transparent failover.

        On a transport failure the coordinator promotes a standby (when
        one exists) and retries the request exactly once — callers see a
        complete answer instead of a partial/failed one. Mutation retry
        is safe because shard mutations are idempotent by id.
        """
        handle = self._shards[shard_id]
        try:
            return handle.call(op, payload, timeout)
        except ShardUnavailableError:
            if not self._replicas.get(shard_id):
                raise
            self._promote(shard_id, handle)
            return self._shards[shard_id].call(op, payload, timeout)

    # ------------------------------------------------------------- query path

    def _call_timeout(self, deadline: Optional[float]) -> float:
        limit = self.config.request_timeout_s
        if deadline is None:
            return limit
        return max(0.0, min(limit, deadline - time.monotonic()))

    def _scatter(self, op: str, payload, deadline: Optional[float],
                 shard_ids: Optional[Sequence[int]] = None
                 ) -> "Tuple[Dict[int, object], List[int]]":
        """Fan one request to shards in parallel; returns (results, failed).

        ``results`` maps shard id -> worker result for every shard that
        answered; ``failed`` lists shards that were unavailable
        (transport failures only — a worker-side exception propagates as
        :class:`ShardRequestError`)."""
        targets = (range(self.num_shards) if shard_ids is None
                   else list(shard_ids))
        timeout = self._call_timeout(deadline)
        try:
            futures = {s: self._pool.submit(self._shard_call, s, op, payload,
                                            timeout)
                       for s in targets}
        except RuntimeError as exc:  # close() shut the pool down
            raise ServiceClosedError("sharded service is closed") from exc
        results: Dict[int, object] = {}
        failed: List[int] = []
        error: Optional[ShardRequestError] = None
        for s, fut in futures.items():
            self._m_shard_requests.inc()
            try:
                results[s] = fut.result()
            except ShardUnavailableError:
                self._m_shard_failures.inc()
                failed.append(s)
            except ShardRequestError as exc:
                error = exc
        if error is not None:
            raise error
        return results, failed

    def search(self, embedding, k, deadline):
        """Encode-free half of a top-k: fan out, merge by ``(distance,
        id)``; shards that dropped out make the answer ``partial``."""
        start = time.monotonic()
        results, failed = self._scatter("search", (embedding, k), deadline)
        if not results:
            raise ShardUnavailableError(
                f"all {self.num_shards} shards unavailable")
        ids, distances = merge_top_k(list(results.values()), k)
        self._h_scatter.observe(time.monotonic() - start)
        if failed:
            self._m_partial.inc()
            _LOG.warning("partial top-k: shards %s unavailable", failed)
        return ids, distances, bool(failed)

    # --------------------------------------------------------------- mutation

    def _route(self, op: str, ids: List[int], payload_for,
               timeout: float) -> "Tuple[List[Dict], List[int]]":
        """Send each owning shard its slice of an id batch, serially.

        ``payload_for(positions)`` builds one shard's payload from its
        positions in ``ids``. Returns ``(worker results, unreachable
        shards)``; shards that applied their slice have already nudged
        their standbys.
        """
        results: List[Dict] = []
        failed: List[int] = []
        for shard_id, positions in group_by_shard(self._ring, ids).items():
            try:
                results.append(self._shard_call(
                    shard_id, op, payload_for(positions), timeout))
            except ShardUnavailableError:
                self._m_shard_failures.inc()
                failed.append(shard_id)
                continue
            self._tail_replicas(shard_id)
        return results, failed

    def insert_embeddings(self, embeddings, trajectories, deadline):
        """Each row routes to the single shard owning its (coordinator-
        assigned) id on the hash ring."""
        with self._lock:
            assigned = list(range(self._next_id,
                                  self._next_id + embeddings.shape[0]))
            self._next_id += embeddings.shape[0]
        results, failed = self._route(
            "insert", assigned,
            lambda positions: ([assigned[p] for p in positions],
                               embeddings[positions]),
            self._call_timeout(deadline))
        inserted = sum(int(r["count"]) for r in results)
        with self._lock:
            self._count += inserted
        if failed:
            # Only count durably applied sub-batches; the caller can
            # retry the whole batch — re-sent ids no-op at the shard.
            raise PartialWriteError(
                f"insert lost rows owned by unavailable shard(s) {failed} "
                f"({inserted} of {len(assigned)} rows inserted)",
                applied_ids=[int(i) for r in results for i in r["applied"]])
        return assigned

    def delete(self, ids):
        results, failed = self._route(
            "delete", ids, lambda positions: [ids[p] for p in positions],
            self.config.request_timeout_s)
        removed = sum(int(r["removed"]) for r in results)
        with self._lock:
            self._count -= removed
        if failed:
            raise PartialWriteError(
                f"delete could not reach shard(s) {failed} "
                f"({removed} rows removed elsewhere)",
                applied_ids=[int(i) for r in results for i in r["ids"]])
        return removed

    # ----------------------------------------------------------- maintenance

    def compact(self):
        """Fold pending inserts/tombstones on every shard's index.

        Unavailable shards are omitted (compaction is advisory; they
        compact on restart). On a durable tier this also folds each
        shard's live store into a fresh checksummed snapshot generation
        and truncates its WAL; replicas are caught up *first* so
        truncation cannot strand them mid-log (a lagging replica that
        still misses records rebuilds from the new snapshot via the
        WAL-gap path).
        """
        if self.durable_dir is not None:
            for shard_id in range(self.num_shards):
                self._tail_replicas(shard_id)
        results, _ = self._scatter("compact", None, None)
        return {s: bool(v["compacted"]) for s, v in results.items()}

    def reload(self, partition_dir: Optional[PathLike]) -> Dict:
        """Two-phase flip of every worker onto ``partition_dir`` (default:
        re-read the current one); see :meth:`ShardedService.reload`."""
        with self._failover_lock:
            current_partition = self.partition_dir
        new_partition = (current_partition if partition_dir is None
                         else Path(partition_dir))
        try:
            manifest = load_partition_manifest(new_partition)
        except CorruptArtifactError as exc:
            raise ReloadError(
                f"cannot reload from {new_partition}: {exc}") from exc
        if int(manifest["num_shards"]) != self.num_shards:
            raise ReloadError(
                f"cannot reload across shard counts ({manifest['num_shards']}"
                f" != {self.num_shards}); run shard-tool split + restart")
        if int(manifest["embedding_dim"]) != self.dim:
            raise ReloadError(
                f"new partitions have embedding_dim "
                f"{manifest['embedding_dim']}, serving {self.dim}")
        boot = self._boot_spec(new_partition)

        prepared, failed = self._scatter("prepare", boot, None)
        if failed or len(prepared) < self.num_shards:
            self._scatter("abort", None, None,
                          shard_ids=sorted(prepared))
            raise ReloadError(
                f"prepare failed on shard(s) "
                f"{sorted(set(range(self.num_shards)) - set(prepared))}; "
                f"old generation keeps serving")

        activated, failed = self._scatter("activate", None, None)
        for shard_id in failed:
            # A worker that died between prepare and activate: restart
            # it straight onto the new generation so the tier converges.
            handle = self._shards[shard_id]
            handle._boot = boot
            try:
                handle.restart()
                activated[shard_id] = {"restarted": True}
            except ShardUnavailableError:
                _LOG.warning("shard %d unavailable after reload; it will "
                             "serve the new generation once restarted",
                             shard_id)
        for handle in self._shards:
            handle._boot = dict(boot)
        for shard_id, standbys in self._replicas.items():
            for replica in standbys:
                # Standbys tail the old generation's WAL, which the new
                # base tag just invalidated: restart them onto the new
                # generation (a standby restart never blocks serving).
                replica._boot = {**boot, "role": "replica"}
                try:
                    replica.restart()
                except ShardUnavailableError as exc:
                    _LOG.warning("shard %d replica restart after reload "
                                 "failed: %s", shard_id, exc)
        with self._failover_lock:
            # A failover racing the reload must spawn its standby from
            # the *new* generation's boot spec.
            self.partition_dir = new_partition
        with self._lock:
            self._next_id = max(self._next_id, int(manifest["next_id"]))
            self._count = int(manifest["total_count"])
        self._m_reloads.inc()
        return {"partition_dir": str(new_partition),
                "activated": sorted(activated),
                "total_count": int(manifest["total_count"])}

    def restart_shard(self, shard_id: int) -> Dict:
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no shard {shard_id}")
        self._shards[shard_id].restart()
        if self.durable_dir is not None:
            self._resync_id_space()
        return self._shards[shard_id].stats()

    # ------------------------------------------------------------- lifecycle

    def readiness_checks(self):
        """Every shard up and answering."""
        shards = {f"shard_{h.shard_id}_alive": h.alive for h in self._shards}
        return {"all_shards_alive": all(shards.values()), **shards}

    def size(self):
        """Total rows across all shards (coordinator-tracked)."""
        with self._lock:
            return self._count

    def stats(self):
        shard_stats = [h.stats() for h in self._shards]
        with self._lock:
            size, next_id = self._count, self._next_id
        worker_stats, _ = self._scatter("stats", None, None)
        return {
            "store": {"size": size, "next_id": next_id,
                      "sharding": {
                          "num_shards": self.num_shards,
                          "ring_vnodes": self._ring.vnodes,
                          "index": self.config.index,
                          "shards": shard_stats,
                          "workers": {str(s): w for s, w in
                                      sorted(worker_stats.items())},
                      }},
            "durability": {
                "durable_dir": (None if self.durable_dir is None
                                else str(self.durable_dir)),
                "fsync_window_ms": self.config.fsync_window_ms,
                "replicas": self.config.replicas,
                "failovers": self._m_failovers.value,
                "replica_handles": {
                    str(s): [r.stats() for r in standbys]
                    for s, standbys in sorted(self._replicas.items())
                    if standbys},
            },
        }

    def refresh_gauges(self):
        for handle in self._shards:
            is_open = handle.breaker.state != _BREAKER_CLOSED
            self._g_breaker.set(1.0 if is_open else 0.0,
                                shard=str(handle.shard_id))
        if self.durable_dir is None:
            return
        try:
            worker_stats, _ = self._scatter("stats", None, None)
        except (ReproError, OSError) as exc:
            _LOG.warning("metrics: worker stats scatter failed: %s", exc)
            return
        for s, report in worker_stats.items():
            wal = (report.get("durability") or {}).get("wal") or {}
            if "last_fsync_seconds" in wal:
                self._g_fsync.set(float(wal["last_fsync_seconds"]),
                                  shard=str(s))

    def close(self):
        """Scatter pool first, then every worker (standbys included)."""
        self._pool.shutdown(wait=True)
        for handle in self._all_handles():
            handle.close()


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
    """:class:`SimilarityService` over N shard worker processes.

    The whole request path — validation, sanitize mode, admission,
    deadlines, the result cache, breaker-guarded micro-batched encoding,
    ``stats``/``readiness``/metrics, ``close`` — is the inherited one;
    this class only builds the scatter-gather target and adds the
    operations a single store has no use for.

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
        the pre-durability behaviour: mutations live only in worker
        memory and restarts rebuild from the partition files.
    wal_hooks:
        ``{shard_id: hook}`` crash-injection hooks fired inside the
        primary's WAL append path (see
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
        target = _ShardTarget(partition_dir, config, request_hooks,
                              durable_dir, wal_hooks)
        try:
            self.bundle_dir = None if bundle_dir is None else Path(bundle_dir)
            super().__init__(_load_encoder(self.bundle_dir, target.dim),
                             target, config)
        except Exception:
            target.close()  # primaries *and* standbys: nothing survives
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
