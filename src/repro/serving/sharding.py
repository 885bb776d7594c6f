"""The search target: one coordinator over N shards, in process or forked.

:class:`~repro.serving.service.SimilarityService` is the only request
pipeline and ``_ShardTarget`` is the only thing it searches and mutates.
Each shard is a :class:`~repro.serving.shard_worker._ShardWorker` behind
a handle, and the handle kind follows from what the caller passes: a
**store** is one shard called in process (``_InProcessHandle``: no
fork, no pipe, no scatter pool), a **partition directory** is one
forked worker per consistent-hash partition (``_ShardHandle``: pipe +
process + circuit breaker; see :mod:`repro.core.partition`). Every
shape then behaves the same way:

* **Queries** arrive as the *embedding* the pipeline already encoded,
  fan out to every shard (in parallel when there are several), and
  merge per-shard top-k with the deterministic ``(distance, id)`` order
  (:func:`~repro.serving.router.merge_top_k`) — so an answer is
  id-identical to the single-store exact scan. Each reply carries the
  rows its shard scanned, which the target counts.
* **Mutations** route to exactly one shard by hashing the trajectory id
  on the ring; the coordinator owns the global id space. The worker's
  ``_mutate`` is the one writer of every served store, so with a
  ``durable_dir`` (:mod:`repro.serving.wal`) every shape logs, against
  the base bytes it booted from, before it acknowledges.
* **Failures** are per-shard: each forked worker sits behind its own
  :class:`~repro.resilience.CircuitBreaker`, and a dead/slow/tripped
  shard drops out of the scatter — the query still answers from the
  surviving shards, flagged ``partial=True`` — until every shard is
  unavailable (:class:`~repro.exceptions.ShardUnavailableError`). With a
  ``durable_dir`` a shard whose worker *died* is respawned from snapshot
  + WAL by the request that found it dead, and that request is re-sent
  once; a slow or tripped shard is alive and still drops out.
* **Reload** (forked shards only) is zero-downtime and two-phase:
  ``prepare`` loads the new partition generation in every worker
  *alongside* the old one, then ``activate`` flips each worker; any
  prepare failure aborts the whole reload and the old generation keeps
  serving.

Forked workers speak ``(req_id, op, payload)`` down and ``(req_id,
status, result, busy_s)`` up a pipe (see :func:`_shard_worker_main`),
and are forked *before* the coordinator starts any thread. The
fault-injection seams (``request_hooks``, ``wal_hooks``) are described
on ``ShardedService``.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as _mp_wait
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..core.partition import (HashRing, load_partition_manifest,
                              partition_tags)
from ..core.store import EmbeddingStore
from ..exceptions import (ConfigurationError, CorruptArtifactError,
                          PartialWriteError, ReloadError,
                          ReproError, ServiceClosedError,
                          ShardUnavailableError)
from ..resilience.breaker import CLOSED as _BREAKER_CLOSED
from ..resilience.breaker import CircuitBreaker
from .metrics import MetricsRegistry
from .router import group_by_shard, merge_top_k
from .shard_worker import _BOOT_REQ_ID, _ShardWorker, _shard_worker_main

if TYPE_CHECKING:
    from .service import ShardedConfig

PathLike = Union[str, Path]

__all__ = ["ShardRequestError"]

_LOG = logging.getLogger(__name__)

#: Search counters that add up across shards (rows held, work done).
_ADDITIVE_SEARCH_STATS = frozenset({
    "candidates_scanned", "cells_probed", "ntotal", "live", "pending",
    "tombstones"})


#: The reply key that carries the shard's row count, for each op whose
#: reply has one.
_ROWS_KEY = {"insert": "size", "delete": "size", "activate": "count",
             "ping": "count", "stats": "count"}


class ShardRequestError(ReproError):
    """A shard worker processed the request but raised while doing so.

    Transport-level failures (dead worker, timeout, open breaker) raise
    :class:`~repro.exceptions.ShardUnavailableError` instead and count
    against the shard's circuit breaker; this error does not — the
    worker is healthy, the request was bad.
    """


class _WorkerDied(ShardUnavailableError):
    """The worker process is gone — EOF, its sentinel or a broken pipe —
    unlike a timeout or an open breaker, which leave it alive.
    ``generation`` is the spawn that died."""

    def __init__(self, message: str, generation: int):
        super().__init__(message)
        self.generation = generation


# --------------------------------------------------------------- handles


class _ShardHandle:
    """Parent-side proxy for one shard worker: pipe + process + breaker.

    Thread-safe: ``call`` serialises requests to the worker under the
    handle lock (the worker itself is a serial loop), tracks the
    worker's cumulative busy time and the shard's row count as last
    reported, and converts transport failures into
    :class:`~repro.exceptions.ShardUnavailableError` while counting
    them against the shard's circuit breaker. A worker seen dead is
    reaped at once and the failure raised as :class:`_WorkerDied`;
    ``generation`` counts spawns.
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
        self._rows = 0
        self._closed = False
        self.generation = 0
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
        self.generation += 1
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, parent_conn, self.shard_id, self._boot,
                  self._hook, self._wal_hook),
            name=f"repro-shard-{self.shard_id}", daemon=True)
        proc.start()
        child_conn.close()
        self._conn, self._proc = parent_conn, proc
        self._req_seq = _BOOT_REQ_ID
        try:
            reply = self._recv_locked(
                time.monotonic() + self._config.boot_timeout_s, _BOOT_REQ_ID)
        except ShardUnavailableError:
            self._teardown_locked()
            raise
        if reply[1] != "ok":
            self._teardown_locked()
            raise ShardUnavailableError(
                f"shard {self.shard_id} failed to boot: {reply[2]}")
        self._rows = int(reply[2]["count"])

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

    def restart(self, generation: Optional[int] = None) -> bool:
        """Respawn the worker from its current boot spec; with
        ``generation``, only if that spawn is still the current one.
        Returns whether it respawned.

        The circuit breaker is replaced by a fresh closed one, so the
        first request after a successful restart goes straight through
        instead of waiting out the open window. A respawn after the
        coordinator started threads is safe only because a worker
        re-execs nothing and takes no coordinator lock.
        """
        with self._lock:
            if generation is not None and generation != self.generation:
                return False
            self._teardown_locked()
            self._spawn_locked()
            self.breaker = self._new_breaker()
            return True

    def close(self) -> None:
        """Best-effort graceful shutdown, then teardown."""
        with self._lock:
            self._closed = True
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
        :class:`ShardUnavailableError` on timeout and :class:`_WorkerDied`
        on a dead worker (without touching the breaker — the caller
        decides).
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
            except (EOFError, OSError) as exc:
                raise _WorkerDied(f"shard {self.shard_id} worker died: {exc}",
                                  self.generation) from exc
            if reply[0] < want_req_id:
                continue  # stale reply from a timed-out earlier call
            return reply

    def call(self, op: str, payload, timeout: Optional[float] = None):
        """One request/reply round-trip with the worker.

        Raises :class:`ShardUnavailableError` when the worker is down,
        its breaker is open, or the reply misses ``timeout`` — those
        count as breaker failures — and :class:`_WorkerDied` when the
        worker is dead. A worker-side exception raises
        :class:`ShardRequestError` and does *not* trip the breaker.
        """
        with self._lock:
            if self._conn is None or self._proc is None:
                if self._closed:
                    raise ShardUnavailableError(
                        f"shard {self.shard_id} is closed")
                raise _WorkerDied(f"shard {self.shard_id} is down",
                                  self.generation)
            if not self.breaker.allow():
                raise ShardUnavailableError(
                    f"shard {self.shard_id} circuit breaker is open")
            self._req_seq += 1
            req_id = self._req_seq
            deadline = time.monotonic() + (timeout if timeout is not None
                                           else 3600.0)
            try:
                try:
                    self._conn.send((req_id, op, payload))
                except OSError as exc:
                    raise _WorkerDied(
                        f"shard {self.shard_id} pipe broke: {exc}",
                        self.generation) from exc
                reply = self._recv_locked(deadline, req_id)
            except ShardUnavailableError as exc:
                self._failures += 1
                self.breaker.record_failure()
                if isinstance(exc, _WorkerDied):
                    self._teardown_locked()
                raise
            _, status, result, busy = reply
            self._requests += 1
            self._busy_s += float(busy)
            self.breaker.record_success()
            if status == "ok" and op in _ROWS_KEY:
                self._rows = int(result[_ROWS_KEY[op]])
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

    def rows(self) -> int:
        """The shard's row count as its worker last reported it."""
        with self._lock:
            return self._rows


class _InProcessHandle:
    """One shard on the calling thread: the worker's op table under one
    lock. :class:`_ShardHandle`'s surface without a transport, so with no
    timeout and no breaker; a worker-side exception is a
    :class:`ShardRequestError`, a call after :meth:`close` a
    :class:`~repro.exceptions.ServiceClosedError`."""

    breaker = None  # nothing between caller and worker can fail

    def __init__(self, worker: _ShardWorker):
        self.shard_id = worker.shard_id
        self.worker = worker
        self._lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._busy_s = 0.0  # CPU time of the calling threads

    def call(self, op: str, payload, timeout: Optional[float] = None):
        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"shard {self.shard_id} is closed")
            start = time.thread_time()
            try:
                return self.worker.handle(op, payload)
            except Exception as exc:
                raise ShardRequestError(
                    f"shard {self.shard_id}: {type(exc).__name__}: "
                    f"{exc}") from exc
            finally:
                self._requests += 1
                self._busy_s += time.thread_time() - start

    @property
    def alive(self) -> bool:
        return self.stats()["alive"]

    def busy_seconds(self) -> float:
        return self.stats()["busy_seconds"]

    def rows(self) -> int:
        with self._lock:
            return len(self.worker.store)

    def stats(self) -> Dict:
        with self._lock:
            return {"shard": self.shard_id, "alive": not self._closed,
                    "requests": self._requests, "transport_failures": 0,
                    "busy_seconds": self._busy_s, "breaker": None}

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self.worker.close()


# ---------------------------------------------------------------- target


def _merged_search_stats(searches: List[Dict]) -> Dict:
    """N shards' search counters as one backend's: rows held and work
    done add up, every query reaches every shard, and the settings
    (kind, nprobe, ...) are shard 0's. One shard's pass through as-is."""
    if not searches:
        return {}
    merged = dict(searches[0])
    for key in _ADDITIVE_SEARCH_STATS.intersection(merged):
        merged[key] = sum(s[key] for s in searches)
    merged["queries"] = max(s["queries"] for s in searches)
    return merged


class _ShardTarget:
    """The coordinator over N shards: what the pipeline searches and
    mutates.

    ``source`` picks the handle kind. An :class:`EmbeddingStore` becomes
    one in-process shard whose worker adopts it (``self.store``; a
    ``durable_dir`` then needs the ``base_tag`` of the bytes it was
    loaded from). A partition directory becomes one forked worker per
    partition. Owns the global id space, the merge, partial answers,
    :class:`PartialWriteError`, restarts and reload. Constructing a
    forked target forks every worker, so it must happen before the
    owning process starts a thread (see ``ShardedService``).
    """

    def __init__(self, source: Union[EmbeddingStore, PathLike],
                 config: "ShardedConfig",
                 durable_dir: Optional[PathLike] = None,
                 base_tag: Optional[str] = None,
                 request_hooks: Optional[Dict] = None,
                 wal_hooks: Optional[Dict] = None):
        self.config = config
        self.durable_dir = None if durable_dir is None else Path(durable_dir)
        if isinstance(source, EmbeddingStore):
            if self.durable_dir is not None and base_tag is None:
                raise ConfigurationError(
                    "durable_dir needs the base_tag of the on-disk bytes "
                    "the store was loaded from (from_bundle supplies it)")
            self.partition_dir = None
            worker = _ShardWorker(0, self._boot_spec(None, base_tag),
                                  store=source)
            self.store: Optional[EmbeddingStore] = worker.store
            self._shards: List = [_InProcessHandle(worker)]
            dim, vnodes = worker.store.embeddings.shape[1], 1
            next_id = worker.store.next_id
        else:
            self.partition_dir = Path(source)
            self.store = None
            manifest = load_partition_manifest(self.partition_dir)
            dim, vnodes = manifest["embedding_dim"], manifest["vnodes"]
            next_id = manifest["next_id"]
            hooks, wal_hooks = request_hooks or {}, wal_hooks or {}
            # Workers MUST fork before any coordinator thread exists
            # (micro-batcher, scatter pool): forking a threaded process
            # can deadlock the child on locks held by threads that don't
            # exist there.
            ctx = multiprocessing.get_context("fork")
            self._shards = []
            try:
                for shard_id, tag in enumerate(partition_tags(manifest)):
                    self._shards.append(_ShardHandle(
                        shard_id, self._boot_spec(self.partition_dir, tag),
                        config, ctx, hooks.get(shard_id),
                        wal_hooks.get(shard_id)))
            except Exception:
                for handle in self._shards:
                    handle.close()
                raise
        self.num_shards = len(self._shards)
        self.dim = int(dim)
        self._ring = HashRing(self.num_shards, vnodes=int(vnodes))
        self._lock = threading.Lock()
        self._next_id = int(next_id)
        # Serialises restarts with each other and with reload's swap of
        # the boot specs and partition_dir they respawn from.
        self._restart_lock = threading.Lock()
        self._reloading = False
        # One shard is always called inline (see _scatter).
        self._pool = (ThreadPoolExecutor(max_workers=self.num_shards,
                                         thread_name_prefix="repro-scatter")
                      if self.num_shards > 1 else None)
        if self.durable_dir is not None and self.store is None:
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
        self._m_restarts = reg.counter(
            "repro_shard_restarts_total",
            "Dead durable shards respawned from snapshot + WAL by the "
            "request that found them dead.")
        self._m_candidates = reg.counter(
            "repro_search_candidates_total",
            "Store rows scanned across all top-k searches.")
        self._h_candidates = reg.histogram(
            "repro_topk_candidates",
            "Store rows scanned per top-k query (ANN probes a fraction "
            "of the database; exact scans all of it).",
            buckets=(10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0))
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

    def _boot_spec(self, partition_dir: Optional[Path],
                   base_tag: Optional[str]) -> Dict:
        """The boot dict every worker starts with."""
        return {"partition_dir": (None if partition_dir is None
                                  else str(partition_dir)),
                "base_tag": base_tag,
                "index": self.config.index, "nlist": self.config.nlist,
                "nprobe": self.config.nprobe,
                "durable_dir": (None if self.durable_dir is None
                                else str(self.durable_dir)),
                "wal_segment_bytes": self.config.wal_segment_bytes}

    def _resync_id_space(self) -> None:
        """Start the global id space past every shard's recovered ids.

        After WAL replay a shard may hold ids (and a ``next_id``
        high-water mark) the partition manifest has never heard of; a
        fresh insert must not collide with a recovered one.
        """
        next_ids: List[int] = []
        for handle in self._shards:
            try:
                next_ids.append(int(handle.call(
                    "ping", None, self.config.boot_timeout_s)["next_id"]))
            except (ShardUnavailableError, ShardRequestError) as exc:
                _LOG.warning("id-space resync skipped shard %d: %s",
                             handle.shard_id, exc)
        with self._lock:
            self._next_id = max([self._next_id] + next_ids)

    def _shard_call(self, shard_id: int, op: str, payload,
                    timeout: Optional[float]):
        """One shard request; on a durable target, a dead worker is
        respawned from snapshot + WAL and the request re-sent once.

        Only death restarts: a worker that timed out or sits behind an
        open breaker is alive and the failure propagates. Callers racing
        on one death restart it once — the first respawns the generation
        that died, the rest find a newer one and just retry. Re-sending a
        mutation is safe because shard mutations are idempotent by id.
        During a reload a death stays a failure: a respawn could boot
        the old generation and lose the staged one, and reload converges
        the shards it finds dead itself.
        """
        handle = self._shards[shard_id]
        try:
            return handle.call(op, payload, timeout)
        except _WorkerDied as died:
            if self.durable_dir is None:
                raise
            with self._restart_lock:
                if self._reloading:
                    raise
                if handle.restart(died.generation):
                    self._m_restarts.inc()
                    _LOG.warning("shard %d died; respawned from snapshot "
                                 "+ WAL: %s", shard_id, died)
            return handle.call(op, payload, timeout)

    # ------------------------------------------------------------- query path

    def _call_timeout(self, deadline: Optional[float]) -> float:
        limit = self.config.request_timeout_s
        if deadline is None:
            return limit
        return max(0.0, min(limit, deadline - time.monotonic()))

    def _to_every_shard(self, payload=None) -> Dict[int, object]:
        return dict.fromkeys(range(self.num_shards), payload)

    def _scatter(self, op: str, payloads: Dict[int, object],
                 deadline: Optional[float]
                 ) -> "Tuple[Dict[int, object], List[int]]":
        """Send ``payloads[s]`` to each shard ``s``; returns (results,
        failed).

        ``results`` maps shard id -> worker result for every shard that
        answered; ``failed`` lists shards that were unavailable
        (transport failures only — a worker-side exception propagates as
        :class:`ShardRequestError`). Several shards are called in
        parallel; one is called on this thread.
        """
        timeout = self._call_timeout(deadline)
        if len(payloads) > 1:
            try:
                outcomes = {s: self._pool.submit(self._shard_call, s, op,
                                                 payload, timeout).result
                            for s, payload in payloads.items()}
            except RuntimeError as exc:  # close() shut the pool down
                raise ServiceClosedError("sharded service is closed") from exc
        else:
            outcomes = {s: functools.partial(self._shard_call, s, op,
                                             payload, timeout)
                        for s, payload in payloads.items()}
        results: Dict[int, object] = {}
        failed: List[int] = []
        error: Optional[ShardRequestError] = None
        for s, outcome in outcomes.items():
            self._m_shard_requests.inc()
            try:
                results[s] = outcome()
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
        id)``, count the rows the shards scanned; shards that dropped
        out make the answer ``partial``."""
        start = time.monotonic()
        results, failed = self._scatter(
            "search", self._to_every_shard((embedding, k)), deadline)
        if not results:
            raise ShardUnavailableError(
                f"all {self.num_shards} shards unavailable")
        ids, distances = merge_top_k(
            [(shard_ids, shard_distances) for shard_ids, shard_distances, _
             in results.values()], k)
        scanned = sum(int(reply[2]) for reply in results.values())
        if scanned > 0:
            self._m_candidates.inc(scanned)
            self._h_candidates.observe(scanned)
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
        shards)``.
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
        return results, failed

    def insert_embeddings(self, embeddings, deadline):
        """Insert ``(n, dim)`` rows; returns the ids assigned to them.

        Each row routes to the single shard owning its
        (coordinator-assigned) id on the hash ring."""
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
        if failed:
            # Only count durably applied sub-batches; the caller can
            # retry the whole batch — re-sent ids no-op at the shard.
            raise PartialWriteError(
                f"insert lost rows owned by unavailable shard(s) {failed} "
                f"({inserted} of {len(assigned)} rows inserted)",
                applied_ids=[int(i) for r in results for i in r["applied"]])
        return assigned

    def delete(self, ids):
        """Remove rows by id; returns how many were present."""
        results, failed = self._route(
            "delete", ids, lambda positions: [ids[p] for p in positions],
            self.config.request_timeout_s)
        removed = sum(int(r["removed"]) for r in results)
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
        and truncates its WAL.
        """
        results, _ = self._scatter("compact", self._to_every_shard(), None)
        return {s: bool(v["compacted"]) for s, v in results.items()}

    def reload(self, partition_dir: Optional[PathLike]) -> Dict:
        """Two-phase flip of every forked worker onto ``partition_dir``
        (default: re-read the current one); see ``ShardedService.reload``.
        """
        with self._restart_lock:
            current_partition = self.partition_dir
            self._reloading = True
        try:
            return self._flip(current_partition if partition_dir is None
                              else Path(partition_dir))
        finally:
            with self._restart_lock:
                self._reloading = False

    def _flip(self, new_partition: Path) -> Dict:
        """Check, prepare everywhere, activate everywhere, then restart
        the shards that died in between onto the new generation."""
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
        tags = partition_tags(manifest)
        boots = {s: self._boot_spec(new_partition, tag)
                 for s, tag in enumerate(tags)}

        prepared, failed = self._scatter("prepare", boots, None)
        if failed or len(prepared) < self.num_shards:
            self._scatter("abort", dict.fromkeys(sorted(prepared)), None)
            raise ReloadError(
                f"prepare failed on shard(s) "
                f"{sorted(set(range(self.num_shards)) - set(prepared))}; "
                f"old generation keeps serving")

        activated, failed = self._scatter("activate",
                                          self._to_every_shard(), None)
        with self._restart_lock:
            # From here on every respawn boots the new generation.
            for shard_id, handle in enumerate(self._shards):
                handle._boot = dict(boots[shard_id])
            self.partition_dir = new_partition
            for shard_id in failed:
                # A worker that died between prepare and activate: restart
                # it straight onto the new generation so the tier converges.
                try:
                    self._shards[shard_id].restart()
                    activated[shard_id] = {"restarted": True}
                except ShardUnavailableError:
                    _LOG.warning("shard %d unavailable after reload; it "
                                 "will serve the new generation once "
                                 "restarted", shard_id)
        with self._lock:
            self._next_id = max(self._next_id, int(manifest["next_id"]))
        self._m_reloads.inc()
        return {"partition_dir": str(new_partition),
                "activated": sorted(activated),
                "total_count": int(manifest["total_count"])}

    def restart_shard(self, shard_id: int) -> Dict:
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no shard {shard_id}")
        with self._restart_lock:
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
        """Total rows: the sum of what each shard last reported."""
        return sum(handle.rows() for handle in self._shards)

    def stats(self):
        """The target's sections of ``stats()``: ``store`` and
        ``durability``, with the same keys on every shape."""
        shard_stats = [h.stats() for h in self._shards]
        size = self.size()
        with self._lock:
            next_id = self._next_id
        worker_stats, _ = self._scatter("stats", self._to_every_shard(), None)
        return {
            "store": {"size": size, "next_id": next_id,
                      "search_backend": _merged_search_stats(
                          [w["search"] for _, w in
                           sorted(worker_stats.items())]),
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
                "restarts": self._m_restarts.value,
            },
        }

    def refresh_gauges(self):
        """Bring pull-style gauges up to date before a metrics render."""
        for handle in self._shards:
            if handle.breaker is None:
                continue
            is_open = handle.breaker.state != _BREAKER_CLOSED
            self._g_breaker.set(1.0 if is_open else 0.0,
                                shard=str(handle.shard_id))
        if self.durable_dir is None:
            return
        try:
            worker_stats, _ = self._scatter("stats", self._to_every_shard(),
                                            None)
        except (ReproError, OSError) as exc:
            _LOG.warning("metrics: worker stats scatter failed: %s", exc)
            return
        for s, report in worker_stats.items():
            wal = (report.get("durability") or {}).get("wal") or {}
            if "last_fsync_seconds" in wal:
                self._g_fsync.set(float(wal["last_fsync_seconds"]),
                                  shard=str(s))

    def close(self):
        """Scatter pool first, then every worker."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for handle in self._shards:
            handle.close()
