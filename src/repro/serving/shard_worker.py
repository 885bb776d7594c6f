"""The worker half of every deployment: one shard, one op table.

A shard worker owns one shard of the embedding table as an
:class:`~repro.core.store.EmbeddingStore` (no encoder: every vector it
stores or searches was computed by the coordinator) and, on a durable
tier, the shard's :class:`~repro.serving.wal.DurableLog`.
:class:`_ShardWorker` is that state plus one ``op_<name>(payload)``
method per request the coordinator sends. A local service runs one
worker in process over the caller's store; the sharded tier forks one
per consistent-hash partition, and :func:`_shard_worker_main` is the
forked process's pipe loop around it.

Boot spec (``_ShardTarget._boot_spec`` always sends every key):
``partition_dir`` (``None`` for an in-process worker, which is handed
its store), ``index``/``nlist``/``nprobe`` (the backend the worker
installs), ``durable_dir`` (``None`` = memory only), ``base_tag`` (the
fingerprint of the base bytes the log composes with),
``fsync_window_ms``/``wal_segment_bytes``, and ``role`` (``"primary"``
appends to the log, ``"replica"`` tails it).
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.partition import load_partition
from ..core.store import EmbeddingStore
from ..exceptions import ReloadError
from .wal import OP_DELETE, OP_INSERT, DurableLog, WALGapError

_LOG = logging.getLogger(__name__)

_BOOT_REQ_ID = 0  # the worker's unsolicited "I'm up" message


def _backend_options(boot: Dict) -> Dict:
    return ({"nlist": boot["nlist"], "nprobe": boot["nprobe"]}
            if boot["index"] == "ivf" else {})


def _mutate(store: EmbeddingStore, op: int, ids, embeddings=None,
            log: Optional[DurableLog] = None) -> np.ndarray:
    """The only code that changes a served store; returns the ids changed.

    Idempotent by id (an insert keeps the rows not yet present, a delete
    the ids still present), so a coordinator retry after failover or a
    replay overlapping the snapshot never double-applies. Live traffic
    passes ``log`` and those rows are durable *before* the store
    changes; replay passes none — its records are already in the log.
    """
    ids = np.asarray(ids, dtype=np.int64)
    changes = store.contains(ids)
    if op == OP_INSERT:
        changes = ~changes
        embeddings = embeddings[changes]
    ids = ids[changes]
    if ids.size:
        if log is not None:
            log.append(op, ids, embeddings)
        if op == OP_INSERT:
            store.add_embeddings(embeddings, ids=ids)
        else:
            store.remove(ids)
    return ids


class _ShardWorker:
    """One shard's state — ``(store, log, boot, staged, generation)`` —
    and the ops on it. ``log`` is ``None`` on a non-durable tier;
    ``staged`` is the ``(store, boot)`` a reload prepared.

    ``store`` (an in-process worker) is adopted as the base, not copied:
    it gets the boot spec's backend, then the log's replay. A committed
    snapshot supersedes it, as it supersedes a partition file.
    """

    def __init__(self, shard_id: int, boot: Dict, wal_hook=None,
                 store: Optional[EmbeddingStore] = None):
        self.shard_id = shard_id
        self._wal_hook = wal_hook
        self.boot = dict(boot)
        if store is not None:
            store.use_backend(boot["index"], **_backend_options(boot))
        self.store, self.log = self._open(self.boot, self.boot["role"],
                                          base=store)
        self.staged: Optional[Tuple[EmbeddingStore, Dict]] = None
        self.generation = 0

    # ----------------------------------------------------------------- state

    def _load_store(self, boot: Dict,
                    snapshot: Optional[Path] = None) -> EmbeddingStore:
        """The shard's rows: a committed snapshot, else its partition."""
        options = _backend_options(boot)
        if snapshot is not None:
            return EmbeddingStore.load(snapshot, model=None,
                                       backend=boot["index"], **options)
        return load_partition(boot["partition_dir"], self.shard_id,
                              backend=boot["index"], **options)

    def _open(self, boot: Dict, role: str,
              base: Optional[EmbeddingStore] = None
              ) -> Tuple[EmbeddingStore, Optional[DurableLog]]:
        """Recover one generation: snapshot (or ``base``, or the
        partition) plus everything the log holds past it. Snapshot + log
        only compose with the exact bytes they were recorded against —
        the boot spec's ``base_tag`` — so new bytes reset them."""
        if boot["durable_dir"] is None:
            return (self._load_store(boot) if base is None else base), None
        log = DurableLog(
            Path(boot["durable_dir"]) / f"shard-{self.shard_id:04d}",
            boot["base_tag"], role=role,
            segment_bytes=boot["wal_segment_bytes"],
            fsync_window_ms=boot["fsync_window_ms"], hook=self._wal_hook)
        try:
            if base is None or log.snapshot is not None:
                base = self._load_store(boot, log.snapshot)
            self._replay(base, log)
        except BaseException:
            log.close()
            raise
        return base, log

    @staticmethod
    def _replay(store: EmbeddingStore, log: DurableLog) -> None:
        for record in log.replay():
            _mutate(store, record.op, record.ids, record.embeddings)

    def _reopen(self, role: str) -> None:
        """Rebuild from the shared snapshot + log (the tail this worker
        followed was truncated past its cursor)."""
        self.log.close()
        self.store, self.log = self._open(self.boot, role)

    def _require_primary(self, op: str) -> None:
        if self.log is not None and self.log.role != "primary":
            raise ValueError(
                f"shard {self.shard_id} replica refuses {op!r}: replicas "
                f"are read-only tailers until promoted")

    def report(self, _payload=None) -> Dict:
        """The one status dict: boot message, ``ping`` and ``stats``."""
        out = {"shard": self.shard_id, "pid": os.getpid(),
               "count": len(self.store), "next_id": self.store.next_id,
               "generation": self.generation,
               "staged": None if self.staged is None
               else len(self.staged[0]),
               "search": self.store.search_stats()}
        if self.log is not None:
            out["durability"] = self.log.stats()
        return out

    # ------------------------------------------------------------------- ops

    op_ping = op_stats = report

    def handle(self, op: str, payload):
        method = getattr(self, f"op_{op}", None)
        if method is None:
            raise ValueError(f"unknown op {op!r}")
        return method(payload)

    def op_search(self, payload):
        """``(ids, distances, rows scanned)``."""
        embedding, k = payload
        if len(self.store) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0), 0
        stats = self.store.search_stats
        before = stats().get("candidates_scanned", 0)
        ids, distances = self.store.query_embedding(embedding, k)
        return ids, distances, stats().get("candidates_scanned", 0) - before

    def op_ids(self, _payload):
        return sorted(int(i) for i in self.store.ids)

    def op_insert(self, payload) -> Dict:
        self._require_primary("insert")
        ids, vectors = payload
        fresh = _mutate(self.store, OP_INSERT, ids, vectors, self.log)
        return {"applied": [int(i) for i in ids], "count": int(fresh.size)}

    def op_delete(self, payload) -> Dict:
        self._require_primary("delete")
        gone = _mutate(self.store, OP_DELETE,
                       np.unique(np.asarray(list(payload), dtype=np.int64)),
                       log=self.log)
        return {"removed": int(gone.size), "ids": [int(i) for i in gone]}

    def op_compact(self, _payload) -> Dict:
        """Fold the index; on a durable tier also checkpoint the log."""
        self._require_primary("compact")
        compact = getattr(self.store.backend, "compact", None)
        if compact is not None:
            compact()
        manifest = {} if self.log is None else self.log.checkpoint(
            self.store.save, count=len(self.store),
            next_id=self.store.next_id)
        return {"compacted": compact is not None,
                "snapshot_generation": manifest.get("generation")}

    def op_catch_up(self, _payload) -> Dict:
        """Replica: apply newly acked primary records; rebuild on gap."""
        if self.log is None or self.log.role != "replica":
            raise ValueError(f"shard {self.shard_id} is not a replica")
        rebuilt = False
        try:
            self._replay(self.store, self.log)
        except WALGapError:
            # The primary snapshotted and truncated while we lagged.
            self._reopen("replica")
            rebuilt = True
        return {"applied_lsn": self.log.applied_lsn,
                "count": len(self.store), "rebuilt": rebuilt}

    def op_promote(self, _payload) -> Dict:
        """Replica -> primary: drain the log tail, take over for append.

        The coordinator guarantees the old primary is dead before this
        runs, so opening the log for append (which repairs a torn tail)
        is safe — there is exactly one appender per shard log.
        """
        if self.log is None:
            raise ValueError(f"shard {self.shard_id} is not durable")
        if self.log.role == "replica":
            try:
                self._replay(self.store, self.log)
                self.log.promote()
                # Whatever only the torn-tail repair uncovered
                # (normally nothing).
                self._replay(self.store, self.log)
            except WALGapError:
                self._reopen("primary")
        return self.report()

    def op_prepare(self, payload) -> Dict:
        # Load the new generation's partition only: the active
        # generation still owns the log, and a second appender (or a
        # premature base-tag reset) would corrupt it. Durability
        # re-attaches at activation.
        self.staged = (self._load_store(payload), dict(payload))
        return {"count": len(self.staged[0])}

    def op_activate(self, _payload) -> Dict:
        if self.staged is None:
            raise ReloadError("activate without a prepared generation")
        (store, boot), self.staged = self.staged, None
        if self.log is not None:
            # Before the new appender opens the same directory. If that
            # open fails, _open has closed what it opened and this
            # closed log keeps refusing writes: nothing is half-open.
            self.log.close()
        self.store, self.log = self._open(boot, "primary", base=store)
        self.boot = boot
        self.generation += 1
        return {"generation": self.generation, "count": len(self.store)}

    def op_abort(self, _payload) -> bool:
        had, self.staged = self.staged is not None, None
        return had

    def op_shutdown(self, _payload) -> str:
        return "bye"

    def close(self) -> None:
        if self.log is not None:
            self.log.close()


def _shard_worker_main(conn, shard_id: int, boot: Dict, hook,
                       wal_hook=None) -> None:
    """Entry point of one shard worker process.

    Serial request loop over the pipe: recv ``(req_id, op, payload)``,
    answer ``(req_id, status, result, busy_s)``. The first message is
    unsolicited (req_id 0): the worker's :meth:`~_ShardWorker.report`,
    or the error if its partition or durable state failed to load.
    ``hook`` (when given) is triggered before each request — the
    fault-injection seam; ``wal_hook`` fires inside the WAL append path
    (crash-chaos seam).
    """
    try:
        worker = _ShardWorker(shard_id, boot, wal_hook)
    except Exception as exc:
        try:
            conn.send((_BOOT_REQ_ID, "error",
                       f"{type(exc).__name__}: {exc}", 0.0))
        finally:
            conn.close()
        return
    conn.send((_BOOT_REQ_ID, "ok", worker.report(), 0.0))
    while True:
        try:
            req_id, op, payload = conn.recv()
        except (EOFError, OSError):
            break
        # CPU time, not wall: when shards outnumber cores the workers
        # time-slice, and wall time would book a neighbour's quantum as
        # this shard's work — poisoning the bench's critical-path
        # projection. The worker is single-threaded, so process CPU
        # time is exactly this request's compute.
        start = time.process_time()
        try:
            if hook is not None:
                hook.trigger()
            status, result = "ok", worker.handle(op, payload)
        except Exception as exc:
            status, result = "error", f"{type(exc).__name__}: {exc}"
        busy = time.process_time() - start
        try:
            conn.send((req_id, status, result, busy))
        except (BrokenPipeError, OSError):
            break
        if op == "shutdown" and status == "ok":
            break
    try:
        worker.close()
    except OSError:
        _LOG.exception("shard %d: WAL close failed on exit", shard_id)
    conn.close()
