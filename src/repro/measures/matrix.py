"""Pairwise and cross distance-matrix drivers.

Computing the exact seed distance matrix ``D`` (paper §III-B) is the
quadratic pre-processing step NeuTraj amortises; these helpers centralise
it. Three layers keep long runs fast and observable:

* **Chunking** — the upper triangle (or the full Q×N cross grid) is
  always split into work units of ~``chunk_pairs`` pairs, each evaluated
  with the measure's
  :meth:`~repro.measures.base.TrajectoryMeasure.distance_many`. DTW,
  Fréchet, Hausdorff, ERP and EDR override it with the batched kernels
  of :mod:`repro.measures._batch` (element-wise identical to per-pair
  calls); LCSS and SSPD inherit the base class's per-pair loop.
* **Multiprocessing** — ``workers <= 1`` (the default) evaluates the
  chunks in the calling process, holding no module state, so threads
  may compute matrices concurrently; ``workers > 1`` farms the same
  chunks to a process pool, which pays only for paper-scale matrices.
  Both give the same matrix bit for bit. Per-pair ``measure.distance``
  is the oracle the tests compare against, not a path through here.
* **Caching** — when a cache directory is configured, finished matrices
  are stored as ``.npz`` files keyed by a content hash of the trajectories
  and the measure (name + parameters), so repeated benchmark/experiment
  runs skip identical recomputes.

Defaults for ``workers``, ``chunk_pairs`` and ``cache_dir`` come from
:func:`repro.core.config.get_precompute_config`; a ``progress(done, total)``
callback reports completed pairs in all modes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.pool
import os
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.atomicio import atomic_savez, read_npz
from ..exceptions import CorruptArtifactError, PrecomputeError
from .base import TrajectoryMeasure

ProgressFn = Optional[Callable[[int, int], None]]

_UNSET = object()  # sentinel: None is a meaningful chunk_timeout_s value


def _points(trajectories: Sequence) -> list:
    return [np.asarray(getattr(t, "points", t), dtype=np.float64)
            for t in trajectories]


def _defaults(workers: Optional[int], chunk_pairs: Optional[int],
              cache_dir: Optional[str], chunk_timeout_s=_UNSET,
              chunk_retries: Optional[int] = None,
              retry_backoff_s: Optional[float] = None):
    # Imported lazily: repro.core imports repro.measures at package-init
    # time, so a module-level import here would be circular.
    from ..core.config import get_precompute_config
    config = get_precompute_config()
    return (config.workers if workers is None else int(workers),
            config.chunk_pairs if chunk_pairs is None else int(chunk_pairs),
            config.cache_dir if cache_dir is None else cache_dir,
            config.chunk_timeout_s if chunk_timeout_s is _UNSET
            else chunk_timeout_s,
            config.chunk_retries if chunk_retries is None
            else int(chunk_retries),
            config.retry_backoff_s if retry_backoff_s is None
            else float(retry_backoff_s))


# --------------------------------------------------------------------- cache

def _content_key(parts: Sequence[Sequence[np.ndarray]],
                 measure: TrajectoryMeasure, kind: str) -> str:
    """SHA-256 over the raw coordinates and the measure's cache token."""
    digest = hashlib.sha256()
    digest.update(kind.encode())
    digest.update(measure.cache_token().encode())
    for group in parts:
        digest.update(str(len(group)).encode())
        for points in group:
            arr = np.ascontiguousarray(points, dtype=np.float64)
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"matrix_{key[:32]}.npz")


def _cache_load(cache_dir: Optional[str], key: str) -> Optional[np.ndarray]:
    if cache_dir is None:
        return None
    try:
        payload = read_npz(_cache_path(cache_dir, key))
    except (OSError, CorruptArtifactError):  # absent or damaged: recompute
        return None
    if str(payload.get("key")) != key:  # truncated-name collision guard
        return None
    return payload.get("matrix")


def _cache_store(cache_dir: Optional[str], key: str,
                 matrix: np.ndarray) -> None:
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    try:  # atomic publish; safe under parallel warm-up
        atomic_savez(_cache_path(cache_dir, key), matrix=matrix,
                     key=np.str_(key))
    except OSError:
        pass  # an unwritable cache only costs a recompute next time


# ------------------------------------------------------------ chunked driver

def _serial_chunk(chunk, points_a: list, points_b: list,
                  measure) -> np.ndarray:
    """Evaluate one work unit in the calling process.

    Reads nothing but its arguments, so it is what the in-process driver
    and the pool's parent-side fallback run, from any number of threads.
    """
    _, idx_a, idx_b = chunk
    return measure.distance_many([points_a[i] for i in idx_a],
                                 [points_b[j] for j in idx_b])


#: Pool workers only: what the pool initializer hands each forked worker,
#: so a task pickles three index arrays instead of the trajectories.
_WORKER_STATE: dict = {}


def _init_worker(points_a, points_b, measure) -> None:
    _WORKER_STATE["points_a"] = points_a
    _WORKER_STATE["points_b"] = points_b
    _WORKER_STATE["measure"] = measure


def _run_chunk(chunk: Tuple[int, np.ndarray, np.ndarray]
               ) -> Tuple[int, np.ndarray]:
    """Pool-worker evaluation of one work unit: (chunk_id, distances)."""
    return chunk[0], _serial_chunk(chunk, _WORKER_STATE["points_a"],
                                   _WORKER_STATE["points_b"],
                                   _WORKER_STATE["measure"])


@dataclass
class PrecomputeStats:
    """What the fault-tolerant chunk driver had to do on its last run.

    ``timeouts``/``worker_errors`` count per-attempt incidents, ``retries``
    the re-submissions they triggered, ``serial_fallbacks`` the chunks the
    parent ultimately computed itself, and ``dead_workers`` pool processes
    that disappeared mid-run (e.g. SIGKILL).
    """

    chunks: int = 0
    parallel_chunks: int = 0
    timeouts: int = 0
    worker_errors: int = 0
    retries: int = 0
    serial_fallbacks: int = 0
    dead_workers: int = 0


_LAST_STATS = PrecomputeStats()


def last_precompute_stats() -> PrecomputeStats:
    """Stats of the most recent chunked-driver run in this process."""
    return _LAST_STATS


def _pool_pids(pool) -> set:
    try:
        return {p.pid for p in pool._pool}
    except (AttributeError, TypeError):  # pool internals shifted; stats-only
        return set()


def _shutdown_pool(pool, wedged: bool) -> None:
    """Tear the pool down without ever blocking the caller indefinitely.

    After a worker was SIGKILLed mid-IPC it may have died holding a shared
    queue lock, and ``Pool.terminate``/``join`` then deadlock. On that
    (``wedged``) path terminate runs on a daemon thread with a bounded
    wait; if it cannot finish, the pool is abandoned — its workers and
    handler threads are all daemonic, so they cannot block process exit.
    """
    if not wedged:
        pool.close()
        pool.join()
        return
    reaper = threading.Thread(target=pool.terminate, daemon=True)
    reaper.start()
    reaper.join(timeout=5.0)


def _collect_chunk(pool, chunk, result, timeout: Optional[float],
                   retries: int, backoff_s: float, points_a: list,
                   points_b: list, measure, stats: PrecomputeStats
                   ) -> Tuple[np.ndarray, bool]:
    """Await one chunk, retrying crashed/hung attempts with backoff.

    Returns ``(values, timed_out_at_least_once)``. A chunk whose task died
    with its worker (SIGKILL loses the task: its async result never
    resolves) surfaces here as a timeout; re-submission lands on a live,
    repopulated worker. When every attempt fails the chunk is computed
    serially in the parent — the run degrades instead of hanging.
    """
    from ..resilience.retry import RetryPolicy
    policy = RetryPolicy(max_retries=retries, base_delay_s=backoff_s)
    timed_out = False
    last_error: Optional[BaseException] = None
    for attempt in range(retries + 1):
        try:
            _, values = result.get(timeout)
            stats.parallel_chunks += 1
            return values, timed_out
        except multiprocessing.TimeoutError as exc:
            stats.timeouts += 1
            timed_out = True
            last_error = exc
        except Exception as exc:
            stats.worker_errors += 1
            last_error = exc
        if attempt < retries:
            stats.retries += 1
            policy.sleep(attempt + 1)  # RetryPolicy delays are 1-based
            result = pool.apply_async(_run_chunk, (chunk,))
    stats.serial_fallbacks += 1
    try:
        return _serial_chunk(chunk, points_a, points_b, measure), timed_out
    except Exception as exc:
        raise PrecomputeError(
            f"chunk {chunk[0]} failed in {retries + 1} worker attempt(s) "
            f"(last: {last_error!r}) and in the serial fallback") from exc


def _chunked_distances(points_a: list, points_b: list, measure,
                       idx_a: np.ndarray, idx_b: np.ndarray, workers: int,
                       chunk_pairs: int, progress: ProgressFn,
                       chunk_timeout_s: Optional[float] = None,
                       chunk_retries: int = 2,
                       retry_backoff_s: float = 0.1) -> np.ndarray:
    """Distances for an explicit pair list, one ``chunk_pairs`` unit at a time.

    ``workers <= 1`` (or a single chunk, or a pool that cannot start)
    evaluates the units in the calling process. On the pool, fault
    tolerance is opt-in via ``chunk_timeout_s`` (``None`` waits forever):
    every chunk is submitted with ``apply_async`` and awaited with a
    per-chunk timeout, a timed-out or crashed attempt is re-submitted up
    to ``chunk_retries`` times with exponential backoff, and a chunk that
    exhausts its retries is computed in the parent. Counters land in
    :func:`last_precompute_stats`.
    """
    global _LAST_STATS
    total = len(idx_a)
    out = np.empty(total, dtype=np.float64)
    chunks = [(k, idx_a[s:s + chunk_pairs], idx_b[s:s + chunk_pairs])
              for k, s in enumerate(range(0, total, chunk_pairs))]
    stats = PrecomputeStats(chunks=len(chunks))
    done = 0

    def consume(chunk_id: int, values: np.ndarray) -> None:
        nonlocal done
        start = chunk_id * chunk_pairs
        out[start:start + len(values)] = values
        done += len(values)
        if progress is not None:
            progress(done, total)

    pool = None
    if workers > 1 and len(chunks) > 1:
        try:
            context = multiprocessing.get_context()
            pool = context.Pool(processes=min(workers, len(chunks)),
                                initializer=_init_worker,
                                initargs=(points_a, points_b, measure))
        except (OSError, ValueError):
            pool = None  # fall back to in-process chunked evaluation
    if pool is not None:
        start_pids = _pool_pids(pool)
        had_timeout = False
        clean = False
        try:
            results = [(chunk, pool.apply_async(_run_chunk, (chunk,)))
                       for chunk in chunks]
            for chunk, result in results:
                values, timed_out = _collect_chunk(
                    pool, chunk, result, chunk_timeout_s, chunk_retries,
                    retry_backoff_s, points_a, points_b, measure, stats)
                had_timeout = had_timeout or timed_out
                consume(chunk[0], values)
            clean = not had_timeout
        finally:
            stats.dead_workers = len(start_pids - _pool_pids(pool))
            _LAST_STATS = stats  # published even when a chunk error escapes
            # A lost task (dead worker / escaping error) never drains from
            # the pool's result cache, so close()+join() would block forever.
            _shutdown_pool(pool, wedged=not clean)
    else:
        try:
            for chunk in chunks:
                consume(chunk[0],
                        _serial_chunk(chunk, points_a, points_b, measure))
        finally:
            _LAST_STATS = stats
    return out


# ------------------------------------------------------------------- drivers

def pairwise_distances(trajectories: Sequence, measure: TrajectoryMeasure,
                       progress: ProgressFn = None,
                       workers: Optional[int] = None,
                       chunk_pairs: Optional[int] = None,
                       cache_dir: Optional[str] = None,
                       chunk_timeout_s=_UNSET,
                       chunk_retries: Optional[int] = None,
                       retry_backoff_s: Optional[float] = None) -> np.ndarray:
    """Symmetric (N, N) matrix of exact distances between all pairs.

    All four paper measures are symmetric, so only the upper triangle is
    computed and mirrored. ``progress(done, total)`` is invoked after each
    completed work unit of ``chunk_pairs`` pairs.

    Parameters
    ----------
    trajectories:
        Sequence of :class:`~repro.datasets.Trajectory` or (L, 2) arrays.
    measure:
        The exact measure guiding training.
    progress:
        Optional ``(completed_pairs, total_pairs)`` callback.
    workers:
        Process count; ``<= 1`` evaluates the chunks in the calling
        process, ``> 1`` on a process pool (element-wise identical
        results). ``None`` reads :func:`repro.core.config.get_precompute_config`.
    chunk_pairs:
        Pairs per work unit (``None``: config value).
    cache_dir:
        Directory of the on-disk ``.npz`` cache (``None``: config value;
        caching is skipped when that is also ``None``).
    chunk_timeout_s / chunk_retries / retry_backoff_s:
        Fault-tolerance knobs of the process pool (per-chunk timeout,
        bounded re-submission with backoff, then in-process fallback); unset
        values come from :func:`repro.core.config.get_precompute_config`.
    """
    points = _points(trajectories)
    (workers, chunk_pairs, cache_dir, chunk_timeout_s, chunk_retries,
     retry_backoff_s) = _defaults(workers, chunk_pairs, cache_dir,
                                  chunk_timeout_s, chunk_retries,
                                  retry_backoff_s)
    n = len(points)

    key = None
    if cache_dir is not None:
        key = _content_key([points], measure, kind="pairwise")
        cached = _cache_load(cache_dir, key)
        if cached is not None:
            if progress is not None:
                total = n * (n - 1) // 2
                progress(total, total)
            return cached

    rows, cols = np.triu_indices(n, k=1)
    matrix = np.zeros((n, n), dtype=np.float64)
    if len(rows):
        values = _chunked_distances(points, points, measure, rows, cols,
                                    workers, chunk_pairs, progress,
                                    chunk_timeout_s, chunk_retries,
                                    retry_backoff_s)
        matrix[rows, cols] = values
        matrix[cols, rows] = values
    elif progress is not None:
        progress(0, 0)

    if key is not None:
        _cache_store(cache_dir, key, matrix)
    return matrix


def cross_distances(queries: Sequence, database: Sequence,
                    measure: TrajectoryMeasure,
                    progress: ProgressFn = None,
                    workers: Optional[int] = None,
                    chunk_pairs: Optional[int] = None,
                    cache_dir: Optional[str] = None,
                    chunk_timeout_s=_UNSET,
                    chunk_retries: Optional[int] = None,
                    retry_backoff_s: Optional[float] = None) -> np.ndarray:
    """(Q, N) matrix of distances from each query to each database entry.

    Shares the pairwise driver's machinery: the same ``progress`` callback,
    ``workers`` / ``chunk_pairs`` chunked-parallel evaluation with the
    fault-tolerance knobs (timeout / retries / backoff / serial fallback)
    and ``.npz`` caching, with defaults from
    :func:`repro.core.config.get_precompute_config`.
    """
    q_points = _points(queries)
    d_points = _points(database)
    (workers, chunk_pairs, cache_dir, chunk_timeout_s, chunk_retries,
     retry_backoff_s) = _defaults(workers, chunk_pairs, cache_dir,
                                  chunk_timeout_s, chunk_retries,
                                  retry_backoff_s)
    n_q, n_d = len(q_points), len(d_points)

    key = None
    if cache_dir is not None:
        key = _content_key([q_points, d_points], measure, kind="cross")
        cached = _cache_load(cache_dir, key)
        if cached is not None:
            if progress is not None:
                progress(n_q * n_d, n_q * n_d)
            return cached

    matrix = np.zeros((n_q, n_d), dtype=np.float64)
    if n_q and n_d:
        rows = np.repeat(np.arange(n_q, dtype=np.intp), n_d)
        cols = np.tile(np.arange(n_d, dtype=np.intp), n_q)
        values = _chunked_distances(q_points, d_points, measure, rows,
                                    cols, workers, chunk_pairs, progress,
                                    chunk_timeout_s, chunk_retries,
                                    retry_backoff_s)
        matrix[rows, cols] = values
    elif progress is not None:
        progress(0, 0)

    if key is not None:
        _cache_store(cache_dir, key, matrix)
    return matrix
