"""Deterministic fault injection for resilience tests and benchmarks.

Failure behaviour must be *tested*, not asserted, so every injector here is
scripted and reproducible:

* :class:`FlakyCallable` / :func:`fail_on_nth_call` — fail (or delay)
  specific 1-based call indices of any callable; the serving tests wrap
  the encoder with it to fail or slow an encode on cue.
* :func:`corrupt_bytes` / :class:`CorruptionSpec` — bit-flip, truncate or
  zero a file at a deterministic position; the artifact tests feed the
  result to the bundle/store/checkpoint loaders.
* :class:`KillWorkerOnce` — a measure wrapper that SIGKILLs the worker
  process evaluating it, exactly once per marker file; exercises the
  precompute driver's dead-worker path.
* :class:`KillAtWALPoint` — a WAL-append hook that SIGKILLs a shard
  worker at a chosen point of the append path (after the write,
  before the fsync, after the fsync); drives the crash-chaos durability
  property tests.
* :class:`HangInWorker` — a measure wrapper that sleeps only inside
  *child* processes, so per-chunk timeouts fire in the pool while the
  parent's serial fallback still computes the true values.

Everything multiprocessing-facing is a module-level picklable class, and
all cross-process coordination goes through marker files (no shared
memory), so the injectors work under any start method.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np

PathLike = Union[str, Path]

__all__ = ["CorruptionSpec", "FaultInjected", "FlakyCallable",
           "HangInWorker", "KillAtWALPoint",
           "KillWorkerOnce", "PoisonOnCalls", "corrupt_bytes",
           "fail_on_nth_call"]


class FaultInjected(RuntimeError):
    """The canonical exception raised by scripted failures."""


class FlakyCallable:
    """Wrap a callable so chosen calls fail and/or run slow.

    Parameters
    ----------
    fn:
        The callable to wrap; return values pass through untouched.
    fail_on:
        1-based call indices that raise instead of returning. An empty
        iterable never fails. ``fail_every`` is an alternative: when set,
        every ``fail_every``-th call fails (1-based, so ``fail_every=3``
        fails calls 3, 6, 9, ...).
    exc_factory:
        Builds the exception to raise (default :class:`FaultInjected`).
    latency_s:
        Sleep this long before every call (0 disables).
    latency_on:
        Restrict the sleep to these 1-based call indices (``None`` means
        all calls when ``latency_s`` > 0).

    The call counter is thread-safe, so a micro-batcher worker and direct
    callers can share one injector deterministically under the test's
    serialised request schedule.
    """

    def __init__(self, fn: Callable, fail_on: Iterable[int] = (),
                 fail_every: int = 0,
                 exc_factory: Callable[[int], BaseException] = None,
                 latency_s: float = 0.0,
                 latency_on: Optional[Iterable[int]] = None):
        self.fn = fn
        self.fail_on = frozenset(int(i) for i in fail_on)
        self.fail_every = int(fail_every)
        self.exc_factory = exc_factory or (
            lambda call: FaultInjected(f"injected failure on call {call}"))
        self.latency_s = float(latency_s)
        self.latency_on = (None if latency_on is None
                           else frozenset(int(i) for i in latency_on))
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    @property
    def failures_injected(self) -> int:
        with self._lock:
            return sum(1 for i in range(1, self._calls + 1)
                       if self._should_fail(i))

    def _should_fail(self, call: int) -> bool:
        if call in self.fail_on:
            return True
        return self.fail_every > 0 and call % self.fail_every == 0

    def __call__(self, *args, **kwargs):
        with self._lock:
            self._calls += 1
            call = self._calls
        if self.latency_s > 0 and (self.latency_on is None
                                   or call in self.latency_on):
            time.sleep(self.latency_s)
        if self._should_fail(call):
            raise self.exc_factory(call)
        return self.fn(*args, **kwargs)


class PoisonOnCalls:
    """Wrap a callable so chosen calls return a *transformed* result.

    Where :class:`FlakyCallable` models hard failures (exceptions), this
    models silent data corruption: the wrapped function runs normally and
    its return value is passed through ``transform`` on the selected
    1-based call indices. The training-guardrail tests use it to turn a
    healthy loss tensor into a NaN or a forced spike without touching
    the training code.
    """

    def __init__(self, fn: Callable, poison_on: Iterable[int],
                 transform: Callable):
        self.fn = fn
        self.poison_on = frozenset(int(i) for i in poison_on)
        self.transform = transform
        self._lock = threading.Lock()
        self._calls = 0
        self.poisoned = 0

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def __call__(self, *args, **kwargs):
        with self._lock:
            self._calls += 1
            call = self._calls
        result = self.fn(*args, **kwargs)
        if call in self.poison_on:
            with self._lock:
                self.poisoned += 1
            return self.transform(result)
        return result


def fail_on_nth_call(fn: Callable, n: int, times: int = 1,
                     exc_factory: Callable[[int], BaseException] = None
                     ) -> FlakyCallable:
    """Wrap ``fn`` so calls ``n .. n+times-1`` (1-based) raise."""
    if n < 1 or times < 1:
        raise ValueError("n and times must be >= 1")
    return FlakyCallable(fn, fail_on=range(n, n + times),
                         exc_factory=exc_factory)


# ---------------------------------------------------------------- corruption

@dataclass(frozen=True)
class CorruptionSpec:
    """A deterministic byte-level corruption of a file.

    ``mode`` is one of ``"flip"`` (xor one byte with 0xFF), ``"truncate"``
    (cut the file to ``offset`` bytes) or ``"zero"`` (overwrite ``length``
    bytes with zeros). ``offset`` may be negative (from the end) or
    ``None``, which picks a stable mid-file position.
    """

    mode: str = "flip"
    offset: Optional[int] = None
    length: int = 1

    def apply(self, path: PathLike) -> int:
        """Corrupt ``path`` in place; returns the affected offset."""
        path = Path(path)
        blob = bytearray(path.read_bytes())
        if not blob:
            raise ValueError(f"cannot corrupt empty file {path}")
        offset = self.offset
        if offset is None:
            offset = len(blob) // 2
        elif offset < 0:
            offset = max(0, len(blob) + offset)
        offset = min(offset, len(blob) - 1)
        if self.mode == "flip":
            for i in range(offset, min(offset + self.length, len(blob))):
                blob[i] ^= 0xFF
        elif self.mode == "truncate":
            blob = blob[:offset]
        elif self.mode == "zero":
            for i in range(offset, min(offset + self.length, len(blob))):
                blob[i] = 0
        else:
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        path.write_bytes(bytes(blob))
        return offset


def corrupt_bytes(path: PathLike, mode: str = "flip",
                  offset: Optional[int] = None, length: int = 1) -> int:
    """Convenience wrapper: ``CorruptionSpec(mode, offset, length).apply``."""
    return CorruptionSpec(mode=mode, offset=offset, length=length).apply(path)


# ----------------------------------------------------- multiprocessing faults

class _MeasureWrapper:
    """Delegating base for picklable measure fault wrappers."""

    def __init__(self, measure):
        self.measure = measure

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        self.trigger()
        return self.measure.distance(a, b)

    def distance_many(self, batch_a, batch_b) -> np.ndarray:
        self.trigger()
        return self.measure.distance_many(batch_a, batch_b)

    def cache_token(self) -> str:
        return self.measure.cache_token()

    def trigger(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class KillWorkerOnce(_MeasureWrapper):
    """SIGKILL the evaluating process once, coordinated by a marker file.

    The first evaluation (in any process) creates ``marker_path`` and then
    kills its own process — from the pool driver's point of view a worker
    just died mid-chunk and its result will never arrive. Every later
    evaluation sees the marker and computes normally, so bounded retries
    recover the exact answer.

    ``only_in_children=True`` (default) restricts the kill to pool worker
    processes, keeping the parent's serial fallback safe.
    """

    def __init__(self, measure, marker_path: PathLike,
                 only_in_children: bool = True):
        super().__init__(measure)
        self.marker_path = str(marker_path)
        self.only_in_children = only_in_children

    def trigger(self) -> None:
        if self.only_in_children and multiprocessing.parent_process() is None:
            return
        try:
            # O_EXCL: exactly one racing process wins the kill.
            fd = os.open(self.marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


class KillAtWALPoint:
    """SIGKILL the process at a chosen point of the WAL append path.

    Installed as a :class:`repro.serving.wal.ShardWAL` hook (via
    ``ShardedService(wal_hooks={shard_id: ...})``), it is called with the
    append path's checkpoint names — ``"after_write"``, ``"before_fsync"``,
    ``"after_fsync"`` — and kills the worker the ``nth`` time (1-based)
    the matching point fires:

    * ``"after_write"`` — the record is in the OS page cache but not
      fsynced and the client was **not** acked: recovery may keep or
      drop it, but must never half-apply it.
    * ``"before_fsync"`` — same durability state, taken by the
      appender just before it fsyncs its record: kills mid-commit.
    * ``"after_fsync"`` — the record is durable; the ack may or may not
      have escaped the worker. An acked write lost here is a bug.

    Cross-process coordination goes through ``marker_dir``: each kill
    appends a marker file, and once ``max_kills`` markers exist the hook
    goes inert — so a recovered worker (which re-runs the same schedule)
    survives, and crash-recover-crash schedules just set
    ``max_kills=2``. The counter is per-process; determinism comes from
    the worker's serial request loop, which replays an identical append
    sequence after each restart.
    """

    def __init__(self, point: str, marker_dir: PathLike, nth: int = 1,
                 max_kills: int = 1):
        if point not in ("after_write", "before_fsync", "after_fsync"):
            raise ValueError(f"unknown WAL point {point!r}")
        if nth < 1 or max_kills < 1:
            raise ValueError("nth and max_kills must be >= 1")
        self.point = point
        self.marker_dir = str(marker_dir)
        self.nth = int(nth)
        self.max_kills = int(max_kills)
        self._hits = 0

    def kills_so_far(self) -> int:
        try:
            return len([name for name in os.listdir(self.marker_dir)
                        if name.startswith("wal-kill-")])
        except FileNotFoundError:
            return 0

    def __call__(self, point: str) -> None:
        if point != self.point:
            return
        self._hits += 1
        if self._hits != self.nth:
            return
        os.makedirs(self.marker_dir, exist_ok=True)
        kills = self.kills_so_far()
        if kills >= self.max_kills:
            return
        marker = os.path.join(self.marker_dir, f"wal-kill-{kills}")
        try:
            # O_EXCL: exactly one racing thread/process wins this kill.
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


class HangInWorker(_MeasureWrapper):
    """Sleep ``sleep_s`` before evaluating — but only in child processes.

    Makes every pooled chunk blow its per-chunk timeout while the parent's
    in-process serial fallback still returns the true distances, which is
    exactly the degradation path the driver promises. With ``marker_path``
    set, the hang happens only while the marker does not exist (each
    hanging evaluation creates it), so a single chunk hangs once and
    retries run normally.
    """

    def __init__(self, measure, sleep_s: float = 60.0,
                 marker_path: Optional[PathLike] = None):
        super().__init__(measure)
        self.sleep_s = float(sleep_s)
        self.marker_path = None if marker_path is None else str(marker_path)

    def trigger(self) -> None:
        if multiprocessing.parent_process() is None:
            return
        if self.marker_path is not None:
            try:
                fd = os.open(self.marker_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
        time.sleep(self.sleep_s)
