"""Futures-based micro-batcher for the encoder hot path.

The encoder is far cheaper per trajectory when it runs on a padded batch
than on single items (the recurrence is vectorised across the batch
dimension), but online clients arrive one request at a time. The
:class:`MicroBatcher` bridges the two: callers ``submit()`` individual
trajectories and immediately get a :class:`~concurrent.futures.Future`;
a single worker thread coalesces whatever is queued and resolves each
future with its own row of the batched encoder output.

The worker is work-conserving: whenever it is free it dispatches
everything queued, up to ``max_batch_size``, and never waits on a clock
for stragglers. Requests that arrive during an encode form the next
batch, so batches grow with load and a lone request pays for its own
encode only.

Failure isolation: when a batched call raises, the worker splits the
batch in halves and retries each, recursing only into halves that fail,
so the exception lands only on the future(s) whose input actually caused
it; items that succeed still get results. One bad item in a batch of N
costs about 2·log2(N) extra calls, not N.

Robustness contract (see DESIGN.md "Operational robustness"):

* ``submit`` accepts an optional monotonic **deadline**; an item whose
  deadline has already passed when its batch is assembled is failed with
  :class:`~repro.exceptions.DeadlineExceededError` instead of wasting
  encoder time on an answer nobody is waiting for.
* ``close`` never strands a caller: with ``drain=True`` (default) queued
  work is finished first, and anything still pending when the drain
  times out — or everything queued, with ``drain=False`` — is failed
  with a clear :class:`~repro.exceptions.ServiceClosedError` rather than
  leaving futures hanging forever. ``submit`` after close raises the
  same typed error.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..exceptions import DeadlineExceededError, ServiceClosedError

__all__ = ["MicroBatcher", "BatcherClosedError"]

_LOG = logging.getLogger(__name__)


class BatcherClosedError(ServiceClosedError):
    """Raised when submitting to (or draining from) a closed batcher."""


def _fail_future(future: "Future", exc: BaseException) -> None:
    """Set an exception on a future unless it already completed/cancelled."""
    if not future.set_running_or_notify_cancel():
        return
    try:
        future.set_exception(exc)
    except InvalidStateError:  # pragma: no cover - lost benign race
        pass


class MicroBatcher:
    """Coalesce concurrent single-item requests into batched calls.

    Parameters
    ----------
    batch_fn:
        ``batch_fn(items) -> sequence`` mapping a list of N inputs to N
        per-item results, order-aligned. For the serving layer this is the
        padded batch encoder returning an (N, d) array.
    max_batch_size:
        Most items one dispatch takes from the queue; the rest wait for
        the next one.
    on_batch:
        Optional ``on_batch(batch_size, seconds)`` observer, called after
        every dispatched batch (success or failure) — the metrics hook.
    """

    def __init__(self, batch_fn: Callable[[List[Any]], Sequence],
                 max_batch_size: int = 16,
                 on_batch: Optional[Callable[[int, float], None]] = None,
                 name: str = "micro-batcher"):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._batch_fn = batch_fn
        self.max_batch_size = max_batch_size
        self._on_batch = on_batch
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._queue: "Deque[Tuple[Any, Future, Optional[float]]]" = deque()
        self._closed = False
        self._batches_dispatched = 0
        self._items_dispatched = 0
        self._deadline_expired = 0
        self._worker = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------- client API

    def submit(self, item: Any,
               deadline: Optional[float] = None) -> "Future":
        """Enqueue one item; returns the future of its per-item result.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp; when
        the worker assembles the item's batch after that instant, the
        future fails with :class:`DeadlineExceededError` instead of being
        encoded.
        """
        future: "Future" = Future()
        with self._lock:
            if self._closed:
                raise BatcherClosedError("batcher is closed")
            self._queue.append((item, future, deadline))
            self._has_work.notify()
        return future

    def __call__(self, item: Any, timeout: Optional[float] = None,
                 deadline: Optional[float] = None) -> Any:
        """Convenience: submit and block for the result."""
        return self.submit(item, deadline=deadline).result(timeout=timeout)

    def close(self, timeout: Optional[float] = 10.0,
              drain: bool = True) -> None:
        """Stop accepting work and shut the worker down.

        With ``drain=True`` queued items are still dispatched, then the
        worker is joined for up to ``timeout`` seconds; anything *still*
        queued afterwards (a wedged ``batch_fn``) is failed with
        :class:`ServiceClosedError`. With ``drain=False`` every queued
        future fails immediately — the fast path for emergency shutdown.
        Either way no caller is left waiting on a future forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending: List[Tuple[Any, Future, Optional[float]]] = []
            if not drain:
                pending = list(self._queue)
                self._queue.clear()
            self._has_work.notify_all()
        for _, future, _ in pending:
            _fail_future(future, ServiceClosedError(
                "service shut down before this request was processed"))
        self._worker.join(timeout=timeout)
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
        for _, future, _ in leftovers:
            _fail_future(future, ServiceClosedError(
                "service shut down before this request was processed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def stats(self) -> dict:
        with self._lock:
            batches = self._batches_dispatched
            items = self._items_dispatched
            expired = self._deadline_expired
        return {
            "batches": batches,
            "items": items,
            "mean_batch_size": (items / batches) if batches else 0.0,
            "max_batch_size": self.max_batch_size,
            "deadline_expired": expired,
        }

    # ---------------------------------------------------------------- worker

    def _collect(self) -> "List[Tuple[Any, Future, Optional[float]]]":
        """Block until work exists, then pop up to ``max_batch_size``.

        Returns an empty list only when the batcher is closed and fully
        drained.
        """
        with self._lock:
            while not self._queue and not self._closed:
                self._has_work.wait()
            take = min(len(self._queue), self.max_batch_size)
            return [self._queue.popleft() for _ in range(take)]

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self._dispatch(batch)

    def _dispatch(self,
                  batch: "List[Tuple[Any, Future, Optional[float]]]") -> None:
        now = time.monotonic()
        expired = [(item, fut) for item, fut, dl in batch
                   if dl is not None and now > dl]
        for _, fut in expired:
            _fail_future(fut, DeadlineExceededError(
                "request deadline expired before encoding started"))
        if expired:
            with self._lock:
                self._deadline_expired += len(expired)
        live = [(item, fut) for item, fut, dl in batch
                if not (dl is not None and now > dl)
                and fut.set_running_or_notify_cancel()]
        if not live:
            return
        start = time.monotonic()
        try:
            self._resolve(live)
        finally:
            elapsed = time.monotonic() - start
            with self._lock:
                self._batches_dispatched += 1
                self._items_dispatched += len(live)
            if self._on_batch is not None:
                try:
                    self._on_batch(len(live), elapsed)
                except Exception:  # observer bugs must not kill the worker
                    _LOG.exception("micro-batcher on_batch observer raised")

    def _resolve(self, live: "List[Tuple[Any, Future]]") -> None:
        """Run ``batch_fn`` on ``live`` and resolve its futures; a failed
        call is split in halves and each half resolved the same way, so
        an exception reaches only the futures of items that fail alone."""
        items = [item for item, _ in live]
        try:
            results = self._batch_fn(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(items)} items")
        except BaseException as exc:  # noqa: BLE001 — forwarded to futures
            if len(live) == 1:
                live[0][1].set_exception(exc)
                return
            middle = len(live) // 2
            self._resolve(live[:middle])
            self._resolve(live[middle:])
            return
        for (_, fut), result in zip(live, results):
            try:
                fut.set_result(result)
            except InvalidStateError:  # pragma: no cover - benign race
                pass
