"""Tests for the futures-based micro-batcher.

Covers the work-conserving dispatch rule (a lone item goes at once, a
backlog goes in cap-sized batches), exception propagation to the right
future, and concurrent-client determinism (same results as serial).
Batch shapes are pinned with events, never with sleeps.
"""

import threading
import time

import pytest

from repro.serving import BatcherClosedError, MicroBatcher


def doubler(items):
    return [x * 2 for x in items]


def test_single_item_roundtrip():
    with MicroBatcher(doubler, max_batch_size=8) as batcher:
        assert batcher.submit(21).result(timeout=5) == 42
        assert batcher(5, timeout=5) == 10


def test_lone_submit_dispatches_alone():
    """A free worker dispatches at once: nothing waits for a second item."""
    calls = []

    def recording(items):
        calls.append(list(items))
        return doubler(items)

    with MicroBatcher(recording, max_batch_size=100) as batcher:
        assert batcher.submit(7).result(timeout=5) == 14
    assert calls == [[7]]


def test_backlog_dispatches_in_cap_sized_batches():
    """Items queued behind a busy worker form the next batches, each
    capped at ``max_batch_size``."""
    cap = 4
    started, release = threading.Event(), threading.Event()
    calls = []

    def gated(items):
        calls.append(list(items))
        started.set()
        release.wait(timeout=5)
        return doubler(items)

    with MicroBatcher(gated, max_batch_size=cap) as batcher:
        first = batcher.submit(-1)
        assert started.wait(timeout=5)
        queued = [batcher.submit(i) for i in range(2 * cap + 1)]
        release.set()
        assert first.result(timeout=5) == -2
        assert [f.result(timeout=5) for f in queued] == [
            2 * i for i in range(2 * cap + 1)]
    assert [len(batch) for batch in calls] == [1, cap, cap, 1]
    assert [x for batch in calls[1:] for x in batch] == list(
        range(2 * cap + 1))


def failing_on_none(items):
    if any(x is None for x in items):
        raise ValueError("cannot encode None")
    return [x * 2 for x in items]


def test_exception_lands_on_the_right_future():
    """A poison item in a batch fails only its own future."""
    with MicroBatcher(failing_on_none, max_batch_size=8) as batcher:
        good_a = batcher.submit(1)
        poison = batcher.submit(None)
        good_b = batcher.submit(3)
        assert good_a.result(timeout=5) == 2
        assert good_b.result(timeout=5) == 6
        with pytest.raises(ValueError, match="cannot encode None"):
            poison.result(timeout=5)


def test_exception_single_item_batch():
    with MicroBatcher(failing_on_none, max_batch_size=1) as batcher:
        with pytest.raises(ValueError):
            batcher(None, timeout=5)
        # The worker survives a failed batch.
        assert batcher(2, timeout=5) == 4


def test_wrong_result_count_is_an_error():
    with MicroBatcher(lambda items: [], max_batch_size=4) as batcher:
        futures = [batcher.submit(i) for i in range(3)]
        for future in futures:
            with pytest.raises(RuntimeError, match="results"):
                future.result(timeout=5)


def test_concurrent_clients_match_serial():
    """Many threads through shared batches == serial one-at-a-time."""
    per_client = 25
    clients = 8
    results = {}

    def client(client_id, batcher):
        got = [batcher(client_id * 1000 + i, timeout=10)
               for i in range(per_client)]
        results[client_id] = got

    def slow_doubler(items):
        time.sleep(0.002)  # an encode long enough for a backlog to form
        return doubler(items)

    with MicroBatcher(slow_doubler, max_batch_size=16) as batcher:
        threads = [threading.Thread(target=client, args=(c, batcher))
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        stats = batcher.stats()

    for client_id in range(clients):
        expected = [(client_id * 1000 + i) * 2 for i in range(per_client)]
        assert results[client_id] == expected
    assert stats["items"] == clients * per_client
    # Requests that queued during an encode shared the next batch.
    assert stats["batches"] < stats["items"]
    assert stats["mean_batch_size"] > 1.0


def test_submit_after_close_raises():
    batcher = MicroBatcher(doubler, max_batch_size=4)
    batcher.close()
    assert batcher.closed
    with pytest.raises(BatcherClosedError):
        batcher.submit(1)
    batcher.close()  # idempotent


def test_close_drains_pending_work():
    slow_started = threading.Event()

    def slow_doubler(items):
        slow_started.set()
        time.sleep(0.05)
        return [x * 2 for x in items]

    batcher = MicroBatcher(slow_doubler, max_batch_size=1)
    futures = [batcher.submit(i) for i in range(3)]
    slow_started.wait(timeout=5)
    batcher.close()
    assert [f.result(timeout=5) for f in futures] == [0, 2, 4]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MicroBatcher(doubler, max_batch_size=0)


# ------------------------------------------------- robustness contract (PR 3)

def test_expired_deadline_fails_future_without_encoding():
    calls = []

    def recording(items):
        calls.append(list(items))
        return [x * 2 for x in items]

    batcher = MicroBatcher(recording, max_batch_size=4)
    try:
        from repro.exceptions import DeadlineExceededError
        future = batcher.submit(7, deadline=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=5)
        assert batcher.stats()["deadline_expired"] == 1
        assert 7 not in [x for batch in calls for x in batch]
        # a live deadline still goes through
        assert batcher(3, timeout=5,
                       deadline=time.monotonic() + 30.0) == 6
    finally:
        batcher.close()


def test_mixed_deadlines_only_drop_the_expired_item():
    started, release = threading.Event(), threading.Event()
    calls = []

    def gated(items):
        calls.append(list(items))
        started.set()
        release.wait(timeout=5)
        return [x * 2 for x in items]

    batcher = MicroBatcher(gated, max_batch_size=2)
    try:
        from repro.exceptions import DeadlineExceededError
        batcher.submit(0)                # occupies the worker
        assert started.wait(timeout=5)
        # Both queue behind it and are collected as one batch.
        dead = batcher.submit(1, deadline=time.monotonic() - 1.0)
        live = batcher.submit(2, deadline=time.monotonic() + 30.0)
        release.set()
        assert live.result(timeout=5) == 4
        with pytest.raises(DeadlineExceededError):
            dead.result(timeout=5)
        assert calls == [[0], [2]]
    finally:
        batcher.close()


def test_close_without_drain_fails_pending_futures():
    from repro.exceptions import ServiceClosedError

    started = threading.Event()
    release = threading.Event()

    def gated(items):
        started.set()
        release.wait(timeout=5)
        return [x * 2 for x in items]

    batcher = MicroBatcher(gated, max_batch_size=1)
    first = batcher.submit(0)           # occupies the worker
    started.wait(timeout=5)
    queued = [batcher.submit(i) for i in range(1, 4)]
    release.set()
    batcher.close(drain=False)
    for future in queued:
        with pytest.raises(ServiceClosedError):
            future.result(timeout=5)
    # BatcherClosedError subclasses the service-level typed error
    assert issubclass(BatcherClosedError, ServiceClosedError)
    with pytest.raises(ServiceClosedError):
        batcher.submit(99)
    # the in-flight item may finish or fail, but it must resolve
    assert first.done() or first.result(timeout=5) == 0


def test_close_with_wedged_worker_does_not_strand_futures():
    """A batch_fn that never returns must not leave queued callers hanging."""
    from repro.exceptions import ServiceClosedError

    stuck = threading.Event()

    def wedged(items):
        stuck.set()
        time.sleep(60.0)
        return [x * 2 for x in items]

    batcher = MicroBatcher(wedged, max_batch_size=1)
    batcher.submit(0)
    stuck.wait(timeout=5)
    queued = batcher.submit(1)
    batcher.close(timeout=0.2)          # drain gives up quickly
    with pytest.raises(ServiceClosedError):
        queued.result(timeout=5)
