"""Unit tests for the breaker / retry / admission primitives.

All time-dependent behaviour runs on injected fake clocks — nothing here
sleeps or depends on scheduler luck.
"""

import pytest

from repro.exceptions import ServiceOverloadedError
from repro.resilience import AdmissionGate, CircuitBreaker, RetryPolicy

pytestmark = pytest.mark.faults


# ------------------------------------------------------------ circuit breaker

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3, clock=_Clock())
    for _ in range(2):
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2, clock=_Clock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"  # streak broken, never reached 2


def test_half_open_probe_then_close():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0,
                             clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now = 5.0
    assert not breaker.allow()          # still inside the open window
    clock.now = 11.0
    assert breaker.state == "half_open"
    assert breaker.allow()              # the single probe slot
    assert not breaker.allow()          # no second probe
    breaker.record_success()
    assert breaker.state == "closed"
    # closed -> open -> half_open -> closed
    assert breaker.stats()["transitions"] == 3


def test_half_open_failure_reopens():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0,
                             clock=clock)
    breaker.record_failure()
    clock.now = 11.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now = 12.0
    assert not breaker.allow()          # the open window restarted


def test_breaker_stats_shape():
    breaker = CircuitBreaker(failure_threshold=2)
    stats = breaker.stats()
    assert stats["state"] == "closed"
    assert stats["failure_threshold"] == 2
    assert stats["transitions"] == 0


# ------------------------------------------------------------------- retries

def test_retry_delays_grow_and_cap():
    policy = RetryPolicy(max_retries=5, base_delay_s=0.1, multiplier=2.0,
                         max_delay_s=0.5)
    delays = [policy.delay(i) for i in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_retry_attempts_are_one_based():
    policy = RetryPolicy()
    with pytest.raises(ValueError, match="1-based"):
        policy.delay(0)


def test_retry_sleep_uses_injected_sleeper():
    slept = []
    policy = RetryPolicy(max_retries=2, base_delay_s=0.25, multiplier=2.0)
    policy.sleep(1, sleep=slept.append)
    policy.sleep(2, sleep=slept.append)
    assert slept == [0.25, 0.5]


# ------------------------------------------------------------------ admission

def test_unlimited_gate_never_sheds():
    gate = AdmissionGate(0)
    for _ in range(100):
        assert gate.try_acquire()
    assert gate.stats()["shed"] == 0


def test_bounded_gate_sheds_and_recovers():
    gate = AdmissionGate(2)
    assert gate.try_acquire()
    assert gate.try_acquire()
    assert not gate.try_acquire()
    assert gate.stats()["shed"] == 1
    gate.release()
    assert gate.try_acquire()
    stats = gate.stats()
    assert stats["in_flight"] == 2
    assert stats["admitted"] == 3


def test_admit_context_releases_on_exception():
    gate = AdmissionGate(1)
    with pytest.raises(RuntimeError):
        with gate.admit("test"):
            raise RuntimeError("boom")
    assert gate.stats()["in_flight"] == 0
    with gate.admit("test"):
        with pytest.raises(ServiceOverloadedError, match="shed"):
            with gate.admit("test"):
                pass
    assert gate.stats()["in_flight"] == 0
