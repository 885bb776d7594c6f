"""Circuit breaker for repeatedly failing dependencies.

Classic three-state breaker (Nygard, *Release It!*), used by the sharded
serving tier to stop sending requests to a shard worker that is dead or
not answering, so the scatter drops it after a few failures:

* **closed** — requests flow; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker.
* **open** — requests are refused (``allow()`` is False) until
  ``reset_timeout_s`` has elapsed, then the breaker moves to half-open.
* **half-open** — one probe request is let through; its success closes
  the breaker, its failure re-opens it (and restarts the timeout).

The clock is injectable so state transitions are testable without real
waiting.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from ..exceptions import ConfigurationError

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Probe requests admitted per half-open window.
_HALF_OPEN_PROBES = 1


class CircuitBreaker:
    """Thread-safe closed/open/half-open circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (while closed) that trip the breaker.
    reset_timeout_s:
        Seconds the breaker stays open before allowing probe requests.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ConfigurationError("reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._transitions = 0

    # ------------------------------------------------------------- internals

    def _set_state(self, new_state: str) -> None:
        """Transition the breaker. Caller must hold ``self._lock``."""
        if self._state == new_state:
            return
        self._state = new_state
        self._transitions += 1

    def _maybe_half_open(self) -> None:
        """Apply a pending open -> half-open move. Caller must hold
        ``self._lock``."""
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_timeout_s):
            self._set_state(HALF_OPEN)
            self._probes_in_flight = 0

    # ------------------------------------------------------------ public API

    @property
    def state(self) -> str:
        """Current state, applying any pending open -> half-open move."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """Whether the caller may attempt the protected operation now.

        In half-open state each True consumes one probe slot, so callers
        must report the outcome via ``record_success``/``record_failure``.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_in_flight < _HALF_OPEN_PROBES:
                    self._probes_in_flight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state != CLOSED:
                self._set_state(CLOSED)
            self._probes_in_flight = 0

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            self._consecutive_failures += 1
            tripped = (self._state == HALF_OPEN
                       or (self._state == CLOSED
                           and self._consecutive_failures
                           >= self.failure_threshold))
            if tripped:
                self._set_state(OPEN)
                self._opened_at = self._clock()
                self._probes_in_flight = 0

    def stats(self) -> Dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "transitions": self._transitions,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout_s,
            }
