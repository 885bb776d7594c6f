"""Bounded retries with exponential backoff.

A tiny, dependency-free policy object used by the precompute chunk
driver to re-attempt flaky work. Delays are deterministic so
fault-injection tests can reason about exact schedules; the ``sleep``
hook is injectable for the same reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..exceptions import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt a failed unit of work, and how fast.

    Attributes
    ----------
    max_retries:
        Re-attempts after the first try (0 = fail immediately).
    base_delay_s:
        Delay before the first retry.
    multiplier:
        Exponential growth factor between consecutive retries.
    max_delay_s:
        Cap on any single delay.
    """

    max_retries: int = 2
    base_delay_s: float = 0.1
    multiplier: float = 2.0
    max_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.base_delay_s * self.multiplier ** (attempt - 1),
                   self.max_delay_s)

    def should_retry(self, attempt: int) -> bool:
        """True when retry number ``attempt`` (1-based) is still allowed."""
        return attempt <= self.max_retries

    def sleep(self, attempt: int,
              sleep: Callable[[float], None] = time.sleep) -> float:
        """Sleep out the backoff for ``attempt``; returns the delay used."""
        duration = self.delay(attempt)
        if duration > 0:
            sleep(duration)
        return duration
