"""Fault-tolerance building blocks shared across the pipeline.

The embed-once/query-online pipeline has three long-lived stages — the
quadratic seed-distance precompute, the training loop, and the online
service — and each can lose hours of work (or take traffic down) on a
single crash, hang, or bad input. This package centralises the generic
machinery they share:

* :class:`CheckpointManager` — atomic, sha256-manifested, versioned
  training checkpoints with corrupt-file fallback
  (:mod:`repro.resilience.checkpoint`).
* :class:`RetryPolicy` — bounded retries with exponential backoff
  (:mod:`repro.resilience.retry`), used by the precompute chunk driver.
* :class:`CircuitBreaker` — closed/open/half-open breaker
  (:mod:`repro.resilience.breaker`), guarding each shard worker of the
  sharded serving tier.
* :class:`AdmissionGate` — bounded admission with load shedding
  (:mod:`repro.resilience.admission`), the serving 429 path.

The deterministic fault injectors that exercise all of this live in
:mod:`repro.testing.faults`.
"""

from ..exceptions import (CheckpointError, DeadlineExceededError,
                          PrecomputeError, ServiceClosedError,
                          ServiceOverloadedError, ServiceUnavailableError)
from .admission import AdmissionGate
from .breaker import CircuitBreaker
from .checkpoint import CHECKPOINT_SCHEMA, Checkpoint, CheckpointManager
from .retry import RetryPolicy

__all__ = [
    "AdmissionGate", "CircuitBreaker", "Checkpoint", "CheckpointManager",
    "CHECKPOINT_SCHEMA", "RetryPolicy",
    "CheckpointError", "DeadlineExceededError", "PrecomputeError",
    "ServiceClosedError", "ServiceOverloadedError", "ServiceUnavailableError",
]
