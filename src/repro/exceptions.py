"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTrajectoryError(ReproError):
    """A trajectory failed validation (wrong shape, too short, non-finite)."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class NotFittedError(ReproError):
    """A model method requiring training was called before ``fit``."""


class CorruptArtifactError(ReproError, ValueError):
    """A persisted artifact (store, model, checkpoint) failed to load cleanly.

    Also a :class:`ValueError` so call sites that predate the typed error
    (e.g. the bundle loader's store handling) keep catching it.
    """


class CheckpointError(ReproError):
    """A training checkpoint could not be written, read, or applied."""


class PrecomputeError(ReproError):
    """The distance precompute failed even after retries and serial fallback."""


class TrainingDivergedError(ReproError):
    """Training produced non-finite loss/gradients or a sustained loss
    spike past the guardrails' skip budget (see
    :class:`repro.core.trainer.DivergenceGuard`)."""


class ServiceClosedError(ReproError):
    """Work was submitted to (or stranded in) a closed serving component."""


class ServiceOverloadedError(ReproError):
    """The service shed the request because its admission queue is full."""


class ServiceUnavailableError(ReproError):
    """The service cannot answer right now (e.g. every shard of the
    sharded tier is unavailable)."""


class DeadlineExceededError(ReproError):
    """The request's deadline expired before an answer was produced."""


class ShardUnavailableError(ServiceUnavailableError):
    """A shard worker is dead, timed out, or behind an open breaker.

    Inside the scatter-gather tier this marks one fan-out leg as failed;
    it only escapes to callers when *every* shard is unavailable (a
    partial answer is impossible)."""


class ReloadError(ReproError):
    """A zero-downtime bundle reload could not be prepared or activated;
    the serving tier keeps answering from the old generation."""


class WALCorruptionError(CorruptArtifactError):
    """A write-ahead log is corrupted *mid-stream*: a record failed its
    checksum (or framing) and at least one structurally valid record
    follows it, so the damage cannot be explained as a torn tail from a
    crash during append. Recovery refuses to guess and raises instead of
    silently dropping acknowledged mutations.

    A torn tail — garbage with **no** valid record after it — is the
    expected signature of a crash mid-write and is repaired silently by
    truncating to the longest valid prefix."""


class PartialWriteError(ShardUnavailableError):
    """A mutation fan-out failed after some shards durably applied their
    sub-batch. ``applied_ids`` lists exactly the ids that are on disk
    (WAL-acknowledged), so callers can retry the remainder idempotently:
    re-sending an already-applied id is a no-op at the shard."""

    def __init__(self, message, applied_ids=()):
        super().__init__(message)
        self.applied_ids = list(applied_ids)
