"""Configuration for NeuTraj training (paper §VII-A5 defaults, scaled).

Besides the model hyper-parameters this module owns the process-wide
:class:`PrecomputeConfig` that the seed-distance drivers in
:mod:`repro.measures.matrix` consult for their defaults (worker count,
chunking and the on-disk ``.npz`` matrix cache).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from ..exceptions import ConfigurationError


@dataclass
class NeuTrajConfig:
    """Hyper-parameters of the NeuTraj model.

    Attributes
    ----------
    measure:
        Name of the target measure (``"frechet"``, ``"hausdorff"``,
        ``"erp"``, ``"dtw"``); NeuTraj is generic over this choice.
    embedding_dim:
        Hidden size / embedding dimensionality ``d`` (paper default 128; our
        scaled experiments default to 32).
    bandwidth:
        SAM scan half-width ``w`` (paper optimum 2).
    cell_size:
        Side of the SAM memory grid cells, in coordinate units (paper: 50 m).
    alpha:
        Similarity-transform sharpness; ``None`` selects it from the seed
        distance distribution (see ``similarity.suggest_alpha``).
    sampling_num:
        ``n``, the number of similar and of dissimilar samples per anchor
        (paper default 10).
    batch_anchors:
        Anchors per optimisation step (paper batch size 20).
    epochs:
        Training epochs.
    learning_rate:
        Adam step size.
    grad_clip:
        Global gradient-norm clip (0 disables).
    row_normalize:
        Use the paper text's row-normalised similarity transform instead of
        the released implementation's plain exponential (default False; the
        exponential converges markedly better — see DESIGN.md).
    use_sam:
        False gives the NT-No-SAM ablation (plain LSTM encoder).
    use_weighted_sampling:
        False gives the NT-No-WS ablation (uniform sampling).
    incremental_seeds:
        Fraction of seeds used in the first epoch when > 0; the pool grows
        linearly to 100% (curriculum used by the released implementation).
        0 uses all seeds from the start.
    seed:
        RNG seed for init and sampling.
    """

    measure: str = "frechet"
    embedding_dim: int = 32
    bandwidth: int = 2
    cell_size: float = 100.0
    alpha: Optional[float] = None
    sampling_num: int = 10
    batch_anchors: int = 20
    epochs: int = 10
    learning_rate: float = 0.01
    grad_clip: float = 5.0
    row_normalize: bool = False
    use_sam: bool = True
    use_weighted_sampling: bool = True
    incremental_seeds: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")
        if self.bandwidth < 0:
            raise ConfigurationError("bandwidth must be >= 0")
        if self.cell_size <= 0:
            raise ConfigurationError("cell_size must be positive")
        if self.sampling_num < 1:
            raise ConfigurationError("sampling_num must be >= 1")
        if self.batch_anchors < 1:
            raise ConfigurationError("batch_anchors must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= self.incremental_seeds <= 1.0:
            raise ConfigurationError("incremental_seeds must be in [0, 1]")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")

    def ablated(self, **changes) -> "NeuTrajConfig":
        """Copy with fields replaced (convenience for ablation sweeps)."""
        return replace(self, **changes)


def _env_workers() -> int:
    return int(os.environ.get("REPRO_PRECOMPUTE_WORKERS", "1"))


def _env_cache_dir() -> Optional[str]:
    return os.environ.get("REPRO_MATRIX_CACHE_DIR") or None


def _env_chunk_timeout() -> Optional[float]:
    raw = os.environ.get("REPRO_PRECOMPUTE_TIMEOUT_S")
    if raw is None or raw == "":
        return None
    value = float(raw)
    return value if value > 0 else None


@dataclass
class PrecomputeConfig:
    """Defaults for the exact distance-matrix precompute (paper §III-B).

    Attributes
    ----------
    workers:
        Processes used by ``pairwise_distances`` / ``cross_distances`` when
        the caller does not pass ``workers`` explicitly. 1 evaluates the
        ``chunk_pairs`` work units in the calling process through the
        measures' batched kernels; > 1 farms the same units to a process
        pool, which pays only for paper-scale matrices. The matrix is the
        same bit for bit. Seeded from the ``REPRO_PRECOMPUTE_WORKERS``
        environment variable.
    chunk_pairs:
        Target number of trajectory pairs per work unit. Larger chunks
        amortise dispatch overhead; smaller chunks give finer progress
        reporting.
    cache_dir:
        Directory for the on-disk ``.npz`` matrix cache; ``None`` disables
        caching. Seeded from ``REPRO_MATRIX_CACHE_DIR``.
    chunk_timeout_s:
        Seconds the process pool waits for a work unit before treating
        its worker as dead (hung or killed) and retrying. ``None`` (the
        default) waits forever — the pre-fault-tolerance behaviour. Seeded
        from ``REPRO_PRECOMPUTE_TIMEOUT_S`` (unset/non-positive disables).
    chunk_retries:
        Re-submissions attempted for a timed-out or crashed chunk before
        the driver falls back to computing that chunk in the parent
        process.
    retry_backoff_s:
        Base delay of the exponential backoff between chunk retries.
    """

    workers: int = field(default_factory=_env_workers)
    chunk_pairs: int = 512
    cache_dir: Optional[str] = field(default_factory=_env_cache_dir)
    chunk_timeout_s: Optional[float] = field(default_factory=_env_chunk_timeout)
    chunk_retries: int = 2
    retry_backoff_s: float = 0.1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.chunk_pairs < 1:
            raise ConfigurationError("chunk_pairs must be >= 1")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ConfigurationError(
                "chunk_timeout_s must be positive (use None to disable)")
        if self.chunk_retries < 0:
            raise ConfigurationError("chunk_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")


_PRECOMPUTE_CONFIG = PrecomputeConfig()


def get_precompute_config() -> PrecomputeConfig:
    """The process-wide precompute defaults."""
    return _PRECOMPUTE_CONFIG


def set_precompute_config(config: Optional[PrecomputeConfig] = None,
                          **changes) -> PrecomputeConfig:
    """Replace (or tweak) the process-wide precompute defaults.

    Pass a full :class:`PrecomputeConfig`, or keyword fields to change on
    the current one: ``set_precompute_config(workers=4, cache_dir=".cache")``.
    Returns the new active config.
    """
    global _PRECOMPUTE_CONFIG
    if config is None:
        config = replace(_PRECOMPUTE_CONFIG, **changes)
    elif changes:
        config = replace(config, **changes)
    _PRECOMPUTE_CONFIG = config
    return _PRECOMPUTE_CONFIG
