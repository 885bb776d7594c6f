"""NeuTraj model: seed-guided neural metric learning (paper §III-B, §V).

:class:`NeuTraj` is the package's primary public API. Given a pool of seed
trajectories it (1) computes their exact pair-wise distances under the
configured measure, (2) transforms them into the normalised similarity
matrix ``S``, and (3) trains the SAM-augmented recurrent encoder with the
distance-weighted ranking loss so that
``g(T_i, T_j) = exp(-||E_i - E_j||) ~ S_ij``.

After training, embedding a trajectory is O(L) and comparing two embeddings
is O(d) — the linear-time similarity primitive of the title.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..datasets.grid import CoordinateNormalizer, Grid
from ..datasets.trajectory import Trajectory, TrajectoryDataset
from ..exceptions import CorruptArtifactError, NotFittedError, ReproError
from ..measures import get_measure, pairwise_distances
from .atomicio import atomic_savez, read_npz
from ..nn.optim import Adam
from .config import NeuTrajConfig
from .encoder import TrajectoryEncoder
from .sampling import PairSampler
from ..exceptions import TrainingDivergedError
from .similarity import (distance_to_similarity, exponential_similarity,
                         suggest_alpha)
from .trainer import (DivergenceGuard, GuardrailConfig, TrainingHistory,
                      train_epoch)

PathLike = Union[str, Path]


class MetricModel:
    """Shared inference API for trained trajectory-embedding models."""

    def __init__(self, config: NeuTrajConfig):
        self.config = config
        self.encoder: Optional[TrajectoryEncoder] = None
        self.alpha: Optional[float] = None

    # ------------------------------------------------------------- inference

    def _require_fitted(self) -> TrajectoryEncoder:
        if self.encoder is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")
        return self.encoder

    def embed(self, trajectories: Sequence[Trajectory]) -> np.ndarray:
        """Embed trajectories -> (B, d) array (O(L) per trajectory)."""
        return self._require_fitted().embed(trajectories)

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        """Embedding-space Euclidean distance between two trajectories."""
        emb = self.embed([a, b])
        return float(np.linalg.norm(emb[0] - emb[1]))

    def similarity(self, a: Trajectory, b: Trajectory) -> float:
        """NeuTraj similarity ``g = exp(-||E_a - E_b||)`` in (0, 1]."""
        return float(np.exp(-self.distance(a, b)))

    def top_k(self, query: Trajectory, database_embeddings: np.ndarray,
              k: int) -> np.ndarray:
        """Indices of the k nearest database embeddings to ``query``."""
        query_emb = self.embed([query])[0]
        dists = np.linalg.norm(database_embeddings - query_emb, axis=1)
        k = min(k, len(dists))
        idx = np.argpartition(dists, k - 1)[:k]
        return idx[np.argsort(dists[idx], kind="stable")]

    # ----------------------------------------------------------- persistence

    def save(self, path: PathLike) -> None:
        """Serialise config + weights + grid/normaliser/memory to ``.npz``.

        Training history (when present) is stored too, so restored models
        can still report convergence statistics. The write goes through a
        temporary file and an atomic rename, making concurrent cache use
        safe.
        """
        encoder = self._require_fitted()
        payload = {f"param/{k}": v for k, v in encoder.state_dict().items()}
        # Unicode, not object, arrays: the file loads with pickle off.
        payload["meta/config"] = np.array(json.dumps(self.config.__dict__))
        payload["meta/class"] = np.array(type(self).__name__)
        payload["meta/alpha"] = np.array(
            -1.0 if self.alpha is None else self.alpha)
        payload["grid/bbox"] = np.array(encoder.grid.bbox)
        payload["grid/cell_size"] = np.array(encoder.grid.cell_size)
        payload["norm/mean"] = encoder.normalizer.mean
        payload["norm/std"] = encoder.normalizer.std
        if encoder.memory is not None:
            payload["memory/data"] = encoder.memory.data
        history = getattr(self, "history", None)
        if history is not None and history.epochs:
            payload["history/losses"] = np.array(history.losses)
            payload["history/seconds"] = np.array(
                [e.seconds for e in history.epochs])
            payload["history/anchors"] = np.array(
                [e.num_anchors for e in history.epochs])
        atomic_savez(Path(path), compressed=True, **payload)

    @classmethod
    def load(cls, path: PathLike) -> "MetricModel":
        """Load a model saved by :meth:`save`.

        Truncated, bit-flipped or otherwise undecodable files — and files
        holding pickled objects, which are never unpickled — raise a
        typed :class:`~repro.exceptions.CorruptArtifactError` instead of
        leaking zip/JSON internals.
        """
        try:
            return cls._load(path)
        except (ReproError, FileNotFoundError):
            raise
        except Exception as exc:
            raise CorruptArtifactError(
                f"cannot load model from {path}: {exc}") from exc

    @classmethod
    def _load(cls, path: PathLike) -> "MetricModel":
        data = read_npz(path)
        config = NeuTrajConfig(**json.loads(str(data["meta/config"])))
        model = cls(config)
        grid = Grid(tuple(data["grid/bbox"]), float(data["grid/cell_size"]))
        normalizer = CoordinateNormalizer(data["norm/mean"], data["norm/std"])
        rng = np.random.default_rng(config.seed)
        encoder = TrajectoryEncoder(grid, normalizer, config, rng)
        state = {k[len("param/"):]: v for k, v in data.items()
                 if k.startswith("param/")}
        encoder.load_state_dict(state)
        if encoder.memory is not None and "memory/data" in data:
            # SpatialMemory is a plain buffer, not a tape
            # Tensor; restoring it wholesale is the supported
            # path.  # repro: disable=tape-discipline
            encoder.memory.data = data["memory/data"]
        model.encoder = encoder
        alpha = float(data["meta/alpha"])
        model.alpha = None if alpha < 0 else alpha
        if "history/losses" in data:
            from .trainer import EpochStats, TrainingHistory
            losses = data["history/losses"]
            seconds = data["history/seconds"]
            anchors = data["history/anchors"]
            model.history = TrainingHistory(epochs=[
                EpochStats(epoch=i, loss=float(l), seconds=float(s),
                           num_anchors=int(a))
                for i, (l, s, a) in enumerate(zip(losses, seconds,
                                                  anchors))
            ])
        return model


class NeuTraj(MetricModel):
    """The NeuTraj model (paper's primary contribution).

    Examples
    --------
    >>> from repro import NeuTraj, NeuTrajConfig, generate_porto, PortoConfig
    >>> seeds = generate_porto(PortoConfig(num_trajectories=50), seed=0)
    >>> model = NeuTraj(NeuTrajConfig(measure="hausdorff", epochs=2,
    ...                               embedding_dim=16, sampling_num=5))
    >>> history = model.fit(seeds)
    >>> emb = model.embed(list(seeds))
    >>> emb.shape
    (50, 16)
    """

    def __init__(self, config: Optional[NeuTrajConfig] = None):
        super().__init__(config or NeuTrajConfig())
        self.history: Optional[TrainingHistory] = None
        self.similarity_matrix: Optional[np.ndarray] = None
        self.guard_report: Optional[dict] = None

    def fit(self, seeds: Union[TrajectoryDataset, Sequence[Trajectory]],
            distance_matrix: Optional[np.ndarray] = None,
            epoch_callback: Optional[Callable[[int, float], None]] = None,
            checkpoint_dir: Optional[PathLike] = None,
            checkpoint_every: int = 1, resume: bool = True,
            keep_checkpoints: int = 3,
            guardrails: Optional[GuardrailConfig] = None
            ) -> TrainingHistory:
        """Train on the seed pool.

        Parameters
        ----------
        seeds:
            The pool of seed trajectories (paper samples ~20% of the DB).
        distance_matrix:
            Precomputed exact (N, N) seed distances; computed with the
            configured measure when omitted (the quadratic offline step).
        epoch_callback:
            Invoked as ``callback(epoch, loss)`` after each epoch.
        checkpoint_dir:
            When set, an atomic sha256-manifested checkpoint (parameters,
            Adam moments, RNG/sampler state, loss history) is written
            there after each ``checkpoint_every``-th epoch via
            :class:`repro.resilience.CheckpointManager`, making the run
            crash-safe: re-calling ``fit`` with the same directory resumes
            from the last good checkpoint and produces bit-identical
            parameters and history to an uninterrupted run. Corrupt or
            truncated checkpoints are skipped in favour of the newest
            intact one.
        checkpoint_every:
            Epoch interval between checkpoints (default every epoch).
        resume:
            Set False to ignore existing checkpoints and retrain from
            scratch.
        keep_checkpoints:
            Newest checkpoints retained on disk (0 keeps all).
        guardrails:
            Divergence protection (:class:`~repro.core.GuardrailConfig`;
            default-enabled when omitted). Non-finite losses/gradients
            and EWMA loss spikes skip the batch's update; a skip run
            past the budget raises
            :class:`~repro.exceptions.TrainingDivergedError`, which —
            when ``checkpoint_dir`` is set and a good checkpoint exists
            — is answered by rolling parameters, optimizer moments and
            RNG state back to that checkpoint (bit-identical, the PR 3
            resume path) and re-running from there, at most
            ``guardrails.max_rollbacks`` times. Pass
            ``GuardrailConfig(enabled=False)`` for the exact unguarded
            path. ``self.guard_report`` holds the last run's skip
            statistics.
        """
        seed_list = list(seeds)
        if len(seed_list) <= self.config.sampling_num:
            raise ValueError(
                f"need more than sampling_num={self.config.sampling_num} seeds")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        if distance_matrix is None:
            measure = get_measure(cfg.measure)
            distance_matrix = pairwise_distances(seed_list, measure)
        distance_matrix = np.asarray(distance_matrix, dtype=np.float64)
        if distance_matrix.shape != (len(seed_list), len(seed_list)):
            raise ValueError("distance matrix shape does not match seeds")

        self.alpha = cfg.alpha or suggest_alpha(distance_matrix)
        transform = (distance_to_similarity if cfg.row_normalize
                     else exponential_similarity)
        self.similarity_matrix = transform(distance_matrix, self.alpha)

        dataset = TrajectoryDataset(seed_list)
        grid = Grid.for_dataset(dataset, cfg.cell_size,
                                margin=cfg.cell_size * max(cfg.bandwidth, 1))
        normalizer = CoordinateNormalizer.fit(seed_list)
        self.encoder = TrajectoryEncoder(grid, normalizer, cfg, rng)

        sampler = PairSampler(self.similarity_matrix, cfg.sampling_num,
                              weighted=cfg.use_weighted_sampling, rng=rng)
        optimizer = Adam(self.encoder.parameters(), lr=cfg.learning_rate)

        manager = None
        if checkpoint_dir is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            from ..resilience.checkpoint import CheckpointManager
            manager = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)

        history = TrainingHistory()
        start_epoch = 0
        if manager is not None and resume:
            checkpoint = manager.load_latest()
            if checkpoint is not None:
                from .trainer import unpack_training_checkpoint
                epoch_done, history = unpack_training_checkpoint(
                    checkpoint.arrays, checkpoint.meta, self.encoder,
                    optimizer, rng, cfg)
                start_epoch = epoch_done + 1

        guard_cfg = guardrails or GuardrailConfig()
        guard = DivergenceGuard(guard_cfg) if guard_cfg.enabled else None
        rollbacks = 0
        num_seeds = len(seed_list)
        epoch = start_epoch
        while epoch < cfg.epochs:
            anchors = self._epoch_anchors(num_seeds, epoch, rng)
            try:
                stats = train_epoch(self.encoder, seed_list, sampler,
                                    optimizer, anchors, cfg.batch_anchors,
                                    cfg.grad_clip, rng, epoch, guard=guard)
            except TrainingDivergedError:
                checkpoint = (manager.load_latest()
                              if manager is not None else None)
                if checkpoint is None or rollbacks >= guard_cfg.max_rollbacks:
                    self.guard_report = dict(guard.stats(),
                                             rollbacks=rollbacks)
                    raise
                from .trainer import unpack_training_checkpoint
                epoch_done, history = unpack_training_checkpoint(
                    checkpoint.arrays, checkpoint.meta, self.encoder,
                    optimizer, rng, cfg)
                rollbacks += 1
                guard = DivergenceGuard(guard_cfg)
                epoch = epoch_done + 1
                continue
            history.epochs.append(stats)
            if manager is not None and (
                    (epoch + 1) % checkpoint_every == 0
                    or epoch == cfg.epochs - 1):
                from .trainer import pack_training_checkpoint
                arrays, meta = pack_training_checkpoint(
                    self.encoder, optimizer, rng, history, epoch, cfg)
                manager.save(epoch, arrays, meta)
            if epoch_callback is not None:
                epoch_callback(epoch, stats.loss)
            epoch += 1
        self.history = history
        self.guard_report = (dict(guard.stats(), rollbacks=rollbacks)
                             if guard is not None else None)
        return history

    def _epoch_anchors(self, num_seeds: int, epoch: int,
                       rng: np.random.Generator) -> np.ndarray:
        """Anchor subset for the epoch (optional incremental curriculum)."""
        frac = self.config.incremental_seeds
        if frac <= 0 or self.config.epochs <= 1:
            return np.arange(num_seeds)
        progress = epoch / (self.config.epochs - 1)
        share = frac + (1.0 - frac) * progress
        count = max(self.config.sampling_num + 1,
                    int(round(share * num_seeds)))
        return np.arange(min(count, num_seeds))
