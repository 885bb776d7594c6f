"""Trajectory encoder: grid + normaliser + (SAM-)LSTM -> embeddings (§IV, §V-A).

The encoder owns everything needed to turn a raw trajectory into its
d-dimensional embedding: the coordinate normaliser (RNN input scale), the
spatial grid (SAM addressing), the recurrent network, and — when SAM is
enabled — the external memory tensor. The final valid hidden state of the
recurrent pass is the trajectory representation.

Training runs the taped ``forward``; every inference path — :meth:`embed`,
the prefix folds of the streaming tier — runs the one tape-free
``Recurrent.fold``, so a trajectory's embedding is a function of that
trajectory alone, bit for bit, whatever else shares its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..datasets.grid import CoordinateNormalizer, Grid
from ..datasets.trajectory import Trajectory, pad_batch
from ..nn.module import Module
from ..nn.rnn import LSTM
from ..nn.sam import SAMLSTM, SpatialMemory
from ..nn.tensor import Tensor
from .config import NeuTrajConfig

#: Rows per :meth:`TrajectoryEncoder.embed` fold. Each row's bits are its
#: own whatever the chunk, so this bounds only the padded batch's size.
EMBED_CHUNK = 128


@dataclass(frozen=True)
class PrefixState:
    """Resumable encoder state after folding a trajectory prefix.

    The recurrent encoders are left folds over points: the state after
    point ``t`` depends only on the state after ``t-1`` and point ``t``
    (inference reads the SAM memory but never writes it). Persisting
    ``(h, c)`` therefore lets a *growing* trajectory re-embed in O(new
    points) instead of O(length): the streaming ingest tier keeps one
    ``PrefixState`` per live trajectory segment.

    Instances are immutable value objects — extending a prefix returns a
    new state, so a caller can keep the old one (e.g. for speculative
    growth or crash-safe checkpointing). States of many trajectories fold
    together as rows of one batch (:meth:`TrajectoryEncoder.extend_prefixes`)
    and each lands on the bits it would reach folded alone.

    Attributes
    ----------
    h, c:
        Hidden and cell state, each of shape (1, d). ``h[0]`` is the
        embedding of the prefix consumed so far.
    length:
        Number of points folded into this state.
    """

    h: np.ndarray
    c: np.ndarray
    length: int

    @property
    def embedding(self) -> np.ndarray:
        """The (d,) embedding of the consumed prefix (a copy)."""
        return self.h[0].copy()


class TrajectoryEncoder(Module):
    """Encode batches of trajectories into embeddings.

    Parameters
    ----------
    grid:
        Spatial grid used both for SAM memory addressing.
    normalizer:
        Coordinate normaliser fitted on the seed pool.
    config:
        Model hyper-parameters (``use_sam`` selects the cell type).
    rng:
        Generator for weight initialisation.
    """

    def __init__(self, grid: Grid, normalizer: CoordinateNormalizer,
                 config: NeuTrajConfig, rng: np.random.Generator):
        self.grid = grid
        self.normalizer = normalizer
        self.config = config
        d = config.embedding_dim
        if config.use_sam:
            self.rnn = SAMLSTM(2, d, rng)
            self.memory = SpatialMemory(grid.shape, d, bandwidth=config.bandwidth)
        else:
            self.rnn = LSTM(2, d, rng)
            self.memory = None

    @property
    def uses_sam(self) -> bool:
        return self.memory is not None

    def encode(self, trajectories: Sequence[Trajectory],
               update_memory: bool = False) -> Tensor:
        """Differentiable batch encoding -> (B, d) embedding Tensor."""
        coords, _, mask = pad_batch(trajectories)
        cells = self.grid.to_cells(coords) if self.uses_sam else None
        return self.rnn(self.normalizer.transform(coords), mask, cells,
                        self.memory, update_memory=update_memory)

    def embed(self, trajectories: Sequence[Trajectory]) -> np.ndarray:
        """Inference embeddings (B, d) as a plain array.

        Each trajectory is folded from zero states (:meth:`_fold`, the
        memory read-only), ``EMBED_CHUNK`` rows at a time: no ``Tensor``
        is built and the autograd switch is never touched, so any thread
        may call it. Row ``i`` is bit for bit
        ``encode_prefix(trajectories[i].points).embedding``, whatever the
        other rows are.
        """
        items = list(trajectories)
        d = self.config.embedding_dim
        chunks = [np.zeros((0, d))]
        for start in range(0, len(items), EMBED_CHUNK):
            tails = [t.points for t in items[start:start + EMBED_CHUNK]]
            zeros = np.zeros((len(tails), d))
            chunks.append(self._fold(zeros, zeros, tails)[0])
        return np.concatenate(chunks)

    def _fold(self, h: np.ndarray, c: np.ndarray,
              tails: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Pad ``tails`` ((n_i, 2) raw coordinates, refused unless finite)
        into one batch and fold row ``i`` into ``h[i]``, ``c[i]`` through
        ``Recurrent.fold``, the memory read-only; returns the new (B, d)
        ``(h, c)``."""
        lengths = [len(points) for points in tails]
        coords = np.zeros((len(tails), max(lengths, default=0), 2))
        for row, points in enumerate(tails):
            coords[row, :len(points)] = points
        if not np.isfinite(coords).all():
            raise ValueError("points must be finite")
        return self.rnn.fold(
            h, c, self.normalizer.transform(coords), lengths,
            self.grid.to_cells(coords) if self.uses_sam else None,
            self.memory)

    # -------------------------------------------------- incremental encoding

    def init_prefix(self) -> PrefixState:
        """Fresh encoder state (the empty-prefix fold identity)."""
        d = self.config.embedding_dim
        return PrefixState(h=np.zeros((1, d)), c=np.zeros((1, d)), length=0)

    def extend_prefix(self, state: PrefixState,
                      points: np.ndarray) -> PrefixState:
        """Fold ``points`` ((n, 2) raw coordinates) into ``state``.

        The one-row case of :meth:`extend_prefixes`: tape-free, the memory
        read-only, each point's input projection computed by itself, so
        the result is invariant to how a growing trajectory is chunked
        across calls — extending point by point, in bursts, or all at
        once produces bit-identical states, and :meth:`embed` lands on
        the same bits as the fold from :meth:`init_prefix`.

        Returns a new state; ``state`` itself is not mutated.
        """
        return self.extend_prefixes([state], [points])[0]

    def extend_prefixes(self, states: Sequence[PrefixState],
                        tails: Sequence[np.ndarray]) -> List[PrefixState]:
        """Fold each of ``tails`` ((n_i, 2) raw coordinates) into the
        matching one of ``states``, in one padded tape-free unroll
        (``Recurrent.fold``) with the memory read-only.

        Batch-invariant as well as chunk-invariant: the products run row
        by row, so state ``i`` of the result is bit for bit
        ``extend_prefix(states[i], tails[i])``, whatever the other rows
        are. An empty tail returns a copy of its state. No state is
        mutated.
        """
        if len(states) != len(tails):
            raise ValueError(f"{len(states)} states for {len(tails)} tails")
        if not states:
            return []
        tails = [np.asarray(points, dtype=np.float64) for points in tails]
        for points in tails:
            if points.ndim != 2 or points.shape[1] != 2:
                raise ValueError(
                    f"expected points of shape (n, 2), got {points.shape}")
        h, c = self._fold(np.concatenate([state.h for state in states]),
                          np.concatenate([state.c for state in states]),
                          tails)
        return [PrefixState(h=h[row:row + 1].copy(), c=c[row:row + 1].copy(),
                            length=state.length + len(points))
                for row, (state, points) in enumerate(zip(states, tails))]

    def encode_prefix(self, points: np.ndarray) -> PrefixState:
        """Full re-encoding through the incremental path (from scratch).

        ``encode_prefix(all_points)`` is bit-identical to any sequence of
        :meth:`extend_prefix` calls that feeds the same points in order —
        the property the streaming tier's O(new points) re-embedding
        relies on.
        """
        return self.extend_prefix(self.init_prefix(), points)

    def reset_memory(self) -> None:
        if self.memory is not None:
            self.memory.reset()
