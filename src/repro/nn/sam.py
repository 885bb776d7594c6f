"""Spatial Attention Memory (SAM) and the SAM-augmented LSTM (paper §IV).

The SAM module is a grid-based external memory: a tensor ``M`` of shape
(P, Q, d) holding one embedding per grid cell of the discretised space.
The augmented recurrent unit adds a fourth *spatial* gate ``s_t`` and, at
each step,

* **reads** (Eq. 4): scans the (2w+1)² window of grid cells around the
  current input cell, attends over them with the intermediate cell state
  and mixes the result back into the cell state, and
* **writes** (Eq. 5): stores the new cell state into the current grid cell,
  gated by ``sigma(s_t)``.

Following the released implementation, the memory is *external state*:
reads treat stored embeddings as constants and writes store detached
values — gradients flow through the attention weights and the read
projection, not through history.

Two stabilisations (both ablatable) keep long CPU trainings healthy; we
found the literal equations drift otherwise (cell-state magnitudes past 10,
saturating ``tanh`` and costing ~20 HR@10 points on our workloads):

* the spatial gate's bias starts at ``SPATIAL_GATE_BIAS`` (negative), so
  the additive memory path opens only where training finds it useful —
  the standard highway/GRU-style initialisation for additive gates;
* writes store ``tanh(c_t)`` (``bounded=True``), bounding the stored
  embeddings to the same range the attention reader was designed for.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import init
from .layers import Linear
from .module import Module, Parameter
from .rnn import Recurrent
from .tensor import Tensor, concat, logistic

#: Initial bias of the spatial gate: strongly negative so the memory path
#: starts nearly closed and opens only where it reduces the loss.
SPATIAL_GATE_BIAS = -4.0

#: Cap on one hoisted index array in :meth:`SpatialMemory.windows`: hoisting
#: only pays where the batch is small, and larger blocks show up as peak RSS.
_HOIST_BYTES = 256 * 1024


class SpatialMemory:
    """Grid-based memory tensor ``M`` with windowed gather and gated scatter.

    Parameters
    ----------
    grid_shape:
        (P, Q) number of grid cells along each axis.
    hidden_size:
        Width ``d`` of each stored cell embedding.
    bandwidth:
        Scan half-width ``w``; reads return the (2w+1)² surrounding cells.
    bounded:
        Store ``tanh(values)`` on writes (default True), keeping cell
        embeddings in (-1, 1) regardless of cell-state drift.
    """

    def __init__(self, grid_shape: Tuple[int, int], hidden_size: int,
                 bandwidth: int = 2, bounded: bool = True):
        if bandwidth < 0:
            raise ValueError("bandwidth must be >= 0")
        self.grid_shape = (int(grid_shape[0]), int(grid_shape[1]))
        self.hidden_size = int(hidden_size)
        self.bandwidth = int(bandwidth)
        self.bounded = bool(bounded)
        p, q = self.grid_shape
        self.data = np.zeros((p, q, self.hidden_size), dtype=np.float64)
        #: Bumped by every :meth:`write` that lands and by :meth:`reset`;
        #: with the identity of ``data`` it tells a :class:`WindowLog`
        #: whether the memory still is what its forward left behind.
        self.writes = 0
        offsets = np.arange(-bandwidth, bandwidth + 1, dtype=np.int64)
        ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
        # (K, 2) window offsets in row-major scan order, K = (2w+1)^2.
        self._window = np.stack([ox.ravel(), oy.ravel()], axis=1)

    @property
    def window_size(self) -> int:
        return len(self._window)

    def reset(self) -> None:
        """Zero the memory (used between training runs / datasets)."""
        self.data[:] = 0.0
        self.writes += 1

    def copy(self) -> "SpatialMemory":
        clone = SpatialMemory(self.grid_shape, self.hidden_size,
                              self.bandwidth, bounded=self.bounded)
        clone.data = self.data.copy()
        return clone

    def window_index(self, cells: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Where the scan windows around ``cells`` (..., 2) live: the row of
        the flattened (P·Q, d) memory each window position reads and
        whether it lies outside the grid (reads as zeros), both (..., K).
        """
        cells = np.asarray(cells, dtype=int)
        p, q = self.grid_shape
        gx = cells[..., 0:1] + self._window[:, 0]
        gy = cells[..., 1:2] + self._window[:, 1]
        # min/max, not np.clip, for the reason given in ``Grid.to_cells``.
        inside_x = np.minimum(np.maximum(gx, 0), p - 1)
        inside_y = np.minimum(np.maximum(gy, 0), q - 1)
        outside = (inside_x != gx) | (inside_y != gy)
        return inside_x * q + inside_y, outside

    def table(self) -> np.ndarray:
        """The memory as a (P·Q, d) view, one row per grid cell."""
        p, q = self.grid_shape
        return self.data.reshape(p * q, self.hidden_size)

    def take(self, flat: np.ndarray, outside: np.ndarray,
             table: Optional[np.ndarray] = None) -> np.ndarray:
        """Read the (..., K, d) windows that :meth:`window_index` located,
        from :meth:`table` or from a copy of it."""
        # One flat ``take`` instead of a (gx, gy) double fancy index: this
        # runs once per recurrent step and is the read hot spot.
        if table is None:
            table = self.table()
        window = table.take(flat, axis=0)
        window[outside] = 0.0
        return window

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """Read the scan windows around a batch of grid cells.

        Parameters
        ----------
        cells:
            Integer array (B, 2) of (gx, gy) cell coordinates.

        Returns
        -------
        (B, K, d) array of the surrounding grid-cell embeddings; positions
        outside the grid read as zeros.
        """
        return self.take(*self.window_index(cells))

    def windows(self, cells: np.ndarray,
                live: Sequence[int]) -> Iterator[np.ndarray]:
        """Yield each step's (live[t], K, d) window for time-major ``cells``
        (T, B, 2): step ``t`` takes only the windows of its first
        ``live[t]`` rows.

        For read-only passes: nothing writes between steps, so the index
        arithmetic is hoisted out of the step loop, a block of steps at a
        time. The windows are still taken per step — a (T, B, K, d) block
        of them costs more to materialise than it saves.
        """
        cells = np.asarray(cells, dtype=int)
        per_step = cells.shape[1] * self.window_size * cells.itemsize
        block = max(1, _HOIST_BYTES // per_step)
        for start in range(0, len(cells), block):
            index = self.window_index(cells[start:start + block])
            for t, (flat, outside) in enumerate(zip(*index), start):
                if live[t] < len(flat):
                    flat, outside = flat[:live[t]], outside[:live[t]]
                yield self.take(flat, outside)

    def window_log(self, cells: np.ndarray) -> "WindowLog":
        """A :class:`WindowLog` for a taped unroll over ``cells`` (B, T, 2)."""
        return WindowLog(self, cells)

    def write(self, cells: np.ndarray, values: np.ndarray, gates: np.ndarray,
              mask: Optional[np.ndarray] = None
              ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Gated sparse update ``M(g) = sig(s)*c + (1-sig(s))*M(g)`` (Eq. 5).

        Writes follow batch order, matching the per-trajectory semantics of
        the paper (a later sample in the batch sees earlier writes to the
        same cell). The update is a vectorised scatter: samples hitting
        *distinct* cells are blended in one fancy-indexed assignment, and
        duplicate cells are resolved by last-writer chaining — round ``r``
        applies the ``r``-th writer of every duplicated cell, so the chained
        result is bit-identical to the sequential loop.

        Returns what the write overwrote, ``(rows, old)``: each distinct
        cell it wrote as a row of :meth:`table` and that row's value before
        the first of this call's writes to it — assigning ``old`` back
        undoes the call bit for bit. ``None`` when no row was written.
        """
        cells = np.asarray(cells, dtype=int)
        values = np.asarray(values, dtype=np.float64)
        if self.bounded:
            values = np.tanh(values)
        gate_weight = logistic(np.asarray(gates, dtype=np.float64))
        p, q = self.grid_shape
        valid = ((cells[:, 0] >= 0) & (cells[:, 0] < p)
                 & (cells[:, 1] >= 0) & (cells[:, 1] < q))
        if mask is not None:
            valid &= np.asarray(mask, dtype=bool)
        rows = np.flatnonzero(valid)
        if rows.size == 0:
            return None
        gx = cells[rows, 0]
        gy = cells[rows, 1]
        flat = gx * q + gy
        # Stable sort groups duplicate cells while preserving batch order
        # inside each group; ``rank`` is each row's position in its group.
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        group_start = np.flatnonzero(
            np.concatenate([[True], sorted_flat[1:] != sorted_flat[:-1]]))
        group_id = np.cumsum(
            np.concatenate([[True], sorted_flat[1:] != sorted_flat[:-1]])) - 1
        rank = np.arange(len(sorted_flat), dtype=np.intp) - group_start[group_id]
        written = sorted_flat[group_start]
        overwritten = self.table()[written]
        self.writes += 1
        for r in range(int(rank.max()) + 1):
            sel = order[rank == r]  # one writer per cell -> scatter is safe
            g = gate_weight[rows[sel]]
            self.data[gx[sel], gy[sel]] = (
                g * values[rows[sel]]
                + (1.0 - g) * self.data[gx[sel], gy[sel]])
        return written, overwritten

    def occupancy(self) -> float:
        """Fraction of grid cells holding a non-zero embedding."""
        nonzero = np.any(self.data != 0.0, axis=-1)
        return float(nonzero.mean())


class WindowLog:
    """What a taped unroll keeps of its memory reads: never a window.

    Forward reads each step's (B, K, d) window through :meth:`read`, which
    keeps only where it lay (``window_index``), and writes the memory
    through :meth:`write`, which keeps only the rows the write overwrote.
    Backward runs the steps newest first (the c/h chain orders it), and
    each step's :meth:`reread` takes its window again from a private copy
    of the memory, copied at the first re-read and rewound one step's
    write at a time — so step ``t`` sees bit for bit the window its forward
    read, for P·Q·d bytes once plus at most B·d a step, whatever K and
    however the windows overlap. Inference threads keep reading the live
    memory; the copy is this log's alone.

    A re-read raises ``RuntimeError`` when the memory was written, reset
    or replaced since the forward (its windows are gone), and when a step
    is re-read out of order (the copy only rewinds).
    """

    def __init__(self, memory: SpatialMemory, cells: np.ndarray):
        self.memory = memory
        self._cells = cells  # (B, T, 2)
        self._index: list = []  # per step: (flat, outside)
        self._undo: list = []  # per step: what its write overwrote, or None
        self._state = (memory.writes, memory.data)
        self._table: Optional[np.ndarray] = None  # the rewound copy

    def read(self) -> np.ndarray:
        """The next step's window, from the live memory."""
        flat, outside = self.memory.window_index(
            self._cells[:, len(self._index)])
        self._index.append((flat, outside))
        self._undo.append(None)
        return self.memory.take(flat, outside)

    def write(self, values: np.ndarray, gates: np.ndarray,
              mask: np.ndarray) -> None:
        """The last-read step's memory write (:meth:`SpatialMemory.write`)."""
        step = len(self._index) - 1
        self._undo[step] = self.memory.write(self._cells[:, step], values,
                                             gates, mask=mask)
        self._state = (self.memory.writes, self.memory.data)

    def reread(self, step: int) -> np.ndarray:
        """Step ``step``'s window as its forward read it, for backward."""
        if not 0 <= step < len(self._index):
            raise RuntimeError(
                f"window of step {step} re-read out of order: backward "
                f"re-reads newest step first, and the newest left is step "
                f"{len(self._index) - 1}")
        if self._table is None:
            writes, data = self._state
            if self.memory.writes != writes or self.memory.data is not data:
                raise RuntimeError(
                    "the spatial memory was written, reset or replaced "
                    "between this unroll's forward and its backward(), so "
                    "the windows it read are gone; run backward() before "
                    "the memory changes")
            self._table = self.memory.table().copy()
        while len(self._undo) > step:  # rewind to before step's own write
            undo = self._undo.pop()
            if undo is not None:
                written, overwritten = undo
                self._table[written] = overwritten
        window = self.memory.take(*self._index[step], table=self._table)
        del self._index[step:]
        if not self._index:
            self._table = None
        return window


class SAMLSTMCell(Module):
    """SAM-augmented LSTM step (paper Eq. 1-6).

    Produces four sigmoid gates ``[f, i, s, o]`` from the coordinate input
    and previous hidden state, forms the intermediate cell state, augments it
    with the attention read from :class:`SpatialMemory` scaled by the spatial
    gate, writes the result back, and emits the hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        d = hidden_size
        self.w_gates = Parameter(init.xavier_uniform((4 * d, input_size), rng))
        self.u_gates = Parameter(init.orthogonal((4 * d, d), rng))
        bias = init.lstm_forget_bias(init.zeros(4 * d), d)
        bias[2 * d:3 * d] = SPATIAL_GATE_BIAS
        self.b_gates = Parameter(bias)
        self.w_cand = Parameter(init.xavier_uniform((d, input_size), rng))
        self.u_cand = Parameter(init.orthogonal((d, d), rng))
        self.b_cand = Parameter(init.zeros(d))
        # Attention read projection W_his: concat([c_hat, mix]) -> d.
        self.read_proj = Linear(2 * d, d, rng)

    def forward(self, x: Tensor, grid_cells: np.ndarray, h_prev: Tensor,
                c_prev: Tensor, memory: SpatialMemory,
                write: bool = True, step_mask: Optional[np.ndarray] = None
                ) -> Tuple[Tensor, Tensor]:
        """Eq. 1-6 op by op on the tape (with :meth:`read`) — the reference
        the tests compare :func:`~repro.nn.rnn.tape_step` against; nothing
        under ``src/`` trains or infers through it."""
        d = self.hidden_size
        gates = (x @ self.w_gates.transpose()
                 + h_prev @ self.u_gates.transpose() + self.b_gates).sigmoid()
        f_t = gates[:, 0 * d:1 * d]
        i_t = gates[:, 1 * d:2 * d]
        s_t = gates[:, 2 * d:3 * d]
        o_t = gates[:, 3 * d:4 * d]
        cand = (x @ self.w_cand.transpose()
                + h_prev @ self.u_cand.transpose() + self.b_cand).tanh()
        c_hat = f_t * c_prev + i_t * cand

        c_his = self.read(c_hat, grid_cells, memory)
        c_t = c_hat + s_t * c_his
        if write:
            memory.write(grid_cells, c_t.data, s_t.data, mask=step_mask)
        h_t = o_t * c_t.tanh()
        return h_t, c_t

    def read(self, c_hat: Tensor, grid_cells: np.ndarray,
             memory: SpatialMemory) -> Tensor:
        """Attention read (§IV-C1): scan, attend, mix, project."""
        window = Tensor(memory.gather(grid_cells))  # (B, K, d), constant
        # Attention scores: (B, K, d) @ (B, d, 1) -> (B, K).
        scores = (window @ c_hat.reshape(c_hat.shape[0], c_hat.shape[1], 1)
                  ).reshape(window.shape[0], window.shape[1])
        attn = scores.softmax(axis=-1)
        # mix = G^T A: (B, d, K) @ (B, K, 1) -> (B, d).
        mix = (window.transpose(0, 2, 1)
               @ attn.reshape(attn.shape[0], attn.shape[1], 1)
               ).reshape(c_hat.shape)
        cat = concat([c_hat, mix], axis=-1)
        return self.read_proj(cat).tanh()

    def weight_views(self) -> tuple:
        """Trailing arguments of :func:`~repro.nn.rnn.step_forward`."""
        return (self.u_gates.data.transpose(), self.u_cand.data.transpose(),
                self.read_proj.weight.data.transpose(),
                self.read_proj.bias.data)


class SAMLSTM(Recurrent):
    """A :class:`SAMLSTMCell` unrolled over padded (coords, grid-cells)
    sequences. Memory writes happen only when ``forward`` is given
    ``update_memory=True`` (training); inference (the tape-free ``fold``)
    is read-only so that embeddings are deterministic.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        self.hidden_size = hidden_size
        self.cell = SAMLSTMCell(input_size, hidden_size, rng)
