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

from typing import Iterator, Optional, Tuple

import numpy as np

from . import init
from .layers import Linear
from .module import Module, Parameter
from .rnn import Recurrent, step_forward
from .tensor import Tensor, concat, logistic, unstack, where

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

    def take(self, flat: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Read the (..., K, d) windows that :meth:`window_index` located."""
        p, q = self.grid_shape
        # One flat ``take`` instead of a (gx, gy) double fancy index: this
        # runs once per recurrent step and is the read hot spot.
        window = self.data.reshape(p * q, self.hidden_size).take(flat, axis=0)
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

    def windows(self, cells: np.ndarray) -> Iterator[np.ndarray]:
        """Yield each step's (B, K, d) window for time-major ``cells`` (T, B, 2).

        For read-only passes: nothing writes between steps, so the index
        arithmetic is hoisted out of the step loop, a block of steps at a
        time. The windows are still taken per step — a (T, B, K, d) block
        of them costs more to materialise than it saves.
        """
        cells = np.asarray(cells, dtype=int)
        per_step = cells.shape[1] * self.window_size * cells.itemsize
        block = max(1, _HOIST_BYTES // per_step)
        for start in range(0, len(cells), block):
            for flat, outside in zip(
                    *self.window_index(cells[start:start + block])):
                yield self.take(flat, outside)

    def write(self, cells: np.ndarray, values: np.ndarray, gates: np.ndarray,
              mask: Optional[np.ndarray] = None) -> None:
        """Gated sparse update ``M(g) = sig(s)*c + (1-sig(s))*M(g)`` (Eq. 5).

        Writes follow batch order, matching the per-trajectory semantics of
        the paper (a later sample in the batch sees earlier writes to the
        same cell). The update is a vectorised scatter: samples hitting
        *distinct* cells are blended in one fancy-indexed assignment, and
        duplicate cells are resolved by last-writer chaining — round ``r``
        applies the ``r``-th writer of every duplicated cell, so the chained
        result is bit-identical to the sequential loop.
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
            return
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
        for r in range(int(rank.max()) + 1):
            sel = order[rank == r]  # one writer per cell -> scatter is safe
            g = gate_weight[rows[sel]]
            self.data[gx[sel], gy[sel]] = (
                g * values[rows[sel]]
                + (1.0 - g) * self.data[gx[sel], gy[sel]])

    def occupancy(self) -> float:
        """Fraction of grid cells holding a non-zero embedding."""
        nonzero = np.any(self.data != 0.0, axis=-1)
        return float(nonzero.mean())


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

    def project_inputs(self, inputs: np.ndarray) -> Tuple[list, list]:
        """Hoisted input projections for a whole (B, T, in) sequence.

        One ``(B·T, in) @ W`` matmul per weight (biases folded in) instead
        of one per timestep; returns per-step (B, 4d) and (B, d) tensors.
        """
        batch, steps, _ = inputs.shape
        flat = Tensor(inputs.reshape(batch * steps, -1))
        x_gates = (flat @ self.w_gates.transpose() + self.b_gates
                   ).reshape(batch, steps, 4 * self.hidden_size
                             ).transpose(1, 0, 2)
        x_cand = (flat @ self.w_cand.transpose() + self.b_cand
                  ).reshape(batch, steps, self.hidden_size).transpose(1, 0, 2)
        return unstack(x_gates), unstack(x_cand)

    def step(self, x_gates_t: Tensor, x_cand_t: Tensor,
             grid_cells: np.ndarray, h_prev: Tensor, c_prev: Tensor,
             memory: SpatialMemory, write: bool = True,
             step_mask: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        """Fused step on pre-projected inputs (see :meth:`project_inputs`).

        When ``step_mask`` is given the padded-step carry (``h``/``c`` keep
        their previous values where the mask is False) is folded into the
        fused core instead of costing two extra ``where`` tape nodes.
        """
        window = memory.gather(grid_cells)
        h_t, c_t, s_t = self.step_core(x_gates_t, x_cand_t, h_prev, c_prev,
                                       window, step_mask=step_mask)
        if write:
            memory.write(grid_cells, c_t.data, s_t, mask=step_mask)
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

    def step_core(self, x_gates_t: Tensor, x_cand_t: Tensor, h_prev: Tensor,
                  c_prev: Tensor, window: np.ndarray,
                  step_mask: Optional[np.ndarray] = None
                  ) -> Tuple[Tensor, Tensor, np.ndarray]:
        """Recurrent projections → gates → candidate → read → states, fused.

        Computes the whole recurrence core — recurrent matmuls, sigmoid
        gate slab, candidate ``tanh``, intermediate cell state, attention
        read over ``window`` and the output states — in raw numpy with a
        hand-written backward, so each timestep adds two tape nodes
        (``c_t``, ``h_t``) instead of ~20. The forward is ``step_forward``,
        the call inference makes too; it runs the exact numpy operations
        of the legacy per-step path, keeping the two bit-identical.
        ``window`` is a constant: reads do not backpropagate into history.

        ``step_mask`` (B,) folds the padded-step carry into the same two
        nodes: rows with a False mask emit ``h_prev``/``c_prev`` unchanged
        and route their gradients straight back to the previous states,
        exactly as the standalone ``where`` carry would.

        Returns ``(h_t, c_t, s_t_data)`` — the spatial-gate values are
        needed by the caller for the memory write.
        """
        u_gates, u_cand = self.u_gates, self.u_cand
        weight, bias = self.read_proj.weight, self.read_proj.bias
        batch, d = c_prev.shape
        h_data = h_prev.data
        carry = (None if step_mask is None
                 else ~np.asarray(step_mask, dtype=bool)[:, None])
        h_t_data, c_t_data, saved = step_forward(
            x_gates_t.data, x_cand_t.data, h_data, c_prev.data, window,
            carry, *self.weight_views())
        slab, cand, attn, cat, c_his, tanh_ct = saved
        f_t = slab[:, 0 * d:1 * d]
        i_t = slab[:, 1 * d:2 * d]
        s_t = slab[:, 2 * d:3 * d]
        o_t = slab[:, 3 * d:4 * d]

        def backward_c(grad: np.ndarray) -> None:
            if carry is not None:
                if c_prev.requires_grad:
                    c_prev._accumulate(np.where(carry, grad, 0.0))
                grad = np.where(carry, 0.0, grad)
            g_s = grad * c_his * s_t * (1.0 - s_t)
            g_read = grad * s_t * (1.0 - c_his * c_his)
            if bias.requires_grad:
                bias._accumulate(g_read.sum(axis=0))
            if weight.requires_grad:
                weight._accumulate(g_read.transpose() @ cat)
            g_cat = g_read @ weight.data
            g_mix = g_cat[:, d:]
            g_attn = (window @ g_mix.reshape(batch, d, 1)
                      ).reshape(batch, -1)
            dot = (g_attn * attn).sum(axis=-1, keepdims=True)
            g_scores = attn * (g_attn - dot)
            g_c_hat = grad + g_cat[:, :d] + (
                window.transpose(0, 2, 1)
                @ g_scores.reshape(batch, -1, 1)).reshape(batch, d)
            # (B, 3d) gradient of the [f, i, s] block of ``pre``.
            g_fis = np.concatenate(
                [g_c_hat * c_prev.data * f_t * (1.0 - f_t),
                 g_c_hat * cand * i_t * (1.0 - i_t),
                 g_s], axis=-1)
            g_cand_pre = g_c_hat * i_t * (1.0 - cand * cand)
            if x_gates_t.requires_grad:
                x_gates_t._accumulate_into((Ellipsis, slice(0, 3 * d)), g_fis)
            if x_cand_t.requires_grad:
                x_cand_t._accumulate(g_cand_pre)
            if h_prev.requires_grad:
                h_prev._accumulate(g_fis @ u_gates.data[:3 * d]
                                   + g_cand_pre @ u_cand.data)
            if u_gates.requires_grad:
                u_gates._accumulate_into(slice(0, 3 * d),
                                         g_fis.transpose() @ h_data)
            if u_cand.requires_grad:
                u_cand._accumulate(g_cand_pre.transpose() @ h_data)
            if c_prev.requires_grad:
                c_prev._accumulate(g_c_hat * f_t)

        c_t = Tensor._make(
            c_t_data,
            (x_gates_t, x_cand_t, h_prev, c_prev, u_gates, u_cand,
             weight, bias),
            backward_c)

        def backward_h(grad: np.ndarray) -> None:
            if carry is not None:
                if h_prev.requires_grad:
                    h_prev._accumulate(np.where(carry, grad, 0.0))
                grad = np.where(carry, 0.0, grad)
            g_o = grad * tanh_ct * o_t * (1.0 - o_t)
            if x_gates_t.requires_grad:
                x_gates_t._accumulate_into((Ellipsis, slice(3 * d, 4 * d)),
                                           g_o)
            if h_prev.requires_grad:
                h_prev._accumulate(g_o @ u_gates.data[3 * d:])
            if u_gates.requires_grad:
                u_gates._accumulate_into(slice(3 * d, 4 * d),
                                         g_o.transpose() @ h_data)
            if c_t.requires_grad:
                c_t._accumulate(grad * o_t * (1.0 - tanh_ct * tanh_ct))

        h_t = Tensor._make(h_t_data, (x_gates_t, h_prev, u_gates, c_t),
                           backward_h)
        return h_t, c_t, s_t


class SAMLSTM(Recurrent):
    """Run a :class:`SAMLSTMCell` over padded (coords, grid-cells) sequences.

    ``forward`` consumes coordinates (B, T, input_size), integer grid cells
    (B, T, 2) and a boolean mask (B, T). Memory writes happen only when
    ``update_memory`` is True (training); inference (the inherited tape-free
    ``infer`` / ``fold``) is read-only so that embeddings are deterministic.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, fused: bool = True):
        self.hidden_size = hidden_size
        self.cell = SAMLSTMCell(input_size, hidden_size, rng)
        self.fused = fused

    def forward(self, inputs: np.ndarray, grid_cells: np.ndarray,
                mask: np.ndarray, memory: SpatialMemory,
                update_memory: bool = False, return_sequence: bool = False):
        inputs = np.asarray(inputs, dtype=np.float64)
        grid_cells = np.asarray(grid_cells, dtype=int)
        mask = np.asarray(mask, dtype=bool)
        batch, steps, _ = inputs.shape
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        if self.fused:
            x_gates, x_cand = self.cell.project_inputs(inputs)
        outputs = []
        for t in range(steps):
            step_mask = mask[:, t]
            if self.fused:
                # The padded-step carry is folded into the fused core.
                h, c = self.cell.step(
                    x_gates[t], x_cand[t], grid_cells[:, t, :], h, c, memory,
                    write=update_memory, step_mask=step_mask)
            else:
                h_new, c_new = self.cell(
                    Tensor(inputs[:, t, :]), grid_cells[:, t, :], h, c,
                    memory, write=update_memory, step_mask=step_mask)
                h = where(step_mask[:, None], h_new, h)
                c = where(step_mask[:, None], c_new, c)
            if return_sequence:
                outputs.append(h)
        if return_sequence:
            return h, outputs
        return h
