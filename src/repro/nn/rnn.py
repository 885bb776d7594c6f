"""Batched LSTM over variable-length coordinate sequences.

This is the backbone shared by the Siamese baseline and the NT-No-SAM
ablation; :mod:`repro.nn.sam` extends the same structure with the spatial
attention memory. Gate layout follows the paper's Eq. 1-2 with the spatial
gate removed: a single sigmoid block produces ``[forget, input, output]``
and a separate tanh block produces the candidate cell state.

Two *training* (tape) paths produce numerically equivalent results:

* the **fused** path (default) hoists the input projections of *all*
  timesteps into one ``(B·T, in) @ W`` matmul per sequence and uses the
  fused :func:`~repro.nn.tensor.lstm_gates` op per step — this is the
  training hot path;
* the **legacy** path (``fused=False``) runs :meth:`LSTMCell.forward`
  step by step exactly as written in the paper equations; it is kept as
  the equivalence/benchmark baseline.

Inference builds no tape: :class:`Recurrent` unrolls either cell on plain
arrays with the numpy operations of the fused tape path in the same order,
so its float64 outputs are bit-identical to it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, logistic, lstm_gates, unstack, where


def step_forward(x_gates: np.ndarray, x_cand: np.ndarray, h: np.ndarray,
                 c: np.ndarray, window: Optional[np.ndarray],
                 carry: Optional[np.ndarray], u_gates_t: np.ndarray,
                 u_cand_t: np.ndarray, w_read_t: Optional[np.ndarray] = None,
                 b_read: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """One recurrent step on plain arrays — the only statement of its math.

    Recurrent GEMMs → sigmoid slab ``[f, i, (s,) o]`` and ``tanh`` candidate
    → ``c_hat = f * c + i * cand``; with a ``window`` (B, K, d), i.e. for
    the SAM cell, the attention read over it and ``c_t = c_hat + s *
    c_his``; then ``h_t = o * tanh(c_t)``, rows where ``carry`` (B, 1) is
    True keeping their previous states. SAM training attaches its backward
    closures to ``saved = (slab, cand, attn, cat, c_his, tanh_ct)``;
    inference keeps ``h_t, c_t``. Returns ``(h_t, c_t, saved)``.
    """
    batch, d = c.shape
    slab = logistic(x_gates + h @ u_gates_t)
    cand = np.tanh(x_cand + h @ u_cand_t)
    c_t = slab[:, :d] * c + slab[:, d:2 * d] * cand
    attn = cat = c_his = None
    if window is not None:
        scores = (window @ c_t.reshape(batch, d, 1)
                  ).reshape(batch, window.shape[1])
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=-1, keepdims=True)
        mix = (window.transpose(0, 2, 1)
               @ attn.reshape(batch, -1, 1)).reshape(batch, d)
        cat = np.concatenate([c_t, mix], axis=-1)
        c_his = np.tanh(cat @ w_read_t + b_read)
        c_t = c_t + slab[:, 2 * d:3 * d] * c_his
    tanh_ct = np.tanh(c_t)
    h_t = slab[:, -d:] * tanh_ct
    if carry is not None:
        c_t = np.where(carry, c, c_t)
        h_t = np.where(carry, h, h_t)
    return h_t, c_t, (slab, cand, attn, cat, c_his, tanh_ct)


class LSTMCell(Module):
    """Single LSTM step. Inputs ``x``: (B, input_size); states: (B, hidden)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        d = hidden_size
        self.w_gates = Parameter(init.xavier_uniform((3 * d, input_size), rng))
        self.u_gates = Parameter(init.orthogonal((3 * d, d), rng))
        self.b_gates = Parameter(init.lstm_forget_bias(init.zeros(3 * d), d))
        self.w_cand = Parameter(init.xavier_uniform((d, input_size), rng))
        self.u_cand = Parameter(init.orthogonal((d, d), rng))
        self.b_cand = Parameter(init.zeros(d))

    def forward(self, x: Tensor, h_prev: Tensor, c_prev: Tensor
                ) -> Tuple[Tensor, Tensor]:
        d = self.hidden_size
        gates = (x @ self.w_gates.transpose()
                 + h_prev @ self.u_gates.transpose() + self.b_gates).sigmoid()
        f_t = gates[:, 0 * d:1 * d]
        i_t = gates[:, 1 * d:2 * d]
        o_t = gates[:, 2 * d:3 * d]
        cand = (x @ self.w_cand.transpose()
                + h_prev @ self.u_cand.transpose() + self.b_cand).tanh()
        c_t = f_t * c_prev + i_t * cand
        h_t = o_t * c_t.tanh()
        return h_t, c_t

    def project_inputs(self, inputs: np.ndarray) -> Tuple[list, list]:
        """Hoisted input projections for a whole (B, T, in) sequence.

        One ``(B·T, in) @ W`` matmul per weight (biases folded in) instead
        of one per timestep; returns per-step (B, 3d) and (B, d) tensors.
        """
        batch, steps, _ = inputs.shape
        flat = Tensor(inputs.reshape(batch * steps, -1))
        x_gates = (flat @ self.w_gates.transpose() + self.b_gates
                   ).reshape(batch, steps, 3 * self.hidden_size
                             ).transpose(1, 0, 2)
        x_cand = (flat @ self.w_cand.transpose() + self.b_cand
                  ).reshape(batch, steps, self.hidden_size).transpose(1, 0, 2)
        return unstack(x_gates), unstack(x_cand)

    def step(self, x_gates_t: Tensor, x_cand_t: Tensor, h_prev: Tensor,
             c_prev: Tensor, u_gates_t: Optional[Tensor] = None,
             u_cand_t: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        """Fused step on pre-projected inputs (see :meth:`project_inputs`).

        ``u_gates_t`` / ``u_cand_t`` are the transposed recurrent weights;
        pass them in when stepping a whole sequence so the transpose nodes
        are built once instead of per step.
        """
        if u_gates_t is None:
            u_gates_t = self.u_gates.transpose()
        if u_cand_t is None:
            u_cand_t = self.u_cand.transpose()
        pre = x_gates_t + h_prev @ u_gates_t
        f_t, i_t, o_t = lstm_gates(pre, 3)
        cand = (x_cand_t + h_prev @ u_cand_t).tanh()
        c_t = f_t * c_prev + i_t * cand
        h_t = o_t * c_t.tanh()
        return h_t, c_t

    def weight_views(self) -> tuple:
        """Trailing arguments of :func:`step_forward` for this cell."""
        return self.u_gates.data.transpose(), self.u_cand.data.transpose()


class Recurrent(Module):
    """Tape-free unrolling of ``self.cell`` — the inference kernel of
    :class:`LSTM` and :class:`~repro.nn.sam.SAMLSTM` alike (``memory`` and
    ``cells`` only for the latter). Builds no :class:`Tensor` and never
    enters ``no_grad``, so any thread may run it beside a training thread.
    """

    def _projector(self) -> Callable:
        cell = self.cell
        w_gates_t, b_gates = cell.w_gates.data.transpose(), cell.b_gates.data
        w_cand_t, b_cand = cell.w_cand.data.transpose(), cell.b_cand.data
        return lambda x: (x @ w_gates_t + b_gates, x @ w_cand_t + b_cand)

    def infer(self, inputs: np.ndarray, mask: np.ndarray,
              cells: Optional[np.ndarray] = None, memory=None) -> np.ndarray:
        """Final (B, d) hidden states of a padded batch (``inputs``,
        ``mask``, ``cells`` as for ``forward``); the batch's input
        projections are one GEMM per weight, as on the fused tape path.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        batch, steps, _ = inputs.shape
        x_gates, x_cand = (x.reshape(batch, steps, -1) for x in
                           self._projector()(inputs.reshape(batch * steps, -1)))
        carry = ~np.asarray(mask, dtype=bool)
        windows = (itertools.repeat(None) if memory is None else memory.windows(
            np.asarray(cells, dtype=int).transpose(1, 0, 2)))
        views = self.cell.weight_views()
        h = c = np.zeros((batch, self.hidden_size), dtype=np.float64)
        for t, window in zip(range(steps), windows):
            h, c, _ = step_forward(x_gates[:, t], x_cand[:, t], h, c, window,
                                   carry[:, t, None], *views)
        return h

    def fold(self, h: np.ndarray, c: np.ndarray, inputs: np.ndarray,
             cells: Optional[np.ndarray] = None, memory=None
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one sequence's ``inputs`` (n, in) into its (1, d) states,
        which are not mutated. Each point is projected by itself — a
        (1, in) GEMV, never one GEMM over the chunk — so the result does
        not depend on how a growing sequence is chunked across calls.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        windows = (itertools.repeat(None) if memory is None else
                   memory.windows(np.asarray(cells, dtype=int)[:, None, :]))
        project, views = self._projector(), self.cell.weight_views()
        for t, window in zip(range(len(inputs)), windows):
            h, c, _ = step_forward(*project(inputs[t:t + 1]), h, c, window,
                                   None, *views)
        return h, c


class LSTM(Recurrent):
    """Run an :class:`LSTMCell` over padded sequences with a validity mask.

    ``forward`` consumes coordinates of shape (B, T, input_size) and a boolean
    mask (B, T); padded steps carry the previous state through so the final
    state equals the state at each sequence's true end. ``fused`` selects the
    hoisted-projection fast path (default) or the legacy per-step reference.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, fused: bool = True):
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.fused = fused

    def forward(self, inputs: np.ndarray, mask: np.ndarray,
                return_sequence: bool = False):
        inputs = np.asarray(inputs, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        batch, steps, _ = inputs.shape
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        if self.fused:
            x_gates, x_cand = self.cell.project_inputs(inputs)
            u_gates_t = self.cell.u_gates.transpose()
            u_cand_t = self.cell.u_cand.transpose()
        outputs = []
        for t in range(steps):
            if self.fused:
                h_new, c_new = self.cell.step(x_gates[t], x_cand[t], h, c,
                                              u_gates_t, u_cand_t)
            else:
                h_new, c_new = self.cell(Tensor(inputs[:, t, :]), h, c)
            step_mask = mask[:, t][:, None]
            h = where(step_mask, h_new, h)
            c = where(step_mask, c_new, c)
            if return_sequence:
                outputs.append(h)
        if return_sequence:
            return h, outputs
        return h


def lengths_to_mask(lengths: np.ndarray, max_len: Optional[int] = None) -> np.ndarray:
    """Boolean mask (B, T) that is True for valid positions."""
    lengths = np.asarray(lengths, dtype=int)
    if max_len is None:
        max_len = int(lengths.max()) if lengths.size else 0
    return np.arange(max_len, dtype=np.int64)[None, :] < lengths[:, None]
