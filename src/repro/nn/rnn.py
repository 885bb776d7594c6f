"""Batched LSTM over variable-length coordinate sequences.

This is the backbone shared by the Siamese baseline and the NT-No-SAM
ablation; :mod:`repro.nn.sam` extends the same structure with the spatial
attention memory. Gate layout follows the paper's Eq. 1-2 with the spatial
gate removed: a single sigmoid block produces ``[forget, input, output]``
and a separate tanh block produces the candidate cell state.

The recurrence is stated once for both cells: :func:`step_forward` is a
step's arithmetic on plain arrays and :func:`tape_step` records it on the
tape as two nodes with its one hand-written backward. :class:`Recurrent`
unrolls them twice — ``forward`` for training (input projections of *all*
timesteps hoisted into one ``(B·T, in) @ W^T + b`` tape node per weight,
SAM windows re-read in backward through a :class:`~repro.nn.sam.WindowLog`
instead of taped) and ``fold`` tape-free for every inference path. ``fold``
projects each point by itself at its own step and runs every product row
by row (:func:`rowwise_matmul`), so each row of its batch gets the bits
that row would get folded alone: a trajectory's embedding is a function
of that trajectory only. It is bit for bit the tape engine's per-point
fold, and agrees with ``forward``'s hoisted GEMMs to rounding.

:meth:`LSTMCell.forward` (and :meth:`SAMLSTMCell.forward
<repro.nn.sam.SAMLSTMCell.forward>` + ``read``) are the paper's equations
op by op on the tape: the independent statement the tests hold the kernel
to, to 1e-12. No setting reaches them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, logistic, unstack


def rowwise_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for a C-contiguous (B, k) ``a``, one 1-row product per row.

    A 2-D GEMM's kernel depends on the row count, and it rounds a row
    differently at B = 1 than at B >= 2. Stacked as (B, 1, k) matrices, the
    rows go to numpy's matmul loop one at a time, each through the call a
    lone row makes, so a row's bits never depend on its batch-mates.
    """
    rows = a.shape[0]
    return np.matmul(a.reshape(rows, 1, -1), w).reshape(rows, -1)


def step_forward(x_gates: np.ndarray, x_cand: np.ndarray, h: np.ndarray,
                 c: np.ndarray, window: Optional[np.ndarray],
                 carry: Optional[np.ndarray], u_gates_t: np.ndarray,
                 u_cand_t: np.ndarray, w_read_t: Optional[np.ndarray] = None,
                 b_read: Optional[np.ndarray] = None, *,
                 _matmul: Callable = np.matmul
                 ) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """One recurrent step on plain arrays — the only statement of its math.

    Recurrent GEMMs → sigmoid slab ``[f, i, (s,) o]`` and ``tanh`` candidate
    → ``c_hat = f * c + i * cand``; with a ``window`` (B, K, d), i.e. for
    the SAM cell, the attention read over it and ``c_t = c_hat + s *
    c_his``; then ``h_t = o * tanh(c_t)``, rows where ``carry`` (B, 1) is
    True keeping their previous states. :func:`tape_step` differentiates
    through ``saved = (slab, cand, attn, cat, c_his, tanh_ct)``; inference
    keeps ``h_t, c_t``. Returns ``(h_t, c_t, saved)``. ``_matmul`` is the
    product of the three weight GEMMs: :func:`rowwise_matmul` in ``fold``.
    """
    # In place only on arrays this step allocated: ``x_gates`` / ``x_cand``
    # are views into a taped projection, and the operand order is kept.
    batch, d = c.shape
    pre = _matmul(h, u_gates_t)
    slab = logistic(np.add(x_gates, pre, out=pre))
    cand = _matmul(h, u_cand_t)
    np.tanh(np.add(x_cand, cand, out=cand), out=cand)
    c_t = slab[:, :d] * c
    c_t += slab[:, d:2 * d] * cand
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
        c_his = _matmul(cat, w_read_t)
        c_his += b_read
        np.tanh(c_his, out=c_his)
        c_t += slab[:, 2 * d:3 * d] * c_his
    tanh_ct = np.tanh(c_t)
    h_t = slab[:, -d:] * tanh_ct
    if carry is not None and carry.any():
        c_t = np.where(carry, c, c_t)
        h_t = np.where(carry, h, h_t)
    return h_t, c_t, (slab, cand, attn, cat, c_his, tanh_ct)


def tape_step(cell: Module, x_gates_t: Tensor, x_cand_t: Tensor,
              h_prev: Tensor, c_prev: Tensor,
              window: Optional[np.ndarray] = None,
              carry: Optional[np.ndarray] = None,
              reread: Optional[Callable[[], np.ndarray]] = None
              ) -> Tuple[Tensor, Tensor, Optional[np.ndarray]]:
    """:func:`step_forward` on the tape, with its one hand-written backward.

    The whole step — recurrent matmuls, gate slab, candidate, intermediate
    cell state, the attention read over ``window`` (SAM cell) and the
    output states — is two tape nodes, ``c_t`` and ``h_t``, instead of ~20.
    ``window`` is a constant: reads do not backpropagate into history.
    Backward takes it back from ``reread()``: an unroll passes a
    :class:`~repro.nn.sam.WindowLog` re-read, so its tape never holds a
    window; a lone step may leave ``reread`` out and keep ``window``.
    Rows where ``carry`` (B, 1) is True emit ``h_prev``/``c_prev``
    unchanged and route their gradients straight back to them, as a
    standalone ``where`` carry would.

    Returns ``(h_t, c_t, s_t)``; ``s_t`` is the spatial gate's values,
    which the memory write needs (``None`` without a ``window``).
    """
    u_gates, u_cand = cell.u_gates, cell.u_cand
    reads = window is not None
    if reads and reread is None:
        reread = itertools.repeat(window).__next__
    read = (cell.read_proj.weight, cell.read_proj.bias) if reads else ()
    batch, d = c_prev.shape
    h_data = h_prev.data
    h_t_data, c_t_data, saved = step_forward(
        x_gates_t.data, x_cand_t.data, h_data, c_prev.data, window, carry,
        *cell.weight_views())
    slab, cand, attn, cat, c_his, tanh_ct = saved
    f_t, i_t, o_t = slab[:, :d], slab[:, d:2 * d], slab[:, -d:]
    s_t = slab[:, 2 * d:3 * d] if reads else None
    n = slab.shape[1] - d  # width of the [f, i, (s)] block of ``pre``

    def backward_c(grad: np.ndarray) -> None:
        if carry is not None:
            if c_prev.requires_grad:
                c_prev._accumulate(np.where(carry, grad, 0.0))
            grad = np.where(carry, 0.0, grad)
        g_c_hat, g_s = grad, []
        if reads:
            window, (weight, bias) = reread(), read
            g_s = [grad * c_his * s_t * (1.0 - s_t)]
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
        # (B, n) gradient of the [f, i, (s)] block of ``pre``.
        g_fis = np.concatenate(
            [g_c_hat * c_prev.data * f_t * (1.0 - f_t),
             g_c_hat * cand * i_t * (1.0 - i_t)] + g_s, axis=-1)
        g_cand_pre = g_c_hat * i_t * (1.0 - cand * cand)
        if x_gates_t.requires_grad:
            x_gates_t._accumulate_into((Ellipsis, slice(0, n)), g_fis)
        if x_cand_t.requires_grad:
            x_cand_t._accumulate(g_cand_pre)
        if h_prev.requires_grad:
            h_prev._accumulate(g_fis @ u_gates.data[:n]
                               + g_cand_pre @ u_cand.data)
        if u_gates.requires_grad:
            u_gates._accumulate_into(slice(0, n), g_fis.transpose() @ h_data)
        if u_cand.requires_grad:
            u_cand._accumulate(g_cand_pre.transpose() @ h_data)
        if c_prev.requires_grad:
            c_prev._accumulate(g_c_hat * f_t)

    c_t = Tensor._make(
        c_t_data,
        (x_gates_t, x_cand_t, h_prev, c_prev, u_gates, u_cand) + read,
        backward_c)

    def backward_h(grad: np.ndarray) -> None:
        if carry is not None:
            if h_prev.requires_grad:
                h_prev._accumulate(np.where(carry, grad, 0.0))
            grad = np.where(carry, 0.0, grad)
        g_o = grad * tanh_ct * o_t * (1.0 - o_t)
        if x_gates_t.requires_grad:
            x_gates_t._accumulate_into((Ellipsis, slice(n, n + d)), g_o)
        if h_prev.requires_grad:
            h_prev._accumulate(g_o @ u_gates.data[n:])
        if u_gates.requires_grad:
            u_gates._accumulate_into(slice(n, n + d),
                                     g_o.transpose() @ h_data)
        if c_t.requires_grad:
            c_t._accumulate(grad * o_t * (1.0 - tanh_ct * tanh_ct))

    h_t = Tensor._make(h_t_data, (x_gates_t, h_prev, u_gates, c_t),
                       backward_h)
    return h_t, c_t, s_t


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
        """The paper's equations op by op on the tape — the reference the
        tests compare :func:`tape_step` against; nothing under ``src/``
        trains or infers through it."""
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

    def weight_views(self) -> tuple:
        """Trailing arguments of :func:`step_forward` for this cell."""
        return self.u_gates.data.transpose(), self.u_cand.data.transpose()


class Recurrent(Module):
    """The two unrolls of ``self.cell`` — ``forward`` on the tape for
    training, ``fold`` tape-free for inference — shared by :class:`LSTM`
    and :class:`~repro.nn.sam.SAMLSTM`. ``cells`` and ``memory`` are
    required by a cell with a read projection and refused by one without.
    ``fold`` builds no :class:`Tensor` and never enters ``no_grad``, so any
    thread may run it beside a training thread.
    """

    def _reads(self, cells: Optional[np.ndarray], memory) -> bool:
        """Whether the cell reads a spatial memory; raises unless ``cells``
        and ``memory`` were given exactly when it does."""
        reads = hasattr(self.cell, "read_proj")
        for name, value in (("cells", cells), ("memory", memory)):
            if reads and value is None:
                raise ValueError(f"{type(self).__name__} reads a spatial "
                                 f"memory: `{name}` is required")
            if not reads and value is not None:
                raise ValueError(f"{type(self).__name__} reads no spatial "
                                 f"memory: `{name}` must be None")
        return reads

    def _projector(self) -> Callable:
        """``x -> (x @ W_gates^T + b_gates, x @ W_cand^T + b_cand)``, each
        bias added in place into the product's fresh result; ``matmul``
        is the product (:func:`rowwise_matmul` in ``fold``)."""
        cell = self.cell
        w_gates_t, b_gates = cell.w_gates.data.transpose(), cell.b_gates.data
        w_cand_t, b_cand = cell.w_cand.data.transpose(), cell.b_cand.data

        def project(x: np.ndarray, matmul: Callable = np.matmul
                    ) -> Tuple[np.ndarray, np.ndarray]:
            gates = matmul(x, w_gates_t)
            gates += b_gates
            cand = matmul(x, w_cand_t)
            cand += b_cand
            return gates, cand

        return project

    def forward(self, inputs: np.ndarray, mask: np.ndarray,
                cells: Optional[np.ndarray] = None, memory=None,
                update_memory: bool = False) -> Tensor:
        """Final (B, d) hidden states of a padded batch, on the tape.

        ``inputs`` (B, T, input_size) coordinates, ``mask`` (B, T) validity,
        ``cells`` (B, T, 2) integer grid cells. Padded steps carry the
        previous state through, so the final state is the state at each
        sequence's true end. With ``update_memory`` (training) every step
        writes its cell state back before the next step reads.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        batch, steps, _ = inputs.shape
        cell, flat = self.cell, inputs.reshape(batch * steps, -1)

        def hoisted(data: np.ndarray, w: Parameter, b: Parameter) -> list:
            """Per-step (B, ·) slices of one (B·T, in) @ W^T + b node."""
            def backward(grad: np.ndarray) -> None:
                # The arithmetic of the add, matmul and weight-transpose
                # nodes this one replaced, so every gradient bit is kept.
                if b.requires_grad:
                    b._accumulate(grad.sum(axis=0))
                if w.requires_grad:
                    w._accumulate((flat.transpose() @ grad).transpose())

            return unstack(Tensor._make(data, (w, b), backward)
                           .reshape(batch, steps, -1).transpose(1, 0, 2))

        gates, cand = self._projector()(flat)
        x_gates = hoisted(gates, cell.w_gates, cell.b_gates)
        x_cand = hoisted(cand, cell.w_cand, cell.b_cand)
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        log = (memory.window_log(np.asarray(cells, dtype=int))
               if self._reads(cells, memory) else None)
        for t in range(steps):
            window = reread = None
            if log is not None:  # read step by step: writes land between
                window, reread = log.read(), functools.partial(log.reread, t)
            h, c, s_t = tape_step(cell, x_gates[t], x_cand[t], h, c, window,
                                  ~mask[:, t, None], reread)
            if log is not None and update_memory:
                log.write(c.data, s_t, mask[:, t])
        return h

    def fold(self, h: np.ndarray, c: np.ndarray, inputs: np.ndarray,
             lengths: Sequence[int], cells: Optional[np.ndarray] = None,
             memory=None) -> Tuple[np.ndarray, np.ndarray]:
        """Fold each row of a padded batch into the (B, d) states it
        resumes from, which are not mutated; returns the new ``(h, c)``.

        ``inputs`` (B, T, input_size) and ``cells`` (B, T, 2) hold row
        ``i``'s points in their first ``lengths[i]`` steps; the padded
        steps after them carry the row's states through. Every product
        runs row by row (:func:`rowwise_matmul`) and each point is
        projected by itself at its own step, so a row's result is bit for
        bit the result of folding that row alone, however its sequence
        was chunked across calls. Rows step longest first and a step runs
        only the rows still valid, so a short row costs its own steps,
        not the longest's.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        reads = self._reads(cells, memory)
        lengths = [int(n) for n in lengths]
        steps = max(lengths, default=0)
        if steps > inputs.shape[1]:
            raise ValueError(f"a length of {steps} exceeds the "
                             f"{inputs.shape[1]} padded steps")
        # Longest first, so the rows valid at step t are the first live[t].
        order = sorted(range(len(lengths)), key=lengths.__getitem__,
                       reverse=True)
        ascending = sorted(lengths)
        live = [len(lengths) - bisect.bisect_right(ascending, t)
                for t in range(steps)]
        if reads:
            cells = np.asarray(cells, dtype=int)
        # Own copies of the states, longest row first: a step that runs
        # only some rows writes them in place.
        permuted = order != list(range(len(order)))
        if permuted:
            h, c, inputs = h[order], c[order], inputs[order]
            cells = cells[order] if reads else None
        else:
            h, c = h.copy(), c.copy()
        inputs = np.ascontiguousarray(inputs.transpose(1, 0, 2),
                                      dtype=np.float64)
        windows = (memory.windows(cells.transpose(1, 0, 2), live)
                   if reads else itertools.repeat(None))
        project, views = self._projector(), self.cell.weight_views()
        for x_t, rows, window in zip(inputs, live, windows):
            # A lone row's plain product is already the call it gets alone.
            matmul = rowwise_matmul if rows > 1 else np.matmul
            if rows == len(h):
                h, c, _ = step_forward(*project(x_t, matmul), h, c, window,
                                       None, *views, _matmul=matmul)
            else:
                h[:rows], c[:rows], _ = step_forward(
                    *project(x_t[:rows], matmul), h[:rows], c[:rows], window,
                    None, *views, _matmul=matmul)
        if not permuted:
            return h, c
        back = np.argsort(order)
        return h[back], c[back]


class LSTM(Recurrent):
    """An :class:`LSTMCell` unrolled over padded sequences."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size, rng)


def lengths_to_mask(lengths: np.ndarray, max_len: Optional[int] = None) -> np.ndarray:
    """Boolean mask (B, T) that is True for valid positions."""
    lengths = np.asarray(lengths, dtype=int)
    if max_len is None:
        max_len = int(lengths.max()) if lengths.size else 0
    return np.arange(max_len, dtype=np.int64)[None, :] < lengths[:, None]
