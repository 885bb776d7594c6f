"""Tests for the batched masked LSTM."""

import numpy as np
import pytest

from repro.nn.rnn import LSTM, LSTMCell, lengths_to_mask, rowwise_matmul
from repro.nn.sam import SAMLSTM, SpatialMemory
from repro.nn.tensor import Tensor, numerical_gradient

from .reference import reference_unroll


def test_lengths_to_mask():
    mask = lengths_to_mask(np.array([3, 1]), max_len=4)
    expected = np.array([[True, True, True, False],
                         [True, False, False, False]])
    np.testing.assert_array_equal(mask, expected)


def test_lengths_to_mask_infers_max():
    mask = lengths_to_mask(np.array([2, 5]))
    assert mask.shape == (2, 5)


def test_cell_output_shapes(rng):
    cell = LSTMCell(2, 8, rng)
    h, c = cell(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 8))),
                Tensor(np.zeros((3, 8))))
    assert h.shape == (3, 8)
    assert c.shape == (3, 8)


def test_cell_hidden_bounded(rng):
    cell = LSTMCell(2, 8, rng)
    h, _ = cell(Tensor(rng.normal(size=(5, 2)) * 100),
                Tensor(np.zeros((5, 8))), Tensor(np.zeros((5, 8))))
    assert np.all(np.abs(h.data) <= 1.0)


def test_final_state_equals_state_at_length(rng):
    """Padded steps must not change the final state."""
    lstm = LSTM(2, 6, rng)
    seq = rng.normal(size=(1, 5, 2))
    # Full run over 3 steps only.
    short = lstm(seq[:, :3, :], np.ones((1, 3), dtype=bool))
    # Same 3 valid steps followed by 2 masked-out (garbage) steps.
    garbage = seq.copy()
    garbage[:, 3:, :] = 1e6
    padded = lstm(garbage, lengths_to_mask(np.array([3]), 5))
    np.testing.assert_allclose(short.data, padded.data)


def test_batch_matches_individual_runs(rng):
    lstm = LSTM(2, 6, rng)
    a = rng.normal(size=(4, 2))
    b = rng.normal(size=(7, 2))
    coords = np.zeros((2, 7, 2))
    coords[0, :4] = a
    coords[1, :7] = b
    mask = lengths_to_mask(np.array([4, 7]), 7)
    batched = lstm(coords, mask).data
    solo_a = lstm(a[None, :, :], np.ones((1, 4), dtype=bool)).data
    solo_b = lstm(b[None, :, :], np.ones((1, 7), dtype=bool)).data
    np.testing.assert_allclose(batched[0], solo_a[0])
    np.testing.assert_allclose(batched[1], solo_b[0])


def test_deterministic_given_seed():
    a = LSTM(2, 4, np.random.default_rng(42))
    b = LSTM(2, 4, np.random.default_rng(42))
    x = np.random.default_rng(0).normal(size=(2, 3, 2))
    mask = np.ones((2, 3), dtype=bool)
    np.testing.assert_allclose(a(x, mask).data, b(x, mask).data)


def test_bptt_gradient_matches_numerical(rng):
    lstm = LSTM(2, 5, rng)
    coords = rng.normal(size=(2, 4, 2))
    mask = lengths_to_mask(np.array([4, 2]), 4)
    param = lstm.cell.u_cand
    base = param.data.copy()

    out = (lstm(coords, mask) ** 2).sum()
    lstm.zero_grad()
    out.backward()
    analytic = param.grad.copy()

    def evaluate(arr):
        param.data = arr
        return float((lstm(coords, mask).data ** 2).sum())

    numeric = numerical_gradient(evaluate, base.copy())
    param.data = base
    err = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
    assert err < 1e-6


def _count_tape_nodes(root):
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


def test_fused_matches_legacy_forward(rng):
    """The kernel equals the paper-equation reference at every length."""
    lstm = LSTM(2, 6, np.random.default_rng(11))
    coords = rng.normal(size=(3, 7, 2))
    mask = lengths_to_mask(np.array([7, 5, 2]), 7)
    for steps in range(1, 8):
        np.testing.assert_allclose(
            lstm(coords[:, :steps], mask[:, :steps]).data,
            reference_unroll(lstm, coords[:, :steps], mask[:, :steps]).data,
            atol=1e-12)


def test_fused_matches_legacy_gradients(rng):
    coords = rng.normal(size=(2, 5, 2))
    mask = lengths_to_mask(np.array([5, 3]), 5)
    lstm = LSTM(2, 4, np.random.default_rng(13))
    grads = []
    for unroll in (lstm, lambda *args: reference_unroll(lstm, *args)):
        loss = (unroll(coords, mask) ** 2).sum()
        lstm.zero_grad()
        loss.backward()
        grads.append({name: p.grad.copy()
                      for name, p in lstm.named_parameters()})
    for name in grads[0]:
        np.testing.assert_allclose(grads[0][name], grads[1][name],
                                   atol=1e-12, err_msg=name)


def test_training_tape_is_two_nodes_a_step(rng):
    """2·T step nodes + T·2 projection slices + the two hoisted
    projections (one matmul-plus-bias node, a reshape and a transpose
    each), for either cell."""
    steps = 9
    coords = rng.normal(size=(3, steps, 2))
    mask = np.ones((3, steps), dtype=bool)
    assert _count_tape_nodes(LSTM(2, 4, rng)(coords, mask)) == 4 * steps + 6
    sam = SAMLSTM(2, 4, rng)
    out = sam(coords, mask, rng.integers(0, 5, size=(3, steps, 2)),
              SpatialMemory((5, 5), 4, bandwidth=1))
    assert _count_tape_nodes(out) == 4 * steps + 6


@pytest.mark.parametrize("use_sam", [True, False])
def test_unrolls_refuse_a_cells_memory_mismatch(use_sam, rng):
    """A read cell without ``cells``/``memory`` used to run the no-read
    recurrence silently; a plain cell given them died inside ``matmul``."""
    coords, mask = rng.normal(size=(2, 3, 2)), np.ones((2, 3), dtype=bool)
    cells = rng.integers(0, 5, size=(2, 3, 2))
    memory = SpatialMemory((5, 5), 4, bandwidth=1)
    state = np.zeros((1, 4))
    rnn = (SAMLSTM if use_sam else LSTM)(2, 4, rng)
    given, absent = (cells, memory), (None, None)
    right, wrong = (given, absent) if use_sam else (absent, given)
    verdict = "is required" if use_sam else "must be None"
    for unroll in (
            lambda c, m: rnn(coords, mask, c, m),
            lambda c, m: rnn.fold(state, state, coords[:1], [3],
                                  None if c is None else c[:1], m)):
        unroll(*right)
        with pytest.raises(ValueError, match=f"`cells` {verdict}"):
            unroll(*wrong)
        with pytest.raises(ValueError, match=f"`memory` {verdict}"):
            unroll(right[0], wrong[1])


@pytest.mark.parametrize("k, n", [(2, 96), (32, 128), (64, 32)])
def test_rowwise_matmul_gives_every_row_its_lone_bits(k, n, rng):
    """Pins the numpy/BLAS behaviour the batched prefix fold rests on:
    stacked as (B, 1, k) matrices, each row gets bit for bit the product
    it gets alone, at every row count (a plain 2-D GEMM's kernel, and
    its rounding, changes with the row count)."""
    w = rng.normal(size=(n, k)).transpose()  # a weight view, as folded
    for rows in (1, 2, 3, 9, 16, 33, 64, 100):
        a = rng.normal(size=(rows, k))
        lone = np.concatenate([a[i:i + 1] @ w for i in range(rows)])
        assert np.array_equal(rowwise_matmul(a, w), lone), rows


@pytest.mark.parametrize("use_sam", [True, False])
def test_fold_carries_padded_steps_in_any_row_order(use_sam, rng):
    """A batched fold equals each row folded alone, rows out of length
    order and a zero-length row included; the given states are kept."""
    rnn = (SAMLSTM if use_sam else LSTM)(2, 4, rng)
    memory = SpatialMemory((5, 5), 4, bandwidth=1) if use_sam else None
    if use_sam:
        memory.data[:] = rng.normal(size=memory.data.shape)
    lengths = [2, 5, 0, 3]
    inputs = rng.normal(size=(4, 6, 2))
    cells = rng.integers(0, 5, size=(4, 6, 2)) if use_sam else None
    h, c = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    h_given, c_given = h.copy(), c.copy()
    got_h, got_c = rnn.fold(h, c, inputs, lengths, cells, memory)
    assert np.array_equal(h, h_given) and np.array_equal(c, c_given)
    for row, n in enumerate(lengths):
        alone_h, alone_c = rnn.fold(
            h[row:row + 1], c[row:row + 1], inputs[row:row + 1, :n], [n],
            None if cells is None else cells[row:row + 1, :n], memory)
        assert np.array_equal(got_h[row:row + 1], alone_h)
        assert np.array_equal(got_c[row:row + 1], alone_c)
    assert np.array_equal(got_h[2], h[2])
    with pytest.raises(ValueError, match="exceeds"):
        rnn.fold(h, c, inputs[:, :4], lengths, None if cells is None
                 else cells[:, :4], memory)


def test_forget_bias_initialised_to_one(rng):
    cell = LSTMCell(2, 4, rng)
    np.testing.assert_allclose(cell.b_gates.data[:4], 1.0)
    np.testing.assert_allclose(cell.b_gates.data[4:], 0.0)
