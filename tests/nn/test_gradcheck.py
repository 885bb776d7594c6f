"""Numerical gradient checks for every autodiff operation.

These tests validate the engine against central-difference derivatives,
including the composite expressions the NeuTraj model relies on (attention
softmax-mix, embedding similarity, masked state carry).
"""

import numpy as np
import pytest

from repro.nn.rnn import LSTMCell, tape_step
from repro.nn.sam import SAMLSTMCell, SpatialMemory
from repro.nn.tensor import (Tensor, concat, gradient_check, stack, unstack,
                             where)

RNG = np.random.default_rng(99)

# Constant co-operands captured once (regenerating them per evaluation would
# break the finite-difference comparison).
MAT_3x5 = Tensor(RNG.normal(size=(3, 5)))
MAT_5x4 = Tensor(RNG.normal(size=(5, 4)))
BATCH_2x3x4 = Tensor(RNG.normal(size=(2, 3, 4)))
VEC_3 = Tensor(RNG.normal(size=3))
MAT_4x3 = Tensor(RNG.normal(size=(4, 3)))


@pytest.mark.parametrize("name,build,shape", [
    ("add", lambda t: (t + t * 2.0).sum(), (4, 3)),
    ("sub", lambda t: (t - 3.0).sum(), (4, 3)),
    ("mul_self", lambda t: (t * t).sum(), (4, 3)),
    ("div", lambda t: (t / (t * t + 1.0)).sum(), (4, 3)),
    ("pow", lambda t: (t ** 3).sum(), (4, 3)),
    ("neg", lambda t: (-t).sum(), (4, 3)),
    ("matmul", lambda t: (t @ MAT_3x5).sum(), (4, 3)),
    ("matmul_left_const", lambda t: (MAT_5x4 @ t).sum(), (4, 3)),
    ("matmul_vector_rhs", lambda t: (t @ VEC_3).sum(), (4, 3)),
    ("matmul_batched", lambda t: (t.reshape(2, 2, 3) @ BATCH_2x3x4).sum(),
     (4, 3)),
    ("exp", lambda t: t.exp().sum(), (4, 3)),
    ("log", lambda t: (t * t + 1.0).log().sum(), (4, 3)),
    ("sigmoid", lambda t: t.sigmoid().sum(), (4, 3)),
    ("tanh", lambda t: t.tanh().sum(), (4, 3)),
    ("softmax", lambda t: (t.softmax(axis=-1) * MAT_4x3).sum(), (4, 3)),
    ("sum_axis", lambda t: (t.sum(axis=0) ** 2).sum(), (4, 3)),
    ("sum_keepdims", lambda t: (t.sum(axis=1, keepdims=True) * t).sum(),
     (4, 3)),
    ("mean", lambda t: (t.mean(axis=1) ** 2).sum(), (4, 3)),
    ("reshape", lambda t: (t.reshape(3, 4) @ MAT_5x4.transpose()).sum().sum(),
     (4, 3)),
    ("transpose", lambda t: (t.transpose(1, 0) ** 2).sum(), (4, 3)),
    ("getitem", lambda t: (t[1:3, :2] ** 2).sum(), (4, 3)),
    ("concat", lambda t: concat([t.tanh(), t * 2.0], axis=-1).sum(), (4, 3)),
    ("stack", lambda t: (stack([t, t * t], axis=0) ** 2).sum(), (4, 3)),
])
def test_op_gradients(name, build, shape):
    x = np.random.default_rng(hash(name) % 2**31).normal(size=shape)
    assert gradient_check(build, x)


@pytest.mark.parametrize("with_carry", [False, True])
@pytest.mark.parametrize("bandwidth", [None, 0, 1])
def test_tape_step_gradient(bandwidth, with_carry):
    """The recurrence's one hand-written backward, for the plain cell
    (``bandwidth`` None) and the SAM cell: gradients to the step's inputs
    and states and to every recurrent weight, through both tape nodes."""
    rng = np.random.default_rng(40)
    batch, d = 3, 4
    if bandwidth is None:
        cell, window = LSTMCell(2, d, rng), None
        weights = [(cell, "u_gates"), (cell, "u_cand")]
    else:
        cell = SAMLSTMCell(2, d, rng)
        memory = SpatialMemory((5, 5), d, bandwidth=bandwidth)
        memory.data[:] = rng.normal(scale=0.5, size=memory.data.shape)
        window = memory.gather(rng.integers(0, 5, size=(batch, 2)))
        weights = [(cell, "u_gates"), (cell, "u_cand"),
                   (cell.read_proj, "weight"), (cell.read_proj, "bias")]
    carry = np.array([[False], [True], [False]]) if with_carry else None
    mix_h, mix_c = rng.normal(size=(2, batch, d))
    bounds = np.cumsum([0, cell.u_gates.shape[0], d, d, d])

    def step(packed):
        x_gates, x_cand, h, c = (packed[:, lo:hi] for lo, hi
                                 in zip(bounds[:-1], bounds[1:]))
        h_t, c_t, _ = tape_step(cell, x_gates, x_cand, h, c, window, carry)
        return (h_t * mix_h).sum() + (c_t * mix_c).sum()

    packed = rng.normal(size=(batch, bounds[-1]))
    assert gradient_check(step, packed, tol=1e-6)
    for owner, name in weights:
        def through_weight(weight):
            setattr(owner, name, weight)
            return step(Tensor(packed))

        assert gradient_check(through_weight, getattr(owner, name).data,
                              tol=1e-6), name


def test_unstack_gradient():
    x = np.random.default_rng(26).normal(size=(3, 2, 4))

    def build(t):
        slots = unstack(t, axis=0)
        return (slots[0] ** 2).sum() + (slots[1] * 3.0).sum() + slots[2].sum()

    assert gradient_check(build, x)


def test_sqrt_gradient_away_from_zero():
    x = np.abs(np.random.default_rng(0).normal(size=(4, 3))) + 1.0
    assert gradient_check(lambda t: t.sqrt().sum(), x)


def test_relu_gradient_away_from_kink():
    x = np.random.default_rng(3).normal(size=(4, 3))
    x[np.abs(x) < 0.05] = 0.5
    assert gradient_check(lambda t: t.relu().sum(), x)


def test_clip_min_gradient_away_from_boundary():
    x = np.random.default_rng(4).normal(size=(4, 3))
    x[np.abs(x - 0.1) < 0.05] = 1.0
    assert gradient_check(lambda t: t.clip_min(0.1).sum(), x)


def test_take_rows_gradient_with_duplicates():
    idx = np.array([0, 2, 2, 1])
    x = np.random.default_rng(5).normal(size=(4, 3))
    assert gradient_check(lambda t: (t.take_rows(idx) ** 2).sum(), x)


def test_where_gradient():
    cond = np.random.default_rng(6).random((4, 3)) > 0.5
    x = np.random.default_rng(7).normal(size=(4, 3))
    assert gradient_check(lambda t: where(cond, t * 2.0, t * t).sum(), x)


def test_embedding_similarity_gradient():
    """g = exp(-||a - b||): the NeuTraj pair-similarity head."""
    from repro.nn.layers import embedding_similarity

    b = Tensor(np.random.default_rng(8).normal(size=(5, 4)))

    def build(t):
        return embedding_similarity(t, b).sum()

    x = np.random.default_rng(9).normal(size=(5, 4))
    assert gradient_check(build, x)


def test_attention_read_composite_gradient():
    """softmax-attention over a constant memory window (SAM read path)."""
    window = Tensor(np.random.default_rng(10).normal(size=(3, 7, 4)))

    def build(t):
        scores = (window @ t.reshape(3, 4, 1)).reshape(3, 7)
        attn = scores.softmax(axis=-1)
        mix = (window.transpose(0, 2, 1) @ attn.reshape(3, 7, 1)).reshape(3, 4)
        return (mix * mix).sum()

    x = np.random.default_rng(11).normal(size=(3, 4))
    assert gradient_check(build, x)


def test_ranking_loss_composite_gradient():
    """Rank-weighted similar + margin dissimilar loss (Eq. 8-9)."""
    from repro.core.sampling import rank_weights

    weights = Tensor(rank_weights(6))
    truth = Tensor(np.random.default_rng(12).uniform(size=6))

    def build(t):
        g = (-((t * t).sum(axis=-1).sqrt(eps=1e-12))).exp()
        diff_s = g - truth
        diff_d = (g - truth).relu()
        return (weights * diff_s * diff_s).sum() + (weights * diff_d * diff_d).sum()

    x = np.random.default_rng(13).normal(size=(6, 4)) + 1.0
    assert gradient_check(build, x, tol=1e-3)
