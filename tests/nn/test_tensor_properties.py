"""Hypothesis property tests for the autodiff engine.

Checks algebraic identities of forward values and gradient invariants that
must hold for arbitrary inputs — complementing the numeric gradient checks
in ``test_gradcheck.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn.tensor import Tensor, concat, logistic, stack, where

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                   width=64)


def tensors(max_dims=2, max_side=5):
    return arrays(np.float64,
                  array_shapes(min_dims=1, max_dims=max_dims,
                               max_side=max_side),
                  elements=finite)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_add_commutes(x):
    a = Tensor(x)
    np.testing.assert_allclose((a + a).data, (2.0 * a).data)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_softmax_rows_are_distributions(x):
    out = Tensor(x).softmax(axis=-1).data
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_sigmoid_bounded_and_symmetric(x):
    s = Tensor(x).sigmoid().data
    assert np.all((s >= 0.0) & (s <= 1.0))
    s_neg = Tensor(-x).sigmoid().data
    np.testing.assert_allclose(s + s_neg, 1.0, atol=1e-12)


#: Every float64, plus the positions where a one-sided logistic could part
#: from the two-sided one: signed zeros, infinities, NaNs, |x| >= 745
#: (where exp(-|x|) underflows) and subnormals.
edge_floats = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0,
                     -745.0, 745.2, -745.2, 1e308, -1e308, 5e-324, -5e-324,
                     2.2250738585072e-308, -2.2250738585072e-308]),
    st.floats(min_value=745.0, allow_infinity=False),
    st.floats(max_value=-745.0, allow_infinity=False),
    st.floats(min_value=-2.2250738585072e-308, max_value=2.2250738585072e-308,
              allow_subnormal=True))


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=6),
              elements=edge_floats))
@settings(max_examples=200, deadline=None)
def test_logistic_is_the_two_sided_where_bit_for_bit(x):
    e = np.exp(-np.abs(x))
    pos = 1.0 / (1.0 + e)
    two_sided = np.where(x >= 0, pos, e * pos)
    assert np.array_equal(logistic(x).view(np.uint64),
                          two_sided.view(np.uint64))


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_sum_grad_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_linearity_of_gradients(x):
    """grad of (3*f) == 3 * grad of f for f = sum of squares."""
    t1 = Tensor(x.copy(), requires_grad=True)
    (t1 * t1).sum().backward()
    t2 = Tensor(x.copy(), requires_grad=True)
    ((t2 * t2).sum() * 3.0).backward()
    np.testing.assert_allclose(t2.grad, 3.0 * t1.grad, rtol=1e-9, atol=1e-9)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_grad_accumulation_equals_sum(x):
    """Two backward passes accumulate exactly twice the gradient."""
    t = Tensor(x, requires_grad=True)
    (t.tanh()).sum().backward()
    once = t.grad.copy()
    (t.tanh()).sum().backward()
    np.testing.assert_allclose(t.grad, 2.0 * once, rtol=1e-9, atol=1e-12)


@given(tensors(max_dims=2), tensors(max_dims=2))
@settings(max_examples=40, deadline=None)
def test_where_partition(x, y):
    """where(c, x, y) + where(~c, x, y) == x + y elementwise."""
    n = min(x.size, y.size)
    a = x.reshape(-1)[:n]
    b = y.reshape(-1)[:n]
    cond = a > 0
    selected = where(cond, Tensor(a), Tensor(b)).data
    complement = where(~cond, Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(selected + complement, a + b)


@given(tensors(max_dims=1, max_side=6))
@settings(max_examples=40, deadline=None)
def test_concat_then_slice_roundtrip(x):
    t = Tensor(x, requires_grad=True)
    joined = concat([t, t * 0.0], axis=0)
    np.testing.assert_allclose(joined.data[:len(x)], x)
    joined.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@given(st.lists(tensors(max_dims=1, max_side=4), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_stack_shape(xs):
    n = min(len(x) for x in xs)
    ts = [Tensor(x[:n]) for x in xs]
    out = stack(ts, axis=0)
    assert out.shape == (len(xs), n)


@given(tensors(max_dims=2, max_side=4), tensors(max_dims=2, max_side=4))
@settings(max_examples=30, deadline=None)
def test_matmul_matches_numpy(x, y):
    if x.ndim != 2 or y.ndim != 2:
        return
    a = x
    b = y.T if y.shape[1] == x.shape[1] else y
    if a.shape[1] != b.shape[0]:
        b = np.resize(b, (a.shape[1], 3))
    out = (Tensor(a) @ Tensor(b)).data
    np.testing.assert_allclose(out, a @ b, rtol=1e-9, atol=1e-9)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_exp_log_inverse_on_positive(x):
    positive = np.abs(x) + 0.5
    out = Tensor(positive).log().exp().data
    np.testing.assert_allclose(out, positive, rtol=1e-9)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_detach_shares_data_but_no_grad(x):
    t = Tensor(x, requires_grad=True)
    d = t.detach()
    assert d.data is t.data
    out = (d * 2.0).sum()
    assert not out.requires_grad
