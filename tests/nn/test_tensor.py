"""Unit tests for the autodiff Tensor: forward values and basic semantics."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, concat, stack, where


class TestConstruction:
    def test_wraps_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_int_input_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        assert as_tensor(2.0).shape == ()

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_like_scalar_array(self):
        assert Tensor(np.array([3.5])).sum().item() == 3.5

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestForwardValues:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_broadcast(self):
        out = Tensor(np.ones((2, 3))) + Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub(self):
        out = Tensor([3.0]) - Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_rsub(self):
        out = 5.0 - Tensor([1.0])
        np.testing.assert_allclose(out.data, [4.0])

    def test_mul(self):
        out = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        np.testing.assert_allclose(out.data, [8.0, 15.0])

    def test_div(self):
        out = Tensor([8.0]) / Tensor([2.0])
        np.testing.assert_allclose(out.data, [4.0])

    def test_rtruediv(self):
        out = 8.0 / Tensor([2.0])
        np.testing.assert_allclose(out.data, [4.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_matmul_2d(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_matmul_batched(self):
        a = Tensor(np.ones((3, 2, 4)))
        b = Tensor(np.ones((3, 4, 5)))
        out = a @ b
        assert out.shape == (3, 2, 5)
        np.testing.assert_allclose(out.data, 4.0)

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0])
        np.testing.assert_allclose(x.exp().log().data, x.data)

    def test_sigmoid_extremes_are_stable(self):
        out = Tensor([-1000.0, 0.0, 1000.0]).sigmoid()
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_tanh(self):
        np.testing.assert_allclose(Tensor([0.0]).tanh().data, [0.0])

    def test_relu(self):
        np.testing.assert_allclose(
            Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        out = Tensor(np.random.default_rng(0).normal(size=(4, 6))).softmax()
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_shift_invariant(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = Tensor(x).softmax().data
        b = Tensor(x + 100.0).softmax().data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sum_axis(self):
        out = Tensor(np.ones((2, 3))).sum(axis=0)
        np.testing.assert_allclose(out.data, [2.0, 2.0, 2.0])

    def test_sum_keepdims(self):
        assert Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        assert Tensor([1.0, 2.0, 3.0]).mean().item() == 2.0

    def test_mean_axis_tuple(self):
        out = Tensor(np.ones((2, 3, 4))).mean(axis=(0, 2))
        np.testing.assert_allclose(out.data, np.ones(3))

    def test_reshape(self):
        assert Tensor(np.arange(6.0)).reshape(2, 3).shape == (2, 3)

    def test_transpose_default_reverses(self):
        assert Tensor(np.zeros((2, 3, 4))).transpose().shape == (4, 3, 2)

    def test_getitem_slice(self):
        out = Tensor(np.arange(10.0))[2:5]
        np.testing.assert_allclose(out.data, [2.0, 3.0, 4.0])

    def test_take_rows(self):
        t = Tensor(np.arange(6.0).reshape(3, 2))
        out = t.take_rows(np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_concat(self):
        out = concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))], axis=1)
        assert out.shape == (2, 5)

    def test_stack(self):
        out = stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=0)
        assert out.shape == (2, 2)

    def test_where(self):
        cond = np.array([True, False])
        out = where(cond, Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_clip_min(self):
        out = Tensor([-1.0, 0.5]).clip_min(0.0)
        np.testing.assert_allclose(out.data, [0.0, 0.5])

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])


class TestBackwardSemantics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        first = t.grad.copy()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * first)

    def test_backward_consumes_the_tape(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        mid = t * 3.0
        out = mid.sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [3.0, 3.0])  # leaf keeps its grad
        np.testing.assert_allclose(out.grad, 1.0)  # and so does the root
        assert mid.grad is None and mid._parents == ()
        with pytest.raises(RuntimeError, match="already consumed"):
            out.backward()
        np.testing.assert_allclose(out.grad, 1.0)  # refused before any write
        np.testing.assert_allclose(t.grad, [3.0, 3.0])

    def test_backward_through_a_consumed_subgraph_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        shared = t * 3.0
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="already consumed"):
            (shared * 2.0).sum().backward()

    def test_leaf_backward_is_repeatable(self):
        t = Tensor(2.0, requires_grad=True)
        t.backward()
        t.backward()
        np.testing.assert_allclose(t.grad, 2.0)

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_detach_cuts_tape(self):
        t = Tensor([2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_shared_subexpression_grad(self):
        # y = x*x uses x twice; dy/dx = 2x.
        t = Tensor([3.0], requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_diamond_graph_grad(self):
        # z = (x+1) * (x+2): dz/dx = 2x+3.
        t = Tensor([1.0], requires_grad=True)
        ((t + 1) * (t + 2)).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_long_chain_does_not_recurse(self):
        # 3000-step chain would overflow Python recursion if DFS were
        # recursive.
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_broadcast_grad_shape(self):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (Tensor(np.ones((4, 3))) * t).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 4.0, 4.0])

    def test_constant_branch_gets_no_grad(self):
        const = Tensor([1.0])
        t = Tensor([1.0], requires_grad=True)
        (t + const).sum().backward()
        assert const.grad is None
