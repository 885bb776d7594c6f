"""Tests for Module/Parameter registration and state dicts."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class _Composite(Module):
    def __init__(self, rng):
        self.inner = Linear(3, 4, rng)
        self.scale = Parameter(np.ones(4))
        self.layers = [Linear(4, 4, rng), Linear(4, 2, rng)]

    def forward(self, x):
        h = self.inner(x)
        h = h * self.scale
        for layer in self.layers:
            h = layer(h)
        return h


def test_parameter_always_requires_grad():
    assert Parameter(np.zeros(3)).requires_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
def test_parameter_is_float64_whatever_it_is_built_from(dtype):
    """A narrower dtype handed to the constructor, even through an alias
    (``compact = np.float32; Parameter(np.zeros(d, dtype=compact))``),
    never reaches the tape."""
    assert Parameter(np.zeros(3, dtype=dtype)).data.dtype == np.float64


def test_named_parameters_recursive(rng):
    model = _Composite(rng)
    names = dict(model.named_parameters())
    assert "inner.weight" in names
    assert "inner.bias" in names
    assert "scale" in names
    assert "layers.0.weight" in names
    assert "layers.1.bias" in names


def test_num_parameters(rng):
    model = _Composite(rng)
    expected = (4 * 3 + 4) + 4 + (4 * 4 + 4) + (2 * 4 + 2)
    assert model.num_parameters() == expected


def test_zero_grad_clears_all(rng):
    model = _Composite(rng)
    out = model(Tensor(np.ones((2, 3)))).sum()
    out.backward()
    assert any(p.grad is not None for p in model.parameters())
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_state_dict_roundtrip(rng):
    model = _Composite(rng)
    state = model.state_dict()
    other = _Composite(np.random.default_rng(999))
    other.load_state_dict(state)
    x = Tensor(np.ones((2, 3)))
    np.testing.assert_allclose(model(x).data, other(x).data)


def test_state_dict_is_a_copy(rng):
    model = _Composite(rng)
    state = model.state_dict()
    state["scale"][:] = 100.0
    assert not np.allclose(model.scale.data, 100.0)


def test_load_state_dict_rejects_missing_key(rng):
    model = _Composite(rng)
    state = model.state_dict()
    del state["scale"]
    with pytest.raises(KeyError):
        model.load_state_dict(state)


def test_load_state_dict_rejects_unexpected_key(rng):
    model = _Composite(rng)
    state = model.state_dict()
    state["bogus"] = np.zeros(1)
    with pytest.raises(KeyError):
        model.load_state_dict(state)


def test_load_state_dict_rejects_bad_shape(rng):
    model = _Composite(rng)
    state = model.state_dict()
    state["scale"] = np.zeros(7)
    with pytest.raises(ValueError):
        model.load_state_dict(state)


def test_forward_is_abstract():
    with pytest.raises(NotImplementedError):
        Module().forward()
