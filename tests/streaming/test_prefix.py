"""Bit-identity of the incremental prefix fold (the streaming keystone).

``extend_prefix`` must be invariant to how a growing trajectory is
chunked across calls: the ingester re-embeds O(new points) at a time and
crash recovery re-encodes whole segments from scratch, and the two must
land on the *same bits* or recovered state would silently diverge.
"""

import numpy as np
import pytest

from tests.streaming.conftest import make_encoder

pytestmark = pytest.mark.streaming


def _random_chunks(rng, n):
    """Partition ``range(n)`` into random contiguous chunks (some empty)."""
    cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(1, 6))))
    bounds = [0] + [int(c) for c in cuts] + [n]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


@pytest.mark.parametrize("use_sam", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_chunked_extend_is_bit_identical(use_sam, seed):
    enc = make_encoder(use_sam=use_sam, seed=seed)
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 40))
    points = rng.uniform(50.0, 950.0, size=(n, 2))

    full = enc.encode_prefix(points)
    state = enc.init_prefix()
    for lo, hi in _random_chunks(rng, n):
        state = enc.extend_prefix(state, points[lo:hi])

    assert state.length == full.length == n
    assert np.array_equal(state.h, full.h)
    assert np.array_equal(state.c, full.c)
    assert np.array_equal(state.embedding, full.embedding)


@pytest.mark.parametrize("use_sam", [True, False])
def test_point_by_point_equals_full(use_sam):
    enc = make_encoder(use_sam=use_sam)
    rng = np.random.default_rng(7)
    points = rng.uniform(50.0, 950.0, size=(17, 2))
    state = enc.init_prefix()
    for i in range(len(points)):
        state = enc.extend_prefix(state, points[i:i + 1])
        partial = enc.encode_prefix(points[:i + 1])
        assert np.array_equal(state.embedding, partial.embedding)


def test_extend_with_empty_chunk_is_identity(encoder):
    rng = np.random.default_rng(0)
    points = rng.uniform(50.0, 950.0, size=(5, 2))
    state = encoder.encode_prefix(points)
    extended = encoder.extend_prefix(state, points[:0])
    assert extended.length == state.length
    assert np.array_equal(extended.h, state.h)
    assert np.array_equal(extended.c, state.c)


def test_states_are_immutable_values(encoder):
    rng = np.random.default_rng(1)
    points = rng.uniform(50.0, 950.0, size=(8, 2))
    state5 = encoder.encode_prefix(points[:5])
    h5 = state5.h.copy()
    state8 = encoder.extend_prefix(state5, points[5:])
    # Extending returned a new state and left the old one untouched,
    # so the ingester can keep checkpoints of past prefixes.
    assert state5.length == 5 and state8.length == 8
    assert np.array_equal(state5.h, h5)


@pytest.mark.parametrize("use_sam", [True, False])
def test_prefix_is_the_batched_embed_bit_for_bit(use_sam):
    """``embed`` is the same fold from zero states, so a prefix re-encoded
    in full lands on its row's bits in a batch of other trajectories."""
    from repro.datasets import Trajectory
    enc = make_encoder(use_sam=use_sam)
    rng = np.random.default_rng(2)
    points = rng.uniform(50.0, 950.0, size=(12, 2))
    prefix = enc.encode_prefix(points)
    others = [Trajectory(rng.uniform(50.0, 950.0, size=(n, 2)))
              for n in (3, 20, 7)]
    batched = enc.embed(others[:2] + [Trajectory(points)] + others[2:])[2]
    assert np.array_equal(prefix.embedding, batched)
