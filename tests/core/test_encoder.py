"""Tests for the trajectory encoder wrapper."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NeuTrajConfig
from repro.core.encoder import EMBED_CHUNK, TrajectoryEncoder
from repro.core.sampling import AnchorSamples
from repro.core.trainer import training_step
from repro.datasets import Grid, Trajectory
from repro.datasets.grid import CoordinateNormalizer
from repro.nn import rnn, tensor
from repro.nn.optim import Adam
from repro.nn.sam import SpatialMemory, WindowLog
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad, unstack


def _encoder(use_sam: bool, seed: int = 0, dim: int = 8):
    grid = Grid((0.0, 0.0, 1000.0, 1000.0), cell_size=100.0)
    normalizer = CoordinateNormalizer(mean=[500.0, 500.0], std=[250.0, 250.0])
    cfg = NeuTrajConfig(embedding_dim=dim, use_sam=use_sam, cell_size=100.0,
                        seed=seed)
    return TrajectoryEncoder(grid, normalizer, cfg,
                             np.random.default_rng(seed))


@pytest.fixture
def trajectories(rng):
    return [Trajectory(rng.uniform(100, 900, size=(n, 2)))
            for n in (5, 9, 3)]


@pytest.mark.parametrize("use_sam", [True, False])
def test_encode_shape(use_sam, trajectories):
    enc = _encoder(use_sam)
    out = enc.encode(trajectories)
    assert out.shape == (3, 8)


@pytest.mark.parametrize("use_sam", [True, False])
def test_embed_matches_encode(use_sam, trajectories):
    enc = _encoder(use_sam)
    np.testing.assert_allclose(enc.embed(trajectories),
                               enc.encode(trajectories).data)


def test_embed_chunks_without_changing_a_bit(rng):
    """Past ``EMBED_CHUNK`` rows ``embed`` folds chunk by chunk; every row
    keeps the bits it gets alone, and none is dropped."""
    enc = _encoder(True)
    items = [Trajectory(rng.uniform(0, 1000, size=(int(n), 2)))
             for n in rng.integers(1, 6, size=EMBED_CHUNK + 3)]
    out = enc.embed(items)
    assert out.shape == (len(items), 8)
    for row in (0, EMBED_CHUNK - 1, EMBED_CHUNK, len(items) - 1):
        assert np.array_equal(out[row], enc.embed([items[row]])[0])


def test_embed_empty_returns_zero_rows():
    enc = _encoder(False)
    out = enc.embed([])
    assert out.shape == (0, 8)


def test_sam_flag(trajectories):
    assert _encoder(True).uses_sam
    assert not _encoder(False).uses_sam


def test_inference_is_memory_readonly(trajectories):
    enc = _encoder(True)
    enc.embed(trajectories)
    assert enc.memory.occupancy() == 0.0


def test_training_encode_writes_memory(trajectories):
    enc = _encoder(True)
    enc.encode(trajectories, update_memory=True)
    assert enc.memory.occupancy() > 0.0


def test_reset_memory(trajectories):
    enc = _encoder(True)
    enc.encode(trajectories, update_memory=True)
    enc.reset_memory()
    assert enc.memory.occupancy() == 0.0


def test_deterministic_across_instances(trajectories):
    a = _encoder(True, seed=3)
    b = _encoder(True, seed=3)
    np.testing.assert_allclose(a.embed(trajectories), b.embed(trajectories))


def test_embedding_order_independent_when_readonly(trajectories):
    enc = _encoder(True)
    fwd = enc.embed(trajectories)
    rev = enc.embed(list(reversed(trajectories)))
    assert np.array_equal(fwd, rev[::-1])


# ------------------------------------------------ the kernel is the tape

def _warm_encoder(use_sam: bool, seed: int = 0) -> TrajectoryEncoder:
    """An encoder whose memory is non-zero, so window reads matter."""
    enc = _encoder(use_sam, seed=seed)
    if use_sam:
        enc.memory.data[:] = np.random.default_rng(seed + 1).normal(
            scale=0.5, size=enc.memory.data.shape)
    return enc


def _ragged_batch(seed: int, count: int):
    """``count`` trajectories of 2-60 points, some on and beyond the
    [0, 1000]^2 grid border (cells clamp, windows hang over the edge)."""
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        points = rng.uniform(-150.0, 1150.0,
                             size=(int(rng.integers(2, 61)), 2))
        points[0] = rng.choice([0.0, 1000.0], size=2)  # exactly on a border
        batch.append(Trajectory(points))
    return batch


def _tape_extend(enc, h, c, points):
    """The fold as the tape engine runs it: one point at a time, each
    projected by itself, through ``rnn.tape_step`` under ``no_grad``."""
    inputs = enc.normalizer.transform(points)
    cells = enc.grid.to_cells(points)
    cell = enc.rnn.cell
    with no_grad():
        h, c = Tensor(h.copy()), Tensor(c.copy())
        for t in range(len(points)):
            x = Tensor(inputs[t:t + 1])
            window = (enc.memory.gather(cells[t:t + 1]) if enc.uses_sam
                      else None)
            h, c, _ = rnn.tape_step(
                cell, x @ cell.w_gates.transpose() + cell.b_gates,
                x @ cell.w_cand.transpose() + cell.b_cand, h, c, window)
    return h.data, c.data


class _CountTensors:
    """Counts ``Tensor.__init__`` calls while active."""

    def __enter__(self):
        self.count, self._init = 0, Tensor.__init__

        def counting(tensor_self, *args, **kwargs):
            self.count += 1
            self._init(tensor_self, *args, **kwargs)

        Tensor.__init__ = counting
        return self

    def __exit__(self, *exc):
        Tensor.__init__ = self._init


@pytest.mark.parametrize("use_sam", [True, False])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 20))
def test_embed_is_the_per_point_tape_fold_bit_for_bit(use_sam, seed, count):
    """Each row of ``embed`` is the tape engine folding that trajectory
    point by point from zero states; ``embed`` builds no ``Tensor`` and
    changes neither a parameter nor the memory."""
    enc = _warm_encoder(use_sam, seed=seed % 5)
    batch = _ragged_batch(seed, count)
    frozen = {name: p.data.copy() for name, p in enc.named_parameters()}
    memory = enc.memory.data.copy() if use_sam else None

    with _CountTensors() as built:
        whole = enc.embed(batch)
    assert built.count == 0

    zeros = np.zeros((1, enc.config.embedding_dim))
    for row, t in zip(whole, batch):
        h, _ = _tape_extend(enc, zeros, zeros, t.points)
        assert np.array_equal(row, h[0])
    for name, p in enc.named_parameters():
        assert np.array_equal(p.data, frozen[name]), name
    if use_sam:
        assert np.array_equal(enc.memory.data, memory)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 64),
       use_sam=st.booleans())
def test_embed_batching_consistent(seed, count, use_sam):
    """Batch invariance: a row of a batched ``embed`` is bit for bit the
    trajectory embedded alone, and its ``encode_prefix`` embedding."""
    enc = _encoder(use_sam, seed=seed % 5, dim=32)
    if use_sam:  # the memory as a training pass leaves it
        enc.encode(_ragged_batch(seed % 5, 8), update_memory=True)
        assert enc.memory.occupancy() > 0.0
    batch = _ragged_batch(seed, count)
    whole = enc.embed(batch)
    assert whole.shape == (count, 32)
    for row, t in zip(whole, batch):
        assert np.array_equal(row, enc.embed([t])[0])
        assert np.array_equal(row, enc.encode_prefix(t.points).h[0])


@pytest.mark.parametrize("use_sam", [True, False])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_extend_prefix_is_the_tape_fold_bit_for_bit(use_sam, seed, data):
    enc = _warm_encoder(use_sam, seed=seed % 5)
    points = _ragged_batch(seed, 1)[0].points
    n = len(points)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
    if data.draw(st.booleans()):
        cuts = list(range(n + 1))  # every chunk is one point
    bounds = [0] + cuts + [n]

    state = enc.init_prefix()
    h_ref, c_ref = state.h, state.c
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h_before, c_before = state.h.copy(), state.c.copy()
        with _CountTensors() as built:
            grown = enc.extend_prefix(state, points[lo:hi])
        assert built.count == 0
        assert np.array_equal(state.h, h_before)  # the old state is a value
        assert np.array_equal(state.c, c_before)
        h_ref, c_ref = _tape_extend(enc, h_ref, c_ref, points[lo:hi])
        assert np.array_equal(grown.h, h_ref)
        assert np.array_equal(grown.c, c_ref)
        state = grown
    assert state.length == n


@pytest.mark.parametrize("use_sam", [True, False])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 64))
def test_extend_prefixes_is_extend_prefix_row_by_row(use_sam, seed, count):
    """Batch invariance: each row of one batched fold lands on the bits
    its segment reaches folded alone, whatever its batch-mates are."""
    enc = _encoder(use_sam, seed=seed % 5, dim=32)
    if use_sam:  # the memory as a training pass leaves it
        enc.encode(_ragged_batch(seed % 5, 8), update_memory=True)
        assert enc.memory.occupancy() > 0.0
    rng = np.random.default_rng(seed)
    states, tails = [], []
    for _ in range(count):
        prefix, tail = int(rng.integers(0, 20)), int(rng.integers(1, 13))
        points = rng.uniform(-150.0, 1150.0, size=(prefix + tail, 2))
        states.append(enc.encode_prefix(points[:prefix]))
        tails.append(points[prefix:])

    with _CountTensors() as built:
        folded = enc.extend_prefixes(states, tails)
    assert built.count == 0
    assert len(folded) == count
    for state, points, got in zip(states, tails, folded):
        alone = enc.extend_prefix(state, points)
        assert got.length == alone.length == state.length + len(points)
        assert np.array_equal(got.h, alone.h)
        assert np.array_equal(got.c, alone.c)


def test_extend_prefixes_edge_cases():
    enc = _warm_encoder(True)
    rng = np.random.default_rng(0)
    state = enc.encode_prefix(rng.uniform(0.0, 1000.0, size=(4, 2)))
    assert enc.extend_prefixes([], []) == []
    empty, grown = enc.extend_prefixes(
        [state, state], [np.zeros((0, 2)), rng.uniform(0.0, 1000.0, (3, 2))])
    assert empty.length == 4 and np.array_equal(empty.h, state.h)
    assert empty.h is not state.h  # a copy, never the caller's array
    assert grown.length == 7
    with pytest.raises(ValueError, match="2 states for 1 tails"):
        enc.extend_prefixes([state, state], [np.zeros((1, 2))])
    with pytest.raises(ValueError, match="shape"):
        enc.extend_prefixes([state], [np.zeros((3, 3))])
    with pytest.raises(ValueError, match="finite"):
        enc.extend_prefixes([state], [np.array([[0.0, np.nan]])])


def _parent_step_forward(x_gates, x_cand, h, c, window, carry, u_gates_t,
                         u_cand_t, w_read_t, b_read):
    """The SAM training step's forward as it was written inline before it
    became ``rnn.step_forward`` — statement for statement."""
    def sigmoid(x):
        e = np.exp(-np.abs(x))
        pos = 1.0 / (1.0 + e)
        return np.where(x >= 0, pos, e * pos)

    batch, d = c.shape
    pre = x_gates + h @ u_gates_t
    cand_pre = x_cand + h @ u_cand_t
    slab = sigmoid(pre)
    f_t, i_t = slab[:, 0 * d:1 * d], slab[:, 1 * d:2 * d]
    s_t, o_t = slab[:, 2 * d:3 * d], slab[:, 3 * d:4 * d]
    cand = np.tanh(cand_pre)
    c_hat = f_t * c + i_t * cand
    scores = (window @ c_hat.reshape(batch, d, 1)
              ).reshape(batch, window.shape[1])
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=-1, keepdims=True)
    mix = (window.transpose(0, 2, 1)
           @ attn.reshape(batch, -1, 1)).reshape(batch, d)
    cat = np.concatenate([c_hat, mix], axis=-1)
    c_his = np.tanh(cat @ w_read_t + b_read)
    c_t = c_hat + s_t * c_his
    tanh_ct = np.tanh(c_t)
    h_t = o_t * tanh_ct
    if carry is not None:
        c_t = np.where(carry, c, c_t)
        h_t = np.where(carry, h, h_t)
    return h_t, c_t, (slab, cand, attn, cat, c_his, tanh_ct)


def _one_training_step(use_sam=True, seed=3):
    """Loss, parameters and memory (``None`` without SAM) of one seeded
    ``training_step``."""
    rng = np.random.default_rng(seed)
    enc = _warm_encoder(use_sam, seed=seed)
    seeds = _ragged_batch(seed, 9)
    batch = [AnchorSamples(anchor=a,
                           similar=rng.permutation(9)[:2],
                           dissimilar=rng.permutation(9)[:2],
                           similar_truth=rng.uniform(0.5, 1.0, size=2),
                           dissimilar_truth=rng.uniform(0.0, 0.5, size=2))
             for a in (0, 4)]
    optimizer = Adam(enc.parameters(), lr=0.01)
    loss = training_step(enc, seeds, batch, optimizer, grad_clip=0.0)
    return (loss, dict(enc.named_parameters()),
            enc.memory.data.copy() if use_sam else None)


@pytest.mark.parametrize("use_sam", [True, False])
def test_a_training_step_reaches_every_parameter_in_float64(use_sam,
                                                            trajectories):
    """The encoder's parameter contract: after one step every parameter
    is float64 and got a float64, nonzero gradient, so none is dead
    weight and no narrower float reached the tape; inference stays
    float64 too."""
    _, params, _ = _one_training_step(use_sam)
    for name, param in params.items():
        assert param.data.dtype == np.float64, name
        assert param.grad is not None, f"{name} got no gradient"
        assert param.grad.dtype == np.float64, name
        assert np.abs(param.grad).max() > 0.0, f"{name}'s gradient is zero"
    assert _encoder(use_sam).embed(trajectories).dtype == np.float64


def test_training_step_unchanged_by_the_shared_forward(monkeypatch):
    loss, params, memory = _one_training_step()
    monkeypatch.setattr(rnn, "step_forward", _parent_step_forward)
    ref_loss, ref_params, ref_memory = _one_training_step()
    assert loss == ref_loss
    assert all(np.abs(p.grad).max() > 0.0 for p in params.values())
    for name, param in params.items():
        assert np.array_equal(param.grad, ref_params[name].grad), name
    assert np.array_equal(memory, ref_memory)


def _parent_forward(self, inputs, mask, cells=None, memory=None,
                    update_memory=False):
    """``Recurrent.forward`` as it was before its tape stopped holding the
    windows — statement for statement: every step's window is taped, and
    each hoisted projection is a matmul, an add, a reshape, a transpose and
    a weight transpose."""
    inputs = np.asarray(inputs, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    batch, steps, _ = inputs.shape
    cell, flat = self.cell, Tensor(inputs.reshape(batch * steps, -1))

    def hoisted(w, b):
        """Per-step (B, ·) slices of one (B·T, in) @ W projection."""
        return unstack((flat @ w.transpose() + b)
                       .reshape(batch, steps, -1).transpose(1, 0, 2))

    x_gates = hoisted(cell.w_gates, cell.b_gates)
    x_cand = hoisted(cell.w_cand, cell.b_cand)
    h = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
    c = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
    reads, window = self._reads(cells, memory), None
    if reads:
        cells = np.asarray(cells, dtype=int)
    for t in range(steps):
        if reads:  # gathered step by step: writes land between reads
            window = memory.gather(cells[:, t, :])
        h, c, s_t = rnn.tape_step(cell, x_gates[t], x_cand[t], h, c, window,
                                  ~mask[:, t, None])
        if reads and update_memory:
            memory.write(cells[:, t, :], c.data, s_t, mask=mask[:, t])
    return h


def _seeded_step(use_sam=True, bounded=True, seed=5, dim=8):
    """Loss, gradients and memory (``None`` without SAM) of one seeded
    ``training_step`` over ragged trajectories. Each anchor is also its
    first similar sample, so two rows write the same cell at every step."""
    rng = np.random.default_rng(seed)
    enc = _encoder(use_sam, seed=seed, dim=dim)
    if use_sam:
        enc.memory.bounded = bounded
        enc.memory.data[:] = rng.normal(scale=0.5, size=enc.memory.data.shape)
    seeds = _ragged_batch(seed, 9)
    batch = [AnchorSamples(anchor=a, similar=np.array([a, rng.integers(9)]),
                           dissimilar=rng.permutation(9)[:2],
                           similar_truth=rng.uniform(0.5, 1.0, size=2),
                           dissimilar_truth=rng.uniform(0.0, 0.5, size=2))
             for a in (0, 4)]
    optimizer = Adam(enc.parameters(), lr=0.01)
    loss = training_step(enc, seeds, batch, optimizer, grad_clip=0.0)
    grads = {name: p.grad.copy() for name, p in enc.named_parameters()}
    return loss, grads, enc.memory.data.copy() if use_sam else None


@pytest.mark.parametrize("use_sam, bounded",
                         [(True, True), (True, False), (False, True)])
def test_training_step_unchanged_by_rereading_the_windows(
        monkeypatch, use_sam, bounded):
    loss, grads, memory = _seeded_step(use_sam, bounded)
    monkeypatch.setattr(rnn.Recurrent, "forward", _parent_forward)
    ref_loss, ref_grads, ref_memory = _seeded_step(use_sam, bounded)
    assert loss == ref_loss
    assert all(np.abs(g).max() > 0.0 for g in grads.values())
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name
    if use_sam:
        assert np.array_equal(memory, ref_memory)


def test_a_training_steps_peak_no_longer_holds_the_windows(monkeypatch):
    """tracemalloc peak of one SAM step (K = 25 cells a window, d = 32)
    against the same step taping every window: the windows were most of
    it. A first untraced step keeps one-off allocations out of both."""
    def peak():
        _seeded_step(dim=32)
        tracemalloc.start()
        try:
            _seeded_step(dim=32)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    new = peak()
    monkeypatch.setattr(rnn.Recurrent, "forward", _parent_forward)
    assert new <= 0.6 * peak()


# ------------------------------------------- backward consumes the tape

def _retaining_backward(self, grad=None):
    """``Tensor.backward`` as it was before it released what it had used:
    every interior node keeps its gradient, closure and parents."""
    grad = (np.ones_like(self.data) if grad is None
            else np.asarray(grad, dtype=self.data.dtype))
    order, visited, stack = [], set(), [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    self._accumulate(grad)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_training_step_unchanged_by_releasing_the_tape(monkeypatch):
    loss, params, memory = _one_training_step()
    monkeypatch.setattr(Tensor, "backward", _retaining_backward)
    ref_loss, ref_params, ref_memory = _one_training_step()
    assert loss == ref_loss
    assert all(np.abs(p.grad).max() > 0.0 for p in params.values())
    for name, param in params.items():
        assert np.array_equal(param.grad, ref_params[name].grad), name
    assert np.array_equal(memory, ref_memory)


def test_the_tape_never_holds_a_window(monkeypatch):
    windows, logs, copies, undos = [], [], [], []
    step_forward, reread = rnn.step_forward, WindowLog.reread
    window_log, write = SpatialMemory.window_log, SpatialMemory.write

    def recording_step(x_gates, x_cand, h, c, window, *rest):
        windows.append(weakref.ref(window))
        return step_forward(x_gates, x_cand, h, c, window, *rest)

    def recording_log(self, cells):
        log = window_log(self, cells)
        logs.append(weakref.ref(log))
        return log

    def recording_reread(self, step):
        window = reread(self, step)
        windows.append(weakref.ref(window))
        if self._table is not None:
            copies.append(weakref.ref(self._table))
        return window

    def recording_write(self, *args, **kwargs):
        undo = write(self, *args, **kwargs)
        undos.extend(weakref.ref(part) for part in undo or ())
        return undo

    monkeypatch.setattr(rnn, "step_forward", recording_step)
    monkeypatch.setattr(SpatialMemory, "window_log", recording_log)
    monkeypatch.setattr(WindowLog, "reread", recording_reread)
    monkeypatch.setattr(SpatialMemory, "write", recording_write)
    enc = _warm_encoder(True)
    embeddings = enc.encode(_ragged_batch(3, 4), update_memory=True)
    loss = (embeddings * embeddings).sum()
    assert len(windows) >= 2 and undos
    assert all(ref() is None for ref in windows)  # gone when forward returned
    assert logs[0]() is not None and all(ref() is not None for ref in undos)
    forward_windows = len(windows)
    loss.backward()
    assert len(windows) == 2 * forward_windows and copies
    # ``loss`` and ``embeddings`` are still referenced here: it is the
    # sweep that let the re-read windows, the copy and the undo log go.
    assert all(ref() is None for ref in windows + copies + undos + logs)
    assert embeddings.grad is None and loss.grad is not None
    assert all(p.grad is not None for p in enc.parameters())


@pytest.mark.parametrize("change", ["write", "reset", "replace"])
def test_backward_after_the_memory_changed_raises(change):
    enc = _warm_encoder(True)
    embeddings = enc.encode(_ragged_batch(3, 4), update_memory=True)
    memory = enc.memory
    if change == "write":
        memory.write(np.array([[1, 1]]), np.ones((1, 8)), np.zeros((1, 8)))
    elif change == "reset":
        memory.reset()
    else:
        memory.data = memory.data.copy()
    with pytest.raises(RuntimeError, match="written, reset or replaced"):
        (embeddings * embeddings).sum().backward()


def test_an_out_of_order_reread_raises():
    memory = SpatialMemory((5, 5), 4, bandwidth=1)
    log = memory.window_log(np.zeros((2, 3, 2), dtype=int))
    for _ in range(3):
        log.read()
    log.reread(1)
    for step in (1, 2):
        with pytest.raises(RuntimeError, match=f"step {step} re-read out "
                                               "of order"):
            log.reread(step)
    log.reread(0)


# ------------------------------------------- inference and the grad flag

class _ProbedMemory(SpatialMemory):
    """Calls ``probe()`` every time the memory tensor is read."""

    probe = staticmethod(lambda: None)

    @property
    def data(self):
        self.probe()
        return self._data

    @data.setter
    def data(self, value):
        self._data = value


def _probed_encoder(probe):
    enc = _warm_encoder(True)
    probed = _ProbedMemory(enc.memory.grid_shape, enc.memory.hidden_size,
                           enc.memory.bandwidth)
    probed.data = enc.memory.data
    probed.probe = probe
    enc.memory = probed
    return enc


def test_inference_never_touches_the_grad_flag(trajectories):
    seen = []
    enc = _probed_encoder(lambda: seen.append(is_grad_enabled()))
    enc.embed(trajectories)
    enc.encode_prefix(trajectories[0].points)
    assert seen and all(seen)


def test_overlapping_inference_leaves_autograd_on(trajectories):
    """Thread A is inside ``encode_prefix`` when B enters ``embed``; A
    leaves first, then B. With ``no_grad``'s process-global save/restore
    on that path B restored A's ``False`` and training was dead for the
    rest of the process."""
    a_inside, b_inside, a_done = (threading.Event() for _ in range(3))
    threads = {}

    def probe():
        me = threading.current_thread()
        if me is threads["a"] and not a_inside.is_set():
            a_inside.set()
            assert b_inside.wait(10)
        elif me is threads["b"] and not b_inside.is_set():
            b_inside.set()
            assert a_done.wait(10)

    enc = _probed_encoder(probe)

    def run_a():
        enc.encode_prefix(trajectories[0].points)
        a_done.set()

    def run_b():
        assert a_inside.wait(10)
        enc.embed(trajectories)

    threads["a"] = threading.Thread(target=run_a)
    threads["b"] = threading.Thread(target=run_b)
    try:
        for thread in threads.values():
            thread.start()
        for thread in threads.values():
            thread.join(30)
            assert not thread.is_alive()
        assert a_done.is_set() and b_inside.is_set()
        assert is_grad_enabled()
        _, params, _ = _one_training_step()
        assert all(np.abs(p.grad).max() > 0.0 for p in params.values())
    finally:
        tensor._GRAD_ENABLED = True  # never poison the rest of the suite
