"""Tests for the spatial attention memory and SAM-augmented LSTM."""

import numpy as np
import pytest

from repro.nn.sam import SAMLSTM, SAMLSTMCell, SpatialMemory
from repro.nn.rnn import lengths_to_mask
from repro.nn.tensor import Tensor, numerical_gradient

from .reference import reference_unroll


class TestSpatialMemory:
    def test_starts_zeroed(self):
        mem = SpatialMemory((5, 5), 4, bandwidth=1)
        assert mem.occupancy() == 0.0
        np.testing.assert_allclose(mem.data, 0.0)

    def test_window_size(self):
        assert SpatialMemory((5, 5), 4, bandwidth=2).window_size == 25
        assert SpatialMemory((5, 5), 4, bandwidth=0).window_size == 1

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            SpatialMemory((5, 5), 4, bandwidth=-1)

    def test_gather_center(self):
        mem = SpatialMemory((5, 5), 3, bandwidth=1)
        mem.data[2, 2] = [1.0, 2.0, 3.0]
        window = mem.gather(np.array([[2, 2]]))
        assert window.shape == (1, 9, 3)
        # Row-major scan order: center is position 4 of 9.
        np.testing.assert_allclose(window[0, 4], [1.0, 2.0, 3.0])

    def test_gather_out_of_bounds_reads_zero(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1)
        mem.data[:] = 7.0
        window = mem.gather(np.array([[0, 0]]))
        # Positions outside the grid must be zero, inside are 7.
        outside = [0, 1, 2, 3, 6]  # offsets with x-1 or y-1 < 0
        inside = [4, 5, 7, 8]
        np.testing.assert_allclose(window[0, outside], 0.0)
        np.testing.assert_allclose(window[0, inside], 7.0)

    def test_write_blends_by_gate(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1, bounded=False)
        mem.data[1, 1] = [1.0, 1.0]
        big = 100.0  # sigmoid ~ 1
        mem.write(np.array([[1, 1]]), np.array([[5.0, 5.0]]),
                  np.array([[big, big]]))
        np.testing.assert_allclose(mem.data[1, 1], [5.0, 5.0], atol=1e-8)

    def test_bounded_write_stores_tanh(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1, bounded=True)
        mem.write(np.array([[1, 1]]), np.array([[5.0, -5.0]]),
                  np.array([[100.0, 100.0]]))
        np.testing.assert_allclose(mem.data[1, 1],
                                   [np.tanh(5.0), np.tanh(-5.0)], atol=1e-8)

    def test_bounded_keeps_magnitude_below_one(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            mem.write(rng.integers(0, 3, size=(4, 2)),
                      rng.normal(scale=50.0, size=(4, 2)),
                      rng.normal(size=(4, 2)))
        assert np.abs(mem.data).max() <= 1.0

    def test_write_gate_zero_keeps_old(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1)
        mem.data[1, 1] = [1.0, 1.0]
        mem.write(np.array([[1, 1]]), np.array([[5.0, 5.0]]),
                  np.array([[-100.0, -100.0]]))
        np.testing.assert_allclose(mem.data[1, 1], [1.0, 1.0], atol=1e-8)

    def test_write_respects_mask(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1)
        mem.write(np.array([[1, 1]]), np.array([[5.0, 5.0]]),
                  np.array([[100.0, 100.0]]), mask=np.array([False]))
        np.testing.assert_allclose(mem.data, 0.0)

    def test_write_out_of_bounds_ignored(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1)
        mem.write(np.array([[9, 9]]), np.array([[5.0, 5.0]]),
                  np.array([[100.0, 100.0]]))
        np.testing.assert_allclose(mem.data, 0.0)

    def test_sequential_batch_writes(self):
        """A later batch entry overwrites an earlier one at the same cell."""
        mem = SpatialMemory((3, 3), 1, bandwidth=0, bounded=False)
        cells = np.array([[1, 1], [1, 1]])
        values = np.array([[2.0], [4.0]])
        gates = np.array([[100.0], [100.0]])
        mem.write(cells, values, gates)
        np.testing.assert_allclose(mem.data[1, 1], [4.0], atol=1e-6)

    @staticmethod
    def _reference_write(mem, cells, values, gates, mask=None):
        """Sequential per-sample reference the scatter must reproduce."""
        from repro.nn.tensor import logistic as _sigmoid
        p, q = mem.grid_shape
        if mem.bounded:
            values = np.tanh(values)
        g = _sigmoid(np.asarray(gates, dtype=float))
        for b in range(len(cells)):
            if mask is not None and not mask[b]:
                continue
            gx, gy = int(cells[b, 0]), int(cells[b, 1])
            if not (0 <= gx < p and 0 <= gy < q):
                continue
            mem.data[gx, gy] = (g[b] * values[b]
                                + (1.0 - g[b]) * mem.data[gx, gy])

    @pytest.mark.parametrize("bounded", [True, False])
    def test_write_matches_sequential_reference(self, bounded):
        """Vectorised scatter is bit-identical to the per-sample loop,
        including batches where many samples hit the same grid cell."""
        rng = np.random.default_rng(17)
        fast = SpatialMemory((4, 4), 3, bandwidth=1, bounded=bounded)
        fast.data[:] = rng.normal(size=fast.data.shape)
        slow = fast.copy()
        for _ in range(5):
            # 12 samples on a 4x4 grid (with out-of-bounds rows): heavy
            # duplication is guaranteed.
            cells = rng.integers(-1, 5, size=(12, 2))
            values = rng.normal(scale=3.0, size=(12, 3))
            gates = rng.normal(scale=2.0, size=(12, 3))
            mask = rng.random(12) > 0.2
            fast.write(cells, values, gates, mask=mask)
            self._reference_write(slow, cells, values, gates, mask=mask)
            np.testing.assert_array_equal(fast.data, slow.data)

    def test_write_duplicate_cells_follow_batch_order(self):
        """Three writers to one cell chain exactly like sequential blends."""
        fast = SpatialMemory((3, 3), 2, bandwidth=0, bounded=False)
        fast.data[1, 1] = [1.0, -1.0]
        slow = fast.copy()
        cells = np.array([[1, 1], [0, 2], [1, 1], [1, 1]])
        values = np.array([[2.0, 2.0], [9.0, 9.0], [4.0, 4.0], [8.0, 8.0]])
        gates = np.array([[0.5, 0.5], [1.0, 1.0], [-0.5, 0.3], [0.1, -2.0]])
        fast.write(cells, values, gates)
        self._reference_write(slow, cells, values, gates)
        np.testing.assert_array_equal(fast.data, slow.data)

    def test_reset_and_copy(self):
        mem = SpatialMemory((3, 3), 2, bandwidth=1)
        mem.data[0, 0] = 1.0
        clone = mem.copy()
        mem.reset()
        assert mem.occupancy() == 0.0
        assert clone.occupancy() > 0.0

    def test_occupancy_fraction(self):
        mem = SpatialMemory((2, 2), 2, bandwidth=0)
        mem.data[0, 0] = 1.0
        assert mem.occupancy() == pytest.approx(0.25)


class TestGateBias:
    def test_spatial_gate_bias_negative(self, rng):
        from repro.nn.sam import SPATIAL_GATE_BIAS
        cell = SAMLSTMCell(2, 4, rng)
        d = 4
        np.testing.assert_allclose(cell.b_gates.data[2 * d:3 * d],
                                   SPATIAL_GATE_BIAS)
        # forget gate still at +1, others 0.
        np.testing.assert_allclose(cell.b_gates.data[:d], 1.0)
        np.testing.assert_allclose(cell.b_gates.data[3 * d:], 0.0)


class TestSAMLSTM:
    def test_output_shape(self, rng):
        sam = SAMLSTM(2, 6, rng)
        mem = SpatialMemory((8, 8), 6, bandwidth=2)
        coords = rng.normal(size=(3, 5, 2))
        cells = rng.integers(0, 8, size=(3, 5, 2))
        mask = np.ones((3, 5), dtype=bool)
        out = sam(coords, mask, cells, mem)
        assert out.shape == (3, 6)

    def test_readonly_forward_leaves_memory(self, rng):
        sam = SAMLSTM(2, 6, rng)
        mem = SpatialMemory((8, 8), 6, bandwidth=1)
        coords = rng.normal(size=(2, 4, 2))
        cells = rng.integers(0, 8, size=(2, 4, 2))
        mask = np.ones((2, 4), dtype=bool)
        sam(coords, mask, cells, mem, update_memory=False)
        assert mem.occupancy() == 0.0

    def test_training_forward_writes_memory(self, rng):
        sam = SAMLSTM(2, 6, rng)
        mem = SpatialMemory((8, 8), 6, bandwidth=1)
        coords = rng.normal(size=(2, 4, 2))
        cells = rng.integers(0, 8, size=(2, 4, 2))
        mask = np.ones((2, 4), dtype=bool)
        sam(coords, mask, cells, mem, update_memory=True)
        assert mem.occupancy() > 0.0

    def test_empty_memory_matches_zero_window(self, rng):
        """With an all-zero memory, read gives tanh(W_his [c_hat; 0])."""
        cell = SAMLSTMCell(2, 4, rng)
        mem = SpatialMemory((6, 6), 4, bandwidth=1)
        c_hat = Tensor(rng.normal(size=(2, 4)))
        out = cell.read(c_hat, np.array([[3, 3], [1, 1]]), mem)
        # mix is exactly zero -> output depends only on c_hat part.
        from repro.nn.tensor import concat
        expected = cell.read_proj(
            concat([c_hat, Tensor(np.zeros((2, 4)))], axis=-1)).tanh()
        np.testing.assert_allclose(out.data, expected.data)

    def test_memory_influences_encoding(self, rng):
        """Same trajectory encodes differently once memory holds history."""
        sam = SAMLSTM(2, 6, rng)
        coords = rng.normal(size=(1, 5, 2))
        cells = rng.integers(2, 5, size=(1, 5, 2))
        mask = np.ones((1, 5), dtype=bool)
        empty = SpatialMemory((8, 8), 6, bandwidth=2)
        before = sam(coords, mask, cells, empty).data.copy()
        warm = SpatialMemory((8, 8), 6, bandwidth=2)
        warm.data[:] = rng.normal(size=warm.data.shape)
        after = sam(coords, mask, cells, warm).data
        assert not np.allclose(before, after)

    def test_masked_steps_do_not_write(self, rng):
        sam = SAMLSTM(2, 6, rng)
        mem = SpatialMemory((8, 8), 6, bandwidth=0)
        coords = rng.normal(size=(1, 4, 2))
        cells = np.full((1, 4, 2), 7)  # all steps at cell (7,7)
        mask = lengths_to_mask(np.array([0]), 4)  # everything masked
        sam(coords, mask, cells, mem, update_memory=True)
        assert mem.occupancy() == 0.0

    def test_gradcheck_through_sam_unroll(self, rng):
        sam = SAMLSTM(2, 4, rng)
        mem = SpatialMemory((6, 6), 4, bandwidth=1)
        mem.data[:] = rng.normal(size=mem.data.shape) * 0.3
        coords = rng.normal(size=(2, 3, 2))
        cells = rng.integers(0, 6, size=(2, 3, 2))
        mask = np.ones((2, 3), dtype=bool)
        param = sam.cell.read_proj.weight
        base = param.data.copy()

        out = (sam(coords, mask, cells, mem) ** 2).sum()
        sam.zero_grad()
        out.backward()
        analytic = param.grad.copy()

        def evaluate(arr):
            param.data = arr
            return float((sam(coords, mask, cells, mem).data ** 2).sum())

        numeric = numerical_gradient(evaluate, base.copy())
        param.data = base
        err = (np.max(np.abs(analytic - numeric))
               / max(1.0, np.max(np.abs(numeric))))
        assert err < 1e-6

    def test_fused_matches_legacy_forward_and_memory(self):
        """Kernel and paper-equation reference agree on output and writes."""
        rng_data = np.random.default_rng(21)
        sam = SAMLSTM(2, 5, np.random.default_rng(3))
        coords = rng_data.normal(size=(3, 6, 2))
        cells = rng_data.integers(0, 6, size=(3, 6, 2))
        mask = lengths_to_mask(np.array([6, 4, 2]), 6)
        mem_f = SpatialMemory((6, 6), 5, bandwidth=1)
        mem_l = SpatialMemory((6, 6), 5, bandwidth=1)
        out_f = sam(coords, mask, cells, mem_f, update_memory=True)
        out_l = reference_unroll(sam, coords, mask, cells, mem_l,
                                 update_memory=True)
        assert mem_f.occupancy() > 0.0
        np.testing.assert_allclose(out_f.data, out_l.data, atol=1e-12)
        np.testing.assert_allclose(mem_f.data, mem_l.data, atol=1e-12)

    def test_fused_matches_legacy_gradients(self):
        rng_data = np.random.default_rng(22)
        coords = rng_data.normal(size=(2, 4, 2))
        cells = rng_data.integers(0, 6, size=(2, 4, 2))
        sam = SAMLSTM(2, 4, np.random.default_rng(5))
        mem = SpatialMemory((6, 6), 4, bandwidth=1)
        mem.data[:] = np.random.default_rng(6).normal(size=mem.data.shape)
        # The second mask is ragged: the folded-in carry is compared too.
        for mask in (np.ones((2, 4), dtype=bool),
                     lengths_to_mask(np.array([4, 2]), 4)):
            grads = []
            for unroll in (sam, lambda *args: reference_unroll(sam, *args)):
                loss = (unroll(coords, mask, cells, mem) ** 2).sum()
                sam.zero_grad()
                loss.backward()
                grads.append({name: p.grad.copy()
                              for name, p in sam.named_parameters()})
            for name in grads[0]:
                np.testing.assert_allclose(grads[0][name], grads[1][name],
                                           atol=1e-12, err_msg=name)

    def test_bandwidth_zero_reads_single_cell(self, rng):
        cell = SAMLSTMCell(2, 4, rng)
        mem = SpatialMemory((6, 6), 4, bandwidth=0)
        mem.data[3, 3] = [1.0, 2.0, 3.0, 4.0]
        c_hat = Tensor(np.zeros((1, 4)))
        out = cell.read(c_hat, np.array([[3, 3]]), mem)
        # Attention over a single cell is a no-op mix of that cell.
        from repro.nn.tensor import concat
        expected = cell.read_proj(
            concat([c_hat, Tensor(mem.data[3, 3][None, :])], axis=-1)).tanh()
        np.testing.assert_allclose(out.data, expected.data)

    def test_infer_hoists_window_indices_in_bounded_blocks(self, monkeypatch):
        """The read-only inference fold works the window indices out for a
        block of steps at a time, and a block stays small however much is
        read."""
        rng = np.random.default_rng(31)
        batch, steps, d = 128, 120, 32
        sam = SAMLSTM(2, d, rng)
        mem = SpatialMemory((40, 40), d, bandwidth=2)
        mem.data[:] = rng.normal(scale=0.3, size=mem.data.shape)
        coords = rng.normal(size=(batch, steps, 2))
        cells = rng.integers(0, 40, size=(batch, steps, 2))
        lengths = rng.integers(1, steps + 1, size=batch)
        lengths[0] = steps
        zeros = np.zeros((batch, d))

        index_bytes, gathered = [], []
        real_index, real_take = SpatialMemory.window_index, SpatialMemory.take

        def window_index(self, block):
            arrays = real_index(self, block)
            index_bytes.append(max(a.nbytes for a in arrays))
            return arrays

        def take(self, flat, outside):
            window = real_take(self, flat, outside)
            gathered.append(window.nbytes)
            return window

        monkeypatch.setattr(SpatialMemory, "window_index", window_index)
        monkeypatch.setattr(SpatialMemory, "take", take)
        out, _ = sam.fold(zeros, zeros, coords, lengths, cells, mem)

        assert len(gathered) == steps and sum(gathered) > 20 * 2**20
        assert 1 < len(index_bytes) < steps  # hoisted, in more than one block
        assert max(index_bytes) <= 256 * 2**10
        monkeypatch.undo()
        ref, _ = sam.fold(zeros, zeros, coords, lengths, cells, mem)
        assert np.array_equal(out, ref)
