"""The EmbeddingStore against a dict model, under random schedules.

The model is the obvious one: an insertion-ordered ``{id: row}`` where a
replaced row moves last. After every step the store must show exactly
the model's ids, in its order, over bit-equal rows, whatever the store's
buffers, holes and id index look like underneath — and the IVF index
behind it must hold exactly the same live ids. This is the first slice
of ROADMAP item 5(a)'s reference model.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.store import EmbeddingStore

DIM = 3
# Small ids collide often (replace / duplicate / already-present paths);
# the far ones make the id range sparse.
ID = st.one_of(st.integers(0, 30), st.integers(10 ** 9, 10 ** 9 + 3))
IDS = st.lists(ID, min_size=1, max_size=5)
SEED = st.integers(0, 2 ** 16)


def rows_for(seed, count):
    """Rows on a coarse integer grid, so equal distances are common and
    the ``(distance, id)`` tie-break is exercised."""
    return np.random.default_rng(seed).integers(
        -2, 3, size=(count, DIM)).astype(np.float64)


class StoreMachine(RuleBasedStateMachine):
    options = {"backend": "exact"}

    def __init__(self):
        super().__init__()
        self.store = EmbeddingStore(None, dim=DIM, **self.options)
        self.model = {}
        self.seen = set()       # every id the store ever held
        self.next_id = 0

    # ------------------------------------------------------------- helpers

    def _insert(self, ids, rows):
        for row_id, row in zip(ids, rows):
            self.model.pop(row_id, None)
            self.model[row_id] = row
        self.seen.update(ids)
        self.next_id = max(self.next_id, max(ids) + 1)

    def _expect_unchanged(self, call, *args, **kwargs):
        before = (self.store.ids, self.store.embeddings.tobytes(),
                  self.store.next_id)
        with pytest.raises(ValueError):
            call(*args, **kwargs)
        assert before == (self.store.ids, self.store.embeddings.tobytes(),
                          self.store.next_id)

    # --------------------------------------------------------------- rules

    @rule(seed=SEED, count=st.one_of(st.integers(0, 6), st.just(70)))
    def add_auto(self, seed, count):
        rows = rows_for(seed, count)
        ids = self.store.add_embeddings(rows)
        assert ids == list(range(self.next_id, self.next_id + count))
        assert not self.seen.intersection(ids)   # an id is never reused
        if ids:
            self._insert(ids, rows)

    @rule(seed=SEED, ids=IDS)
    def add_explicit(self, seed, ids):
        rows = rows_for(seed, len(ids))
        if len(set(ids)) < len(ids) or self.model.keys() & set(ids):
            self._expect_unchanged(self.store.add_embeddings, rows, ids=ids)
        else:
            assert self.store.add_embeddings(rows, ids=ids) == ids
            self._insert(ids, rows)

    @rule(seed=SEED, ids=IDS)
    def upsert(self, seed, ids):
        rows = rows_for(seed, len(ids))
        if len(set(ids)) < len(ids):
            self._expect_unchanged(self.store.upsert_embeddings, rows, ids)
        else:
            assert self.store.upsert_embeddings(rows, ids) == ids
            self._insert(ids, rows)

    @rule(ids=IDS, data=st.data())
    def remove(self, ids, data):
        if self.model:   # mix ids that are there with ids that may not be
            ids = ids + data.draw(st.lists(
                st.sampled_from(sorted(self.model)), max_size=4))
        hit = set(ids) & self.model.keys()
        assert self.store.remove(ids) == len(hit)
        for row_id in hit:
            del self.model[row_id]

    @rule(ids=st.lists(st.one_of(ID, st.just(-1)), max_size=6))
    def contains(self, ids):
        assert self.store.contains(ids).tolist() == [
            row_id in self.model for row_id in ids]

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "store.npz"
            self.store.save(path)
            self.store = EmbeddingStore.load(path, None, **self.options)

    @precondition(lambda self: self.model)
    @rule(seed=SEED, k=st.integers(1, 12))
    def query(self, seed, k):
        query = rows_for(seed, 1)[0]
        ids, distances = self.store.query_embedding(query, k)
        self.check_answer(query, k, ids, distances)

    def check_answer(self, query, k, ids, distances):
        """Exact: brute-force ``(distance, id)`` order, bit for bit."""
        table = np.array(list(self.model.values()))
        diffs = table - query[None, :]
        exact = np.sqrt((diffs * diffs).sum(axis=1))
        best = sorted(zip(exact.tolist(), self.model))[:k]
        assert list(zip(distances.tolist(), ids.tolist())) == best

    # ---------------------------------------------------------- invariants

    @invariant()
    def store_shows_the_model(self):
        assert len(self.store) == len(self.model)
        assert self.store.ids == list(self.model)
        expected = np.array(list(self.model.values())).reshape(-1, DIM)
        assert self.store.embeddings.tobytes() == expected.tobytes()
        assert self.store.next_id == self.next_id


class IVFStoreMachine(StoreMachine):
    # Every cell probed: the index answers over exactly its live rows,
    # so a row it lost or kept by mistake shows.
    options = {"backend": "ivf", "nlist": 3, "nprobe": 3}

    @rule()
    def compact(self):
        self.store.backend.compact()

    def check_answer(self, query, k, ids, distances):
        """IVF distances are float32: same ids up to ties at the cut."""
        assert len(ids) == min(k, len(self.model))
        assert set(ids.tolist()) <= self.model.keys()
        table = np.array(list(self.model.values()), dtype=np.float32)
        diffs = table - query.astype(np.float32)[None, :]
        exact = np.sort(np.sqrt((diffs * diffs).sum(axis=1)
                                .astype(np.float64)))[:k]
        assert distances.tolist() == exact.tolist()

    @invariant()
    def index_holds_the_same_live_ids(self):
        index = self.store.backend.index
        assert index.live_count == len(self.model)
        assert sorted(index._materialise_live()[0].tolist()) \
            == sorted(self.model)


SETTINGS = settings(max_examples=30, stateful_step_count=30, deadline=None)
TestStoreModelExact = StoreMachine.TestCase
TestStoreModelExact.settings = SETTINGS
TestStoreModelIVF = IVFStoreMachine.TestCase
TestStoreModelIVF.settings = SETTINGS
