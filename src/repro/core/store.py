"""Embedding store: an incremental similarity-search database.

The deployment pattern from §VI-A: embed every database trajectory once,
then answer ad-hoc queries in O(L + search). The store owns the
embedding table, supports incremental inserts (new trajectories only pay
their own O(L) encoding) and persists to ``.npz`` alongside the model.

*How* a query searches the table is a pluggable
:class:`~repro.core.backends.SearchBackend`: the default
:class:`~repro.core.backends.ExactBackend` is the brute-force O(N·d)
scan (bit-identical to the historical behaviour); ``"ivf"`` switches to
the sub-linear :class:`~repro.index.ann.IVFIndex` ANN path for large
databases. Backends are kept consistent by the store's mutation hooks.

Layout (DESIGN.md, "The embedding store's layout"): rows sit in
insertion order in buffers with spare capacity; an append writes into
the spare and a remove leaves a hole, so a mutation costs its own rows,
not the table's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.trajectory import Trajectory
from ..exceptions import CorruptArtifactError, NotFittedError
from .atomicio import atomic_savez, read_npz
from .backends import SearchBackend, make_backend
from .model import MetricModel

PathLike = Union[str, Path]

_HOLE = -1  # slot of a removed row (ids are non-negative)


class EmbeddingStore:
    """Searchable collection of trajectory embeddings.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.MetricModel`; its encoder maps
        every inserted trajectory to the store's embedding space. May be
        ``None`` for a *search-only* store (shard workers and benchmarks
        that deal in raw embeddings): trajectory-level entry points then
        raise :class:`~repro.exceptions.NotFittedError`, but
        :meth:`add_embeddings`, :meth:`remove`, :meth:`query_embedding`
        and persistence all work. A model-less store needs ``dim``.
    dim:
        Embedding dimensionality; required iff ``model`` is ``None``.
    backend:
        Search strategy: ``"exact"`` (default), ``"ivf"``, or a
        :class:`~repro.core.backends.SearchBackend` instance (e.g. an
        :class:`~repro.core.backends.IVFBackend` wrapping a
        memory-mapped index loaded from disk).
    backend_options:
        Keyword options forwarded to
        :func:`~repro.core.backends.make_backend` for by-name backends
        (for ``"ivf"``: ``nlist``, ``nprobe``, ``seed``).
    """

    def __init__(self, model: Optional[MetricModel],
                 backend: Union[str, SearchBackend, None] = "exact",
                 dim: Optional[int] = None,
                 **backend_options):
        if model is not None:
            model._require_fitted()
            model_dim = model.config.embedding_dim
            if dim is not None and int(dim) != model_dim:
                raise ValueError(
                    f"dim={dim} conflicts with the model's embedding_dim "
                    f"{model_dim}")
            dim = model_dim
        elif dim is None:
            raise ValueError("a model-less store needs an explicit dim")
        elif not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.model = model
        dim = int(dim)
        self._table = np.zeros((0, dim))
        self._slots = np.zeros(0, dtype=np.int64)
        self._used = 0  # buffer rows in use, holes included
        self._live = 0
        self._next_id = 0
        self._reindex()
        self._backend = make_backend(backend, **backend_options)
        self._backend.bind(self)

    def __len__(self) -> int:
        return self._live

    # ---------------------------------------------------------------- layout

    def _pack(self, spare: int = 0) -> None:
        """Move the live rows, order kept, into fresh buffers with room
        for ``spare`` more plus an eighth (not doubling: at the moment of
        growth both copies are resident). The old buffers are never
        written again, so views handed out earlier stay valid."""
        rows = np.flatnonzero(self._slots[:self._used] != _HOLE)
        need = rows.size + spare
        capacity = need + max(need >> 3, 16)
        table = np.empty((capacity, self._table.shape[1]),
                         dtype=self._table.dtype)
        slots = np.full(capacity, _HOLE, dtype=np.int64)
        # mode="clip" writes straight into ``out`` (the default buffers it).
        np.take(self._table, rows, axis=0, out=table[:rows.size], mode="clip")
        np.take(self._slots, rows, out=slots[:rows.size], mode="clip")
        self._table, self._slots, self._used = table, slots, rows.size
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the id -> row index: two sorted arrays (16 bytes a
        row; a dict entry is ~150) over the rows live now. Rows appended
        later wait in the small ``_recent`` dict; a removed row keeps a
        stale entry, which is why :meth:`_find` checks the slot."""
        rows = np.flatnonzero(self._slots[:self._used] != _HOLE)
        rows = rows[np.argsort(self._slots[rows], kind="stable")]
        self._index_ids, self._index_rows = self._slots[rows], rows
        self._recent: Dict[int, int] = {}

    def _find(self, probe: np.ndarray) -> np.ndarray:
        """Buffer row of each probed id, -1 where it is not in the store."""
        rows = np.full(probe.shape, -1, dtype=np.int64)
        if self._index_ids.size:
            at = np.minimum(np.searchsorted(self._index_ids, probe),
                            self._index_ids.size - 1)
            found = self._index_rows[at]
            hit = (self._slots[found] == probe) & (probe >= 0)
            rows[hit] = found[hit]
        if self._recent:
            for j, row_id in enumerate(probe.tolist()):
                rows[j] = self._recent.get(row_id, rows[j])
        return rows

    @property
    def _embeddings(self) -> np.ndarray:
        """Dense (N, d) table in insertion order (packs any holes out)."""
        if self._used != self._live:
            self._pack()
        return self._table[:self._used]

    @property
    def _ids(self) -> np.ndarray:
        """Dense (N,) int64 ids, parallel to :attr:`_embeddings`."""
        if self._used != self._live:
            self._pack()
        return self._slots[:self._used]

    @property
    def embeddings(self) -> np.ndarray:
        """(N, d) embedding table (read-only view)."""
        view = self._embeddings.view()
        view.setflags(write=False)
        return view

    @property
    def ids(self) -> List[int]:
        return self._ids.tolist()

    @property
    def next_id(self) -> int:
        """The id the next inserted trajectory will receive."""
        return self._next_id

    def contains(self, ids: Sequence[int]) -> np.ndarray:
        """Boolean mask of which ``ids`` are currently in the store.

        The shard workers use this to make inserts idempotent: a retried
        (or WAL-replayed) batch is filtered down to the ids not already
        present instead of tripping :meth:`add_embeddings`'s duplicate
        check.
        """
        return self._find(np.asarray(list(ids), dtype=np.int64)) >= 0

    # -------------------------------------------------------------- backends

    @property
    def backend(self) -> SearchBackend:
        """The active search backend."""
        return self._backend

    def use_backend(self, backend: Union[str, SearchBackend],
                    **backend_options) -> SearchBackend:
        """Switch search strategy (rebuilding backend state as needed).

        Returns the installed backend. The embedding table itself is
        untouched — only the search path changes, so answers from
        ``"exact"`` remain the ground truth an ANN backend approximates.
        """
        new = make_backend(backend, **backend_options)
        new.bind(self)
        self._backend = new
        return new

    def search_stats(self) -> Dict:
        """The backend's cumulative counters (kind, queries, scanned...)."""
        return self._backend.stats()

    # -------------------------------------------------------------- mutation

    def _require_model(self) -> MetricModel:
        """Fetch the encoder, or explain that this store is search-only."""
        if self.model is None:
            raise NotFittedError(
                "this store has no model (search-only); use "
                "add_embeddings/query_embedding with precomputed vectors")
        return self.model

    def add(self, trajectories: Sequence[Trajectory]) -> List[int]:
        """Embed and insert trajectories; returns their assigned ids."""
        items = list(trajectories)
        if not items:
            return []
        new = self._require_model().embed(items)
        return self.add_embeddings(new)

    def _validate(self, embeddings, ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)`` of an insert, or ``ValueError`` — raised here,
        before anything has changed."""
        new = np.asarray(embeddings, dtype=self._table.dtype)
        dim = self._table.shape[1]
        if new.ndim != 2 or new.shape[1] != dim:
            raise ValueError(
                f"expected embeddings of shape (n, {dim}), got {new.shape}")
        if ids is None:
            return new, np.arange(self._next_id,
                                  self._next_id + new.shape[0],
                                  dtype=np.int64)
        assigned = np.asarray(list(ids), dtype=np.int64)
        if assigned.shape != (new.shape[0],):
            raise ValueError(
                f"expected {new.shape[0]} ids, got shape {assigned.shape}")
        if assigned.size and assigned.min() < 0:
            raise ValueError("ids must be non-negative")
        if assigned.size > 1 and np.unique(assigned).size != assigned.size:
            raise ValueError("duplicate ids in one insert")
        return new, assigned

    def _append(self, new: np.ndarray, assigned: np.ndarray) -> List[int]:
        """Write validated rows into the spare capacity."""
        count = new.shape[0]
        if count == 0:
            return []
        if self._used + count > self._slots.shape[0]:
            self._pack(spare=count)
        start, self._used = self._used, self._used + count
        self._table[start:self._used] = new
        self._slots[start:self._used] = assigned
        self._live += count
        self._next_id = max(self._next_id, int(assigned.max()) + 1)
        if len(self._recent) + count > max(self._used >> 3, 64):
            self._reindex()
        else:
            self._recent.update(zip(assigned.tolist(),
                                    range(start, self._used)))
        self._backend.on_add(assigned, new)
        return assigned.tolist()

    def _drop(self, rows: np.ndarray) -> int:
        """Turn (distinct) buffer rows into holes; returns how many."""
        if rows.size:
            dropped = self._slots[rows]
            self._slots[rows] = _HOLE
            for row_id in dropped.tolist():
                self._recent.pop(row_id, None)
            self._live -= rows.size
            self._backend.on_remove(dropped)
        return int(rows.size)

    def add_embeddings(self, embeddings: np.ndarray,
                       ids: Optional[Sequence[int]] = None) -> List[int]:
        """Insert precomputed embedding rows; returns their ids.

        With ``ids=None`` the store assigns consecutive ids from
        ``next_id`` (exactly what :meth:`add` does after embedding).
        Explicit ``ids`` let a coordinator keep one global id space
        across shard-local stores; they must be unique, non-negative and
        not already present, and ``next_id`` advances past the largest
        so later auto-assigned ids never collide.
        """
        new, assigned = self._validate(embeddings, ids)
        if ids is not None and (self._find(assigned) >= 0).any():
            raise ValueError("some ids are already in the store")
        return self._append(new, assigned)

    def upsert_embeddings(self, embeddings: np.ndarray,
                          ids: Sequence[int]) -> List[int]:
        """Insert-or-replace embedding rows at explicit ids.

        Rows whose id is already present are replaced (dropped, then
        appended, so both mutations flow through the backend hooks and
        an ANN backend stays consistent) and move last in insertion
        order; new ids are plain inserts. Everything is validated before
        any row is dropped, so a rejected call changes nothing. The
        streaming tier uses this to refresh a growing segment's embedding.
        """
        new, assigned = self._validate(embeddings, list(ids))
        present = self._find(assigned)
        self._drop(present[present >= 0])
        return self._append(new, assigned)

    def remove(self, ids: Sequence[int]) -> int:
        """Remove entries by id; returns how many were removed."""
        rows = self._find(np.asarray(list(ids), dtype=np.int64))
        return self._drop(np.unique(rows[rows >= 0]))

    # ----------------------------------------------------------------- search

    def query(self, trajectory: Trajectory, k: int = 10
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k (ids, embedding distances) for a query trajectory."""
        query_emb = self._require_model().embed([trajectory])[0]
        return self.query_embedding(query_emb, k)

    def top_k(self, trajectory: Trajectory, k: int = 10
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Alias for :meth:`query` (matches :meth:`MetricModel.top_k`)."""
        return self.query(trajectory, k)

    def query_embedding(self, embedding: np.ndarray, k: int = 10
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k (ids, distances) for an already-computed query embedding.

        The serving layer uses this to search with embeddings produced by
        its micro-batched encoder instead of re-encoding per query.
        """
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValueError(f"k must be an integer, got {type(k).__name__}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(self) == 0:
            raise NotFittedError("the store is empty")
        embedding = np.asarray(embedding, dtype=self._table.dtype)
        if embedding.shape != (self._table.shape[1],):
            raise ValueError(
                f"expected embedding of shape ({self._table.shape[1]},), "
                f"got {embedding.shape}")
        return self._backend.search(embedding, int(k))

    def query_radius(self, trajectory: Trajectory, radius: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """All (ids, distances) within an embedding-distance radius.

        Exact under the default backend; under an ANN backend the scan
        covers only the probed cells (see
        :meth:`repro.index.ann.IVFIndex.search_radius`).
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if len(self) == 0:
            return np.array([], dtype=np.int64), np.array([])
        query_emb = self._require_model().embed([trajectory])[0]
        query_emb = np.asarray(query_emb, dtype=self._table.dtype)
        return self._backend.search_radius(query_emb, radius)

    # ----------------------------------------------------------- persistence

    def save(self, path: PathLike) -> None:
        """Persist the embedding table (not the model) to ``.npz``.

        The file lands at exactly ``path`` (``np.savez``'s implicit
        ``.npz``-appending is undone), via a temporary file and an atomic
        rename so a crashed writer never leaves a torn store behind.
        The search backend is not part of the payload — an IVF index has
        its own on-disk form (:meth:`repro.index.ann.IVFIndex.save`).
        """
        atomic_savez(path, compressed=True,
                     embeddings=self._embeddings, ids=self._ids,
                     next_id=np.array(self._next_id))

    @classmethod
    def load(cls, path: PathLike, model: Optional[MetricModel],
             backend: Union[str, SearchBackend, None] = "exact",
             **backend_options) -> "EmbeddingStore":
        """Restore a store saved by :meth:`save` (model supplied separately).

        The id state round-trips exactly: inserts after a load continue
        from the persisted ``next_id`` and can never reuse a live id, even
        for legacy files written before ``next_id`` was stored (the
        counter is floored at ``max(ids) + 1``). ``backend`` picks the
        search strategy for the loaded table (built after the rows are
        in place, so an ``"ivf"`` load trains on the full table once).
        ``model=None`` restores a search-only store whose dimensionality
        comes from the file itself.
        """
        data = read_npz(path)
        try:
            embeddings = data.pop("embeddings")
            ids = np.asarray(data.pop("ids"), dtype=np.int64)
        except KeyError as exc:
            raise CorruptArtifactError(
                f"{path} is not an embedding store: no {exc}") from exc
        saved_next = int(data["next_id"]) if "next_id" in data else 0
        if embeddings.ndim != 2:
            raise ValueError(
                f"expected a 2-D embedding table, got shape "
                f"{embeddings.shape}")
        if model is not None and \
                embeddings.shape[1] != model.config.embedding_dim:
            raise ValueError("store dimensionality does not match the model")
        if ids.shape[0] != embeddings.shape[0]:
            raise ValueError(
                f"id/embedding count mismatch: {ids.shape[0]} ids for "
                f"{embeddings.shape[0]} rows")
        if np.unique(ids).size != ids.size:
            raise ValueError("store contains duplicate ids")
        if ids.size and ids.min() < 0:
            raise ValueError("store contains negative ids")
        store = cls(model, dim=int(embeddings.shape[1]))
        # Packed now, the first insert after a load copies no table.
        store._table, store._slots = embeddings, ids
        store._used = store._live = int(ids.shape[0])
        store._pack()
        store._next_id = max(saved_next,
                             int(ids.max()) + 1 if ids.size else 0)
        del embeddings, ids  # or the file's copy outlives the index build
        store.use_backend(backend, **backend_options)
        return store
