"""Pluggable search backends for the :class:`EmbeddingStore`.

The store's public API (``query_embedding``/``top_k``/``query_radius``)
is fixed; *how* a query finds its neighbours is a backend decision:

* :class:`ExactBackend` — the brute-force O(N·d) scan, bit-identical to
  the store's historical behaviour. Always correct, fine up to ~10^5
  rows.
* :class:`IVFBackend` — the :class:`~repro.index.ann.IVFIndex` ANN
  path: scans the float32 rows of ``nprobe`` of ``nlist`` k-means
  cells exactly, trading a little recall (rows in unprobed cells) for a
  large constant-factor drop in scanned rows. Can wrap a memory-mapped index
  loaded from disk so restarts skip the build.

A backend is bound to one store (:meth:`SearchBackend.bind`) and kept
consistent by the store's mutation hooks (``on_add``/``on_remove``).
``stats()`` exposes cumulative counters — notably
``candidates_scanned`` — that the serving layer turns into per-query
/metrics samples.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..index.ann import IVFConfig, IVFIndex, top_k_order

__all__ = ["SearchBackend", "ExactBackend", "IVFBackend", "make_backend"]


class SearchBackend:
    """Interface the :class:`EmbeddingStore` drives its searches through."""

    name = "base"

    def __init__(self) -> None:
        self._store = None

    def bind(self, store) -> None:
        """Attach to a store and build/refresh internal state from it."""
        self._store = store
        self.rebuild()

    def rebuild(self) -> None:
        """Rebuild internal state from the bound store's current rows."""
        raise NotImplementedError

    def on_add(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Store hook: rows were appended (ids parallel to vectors)."""
        raise NotImplementedError

    def on_remove(self, ids: np.ndarray) -> None:
        """Store hook: rows with these ids were removed."""
        raise NotImplementedError

    def search(self, query: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k ``(ids, distances)`` for one query vector."""
        raise NotImplementedError

    def search_radius(self, query: np.ndarray, radius: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(ids, distances)`` within ``radius``."""
        raise NotImplementedError

    def stats(self) -> Dict:
        """JSON-friendly counters; must include ``kind``, ``queries``
        and ``candidates_scanned``."""
        raise NotImplementedError


class ExactBackend(SearchBackend):
    """Brute-force scan over the store's own float64 table.

    Reads the bound store's arrays directly (no copies), so the only
    state of its own is the search counters. Results are bit-identical
    to the pre-backend ``EmbeddingStore`` implementation.
    """

    name = "exact"

    def __init__(self) -> None:
        super().__init__()
        self._queries = 0
        self._scanned = 0

    def rebuild(self) -> None:
        pass  # stateless: reads the store's arrays per query

    def on_add(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        pass

    def on_remove(self, ids: np.ndarray) -> None:
        pass

    def _distances(self, query: np.ndarray) -> np.ndarray:
        table = self._store._embeddings
        diffs = table - query[None, :]
        return np.sqrt((diffs * diffs).sum(axis=1))

    def search(self, query: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        distances = self._distances(query)
        self._queries += 1
        self._scanned += int(distances.shape[0])
        ids = self._store._ids
        order = top_k_order(distances, ids, k)
        return ids[order], distances[order]

    def search_radius(self, query: np.ndarray, radius: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
        distances = self._distances(query)
        self._queries += 1
        self._scanned += int(distances.shape[0])
        ids = self._store._ids
        hit = np.flatnonzero(distances <= radius)
        order = hit[np.lexsort((ids[hit], distances[hit]))]
        return ids[order], distances[order]

    def stats(self) -> Dict:
        return {"kind": self.name, "queries": self._queries,
                "candidates_scanned": self._scanned}


class IVFBackend(SearchBackend):
    """ANN search through an :class:`~repro.index.ann.IVFIndex`.

    Parameters
    ----------
    config:
        Build/search parameters for a fresh index (ignored when an
        ``index`` is supplied).
    index:
        A prebuilt (e.g. memory-mapped) index. ``bind`` verifies its id
        set matches the store's and keeps it; on mismatch it rebuilds
        from the store instead of serving wrong rows.
    """

    name = "ivf"

    def __init__(self, config: Optional[IVFConfig] = None,
                 index: Optional[IVFIndex] = None):
        super().__init__()
        self.config = (index.config if index is not None
                       else (config or IVFConfig()))
        self.index: Optional[IVFIndex] = index

    def bind(self, store) -> None:
        self._store = store
        if self.index is not None:
            live = self.index.live_count
            same_size = live == len(store._ids)
            if same_size and live:
                mine, _, _ = self.index._materialise_live()
                same_size = bool(np.array_equal(np.sort(mine),
                                                np.sort(store._ids)))
            if same_size:
                return  # the supplied index already covers the store
        self.rebuild()

    def rebuild(self) -> None:
        self.index = IVFIndex.build(
            self._store._ids,
            np.ascontiguousarray(self._store._embeddings, dtype=np.float32),
            self.config)

    def on_add(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        if self.index is None or not self.index.is_trained:
            self.rebuild()
            return
        self.index.add(ids, np.ascontiguousarray(vectors, dtype=np.float32))

    def on_remove(self, ids: np.ndarray) -> None:
        if self.index is not None:
            self.index.remove([int(i) for i in ids])

    def search(self, query: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        return self.index.search(
            np.ascontiguousarray(query, dtype=np.float32), k)

    def search_radius(self, query: np.ndarray, radius: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
        return self.index.search_radius(
            np.ascontiguousarray(query, dtype=np.float32), radius)

    def compact(self) -> None:
        """Fold pending inserts/deletes into the contiguous layout."""
        if self.index is not None:
            self.index.compact()

    def maybe_compact(self, max_pending_fraction: float = 0.25) -> bool:
        """Compact once pending mutations outgrow the fraction threshold.

        Continuous insert/evict churn (the streaming window) otherwise
        accumulates tombstones and tail rows indefinitely; returns True
        when a compaction ran.
        """
        if self.index is None:
            return False
        stats = self.index.stats()
        live = max(int(stats.get("live", 0)), 1)
        pending = (int(stats.get("pending", 0))
                   + int(stats.get("tombstones", 0)))
        if pending <= max_pending_fraction * live:
            return False
        self.index.compact()
        return True

    def stats(self) -> Dict:
        if self.index is None:
            return {"kind": self.name, "queries": 0,
                    "candidates_scanned": 0}
        return self.index.stats()


def make_backend(backend: Union[str, SearchBackend, None],
                 **options) -> SearchBackend:
    """Resolve a backend spec: an instance, ``"exact"``, or ``"ivf"``.

    Keyword options for ``"ivf"`` are :class:`IVFConfig` fields
    (``nlist``, ``nprobe``, ``seed``).
    """
    if backend is None:
        backend = "exact"
    if isinstance(backend, SearchBackend):
        if options:
            raise ConfigurationError(
                "backend options only apply to by-name construction")
        return backend
    if backend == "exact":
        if options:
            raise ConfigurationError(
                f"exact backend takes no options, got {sorted(options)}")
        return ExactBackend()
    if backend == "ivf":
        try:
            return IVFBackend(IVFConfig(**options))
        except TypeError as exc:
            raise ConfigurationError(
                f"bad IVF backend options: {exc}") from exc
    raise ConfigurationError(
        f"unknown search backend {backend!r} (expected 'exact' or 'ivf')")
