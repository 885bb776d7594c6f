"""IVF approximate-nearest-neighbour index over embedding vectors.

The embedding store's exact search is an O(N·d) scan per query — fine at
thousands of trajectories, hopeless at millions. This module implements
the classic inverted-file (IVF) design from scratch:

* a **coarse quantizer** — seeded k-means over the stored embeddings
  partitions them into ``nlist`` cells; a query ranks the ``nlist``
  centroids (cheap) and scans only the ``nprobe`` nearest cells, so it
  touches roughly ``nprobe/nlist`` of the database;
* **one float32 scan** — a query's distances are the exact
  ``((v - q) ** 2).sum(axis=1)`` over the stored float32 rows of the
  probed cells, so within those cells the answer is the brute-force
  top-k, ties broken by id;
* a **memory-mapped on-disk layout** — one contiguous ``data.bin``
  (centroids, per-cell offsets, ids, vectors) described by a
  sha256-carrying ``MANIFEST.json``, so a million-embedding index opens
  lazily and survives restarts;
* **incremental maintenance** — inserts append to in-memory per-cell
  overflow lists, deletes tombstone ids, and :meth:`IVFIndex.compact`
  folds both back into the contiguous base arrays.

Determinism: k-means is seeded (``IVFConfig.seed``) and answers are
ordered by (distance, id), so the same build inputs always produce the
same index and the same answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.atomicio import (atomic_write_buffers, atomic_write_json,
                             check_file, file_entry, read_manifest)
from ..exceptions import ConfigurationError, CorruptArtifactError

PathLike = Union[str, Path]

__all__ = ["IVFConfig", "IVFIndex", "kmeans", "auto_nlist"]

MANIFEST_NAME = "MANIFEST.json"
DATA_NAME = "data.bin"
IVF_SCHEMA = "repro.ivf.v1"

#: Every array in ``data.bin`` starts at a multiple of this many bytes,
#: so its mmap view is aligned for every dtype the index stores.
_ALIGN = 8

#: Centroid assignment walks the rows in chunks of ``_ASSIGN_CHUNK`` and
#: scores each chunk in GEMMs of ``_GEMM_BLOCK`` rows; a tail shorter than
#: one block joins the block before it and no block crosses a chunk
#: boundary. A row's float32 scores depend on the GEMM's row count (a
#: product of a few rows rounds differently from one of many), and this
#: split keeps every row in the row-count class it had when each chunk
#: was one GEMM, so the assignments are that layout's bit for bit — at an
#: eighth of the (rows × nlist) scratch.
_ASSIGN_CHUNK = 16384
_GEMM_BLOCK = 2048

#: k-means trains on at most this many rows (a seeded sample; the
#: assignment still covers every row) for this many Lloyd iterations.
_TRAIN_SAMPLE = 65536
_KMEANS_ITERS = 10

#: Config keys that directories written before the index kept a single
#: float32 representation still carry, and that :meth:`IVFIndex.load`
#: ignores (as it ignores their ``codes`` / ``scales`` arrays).
_LEGACY_CONFIG_KEYS = ("quantize", "rerank", "train_sample", "kmeans_iters")


def auto_nlist(count: int) -> int:
    """Default cell count for a database of ``count`` vectors (~sqrt(N))."""
    if count <= 0:
        return 1
    return int(np.clip(round(np.sqrt(count)), 1, 4096))


@dataclass
class IVFConfig:
    """Build/search parameters of an :class:`IVFIndex`.

    Attributes
    ----------
    nlist:
        Number of k-means cells. 0 picks :func:`auto_nlist` at build
        time.
    nprobe:
        Cells scanned per query. Recall/latency dial: higher probes more
        of the database.
    seed:
        RNG seed for k-means init (all randomness flows through it).
    """

    nlist: int = 0
    nprobe: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nlist < 0:
            raise ConfigurationError("nlist must be >= 0 (0 = auto)")
        if self.nprobe < 1:
            raise ConfigurationError("nprobe must be >= 1")


def _gemm_blocks(count: int):
    """``(start, stop)`` of each assignment GEMM over ``count`` rows."""
    for chunk in range(0, count, _ASSIGN_CHUNK):
        stop = min(chunk + _ASSIGN_CHUNK, count)
        starts = list(range(chunk, stop, _GEMM_BLOCK))
        if len(starts) > 1 and stop - starts[-1] < _GEMM_BLOCK:
            starts.pop()
        yield from zip(starts, starts[1:] + [stop])


def _chunked_assign(vectors: np.ndarray, centroids: np.ndarray
                    ) -> np.ndarray:
    """Nearest-centroid id per vector, in bounded-memory GEMM blocks.

    Uses the ``|x|^2 + |c|^2 - 2 x·c`` expansion so the inner loop is one
    GEMM per block instead of a broadcasted (N, nlist, d) temporary. The
    ``-2`` rides on the centroid operand: scaling by a power of two is
    exact, so the scores are bit-equal to scaling the product.
    """
    cent_sq = (centroids * centroids).sum(axis=1)
    neg2_cent_t = (centroids * -2.0).T
    out = np.empty(vectors.shape[0], dtype=np.int64)
    for start, stop in _gemm_blocks(vectors.shape[0]):
        scores = vectors[start:stop] @ neg2_cent_t
        scores += cent_sq[None, :]
        # |x|^2 is constant per row — argmin does not need it.
        np.argmin(scores, axis=1, out=out[start:stop])
    return out


def _cell_sums(vectors: np.ndarray, assign: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell ``(row counts, float32 row sums)`` of an assignment.

    Each cell's rows are summed one after another in row order, starting
    from zero — the order an unbuffered scatter-add takes — so the sums
    are exact replays of it. A stable sort of the labels in the smallest
    unsigned type (a radix sort) groups every cell's rows.
    """
    labels = assign.astype(np.min_scalar_type(k - 1))
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=k)
    bounds = np.cumsum(counts)
    sums = np.zeros((k, vectors.shape[1]), dtype=np.float32)
    for cell in np.flatnonzero(counts):
        rows = order[bounds[cell] - counts[cell]:bounds[cell]]
        np.add.reduce(vectors[rows], axis=0, out=sums[cell], initial=0.0)
    return counts, sums


def kmeans(vectors: np.ndarray, k: int, rng: np.random.Generator,
           iters: int = _KMEANS_ITERS) -> np.ndarray:
    """Seeded Lloyd k-means; returns (k, d) float32 centroids.

    Initialisation samples ``k`` distinct rows; empty cells are reseeded
    from the data so every centroid stays live. Deterministic for a
    given generator state.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot run k-means on an empty vector set")
    k = min(k, n)
    centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        counts, sums = _cell_sums(
            vectors, _chunked_assign(vectors, centroids), k)
        live = counts > 0
        centroids[live] = sums[live] / counts[live, None]
        dead = np.flatnonzero(~live)
        if dead.size:
            centroids[dead] = vectors[rng.choice(n, size=dead.size,
                                                 replace=False)]
    return centroids


def _as_vectors(vectors: np.ndarray, dim: Optional[int] = None
                ) -> np.ndarray:
    out = np.ascontiguousarray(vectors, dtype=np.float32)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D vector table, got shape "
                         f"{out.shape}")
    if dim is not None and out.shape[1] != dim:
        raise ValueError(f"expected dimensionality {dim}, got "
                         f"{out.shape[1]}")
    return out


def top_k_order(keys: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``keys``, ordered by (key, id).

    Picks ``k`` rows by key, then widens to every row tied with the
    worst selected key so the lexsort breaks those ties by id: which
    tied row wins never depends on ``argpartition``'s internal order or
    on how the rows are laid out (a sharded store answers like a single
    one).
    """
    k = min(k, keys.shape[0])
    part = np.argpartition(keys, k - 1)[:k]
    candidates = np.flatnonzero(keys <= keys[part].max())
    return candidates[np.lexsort((ids[candidates],
                                  keys[candidates]))][:k]


class IVFIndex:
    """Inverted-file ANN index: k-means cells over float32 rows.

    Build one with :meth:`build`, reopen a saved one with :meth:`load`.
    ``search`` answers top-k exactly over the probed cells;
    ``add``/``remove`` maintain the index incrementally (per-cell append
    + tombstones) until :meth:`compact` or :meth:`save` folds the deltas
    back into the contiguous arrays.
    """

    def __init__(self, dim: int, config: Optional[IVFConfig] = None):
        if dim < 1:
            raise ConfigurationError("dim must be >= 1")
        self.dim = dim
        self.config = config or IVFConfig()
        self._centroids = np.zeros((0, dim), dtype=np.float32)
        # Contiguous base arrays: rows sorted by cell, bounds[c]:bounds[c+1]
        # is cell c's slice. May be np.memmap views after `load(mmap=True)`.
        self._bounds = np.zeros(1, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.int64)
        self._vectors = np.zeros((0, dim), dtype=np.float32)
        # Incremental state. Appends: cell -> {id: vector} in arrival
        # order, the cell of every pending id, and each cell's stacked
        # (ids, vectors) block, kept until that cell next changes.
        # Deletes: pending rows go outright; base rows are immutable
        # (possibly mmap), so ``_dead`` marks them row by row — a
        # re-added id is a new pending row and its base row stays dead.
        self._pending: Dict[int, Dict[int, np.ndarray]] = {}
        self._cell_of: Dict[int, int] = {}
        self._blocks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._dead = np.zeros(0, dtype=bool)
        self._tombstones = 0
        # Cumulative search work, read through :meth:`stats`.
        self._counters = {"queries": 0, "candidates_scanned": 0,
                          "cells_probed": 0}

    # -------------------------------------------------------------- properties

    @property
    def nlist(self) -> int:
        return self._centroids.shape[0]

    @property
    def ntotal(self) -> int:
        """Rows held (base + pending), including tombstoned ones."""
        return int(self._ids.shape[0]) + len(self._cell_of)

    @property
    def live_count(self) -> int:
        """Rows a search can return (``ntotal`` minus tombstones)."""
        return self.ntotal - self._tombstones

    @property
    def pending_count(self) -> int:
        return len(self._cell_of)

    @property
    def is_trained(self) -> bool:
        return self.nlist > 0

    def __len__(self) -> int:
        return self.live_count

    # ------------------------------------------------------------------- build

    @classmethod
    def build(cls, ids: np.ndarray, vectors: np.ndarray,
              config: Optional[IVFConfig] = None) -> "IVFIndex":
        """Train the quantizer on ``vectors`` and index every row."""
        config = config or IVFConfig()
        vectors = _as_vectors(vectors)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.shape != (vectors.shape[0],):
            raise ValueError(
                f"ids shape {ids.shape} does not match {vectors.shape[0]} "
                f"vectors")
        if np.unique(ids).size != ids.size:
            raise ValueError("index ids must be unique")
        index = cls(vectors.shape[1], config)
        if vectors.shape[0] == 0:
            return index
        rng = np.random.default_rng(config.seed)
        nlist = config.nlist or auto_nlist(vectors.shape[0])
        nlist = min(nlist, vectors.shape[0])
        sample = vectors
        if vectors.shape[0] > _TRAIN_SAMPLE:
            pick = rng.choice(vectors.shape[0], size=_TRAIN_SAMPLE,
                              replace=False)
            sample = vectors[np.sort(pick)]
        index._centroids = kmeans(sample, nlist, rng)
        index._install(ids, vectors,
                       _chunked_assign(vectors, index._centroids))
        return index

    def _install(self, ids: np.ndarray, vectors: np.ndarray,
                 assign: np.ndarray) -> None:
        """Lay out rows contiguously by cell."""
        order = np.argsort(assign, kind="stable")
        assign = assign[order]
        self._ids = np.ascontiguousarray(ids[order])
        self._vectors = np.ascontiguousarray(vectors[order])
        self._dead = np.zeros(self._ids.shape[0], dtype=bool)
        self._tombstones = 0
        counts = np.bincount(assign, minlength=self.nlist)
        self._bounds = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])

    # ------------------------------------------------------------------ search

    def _probe_order(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` nearest cell ids, nearest first."""
        diffs = self._centroids - query[None, :]
        cell_d = (diffs * diffs).sum(axis=1)
        nprobe = min(nprobe, self.nlist)
        probe = np.argpartition(cell_d, nprobe - 1)[:nprobe]
        return probe[np.argsort(cell_d[probe], kind="stable")]

    def _scan(self, query: np.ndarray, nprobe: int
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, float32 squared distances)`` of every live row in the
        ``nprobe`` nearest cells: base rows not tombstoned, then each
        cell's pending rows."""
        query = np.ascontiguousarray(query, dtype=np.float32)
        if query.shape != (self.dim,):
            raise ValueError(f"expected query of shape ({self.dim},), got "
                             f"{query.shape}")
        if not self.is_trained or self.live_count == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, np.float32)
        probe = self._probe_order(query, nprobe)
        ids: List[np.ndarray] = []
        sq: List[np.ndarray] = []
        for cell in probe.tolist():
            rows = slice(int(self._bounds[cell]),
                         int(self._bounds[cell + 1]))
            if self._tombstones and self._dead[rows].any():
                rows = rows.start + np.flatnonzero(~self._dead[rows])
            blocks = [(self._ids[rows], self._vectors[rows])]
            if cell in self._pending:
                blocks.append(self._pending_block(cell))
            for block_ids, vectors in blocks:
                diffs = vectors - query[None, :]
                ids.append(np.asarray(block_ids))
                sq.append((diffs * diffs).sum(axis=1))
        ids_all = np.concatenate(ids)
        self._counters["queries"] += 1
        self._counters["cells_probed"] += probe.size
        self._counters["candidates_scanned"] += ids_all.size
        return ids_all, np.concatenate(sq)

    def _pending_block(self, cell: int) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(ids, vectors)`` of one cell's pending rows."""
        block = self._blocks.get(cell)
        if block is None:
            rows = self._pending[cell]
            block = self._blocks[cell] = (
                np.fromiter(rows, dtype=np.int64, count=len(rows)),
                np.stack(list(rows.values())))
        return block

    def search(self, query: np.ndarray, k: int,
               nprobe: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k ``(ids, L2 distances)`` over the ``nprobe`` nearest cells.

        Exact over the probed cells: the ``k`` smallest float32
        ``((v - q) ** 2).sum()`` of their live rows, ties broken by id;
        a row whose cell is not probed is never seen.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ids, sq = self._scan(query, nprobe or self.config.nprobe)
        best = top_k_order(sq, ids, k) if ids.size else ids
        return ids[best], np.sqrt(sq[best].astype(np.float64))

    def search_radius(self, query: np.ndarray, radius: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(ids, distances)`` within ``radius`` in the probed cells.

        Approximate by construction: rows whose cell is not among the
        ``nprobe`` nearest are never seen, exactly like :meth:`search`.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        ids, sq = self._scan(query, self.config.nprobe)
        dist = np.sqrt(sq.astype(np.float64))
        hit = np.flatnonzero(dist <= radius)
        order = hit[np.lexsort((ids[hit], dist[hit]))]
        return ids[order], dist[order]

    # -------------------------------------------------------------- mutation

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Append rows to their nearest cells (no retraining).

        New rows live in per-cell overflow blocks (scanned beside the
        cell's base rows) until :meth:`compact` folds them into the base
        arrays. Ids must not be live in the index already.
        """
        vectors = _as_vectors(vectors, dim=self.dim)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.shape != (vectors.shape[0],):
            raise ValueError("ids/vectors length mismatch")
        if vectors.shape[0] == 0:
            return
        if not self.is_trained:
            raise ConfigurationError(
                "cannot add to an untrained index; use IVFIndex.build")
        assign = _chunked_assign(vectors, self._centroids)
        for row_id, cell, vector in zip(ids.tolist(), assign.tolist(),
                                        vectors.copy()):
            self._pending.setdefault(cell, {})[row_id] = vector
            self._cell_of[row_id] = cell
            self._blocks.pop(cell, None)

    def remove(self, ids: Sequence[int]) -> int:
        """Tombstone rows by id; returns how many live rows were hit."""
        drop = {int(i) for i in ids}
        removed = 0
        for row_id in drop:
            cell = self._cell_of.pop(row_id, None)
            if cell is None:
                continue
            removed += 1
            self._blocks.pop(cell, None)
            del self._pending[cell][row_id]
            if not self._pending[cell]:
                del self._pending[cell]
        # An id is live once, so only ids not found pending can be base
        # rows; the sweep over the base ids is skipped when none is left.
        if removed < len(drop) and self._ids.size:
            drop_arr = np.fromiter(drop, dtype=np.int64, count=len(drop))
            hit = np.flatnonzero(np.isin(self._ids, drop_arr) & ~self._dead)
            self._dead[hit] = True
            self._tombstones += hit.size
            removed += hit.size
        return removed

    def compact(self) -> "IVFIndex":
        """Fold pending appends and tombstones into the base arrays.

        Rewrites the contiguous per-cell layout in memory (detaching
        from any mmap backing); centroids are untouched. Returns
        ``self``.
        """
        ids, vectors, assign = self._materialise_live()
        self._pending.clear()
        self._cell_of.clear()
        self._blocks.clear()
        self._install(ids, vectors, assign)
        return self

    def _materialise_live(self
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, vectors, cell assignment) of every live row, base-first."""
        live = ~self._dead if self._tombstones else slice(None)  # no copy
        parts_ids = [np.asarray(self._ids)[live]]
        parts_vecs = [np.asarray(self._vectors)[live]]
        cell_of_base = np.repeat(
            np.arange(self.nlist, dtype=np.int64),
            np.diff(self._bounds))
        parts_assign = [cell_of_base[live]]
        for cell in sorted(self._pending):
            pend_ids, pend_vecs = self._pending_block(cell)
            parts_ids.append(pend_ids)
            parts_vecs.append(pend_vecs)
            parts_assign.append(np.full(pend_ids.size, cell, dtype=np.int64))
        ids = np.concatenate(parts_ids)
        vectors = np.concatenate(parts_vecs)
        assign = np.concatenate(parts_assign)
        return ids, np.ascontiguousarray(vectors, dtype=np.float32), assign

    # ----------------------------------------------------------- persistence

    def _array_plan(self) -> List[Tuple[str, np.ndarray]]:
        return [("centroids", self._centroids),
                ("bounds", self._bounds),
                ("ids", self._ids),
                ("vectors", self._vectors)]

    def save(self, path: PathLike) -> Path:
        """Write the index directory (``data.bin`` + ``MANIFEST.json``).

        Pending appends and tombstones are compacted first, so a saved
        index is always in contiguous form. Both files are written via
        temp-file + atomic rename; each array in ``data.bin`` is written
        from its own buffer at an :data:`_ALIGN`-byte offset.
        """
        if self.pending_count or self._tombstones:
            self.compact()
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        data_path = path / DATA_NAME
        manifest_arrays = {}
        buffers = []
        offset = 0
        for name, array in self._array_plan():
            array = np.ascontiguousarray(array)
            pad = -offset % _ALIGN
            buffers += [bytes(pad), array]
            offset += pad
            manifest_arrays[name] = {
                "offset": offset,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            }
            offset += array.nbytes
        atomic_write_buffers(data_path, buffers)
        manifest = {
            "schema": IVF_SCHEMA,
            "dim": self.dim,
            "nlist": self.nlist,
            "count": int(self._ids.shape[0]),
            "config": {
                "nlist": self.config.nlist,
                "nprobe": self.config.nprobe,
                "seed": self.config.seed,
            },
            "data": {"file": DATA_NAME, **file_entry(data_path)},
            "arrays": manifest_arrays,
        }
        atomic_write_json(path / MANIFEST_NAME, manifest)
        return path

    @classmethod
    def load(cls, path: PathLike, mmap: bool = True,
             verify: bool = True) -> "IVFIndex":
        """Reopen a saved index.

        ``mmap=True`` (default) maps ``data.bin`` read-only so a large
        index costs no up-front reads; ``verify=True`` checks the
        manifest's sha256 first (which does read the file once — pass
        ``verify=False`` to keep a cold open lazy: only the size is
        checked then).
        """
        path = Path(path)
        manifest = read_manifest(path / MANIFEST_NAME, IVF_SCHEMA, required=(
            "dim", "count", "config", "data", "arrays"))
        data_path = check_file(path / DATA_NAME, manifest["data"], verify)
        try:
            config = IVFConfig(**{
                key: value for key, value in manifest["config"].items()
                if key not in _LEGACY_CONFIG_KEYS})
        except (TypeError, ConfigurationError) as exc:
            raise CorruptArtifactError(
                f"bad IVF config in {path}: {exc}") from exc
        index = cls(int(manifest["dim"]), config)

        def read_array(name: str) -> np.ndarray:
            meta = manifest["arrays"][name]
            shape = tuple(meta["shape"])
            if mmap:
                return np.memmap(data_path, dtype=np.dtype(meta["dtype"]),
                                 mode="r", offset=int(meta["offset"]),
                                 shape=shape)
            count = int(np.prod(shape, dtype=np.int64))
            return np.fromfile(data_path, dtype=np.dtype(meta["dtype"]),
                               count=count,
                               offset=int(meta["offset"])).reshape(shape)

        try:
            index._centroids = read_array("centroids")
            index._bounds = read_array("bounds")
            index._ids = read_array("ids")
            index._vectors = read_array("vectors")
        except (KeyError, ValueError, OSError) as exc:
            raise CorruptArtifactError(
                f"cannot map IVF arrays from {path}: {exc}") from exc
        if index._ids.shape[0] != int(manifest["count"]):
            raise CorruptArtifactError(
                f"IVF manifest count {manifest['count']} != mapped "
                f"{index._ids.shape[0]} rows")
        index._dead = np.zeros(index._ids.shape[0], dtype=bool)
        return index

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict:
        """JSON-friendly snapshot: layout facts + cumulative search work."""
        counts = np.diff(self._bounds) if self.nlist else np.zeros(0)
        return {
            "kind": "ivf",
            "dim": self.dim,
            "nlist": self.nlist,
            "nprobe": self.config.nprobe,
            "ntotal": self.ntotal,
            "live": self.live_count,
            "pending": self.pending_count,
            "tombstones": self._tombstones,
            "cell_min": int(counts.min()) if counts.size else 0,
            "cell_mean": float(counts.mean()) if counts.size else 0.0,
            "cell_max": int(counts.max()) if counts.size else 0,
            **self._counters,
        }
