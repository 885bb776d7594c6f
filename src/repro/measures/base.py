"""Measure interface and registry.

NeuTraj is *generic*: any trajectory measure can guide training (paper §I).
Measures implement :class:`TrajectoryMeasure` and register under a string
name so experiment configs can select them (``get_measure("dtw")``).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Type

import numpy as np

from ..exceptions import InvalidTrajectoryError


def check_pair(a, b) -> None:
    """Reject degenerate measure inputs with a typed error, up front.

    Every measure's :meth:`TrajectoryMeasure.distance` calls this first.
    Without it each kernel failed its own way on empty or single-point
    inputs — ``inf``, ``1.0``, NaN warnings, ``IndexError`` — so callers
    could not tell garbage data from a real distance. A trajectory needs
    at least one segment (two points) to be compared; shorter inputs and
    non-``(L, 2)`` shapes raise :class:`InvalidTrajectoryError`. Repair
    rather than reject via :mod:`repro.dataquality` when the data is
    merely dirty.
    """
    for arr in (a, b):
        try:
            arr = np.asarray(arr, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidTrajectoryError(
                f"trajectory is not a numeric point array: {exc}") from exc
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidTrajectoryError(
                f"expected an (L, 2) point array, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise InvalidTrajectoryError(
                f"trajectory must have >= 2 points to be measured, "
                f"got {arr.shape[0]}")


def check_pairs(pairs_a, pairs_b) -> tuple:
    """Aligned pair lists as float64 arrays, each pair through
    :func:`check_pair` — the prologue of every batched ``distance_many``."""
    pairs_a = [np.asarray(a, dtype=np.float64) for a in pairs_a]
    pairs_b = [np.asarray(b, dtype=np.float64) for b in pairs_b]
    for a, b in zip(pairs_a, pairs_b):
        check_pair(a, b)
    return pairs_a, pairs_b


def point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances between two point sequences.

    Parameters
    ----------
    a, b:
        Arrays of shape (n, 2) and (m, 2).

    Returns
    -------
    (n, m) distance matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


class TrajectoryMeasure:
    """Base class: a distance function over point arrays.

    Sub-classes implement :meth:`distance` on raw (L, 2) arrays; the
    convenience ``__call__`` also accepts :class:`~repro.datasets.Trajectory`.
    """

    #: registry name, set by subclasses
    name: str = ""
    #: True when the measure is a metric (symmetric + triangle inequality)
    is_metric: bool = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        raise NotImplementedError

    def distance_many(self, pairs_a: Sequence[np.ndarray],
                      pairs_b: Sequence[np.ndarray]) -> np.ndarray:
        """Distances for aligned lists of pairs: ``out[k] = d(a[k], b[k])``.

        The default loops over :meth:`distance`; measures with batched
        kernels (see :mod:`repro.measures._batch`) override this with an
        element-wise-identical vectorised implementation. The chunked
        distance-matrix driver calls this on each work unit.
        """
        return np.array([self.distance(np.asarray(a, dtype=np.float64),
                                       np.asarray(b, dtype=np.float64))
                         for a, b in zip(pairs_a, pairs_b)], dtype=np.float64)

    def cache_token(self) -> str:
        """Stable string identifying the measure *and* its parameters.

        Used by the distance-matrix ``.npz`` cache key, so two instances
        that compute different distances must produce different tokens.
        """
        parts = [type(self).__name__, self.name]
        for key, value in sorted(vars(self).items()):
            if isinstance(value, np.ndarray):
                value = value.tobytes().hex()
            parts.append(f"{key}={value!r}")
        return "|".join(parts)

    def __call__(self, a, b) -> float:
        a = getattr(a, "points", a)
        b = getattr(b, "points", b)
        try:
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidTrajectoryError(
                f"trajectory is not a numeric point array: {exc}") from exc
        return self.distance(a, b)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[..., TrajectoryMeasure]] = {}


def register_measure(name: str):
    """Class decorator adding a measure to the registry under ``name``."""

    def decorator(cls: Type[TrajectoryMeasure]) -> Type[TrajectoryMeasure]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def get_measure(name: str, **kwargs) -> TrajectoryMeasure:
    """Instantiate a registered measure by name (e.g. ``"frechet"``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown measure {name!r}; available: {sorted(_REGISTRY)}") from None
    return factory(**kwargs)


def available_measures() -> list:
    """Names of all registered measures."""
    return sorted(_REGISTRY)
