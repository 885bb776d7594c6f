"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.datasets import PortoConfig, Trajectory, TrajectoryDataset, generate_porto


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset():
    """A small deterministic Porto-like dataset (40 trajectories)."""
    return generate_porto(
        PortoConfig(num_trajectories=40, min_points=8, max_points=20),
        seed=7)


@pytest.fixture
def tiny_trajectories():
    """Three hand-made trajectories with known geometry."""
    line = Trajectory([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], traj_id=0)
    shifted = Trajectory([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], traj_id=1)
    diagonal = Trajectory([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], traj_id=2)
    return [line, shifted, diagonal]


@pytest.fixture
def wal_handles(monkeypatch):
    """Every file :mod:`repro.serving.wal` opens, in order, so a test can
    assert that a failed open or close left none of them open."""
    from repro.serving import wal

    handles = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        handles.append(handle)
        return handle

    monkeypatch.setattr(wal, "open", recording_open, raising=False)
    return handles
