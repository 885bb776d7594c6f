"""Porto timed replay: determinism, injected faults, window convergence."""

import numpy as np
import pytest

from repro.datasets.porto import (PortoConfig, StreamReplayConfig,
                                  generate_porto, replay_stream)
from repro.streaming import SlidingWindowStore, WindowConfig

pytestmark = pytest.mark.streaming

_DATASET = generate_porto(PortoConfig(num_trajectories=6, min_points=8,
                                      max_points=16), seed=5)
_FAULTY = StreamReplayConfig(drop_fraction=0.05, duplicate_fraction=0.1,
                             reorder_fraction=0.2, late_fraction=0.02)


def test_replay_is_deterministic():
    a1, t1 = replay_stream(_DATASET, _FAULTY, seed=3)
    a2, t2 = replay_stream(_DATASET, _FAULTY, seed=3)
    assert a1 == a2
    assert set(t1) == set(t2)
    for source in t1:
        np.testing.assert_array_equal(t1[source], t2[source])
    a3, _ = replay_stream(_DATASET, _FAULTY, seed=4)
    assert a3 != a1


def test_every_sent_point_arrives_and_duplicates_are_extra():
    arrivals, truth = replay_stream(_DATASET, _FAULTY, seed=1)
    seen = {}
    for point in arrivals:
        seen[(point.source_id, point.seq)] = seen.get(
            (point.source_id, point.seq), 0) + 1
    for source, coords in truth.items():
        for seq0 in range(len(coords)):
            assert seen.get((source, seq0 + 1), 0) >= 1
    assert sum(seen.values()) > len(seen)  # duplicates really injected


def test_clean_replay_matches_event_time_order():
    arrivals, truth = replay_stream(_DATASET, StreamReplayConfig(), seed=0)
    assert len(arrivals) == sum(len(c) for c in truth.values())
    times = [p.t for p in arrivals]
    assert times == sorted(times)


def test_drop_fraction_creates_permanent_gaps():
    _, clean = replay_stream(_DATASET, StreamReplayConfig(), seed=0)
    _, dropped = replay_stream(
        _DATASET, StreamReplayConfig(drop_fraction=0.3), seed=0)
    assert (sum(len(c) for c in dropped.values())
            < sum(len(c) for c in clean.values()))


def test_faulty_replay_converges_through_a_window():
    """End-to-end: the window absorbs the generator's pathologies."""
    arrivals, truth = replay_stream(
        _DATASET,
        StreamReplayConfig(duplicate_fraction=0.1, reorder_fraction=0.15,
                           reorder_span=4),
        seed=2)
    window = SlidingWindowStore(WindowConfig(lateness_s=1e6, ttl_s=1e9,
                                             reorder_buffer=64,
                                             max_segment_points=10_000))
    for point in arrivals:
        window.apply(point)
    for sid in window.live_segments():
        segment = window.segment(sid)
        np.testing.assert_array_equal(segment.points(),
                                      truth[segment.source_id])
