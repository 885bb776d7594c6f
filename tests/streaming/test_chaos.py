"""Seeded crash-chaos schedules for the streaming ingester.

Each schedule combines a kill at a WAL append checkpoint with transport
pathologies (reorder / duplicates / drops / lateness from the replay
generator) and optional source flaps (a batch redelivered wholesale).
The ingester runs in a child process so the SIGKILL is real; the parent
then checks the durable contract:

* **zero acked loss** — the recovered window state must sit at or past
  the last batch whose ``ingest()`` returned (batch-atomic: the state
  equals the window fingerprint at *some* batch boundary >= the acked
  one);
* **convergence** — after a second, uninterrupted run over the same
  offered sequence, the state equals the uninterrupted oracle exactly,
  and every live segment's embedding is bit-identical to a from-scratch
  ``encode_prefix``.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.datasets.porto import (PortoConfig, StreamReplayConfig,
                                  generate_porto, replay_stream)
from repro.streaming import (SlidingWindowStore, StreamConfig,
                             StreamIngestor, WindowConfig)
from repro.testing.faults import KillAtWALPoint

from tests.streaming.conftest import make_encoder

pytestmark = [pytest.mark.streaming, pytest.mark.faults]

_POINTS = ("after_write", "before_fsync", "after_fsync")
_BATCH = 6


def _schedule(seed):
    """One deterministic fault schedule per seed."""
    return {
        "seed": seed,
        "point": _POINTS[seed % 3],
        "nth": 1 + (seed // 3) % 4,
        "flap": seed % 2 == 0,
        "snapshot_every": 15 if seed % 5 == 0 else 0,
        "replay": StreamReplayConfig(
            drop_fraction=0.05 if seed % 4 == 0 else 0.0,
            duplicate_fraction=0.1 if seed % 2 == 1 else 0.0,
            reorder_fraction=0.15 if seed % 3 != 2 else 0.0,
            reorder_span=3,
            late_fraction=0.03 if seed % 7 == 0 else 0.0),
    }


def _config(sched):
    return StreamConfig(
        window=WindowConfig(lateness_s=5.0, ttl_s=1e9, reorder_buffer=4,
                            max_segment_points=8),
        sync_encode=True, snapshot_every=sched["snapshot_every"],
        admission_limit=64)


def _offered_batches(sched):
    """The exact batch sequence the child offers (flap replays one)."""
    dataset = generate_porto(
        PortoConfig(num_trajectories=4, min_points=8, max_points=14,
                    extent=1000.0), seed=sched["seed"])
    arrivals, _ = replay_stream(dataset, sched["replay"],
                                seed=sched["seed"])
    batches = [arrivals[i:i + _BATCH]
               for i in range(0, len(arrivals), _BATCH)]
    if sched["flap"] and len(batches) > 4:
        # A reconnecting source re-delivers an old batch mid-stream;
        # dedup must absorb the whole thing.
        batches.insert(4, list(batches[1]))
    return batches


def _oracle_fingerprints(sched, batches):
    """Window fingerprint after each batch boundary, uninterrupted."""
    window = SlidingWindowStore(_config(sched).window)
    fingerprints = [window.state_fingerprint()]
    for batch in batches:
        for point in batch:
            window.apply(point)
        fingerprints.append(window.state_fingerprint())
    return fingerprints


def _child(sched, directory, marker_dir, ack_log):
    encoder = make_encoder(seed=0)
    hook = KillAtWALPoint(sched["point"], marker_dir, nth=sched["nth"],
                          max_kills=1)
    ingestor = StreamIngestor(encoder, directory, _config(sched),
                              wal_hook=hook)
    with open(ack_log, "a") as log:
        for i, batch in enumerate(_offered_batches(sched)):
            ingestor.ingest(batch)
            log.write(f"{i}\n")
            log.flush()
            os.fsync(log.fileno())
    ingestor.close()


def _acked_batches(ack_log):
    if not os.path.exists(ack_log):
        return -1
    acked = -1
    with open(ack_log) as log:
        for line in log:
            line = line.strip()
            if line.isdigit():
                acked = max(acked, int(line))
    return acked


def _run_child(sched, directory, marker_dir, ack_log):
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=_child,
                          args=(sched, directory, marker_dir, ack_log))
    process.start()
    process.join(120)
    assert not process.is_alive(), "chaos child wedged"
    return process.exitcode


def _check_embeddings_bit_identical(ingestor, encoder):
    segments = ingestor.window_segments()
    ids, embeddings = ingestor.window_embeddings()
    assert sorted(ids.tolist()) == sorted(segments)
    for row, sid in enumerate(ids.tolist()):
        oracle = encoder.encode_prefix(segments[sid])
        assert np.array_equal(embeddings[row], oracle.embedding), \
            f"segment {sid}: recovered embedding diverged from re-encoding"


@pytest.mark.parametrize("seed", range(20))
def test_kill_schedule_loses_no_acked_points(tmp_path, seed):
    sched = _schedule(seed)
    durable = tmp_path / "durable"
    durable.mkdir()
    marker_dir = str(tmp_path / "markers")
    ack_log = str(tmp_path / "acked.log")
    batches = _offered_batches(sched)
    fingerprints = _oracle_fingerprints(sched, batches)
    encoder = make_encoder(seed=0)

    exitcode = _run_child(sched, durable, marker_dir, ack_log)
    assert exitcode == -signal.SIGKILL, \
        f"schedule never fired (exit {exitcode})"
    acked = _acked_batches(ack_log)
    assert acked < len(batches) - 1  # died before finishing

    # Recover in-process and pin the state to a batch boundary >= acked.
    recovered = StreamIngestor(encoder, durable, _config(sched))
    fingerprint = recovered._window.state_fingerprint()
    try:
        matched = fingerprints.index(fingerprint) - 1
    except ValueError:
        pytest.fail("recovered state matches no batch boundary "
                    "(half-applied batch)")
    assert matched >= acked, \
        f"acked batch {acked} lost: recovered only through {matched}"
    _check_embeddings_bit_identical(recovered, encoder)
    recovered.close()

    # Second run re-offers everything; the exhausted kill schedule is
    # inert (marker file), so it completes and converges.
    exitcode = _run_child(sched, durable, marker_dir, ack_log)
    assert exitcode == 0
    final = StreamIngestor(encoder, durable, _config(sched))
    assert final._window.state_fingerprint() == fingerprints[-1], \
        "recovered run did not converge to the uninterrupted window state"
    _check_embeddings_bit_identical(final, encoder)
    final.close()
