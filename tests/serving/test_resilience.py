"""Fault-injection tests for the hardened serving layer.

Exercises the robustness contract end to end: boundary validation,
admission-gate load shedding, deadline propagation, the encoder circuit
breaker with grid-index degraded answers, half-open re-probing, and
clean-shutdown semantics. Every fault is injected deterministically via
:mod:`repro.testing.faults` or a fake clock — no sleeps for luck.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import (DeadlineExceededError, InvalidTrajectoryError,
                              ServiceClosedError, ServiceOverloadedError,
                              ServiceUnavailableError)
from repro.index.grid_index import GridInvertedIndex
from repro.resilience import CircuitBreaker
from repro.serving import ServingConfig, SimilarityService
from repro.testing import FaultInjected, FlakyCallable

pytestmark = pytest.mark.faults


class _WrappedModel:
    """Delegate everything to the real model except ``embed``."""

    def __init__(self, model, embed):
        self._model = model
        self.embed = embed

    def __getattr__(self, name):
        return getattr(self._model, name)


def _make_service(serving_world, fresh_store, config=None, embed=None,
                  with_fallback=True):
    model, items = serving_world
    fallback = None
    if with_fallback:
        grid = model._require_fitted().grid
        fallback = GridInvertedIndex(grid)
        for traj_id, traj in zip(fresh_store.ids, items[:16]):
            fallback.insert(traj_id, np.asarray(traj.points))
    if embed is not None:
        model = _WrappedModel(model, embed)
    return SimilarityService(
        model, fresh_store,
        config or ServingConfig(),
        probes=items[:2], fallback_index=fallback)


# ----------------------------------------------------------------- validation

def test_boundary_validation_rejects_garbage(serving_world, fresh_store):
    service = _make_service(serving_world, fresh_store, with_fallback=False)
    try:
        bad_inputs = [
            [],                                # empty
            [[0.0, float("nan")]],             # non-finite
            [[1.0, 2.0, 3.0]],                 # wrong arity
            "not a trajectory",                # wrong type entirely
        ]
        for bad in bad_inputs:
            with pytest.raises(InvalidTrajectoryError):
                service.top_k(bad, k=3)
        snap = service.registry.snapshot()
        assert snap["repro_validation_errors_total"] == len(bad_inputs)
        # validation failures never reach the encoder
        assert service.stats()["batcher"]["items"] == 0
    finally:
        service.close()


def test_max_points_limit(serving_world, fresh_store):
    config = ServingConfig(max_points=5)
    service = _make_service(serving_world, fresh_store, config=config,
                            with_fallback=False)
    try:
        too_long = [[float(i), float(i)] for i in range(6)]
        with pytest.raises(InvalidTrajectoryError, match="limit 5"):
            service.top_k(too_long)
    finally:
        service.close()


# ------------------------------------------------------------------- shedding

def test_admission_gate_sheds_excess_load(serving_world, fresh_store):
    model, items = serving_world
    entered = threading.Event()
    release = threading.Event()

    def slow_embed(trajectories, batch_size=None):
        entered.set()
        assert release.wait(10.0), "test deadlock: release never set"
        return model.embed(trajectories, batch_size=batch_size)

    config = ServingConfig(max_inflight=1)
    service = _make_service(serving_world, fresh_store, config=config,
                            embed=slow_embed, with_fallback=False)
    try:
        first = threading.Thread(
            target=lambda: service.top_k(items[0], k=3, use_cache=False))
        first.start()
        assert entered.wait(10.0)
        with pytest.raises(ServiceOverloadedError, match="shed"):
            service.top_k(items[1], k=3, use_cache=False)
        release.set()
        first.join(timeout=10.0)
        assert not first.is_alive()
        snap = service.registry.snapshot()
        assert snap["repro_shed_requests_total"] == 1
        assert service.stats()["resilience"]["admission"]["shed"] == 1
        assert service.stats()["resilience"]["admission"]["in_flight"] == 0
    finally:
        release.set()
        service.close()


# ------------------------------------------------------------------ deadlines

def test_deadline_exceeded_is_typed_and_counted(serving_world, fresh_store):
    model, items = serving_world
    slow = FlakyCallable(model.embed, latency_s=0.5, latency_on=(1,))
    service = _make_service(serving_world, fresh_store, embed=slow,
                            with_fallback=False)
    try:
        with pytest.raises(DeadlineExceededError):
            service.top_k(items[0], k=3, use_cache=False, timeout=0.05)
        snap = service.registry.snapshot()
        assert snap["repro_deadline_exceeded_total"] == 1
        # the service recovers once the slow call is out of the way
        result = service.top_k(items[0], k=3, use_cache=False, timeout=10.0)
        assert len(result.ids) == 3 and not result.degraded
    finally:
        service.close()


# ------------------------------------------------- breaker + degraded answers

def test_breaker_opens_and_degrades_to_grid_index(serving_world, fresh_store):
    model, items = serving_world
    flaky = FlakyCallable(model.embed, fail_on=range(1, 100))
    config = ServingConfig(breaker_failure_threshold=3,
                           breaker_reset_s=60.0)
    service = _make_service(serving_world, fresh_store, config=config,
                            embed=flaky)
    try:
        # below the threshold the raw fault propagates (no silent lies)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                service.top_k(items[0], k=3, use_cache=False)
        # the tripping request and everything after degrade gracefully
        for query in (items[0], items[1], items[2]):
            result = service.top_k(query, k=3, use_cache=False)
            assert result.degraded
            assert result.ids, "degraded answer found no candidates"
            assert result.distances == sorted(result.distances)
            assert all(0.0 < d <= 1.0 for d in result.distances)
        assert service.breaker.state == "open"
        snap = service.registry.snapshot()
        assert snap["repro_degraded_answers_total"] == 3
        assert snap["repro_encoder_failures_total"] == 3
        assert snap["repro_breaker_transitions_total"] >= 1
        # degraded answers are never cached: a repeat query recomputes
        again = service.top_k(items[0], k=3)
        assert again.degraded and not again.cached
        assert not service.readiness()["ready"]
        assert not service.readiness()["checks"]["encoder_breaker_closed"]
    finally:
        service.close()


def test_degraded_answers_overlap_real_neighbours(serving_world, fresh_store):
    """The fallback is approximate, not random: a database trajectory's

    own id must rank first when it queries for itself (it shares every
    cell with itself)."""
    model, items = serving_world
    flaky = FlakyCallable(model.embed, fail_on=range(1, 100))
    config = ServingConfig(breaker_failure_threshold=1)
    service = _make_service(serving_world, fresh_store, config=config,
                            embed=flaky)
    try:
        with service.target._shards[0]._lock:
            ids = list(fresh_store.ids)
        for traj_id, traj in list(zip(ids, items[:16]))[:4]:
            result = service.top_k(traj, k=1, use_cache=False)
            assert result.degraded
            assert result.ids[0] == traj_id
    finally:
        service.close()


def test_breaker_open_without_fallback_is_unavailable(serving_world,
                                                      fresh_store):
    model, items = serving_world
    flaky = FlakyCallable(model.embed, fail_on=range(1, 100))
    config = ServingConfig(breaker_failure_threshold=1)
    service = _make_service(serving_world, fresh_store, config=config,
                            embed=flaky, with_fallback=False)
    try:
        with pytest.raises(FaultInjected):
            service.top_k(items[0], k=3, use_cache=False)
        with pytest.raises(ServiceUnavailableError):
            service.top_k(items[0], k=3, use_cache=False)
    finally:
        service.close()


def test_breaker_reprobes_and_recovers(serving_world, fresh_store):
    model, items = serving_world
    flaky = FlakyCallable(model.embed, fail_on=(1, 2))  # then healthy
    service = _make_service(serving_world, fresh_store, embed=flaky)
    clock = [0.0]
    service.breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=5.0,
                                     clock=lambda: clock[0])
    try:
        for _ in range(2):
            try:
                service.top_k(items[0], k=3, use_cache=False)
            except FaultInjected:
                pass
        assert service.breaker.state == "open"
        degraded = service.top_k(items[0], k=3, use_cache=False)
        assert degraded.degraded
        # after the reset timeout the half-open probe reaches the (now
        # healthy) encoder and the breaker closes again
        clock[0] = 6.0
        result = service.top_k(items[0], k=3, use_cache=False)
        assert not result.degraded
        assert service.breaker.state == "closed"
        assert result.ids == [int(i) for i in
                              fresh_store.query(items[0], 3)[0]]
    finally:
        service.close()


def test_insert_delete_keep_fallback_index_in_sync(serving_world,
                                                   fresh_store):
    model, items = serving_world
    service = _make_service(serving_world, fresh_store)
    try:
        index = service.fallback_index
        before = index.size
        new_ids = service.insert(items[16:18])
        assert index.size == before + 2
        removed = service.delete(new_ids)
        assert removed == 2
        assert index.size == before
    finally:
        service.close()


# ----------------------------------------------------------------- lifecycle

def test_close_rejects_new_work_with_typed_error(serving_world, fresh_store):
    _, items = serving_world
    service = _make_service(serving_world, fresh_store, with_fallback=False)
    service.warmup(queries=1)
    service.close()
    with pytest.raises(ServiceClosedError):
        service.top_k(items[0], k=3)
    # idempotent
    service.close()


def test_readiness_lifecycle(serving_world, fresh_store):
    service = _make_service(serving_world, fresh_store, with_fallback=False)
    try:
        ready = service.readiness()
        assert not ready["ready"]
        assert not ready["checks"]["warmed"]
        assert ready["checks"]["store_nonempty"]
        service.warmup(queries=1)
        assert service.readiness()["ready"]
    finally:
        service.close()
    assert not service.readiness()["checks"]["accepting_requests"]
    assert not service.readiness()["ready"]
