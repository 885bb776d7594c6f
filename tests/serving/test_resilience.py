"""Fault-injection tests for the hardened serving layer.

Exercises the robustness contract end to end: boundary validation,
admission-gate load shedding, deadline propagation, per-request isolation
of encoder failures, and clean-shutdown semantics. Faults are injected
by :mod:`repro.testing.faults` or a scripted ``embed``; orderings that
matter are forced with event gates, not sleeps.
"""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import (DeadlineExceededError, InvalidTrajectoryError,
                              ServiceClosedError, ServiceOverloadedError)
from repro.serving import ServingConfig, SimilarityService
from repro.testing import FlakyCallable

pytestmark = pytest.mark.faults


class _WrappedModel:
    """Delegate everything to the real model except ``embed``."""

    def __init__(self, model, embed):
        self._model = model
        self.embed = embed

    def __getattr__(self, name):
        return getattr(self._model, name)


def _make_service(serving_world, fresh_store, config=None, embed=None):
    model, items = serving_world
    if embed is not None:
        model = _WrappedModel(model, embed)
    return SimilarityService(model, fresh_store, config or ServingConfig(),
                             probes=items[:2])


def _poisoned(embed, poison):
    """``embed`` that raises ``ValueError`` on any batch holding ``poison``."""
    def wrapped(trajectories):
        if any(np.array_equal(t.points, poison.points) for t in trajectories):
            raise ValueError("poison trajectory")
        return embed(trajectories)
    return wrapped


def _offline_ids(store, query, k):
    return [int(i) for i in store.query(query, k)[0]]


# ----------------------------------------------------------------- validation

def test_boundary_validation_rejects_garbage(serving_world, fresh_store):
    service = _make_service(serving_world, fresh_store)
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
    service = _make_service(serving_world, fresh_store, config=config)
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

    def slow_embed(trajectories):
        entered.set()
        assert release.wait(10.0), "test deadlock: release never set"
        return model.embed(trajectories)

    config = ServingConfig(max_inflight=1)
    service = _make_service(serving_world, fresh_store, config=config,
                            embed=slow_embed)
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
    service = _make_service(serving_world, fresh_store, embed=slow)
    try:
        with pytest.raises(DeadlineExceededError):
            service.top_k(items[0], k=3, use_cache=False, timeout=0.05)
        snap = service.registry.snapshot()
        assert snap["repro_deadline_exceeded_total"] == 1
        # the service recovers once the slow call is out of the way
        result = service.top_k(items[0], k=3, use_cache=False, timeout=10.0)
        assert len(result.ids) == 3
    finally:
        service.close()


# ------------------------------------------------- per-request isolation

def test_poison_requests_never_fail_good_ones(serving_world, fresh_store):
    """Repeated encoder failures stay with the requests that caused them:
    no later good request is refused, and the service stays ready."""
    model, items = serving_world
    poison = items[20]
    service = _make_service(serving_world, fresh_store,
                            embed=_poisoned(model.embed, poison))
    try:
        service.warmup(queries=1)
        for _ in range(8):
            with pytest.raises(ValueError, match="poison"):
                service.top_k(poison, k=3, use_cache=False)
        result = service.top_k(items[0], k=3, use_cache=False)
        assert result.ids == _offline_ids(fresh_store, items[0], 3)
        assert service.readiness()["ready"]
        assert service.registry.snapshot()[
            "repro_encoder_failures_total"] == 8
    finally:
        service.close()


def _shared_batch(serving_world, fresh_store, poison, good):
    """Queue ``poison`` and ``good`` behind a blocked encode so they form
    one batch; returns ``(outcomes, embed call sizes, failure count)``."""
    model, items = serving_world
    entered = threading.Event()
    release = threading.Event()
    batches = []
    poisoned = _poisoned(model.embed, poison)

    def gated_embed(trajectories):
        batches.append(len(trajectories))
        entered.set()
        assert release.wait(10.0), "test deadlock: release never set"
        return poisoned(trajectories)

    service = _make_service(serving_world, fresh_store, embed=gated_embed)
    outcomes = {}

    def ask(name, query):
        try:
            outcomes[name] = service.top_k(query, k=3, use_cache=False)
        except ValueError as exc:
            outcomes[name] = exc

    try:
        blocker = threading.Thread(target=ask, args=("blocker", items[0]))
        blocker.start()
        assert entered.wait(10.0)
        # The encoder is busy: these queue up and form the next batch.
        askers = [threading.Thread(target=ask, args=(name, query))
                  for name, query in [("poison", poison)]
                  + [(f"good{i}", q) for i, q in enumerate(good)]]
        for thread in askers:
            thread.start()
        give_up = time.monotonic() + 10.0
        while True:
            with service._batcher._lock:
                if len(service._batcher._queue) == len(askers):
                    break
            assert time.monotonic() < give_up, "requests never queued"
            time.sleep(0.001)
        release.set()
        for thread in [blocker] + askers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert batches[:2] == [1, len(askers)]
        assert isinstance(outcomes["poison"], ValueError)
        for i, query in enumerate(good):
            assert outcomes[f"good{i}"].ids == _offline_ids(fresh_store,
                                                            query, 3)
        failures = service.registry.snapshot()["repro_encoder_failures_total"]
        return outcomes, batches, failures
    finally:
        release.set()
        service.close()


def test_poison_in_a_shared_batch_fails_only_its_caller(serving_world,
                                                        fresh_store):
    _, items = serving_world
    _shared_batch(serving_world, fresh_store, items[20], items[1:4])


def test_a_failed_batch_is_bisected_and_its_poison_counted_once(
        serving_world, fresh_store):
    """One poison among 8: the failed batch is split in halves, and only
    the failing halves again, so the embed runs fewer than the 1 + 8
    calls an item-by-item retry makes; the one bad request is one
    failure."""
    _, items = serving_world
    outcomes, batches, failures = _shared_batch(
        serving_world, fresh_store, items[20], items[1:8])
    assert len(outcomes) == 9  # the blocker and the batch of eight
    assert failures == 1
    after_blocker = batches[1:]
    # The batch, its two halves, the failing half's two halves, ...
    assert sorted(after_blocker, reverse=True) == [8, 4, 4, 2, 2, 1, 1]
    assert len(after_blocker) < 1 + 8


def test_load_shedding_accounts_for_every_request(serving_world, fresh_store):
    """6 clients x 10 queries against 2 admission slots: every request is
    answered or shed (none lost, none hung) and the gate drains."""
    model, items = serving_world
    clients, per_client = 6, 10
    slow = FlakyCallable(model.embed, latency_s=0.002)
    service = _make_service(serving_world, fresh_store,
                            config=ServingConfig(cache_capacity=0,
                                                 max_inflight=2),
                            embed=slow)
    accepted = [0] * clients
    shed = [0] * clients
    barrier = threading.Barrier(clients)

    def client(idx):
        barrier.wait()
        for n in range(per_client):
            query = items[(idx * per_client + n) % len(items)]
            try:
                service.top_k(query, k=3, use_cache=False, timeout=30.0)
                accepted[idx] += 1
            except ServiceOverloadedError:
                shed[idx] += 1

    try:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        give_up = time.monotonic() + 60.0
        for thread in threads:
            thread.join(timeout=max(0.0, give_up - time.monotonic()))
        assert not any(t.is_alive() for t in threads), "a client hung"
        assert sum(accepted) + sum(shed) == clients * per_client
        assert sum(shed) > 0
        admission = service.stats()["resilience"]["admission"]
        assert admission["in_flight"] == 0
        assert admission["shed"] == sum(shed)
    finally:
        service.close()


# ----------------------------------------------------------------- lifecycle

def test_close_rejects_new_work_with_typed_error(serving_world, fresh_store):
    _, items = serving_world
    service = _make_service(serving_world, fresh_store)
    service.warmup(queries=1)
    service.close()
    with pytest.raises(ServiceClosedError):
        service.top_k(items[0], k=3)
    # idempotent
    service.close()


def test_readiness_lifecycle(serving_world, fresh_store):
    service = _make_service(serving_world, fresh_store)
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
