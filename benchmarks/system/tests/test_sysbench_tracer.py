"""The span recorder: parenting, self times, missing targets."""

import time

import tracer as tracing
from tracer import Tracer


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("root", request_id="r1"):
        time.sleep(0.002)
        with tracer.span("child"):
            time.sleep(0.002)
            with tracer.span("grandchild"):
                time.sleep(0.002)
        with tracer.span("child"):
            time.sleep(0.001)
    spans = tracer.spans
    assert [s[tracing.NAME] for s in spans] == ["grandchild", "child",
                                                "child", "root"]
    root = spans[-1]
    assert root[tracing.PARENT] is None
    assert all(s[tracing.REQUEST] == "r1" for s in spans)
    selfs = tracing.self_times(spans)
    assert all(value >= 0 for value in selfs.values())
    assert abs(sum(selfs.values()) - tracing.duration(root)) < 1e-9
    children = [s for s in spans if s[tracing.PARENT] == root[tracing.SPAN_ID]]
    assert len(children) == 2
    assert abs(selfs[root[tracing.SPAN_ID]]
               - (tracing.duration(root)
                  - sum(map(tracing.duration, children)))) < 1e-12


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("root"):
        pass
    assert tracer.spans == []


def test_unresolvable_target_is_listed_not_raised():
    tracer = Tracer()
    tracer.install({"gone.module": "repro.no_such_module.Thing.method",
                    "gone.attribute": "repro.serving.NoSuchClass.top_k",
                    "core.store.query_embedding":
                        "repro.EmbeddingStore.query_embedding"})
    try:
        assert tracer.missing == ["gone.module", "gone.attribute"]
        import repro
        assert hasattr(repro.EmbeddingStore.query_embedding, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(repro.EmbeddingStore.query_embedding, "__wrapped__")


def test_every_default_target_resolves_today():
    for dotted in tracing.TARGETS.values():
        tracing.resolve(dotted)


def test_function_targets_are_rebound_where_they_were_imported():
    import repro.core.model as model_module
    import repro.measures as measures
    original = measures.pairwise_distances
    tracer = Tracer()
    tracer.install({"measures.matrix.pairwise":
                    "repro.measures.pairwise_distances"})
    try:
        assert model_module.pairwise_distances is not original
        assert model_module.pairwise_distances.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert model_module.pairwise_distances is original


def test_wrapped_call_records_work_and_survives_a_changed_signature():
    tracer = Tracer()

    def embed(self, trajectories):
        return len(trajectories)

    wrapped = tracer._wrapper("core.encoder.embed", embed)
    tracer.enabled = True
    assert wrapped(None, [[1, 2, 3], [4, 5]]) == 2
    assert tracer.spans[-1][tracing.WORK_DONE] == 5

    def renamed(self):
        return "ok"

    wrapped = tracer._wrapper("core.encoder.embed", renamed)
    assert wrapped(None) == "ok"
    assert tracer.spans[-1][tracing.WORK_DONE] is None


def test_adopt_by_request_links_server_spans_to_client_roots():
    spans = [("1:1", None, "loadgen.op", 0.0, 1.0, "0-7", None),
             ("2:1", None, "serving.http.handler", 0.2, 0.7, "0-7", None),
             ("2:2", "2:1", "serving.service.top_k", 0.3, 0.6, "0-7", None),
             ("2:3", None, "core.encoder.embed", 0.35, 0.5, None, None)]
    adopted = tracing.adopt_by_request(spans, "loadgen.op")
    assert adopted[1][tracing.PARENT] == "1:1"
    assert adopted[2][tracing.PARENT] == "2:1"
    assert adopted[3][tracing.PARENT] is None
    selfs = tracing.self_times(adopted)
    assert abs(selfs["1:1"] - 0.5) < 1e-12     # the wire
    assert abs(selfs["2:1"] - 0.2) < 1e-12     # handler outside top_k
