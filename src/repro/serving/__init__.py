"""Online serving layer: bundles, micro-batching, caching, metrics, HTTP.

Turns a trained :class:`~repro.core.model.MetricModel` plus its
:class:`~repro.core.store.EmbeddingStore` into the long-lived query
service the paper's deployment pattern (§VI-A) describes: embed the
database once, then answer ad-hoc similarity queries online in
O(L + N·d).

Quickstart::

    from repro.serving import SimilarityService, save_bundle

    save_bundle("bundle/", model, store, probes=seeds[:4])
    service = SimilarityService.from_bundle("bundle/")
    result = service.top_k(query_trajectory, k=10)

or over HTTP: ``python -m repro serve --bundle bundle/ --port 8080``.
"""

from .batching import BatcherClosedError, MicroBatcher
from .bundle import (Bundle, BUNDLE_SCHEMA, load_bundle, load_bundle_model,
                     save_bundle)
from .cache import LRUCache, result_key, trajectory_fingerprint
from .http import ServingHTTPServer, make_server, serve
from .metrics import Counter, Histogram, MetricsRegistry
from .router import group_by_shard, merge_top_k
from .service import (ServingConfig, ShardedConfig, ShardedService,
                      SimilarityService, TopKResult)
from .sharding import ShardRequestError

__all__ = [
    "BatcherClosedError", "MicroBatcher",
    "Bundle", "BUNDLE_SCHEMA", "load_bundle",
    "load_bundle_model", "save_bundle",
    "LRUCache", "result_key", "trajectory_fingerprint",
    "ServingHTTPServer", "make_server", "serve",
    "Counter", "Histogram", "MetricsRegistry",
    "group_by_shard", "merge_top_k",
    "ServingConfig", "SimilarityService", "TopKResult",
    "ShardedConfig", "ShardedService", "ShardRequestError",
]
