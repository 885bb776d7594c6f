"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Train a small NeuTraj on synthetic Porto-like data and run a top-k
    search (the quickstart, self-contained).
``measures``
    List the registered trajectory measures.
``experiment <name>``
    Regenerate one of the paper's tables/figures (``table2`` .. ``fig10``)
    at the scale given by ``--scale`` (smoke/small/medium).
``serve``
    Run the online similarity-query service over a saved bundle
    (``repro.serving``); ``--once`` performs a loopback self-test and
    exits. ``--index ivf`` serves through the ANN backend, and
    ``--durable-dir`` logs every write before acknowledging it.
    ``--shards N`` (N > 1) forks N shard workers instead
    (``repro.serving.sharding``), splitting the bundle's store on first
    use when ``--partitions`` does not exist yet.
``shard-tool split`` / ``shard-tool status``
    Offline partitioning for the sharded tier: split a bundle's store
    into N consistent-hash partitions, or inspect/verify an existing
    partition directory.
``index build`` / ``index stats`` / ``index compact``
    Build an IVF ANN index from a bundle's embedding store, inspect a
    saved index directory, or fold a saved index's pending
    inserts/tombstones into its contiguous layout (``repro.index.ann``).
``stream-demo``
    Run the fault-tolerant streaming tier end to end on a synthetic
    fleet replay (``repro.streaming``): fault-injected arrivals through
    the crash-safe sliding-window ingester, live queries and online
    anomaly scores, then a simulated crash + WAL recovery check.
``check``
    Run the project static analysis (``repro.analysis``) — per-file and
    whole-program rules in one pass — over ``src`` (or given paths);
    exit 0 means no non-baselined findings. ``--stale-pragmas`` audits
    suppressions instead.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from . import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto

    dataset = generate_porto(
        PortoConfig(num_trajectories=args.size, min_points=10,
                    max_points=25), seed=0)
    rng = np.random.default_rng(0)
    seeds_ds, rest = dataset.split((0.3, 0.7), rng)
    seeds, database = list(seeds_ds), list(rest)
    print(f"training NeuTraj({args.measure}) on {len(seeds)} seeds ...")
    model = NeuTraj(NeuTrajConfig(measure=args.measure, embedding_dim=16,
                                  epochs=args.epochs, sampling_num=5,
                                  batch_anchors=10, cell_size=400.0, seed=0))
    history = model.fit(seeds)
    print(f"done in {history.total_seconds:.1f}s "
          f"(final loss {history.losses[-1]:.4f})")
    embeddings = model.embed(database)
    top = model.top_k(database[0], embeddings, k=5)
    print(f"top-5 neighbours of trajectory 0: {top.tolist()}")
    return 0


def _cmd_measures(args: argparse.Namespace) -> int:
    from .measures import available_measures, get_measure

    for name in available_measures():
        measure = get_measure(name)
        kind = "metric" if measure.is_metric else "non-metric"
        print(f"{name:<12} {kind}")
    return 0


_EXPERIMENTS = {
    "table2": ("bench_table2_performance.py", "performance comparison"),
    "table3": ("bench_table3_ablation.py", "ablation study"),
    "table4": ("bench_table4_search_time.py", "online search time"),
    "table5": ("bench_table5_indexed_search.py", "indexed search time"),
    "table6": ("bench_table6_training_time.py", "offline training time"),
    "table7": ("bench_table7_case_study.py", "case study"),
    "fig5": ("bench_fig5_convergence.py", "convergence curves"),
    "fig6": ("bench_fig6_training_size.py", "training-size sweep"),
    "fig7": ("bench_fig7_embedding_dim.py", "embedding-dim sweep"),
    "fig8": ("bench_fig8_scan_width.py", "scan-width sweep"),
    "fig9": ("bench_fig9_clustering.py", "clustering comparison"),
    "fig10": ("bench_fig10_zero_shot.py", "zero-shot learning"),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import subprocess
    from pathlib import Path

    try:
        bench_file, description = _EXPERIMENTS[args.name]
    except KeyError:
        print(f"unknown experiment {args.name!r}; "
              f"choose from {sorted(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    bench_path = Path(__file__).resolve().parents[2] / "benchmarks" / bench_file
    if not bench_path.exists():
        print(f"benchmark file not found: {bench_path}", file=sys.stderr)
        return 2
    print(f"running {args.name} ({description}) at scale={args.scale} ...")
    env = dict(os.environ, REPRO_SCALE=args.scale)
    return subprocess.call(
        [sys.executable, "-m", "pytest", str(bench_path),
         "--benchmark-only", "-q"], env=env)


def _self_test(server, service) -> int:
    """Drive the freshly started server over loopback; 0 on success."""
    import json
    import urllib.request

    def call(path, payload=None):
        url = server.url + path
        if payload is None:
            request = urllib.request.Request(url)
        else:
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()

    status, body = call("/healthz")
    health = json.loads(body)
    print(f"healthz: {status} {health}")
    if status != 200 or health.get("status") != "ok":
        return 1

    probe = service.probes[0] if service.probes else service.synthetic_probe()
    status, body = call("/v1/topk",
                        {"trajectory": probe.points.tolist(), "k": 5})
    answer = json.loads(body)
    print(f"topk:    {status} ids={answer.get('ids')}")
    if status != 200:
        return 1
    # The same search, reached in process and encoded off the batcher.
    expected = service.query_embedding(service.model.embed([probe])[0],
                                       k=5).ids
    if answer["ids"] != expected:
        print(f"self-test mismatch: expected ids {expected}")
        return 1

    status, body = call("/metrics")
    text = body.decode()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    print(f"metrics: {status} ({len(lines)} samples)")
    if status != 200 or "repro_topk_requests_total" not in text:
        return 1
    print("self-test passed")
    return 0


def _split_bundle_store(bundle_dir, partition_dir, shards: int,
                        vnodes: int) -> dict:
    """Split a bundle's store into a partition directory; returns manifest."""
    import numpy as np

    from .core.partition import save_partitions
    from .serving.bundle import load_bundle

    bundle = load_bundle(bundle_dir)
    store = bundle.store
    if len(store) == 0:
        raise ValueError(f"bundle {bundle_dir!r} has an empty store")
    return save_partitions(
        partition_dir, np.asarray(store.ids, dtype=np.int64),
        store.embeddings, num_shards=shards, vnodes=vnodes,
        next_id=store.next_id,
        metadata={"source_bundle": str(bundle_dir)})


def _build_sharded_service(args, knobs: dict):
    from pathlib import Path

    from .core.partition import load_partition_manifest
    from .serving import ShardedConfig, ShardedService

    partition_dir = Path(args.partitions
                         or Path(args.bundle) / f"partitions-{args.shards}")
    if not (partition_dir / "PARTITIONS.json").exists():
        print(f"splitting bundle store into {args.shards} partitions at "
              f"{partition_dir} ...")
        _split_bundle_store(args.bundle, partition_dir, args.shards,
                            args.vnodes)
    manifest = load_partition_manifest(partition_dir)
    if manifest["num_shards"] != args.shards:
        raise ValueError(
            f"{partition_dir} holds {manifest['num_shards']} partitions but "
            f"--shards {args.shards} was requested; re-split with "
            f"shard-tool split")
    config = ShardedConfig(**knobs, replicas=args.replicas)
    return ShardedService(partition_dir, bundle_dir=args.bundle,
                          config=config, durable_dir=args.durable_dir)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .exceptions import ConfigurationError
    from .serving import ServingConfig, SimilarityService, make_server
    from .serving.bundle import BundleError

    # One config shape for both tiers; the sharded one adds its own fields.
    knobs = dict(max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms,
                 cache_capacity=args.cache_capacity, index=args.index,
                 nlist=args.nlist, nprobe=args.nprobe,
                 fsync_window_ms=args.fsync_window_ms)
    sharded = bool(args.shards and args.shards > 1)
    if args.partitions and not sharded:
        print("--partitions requires --shards > 1", file=sys.stderr)
        return 2
    if args.replicas and not sharded:
        print("--replicas requires --shards > 1: a standby tails the WAL "
              "of a forked primary", file=sys.stderr)
        return 2
    try:
        if sharded:
            service = _build_sharded_service(args, knobs)
        else:
            service = SimilarityService.from_bundle(
                args.bundle, ServingConfig(**knobs),
                durable_dir=args.durable_dir)
    except (BundleError, ConfigurationError, OSError, ValueError) as exc:
        print(f"cannot load bundle {args.bundle!r}: {exc}", file=sys.stderr)
        return 2
    with service:
        served = service.warmup()
        tier = f"{args.shards}-shard" if sharded else "single-process"
        print(f"loaded bundle {args.bundle} as a {tier} service "
              f"(store size {service.size()}, "
              f"dim {service.model.config.embedding_dim}, "
              f"measure {service.model.config.measure}); "
              f"warmup ran {served} queries")
        port = 0 if args.once and args.port is None else (args.port or 8080)
        server = make_server(service, host=args.host, port=port,
                             quiet=args.once)
        try:
            if args.once:
                import threading
                thread = threading.Thread(target=server.serve_forever,
                                          daemon=True)
                thread.start()
                print(f"serving once at {server.url}")
                try:
                    return _self_test(server, service)
                finally:
                    server.shutdown()
                    thread.join(timeout=10)
            print(f"serving at {server.url} (Ctrl-C to stop)")
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("shutting down")
            return 0
        finally:
            server.server_close()


def _cmd_index_build(args: argparse.Namespace) -> int:
    import numpy as np

    from .exceptions import ConfigurationError
    from .index.ann import IVFConfig, IVFIndex
    from .serving.bundle import BundleError, load_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (BundleError, OSError) as exc:
        print(f"cannot load bundle {args.bundle!r}: {exc}", file=sys.stderr)
        return 2
    store = bundle.store
    if len(store) == 0:
        print(f"bundle {args.bundle!r} has an empty store — nothing to "
              f"index", file=sys.stderr)
        return 2
    try:
        config = IVFConfig(nlist=args.nlist, nprobe=args.nprobe,
                           quantize=not args.no_int8, seed=args.seed)
    except ConfigurationError as exc:
        print(f"bad index configuration: {exc}", file=sys.stderr)
        return 2
    print(f"building IVF index over {len(store)} embeddings "
          f"(dim {store.model.config.embedding_dim}) ...")
    index = IVFIndex.build(
        np.asarray(store.ids, dtype=np.int64),
        np.ascontiguousarray(store.embeddings, dtype=np.float32), config)
    index.save(args.out)
    stats = index.stats()
    print(f"wrote {args.out}: nlist={stats['nlist']} "
          f"(cells {stats['cell_min']}..{stats['cell_max']}, "
          f"mean {stats['cell_mean']:.1f}), "
          f"quantize={stats['quantize']}, rows={stats['ntotal']}")
    return 0


def _cmd_index_stats(args: argparse.Namespace) -> int:
    import json

    from .exceptions import CorruptArtifactError
    from .index.ann import IVFIndex

    try:
        index = IVFIndex.load(args.index, mmap=True, verify=args.verify)
    except (CorruptArtifactError, OSError) as exc:
        print(f"cannot load index {args.index!r}: {exc}", file=sys.stderr)
        return 2
    stats = index.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"IVF index at {args.index}")
    for key in ("dim", "nlist", "nprobe", "quantize", "ntotal", "live",
                "cell_min", "cell_mean", "cell_max"):
        print(f"  {key:<12} {stats[key]}")
    return 0


def _cmd_index_compact(args: argparse.Namespace) -> int:
    from .exceptions import CorruptArtifactError
    from .index.ann import IVFIndex

    try:
        index = IVFIndex.load(args.index, mmap=False, verify=True)
    except (CorruptArtifactError, OSError) as exc:
        print(f"cannot load index {args.index!r}: {exc}", file=sys.stderr)
        return 2
    before = index.stats()
    index.compact()
    out = args.out or args.index
    index.save(out)
    after = index.stats()
    print(f"compacted {args.index} -> {out}: folded "
          f"{before['pending']} pending insert(s), dropped "
          f"{before['tombstones']} tombstone(s) "
          f"({after['ntotal']} rows, {after['nlist']} cells)")
    return 0


def _cmd_shard_split(args: argparse.Namespace) -> int:
    from .serving.bundle import BundleError

    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    try:
        manifest = _split_bundle_store(args.bundle, args.out, args.shards,
                                       args.vnodes)
    except (BundleError, OSError, ValueError) as exc:
        print(f"cannot split bundle {args.bundle!r}: {exc}", file=sys.stderr)
        return 2
    counts = [entry["count"] for entry in manifest["shards"]]
    print(f"wrote {args.out}: {manifest['total_count']} rows "
          f"(dim {manifest['embedding_dim']}) across "
          f"{manifest['num_shards']} partitions, per-shard counts "
          f"{counts}, next_id {manifest['next_id']}")
    return 0


def _cmd_shard_status(args: argparse.Namespace) -> int:
    import json

    from .core.partition import load_partition, load_partition_manifest
    from .exceptions import CorruptArtifactError

    try:
        manifest = load_partition_manifest(args.partitions)
    except CorruptArtifactError as exc:
        print(f"cannot read partitions {args.partitions!r}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        print(f"partitions at {args.partitions}")
        for key in ("schema", "num_shards", "vnodes", "embedding_dim",
                    "total_count", "next_id"):
            print(f"  {key:<14} {manifest[key]}")
        for entry in manifest["shards"]:
            print(f"  shard {entry['shard']:<4} {entry['count']:>10} rows "
                  f"{entry['bytes']:>12} bytes  {entry['file']}")
    if args.verify:
        for entry in manifest["shards"]:
            try:
                load_partition(args.partitions, entry["shard"], verify=True)
            except (CorruptArtifactError, ValueError) as exc:
                print(f"  shard {entry['shard']} FAILED verification: {exc}",
                      file=sys.stderr)
                return 1
        print(f"  verified {manifest['num_shards']} partition file(s) OK")
    return 0


def _cmd_stream_demo(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    import numpy as np

    from .core.config import NeuTrajConfig
    from .core.encoder import TrajectoryEncoder
    from .datasets import Grid
    from .datasets.grid import CoordinateNormalizer
    from .datasets.porto import (PortoConfig, StreamReplayConfig,
                                 generate_porto, replay_stream)
    from .streaming import StreamConfig, StreamIngestor, WindowConfig

    extent = 10_000.0
    dataset = generate_porto(
        PortoConfig(num_trajectories=args.sources, min_points=12,
                    max_points=40, extent=extent), seed=args.seed)
    grid = Grid((0.0, 0.0, extent, extent), cell_size=extent / 25)
    normalizer = CoordinateNormalizer(mean=[extent / 2, extent / 2],
                                      std=[extent / 4, extent / 4])
    encoder = TrajectoryEncoder(
        grid, normalizer,
        NeuTrajConfig(embedding_dim=16, use_sam=True,
                      cell_size=extent / 25, seed=args.seed),
        np.random.default_rng(args.seed))

    arrivals, truth = replay_stream(
        dataset,
        StreamReplayConfig(drop_fraction=0.02, duplicate_fraction=0.05,
                           reorder_fraction=0.10, late_fraction=0.01),
        seed=args.seed)
    print(f"replaying {len(arrivals)} arrivals from {len(truth)} sources "
          f"(2% dropped, 5% duplicated, 10% reordered, 1% late) ...")

    config = StreamConfig(window=WindowConfig(lateness_s=10.0, ttl_s=1e9),
                          sync_encode=True)
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        durable_dir = Path(args.dir) if args.dir else Path(tmp)
        durable_dir.mkdir(parents=True, exist_ok=True)
        ingestor = StreamIngestor(encoder, durable_dir, config)
        for start in range(0, len(arrivals), args.batch):
            ingestor.ingest(arrivals[start:start + args.batch])
        stats = ingestor.stats()
        window = stats["window"]
        print(f"window: {window['window_points']} points in "
              f"{window['segments']} segments, "
              f"watermark={window['watermark']:.1f}s")
        print(f"  applied={window['applied']} "
              f"duplicates={window['duplicates']} "
              f"late_dropped={window['late_dropped']} "
              f"gaps_abandoned={window['gaps_abandoned']}")

        query_points = truth[min(truth)]
        answer = ingestor.query(query_points, k=min(5, stats["store_rows"]))
        print(f"top-{len(answer.segment_ids)} window segments for source "
              f"{min(truth)}: {answer.segment_ids.tolist()} "
              f"(degraded={answer.degraded})")

        from .applications import detect_online_anomalies
        if stats["store_rows"] > 5:
            result = detect_online_anomalies(ingestor, k=5)
            print(f"online anomaly scan: {len(result.anomalies)} segment(s) "
                  f"above the {0.95:.0%} score quantile")

        # Simulated crash: abandon the ingester without snapshotting and
        # recover a fresh one from its WAL alone.
        before = ingestor._window.state_fingerprint()
        ingestor.close()
        recovered = StreamIngestor(encoder, durable_dir, config)
        identical = recovered._window.state_fingerprint() == before
        print(f"crash recovery: replayed "
              f"{recovered.stats()['recovered_points']} acked points from "
              f"the WAL, state identical: {identical}")
        recovered.close()
        if not identical:
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="NeuTraj reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="train + search on synthetic data")
    demo.add_argument("--measure", default="frechet")
    demo.add_argument("--size", type=int, default=120)
    demo.add_argument("--epochs", type=int, default=3)
    demo.set_defaults(func=_cmd_demo)

    measures = sub.add_parser("measures", help="list registered measures")
    measures.set_defaults(func=_cmd_measures)

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", default="smoke",
                            choices=["smoke", "small", "medium"])
    experiment.set_defaults(func=_cmd_experiment)

    serve = sub.add_parser(
        "serve", help="run the online similarity-query service")
    serve.add_argument("--bundle", required=True,
                       help="bundle directory written by save_bundle()")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="listen port (default 8080; --once defaults "
                            "to an ephemeral port)")
    serve.add_argument("--once", action="store_true",
                       help="start, run a loopback self-test, and exit")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="micro-batch size cap (default 16)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch straggler wait (default 2 ms)")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="LRU result-cache entries; 0 disables")
    serve.add_argument("--index", default="exact", choices=["exact", "ivf"],
                       help="store search backend (default exact)")
    serve.add_argument("--nlist", type=int, default=0,
                       help="IVF cells; 0 = auto (~sqrt(N))")
    serve.add_argument("--nprobe", type=int, default=8,
                       help="IVF cells scanned per query (default 8)")
    serve.add_argument("--shards", type=int, default=0,
                       help="fork this many shard worker processes when "
                            "> 1 (default: one shard in process)")
    serve.add_argument("--partitions", default=None,
                       help="partition directory for --shards (default "
                            "<bundle>/partitions-<N>, split on first use)")
    serve.add_argument("--vnodes", type=int, default=64,
                       help="hash-ring virtual nodes per shard when "
                            "splitting (default 64)")
    serve.add_argument("--durable-dir", default=None,
                       help="per-shard WAL + snapshot root: mutations are "
                            "fsynced before they are acked and restarts "
                            "recover them")
    serve.add_argument("--fsync-window-ms", type=float, default=0.0,
                       help="WAL group-commit window; 0 fsyncs every ack "
                            "(default 0)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="warm-standby workers per shard tailing the "
                            "primary's WAL; requires --shards > 1 and "
                            "--durable-dir (default 0)")
    serve.set_defaults(func=_cmd_serve)

    shard_tool = sub.add_parser(
        "shard-tool", help="offline partition management for the sharded "
                           "serving tier")
    shard_sub = shard_tool.add_subparsers(dest="shard_command", required=True)
    split = shard_sub.add_parser(
        "split", help="split a bundle's store into N consistent-hash "
                      "partitions")
    split.add_argument("--bundle", required=True,
                       help="bundle directory written by save_bundle()")
    split.add_argument("--out", required=True,
                       help="output partition directory")
    split.add_argument("--shards", type=int, required=True,
                       help="number of partitions")
    split.add_argument("--vnodes", type=int, default=64,
                       help="hash-ring virtual nodes per shard (default 64)")
    split.set_defaults(func=_cmd_shard_split)
    status = shard_sub.add_parser(
        "status", help="inspect (and optionally verify) a partition "
                       "directory")
    status.add_argument("--partitions", required=True,
                        help="directory written by shard-tool split")
    status.add_argument("--verify", action="store_true",
                        help="sha256-check every partition file")
    status.add_argument("--json", action="store_true",
                        help="emit the manifest as JSON")
    status.set_defaults(func=_cmd_shard_status)

    index = sub.add_parser(
        "index", help="build or inspect an ANN index over a bundle's store")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser(
        "build", help="build an IVF index from a bundle's embedding store")
    build.add_argument("--bundle", required=True,
                       help="bundle directory written by save_bundle()")
    build.add_argument("--out", required=True,
                       help="output index directory")
    build.add_argument("--nlist", type=int, default=0,
                       help="k-means cells; 0 = auto (~sqrt(N))")
    build.add_argument("--nprobe", type=int, default=8,
                       help="default cells scanned per query")
    build.add_argument("--no-int8", action="store_true",
                       help="store float32 vectors only (no int8 codes)")
    build.add_argument("--seed", type=int, default=0,
                       help="k-means RNG seed (default 0)")
    build.set_defaults(func=_cmd_index_build)
    stats = index_sub.add_parser(
        "stats", help="inspect a saved IVF index directory")
    stats.add_argument("--index", required=True,
                       help="index directory written by `repro index build`")
    stats.add_argument("--json", action="store_true",
                       help="emit the raw stats dict as JSON")
    stats.add_argument("--no-verify", dest="verify", action="store_false",
                       help="skip the sha256 check (keeps a cold open lazy)")
    stats.set_defaults(func=_cmd_index_stats)
    compact = index_sub.add_parser(
        "compact", help="fold a saved index's pending inserts/tombstones "
                        "into the contiguous layout")
    compact.add_argument("--index", required=True,
                         help="index directory written by `repro index "
                              "build` (rewritten in place unless --out)")
    compact.add_argument("--out", default=None,
                         help="write the compacted index here instead of "
                              "in place")
    compact.set_defaults(func=_cmd_index_compact)

    stream_demo = sub.add_parser(
        "stream-demo",
        help="run the fault-tolerant streaming ingest tier end to end")
    stream_demo.add_argument("--sources", type=int, default=12,
                             help="fleet size (default 12 sources)")
    stream_demo.add_argument("--batch", type=int, default=32,
                             help="points per ingest batch / WAL record "
                                  "(default 32)")
    stream_demo.add_argument("--seed", type=int, default=0,
                             help="replay + encoder RNG seed (default 0)")
    stream_demo.add_argument("--dir", default=None,
                             help="durable directory for WAL + snapshots "
                                  "(default: a temporary directory)")
    stream_demo.set_defaults(func=_cmd_stream_demo)

    from .analysis import cli as check_cli

    check = sub.add_parser("check", help="run the project static analysis",
                           description=check_cli.DESCRIPTION)
    check_cli.add_arguments(check)
    check.set_defaults(func=check_cli.run)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early; not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
