#!/usr/bin/env python
"""Guard against kernel and serving performance regressions.

Re-runs the committed micro-benchmarks and compares against their
baselines. Exits non-zero when

* any kernel's fresh ``after_s`` is more than ``--threshold`` (default
  1.5×) slower than the committed ``benchmarks/BENCH_kernels.json``, or
  any kernel's old/new equivalence check fails, or a single-row store
  mutation costs more than 3x as much on 100 000 rows as on 1 000
  (``store_mutation``'s ``flat_in_n``);
* the serving layer's fresh 16-client throughput falls below the
  committed ``benchmarks/BENCH_serving.json`` by more than the threshold,
  its micro-batched speedup over serial drops under the 2× acceptance
  floor, or the service stops answering identically to the offline store;
* the sanitize benchmark (``benchmarks/BENCH_sanitize.json``) blows its
  overhead budget (sanitization must stay under 10% of a per-query
  encode), repairs queries to a *worse* top-k hit rate than leaving them
  dirty, or loses sanitized-query quality against the committed
  baseline;
* the ANN benchmark (``benchmarks/BENCH_ann.json``) breaks its
  acceptance contract — the selected 100k operating point falls under
  0.9 recall@10 vs exact or scans more than 10% of the database, the
  1M IVF search drops under 5x the brute-force qps, or its qps
  regresses past the threshold against the committed baseline;
* the sharded-serving benchmark (``benchmarks/BENCH_sharding.json``)
  breaks its acceptance contract — 4-shard top-k throughput at 1M rows
  under 2x the 1-shard run (measured wall qps when the machine has at
  least as many CPUs as shards, otherwise the critical-path projection
  from per-shard CPU time — the report's ``floor_basis``), any sharded
  answer diverging from the single-store exact answer, or throughput
  regressing past the threshold against the committed baseline;
* the durability benchmark (``benchmarks/BENCH_durability.json``)
  breaks its contract — an append acked before its record was fsynced,
  a reopen recovering fewer records than were acked, snapshot recovery
  that is not id-identical (or fails to truncate the WAL), a killed shard that
  is not respawned exactly once or whose retried answer is partial or
  loses acked rows — or WAL replay / restart time regresses past the
  (looser, fsync-noise-tolerant) durability threshold;
* the streaming-ingest benchmark (``benchmarks/BENCH_streaming.json``)
  breaks its contract — a reopen that is not fingerprint-identical to
  the acked window (acked-point loss), window counters that do not add
  up, incremental prefix encoding that diverges from a full re-encode
  or loses its speedup floor — or the ingest rate / p99 freshness /
  crash-recovery time regresses past the (fsync-noise-tolerant)
  streaming threshold.

Wall-clock on shared CPUs is noisy, so the 1.5× threshold is deliberately
loose: it catches "someone un-vectorised the hot path", not 10% jitter.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py
    PYTHONPATH=src python scripts/check_bench_regression.py --only kernels
    PYTHONPATH=src python scripts/check_bench_regression.py --threshold 2.0

The same checks are importable from the optional ``bench_regression``
pytest marker (deselected by default)::

    PYTHONPATH=src python -m pytest -m bench_regression
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "BENCH_kernels.json"
SERVING_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_serving.json"
SANITIZE_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_sanitize.json"
ANN_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_ann.json"
SHARDING_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_sharding.json"
DURABILITY_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_durability.json"
STREAMING_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_streaming.json"
DEFAULT_THRESHOLD = 1.5

#: Acceptance floor: 16-client micro-batched throughput over serial.
SERVING_SPEEDUP_FLOOR = 2.0

#: Absolute hit-rate slack for the sanitize quality guard: tiny workloads
#: quantise hit rates coarsely (1/(queries*k) per hit).
SANITIZE_QUALITY_SLACK = 0.10

#: ANN acceptance contract (ISSUE 6): the selected 100k operating point
#: must recall at least this much of the exact top-10 while scanning at
#: most this fraction of the database, and 1M IVF search must beat the
#: brute-force scan by at least this factor.
ANN_RECALL_FLOOR = 0.9
ANN_SCAN_FRACTION_CEILING = 0.10
ANN_SPEEDUP_FLOOR = 5.0

#: Sharded-serving acceptance floor: 4-shard top-k throughput at 1M rows
#: over the 1-shard run, on the report's ``floor_basis`` (wall qps with
#: enough CPUs, else the critical-path projection from per-shard CPU
#: time — a 1-core runner cannot show a wall-clock parallel speedup).
SHARDING_SPEEDUP_FLOOR = 2.0

#: Timing slack for the durability benchmark: fsync and process-fork
#: latency on shared runners is far noisier than compute kernels, so the
#: wall-clock comparisons run at this threshold; the durability gates
#: themselves (acked == durable, id-identical recovery, zero-loss
#: restart) are hard checks independent of timing.
DURABILITY_TIME_THRESHOLD = 3.0

#: Timing slack for the streaming-ingest benchmark: its ack latencies
#: are fsync-bound like the durability suite's, so the same loosened
#: threshold applies; the functional gates (fingerprint-identical reopen,
#: counters adding up, bit-identical incremental encoding and its
#: speedup floor) are hard checks independent of timing.
STREAMING_TIME_THRESHOLD = 3.0


def _import_bench(module_name: str):
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        return __import__(module_name)
    finally:
        sys.path.pop(0)


# ----------------------------------------------------------------- kernels

#: Kernel rows gated on ``identical`` alone. Every committed timing floor
#: was taken at ``cpu_count = 1`` (ROADMAP); these rows add none.
#: ``store_mutation`` also carries ``flat_in_n`` — its per-mutation time
#: at 100 000 rows within 3x of the one at 1 000, both from the fresh
#: run: the shape of the cost, which no committed number enters.
IDENTITY_ONLY_KERNELS = ("embed_single", "extend_prefix_point",
                         "embed_batch", "prefix_fold_batch",
                         "store_mutation", "ivf_kmeans")


def compare_reports(baseline: dict, fresh: dict,
                    threshold: float = DEFAULT_THRESHOLD) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    for name, base in baseline["kernels"].items():
        entry = fresh["kernels"].get(name)
        if entry is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        if not entry["identical"]:
            failures.append(f"{name}: old/new equivalence check failed")
        if not entry.get("flat_in_n", True):
            failures.append(
                f"{name}: per-mutation time grew "
                f"{entry['after_scaling']:.1f}x from {entry['small_rows']} "
                f"to {entry['rows']} rows — a mutation costs O(N) again")
        if name in IDENTITY_ONLY_KERNELS:
            continue
        slowdown = entry["after_s"] / base["after_s"]
        if slowdown > threshold:
            failures.append(
                f"{name}: after_s {entry['after_s']:.3f}s is "
                f"{slowdown:.2f}x the committed {base['after_s']:.3f}s "
                f"(threshold {threshold:.2f}x)")
    return failures


def run_check(threshold: float = DEFAULT_THRESHOLD) -> list:
    """Run the kernel benchmarks and compare against the committed baseline."""
    bench_kernels = _import_bench("bench_kernels")
    baseline = json.loads(BASELINE.read_text())
    fresh = bench_kernels.run_all()
    return compare_reports(baseline, fresh, threshold)


# ----------------------------------------------------------------- serving

def compare_serving_reports(baseline: dict, fresh: dict,
                            threshold: float = DEFAULT_THRESHOLD) -> list:
    """Failure strings for the serving benchmark (empty = pass)."""
    failures = []
    fresh_results = fresh["results"]
    base_results = baseline["results"]
    if not fresh_results.get("identical", False):
        failures.append(
            "serving: service answers diverged from the offline store")
    speedup = fresh_results["speedup_16_vs_serial"]
    if speedup < SERVING_SPEEDUP_FLOOR:
        failures.append(
            f"serving: micro-batched speedup {speedup:.2f}x is under the "
            f"{SERVING_SPEEDUP_FLOOR:.1f}x floor")
    top = str(max(fresh["config"]["concurrency"]))
    fresh_qps = fresh_results["service"][top]["qps"]
    base_qps = base_results["service"][top]["qps"]
    if fresh_qps * threshold < base_qps:
        failures.append(
            f"serving: {top}-client throughput {fresh_qps:.0f} qps is "
            f"{base_qps / fresh_qps:.2f}x under the committed "
            f"{base_qps:.0f} qps (threshold {threshold:.2f}x)")
    return failures


def run_serving_check(threshold: float = DEFAULT_THRESHOLD) -> list:
    """Run the serving benchmark and compare against the committed baseline."""
    bench_serving = _import_bench("bench_serving")
    baseline = json.loads(SERVING_BASELINE.read_text())
    fresh = bench_serving.run_all()
    return compare_serving_reports(baseline, fresh, threshold)


# ---------------------------------------------------------------- sanitize

def compare_sanitize_reports(baseline: dict, fresh: dict) -> list:
    """Failure strings for the sanitize benchmark (empty = pass).

    The overhead budget and the quality ordering are hard checks on the
    fresh run; the sanitized hit rate is additionally compared to the
    committed baseline with an absolute slack.
    """
    failures = []
    overhead = fresh["results"]["overhead"]
    quality = fresh["results"]["quality"]
    if not overhead["within_budget"]:
        failures.append(
            f"sanitize: overhead ratio {overhead['overhead_ratio']:.3f} "
            f"blows the {overhead['budget']:.2f} per-query encode budget")
    if quality["hit_rate_sanitized"] < quality["hit_rate_dirty"]:
        failures.append(
            "sanitize: sanitized queries rank worse than the dirty ones "
            f"({quality['hit_rate_sanitized']:.3f} < "
            f"{quality['hit_rate_dirty']:.3f})")
    if not quality["recovered"]:
        failures.append(
            "sanitize: repair did not recover top-k quality to within "
            "slack of the clean queries")
    base_hit = baseline["results"]["quality"]["hit_rate_sanitized"]
    fresh_hit = quality["hit_rate_sanitized"]
    if fresh_hit < base_hit - SANITIZE_QUALITY_SLACK:
        failures.append(
            f"sanitize: sanitized hit rate {fresh_hit:.3f} fell more than "
            f"{SANITIZE_QUALITY_SLACK:.2f} under the committed "
            f"{base_hit:.3f}")
    return failures


def run_sanitize_check() -> list:
    """Run the sanitize benchmark and compare against the baseline."""
    bench_sanitize = _import_bench("bench_sanitize")
    baseline = json.loads(SANITIZE_BASELINE.read_text())
    fresh = bench_sanitize.run_all()
    return compare_sanitize_reports(baseline, fresh)


# --------------------------------------------------------------------- ann

def compare_ann_reports(baseline: dict, fresh: dict,
                        threshold: float = DEFAULT_THRESHOLD) -> list:
    """Failure strings for the ANN benchmark (empty = pass).

    The recall/scan/speedup floors are hard acceptance checks on the
    fresh run; the 1M IVF qps is additionally compared to the committed
    baseline with the (loose) timing threshold.
    """
    failures = []
    selected = fresh["results"]["recall_100k"]["selected"]
    qps = fresh["results"]["qps_1m"]
    if selected["recall_at_10"] < ANN_RECALL_FLOOR:
        failures.append(
            f"ann: recall@10 {selected['recall_at_10']:.3f} at the selected "
            f"100k operating point is under the {ANN_RECALL_FLOOR:.2f} floor")
    if selected["scanned_fraction"] > ANN_SCAN_FRACTION_CEILING:
        failures.append(
            f"ann: selected operating point scans "
            f"{selected['scanned_fraction']:.1%} of the database "
            f"(ceiling {ANN_SCAN_FRACTION_CEILING:.0%})")
    if qps["speedup"] < ANN_SPEEDUP_FLOOR:
        failures.append(
            f"ann: 1M IVF speedup {qps['speedup']:.1f}x over brute force is "
            f"under the {ANN_SPEEDUP_FLOOR:.1f}x floor")
    base_qps = baseline["results"]["qps_1m"]["ivf_qps"]
    fresh_qps = qps["ivf_qps"]
    if fresh_qps * threshold < base_qps:
        failures.append(
            f"ann: 1M IVF throughput {fresh_qps:.0f} qps is "
            f"{base_qps / fresh_qps:.2f}x under the committed "
            f"{base_qps:.0f} qps (threshold {threshold:.2f}x)")
    return failures


def run_ann_check(threshold: float = DEFAULT_THRESHOLD) -> list:
    """Run the ANN benchmark and compare against the committed baseline."""
    bench_ann = _import_bench("bench_table5_indexed_search")
    baseline = json.loads(ANN_BASELINE.read_text())
    fresh = bench_ann.run_all()
    return compare_ann_reports(baseline, fresh, threshold)


# ---------------------------------------------------------------- sharding

def compare_sharding_reports(baseline: dict, fresh: dict,
                             threshold: float = DEFAULT_THRESHOLD) -> list:
    """Failure strings for the sharded-serving benchmark (empty = pass)."""
    failures = []
    fresh_results = fresh["results"]
    if not fresh_results.get("identical", False):
        failures.append(
            "sharding: sharded answers diverged from the single-store "
            "exact answers")
    basis = fresh.get("floor_basis", "projected")
    speedup = fresh_results["speedup_4_vs_1_at_1m"]
    if speedup < SHARDING_SPEEDUP_FLOOR:
        failures.append(
            f"sharding: 4-shard speedup at 1M is {speedup:.2f}x "
            f"({basis} basis) — under the {SHARDING_SPEEDUP_FLOOR:.1f}x "
            f"floor")
    basis_key = "wall_qps" if basis == "wall" else "projected_qps"
    fresh_qps = fresh_results["1m"]["4"][basis_key]
    base_qps = baseline["results"]["1m"]["4"][basis_key]
    if fresh_qps * threshold < base_qps:
        failures.append(
            f"sharding: 4-shard 1M throughput {fresh_qps:.1f} qps "
            f"({basis_key}) is {base_qps / fresh_qps:.2f}x under the "
            f"committed {base_qps:.1f} qps (threshold {threshold:.2f}x)")
    return failures


def run_sharding_check(threshold: float = DEFAULT_THRESHOLD) -> list:
    """Run the sharded bench and compare against the committed baseline."""
    bench_sharding = _import_bench("bench_sharded_serving")
    baseline = json.loads(SHARDING_BASELINE.read_text())
    fresh = bench_sharding.run_all()
    return compare_sharding_reports(baseline, fresh, threshold)


# ------------------------------------------------------------- durability

def compare_durability_reports(baseline: dict, fresh: dict,
                               threshold: float = DURABILITY_TIME_THRESHOLD
                               ) -> list:
    """Failure strings for the durability benchmark (empty = pass)."""
    failures = []
    results = fresh["results"]
    append = results["append"]
    if not append.get("durable_ok", False):
        failures.append(
            "durability: an append was acked before its fsync — an acked "
            "write could be lost on crash")
    if append["recovered"] != append["acked"]:
        failures.append(
            f"durability: recovered {append['recovered']} of "
            f"{append['acked']} acked records after reopen")

    recovery = results["recovery"]
    if not recovery.get("id_identical", False):
        failures.append(
            "durability: snapshot-recovered store is not id-identical to "
            "the WAL-replayed one")
    if recovery["post_snapshot_replayed"] != 0:
        failures.append(
            f"durability: {recovery['post_snapshot_replayed']} WAL records "
            f"survived snapshot truncation (expected 0)")
    base_replay = baseline["results"]["recovery"]["wal_replay_s"]
    if recovery["wal_replay_s"] > base_replay * threshold:
        failures.append(
            f"durability: WAL replay took {recovery['wal_replay_s']:.3f}s, "
            f"{recovery['wal_replay_s'] / base_replay:.2f}x over the "
            f"committed {base_replay:.3f}s (threshold {threshold:.1f}x)")

    restart = results["restart"]
    if restart["partial"]:
        failures.append(
            "durability: the answer after a shard kill was partial — the "
            "dead shard was not respawned and retried")
    if restart["restarts"] != 1:
        failures.append(
            f"durability: {restart['restarts']} restarts recorded for "
            f"one shard kill (expected 1)")
    if restart["acked_lost"] != 0:
        failures.append(
            f"durability: {restart['acked_lost']} acked rows lost across "
            f"the restart")
    base_restart = baseline["results"]["restart"]["restart_s"]
    if restart["restart_s"] > base_restart * threshold:
        failures.append(
            f"durability: restart took {restart['restart_s']:.3f}s, "
            f"{restart['restart_s'] / base_restart:.2f}x over the "
            f"committed {base_restart:.3f}s (threshold {threshold:.1f}x)")
    return failures


def run_durability_check(threshold: float = DURABILITY_TIME_THRESHOLD
                         ) -> list:
    """Run the durability bench and compare against the committed baseline."""
    bench_durability = _import_bench("bench_durability")
    baseline = json.loads(DURABILITY_BASELINE.read_text())
    fresh = bench_durability.run_all()
    return compare_durability_reports(baseline, fresh, threshold)


# --------------------------------------------------------------- streaming

def compare_streaming_reports(baseline: dict, fresh: dict,
                              threshold: float = STREAMING_TIME_THRESHOLD
                              ) -> list:
    """Failure strings for the streaming-ingest benchmark (empty = pass)."""
    failures = []
    results = fresh["results"]

    ingest = results["ingest"]
    if not ingest.get("durable_ok", False):
        failures.append(
            "streaming: reopening the ingester did not recover a "
            "fingerprint-identical window — an acked point could be lost")
    if not ingest.get("counters_add_up", False):
        failures.append(
            "streaming: window applied+buffered counters disagree with the "
            "acked-point total — points were silently dropped or recounted")
    base_rate = baseline["results"]["ingest"]["points_per_s"]
    if ingest["points_per_s"] * threshold < base_rate:
        failures.append(
            f"streaming: ingest rate {ingest['points_per_s']:.0f} points/s "
            f"fell {base_rate / ingest['points_per_s']:.2f}x under the "
            f"committed {base_rate:.0f} (threshold {threshold:.1f}x)")
    base_p99 = baseline["results"]["ingest"]["freshness_p99_s"]
    if ingest["freshness_p99_s"] > base_p99 * threshold:
        failures.append(
            f"streaming: p99 point-to-queryable freshness "
            f"{ingest['freshness_p99_s'] * 1e3:.1f}ms is "
            f"{ingest['freshness_p99_s'] / base_p99:.2f}x over the "
            f"committed {base_p99 * 1e3:.1f}ms (threshold {threshold:.1f}x)")

    incremental = results["incremental"]
    if not incremental.get("bit_identical", False):
        failures.append(
            "streaming: extend_prefix diverged from a full re-encode — "
            "incremental embeddings are no longer bit-identical")
    floor = fresh["config"]["incremental_speedup_floor"]
    if incremental["speedup"] < floor:
        failures.append(
            f"streaming: incremental encode only {incremental['speedup']:.1f}x "
            f"faster than full re-encode (floor {floor:.1f}x) — the "
            f"O(new points) path is gone")

    recovery = results["recovery"]
    if recovery["window_points"] == 0:
        failures.append(
            "streaming: recovery replayed an empty window — the WAL suffix "
            "was not applied")
    base_recovery = baseline["results"]["recovery"]["recovery_s"]
    if recovery["recovery_s"] > base_recovery * threshold:
        failures.append(
            f"streaming: crash recovery took {recovery['recovery_s']:.3f}s, "
            f"{recovery['recovery_s'] / base_recovery:.2f}x over the "
            f"committed {base_recovery:.3f}s (threshold {threshold:.1f}x)")
    return failures


def run_streaming_check(threshold: float = STREAMING_TIME_THRESHOLD) -> list:
    """Run the streaming bench and compare against the committed baseline."""
    bench_streaming = _import_bench("bench_streaming")
    baseline = json.loads(STREAMING_BASELINE.read_text())
    fresh = bench_streaming.run_all()
    return compare_streaming_reports(baseline, fresh, threshold)


# -------------------------------------------------------------------- main

KNOWN_SUITES = ("kernels", "serving", "sanitize", "ann", "sharding",
                "durability", "streaming")


def _parse_only(raw: str) -> set:
    """``--only`` value -> suite set; accepts a comma-separated list.

    ``--only ann,sharding`` checks exactly those two suites; ``all``
    (alone or in a list) selects every suite. Unknown names raise
    ``ValueError`` listing the valid ones.
    """
    wanted = {part.strip() for part in raw.split(",") if part.strip()}
    if not wanted:
        raise ValueError("--only got an empty suite list")
    unknown = wanted - set(KNOWN_SUITES) - {"all"}
    if unknown:
        raise ValueError(
            f"unknown suite(s) {sorted(unknown)}; "
            f"valid: {', '.join(KNOWN_SUITES)}, all")
    if "all" in wanted:
        return set(KNOWN_SUITES)
    return wanted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="max allowed slowdown vs the committed baseline "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--only", default="all",
                        help="comma-separated suites to check "
                             f"({', '.join(KNOWN_SUITES)}, or 'all'; "
                             f"default all)")
    args = parser.parse_args(argv)
    try:
        selected = _parse_only(args.only)
    except ValueError as exc:
        parser.error(str(exc))

    failures = []
    if "kernels" in selected:
        if not BASELINE.exists():
            print(f"no committed baseline at {BASELINE}")
            return 1
        failures += run_check(args.threshold)
    if "serving" in selected:
        if not SERVING_BASELINE.exists():
            print(f"no committed baseline at {SERVING_BASELINE}")
            return 1
        failures += run_serving_check(args.threshold)
    if "sanitize" in selected:
        if not SANITIZE_BASELINE.exists():
            print(f"no committed baseline at {SANITIZE_BASELINE}")
            return 1
        failures += run_sanitize_check()
    if "ann" in selected:
        if not ANN_BASELINE.exists():
            print(f"no committed baseline at {ANN_BASELINE}")
            return 1
        failures += run_ann_check(args.threshold)
    if "sharding" in selected:
        if not SHARDING_BASELINE.exists():
            print(f"no committed baseline at {SHARDING_BASELINE}")
            return 1
        failures += run_sharding_check(args.threshold)
    if "durability" in selected:
        if not DURABILITY_BASELINE.exists():
            print(f"no committed baseline at {DURABILITY_BASELINE}")
            return 1
        failures += run_durability_check(
            max(args.threshold, DURABILITY_TIME_THRESHOLD))
    if "streaming" in selected:
        if not STREAMING_BASELINE.exists():
            print(f"no committed baseline at {STREAMING_BASELINE}")
            return 1
        failures += run_streaming_check(
            max(args.threshold, STREAMING_TIME_THRESHOLD))

    if failures:
        print("PERFORMANCE REGRESSION:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("all benchmarks within threshold of the committed baselines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
