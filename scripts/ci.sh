#!/usr/bin/env bash
# The full local CI gate, in the order that fails fastest:
#
#   1. static analysis  — python -m repro check src: the per-file rules
#      and the whole-program ones (lockset races, resource-leak
#      tracking) in one pass; exit 1 on any unsuppressed finding (see
#      DESIGN.md "Static analysis")
#   2. tier-1 tests     — the default pytest selection (which itself
#      re-runs the analysis gate via tests/analysis/test_lint_clean.py)
#   3. fuzz smoke       — metamorphic invariant sweep over every
#      registered measure with a bigger seeded budget than the tier-1
#      fuzz tests use
#   4. perf smoke       — the kernel bench-regression guard against the
#      committed baseline
#   5. ANN gate         — IVF recall@10/scan-fraction/qps acceptance
#      floors at 100k/1M synthetic embeddings (BENCH_ann.json)
#   6. sharding gate    — scatter-gather tier: 4-shard-vs-1-shard
#      throughput floor at 1M rows and id-identity against the exact
#      single store (BENCH_sharding.json)
#   7. durability gate  — WAL append acks are fsynced, snapshot
#      recovery is id-identical, a SIGKILLed shard is respawned once
#      from snapshot + WAL and its retried query answers complete with
#      zero acked writes lost (BENCH_durability.json)
#   8. streaming gate   — zero acked-point loss, bit-identical
#      incremental encoding and reopen, freshness/speedup floors
#      (BENCH_streaming.json)
#   9. system benchmark guard — the harness's own tests, then one quick
#      traced run each of http_topk, sharded_mixed and stream_ingest
#      (six of the tracer's targets are exercised by stream_ingest
#      alone): every oracle check passes and every span target still
#      resolves (trace.missing = 0), so a serving or streaming refactor
#      cannot silently orphan what benchmarks/system measures. Not a
#      timing gate.
#
# Usage: scripts/ci.sh [pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "==> static analysis (python -m repro check src)"
python -m repro check src

echo "==> tier-1 tests (pytest)"
python -m pytest -x -q "$@"

echo "==> fuzz smoke (metamorphic invariants, all measures)"
python - <<'PY'
from repro.measures import available_measures, get_measure
from repro.testing import check_measure_invariants

failures = []
for name in available_measures():
    failures += check_measure_invariants(get_measure(name),
                                         seed=2026, count=8)
if failures:
    raise SystemExit("fuzz smoke FAILED:\n" + "\n".join(failures))
print(f"fuzz smoke: {len(available_measures())} measures clean")
PY

echo "==> bench regression smoke (kernels only)"
python scripts/check_bench_regression.py --only kernels

echo "==> ANN recall/qps gate (IVF vs exact at 100k/1M)"
python scripts/check_bench_regression.py --only ann

echo "==> sharded serving gate (4-shard speedup + id-identity at 1M)"
python scripts/check_bench_regression.py --only sharding

echo "==> durability gate (WAL acks, recovery identity, restart loss)"
python scripts/check_bench_regression.py --only durability

echo "==> streaming gate (acked-loss, incremental identity, freshness)"
python scripts/check_bench_regression.py --only streaming

echo "==> system benchmark guard (harness tests + quick traced runs)"
python -m pytest -q benchmarks/system/tests
for workload in http_topk sharded_mixed stream_ingest; do
    python benchmarks/system/run.py --workload "$workload" --quick \
        --trace 1 --seconds 3 | tail -n 1 | python -c '
import json, sys
workload = sys.argv[1]
result = json.loads(sys.stdin.readline())
correct = result["correct"]
missing = result["metrics"]["trace.missing"]["value"]
if correct is not True or missing != 0:
    raise SystemExit(f"{workload}: correct={correct}, "
                     f"trace.missing={missing}")
print(f"{workload}: correct, every span target resolves")
' "$workload"
done

echo "ci.sh: all gates passed"
