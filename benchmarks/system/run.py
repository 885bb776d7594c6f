"""The repository's system benchmark: one command, four workloads.

    python3 benchmarks/system/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--quick]

Without ``--workload`` every workload runs in its own child interpreter,
untraced and then traced. One workload prints its checks and metrics and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The exit code is non-zero when an
oracle check fails. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from common import (REPO_ROOT, SETUP_REPEATS, add_src_to_path,
                    env_fingerprint, work_dir)
from tracer import START, Tracer

WORKLOADS = ("http_topk", "sharded_mixed", "stream_ingest", "train_fit")
SCHEMA = "repro.sysbench.v1"
#: A run must end within the driver's 180 s; stop cleanly before that.
WALL_CLOCK_CAP_S = 170


class WallClockExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise WallClockExceeded(f"workload exceeded {WALL_CLOCK_CAP_S} s")


def _on_terminate(signum, frame):
    raise SystemExit(143)  # unwinds through every exit stack


def load_spec():
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _timed_setup(module, seed, sizes, stack, traced):
    began = time.perf_counter()
    world = module.make_inputs(seed, sizes)
    module.start(world, stack, traced)
    return world, time.perf_counter() - began


def _one_pass(module, seed, sizes, seconds, tracer):
    """Set up, measure and check once; returns what the pass found."""
    with ExitStack() as stack:
        world, setup_s = _timed_setup(module, seed, sizes, stack,
                                      tracer is not None)
        load = module.measure(world, seconds, tracer)
        if tracer is not None and hasattr(module, "collect_spans"):
            module.collect_spans(world, tracer)
        found = {"load": load, "setup_s": setup_s,
                 "checks": module.check(load, world),
                 "end_to_end": module.end_to_end(load, world)}
        if tracer is not None:
            spans = [span for span in tracer.spans
                     if span[START] >= load.start]
            found["layers"] = dict(
                module.layers(load, world, spans),
                **{"trace.spans": len(spans),
                   "loadgen.cpu_share": load.cpu_seconds / load.seconds,
                   "loadgen.op_p95_ms": found["end_to_end"]["op_p95_ms"]})
    return found


def run_workload(name, seed, seconds, trace, quick):
    """Run one workload; returns its report (see ``SCHEMA``)."""
    spec = load_spec()
    module = importlib.import_module(name)
    sizes = module.SIZES["quick" if quick else "full"]
    setups = []
    if not trace:
        # Set-up time is one sample per set-up, so set up several times
        # and report the median; only the last one is measured against.
        for _ in range(SETUP_REPEATS - 1):
            with ExitStack() as stack:
                setups.append(_timed_setup(module, seed, sizes, stack,
                                           False)[1])
    plain = _one_pass(module, seed, sizes,
                      seconds / 2 if trace else seconds, None)
    passes = [plain]
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = _one_pass(module, seed, sizes, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        values = dict(traced["layers"])
        values["trace.missing"] = len(tracer.missing)
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - traced["end_to_end"]["ops_per_s"]
            / plain["end_to_end"]["ops_per_s"])
        listed = spec["per_layer"]
        unknown = sorted(set(values) - {m["name"] for m in listed})
        if unknown:
            raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
        # A layer this workload does not reach did no work: its counts and
        # times are 0 here (and so are those of a target in trace.missing).
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in listed}
    else:
        values = dict(plain["end_to_end"],
                      setup_s=statistics.median(setups + [plain["setup_s"]]))
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    checks = [check for found in passes for check in found["checks"]]
    kinds = Counter(sample.kind for sample in passes[-1]["load"].samples)
    return {
        "schema": SCHEMA, "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "comparable": not quick,
        "env": env_fingerprint(seed),
        "checks": [{"name": c.name, "ok": bool(c.ok), "detail": c.detail}
                   for c in checks],
        "samples": dict(kinds),
        # Measured but not gated: too unsteady on a shared box for a bound.
        "info": {"op_p95_ms": passes[-1]["end_to_end"]["op_p95_ms"]},
        "absent": list(tracer.missing) if trace else [],
        "errors": [e for found in passes for e in found["load"].errors],
        "result": {
            "correct": all(c.ok for c in checks),
            "attempted": sum(f["load"].attempted for f in passes),
            "failed": sum(f["load"].failed for f in passes),
            "metrics": metrics,
        },
    }


def print_report(report):
    result = report["result"]
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['seconds']:g} s  trace {report['trace']}"
          + ("" if report["comparable"]
             else "  [--quick: NOT comparable with full runs]"))
    print("env: " + "  ".join(f"{key}={value}" for key, value
                              in report["env"].items()))
    for check in report["checks"]:
        print(f"[{'ok' if check['ok'] else 'FAIL'}] {check['name']}: "
              f"{check['detail']}")
    for error in report["errors"]:
        print(f"operation error: {error}")
    print("samples (measured phase): "
          + "  ".join(f"{kind}={count}" for kind, count
                      in sorted(report["samples"].items())))
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"error_rate {result['failed'] / max(result['attempted'], 1):.4f}")
    for name, value in report["info"].items():
        print(f"info (no bound): {name} {value:.4f}")
    if report["absent"]:
        print("trace.missing (metrics below read as absent): "
              + ", ".join(report["absent"]))
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")


def run_all(args):
    """Each workload in a fresh interpreter; returns (reports, exit code)."""
    passes = (0, 1) if args.trace is None else (args.trace,)
    reports, code = [], 0
    with work_dir("reports") as directory:
        for name in WORKLOADS:
            for trace in passes:
                out = directory / f"{name}-{trace}.json"
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", str(out)]
                if args.quick:
                    command.append("--quick")
                child = subprocess.run(command, check=False)
                code = code or child.returncode
                if out.exists():
                    reports.append(json.loads(out.read_text()))
    return reports, code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 = traced run, prints the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full report(s) as JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-tests; the numbers "
                             "are not comparable with full runs")
    args = parser.parse_args(argv)
    add_src_to_path()
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    previous = {number: signal.signal(number, handler) for number, handler
                in ((signal.SIGTERM, _on_terminate),
                    (signal.SIGALRM, _on_alarm))}
    try:
        if args.workload is None:
            reports, code = run_all(args)
            if args.out is not None:
                args.out.write_text(json.dumps(reports, indent=1) + "\n")
            return code
        signal.alarm(WALL_CLOCK_CAP_S)
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.quick)
    except WallClockExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        for number, handler in previous.items():
            signal.signal(number, handler)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps(report["result"]), flush=True)
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
