"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/system/compare.py --a BASE... --b CANDIDATE...

Each argument is a report written by ``run.py --out`` (one report or a
list of them) or a directory of such files. For every workload and
end-to-end metric the tool prints each side's median and quartiles and a
verdict against the bound in ``BENCHMARK.json``:

``worse``         the candidate's median is worse by more than the bound
``better``        it is better by more than the spread of the base's runs
``within-bound``  neither
``unresolved``    a side's spread (quartile distance / median) exceeds the
                  bound, so the runs cannot tell — unless every candidate
                  run is on the same side of every base run

The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from common import REPO_ROOT, quartile_spread


def load_reports(paths):
    """Untraced, comparable reports from files and directories."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    reports = []
    for file in files:
        loaded = json.loads(file.read_text())
        reports.extend(loaded if isinstance(loaded, list) else [loaded])
    skipped = [r for r in reports if not r.get("comparable", True)]
    if skipped:
        print(f"ignoring {len(skipped)} --quick report(s): not comparable",
              file=sys.stderr)
    return [r for r in reports
            if r.get("comparable", True) and not r.get("trace")]


def values_by_pair(reports):
    """``{(workload, metric): [value per run]}``."""
    grouped = defaultdict(list)
    for report in reports:
        for name, metric in report["result"]["metrics"].items():
            grouped[report["workload"], name].append(metric["value"])
    return grouped


def verdict(base, candidate, better, bound):
    """One of the four verdicts for a metric's two sets of run values."""
    if len(base) < 2 or len(candidate) < 2:
        return "unresolved"
    base_median, _, _, base_spread = quartile_spread(base)
    candidate_median, _, _, candidate_spread = quartile_spread(candidate)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (candidate_median - base_median) / base_median
    gaps = [sign * (c - b) for c in candidate for b in base]
    one_sided = all(gap > 0 for gap in gaps) or all(gap < 0 for gap in gaps)
    if max(base_spread, candidate_spread) > bound and not one_sided:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > base_spread:
        return "better"
    return "within-bound"


def _quartiles(values):
    if len(values) < 2:
        return f"{values[0]:.4g} (1 run)"
    median, q1, q3, _ = quartile_spread(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_reports, candidate_reports, spec):
    """Rows ``(workload, metric, base, candidate, verdict)``."""
    base = values_by_pair(base_reports)
    candidate = values_by_pair(candidate_reports)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = workload, metric["name"]
            if key not in base or key not in candidate:
                continue
            rows.append((workload, metric["name"], _quartiles(base[key]),
                         _quartiles(candidate[key]),
                         verdict(base[key], candidate[key], metric["better"],
                                 metric["bound"])))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True,
                        help="base runs: report files or directories")
    parser.add_argument("--b", nargs="+", required=True,
                        help="candidate runs: report files or directories")
    args = parser.parse_args(argv)
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    rows = compare(load_reports(args.a), load_reports(args.b), spec)
    if not rows:
        print("no workload and metric appear on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<28} "
          f"{'candidate median [q1, q3]':<28} verdict")
    for workload, metric, base, candidate, outcome in rows:
        print(f"{workload:<14} {metric:<12} {base:<28} {candidate:<28} "
              f"{outcome}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
