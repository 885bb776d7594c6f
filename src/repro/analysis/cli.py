"""``python -m repro check``: the one entry point of the analyzer.

Exit codes: ``0`` clean (no unsuppressed findings), ``1`` findings,
``2`` usage or I/O error. ``--json`` emits a machine-readable report.
``--stale-pragmas`` reports the same run the other way round: every
``# repro: disable`` pragma that suppressed nothing, exit 1 if there is
one.

:func:`add_arguments` / :func:`run` are what ``repro.__main__`` mounts as
its ``check`` subcommand; :func:`main` is the same parser standing alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .config import default_config, relaxed_config
from .engine import AnalysisResult, check_paths
from .rules import all_rules

DESCRIPTION = ("Project-specific static analysis: tape, dtype, "
               "determinism, durability, exception and API discipline "
               "per file; lockset races and resource leaks across the "
               "program.")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--relaxed", action="store_true",
                        help="use the relaxed (benchmarks) profile: "
                             "determinism and dtype rules off")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON report instead of text")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--stale-pragmas", action="store_true",
                        help="audit suppressions: report pragmas that "
                             "no longer suppress any finding; exit 1 if "
                             "any are stale")


def _print_report(result: AnalysisResult, as_json: bool) -> None:
    if as_json:
        payload = {
            "findings": [f.to_json() for f in result.findings],
            "suppressed": result.suppressed,
            "files_checked": result.files_checked,
            "clean": result.clean,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for finding in result.findings:
        print(finding.format())
    print(result.summary(), file=sys.stderr)


def _print_stale_report(result: AnalysisResult, as_json: bool) -> int:
    """Pragmas the run did not need; the exit code."""
    stale_pragmas = result.stale_pragmas()
    if as_json:
        payload = {
            "stale_pragmas": [
                {"path": path, "line": entry.source_line,
                 "pragma": entry.text}
                for path, entry in stale_pragmas],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for path, entry in stale_pragmas:
            print(f"{path}:{entry.source_line}: stale pragma "
                  f"`{entry.text}` suppresses nothing")
        print(f"{len(stale_pragmas)} stale pragma(s)", file=sys.stderr)
    return 1 if stale_pragmas else 0


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, rule_cls in all_rules().items():
            print(f"{rule_id:<22} {rule_cls.description}")
        return 0

    config = relaxed_config() if args.relaxed else default_config()
    if args.rules:
        if args.stale_pragmas:
            print("--stale-pragmas audits every rule's suppressions; "
                  "drop --rules", file=sys.stderr)
            return 2
        wanted = tuple(r.strip() for r in args.rules.split(",") if r.strip())
        unknown = set(wanted) - set(all_rules())
        if unknown:
            print(f"unknown rule(s): {sorted(unknown)}", file=sys.stderr)
            return 2
        config.rules = wanted

    try:
        result = check_paths(args.paths, config=config)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.stale_pragmas:
        return _print_stale_report(result, args.as_json)
    _print_report(result, args.as_json)
    return 0 if result.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro check",
                                     description=DESCRIPTION)
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
