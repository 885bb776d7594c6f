"""Committed baseline of grandfathered findings.

The baseline is a JSON file listing findings that existed when a rule was
introduced and are accepted for now. ``check`` subtracts baselined findings
from its failure count, so CI stays green while the debt is visible; an
entry whose flagged line is fixed (or whose file is deleted) becomes
*stale* and is reported so the file can be re-generated with
``--write-baseline`` and shrink over time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from .findings import Finding

PathLike = Union[str, Path]

BASELINE_VERSION = 1


def load_baseline(path: PathLike) -> Dict[str, Dict]:
    """Fingerprint-keyed baseline entries; ``{}`` when the file is absent."""
    path = Path(path)
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has unsupported format "
            f"(expected version {BASELINE_VERSION})")
    entries = {}
    for entry in payload.get("findings", []):
        fingerprint = entry.get("fingerprint")
        if fingerprint:
            entries[str(fingerprint)] = entry
    return entries


def write_baseline(path: PathLike, findings: Iterable[Finding]) -> int:
    """Write (or rewrite) the baseline from findings; returns entry count."""
    entries: Dict[str, Dict] = {}
    for finding in findings:
        entries[finding.fingerprint] = {
            "rule": finding.rule,
            "path": finding.path,
            "message": finding.message,
            "fingerprint": finding.fingerprint,
        }
    ordered = sorted(entries.values(),
                     key=lambda e: (e["path"], e["rule"], e["fingerprint"]))
    payload = {"version": BASELINE_VERSION, "findings": ordered}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    return len(ordered)


def split_by_baseline(findings: Iterable[Finding],
                      baseline: Dict[str, Dict]
                      ) -> Tuple[List[Finding], List[Finding], List[Dict]]:
    """Partition findings into (new, grandfathered) and list stale entries."""
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    seen = set()
    for finding in findings:
        if finding.fingerprint in baseline:
            grandfathered.append(finding)
            seen.add(finding.fingerprint)
        else:
            new.append(finding)
    stale = [entry for fingerprint, entry in sorted(baseline.items())
             if fingerprint not in seen]
    return new, grandfathered, stale
