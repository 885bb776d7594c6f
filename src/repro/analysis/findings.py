"""Finding objects produced by the static-analysis rules.

A :class:`Finding` pins one rule violation to a ``file:line:col`` location.
Its :attr:`~Finding.fingerprint` hashes the rule id, the file path and the
*text* of the offending line (not its number), so a finding keeps its
identity across unrelated edits that shift line numbers: ``--json``
reports of two checkouts diff exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    line_text: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity: rule + path + line text (not line number)."""
        digest = hashlib.sha1()
        for part in (self.rule, self.path, self.line_text.strip()):
            digest.update(part.encode("utf-8", "replace"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def format(self) -> str:
        """Human-readable ``path:line:col: rule-id: message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
