"""Inline suppression pragmas.

Syntax (inside any ``#`` comment)::

    # repro: disable=<rule-id>[,<rule-id>...]      suppress on this line
    # repro: disable-file=<rule-id>[,...]          suppress in whole file

A line pragma suppresses matching findings anchored to its own physical
line. When the pragma comment is the *only* content of its line, it also
covers the line directly below it, so multi-line statements (and lines too
long to carry a trailing comment) can be annotated from above. The rule
list may be ``all`` to suppress every rule.

Each pragma is tracked as a :class:`PragmaEntry`; :meth:`PragmaIndex.
suppresses` marks the entries that actually fired, which is what
``check --stale-pragmas`` uses to report suppressions that no longer
suppress anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, List, Tuple

_LINE_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_\-, ]+)")
_FILE_RE = re.compile(r"#\s*repro:\s*disable-file=([A-Za-z0-9_\-, ]+)")

#: Wildcard rule name accepted in pragma lists.
ALL_RULES = "all"


def _parse_rule_list(raw: str) -> FrozenSet[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


class PragmaEntry:
    """One pragma comment: where it lives, what it suppresses, whether it
    ever fired during the run that built its index."""

    __slots__ = ("source_line", "rules", "is_file", "used")

    def __init__(self, source_line: int, rules: FrozenSet[str],
                 is_file: bool):
        self.source_line = source_line
        self.rules = rules
        self.is_file = is_file
        self.used = False

    def matches(self, rule: str) -> bool:
        return ALL_RULES in self.rules or rule in self.rules

    @property
    def text(self) -> str:
        kind = "disable-file" if self.is_file else "disable"
        return f"# repro: {kind}={','.join(sorted(self.rules))}"


class PragmaIndex:
    """Per-file index of suppression pragmas, queried per finding."""

    def __init__(self, entries: List[PragmaEntry],
                 coverage: Dict[int, List[PragmaEntry]]):
        self.entries = entries
        self._coverage = coverage  # finding line -> line-pragma entries
        self._file_entries = [e for e in entries if e.is_file]

    @classmethod
    def from_source(cls, source: str) -> "PragmaIndex":
        entries: List[PragmaEntry] = []
        coverage: Dict[int, List[PragmaEntry]] = {}
        for lineno, standalone, text in cls._comments(source):
            file_match = _FILE_RE.search(text)
            if file_match:
                entries.append(PragmaEntry(
                    lineno, _parse_rule_list(file_match.group(1)),
                    is_file=True))
            line_match = _LINE_RE.search(text)
            if not line_match:
                continue
            entry = PragmaEntry(lineno,
                                _parse_rule_list(line_match.group(1)),
                                is_file=False)
            entries.append(entry)
            coverage.setdefault(lineno, []).append(entry)
            if standalone:  # standalone comment: covers the next line
                coverage.setdefault(lineno + 1, []).append(entry)
        return cls(entries, coverage)

    @staticmethod
    def _comments(source: str) -> List[Tuple[int, bool, str]]:
        """``(lineno, is_standalone, text)`` for each real comment token.

        Tokenizing (rather than regex-scanning raw lines) keeps pragma
        syntax *inside string literals* — docstrings that document the
        pragma, error messages that suggest it — from registering as
        live suppressions. Falls back to a line scan only if the file
        does not tokenize (the engine only builds an index for files
        that already parsed, so this is a cold path).
        """
        lines = source.splitlines()
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            out = []
            for lineno, text in enumerate(lines, start=1):
                if "#" in text:
                    standalone = not text[:text.index("#")].strip()
                    out.append((lineno, standalone, text))
            return out
        out = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            lineno, col = token.start
            before = lines[lineno - 1][:col] if lineno <= len(lines) else ""
            out.append((lineno, not before.strip(), token.string))
        return out

    def suppresses(self, rule: str, line: int) -> bool:
        hit = False
        for entry in self._file_entries:
            if entry.matches(rule):
                entry.used = True
                hit = True
        if hit:
            return True
        for entry in self._coverage.get(line, ()):
            if entry.matches(rule):
                entry.used = True
                hit = True
        return hit

    def unused(self) -> List[PragmaEntry]:
        """Entries that suppressed nothing during this index's run."""
        return [entry for entry in self.entries if not entry.used]

    @property
    def empty(self) -> bool:
        return not self.entries
