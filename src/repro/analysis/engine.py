"""The analyzer: walk files, parse once, run every rule, apply pragmas.

One :func:`check_paths` call is the whole pipeline behind
``python -m repro check``::

    files -> ast.parse -> ProgramModel -> enabled rules per module
          -> pragma filter

Every file is parsed once into a
:class:`~repro.analysis.program.ModuleInfo`; the
:class:`~repro.analysis.program.ProgramModel` holding them all is built
before any rule runs, so a rule that needs cross-function facts (method
tables, lock inventories, docstring contracts) sees the complete program
and a syntactic rule just reads its module.

Unparseable files surface as a ``syntax-error`` finding instead of
crashing the run, so one bad file cannot hide findings in the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .config import AnalysisConfig, default_config
from .findings import Finding
from .pragmas import PragmaEntry, PragmaIndex
from .program import ModuleInfo, ProgramModel
from .rules import all_rules

PathLike = Union[str, Path]

#: Pseudo-rule id attached to files the parser rejects.
SYNTAX_ERROR_RULE = "syntax-error"


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    #: per-file pragma indexes with usage marks (stale-pragma reporting).
    pragma_indexes: Dict[str, PragmaIndex] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """No unsuppressed findings (the CI gate)."""
        return not self.findings

    def summary(self) -> str:
        return (f"{self.files_checked} file(s) checked: "
                f"{len(self.findings)} finding(s), "
                f"{self.suppressed} pragma-suppressed")

    def stale_pragmas(self) -> List[Tuple[str, PragmaEntry]]:
        """``(path, PragmaEntry)`` pairs that suppressed nothing."""
        return [(path, entry)
                for path in sorted(self.pragma_indexes)
                for entry in self.pragma_indexes[path].unused()]


def iter_python_files(paths: Iterable[PathLike]) -> Iterator[Path]:
    """Expand files/directories into sorted ``.py`` files (skips caches)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    yield child
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


def _check_sources(sources: List[Tuple[str, str]],
                   config: AnalysisConfig) -> AnalysisResult:
    """Parse, model and check ``(rel_path, source)`` pairs."""
    result = AnalysisResult(files_checked=len(sources))
    program = ProgramModel()
    for rel_path, source in sources:
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            result.findings.append(Finding(
                rule=SYNTAX_ERROR_RULE, path=rel_path, line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"cannot parse: {exc.msg}",
                line_text=(exc.text or "").rstrip()))
            continue
        program.add_module(ModuleInfo(rel_path, source, tree))

    registry = all_rules()
    rules = [(rule_id, registry[rule_id](),
              config.rule_options(rule_id, registry[rule_id].default_options))
             for rule_id in config.rules or registry]
    for module in program.modules.values():
        disabled_here = set(config.disabled_for(module.rel_path))
        pragmas = PragmaIndex.from_source(module.source)
        result.pragma_indexes[module.rel_path] = pragmas
        for rule_id, rule, options in rules:
            if rule_id in disabled_here:
                continue
            for finding in rule.check(module, program, options):
                if pragmas.suppresses(finding.rule, finding.line):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def check_source(source: str, rel_path: str,
                 config: Optional[AnalysisConfig] = None) -> List[Finding]:
    """Check one in-memory module; pragma-suppressed findings removed.

    The unit used by the rule fixture tests; :func:`check_paths` adds
    file walking on top.
    """
    return _check_sources([(rel_path, source)],
                          config or default_config()).findings


def check_paths(paths: Iterable[PathLike],
                config: Optional[AnalysisConfig] = None) -> AnalysisResult:
    """Run the analyzer over files/directories; the CLI's engine."""
    sources = [(path.as_posix(), path.read_text())
               for path in iter_python_files(paths)]
    return _check_sources(sources, config or default_config())
