"""Project-specific static analysis (``python -m repro check``).

One AST-based engine enforcing the invariants no generic linter knows
about: tape discipline in the autodiff engine, float64 canonicity in the
numeric packages, determinism (explicit RNGs, monotonic clocks),
durability, exception and API hygiene per file, and — across the whole
program — lockset races in the threaded serving/resilience layers and
resource leaks. See DESIGN.md "Static analysis" for the rule catalogue
and pragma syntax.
"""

from .config import AnalysisConfig, default_config, relaxed_config
from .engine import (AnalysisResult, check_paths, check_source,
                     iter_python_files)
from .findings import Finding
from .pragmas import PragmaIndex
from .rules import Rule, all_rules, get_rule, register

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Finding",
    "PragmaIndex",
    "Rule",
    "all_rules",
    "check_paths",
    "check_source",
    "default_config",
    "get_rule",
    "iter_python_files",
    "register",
    "relaxed_config",
]
