"""Project-specific static analysis (``python -m repro check``).

One AST-based engine enforcing the invariants no generic linter knows
about: tape discipline in the autodiff engine, float64 canonicity in the
numeric packages, determinism (explicit RNGs, monotonic clocks),
durability, exception and API hygiene per file, and — across the whole
program — lockset races in the threaded serving/resilience layers, tape
shapes and resource leaks. See DESIGN.md "Static analysis" for the rule
catalogue, pragma syntax and baseline workflow.
"""

from .baseline import load_baseline, split_by_baseline, write_baseline
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
    "load_baseline",
    "register",
    "relaxed_config",
    "split_by_baseline",
    "write_baseline",
]
