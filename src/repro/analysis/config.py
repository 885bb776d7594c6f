"""Analyzer configuration: rule selection, per-rule options, relaxation.

Two committed profiles exist:

* :func:`default_config` — every registered rule with the project's
  engine-internal allowlists; what ``python -m repro check src`` and the
  tier-1 gate enforce.
* :func:`relaxed_config` — the profile documented for ``benchmarks/``:
  wall-clock timing and ad-hoc arrays are the whole point of a benchmark
  script, so the determinism and dtype rules are dropped there while the
  structural rules (tape, durability, locks, leaks, exceptions, API)
  still apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Rule ids removed by the relaxed (benchmarks) profile.
RELAXED_DROPS: Tuple[str, ...] = ("determinism", "dtype-discipline")


@dataclass
class AnalysisConfig:
    """What to run and how.

    Attributes
    ----------
    rules:
        Rule ids to run; empty tuple means every registered rule.
    options:
        Per-rule option dicts, merged over each rule's
        ``default_options``.
    path_disables:
        ``(path_substring, rule_ids)`` pairs: files whose (posix) path
        contains the substring skip those rules.
    """

    rules: Tuple[str, ...] = ()
    options: Dict[str, Dict] = field(default_factory=dict)
    path_disables: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def rule_options(self, rule_id: str, defaults: Dict) -> Dict:
        merged = dict(defaults)
        merged.update(self.options.get(rule_id, {}))
        return merged

    def disabled_for(self, rel_path: str) -> Tuple[str, ...]:
        disabled = []
        for fragment, rule_ids in self.path_disables:
            if fragment in rel_path:
                disabled.extend(rule_ids)
        return tuple(disabled)


def default_config() -> AnalysisConfig:
    """The project profile enforced by tier-1 (see DESIGN "Static analysis")."""
    return AnalysisConfig(
        rules=(),
        options={
            "tape-discipline": {
                # The tape/optimizer internals legitimately assign
                # Tensor.data/.grad; everything else must go through ops.
                "allowed_paths": ("repro/nn/",),
                # Inference entry points: under no_grad(), or reaching the
                # engine only through kernel_calls (any other use of a
                # listed owner, e.g. self.rnn.cell.read(), builds Tensors).
                "entry_points": {
                    "repro/core/encoder.py": ("embed", "_fold",
                                              "extend_prefix",
                                              "extend_prefixes"),
                },
                "kernel_calls": {
                    "self.rnn": ("fold",),
                    "self.memory": (),
                    "self.encode": (),
                },
            },
            "dtype-discipline": {
                "packages": ("repro/nn/", "repro/measures/"),
            },
        },
    )


def relaxed_config() -> AnalysisConfig:
    """The benchmarks/ profile: structural rules only.

    Drops determinism and dtype-discipline entirely, and waives the
    assert check (pytest-style benches report *through* asserts);
    mutable-default, tape, lock and exception discipline still apply.
    """
    config = default_config()
    config.path_disables = config.path_disables + (("", RELAXED_DROPS),)
    config.options["api-hygiene"] = {"flag_asserts": False}
    return config
