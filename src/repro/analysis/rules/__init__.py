"""Rule base class and registry.

Rules self-register via the :func:`register` decorator at import time;
importing this package pulls in every built-in rule module. Adding a rule
is: write a module with a ``Rule`` subclass, decorate it, import it at
the bottom of this file, and give it fixture tests (see DESIGN "Static
analysis").
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..findings import Finding


class Rule:
    """Base class: subclasses set the ids and implement :meth:`check`.

    A rule is invoked once per module with that module's
    :class:`~repro.analysis.program.ModuleInfo`, the
    :class:`~repro.analysis.program.ProgramModel` holding every module of
    the run, and its merged options. Every finding it returns must be
    anchored in ``module``; a purely syntactic rule ignores ``program``.
    """

    rule_id: str = ""
    description: str = ""
    default_options: Dict = {}

    def check(self, module, program, options: Dict) -> List[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Registered rules, keyed and sorted by rule id."""
    return dict(sorted(_REGISTRY.items()))


def get_rule(rule_id: str) -> Type[Rule]:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


# Built-in rules (import order is registration order; listing is sorted).
from . import api  # noqa: E402,F401
from . import determinism  # noqa: E402,F401
from . import dtype  # noqa: E402,F401
from . import durability  # noqa: E402,F401
from . import exception_hygiene  # noqa: E402,F401
from . import leaks  # noqa: E402,F401
from . import lockset  # noqa: E402,F401
from . import tape  # noqa: E402,F401

__all__ = ["Rule", "register", "all_rules", "get_rule"]
