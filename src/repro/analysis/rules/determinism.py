"""determinism: no global RNG, no wall clock in duration math.

Reproducibility is a headline property of this repo (bit-identical
resume, content-hash caches, seeded experiments), and the serving /
resilience layers compute deadlines that must survive clock steps. This
rule flags:

* calls through the **global** NumPy RNG (``np.random.seed``,
  ``np.random.rand``, ...) — all randomness must flow through an
  explicit ``np.random.default_rng(seed)`` generator that is passed
  around as plumbing;
* calls through the stdlib :mod:`random` module's global instance;
* **wall-clock** reads — ``time.time()``, ``datetime.now()`` /
  ``utcnow()`` / ``today()`` — which have no place in deadline or
  duration arithmetic (``time.monotonic()`` / ``perf_counter()`` are
  immune to NTP steps). Intentional wall-clock metadata such as a
  bundle's ``created_unix`` stamp is annotated with the suppression
  pragma (``# repro: disable=determinism``) or allowlisted via the
  ``wall_clock_allowed_paths`` option.
"""

from __future__ import annotations

import ast
from typing import List

from . import Rule, register

_NP_GLOBAL_FNS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_integers",
    "random_sample", "ranf", "sample", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "binomial", "poisson", "beta",
    "gamma", "exponential", "get_state", "set_state", "bytes",
})

_PY_RANDOM_FNS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "betavariate", "expovariate",
    "normalvariate", "lognormvariate", "vonmisesvariate", "getrandbits",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})


@register
class Determinism(Rule):
    rule_id = "determinism"
    description = ("global np.random/random calls are banned (use "
                   "default_rng plumbing); wall-clock reads are banned in "
                   "deadline/duration code (use time.monotonic)")
    default_options = {"wall_clock_allowed_paths": ()}

    def check(self, module, program, options) -> List:
        wall_allowed = any(
            fragment in module.rel_path
            for fragment in options.get("wall_clock_allowed_paths", ()))
        out = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_name(node.func)
            if not name:
                continue
            out.extend(self._check_rng(module, node, name))
            if not wall_allowed:
                out.extend(self._check_wall_clock(module, node, name))
        return out

    def _check_rng(self, module, node: ast.Call, name: str) -> List:
        if name.startswith("numpy.random."):
            fn = name[len("numpy.random."):]
            if fn in _NP_GLOBAL_FNS:
                return [module.finding(
                    self.rule_id, node,
                    f"global NumPy RNG call np.random.{fn}(); thread an "
                    f"explicit np.random.default_rng(seed) generator "
                    f"instead")]
            return []
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _PY_RANDOM_FNS:
            return [module.finding(
                self.rule_id, node,
                f"global stdlib RNG call random.{parts[1]}(); thread an "
                f"explicit seeded generator instead")]
        return []

    def _check_wall_clock(self, module, node: ast.Call, name: str) -> List:
        if name in _WALL_CLOCK_CALLS:
            return [module.finding(
                self.rule_id, node,
                f"wall-clock read {name}(); deadlines and durations must "
                f"use time.monotonic()/perf_counter() — if this is "
                f"intentional metadata, annotate with "
                f"`# repro: disable=determinism`")]
        return []
