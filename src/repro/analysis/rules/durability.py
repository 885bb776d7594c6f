"""durability-discipline: published state reaches disk through audited paths.

The durable serving tier promises "acked means fsynced, published means
atomic". The ack half lives in one place (``ShardWAL.append`` always
fsyncs before it returns); the publication half is easy to erode one call
site at a time, so this rule pins it to its audited home:

* ``os.rename`` is banned outright: it is not atomic across filesystems
  and — unlike the project's helpers — nothing fsyncs the file before or
  the directory after, so a crash can publish a name that points at
  garbage. ``os.replace`` is better (same-filesystem atomicity) but is
  still only half of atomic publication, so it is confined to the
  atomic-write helpers (``repro.core.atomicio``); every other module
  renames through :func:`repro.core.atomicio.atomic_replace` or the
  ``atomic_write_*``/``atomic_savez`` wrappers, which do the fsync dance
  in one place.

Option: ``atomic_write_paths`` — path fragments whose files may call
``os.replace``.
"""

from __future__ import annotations

import ast
from typing import List

from . import Rule, register


@register
class DurabilityDiscipline(Rule):
    rule_id = "durability-discipline"
    description = ("os.rename is banned and os.replace only inside the "
                   "atomic-write helpers")
    default_options = {
        "atomic_write_paths": ("repro/core/atomicio.py",),
    }

    def check(self, module, program, options) -> List:
        in_atomicio = any(fragment in module.rel_path
                          for fragment in options["atomic_write_paths"])
        out = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_name(node.func)
            if name == "os.rename":
                out.append(module.finding(
                    self.rule_id, node,
                    "os.rename is not atomic publication; use "
                    "repro.core.atomicio.atomic_replace (fsyncs file and "
                    "directory) instead"))
            elif name == "os.replace" and not in_atomicio:
                out.append(module.finding(
                    self.rule_id, node,
                    "os.replace outside the atomic-write helpers skips the "
                    "fsync-before/fsync-after dance; go through "
                    "repro.core.atomicio"))
        return out
