"""durability-discipline: acked state reaches disk through audited paths.

The durable serving tier promises "acked means fsynced, published means
atomic". That promise is easy to erode one call site at a time, so this
rule pins the two load-bearing mechanics to their audited homes:

* ``os.rename`` is banned outright: it is not atomic across filesystems
  and — unlike the project's helpers — nothing fsyncs the file before or
  the directory after, so a crash can publish a name that points at
  garbage. ``os.replace`` is better (same-filesystem atomicity) but is
  still only half of atomic publication, so it is confined to the
  atomic-write helpers (``repro.core.atomicio``); every other module
  renames through :func:`repro.core.atomicio.atomic_replace` or the
  ``atomic_write_*``/``atomic_savez`` wrappers, which do the fsync dance
  in one place.
* ``.append(..., sync=False)`` on a WAL is the "ack before fsync"
  foot-gun: the record is in the page cache, the caller acks the client,
  the machine dies, the acked write is gone. The keyword exists only so
  the WAL's own internals and benchmarks can measure the fsync cost
  delta; mutation handlers must never pass it, so any ``sync=False``
  keyword outside the WAL module itself is flagged.

Options: ``atomic_write_paths`` — path fragments whose files may call
``os.replace``; ``wal_paths`` — path fragments whose files may pass
``sync=False``. Benchmarks run under the relaxed profile, which waives
the ``sync=False`` check (measuring the unsynced append rate is the
point there) but keeps the rename bans.
"""

from __future__ import annotations

import ast
from typing import List

from . import Rule, register


@register
class DurabilityDiscipline(Rule):
    rule_id = "durability-discipline"
    description = ("os.rename is banned, os.replace only inside the "
                   "atomic-write helpers, and WAL appends with sync=False "
                   "only inside the WAL module")
    default_options = {
        "atomic_write_paths": ("repro/core/atomicio.py",),
        "wal_paths": ("repro/serving/wal.py",),
        "flag_unsynced_appends": True,
    }

    def check(self, module, program, options) -> List:
        in_atomicio = any(fragment in module.rel_path
                          for fragment in options["atomic_write_paths"])
        in_wal = any(fragment in module.rel_path
                     for fragment in options["wal_paths"])
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
            elif (options.get("flag_unsynced_appends", True) and not in_wal
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"):
                for keyword in node.keywords:
                    if keyword.arg == "sync" \
                            and isinstance(keyword.value, ast.Constant) \
                            and keyword.value.value is False:
                        out.append(module.finding(
                            self.rule_id, node,
                            "append(..., sync=False) acks before the fsync "
                            "— a crash loses the acknowledged write; only "
                            "the WAL module may defer its own syncs"))
        return out
