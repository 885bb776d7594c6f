"""Fixture tests for every built-in rule: each must fire on a minimal
violating snippet and go quiet under its suppression pragma."""

import textwrap

import pytest

from repro.analysis import AnalysisConfig, all_rules, check_source


def run(source, rel_path="src/repro/serving/example.py", **options):
    config = AnalysisConfig(options=options)
    return check_source(textwrap.dedent(source), rel_path, config)


def rules_of(findings):
    return [f.rule for f in findings]


def test_registry_has_the_eight_project_rules():
    assert set(all_rules()) == {
        "api-hygiene", "determinism", "dtype-discipline",
        "durability-discipline", "exception-hygiene", "tape-discipline",
        "lockset", "resource-leak",
    }
    for rule_id, rule_cls in all_rules().items():
        assert rule_cls.rule_id == rule_id
        assert rule_cls.description


# ------------------------------------------------------------ tape-discipline

TAPE_MUTATION = """\
    def corrupt(tensor):
        tensor.data[0] = 1.0
"""


def test_tape_rule_fires_on_data_write():
    findings = run(TAPE_MUTATION, rel_path="src/repro/core/x.py")
    assert rules_of(findings) == ["tape-discipline"]
    assert findings[0].line == 2
    assert ".data" in findings[0].message


def test_tape_rule_fires_on_grad_augassign_and_inplace_calls():
    source = """\
        import numpy as np

        def corrupt(tensor, grad):
            tensor.grad += grad
            tensor.data.fill(0.0)
            np.add.at(tensor.data, [0], 1.0)
    """
    findings = run(source, rel_path="src/repro/core/x.py")
    assert rules_of(findings) == ["tape-discipline"] * 3


def test_tape_rule_allows_engine_internals():
    findings = run(TAPE_MUTATION, rel_path="src/repro/nn/tensor.py")
    assert findings == []


def test_tape_rule_requires_no_grad_entry_point():
    source = """\
        def embed(self, batch):
            return self.encoder(batch)
    """
    entry = {"repro/core/encoder.py": ("embed",)}
    findings = run(source, rel_path="src/repro/core/encoder.py",
                   **{"tape-discipline": {"entry_points": entry}})
    assert "no_grad" in findings[0].message

    fixed = """\
        def embed(self, batch):
            with no_grad():
                return self.encoder(batch)
    """
    assert run(fixed, rel_path="src/repro/core/encoder.py",
               **{"tape-discipline": {"entry_points": entry}}) == []


KERNEL_ENTRY = {"tape-discipline": {
    "entry_points": {"repro/core/encoder.py": ("embed",)},
    "kernel_calls": {"self.rnn": ("fold",), "self.memory": (),
                     "self.encode": ()},
}}


def _entry_point(body):
    source = "def embed(self, batch):\n" + textwrap.indent(
        textwrap.dedent(body), "    ")
    return run(source, rel_path="src/repro/core/encoder.py", **KERNEL_ENTRY)


def test_tape_rule_accepts_kernel_only_entry_point():
    assert _entry_point("""\
        cells = self.grid.to_cells(batch) if self.uses_sam else None
        return self.rnn.fold(h, c, batch, lengths, cells, self.memory)[0]
    """) == []
    assert _entry_point("""\
        h, c = self.rnn.fold(state.h, state.c, batch, lengths, None,
                             self.memory)
        return h
    """) == []


def test_tape_rule_accepts_an_entry_point_that_calls_another():
    options = {"tape-discipline": {
        **KERNEL_ENTRY["tape-discipline"],
        "entry_points": {"repro/core/encoder.py": ("one", "many")}}}
    source = """\
        def many(self, batch, lengths):
            return self.rnn.fold(h, c, batch, lengths, None, self.memory)

        def one(self, point):
            return self.many([point], [1])[0]

        def other(self, point):
            return self.one(point)
    """
    assert run(source, rel_path="src/repro/core/encoder.py", **options) == []
    options["tape-discipline"]["entry_points"] = {
        "repro/core/encoder.py": ("one", "other")}
    (finding,) = run(source, rel_path="src/repro/core/encoder.py",
                     **options)
    assert "one() neither enters no_grad()" in finding.message
    assert "makes no kernel call" in finding.message


@pytest.mark.parametrize("body, culprit", [
    ("return self.rnn(batch, mask).data", "self.rnn"),
    ("return self.rnn.cell.step(batch, h, c)", "self.rnn.cell.step"),
    ("cell = self.rnn.cell\nreturn cell.step(batch, h, c)", "self.rnn.cell"),
    ("w = self.memory.gather(cells)\nreturn self.rnn.fold(h, c, batch, w)",
     "self.memory.gather"),
    ("return self.encode(batch).data", "self.encode"),
    ("return self.rnn.fold(h, c, Tensor(batch).data, n)", "Tensor"),
    ("return self.rnn.fold(h, c, nn.as_tensor(batch).data, n)",
     "nn.as_tensor"),
    ("return self.normalizer.transform(batch)", "no kernel call"),
])
def test_tape_rule_flags_engine_use_outside_the_kernel(body, culprit):
    findings = _entry_point(body)
    assert rules_of(findings) == ["tape-discipline"]
    assert findings[0].line == 1
    assert culprit + ")" in findings[0].message
    assert "no_grad" in findings[0].message


def test_tape_rule_pragma_suppresses():
    source = """\
        def restore(tensor, saved):
            tensor.data = saved  # repro: disable=tape-discipline
    """
    assert run(source, rel_path="src/repro/core/x.py") == []


# ----------------------------------------------------------- dtype-discipline

DTYPE_PACKAGES = {"dtype-discipline": {"packages": ("repro/measures/",)}}


def test_dtype_rule_fires_on_missing_dtype():
    source = """\
        import numpy as np
        table = np.zeros((4, 4))
    """
    findings = run(source, rel_path="src/repro/measures/x.py",
                   **DTYPE_PACKAGES)
    assert rules_of(findings) == ["dtype-discipline"]
    assert "explicit dtype" in findings[0].message


def test_dtype_rule_fires_on_float32():
    source = """\
        import numpy as np
        a = np.zeros(3, dtype=np.float32)
        b = a.astype("float16")
    """
    findings = run(source, rel_path="src/repro/measures/x.py",
                   **DTYPE_PACKAGES)
    assert rules_of(findings) == ["dtype-discipline"] * 2


def test_dtype_rule_accepts_explicit_float64_int_and_like_ctors():
    source = """\
        import numpy as np
        a = np.zeros(3, dtype=np.float64)
        b = np.arange(5, dtype=np.intp)
        c = np.zeros_like(a)
        d = a.astype(np.float64)
    """
    assert run(source, rel_path="src/repro/measures/x.py",
               **DTYPE_PACKAGES) == []


def test_dtype_rule_scoped_to_configured_packages():
    source = """\
        import numpy as np
        table = np.zeros((4, 4))
    """
    assert run(source, rel_path="src/repro/serving/x.py",
               **DTYPE_PACKAGES) == []


def test_dtype_rule_pragma_suppresses():
    source = """\
        import numpy as np
        key = np.asarray("abc")  # repro: disable=dtype-discipline
    """
    assert run(source, rel_path="src/repro/measures/x.py",
               **DTYPE_PACKAGES) == []


# ---------------------------------------------------------------- determinism

def test_determinism_rule_fires_on_global_rngs():
    source = """\
        import random
        import numpy as np

        np.random.seed(0)
        x = np.random.rand(3)
        random.shuffle([1, 2])
    """
    findings = run(source)
    assert rules_of(findings) == ["determinism"] * 3


def test_determinism_rule_fires_on_wall_clock():
    source = """\
        import time
        deadline = time.time() + 5.0
    """
    findings = run(source)
    assert rules_of(findings) == ["determinism"]
    assert "monotonic" in findings[0].message


def test_determinism_rule_accepts_default_rng_and_monotonic():
    source = """\
        import time
        import numpy as np

        rng = np.random.default_rng(0)
        x = rng.normal(size=3)
        start = time.monotonic()
    """
    assert run(source) == []


def test_determinism_rule_pragma_suppresses():
    source = """\
        import time
        created = time.time()  # repro: disable=determinism
    """
    assert run(source) == []


def test_determinism_standalone_pragma_covers_next_line():
    source = """\
        import time
        # metadata stamp, not a deadline  # repro: disable=determinism
        created = time.time()
    """
    assert run(source) == []


# -------------------------------------------- lockset: unguarded private field
# (the interprocedural cases live in test_program_rules.py's fixtures)

LOCKED_CLASS = """\
    import threading

    class Service:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            {body}
"""


def test_lock_rule_fires_on_unguarded_write():
    source = LOCKED_CLASS.format(body="self._count += 1")
    findings = run(source)
    assert rules_of(findings) == ["lockset"]
    assert "self._lock" in findings[0].message


def test_lock_rule_fires_on_unguarded_tuple_target_write():
    source = LOCKED_CLASS.format(body="old, self._count = self._count, 0")
    findings = run(source)
    assert rules_of(findings) == ["lockset"]
    assert "`self._count`" in findings[0].message


def test_lock_rule_accepts_guarded_write_and_public_attrs():
    source = LOCKED_CLASS.format(
        body="with self._lock:\n                self._count += 1")
    assert run(source) == []
    # Public attributes and lock-free classes are out of scope.
    assert run(LOCKED_CLASS.format(body="self.count = 1")) == []
    assert run("class Free:\n    def f(self):\n        self._x = 1\n") == []


def test_lock_rule_honours_lock_held_docstring():
    source = LOCKED_CLASS.format(
        body='"""Caller must hold ``self._lock``."""\n'
             "            self._count += 1")
    assert run(source) == []


def test_lock_rule_pragma_suppresses():
    source = LOCKED_CLASS.format(
        body="self._count += 1  # repro: disable=lockset")
    assert run(source) == []


# --------------------------------------------------------- exception-hygiene

def test_exception_rule_fires_on_silent_broad_catch_and_bare_except():
    source = """\
        def f():
            try:
                work()
            except Exception:
                pass
            try:
                work()
            except:
                pass
    """
    findings = run(source)
    assert rules_of(findings) == ["exception-hygiene"] * 2
    assert "bare" in findings[1].message


@pytest.mark.parametrize("handler", [
    "except ValueError:\n                pass",              # narrowed
    "except Exception:\n                raise",              # re-raises
    "except Exception as exc:\n                note(exc)",   # uses exc
    "except Exception:\n                log.exception('x')",  # records
])
def test_exception_rule_accepts_handled_catches(handler):
    source = f"""\
        def f():
            try:
                work()
            {handler}
    """
    assert run(source) == []


def test_exception_rule_pragma_suppresses():
    source = """\
        def f():
            try:
                work()
            except Exception:  # repro: disable=exception-hygiene
                pass
    """
    assert run(source) == []


def test_exception_rule_whitelists_typed_wrap_first_class():
    source = """\
        from repro.exceptions import CheckpointError

        def f():
            try:
                work()
            except Exception as exc:
                raise CheckpointError("bad") from exc
            try:
                work()
            except Exception:
                raise CheckpointError("bad")
    """
    assert run(source) == []


def test_exception_rule_flags_unchained_foreign_raise():
    # `raise ValueError(...)` without `from` drops the real traceback —
    # only typed project exceptions are blessed unchained.
    source = """\
        def f():
            try:
                work()
            except Exception:
                raise ValueError("bad")
    """
    findings = run(source)
    assert rules_of(findings) == ["exception-hygiene"]


def test_exception_rule_ignores_deferred_raise_in_nested_def():
    # A raise inside a nested def is deferred code, not handling.
    source = """\
        def f():
            try:
                work()
            except Exception:
                def poison():
                    raise
                callbacks.append(poison)
    """
    findings = run(source)
    assert rules_of(findings) == ["exception-hygiene"]


# ----------------------------------------------------------------- api-hygiene

def test_api_rule_fires_on_mutable_defaults_and_assert():
    source = """\
        def f(x=[], y={}, z=dict()):
            assert x, "boom"
    """
    findings = run(source)
    assert rules_of(findings) == ["api-hygiene"] * 4


def test_api_rule_accepts_none_defaults_and_raises():
    source = """\
        def f(x=None, y=(), n=3):
            if not x:
                raise ValueError("boom")
    """
    assert run(source) == []


def test_api_rule_flag_asserts_off_keeps_mutable_default_check():
    source = """\
        def f(x=[]):
            assert x
    """
    findings = run(source, **{"api-hygiene": {"flag_asserts": False}})
    assert rules_of(findings) == ["api-hygiene"]  # only the default fires
    assert "mutable default" in findings[0].message


def test_api_rule_pragma_suppresses():
    source = """\
        def f(x):
            assert x  # repro: disable=api-hygiene
    """
    assert run(source) == []


# ------------------------------------------------------- durability-discipline

def test_durability_rule_fires_on_rename_and_stray_replace():
    source = """\
        import os

        def publish(tmp, dst):
            os.rename(tmp, dst)
            os.replace(tmp, dst)
    """
    findings = run(source)
    assert rules_of(findings) == ["durability-discipline"] * 2
    assert "atomic_replace" in findings[0].message
    assert "atomicio" in findings[1].message


def test_durability_rule_resolves_import_aliases():
    source = """\
        from os import rename as mv

        def publish(tmp, dst):
            mv(tmp, dst)
    """
    assert rules_of(run(source)) == ["durability-discipline"]


def test_durability_rule_allows_replace_inside_atomicio():
    source = """\
        import os

        def atomic_replace(tmp, dst):
            os.replace(tmp, dst)
    """
    assert run(source, rel_path="src/repro/core/atomicio.py") == []


def test_durability_rule_ignores_plain_list_appends():
    source = """\
        def collect(out, item):
            out.append(item)
            out.append(item, sync=True)
    """
    assert run(source) == []


def test_durability_rule_pragma_suppresses():
    source = """\
        import os

        def publish(tmp, dst):
            os.rename(tmp, dst)  # repro: disable=durability-discipline
    """
    assert run(source) == []


# ------------------------------------------------------------------- pragmas

def test_disable_file_pragma_and_all_wildcard():
    source = """\
        # repro: disable-file=determinism
        import time

        def f():
            a = time.time()
            b = time.time()
    """
    assert run(source) == []

    source_all = """\
        def f(x=[]):
            y = x  # repro: disable=all
            assert y  # repro: disable=all
    """
    findings = run(source_all)
    assert rules_of(findings) == ["api-hygiene"]  # the default survives
    assert findings[0].line == 1
