"""Declarative scenario language (the scenario DSL).

The DSL is a small YAML dialect that compiles to the same
:class:`~repro.scenarios.spec.ScenarioSpec` /
:class:`~repro.scenarios.spec.ClusterTopology` /
:class:`~repro.cluster.faults.FaultPlan` objects the registered scenario
families build in Python, so a compiled document runs through the exact
code path — and produces the exact fingerprint — of its programmatic
twin.

Two document modes exist:

* **family mode** — ``family:`` names a registered scenario family and
  ``params:`` feeds its factory.  Compilation *is* a factory call, so
  the result is byte-identical to ``smartmem run <family>:<params>``.
* **explicit mode** — ``scenario:`` plus ``vms:``/``cluster:``/...
  spells out the full specification, including pieces the spec-string
  grammar cannot express (per-job parameters, triggers, fault plans).

The pipeline is split into the loader (YAML → plain data + source
positions), the compiler (data → validated spec + diagnostics) and the
plan printer (spec → human/JSON execution plan)::

    from repro.scenarios.dsl import compile_file, format_plan
    compiled = compile_file("examples/dsl/cluster-faults.yml")
    print(format_plan(compiled))

Validation never stops at the first problem: every issue is reported as
a :class:`Diagnostic` carrying the source file/line/column, and
``smartmem lint`` exits non-zero only on errors (warnings are advisory)
unless ``--strict`` makes warnings fail it too.
"""

from .compiler import (
    CompiledScenario,
    compile_document,
    compile_file,
    compile_text,
    lint_file,
    lint_text,
)
from .diagnostics import Diagnostic, DslError
from .loader import Document, load_document, load_file
from .plan import format_plan, plan_dict

__all__ = [
    "CompiledScenario",
    "Diagnostic",
    "Document",
    "DslError",
    "compile_document",
    "compile_file",
    "compile_text",
    "format_plan",
    "lint_file",
    "lint_text",
    "load_document",
    "load_file",
    "plan_dict",
]
