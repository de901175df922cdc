"""Project-specific static analysis for the repro serving stack.

The stack's correctness rests on a handful of invariants that ordinary
linters know nothing about: lock-acquisition order across the serving /
streaming / fleet threads, checkpoint completeness for every
``get_state``/``set_state`` class, seeded determinism on numeric paths,
JSON/Prometheus safety at the gateway boundary, and no public code that
nothing calls.  This package makes those rules machine-checked:

* :mod:`repro.analysis.framework` — AST rule registry, findings, noqa
  pragmas (``# repro: noqa[rule-id]``).
* :mod:`repro.analysis.rules` — the project rule catalog (``lock-order``,
  ``checkpoint``, ``determinism``, ``boundary``, ``unused``).
* :mod:`repro.analysis.baseline` — committed suppression file
  (``analysis_baseline.json``) with per-entry justifications.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis src/`` /
  ``repro-analyze`` with text and JSON output.
* :mod:`repro.analysis.lockwatch` — the *runtime* lock-order sanitizer
  (instrumented locks, per-thread acquisition stacks, cycle detection)
  for the chaos/concurrency suites.

Run the full pass exactly like CI does::

    PYTHONPATH=src python -m repro.analysis src/
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.framework import (
    AnalysisReport,
    Finding,
    ModuleContext,
    all_rules,
    analyze_paths,
    iter_python_files,
    registered_rules,
)

# Importing the rules package registers every rule with the framework.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleContext",
    "all_rules",
    "analyze_paths",
    "iter_python_files",
    "registered_rules",
]
