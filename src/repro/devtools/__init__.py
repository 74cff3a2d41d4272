"""Developer tooling: the ``repro-lint`` static analyzer.

This package encodes the repository's invariants — determinism under
any ``PYTHONHASHSEED`` and worker count, fork-safety of pool-worker
code, and API hygiene — as AST rules that run in CI
(see :mod:`repro.devtools.lint` for the CLI and
:mod:`repro.devtools.rules` for the rule pack).

It is *developer* tooling: importing :mod:`repro` must never import
this package (``bench_hotpaths.py`` guards that), and nothing under
:mod:`repro.devtools` may be imported from serving paths.
"""

from __future__ import annotations

from repro.devtools.framework import (
    Finding,
    LintReport,
    Project,
    Rule,
    SourceModule,
    all_rules,
    lint_paths,
    register_rule,
    rule_ids,
)

__all__ = [
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceModule",
    "all_rules",
    "lint_paths",
    "register_rule",
    "rule_ids",
]
