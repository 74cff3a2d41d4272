"""Tests for the ``repro.devtools`` static analyzer.

Each rule gets must-flag / must-not-flag fixture trees (written to
``tmp_path`` so module names and package scoping behave exactly as in a
real checkout); the framework-level tests cover suppressions, the
baseline round trip, the ``--json`` schema, and the CLI's exit codes.
The final test runs the analyzer over the live tree — the repository's
contract is that ``src/repro`` plus ``tests`` stays at zero
unsuppressed findings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.baseline import load_baseline, write_baseline
from repro.devtools.callgraph import build_call_graph
from repro.devtools.framework import Project, SourceModule, all_rules, lint_paths
from repro.devtools.lint import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, run_lint
from repro.exceptions import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]

RULES = {rule.id: rule for rule in all_rules()}


def write_tree(tmp_path: Path, files: dict) -> Path:
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def lint_tree(tmp_path: Path, files: dict, rules=None, baseline_keys=None):
    root = write_tree(tmp_path, files)
    selected = None if rules is None else [RULES[rule_id] for rule_id in rules]
    return lint_paths([root], root=root, rules=selected, baseline_keys=baseline_keys)


def finding_rules(report):
    return [finding.rule for finding in report.findings]


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------
class TestWallClockRule:
    def test_flags_time_time(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f():
                    return time.time()
            """,
        }, rules=["wall-clock"])
        assert finding_rules(report) == ["wall-clock"]

    def test_flags_aliased_and_from_imports(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time as clock
                from time import time as now
                def f():
                    return clock.time() + now()
            """,
        }, rules=["wall-clock"])
        assert finding_rules(report) == ["wall-clock", "wall-clock"]

    def test_ignores_perf_counter_and_foreign_time_attr(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f(row):
                    return time.perf_counter(), time.monotonic(), row.time
            """,
        }, rules=["wall-clock"])
        assert report.clean


class TestGlobalRngRule:
    def test_flags_module_level_random_calls(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import random
                from random import shuffle
                def f(items):
                    shuffle(items)
                    return random.random()
            """,
        }, rules=["global-rng"])
        assert finding_rules(report) == ["global-rng", "global-rng"]

    def test_allows_seeded_generator_construction(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import random
                from random import Random
                def f(seed):
                    return Random(seed), random.Random(seed)
            """,
        }, rules=["global-rng"])
        assert report.clean

    def test_flags_numpy_global_namespace(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import numpy as np
                def f():
                    return np.random.rand()
            """,
        }, rules=["global-rng"])
        assert finding_rules(report) == ["global-rng"]

    def test_rng_helper_module_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/utils/__init__.py": "",
            "repro/utils/rng.py": """
                import random
                def ensure_rng(seed):
                    if seed is None:
                        return random.Random(random.random())
                    return random.Random(seed)
            """,
        }, rules=["global-rng"])
        assert report.clean


class TestBuiltinHashRule:
    def test_flags_builtin_hash(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                def f(label):
                    return hash(label)
            """,
        }, rules=["builtin-hash"])
        assert finding_rules(report) == ["builtin-hash"]

    def test_rebound_hash_is_not_the_builtin(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                def hash(value):
                    return 7
                def f(label):
                    return hash(label)
            """,
        }, rules=["builtin-hash"])
        assert report.clean


class TestUnorderedIterationRule:
    def test_flags_output_shapes_in_scoped_packages(self, tmp_path):
        report = lint_tree(tmp_path, {
            "core/__init__.py": "",
            "core/mod.py": """
                def f(d, out):
                    a = list({3, 1, 2})
                    out.extend(d.values())
                    b = [x + 1 for x in set(d)]
                    for key in d.keys():
                        out.append(key)
                    return a, b
            """,
        }, rules=["unordered-iter"])
        assert finding_rules(report) == ["unordered-iter"] * 4

    def test_sorted_and_aggregations_are_safe(self, tmp_path):
        report = lint_tree(tmp_path, {
            "baselines/__init__.py": "",
            "baselines/mod.py": """
                def f(d):
                    a = sorted({3, 1, 2})
                    b = sum(len(v) for v in d.values())
                    c = sorted(list({1, 2}))
                    live = set(d.keys())
                    return a, b, c, live
            """,
        }, rules=["unordered-iter"])
        assert report.clean

    def test_out_of_scope_packages_are_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {
            "experiments/__init__.py": "",
            "experiments/mod.py": """
                def f(d):
                    return list(set(d))
            """,
        }, rules=["unordered-iter"])
        assert report.clean


# ----------------------------------------------------------------------
# Concurrency rules
# ----------------------------------------------------------------------
WORKER_FIXTURE = {
    "pkg/__init__.py": "",
    "pkg/work.py": """
        import threading

        _CACHE_LOCK = threading.Lock()
        _COUNT = 0

        def driver(pool, payload):
            return pool.submit(shard_worker, payload).result()

        def shard_worker(payload):
            return _helper(payload)

        def _helper(payload):
            global _COUNT
            with _CACHE_LOCK:
                _COUNT += 1
            return payload

        def untangled(payload):
            with _CACHE_LOCK:
                return payload
    """,
}


class TestWorkerLockRule:
    def test_flags_lock_and_global_in_reachable_code_only(self, tmp_path):
        report = lint_tree(tmp_path, dict(WORKER_FIXTURE), rules=["worker-lock"])
        # _helper is worker-reachable: one lock acquisition + one global
        # mutation.  ``untangled`` also takes the lock but is not
        # reachable from any submit registration, so it is clean.
        assert finding_rules(report) == ["worker-lock", "worker-lock"]
        assert all(f.path.endswith("work.py") for f in report.findings)
        chains = [f.message for f in report.findings]
        assert any("shard_worker -> _helper" in message for message in chains)

    def test_callgraph_reachability(self, tmp_path):
        root = write_tree(tmp_path, dict(WORKER_FIXTURE))
        module = SourceModule(root / "pkg" / "work.py", root)
        project = Project([module], root)
        graph = build_call_graph(project)
        assert "pkg.work:shard_worker" in graph.entry_points
        reachable = graph.reachable()
        assert "pkg.work:_helper" in reachable
        assert "pkg.work:driver" not in reachable
        assert "pkg.work:untangled" not in reachable
        chain = graph.chain("pkg.work:_helper")
        assert chain[0] == "pkg.work:shard_worker"
        assert chain[-1] == "pkg.work:_helper"


class TestForkUnderLockRule:
    def test_flags_forking_inside_lock_body(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                def ensure_pool(self, payload):
                    with self._lock:
                        if self._pool is None:
                            self._pool = ProcessPoolExecutor(max_workers=2)
                        return self._pool.submit(work, payload)
            """,
        }, rules=["fork-under-lock"])
        assert finding_rules(report) == ["fork-under-lock"] * 2

    def test_forking_outside_lock_is_fine(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                def ensure_pool(self, payload):
                    with self._lock:
                        needed = self._pool is None
                    if needed:
                        pool = ProcessPoolExecutor(max_workers=2)
                        return pool.submit(work, payload)
            """,
        }, rules=["fork-under-lock"])
        assert report.clean


# ----------------------------------------------------------------------
# Hygiene rules
# ----------------------------------------------------------------------
class TestAllConsistencyRule:
    def test_missing_undeclared_and_drifted(self, tmp_path):
        report = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/missing.py": """
                def api():
                    return 1
            """,
            "pkg/drifted.py": """
                __all__ = ["gone"]
                def present():
                    return 1
            """,
        }, rules=["all-consistency"])
        rules = finding_rules(report)
        assert rules.count("all-consistency") == 3  # no __all__, 'gone', 'present'

    def test_exact_dynamic_private_and_script_modules(self, tmp_path):
        report = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/exact.py": """
                from os.path import join
                __all__ = ["api", "join"]
                def api():
                    return join("a", "b")
            """,
            "pkg/dynamic.py": """
                __all__ = sorted(name for name in dir() if not name.startswith("_"))
                def api():
                    return 1
            """,
            "pkg/_private.py": """
                def helper():
                    return 1
            """,
            "script.py": """
                def main():
                    return 0
            """,
        }, rules=["all-consistency"])
        assert report.clean


class TestRaiseTaxonomyRule:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/exceptions.py": """
            class PkgError(Exception):
                pass
        """,
    }

    def test_flags_stray_stdlib_raise(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/mod.py"] = """
            from pkg.exceptions import PkgError
            def f(flag):
                if flag:
                    raise RuntimeError("stray")
                raise PkgError("typed")
        """
        report = lint_tree(tmp_path, files, rules=["raise-taxonomy"])
        assert finding_rules(report) == ["raise-taxonomy"]
        assert "RuntimeError" in report.findings[0].message

    def test_validation_protocol_and_reraise_allowances(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/mod.py"] = """
            def f(value):
                if value < 0:
                    raise ValueError("bad value")
                if not isinstance(value, int):
                    raise TypeError("bad type")

            class Table:
                def __getitem__(self, key):
                    raise KeyError(key)

            def g(stored):
                raise stored
        """
        report = lint_tree(tmp_path, files, rules=["raise-taxonomy"])
        assert report.clean

    def test_modules_outside_the_package_are_not_governed(self, tmp_path):
        files = dict(self.FILES)
        files["test_helper.py"] = """
            def boom():
                raise RuntimeError("harness failure")
        """
        report = lint_tree(tmp_path, files, rules=["raise-taxonomy"])
        assert report.clean


class TestStalenessGuardRule:
    def test_flags_ad_hoc_comparison(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                def check(graph, stamp):
                    return graph.mutation_count != stamp
            """,
        }, rules=["staleness-guard"])
        assert finding_rules(report) == ["staleness-guard"]

    def test_helper_module_is_the_sanctioned_home(self, tmp_path):
        report = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/graphs/__init__.py": "",
            "pkg/graphs/staleness.py": """
                __all__ = ["stamp_is_stale"]
                def stamp_is_stale(graph, stamp):
                    return graph.mutation_count != stamp
            """,
        }, rules=["staleness-guard"])
        assert report.clean


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression_with_reason(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f():
                    return time.time()  # repro-lint: disable=wall-clock (test needs wall time)
            """,
        }, rules=["wall-clock"])
        assert report.clean
        assert [f.rule for f in report.suppressed] == ["wall-clock"]

    def test_standalone_comment_attaches_to_next_code_line(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f():
                    # repro-lint: disable=wall-clock (timestamping, not measurement)
                    return time.time()
            """,
        }, rules=["wall-clock"])
        assert report.clean and len(report.suppressed) == 1

    def test_reason_is_mandatory(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f():
                    return time.time()  # repro-lint: disable=wall-clock
            """,
        }, rules=["wall-clock"])
        assert finding_rules(report) == ["wall-clock"]
        assert not report.suppressed

    def test_wildcard_and_multi_rule_lists(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f(label):
                    a = time.time()  # repro-lint: disable=wall-clock,builtin-hash (both known)
                    b = hash(label)  # repro-lint: disable=* (fixture line)
                    return a, b
            """,
        }, rules=["wall-clock", "builtin-hash"])
        assert report.clean and len(report.suppressed) == 2

    def test_suppressing_one_rule_keeps_the_other(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """
                import time
                def f():
                    return time.time()  # repro-lint: disable=builtin-hash (wrong rule)
            """,
        }, rules=["wall-clock"])
        assert finding_rules(report) == ["wall-clock"]


# ----------------------------------------------------------------------
# Baseline, report schema, CLI
# ----------------------------------------------------------------------
DIRTY = {
    "mod.py": """
        import time
        def f():
            return time.time()
    """,
}


class TestBaseline:
    def test_round_trip_grandfathers_findings(self, tmp_path):
        report = lint_tree(tmp_path / "tree", dict(DIRTY), rules=["wall-clock"])
        assert not report.clean
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)
        keys = load_baseline(baseline_path)
        assert keys == {finding.key() for finding in report.findings}

        again = lint_tree(tmp_path / "tree", {}, rules=["wall-clock"],
                          baseline_keys=keys)
        assert again.clean
        assert [f.rule for f in again.baselined] == ["wall-clock"]

    def test_baseline_keys_survive_line_drift(self, tmp_path):
        report = lint_tree(tmp_path / "tree", dict(DIRTY), rules=["wall-clock"])
        keys = {finding.key() for finding in report.findings}
        shifted = {
            "mod.py": """
                import time

                PAD = 1


                def f():
                    return time.time()
            """,
        }
        again = lint_tree(tmp_path / "shifted", shifted, rules=["wall-clock"],
                          baseline_keys=keys)
        assert again.clean and len(again.baselined) == 1

    def test_missing_baseline_is_empty_and_malformed_raises(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(LintError):
            load_baseline(bad)


class TestReportSchema:
    def test_json_document_shape(self, tmp_path):
        report = lint_tree(tmp_path, dict(DIRTY), rules=["wall-clock"])
        document = report.to_dict()
        assert document["version"] == 1
        assert document["clean"] is False
        assert document["checked_files"] == 1
        assert document["counts"] == {"findings": 1, "suppressed": 0, "baselined": 0}
        assert document["rules"] == [
            {"id": "wall-clock", "category": "determinism",
             "rationale": RULES["wall-clock"].rationale}
        ]
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "path", "line", "column", "message", "snippet"}
        assert finding["path"] == "mod.py"
        json.dumps(document)  # must be JSON-serializable as-is

    def test_unknown_rule_filter_raises(self, tmp_path):
        write_tree(tmp_path, dict(DIRTY))
        with pytest.raises(LintError, match="unknown rule"):
            run_lint([str(tmp_path)], rule_filter=["no-such-rule"])


class TestCommandLine:
    def run_cli(self, *args, module="repro.devtools.lint"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        )

    def test_exit_codes(self, tmp_path):
        clean = write_tree(tmp_path / "clean", {"mod.py": "x = 1\n"})
        dirty = write_tree(tmp_path / "dirty", dict(DIRTY))
        assert self.run_cli(str(clean)).returncode == EXIT_CLEAN
        assert self.run_cli(str(dirty)).returncode == EXIT_FINDINGS
        assert self.run_cli(str(tmp_path / "nowhere")).returncode == EXIT_ERROR

    def test_json_flag_emits_schema_document(self, tmp_path):
        dirty = write_tree(tmp_path, dict(DIRTY))
        result = self.run_cli(str(dirty), "--json")
        assert result.returncode == EXIT_FINDINGS
        document = json.loads(result.stdout)
        assert document["version"] == 1 and document["counts"]["findings"] >= 1

    def test_update_baseline_then_clean(self, tmp_path):
        dirty = write_tree(tmp_path, dict(DIRTY))
        baseline = tmp_path / "baseline.json"
        first = self.run_cli(str(dirty), "--baseline", str(baseline),
                             "--update-baseline")
        assert first.returncode == EXIT_CLEAN
        second = self.run_cli(str(dirty), "--baseline", str(baseline))
        assert second.returncode == EXIT_CLEAN

    def test_main_cli_lint_subcommand_forwards(self, tmp_path):
        dirty = write_tree(tmp_path, dict(DIRTY))
        result = self.run_cli("lint", str(dirty), "--json", module="repro.cli")
        assert result.returncode == EXIT_FINDINGS
        assert json.loads(result.stdout)["version"] == 1


# ----------------------------------------------------------------------
# The live tree
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_and_tests_have_zero_unsuppressed_findings(self):
        report = run_lint(
            [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "tests")],
            root=str(REPO_ROOT),
            baseline_path=str(REPO_ROOT / "lint-baseline.json"),
        )
        details = "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in report.findings
        )
        assert report.clean, f"unsuppressed lint findings:\n{details}"

    def test_committed_baseline_is_empty(self):
        assert load_baseline(REPO_ROOT / "lint-baseline.json") == set()

    def test_every_live_suppression_carries_a_reason(self):
        report = run_lint([str(REPO_ROOT / "src" / "repro")])
        # Suppressed findings imply a parsed (reason) — the malformed
        # form is inert by construction; meta-check a few known sites.
        assert len(report.suppressed) >= 10
        suppressed_rules = {finding.rule for finding in report.suppressed}
        assert "builtin-hash" in suppressed_rules
        assert "worker-lock" in suppressed_rules
        assert "fork-under-lock" in suppressed_rules

    def test_service_job_worker_is_an_entry_point(self):
        # The process-mode job pool's worker is found through its
        # ``pool.submit(_process_job_worker, ...)`` call site, so the
        # worker-lock rule walks everything a forked job can reach.
        report_root = REPO_ROOT / "src"
        modules = [SourceModule(path, report_root)
                   for path in sorted((report_root / "repro").rglob("*.py"))]
        graph = build_call_graph(Project(modules, report_root))
        assert "repro.service.service:_process_job_worker" in graph.entry_points
        assert "repro.engine.registry:_ensure_builtins" in graph.reachable()
