"""Core of the ``repro-lint`` static analyzer: files, findings, rules.

The analyzer enforces *this repository's* invariants — determinism under
any ``PYTHONHASHSEED`` and worker count, fork-safety of everything a
pool worker can reach, and API hygiene — as cheap AST checks that run
in CI on every push.  The design mirrors the classic lint pipeline:

* every source file is parsed **once** into a :class:`SourceModule`
  (AST + raw lines + suppression comments), shared by all rules;
* a :class:`Project` bundles the parsed modules with lazily-built
  cross-module indexes (the worker call graph, the exception taxonomy);
* each :class:`Rule` walks the shared trees and yields
  :class:`Finding` records;
* findings are filtered against inline suppressions and an optional
  checked-in baseline before they reach the report.

Suppressions
------------
A finding is suppressed by a comment of the form::

    risky_call()  # repro-lint: disable=rule-id (why this is safe)

either on the flagged line itself or on a standalone comment line
directly above it.  The parenthesized justification is **mandatory** —
a suppression without a reason does not suppress anything.  Several
rules may be listed separated by commas; ``disable=*`` disables every
rule for the line.

This module has no dependencies on the runtime stack beyond
:mod:`repro.exceptions`; importing :mod:`repro` must never import
:mod:`repro.devtools` (the analyzer adds zero weight to serving paths —
guarded by ``bench_hotpaths.py``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import LintError

__all__ = [
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceModule",
    "all_rules",
    "collect_files",
    "lint_paths",
    "parent_map",
    "register_rule",
    "rule_ids",
]

#: ``# repro-lint: disable=rule-a,rule-b (reason)`` — the reason is not
#: optional; see the module docstring.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([\w\-*,\s]+?)\s*\(([^)]+)\)"
)
_BARE_SUPPRESSION_RE = re.compile(r"#\s*repro-lint:\s*disable=")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # project-root-relative, posix separators
    line: int  # 1-based
    column: int  # 0-based, as in the ast module
    message: str
    snippet: str  # the stripped source line, for context and baseline keys

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across pure line-number drift.

        Keyed on the rule, the file, and the *text* of the flagged line
        rather than its number, so unrelated edits above a grandfathered
        finding do not un-baseline it.
        """
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
        }


class SourceModule:
    """One parsed source file: AST, raw lines, and suppression table."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        try:
            self.relpath = path.relative_to(root).as_posix()
        except ValueError:
            self.relpath = path.as_posix()
        try:
            self.text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        self.lines: List[str] = self.text.splitlines()
        try:
            self.tree: ast.Module = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        #: Dotted module name relative to its package root (``repro.core.state``)
        #: when the file lives in an importable package, else the stem.
        self.name = _module_name(path)
        self.suppressions: Dict[int, Set[str]] = {}
        self.suppression_reasons: Dict[int, str] = {}
        self.malformed_suppressions: List[int] = []
        self._collect_suppressions()
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # -- suppressions ---------------------------------------------------
    def _collect_suppressions(self) -> None:
        """Build the line → disabled-rules table from comment tokens.

        Tokenizing (rather than regexing raw lines) keeps ``#`` inside
        string literals from being misread as comments.  A comment on a
        code line applies to that line; a comment alone on its line
        applies to the next code line.
        """
        pending: List[Tuple[int, Set[str], str]] = []
        code_lines: Set[int] = set()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse caught it
            return
        comments: List[Tuple[int, str]] = []
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
                tokenize.ENCODING,
            ):
                code_lines.add(tok.start[0])
        for line, comment in comments:
            match = _SUPPRESSION_RE.search(comment)
            if match is None:
                if _BARE_SUPPRESSION_RE.search(comment):
                    # ``disable=`` without a (reason): deliberately inert.
                    self.malformed_suppressions.append(line)
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            reason = match.group(2).strip()
            if line in code_lines:
                self._add_suppression(line, rules, reason)
            else:
                pending.append((line, rules, reason))
        # Standalone suppression comments attach to the next code line.
        ordered_code = sorted(code_lines)
        for line, rules, reason in pending:
            target = next((code for code in ordered_code if code > line), None)
            if target is not None:
                self._add_suppression(target, rules, reason)

    def _add_suppression(self, line: int, rules: Set[str], reason: str) -> None:
        self.suppressions.setdefault(line, set()).update(rules)
        self.suppression_reasons[line] = reason

    def is_suppressed(self, finding: Finding) -> bool:
        disabled = self.suppressions.get(finding.line)
        if not disabled:
            return False
        return "*" in disabled or finding.rule in disabled

    # -- tree helpers ---------------------------------------------------
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over this module's AST (built once)."""
        if self._parents is None:
            self._parents = parent_map(self.tree)
        return self._parents

    def snippet_at(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.relpath,
            line=line,
            column=column,
            message=message,
            snippet=self.snippet_at(line),
        )


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child → parent links for every node under ``tree``."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _module_name(path: Path) -> str:
    """Dotted import name inferred from ``__init__.py`` package markers."""
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        current = current.parent
    return ".".join(parts) if parts else path.stem


class Project:
    """All modules under analysis plus shared cross-module indexes."""

    def __init__(self, modules: Sequence[SourceModule], root: Path) -> None:
        self.root = root
        self.modules: List[SourceModule] = list(modules)
        self.by_name: Dict[str, SourceModule] = {}
        for module in self.modules:
            # First definition wins; duplicate names (fixture trees) are
            # only ambiguous for cross-module resolution, never fatal.
            self.by_name.setdefault(module.name, module)
        self._caches: Dict[str, object] = {}

    def cache(self, key: str, build) -> object:
        """Memoize an expensive cross-module index (e.g. the call graph)."""
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]


class Rule:
    """Base class for lint rules.

    Subclasses define ``id``/``category``/``rationale`` and implement
    :meth:`check`.  Rules must be stateless across modules — the runner
    may invoke them in any file order (files are sorted for determinism,
    but nothing may depend on it).
    """

    id: str = ""
    category: str = ""
    rationale: str = ""

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return module.finding(self.id, node, message)


#: Rule id → singleton instance.  Populated by :func:`register_rule` as
#: the rule modules import; :func:`all_rules` triggers those imports.
_RULES: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not cls.id:
        raise LintError(f"{cls.__name__} must define a non-empty id")
    if cls.id in _RULES:
        raise LintError(f"lint rule {cls.id!r} is already registered")
    _RULES[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, importing the built-in rule pack on first use."""
    from repro.devtools import rules  # noqa: F401 - registration side effect

    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_ids() -> List[str]:
    return [rule.id for rule in all_rules()]


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    checked_files: int = 0
    rules: List[Rule] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """The documented ``--json`` schema (version 1)."""
        return {
            "version": 1,
            "clean": self.clean,
            "checked_files": self.checked_files,
            "counts": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
            },
            "rules": [
                {"id": rule.id, "category": rule.category, "rationale": rule.rationale}
                for rule in self.rules
            ],
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "baselined": [finding.to_dict() for finding in self.baselined],
        }


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Python files under ``paths`` (files kept as-is, dirs walked), sorted."""
    files: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise LintError(f"not a Python file or directory: {path}")
    return sorted(files)


def lint_paths(
    paths: Sequence,
    root: Optional[Path] = None,
    rules: Optional[Iterable[Rule]] = None,
    baseline_keys: Optional[Set[Tuple[str, str, str]]] = None,
) -> LintReport:
    """Run the rule pack over ``paths`` and return the filtered report.

    ``root`` anchors the relative paths used in output and baseline keys
    (default: the common parent of ``paths``).  ``baseline_keys`` are
    grandfathered finding keys (see :meth:`Finding.key`); matching
    findings are reported separately and do not fail the run.
    """
    resolved = [Path(p).resolve() for p in paths]
    if not resolved:
        raise LintError("no paths to lint")
    if root is None:
        root = _common_root(resolved)
    files = collect_files(resolved)
    modules = [SourceModule(path, root) for path in files]
    project = Project(modules, root)
    active_rules = list(rules) if rules is not None else all_rules()

    report = LintReport(checked_files=len(modules), rules=active_rules)
    raw: List[Finding] = []
    for rule in active_rules:
        for module in project.modules:
            raw.extend(rule.check(module, project))
    raw.sort(key=lambda f: (f.path, f.line, f.column, f.rule, f.message))

    module_by_relpath = {module.relpath: module for module in project.modules}
    baseline_keys = baseline_keys or set()
    for finding in raw:
        module = module_by_relpath.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            report.suppressed.append(finding)
        elif finding.key() in baseline_keys:
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    return report


def _common_root(paths: Sequence[Path]) -> Path:
    """Deepest directory containing every path."""
    anchors = [path if path.is_dir() else path.parent for path in paths]
    common = anchors[0]
    for anchor in anchors[1:]:
        while common not in (anchor, *anchor.parents):
            common = common.parent
    return common
