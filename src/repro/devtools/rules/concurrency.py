"""Fork-safety rules for everything a process-pool worker can reach.

A process-mode :class:`~repro.service.SummaryService` forks job workers
that inherit the parent's memory image copy-on-write.  Three bug classes have
bitten (and been fixed) in past PRs; these rules keep them from coming
back:

* a forked child inherits any lock *in the held state* it was in at
  fork time — a worker-reachable ``acquire`` can deadlock forever
  (PR 4's warm-pool hardening);
* a worker that mutates module globals writes to its private
  copy-on-write page, silently diverging from the parent — state that
  looks shared but is not;
* forking (a fork-context pool's first ``submit()``, ``fork()``, pool
  creation) *while holding a lock* snapshots that lock held into every
  child.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.callgraph import build_call_graph
from repro.devtools.framework import (
    Finding,
    Project,
    Rule,
    SourceModule,
    register_rule,
)

__all__ = [
    "ForkUnderLockRule",
    "WorkerLockRule",
]

#: Terminal names that identify a lock object in this codebase's idiom
#: (``self._lock``, ``_BUILTINS_LOCK``, ``self._sync``, …).
_LOCKISH_FRAGMENTS = ("lock", "mutex")
_LOCKISH_EXACT = {"_sync"}


def _is_lockish(expr: ast.expr) -> bool:
    """Whether an expression names a lock by this repo's conventions."""
    name: Optional[str] = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Call):
        # ``with threading.Lock():`` — an anonymous lock is still a lock.
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in ("Lock", "RLock"):
            return True
        if isinstance(func, ast.Name) and func.id in ("Lock", "RLock"):
            return True
        return False
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _LOCKISH_EXACT or any(
        fragment in lowered for fragment in _LOCKISH_FRAGMENTS
    )


def _lock_acquisitions(func_node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """(node, description) for every lock acquisition inside ``func_node``."""
    for node in ast.walk(func_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_lockish(item.context_expr):
                    yield node, f"'with {ast.unparse(item.context_expr)}:'"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and _is_lockish(node.func.value)
        ):
            yield node, f"'{ast.unparse(node.func)}()'"


def _global_mutations(func_node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """(node, name) for module globals this function declares and writes."""
    declared: Set[str] = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return
    for node in ast.walk(func_node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                yield node, target.id


@register_rule
class WorkerLockRule(Rule):
    """Worker-reachable code must not acquire locks or mutate globals.

    Reachability is a call-graph walk from every function passed to a
    ``*.submit(fn, ...)`` call (the functions that run in forked pool
    workers).  A forked child inherits parent locks in
    whatever state they were in at fork time — acquiring one that a
    parent thread held is an unrecoverable deadlock; mutating a module
    global only writes the child's copy-on-write page.  Intentional
    lock-free fast paths (e.g. the registry's pre-fork preload) carry
    inline suppressions explaining why they are safe.
    """

    id = "worker-lock"
    category = "concurrency"
    rationale = (
        "code reachable from forked pool workers must not acquire "
        "threading locks or mutate module globals (fork-inherited locks "
        "deadlock; CoW global writes silently diverge)"
    )

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        graph = build_call_graph(project)
        reachable = graph.reachable()
        for qualname, info in graph.functions.items():
            if info.module is not module or qualname not in reachable:
                continue
            chain = " -> ".join(
                name.split(":", 1)[1] for name in graph.chain(qualname)
            )
            for node, description in _lock_acquisitions(info.node):
                yield self.finding(
                    module,
                    node,
                    f"{description} acquired in worker-reachable code "
                    f"(via {chain}); a fork-inherited held lock deadlocks the child",
                )
            for node, name in _global_mutations(info.node):
                yield self.finding(
                    module,
                    node,
                    f"module global {name!r} mutated in worker-reachable code "
                    f"(via {chain}); forked workers only write their own "
                    "copy-on-write page",
                )


#: Call names that create forked children (or force a pool to fork): a
#: fork-context ``ProcessPoolExecutor`` forks its workers at its first
#: ``submit``.
_FORKING_CALLS = {"submit", "fork", "ProcessPoolExecutor"}


@register_rule
class ForkUnderLockRule(Rule):
    """No ``with lock:`` body may fork (``submit``/``fork``/pools).

    ``fork`` snapshots every lock in its *current* state: forking while
    holding one hands each child a permanently-held copy (the PR 4
    warm-pool deadlock).  Pools must be created and forked outside lock
    scopes; registering state under a lock is fine, forking under one is
    not.
    """

    id = "fork-under-lock"
    category = "concurrency"
    rationale = (
        "forking while holding a lock copies the held lock into every "
        "child; submit()/fork()/pool creation must happen outside "
        "lock scopes"
    )

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(_is_lockish(item.context_expr) for item in node.items):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                func = inner.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name in _FORKING_CALLS:
                    yield self.finding(
                        module,
                        inner,
                        f"{name}() inside a 'with lock:' body; forking under a "
                        "held lock deadlocks the children",
                    )

