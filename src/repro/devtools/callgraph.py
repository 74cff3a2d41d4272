"""A conservative static call graph rooted at pool-worker entry points.

The fork-safety rules need to know which functions can run inside a
forked process-pool worker (the process-mode service's job pool).
Worker functions are registered in exactly one way in this codebase —
passed as the function argument of a pool's ``submit(fn, *args)``
call, so the roots of the walk are the resolved ``fn`` arguments of
every ``*.submit`` call site in the analyzed tree.  An argument that
does not resolve to a function (a request object handed to
``SummaryService.submit``) adds no root.

Resolution policy
-----------------
Python call graphs are undecidable statically; this one resolves only
edges it can justify, and drops the rest (under-approximation — a rule
built on it can miss exotic dispatch, but what it flags is real):

* bare names: module-level functions of the same module, or names
  brought in via ``from pkg.mod import name``;
* ``self.method(...)``: methods of the lexically enclosing class;
* ``obj.method(...)`` where ``obj`` is a parameter or local variable
  with a resolvable class annotation, or a local assigned directly from
  ``ClassName(...)``: methods of that class;
* ``alias.func(...)`` where ``alias`` comes from ``import pkg.mod as
  alias``: module-level functions of that module.

Attribute chains whose receiver type is unknown produce no edge.  The
walk is cached per :class:`~repro.devtools.framework.Project`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.framework import Project, SourceModule

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "build_call_graph",
    "worker_reachable",
]


@dataclass
class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    qualname: str  # "repro.service.service:_process_job_worker" or "mod:Class.method"
    module: SourceModule
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # enclosing class name, if a method
    calls: Set[str] = field(default_factory=set)  # resolved callee qualnames


class CallGraph:
    """Functions, resolved call edges, and worker-entry reachability."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        #: Worker entry points: resolved ``fn`` arguments of submit calls.
        self.entry_points: Set[str] = set()
        #: qualname → (parent qualname on a shortest path from an entry).
        self._reach_parent: Dict[str, Optional[str]] = {}

    def reachable(self) -> Dict[str, Optional[str]]:
        """Qualnames reachable from any worker entry point (BFS parents)."""
        if not self._reach_parent and self.entry_points:
            frontier = sorted(self.entry_points)
            self._reach_parent = {name: None for name in frontier}
            while frontier:
                nxt: List[str] = []
                for name in frontier:
                    info = self.functions.get(name)
                    if info is None:
                        continue
                    for callee in sorted(info.calls):
                        if callee not in self._reach_parent:
                            self._reach_parent[callee] = name
                            nxt.append(callee)
                frontier = nxt
        return self._reach_parent

    def chain(self, qualname: str) -> List[str]:
        """Entry-point → ... → ``qualname`` path (for finding messages)."""
        parents = self.reachable()
        path = [qualname]
        seen = {qualname}
        current = parents.get(qualname)
        while current is not None and current not in seen:
            path.append(current)
            seen.add(current)
            current = parents.get(current)
        return list(reversed(path))


def build_call_graph(project: Project) -> CallGraph:
    """Build (or fetch the cached) call graph for ``project``."""
    return project.cache("callgraph", lambda: _build(project))  # type: ignore[return-value]


def worker_reachable(project: Project) -> Dict[str, Optional[str]]:
    """Qualnames of functions reachable from pool-worker entry points."""
    return build_call_graph(project).reachable()


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _build(project: Project) -> CallGraph:
    graph = CallGraph()
    scopes: Dict[str, _ModuleScope] = {
        module.name: _ModuleScope(module) for module in project.modules
    }
    for scope in scopes.values():
        scope.all_scopes = scopes
        for info in scope.functions:
            graph.functions[info.qualname] = info
    for scope in scopes.values():
        for info in scope.functions:
            info.calls = _resolve_calls(info, scope)
        graph.entry_points.update(_entry_points(scope))
    return graph


class _ModuleScope:
    """Per-module name tables used during resolution."""

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        #: Every scope in the project, installed by ``_build`` once all
        #: modules are indexed; cross-module lookups resolve through it.
        self.all_scopes: Dict[str, "_ModuleScope"] = {}
        #: local name → dotted module name (``import x.y as z``)
        self.module_aliases: Dict[str, str] = {}
        #: local name → (module name, remote symbol) for ``from m import s``
        self.imported_symbols: Dict[str, Tuple[str, str]] = {}
        #: class name → {method name → qualname}
        self.classes: Dict[str, Dict[str, str]] = {}
        #: module-level function name → qualname
        self.toplevel: Dict[str, str] = {}
        self.functions: List[FunctionInfo] = []
        self._index()

    def _index(self) -> None:
        module = self.module
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imported_symbols[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}:{node.name}"
                self.toplevel[node.name] = qualname
                self.functions.append(FunctionInfo(qualname, module, node))
            elif isinstance(node, ast.ClassDef):
                methods: Dict[str, str] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{module.name}:{node.name}.{item.name}"
                        methods[item.name] = qualname
                        self.functions.append(
                            FunctionInfo(qualname, module, item, cls=node.name)
                        )
                self.classes[node.name] = methods

    # -- lookups --------------------------------------------------------
    def resolve_function_name(self, name: str) -> Optional[str]:
        """A bare called name → qualname, if statically resolvable."""
        if name in self.toplevel:
            return self.toplevel[name]
        if name in self.imported_symbols:
            target_module, symbol = self.imported_symbols[name]
            remote = self._scope_of(target_module)
            if remote is not None:
                return remote.toplevel.get(symbol)
        return None

    def resolve_class(self, name: str) -> Optional[Tuple["_ModuleScope", str]]:
        """A class name in this module's namespace → (defining scope, name)."""
        if name in self.classes:
            return self, name
        if name in self.imported_symbols:
            target_module, symbol = self.imported_symbols[name]
            remote = self._scope_of(target_module)
            if remote is not None and symbol in remote.classes:
                return remote, symbol
        return None

    def resolve_method(self, class_name: str, method: str) -> Optional[str]:
        resolved = self.resolve_class(class_name)
        if resolved is None:
            return None
        scope, name = resolved
        return scope.classes[name].get(method)

    def _scope_of(self, module_name: str) -> Optional["_ModuleScope"]:
        return self.all_scopes.get(module_name)


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """``x: Foo`` / ``x: "Foo"`` / ``x: mod.Foo`` → the terminal class name."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotations: take the last dotted component, ignoring
        # subscripts (Optional[...]) which we cannot use anyway.
        text = annotation.value.strip()
        if text.isidentifier():
            return text
        last = text.split(".")[-1]
        return last if last.isidentifier() else None
    return None


def _local_types(info: FunctionInfo) -> Dict[str, str]:
    """Variable → class-name bindings visible inside ``info``'s body."""
    types: Dict[str, str] = {}
    args = info.node.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ]:
        name = _annotation_name(arg.annotation)
        if name is not None:
            types[arg.arg] = name
    for node in ast.walk(info.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = _annotation_name(node.annotation)
            if name is not None:
                types[node.target.id] = name
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = node.value.func
            class_name = None
            if isinstance(callee, ast.Name) and callee.id[:1].isupper():
                class_name = callee.id
            elif isinstance(callee, ast.Attribute) and callee.attr[:1].isupper():
                class_name = callee.attr
            if class_name is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = class_name
    return types


def _resolve_calls(info: FunctionInfo, scope: _ModuleScope) -> Set[str]:
    calls: Set[str] = set()
    local_types = _local_types(info)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            target = scope.resolve_function_name(func.id)
            if target is None:
                # Calling a class is calling its __init__.
                target = scope.resolve_method(func.id, "__init__")
            if target is not None:
                calls.add(target)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            if receiver == "self" and info.cls is not None:
                target = scope.resolve_method(info.cls, func.attr)
                if target is not None:
                    calls.add(target)
                continue
            if receiver in local_types:
                target = scope.resolve_method(local_types[receiver], func.attr)
                if target is not None:
                    calls.add(target)
                continue
            if receiver in scope.module_aliases:
                remote = scope._scope_of(scope.module_aliases[receiver])
                if remote is not None and func.attr in remote.toplevel:
                    calls.add(remote.toplevel[func.attr])
    return calls


def _entry_points(scope: _ModuleScope) -> Iterator[str]:
    """Resolved ``fn`` arguments of every ``*.submit(fn, ...)`` call."""
    for node in ast.walk(scope.module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            continue
        worker = node.args[0]
        if isinstance(worker, ast.Name):
            target = scope.resolve_function_name(worker.id)
            if target is not None:
                yield target
        elif isinstance(worker, ast.Attribute):
            # ``pool.submit(mod.worker, ...)``
            if isinstance(worker.value, ast.Name):
                alias = worker.value.id
                if alias in scope.module_aliases:
                    remote = scope._scope_of(scope.module_aliases[alias])
                    if remote is not None and worker.attr in remote.toplevel:
                        yield remote.toplevel[worker.attr]
