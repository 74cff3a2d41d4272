"""Determinism rules: the output must not depend on the clock, the
process's hash seed, or an unseeded global RNG.

The stack's headline guarantee — summaries bit-identical for fixed
seeds at any worker count, under any ``PYTHONHASHSEED`` — is enforced
dynamically by fingerprint-pinned tests; these rules catch the bug
classes *before* a pin trips, at the AST level.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.framework import (
    Finding,
    Project,
    Rule,
    SourceModule,
    register_rule,
)

__all__ = [
    "BuiltinHashRule",
    "GlobalRngRule",
    "RngKeyedSortRule",
    "UnorderedIterationRule",
    "WallClockRule",
]


@register_rule
class WallClockRule(Rule):
    """``time.time()`` is banned: runtime measurement uses ``perf_counter``.

    ``time.time()`` is wall-clock — NTP slews and DST make deltas
    non-monotonic, and past audits (PR 3) removed every use.  This rule
    keeps them out.  ``perf_counter``/``monotonic`` are fine, as is
    ``time.time`` in a *name* position for documentation.
    """

    id = "wall-clock"
    category = "determinism"
    rationale = (
        "time.time() is non-monotonic wall-clock; runtime measurement must "
        "use time.perf_counter()"
    )

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        time_aliases = _imported_module_aliases(module, "time")
        from_imports = _from_imported(module, "time")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ):
                yield self.finding(
                    module, node, "time.time() call; use time.perf_counter()"
                )
            elif (
                isinstance(func, ast.Name)
                and from_imports.get(func.id) == "time"
            ):
                yield self.finding(
                    module,
                    node,
                    f"{func.id}() resolves to time.time; use time.perf_counter()",
                )


@register_rule
class GlobalRngRule(Rule):
    """No module-level / unseeded ``random.*`` or ``numpy.random`` calls.

    Calls on the shared module-level generator (``random.random()``,
    ``random.shuffle(...)``, ``numpy.random.rand()``, …) draw from
    process-global state that any import or other component can
    perturb, so two runs with the same user seed diverge.  Every
    randomized component must accept a seed and normalize it through
    :func:`repro.utils.rng.ensure_rng`; constructing ``random.Random``
    / ``random.SystemRandom`` instances is allowed (that is what the
    helper does), and :mod:`repro.utils.rng` itself is exempt.
    """

    id = "global-rng"
    category = "determinism"
    rationale = (
        "module-level random.* / numpy.random calls use process-global RNG "
        "state; thread seeds through repro.utils.rng.ensure_rng"
    )

    #: Module whose job is to own the one sanctioned RNG boundary.
    #: Matched on the dotted module name so the exemption holds no
    #: matter which directory the analyzer was pointed at.
    exempt_modules = ("repro.utils.rng",)

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        if module.name in self.exempt_modules:
            return
        random_aliases = _imported_module_aliases(module, "random")
        numpy_aliases = _imported_module_aliases(module, "numpy")
        from_random = _from_imported(module, "random")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                receiver, attr = func.value.id, func.attr
                if (
                    receiver in random_aliases
                    and attr not in ("Random", "SystemRandom")
                ):
                    yield self.finding(
                        module,
                        node,
                        f"random.{attr}() uses the process-global RNG; "
                        "thread a seeded random.Random through instead",
                    )
            # numpy.random.<fn>(...) — receiver is itself an attribute.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_aliases
            ):
                yield self.finding(
                    module,
                    node,
                    f"numpy.random.{func.attr}() uses global RNG state; "
                    "use a seeded Generator",
                )
            if isinstance(func, ast.Name):
                origin = from_random.get(func.id)
                if origin is not None and origin not in ("Random", "SystemRandom"):
                    yield self.finding(
                        module,
                        node,
                        f"{func.id}() is random.{origin} on the process-global "
                        "RNG; thread a seeded random.Random through instead",
                    )


@register_rule
class BuiltinHashRule(Rule):
    """Builtin ``hash()`` is ``PYTHONHASHSEED``-sensitive on strings.

    Any ``hash()`` result that feeds control flow or output ordering
    makes summaries differ between interpreter launches.  The only
    sanctioned uses are the two documented label-hashing boundaries
    (pinned under ``PYTHONHASHSEED=0`` in CI), which carry inline
    suppressions; everything else must use the seeded 2-universal
    family in :mod:`repro.core.shingles` or a content hash.
    """

    id = "builtin-hash"
    category = "determinism"
    rationale = (
        "builtin hash() varies with PYTHONHASHSEED on str/bytes; results "
        "feeding control flow or ordering break cross-process determinism"
    )

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        rebound = _module_level_names(module)
        if "hash" in rebound:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module,
                    node,
                    "builtin hash() is PYTHONHASHSEED-sensitive on strings; "
                    "use a seeded/content hash",
                )


#: Call names whose result cannot depend on input order (safe consumers).
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
    "Counter",
}

#: Method calls that produce unordered (or hash-order) iterables.  dict
#: views iterate in insertion order, which is deterministic — but whether
#: an *insertion order* is output-grade is a per-site decision, so the
#: rule still asks for sorted() or an explicit justification in the
#: pipeline packages.
_UNORDERED_METHODS = {"keys", "values", "intersection", "union", "difference",
                      "symmetric_difference"}
_UNORDERED_CALLS = {"set", "frozenset"}


@register_rule
class UnorderedIterationRule(Rule):
    """Unordered iteration must not reach list-building or emission.

    In the pipeline packages (``core/``, ``baselines/``, ``model/``),
    iterating a ``set`` (hash order — ``PYTHONHASHSEED``-dependent for
    strings) or a dict view into a list, an ``extend``, or a ``yield``
    bakes an iteration order into the output.  Wrap the iterable in
    ``sorted(...)``, or suppress with a justification when the order is
    provably deterministic (e.g. dict views reflect insertion order and
    the pinned RNG stream depends on it).
    """

    id = "unordered-iter"
    category = "determinism"
    rationale = (
        "set/dict-view iteration order reaching list building or emission "
        "bakes hash/insertion order into output; wrap in sorted() or justify"
    )

    #: Packages whose output ordering is the paper-pinned product.  The
    #: scope matches dotted module names (``repro.core.state``), so it is
    #: independent of which directory the analyzer was pointed at.
    scope_packages = ("core", "baselines", "model")

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        segments = module.name.split(".")[:-1]
        if not any(package in segments for package in self.scope_packages):
            return
        parents = module.parents()
        for node in ast.walk(module.tree):
            # list(U) / tuple(U) / list(genexp-over-U)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "tuple") and node.args:
                    arg = node.args[0]
                    source = arg
                    if isinstance(arg, ast.GeneratorExp) and arg.generators:
                        source = arg.generators[0].iter
                    if _is_unordered(source) and not _under_safe_consumer(node, parents):
                        yield self.finding(
                            module,
                            node,
                            f"{node.func.id}() over an unordered iterable; "
                            "wrap in sorted()",
                        )
                # something.extend(U)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "extend"
                and node.args
            ):
                arg = node.args[0]
                source = arg
                if isinstance(arg, ast.GeneratorExp) and arg.generators:
                    source = arg.generators[0].iter
                if _is_unordered(source):
                    yield self.finding(
                        module, node,
                        ".extend() of an unordered iterable; wrap in sorted()",
                    )
            # [f(x) for x in U]
            if isinstance(node, (ast.ListComp,)):
                if any(_is_unordered(gen.iter) for gen in node.generators):
                    if not _under_safe_consumer(node, parents):
                        yield self.finding(
                            module,
                            node,
                            "list comprehension over an unordered iterable; "
                            "wrap in sorted()",
                        )
            # for x in U: ... append/yield ...
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_unordered(node.iter):
                if _body_builds_output(node):
                    yield self.finding(
                        module,
                        node,
                        "for-loop over an unordered iterable feeds appends/"
                        "yields; iterate sorted(...) instead",
                    )


def _is_unordered(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _UNORDERED_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _UNORDERED_METHODS:
            return True
    return False


def _under_safe_consumer(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether an enclosing call neutralizes iteration order.

    Walks up through pure expression wrappers; stops at statements.  A
    ``sorted(...)`` / ``sum(...)`` / ``set(...)`` ancestor makes the
    inner iteration order unobservable.
    """
    current = parents.get(node)
    while current is not None and isinstance(current, ast.expr):
        if isinstance(current, ast.Call) and isinstance(current.func, ast.Name):
            if current.func.id in _ORDER_INSENSITIVE_CONSUMERS:
                return True
        current = parents.get(current)
    return False


def _body_builds_output(loop: ast.stmt) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend", "insert")
        ):
            return True
    return False


#: ``random.Random`` methods; a sort key that calls one draws per item.
_RNG_METHODS = {
    "random", "randrange", "randint", "getrandbits", "randbytes", "uniform",
    "triangular", "choice", "choices", "sample", "shuffle", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
    "gammavariate", "betavariate", "paretovariate", "weibullvariate",
}
#: Calls whose result is in an order defined by content alone.
_CONTENT_ORDERED_CALLS = {"sorted", "content_order", "range"}


@register_rule
class RngKeyedSortRule(Rule):
    """A sort key that draws from an RNG must run over a content-defined order.

    ``sorted(S, key=lambda _: rng.random())`` draws one key per item in
    ``S``'s iteration order.  When ``S`` is a set or a dict (view) that
    order follows the collection's history — deletions, a ``copy()``, the
    hash seed — so equal contents with equal seeds come out in different
    orders.  The same holds for ``min``/``max``.  Only an iterable that is
    already ordered by content passes: a ``sorted(...)``,
    ``content_order(...)`` or ``range(...)`` call, or a list or tuple
    literal.  :func:`repro.utils.rng.shuffled` does the sort-then-draw.

    An RNG ``shuffle`` / ``sample`` / ``choice`` / ``choices`` over a
    ``list(...)`` of a set-valued call draws in the set's order too, so
    it is flagged as well — directly, or through a local name bound to
    such a list in the same function.  Set-valued expressions are set
    literals, ``set`` / ``frozenset`` calls, set algebra and, by naming
    convention, any ``*_set`` accessor such as ``Graph.neighbor_set``.
    """

    id = "rng-keyed-sort"
    category = "determinism"
    rationale = (
        "RNG keys drawn in a set's or dict's iteration order make the result "
        "depend on the collection's history; sort the content first"
    )

    #: The pipeline packages plus ``lossy/``, whose drops are seeded too.
    scope_packages = ("core", "baselines", "model", "lossy")

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        segments = module.name.split(".")[:-1]
        if not any(package in segments for package in self.scope_packages):
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "min", "max")
                and node.args
            ):
                continue
            key = next((kw.value for kw in node.keywords if kw.arg == "key"), None)
            if key is None or not _draws_random(key) or _content_ordered(node.args[0]):
                continue
            yield self.finding(
                module,
                node,
                f"{node.func.id}() with an RNG-drawing key over an iterable that is "
                "not content-ordered; sort it first or use repro.utils.rng.shuffled",
            )
        for function in ast.walk(module.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(_scope_nodes(function))
            assigns = [node for node in nodes if isinstance(node, ast.Assign)
                       and isinstance(node.targets[0], ast.Name)]
            tainted: Set[str] = set()
            for _ in assigns:  # Closes the bound names over ``a = b`` copies.
                tainted |= {node.targets[0].id for node in assigns
                            if _set_ordered_list(node.value, tainted)}
            for node in nodes:
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("shuffle", "sample", "choice", "choices")
                        and node.args and _set_ordered_list(node.args[0], tainted)):
                    yield self.finding(module, node, f"{node.func.attr}() draws over a list "
                                       "in a set's iteration order; sort it by content first")


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``scope`` outside nested functions, lambdas and classes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _set_ordered_list(expr: ast.expr, tainted: Set[str]) -> bool:
    """Whether ``expr`` is ``list(<set-valued>)`` or a name bound to one."""
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if not (isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "list" and expr.args):
        return False
    inner = expr.args[0]
    while isinstance(inner, ast.BinOp):  # ``a - b``, ``a | b``, ... on sets
        inner = inner.left
    attr = getattr(inner.func, "attr", "") if isinstance(inner, ast.Call) else ""
    # Dict views iterate in insertion order, which a pickle keeps.
    return attr.endswith("_set") or (_is_unordered(inner) and attr not in ("keys", "values"))


def _draws_random(expr: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RNG_METHODS
        for node in ast.walk(expr)
    )


def _content_ordered(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.Tuple)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _CONTENT_ORDERED_CALLS
    return False


# ----------------------------------------------------------------------
# Shared import-table helpers
# ----------------------------------------------------------------------
def _imported_module_aliases(module: SourceModule, target: str) -> Set[str]:
    """Local names bound to module ``target`` via ``import`` statements."""
    aliases: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target or alias.name.startswith(target + "."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def _from_imported(module: SourceModule, target: str) -> Dict[str, str]:
    """``from target import x [as y]`` → {local name: remote name}."""
    table: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == target:
            for alias in node.names:
                table[alias.asname or alias.name] = alias.name
    return table


def _module_level_names(module: SourceModule) -> Set[str]:
    names: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names
