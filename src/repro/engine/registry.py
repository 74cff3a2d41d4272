"""The summarizer registry: one lookup table for every method.

The registry is the single place a summarization method is wired into
the system.  ``cli.py compare``, :mod:`repro.analysis.comparison`, the
experiment figures, and the examples all resolve methods by name here,
so adding a scenario (a streaming variant, a lossy mode, a new baseline)
means registering one :class:`~repro.engine.base.Summarizer` subclass —
no per-method glue anywhere else.

>>> from repro import engine
>>> sorted(engine.available_methods())[:3]
['greedy', 'mosso', 'randomized']
>>> result = engine.run("slugger", some_graph, seed=0, iterations=5)  # doctest: +SKIP
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.engine.base import EngineResult, Summarizer
from repro.engine.hooks import GraphResources, RunControl
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike

__all__ = [
    "DEFAULT_SUITE",
    "available_methods",
    "create",
    "default_suite",
    "register",
    "run",
]

_REGISTRY: Dict[str, Type[Summarizer]] = {}

#: Methods the paper's evaluation compares side by side (Fig. 1(a),
#: Fig. 5); GREEDY is registered but excluded from the default suite
#: because it is quadratic-ish and only used as an optimality reference.
DEFAULT_SUITE = ("slugger", "sweg", "mosso", "randomized", "sags")

_BUILTINS_LOADED = False
_BUILTINS_LOADING = False
_BUILTINS_LOCK = threading.RLock()


def _ensure_builtins() -> None:
    """Import the built-in adapters on first registry use (thread-safe).

    Lazy loading keeps the import graph acyclic: the core drivers import
    the execution layer from this package, and the adapters import the
    core drivers — registering them at ``repro.engine`` import time would
    close that loop.  Concurrent first uses (service dispatcher threads)
    serialize on the lock; the ``_BUILTINS_LOADING`` flag lets the
    adapters' own :func:`register` calls — made on the importing thread,
    which already holds the re-entrant lock — pass through while the
    module body runs.
    """
    global _BUILTINS_LOADED, _BUILTINS_LOADING
    if _BUILTINS_LOADED:
        return
    # Forked workers never reach past the lock-free fast path above: the
    # service preloads the registry in the parent (available_methods())
    # before any fork, so _BUILTINS_LOADED is already True in every child.
    # repro-lint: disable=worker-lock (parent preloads pre-fork; workers take the loaded fast path)
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED or _BUILTINS_LOADING:
            return
        # repro-lint: disable=worker-lock (unreachable post-fork; see the preload note above)
        _BUILTINS_LOADING = True
        try:
            from repro.engine import adapters  # noqa: F401 - registration side effect
        finally:
            # repro-lint: disable=worker-lock (unreachable post-fork; see the preload note above)
            _BUILTINS_LOADING = False
        # repro-lint: disable=worker-lock (unreachable post-fork; see the preload note above)
        _BUILTINS_LOADED = True


def register(cls: Type[Summarizer]) -> Type[Summarizer]:
    """Class decorator adding a :class:`Summarizer` subclass to the registry."""
    _ensure_builtins()
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"summarizer {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_methods() -> List[str]:
    """Names of all registered summarizers, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY)


def create(method: str, **options: Any) -> Summarizer:
    """Instantiate the summarizer registered under ``method``.

    ``options`` are method-specific constructor arguments (e.g.
    ``iterations`` for SLUGGER/SWeG, ``epsilon`` for lossy SWeG).

    .. note::
       For serving workloads — repeated or concurrent requests, queueing,
       progress, cancellation — prefer the service layer
       (:class:`repro.service.SummaryService`); ``create`` remains the
       low-level constructor it uses internally.
    """
    _ensure_builtins()
    try:
        cls = _REGISTRY[method]
    except KeyError:
        raise ConfigurationError(
            f"unknown summarizer {method!r}; available: {', '.join(available_methods())}"
        ) from None
    return cls(**options)


def run(
    method: str,
    graph: Graph,
    seed: SeedLike = None,
    control: Optional[RunControl] = None,
    resources: Optional[GraphResources] = None,
    **options: Any,
) -> EngineResult:
    """One-shot dispatch, served warm by the default service.

    Since the service layer landed this is a thin shim over
    :func:`repro.service.default_service`: the request runs inline on
    the calling thread, but substrate builds are interned across calls
    on the same graph.  Output is bit-identical to constructing the
    summarizer directly — and to submitting the same request to any
    :class:`repro.service.SummaryService` (queued, concurrent, thread or
    process mode).  New code that issues many requests should talk to a
    service instance directly (``submit`` / ``await summarize``);
    ``run`` stays as the convenient one-shot spelling.

    ``control`` optionally receives per-iteration progress events and
    carries a cancel token.  ``resources`` injects prebuilt substrate
    views — e.g. a :class:`repro.storage.StoredGraph` whose
    memory-mapped CSR the run consumes zero-copy — and bypasses the
    default service's interning for the call; output is bit-identical
    either way.
    """
    from repro.service import SummaryRequest, default_service

    request = SummaryRequest(method=method, graph=graph, seed=seed, options=options)
    return default_service().run(request, control=control, resources=resources)


def default_suite(
    iterations: int = 10, methods: Optional[Sequence[str]] = None
) -> Dict[str, Summarizer]:
    """Configured summarizers for a method comparison.

    ``iterations`` is applied to every iteration-controlled method
    (SLUGGER and SWeG); the rest take no iteration knob.  ``methods``
    defaults to :data:`DEFAULT_SUITE`.
    """
    _ensure_builtins()
    names = DEFAULT_SUITE if methods is None else tuple(methods)
    suite: Dict[str, Summarizer] = {}
    for name in names:
        cls = _REGISTRY.get(name)
        if cls is None:
            raise ConfigurationError(
                f"unknown summarizer {name!r}; available: {', '.join(available_methods())}"
            )
        options = {"iterations": iterations} if cls.iteration_controlled else {}
        suite[name] = cls(**options)
    return suite
