"""Unified summarizer engine: protocol, registry, adapters, execution.

``repro.engine`` gives every summarization method one API::

    from repro import engine

    engine.available_methods()                       # registry contents
    result = engine.run("sweg", graph, seed=0, iterations=10)
    result.summary.validate(graph)                   # lossless
    result.cost(), result.runtime_seconds            # shared bookkeeping

Every method runs serially; the one process pool left is a process-mode
service's job pool (see :mod:`repro.service`).

New methods plug in by subclassing :class:`Summarizer` and decorating
with :func:`register`; the CLI, the comparison harness, and the
experiment figures pick them up automatically.  The built-in adapters
are registered lazily on first registry use, which keeps the import
graph acyclic (core drivers import the execution layer from this
package; the adapters import the core drivers).

Serving
-------
``engine.run`` is a thin shim over the default
:class:`repro.service.SummaryService`: repeated calls on the same graph
share one interned substrate build.  Workloads that queue many requests
— with progress, cancellation, concurrency, and process isolation —
should use the service layer directly (see :mod:`repro.service`).
"""

from repro.engine.base import AnySummary, EngineResult, Summarizer
from repro.engine.execution import ExecutionConfig, process_execution_available
from repro.engine.hooks import GraphResources, RunControl
from repro.engine.registry import (
    DEFAULT_SUITE,
    available_methods,
    create,
    default_suite,
    register,
    run,
)

__all__ = [
    "AnySummary",
    "EngineResult",
    "GraphResources",
    "RunControl",
    "Summarizer",
    "DEFAULT_SUITE",
    "ExecutionConfig",
    "available_methods",
    "create",
    "default_suite",
    "process_execution_available",
    "register",
    "run",
]
