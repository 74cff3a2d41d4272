"""Side-by-side comparison of summarization methods on one or more graphs.

This is the programmatic backbone of Fig. 1(a), Fig. 5(a), and Fig. 5(b):
given a graph and a set of methods, run every method, validate
losslessness, and collect relative sizes and runtimes into uniform
records.  Methods are resolved through the :mod:`repro.engine` registry —
a name, a configured :class:`~repro.engine.base.Summarizer`, or (for
backwards compatibility) a plain ``(graph, seed) -> summary`` callable
all work, with no per-method branching anywhere in the harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro import engine
from repro.analysis.metrics import compression_report
from repro.engine.base import AnySummary, EngineResult, Summarizer
from repro.engine.execution import ExecutionConfig
from repro.engine.hooks import RunControl
from repro.graphs.graph import Graph

__all__ = ["MethodResult", "compare_methods", "default_methods"]

MethodFunction = Callable[[Graph, int], AnySummary]
MethodSpec = Union[str, Summarizer, MethodFunction]

#: Callback signature of ``compare_methods(..., on_progress=...)``:
#: ``(method_name, event_dict)`` per pipeline progress event.
ProgressCallback = Callable[[str, Dict[str, Any]], None]


@dataclass
class MethodResult:
    """Outcome of running one method on one graph."""

    method: str
    summary: AnySummary
    runtime_seconds: float
    report: Dict[str, float]
    history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def relative_size(self) -> float:
        """Relative output size of the method on this graph."""
        return self.report["relative_size"]


def default_methods(iterations: int = 10) -> Dict[str, Summarizer]:
    """The five methods compared throughout the paper's evaluation.

    Resolved from the :mod:`repro.engine` registry; ``iterations``
    applies to the iterative methods (SLUGGER and SWeG).  The paper uses
    20, the benches default to a smaller value so the full 16-dataset
    sweep stays fast in pure Python.
    """
    return engine.default_suite(iterations=iterations)


def _resolve(methods: Optional[Union[Mapping[str, MethodSpec], Sequence[str]]]
             ) -> Dict[str, MethodSpec]:
    if methods is None:
        return dict(default_methods())
    if isinstance(methods, Mapping):
        return dict(methods)
    # A sequence of registry names: configure them exactly like the
    # default suite (same iteration default), so spelling the method
    # list out never changes the configs being compared.
    return dict(engine.default_suite(methods=methods))


def _run_spec(
    name: str,
    spec: MethodSpec,
    graph: Graph,
    seed: int,
    execution: Optional[ExecutionConfig] = None,
    service=None,
    on_progress: Optional[ProgressCallback] = None,
    resources=None,
    metrics=None,
    tracer=None,
) -> EngineResult:
    if isinstance(spec, (str, Summarizer)):
        # Registry names and configured summarizers run through the
        # service layer: one interned substrate per graph across the
        # whole comparison, identical output to a direct call.
        from repro.service import SummaryRequest, default_service

        request = SummaryRequest(
            method=spec if isinstance(spec, str) else "",
            summarizer=spec if isinstance(spec, Summarizer) else None,
            graph=graph,
            seed=seed,
            execution=execution,
        )
        control = None
        if on_progress is not None or metrics is not None or tracer is not None:
            callback = None
            if on_progress is not None:
                callback = lambda event, _name=name: on_progress(_name, event)  # noqa: E731
            control = RunControl(on_progress=callback, metrics=metrics, tracer=tracer)
        runner = service if service is not None else default_service()
        if tracer is not None:
            # One parent span per method so a comparison's trace
            # separates the methods' engine spans by enclosure.
            with tracer.span("method", method=name):
                return runner.run(request, control=control, resources=resources)
        return runner.run(request, control=control, resources=resources)
    # Legacy plain callable: wrap its output into an EngineResult so the
    # rest of the harness sees one shape.
    started = time.perf_counter()
    summary = spec(graph, seed)
    return EngineResult(
        method=name,
        summary=summary,
        runtime_seconds=time.perf_counter() - started,
    )


def compare_methods(
    graph: Graph,
    methods: Optional[Union[Mapping[str, MethodSpec], Sequence[str]]] = None,
    seed: int = 0,
    validate: bool = True,
    execution: Optional[ExecutionConfig] = None,
    service=None,
    on_progress: Optional[ProgressCallback] = None,
    resources=None,
    metrics=None,
    tracer=None,
) -> List[MethodResult]:
    """Run every method on ``graph`` and return per-method results.

    ``methods`` may be a mapping of display name → method spec, a
    sequence of registry names, or ``None`` for the paper's default
    suite.  ``execution`` rides along on every request; every method
    runs serially, so it changes no result.
    Results are ordered by ascending relative size (best compression
    first), which makes the winner immediately visible in reports.

    The harness is a thin shim over the service layer: runs go through
    ``service`` (default: the process-wide default service), so every
    method shares one interned substrate build for ``graph``.
    ``on_progress`` optionally receives ``(method_name, event)`` for
    each per-iteration pipeline event.  ``resources`` injects prebuilt
    substrate views shared by every method — e.g. a
    :class:`repro.storage.StoredGraph` mmap load.  Results are
    bit-identical to direct ``Summarizer.summarize`` calls for the same
    seeds.

    ``metrics``/``tracer`` optionally collect telemetry across the whole
    comparison: one :class:`~repro.obs.MetricsRegistry` accumulates every
    method's engine counters, and the tracer wraps each engine run in a
    ``method`` span.  Pure observation — summaries are bit-identical
    with telemetry on or off.
    """
    resolved = _resolve(methods)
    results: List[MethodResult] = []
    for name, spec in resolved.items():
        outcome = _run_spec(name, spec, graph, seed, execution, service,
                            on_progress, resources, metrics, tracer)
        if validate:
            outcome.summary.validate(graph)
        results.append(
            MethodResult(
                method=name,
                summary=outcome.summary,
                runtime_seconds=outcome.runtime_seconds,
                report=compression_report(outcome.summary, graph),
                history=outcome.history,
            )
        )
    results.sort(key=lambda result: result.relative_size)
    return results
