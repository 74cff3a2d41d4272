"""The unified summarizer abstraction: one result shape, one entry point.

Every summarization method in the library — SLUGGER and the five flat
baselines — historically had its own driver signature and result object.
:class:`Summarizer` is the common protocol the engine registry dispatches
through: ``summarize(graph, seed=...)`` always returns an
:class:`EngineResult` with the summary, shared wall-clock timing, the
per-iteration history (when the method produces one), and method-specific
details.  Adapters only implement :meth:`Summarizer._run`; timing and
result packaging live here so every method is measured the same way.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

from repro.engine.hooks import GraphResources, RunControl
from repro.graphs.graph import Graph
from repro.model.flat import FlatSummary
from repro.model.summary import HierarchicalSummary
from repro.utils.rng import SeedLike
from repro.utils.validation import require_type

__all__ = ["AnySummary", "EngineResult", "Summarizer"]

AnySummary = Union[HierarchicalSummary, FlatSummary]


@dataclass
class EngineResult:
    """Outcome of running one summarizer on one graph.

    Attributes
    ----------
    method:
        Registry name of the method that produced the result.
    summary:
        The (lossless) summary, hierarchical or flat.
    runtime_seconds:
        Wall-clock duration measured by the engine around the whole run.
    history:
        Per-iteration records for iterative methods (empty otherwise).
    details:
        Method-specific extras (e.g. SLUGGER's pruning counters).
    """

    method: str
    summary: AnySummary
    runtime_seconds: float
    history: List[Dict[str, float]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def cost(self) -> int:
        """Model-comparable encoding cost (Eq. 1 / Eq. 11)."""
        if isinstance(self.summary, FlatSummary):
            return self.summary.cost_eq11()
        return self.summary.cost()

    def relative_size(self, graph: Graph) -> float:
        """Relative output size with respect to ``graph`` (Eq. 10 / Eq. 11)."""
        return self.summary.relative_size(graph)

    def validate(self, graph: Graph) -> None:
        """Raise unless the summary represents ``graph`` exactly."""
        self.summary.validate(graph)


class Summarizer(ABC):
    """A named, configured summarization method.

    Subclasses set :attr:`name` (the registry key), declare whether they
    honor an ``iterations`` option via :attr:`iteration_controlled`, and
    implement :meth:`_run`.  Construction keeps the method options in
    :attr:`options`.  Instances are also callable with the legacy
    ``(graph, seed) -> summary`` signature, so existing code that treats
    methods as plain functions keeps working.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""
    #: Whether the method exposes an ``iterations`` knob (SLUGGER, SWeG).
    iteration_controlled: ClassVar[bool] = False

    def __init__(self, **options: Any) -> None:
        self.options = options

    def summarize(
        self,
        graph: Graph,
        seed: SeedLike = None,
        control: Optional[RunControl] = None,
        resources: Optional[GraphResources] = None,
    ) -> EngineResult:
        """Run the method on ``graph`` with shared timing bookkeeping.

        ``control`` (progress/cancel) is honored by SLUGGER and SWeG and
        ``resources`` (shared substrate views) by the methods that read
        it; both are inert for the rest, and neither can change the
        summary.
        """
        require_type(graph, Graph, "graph")
        started = time.perf_counter()
        summary, history, details = self._run(graph, seed, control, resources)
        elapsed = time.perf_counter() - started
        return EngineResult(
            method=self.name,
            summary=summary,
            runtime_seconds=elapsed,
            history=history,
            details=details,
        )

    @abstractmethod
    def _run(
        self,
        graph: Graph,
        seed: SeedLike,
        control: Optional[RunControl],
        resources: Optional[GraphResources],
    ) -> Tuple[AnySummary, List[Dict[str, float]], Dict[str, Any]]:
        """Produce ``(summary, history, details)`` for one graph.

        ``control`` and ``resources`` may be ``None``; a method that has
        no use for them ignores them.
        """

    def __call__(self, graph: Graph, seed: SeedLike = None) -> AnySummary:
        """Legacy ``MethodFunction`` protocol: return just the summary."""
        return self.summarize(graph, seed=seed).summary

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
