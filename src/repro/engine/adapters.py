"""Registry adapters wrapping SLUGGER and the five baselines.

Each adapter keeps the method options it was built with (the base
``Summarizer.__init__`` stores them) and injects the per-run ``seed`` at
:meth:`~repro.engine.base.Summarizer.summarize` time, so one configured
instance can be reused across graphs and seeds
(which is exactly how the comparison harness sweeps them).  The wrapped
functions are called with the same arguments a direct invocation would
use — registry dispatch and direct calls are bit-identical for a fixed
seed, which the engine equivalence suite asserts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.greedy import greedy_summarize
from repro.baselines.mosso import mosso_summarize
from repro.baselines.randomized import randomized_summarize
from repro.baselines.sags import sags_summarize
from repro.baselines.sweg import sweg_summarize
from repro.core.config import SluggerConfig
from repro.core.slugger import Slugger
from repro.engine.base import AnySummary, Summarizer
from repro.engine.hooks import GraphResources, RunControl
from repro.engine.registry import register
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike

__all__ = [
    "GreedySummarizer",
    "MossoSummarizer",
    "RandomizedSummarizer",
    "SagsSummarizer",
    "SluggerSummarizer",
    "SwegSummarizer",
]

RunOutput = Tuple[AnySummary, List[Dict[str, float]], Dict[str, Any]]


@register
class SluggerSummarizer(Summarizer):
    """SLUGGER (this paper): hierarchical lossless summarization."""

    name = "slugger"
    iteration_controlled = True

    def _run(
        self,
        graph: Graph,
        seed: SeedLike,
        control: Optional[RunControl],
        resources: Optional[GraphResources],
    ) -> RunOutput:
        config = SluggerConfig(**{**self.options, "seed": seed})
        result = Slugger(config).summarize(
            graph, control=control, resources=resources
        )
        return result.summary, result.history, {
            "prune_stats": result.prune_stats,
            "config": config,
            "phase_seconds": result.phase_seconds,
            "execution_stats": result.execution_stats,
        }


@register
class SwegSummarizer(Summarizer):
    """SWeG [Shin et al., WWW'19]: the strongest flat-model competitor."""

    name = "sweg"
    iteration_controlled = True

    def _run(
        self,
        graph: Graph,
        seed: SeedLike,
        control: Optional[RunControl],
        resources: Optional[GraphResources],
    ) -> RunOutput:
        summary = sweg_summarize(
            graph, control=control, resources=resources,
            **{**self.options, "seed": seed},
        )
        return summary, [], {}


@register
class MossoSummarizer(Summarizer):
    """MoSSo [Ko et al., KDD'20] replayed over an insertion stream."""

    name = "mosso"

    def _run(self, graph, seed, control, resources) -> RunOutput:
        summary = mosso_summarize(graph, **{**self.options, "seed": seed})
        return summary, [], {}


@register
class RandomizedSummarizer(Summarizer):
    """RANDOMIZED [Navlakha et al., SIGMOD'08]."""

    name = "randomized"

    def _run(self, graph, seed, control, resources) -> RunOutput:
        summary = randomized_summarize(
            graph, seed=seed, resources=resources, **self.options
        )
        return summary, [], {}


@register
class SagsSummarizer(Summarizer):
    """SAGS [Khan et al., Computing'15]: LSH-based merging."""

    name = "sags"

    def _run(self, graph, seed, control, resources) -> RunOutput:
        summary = sags_summarize(
            graph, resources=resources, **{**self.options, "seed": seed}
        )
        return summary, [], {}


@register
class GreedySummarizer(Summarizer):
    """GREEDY [Navlakha et al., SIGMOD'08]; deterministic, so ``seed`` is unused."""

    name = "greedy"

    def _run(self, graph, seed, control, resources) -> RunOutput:
        summary = greedy_summarize(graph, resources=resources, **self.options)
        return summary, [], {}
