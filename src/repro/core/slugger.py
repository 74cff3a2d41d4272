"""The SLUGGER driver (Algorithm 1).

``Slugger.summarize`` runs ``T`` iterations; each is one pass of three
phases, traced as ``group``, ``merge`` and ``recost`` spans inside an
``iteration`` span:

* **group** draws the iteration's candidate seed, forms the candidate
  root sets (Sect. III-B2) and draws one merge seed per set;
* **merge** runs Algorithm 2 on every candidate set in canonical order,
  each with its pre-drawn seed;
* **recost** records the iteration history entry and optionally verifies
  the incremental indices.

The ``state`` span before the first iteration covers the trivial
summary and its per-root indices; the ``prune`` span after the last
covers Algorithm 3.

SLUGGER is a sequential greedy heuristic and this driver runs it
serially: measured on two CPUs, process-parallel decide strategies
(optimistic replay, colored sweeps) and sharded pruning did not beat
this loop.  Every random draw of a run comes from the single
``ensure_rng(seed)`` stream, so the output is bit-identical for a fixed
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.candidates import generate_candidate_sets
from repro.core.config import SluggerConfig
from repro.core.merging import process_candidate_set
from repro.core.pruning import prune
from repro.core.state import SluggerState
from repro.engine.execution import ExecutionConfig
from repro.engine.hooks import GraphResources, RunControl
from repro.graphs.graph import Graph
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.model.summary import HierarchicalSummary
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_type

__all__ = ["PHASE_NAMES", "Slugger", "SluggerResult", "summarize"]

PHASE_NAMES = ("group", "merge", "recost")


@dataclass
class SluggerResult:
    """Outcome of one SLUGGER run.

    Attributes
    ----------
    summary:
        The final hierarchical summary (after pruning, unless disabled).
    config:
        The configuration the run used.
    history:
        One record per iteration with the iteration number, the merging
        threshold, the number of merges, the number of remaining root
        supernodes, and the encoding cost at the end of the iteration.
    prune_stats:
        Per-substep change counters returned by the pruning step.
    prune_profile:
        Per-substep wall times and pair counters of the pruning step
        (``rounds``, ``pairs_scanned``, ``pairs_reencoded`` and the
        ``edgeless``/``single_edge``/``reencode`` ``_seconds``, see
        :func:`repro.core.pruning.prune`); empty when pruning is disabled.
    runtime_seconds:
        Wall-clock duration of the whole run (monotonic clock).
    phase_seconds:
        Wall-clock seconds spent in each pipeline phase, accumulated
        over all iterations, plus the ``state`` build before the first
        iteration and the final ``prune`` step.
    execution_stats:
        ``groups`` counts the candidate groups processed; ``replayed``
        and ``fallbacks`` are always 0 (SLUGGER runs serially) and stay
        only so stats readers keep one schema.
    """

    summary: HierarchicalSummary
    config: SluggerConfig
    history: List[Dict[str, float]] = field(default_factory=list)
    prune_stats: Dict[str, int] = field(default_factory=dict)
    prune_profile: Dict[str, object] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    execution_stats: Dict[str, int] = field(default_factory=dict)

    def cost(self) -> int:
        """Encoding cost of the final summary (Eq. 1)."""
        return self.summary.cost()

    def relative_size(self, graph: Graph) -> float:
        """Relative output size (Eq. 10) with respect to ``graph``."""
        return self.summary.relative_size(graph)


class Slugger:
    """Scalable lossless summarization of graphs with hierarchy.

    ``execution`` is accepted and ignored: SLUGGER runs serially, so a
    worker count changes neither the summary nor where the work runs.

    Examples
    --------
    >>> from repro.graphs import caveman_graph
    >>> graph = caveman_graph(4, 5, seed=0)
    >>> result = Slugger(SluggerConfig(iterations=5, seed=0)).summarize(graph)
    >>> result.summary.validate(graph)
    >>> result.cost() < graph.num_edges
    True
    """

    def __init__(
        self,
        config: Optional[SluggerConfig] = None,
        execution: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = SluggerConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        self.config = config

    def summarize(
        self,
        graph: Graph,
        control: Optional[RunControl] = None,
        resources: Optional[GraphResources] = None,
    ) -> SluggerResult:
        """Summarize ``graph`` under the hierarchical model (Problem 1).

        ``control`` receives one progress event per iteration and its
        cancel token is checked *between* iterations (a cancelled run
        raises :class:`~repro.exceptions.JobCancelled`; no partial
        summary escapes).  ``resources`` supplies prebuilt substrate
        views (service graph-store interning); both default to ``None``
        and cannot change the summary.

        Checkpoint/resume rides on ``control`` too: when it carries a
        ``checkpoint_sink``, the run hands over an iteration-boundary
        snapshot (summary, RNG stream position, history so far) after
        every iteration; when it carries a ``resume_payload``, the run
        restores that snapshot and continues at iteration ``k + 1``.
        Because every random draw of a run comes from the single
        ``ensure_rng(seed)`` stream and each iteration consumes a
        deterministic prefix of it, restoring the summary plus the RNG
        state at a boundary makes the resumed run bit-identical to the
        uninterrupted one.
        """
        require_type(graph, Graph, "graph")
        config = self.config
        started = time.perf_counter()
        rng = ensure_rng(config.seed)
        metrics = control.metrics if control is not None else NULL_METRICS
        tracer = control.tracer if control is not None else NULL_TRACER
        telemetry = metrics.enabled or tracer.enabled

        with tracer.span("state") as state_span:
            state = SluggerState(
                graph,
                dense=resources.dense() if resources is not None else None,
                csr=resources.csr() if resources is not None else None,
            )
        history: List[Dict[str, float]] = []
        phase_seconds: Dict[str, float] = {"state": state_span.duration}
        if telemetry:
            metrics.histogram("slugger_phase_seconds", phase="state").observe(
                state_span.duration
            )
        stats: Dict[str, int] = {"groups": 0, "replayed": 0, "fallbacks": 0}

        start_iteration = 0
        resume = control.resume_payload if control is not None else None
        if resume is not None and graph.num_edges > 0:
            state.restore_summary(resume["summary"])
            rng.setstate(resume["rng_state"])
            history.extend(resume["history"])
            start_iteration = min(int(resume["iteration"]), config.iterations)

        if graph.num_edges > 0:
            for iteration in range(start_iteration + 1, config.iterations + 1):
                if control is not None:
                    control.checkpoint()
                threshold = config.threshold(iteration)
                with tracer.span("iteration", number=iteration):
                    # The candidate seed is drawn first, then one merge
                    # seed per set in canonical set order: that order is
                    # what makes a fixed-seed (or resumed) run bit-identical.
                    with tracer.span("group", iteration=iteration) as group_span:
                        candidate_sets = generate_candidate_sets(
                            state.dense,
                            state.summary.hierarchy,
                            sorted(state.roots),
                            config,
                            seed=rng.randrange(2**61),
                        )
                        merge_seeds = [rng.randrange(2**61) for _ in candidate_sets]
                    with tracer.span("merge", iteration=iteration) as merge_span:
                        merges = 0
                        for members, merge_seed in zip(candidate_sets, merge_seeds):
                            merges += process_candidate_set(
                                state, members, threshold, config, seed=merge_seed
                            )
                    with tracer.span("recost", iteration=iteration) as recost_span:
                        history.append({
                            "iteration": float(iteration),
                            "threshold": threshold,
                            "merges": float(merges),
                            "roots": float(len(state.roots)),
                            "cost": float(state.summary.cost()),
                        })
                        if config.check_invariants:
                            state.check_consistency()
                stats["groups"] += len(candidate_sets)
                # One measurement source: the span durations feed
                # ``SluggerResult.phase_seconds``, the metrics and the
                # ``phases`` event alike (null spans still self-time).
                seconds = dict(zip(PHASE_NAMES, (
                    group_span.duration, merge_span.duration, recost_span.duration,
                )))
                for name, value in seconds.items():
                    phase_seconds[name] = phase_seconds.get(name, 0.0) + value
                if telemetry:
                    for name, value in seconds.items():
                        metrics.histogram(
                            "slugger_phase_seconds", phase=name
                        ).observe(value)
                    metrics.counter("slugger_iterations_total").inc()
                    metrics.counter("slugger_merges_total").inc(merges)
                    if control is not None:
                        control.emit("phases", iteration=iteration, seconds=seconds)
                if control is not None:
                    entry = history[-1]
                    control.emit(
                        "iteration",
                        iteration=iteration,
                        iterations=config.iterations,
                        threshold=entry["threshold"],
                        merges=int(entry["merges"]),
                        roots=int(entry["roots"]),
                        cost=int(entry["cost"]),
                    )
                    control.save_checkpoint({
                        "iteration": iteration,
                        "summary": state.summary,
                        "rng_state": rng.getstate(),
                        "history": history,
                    })

        prune_stats: Dict[str, int] = {}
        prune_profile: Dict[str, object] = {}
        if config.prune:
            if control is not None:
                control.checkpoint()
            with tracer.span("prune") as prune_span:
                prune_stats = prune(
                    state.dense, state.summary, rounds=config.prune_rounds,
                    profile=prune_profile,
                )
            phase_seconds["prune"] = prune_span.duration
            if telemetry:
                metrics.histogram("slugger_phase_seconds", phase="prune").observe(
                    prune_span.duration
                )
            if control is not None:
                control.emit("prune", cost=int(state.summary.cost()))

        if config.validate_output:
            state.summary.validate(graph)

        if telemetry:
            # One counter per non-zero execution-stats key, so the group
            # count is visible in any exporter without reading
            # SluggerResult.
            for key in sorted(stats):
                if stats[key]:
                    metrics.counter(f"slugger_{key}_total").inc(stats[key])
            metrics.gauge("slugger_final_cost").set(float(state.summary.cost()))

        return SluggerResult(
            summary=state.summary,
            config=config,
            history=history,
            prune_stats=prune_stats,
            prune_profile=prune_profile,
            runtime_seconds=time.perf_counter() - started,
            phase_seconds=phase_seconds,
            execution_stats=stats,
        )


def summarize(
    graph: Graph,
    config: Optional[SluggerConfig] = None,
    control: Optional[RunControl] = None,
    resources: Optional[GraphResources] = None,
    **overrides,
) -> SluggerResult:
    """Convenience wrapper: ``Slugger(config, **overrides).summarize(graph)``."""
    return Slugger(config, **overrides).summarize(
        graph, control=control, resources=resources
    )
