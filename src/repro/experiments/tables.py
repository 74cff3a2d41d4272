"""Experiments behind the paper's tables (Table III, IV, V)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import compression_report
from repro.core import Slugger, SluggerConfig
from repro.core.pruning import (
    prune_edgeless_supernodes,
    prune_single_edge_roots,
    reencode_root_pairs_flat,
)
from repro.experiments.runner import ExperimentRecord
from repro.graphs.datasets import load_dataset
from repro.graphs.dense import DenseAdjacency

__all__ = ["height_sweep", "iteration_sweep", "pruning_ablation"]


# ----------------------------------------------------------------------
# Table III: effect of the iteration number T
# ----------------------------------------------------------------------
def iteration_sweep(
    datasets: Sequence[str],
    iteration_values: Sequence[int] = (1, 5, 10, 20),
    seed: int = 0,
) -> List[ExperimentRecord]:
    """Table III: relative size of SLUGGER's output as T grows."""
    records: List[ExperimentRecord] = []
    for key in datasets:
        graph = load_dataset(key, seed=seed)
        for iterations in iteration_values:
            config = SluggerConfig(iterations=iterations, seed=seed)
            result = Slugger(config).summarize(graph)
            records.append(ExperimentRecord(
                label=f"{key}/T={iterations}",
                parameters={"dataset": key, "iterations": iterations},
                values={
                    "relative_size": result.relative_size(graph),
                    "runtime_seconds": result.runtime_seconds,
                },
            ))
    return records


# ----------------------------------------------------------------------
# Table IV: effect of each pruning substep
# ----------------------------------------------------------------------
def pruning_ablation(
    datasets: Sequence[str],
    iterations: int = 10,
    seed: int = 0,
) -> List[ExperimentRecord]:
    """Table IV: output size, max tree height, and average leaf depth after
    pruning stage 0 (no pruning), 1, 2, and 3.

    The merge phase runs once per dataset; the pruning substeps are then
    applied cumulatively to copies of the un-pruned summary so the stages
    are directly comparable, exactly as in the paper's table.
    """
    records: List[ExperimentRecord] = []
    for key in datasets:
        graph = load_dataset(key, seed=seed)
        config = SluggerConfig(iterations=iterations, seed=seed, prune=False)
        unpruned = Slugger(config).summarize(graph).summary

        staged = unpruned.copy()
        stages: Dict[int, Dict[str, float]] = {0: compression_report(staged, graph)}
        prune_edgeless_supernodes(staged)
        stages[1] = compression_report(staged, graph)
        prune_single_edge_roots(staged)
        stages[2] = compression_report(staged, graph)
        reencode_root_pairs_flat(DenseAdjacency.from_graph(graph), staged)
        # Substep 3 can expose new edgeless supernodes; clean them up the
        # same way the packaged pruning loop does.
        prune_edgeless_supernodes(staged)
        stages[3] = compression_report(staged, graph)

        for stage, report in stages.items():
            records.append(ExperimentRecord(
                label=f"{key}/stage={stage}",
                parameters={"dataset": key, "stage": stage},
                values={
                    "relative_size": report["relative_size"],
                    "max_height": report["max_height"],
                    "average_leaf_depth": report["average_leaf_depth"],
                },
            ))
    return records


# ----------------------------------------------------------------------
# Table V: effect of the height bound H_b
# ----------------------------------------------------------------------
def height_sweep(
    datasets: Sequence[str],
    bounds: Sequence[Optional[int]] = (2, 5, 7, 10, None),
    iterations: int = 10,
    seed: int = 0,
) -> List[ExperimentRecord]:
    """Table V: average leaf depth and relative size under a height bound H_b.

    ``None`` stands for the unbounded original algorithm (the ∞ column).
    """
    records: List[ExperimentRecord] = []
    for key in datasets:
        graph = load_dataset(key, seed=seed)
        for bound in bounds:
            config = SluggerConfig(iterations=iterations, seed=seed, height_bound=bound)
            result = Slugger(config).summarize(graph)
            report = compression_report(result.summary, graph)
            records.append(ExperimentRecord(
                label=f"{key}/Hb={'inf' if bound is None else bound}",
                parameters={"dataset": key, "height_bound": bound},
                values={
                    "relative_size": report["relative_size"],
                    "average_leaf_depth": report["average_leaf_depth"],
                    "max_height": report["max_height"],
                },
            ))
    return records
