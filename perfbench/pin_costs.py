"""Recompute the pinned summary costs in ``expected.json``.

Usage, from the repository root (about 4 s per seed)::

    python3 perfbench/pin_costs.py 0-29 7919

A run whose seed is pinned checks every summary's cost against the pin,
so a change that alters the output for a fixed seed is caught even when
it is self-consistent.  Re-pin only when a change is meant to alter the
summaries, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"er-sparse": "graph", "caveman-community": "graph", "serve-mixed": "hot"}


def parse_seeds(arguments):
    for argument in arguments:
        low, _, high = argument.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main(arguments) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    table_path = HERE / "expected.json"
    table = json.loads(table_path.read_text())
    workdir = ROOT / ".perfbench_runs" / "pin"
    try:
        for seed in parse_seeds(arguments):
            for workload, name in PINNED.items():
                path = inputs.write_inputs(workload, seed, workdir)[name]
                graph = workloads.graph_io.read_edge_list(path)
                config = workloads.SluggerConfig(iterations=workloads.ITERATIONS, seed=seed)
                cost = workloads.slugger.Slugger(config).summarize(graph).cost()
                table.setdefault(workload, {})[str(seed)] = cost
                print(workload, seed, cost, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
