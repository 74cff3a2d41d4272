"""Serving demo: a mixed batch of methods against shared graphs.

Run with::

    python examples/service_demo.py

    # Ship whole jobs to a persistent forked worker pool instead of
    # running them on in-process threads (where fork is available):
    python examples/service_demo.py --mode process --inflight 2

The script stands up one long-lived :class:`repro.service.SummaryService`,
registers two graphs, submits a mixed batch (SLUGGER, SWeG, RANDOMIZED —
several seeds each) against them, streams per-iteration progress for one
job, demonstrates the ``asyncio`` entry point, and verifies the serving
determinism guarantee: every warm, concurrent result is bit-identical to
a one-shot ``engine.run`` with the same request.
"""

from __future__ import annotations

import argparse
import asyncio

from repro import SummaryService, engine, load_dataset


def summary_signature(summary):
    """A comparable fingerprint of a (hierarchical or flat) summary."""
    edges = getattr(summary, "p_edges", None)
    if callable(edges):
        return (summary.cost(),
                tuple(sorted(map(tuple, summary.p_edges()))),
                tuple(sorted(map(tuple, summary.n_edges()))))
    return (summary.cost_eq11(),
            tuple(sorted(map(tuple, summary.superedges))),
            tuple(sorted(map(tuple, summary.corrections_plus))),
            tuple(sorted(map(tuple, summary.corrections_minus))))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("thread", "process"), default="thread",
                        help="job execution mode (default: thread)")
    parser.add_argument("--inflight", type=int, default=2,
                        help="jobs executed concurrently (default 2)")
    arguments = parser.parse_args()

    # 1. Two shared graphs; the service interns one substrate build each,
    #    no matter how many requests hit them.
    graphs = {"PR": load_dataset("PR", seed=0), "CA": load_dataset("CA", seed=0)}

    # 2. A mixed batch: (method, graph key, seed, options).
    batch = [
        ("slugger", "PR", 0, {"iterations": 5}),
        ("sweg", "PR", 0, {"iterations": 5}),
        ("randomized", "CA", 1, {}),
        ("slugger", "CA", 0, {"iterations": 5}),
        ("sweg", "CA", 2, {"iterations": 5}),
        ("slugger", "PR", 3, {"iterations": 5}),
    ]

    with SummaryService(mode=arguments.mode, max_inflight=arguments.inflight) as service:
        for key, graph in graphs.items():
            service.register_graph(key, graph)
            print(f"registered {key}: {graph.num_nodes} nodes, {graph.num_edges} edges")

        # 3. Submit everything up front; jobs are future-like handles.
        jobs = [service.submit(method=method, graph_key=key, seed=seed,
                               options=options, tag=f"{method}@{key}/s{seed}")
                for method, key, seed, options in batch]

        # 4. Stream the first job's per-iteration progress events.
        jobs[0].add_progress_listener(
            lambda event: print(f"  progress[{event.method}] "
                                f"{event.stage} {event.payload}")
        )

        # 5. Collect results (submission order) and verify each against a
        #    cold one-shot run — the serving determinism guarantee.
        print(f"\n{'tag':<22} {'state':<9} {'cost':>6} {'seconds':>8}  bit-identical")
        for job, (method, key, seed, options) in zip(jobs, batch):
            result = job.result(timeout=600)
            reference = engine.create(method, **options).summarize(
                graphs[key], seed=seed
            )
            identical = summary_signature(result.summary) == \
                summary_signature(reference.summary)
            assert identical, f"{job.request.tag} diverged from the one-shot run!"
            result.summary.validate(graphs[key])
            print(f"{job.request.tag:<22} {job.state.value:<9} {result.cost():>6} "
                  f"{result.runtime_seconds:>8.3f}  {identical}")

        stats = service.stats()
        print(f"\nservice: mode={stats['mode']} inflight={stats['max_inflight']} "
              f"completed={stats['completed']}")
        print(f"graph store: {stats['store']['misses']} misses, "
              f"{stats['store']['hits']} hits across {len(batch)} requests")

    # 6. The same service API, awaited from asyncio.
    async def async_demo():
        with SummaryService(max_inflight=2) as service:
            results = await asyncio.gather(*[
                service.summarize("slugger", graphs["PR"], seed=seed,
                                  options={"iterations": 5})
                for seed in (0, 1, 2)
            ])
            return [result.cost() for result in results]

    costs = asyncio.run(async_demo())
    print(f"asyncio gather of 3 SLUGGER runs: costs={costs}")


if __name__ == "__main__":
    main()
