"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload er-sparse --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (host stamps,
samples, failure reasons) is written to ``.perfbench_runs/`` under the
repository root, next to the spans of traced runs.

The program is imported from ``src/`` of the same checkout; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("er-sparse", "caveman-community", "er-sparse-w2", "serve-mixed")
#: Never used while the benchmark or a change is tuned; later claims are
#: re-checked on it.
HELD_OUT_SEED = 7919
END_TO_END_UNITS = {
    "setup_s": "s",
    "summarize_s": "s",
    "relative_size": "ratio",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamps(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


def _expected_cost(workload: str, seed: int):
    table = json.loads((HERE / "expected.json").read_text())
    key = "er-sparse" if workload == "er-sparse-w2" else workload
    return table.get(key, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import inputs
    import workloads

    stamps = host_stamps(args)
    runs = ROOT / ".perfbench_runs"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = runs / f"work-{stem}-{os.getpid()}"
    runs.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        paths = inputs.write_inputs(args.workload, args.seed, workdir / "inputs")
        expected = _expected_cost(args.workload, args.seed)
        with open(runs / f"spans-{stem}.jsonl", "w") as spans_out:
            if args.workload == "serve-mixed":
                outcome = workloads.run_serve(args.seed, args.seconds, bool(args.trace),
                                              paths, workdir, expected, spans_out)
            else:
                outcome = workloads.run_batch(args.workload, args.seed, args.seconds,
                                              bool(args.trace), paths, expected, spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        (runs / f"spans-{stem}.jsonl").unlink(missing_ok=True)

    tally = outcome["tally"]
    if args.trace:
        units = {name: spec[0] for name, spec in workloads.LAYER_METRICS.items()}
    else:
        units = END_TO_END_UNITS
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, host=stamps, wall_s=time.perf_counter() - started,
                  expected_cost=expected, failures=tally.reasons,
                  details=outcome["details"])
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"# {json.dumps(stamps, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{args.workload:<18} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:<18} ops attempted={tally.attempted} failed={tally.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
