"""Tests of the benchmark's own arithmetic and input determinism.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import types

import pytest

import inputs
from measure import MIN_BEYOND, percentile, samples_beyond, tail_percentile
from spans import Probe, SpanRecorder, covered_length, self_times

WORKLOADS = ("er-sparse", "caveman-community", "er-sparse-w2", "serve-mixed")


def test_percentile_interpolates_between_ranks():
    samples = [float(value) for value in range(1, 11)]
    assert percentile(samples, 0.5) == 5.5
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 10.0
    assert percentile(list(reversed(samples)), 0.9) == pytest.approx(9.1)


def test_p95_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(199, 0.95) == 9
    tail_percentile([0.001 * value for value in range(200)], 0.95)
    with pytest.raises(ValueError, match="at least 200 samples"):
        tail_percentile([0.001 * value for value in range(199)], 0.95)
    # p50 needs only 20 samples for ten to lie beyond it.
    assert tail_percentile(list(range(20)), 0.5) == 9.5


def test_covered_length_merges_and_clips_intervals():
    assert covered_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert covered_length([(1, 4), (2, 3)], 0, 10) == 3
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_nested_children():
    spans = [
        ["parent", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
        ["other", 20.0, 21.5, None],
    ]
    times = self_times(spans)
    assert times["parent"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert times["child"] == pytest.approx((3.0 - 1.0) + 2.0)
    assert times["grandchild"] == pytest.approx(1.0)
    assert times["other"] == pytest.approx(1.5)
    # Self times of a fully nested trace add up to the root spans' time.
    assert sum(times.values()) == pytest.approx(10.0 + 1.5)


def test_recorder_wraps_at_the_attribute_and_restores_it():
    module = types.SimpleNamespace()
    module.inner = lambda value: value * 2
    module.outer = lambda value: module.inner(value) + module.inner(value)
    module.tick = lambda: None
    original_inner = module.inner
    recorder = SpanRecorder()
    probes = [Probe(module, "outer", "layer.outer"),
              Probe(module, "inner", lambda value: f"layer.inner.{value}"),
              Probe(module, "tick", "layer.tick", count_only=True)]
    with recorder.installed(probes):
        assert module.outer(3) == 12
        module.tick()
    assert module.inner is original_inner
    names = [record[0] for record in recorder.spans]
    assert names == ["layer.outer", "layer.inner.3", "layer.inner.3"]
    assert [record[3] for record in recorder.spans] == [None, 0, 0]
    assert recorder.counters["layer.tick"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = inputs.write_inputs(workload, 5, tmp_path / "a")
    second = inputs.write_inputs(workload, 5, tmp_path / "b")
    other = inputs.write_inputs(workload, 6, tmp_path / "c")
    assert sorted(first) == sorted(second) == sorted(other)
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes()
        assert first[name].read_bytes() != other[name].read_bytes()


def test_generated_graphs_have_the_stated_shape(tmp_path):
    path = inputs.write_inputs("er-sparse", 0, tmp_path)["graph"]
    edges = [tuple(map(int, line.split())) for line in path.read_text().splitlines()
             if not line.startswith("#")]
    assert len(edges) == len(set(edges)) == inputs.ER["edges"]
    assert all(u < v < inputs.ER["nodes"] for u, v in edges)
