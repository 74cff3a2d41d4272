"""Equivalence suite for the summarizer engine registry.

Three guarantees are pinned here:

* every registered summarizer produces a valid (lossless) summary on the
  shared fixtures;
* registry dispatch is bit-identical to invoking the underlying
  implementation directly (same seeds → same cost);
* the substrate swap is invisible: SLUGGER with the dense substrate
  disabled matches the default, and all methods reproduce hard-coded
  fingerprints captured on integer-labelled fixtures.
"""

from __future__ import annotations

import pytest

from repro import engine
from repro.analysis.comparison import compare_methods, default_methods
from repro.baselines import (
    greedy_summarize,
    mosso_summarize,
    randomized_summarize,
    sags_summarize,
    sweg_summarize,
)
from repro.core import Slugger, SluggerConfig
from repro.engine.base import EngineResult, Summarizer
from repro.exceptions import ConfigurationError
from repro.graphs import (
    caveman_graph,
    complete_bipartite_graph,
    erdos_renyi_graph,
    nested_partition_graph,
    star_graph,
)

ALL_METHODS = ("slugger", "sweg", "mosso", "randomized", "sags", "greedy")


def fixture_graphs():
    return {
        "caveman": caveman_graph(6, 6, 0.05, seed=7),
        "er": erdos_renyi_graph(120, 0.06, seed=11),
        "bipartite": complete_bipartite_graph(5, 7),
        "nested": nested_partition_graph([3, 3, 4], [0.9, 0.25, 0.05], seed=3),
        "star": star_graph(30),
    }


# Eq.1 / Eq.11-comparable costs captured from direct invocations on the
# fixtures above (iterations=5 for the iterative methods, seed=0).  Any
# drift here means a change was not output-preserving.
FINGERPRINTS = {
    "caveman": {"slugger": 46, "sweg": 50, "mosso": 51, "randomized": 50, "sags": 50, "greedy": 50},
    "er": {"slugger": 419, "sweg": 446, "mosso": 423, "randomized": 434, "sags": 437, "greedy": 423},
    "bipartite": {"slugger": 12, "sweg": 13, "mosso": 35, "randomized": 13, "sags": 14, "greedy": 13},
    "nested": {"slugger": 132, "sweg": 132, "mosso": 165, "randomized": 127, "sags": 222, "greedy": 127},
    "star": {"slugger": 30, "sweg": 31, "mosso": 30, "randomized": 31, "sags": 43, "greedy": 31},
}


def direct_cost(method: str, graph) -> int:
    """Cost from invoking the underlying implementation without the registry."""
    if method == "slugger":
        return Slugger(SluggerConfig(iterations=5, seed=0)).summarize(graph).cost()
    if method == "sweg":
        return sweg_summarize(graph, iterations=5, seed=0).cost_eq11()
    if method == "mosso":
        return mosso_summarize(graph, seed=0).cost_eq11()
    if method == "randomized":
        return randomized_summarize(graph, seed=0).cost_eq11()
    if method == "sags":
        return sags_summarize(graph, seed=0).cost_eq11()
    if method == "greedy":
        return greedy_summarize(graph).cost_eq11()
    raise AssertionError(method)


class TestRegistry:
    def test_all_builtin_methods_registered(self):
        available = engine.available_methods()
        for name in ALL_METHODS:
            assert name in available

    def test_unknown_method_raises(self):
        with pytest.raises(ConfigurationError):
            engine.create("does-not-exist")
        with pytest.raises(ConfigurationError):
            engine.default_suite(methods=["does-not-exist"])

    def test_duplicate_registration_rejected(self):
        class Duplicate(Summarizer):
            name = "slugger"

            def _run(self, graph, seed, control, resources):  # pragma: no cover - never runs
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            engine.register(Duplicate)

    def test_default_suite_applies_iterations_to_iterative_methods(self):
        suite = engine.default_suite(iterations=4)
        assert set(suite) == set(engine.DEFAULT_SUITE)
        assert suite["slugger"].options["iterations"] == 4
        assert suite["sweg"].options["iterations"] == 4
        assert "iterations" not in suite["mosso"].options


class TestEquivalence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("fixture", sorted(FINGERPRINTS))
    def test_registry_matches_direct_invocation_and_fingerprint(self, method, fixture):
        graph = fixture_graphs()[fixture]
        options = {"iterations": 5} if method in ("slugger", "sweg") else {}
        result = engine.run(method, graph, seed=0, **options)
        assert isinstance(result, EngineResult)
        assert result.method == method
        result.summary.validate(graph)  # lossless on every fixture
        assert result.cost() == direct_cost(method, graph)
        assert result.cost() == FINGERPRINTS[fixture][method]
        assert result.runtime_seconds >= 0.0

    def test_summarizer_is_callable_with_legacy_signature(self):
        graph = fixture_graphs()["caveman"]
        summarizer = engine.create("sweg", iterations=5)
        summary = summarizer(graph, 0)
        assert summary.cost_eq11() == FINGERPRINTS["caveman"]["sweg"]

    def test_slugger_history_travels_through_engine(self):
        graph = fixture_graphs()["caveman"]
        result = engine.run("slugger", graph, seed=0, iterations=5)
        assert len(result.history) == 5
        assert result.details["prune_stats"] is not None


class TestComparisonDispatch:
    def test_default_methods_are_registry_summarizers(self):
        methods = default_methods(iterations=3)
        assert set(methods) == set(engine.DEFAULT_SUITE)
        for summarizer in methods.values():
            assert isinstance(summarizer, Summarizer)

    def test_compare_methods_accepts_registry_names(self):
        graph = fixture_graphs()["caveman"]
        results = compare_methods(graph, methods=["randomized", "greedy"], seed=0)
        assert {result.method for result in results} == {"randomized", "greedy"}
        costs = {result.method: result.report["cost"] for result in results}
        assert costs["greedy"] == FINGERPRINTS["caveman"]["greedy"]

    def test_compare_methods_matches_engine_results(self):
        graph = fixture_graphs()["bipartite"]
        results = compare_methods(graph, methods=default_methods(iterations=5), seed=0)
        for result in results:
            assert result.report["cost"] == FINGERPRINTS["bipartite"][result.method]

    def test_compare_methods_supports_legacy_callables(self):
        graph = fixture_graphs()["star"]
        legacy = {"mine": lambda graph, seed: greedy_summarize(graph)}
        (result,) = compare_methods(graph, methods=legacy, seed=0)
        assert result.method == "mine"
        assert result.report["cost"] == FINGERPRINTS["star"]["greedy"]
