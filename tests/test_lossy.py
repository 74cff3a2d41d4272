"""Tests for reconstruction-error metrics and bounded-error summarization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SluggerConfig, summarize
from repro.exceptions import LossyBoundError
from repro.graphs import Graph, caveman_graph, complete_graph, erdos_renyi_graph
from repro.lossy import (
    edge_error_counts,
    error_report,
    l1_reconstruction_error,
    lossy_slugger_sparsify,
    lossy_sweg_summarize,
    lossy_tradeoff_curve,
    max_relative_error,
    neighborhood_errors,
    sparsify_hierarchical_summary,
)
from repro.baselines.sweg import drop_corrections, sweg_summarize
from repro.model.flat import FlatSummary


class TestErrorMetrics:
    def test_exact_summary_has_zero_error(self):
        graph = caveman_graph(3, 5, 0.1, seed=0)
        summary = summarize(graph, SluggerConfig(iterations=5, seed=0)).summary
        assert edge_error_counts(summary, graph) == (0, 0)
        assert max_relative_error(summary, graph) == 0.0
        assert l1_reconstruction_error(summary, graph) == 0
        report = error_report(summary, graph)
        assert report["exact"] == 1.0

    def test_graph_against_itself_is_exact(self):
        graph = complete_graph(5)
        assert error_report(graph, graph)["exact"] == 1.0

    def test_lost_edge_is_counted_for_both_endpoints(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        damaged = Graph(edges=[(0, 1)], nodes=[2])
        errors = neighborhood_errors(damaged, graph)
        assert errors[1] == 1 and errors[2] == 1 and errors[0] == 0
        assert edge_error_counts(damaged, graph) == (1, 0)
        assert l1_reconstruction_error(damaged, graph) == 2

    def test_spurious_edge_is_counted(self):
        graph = Graph(edges=[(0, 1)], nodes=[2])
        noisy = Graph(edges=[(0, 1), (1, 2)])
        lost, spurious = edge_error_counts(noisy, graph)
        assert (lost, spurious) == (0, 1)

    def test_max_relative_error_uses_degree(self):
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
        damaged = Graph(edges=[(0, 1), (0, 2), (0, 3)], nodes=[4])
        # Node 0 has degree 4 and lost one neighbor (error 0.25); node 4
        # has degree 1 and lost its only neighbor (error 1.0).
        assert max_relative_error(damaged, graph) == pytest.approx(1.0)

    def test_error_report_mean(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        damaged = Graph(edges=[(0, 1)], nodes=[2])
        report = error_report(damaged, graph)
        assert report["mean_node_error"] == pytest.approx(2 / 3)
        assert report["exact"] == 0.0


class TestLossySweg:
    def test_epsilon_zero_stays_lossless(self):
        graph = caveman_graph(4, 5, 0.1, seed=1)
        result = lossy_sweg_summarize(graph, epsilon=0.0, iterations=5, seed=0)
        assert result.dropped_corrections == 0
        assert result.measured_error == 0.0
        result.summary.validate(graph)

    def test_positive_epsilon_respects_bound(self):
        graph = caveman_graph(4, 6, 0.15, seed=2)
        for epsilon in (0.1, 0.3, 0.6):
            result = lossy_sweg_summarize(graph, epsilon=epsilon, iterations=5, seed=0)
            assert result.measured_error <= epsilon + 1e-9
            assert isinstance(result.summary, FlatSummary)

    def test_size_never_increases_with_epsilon(self):
        graph = erdos_renyi_graph(40, 0.15, seed=3)
        sizes = [
            lossy_sweg_summarize(graph, epsilon=epsilon, iterations=5, seed=0).relative_size
            for epsilon in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(sizes, sizes[1:]))

    def test_invalid_epsilon_rejected(self):
        graph = complete_graph(4)
        with pytest.raises(ValueError):
            lossy_sweg_summarize(graph, epsilon=1.5)

    def test_tradeoff_curve_rows(self):
        graph = caveman_graph(3, 5, 0.1, seed=4)
        rows = lossy_tradeoff_curve(graph, [0.0, 0.4], iterations=4, seed=0)
        assert [row["epsilon"] for row in rows] == [0.0, 0.4]
        assert all(row["max_relative_error"] <= row["epsilon"] + 1e-9 for row in rows)

    @given(st.floats(0.0, 1.0), st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_bound_property(self, epsilon, seed):
        graph = erdos_renyi_graph(18, 0.25, seed=seed % 500)
        result = lossy_sweg_summarize(graph, epsilon=epsilon, iterations=3, seed=seed)
        assert result.measured_error <= epsilon + 1e-9


class TestSparsifyHierarchical:
    def test_epsilon_zero_removes_nothing(self):
        graph = caveman_graph(4, 5, 0.1, seed=5)
        summary = summarize(graph, SluggerConfig(iterations=5, seed=0)).summary
        before = summary.cost()
        assert sparsify_hierarchical_summary(summary, graph, epsilon=0.0) == 0
        assert summary.cost() == before

    def test_sparsify_respects_bound_and_reduces_cost(self):
        graph = caveman_graph(5, 6, 0.2, seed=6)
        result = summarize(graph, SluggerConfig(iterations=8, seed=0))
        summary = result.summary
        before = summary.cost()
        report = lossy_slugger_sparsify(summary, graph, epsilon=0.5, seed=0)
        assert report["max_relative_error"] <= 0.5 + 1e-9
        assert summary.cost() <= before
        assert report["cost"] == summary.cost()

    def test_check_bound_can_raise(self):
        # Force a bound violation by sparsifying with a generous budget
        # and then re-checking against a much tighter epsilon.
        graph = caveman_graph(20, 15, 0.05, seed=1)
        summary = summarize(graph, SluggerConfig(iterations=5, seed=0)).summary
        removed = sparsify_hierarchical_summary(summary, graph, epsilon=1.0, seed=0)
        assert removed > 0
        with pytest.raises(LossyBoundError):
            lossy_slugger_sparsify(summary, graph, epsilon=0.0, seed=0)


class TestContentDefinedDrops:
    """The lossy drops depend on the summary's content, not its set history.

    A ``copy()`` rebuilds P- and the correction sets, so their iteration
    order differs from the original's; the drops must not.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_hierarchical_copy_drops_the_same_n_edges(self, seed):
        graph = caveman_graph(70, 15, 0.05, seed=1)
        summary = summarize(graph, SluggerConfig(iterations=5, seed=0)).summary
        clone = summary.copy()
        removed = [sparsify_hierarchical_summary(target, graph, 0.1, seed=seed)
                   for target in (summary, clone)]
        assert removed[0] == removed[1] > 0
        assert set(summary.n_edges()) == set(clone.n_edges())

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_flat_copy_drops_the_same_corrections(self, seed):
        graph = caveman_graph(70, 15, 0.05, seed=1)
        summary = sweg_summarize(graph, iterations=5, seed=0)
        clone = summary.copy()
        dropped = [drop_corrections(target, graph, 0.1, seed=seed) for target in (summary, clone)]
        assert dropped[0] == dropped[1] > 0
        assert summary.corrections_minus == clone.corrections_minus
        assert summary.corrections_plus == clone.corrections_plus
