"""Tests for JSON serialization of summaries."""

from __future__ import annotations

import json
import time

import pytest

from repro.core import Slugger, SluggerConfig
from repro.exceptions import GraphFormatError
from repro.graphs import Graph, caveman_graph, erdos_renyi_graph
from repro.model import (
    FlatSummary,
    load_flat_summary,
    load_hierarchical_summary,
    save_flat_summary,
    save_hierarchical_summary,
)


class TestHierarchicalSerialization:
    def test_round_trip_preserves_graph(self, tmp_path):
        graph = caveman_graph(4, 5, 0.1, seed=2)
        summary = Slugger(SluggerConfig(iterations=5, seed=0)).summarize(graph).summary
        path = tmp_path / "summary.json"
        save_hierarchical_summary(summary, path)
        loaded = load_hierarchical_summary(path)
        loaded.validate(graph)
        assert loaded.cost() == summary.cost()
        assert loaded.num_h_edges == summary.num_h_edges

    def test_round_trip_trivial_summary(self, tmp_path):
        graph = erdos_renyi_graph(20, 0.2, seed=1)
        summary = Slugger(SluggerConfig(iterations=1, seed=0, prune=False)).summarize(graph).summary
        path = tmp_path / "trivial.json"
        save_hierarchical_summary(summary, path)
        load_hierarchical_summary(path).validate(graph)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(GraphFormatError):
            load_hierarchical_summary(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GraphFormatError):
            load_hierarchical_summary(path)


def _hierarchical_document(tmp_path):
    graph = caveman_graph(3, 4, 0.0, seed=0)
    summary = Slugger(SluggerConfig(iterations=3, seed=0)).summarize(graph).summary
    path = tmp_path / "summary.json"
    save_hierarchical_summary(summary, path)
    return path, json.loads(path.read_text())


def _chain_document(depth: int):
    """A hierarchy ``depth - 1`` internal records tall: record ``depth + k - 1``
    holds the previous record (leaf 0 for the first) and leaf ``k``."""
    return {
        "format": "repro/hierarchical-summary/v1",
        "leaves": [{"id": leaf, "subnode": leaf} for leaf in range(depth)],
        "internal": [{"id": depth + leaf - 1, "children": [depth + leaf - 2 if leaf > 1 else 0, leaf]}
                     for leaf in range(1, depth)],
        "p_edges": [[0, 1], [depth, 5]],
        "n_edges": [],
    }


def _best_load_seconds(path, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load_hierarchical_summary(path)
        best = min(best, time.perf_counter() - start)
    return best


class TestRecordOrder:
    def test_internal_records_in_any_order_load_in_linear_time(self, tmp_path):
        # Records are placed in ascending id, not by passes over the
        # document, so their order costs nothing: a pass per record would
        # make the reversed chain quadratic.
        in_order, reversed_order = tmp_path / "in_order.json", tmp_path / "reversed.json"
        document = _chain_document(1500)
        in_order.write_text(json.dumps(document))
        document["internal"].reverse()
        reversed_order.write_text(json.dumps(document))
        forward = load_hierarchical_summary(in_order)
        backward = load_hierarchical_summary(reversed_order)
        # Two p-edges; every supernode but the top record has a parent.
        assert backward.cost() == forward.cost() == 2 + (1500 + 1499 - 1)
        assert backward.decompress() == forward.decompress()
        assert _best_load_seconds(reversed_order) < 4 * _best_load_seconds(in_order)


class TestMalformedDocuments:
    """A document that parses as JSON but is not a summary is a GraphFormatError."""

    def test_missing_key(self, tmp_path):
        path, document = _hierarchical_document(tmp_path)
        del document["leaves"]
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="leaves"):
            load_hierarchical_summary(path)

    def test_missing_flat_key(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"format": "repro/flat-summary/v1"}))
        with pytest.raises(GraphFormatError, match="groups"):
            load_flat_summary(path)

    def test_edge_to_unknown_id(self, tmp_path):
        path, document = _hierarchical_document(tmp_path)
        document["p_edges"].append([0, 10**6])
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="malformed"):
            load_hierarchical_summary(path)

    def test_superedge_to_unknown_group(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "format": "repro/flat-summary/v1", "groups": [{"id": 0, "members": [1, 2]}],
            "superedges": [[0, 7]], "corrections_plus": [], "corrections_minus": [],
        }))
        with pytest.raises(GraphFormatError, match="unknown group"):
            load_flat_summary(path)

    def test_p_n_conflict(self, tmp_path):
        path, document = _hierarchical_document(tmp_path)
        document["n_edges"].append(document["p_edges"][0])
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="malformed"):
            load_hierarchical_summary(path)

    @pytest.mark.parametrize("leaf_id", [9, 999])
    def test_leaf_record_repeating_a_subnode(self, tmp_path, leaf_id):
        # A repeated subnode must not alias leaf 0; with id 9 it would also
        # redirect every edge to 9 onto leaf 0.
        path, document = _hierarchical_document(tmp_path)
        document["leaves"].append({"id": leaf_id, "subnode": 0})
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="malformed|repeated"):
            load_hierarchical_summary(path)

    def test_child_that_is_not_an_earlier_record(self, tmp_path):
        # A tree, but record 3 holds record 4: internal records are taken
        # in ascending id, so every child must already be placed.
        path = tmp_path / "chain.json"
        document = _chain_document(3)
        document["internal"] = [{"id": 3, "children": [0, 4]}, {"id": 4, "children": [1, 2]}]
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="malformed"):
            load_hierarchical_summary(path)

    @pytest.mark.parametrize("loader", [load_hierarchical_summary, load_flat_summary])
    def test_top_level_list(self, tmp_path, loader):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(GraphFormatError, match="JSON object"):
            loader(path)


class TestFlatSerialization:
    def test_round_trip(self, tmp_path):
        graph = caveman_graph(3, 4, 0.0, seed=0)
        groups = [[node for node in graph.nodes() if node // 4 == block] for block in range(3)]
        summary = FlatSummary.from_grouping(graph, groups)
        path = tmp_path / "flat.json"
        save_flat_summary(summary, path)
        loaded = load_flat_summary(path)
        loaded.validate(graph)
        assert loaded.cost_eq11() == summary.cost_eq11()
        assert loaded.superedges == summary.superedges

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro/hierarchical-summary/v1"}))
        with pytest.raises(GraphFormatError):
            load_flat_summary(path)


def _two_group_document(tmp_path):
    """The 4-node two-group flat summary: one superedge joins {1, 2} and {3, 4}."""
    graph = Graph(edges=[(1, 3), (1, 4), (2, 3), (2, 4)])
    summary = FlatSummary.from_grouping(graph, [[1, 2], [3, 4]])
    path = tmp_path / "flat.json"
    save_flat_summary(summary, path)
    return graph, summary, path, json.loads(path.read_text())


class TestFlatPairs:
    def test_pairs_are_stored_canonically(self, tmp_path):
        graph, summary, path, document = _two_group_document(tmp_path)
        assert summary.superedges == {(0, 1)} and summary.cost() == 1
        document["superedges"] = [[1, 0]]
        document["corrections_minus"] = [[4, 1]]
        path.write_text(json.dumps(document))
        loaded = load_flat_summary(path)
        assert loaded.superedges == {(0, 1)}
        assert loaded.corrections_minus == {(1, 4)}

    @pytest.mark.parametrize("key, pairs", [
        ("superedges", [[0, 1], [1, 0]]), ("superedges", [[0, 1], [0, 1]]),
        ("corrections_plus", [[1, 2], [2, 1]]), ("corrections_minus", [[4, 1], [1, 4]]),
    ])
    def test_pair_repeated_in_either_orientation(self, tmp_path, key, pairs):
        # A repeat would count one pair twice in cost() while validate
        # still passed.
        graph, summary, path, document = _two_group_document(tmp_path)
        document[key] = pairs
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="repeated"):
            load_flat_summary(path)


class TestFlatReferences:
    """Every subnode a flat document names is in exactly one group."""

    def test_correction_to_a_subnode_in_no_group(self, tmp_path):
        # Loading would price the correction and decompress() would invent
        # node 99; the SUMM and pipeline decoders reject it too.
        graph, summary, path, document = _two_group_document(tmp_path)
        document["corrections_plus"] = [[1, 99]]
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="unknown subnode"):
            load_flat_summary(path)

    def test_subnode_in_two_groups(self, tmp_path):
        # group_of would keep only the last group the subnode is listed in.
        graph, summary, path, document = _two_group_document(tmp_path)
        document["groups"][1]["members"].append(1)
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="in two groups"):
            load_flat_summary(path)

    def test_repeated_group_id(self, tmp_path):
        # The second record would replace the first group's members while
        # group_of still mapped them to it.
        graph, summary, path, document = _two_group_document(tmp_path)
        document["groups"].append({"id": document["groups"][0]["id"], "members": [5, 6]})
        path.write_text(json.dumps(document))
        with pytest.raises(GraphFormatError, match="repeated"):
            load_flat_summary(path)
