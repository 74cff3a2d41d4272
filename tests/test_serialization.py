"""Tests for JSON serialization of summaries."""

from __future__ import annotations

import json

import pytest

from repro.core import Slugger, SluggerConfig
from repro.exceptions import GraphFormatError
from repro.graphs import caveman_graph, erdos_renyi_graph
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
