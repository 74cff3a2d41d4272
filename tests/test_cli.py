"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs import caveman_graph, write_edge_list
from repro.model import load_hierarchical_summary


@pytest.fixture
def edge_list_file(tmp_path):
    graph = caveman_graph(3, 5, 0.1, seed=4)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summarize_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summarize"])

    def test_summarize_accepts_dataset(self):
        arguments = build_parser().parse_args(["summarize", "--dataset", "PR", "--iterations", "3"])
        assert arguments.dataset == "PR"
        assert arguments.iterations == 3


class TestCommands:
    def test_summarize_from_file(self, edge_list_file, tmp_path, capsys):
        path, graph = edge_list_file
        output = tmp_path / "summary.json"
        exit_code = main([
            "summarize", "--input", str(path), "--output", str(output),
            "--iterations", "3", "--seed", "0",
        ])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "relative_size=" in captured
        loaded = load_hierarchical_summary(output)
        loaded.validate(graph)

    def test_summarize_dataset_with_height_bound(self, capsys):
        exit_code = main([
            "summarize", "--dataset", "CA", "--iterations", "2", "--height-bound", "2",
        ])
        assert exit_code == 0
        assert "cost=" in capsys.readouterr().out

    def test_summarize_no_prune(self, edge_list_file, capsys):
        path, _graph = edge_list_file
        exit_code = main(["summarize", "--input", str(path), "--iterations", "2", "--no-prune"])
        assert exit_code == 0

    def test_compare_command(self, edge_list_file, capsys):
        path, _graph = edge_list_file
        exit_code = main(["compare", "--input", str(path), "--iterations", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for method in ("slugger", "sweg", "mosso", "randomized", "sags"):
            assert method in output

    def test_datasets_command(self, capsys):
        exit_code = main(["datasets"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "PR" in output
        assert "UK-05" in output


class TestFailures:
    def test_missing_input_is_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        exit_code = main(["summarize", "--input", str(missing)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "Traceback" not in captured.err
        assert captured.err.startswith("repro-slugger: error: ")
        assert str(missing) in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_malformed_input_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot-an-edge\n")
        exit_code = main(["summarize", "--input", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "Traceback" not in captured.err
        assert captured.err.startswith("repro-slugger: error: ")

    def test_non_utf8_input_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"1 2\n3 \xff\xfe\n")
        exit_code = main(["summarize", "--input", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"repro-slugger: error: {path}:2: not UTF-8")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("arguments, message", [
        (["--top", "-3"], "top must be non-negative"),
        (["--iterations", "0"], "iterations must be >= 1"),
        (["--damping", "1.5"], "damping must be in [0, 1]"),
    ])
    def test_bad_pagerank_argument_is_one_line_error(self, capsys, arguments, message):
        exit_code = main(["query", "pagerank", "--dataset", "PR", *arguments])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"repro-slugger: error: {message}")
        assert len(captured.err.strip().splitlines()) == 1

    def test_bfs_without_source_is_one_line_error(self, capsys):
        exit_code = main(["query", "bfs", "--dataset", "PR"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == "repro-slugger: error: bfs query requires a source node\n"

    @pytest.mark.parametrize("action", ["stats", "gc"])
    def test_negative_cache_budget_is_one_line_error(self, tmp_path, capsys, action):
        exit_code = main(["cache", action, "--dir", str(tmp_path / "cache"),
                          "--budget", "-5"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == (
            "repro-slugger: error: cache budget must be non-negative, got -5\n"
        )

    @pytest.mark.parametrize("workers", ["2", 2.5, True])
    def test_serve_with_non_int_workers_is_one_line_error(
        self, edge_list_file, tmp_path, capsys, workers
    ):
        path, _graph = edge_list_file
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([{
            "method": "slugger", "input": str(path), "seed": 0,
            "workers": workers, "options": {"iterations": 2},
        }]))
        exit_code = main(["serve", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "Traceback" not in captured.err
        assert captured.err.startswith("repro-slugger: error: ")
        assert "unknown request fields: ['workers']" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
