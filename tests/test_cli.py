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

    def test_serve_cache_dir_holds_only_edge_list_containers(
        self, edge_list_file, tmp_path, capsys
    ):
        # --cache-dir caches packed --input edge lists and nothing else:
        # dataset graphs leave no container, and a repeated input file
        # reuses its one container.
        cache = tmp_path / "cache"
        datasets = tmp_path / "datasets.json"
        datasets.write_text(json.dumps([
            {"method": "slugger", "dataset": key, "seed": 0,
             "options": {"iterations": 2}}
            for key in ("PR", "CA")
        ]))
        assert main(["serve", "--batch", str(datasets), "--cache-dir", str(cache)]) == 0
        assert list(cache.glob("*.slg")) == []

        path, _graph = edge_list_file
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{
            "method": "slugger", "input": str(path), "seed": 0,
            "options": {"iterations": 3},
        }]))
        tables = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["serve", "--batch", str(inputs), "--cache-dir", str(cache)]) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            # Everything but the wall-clock ``seconds`` column.
            tables.append([row.split()[:-1] for row in rows if row.strip()])
            assert len(list(cache.glob("*.slg"))) == 1
        assert tables[0] == tables[1] and len(tables[0]) == 1

    def test_serve_cache_dir_seeds_the_dense_view_it_fetched(
        self, edge_list_file, tmp_path, capsys, monkeypatch
    ):
        # A fresh fetch packs the container from an eager dense
        # substrate; the handle must serve that very object (no second
        # build), while a cached fetch hands over the one it thawed from
        # the map: same type, same contents.
        from repro.graphs.dense import DenseAdjacency
        from repro.service import SummaryService
        from repro.storage import GraphCache

        fetched, handles = [], []
        fetch, register = GraphCache.fetch_edge_list, SummaryService.register_graph

        def recording_fetch(self, *args, **kwargs):
            fetched.append(fetch(self, *args, **kwargs))
            return fetched[-1]

        def recording_register(self, *args, **kwargs):
            handles.append(register(self, *args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(GraphCache, "fetch_edge_list", recording_fetch)
        monkeypatch.setattr(SummaryService, "register_graph", recording_register)
        path, _graph = edge_list_file
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([{
            "method": "slugger", "input": str(path), "seed": 0,
            "options": {"iterations": 3},
        }]))
        tables = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["serve", "--batch", str(batch),
                         "--cache-dir", str(tmp_path / "cache")]) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            tables.append([row.split()[:-1] for row in rows if row.strip()])
        assert [cached.hit for cached in fetched] == [False, True]
        fresh, warm = handles
        assert type(fresh.dense()) is DenseAdjacency
        assert fresh.dense() is fetched[0].stored.dense()
        assert fresh.builds == 0
        assert type(warm.dense()) is DenseAdjacency
        assert warm.dense() is fetched[1].stored.dense()
        assert warm.dense().neighbors == fresh.dense().neighbors
        assert list(warm.dense().degrees) == list(fresh.dense().degrees)
        assert warm.builds == 0
        assert tables[0] == tables[1] and len(tables[0]) == 1

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

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_serve_footer_counts_graph_store_misses_and_hits(
        self, edge_list_file, tmp_path, capsys, mode
    ):
        # The store interns each input once (a miss) and serves every job's
        # graph key from it (a hit); process mode counts the same lookups,
        # though its workers build the substrates.
        path, _graph = edge_list_file
        other = tmp_path / "other.txt"
        write_edge_list(caveman_graph(2, 4), other)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"method": "slugger", "input": str(source), "seed": seed,
             "options": {"iterations": 2}}
            for source, seed in ((path, 0), (other, 0), (path, 1))
        ]))
        assert main(["serve", "--batch", str(batch), "--mode", mode, "--inflight", "2"]) == 0
        out = capsys.readouterr().out
        assert (f"served 3 requests (mode={mode}, inflight=2, "
                f"graph-store misses: 2, hits: 3)") in out
        assert "substrate" not in out

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

    @pytest.mark.parametrize("content, message", [
        ("not json", "is not valid JSON"),
        ("[1]", "request 0 is not an object: 1"),
        ("[]", "holds no requests"),
        ('[{"method": "slugger"}]', "needs exactly one of 'dataset'/'input'"),
    ])
    def test_malformed_serve_batch_is_one_line_error(
        self, tmp_path, capsys, content, message
    ):
        batch = tmp_path / "batch.json"
        batch.write_text(content)
        exit_code = main(["serve", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"repro-slugger: error: batch file {batch}")
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
