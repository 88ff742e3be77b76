"""Tests for the suite registry and the Table III / IV harness."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import lagraph as lg
from repro.gap import datasets, harness


class TestDatasets:
    def test_suite_has_all_table4_graphs(self):
        assert set(datasets.SUITE) == {"kron", "urand", "twitter", "web",
                                       "road"}

    @pytest.mark.parametrize("name", sorted(datasets.SUITE))
    def test_build_tiny(self, name):
        g = datasets.build(name, "tiny")
        g.check()
        assert g.n > 0 and g.nvals > 0

    def test_kind_matches_table4(self):
        # Table IV: Kron/Urand undirected; Twitter/Web/Road directed
        assert datasets.build("kron", "tiny").kind is lg.ADJACENCY_UNDIRECTED
        assert datasets.build("urand", "tiny").kind is lg.ADJACENCY_UNDIRECTED
        assert datasets.build("twitter", "tiny").kind is lg.ADJACENCY_DIRECTED
        assert datasets.build("web", "tiny").kind is lg.ADJACENCY_DIRECTED
        assert datasets.build("road", "tiny").kind is lg.ADJACENCY_DIRECTED

    def test_sizes_ordered(self):
        tiny = datasets.build("kron", "tiny")
        small = datasets.build("kron", "small")
        assert small.n > tiny.n

    def test_weighted(self):
        g = datasets.build("urand", "tiny", weighted=True)
        assert g.A.dtype == np.float64

    def test_unknown_graph(self):
        with pytest.raises(ValueError):
            datasets.build("orkut")

    def test_unknown_size(self):
        with pytest.raises(KeyError):
            datasets.build("kron", "galactic")

    def test_suite_table_rows(self):
        rows = datasets.suite_table("tiny")
        assert [r[0] for r in rows] == list(harness.GRAPHS)   # Table IV order
        for name, n, nvals, kind in rows:
            assert n > 0 and nvals > 0
        kinds = {r[0]: r[3] for r in rows}
        assert kinds["kron"] == "undirected" and kinds["road"] == "directed"
        assert set(kinds.values()) == {"directed", "undirected"}


class TestHarness:
    def test_table4_format(self):
        text = harness.format_table4(harness.run_table4("tiny"))
        assert "graph" in text and "kron" in text and "entries" in text

    @pytest.mark.parametrize("algo", harness.ALGORITHMS)
    def test_each_algorithm_runs_and_verifies(self, algo):
        """One kernel, two graphs, with the verifier enabled (checks output)."""
        results = harness.run_table3(
            "tiny", algorithms=[algo], graphs=["kron", "road"], check=True)
        assert set(results[algo]) == {"kron", "road"}
        for cell in results[algo].values():
            assert cell["gap"] > 0 and cell["lagraph"] > 0

    def test_format_table3_layout(self):
        results = {"BFS": {"kron": {"gap": 0.001, "lagraph": 0.002}}}
        text = harness.format_table3(results, graphs=["kron"])
        assert "BFS : GAP" in text and "BFS : LAGr" in text
        assert "Algorithm : graph" in text

    def test_cli_prints_both_tables_without_warnings(self):
        """``python -m repro.gap.harness`` is the only Table III/IV
        printer; a package that imports the module eagerly makes runpy
        warn on every run."""
        import repro
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.gap.harness", "--size", "tiny", "--algorithms", "TC"],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0 and run.stderr == "", run.stderr
        assert "entries in A" in run.stdout       # Table IV
        assert "TC : LAGr" in run.stdout          # Table III

    def test_cli_rejects_unknown_algorithm_before_building(self, capsys,
                                                           monkeypatch):
        """A misspelt ``--algorithms`` name is an argparse error, not a
        traceback after every graph of the size has been built."""
        def no_build(*args, **kwargs):
            raise AssertionError("built a graph for a rejected command line")
        monkeypatch.setattr(datasets, "build", no_build)
        monkeypatch.setattr(datasets, "suite_table", no_build)
        with pytest.raises(SystemExit) as exit_:
            harness.main(["--size", "medium", "--algorithms", "bfs"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bfs'" in capsys.readouterr().err

    def test_sources_avoid_isolated_nodes(self):
        g = datasets.build("road", "tiny")
        srcs = harness._sources(g, k=4)
        deg = np.diff(g.A.indptr)
        assert (deg[srcs] > 0).all()
