import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from walklab import cli, lattice, markov, search, spectral, verify
from walklab.cli import main, parse_graph_spec

from oracles import DECOMPOSE_LIMIT

ENVELOPE_KEYS = {"tool", "version", "spec", "seed", "constants_hash", "results"}


def run_json(argv, out_path):
    rc = main(argv + ["--out", str(out_path)])
    assert rc == 0
    return json.loads(out_path.read_text())


def spy_everywhere(monkeypatch, name, real):
    """Route every walklab module's imported ``name`` through a spy; returns the calls' argument tuples."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("walklab") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return calls


# Runs a command in a child and prints its exit code and peak RSS from
# os.wait4.  Linux carries the peak RSS of the process that forks across
# the child's exec, so a child of the test process would report at least
# the test process's own peak; this launcher is small, and so is what its
# child inherits.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kib(argv) -> int:
    """Peak RSS in KiB of one walklab command in a fresh process with one BLAS thread; it must exit 0."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    launch = [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "walklab.cli", *argv]
    code, peak = subprocess.run(launch, env=env, capture_output=True, text=True, check=True).stdout.split()
    assert code == "0"
    return int(peak)


class TestGraphSpec:
    def test_accepts(self):
        assert parse_graph_spec("torus:5").kind == "torus"
        assert parse_graph_spec("grid:3").kind == "grid"

    @pytest.mark.parametrize("bad", ["torus", "cube:4", "torus:abc", "torus:-3", "5", "torus:1", "grid:1", "torus:0"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="malformed graph expression"):
            parse_graph_spec(bad)

    @pytest.mark.parametrize("spec", ["torus:1", "grid:1", "torus:0"])
    def test_sides_below_two_are_usage_errors(self, spec, capsys):
        assert main(["build", "--graph", spec]) == 2
        assert main(["analyze", "--graph", spec, "--marked", "cells:(0,0)"]) == 2
        assert capsys.readouterr().err.count("malformed graph expression") == 2


def test_one_parser_serves_every_job(capsys):
    assert main(["build", "--graph", "torus:3"]) == 0
    assert main(["analyze", "--graph", "torus:5", "--marked", "blob:1"]) == 2
    with pytest.raises(SystemExit):
        main(["analyze", "--graph", "torus:5"])
    assert main(["build", "--graph", "grid:2"]) == 0
    assert cli._build_parser.cache_info().currsize == 1
    assert "grid side=2: 4 vertices" in capsys.readouterr().out


class TestBuild:
    def test_envelope(self, tmp_path, capsys):
        env = run_json(["build", "--graph", "torus:4", "--partition", "2"], tmp_path / "b.json")
        assert set(env) == ENVELOPE_KEYS
        assert env["seed"] is None and env["constants_hash"] is None
        assert env["spec"] == {"command": "build", "graph": "torus:4", "partition": 2}
        triplets = env["results"]["walk"]["triplets"].splitlines()
        assert len(triplets) == 64  # 16 vertices * degree 4
        assert env["results"]["partition"]["q"] == 2  # 2x2 blocks of side 2
        assert "16 vertices" in capsys.readouterr().out

    # sha256 of the --out reports: the edge list's move order, the
    # coordinates and the walk's triplets all show in them
    DIGESTS = {
        "torus:2": "72a27f226b3656c35ba5287d7164dcd2c3066cf919f3c948347a0ce975767913",
        "torus:5 --partition 2": "997d3012e39167bbaf8a365fa0187a78570f0e191684e124ec00df7336644435",
        "grid:2": "cba8a476a754ade5a6878d469c31ce8e6c27be78e531fd9eec43954d69053967",
        "grid:5": "e8f3fdbe79657dc3d46bd0e7df555236482786e23b85f79c271da01f92e3bb83",
    }

    @pytest.mark.parametrize("spec", sorted(DIGESTS))
    def test_report_bytes_are_pinned(self, spec, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["build", "--graph", *spec.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[spec]

    @pytest.mark.parametrize("spec,printed", [
        ("torus:2", "torus side=2: 4 vertices, 16 directed edges, 0 self loops"),
        ("grid:5", "grid side=5: 25 vertices, 100 directed edges, 20 self loops"),
    ])
    def test_summary_counts(self, spec, printed, capsys):
        assert main(["build", "--graph", spec]) == 0
        assert capsys.readouterr().out.strip() == printed

    def test_partition_rejected_for_grid(self, tmp_path, capsys):
        rc = main(["build", "--graph", "grid:4", "--partition", "2"])
        assert rc == 2
        assert "torus" in capsys.readouterr().err


class TestAnalyze:
    def test_panel_and_determinism(self, tmp_path):
        argv = ["analyze", "--graph", "torus:5", "--marked", "cells:(0,0)"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        env = json.loads(a.read_text())
        res = env["results"]
        assert res["ht"] == pytest.approx(95.0 / 3.0, rel=1e-12)
        assert res["ht_eff"] == 35
        # a singleton's HT+ is its plain hitting time, and eht is (1 - eps) times either
        assert res["eht_limit"] == pytest.approx(res["ht"], rel=1e-12, abs=0)
        assert res["eht"] == pytest.approx((1.0 - res["eps_marked"]) * res["ht"], rel=1e-12, abs=0)
        assert res["marked"] == [0]
        assert res["gap"] == lattice.Lattice("torus", (5, 5)).gap

    @pytest.mark.parametrize("graph", ["torus:5", "grid:4"])
    def test_one_stationary_vector_per_job(self, graph, monkeypatch):
        # every walklab module that imported markov.stationary sees the spy
        calls = spy_everywhere(monkeypatch, "stationary", markov.stationary)
        for job in range(2):
            assert main(["analyze", "--graph", graph, "--marked", "cells:(0,0)"]) == 0
            assert len(calls) == job + 1

    @pytest.mark.parametrize("graph", ["torus:5", "grid:4"])
    def test_no_decomposition_per_job(self, graph, monkeypatch):
        # the gap is closed-form and ht is a resolvent solve: analyze runs no
        # dense eigendecomposition and densifies no sparse matrix
        calls = []
        for module in (np.linalg, scipy.linalg):
            for name in ("eigh", "eig", "eigvalsh", "eigvals"):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _r=real, _n=name, **k: calls.append(_n) or _r(*a, **k))
        for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array, scipy.sparse.coo_array):
            for name in ("toarray", "todense"):
                real = getattr(cls, name)
                monkeypatch.setattr(cls, name, lambda self, *a, _r=real, _n=name, **k: calls.append(_n) or _r(self, *a, **k))
        for _ in range(2):
            assert main(["analyze", "--graph", graph, "--marked", "cells:(0,0)"]) == 0
        assert calls == []

    @pytest.mark.parametrize("graph", ["torus:5", "grid:4"])
    def test_one_absorption_solve_per_job(self, graph, monkeypatch):
        # ht and ht_linear are read once, for their fields, from the lattice's
        # absorption times: the sparse LU runs on no lattice job
        fourier = spy_everywhere(monkeypatch, "_lattice_hitting_times", spectral._lattice_hitting_times)
        solved = spy_everywhere(monkeypatch, "hitting_time_linear", spectral.hitting_time_linear)
        for job in range(2):
            assert main(["analyze", "--graph", graph, "--marked", "cells:(0,0)"]) == 0
            assert len(fourier) == job + 1
        assert solved == []

    @pytest.mark.parametrize("graph,marked,count", [
        ("torus:5", "cells:(0,0)", 0), ("grid:4", "cells:(0,0)", 0), ("grid:4", "halfchecker", 0),
    ])
    def test_sparse_solves_per_job(self, graph, marked, count, monkeypatch):
        # the escape, ht and ht_linear are read from the lattice's spectrum
        # while |M|^2 <= N, and past it, as for halfchecker's 12 of 16 marks,
        # from conjugate gradients on the restricted P, so no job solves.
        # eht_limit is closed form in the escape, and a singleton's ht_eff
        # is read from its survival curve, so P is restricted once per job,
        # for halfchecker's D(P'), which its conjugate gradients share
        solves = spy_everywhere(monkeypatch, "_spsolve", spectral._spsolve)
        built = spy_everywhere(monkeypatch, "restrict", markov.restrict)
        per_job = marked == "halfchecker"
        for job in range(2):
            assert main(["analyze", "--graph", graph, "--marked", marked]) == 0
            assert len(solves) == count * (job + 1)
            assert len(built) == per_job * (job + 1)

    @pytest.mark.parametrize("graph,marked,dim", [
        ("grid:32", "rows:0", 32), ("torus:12", "cols:3,5", 12), ("torus:9", "half", 9),
        ("grid:6", "halfchecker", 36), ("torus:6", "cells:(0,0)", 36),
    ])
    def test_line_sets_run_on_the_thin_lattice(self, graph, marked, dim, tmp_path, monkeypatch):
        # whole rows or columns are analysed on the n x 1 lattice; the report
        # keeps the full lattice's N, marked ids and gap
        chains = []
        real = cli.analyze_instance
        monkeypatch.setattr(cli, "analyze_instance", lambda P, *a: chains.append(P) or real(P, *a))
        res = run_json(["analyze", "--graph", graph, "--marked", marked], tmp_path / "a.json")["results"]
        side = int(graph.partition(":")[2])
        assert [P.dim for P in chains] == [dim]
        assert (res["n"], res["N"]) == (side, side * side)
        assert res["marked"] == list(search.parse_marked_spec(marked, side))
        assert res["gap"] == lattice.Lattice(graph.partition(":")[0], (side, side)).gap

    def test_bad_marked_spec(self, capsys):
        rc = main(["analyze", "--graph", "torus:5", "--marked", "blob:1"])
        assert rc == 2
        assert "blob:1" in capsys.readouterr().err

    def test_uncertified_first_passage_exits_one(self, capsys, monkeypatch):
        real = spectral._crossing
        monkeypatch.setattr(spectral, "_crossing", lambda *args: (real(*args)[0], False))
        rc = main(["analyze", "--graph", "torus:5", "--marked", "cells:(0,0)"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "certify" in err

    def test_missing_marked_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--graph", "torus:5"])
        assert exc.value.code == 2

    def test_unmarked_block_past_the_dense_limit(self, tmp_path):
        # 65^2 - 1 = 4224 unmarked states, past the dense oracle's limit; a
        # dense copy of the block alone would take 4224^2 * 8 bytes = 143 MB
        out = tmp_path / "a.json"
        tracemalloc.start()
        try:
            rc = main(["analyze", "--graph", "torus:65", "--marked", "cells:(0,0)", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        res = json.loads(out.read_text())["results"]
        assert res["N"] - len(res["marked"]) > DECOMPOSE_LIMIT
        assert res["ht"] == pytest.approx(res["ht_linear"], rel=1e-12, abs=0)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("graph,marked", [
        ("grid:32", "rows:0"), ("torus:32", "random:7:1"), ("torus:128", "rows:0"), ("torus:128", "random:300:1"),
    ])
    def test_report_repeats_across_blas_thread_counts(self, graph, marked, tmp_path):
        # every field comes from sparse, FFT or closed-form work; a dense
        # eigh's last digits move with the thread count (grid:32 rows:0 read
        # 1343.9999999996273 at one thread and 1344.0000000000912 at two), and
        # so do np.linalg.solve's on the 128 x 128 Green block of torus:128
        # rows:0, which ht reads through a Cholesky made of ufuncs instead.
        # random:300:1 takes 231 conjugate-gradient steps on 16,384
        # states, whose inner products are ufunc sums, not BLAS dots
        src = str(Path(cli.__file__).resolve().parent.parent)
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
            subprocess.run([sys.executable, "-m", "walklab.cli", "analyze", "--graph", graph, "--marked", marked,
                            "--out", str(out)], env=env, check=True, capture_output=True)
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]

    def test_lines_at_side_1024_build_only_the_thin_lattice(self, monkeypatch):
        # the n x n lattice is parsed, not built: no chain and no neighbour
        # table of the 2^20 states
        built = spy_everywhere(monkeypatch, "lattice_walk", markov.lattice_walk)
        tables = []
        real = lattice.Lattice.neighbours
        monkeypatch.setattr(lattice.Lattice, "neighbours", lambda self: tables.append(self.shape) or real(self))
        assert main(["analyze", "--graph", "torus:1024", "--marked", "rows:0"]) == 0
        assert built == [("torus", (1024, 1))]
        assert tables == [(1024, 1)]

    def test_lines_at_side_1024_peak_under_100_mb(self):
        assert peak_rss_kib(["analyze", "--graph", "torus:1024", "--marked", "rows:0"]) < 100 * 1024

    def test_large_torus_with_few_unmarked_states(self, tmp_path):
        # 4225 states, of which 1,072 are unmarked
        env = run_json(["analyze", "--graph", "torus:65", "--marked", "halfchecker"], tmp_path / "a.json")
        res = env["results"]
        assert res["N"] - len(res["marked"]) <= DECOMPOSE_LIMIT < res["N"]
        assert res["ht"] == pytest.approx(res["ht_linear"], rel=1e-6)


class TestLocality:
    def test_line_smoke(self, tmp_path):
        env = run_json(
            ["locality", "--experiment", "line", "--T", "25", "--trials", "2000", "--seed", "3"],
            tmp_path / "l.json",
        )
        assert env["seed"] == 3
        assert env["constants_hash"] is None
        assert 0.9 < env["results"]["localized_fraction"] <= 1.0

    def test_subgrid_smoke(self, tmp_path):
        env = run_json(
            ["locality", "--experiment", "subgrid", "--T", "1", "--trials", "1000",
             "--n", "16", "--marked", "rows:0", "--seed", "2"],
            tmp_path / "s.json",
        )
        assert env["results"]["p_G"] > 0

    def test_subgrid_needs_n_and_marked(self, capsys):
        rc = main(["locality", "--experiment", "subgrid", "--T", "1"])
        assert rc == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    @pytest.mark.parametrize("experiment", ["line", "grid", "subgrid"])
    def test_trials_below_one_is_usage_error(self, capsys, experiment, trials):
        rc = main(["locality", "--experiment", experiment, "--T", "5", "--trials", trials,
                   "--n", "8", "--marked", "rows:0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: trials must be positive\n"


class TestSearch:
    def test_single_run(self, tmp_path, constants_file, constants):
        env = run_json(
            ["search", "--n", "8", "--marked", "rows:0", "--seed", "7",
             "--constants", str(constants_file)],
            tmp_path / "s.json",
        )
        assert env["constants_hash"] == constants.digest
        assert env["results"]["h_tilde"] == 108
        assert env["results"]["best_k"] == 4

    def test_sweep_k(self, tmp_path, constants_file):
        env = run_json(
            ["search", "--n", "8", "--marked", "cells:(0,0)", "--k", "sweep",
             "--constants", str(constants_file)],
            tmp_path / "s.json",
        )
        assert env["results"]["mode"] == "sweep"
        assert env["results"]["sweep_success"] > env["results"]["best_success"] - 1e-12

    def test_sample_flag(self, tmp_path, constants_file):
        env = run_json(
            ["search", "--n", "8", "--marked", "half", "--sample", "--seed", "1",
             "--constants", str(constants_file)],
            tmp_path / "s.json",
        )
        out = env["results"]["sample_outcome"]
        assert set(out) == {"k", "block", "t", "vertex", "is_marked"}

    @pytest.mark.parametrize("family", ["clusters", "singleton", "row", "half"])
    def test_family_name_marks_its_expression(self, family, tmp_path, constants_file):
        # search, analyze and sweep resolve a family's name in parse_marked_spec
        spelled = search.standard_families(8)[family]
        for argv in (["search", "--n", "8", "--constants", str(constants_file)], ["analyze", "--graph", "torus:8"]):
            by_name, by_expression = (
                run_json(argv + ["--marked", spec], tmp_path / f"{i}.json") for i, spec in enumerate((family, spelled))
            )
            assert by_name["results"]["marked"] == by_expression["results"]["marked"], argv
            assert by_name["results"] == by_expression["results"], argv
        assert family != "clusters" or by_name["results"]["marked"] == [0, 1, 8, 9, 36, 37, 44, 45]

    def test_sweep_refuses_sample(self, capsys, constants_file):
        rc = main(["search", "--n", "8", "--marked", "rows:0", "--k", "sweep", "--sample",
                   "--constants", str(constants_file)])
        assert rc == 2
        assert "sample" in capsys.readouterr().err

    def test_marked_expression_is_parsed_once(self, constants_file, monkeypatch):
        calls = []
        real = search.parse_marked_spec

        def spy(spec, n):
            calls.append(spec)
            return real(spec, n)

        for name, module in list(sys.modules.items()):
            if name.startswith("walklab") and getattr(module, "parse_marked_spec", None) is real:
                monkeypatch.setattr(module, "parse_marked_spec", spy)
        rc = main(["search", "--n", "8", "--marked", "random:5:1", "--constants", str(constants_file)])
        assert rc == 0
        assert calls == ["random:5:1"]

    def test_bad_k(self, capsys, constants_file):
        rc = main(["search", "--n", "8", "--marked", "rows:0", "--k", "lots",
                   "--constants", str(constants_file)])
        assert rc == 2
        assert "lots" in capsys.readouterr().err


class TestSweep:
    def test_family_table(self, tmp_path, constants_file):
        csv_path = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        rc = main(["sweep", "--family", "singleton", "--sizes", "4,8",
                   "--constants", str(constants_file),
                   "--out", str(csv_path), "--report", str(report)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,N,eps_marked")
        assert len(lines) == 3
        env = json.loads(report.read_text())
        assert [row["n"] for row in env["results"]] == [4, 8]

    def test_expression_fallback(self, tmp_path, constants_file, capsys):
        rc = main(["sweep", "--family", "cells:(0,0);(1,1)", "--sizes", "4",
                   "--constants", str(constants_file)])
        assert rc == 0
        assert "best_k" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["row", "singleton"])
    def test_side_two_family(self, family, constants_file):
        # only the requested family is parsed: clusters do not fit on side 2
        rc = main(["sweep", "--family", family, "--sizes", "2,3",
                   "--constants", str(constants_file)])
        assert rc == 0

    def test_side_two_clusters_rejected(self, capsys, constants_file):
        rc = main(["sweep", "--family", "clusters", "--sizes", "2",
                   "--constants", str(constants_file)])
        assert rc == 2
        assert "outside the 2x2 torus" in capsys.readouterr().err

    def test_side_three_clusters_rejected(self, capsys, constants_file):
        rc = main(["sweep", "--family", "clusters", "--sizes", "3",
                   "--constants", str(constants_file)])
        assert rc == 2
        assert "squares overlap on the 3x3 torus" in capsys.readouterr().err

    def test_small_clusters_rejected_before_any_search(self, capsys, constants_file, monkeypatch):
        monkeypatch.setattr(cli, "run_search", lambda config: pytest.fail("searched"))
        rc = main(["sweep", "--family", "clusters", "--sizes", "8,3",
                   "--constants", str(constants_file)])
        assert rc == 2
        assert "squares overlap on the 3x3 torus" in capsys.readouterr().err

    def test_malformed_sizes(self, capsys, constants_file):
        rc = main(["sweep", "--family", "singleton", "--sizes", "4;8",
                   "--constants", str(constants_file)])
        assert rc == 2
        assert "sizes" in capsys.readouterr().err


MISSING_CONSTANTS_COMMANDS = {
    "search": ["search", "--n", "8", "--marked", "rows:0"],
    "sweep": ["sweep", "--family", "singleton", "--sizes", "4"],
    "verify": ["verify", "determinism"],
}


class TestVerify:
    def test_missing_constants_file(self, tmp_path, capsys):
        path = tmp_path / "nope.cfg"
        for name, argv in MISSING_CONSTANTS_COMMANDS.items():
            rc = main(argv + ["--constants", str(path)])
            assert rc == 2, name
            assert capsys.readouterr().err == (
                f"error: constants file {path} not found; run 'walklab calibrate' first\n"
            ), name

    def test_bad_suite_name(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n,message", [
        (2, "outside the 2x2 torus"),
        (3, "the clusters family's two 2x2 squares overlap on the 3x3 torus; it needs side >= 4"),
    ])
    def test_search_suite_rejects_small_clusters(self, n, message, capsys, constants_file):
        rc = main(["verify", "search", "--n", str(n), "--constants", str(constants_file)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_determinism_commands_ignore_worker_count(self, tmp_path, constants_file, monkeypatch):
        # the three commands c10 repeats, at one and at two workers
        commands = [
            ["analyze", "--graph", "torus:5", "--marked", "cells:(0,0)"],
            ["locality", "--experiment", "line", "--T", "25", "--trials", "2000", "--seed", "3"],
            ["search", "--n", "8", "--marked", "rows:0", "--seed", "7", "--sample",
             "--constants", str(constants_file)],
        ]
        for i, argv in enumerate(commands):
            payloads = []
            for workers in ("1", "2"):
                monkeypatch.setenv("WALKLAB_WORKERS", workers)
                out = tmp_path / f"cmd{i}_w{workers}.json"
                assert main(argv + ["--out", str(out)]) == 0
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1], argv[0]

    def test_determinism_suite(self, tmp_path, constants_file, capsys):
        out = tmp_path / "v.json"
        rc = main(["verify", "determinism", "--constants", str(constants_file),
                   "--out", str(out)])
        assert rc == 0
        assert "1/1 criteria passed" in capsys.readouterr().out
        env = json.loads(out.read_text())
        assert env["results"][0]["passed"] is True
        assert "runtime" not in env["results"][0]

    def test_all_suite_builds_each_torus_chain_once(self, tmp_path, constants_file, monkeypatch):
        # c01 8 and c04 8 lattice chains, c10's two analyze jobs, and one per
        # torus side across c02, c03, c07 and c09 (10 sides); 142 when c03 and
        # c09 rebuilt the chain and its pi for every instance and row.  The
        # searches that c08-c10 run take pi for each chain they walk, and
        # are not counted.
        calls = []
        real = markov.stationary

        def spy(P):
            calls.append(P.dim)
            return real(P)

        for name, module in list(sys.modules.items()):
            if (name.startswith("walklab") and name != "walklab.search"
                    and getattr(module, "stationary", None) is real):
                monkeypatch.setattr(module, "stationary", spy)
        verify._torus_chain.cache_clear()
        main(["verify", "all", "--trials", "2000", "--constants", str(constants_file),
              "--out", str(tmp_path / "v.json")])
        assert len(calls) == 28


@pytest.mark.slow
def test_calibrate_writes_frozen_file(tmp_path, constants_file, capsys):
    out = tmp_path / "fresh.cfg"
    rc = main(["calibrate", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == constants_file.read_bytes()
    assert "digest" in capsys.readouterr().out


def test_lattice_jobs_solve_no_full_system(monkeypatch):
    # torus:128: a corner reads ht_eff from the survival curve, and so does
    # a row, as one vertex of its 128-state thin lattice; neither runs the
    # sparse LU or the Chebyshev moments
    dims, moments = [], []
    real, real_curve = spectral._first_passage, spectral._ChebyshevCurve
    monkeypatch.setattr(spectral, "_first_passage", lambda P, *a: dims.append(P.dim) or real(P, *a))
    monkeypatch.setattr(spectral, "_ChebyshevCurve", lambda Q, u: moments.append(Q.shape[0]) or real_curve(Q, u))
    solved = spy_everywhere(monkeypatch, "hitting_time_linear", spectral.hitting_time_linear)
    for marked in ("cells:(0,0)", "rows:0"):
        assert main(["analyze", "--graph", "torus:128", "--marked", marked]) == 0
    assert solved == []
    assert dims == [128 * 128, 128]
    assert moments == []


@pytest.mark.slow
def test_grid_corner_at_side_512_reads_no_moments(monkeypatch, tmp_path):
    # 2^18 states, and ht_eff from the corner's survival curve; a fall back
    # to the Chebyshev moments would raise here at once
    def refuse(*args):
        raise AssertionError("the first passage fell back to the Chebyshev moments")

    monkeypatch.setattr(spectral, "_ChebyshevCurve", refuse)
    res = run_json(["analyze", "--graph", "grid:512", "--marked", "cells:(0,0)"], tmp_path / "a.json")["results"]
    assert res["ht_eff"] == 4366785


@pytest.mark.slow
@pytest.mark.parametrize("graph,marked", [("torus:1024", "cells:(0,0)"), ("torus:1024", "rows:0")])
def test_analyze_at_side_1024(graph, marked):
    # one process, one BLAS thread: under 500 MB of peak RSS
    assert peak_rss_kib(["analyze", "--graph", graph, "--marked", marked]) < 500 * 1024
