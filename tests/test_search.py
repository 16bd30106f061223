import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import markov, search, szegedy
from walklab.cli import main
from walklab.graphs import partition_torus
from walklab.markov import lattice_walk
from walklab.reporting import canonical_json
from walklab.search import (
    SearchConfig,
    _per_k_table,
    parse_marked_spec,
    run_k_sweep,
    run_search,
    standard_families,
    valid_k_values,
    verify_cost_bound,
)
from walklab.szegedy import estimate_effective_ht, find_via_interpolation, h_unique

from oracles import block_records, find_one, search_report_dicts

ROOT = Path(__file__).resolve().parent.parent


class TestMarkedSpec:
    def test_rows(self):
        assert parse_marked_spec("rows:0", 4) == (0, 1, 2, 3)
        assert parse_marked_spec("rows:0,2", 3) == (0, 1, 2, 6, 7, 8)

    def test_cols(self):
        assert parse_marked_spec("cols:1", 3) == (1, 4, 7)

    def test_cells(self):
        assert parse_marked_spec("cells:(0,0);(1,2)", 3) == (0, 5)
        assert parse_marked_spec("cells:(2,2);(2,2)", 3) == (8,)  # dedup

    def test_half(self):
        assert parse_marked_spec("half", 4) == (0, 1, 4, 5, 8, 9, 12, 13)

    def test_halfchecker(self):
        # left half plus the even-diagonal checkerboard on the right
        assert parse_marked_spec("halfchecker", 4) == (0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 15)

    def test_random_is_seeded(self):
        a = parse_marked_spec("random:10:3", 8)
        assert a == parse_marked_spec("random:10:3", 8)
        assert len(a) == 10
        assert all(0 <= v < 64 for v in a)

    def test_errors_name_the_expression(self):
        for bad in ("rows:9", "rows:", "cells:(0)", "cells:(9,9)", "random:0:1",
                    "random:5", "blob", "cols:x"):
            with pytest.raises(ValueError):
                parse_marked_spec(bad, 4)

    def test_rejects_tiny_torus(self):
        with pytest.raises(ValueError):
            parse_marked_spec("rows:0", 1)

    @pytest.mark.parametrize("n", [2, 3, 7, 48, 128])
    def test_drawn_sets_match_a_python_set_oracle(self, n):
        # lines, half and halfchecker are drawn on a numpy mask; the oracle
        # collects each set's ids one by one in a Python set
        cells = {
            "rows:0": lambda r, c: r == 0,
            f"rows:{n - 1},0,{n - 1}": lambda r, c: r in (0, n - 1),
            "cols:0": lambda r, c: c == 0,
            f"cols:{n - 1},0": lambda r, c: c in (0, n - 1),
            "half": lambda r, c: c < n // 2,
            "halfchecker": lambda r, c: c < n // 2 or (r + c) % 2 == 0,
        }
        for spec, inside in cells.items():
            oracle = tuple(sorted({r * n + c for r in range(n) for c in range(n) if inside(r, c)}))
            ids = parse_marked_spec(spec, n)
            assert ids == oracle, spec
            assert all(type(v) is int for v in ids), spec


def parsed_families(n):
    return {name: parse_marked_spec(spec, n) for name, spec in standard_families(n).items()}


class TestFamilies:
    def test_sizes(self):
        fam = parsed_families(16)
        assert len(fam["singleton"]) == 1
        assert len(fam["row"]) == 16
        assert len(fam["clusters"]) == 8
        assert len(fam["half"]) == 128

    def test_clusters_are_two_squares(self):
        fam = parsed_families(8)
        assert set(fam["clusters"]) == {0, 1, 8, 9, 36, 37, 44, 45}


class TestKValues:
    def test_power_of_two(self):
        assert valid_k_values(64) == [1, 2, 3, 4, 5]

    def test_non_power(self):
        assert valid_k_values(25) == [1, 2, 3, 4]

    def test_too_small(self):
        with pytest.raises(ValueError):
            valid_k_values(2)


class TestConfig:
    def test_rejects_bad_k(self, constants):
        with pytest.raises(ValueError):
            SearchConfig(n=8, marked=(0,), constants=constants, k=6)

    def test_rejects_full_marking(self, constants):
        with pytest.raises(ValueError):
            SearchConfig(n=4, marked=tuple(range(16)), constants=constants)

    def test_marked_ids_are_sorted_distinct_python_ints(self, constants):
        config = SearchConfig(n=8, marked=(np.int64(9), 3, 9, np.int32(0)), constants=constants)
        assert config.marked == (0, 3, 9)
        assert all(type(v) is int for v in config.marked)

    @pytest.mark.parametrize("n,repeated,distinct", [(8, (0, 0, 5), (0, 5)), (4, (0,) * 16, (0,))])
    def test_repeated_vertices_count_once(self, constants, n, repeated, distinct):
        reports = [run_search(SearchConfig(n=n, marked=m, constants=constants)) for m in (repeated, distinct)]
        reports = [json.loads(canonical_json(rep.to_dict())) for rep in reports]
        assert reports[0] == reports[1]
        assert reports[0]["eps_marked"] == len(distinct) / (n * n)


@pytest.fixture(scope="module")
def row8(constants):
    return run_search(SearchConfig(n=8, marked=parse_marked_spec("rows:0", 8), constants=constants, seed=7))


class TestRunSearch:
    def test_pipeline_frozen(self, row8):
        assert row8.h_tilde == 108
        assert row8.layout.d == 8
        assert row8.layout.n_blocks == 1
        assert row8.T_walk == 22
        assert row8.best_k == 4
        assert row8.best_success == pytest.approx(0.553323178088413, rel=1e-12)

    def test_ledger_charges(self, row8):
        led = row8.to_dict()["ledger"]
        # estimator setups + the partitioned-superposition setup; one walk run
        assert led["setup_count"] == 2
        assert led["steps"] == led["update_count"] == led["check_count"] == row8.steps
        assert row8.steps == row8.estimator.steps + row8.T_walk

    def test_uniform_is_mean_over_k(self, row8):
        assert row8.uniform_success == pytest.approx(
            sum(row8.per_k_success) / len(row8.k_values), abs=1e-15
        )

    def test_uniform_k_keeps_a_log_fraction_of_the_floor(self, row8):
        # random-k variant: mean over k can lose at most a 1/|k| factor
        floor = (1.0 / 50.0) / math.floor(math.log2(row8.config.n * row8.config.n))
        assert row8.uniform_success >= floor

    def test_chosen_k_seeded(self, row8):
        assert row8.chosen_k == 5
        again = run_search(
            SearchConfig(n=8, marked=parse_marked_spec("rows:0", 8), constants=row8.config.constants, seed=7)
        )
        assert again.chosen_k == 5
        assert again.per_k_success == row8.per_k_success

    def test_walk_length_formula(self, row8):
        D = row8.layout.base_side
        expect = math.ceil(
            row8.config.constants.c_find * D * math.sqrt(max(1.0, math.log(D)))
        )
        assert row8.T_walk == expect

    def test_mixture_bookkeeping_is_enforced(self, row8):
        broken = tuple(s + 0.01 for s in row8.per_k_success)
        with pytest.raises(ValueError, match="mixture"):
            dataclasses.replace(row8, per_k_success=broken)

    @pytest.mark.parametrize("spec,n,dims", [("random:40:1", 48, [2304]), ("rows:0", 8, [8, 64])])
    def test_sample_mode_builds_each_walk_once(self, constants, monkeypatch, spec, n, dims):
        # the drawn block's walk is the finding walk's, unless that one ran
        # on the thin lattice of the block's lines
        built = []
        real = szegedy.build_walk
        for module in (szegedy, search):
            monkeypatch.setattr(module, "build_walk", lambda base: built.append(base.dim) or real(base))
        run_search(SearchConfig(n=n, marked=parse_marked_spec(spec, n), constants=constants, seed=7, sample=True))
        assert built == dims

    def test_sample_mode_frozen(self, constants):
        rep = run_search(
            SearchConfig(n=8, marked=parse_marked_spec("rows:0", 8), constants=constants, seed=7, sample=True)
        )
        assert rep.sample_outcome == {
            "k": 5,
            "block": 0,
            "t": 15,
            "vertex": 20,
            "is_marked": False,
        }
        assert rep.to_dict()["verdict"] == "unsuccessful search"

    def test_fully_marked_block_short_circuits(self, constants):
        rep = run_search(SearchConfig(n=16, marked=parse_marked_spec("halfchecker", 16), constants=constants))
        assert rep.layout.n_blocks == 4
        first = json.loads(canonical_json(rep.to_dict()))["per_k"][0]["blocks"][0]
        assert first["marked_in_block"] == first["block_size"] == 64
        assert first["success"] == 1.0
        assert first["eps_G"] == pytest.approx(0.25, abs=1e-15)


def _thin_route(layout, b, marked):
    """The route _per_k_table takes: the thin lattice of a whole-line set, the block itself otherwise."""
    lattice, states = search._walked_lattice(layout.block_shape(b), marked)
    return lattice_walk("grid", lattice), states


def _full_route(layout, b, marked):
    """The full-chain route for every marked set: the block's own chain."""
    return lattice_walk("grid", layout.block_shape(b)), marked


def _per_block_table(layout, marked, T_walk, k_values, route=_thin_route):
    """The per-(block, k) loop that _per_k_table replaced: one single-estimate walk per pair.

    Returns the per-k successes and, per k, the report's block records.

    route picks the chain and marked states each walk runs on, from uniform
    pi; _full_route walks every block on its full chain.
    """
    N = layout.n * layout.n
    marked_set = set(marked)
    per_k_success, per_k_records = [], []
    for k in k_values:
        outcomes, total = [], 0.0
        for b in range(layout.n_blocks):
            verts = layout.block_vertices(b)
            size = verts.size
            local_marked = tuple(i for i, v in enumerate(verts) if int(v) in marked_set)
            eps_G = size / N
            if not local_marked:
                success = 0.0
            elif len(local_marked) == size:
                success = 1.0
            else:
                chain, states = route(layout, b, local_marked)
                success = find_one(chain, states, 0.5 ** k, T_walk, np.full(chain.dim, 1.0 / chain.dim))
            outcomes.append({"block": b, "eps_G": eps_G, "marked_in_block": len(local_marked),
                             "block_size": size, "success": success})
            total += eps_G * success
        per_k_success.append(total)
        per_k_records.append(outcomes)
    return per_k_success, per_k_records


# (marked set, n, d, blocks walked per k, distinct (walked lattice, marked states) keys)
DEDUP_LAYOUTS = [
    # 8 fully marked blocks and 8 with one shared checkerboard: 9 walks
    # for the 9 values of k, against 72 per block
    ("halfchecker", 32, 8, 8, 1),
    # four block shapes, every local pattern different
    ("random:30:1", 20, 6, 9, 9),
    # local pattern (0,) in a 7x7 block and in a 7x6 block: two keys
    ("cells:(0,0);(0,14)", 20, 6, 2, 2),
    # the top rows of two 7x7 blocks and a 7x6 one: one 7-state walk; six unmarked blocks
    ("rows:0", 20, 6, 3, 1),
    # 8 fully marked blocks, 7 unmarked, one walked
    ("half+cell", 16, 4, 1, 1),
]


def _table(layout, marked, T_walk, k_values):
    """_per_k_table's per-k successes, its per-block records of each k, and its chains."""
    blocks = search._block_walks(layout, marked)
    success, walk_success, walk_of, chains = _per_k_table(blocks, T_walk, k_values)
    records = [block_records(blocks, walk_of, column) for column in walk_success.T.tolist()]
    return success, records, chains


def _layout_case(spec, n, d):
    if spec == "half+cell":
        marked = tuple(sorted(parse_marked_spec("half", n) + (5 * n + 13,)))
    else:
        marked = parse_marked_spec(spec, n)
    return partition_torus(n, d), marked, valid_k_values(n * n)


class TestPerKTable:
    T_WALK = 17

    def _counted_calls(self, monkeypatch, owner, name, table, layout, marked, k_values):
        """table's result and the arguments of each call it makes to owner.name."""
        calls = []
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        result = table(layout, marked, self.T_WALK, k_values)
        monkeypatch.undo()
        return result, calls

    @pytest.mark.parametrize("spec,n,d,walked,distinct", DEDUP_LAYOUTS)
    def test_equals_per_block_loop(self, monkeypatch, spec, n, d, walked, distinct):
        layout, marked, k_values = _layout_case(spec, n, d)
        (success, blocks, _), calls = self._counted_calls(
            monkeypatch, search, "find_via_interpolation", _table, layout, marked, k_values
        )
        (want_success, want_blocks), want_calls = self._counted_calls(
            monkeypatch, sys.modules[__name__], "find_one", _per_block_table, layout, marked, k_values
        )
        np.testing.assert_allclose(success, want_success, rtol=1e-10, atol=0)
        for got, want in zip(blocks, want_blocks, strict=True):
            assert [{**o, "success": None} for o in got] == [{**o, "success": None} for o in want]
            np.testing.assert_allclose([o["success"] for o in got], [o["success"] for o in want],
                                       rtol=1e-10, atol=0)
        assert len(want_calls) == walked * len(k_values)
        # one call per distinct walk, with every k
        assert len(calls) == distinct
        assert all(list(args[2]) == [0.5 ** k for k in k_values] for args in calls)

    @pytest.mark.parametrize("spec,n,d,walked,distinct", DEDUP_LAYOUTS)
    def test_one_row_per_distinct_walk(self, spec, n, d, walked, distinct):
        layout, marked, k_values = _layout_case(spec, n, d)
        blocks = search._block_walks(layout, marked)
        _, walk_success, walk_of, _ = _per_k_table(blocks, self.T_WALK, k_values)
        assert walk_success.shape == (2 + distinct, len(k_values))
        assert (walk_success[0] == 0.0).all() and (walk_success[1] == 1.0).all()
        assert walk_of.shape == (layout.n_blocks,)
        for (_, shape, local, _), row in zip(blocks, walk_of.tolist()):
            if 0 < len(local) < shape[0] * shape[1]:
                assert row >= 2
            else:
                assert row == (1 if local else 0)

    @pytest.mark.parametrize("spec,n,d,walked,distinct", DEDUP_LAYOUTS)
    def test_matches_the_full_chain_walks(self, spec, n, d, walked, distinct):
        # thin-lattice walks agree with the full block walks up to rounding
        layout, marked, k_values = _layout_case(spec, n, d)
        success, blocks, _ = _table(layout, marked, self.T_WALK, k_values)
        want_success, want_blocks = _per_block_table(layout, marked, self.T_WALK, k_values, _full_route)
        np.testing.assert_allclose(success, want_success, rtol=1e-9, atol=0)
        for got, want in zip(blocks, want_blocks):
            np.testing.assert_allclose([o["success"] for o in got], [o["success"] for o in want],
                                       rtol=1e-9, atol=0)

    @pytest.mark.parametrize("spec,n,d,walked,distinct", DEDUP_LAYOUTS)
    def test_local_ids_are_row_major_offsets(self, spec, n, d, walked, distinct):
        layout, marked, _ = _layout_case(spec, n, d)
        marked_set = set(marked)
        for b, shape, local_marked, eps_G in search._block_walks(layout, marked):
            verts = layout.block_vertices(b)
            assert verts.size == shape[0] * shape[1]
            assert local_marked == tuple(i for i, v in enumerate(verts) if int(v) in marked_set)
            assert all(type(i) is int for i in local_marked)
            assert type(eps_G) is float and eps_G == shape[0] * shape[1] / (n * n)

    def test_one_chain_per_block_shape(self, monkeypatch):
        built = []
        real = search.lattice_walk

        def spy(kind, shape):
            built.append(shape)
            return real(kind, shape)

        monkeypatch.setattr(search, "lattice_walk", spy)
        layout, marked, k_values = _layout_case("random:30:1", 20, 6)
        _, _, chains = _table(layout, marked, self.T_WALK, k_values)
        assert sorted(built) == sorted(chains) == [(6, 6), (6, 7), (7, 6), (7, 7)]


def test_report_is_a_view_over_its_distinct_walks(constants):
    # 4,096 blocks, of which 2,048 fully marked and 2,048 with one shared checkerboard
    rep = run_search(SearchConfig(n=512, marked=parse_marked_spec("halfchecker", 512), constants=constants))
    assert (rep.layout.n_blocks, len(rep.k_values)) == (4096, 17)
    assert len(rep.walk_success) == 3
    assert all(len(row) == 17 for row in rep.walk_success)
    assert sorted(set(rep.walk_of)) == [1, 2]
    per_k = json.loads(canonical_json(rep.to_dict()))["per_k"]
    assert len(per_k) == 17
    assert all(len(entry["blocks"]) == 4096 for entry in per_k)


def test_only_the_config_converts_the_marked_set(constants, monkeypatch):
    # SearchConfig converts the marked tuple; the estimator reads the int64
    # array the search hands on, as it is, and D(P') takes the estimator's mask
    seen = []
    real = markov.marked_mask

    def spy(dim, marked):
        seen.append((dim, len(marked), type(marked)))
        return real(dim, marked)

    for name, module in list(sys.modules.items()):
        if name.startswith("walklab") and getattr(module, "marked_mask", None) is real:
            monkeypatch.setattr(module, "marked_mask", spy)
    marked = parse_marked_spec("halfchecker", 64)  # not whole lines: the estimator walks the torus
    run_search(SearchConfig(n=64, marked=marked, constants=constants))
    assert [kind for dim, size, kind in seen if (dim, size) == (64 * 64, len(marked))] == [
        tuple, np.ndarray
    ]


# sha256 of the canonical report, first 16 hex digits: the report bytes are frozen
REPORT_DIGESTS = [
    (["search", "--n", "64", "--marked", "halfchecker", "--seed", "1"], "663ea2bcde72ad28"),
    (["search", "--n", "64", "--marked", "random:1500:7", "--seed", "1"], "695de2f3a3db8e06"),
    (["search", "--n", "96", "--marked", "random:3000:1", "--k", "sweep", "--seed", "2"], "bc8c4a0e60015cb2"),
    (["search", "--n", "8", "--marked", "rows:0", "--seed", "7", "--sample"], "53c3e247a3c3f493"),
    # the ledger steps of six sides, with the table written alongside
    (["sweep", "--family", "row", "--sizes", "4,5,8,13,16,32", "--out", "{table}"], "a21c1e5f2b6adeb6"),
    # c08 and c09, which read the searches' config and layout; c09's eht is
    # read from the torus spectrum, which moved it by at most 4.9e-15 relative
    (["verify", "search"], "783788d0acb8be13"),
    # 36 blocks of four shapes, 8 x 8 to 9 x 9, so block_size and eps_G vary
    (["search", "--n", "50", "--marked", "halfchecker", "--seed", "3"], "4f38adc34eed0cc5"),
    # c01-c04, which read the D(P') of general chains
    (["verify", "theorems"], "79e21fed175b0f4c"),
]


@pytest.mark.parametrize("argv,digest", REPORT_DIGESTS)
def test_report_bytes_are_frozen(argv, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the default --constants is calibration.cfg in the working directory
    out = tmp_path / "report.json"
    argv = [arg.format(table=tmp_path / "table.csv") for arg in argv]
    assert main([*argv, "--report" if argv[0] == "sweep" else "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


# single, sweep and sample runs: halfchecker on one block shape (16) and on four
# (28, 50), rows:0 on the thin lattice, random sets, clusters, and verify search
SPLICE_CASES = [
    ["search", "--n", "16", "--marked", "halfchecker", "--seed", "1"],
    ["search", "--n", "28", "--marked", "halfchecker", "--k", "sweep"],
    ["search", "--n", "50", "--marked", "halfchecker", "--sample", "--seed", "2"],
    ["search", "--n", "12", "--marked", "rows:0", "--sample", "--seed", "4"],
    ["search", "--n", "24", "--marked", "rows:0", "--k", "sweep"],
    ["search", "--n", "20", "--marked", "random:80:3", "--k", "3"],
    ["search", "--n", "48", "--marked", "random:576:3", "--k", "sweep"],
    ["search", "--n", "16", "--marked", "clusters", "--k", "sweep"],
    ["search", "--n", "32", "--marked", "clusters", "--sample", "--seed", "6"],
    ["verify", "search"],
]


@pytest.mark.parametrize("argv", SPLICE_CASES, ids=" ".join)
def test_spliced_block_records_equal_the_dict_route(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main([*argv, "--out", str(tmp_path / "spliced.json")]) == 0
    monkeypatch.setattr(search.SearchReport, "to_dict", search_report_dicts)
    assert main([*argv, "--out", str(tmp_path / "dicts.json")]) == 0
    assert (tmp_path / "spliced.json").read_bytes() == (tmp_path / "dicts.json").read_bytes()


class TestKSweep:
    def test_frozen(self, constants):
        rep = run_k_sweep(SearchConfig(n=8, marked=parse_marked_spec("rows:0", 8), constants=constants, seed=7))
        assert rep.mode == "sweep"
        assert rep.chosen_k is None
        assert rep.to_dict()["sweep_success"] == pytest.approx(0.9330596937541298, rel=1e-12)
        assert rep.steps == rep.estimator.steps + len(rep.k_values) * rep.T_walk

    def test_sweep_dominates_best(self, constants):
        rep = run_k_sweep(SearchConfig(n=8, marked=parse_marked_spec("cells:(0,0)", 8), constants=constants))
        sweep_success = rep.to_dict()["sweep_success"]
        assert sweep_success >= rep.best_success - 1e-12
        prod = 1.0
        for s in rep.per_k_success:
            prod *= 1.0 - s
        assert sweep_success == pytest.approx(1.0 - prod, abs=1e-12)


class TestCostBound:
    def test_trivial_instance_hits_scale_guard(self, constants):
        rep = run_search(SearchConfig(n=16, marked=parse_marked_spec("halfchecker", 16), constants=constants))
        out = verify_cost_bound(rep, h_eff=1.0, constants=constants)
        assert out["scale"] == 1.0
        assert out["bound"] == constants.c_bound

    def test_branch_labels(self, constants):
        rep = run_search(SearchConfig(n=8, marked=parse_marked_spec("cells:(0,0)", 8), constants=constants))
        small = verify_cost_bound(rep, h_eff=4.0, constants=constants)
        assert small["branch"] == "H"
        huge = verify_cost_bound(rep, h_eff=1e9, constants=constants)
        assert huge["branch"] == "N"
        assert huge["scale"] == pytest.approx(math.sqrt(64 * math.log(64)), rel=1e-12)

    def test_ratio_consistency(self, constants):
        rep = run_search(SearchConfig(n=8, marked=parse_marked_spec("rows:0", 8), constants=constants))
        out = verify_cost_bound(rep, h_eff=10.0, constants=constants)
        assert out["ratio"] == pytest.approx(out["steps"] / out["bound"], rel=1e-15)


class TestReportSerialization:
    def test_to_dict_round_trips_through_json(self, constants):
        rep = run_search(SearchConfig(n=4, marked=parse_marked_spec("cells:(0,0)", 4), constants=constants))
        back = json.loads(canonical_json(rep.to_dict()))
        assert back["best_k"] == rep.best_k
        assert back["layout"]["n_blocks"] == rep.layout.n_blocks
        assert back["constants_hash"] == constants.digest


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), eps_den=st.integers(2, 8))
def test_spec_round_trip(n, eps_den):
    m = max(1, (n * n) // eps_den)
    spec = f"random:{m}:{n}"
    ids = parse_marked_spec(spec, n)
    assert ids == tuple(sorted(set(ids)))
    assert 0 < len(ids) < n * n


@settings(max_examples=25, deadline=None)
@given(N=st.integers(3, 4096))
def test_k_range_brackets_every_fraction(N):
    ks = valid_k_values(N)
    assert all(1 <= 2 ** k < N for k in ks)
    assert 2 ** (ks[-1] + 1) >= N


# the line sets of the thin-lattice route, as local ids of an h x w lattice
LINE_SETS = {
    "rows:0": lambda h, w: [(0, c) for c in range(w)],
    "cols:0": lambda h, w: [(r, 0) for r in range(h)],
    "rows:0,2": lambda h, w: [(r, c) for r in (0, 2) for c in range(w)],
    "cols:1,w/2": lambda h, w: [(r, c) for c in (1, w // 2) for r in range(h)],
    "half": lambda h, w: [(r, c) for c in range(w // 2) for r in range(h)],
}


def _line_set(name, h, w):
    return tuple(sorted({r * w + c for r, c in LINE_SETS[name](h, w)}))


@functools.lru_cache(maxsize=None)
def _torus_chain(n):
    return lattice_walk("torus", (n, n))


class TestLineLumping:
    """The thin-lattice walks against the full-chain walks they replace."""

    @pytest.mark.parametrize("shape", [(4, 4), (5, 5), (8, 8), (13, 13), (21, 21), (32, 32), (40, 40),
                                       (7, 6), (6, 7), (20, 13)])
    @pytest.mark.parametrize("name", sorted(LINE_SETS))
    def test_finding_matches_the_full_block(self, shape, name):
        h, w = shape
        marked = _line_set(name, h, w)
        P = lattice_walk("grid", (h, w))
        lattice, lines = search._walked_lattice(shape, marked)
        assert lattice == ((h if name.startswith("rows") else w), 1)
        chain = lattice_walk("grid", lattice)
        pi, full_pi = np.full(chain.dim, 1.0 / chain.dim), np.full(P.dim, 1.0 / P.dim)
        T = 2 * max(h, w) + 5
        eps = [0.5 ** k for k in (1, 3, 6)]
        lumped = find_via_interpolation(chain, lines, eps, T, pi=pi)
        full = find_via_interpolation(P, marked, eps, T, pi=full_pi)
        np.testing.assert_allclose(lumped, full, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [*range(4, 41), 48, 64])
    @pytest.mark.parametrize("spec", ["rows:0", "cols:0", "rows:0,2", "cols:1,n/2", "half"])
    def test_estimator_matches_the_full_torus(self, n, spec):
        marked = parse_marked_spec(spec.replace("n/2", str(n // 2)), n)
        P = _torus_chain(n)
        budget = math.isqrt(h_unique(n) - 1) + 1
        lattice, lines = search._walked_lattice((n, n), marked)
        assert lattice == (n, 1)
        chain = lattice_walk("torus", lattice)
        lumped = estimate_effective_ht(chain, lines, pi=np.full(n, 1.0 / n), budget=budget)
        full = estimate_effective_ht(P, marked, pi=np.full(P.dim, 1.0 / P.dim), budget=budget)
        assert (lumped.h_tilde, lumped.probes) == (full.h_tilde, full.probes)

    @pytest.mark.parametrize("shape,marked,expected", [
        ((3, 4), (0, 1, 2, 3), ((3, 1), (0,))),
        ((3, 4), (1, 5, 9), ((4, 1), (1,))),
        ((3, 4), (0, 1, 2, 4), ((3, 4), (0, 1, 2, 4))),
        ((3, 4), (0,), ((3, 4), (0,))),
        ((3, 4), (0, 1, 2, 3, 8, 9, 10, 11), ((3, 1), (0, 2))),
        ((3, 4), (1, 3, 5, 7, 9, 11), ((4, 1), (1, 3))),
        ((5, 1), (1, 4), ((5, 1), (1, 4))),
    ])
    def test_walked_lattice(self, shape, marked, expected):
        lattice, states = search._walked_lattice(shape, marked)
        assert (lattice, states) == expected
        assert all(type(v) is int for v in states)

    @pytest.mark.parametrize("spec,lumped", [("rows:0", True), ("half", True),
                                             ("halfchecker", False), ("random:30:1", False)])
    def test_walked_chain_sizes(self, monkeypatch, tmp_path, constants_file, spec, lumped):
        dims = {"find": [], "estimate": [], "built": []}
        estimates = []
        for name, key in (("find_via_interpolation", "find"), ("estimate_effective_ht", "estimate")):
            real = getattr(search, name)

            def spy(P, *args, real=real, key=key, **kwargs):
                dims[key].append(P.dim)
                if key == "find":
                    estimates.append(len(args[1]))
                return real(P, *args, **kwargs)

            monkeypatch.setattr(search, name, spy)
        real_build = markov.lattice_walk

        def build_spy(kind, shape):
            dims["built"].append(shape[0] * shape[1])
            return real_build(kind, shape)

        for name, module in list(sys.modules.items()):
            if name.startswith("walklab") and getattr(module, "lattice_walk", None) is real_build:
                monkeypatch.setattr(module, "lattice_walk", build_spy)
        out = tmp_path / "search.json"
        assert main(["search", "--n", "64", "--marked", spec, "--constants", str(constants_file),
                     "--out", str(out)]) == 0
        assert dims["find"] and dims["estimate"] and dims["built"]
        # each distinct walk is walked once, with all of k
        assert set(estimates) == {len(json.loads(out.read_text())["results"]["k_values"])}
        if lumped:
            # no chain of more than 64 states is built, let alone walked
            assert max(dims["find"] + dims["estimate"] + dims["built"]) <= 64
        else:
            assert dims["estimate"] == [64 * 64]
            assert 64 * 64 in dims["built"]
            blocks = json.loads(out.read_text())["results"]["per_k"][0]["blocks"]
            walked = {b["block_size"] for b in blocks if 0 < b["marked_in_block"] < b["block_size"]}
            assert set(dims["find"]) == walked
