import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from walklab import locality
from walklab.graphs import partition_torus
from walklab.locality import (
    GRID_BOUND,
    LINE_BOUND,
    N_CHUNKS,
    LocalityReport,
    SubgridCoverage,
    _certify,
    _distances,
    _localized,
    _moves,
    _planes,
    _Scratch,
    _walk8,
    displacement_threshold,
    grid_localization,
    line_localization,
    subgrid_coverage,
    wilson_lower,
)
from walklab.search import parse_marked_spec

from oracles import loop_edges

TRIALS = 20_000  # unit-test scale; the acceptance suite reruns at 1e5

# every chunked experiment: chunks of ~80 trials in one group, and
# chunks of 625 trials spread over several groups
EXPERIMENTS = {
    "line": lambda: line_localization(25, 5000, seed=4),
    "grid": lambda: grid_localization(25, 5000, seed=4),
    "subgrid": lambda: subgrid_coverage(16, parse_marked_spec("rows:0", 16), T=2, trials=5000, seed=4),
    "line-groups": lambda: line_localization(2, 40_000, seed=4),
    "grid-groups": lambda: grid_localization(2, 40_000, seed=4),
    "subgrid-groups": lambda: subgrid_coverage(16, parse_marked_spec("rows:0", 16), T=2, trials=40_000, seed=4),
}


# -- row-major oracle: each chunk's walks as materialised cumulative paths --

def _oracle_counts(worker, trials, seed):
    children = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    base, extra = divmod(trials, N_CHUNKS)
    sizes = [base + (1 if i < extra else 0) for i in range(N_CHUNKS)]
    results = [worker(np.random.default_rng(ss), size) for ss, size in zip(children, sizes) if size > 0]
    return [sum(col) for col in zip(*results)]


def _oracle_grid_paths(rng, size, T):
    dirs = rng.integers(0, 4, size=(size, T), dtype=np.int8)
    dr = np.cumsum((dirs == 0).astype(np.int8) - (dirs == 1), axis=1, dtype=np.int32)
    dc = np.cumsum((dirs == 2).astype(np.int8) - (dirs == 3), axis=1, dtype=np.int32)
    return dr, dc


def _oracle_report(kind, worker, T, trials, seed):
    k = displacement_threshold(T)
    localized, end_tail = _oracle_counts(lambda rng, size: worker(rng, size, k), trials, seed)
    return LocalityReport(
        kind=kind, T=T, trials=trials, threshold=k, localized_fraction=localized / trials,
        wilson_low=wilson_lower(localized, trials), end_tail_fraction=end_tail / trials, seed=seed,
    )


def oracle_line(T, trials, seed):
    def worker(rng, size, k):
        if T == 0:
            return size, 0
        moves = rng.integers(0, 2, size=(size, T), dtype=np.int8) * 2 - 1
        pos = np.cumsum(moves, axis=1, dtype=np.int32)
        return int((np.abs(pos).max(axis=1) <= k).sum()), int((np.abs(pos[:, -1]) > k).sum())

    return _oracle_report("line", worker, T, trials, seed)


def oracle_grid(T, trials, seed):
    def worker(rng, size, k):
        if T == 0:
            return size, 0
        dr, dc = _oracle_grid_paths(rng, size, T)
        ok = (np.abs(dr).max(axis=1) <= k) & (np.abs(dc).max(axis=1) <= k)
        end_tail = ((np.abs(dr[:, -1]) > k) | (np.abs(dc[:, -1]) > k)).sum()
        return int(ok.sum()), int(end_tail)

    return _oracle_report("grid", worker, T, trials, seed)


def oracle_subgrid(n, marked, T, trials, seed):
    k = displacement_threshold(T)
    layout = partition_torus(n, min(2 * k if T > 0 else 1, n))
    marked_vertex = np.zeros(n * n, dtype=bool)
    marked_vertex[list(marked)] = True
    block_of = layout.block_of()
    marked_block_mask = np.zeros(layout.n_blocks, dtype=bool)
    marked_block_mask[block_of[marked_vertex]] = True

    def worker(rng, size):
        r0 = rng.integers(0, n, size=size, dtype=np.int32)
        c0 = rng.integers(0, n, size=size, dtype=np.int32)
        dr = np.zeros((size, T + 1), np.int32)
        dc = np.zeros((size, T + 1), np.int32)
        if T > 0:
            dr[:, 1:], dc[:, 1:] = _oracle_grid_paths(rng, size, T)
        localized = (np.abs(dr).max(axis=1) <= k) & (np.abs(dc).max(axis=1) <= k)
        verts = ((r0[:, None] + dr) % n) * n + (c0[:, None] + dc) % n
        hit_m = marked_vertex[verts].any(axis=1)
        hit_g = marked_block_mask[block_of[verts]].any(axis=1)
        return int(hit_m.sum()), int((hit_m & localized).sum()), int((hit_g & localized).sum())

    hits, hits_loc, hits_block_loc = _oracle_counts(worker, trials, seed)
    p_hat = hits / trials
    return SubgridCoverage(
        n=n, T=T, trials=trials, seed=seed, threshold=k, d=layout.d, n_blocks=layout.n_blocks,
        marked_blocks=int(marked_block_mask.sum()), p_hat=p_hat, p_ml=hits_loc / trials,
        p_Gl=hits_block_loc / trials, p_G=float(layout.weights()[marked_block_mask].sum()),
        sigma=math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / trials),
    )


# T <= 17 is where T <= ceil(4 sqrt(T)): no walk can leave the box; the
# walked T cover every residue mod 8, the walker's last-block table
ORACLE_CASES = [(T, trials, seed) for T in (0, 1, 2, 15, 16, 17, 18, 25) for trials in (1, 63, 640, 40_000)
                for seed in range(3)] + [(400, 640, 0)] + [
                (T, trials, seed) for T in (19, 20, 21, 22, 23, 24, 401, 403, 1000) for trials in (63, 640)
                for seed in range(2)]
SUBGRID_MARKED = parse_marked_spec("cells:(0,0);(5,7);(9,2)", 12)


@pytest.mark.parametrize("T, trials, seed", ORACLE_CASES)
def test_step_major_walker_matches_row_major_oracle(T, trials, seed):
    assert line_localization(T, trials, seed) == oracle_line(T, trials, seed)
    assert grid_localization(T, trials, seed) == oracle_grid(T, trials, seed)
    got = subgrid_coverage(12, SUBGRID_MARKED, T, trials, seed)
    assert got == oracle_subgrid(12, SUBGRID_MARKED, T, trials, seed)


def _slabs(rng, size, T):
    """_moves' slabs, each checked against the slab contract: whole walks, at most 2**18 bytes or 8 walks."""
    slabs = list(_moves(rng, size, T))
    for slab in slabs:
        assert slab.dtype == np.uint8 and slab.ndim == 2 and slab.shape[1] == T
        assert slab.nbytes <= max(2**18, 8 * T)
    assert sum(len(slab) for slab in slabs) == size
    return slabs


# (size, T, starts): the last five span 3 or 4 slabs, with T % 8 of 3, 3, 0, 5 and 3, and all but
# the first and last of them draw after a held half-word
DRAWS = [(1, 1, 0), (3, 5, 0), (7, 13, 1), (5, 400, 0), (10, 403, 3), (64, 19, 2),
         (2000, 403, 0), (1999, 403, 1), (4097, 200, 3), (6001, 157, 1), (20, 2**15 + 3, 1)]


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("size, T, starts", DRAWS)
def test_moves_are_the_bounded_int8_draws(b, size, T, starts):
    # size * T = 1, 15, 91, 4,030, 806,000, 805,597, ... leave part of a
    # 4-byte word unused; int32 start draws, as in the sub-grid
    # experiment, leave half a word in the generator's buffer when
    # size * starts is odd, and the slabs then straddle the 64-bit outputs
    got, want = np.random.default_rng(11), np.random.default_rng(11)
    for rng in (got, want):
        for _ in range(starts):
            rng.integers(0, 12, size=size, dtype=np.int32)
    assert got.bit_generator.state == want.bit_generator.state
    moves = _slabs(got, size, T)
    assert len(moves) >= (3 if size * T > 2**19 else 1)
    assert np.array_equal(np.concatenate(moves) >> (8 - b), want.integers(0, 2**b, size=(size, T), dtype=np.int8))
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**40, size=3).tolist() == want.integers(0, 2**40, size=3).tolist()


def _walker_calls(monkeypatch):
    """Every index the walker is handed, one (walks, blocks) array per call."""
    calls = []
    real = locality._walk8

    def spy(index, T, dims):
        calls.append(index)
        return real(index, T, dims)

    monkeypatch.setattr(locality, "_walk8", spy)
    return calls


def _cumsum_paths(moves, dims):
    """Per axis, the (walks, T + 1) positions of walks with these step bytes (row-major), the start included."""
    top = moves >> (8 - dims)
    signs = ((1, 0),) if dims == 1 else ((0, 1), (2, 3))  # the moves' values for +1 and -1 on each axis
    return [np.pad(np.cumsum((top == up).astype(np.int32) - (top == down), axis=1), ((0, 0), (1, 0)))
            for up, down in signs]


def _block_start_certified(paths, k):
    """Per walk: every position at a block start (step 0, 8, 16, ... < T) within k - 8 on every axis."""
    T = paths[0].shape[1] - 1
    return np.logical_and.reduce([(np.abs(path[:, :T:8]) <= k - 8).all(axis=1) for path in paths])


def _path_distances(paths):
    """Per walk, as _distances: the distance on the farthest axis at the end, and the largest at any step."""
    return (np.maximum.reduce([np.abs(path[:, -1]) for path in paths]),
            np.maximum.reduce([np.abs(path).max(axis=1) for path in paths]))


def _oracle_moves(T, trials, seed, dims, n=0):
    """The step bytes of every walk of line_localization or grid_localization, from the bounded int8 draw.

    With n > 0, of subgrid_coverage on the n x n torus: each chunk draws
    its walks' row and column starts first.
    """
    def draw(rng, size):
        for _ in range(2 if n else 0):
            rng.integers(0, n, size=size, dtype=np.int32)
        return rng.integers(0, 2**dims, (size, T), np.int8).astype(np.uint8) << (8 - dims)

    children = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    sizes = [trials // N_CHUNKS + (i < trials % N_CHUNKS) for i in range(N_CHUNKS)]
    return np.concatenate([draw(np.random.default_rng(ss), size) for ss, size in zip(children, sizes)])


def _oracle_planes(moves, dims):
    """Step-major packed move bits: plane i, entry (b, w), has bit j set if walk w's step 8b + j has bit 7 - i set."""
    return np.stack([np.packbits((moves >> (7 - i)) & 1, axis=1, bitorder="little").T for i in range(dims)])


def _oracle_index(moves, dims):
    """The walker's index per block of 8 steps (row) and walk (column).

    Bit j is bit 7 of the block's step j; on the grid, bit 8 + j is its bit 6.
    """
    walks, T = moves.shape
    steps = np.zeros((walks, 8 * -(-T // 8)), np.int64)
    steps[:, :T] = moves
    steps = steps.reshape(walks, -1, 8)
    weights = 1 << np.arange(8)
    index = ((steps >> 7) & 1) @ weights
    if dims == 2:
        index |= (((steps >> 6) & 1) @ weights) << 8
    return index.T


@pytest.mark.parametrize("T, walks", [(17, False), (18, True)])
def test_localization_walk_only_where_a_walk_can_leave(T, walks, monkeypatch):
    # at T = 17 walks lack the certificate too, but none can leave the box,
    # so none is walked; at T = 18 the walker gets exactly those walks, as
    # many as the cumsum oracle counts, from the line, grid and sub-grid
    calls = _walker_calls(monkeypatch)
    k = displacement_threshold(T)
    line_localization(T, 1000, 0)
    grid_localization(T, 1000, 0)
    subgrid_coverage(12, SUBGRID_MARKED, T, 1000, 0)
    uncertified = sum(int((~_block_start_certified(_cumsum_paths(_oracle_moves(T, 1000, 0, dims, n), dims), k)).sum())
                      for dims, n in ((1, 0), (2, 0), (2, 12)))
    assert uncertified > 0
    assert bool(calls) == walks
    assert sum(index.shape[1] for index in calls) == (uncertified if walks else 0)


def test_walker_makes_one_lookup_per_eight_steps(monkeypatch):
    # 6,400 walks form one group of 64 chunks.  At the public threshold
    # (T = 18, k = 17) a walk fails the certificate only past 9 at step
    # 16; with k = 9 the slack is 1 and most walks fail it.  Either way
    # the walker is handed exactly the walks that fail, in walk order,
    # with one lookup per 8 steps: 3 for 18 steps
    calls = _walker_calls(monkeypatch)
    T = 18
    for dims, experiment in ((1, line_localization), (2, grid_localization)):
        moves = _oracle_moves(T, 6400, 0, dims)
        paths = _cumsum_paths(moves, dims)
        failed = ~_block_start_certified(paths, displacement_threshold(T))
        calls.clear()
        experiment(T, 6400, 0)
        assert [index.shape for index in calls] == [(3, failed.sum())] and 0 < failed.sum() < 640
        assert np.array_equal(calls[0], _oracle_index(moves[failed], dims))

        # seven chunks of three slabs each, on one scratch: each chunk's planes are made as _localized asks
        failed = ~_block_start_certified(paths, 9)
        calls.clear()
        scratch = _Scratch()
        planes = (_planes(np.array_split(chunk, 3), len(chunk), T, dims, scratch) for chunk in np.array_split(moves, 7))
        final, localized = _localized(planes, T, 9, scratch)
        assert failed.mean() > 0.5
        assert [index.shape for index in calls] == [(3, failed.sum())]
        assert np.array_equal(calls[0], _oracle_index(moves[failed], dims))
        want_final, want_reach = _path_distances(paths)
        assert final.tolist() == want_final.tolist()
        assert localized.tolist() == (want_reach <= 9).tolist()


def test_one_walker_call_per_job(monkeypatch):
    # 30,000 walks of 18 steps form four groups of chunks, and each group
    # leaves walks without a certificate; the walker gets all of them in
    # one index, in walk order, at any worker count
    calls = _walker_calls(monkeypatch)
    uncertified = []
    real = locality._certified

    def spy(chunks, T, k, scratch):
        final, certified, rest = real(chunks, T, k, scratch)
        uncertified.append(rest.shape[2])
        return final, certified, rest

    monkeypatch.setattr(locality, "_certified", spy)
    T, trials = 18, 30_000
    for dims, experiment in ((1, line_localization), (2, grid_localization)):
        moves = _oracle_moves(T, trials, 0, dims)
        failed = ~_block_start_certified(_cumsum_paths(moves, dims), displacement_threshold(T))
        reports = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("WALKLAB_WORKERS", workers)
            calls.clear()
            uncertified.clear()
            reports.append(experiment(T, trials, 0))
            assert len(uncertified) == 4 and min(uncertified) > 0
            assert len(calls) == 1
            assert np.array_equal(calls[0], _oracle_index(moves[failed], dims))
        assert reports[0] == reports[1] == reports[2]


def _oracle_starts(trials, seed, n):
    """The start vertex of every walk of subgrid_coverage on the n x n torus: each chunk draws rows, then columns."""
    children = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    sizes = [trials // N_CHUNKS + (i < trials % N_CHUNKS) for i in range(N_CHUNKS)]
    starts = []
    for ss, size in zip(children, sizes):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, n, size=size, dtype=np.int32)
        starts.append(rows.astype(np.int64) * n + rng.integers(0, n, size=size, dtype=np.int32))
    return np.concatenate(starts)


@pytest.mark.parametrize("n", [2, 3, 5, 12])
@pytest.mark.parametrize("T", range(20))
def test_pair_steps_match_a_step_by_step_torus_walk(n, T):
    # each step is an edge of the torus, taken one at a time: even T
    # walks in pairs only, odd T ends a block with one step, and the 2 x 2
    # torus joins each vertex to its neighbours by doubled edges
    trials, N = 640, n * n
    marked = [0, N // 2 + 1]
    k = displacement_threshold(T)
    layout = partition_torus(n, min(2 * k if T > 0 else 1, n))
    in_marked_block = np.isin(layout.block_of(), layout.block_of()[marked])
    edges = set(map(tuple, loop_edges(n, n, wrap=True)))
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]  # the grid moves d = 0..3, a step byte >> 6
    moves = _oracle_moves(T, trials, 4, 2, n) >> 6
    hits = [0, 0, 0]
    for u, steps in zip(_oracle_starts(trials, 4, n).tolist(), moves.tolist()):
        visits, dr, dc, reach = [u], 0, 0, 0
        for d in steps:
            r, c = divmod(u, n)
            w = (r + offsets[d][0]) % n * n + (c + offsets[d][1]) % n
            assert (u, w) in edges
            u = w
            dr, dc = dr + offsets[d][0], dc + offsets[d][1]
            reach = max(reach, abs(dr), abs(dc))
            visits.append(u)
        hit_m = any(v in marked for v in visits)
        localized = reach <= k
        hits[0] += hit_m
        hits[1] += hit_m and localized
        hits[2] += localized and bool(in_marked_block[visits].any())
    rep = subgrid_coverage(n, marked, T, trials, 4)
    assert [rep.p_hat, rep.p_ml, rep.p_Gl] == [h / trials for h in hits]


@pytest.mark.parametrize("residue", range(8))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_certificate_holds_and_finals_are_exact(residue, data):
    # T from 18 to 200 in each class mod 8, the last block's length; k
    # from 8 to T, or at a walk's edge: its farthest block start + 7 or + 8.
    # The walks are packed in two slabs, the first possibly empty
    T = data.draw(st.integers(2, 24).map(lambda q: 8 * q + residue).filter(lambda t: 18 <= t <= 200), label="T")
    moves = data.draw(arrays(np.uint8, st.tuples(st.integers(1, 12), st.just(T))), label="moves")
    for dims in (1, 2):
        paths = _cumsum_paths(moves, dims)
        starts = np.maximum.reduce([np.abs(path[:, :T:8]).max(axis=1) for path in paths])
        edges = sorted({int(start) + slack for start in starts for slack in (7, 8)})
        k = data.draw(st.integers(8, T) | st.sampled_from(edges).filter(lambda k: k >= 8), label=f"k, {dims} dims")
        scratch = _Scratch()
        planes = _planes(np.array_split(moves, 2), len(moves), T, dims, scratch)
        assert np.array_equal(planes, _oracle_planes(moves, dims))
        final, certified = _certify(planes, T, k, scratch)
        want_final, reach = _path_distances(paths)
        assert (reach[certified] <= k).all()
        assert certified.tolist() == _block_start_certified(paths, k).tolist()
        assert final.tolist() == want_final.tolist()


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("size, T", [(2, 0), (1, 4), (1, 8), (3, 5), (7, 13), (5, 400), (3, 401),
                                     (2000, 403), (1999, 403), (4097, 200), (20, 2**15 + 3)])
def test_moves_leave_the_state_of_the_int8_draw(size, T, held):
    # ceil(size * T / 4) words: 0, 1, 2, 4, 23, 500, 301, and over 4, 4, 4
    # and 3 slabs 201,500, 201,400, 204,850 and 163,855; a uint32 draw leaves
    # the generator holding half of a 64-bit output
    got, want = np.random.default_rng(12), np.random.default_rng(12)
    for rng in (got, want):
        rng.integers(0, 2**32, size=3 if held else 2, dtype=np.uint32)
    assert got.bit_generator.state["has_uint32"] == held
    _slabs(got, size, T)
    want.integers(0, 2, size=(size, T), dtype=np.int8)
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("experiment, bound", [(line_localization, 7813 * 400), (grid_localization, 2_800_000)])
def test_no_chunk_of_move_bytes_is_held(experiment, bound):
    # 500,000 walks of 400 steps: chunks of 7,813 walks, 3.1 MB of step
    # bytes each.  The draw hands them out in slabs of about 256 KiB, and
    # a chunk keeps only its packed move bits and its int8 nets, in scratch
    # the experiment makes; numpy reports its buffers to tracemalloc.  The
    # grid's peak is 2.46 MB: int16 nets took it to 3.24 MB
    tracemalloc.start()
    try:
        experiment(400, 500_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_import_builds_no_table():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(locality.__file__).parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import walklab.cli, walklab.locality as m; "
             "print(m._records.cache_info().currsize, m._pair_moves.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_int32_positions_past_two_to_the_fifteen_steps():
    # straight walks of 2**15 steps end one past the int16 range: row +1
    # (byte 0) and row -1 (byte 0x40) on every step
    T = 2**15
    moves = np.zeros((2, T), dtype=np.uint8)
    moves[1] = 0x40
    [(pos, hi, lo), _] = _walk8(_oracle_index(moves, 2), T, 2)
    assert pos.tolist() == [T, -T]
    assert hi.tolist() == [T, 0]
    assert lo.tolist() == [0, -T]
    assert line_localization(40_000, 3, seed=1) == oracle_line(40_000, 3, seed=1)
    assert grid_localization(40_000, 3, seed=1) == oracle_grid(40_000, 3, seed=1)


@settings(max_examples=50, deadline=None)
@given(dirs=arrays(np.int8, st.tuples(st.integers(0, 60), st.integers(1, 8)), elements=st.integers(0, 3)))
def test_walk_extremes_match_cumsum(dirs):
    # escapes are rare at the public threshold, so the extremes are checked
    # here; step-major draws, as the bounded int8 draw's values
    for draws, dims, axes in ((dirs % 2, 1, ((1, 0),)), (dirs, 2, ((0, 1), (2, 3)))):
        moves = np.ascontiguousarray(draws.T.astype(np.uint8) << (8 - dims))
        walk = _walk8(_oracle_index(moves, dims), draws.shape[0], dims)
        final = reach = np.zeros(draws.shape[1], np.int64)
        for (up, down), (pos, hi, lo) in zip(axes, walk, strict=True):
            steps = (draws == up).astype(np.int64) - (draws == down)
            path = np.vstack([np.zeros((1, draws.shape[1]), np.int64), np.cumsum(steps, axis=0)])
            assert pos.tolist() == path[-1].tolist()
            assert hi.tolist() == path.max(axis=0).tolist()
            assert lo.tolist() == path.min(axis=0).tolist()
            final = np.maximum(final, np.abs(path[-1]))
            reach = np.maximum(reach, np.abs(path).max(axis=0))
        assert [d.tolist() for d in _distances(walk)] == [final.tolist(), reach.tolist()]


class TestThreshold:
    def test_values(self):
        assert displacement_threshold(25) == 20
        assert displacement_threshold(100) == 40
        assert displacement_threshold(400) == 80
        assert displacement_threshold(1) == 4


class TestWilson:
    def test_below_point_estimate(self):
        assert wilson_lower(990, 1000) < 0.99
        assert wilson_lower(1000, 1000) < 1.0

    def test_zero_successes(self):
        assert wilson_lower(0, 100) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_trials(self):
        # same fraction, more data -> tighter bound
        assert wilson_lower(99, 100) < wilson_lower(990, 1000)


class TestLineLocalization:
    def test_tiny_T_is_fully_localized(self):
        rep = line_localization(1, 1000, seed=2)
        assert rep.threshold == 4
        assert rep.localized_fraction == 1.0

    def test_clears_localization_floor(self):
        rep = line_localization(100, TRIALS, seed=1)
        assert rep.threshold == 40
        assert rep.wilson_low >= LINE_BOUND

    def test_azuma_tail(self):
        rep = line_localization(100, TRIALS, seed=1)
        k = rep.threshold
        bound = 2.0 * math.exp(-(k * k) / (2.0 * 100))
        sigma = math.sqrt(bound * (1 - bound) / TRIALS)
        assert rep.end_tail_fraction <= bound + 3 * sigma

    def test_deterministic(self):
        assert line_localization(25, 5000, seed=9) == line_localization(25, 5000, seed=9)

    def test_worker_count_does_not_change_counts(self, monkeypatch):
        for name, experiment in EXPERIMENTS.items():
            monkeypatch.setenv("WALKLAB_WORKERS", "1")
            a = experiment()
            monkeypatch.setenv("WALKLAB_WORKERS", "3")
            b = experiment()
            assert a == b, name

    def test_threads_keep_their_own_scratch(self, monkeypatch):
        # four workers on two cores, switching often: 40,000 walks of 40
        # steps form five groups of certified chunks, and each thread packs
        # and sums its chunks in its own scratch
        marked = parse_marked_spec("rows:0", 16)
        jobs = [lambda: line_localization(40, 40_000, 4), lambda: grid_localization(40, 40_000, 4),
                lambda: subgrid_coverage(16, marked, 40, 40_000, 4)]
        monkeypatch.setenv("WALKLAB_WORKERS", "1")
        want = [job() for job in jobs]
        monkeypatch.setenv("WALKLAB_WORKERS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [job() for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("workers", ["abc", "0", "-2", "", "1.5"])
    def test_worker_count_must_be_a_positive_integer(self, monkeypatch, workers):
        monkeypatch.setenv("WALKLAB_WORKERS", workers)
        with pytest.raises(ValueError, match="WALKLAB_WORKERS must be a positive integer"):
            line_localization(25, 100, seed=4)


class TestGridLocalization:
    def test_zero_steps_fully_localized(self):
        rep = grid_localization(0, 1000, seed=5)
        assert rep.localized_fraction == 1.0

    def test_clears_localization_floor(self):
        rep = grid_localization(100, TRIALS, seed=1)
        assert rep.wilson_low >= GRID_BOUND

    def test_at_least_union_of_axes(self):
        # per-axis localization fails independently; union bound direction
        line = line_localization(100, TRIALS, seed=3)
        grid = grid_localization(100, TRIALS, seed=3)
        assert grid.localized_fraction >= 2 * line.localized_fraction - 1

    def test_frozen_paths(self):
        # grid and sub-grid walks share this sampler; a reordered draw
        # changes these displacements.  The grid counts themselves cannot
        # show it: at small T every walk stays within ceil(4 sqrt(T)).
        moves = np.concatenate(list(_moves(np.random.default_rng(5), 3, 6)))
        ends = [_walk8(_oracle_index(moves[:, :t + 1], 2), t + 1, 2) for t in range(6)]
        dr, dc = (np.stack([end[axis][0] for end in ends], axis=1) for axis in (0, 1))
        assert dr.tolist() == [[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 2], [1, 2, 2, 2, 2, 2]]
        assert dc.tolist() == [[1, 0, 1, 2, 1, 2], [0, -1, -2, -1, -2, -2], [0, 0, -1, -2, -3, -2]]


class TestSubgridCoverage:
    def test_everything_marked(self):
        rep = subgrid_coverage(8, range(64), T=2, trials=2000, seed=1)
        assert rep.p_hat == 1.0
        assert rep.p_G == 1.0

    def test_row_example_single_block(self):
        # T=16 -> d = 2*ceil(4*sqrt(16)) = 32 swallows the n=32 torus
        marked = parse_marked_spec("rows:0", 32)
        rep = subgrid_coverage(32, marked, T=16, trials=TRIALS, seed=6)
        assert rep.d == 32
        assert rep.n_blocks == 1
        assert rep.p_G == 1.0
        assert rep.p_hat >= 1.0 / 74.0
        assert rep.p_G >= rep.p_hat / 5.0 - 3.0 * rep.sigma

    def test_chain_inequalities_multiblock(self):
        marked = parse_marked_spec("rows:0", 24)
        rep = subgrid_coverage(24, marked, T=1, trials=TRIALS, seed=7)
        assert rep.n_blocks == 9
        assert 0.0 < rep.p_G < 1.0
        s3 = 3.0 * rep.sigma
        assert rep.p_hat - 2.0 / 745.0 <= rep.p_ml + s3
        assert rep.p_ml <= rep.p_Gl  # exact on shared samples
        assert rep.p_Gl <= 4.0 * rep.p_G + s3
        assert rep.p_G >= rep.p_hat / 5.0 - s3

    def test_exact_block_mass(self):
        layout = partition_torus(24, 8)
        marked = parse_marked_spec("cells:(0,0)", 24)
        rep = subgrid_coverage(24, marked, T=1, trials=500, seed=8)
        assert (rep.d, rep.n_blocks) == (layout.d, layout.n_blocks)
        assert rep.p_G == pytest.approx(float(layout.weights()[0]), abs=1e-15)

    def test_deterministic(self):
        marked = parse_marked_spec("half", 16)
        a = subgrid_coverage(16, marked, T=2, trials=3000, seed=11)
        b = subgrid_coverage(16, marked, T=2, trials=3000, seed=11)
        assert a == b

    def test_frozen_counts(self):
        # start draws, then the shared grid-path sampler; reordering changes the hits
        marked = parse_marked_spec("cells:(0,0);(5,7)", 16)
        rep = subgrid_coverage(16, marked, T=1, trials=2000, seed=5)
        assert (rep.d, rep.n_blocks, rep.marked_blocks) == (8, 4, 1)
        hits = [round(p * 2000) for p in (rep.p_hat, rep.p_ml, rep.p_Gl)]
        assert hits == [27, 27, 559]


@settings(max_examples=30, deadline=None)
@given(T=st.integers(0, 2000))
def test_threshold_grows_like_sqrt(T):
    k = displacement_threshold(T)
    assert k >= 4 * math.sqrt(T)
    assert k < 4 * math.sqrt(T) + 1


@settings(max_examples=20, deadline=None)
@given(successes=st.integers(0, 500), extra=st.integers(0, 500))
def test_wilson_is_a_lower_bound(successes, extra):
    trials = successes + extra
    if trials == 0:
        return
    low = wilson_lower(successes, trials)
    assert 0.0 <= low <= successes / trials + 1e-12
