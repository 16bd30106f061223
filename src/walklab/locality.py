"""The locality experiments: Monte Carlo simple random walks on lattices.

A T-step simple random walk rarely strays: per axis it stays within
ceil(4 sqrt(T)) of its start except with probability about 4 exp(-8)
(< 1/745) on the line, twice that on the grid.  This module samples
lattice walks (on the infinite line, the infinite grid and the torus;
walks on arbitrary matrices are not sampled), measures localized
fractions with one-sided 99% Wilson lower bounds, and runs the sub-grid
coverage experiment: how often a walk that visits a marked vertex
certifies that a stationary-sampled sub-grid of the matching partition
contains one.

Moves are drawn as raw bytes (_moves): one 32-bit word per 4 steps,
split low byte first.  numpy's bounded int8 draw in [0, 2**b) reads the
same bytes in the same order and, the range being a power of two, keeps
each byte's top b bits without rejecting any; so the byte's top bit is
the line move, its top two bits the grid move, and the generator ends
in the same state.  The walker reads 8 steps at a time: each walk's
bytes are packed into one index per block of 8 steps (bit 7 of each
step, and on the grid bit 6 too), and one table lookup per walk and
block returns the block's net move and its prefix maximum and minimum
on every axis, packed as int8 in one 4- or 8-byte record.  The loop over
the ceil(T/8) blocks advances every walk of a group at once while it
keeps the running per-axis maximum and minimum; no cumulative path
array is built.  Each loop step costs a fixed Python overhead, so
consecutive chunks are grouped until a group holds GROUP_WALKS walks;
the Python-level step count is about ceil(T/8) times the number of
groups.  The tables are built on first use, once per process.  Up to
T = 17, T <= ceil(4 sqrt(T)): no walk can leave the box, so every walk
is localized without walking the axes (the sub-grid experiment still
walks the torus, one step at a time, for its visits).

Trials are split into a fixed number of chunks with seeds spawned from
one SeedSequence, so results are independent of the grouping and of the
worker count; set WALKLAB_WORKERS to a positive integer to parallelize
group execution.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .graphs import build_torus, partition_torus

__all__ = [
    "LocalityReport",
    "SubgridCoverage",
    "displacement_threshold",
    "line_localization",
    "grid_localization",
    "subgrid_coverage",
    "wilson_lower",
]

Z99 = statistics.NormalDist().inv_cdf(0.99)
N_CHUNKS = 64
GROUP_WALKS = 8192
LINE_BOUND = 1.0 - 1.0 / 745.0
GRID_BOUND = 1.0 - 2.0 / 745.0


def displacement_threshold(T: int) -> int:
    """Per-axis localization radius ceil(4 sqrt(T))."""
    if T < 0:
        raise ValueError("step count must be non-negative")
    return math.ceil(4.0 * math.sqrt(T))


def wilson_lower(successes: int, trials: int) -> float:
    """One-sided 99% Wilson score lower confidence bound for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + Z99 * Z99 / trials
    center = p + Z99 * Z99 / (2.0 * trials)
    rad = Z99 * math.sqrt(p * (1.0 - p) / trials + Z99 * Z99 / (4.0 * trials * trials))
    return max(0.0, (center - rad) / denom)


@dataclass(frozen=True)
class LocalityReport:
    """Localized fraction of sampled walks with its Wilson lower bound."""

    kind: str
    T: int
    trials: int
    threshold: int
    localized_fraction: float
    wilson_low: float
    end_tail_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.localized_fraction <= 1.0):
            raise ValueError("fraction out of [0, 1]")
        if self.wilson_low > self.localized_fraction + 1e-12:
            raise ValueError("Wilson lower bound exceeds the point estimate")

    def to_dict(self) -> dict:
        return asdict(self)


def _chunk_sizes(trials: int) -> list[int]:
    base, extra = divmod(trials, N_CHUNKS)
    return [base + (1 if i < extra else 0) for i in range(N_CHUNKS)]


def _run_chunks(worker, trials: int, seed: int):
    """Run worker(chunks) over groups of (rng, size) chunks; order-independent integer sums.

    Consecutive non-empty chunks are grouped until a group holds GROUP_WALKS
    walks, so each step of the walker's Python loop advances that many walks.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    workers = os.environ.get("WALKLAB_WORKERS", "1")
    if not workers.strip().isdecimal() or int(workers) < 1:
        raise ValueError(f"WALKLAB_WORKERS must be a positive integer, got {workers!r}")
    children = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    groups, group, width = [], [], 0
    for ss, size in zip(children, _chunk_sizes(trials)):
        if size == 0:
            continue
        group.append((np.random.default_rng(ss), size))
        width += size
        if width >= GROUP_WALKS:
            groups.append(group)
            group, width = [], 0
    if group:
        groups.append(group)
    if int(workers) > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            results = list(pool.map(worker, groups))
    else:
        results = [worker(group) for group in groups]
    return [sum(col) for col in zip(*results)]


def _moves(rng: np.random.Generator, size: int, T: int) -> np.ndarray:
    """(size, T) uint8 step bytes, drawn row-major from rng.

    The top b bits of each byte equal rng.integers(0, 2**b, (size, T),
    int8) for b = 1 and 2, and rng is left in the same state: that draw
    splits each next_uint32 word into bytes, low byte first, and maps a
    byte to its top b bits without rejection when the range is a power
    of two.  A step moves by those bits: on the line bit 7 is 1 (right)
    or 0 (left); on the grid bits 7-6 are 0 or 1 (row +1 or -1), 2 or 3
    (column +1 or -1).
    """
    words = rng.integers(0, 2**32, size=-(-size * T // 4), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:size * T].reshape(size, T)


def _block_index(moves: np.ndarray, dims: int) -> np.ndarray:
    """Per walk (row) and block of 8 steps, the block's move bits as one index.

    Bit j of the index is bit 7 of step j's byte, the line's direction or
    the grid's axis; on the grid, bit 8 + j is its bit 6, the sign.  A
    last block of T % 8 steps has zero bits past them.
    """
    axis = np.packbits(moves & 0x80, axis=1, bitorder="little")
    if dims == 1:
        return axis
    index = np.packbits(moves & 0x40, axis=1, bitorder="little").astype(np.uint16)
    index <<= 8
    index |= axis
    return index


@functools.cache
def _records(dims: int, steps: int) -> np.ndarray:
    """Packed int8 (net, maximum, minimum) per axis of the first `steps` steps, for every block index.

    Records are 4 bytes on the line and 8 bytes on the grid (two unused),
    so one np.take of a uint32 or uint64 reads a whole record.
    """
    index = np.arange(256**dims, dtype=np.uint16)
    rec = np.zeros((index.size, 4 * dims), np.int8)
    for j in range(steps):
        bit = ((index >> j) & 1).astype(np.int8)
        if dims == 1:
            moves = [2 * bit - 1]
        else:
            sign = 1 - 2 * ((index >> (8 + j)) & 1).astype(np.int8)
            moves = [sign * (1 - bit), sign * bit]
        for axis, move in enumerate(moves):
            net, hi, lo = rec[:, 3 * axis], rec[:, 3 * axis + 1], rec[:, 3 * axis + 2]
            net += move
            np.maximum(hi, net, out=hi)
            np.minimum(lo, net, out=lo)
    table = rec.view(np.uint32 if dims == 1 else np.uint64).ravel()
    table.flags.writeable = False  # one copy serves every caller
    return table


def _walk8(index: np.ndarray, T: int, dims: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Final position, running maximum and running minimum on each axis of T-step walks started at 0.

    index is _block_index of the walks' moves, one row per walk.  The loop
    runs over the ceil(T/8) blocks and reads one packed record per walk
    and block; the last block's table covers only its T - 8 (blocks - 1)
    steps.  |position| <= T, so int16 holds every position below 2**15 steps.
    """
    width, blocks = index.shape
    dtype = np.int16 if T < 2**15 else np.int32
    state = [tuple(np.zeros(width, dtype) for _ in range(3)) for _ in range(dims)]
    full, last = _records(dims, 8), _records(dims, T - 8 * (blocks - 1))
    bound = np.empty(width, dtype)
    for j, idx in enumerate(np.ascontiguousarray(index.T)):
        rec = np.take(full if j < blocks - 1 else last, idx).view(np.int8).reshape(width, 4 * dims)
        for axis, (pos, hi, lo) in enumerate(state):
            np.add(pos, rec[:, 3 * axis + 1], out=bound)
            np.maximum(hi, bound, out=hi)
            np.add(pos, rec[:, 3 * axis + 2], out=bound)
            np.minimum(lo, bound, out=lo)
            pos += rec[:, 3 * axis]
    return state


def _distances(walk) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, the distance from the start on the farthest axis: at the end, and the largest at any step."""
    final = np.maximum.reduce([np.abs(pos) for pos, _, _ in walk])
    reach = np.maximum.reduce([np.maximum(hi, -lo) for _, hi, lo in walk])
    return final, reach


def _visited_codes(v: np.ndarray, moves: np.ndarray, neighbour: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Bitwise OR of code over the vertices each torus walk visits, its start v included.

    moves holds each walk's step bytes (one row per walk), read step-major;
    neighbour[4 * u + d] is the neighbour of vertex u in grid direction d,
    a step byte >> 6.  v is advanced in place.
    """
    seen = code[v]
    idx = np.empty_like(v)
    for step in np.ascontiguousarray(moves.T >> 6):
        np.multiply(v, 4, out=idx)
        idx += step
        np.take(neighbour, idx, out=v)
        seen |= code[v]
    return seen


def _localization(kind: str, dims: int, T: int, trials: int, seed: int) -> LocalityReport:
    k = displacement_threshold(T)

    def worker(chunks):
        if T <= k:  # no walk can leave [-k, k]
            return sum(size for _, size in chunks), 0
        index = np.concatenate([_block_index(_moves(rng, size, T), dims) for rng, size in chunks])
        final, reach = _distances(_walk8(index, T, dims))
        return int((reach <= k).sum()), int((final > k).sum())

    localized, end_tail = _run_chunks(worker, trials, seed)
    return LocalityReport(
        kind=kind,
        T=T,
        trials=trials,
        threshold=k,
        localized_fraction=localized / trials,
        wilson_low=wilson_lower(localized, trials),
        end_tail_fraction=end_tail / trials,
        seed=seed,
    )


def line_localization(T: int, trials: int, seed: int) -> LocalityReport:
    """Fraction of infinite-line walks staying within ceil(4 sqrt(T)) of the start."""
    return _localization("line", 1, T, trials, seed)


def grid_localization(T: int, trials: int, seed: int) -> LocalityReport:
    """As line_localization on the infinite grid; both axes must stay within range."""
    return _localization("grid", 2, T, trials, seed)


@dataclass(frozen=True)
class SubgridCoverage:
    """Measured walk-hits-marked probabilities against the exact sub-grid mass.

    p_hat: walk of T steps visits a marked vertex (start included).
    p_ml: the walk is localized and visits a marked vertex.
    p_Gl: the walk is localized and visits a vertex of a marked sub-grid.
    p_G: exact stationary mass of marked sub-grids in the layout.
    Per trial, the p_ml event implies the p_Gl event, so p_ml <= p_Gl
    holds exactly on shared samples, not just in expectation.
    """

    n: int
    T: int
    trials: int
    seed: int
    threshold: int
    d: int
    n_blocks: int
    marked_blocks: int
    p_hat: float
    p_ml: float
    p_Gl: float
    p_G: float
    sigma: float

    def to_dict(self) -> dict:
        return asdict(self)


def subgrid_coverage(
    n: int,
    marked: Iterable[int],
    T: int,
    trials: int,
    seed: int,
) -> SubgridCoverage:
    """Torus walk experiment behind the marked-sub-grid mass bound.

    Samples T-step torus walks from uniform (= stationary) starts,
    estimates the visit probabilities, and computes exactly the
    stationary mass p_G of sub-grids containing a marked vertex under
    the partition with parameter d = 2 * ceil(4 sqrt(T)) (clamped to n).
    """
    marked_idx = np.unique(np.fromiter(marked, dtype=np.int64))
    N = n * n
    if marked_idx.size == 0 or marked_idx.min() < 0 or marked_idx.max() >= N:
        raise ValueError("marked set must be nonempty vertex indices on the torus")
    k = displacement_threshold(T)
    d = min(2 * k if T > 0 else 1, n)
    layout = partition_torus(n, d)
    marked_vertex = np.zeros(N, dtype=bool)
    marked_vertex[marked_idx] = True
    block_of = layout.block_of()
    marked_block_mask = np.zeros(layout.n_blocks, dtype=bool)
    np.logical_or.at(marked_block_mask, block_of[marked_idx], True)
    vertex_in_marked_block = marked_block_mask[block_of]
    p_G = float(layout.weights()[marked_block_mask].sum())

    # neighbour[4 * v + d]: the vertex the grid move d (a step byte >> 6) takes v to;
    # the moves d = 0..3 (row + 1, row - 1, col + 1, col - 1) are the torus
    # edges 1, 0, 3, 2 of each vertex
    neighbour = build_torus(n).dst.reshape(N, 4)[:, [1, 0, 3, 2]].ravel()
    # bit 1: a marked vertex; bit 2: a vertex of a marked sub-grid
    code = marked_vertex.astype(np.uint8) | (vertex_in_marked_block.astype(np.uint8) << 1)

    def worker(chunks):
        starts, moves = [], []
        for rng, size in chunks:
            r0 = rng.integers(0, n, size=size, dtype=np.int32)
            c0 = rng.integers(0, n, size=size, dtype=np.int32)
            starts.append(r0.astype(np.intp) * n + c0)
            moves.append(_moves(rng, size, T))
        moves = np.concatenate(moves)
        seen = _visited_codes(np.concatenate(starts), moves, neighbour, code)
        localized = T <= k or _distances(_walk8(_block_index(moves, 2), T, 2))[1] <= k
        hit_m = (seen & 1).astype(bool)
        hit_g = (seen & 2).astype(bool)
        return (
            int(hit_m.sum()),
            int((hit_m & localized).sum()),
            int((hit_g & localized).sum()),
        )

    hits, hits_loc, hits_block_loc = _run_chunks(worker, trials, seed)
    p_hat = hits / trials
    return SubgridCoverage(
        n=n,
        T=T,
        trials=trials,
        seed=seed,
        threshold=k,
        d=layout.d,
        n_blocks=layout.n_blocks,
        marked_blocks=int(marked_block_mask.sum()),
        p_hat=p_hat,
        p_ml=hits_loc / trials,
        p_Gl=hits_block_loc / trials,
        p_G=p_G,
        sigma=math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / trials),
    )
