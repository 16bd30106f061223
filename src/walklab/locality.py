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

Moves are drawn as raw bytes (_moves): the generator's raw 64-bit
outputs, little-endian, 8 steps to a word.  numpy's bounded int8 draw
in [0, 2**b) reads the same bytes in the same order (PCG64 hands out a
64-bit output as its low, then its high 32-bit half) and, the range
being a power of two, keeps each byte's top b bits without rejecting
any; so the byte's top bit is the line move, its top two bits the grid
move, and _moves leaves the generator in the state that draw leaves.

Most walks are settled at block starts (_certify): a block of 8 steps
moves each axis by at most 8, so a walk whose position at every block
start is within ceil(4 sqrt(T)) - 8 on every axis is localized.  Those
positions, and the exact final one, are running sums of the blocks'
net moves, counted from each block's packed move bits, one loop step
per block for all of a chunk's walks.  Only the walks without a
certificate go through the walker (_walk8): at T = 400, about 3 in
10,000 on the line and none of 2,000,000 sampled on the grid.  The
walker reads 8 steps at a time: each walk's bytes are packed into one
index per block of 8 steps (bit 7 of each step, and on the grid bit 6
too), and one table lookup per walk and block returns the block's net
move and its prefix maximum and minimum on every axis, packed as int8
in one 4- or 8-byte record.  The loop over the ceil(T/8) blocks
advances every walk it holds at once while it keeps the running
per-axis maximum and minimum; no cumulative path array is built.  Each
loop step costs a fixed Python overhead, so consecutive chunks are
grouped until a group holds GROUP_WALKS walks, and the walker runs
once per group, on the group's uncertified walks.  The tables are
built on first use, once per process.  Up to T = 17, T <= ceil(4
sqrt(T)): no walk can leave the box, so every walk is localized
without walking the axes (the sub-grid experiment still walks the
torus, one step at a time, for its visits).

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
    """(size, T) uint8 step bytes, drawn row-major from rng, a PCG64 generator.

    The top b bits of each byte equal rng.integers(0, 2**b, (size, T),
    int8) for b = 1 and 2, and rng is left in the same state: that draw
    splits each next_uint32 word into bytes, low byte first, and maps a
    byte to its top b bits without rejection when the range is a power
    of two.  PCG64's next_uint32 returns a half-word the generator holds,
    if any, and otherwise the low half of a new 64-bit output, holding
    its high half; so the words are the held half-word, then the raw
    64-bit outputs, little-endian, and an odd half-word left at the end
    is held again.  A step moves by those bits: on the line bit 7 is 1
    (right) or 0 (left); on the grid bits 7-6 are 0 or 1 (row +1 or -1),
    2 or 3 (column +1 or -1).
    """
    words = -(-size * T // 4)
    bitgen = rng.bit_generator
    state = bitgen.state
    held = min(state["has_uint32"], words)
    raw = bitgen.random_raw((words - held + 1) // 2)
    data = raw.astype("<u8", copy=False).view(np.uint8)
    if held:
        data = np.concatenate([np.array([state["uinteger"]], "<u4").view(np.uint8), data])
    if held or len(raw):
        # next_uint32 keeps the high half of the last output it drew, flagged while unread
        state = bitgen.state
        state["has_uint32"] = (words - held) % 2
        if len(raw):
            state["uinteger"] = int(raw[-1] >> 32)
        bitgen.state = state
    return data[:size * T].reshape(size, T)


def _packed(moves: np.ndarray, bit: int) -> np.ndarray:
    """Per block of 8 steps (row) and walk (column), one bit of the block's step bytes, packed.

    Bit j is that bit of step j's byte; a last block of T % 8 steps has
    zero bits past them.  The masked bytes pass through one 256 KiB
    buffer, a slab of walks at a time: a temporary the size of moves
    would be fresh pages, each a page fault.
    """
    walks, T = moves.shape
    rows = max(1, 2**18 // max(T, 1))
    buf = np.empty((min(rows, walks), T), np.uint8)
    out = np.empty((-(-T // 8), walks), np.uint8)
    for lo in range(0, walks, rows):
        slab = moves[lo:lo + rows]
        part = np.bitwise_and(slab, bit, out=buf[:len(slab)])
        out[:, lo:lo + len(slab)] = np.packbits(part, axis=1, bitorder="little").T
    return out


def _block_index(moves: np.ndarray, dims: int) -> np.ndarray:
    """Per walk (row) and block of 8 steps, the block's move bits as one index.

    Bit j of the index is bit 7 of step j's byte, the line's direction or
    the grid's axis; on the grid, bit 8 + j is its bit 6, the sign.
    """
    axis = _packed(moves, 0x80).T
    if dims == 1:
        return np.ascontiguousarray(axis)
    index = _packed(moves, 0x40).T.astype(np.uint16, order="C")
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


def _certify(moves: np.ndarray, T: int, k: int, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Per walk (row of moves): its final distance on the farthest axis, and a certificate that it stays within k.

    A block of 8 steps moves each axis by at most 8, so a walk whose
    position at every block start is within k - 8 on every axis never
    leaves [-k, k]; a walk without the certificate may still stay.  The
    positions are running sums of the blocks' net moves, one loop step
    per block for all walks, and each net counts set bits in the block's
    packed move bits (_packed).  A block of n steps with c right moves
    nets 2c - n on the line; on the grid, with a column moves, m of them
    -1, and s -1 moves in all, it nets a - 2m on the column and
    n - a - 2 (s - m) on the row.  n is 8 but in the last block,
    T - 8 (blocks - 1): its bits past T are zero and count no move.
    Positions are int16 below 2**15 steps, as in _walk8.
    """
    blocks = -(-T // 8)
    dtype = np.int16 if T < 2**15 else np.int32
    steps = np.full((blocks, 1), 8, dtype)
    steps[-1] = T - 8 * (blocks - 1)

    def count(bits: np.ndarray) -> np.ndarray:
        return np.bitwise_count(bits).astype(dtype)

    # in place: a temporary per operation would raise the peak resident memory
    axis = _packed(moves, 0x80)
    if dims == 1:
        net = count(axis)  # c
        net += net
        net -= steps  # 2c - n
        nets = [net]
    else:
        sign = _packed(moves, 0x40)
        col, minus = count(axis), count(axis & sign)  # a, m
        row = count(sign)  # s
        row -= minus
        row += row
        row += col
        np.subtract(steps, row, out=row)  # n - a - 2 (s - m)
        col -= minus
        col -= minus  # a - 2m
        nets = [row, col]
    final = np.zeros(len(moves), dtype)
    certified = np.ones(len(moves), bool)
    for pos in nets:
        for j in range(1, blocks):
            pos[j] += pos[j - 1]
        np.abs(pos, out=pos)
        certified &= pos[:-1].max(axis=0, initial=0) <= k - 8
        np.maximum(final, pos[-1], out=final)
    return final, certified


def _localized(moves: Iterable[np.ndarray], T: int, k: int, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, in order over the arrays of moves: its final distance, and whether it stays within k.

    Walks certified by _certify need no walking; the rest, from every
    array, go through one _walk8 call, and none if there are none.
    """
    finals, certified, rest = [], [], []
    for chunk in moves:
        final, ok = _certify(chunk, T, k, dims)
        finals.append(final)
        certified.append(ok)
        rest.append(chunk[~ok])
    localized = np.concatenate(certified)
    rest = np.concatenate(rest)
    if len(rest):
        localized[~localized] = _distances(_walk8(_block_index(rest, dims), T, dims))[1] <= k
    return np.concatenate(finals), localized


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
        final, localized = _localized((_moves(rng, size, T) for rng, size in chunks), T, k, dims)
        return int(localized.sum()), int((final > k).sum())

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
        localized = T <= k or _localized([moves], T, k, 2)[1]
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
