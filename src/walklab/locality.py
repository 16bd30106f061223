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
_moves hands a chunk's bytes out in slabs of about 256 KiB, and each
slab is masked and packed into the chunk's step-major bit planes
(_planes) while it is in cache: bit 7 of each step, and on the grid bit
6 too, 8 steps to a byte.  A chunk's bytes are never held whole; its
planes are its only state between the draw and the certificate, and
they and the certificate's nets live in per-thread scratch (_Scratch)
that serves chunk after chunk, so their pages are touched once.

Most walks are settled at block starts (_certify): a block of 8 steps
moves each axis by at most 8, so a walk whose position at every block
start is within ceil(4 sqrt(T)) - 8 on every axis is localized.  Each
block's net move on each axis, in [-8, 8], is counted as int8 from its
packed move bits; the walks' positions and their largest distance at a
block start are carried block by block, one loop step per block for
all of a chunk's walks, and the last position is the exact final one.
Only the walks without a certificate go through the walker (_walk8):
at T = 400, about 3 in 10,000 on the line and none of 2,000,000
sampled on the grid.  The walker reads 8 steps at a time: its index
per walk and block of 8 steps is the walk's column of the planes (on
the grid, bit 6's plane shifted by 8 over bit 7's), and one table
lookup per walk and block returns the block's net move and its prefix
maximum and minimum on every axis, packed as int8 in one 4- or 8-byte
record.  The loop over the ceil(T/8) blocks advances every walk it
holds at once while it keeps the running per-axis maximum and minimum;
no cumulative path array is built.  Each loop step costs a fixed
Python overhead, so consecutive chunks are grouped until a group holds
GROUP_WALKS walks for the certificate, and the walker runs once per
line or grid job, on every group's uncertified walks in walk order.
The tables are built on first use, once per process.  Up to T = 17,
T <= ceil(4 sqrt(T)): no walk can leave the box, so every walk is
localized without walking the axes.  The sub-grid experiment walks the
torus for its visits at every T, reading the moves from each group's
planes two steps per gather (_visited_codes): one table lookup per
walk and pair of steps gives the vertex the pair reaches and the codes
of both vertices it visits; a block of an odd number of steps ends
with one single step.  It needs per-walk certificates, so its walker
still runs once per group.

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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .graphs import partition_torus
from .lattice import Lattice

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
    """Run worker(chunks) over groups of (rng, size) chunks; per result column, the integer sum or the joined arrays.

    Consecutive non-empty chunks are grouped until a group holds GROUP_WALKS
    walks, so each step of a per-group Python loop advances that many
    walks.  An array column, one per walk along its last axis, is joined
    along that axis in walk order.
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
    return [np.concatenate(col, axis=-1) if isinstance(col[0], np.ndarray) else sum(col) for col in zip(*results)]


def _moves(rng: np.random.Generator, size: int, T: int) -> Iterator[np.ndarray]:
    """A chunk's (size, T) uint8 step bytes, drawn row-major from rng, a PCG64 generator, in (r, T) slabs.

    A slab holds about 2**18 bytes (a multiple of 8 walks, 8 at least),
    so whatever reads it finds it in cache, and the slabs' memory is
    reused from slab to slab: a chunk's bytes drawn whole would land on
    fresh pages, each a page fault.  Joined, the slabs' top b bits equal
    rng.integers(0, 2**b, (size, T), int8) for b = 1 and 2, and once the
    last slab is yielded rng is in the state that draw leaves: that draw
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
    bitgen = rng.bit_generator
    state = bitgen.state
    # bytes drawn but not yet handed out: the held half-word, then the tail of a slab's last output
    carry = np.array([state["uinteger"]] if state["has_uint32"] else [], "<u4").view(np.uint8)
    last = None
    rows = 8 * max(1, 2**15 // max(T, 1))
    for lo in range(0, size, rows):
        count = min(rows, size - lo)
        n = count * T
        raw = bitgen.random_raw(-((len(carry) - n) // 8))
        data = raw.astype("<u8", copy=False).view(np.uint8)
        if len(carry):
            data = np.concatenate([carry, data])
        carry = data[n:].copy()
        last = raw[-1] if len(raw) else last
        if lo + count == size:
            # next_uint32 keeps the high half of the last output it drew, flagged while unread
            state = bitgen.state
            state["has_uint32"] = len(carry) // 4
            if last is not None:
                state["uinteger"] = int(last >> 32)
            bitgen.state = state
        yield data[:n].reshape(count, T)


class _Scratch(threading.local):
    """Arrays that serve chunk after chunk of one experiment, one set per thread.

    A chunk's planes and nets allocated afresh would land on fresh pages,
    each a page fault: the allocator hands arrays that large back to the
    system when they are freed.  An experiment makes one and passes it
    down; each thread that uses it sees its own arrays.
    """

    def array(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized array in `slot`, valid until the slot's next request, which reuses its memory if it fits."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self.__dict__.get(slot)
        if buf is None or buf.size < nbytes:
            buf = self.__dict__[slot] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def _planes(slabs: Iterable[np.ndarray], size: int, T: int, dims: int, scratch: _Scratch) -> np.ndarray:
    """A chunk's move bits, packed step-major from its slabs of step bytes: bit 7, and on the grid bit 6.

    Each plane is (ceil(T/8), size): per block of 8 steps (row) and walk
    (column), bit j is that bit of step j's byte; a last block of T % 8
    steps has zero bits past them.  Each slab is masked and packed while
    it is in cache.  The planes are scratch, valid until the next call on
    this thread with the same scratch.
    """
    blocks = -(-T // 8)
    planes = scratch.array("planes", (dims, blocks, size), np.uint8)
    lo = 0
    for slab in slabs:
        # each walk's masked bytes, padded with zeros to whole blocks, so that one flat
        # packbits packs every walk's blocks: packbits along rows pays a fixed cost per
        # walk, most of the packing time at small T
        part = scratch.array("mask", (len(slab), 8 * blocks), np.uint8)
        part[:, T:] = 0
        for plane, bit in zip(planes, (0x80, 0x40)):
            np.bitwise_and(slab, bit, out=part[:, :T])
            packed = np.packbits(part.reshape(-1), bitorder="little").reshape(len(slab), blocks)
            plane[:, lo:lo + len(slab)] = packed.T
        lo += len(slab)
    return planes


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

    index holds, per block of 8 steps (row) and walk (column), the block's
    move bits: bit j is bit 7 of step j's byte, the line's direction or the
    grid's axis, and on the grid bit 8 + j is its bit 6, the sign.  The
    loop runs over the ceil(T/8) blocks and reads one packed record per
    walk and block; the last block's table covers only its T - 8 (blocks -
    1) steps.  |position| <= T, so int16 holds every position below 2**15
    steps.
    """
    blocks, width = index.shape
    dtype = np.int16 if T < 2**15 else np.int32
    state = [tuple(np.zeros(width, dtype) for _ in range(3)) for _ in range(dims)]
    full, last = _records(dims, 8), _records(dims, T - 8 * (blocks - 1))
    bound = np.empty(width, dtype)
    for j, idx in enumerate(index):
        rec = np.take(full if j < blocks - 1 else last, idx).view(np.int8).reshape(width, 4 * dims)
        for axis, (pos, hi, lo) in enumerate(state):
            np.add(pos, rec[:, 3 * axis + 1], out=bound)
            np.maximum(hi, bound, out=hi)
            np.add(pos, rec[:, 3 * axis + 2], out=bound)
            np.minimum(lo, bound, out=lo)
            pos += rec[:, 3 * axis]
    return state


def _certify(planes: np.ndarray, T: int, k: int, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Per walk (column of the planes): its final distance on the farthest axis, and a certificate it stays within k.

    A block of 8 steps moves each axis by at most 8, so a walk whose
    position at every block start is within k - 8 on every axis never
    leaves [-k, k]; a walk without the certificate may still stay.  The
    positions are running sums of the blocks' net moves, one loop step
    per block for all walks, and each net counts set bits in the block's
    packed move bits.  A block of n steps with c right moves nets 2c - n
    on the line; on the grid, with a column moves, m of them -1, and s
    -1 moves in all, it nets a - 2m on the column and n - (a - 2m) - 2s
    on the row.  n is 8 but in the last block, T - 8 (blocks - 1): its
    bits past T are zero and count no move.  Every net and every partial
    sum of its arithmetic lies in [-8, 24], so the nets are int8, in
    scratch; each walk's position and its largest distance at a block
    start are carried block by block, every axis at once, in int16 below
    2**15 steps, as in _walk8.
    """
    dims, blocks, width = planes.shape
    dtype = np.int16 if T < 2**15 else np.int32
    steps = np.full((blocks, 1), 8, np.int8)
    steps[-1] = T - 8 * (blocks - 1)
    nets = scratch.array("nets", (dims, blocks, width), np.int8)
    counts = nets.view(np.uint8)  # the popcounts' bytes, written without a cast
    if dims == 1:
        net = nets[0]
        np.bitwise_count(planes[0], out=counts[0])  # c
        net += net
        net -= steps  # 2c - n
    else:
        row, col = nets
        np.bitwise_count(planes[0], out=counts[1])  # a
        np.bitwise_count(np.bitwise_and(planes[0], planes[1], out=counts[0]), out=counts[0])  # m
        col -= row
        col -= row  # a - 2m
        np.bitwise_count(planes[1], out=counts[0])  # s
        row += row
        row += col
        np.subtract(steps, row, out=row)  # n - (a - 2m) - 2s
    pos = nets[:, 0].astype(dtype)  # the position at block start j, then after the last block
    reach = np.zeros_like(pos)
    part = np.empty_like(pos)
    for j in range(1, blocks):
        np.maximum(reach, np.abs(pos, out=part), out=reach)
        part[...] = nets[:, j]  # widened first: an int8 operand makes the add cast as it goes, slower
        pos += part
    return np.abs(pos, out=part).max(axis=0), reach.max(axis=0) <= k - 8


def _certified(
    chunks: Iterable[np.ndarray], T: int, k: int, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per walk, in order over the chunks' _planes: its final distance and _certify's certificate.

    Each chunk's planes are read before the next chunk's are made, so
    they may share one scratch.  The third array holds the planes of the
    walks without a certificate, (dims, blocks, walks), a copy in walk
    order.
    """
    finals, certified, rest = [], [], []
    for planes in chunks:
        final, ok = _certify(planes, T, k, scratch)
        finals.append(final)
        certified.append(ok)
        rest.append(planes[:, :, ~ok])
    return np.concatenate(finals), np.concatenate(certified), np.concatenate(rest, axis=2)


def _walked(planes: np.ndarray, T: int, k: int) -> np.ndarray:
    """Per walk (column of the planes): whether it stays within k, from one _walk8 call, or none if there is no walk.

    The walker index is the planes, bit 6's shifted by 8 on the grid.
    """
    if not planes.shape[2]:
        return np.ones(0, bool)
    index = planes[0] if len(planes) == 1 else (planes[1].astype(np.uint16) << 8) | planes[0]
    return _distances(_walk8(index, T, len(planes)))[1] <= k


def _localized(chunks: Iterable[np.ndarray], T: int, k: int, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, in order over the chunks' _planes: its final distance, and whether it stays within k.

    Walks certified by _certify need no walking; the rest, from every
    chunk, go through one _walk8 call.
    """
    final, localized, rest = _certified(chunks, T, k, scratch)
    localized[~localized] = _walked(rest, T, k)
    return final, localized


def _distances(walk) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, the distance from the start on the farthest axis: at the end, and the largest at any step."""
    final = np.maximum.reduce([np.abs(pos) for pos, _, _ in walk])
    reach = np.maximum.reduce([np.maximum(hi, -lo) for _, hi, lo in walk])
    return final, reach


@functools.cache
def _pair_moves() -> tuple[np.ndarray, np.ndarray]:
    """Per packed plane byte, its four step pairs' shares of their pair codes 4 d1 + d2: bit 7's table, then bit 6's.

    Pair i of a block is its steps 2i and 2i + 1, with grid moves d1 and
    d2, each d = 2 (bit 7) + bit 6: bit 7's plane byte adds 8 and 2 to
    the pair's code, bit 6's adds 4 and 1.  Each entry holds a byte's
    four shares as uint16 in one uint64, so the OR of the two tables'
    entries for a block's bytes, viewed as uint16, is its four pair codes.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little").astype(np.uint16)
    first, second = bits[:, 0::2], bits[:, 1::2]
    tables = tuple(np.ascontiguousarray(a * first + b * second).view(np.uint64).ravel() for a, b in ((8, 2), (4, 1)))
    for table in tables:
        table.flags.writeable = False  # one copy serves every caller
    return tables


def _torus_steps(n: int, code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The n x n torus's move tables for _visited_codes: neighbour, code (a uint8 per vertex), pair and pair_code.

    neighbour[4 u + d] is the vertex the grid move d (a step byte >> 6)
    takes u to; the moves d = 0..3 (row + 1, row - 1, col + 1, col - 1)
    are the columns 1, 0, 3, 2 of Lattice.neighbours.  For the moves d1
    then d2, pair[16 u + 4 d1 + d2] is 16 times the vertex they take u
    to, and pair_code[16 u + 4 d1 + d2] is the OR of the codes of the
    two vertices they visit.
    """
    N = n * n
    neighbour = Lattice("torus", (n, n)).neighbours()[:, [1, 0, 3, 2]]
    after = neighbour[neighbour]  # after[u, d1, d2]
    pair = (16 * after).astype(np.int32 if 16 * N < 2**31 else np.int64).ravel()
    pair_code = (code[neighbour][:, :, None] | code[after]).ravel()
    return neighbour.ravel(), code, pair, pair_code


def _visited_codes(v: np.ndarray, planes: np.ndarray, T: int, torus: tuple[np.ndarray, ...]) -> np.ndarray:
    """Bitwise OR of code over the vertices each torus walk visits, its start v included.

    planes are the walks' grid _planes, read step-major two steps at a
    time: a block's two rows map through _pair_moves to its step pairs'
    codes 4 d1 + d2, and a walk at vertex u holds 16 u, so one add gives
    its index into the pair tables of torus (_torus_steps), and one
    gather each its next state and its two visits' codes.  A block of an
    odd number of steps ends with one step from neighbour: its last
    pair's d2 bits are zero, so (16 u + 4 d1) >> 2 is 4 u + d1.
    """
    neighbour, code, pair, pair_code = torus
    axis, sign = _pair_moves()
    seen = code[v]
    state = (16 * v).astype(pair.dtype)
    idx = np.empty_like(state)
    visits = np.empty_like(seen)
    for j in range(planes.shape[1]):
        pairs = np.take(axis, planes[0, j])
        pairs |= np.take(sign, planes[1, j])
        steps = min(8, T - 8 * j)
        rows = pairs.view(np.uint16).reshape(-1, 4).T  # one row per pair of block j
        for row in rows[:steps // 2]:
            np.add(state, row, out=idx)
            np.take(pair, idx, out=state)
            seen |= np.take(pair_code, idx, out=visits)
        if steps % 2:
            np.add(state, rows[steps // 2], out=idx)
            idx >>= 2
            seen |= code[np.take(neighbour, idx)]
    return seen


def _localization(kind: str, dims: int, T: int, trials: int, seed: int) -> LocalityReport:
    k = displacement_threshold(T)
    scratch = _Scratch()

    def worker(chunks):
        if T <= k:  # no walk can leave [-k, k]
            return sum(size for _, size in chunks), 0, np.empty((dims, -(-T // 8), 0), np.uint8)
        planes = (_planes(_moves(rng, size, T), size, T, dims, scratch) for rng, size in chunks)
        final, certified, rest = _certified(planes, T, k, scratch)
        return int(certified.sum()), int((final > k).sum()), rest

    # every group's uncertified walks in one walker call, whose loop costs per block, not per walk
    certified, end_tail, rest = _run_chunks(worker, trials, seed)
    localized = certified + int(_walked(rest, T, k).sum())
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

    # bit 1: a marked vertex; bit 2: a vertex of a marked sub-grid
    torus = _torus_steps(n, marked_vertex.astype(np.uint8) | (vertex_in_marked_block.astype(np.uint8) << 1))
    scratch = _Scratch()

    def worker(chunks):
        starts, lo = [], 0
        planes = scratch.array("group", (2, -(-T // 8), sum(size for _, size in chunks)), np.uint8)
        for rng, size in chunks:
            r0 = rng.integers(0, n, size=size, dtype=np.int32)
            c0 = rng.integers(0, n, size=size, dtype=np.int32)
            starts.append(r0.astype(np.intp) * n + c0)
            planes[:, :, lo:lo + size] = _planes(_moves(rng, size, T), size, T, 2, scratch)
            lo += size
        seen = _visited_codes(np.concatenate(starts), planes, T, torus)
        localized = T <= k or _localized([planes], T, k, scratch)[1]
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
