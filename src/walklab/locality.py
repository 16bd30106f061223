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

Walks are taken step-major: each chunk's moves are drawn row-major as
(walks, T), transposed to (T, walks), and one loop over the T steps
advances every walk at once while it keeps the running per-axis maximum
and minimum (and, on the torus, the visited-vertex flags); no cumulative
path array is built.  Each loop step costs a fixed Python overhead, so
consecutive chunks are grouped until a group holds GROUP_WALKS walks;
the Python-level step count is about T times the number of groups.
Up to T = 17, T <= ceil(4 sqrt(T)): no walk can leave the box, so every
walk is localized without walking the axes (the sub-grid experiment
still walks the torus for its visits).

Trials are split into a fixed number of chunks with seeds spawned from
one SeedSequence, so results are independent of the grouping and of the
worker count; set WALKLAB_WORKERS to parallelize group execution.
"""

from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import partition_torus

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
# (up, down) draw values per axis: a line step draws 1 (right) or 0 (left);
# a grid step draws 0 or 1 (row +1 or -1), 2 or 3 (column +1 or -1)
LINE_AXES = ((1, 0),)
GRID_AXES = ((0, 1), (2, 3))
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
        return {
            "kind": self.kind,
            "T": self.T,
            "trials": self.trials,
            "threshold": self.threshold,
            "localized_fraction": self.localized_fraction,
            "wilson_low": self.wilson_low,
            "end_tail_fraction": self.end_tail_fraction,
            "seed": self.seed,
        }


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
    n_workers = int(os.environ.get("WALKLAB_WORKERS", "1"))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(worker, groups))
    else:
        results = [worker(group) for group in groups]
    return [sum(col) for col in zip(*results)]


def _step_major(chunks, T: int, high: int) -> np.ndarray:
    """Each chunk's (size, T) int8 move draws in [0, high), transposed side by side: shape (T, width)."""
    out = np.empty((T, sum(size for _, size in chunks)), dtype=np.int8)
    col = 0
    for rng, size in chunks:
        out[:, col:col + size] = rng.integers(0, high, size=(size, T), dtype=np.int8).T
        col += size
    return out


def _walk(dirs: np.ndarray, axes) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Final position, running maximum and running minimum on each axis of walks started at 0.

    dirs[t] holds the direction drawn for step t of every walk; on axis i a
    draw equal to axes[i][0] moves +1 and one equal to axes[i][1] moves -1.
    The loop runs over the T steps and updates whole vectors across the
    walks.  |position| <= T, so int16 holds every position below 2**15 steps.
    """
    T, width = dirs.shape
    dtype = np.int16 if T < 2**15 else np.int32
    state = [(np.zeros(width, dtype), np.zeros(width, dtype), np.zeros(width, dtype)) for _ in axes]
    for step in dirs:
        for (up, down), (pos, hi, lo) in zip(axes, state):
            pos += step == up
            pos -= step == down
            np.maximum(hi, pos, out=hi)
            np.minimum(lo, pos, out=lo)
    return state


def _distances(walk) -> tuple[np.ndarray, np.ndarray]:
    """Per walk, the distance from the start on the farthest axis: at the end, and the largest at any step."""
    final = np.maximum.reduce([np.abs(pos) for pos, _, _ in walk])
    reach = np.maximum.reduce([np.maximum(hi, -lo) for _, hi, lo in walk])
    return final, reach


def _visited_codes(v: np.ndarray, dirs: np.ndarray, neighbour: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Bitwise OR of code over the vertices each torus walk visits, its start v included.

    neighbour[4 * u + d] is the neighbour of vertex u in grid direction d;
    v is advanced in place.
    """
    seen = code[v]
    idx = np.empty_like(v)
    for step in dirs:
        np.multiply(v, 4, out=idx)
        idx += step
        np.take(neighbour, idx, out=v)
        seen |= code[v]
    return seen


def _localization(kind: str, axes, T: int, trials: int, seed: int) -> LocalityReport:
    k = displacement_threshold(T)

    def worker(chunks):
        if T <= k:  # no walk can leave [-k, k]
            return sum(size for _, size in chunks), 0
        final, reach = _distances(_walk(_step_major(chunks, T, 2 * len(axes)), axes))
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
    return _localization("line", LINE_AXES, T, trials, seed)


def grid_localization(T: int, trials: int, seed: int) -> LocalityReport:
    """As line_localization on the infinite grid; both axes must stay within range."""
    return _localization("grid", GRID_AXES, T, trials, seed)


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
        return {k: getattr(self, k) for k in (
            "n", "T", "trials", "seed", "threshold", "d", "n_blocks",
            "marked_blocks", "p_hat", "p_ml", "p_Gl", "p_G", "sigma",
        )}


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

    # neighbour[4 * v + d]: the vertex a grid draw d moves v to (GRID_AXES order)
    rows, cols = np.divmod(np.arange(N), n)
    neighbour = np.stack([
        ((rows + 1) % n) * n + cols,
        ((rows - 1) % n) * n + cols,
        rows * n + (cols + 1) % n,
        rows * n + (cols - 1) % n,
    ], axis=1).ravel()
    # bit 1: a marked vertex; bit 2: a vertex of a marked sub-grid
    code = marked_vertex.astype(np.uint8) | (vertex_in_marked_block.astype(np.uint8) << 1)

    def worker(chunks):
        starts = []
        for rng, size in chunks:
            r0 = rng.integers(0, n, size=size, dtype=np.int32)
            c0 = rng.integers(0, n, size=size, dtype=np.int32)
            starts.append(r0.astype(np.intp) * n + c0)
        dirs = _step_major(chunks, T, 4)
        seen = _visited_codes(np.concatenate(starts), dirs, neighbour, code)
        localized = T <= k or _distances(_walk(dirs, GRID_AXES))[1] <= k
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
