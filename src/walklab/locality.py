"""The locality experiments: Monte Carlo simple random walks on lattices.

A T-step simple random walk rarely strays: per axis it stays within
ceil(4 sqrt(T)) of its start except with probability about 4 exp(-8)
(< 1/745) on the line, twice that on the grid.  This module samples
batches of lattice walks as cumulative sums of random moves (on the
infinite line, the infinite grid and the torus; walks on arbitrary
matrices are not sampled), measures localized fractions with one-sided
99% Wilson lower bounds, and runs the sub-grid coverage experiment: how
often a walk that visits a marked vertex certifies that a stationary-
sampled sub-grid of the matching partition contains one.

Trials are split into a fixed number of chunks with seeds spawned from
one SeedSequence, so results are independent of the worker count; set
WALKLAB_WORKERS to parallelize chunk execution.
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
    """Run worker(rng, size) over fixed chunks; order-independent integer sums."""
    if trials < 1:
        raise ValueError("trials must be positive")
    sizes = _chunk_sizes(trials)
    children = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    jobs = [(np.random.default_rng(ss), size) for ss, size in zip(children, sizes) if size > 0]
    n_workers = int(os.environ.get("WALKLAB_WORKERS", "1"))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(lambda job: worker(*job), jobs))
    else:
        results = [worker(rng, size) for rng, size in jobs]
    return [sum(col) for col in zip(*results)]


def line_localization(T: int, trials: int, seed: int) -> LocalityReport:
    """Fraction of infinite-line walks staying within ceil(4 sqrt(T)) of the start."""
    k = displacement_threshold(T)

    def worker(rng, size):
        if T == 0:
            return size, 0
        moves = rng.integers(0, 2, size=(size, T), dtype=np.int8) * 2 - 1
        pos = np.cumsum(moves, axis=1, dtype=np.int32)
        localized = int((np.abs(pos).max(axis=1) <= k).sum())
        end_tail = int((np.abs(pos[:, -1]) > k).sum())
        return localized, end_tail

    localized, end_tail = _run_chunks(worker, trials, seed)
    return LocalityReport(
        kind="line",
        T=T,
        trials=trials,
        threshold=k,
        localized_fraction=localized / trials,
        wilson_low=wilson_lower(localized, trials),
        end_tail_fraction=end_tail / trials,
        seed=seed,
    )


def grid_localization(T: int, trials: int, seed: int) -> LocalityReport:
    """As line_localization on the infinite grid; both axes must stay within range."""
    k = displacement_threshold(T)

    def worker(rng, size):
        if T == 0:
            return size, 0
        dirs = rng.integers(0, 4, size=(size, T), dtype=np.int8)
        dr = np.cumsum((dirs == 0).astype(np.int8) - (dirs == 1), axis=1, dtype=np.int32)
        dc = np.cumsum((dirs == 2).astype(np.int8) - (dirs == 3), axis=1, dtype=np.int32)
        ok = (np.abs(dr).max(axis=1) <= k) & (np.abs(dc).max(axis=1) <= k)
        end_tail = int(((np.abs(dr[:, -1]) > k) | (np.abs(dc[:, -1]) > k)).sum())
        return int(ok.sum()), end_tail

    localized, end_tail = _run_chunks(worker, trials, seed)
    return LocalityReport(
        kind="grid",
        T=T,
        trials=trials,
        threshold=k,
        localized_fraction=localized / trials,
        wilson_low=wilson_lower(localized, trials),
        end_tail_fraction=end_tail / trials,
        seed=seed,
    )


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

    def worker(rng, size):
        r0 = rng.integers(0, n, size=size, dtype=np.int32)
        c0 = rng.integers(0, n, size=size, dtype=np.int32)
        if T > 0:
            dirs = rng.integers(0, 4, size=(size, T), dtype=np.int8)
            dr = np.cumsum((dirs == 0).astype(np.int8) - (dirs == 1), axis=1, dtype=np.int32)
            dc = np.cumsum((dirs == 2).astype(np.int8) - (dirs == 3), axis=1, dtype=np.int32)
            dr = np.concatenate([np.zeros((size, 1), np.int32), dr], axis=1)
            dc = np.concatenate([np.zeros((size, 1), np.int32), dc], axis=1)
        else:
            dr = np.zeros((size, 1), np.int32)
            dc = np.zeros((size, 1), np.int32)
        localized = (np.abs(dr).max(axis=1) <= k) & (np.abs(dc).max(axis=1) <= k)
        verts = ((r0[:, None] + dr) % n) * n + (c0[:, None] + dc) % n
        hit_m = marked_vertex[verts].any(axis=1)
        hit_g = vertex_in_marked_block[verts].any(axis=1)
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
