"""End-to-end multi-target search on the torus with explicit cost accounting.

The pipeline: estimate how long a classical absorbing walk needs
(doubling estimator with the single-target fallback cap), cut the torus
into sub-grids just large enough to trap such a walk, and run the
interpolated-walk finding scheme inside every sub-grid simultaneously
for ceil(c_find * D * sqrt(max(1, ln D))) steps with a guessed marked
fraction 2^-k.  Measuring the sub-grid label first makes the
superposition over sub-grids an exact mixture, so the overall success
probability is the stationary-mass-weighted average of per-sub-grid
successes, computed here exactly.  One k in {1..log2 N} always lands
within a factor 4/3 of the true marked fraction of a good sub-grid, so
the best-k success is bounded below by a constant; sweeping all k
trades a log factor of cost for that constant unconditionally.

The marked-set mini-language: "rows:0,3", "cols:2", "cells:(0,0);(4,4)",
"half" (left half of the columns), "halfchecker" (left half plus a
checkerboard on the right half), "random:m:seed".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .calibration import CalibrationConstants, grid_walk_steps
from .graphs import PartitionLayout, build_torus, partition_torus, subgrid_graph
from .markov import WalkMatrix, walk_from_graph, marked_mask
from .szegedy import (
    CostLedger,
    EffectiveHtEstimate,
    cap_estimate,
    estimate_effective_ht,
    find_via_interpolation,
    h_unique,
    interpolated_walk,
)

__all__ = [
    "SearchConfig",
    "SearchReport",
    "parse_marked_spec",
    "standard_families",
    "valid_k_values",
    "run_search",
    "run_k_sweep",
    "verify_cost_bound",
]


def parse_marked_spec(spec: str, n: int) -> tuple[int, ...]:
    """Resolve a marked-set expression to sorted vertex ids on the n-torus."""
    if n < 2:
        raise ValueError("torus side must be at least 2")
    N = n * n
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    if kind == "rows" or kind == "cols":
        try:
            lines = sorted({int(tok) for tok in rest.split(",") if tok != ""})
        except ValueError as exc:
            raise ValueError(f"bad {kind} list in {spec!r}") from exc
        if not lines or any(not (0 <= v < n) for v in lines):
            raise ValueError(f"{kind} indices must lie in [0, {n}) in {spec!r}")
        if kind == "rows":
            ids = [r * n + c for r in lines for c in range(n)]
        else:
            ids = [r * n + c for c in lines for r in range(n)]
        return tuple(sorted(ids))
    if kind == "cells":
        cells = []
        for tok in rest.split(";"):
            m = re.fullmatch(r"\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*", tok)
            if not m:
                raise ValueError(f"bad cell {tok!r} in {spec!r}: expected (r,c)")
            r, c = int(m.group(1)), int(m.group(2))
            if not (0 <= r < n and 0 <= c < n):
                raise ValueError(f"cell ({r},{c}) outside the {n}x{n} torus")
            cells.append(r * n + c)
        if not cells:
            raise ValueError(f"empty cell list in {spec!r}")
        return tuple(sorted(set(cells)))
    if spec == "half":
        return tuple(sorted(r * n + c for r in range(n) for c in range(n // 2)))
    if spec == "halfchecker":
        ids = {r * n + c for r in range(n) for c in range(n // 2)}
        ids |= {r * n + c for r in range(n) for c in range(n // 2, n) if (r + c) % 2 == 0}
        return tuple(sorted(ids))
    if kind == "random":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected random:m:seed, got {spec!r}")
        try:
            m, seed = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"expected integers in {spec!r}") from exc
        if not (0 < m < N):
            raise ValueError(f"random marked count must lie in (0, {N})")
        rng = np.random.default_rng(seed)
        return tuple(sorted(int(v) for v in rng.choice(N, size=m, replace=False)))
    raise ValueError(f"unknown marked-set expression {spec!r}")


def standard_families(n: int) -> dict[str, tuple[int, ...]]:
    """The four benchmark marked families: singleton, row, two clusters, half."""
    h = n // 2
    clusters = f"cells:(0,0);(0,1);(1,0);(1,1);({h},{h});({h},{h + 1});({h + 1},{h});({h + 1},{h + 1})"
    return {
        "singleton": parse_marked_spec("cells:(0,0)", n),
        "row": parse_marked_spec("rows:0", n),
        "clusters": parse_marked_spec(clusters, n),
        "half": parse_marked_spec("half", n),
    }


def valid_k_values(N: int) -> list[int]:
    """All k with 1 <= 2^k < N."""
    if N < 3:
        raise ValueError("need at least 3 vertices for a guessing range")
    return list(range(1, (N - 1).bit_length()))


@dataclass(frozen=True)
class SearchConfig:
    """One search run: torus side, marked set, guess exponent, seed, constants."""

    n: int
    marked: tuple[int, ...] | str
    constants: CalibrationConstants
    k: int | None = None
    seed: int = 0
    sample: bool = False

    def resolved_marked(self) -> tuple[int, ...]:
        if isinstance(self.marked, str):
            return parse_marked_spec(self.marked, self.n)
        return tuple(sorted(int(v) for v in self.marked))

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("torus side must be at least 2")
        marked = self.resolved_marked()
        marked_mask(self.n * self.n, marked)  # nonempty proper subset
        if self.k is not None and self.k not in valid_k_values(self.n * self.n):
            raise ValueError(f"k={self.k} violates 1 <= 2^k < N for N={self.n * self.n}")


@dataclass(frozen=True)
class BlockOutcome:
    block: int
    eps_G: float
    marked_in_block: int
    block_size: int
    success: float

    def to_dict(self) -> dict:
        return {
            "block": self.block,
            "eps_G": self.eps_G,
            "marked_in_block": self.marked_in_block,
            "block_size": self.block_size,
            "success": self.success,
        }


@dataclass(frozen=True)
class SearchReport:
    """Everything one run produced; success bookkeeping is exact."""

    mode: str
    n: int
    marked: tuple[int, ...]
    eps_marked: float
    seed: int
    constants: CalibrationConstants
    estimator: EffectiveHtEstimate
    h_tilde: int
    d: int
    layout_q: int
    layout_base_side: int
    n_blocks: int
    T_walk: int
    k_values: tuple[int, ...]
    per_k_success: tuple[float, ...]
    per_k_blocks: tuple[tuple[BlockOutcome, ...], ...]
    best_k: int
    best_success: float
    uniform_success: float
    sweep_success: float | None
    chosen_k: int | None
    ledger: CostLedger = field(compare=False)
    sample_outcome: dict | None = None
    verdict: str = "probability-mode"

    def __post_init__(self) -> None:
        for k, s, blocks in zip(self.k_values, self.per_k_success, self.per_k_blocks):
            mixture = sum(b.eps_G * b.success for b in blocks)
            if abs(mixture - s) > 1e-12:
                raise ValueError(f"k={k}: mixture bookkeeping off by {abs(mixture - s):.2e}")
            if not (-1e-12 <= s <= 1.0 + 1e-12):
                raise ValueError(f"k={k}: success {s} outside [0, 1]")

    def success_for_k(self, k: int) -> float:
        return self.per_k_success[self.k_values.index(k)]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "N": self.n * self.n,
            "marked": list(self.marked),
            "eps_marked": self.eps_marked,
            "seed": self.seed,
            "constants": self.constants.to_dict(),
            "constants_hash": self.constants.digest,
            "estimator": self.estimator.to_dict(),
            "h_tilde": self.h_tilde,
            "d": self.d,
            "layout": {
                "q": self.layout_q,
                "base_side": self.layout_base_side,
                "n_blocks": self.n_blocks,
            },
            "T_walk": self.T_walk,
            "k_values": list(self.k_values),
            "per_k": [
                {
                    "k": k,
                    "eps_tilde": 0.5 ** k,
                    "success": s,
                    "blocks": [b.to_dict() for b in blocks],
                }
                for k, s, blocks in zip(self.k_values, self.per_k_success, self.per_k_blocks)
            ],
            "best_k": self.best_k,
            "best_success": self.best_success,
            "uniform_success": self.uniform_success,
            "sweep_success": self.sweep_success,
            "chosen_k": self.chosen_k,
            "ledger": self.ledger.to_dict(),
            "sample_outcome": self.sample_outcome,
            "verdict": self.verdict,
        }


def _block_walks(layout: PartitionLayout, marked: tuple[int, ...]):
    """Per-block (local chain, local marked ids, eps_G, size), marked blocks resolved."""
    N = layout.n * layout.n
    block_of = layout.block_of()
    marked_by_block: dict[int, list[int]] = {}
    for v in marked:
        marked_by_block.setdefault(int(block_of[v]), []).append(v)
    blocks = []
    for b in range(layout.n_blocks):
        verts = layout.block_vertices(b)
        size = verts.size
        local_marked: tuple[int, ...] = ()
        if b in marked_by_block:
            pos = {int(v): i for i, v in enumerate(verts)}
            local_marked = tuple(sorted(pos[v] for v in marked_by_block[b]))
        blocks.append((b, verts, local_marked, size / N))
    return blocks


def _per_k_table(
    layout: PartitionLayout,
    marked: tuple[int, ...],
    T_walk: int,
    k_values: list[int],
) -> tuple[list[float], list[tuple[BlockOutcome, ...]], dict]:
    """Exact per-k, per-block success probabilities (walks cached per block)."""
    blocks = _block_walks(layout, marked)
    chains: dict[int, tuple[WalkMatrix, np.ndarray]] = {}
    per_k_success: list[float] = []
    per_k_blocks: list[tuple[BlockOutcome, ...]] = []
    for k in k_values:
        eps_tilde = 0.5 ** k
        outcomes = []
        total = 0.0
        for b, verts, local_marked, eps_G in blocks:
            size = verts.size
            if not local_marked:
                success = 0.0
            elif len(local_marked) == size:
                success = 1.0
            else:
                if b not in chains:
                    P_G = walk_from_graph(subgrid_graph(layout, b))
                    chains[b] = (P_G, np.full(size, 1.0 / size))
                P_G, pi_G = chains[b]
                success = find_via_interpolation(
                    P_G, local_marked, eps_tilde, T_walk, pi=pi_G
                )
            outcomes.append(
                BlockOutcome(
                    block=b,
                    eps_G=eps_G,
                    marked_in_block=len(local_marked),
                    block_size=size,
                    success=success,
                )
            )
            total += eps_G * success
        per_k_success.append(total)
        per_k_blocks.append(tuple(outcomes))
    return per_k_success, per_k_blocks, {b: c for b, c in chains.items()}


def _sample_vertex(
    layout: PartitionLayout,
    marked: set[int],
    chains: dict,
    T_walk: int,
    k: int,
    seed: int,
) -> dict:
    """Measured-sample mode: draw sub-grid, walk duration, and final vertex."""
    rng = np.random.default_rng(seed)
    weights = layout.weights()
    b = int(rng.choice(layout.n_blocks, p=weights))
    verts = layout.block_vertices(b)
    size = verts.size
    local_marked = [i for i, v in enumerate(verts) if int(v) in marked]
    t = int(rng.integers(0, T_walk))
    if 0 < len(local_marked) < size:
        if b in chains:
            P_G, pi_G = chains[b]
        else:
            P_G = walk_from_graph(subgrid_graph(layout, b))
            pi_G = np.full(size, 1.0 / size)
        walk, (c, d) = interpolated_walk(P_G, local_marked, 0.5 ** k, pi_G)
        for _ in range(t):
            c, d = walk.step(c, d)
        dist = walk.vertex_distribution(c, d)
    else:
        dist = np.full(size, 1.0 / size)
    local_v = int(rng.choice(size, p=dist))
    vertex = int(verts[local_v])
    return {
        "k": k,
        "block": b,
        "t": t,
        "vertex": vertex,
        "is_marked": vertex in marked,
    }


def _execute(config: SearchConfig, sweep: bool) -> SearchReport:
    n = config.n
    N = n * n
    marked = config.resolved_marked()
    P = walk_from_graph(build_torus(n))
    pi_uniform = np.full(N, 1.0 / N)
    eps_marked = len(marked) / N

    budget = math.isqrt(h_unique(n) - 1) + 1  # ceil(sqrt(H_unique))
    estimator = estimate_effective_ht(P, marked, pi=pi_uniform, budget=budget)
    h_tilde = cap_estimate(estimator, n)

    d = 2 * math.ceil(4.0 * math.sqrt(h_tilde))
    if d > n:
        d = n
    layout = partition_torus(n, d)
    D = layout.base_side
    T_walk = grid_walk_steps(D, config.constants)
    k_values = valid_k_values(N)

    per_k_success, per_k_blocks, chains = _per_k_table(layout, marked, T_walk, k_values)

    best_i = int(np.argmax(per_k_success))
    uniform_success = float(np.mean(per_k_success))
    sweep_success = None
    ledger = CostLedger()
    ledger.merge(estimator.ledger)
    ledger.charge_setup(1)  # initial superposition over the partitioned torus

    chosen_k: int | None = None
    sample_outcome = None
    verdict = "probability-mode"
    if sweep:
        sweep_success = float(1.0 - np.prod([1.0 - s for s in per_k_success]))
        ledger.charge_steps(T_walk * len(k_values))
    else:
        ledger.charge_steps(T_walk)
        rng = np.random.default_rng(config.seed)
        chosen_k = config.k if config.k is not None else int(rng.choice(k_values))
        if config.sample:
            sample_outcome = _sample_vertex(
                layout, set(marked), chains, T_walk, chosen_k, config.seed
            )
            verdict = (
                "found marked vertex" if sample_outcome["is_marked"] else "unsuccessful search"
            )

    return SearchReport(
        mode="sweep" if sweep else "single",
        n=n,
        marked=marked,
        eps_marked=eps_marked,
        seed=config.seed,
        constants=config.constants,
        estimator=estimator,
        h_tilde=h_tilde,
        d=d,
        layout_q=layout.q,
        layout_base_side=D,
        n_blocks=layout.n_blocks,
        T_walk=T_walk,
        k_values=tuple(k_values),
        per_k_success=tuple(per_k_success),
        per_k_blocks=tuple(per_k_blocks),
        best_k=k_values[best_i],
        best_success=float(per_k_success[best_i]),
        uniform_success=uniform_success,
        sweep_success=sweep_success,
        chosen_k=chosen_k,
        ledger=ledger,
        sample_outcome=sample_outcome,
        verdict=verdict,
    )


def run_search(config: SearchConfig) -> SearchReport:
    """The eight-step search once: one k (given or drawn), one walk charged."""
    return _execute(config, sweep=False)


def run_k_sweep(config: SearchConfig) -> SearchReport:
    """All k in increasing order; success 1 - prod(1 - s_k), cost scaled by |k|."""
    return _execute(config, sweep=True)


def verify_cost_bound(report: SearchReport, h_eff: float, constants: CalibrationConstants) -> dict:
    """Ledger steps against c_bound * max(1, min(sqrt(H ln H), sqrt(N ln N))).

    The max(1, .) guard carries the additive constant that the order
    notation absorbs: instances with tiny effective hitting time still
    pay the constant-size sub-grid walk.
    """
    N = report.n * report.n
    h_branch = math.sqrt(h_eff * math.log(h_eff)) if h_eff > 1 else 0.0
    n_branch = math.sqrt(N * math.log(N))
    scale = max(1.0, min(h_branch, n_branch))
    bound = constants.c_bound * scale
    steps = report.ledger.steps
    return {
        "steps": steps,
        "scale": scale,
        "bound": bound,
        "ratio": steps / bound,
        "branch": "H" if h_branch <= n_branch else "N",
    }
