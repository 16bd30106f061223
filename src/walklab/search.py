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
When the marked set is whole rows or columns of the torus or of a
sub-grid, the walks there run on the thin lattice of its lines
(_walked_lattice): h x 1 in place of h x w, with the same marked masses.
Each distinct walk is walked once, every k at once, and the report's
per-block records are a view over that (distinct walk x k) table.  The
report keeps the run's config and layout, not copies of their values,
and reads its summaries from them and the per-k successes.

The marked-set mini-language: "rows:0,3", "cols:2", "cells:(0,0);(4,4)",
"half" (left half of the columns), "halfchecker" (left half plus a
checkerboard on the right half), "random:m:seed", and the names of the
standard families (standard_families): "singleton", "row", "clusters".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationConstants, grid_walk_steps
from .graphs import PartitionLayout, partition_torus
from .lattice import _walked_lattice
from .markov import lattice_walk, marked_mask, stationary
from .reporting import RecordJoin
from .szegedy import (
    EffectiveHtEstimate,
    SzegedyWalk,
    build_walk,
    cap_estimate,
    cost_ledger,
    estimate_effective_ht,
    find_via_interpolation,
    h_unique,
    interpolation_parameter,
    walk_distribution,
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
    """Resolve a marked-set expression or a standard family's name to sorted vertex ids on the n-torus.

    Lines, half and halfchecker are drawn on an n x n mask, whose set
    cells r * n + c are sorted and distinct by construction, so no Python
    set of their (up to n^2) ids is ever built.  Side 3 is refused for
    clusters: its two 2x2 squares would merge into one 7-vertex set.
    """
    if n < 2:
        raise ValueError("torus side must be at least 2")
    N = n * n
    family = spec.strip()
    spec = standard_families(n).get(family, family)
    kind, _, rest = spec.partition(":")
    grid = np.zeros((n, n), dtype=bool)
    if kind == "rows" or kind == "cols":
        try:
            lines = sorted({int(tok) for tok in rest.split(",") if tok != ""})
        except ValueError as exc:
            raise ValueError(f"bad {kind} list in {spec!r}") from exc
        if not lines or any(not (0 <= v < n) for v in lines):
            raise ValueError(f"{kind} indices must lie in [0, {n}) in {spec!r}")
        if kind == "rows":
            grid[lines, :] = True
        else:
            grid[:, lines] = True
        return tuple(np.flatnonzero(grid).tolist())
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
        marked = tuple(sorted(set(cells)))
        if family == "clusters" and len(marked) < 8:
            raise ValueError(f"the clusters family's two 2x2 squares overlap on the {n}x{n} torus; "
                             "it needs side >= 4")
        return marked
    if spec == "half" or spec == "halfchecker":
        grid[:, : n // 2] = True
        if spec == "halfchecker":
            grid |= (np.arange(n)[:, None] + np.arange(n)) % 2 == 0
        return tuple(np.flatnonzero(grid).tolist())
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
        return tuple(np.sort(rng.choice(N, size=m, replace=False)).tolist())
    raise ValueError(f"unknown marked-set expression {spec!r}")


def standard_families(n: int) -> dict[str, str]:
    """Expressions of the four benchmark families: singleton, row, two clusters, half."""
    h = n // 2
    clusters = f"cells:(0,0);(0,1);(1,0);(1,1);({h},{h});({h},{h + 1});({h + 1},{h});({h + 1},{h + 1})"
    return {"singleton": "cells:(0,0)", "row": "rows:0", "clusters": clusters, "half": "half"}


def valid_k_values(N: int) -> list[int]:
    """All k with 1 <= 2^k < N."""
    if N < 3:
        raise ValueError("need at least 3 vertices for a guessing range")
    return list(range(1, (N - 1).bit_length()))


@dataclass(frozen=True)
class SearchConfig:
    """One search run: torus side, sorted distinct marked ids, guess exponent, seed, constants."""

    n: int
    marked: tuple[int, ...]
    constants: CalibrationConstants
    k: int | None = None
    seed: int = 0
    sample: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("torus side must be at least 2")
        mask = marked_mask(self.n * self.n, self.marked)  # nonempty proper subset
        object.__setattr__(self, "marked", tuple(np.flatnonzero(mask).tolist()))
        if self.k is not None and self.k not in valid_k_values(self.n * self.n):
            raise ValueError(f"k={self.k} violates 1 <= 2^k < N for N={self.n * self.n}")


@dataclass(frozen=True)
class SearchReport:
    """Everything one run produced; success bookkeeping is exact.

    Block i of blocks (_block_walks' list) scores row walk_of[i] of
    walk_success.  Each value is stored once: the run's inputs are
    config and layout, and the summaries (eps_marked, the best, uniform
    and sweep successes, the verdict) are read from them, per_k_success
    and sample_outcome.
    """

    mode: str
    config: SearchConfig
    layout: PartitionLayout
    estimator: EffectiveHtEstimate
    h_tilde: int
    T_walk: int
    k_values: tuple[int, ...]
    per_k_success: tuple[float, ...]
    blocks: tuple[tuple, ...]
    walk_of: tuple[int, ...]
    walk_success: tuple[tuple[float, ...], ...]
    chosen_k: int | None
    sample_outcome: dict | None = None

    def __post_init__(self) -> None:
        # the block weights gathered per walk, against the table: another summation order
        weight = np.bincount(self.walk_of, [eps_G for *_, eps_G in self.blocks], len(self.walk_success))
        mixtures = weight @ np.array(self.walk_success)
        for k, s, mixture in zip(self.k_values, self.per_k_success, mixtures.tolist()):
            if abs(mixture - s) > 1e-12:
                raise ValueError(f"k={k}: mixture bookkeeping off by {abs(mixture - s):.2e}")
            if not (-1e-12 <= s <= 1.0 + 1e-12):
                raise ValueError(f"k={k}: success {s} outside [0, 1]")

    @property
    def eps_marked(self) -> float:
        return len(self.config.marked) / (self.config.n * self.config.n)

    @property
    def best_success(self) -> float:
        return max(self.per_k_success)

    @property
    def best_k(self) -> int:
        """The first k of the best success."""
        return self.k_values[self.per_k_success.index(self.best_success)]

    @property
    def uniform_success(self) -> float:
        """The success of a uniformly drawn k."""
        return float(np.mean(self.per_k_success))

    @property
    def steps(self) -> int:
        """Walk steps paid: the estimator's, then T_walk per k walked (every k in a sweep)."""
        return self.estimator.steps + self.T_walk * (len(self.k_values) if self.mode == "sweep" else 1)

    def success_for_k(self, k: int) -> float:
        return self.per_k_success[self.k_values.index(k)]

    def to_dict(self) -> dict:
        """The report's results, each k's "blocks" list as one Encoded text.

        Block i's record of k is its fixed fields (block, block_size, eps_G,
        marked_in_block) and the success of row walk_of[i] of walk_success
        at k.  The fixed fields are encoded once per block, each (row, k)
        success once, and the pieces joined in block order: canonical_json
        writes the bytes that one dict per (block, k) would give.
        """
        config, layout, outcome = self.config, self.layout, self.sample_outcome
        sweep = self.mode == "sweep"
        blocks = RecordJoin(
            [{"block": b, "block_size": h * w, "eps_G": eps_G, "marked_in_block": len(local)}
             for b, (h, w), local, eps_G in self.blocks],
            self.walk_of,
        )
        return {
            "mode": self.mode,
            "n": config.n,
            "N": config.n * config.n,
            "marked": list(config.marked),
            "eps_marked": self.eps_marked,
            "seed": config.seed,
            "constants": config.constants.to_dict(),
            "constants_hash": config.constants.digest,
            "estimator": self.estimator.to_dict(),
            "h_tilde": self.h_tilde,
            "d": layout.d,
            "layout": {
                "q": layout.q,
                "base_side": layout.base_side,
                "n_blocks": layout.n_blocks,
            },
            "T_walk": self.T_walk,
            "k_values": list(self.k_values),
            "per_k": [
                {
                    "k": k,
                    "eps_tilde": 0.5 ** k,
                    "success": s,
                    "blocks": blocks([{"success": x} for x in column]),
                }
                for k, s, column in zip(self.k_values, self.per_k_success, zip(*self.walk_success))
            ],
            "best_k": self.best_k,
            "best_success": self.best_success,
            "uniform_success": self.uniform_success,
            "sweep_success": float(1.0 - np.prod([1.0 - s for s in self.per_k_success])) if sweep else None,
            "chosen_k": self.chosen_k,
            "ledger": cost_ledger(2, self.steps),  # the estimator's setup and the partitioned superposition
            "sample_outcome": outcome,
            "verdict": "probability-mode" if outcome is None else (
                "found marked vertex" if outcome["is_marked"] else "unsuccessful search"
            ),
        }


def _block_walks(layout: PartitionLayout, marked: tuple[int, ...]):
    """Per-block (block, shape, local marked ids, eps_G), marked blocks resolved.

    A marked vertex (r, c) of the block whose rows start at r0 and whose
    columns span [c0, c1) has the row-major local id (r - r0) * (c1 - c0)
    + c - c0.
    """
    start = np.array([a for a, _ in layout.ranges])
    side = np.array([b - a for a, b in layout.ranges])
    run = np.repeat(np.arange(layout.q), side)  # the block run of each row or column
    r, c = np.divmod(np.asarray(marked, dtype=np.int64), layout.n)
    block = run[r] * layout.q + run[c]
    local = (r - start[run[r]]) * side[run[c]] + c - start[run[c]]
    order = np.lexsort((local, block))
    cut = np.searchsorted(block[order], np.arange(layout.n_blocks + 1)).tolist()
    local = local[order].tolist()
    return [
        (b, layout.block_shape(b), tuple(local[cut[b]:cut[b + 1]]), eps_G)
        for b, eps_G in enumerate(layout.weights().tolist())
    ]


def _grid_walk(shape: tuple[int, int], walks: dict) -> SzegedyWalk:
    """The quantum walk of the clamped grid of this shape, a block's or a thin lattice's, built once per shape."""
    if shape not in walks:
        walks[shape] = build_walk(lattice_walk("grid", shape))
    return walks[shape]


def _per_k_table(blocks: list, T_walk: int, k_values: list[int]) -> tuple[list[float], np.ndarray, np.ndarray, dict]:
    """Exact per-k successes and the (distinct walk x k) table they mix.

    blocks is _block_walks(layout, marked).  A block's success depends
    only on the lattice its walks run on, that lattice's marked states
    and k (a block's chain is the clamped grid of its shape, the start is
    uniform), so each distinct key is one row of walk_success, walked
    once for all of k_values, after rows 0 and 1: an unmarked block scores 0.0, a
    fully marked one 1.0.  Block i scores row walk_of[i]; the per-k
    success adds eps_G * success in block order (a cumsum, not np.sum's
    pairwise order).  _walked_lattice decides the lattice once per
    distinct (shape, local marked set): a thin one when the local set is
    whole lines of the block, so blocks of different shapes can share a
    walk.  Blocks equal only up to a reflection or rotation are distinct
    keys.  Returns the walks by lattice as well.
    """
    rows = [[0.0] * len(k_values), [1.0] * len(k_values)]
    walked: dict[tuple, int] = {}  # (walked lattice, marked states) -> row
    row_of: dict[tuple, int] = {}  # (shape, local marked set) -> row
    walks: dict[tuple[int, int], SzegedyWalk] = {}
    walk_of = []
    for _, shape, local, _ in blocks:
        if (shape, local) not in row_of:
            if 0 < len(local) < shape[0] * shape[1]:
                key = _walked_lattice(shape, local)
                if key not in walked:
                    walk = _grid_walk(key[0], walks)
                    walked[key] = len(rows)
                    eps_tilde = [0.5 ** k for k in k_values]
                    rows.append(find_via_interpolation(walk.base, key[1], eps_tilde, T_walk,
                                                       pi=stationary(walk.base), walk=walk))
                row_of[shape, local] = walked[key]
            else:
                row_of[shape, local] = 1 if local else 0
        walk_of.append(row_of[shape, local])
    walk_success = np.array(rows)
    walk_of = np.array(walk_of)
    eps = np.array([eps_G for *_, eps_G in blocks])
    per_k_success = np.cumsum(eps[:, None] * walk_success[walk_of], axis=0)[-1]
    return per_k_success.tolist(), walk_success, walk_of, walks


def _sample_vertex(
    layout: PartitionLayout,
    blocks: list,
    walks: dict,
    T_walk: int,
    k: int,
    seed: int,
) -> dict:
    """Measured-sample mode: draw sub-grid, walk duration, and final vertex.

    blocks is _block_walks(layout, marked); the sub-grid is drawn by its
    eps_G, and the walk runs on the drawn block's full chain, whatever
    its marked set: the finding walk's, built once, unless that walk ran
    on a thin lattice.
    """
    rng = np.random.default_rng(seed)
    b = int(rng.choice(layout.n_blocks, p=[eps_G for *_, eps_G in blocks]))
    _, shape, local_marked, _ = blocks[b]
    size = shape[0] * shape[1]
    t = int(rng.integers(0, T_walk))
    if 0 < len(local_marked) < size:
        walk = _grid_walk(shape, walks)
        dist = walk_distribution(walk, local_marked, interpolation_parameter(0.5 ** k), t, stationary(walk.base))
    else:
        dist = np.full(size, 1.0 / size)
    local_v = int(rng.choice(size, p=dist))
    return {
        "k": k,
        "block": b,
        "t": t,
        "vertex": int(layout.block_vertices(b)[local_v]),
        "is_marked": local_v in local_marked,
    }


def _execute(config: SearchConfig, sweep: bool) -> SearchReport:
    n = config.n
    marked = np.fromiter(config.marked, np.int64)  # every later reader takes this array as it is

    budget = math.isqrt(h_unique(n) - 1) + 1  # ceil(sqrt(H_unique))
    lattice, states = _walked_lattice((n, n), marked)
    P = lattice_walk("torus", lattice)
    estimator = estimate_effective_ht(P, states, pi=stationary(P), budget=budget)
    h_tilde = cap_estimate(estimator, n)

    layout = partition_torus(n, min(2 * math.ceil(4.0 * math.sqrt(h_tilde)), n))
    T_walk = grid_walk_steps(layout.base_side, config.constants)
    k_values = valid_k_values(n * n)
    blocks = _block_walks(layout, marked)
    per_k_success, walk_success, walk_of, walks = _per_k_table(blocks, T_walk, k_values)

    chosen_k = sample_outcome = None
    if not sweep:
        chosen_k = config.k if config.k is not None else int(np.random.default_rng(config.seed).choice(k_values))
        if config.sample:
            sample_outcome = _sample_vertex(layout, blocks, walks, T_walk, chosen_k, config.seed)
    return SearchReport(
        mode="sweep" if sweep else "single",
        config=config,
        layout=layout,
        estimator=estimator,
        h_tilde=h_tilde,
        T_walk=T_walk,
        k_values=tuple(k_values),
        per_k_success=tuple(per_k_success),
        blocks=tuple(blocks),
        walk_of=tuple(walk_of.tolist()),
        walk_success=tuple(map(tuple, walk_success.tolist())),
        chosen_k=chosen_k,
        sample_outcome=sample_outcome,
    )


def run_search(config: SearchConfig) -> SearchReport:
    """The eight-step search once: one k (given or drawn), one walk charged."""
    return _execute(config, sweep=False)


def run_k_sweep(config: SearchConfig) -> SearchReport:
    """All k in increasing order; success 1 - prod(1 - s_k), cost scaled by |k|; draws no sample."""
    if config.sample:
        raise ValueError("a k sweep draws no sample; sampling needs a single run")
    return _execute(config, sweep=True)


def verify_cost_bound(report: SearchReport, h_eff: float, constants: CalibrationConstants) -> dict:
    """The report's walk steps against c_bound * max(1, min(sqrt(H ln H), sqrt(N ln N))).

    The max(1, .) guard carries the additive constant that the order
    notation absorbs: instances with tiny effective hitting time still
    pay the constant-size sub-grid walk.
    """
    N = report.config.n * report.config.n
    h_branch = math.sqrt(h_eff * math.log(h_eff)) if h_eff > 1 else 0.0
    n_branch = math.sqrt(N * math.log(N))
    scale = max(1.0, min(h_branch, n_branch))
    bound = constants.c_bound * scale
    steps = report.steps
    return {
        "steps": steps,
        "scale": scale,
        "bound": bound,
        "ratio": steps / bound,
        "branch": "H" if h_branch <= n_branch else "N",
    }
