"""Column-stochastic walk matrices: building, absorbing, interpolating.

Conventions used throughout the package:

* P is column-stochastic; entry P[y, x] is the probability of stepping
  from x to y, so distributions evolve as p' = P @ p and the fixed point
  satisfies P @ pi = pi.
* The discriminant of P is the symmetric matrix with entries
  sqrt(P[x, y] * P[y, x]); its spectral norm never exceeds 1 and, for a
  chain reversible with respect to pi, its top eigenvector is sqrt(pi).
* Every walk matrix is stored as one canonical scipy.sparse.csr_array:
  float64, indices sorted within rows, no duplicate and no explicit zero
  entries.  The lattice chains have about four entries per column, and
  the operations below work on the CSR arrays (data, indices, indptr)
  directly, so a 64-state block and a 16384-state torus take one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .graphs import Graph

__all__ = [
    "COLUMN_SUM_TOL",
    "FIXED_POINT_TOL",
    "REVERSIBILITY_TOL",
    "WalkMatrix",
    "StationaryDistribution",
    "walk_from_graph",
    "stationary",
    "check_reversible",
    "check_ergodic",
    "make_absorbing",
    "interpolate",
    "interpolated_stationary",
    "discriminant",
    "marked_mask",
    "random_reversible_chain",
    "export_triplets",
]

COLUMN_SUM_TOL = 1e-12
FIXED_POINT_TOL = 1e-10
REVERSIBILITY_TOL = 1e-10


def _rows(mat: sp.csr_array) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))


@dataclass(frozen=True)
class WalkMatrix:
    """A validated column-stochastic transition matrix.

    Attributes
    ----------
    mat : scipy.sparse.csr_array
        The matrix itself; column x holds the out-distribution of x.  Dense
        or sparse input is brought into canonical CSR on construction; an
        input that is canonical already is kept as it is.
    kind : str
        "plain", "absorbing", or "interpolated" (bookkeeping only).
    s : float or None
        Interpolation parameter for kind "interpolated".
    """

    mat: sp.csr_array
    kind: str = "plain"
    s: float | None = None

    def __post_init__(self) -> None:
        mat = self.mat
        canonical = isinstance(mat, sp.csr_array) and mat.dtype == np.float64 and mat.has_canonical_format
        if not (canonical and mat.data.all()):
            mat = sp.csr_array(mat, dtype=np.float64, copy=True)
            mat.sum_duplicates()  # also sorts the indices of every row
            mat.eliminate_zeros()
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("walk matrix must be square")
        if (mat.data < -COLUMN_SUM_TOL).any():
            raise ValueError("walk matrix entries must be non-negative")
        object.__setattr__(self, "mat", mat)
        sums = np.bincount(mat.indices, weights=mat.data, minlength=mat.shape[1])
        worst = np.abs(sums - 1.0).max()
        if worst > COLUMN_SUM_TOL:
            raise ValueError(
                f"columns must sum to 1 within {COLUMN_SUM_TOL:g}; worst deviation {worst:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (a copy)."""
        return self.mat.toarray()

    def matvec(self, p: np.ndarray) -> np.ndarray:
        return self.mat @ p


@dataclass(frozen=True)
class StationaryDistribution:
    """Fixed point of a walk matrix, with its amplitude form sqrt(pi)."""

    probs: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.min() < 0:
            raise ValueError("stationary probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("stationary probabilities must sum to 1")
        object.__setattr__(self, "probs", probs)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.probs)

    def mass(self, states: Iterable[int]) -> float:
        idx = np.fromiter(states, dtype=np.int64)
        return float(self.probs[idx].sum()) if idx.size else 0.0


def walk_from_graph(graph: Graph) -> WalkMatrix:
    """Out-degree-normalized walk matrix of a directed multigraph.

    Column u gets weight multiplicity(u -> v) / outdeg(u) at row v; for
    the 4-regular lattice graphs every entry is a multiple of 1/4.
    """
    n = graph.n_vertices
    src = np.array([u for u, _ in graph.edges], dtype=np.int64)
    dst = np.array([v for _, v in graph.edges], dtype=np.int64)
    outdeg = np.bincount(src, minlength=n)
    if (outdeg == 0).any():
        raise ValueError("every vertex needs at least one outgoing edge")
    vals = 1.0 / outdeg[src]
    return WalkMatrix(sp.csr_array((vals, (dst, src)), shape=(n, n)), kind="plain")


def marked_mask(dim: int, marked: Iterable[int]) -> np.ndarray:
    """Boolean mask of a marked set; must be a nonempty strict subset."""
    mask = np.zeros(dim, dtype=bool)
    idx = np.fromiter(marked, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("marked set must be nonempty")
    if idx.min() < 0 or idx.max() >= dim:
        raise ValueError("marked vertex out of range")
    mask[idx] = True
    if mask.all():
        raise ValueError("marked set must be a strict subset of the states")
    return mask


def stationary(P: WalkMatrix, tol: float = 1e-12, max_iter: int = 200_000) -> StationaryDistribution:
    """Fixed point of P by damped power iteration.

    Iterates the lazy matrix (P + I)/2, which shares the fixed point but
    converges for periodic chains too (the even torus is bipartite).  The
    residual reported is ||P p - p||_inf for the original matrix; failure
    to meet tol within max_iter signals a chain without a unique,
    reachable fixed point.
    """
    n = P.dim
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        step = P.mat @ p
        res = np.abs(step - p).max()
        if res <= tol:
            return StationaryDistribution(np.maximum(step, 0.0) / step.sum(), float(res))
        p = 0.5 * (step + p)
    raise RuntimeError(
        f"power iteration did not reach residual {tol:g} in {max_iter} iterations "
        "(is the chain ergodic?)"
    )


def check_reversible(P: WalkMatrix, pi: np.ndarray, tol: float = REVERSIBILITY_TOL) -> tuple[bool, float]:
    """Detailed-balance check; returns (ok, worst violation of P[y,x] pi[x] = P[x,y] pi[y]).

    The flow difference F - F^T is antisymmetric and vanishes off the
    pattern of P + P^T, so its largest magnitude sits on a stored entry of P.
    """
    rows, cols = _rows(P.mat), P.mat.indices
    flow = P.mat.data * pi[cols]
    back = _transposed_values(P.mat) * pi[rows]
    worst = float(np.abs(flow - back).max())
    return worst <= tol, worst


def _period_of(adj_sets: list[set[int]], n: int) -> int:
    # gcd of (level[u] + 1 - level[v]) over edges u -> v, with BFS levels
    # from vertex 0; equals the chain period for strongly connected graphs.
    import math
    from collections import deque

    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    dq = deque([0])
    while dq:
        u = dq.popleft()
        for v in adj_sets[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                dq.append(v)
    g = 0
    for u in range(n):
        for v in adj_sets[u]:
            g = math.gcd(g, int(level[u] + 1 - level[v]))
    return g if g > 0 else 1


def check_ergodic(P: WalkMatrix) -> tuple[bool, str]:
    """(ergodic, reason).  Ergodic = strongly connected and aperiodic.

    Periodic but connected chains (every even-n torus) come back as
    (False, "periodic(...)"); downstream spectral code still accepts
    them and reports rather than refuses.
    """
    n = P.dim
    ncomp, _ = connected_components(P.mat, directed=True, connection="strong")
    if ncomp != 1:
        return False, f"not strongly connected ({ncomp} components)"
    coo = P.mat.tocoo()
    adj_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v, w in zip(coo.col, coo.row, coo.data):
        if w > 0:
            adj_sets[int(u)].add(int(v))
    period = _period_of(adj_sets, n)
    if period > 1:
        return False, f"periodic(period={period})"
    return True, "ergodic"


def make_absorbing(P: WalkMatrix, marked: Iterable[int]) -> WalkMatrix:
    """Replace each marked column with the corresponding unit vector.

    Idempotent: absorbing an already-absorbing matrix with the same set
    changes nothing.
    """
    mask = marked_mask(P.dim, marked)
    idx = np.flatnonzero(mask)
    keep = ~mask[P.mat.indices]
    rows = np.concatenate((_rows(P.mat)[keep], idx))
    cols = np.concatenate((P.mat.indices[keep], idx))
    vals = np.concatenate((P.mat.data[keep], np.ones(idx.size)))
    return WalkMatrix(sp.csr_array((vals, (rows, cols)), shape=P.mat.shape), kind="absorbing")


def interpolate(P: WalkMatrix, P_abs: WalkMatrix, s: float) -> WalkMatrix:
    """Convex combination (1 - s) P + s P_abs of a chain with its absorbing version."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"interpolation parameter s={s} outside [0, 1]")
    if P.dim != P_abs.dim:
        raise ValueError("dimension mismatch")
    A, B = P.mat, P_abs.mat
    rows = np.concatenate((_rows(A), _rows(B)))
    cols = np.concatenate((A.indices, B.indices))
    vals = np.concatenate(((1.0 - s) * A.data, s * B.data))
    mat = sp.csr_array((vals, (rows, cols)), shape=A.shape)
    return WalkMatrix(mat, kind="interpolated", s=float(s))


def interpolated_stationary(pi: np.ndarray, marked: Iterable[int], s: float) -> np.ndarray:
    """Fixed point of the interpolated chain, in closed form.

    Interpolation only rescales flow out of marked columns, so the fixed
    point is pi with unmarked mass damped by (1 - s) and renormalized:
    proportional to (1 - s) pi on unmarked states and pi on marked ones.
    At s = 1 - eps/(1 - eps) the marked mass becomes exactly 1/2.
    """
    pi = np.asarray(pi, dtype=np.float64)
    mask = marked_mask(pi.size, marked)
    out = np.where(mask, pi, (1.0 - s) * pi)
    total = out.sum()
    if total <= 0:
        raise ValueError("degenerate interpolated fixed point")
    return out / total


def _transposed_values(mat: sp.csr_array) -> np.ndarray:
    """mat[col, row] for every stored entry (row, col) of a canonical CSR; 0 if absent.

    Canonical storage order is ascending in the key row * n + col, so the
    partner of each entry is one binary search away, for any pattern.
    """
    n = mat.shape[0]
    rows, cols = _rows(mat), mat.indices.astype(np.int64)
    keys = rows * n + cols
    want = cols * n + rows
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[pos] == want, mat.data[pos], 0.0)


def discriminant(P: WalkMatrix) -> sp.csr_array:
    """Entrywise sqrt(P * P^T) as a canonical CSR: symmetric, spectral norm <= 1.

    Entries whose transposed partner is zero drop out of the pattern.
    """
    mat = P.mat
    vals = np.sqrt(mat.data * _transposed_values(mat))
    kept = vals > 0.0
    indptr = np.concatenate(([0], np.cumsum(kept)))[mat.indptr]
    return sp.csr_array((vals[kept], mat.indices[kept], indptr), shape=mat.shape)


def random_reversible_chain(n: int, rng: np.random.Generator) -> tuple[WalkMatrix, np.ndarray]:
    """Random reversible ergodic chain on n states, with its exact fixed point.

    Symmetrize a positive random matrix S and normalize columns; the
    chain P = S diag(1/colsum) is then reversible with respect to
    pi = colsums / sum(colsums), and positivity makes it ergodic.
    """
    if n < 2:
        raise ValueError("need at least two states")
    raw = rng.random((n, n)) + 0.05
    sym = 0.5 * (raw + raw.T)
    colsums = sym.sum(axis=0)
    P = WalkMatrix(sym / colsums[None, :], kind="plain")
    pi = colsums / colsums.sum()
    return P, pi


def export_triplets(P: WalkMatrix) -> str:
    """Plain-text (row, col, value) listing of nonzero entries, row-major sorted."""
    rows, cols, vals = _rows(P.mat), P.mat.indices, P.mat.data
    lines = [f"{r} {c} {v:.17g}" for r, c, v in zip(rows, cols, vals)]
    return "\n".join(lines) + "\n"
