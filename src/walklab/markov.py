"""Column-stochastic walk matrices: building, restricting, and their discriminants.

The pipeline's chain layer: a torus or grid walk matrix is built from
its kind and shape alone, by one neighbour stencil, and carries the
lattice's spectrum (lattice.Lattice) for the spectral layer to read; the
fixed point and the discriminant are computed from it.  No modified
chain is ever built: the absorbing chain P' and the interpolated chains
P(s) are P with its marked rows and columns restricted or diagonally
scaled, so each caller reads what it needs of them from P and D(P), and
discriminant(P, absorbing=mask) is D(P'), one restrict pass over D(P).
The fixed point is a plain array: stationary checks that the chain is
doubly stochastic and returns the uniform vector, the pi that every
lattice walk in the package starts from.

Conventions used throughout the package:

* P is column-stochastic; entry P[y, x] is the probability of stepping
  from x to y, so distributions evolve as p' = P @ p and the fixed point
  satisfies P @ pi = pi.
* The discriminant of P is the symmetric matrix with entries
  sqrt(P[x, y] * P[y, x]); its spectral norm never exceeds 1 and, for a
  chain reversible with respect to pi, its top eigenvector is sqrt(pi).
  A lattice walk's is its own matrix, whose arrays are read-only.
* Every walk matrix is stored as one canonical scipy.sparse.csr_array:
  float64, indices sorted within rows, no duplicate and no explicit zero
  entries.  restrict's masking pass and scipy's entrywise product keep
  that form without a copy, so a 64-state block and a 16384-state torus
  take one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .lattice import Lattice

__all__ = [
    "COLUMN_SUM_TOL",
    "WalkMatrix",
    "lattice_walk",
    "stationary",
    "restrict",
    "discriminant",
    "marked_mask",
    "random_reversible_chain",
    "export_triplets",
]

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WalkMatrix:
    """A validated column-stochastic transition matrix.

    Attributes
    ----------
    mat : scipy.sparse.csr_array
        The matrix itself; column x holds the out-distribution of x.  Dense
        or sparse input is brought into canonical CSR on construction; an
        input that is canonical already is kept as it is.
    lattice : lattice.Lattice or None
        The torus or grid whose walk this is, set by lattice_walk alone;
        spectral reads escape and hitting times from its spectrum.
    """

    mat: sp.csr_array
    lattice: Lattice | None = None

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


def lattice_walk(kind: str, shape: tuple[int, int]) -> WalkMatrix:
    """The walk on the h x w torus or clamped grid, each of a vertex's four moves with probability 1/4.

    Every move has its reverse (a grid's clamped move is a self-loop),
    so P is symmetric and row y lists y's neighbours: the CSR is the
    sorted rows of Lattice.neighbours, 1/4 each.  WalkMatrix merges the
    repeats, the parallel moves of a side of 2 or 1 and the grid's
    boundary loops, into entries of 1/2 or more.  The chain carries
    Lattice(kind, shape), the one place a lattice spectrum is attached
    to a chain; its arrays are read-only, as D(P) shares them.
    """
    lattice = Lattice(kind, shape)
    table = np.sort(lattice.neighbours(), axis=1)
    n = table.shape[0]
    mat = sp.csr_array((np.full(table.size, 0.25), table.ravel(), 4 * np.arange(n + 1)), shape=(n, n))
    P = WalkMatrix(mat, lattice)
    for array in (P.mat.data, P.mat.indices, P.mat.indptr):
        array.setflags(write=False)
    return P


def marked_mask(dim: int, marked: Iterable[int]) -> np.ndarray:
    """Boolean mask of a marked set; must be a nonempty strict subset.

    An index array is read as it is; any other iterable is converted
    element by element.
    """
    mask = np.zeros(dim, dtype=bool)
    idx = np.asarray(marked, dtype=np.int64) if isinstance(marked, np.ndarray) else np.fromiter(marked, np.int64)
    if idx.size == 0:
        raise ValueError("marked set must be nonempty")
    if idx.min() < 0 or idx.max() >= dim:
        raise ValueError("marked vertex out of range")
    mask[idx] = True
    if mask.all():
        raise ValueError("marked set must be a strict subset of the states")
    return mask


def stationary(P: WalkMatrix) -> np.ndarray:
    """Fixed point of a doubly stochastic P: the uniform vector, exactly.

    Every lattice chain the package builds is 4-in/4-out regular,
    so its rows sum to 1 as its columns do and uniform is its fixed
    point.  n ||P u - u||_inf, the worst row-sum deviation from 1, must
    not exceed COLUMN_SUM_TOL; any other chain raises ValueError, as its
    fixed point is not uniform.
    """
    n = P.dim
    u = np.full(n, 1.0 / n)
    deviation = n * float(np.abs(P.mat @ u - u).max())
    if deviation > COLUMN_SUM_TOL:
        raise ValueError(
            f"stationary needs a doubly stochastic chain; rows sum to 1 only within {deviation:.3e}"
        )
    return u


def restrict(A: sp.csr_array, mask: np.ndarray, *, identity: bool = False) -> sp.csr_array:
    """A with every stored entry in a row or column of mask dropped, its N x N shape kept.

    With ``identity``, each row of mask holds one unit entry on the
    diagonal instead.  A canonical A gives a canonical result: the kept
    entries keep their order and no value changes.
    """
    keep = ~mask
    kept = np.flatnonzero(np.repeat(keep, np.diff(A.indptr)) & keep[A.indices])
    indptr = np.searchsorted(kept, A.indptr)
    if not identity:
        return sp.csr_array((A.data[kept], A.indices[kept], indptr), shape=A.shape)
    indptr[1:] += np.cumsum(mask)
    rows = np.flatnonzero(mask)
    slots = np.ones(indptr[-1], dtype=bool)  # where the kept entries go
    slots[indptr[rows]] = False
    data, indices = np.ones(slots.size), np.empty(slots.size, dtype=A.indices.dtype)
    data[slots] = A.data[kept]
    indices[slots] = A.indices[kept]
    indices[indptr[rows]] = rows
    return sp.csr_array((data, indices, indptr), shape=A.shape)


def discriminant(P: WalkMatrix, absorbing: np.ndarray | None = None) -> sp.csr_array:
    """Entrywise sqrt(P * P^T) as a canonical CSR: symmetric, spectral norm <= 1.

    A lattice chain is symmetric, so its discriminant is P.mat itself,
    whose arrays lattice_walk made read-only.  Any other chain takes
    scipy's entrywise product of P and its transpose, which stores no
    zero product, so entries whose transposed partner is zero drop out
    of the pattern.  Given a marked mask as ``absorbing``, it is D(P')
    of the absorbing chain P', whose marked columns are unit vectors: a
    product P'[x, y] P'[y, x] off the diagonal is nonzero only when x
    and y are both unmarked, so D(P') is D(P) restricted to the unmarked
    set with the identity on the marked one, and P' is never built.
    """
    if absorbing is not None:
        return restrict(discriminant(P), absorbing, identity=True)
    if P.lattice is not None:
        return P.mat
    D = P.mat.multiply(P.mat.T)
    D.data = np.sqrt(D.data)
    return D


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
    P = WalkMatrix(sym / colsums[None, :])
    pi = colsums / colsums.sum()
    return P, pi


def export_triplets(P: WalkMatrix) -> str:
    """Plain-text (row, col, value) listing of nonzero entries, row-major sorted."""
    coo = P.mat.tocoo()
    lines = [f"{r} {c} {v:.17g}" for r, c, v in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + "\n"
