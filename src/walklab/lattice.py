"""Closed-form spectra of the lattice walks: the h x w torus and the clamped grid.

The walk on the h x w torus moves to each of its four neighbours with
probability 1/4, so the Fourier mode (a, b) is an eigenvector with
eigenvalue (cos 2 pi a/h + cos 2 pi b/w)/2, and

    1 - lambda = sin^2(pi a/h) + sin^2(pi b/w),

computed in that form so that it keeps its relative precision near
lambda = 1.  The walk is symmetric and doubly stochastic, so its
discriminant is P itself and pi is uniform.

The clamped h x w grid is the 2h x 2w torus folded by its two
reflections r -> 2h - 1 - r and c -> 2w - 1 - c: a move off the grid's
edge lands on the mirror image of the vertex it left, and folds back
onto that vertex as the grid's self-loop.  A function on the grid lifts
to a reflection-symmetric one on the doubled torus, where the torus
walk acts as the grid walk does, and every grid vertex has 4 images.
So both lattice kinds use one FFT code path, and no DCT is needed.

On the torus (N states) the fundamental matrix Z = sum_t (P^t - 11^T/N)
is a convolution, Z(x, y) = z(x - y), with z the inverse FFT of
1/(1 - lambda) and its k = 0 entry set to zero (Aldous and Fill,
Reversible Markov Chains and Random Walks on Graphs, ch. 2); on the
grid Z(x, y) sums z(x - y') over the 4 images y' of y.  Two quantities
of the package follow:

- the escape time E(g) = <g|(I - D)^+|g> = sum_{k != 0} |g^_k|^2/(1 - lambda_k)
  of a unit vector g, with g^ its unitary Fourier transform, from one
  fft2 of g lifted to the torus;
- the expected hitting time of a marked set M from pi conditioned on
  the unmarked states, HT = N/((1 - eps) 1^T Z_MM^-1 1), from the
  |M| x |M| block of Z.

The spectral gap of either lattice (lattice_gap) and the distinct
eigenvalues of the torus walk (torus_poles, the poles of
szegedy.h_unique's secular equation) come from the same sin^2 form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Lattice", "lattice_gap", "torus_poles"]

# Eigenvalues closer than this, relative to their distance from the
# nearer end of [-1, 1], are one eigenvalue.  On sides up to 1,100, exact
# ties differ by rounding only, under 1e-15 in that measure, and distinct
# eigenvalues by at least 1.7e-12.
TIE_TOL = 1e-13


def _sin2(k, n: int):
    """sin^2(pi k/n): 1 - lambda of the n-cycle walk's mode k, doubled."""
    return np.sin(np.pi * k / n) ** 2


def lattice_gap(kind: str, n: int) -> float:
    """Spectral gap 1 - lambda_2 of the walk on the n-torus or the clamped n-grid.

    Each walk is the average of two one-axis walks, so lambda_2 =
    (1 + cos theta)/2 and the gap is sin^2(theta/2), where cos theta is
    the second eigenvalue of the one-axis walk: theta = 2 pi/n on the
    n-cycle, pi/n on the n-path with a self-loop at each end (the
    2n-cycle folded).
    """
    if kind not in ("torus", "grid"):
        raise ValueError(f"no closed-form gap for graph kind {kind!r}; expected torus or grid")
    return float(_sin2(1, n if kind == "torus" else 2 * n))


def torus_poles(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct eigenvalues of the n-torus walk, descending, with their multiplicities.

    The eigenvalue of the Fourier pair (a, b) is (cos 2 pi a/n + cos 2 pi b/n)/2.
    Each is returned as its distances 1 - lambda = sin^2(pi a/n) + sin^2(pi b/n)
    and 1 + lambda = cos^2(pi a/n) + cos^2(pi b/n) from the two ends of
    [-1, 1], which keep their relative precision where the slow roots
    lie.  Folding a and b to a <= b <= n//2 puts the sign and swap images
    into the multiplicity.
    """
    k = np.arange(n // 2 + 1)
    fold = np.where((k == 0) | (2 * k == n), 1, 2)
    a, b = np.triu_indices(k.size)
    mult = fold[a] * fold[b] * np.where(a == b, 1, 2)
    s, c = _sin2(k, n), np.cos(np.pi * k / n) ** 2
    top, bottom = s[a] + s[b], c[a] + c[b]
    upper = top <= bottom  # lambda >= 0: order by 1 - lambda, the rest by 1 + lambda
    order = np.concatenate([
        np.flatnonzero(upper)[np.argsort(top[upper], kind="stable")],
        np.flatnonzero(~upper)[np.argsort(-bottom[~upper], kind="stable")],
    ])
    top, bottom, mult = top[order], bottom[order], mult[order]
    scale = np.minimum(top, bottom)
    step = np.minimum(np.abs(np.diff(top)), np.abs(np.diff(bottom)))
    first = np.flatnonzero(np.r_[True, step > TIE_TOL * np.maximum(scale[:-1], scale[1:])])
    return top[first], bottom[first], np.add.reduceat(mult, first)


def _fold(d: np.ndarray, n: int) -> np.ndarray:
    """The representative in [0, n/2] of the displacements +-d mod n, where z reads the same."""
    d = d % n
    return np.minimum(d, n - d)


def _inverse_sum(A: np.ndarray) -> float:
    """1^T A^-1 1 for a symmetric positive definite A, by an outer-product Cholesky.

    With A = L L^T the sum is |y|^2 for L y = 1, and y is eliminated
    alongside L, column by column.  Every step is an elementwise ufunc,
    with no BLAS or LAPACK call, so the result does not depend on the
    BLAS thread count: np.linalg.solve on Z_MM of torus:512 random:512:1
    gave HT = 1553.7276954362837 at one OpenBLAS thread and ...835 at two.
    Only the lower triangle of A is read.
    """
    A = np.array(A, dtype=np.float64)
    b = np.ones(A.shape[0])
    y = np.empty_like(b)
    for k in range(A.shape[0]):
        if not A[k, k] > 0:
            raise RuntimeError("Green block is not positive definite")
        d = math.sqrt(A[k, k])
        col = A[k + 1:, k] / d
        y[k] = b[k] / d
        b[k + 1:] -= col * y[k]
        A[k + 1:, k + 1:] -= np.multiply.outer(col, col)
    return float((y * y).sum())


@dataclass(frozen=True)
class Lattice:
    """The h x w torus or clamped grid whose walk a chain is, read through its Fourier spectrum.

    Its methods take vectors and vertex ids in the graph's row-major
    order (vertex r * w + c at (r, c)), and assume the chain is the
    lattice walk of graphs.build_rect_torus or build_rect_grid.
    """

    kind: str
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if self.kind not in ("torus", "grid"):
            raise ValueError(f"no Fourier spectrum for graph kind {self.kind!r}; expected torus or grid")

    @cached_property
    def _inverse_gaps(self) -> np.ndarray:
        """1/(1 - lambda) on the torus the lattice is read on, 0 at k = 0."""
        h, w = self.shape
        if self.kind == "grid":
            h, w = 2 * h, 2 * w
        a, b = np.arange(h), np.arange(w)
        gaps = _sin2(np.minimum(a, h - a), h)[:, None] + _sin2(np.minimum(b, w - b), w)
        gaps[0, 0] = np.inf
        return 1.0 / gaps

    @cached_property
    def _kernel(self) -> np.ndarray:
        """z: the fundamental matrix of the torus walk as a function of x - y."""
        return np.fft.ifft2(self._inverse_gaps).real

    def _lift(self, g: np.ndarray) -> np.ndarray:
        """g as a function on the torus: itself, or its 4 reflections on the grid."""
        g = g.reshape(self.shape)
        if self.kind == "grid":
            g = np.concatenate((g, g[::-1]), axis=0)
            g = np.concatenate((g, g[:, ::-1]), axis=1)
        return g

    def escape(self, g: np.ndarray) -> float:
        """E(g) = sum_{k != 0} |g^_k|^2/(1 - lambda_k) for a unit vector g, from one FFT.

        On the grid the lift of a unit g has 4 images of each entry, so
        norm 2, and the sum is divided by 4: the escape time of the unit
        vector lift/2 on the torus.
        """
        F = np.fft.fft2(self._lift(np.asarray(g, dtype=np.float64)))
        power = F.real * F.real + F.imag * F.imag
        images = 1 if self.kind == "torus" else 4
        return float((power * self._inverse_gaps).sum() / (F.size * images))

    def green_block(self, idx: np.ndarray) -> np.ndarray:
        """Z[M, M], the fundamental matrix on the vertices idx, gathered from z.

        On the grid, a vertex (r', c') of idx has images at row offsets
        r - r' and r + r' + 1 (mod 2h) from (r, c), and the same on the
        columns; Z sums z over the 4.  Displacements are read through
        _fold, so the block is exactly symmetric.
        """
        z = self._kernel
        h, w = z.shape
        r, c = np.divmod(np.asarray(idx, dtype=np.int64), self.shape[1])
        rows, cols = [r[:, None] - r], [c[:, None] - c]
        if self.kind == "grid":
            rows.append(r[:, None] + r + 1)
            cols.append(c[:, None] + c + 1)
        return sum(z[_fold(dr, h), _fold(dc, w)] for dr in rows for dc in cols)

    def hitting_time(self, idx: np.ndarray, eps_unmarked: float) -> float:
        """HT = N/((1 - eps) 1^T Z_MM^-1 1) of the marked vertices idx, from pi conditioned on the rest.

        From a stationary start the marked set is hit after N/(1^T Z_MM^-1 1)
        steps on average, and the start lies in M with chance eps, where
        it takes none.  eps_unmarked is 1 - eps.
        """
        h, w = self.shape
        return float(h * w / (eps_unmarked * _inverse_sum(self.green_block(idx))))
