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
grid Z(x, y) sums z(x - y') over the 4 images y' of y.  Three quantities
of the package follow:

- the escape time E(g) = <g|(I - D)^+|g> = sum_{k != 0} |g^_k|^2/(1 - lambda_k)
  of a unit vector g, with g^ its unitary Fourier transform, from one
  fft2 of g lifted to the torus;
- every vertex's expected time to reach a marked set M, c 1 - N Z[:, M] a,
  from one factor of the |M| x |M| block Z_MM and one FFT pair of a;
- the expected hitting time of M from pi conditioned on the unmarked
  states, HT = N/((1 - eps) 1^T Z_MM^-1 1), from the same factor.

A marked set of whole rows or columns is read on the thin h x 1
lattice of its lines (_walked_lattice), where every one of these
numbers is the full lattice's.

The spectral gap (Lattice.gap) comes from the same sin^2 form, and so
do the distinct eigenvalues with their weights at any one vertex.
Killing it perturbs the walk by rank one, so the killed walk's
eigenvalues are the roots of a secular equation with those poles (Golub
1973; Bunch, Nielsen and Sorensen 1978), and its survival curve from
uniform on the rest is closed form in them, with an error bound on
every value (Lattice.survival, which spectral._first_passage reads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["Lattice"]

# Eigenvalues closer than this, relative to their distance from the
# nearer end of [-1, 1], are one eigenvalue.  Against long double on sides
# up to 1,100, exact ties differ by at most 8.9e-16 in that measure (grid
# 642 x 642), and distinct eigenvalues by at least 1.7e-12 on square tori,
# 4.1e-13 on h x (h + 1) tori, 7.7e-13 on square grids, 1.3e-14 on
# h x (h + 1) grids (941 x 942) and 6.1e-6 on h x 1 lattices.
TIE_TOL = 3e-15


def _sin2(k, n: int):
    """sin^2(pi k/n): 1 - lambda of the n-cycle walk's mode k, doubled."""
    return np.sin(np.pi * k / n) ** 2


def _axis_modes(kind: str, L: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis's shares of 1 - lambda, of 1 + lambda and of N |v|^2 at coordinate r, per mode.

    The L-cycle's mode a takes sin^2(pi a/L), cos^2(pi a/L) and 1, a and
    L - a folded into one; the L-path's with end loops sin^2(pi a/2L),
    cos^2(pi a/2L) and L phi_a(r)^2 = 2 cos^2(pi a (2r + 1)/2L) (1 at a =
    0), dropped by the exact rule a (2r + 1) = L mod 2L where it vanishes.
    """
    if kind == "torus":
        k = np.arange(L // 2 + 1)
        return _sin2(k, L), np.cos(np.pi * k / L) ** 2, np.where((k == 0) | (2 * k == L), 1.0, 2.0)
    a = np.arange(L)
    m = a * (2 * r + 1) % (2 * L)
    a, m = a[m != L], m[m != L]
    return _sin2(a, 2 * L), np.cos(np.pi * a / (2 * L)) ** 2, np.where(a == 0, 1.0, 2.0 * np.cos(np.pi * m / (2 * L)) ** 2)


def _poles(kind: str, shape: tuple[int, int], r: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct eigenvalues of the lattice walk that weigh on vertex (r, c), descending, with their weights.

    Each is its distances 1 - lambda and 1 + lambda from the ends of
    [-1, 1], precise where the slow roots lie, and N |v(r, c)|^2 summed
    over its eigenspace: the modes tied within TIE_TOL.
    """
    (s1, c1, w1), (s2, c2, w2) = (_axis_modes(kind, L, x) for L, x in zip(shape, (r, c)))
    top, bottom, weight = (s1[:, None] + s2).ravel(), (c1[:, None] + c2).ravel(), (w1[:, None] * w2).ravel()
    upper = top <= bottom  # lambda >= 0: order by 1 - lambda, the rest by 1 + lambda
    order = np.concatenate([
        np.flatnonzero(upper)[np.argsort(top[upper], kind="stable")],
        np.flatnonzero(~upper)[np.argsort(-bottom[~upper], kind="stable")],
    ])
    top, bottom, weight = top[order], bottom[order], weight[order]
    scale = np.minimum(top, bottom)
    step = np.minimum(np.abs(np.diff(top)), np.abs(np.diff(bottom)))
    first = np.flatnonzero(np.r_[True, step > TIE_TOL * np.maximum(scale[:-1], scale[1:])])
    return top[first], bottom[first], np.add.reduceat(weight, first)


def _fold(d: np.ndarray, n: int) -> np.ndarray:
    """The representative in [0, n/2] of the displacements +-d mod n, where z reads the same."""
    d = d % n
    return np.minimum(d, n - d)


def _cholesky(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L with A = L L^T, in A's lower triangle, and y with L y = 1, by an outer-product Cholesky.

    y is eliminated alongside L, column by column.  Every step is an
    elementwise ufunc, with no BLAS or LAPACK call, so the result does
    not depend on the BLAS thread count: np.linalg.solve on Z_MM of
    torus:512 random:512:1 gave HT = 1553.7276954362837 at one OpenBLAS
    thread and ...835 at two.  Only the lower triangle of A is read.
    """
    A = np.array(A, dtype=np.float64)
    b = np.ones(A.shape[0])
    y = np.empty_like(b)
    for k in range(A.shape[0]):
        if not A[k, k] > 0:
            raise RuntimeError("Green block is not positive definite")
        d = math.sqrt(A[k, k])
        col = A[k + 1:, k] / d
        A[k, k], A[k + 1:, k] = d, col
        y[k] = b[k] / d
        b[k + 1:] -= col * y[k]
        A[k + 1:, k + 1:] -= np.multiply.outer(col, col)
    return A, y


def _back_substitute(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with L^T x = y, for the factor _cholesky leaves in L's lower triangle, by ufuncs alone.

    Column k of L^T is row k of L, so x[k] is settled from the last
    index down and then taken off the entries above it.
    """
    x = np.array(y, dtype=np.float64)
    for k in range(x.size - 1, -1, -1):
        x[k] /= L[k, k]
        x[:k] -= L[k, :k] * x[k]
    return x


@dataclass(frozen=True)
class Lattice:
    """The h x w torus or clamped grid whose walk a chain is, read through its Fourier spectrum.

    Its methods take vectors and vertex ids in row-major order (vertex
    r * w + c at (r, c)), and assume the chain is the lattice walk on
    its neighbours (markov.lattice_walk).
    """

    kind: str
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if self.kind not in ("torus", "grid"):
            raise ValueError(f"no Fourier spectrum for graph kind {self.kind!r}; expected torus or grid")
        if min(self.shape) < 1:
            raise ValueError(f"{self.kind} needs positive side lengths, not {self.shape}")

    def neighbours(self) -> np.ndarray:
        """(N, 4) int64 table: row v holds the vertices v's moves up, down, left and right reach.

        The torus wraps each move around its side, so a side of 2 makes
        the two moves along it coincide and a side of 1 turns both into
        self-loops; the grid clamps a move that would leave it, which
        loops back to v.
        """
        h, w = self.shape
        r, c = np.arange(h, dtype=np.int64)[:, None], np.arange(w, dtype=np.int64)
        if self.kind == "torus":
            up, down, left, right = (r - 1) % h, (r + 1) % h, (c - 1) % w, (c + 1) % w
        else:
            up, down = np.maximum(r - 1, 0), np.minimum(r + 1, h - 1)
            left, right = np.maximum(c - 1, 0), np.minimum(c + 1, w - 1)
        table = np.empty((h, w, 4), dtype=np.int64)
        table[..., 0], table[..., 1] = up * w + c, down * w + c
        table[..., 2], table[..., 3] = r * w + left, r * w + right
        return table.reshape(h * w, 4)

    @property
    def gap(self) -> float:
        """Spectral gap 1 - lambda_2 of the lattice walk.

        The walk is the average of two one-axis walks, so lambda_2 =
        (1 + cos theta)/2 and the gap is sin^2(theta/2), where cos theta
        is the second eigenvalue of the longer axis's walk: theta = 2 pi/n
        on the n-cycle, pi/n on the n-path with a self-loop at each end
        (the 2n-cycle folded).
        """
        n = max(self.shape)
        return float(_sin2(1, n if self.kind == "torus" else 2 * n))

    def survival(self, v: int) -> _Survival | None:
        """_survival_curve of vertex v: vertex 0's on the torus, and on the grid its mirror image's nearer (0, 0)."""
        h, w = self.shape
        r, c = divmod(v, w) if self.kind == "grid" else (0, 0)
        return _survival_curve(self.kind, self.shape, min(r, h - 1 - r), min(c, w - 1 - c))

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

    def absorption_times(self, idx: np.ndarray) -> tuple[np.ndarray, float]:
        """The expected steps to reach the vertices idx from each vertex, c 1 - N Z[:, M] a, and s = 1^T Z_MM^-1 1.

        With a = Z_MM^-1 1/s and c = N/s: since (I - P) Z = I - 11^T/N and
        1^T a = 1, (I - P) h = 1 off M, and Z_MM a = 1/s puts h = 0 on M.
        From a stationary start M is hit after N/s steps on average, and
        the start lies in M with chance eps, where it takes none, so the
        hitting time from pi conditioned on the rest is N/((1 - eps) s).
        s is |y|^2 for L y = 1 with Z_MM = L L^T, a comes from the same
        factor by back-substitution, and Z[:, M] a from one rfft2/irfft2
        pair of a lifted to the torus, read back on the lattice's own
        quadrant; no BLAS call either way.
        """
        h, w = self.shape
        N = h * w
        L, y = _cholesky(self.green_block(idx))
        s = float((y * y).sum())
        a = np.zeros(N)
        a[idx] = _back_substitute(L, y) / s
        lifted = self._lift(a)
        half = self._inverse_gaps[:, : lifted.shape[1] // 2 + 1]
        conv = np.fft.irfft2(np.fft.rfft2(lifted) * half, s=lifted.shape)[:h, :w]
        return (N / s - N * conv).ravel(), s


def _walked_lattice(
    shape: tuple[int, int], marked: tuple[int, ...]
) -> tuple[tuple[int, int], tuple[int, ...]]:
    """(lattice, marked states) that the walks of marked on an (h, w) lattice run on.

    When marked is a union of whole rows, the walks run on the h x 1
    lattice of the same kind with the marked rows; whole columns, on the
    w x 1 lattice with the marked columns.  The moves along a line are
    doubly stochastic, so the vectors constant along each line are
    invariant under the lattice chain, its absorbing and interpolated
    chains and their discriminants, and the start sqrt(pi) is one of
    them: the walks, their marked masses and every escape and hitting
    time read from that subspace are those of the chain lumped onto the
    lines, in exact arithmetic.  That chain is the thin lattice's, entry
    for entry, and its gap is the full lattice's, as the longer axis is
    kept.  Any other marked set walks the (h, w) lattice itself.
    """
    h, w = shape
    grid = np.zeros(h * w, dtype=bool)
    grid[np.asarray(marked, dtype=np.int64)] = True
    grid = grid.reshape(h, w)
    if (grid == grid[:, :1]).all():
        return (h, 1), tuple(np.flatnonzero(grid[:, 0]).tolist())
    if (grid == grid[:1, :]).all():
        return (w, 1), tuple(np.flatnonzero(grid[0]).tolist())
    return shape, marked


_EPS = float(np.finfo(np.float64).eps)
# Roots of a killed lattice walk kept at each end of its spectrum; the
# rest are bounded, not solved.
SECULAR_ROOTS = 24
# Rational steps a root may take before h_unique gives the side up.
SECULAR_STEPS = 40


def _secular_sums(d: np.ndarray, m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k m_k/(d_k - x) and sum_k m_k/(d_k - x)^2 at every x, a block of poles at a time.

    Each block takes one (x, poles) array, d_k - x, which turns into
    1/(d_k - x) and then its square in place: 133 us a call at side 128,
    against 350 us with a fresh array for each of the three.
    """
    f, fp = np.zeros(x.size), np.zeros(x.size)
    for start in range(0, d.size, 8192):
        block = slice(start, start + 8192)
        inv = np.subtract(d[block], x[:, None])
        np.reciprocal(inv, out=inv)
        f += inv @ m[block]
        inv *= inv
        fp += inv @ m[block]
    return f, fp


def _secular_roots(d: np.ndarray, mult: np.ndarray, gaps: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The root of sum_k m_k/(d_k - x) in each gap (d_i, d_{i+1}), i < gaps, of the ascending poles d.

    The sum rises from -inf to +inf across each gap, so it has one root
    there.  Each step replaces the poles left of the gap by
    one pole at d_i and those right of it by one at d_{i+1}, matched in
    value and slope at x (the fixed-weight secular step of
    Bunch-Nielsen-Sorensen), and moves to the root of that model, at most
    halfway to either pole.  Returns the roots with sum_k m_k/(d_k - x)^2
    at each, or None unless every step settles below 4 ulps within
    SECULAR_STEPS.
    """
    m = mult.astype(np.float64)
    left, right = d[:gaps], d[1:gaps + 1]
    x = (left + right) / 2
    near = np.arange(gaps + 1) <= np.arange(gaps)[:, None]  # poles at or left of each gap
    for _ in range(SECULAR_STEPS):
        f, fp = _secular_sums(d, m, x)
        inv = np.where(near, 1.0 / (d[:gaps + 1] - x[:, None]), 0.0)
        f_left, fp_left = inv @ m[:gaps + 1], (inv * inv) @ m[:gaps + 1]
        dl, dr = left - x, right - x
        const = f - fp_left * dl - (fp - fp_left) * dr
        # const + fp_left dl^2/(dl - t) + (fp - fp_left) dr^2/(dr - t) = 0, cleared of fractions
        b = const * (dl + dr) + fp_left * dl * dl + (fp - fp_left) * dr * dr
        q = b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * const * dl * dr * f, 0.0)), b)
        with np.errstate(divide="ignore", invalid="ignore"):
            small, large = 2.0 * dl * dr * f / q, q / (2.0 * const)
        t = np.where((small > dl) & (small < dr), small, large)
        t = np.clip(np.nan_to_num(t), dl / 2, dr / 2)
        if np.all(np.abs(t) <= 4.0 * _EPS * x):
            return x, fp
        x = x + t
    return None


def _log_abs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log |1 - x| and whether 1 - x < 0, for distances x in [0, 2] from an end of [-1, 1]."""
    beyond = x > 1.0
    with np.errstate(divide="ignore"):  # x = 1 is an eigenvalue 0: its powers vanish
        return np.log1p(np.where(beyond, x - 2.0, -x)), beyond


@dataclass(frozen=True)
class _Survival:
    """S(T) = sum_j w_j mu_j^T from the kept roots, with a bound on the rest.

    log_abs and negative give log |mu_j| and the sign of mu_j; the
    dropped roots carry weight 1 - sum w_j and have |mu| < exp(log_rho).
    """

    weight: np.ndarray
    log_abs: np.ndarray
    negative: np.ndarray
    log_rho: float
    poles: int

    def __call__(self, T: int) -> tuple[float, float]:
        """S(T) and a bound on its error.

        The error is the dropped roots' (1 - sum w) rho^T plus rounding,
        bounded by (T + poles) eps: T for the exponents, poles for the
        sums behind each weight.  Against a long-double iteration of the
        chain at sides 8-128 the error stayed under 8 % of that bound.
        """
        if T == 0:
            return 1.0, 0.0
        terms = self.weight * np.exp(T * self.log_abs)
        if T % 2:
            terms = np.where(self.negative, -terms, terms)
        dropped = max(0.0, 1.0 - float(self.weight.sum())) * math.exp(T * self.log_rho)
        return float(terms.sum()), dropped + (T + self.poles) * _EPS


@lru_cache(maxsize=64)
def _survival_curve(kind: str, shape: tuple[int, int], r: int, c: int) -> _Survival | None:
    """Survival curve of the lattice walk killed at vertex (r, c), from uniform on the rest, cached.

    P is symmetric, so killing one vertex is a rank-one change: besides
    eigenvectors that vanish there, orthogonal to the start, it leaves
    one eigenvalue mu_j in each gap of the poles lambda of _poles, with
    weights omega_lambda: the roots of sum_lambda omega_lambda/(mu -
    lambda) = 0.  The start uniform on the N - 1 other vertices puts weight
    w_j = N / ((N - 1)(1 - mu_j)^2 sum_lambda omega_lambda/(mu_j - lambda)^2)
    on mu_j; every w_j > 0 and they sum to 1.  The SECULAR_ROOTS roots
    next to each end are solved in the distance from that end, so that
    mu^T = exp(T log1p(-distance)) keeps its precision; the rest are
    bounded.  None when a root does not converge.
    """
    top, bottom, mult = _poles(kind, shape, r, c)
    gaps = top.size - 1
    low = min(SECULAR_ROOTS, gaps // 2)
    high = min(SECULAR_ROOTS, gaps - low)
    upper = _secular_roots(top, mult, high)
    lower = _secular_roots(bottom[::-1], mult[::-1], low)
    if upper is None or lower is None:
        return None
    (x, fx), (y, fy) = upper, lower
    N = math.prod(shape)
    weight = N / ((N - 1) * np.concatenate([x * x * fx, (2.0 - y) ** 2 * fy]))
    log_abs, negative = _log_abs(np.concatenate([x, y]))
    negative[high:] = ~negative[high:]  # mu = y - 1 at the lower end
    # the dropped roots lie between the innermost kept poles
    log_rho = _log_abs(np.array([top[high], bottom[gaps - low]]))[0].max() if high + low < gaps else -math.inf
    return _Survival(weight, log_abs, negative, float(log_rho), top.size)
