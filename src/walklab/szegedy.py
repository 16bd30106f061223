"""Bipartite-reflection quantum walks, exactly simulated on their invariant subspace.

A column-stochastic base chain B on N states induces pair-space frame
vectors phi_x = |x>|b_x> (b_x = column x) and their swap images
psi_y = SWAP phi_y.  The walk W = SWAP * (2 Pi_A - I), with Pi_A the
projector onto span{phi_x}, preserves span{phi} + span{psi}, so a state
is represented exactly by 2N frame coordinates (c, d) meaning
Phi c + Psi d.  One step maps (c, d) -> (-d, c + 2 D d) where
D = discriminant(B); the Gram matrix [[I, D], [D, I]] turns coordinates
back into physical inner products.  On the eigenbasis of D the walk
splits into 2x2 blocks with eigenvalues exp(+-i arccos(lambda_k)), the
phase correspondence that makes hitting-time quantities quadratically
accessible.

Expanding W^T G W - G by blocks leaves [[0, 0], [2 E, 2 E D]] with
E = D^T - D, so the walk is unitary in the Gram metric exactly when D
is symmetric.  discriminant makes it so by construction, and build_walk
checks on every walk that D and its transpose differ in no stored
entry, bit for bit, in one sparse comparison.

The module also houses detection by overlap decay, which reads the
frame walk's overlap with its start as the Chebyshev moment
sqrt(pi)^T T_t(D(P')) sqrt(pi) of spectral._ChebyshevCurve, finding via
the interpolated walks W(P(s)), the doubling estimator of the effective
hitting time with its budget cap, and its fallback h_unique.  No walk is
built on a modified chain: D(P') is markov.discriminant's restriction of
D(P), and every W(P(s)) is walked on D(P).  Finding
takes every estimate's s at once: D(P(s)) = S D(P) S + s Pi_M with S
diagonal, and the readout's column mass is (1 - s) m0 + s 1_M, from P's
marked column mass m0, so the marked mass needs d only on M and its
in-neighbours.  A route fills a history of those, and one marked_mass
call reads a block of time points, its length set by a byte budget;
walk_distribution walks one column of the same coordinates to the
vertex distribution a measured sample draws from.
The walk route advances all K walks with one product of D(P) with an
(N, K) block per time point; the Green route, which a cost rule picks
for few-mark blocks, walks the unmarked set's Green kernel from M's unit
columns once and then needs |S| numbers per estimate and time point.
A cost is a count of setups and of walk steps, each step one
update and one check; cost_ledger writes it out for a report.  The
estimator reads the absorbing walk's first-passage time at marked mass
3/4 from spectral._first_passage, and h_unique reads it at 2/3 from the
closed-form survival curve of the n-torus killed at vertex 0, which
the estimator of one vertex of that torus reads too.  Each answer is
certified by an error bound, or RuntimeError is raised.

The start state's pi and the products marked_mass reads are the
caller's: detection, finding and the estimator take pi as an argument,
and marked_mass takes the column mass and disc @ d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .markov import WalkMatrix, discriminant, marked_mask, restrict
from .lattice import _survival_curve
from .spectral import EFFECTIVE_HT_THRESHOLD, _ChebyshevCurve, _first_passage, _survival_passage

__all__ = [
    "SzegedyWalk",
    "EffectiveHtEstimate",
    "build_walk",
    "simulate_detection",
    "find_via_interpolation",
    "walk_distribution",
    "estimate_effective_ht",
    "cap_estimate",
    "cost_ledger",
    "h_unique",
]

ESTIMATOR_THRESHOLD = 0.75
# Bytes one (N, K) block of a finding walk may take; the estimates are
# walked in chunks of as many columns as fit: 4 at the 2^20 states of
# side 1024.
FIND_BLOCK_BYTES = 1 << 25


@dataclass(frozen=True)
class SzegedyWalk:
    """The two-reflection walk of a base chain, in frame coordinates.

    base: the chain whose columns define the frame.
    disc: discriminant of the base (drives both the step and the Gram).
    The walks of the modified chains P' and P(s) are read from those of
    P: their steps are D(P) scaled on the marked set, as in _find_block.
    """

    base: WalkMatrix
    disc: sp.csr_array

    def marked_mass(
        self,
        c: np.ndarray,
        d: np.ndarray,
        mask: np.ndarray,
        col_mass: tuple[np.ndarray, np.ndarray],
        *,
        disc_d: np.ndarray,
    ) -> float | np.ndarray:
        """Probability of measuring a marked first register: a float, or one per column of a block.

        The physical amplitude on basis state |x, y| is
        c_x sqrt(B[y,x]) + d_y sqrt(B[x,y]); summing squares over marked
        x gives three closed-form terms.  Both shared products are the
        caller's: col_mass, the column mass sum_{y in M} B[y, x] of the
        same mask as (support, sums) over the columns x where it is
        nonzero, computed once per walk, and disc_d = disc @ d, computed
        once per time point.  The third term
        sums d_x^2 only over that support: only the marked set's
        in-neighbours carry column mass, 384 of 16,384 columns for one
        row of the 128-torus.  mask selects the marked rows, as a
        boolean mask, their indices or a slice.  For (N, K) blocks the
        weights may be (support, K), one column per state.  The finding
        walk's readout passes a block of time points as a middle axis:
        c and disc_d on M and d on S, each (rows, B, K), mask and support
        slice(None), and weights (support, 1, K); it gets the (B, K)
        masses, each summed over the rows in the same order as alone.
        """
        cm = c[mask]
        support, weights = col_mass
        ds = d[support]
        dd = weights * ds
        dd *= ds
        mass = _sum_rows(cm * (cm + 2.0 * disc_d[mask])) + _sum_rows(dd, out=dd)
        return float(mass) if mass.ndim == 0 else mass


def _sum_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x summed over its first axis one row after another, its running sums in out if given.

    A column's sum then does not depend on how many columns x has:
    np.sum adds a lone column pairwise but the columns of a wider block
    row by row.
    """
    return np.cumsum(x, axis=0, out=out)[-1] if len(x) else np.zeros(x.shape[1:])


def build_walk(base: WalkMatrix) -> SzegedyWalk:
    """Construct the walk of a base chain and verify its unitarity.

    W^T G W - G = [[0, 0], [2 E, 2 E D]] with E = D^T - D, so the walk is
    unitary in the Gram metric exactly when the discriminant is
    symmetric.  discriminant takes sqrt(P[x, y] P[y, x]), and IEEE
    multiplication commutes, so D != D^T holds at no entry, bit for bit;
    any other discriminant raises RuntimeError.  D is canonical CSR, so
    it is symmetric exactly when its index and value arrays equal those
    of its transpose converted to CSR, the only copy made of a lattice's D.
    """
    disc = discriminant(base)
    flipped = disc.T.tocsr()
    if not all(np.array_equal(getattr(disc, a), getattr(flipped, a)) for a in ("indptr", "indices", "data")):
        raise RuntimeError("walk is not unitary: the discriminant is not symmetric")
    return SzegedyWalk(base=base, disc=disc)


def simulate_detection(
    P: WalkMatrix,
    marked: Iterable[int],
    T_q: int,
    pi: np.ndarray,
) -> float:
    """|<init|W(P')^T_q|init>| for the absorbing walk, from the stationary frame state.

    From (c, d) = (x, 0), t steps reach (-U_{t-2}(D) x, U_{t-1}(D) x) in
    Chebyshev polynomials of the second kind, and the Gram metric turns
    the overlap into x^T T_t(D) x with x = sqrt(pi) and D = D(P'), the
    moment mu_t of spectral._ChebyshevCurve: two moments per product.
    """
    if T_q < 0:
        raise ValueError("step count must be non-negative")
    Q = discriminant(P, absorbing=marked_mask(P.dim, marked))
    return abs(float(_ChebyshevCurve(Q, np.sqrt(pi)).moments(T_q)[T_q]))


def interpolation_parameter(eps_estimate: float) -> float:
    """s = 1 - eps_estimate/(1 - eps_estimate), clamped into [0, 1).

    At this s the interpolated chain's stationary distribution puts
    roughly half its mass on the marked set, which is what lets the walk
    rotate the plain stationary state onto the marked subspace.
    """
    if not (0.0 < eps_estimate < 1.0):
        raise ValueError("probability estimate must lie strictly between 0 and 1")
    s = 1.0 - eps_estimate / (1.0 - eps_estimate)
    return float(min(max(s, 0.0), 1.0 - 1e-9))


def find_via_interpolation(
    P: WalkMatrix,
    marked: Iterable[int],
    eps_estimates: Iterable[float],
    T: int,
    pi: np.ndarray,
    *,
    walk: SzegedyWalk | None = None,
) -> list[float]:
    """Success probabilities of the interpolated-walk finding scheme, one per estimate.

    For each estimate, W(P(s)) at s = interpolation_parameter(estimate)
    starts from the *base* chain's stationary frame state (the
    cheap-to-prepare state; the interpolated chain's own stationary
    state is the walk's fixed point and already marked-heavy, so starting
    there would beg the question), and the success is the exact average
    over t in {0..T-1} of the marked measurement mass of W^t|init> -- the
    success probability of measuring after a uniformly random number of
    steps.

    Every estimate is found at once from D0 = discriminant(P):
    build_walk(P) checks D0 once, and D(s) is symmetric exactly when D0
    is; a caller that holds that walk passes it as ``walk``.  The route
    is picked once, by _green_pays.  The walk route
    takes one product of D0 with an (N, K) block per step, so its
    estimates go in chunks of columns whose blocks fit FIND_BLOCK_BYTES;
    the Green route holds nothing of size N per estimate, so it takes
    every estimate in one chunk and builds its kernel once.  The walk
    route is exact for any start distribution pi; the Green route reads
    D0 sqrt(pi) = sqrt(pi), which holds when pi is P's stationary
    distribution, so a pi that D0 does not fix to 1e-12 relative keeps
    the walk.
    """
    if T < 1:
        raise ValueError("need at least one time point")
    mask = marked_mask(P.dim, marked)
    s = np.array([interpolation_parameter(eps) for eps in eps_estimates])
    if walk is None:
        walk = build_walk(P)
    rows = _readout_rows(walk, mask)
    green = _green_pays(P.dim, walk.disc.nnz, rows[0].size, int(mask.sum()), s.size, T)
    if green:
        x = np.sqrt(pi)
        green = np.allclose(walk.disc @ x, x, rtol=1e-12, atol=0.0)
    width = s.size if green else max(1, FIND_BLOCK_BYTES // (8 * P.dim))
    return [
        float(success)
        for start in range(0, s.size, width)
        for success in _find_block(walk, mask, rows, s[start:start + width], T, pi, green)
    ]


def _find_block(
    walk: SzegedyWalk,
    mask: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray],
    s: np.ndarray,
    T: int,
    pi: np.ndarray,
    green: bool,
) -> np.ndarray:
    """Time-averaged marked mass of W(P(s_k)) for each s_k of s, found on the base walk W(P).

    With D0 = walk.disc and S_k = diag(1 on U, sqrt(1 - s_k) on M),
    D(s_k) = S_k D0 S_k + s_k Pi_M for any chain.  Column k holds
    R_k (c, d), with R_k = diag(1/sqrt(1 - s_k) on U, 1 on M), and
    R_k D(s_k) R_k^-1 = A_k = (I - s_k Pi_M) D0 + s_k Pi_M.  From
    (c_0, d_0) = (R_k sqrt(pi), 0) a step is (c, d) -> (-d, c + 2 A_k d),
    so c_t = -d_{t-1} and d_{t+1} = 2 A_k d_t - d_{t-1}.  R_k leaves c, d
    and A_k d as they are on M, so marked_mass reads the physical mass
    once the column mass of each unmarked column is scaled by 1 - s_k.

    P(s_k)'s marked column mass is (1 - s_k) m0 + s_k on M and m0 off it,
    with m0 that of P; so the scaled one is (1 - s_k) m0 + s_k 1_M, a
    (support, K) block on S, the support of m0 plus M, which rows holds
    as _readout_rows gives it.  The readout thus needs d_t on S and
    A_k d_t on M only.  A route (_green_history if green, else
    _walk_history) fills a history of those, _readout_steps time points
    at a time, and one marked_mass call per history block adds the
    block's masses in time order.  The walk route is the per-step loop
    bit for bit; the Green route agrees with it to rounding.
    """
    keep = 1.0 - s
    support, m0 = rows
    marked = np.flatnonzero(mask)
    weights = (keep * m0[:, None] + s * mask[support, None])[:, None]
    within = np.searchsorted(support, marked)  # M's rows of the history
    steps = _readout_steps(support.size, marked.size, s.size)
    c_first = np.sqrt(pi[marked])[:, None]  # c_0 on M, where R_k is 1; then -d_{t-1} on M
    total = np.zeros(s.size)
    every = slice(None)
    for d, ad in (_green_history if green else _walk_history)(walk, support, marked, s, T, pi, steps):
        c = np.empty(ad.shape)
        c[0] = c_first
        np.negative(d[:-1, within], out=c[1:])
        c_first = -d[-1, within]
        mass = walk.marked_mass(
            c.transpose(1, 0, 2), d.transpose(1, 0, 2), every, (every, weights), disc_d=ad.transpose(1, 0, 2)
        )
        mass[0] += total
        total = _sum_rows(mass)
    return total / T


def walk_distribution(walk: SzegedyWalk, marked: Iterable[int], s: float, t: int, pi: np.ndarray) -> np.ndarray:
    """First-register distribution after t steps of W(P(s)) from the frame state (sqrt(pi), 0).

    walk is build_walk(P), the finding walk's own.  Walked on D0 =
    walk.disc in _find_block's coordinates R (c, d), R = diag(1/sqrt(1 - s)
    on U, 1 on M): c_0 = R sqrt(pi), d_0 = 0, and a step is
    (c, d) -> (-d, c + 2 A d) with A = (I - s Pi_M) D0 + s Pi_M.
    The distribution c^2 + 2 c D(P(s)) d + P(s) d^2 of the physical
    coordinates R^-1 (c, d) reads, with r^2 = 1 - s on U and 1 on M,
    r^2 (c^2 + 2 c A d) + (1 - s) P d^2 + s 1_M d^2, normalized.
    """
    P, mask = walk.base, marked_mask(walk.base.dim, marked)
    r2 = np.where(mask, 1.0, 1.0 - s)
    c, d, ad = np.sqrt(pi / r2), np.zeros(P.dim), np.zeros(P.dim)
    for _ in range(t):
        c, d = -d, c + 2.0 * ad
        ad = walk.disc @ d
        ad[mask] = (1.0 - s) * ad[mask] + s * d[mask]
    dd = d * d
    q = r2 * (c * c + 2.0 * c * ad) + (1.0 - s) * (P.mat @ dd) + np.where(mask, s * dd, 0.0)
    q = np.clip(q, 0.0, None)
    total = q.sum()
    if total <= 0:
        raise RuntimeError("zero-norm state has no measurement distribution")
    return q / total


def _readout_rows(walk: SzegedyWalk, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S, the support of P's marked column mass m0 together with M, and m0 on S: the rows the readout reads."""
    m0 = mask @ walk.base.mat
    support = np.flatnonzero((m0 != 0.0) | mask)
    return support, m0[support]


# Bytes a readout block's history may take: d_t on S and A d_t on M for
# each of its time points.  The readout's temporaries are a few times
# that, and a finding walk holds three (N, K) blocks besides.
READOUT_BYTES = 1 << 17


def _readout_steps(support: int, marked: int, K: int) -> int:
    """Time points per readout block: as many as fit READOUT_BYTES, at least one."""
    return max(1, READOUT_BYTES // max(1, 8 * K * (support + marked)))


def _walk_history(
    walk: SzegedyWalk, support: np.ndarray, marked: np.ndarray, s: np.ndarray, T: int, pi: np.ndarray, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """d_t on the rows support and A d_t on marked, for t < T, in blocks of up to steps time points.

    The three-term form of the frame step: one product of D0 with the
    (N, K) block per time point, whose marked rows are then scaled into
    A d_t, and d_{t+1} = 2 A d_t - d_{t-1}, from d_0 = 0 and
    d_{-1} = -c_0.  Yields views of two buffers it reuses.
    """
    keep = 1.0 - s
    d_prev = np.divide(-np.sqrt(pi)[:, None], np.sqrt(keep))
    d_prev[marked] = -np.sqrt(pi[marked])[:, None]
    d = np.zeros_like(d_prev)
    hd = np.empty((steps, support.size, s.size))
    ha = np.empty((steps, marked.size, s.size))
    for t in range(T):
        b = t % steps
        ad = walk.disc @ d
        np.take(d, support, axis=0, out=hd[b])
        am = ha[b]
        np.multiply(keep, ad[marked], out=am)
        am += s * d[marked]
        ad[marked] = am
        if b + 1 == steps or t + 1 == T:
            yield hd[:b + 1], ha[:b + 1]
        if t + 1 < T:
            ad *= 2.0
            ad -= d_prev
            d_prev, d = d, ad  # d_prev's old buffer is freed before the next product


def _green_history(
    walk: SzegedyWalk, support: np.ndarray, marked: np.ndarray, s: np.ndarray, T: int, pi: np.ndarray, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_walk_history's history from the Green kernel of the unmarked set, with no product of size N.

    Off M, A_k is D0, so with D_UU = D0 on U, c_0 = a_k x on U
    (x = sqrt(pi), a_k = 1/sqrt(1 - s_k)) and d_{-1} = -c_0, Duhamel's
    formula for d_{t+1} = 2 A_k d_t - d_{t-1} on U reads
        d_t[U] = a_k U_{t-1}(D_UU) x_U + sum_{tau < t} U_{t-1-tau}(D_UU) 2 D0[U, M] d_tau[M].
    One product of the kernel _green_kernel with the d_tau[M] so far
    gives d_t on S off M; d_t on M follows the walk's own recurrence,
    d_{t+1}[M] = 2 A_k d_t[M] - d_{t-1}[M], where A_k d_t on M reads d_t
    on S only.  No two large terms cancel: the terms of order a_k are
    all on U, and d on M never carries one.
    """
    keep = 1.0 - s
    nS, nM, K = support.size, marked.size, s.size
    within = np.searchsorted(support, marked)
    lags = nM + 1
    kernel = _green_kernel(walk.disc, support, marked, T, np.sqrt(pi)).reshape(nS, -1)
    sub = walk.disc[marked]  # D0 on M's rows, whose columns all lie in S
    coupling = np.zeros((nM, nS))  # D0[M, S]
    coupling[np.repeat(np.arange(nM), np.diff(sub.indptr)), np.searchsorted(support, sub.indices)] = sub.data
    h = np.zeros((T, lags, K))  # d_tau on M, then the coefficient of the x column
    h[0, nM] = 1.0 / np.sqrt(keep)
    flat = h.reshape(T * lags, K)
    hd = np.empty((steps, nS, K))
    ha = np.empty((steps, nM, K))
    prev = np.broadcast_to(-np.sqrt(pi[marked])[:, None], (nM, K))  # d_{-1} on M
    for t in range(T):
        b = t % steps
        yt, dm, am = hd[b], h[t, :nM], ha[b]
        np.matmul(kernel[:, (T - 1 - t) * lags:], flat[:t * lags], out=yt)
        yt[within] = dm
        np.matmul(coupling, yt, out=am)
        am *= keep
        am += s * dm
        if t + 1 < T:
            np.multiply(am, 2.0, out=h[t + 1, :nM])
            h[t + 1, :nM] -= prev
            prev = dm
        if b + 1 == steps or t + 1 == T:
            yield hd[:b + 1], ha[:b + 1]


def _green_kernel(disc: sp.csr_array, support: np.ndarray, marked: np.ndarray, T: int, x: np.ndarray) -> np.ndarray:
    """The kernel of _green_history: (|S|, T - 1, |M| + 1), lag j at position T - 2 - j.

    Column m < |M| holds U_j(D_UU) 2 D0[U, m] and the last column
    U_j(D_UU) x_U, read on the rows S (zero on M), with D_UU = D0 on
    the unmarked set U.  Each column m follows U_{j+1} = 2 D_UU U_j - U_{j-1}
    from U_0 = I, one length-N vector at a time (scipy's product with one
    vector costs half as much per column as with a block of two): T - 1
    products of D0, the first with e_m.  The last column needs no
    product: U_{j+1} - U_j = I - 2 (I - D_UU) sum_{i <= j} U_i, and
    2 (I - D_UU) x_U = sum_m x_m 2 D0[U, m] since D0 x = x for the
    square root x of a stationary pi, so its
    increments are x_U less the running sum of the other columns
    weighted by x_M.
    """
    N, nS, nM = disc.shape[0], support.size, marked.size
    kernel = np.empty((nS, max(T - 1, 0), nM + 1))
    mask = np.zeros(N, dtype=bool)
    mask[marked] = True
    twice = restrict(disc, mask)
    twice.data *= 2.0  # 2 D_UU
    for col in range(nM):
        g = np.zeros(N)
        g[marked[col]] = 1.0
        g = disc @ g
        g *= 2.0
        g[marked] = 0.0
        g_prev = None
        for j in range(T - 1):
            kernel[:, T - 2 - j, col] = g[support]
            if j + 2 < T:
                prod = twice @ g
                if g_prev is not None:
                    prod -= g_prev
                g_prev, g = g, prod
    x_U = np.where(mask, 0.0, x)[support]
    steps = np.empty((nS, max(T - 1, 0)))  # U_j x_U - U_{j-1} x_U, lag ascending, U_{-1} = 0
    steps[:, :1] = x_U[:, None]
    steps[:, 1:] = x_U[:, None] - np.cumsum(kernel[:, :0:-1, :nM] @ x[marked], axis=1)
    kernel[:, ::-1, nM] = np.cumsum(steps, axis=1)
    return kernel


def _green_pays(N: int, nnz: int, support: int, marked: int, K: int, T: int) -> bool:
    """Whether a finding walk takes the Green route: its modelled time is under 3/4 of the walk's.

    A function of N, nnz, |S|, |M|, K and T alone.  The model was fitted
    on one core to both routes, on grids of sides 8-128 with 1-8 marks
    and on thin lattices of 64-1,024 states:
      - walk: 26 us per time point, and 0.93 ns per stored entry of D0
        and estimate;
      - Green: 170 us and 5 ns per entry to set up, 10 us per time point,
        14 us and 0.93 ns per entry for each of the (T - 1) |M| kernel
        products, and 0.1 ns per multiply-add of T^2 |S| (|M| + 1) K.
    The margin keeps the walk where the two are close, as on search's
    thin lattices (measured Green/walk ratio 0.8-0.9).  A Green route
    whose kernel and history outgrow the walk's three (N, K) blocks is
    never taken.
    """
    products = (T - 1) * marked  # the kernel's
    walk = T * (26e3 + 0.93 * nnz * K)
    green = 170e3 + 5.0 * nnz + T * 10e3 + products * (14e3 + 0.93 * nnz) + 0.1 * T * T * support * (marked + 1) * K
    fits = 8 * T * (marked + 1) * (support + K) <= 24 * N * K
    return marked > 0 and fits and green < 0.75 * walk


def cost_ledger(setups: int, steps: int) -> dict:
    """A report's cost: setups, then steps walk steps of one update and one check each."""
    return {"setup_count": setups, "update_count": steps, "check_count": steps, "steps": steps}


def _probe_cost(T: int) -> int:
    return math.isqrt(T - 1) + 1  # ceil(sqrt(T)) for T >= 1


@dataclass(frozen=True)
class EffectiveHtEstimate:
    """Result of the doubling estimator: the estimate and the probes it paid for."""

    h_tilde: int | None
    probes: tuple[int, ...]

    @property
    def halted(self) -> bool:
        """The budget ran out before a probe passed."""
        return self.h_tilde is None

    @property
    def steps(self) -> int:
        """The probes' cost in walk steps: ceil(sqrt(T)) for the probe at T."""
        return sum(_probe_cost(T) for T in self.probes)

    def to_dict(self) -> dict:
        return {
            "h_tilde": self.h_tilde,
            "probes": list(self.probes),
            "halted": self.halted,
            "ledger": cost_ledger(1, self.steps),
        }


def estimate_effective_ht(
    P: WalkMatrix,
    marked: Iterable[int],
    *,
    pi: np.ndarray,
    budget: int,
) -> EffectiveHtEstimate:
    """Doubling search for a step count that absorbs 3/4 of the walk.

    Probes T = 1, 2, 4, ... for as long as their ceil(sqrt(T)) update+check
    pairs, the cost a quantum phase-estimation probe would pay, fit the
    budget together.  A probe passes when T steps of the absorbing chain,
    from pi conditioned on the unmarked states, reach marked mass
    >= ESTIMATOR_THRESHOLD.  Since that mass never decreases, the first
    passing probe is the first one at or past the first-passage time t,
    so one first passage up to the last affordable probe decides every
    probe; spectral._first_passage reads it, certified, or raises
    RuntimeError.  Returns the first passing T
    with the probes paid for up to it, or, when no affordable probe
    passes, h_tilde None (halted) with every affordable probe paid for.
    P may be any chain that carries the marked mass of the walk
    estimated: search passes the n x 1 torus walk, with the marked
    lines, when the marked set is whole rows or columns.
    """
    ladder, spent, T = [], 0, 1
    while spent + _probe_cost(T) <= budget:
        spent += _probe_cost(T)
        ladder.append(T)
        T *= 2
    mask = marked_mask(P.dim, marked)
    t = _first_passage(P, mask, pi, ESTIMATOR_THRESHOLD, ladder[-1] if ladder else 0)
    h_tilde = None if t is None else next(T for T in ladder if T >= t)
    return EffectiveHtEstimate(h_tilde, tuple(T for T in ladder if t is None or T <= h_tilde))


@lru_cache(maxsize=None)
def h_unique(n: int) -> int:
    """Effective hitting time of one marked vertex on the n-torus (cached).

    The universal fallback estimate: it grows as N log N and upper-bounds
    the effective hitting time of any nonempty marked set on the torus
    up to constants.

    Computed in closed form from the secular equation of the torus walk
    killed at vertex 0 (lattice._survival_curve, cached), where iterating
    the walk takes 59,138 steps at side 128, with no cap and no chain
    built.  A side where the curve's error bound does not certify the
    crossing raises RuntimeError at once: from side 2 to 1,100 these are
    784, 931, 937, 945, 972, 1081, 1090 and 1094, where iterating the
    walk instead would take about 3 million steps of the whole torus.
    """
    if n < 2:
        raise ValueError("torus needs n >= 2")
    t, certified = _survival_passage(_survival_curve("torus", (n, n), 0, 0), EFFECTIVE_HT_THRESHOLD, None)
    if not certified:
        raise RuntimeError(f"h_unique: the closed form cannot certify the crossing at torus side {n}")
    return t


def cap_estimate(estimate: EffectiveHtEstimate, n: int) -> int:
    """Resolve an estimator run into a usable step count for the n-torus.

    A halted run (budget exhausted) falls back to h_unique(n); a
    completed run returns its own estimate unchanged.
    """
    return h_unique(n) if estimate.halted else estimate.h_tilde
