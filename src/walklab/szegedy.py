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
hitting time with its budget cap, and its fallback h_unique.  Finding
walks every estimate's s at once: D(P(s)) = S D(P) S + s Pi_M with S
diagonal, so one product of D(P) with an (N, K) block per time point,
shared by the step and the readout, advances all K walks, and the
readout's column mass is (1 - s) m0 + s 1_M, from P's marked column
mass m0.  A cost is a count of setups and of walk steps, each step one
update and one check; cost_ledger writes it out for a report.  The
estimator reads the absorbing walk's first-passage time at marked mass
3/4 from spectral._first_passage, which finds it from Chebyshev moments
of the absorbing discriminant in about sqrt(t) products.  h_unique reads
it at 2/3 from the closed-form survival curve of the torus walk killed
at vertex 0: a rank-one change of the known torus spectrum, whose
eigenvalues are the roots of a secular equation (Golub 1973; Bunch,
Nielsen and Sorensen 1978).  Both curves give each value with an error
bound, and one search, spectral._crossing, finds the crossing on either
and certifies it; an answer it cannot certify raises RuntimeError, after
a second search in long double for the first passage.

The start state's pi and the products a loop shares between step and
marked_mass are the caller's: detection, finding and the estimator take
pi as an argument, and marked_mass takes the column mass and disc @ d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .lattice import torus_poles
from .markov import (
    WalkMatrix,
    discriminant,
    make_absorbing,
    marked_mask,
)
from .spectral import EFFECTIVE_HT_THRESHOLD, _ChebyshevCurve, _crossing, _first_passage

__all__ = [
    "SzegedyWalk",
    "EffectiveHtEstimate",
    "build_walk",
    "simulate_detection",
    "find_via_interpolation",
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
    """

    base: WalkMatrix
    disc: sp.csr_array

    @property
    def dim(self) -> int:
        return self.base.dim

    def initial_state(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|init> = sum_x sqrt(probs_x) phi_x, i.e. coordinates (sqrt(probs), 0)."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.dim,) or probs.min() < -1e-15:
            raise ValueError("initial distribution must be a length-N probability vector")
        return np.sqrt(np.clip(probs, 0.0, None)), np.zeros(self.dim)

    def step(
        self, c: np.ndarray, d: np.ndarray, *, disc_d: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One application of SWAP * (2 Pi_A - I) in frame coordinates: (-d, c + 2 disc @ d).

        c and d are length-N vectors, or (N, K) blocks of K states.  Loops
        that also read marked_mass at (c, d) pass disc_d = disc @ d to both
        calls, so the product is computed once per time point; the step
        then works in place: it writes the new state into the buffers of
        c and disc_d and returns them, and leaves d's buffer as it was.
        """
        if disc_d is None:
            return -d, c + 2.0 * (self.disc @ d)
        disc_d *= 2.0
        disc_d += c
        np.negative(d, out=c)
        return c, disc_d

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
        once per time point and passed to step as well.  The third term
        sums d_x^2 only over that support: only the marked set's
        in-neighbours carry column mass, 384 of 16,384 columns for one
        row of the 128-torus.  mask selects the marked rows, as a
        boolean mask or as their indices.  For (N, K) blocks the weights
        may be (support, K), one column per state.
        """
        cm = c[mask]
        support, weights = col_mass
        ds = d[support]
        mass = _sum_rows(cm * (cm + 2.0 * disc_d[mask])) + _sum_rows(weights * ds * ds)
        return float(mass) if mass.ndim == 0 else mass

    def vertex_distribution(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Measurement distribution of the first register."""
        q = c * c + 2.0 * c * (self.disc @ d) + self.base.mat @ (d * d)
        q = np.clip(q, 0.0, None)
        total = q.sum()
        if total <= 0:
            raise RuntimeError("zero-norm state has no measurement distribution")
        return q / total


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x summed over its first axis one row after another.

    A column's sum then does not depend on how many columns x has:
    np.sum adds a lone column pairwise but the columns of a wider block
    row by row.
    """
    return np.cumsum(x, axis=0)[-1] if len(x) else np.zeros(x.shape[1:])


def build_walk(base: WalkMatrix) -> SzegedyWalk:
    """Construct the walk of a base chain and verify its unitarity.

    W^T G W - G = [[0, 0], [2 E, 2 E D]] with E = D^T - D, so the walk is
    unitary in the Gram metric exactly when the discriminant is
    symmetric.  discriminant takes sqrt(P[x, y] P[y, x]), and IEEE
    multiplication commutes, so D != D^T holds at no entry, bit for bit;
    any other discriminant raises RuntimeError.  D is canonical CSR, so
    it is symmetric exactly when its index and value arrays equal those
    of its transpose converted to CSR.
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
    walk = build_walk(make_absorbing(P, marked))
    x, _ = walk.initial_state(pi)
    return abs(float(_ChebyshevCurve(walk.disc, x).moments(T_q)[T_q]))


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

    Every estimate is walked at once, with one product of D0 =
    discriminant(P) per step: build_walk(P) checks D0 once, and D(s) is
    symmetric exactly when D0 is.  The estimates go in chunks of columns
    whose (N, K) blocks fit FIND_BLOCK_BYTES (_find_block).
    """
    if T < 1:
        raise ValueError("need at least one time point")
    mask = marked_mask(P.dim, marked)
    s = np.array([interpolation_parameter(eps) for eps in eps_estimates])
    walk = build_walk(P)
    width = max(1, FIND_BLOCK_BYTES // (8 * P.dim))
    return [
        float(success)
        for start in range(0, s.size, width)
        for success in _find_block(walk, mask, s[start:start + width], T, pi)
    ]


def _find_block(walk: SzegedyWalk, mask: np.ndarray, s: np.ndarray, T: int, pi: np.ndarray) -> np.ndarray:
    """Time-averaged marked mass of W(P(s_k)) for each s_k of s, walked on the base walk W(P).

    With D0 = walk.disc and S_k = diag(1 on U, sqrt(1 - s_k) on M),
    D(s_k) = S_k D0 S_k + s_k Pi_M for any chain.  Column k holds
    R_k (c, d), with R_k = diag(1/sqrt(1 - s_k) on U, 1 on M), and
    R_k D(s_k) R_k^-1 = (I - s_k Pi_M) D0 + s_k Pi_M: a step is one
    product of D0 with the (N, K) block, whose marked rows are then
    scaled by 1 - s_k and given s_k d.  R_k leaves c, d and D(s_k) d as
    they are on M, so marked_mass reads the physical mass once the
    column mass of each unmarked column is scaled by 1 - s_k.

    P(s_k)'s marked column mass is (1 - s_k) m0 + s_k on M and m0 off it,
    with m0 that of P; so the scaled one is (1 - s_k) m0 + s_k 1_M, a
    (support, K) block on the support of m0 plus M.
    """
    keep = 1.0 - s
    m0 = mask @ walk.base.mat
    support = np.flatnonzero((m0 != 0.0) | mask)
    col_mass = support, keep * m0[support, None] + s * mask[support, None]
    marked = np.flatnonzero(mask)  # row indices gather faster than a mask
    c = np.repeat(np.sqrt(pi)[:, None], s.size, axis=1)
    c[~mask] /= np.sqrt(keep)
    d = np.zeros_like(c)
    total = np.zeros(s.size)
    for t in range(T):
        disc_d = walk.disc @ d
        disc_d[marked] = keep * disc_d[marked] + s * d[marked]
        total += walk.marked_mass(c, d, marked, col_mass, disc_d=disc_d)
        if t + 1 < T:
            c, d = walk.step(c, d, disc_d=disc_d)  # d's old buffer is freed for the next product
    return total / T


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
    probe; spectral._first_passage reads it from Chebyshev moments in
    about sqrt(t) products, and raises RuntimeError when their error
    bound cannot certify it.  Returns the first passing T
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


_EPS = float(np.finfo(np.float64).eps)
# Roots of the killed torus walk kept at each end of its spectrum; the
# rest are bounded, not solved.
SECULAR_ROOTS = 24
# Rational steps a root may take before h_unique gives the side up.
SECULAR_STEPS = 40


def _secular_sums(d: np.ndarray, m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k m_k/(d_k - x) and sum_k m_k/(d_k - x)^2 at every x, a block of poles at a time."""
    f, fp = np.zeros(x.size), np.zeros(x.size)
    for start in range(0, d.size, 8192):
        block = slice(start, start + 8192)
        inv = 1.0 / (d[block] - x[:, None])
        f += inv @ m[block]
        fp += (inv * inv) @ m[block]
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


def _survival_curve(n: int) -> _Survival | None:
    """Survival curve of the n-torus walk killed at vertex 0, from uniform on the rest.

    P = A/4 is symmetric and every Fourier vector has |v(0)|^2 = 1/N, so
    killing vertex 0 leaves, besides eigenvectors that vanish at 0 and
    are orthogonal to the start, one eigenvalue mu_j in each gap of the
    distinct eigenvalues lambda: the roots of sum_lambda m_lambda/(mu - lambda) = 0.
    The start uniform on the N - 1 other vertices puts weight
    w_j = N / ((N - 1)(1 - mu_j)^2 sum_lambda m_lambda/(mu_j - lambda)^2)
    on mu_j; every w_j > 0 and they sum to 1.  The SECULAR_ROOTS roots
    next to each end are solved in the distance from that end, so that
    mu^T = exp(T log1p(-distance)) keeps its precision; the rest are
    bounded.  None when a root does not converge.
    """
    top, bottom, mult = torus_poles(n)
    gaps = top.size - 1
    low = min(SECULAR_ROOTS, gaps // 2)
    high = min(SECULAR_ROOTS, gaps - low)
    upper = _secular_roots(top, mult, high)
    lower = _secular_roots(bottom[::-1], mult[::-1], low)
    if upper is None or lower is None:
        return None
    (x, fx), (y, fy) = upper, lower
    N = n * n
    weight = N / ((N - 1) * np.concatenate([x * x * fx, (2.0 - y) ** 2 * fy]))
    log_abs, negative = _log_abs(np.concatenate([x, y]))
    negative[high:] = ~negative[high:]  # mu = y - 1 at the lower end
    # the dropped roots lie between the innermost kept poles
    log_rho = _log_abs(np.array([top[high], bottom[gaps - low]]))[0].max() if high + low < gaps else -math.inf
    return _Survival(weight, log_abs, negative, float(log_rho), top.size)


@lru_cache(maxsize=None)
def h_unique(n: int) -> int:
    """Effective hitting time of one marked vertex on the n-torus (cached).

    The universal fallback estimate: it grows as N log N and upper-bounds
    the effective hitting time of any nonempty marked set on the torus
    up to constants.

    Computed in closed form from the secular equation of the torus walk
    killed at vertex 0 (_survival_curve), where iterating the walk takes
    59,138 steps at side 128; spectral._crossing reads it at 2/3, as
    _first_passage does, with no cap.  A side where the curve's error
    bound does not certify the crossing raises RuntimeError at once:
    from side 2 to 1,100 these are 784, 931, 937, 945, 972, 1081, 1090
    and 1094, where iterating the walk instead would take about 3
    million steps of the whole torus.
    """
    if n < 2:
        raise ValueError("torus needs n >= 2")
    curve = _survival_curve(n)
    t, certified = (None, False) if curve is None else _crossing(curve, 1.0 - EFFECTIVE_HT_THRESHOLD + 1e-12, None)
    if not certified:
        raise RuntimeError(f"h_unique: the closed form cannot certify the crossing at torus side {n}")
    return t


def cap_estimate(estimate: EffectiveHtEstimate, n: int) -> int:
    """Resolve an estimator run into a usable step count for the n-torus.

    A halted run (budget exhausted) falls back to h_unique(n); a
    completed run returns its own estimate unchanged.
    """
    return h_unique(n) if estimate.halted else estimate.h_tilde
