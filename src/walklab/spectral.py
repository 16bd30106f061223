"""Spectra of discriminants: hitting, escape, and extended hitting times.

The central objects are the discriminant D(P) of a reversible chain and
the discriminant of its absorbing counterpart.  D(P) is symmetric with
spectrum in [-1, 1]; for a chain reversible with respect to pi its top
eigenvector is sqrt(pi) with eigenvalue exactly 1.  Absorbing the marked
set M splits D(P') into an identity block on M and a strictly
sub-Perron unmarked block, which is D(P)[U, U] entry for entry, and the
classical expected absorption time from the pi-conditioned unmarked
start has the spectral form

    HT = sum_k  |<v'_k | U_pi>|^2 / (1 - lambda'_k)

over the eigenpairs of that unmarked block.  The same sum is the
resolvent form <U_pi|(I - D(P)[U, U])^-1|U_pi>, one sparse solve, and
that is the hitting time analyze reports; hitting_time_linear, the
absorption system on P^T, is the route c01 checks it against.  The
2/3-threshold step count (the least t with <U_pi|D(P')^t|U_pi> <= 1/3
+ 1e-12, certified by an error bound in _crossing), the escape time
<g|(I - D)^+|g> (one sparse solve) and the extended hitting time's
representative escape/eps live here too.  The
hitting time of the interpolated walk P(s), whose s -> 1 limit HT+
defines the extended hitting time, is closed form in the escape time E
of M, so HT+ = E / ((1 - eps) eps) exactly, and analyze densifies
nothing.

On the torus and grid walks the spectrum is known in closed form, and
markov.lattice_walk records it on the chain (P.lattice).  Those walks
are symmetric, so D(P) is P's own matrix and D(P') one restrict pass
over it that writes the identity on M (markov.discriminant).  Given such
a chain and a uniform pi, the one its spectrum assumes, the escape form
is read from one FFT, and both hitting times from one absorption-time
vector h, certified by its residual on P itself
(_lattice_hitting_times): while |M|^2 <= N, h and the resolvent form
come from one factor of the marked set's Green block and one more FFT
pair; a larger set reads h from conjugate gradients on its unmarked
block (_absorption_cg), and the resolvent form is h's unmarked mean,
as the lattice walks are symmetric.  One vertex of any lattice reads
its step counts from the survival curve of the walk killed there
(Lattice.survival), any other set from Chebyshev moments of D(P') in
about sqrt(t) products (_first_passage).  So every caller takes one
route per number and chain, and no lattice job runs a sparse LU.  Other
chains, or pi, take the sparse solves (scipy.sparse.linalg is imported
only then) and the moments: the oracles of the lattice routes.

Every time scale is defined relative to the chain's stationary vector,
so every function here takes pi from its caller and never computes it:
the caller decides which pi a reported number uses (markov.stationary,
exactly uniform, for the lattice walks; the known vector of any other
chain) and computes it once per chain.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .lattice import _Survival
from .markov import WalkMatrix, discriminant, marked_mask, restrict

__all__ = [
    "HittingTimes",
    "hitting_time_resolvent",
    "hitting_time_linear",
    "effective_hitting_time",
    "escape_time",
    "escape_time_subset",
    "extended_hitting_time",
    "extended_hitting_time_limit",
    "analyze_instance",
]

EFFECTIVE_HT_THRESHOLD = 2.0 / 3.0
# HittingTimes' bound on the relative gap between ht and ht_linear.  On
# a lattice with |M|^2 <= N, ht is read from the Green block's factor and
# ht_linear from the absorption-time vector of the same factor, and they
# agreed within 5e-16 on tori and grids of sides 2-1024; past that both
# are the mean of one conjugate-gradient vector, so they are equal.  The
# sparse routes of other chains drift with N, by up to 3.0e-12 relative
# to the spectrum on torus:512 with one mark.
HT_ROUTES_TOL = 1e-9
# _lattice_hitting_times' bound on the residual of the absorption
# system, relative to 1 + max |h|, and the target of _absorption_cg.
# The Fourier h read at most 74 eps (1.6e-14) on tori and grids of sides
# 2-1024 with 1 to sqrt(N) marks (grid:1024 random:512:1), and 1-2 eps
# with one mark; a kernel off by 1e-6 relative leaves a residual of 1e-6.
ABSORPTION_RESIDUAL_TOL = 1e-12
# _first_passage cuts its Chebyshev series where the dropped binomial
# tail is at most CHEBYSHEV_TAIL.
CHEBYSHEV_TAIL = 1e-15


def _unmarked_projection(pi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """|U_pi>: amplitudes sqrt(pi) restricted to unmarked states, renormalized."""
    eps_u = pi[~mask].sum()
    if eps_u <= 0:
        raise ValueError("unmarked set carries no stationary mass")
    u = np.where(mask, 0.0, np.sqrt(pi))
    return u / math.sqrt(eps_u)


def _spsolve(A: sp.csc_array, b: np.ndarray, singular: str) -> np.ndarray:
    """spsolve, raising RuntimeError(singular) where it would only warn of a singular matrix.

    scipy.sparse.linalg, and scipy.linalg with it, is imported here and
    not with the module: only chains without a lattice spectrum, or with
    a pi other than uniform, solve, and the import adds about 10 MB and
    50 ms to a process.
    """
    import scipy.sparse.linalg as spla

    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            return spla.spsolve(A, b)
        except spla.MatrixRankWarning as exc:
            raise RuntimeError(singular) from exc


def _on_lattice(P: WalkMatrix, pi: np.ndarray) -> bool:
    """Whether P carries its lattice spectrum and pi is the uniform vector that spectrum assumes."""
    return P.lattice is not None and pi.min() == pi.max()


def hitting_time_resolvent(P: WalkMatrix, marked: Iterable[int], pi: np.ndarray) -> float:
    """The spectral absorption-time sum as a resolvent form: one sparse solve.

    Summing |<v'_k|U_pi>|^2 / (1 - lambda'_k) over the eigenpairs of
    D(P)[U, U] is <U_pi|(I - D(P)[U, U])^-1|U_pi> (the fundamental matrix
    on the unmarked states), so u.x with (I - D(P)[U, U]) x = u gives the
    sum with nothing densified or decomposed.  A singular system means
    the marked set is unreachable from part of the chain.  On a lattice
    chain with uniform pi it is _lattice_hitting_times' ht instead.
    """
    mask = marked_mask(P.dim, marked)
    if _on_lattice(P, pi):
        return _lattice_hitting_times(P, mask, pi)[0]
    unmarked = np.flatnonzero(~mask)
    u = _unmarked_projection(pi, mask)[unmarked]
    A = sp.eye_array(unmarked.size, format="csc") - discriminant(P)[np.ix_(unmarked, unmarked)].tocsc()
    x = _spsolve(A, u, "marked set unreachable: unmarked block is singular")
    return float(u @ x)


def hitting_time_linear(P: WalkMatrix, marked: Iterable[int], pi: np.ndarray) -> float:
    """Independent oracle for the absorption time: a direct linear solve.

    t_x = expected steps to reach M from x satisfies (I - Q) t = 1 with
    Q the unmarked block of P^T; the result is the pi-conditioned
    unmarked average of t.
    """
    mask = marked_mask(P.dim, marked)
    unmarked = np.flatnonzero(~mask)
    Q = P.mat[np.ix_(unmarked, unmarked)].T.tocsc()
    A = sp.eye_array(unmarked.size, format="csc") - Q
    t = _spsolve(A, np.ones(unmarked.size), "marked set unreachable: absorption system singular")
    if not np.all(np.isfinite(t)) or t.min() < 0:
        raise RuntimeError("absorption-time solve produced invalid values")
    w = pi[unmarked]
    return float((w / w.sum()) @ t)


def _absorption_residual(P: WalkMatrix, mask: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The residual of the absorption system on P: (I - P^T) h - 1 on U and h on M."""
    return np.where(mask, h, h - P.mat.T @ h - 1.0)


def _within_bound(residual: np.ndarray, h: np.ndarray) -> bool:
    """Whether a residual of h is within ABSORPTION_RESIDUAL_TOL of 1 + max |h|; never for NaN."""
    return bool(np.abs(residual).max() <= ABSORPTION_RESIDUAL_TOL * (1.0 + np.abs(h).max()))


def _absorption_cg(
    P: WalkMatrix, mask: np.ndarray, limit: int | None = None, *, disc: sp.csr_array | None = None
) -> np.ndarray:
    """The absorption-time vector h of mask, by conjugate gradients on (I - P_UU) h = 1 with h = 0 on M.

    P must be symmetric, as the lattice walks are, so that I - P_UU is
    positive definite.  Each step is one product of P restricted to U
    (markov.restrict) on vectors that vanish on M, from h = 1 on U,
    which is exact, with no step, when P_UU = 0 (halfchecker on the
    torus).  The recursive residual drifts from the true one, so h is
    returned only when its true residual (_absorption_residual, which
    _lattice_hitting_times certifies) is within the bound as well, and
    the iteration restarts from it otherwise.  Past limit steps, by
    default 2 |U|, RuntimeError is raised: exact CG needs at most |U|,
    and rounding took exactly |U| on grid:5 random:8:1.  The inner
    products are ufunc sums, so the BLAS thread count cannot move a bit.
    A caller that holds D(P') passes it as disc: for a symmetric P it is
    P_UU plus the identity on M, the same products on these vectors.
    """
    Q = restrict(P.mat, mask) if disc is None else disc
    limit = 2 * np.count_nonzero(~mask) if limit is None else limit
    h = (~mask).astype(np.float64)
    r = Q @ h  # 1 - (I - Q) h on U, 0 on M
    p, rr = r.copy(), np.multiply(r, r).sum()
    for step in range(limit + 1):
        if _within_bound(r, h):
            r = -_absorption_residual(P, mask, h)
            if _within_bound(r, h):
                return h
            p, rr = r.copy(), np.multiply(r, r).sum()
        if step == limit:
            break
        q = p - Q @ p
        alpha = rr / np.multiply(p, q).sum()
        h += alpha * p
        r -= alpha * q
        rr, previous = np.multiply(r, r).sum(), rr
        p = r + (rr / previous) * p
    raise RuntimeError(f"conjugate gradients on the absorption system did not converge in {limit} steps")


def _lattice_hitting_times(
    P: WalkMatrix, mask: np.ndarray, pi: np.ndarray, disc: sp.csr_array | None = None
) -> tuple[float, float]:
    """(ht, ht_linear) on a lattice chain with uniform pi, from one absorption-time vector h certified on P.

    While |M|^2 <= N, h and s = 1^T Z_MM^-1 1 come from one factor of
    the marked set's Green block (Lattice.absorption_times), and ht =
    N/((1 - eps) s).  A larger set reads h from conjugate gradients on
    its unmarked block (_absorption_cg), and ht is ht_linear: the
    lattice walks are symmetric, so D(P) = P, and with pi uniform the
    resolvent form <U_pi|(I - D(P)[U, U])^-1|U_pi> is the unmarked mean
    of h.  ht_linear is the pi-conditioned unmarked average of h either
    way.  h is certified against the chain with one product of P: the
    residual of (I - P^T) h = 1 on U and of h = 0 on M must stay within
    ABSORPTION_RESIDUAL_TOL of 1 + max |h|, or RuntimeError is raised.
    Only the caller's _on_lattice decides that the route applies.
    """
    idx = np.flatnonzero(mask)
    if idx.size ** 2 <= P.dim:
        h, s = P.lattice.absorption_times(idx)
        ht = float(P.dim / (pi[~mask].sum() * s))
    else:
        h, ht = _absorption_cg(P, mask, disc=disc), None
    residual = _absorption_residual(P, mask, h)
    if not _within_bound(residual, h):
        worst, scale = float(np.abs(residual).max()), 1.0 + float(np.abs(h).max())
        raise RuntimeError(f"lattice absorption times fail their residual check: {worst:.3e} "
                           f"against {ABSORPTION_RESIDUAL_TOL:g} x {scale:.6g}")
    w = pi[~mask]
    ht_linear = float((w * h[~mask]).sum() / w.sum())
    return (ht_linear if ht is None else ht), ht_linear


class _ChebyshevCurve:
    """S(t) = <u|Q^t|u> for a symmetric Q of spectral norm <= 1, from Chebyshev moments.

    x^t = sum_k Pr(Y_t = k) T_|k|(x) on [-1, 1], with Y_t a t-step +-1
    walk, so S(t) = sum_k Pr(Y_t = k) mu_|k| with mu_k = <u|T_k(Q)|u>.
    The sum is cut at degree d(t) = min(t, ceil(sqrt(2 t ln(2/delta)))),
    which drops Pr(|Y_t| > d) <= 2 exp(-d^2/2t) = delta = CHEBYSHEV_TAIL
    (Sachdeva and Vishnoi 2014, section 3), so S(t) costs about
    sqrt(t ln(1/delta)/2) products of Q, not t.  The moments come two per
    product and are kept from one t to the next: with v_j = T_j(Q) u,
    mu_2j = 2 |v_j|^2 - mu_0 and mu_2j+1 = 2 v_j.v_j+1 - mu_1.  The binomial
    weights come from their ratio recurrence out of the centre, normalised
    over the whole support.  For a unit u, each S(t) comes with an error
    bound: CHEBYSHEV_TAIL for the cut series, as |mu_k| <= 1, and
    (t + d^2 + N) eps for the rounding of the weights, the recurrence and
    the inner products over N states, eps that of u's dtype.  It bounds
    the arithmetic on the given Q and u, whose own entries are not
    rounded again.  In float64 a long-double run of the same arithmetic
    stayed within 3 % of that bound up to t = 300,000.
    """

    def __init__(self, Q: sp.csr_array, u: np.ndarray) -> None:
        self.Q = Q
        self.eps = float(np.finfo(u.dtype).eps)
        self.prev: np.ndarray | None = None
        self.cur = u
        self.mu = [u @ u]

    @staticmethod
    def degree(t: int) -> int:
        return min(t, math.ceil(math.sqrt(2 * t * math.log(2 / CHEBYSHEV_TAIL))))

    def moments(self, d: int) -> np.ndarray:
        """mu_0 .. mu_d, extending the recurrence by as many products as they need."""
        while len(self.mu) <= d:
            if self.prev is None:
                nxt = self.Q @ self.cur
                self.mu.append(self.cur @ nxt)
            else:
                nxt = 2.0 * (self.Q @ self.cur) - self.prev
                self.mu.append(2.0 * (self.cur @ nxt) - self.mu[1])
            self.mu.append(2.0 * (nxt @ nxt) - self.mu[0])
            self.prev, self.cur = self.cur, nxt
        return np.asarray(self.mu[: d + 1])

    def __call__(self, t: int) -> tuple[float, float]:
        d = self.degree(t)
        # w[j] = binom(t, j) / binom(t, c), the weight of Y_t = 2j - t, as
        # products of the ratios binom(t, j +- 1) / binom(t, j) out of c
        c = t // 2
        up = np.arange(c, t, dtype=self.cur.dtype)
        down = np.arange(c, 0, -1, dtype=self.cur.dtype)
        left, right = np.cumprod(down / (t - down + 1.0)), np.cumprod((t - up) / (up + 1.0))
        w = np.concatenate((left[::-1], [1.0], right))
        lo, hi = (t - d + 1) // 2, (t + d) // 2  # the j with |2j - t| <= d
        k = np.arange(t % 2, d + 1, 2)  # |2j - t| for j = lo .. hi: down to 0 or 1, then up
        k = np.concatenate((k[::-1], k[1 - t % 2 :]))
        s = (w[lo : hi + 1] @ self.moments(d)[k]) / w.sum()
        return s, CHEBYSHEV_TAIL + (t + d * d + self.Q.shape[0]) * self.eps


def _crossing(curve: Callable[[int], tuple[float, float]], bound: float, limit: int | None) -> tuple[int | None, bool]:
    """Least t <= limit with S(t) <= bound on a non-increasing curve t -> (S(t), error bound).

    Doubles t up to limit (without end for None) and bisects back, then
    certifies the answer alone: S(T - 1) - err > bound and S(T) + err <
    bound, or S(limit) - err > bound for None.  As S is monotone, a
    certified T is the exact least t.  Returns it with whether it is
    certified; the curve is read at most 2 ceil(log2 limit) + 2 times.
    """
    read = functools.cache(curve)
    lo, hi = 0, 1
    while read(hi)[0] > bound:
        if hi == limit:
            return None, read(hi)[0] - read(hi)[1] > bound
        lo, hi = hi, 2 * hi if limit is None else min(2 * hi, limit)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if read(mid)[0] > bound else (lo, mid)
    (above, above_err), (below, below_err) = read(hi - 1), read(hi)
    return hi, above - above_err > bound and below + below_err < bound


def _survival_passage(curve: _Survival | None, threshold: float, limit: int | None) -> tuple[int | None, bool]:
    """_crossing at _first_passage's bound on a survival curve; (None, False) where its roots did not converge."""
    return (None, False) if curve is None else _crossing(curve, 1.0 - threshold + 1e-12, limit)


def _first_passage(
    P: WalkMatrix, mask: np.ndarray, pi: np.ndarray, threshold: float, limit: int, disc: sp.csr_array | None = None
) -> int | None:
    """Least t <= limit with marked mass >= threshold (less 1e-12) under the absorbing walk.

    The walk starts from pi conditioned on the unmarked states; None when
    the threshold is not reached within limit steps.  P must be
    reversible with respect to pi, as every chain the package builds is.
    Then the unmarked mass after t steps is S(t) = <u|Q^t|u>, with Q =
    D(P') (disc, if the caller holds it) and u the unmarked projection of
    sqrt(pi), and S never increases: _crossing finds the least t with
    S(t) <= 1 - threshold + 1e-12 on the survival curve of a lattice
    chain with pi uniform and one mark, else, or uncertified there, on
    _ChebyshevCurve.  An exact tie lies 1e-12 inside that bound, less
    than the float64 error bound from about 4,500 states on, so the
    moments are searched again in long double (eps 2,048 times smaller
    on x86); an answer still uncertified raises RuntimeError.
    """
    if limit < 1:
        return None
    if _on_lattice(P, pi) and np.count_nonzero(mask) == 1:
        t, certified = _survival_passage(P.lattice.survival(int(np.argmax(mask))), threshold, limit)
        if certified:
            return t
    Q = discriminant(P, absorbing=mask) if disc is None else disc
    u = _unmarked_projection(pi, mask)
    for dtype in (np.float64, np.longdouble):
        curve = _ChebyshevCurve(Q.astype(dtype, copy=False), u.astype(dtype, copy=False))
        t, certified = _crossing(curve, 1.0 - threshold + 1e-12, limit)
        if certified:
            return t
    raise RuntimeError(f"the Chebyshev curve's error bound cannot certify the first passage "
                       f"to marked mass {threshold:.6g} near t = {limit if t is None else t}")


def effective_hitting_time(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray,
    *,
    ht: float | None = None,
    disc: sp.csr_array | None = None,
) -> int:
    """Smallest T with marked mass >= EFFECTIVE_HT_THRESHOLD (2/3) under the absorbing walk.

    From pi conditioned on the unmarked states, T is _first_passage's,
    capped at 100 * ceil(ht), ht = hitting_time_resolvent -- generous,
    since the 2/3-threshold time is at most about three times the
    expectation; an uncertified T raises RuntimeError.  A caller that
    already holds ht, or D(P'), passes it, and it is not computed again.
    """
    mask = marked_mask(P.dim, marked)
    if ht is None:
        ht = hitting_time_resolvent(P, np.flatnonzero(mask), pi)
    cap = 100 * max(1, math.ceil(ht))
    t = _first_passage(P, mask, pi, EFFECTIVE_HT_THRESHOLD, cap, disc)
    if t is None:
        raise RuntimeError(f"threshold {EFFECTIVE_HT_THRESHOLD} not reached within cap {cap}")
    return t


def escape_time(P: WalkMatrix, g: np.ndarray, pi: np.ndarray) -> float:
    """Escape time of a unit vector: sum over non-principal eigenpairs of D(P).

    E(g) = sum_{k>=2} |<v_k|g>|^2 / (1 - lambda_k) = <g|(I - D)^+|g>, by one
    sparse solve: h is g projected off root = sqrt(pi), the kernel of
    I - D, and x solves I - D with root's largest state grounded (row and
    column deleted).  Padded with 0 there, x solves (I - D) x = h, as both
    sides are orthogonal to root, so E = h.x.  The grounded system is
    singular exactly when eigenvalue 1 of D is not simple.  E is 0 exactly
    at the principal eigenvector, at least 1/2 orthogonal to it, at most 1/gap.
    On a lattice chain with uniform pi, the sum is read from one FFT of g
    instead (Lattice.escape).
    """
    g = np.asarray(g, dtype=np.float64)
    if abs(np.linalg.norm(g) - 1.0) > 1e-10:
        raise ValueError("escape time requires a unit vector")
    if _on_lattice(P, pi):
        return P.lattice.escape(g)
    root = np.sqrt(pi)
    h = g - root * (root @ g)
    keep = np.arange(P.dim) != int(np.argmax(root))
    L = sp.eye_array(P.dim, format="csr") - discriminant(P)
    x = _spsolve(L[np.ix_(keep, keep)].tocsc(), h[keep], "no spectral gap: second eigenvalue at 1")
    return float(h[keep] @ x)


def escape_time_subset(P: WalkMatrix, subset: Iterable[int], pi: np.ndarray) -> float:
    """Escape time of |S_pi>, the pi-amplitude unit vector supported on S.

    S is taken through a boolean mask, so repeated ids count once; the
    escape form is escape_time's.
    """
    idx = np.asarray(subset, dtype=np.int64) if isinstance(subset, np.ndarray) else np.fromiter(subset, np.int64)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= P.dim:
        raise ValueError("subset vertex out of range")
    mask = np.zeros(P.dim, dtype=bool)
    mask[idx] = True
    if mask.all():
        return 0.0
    eps = pi[mask].sum()
    if eps <= 0:
        raise ValueError("subset carries no stationary mass")
    g = np.where(mask, np.sqrt(pi), 0.0) / math.sqrt(eps)
    return escape_time(P, g, pi=pi)


def extended_hitting_time(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray,
    *,
    escape: float | None = None,
) -> tuple[float, float]:
    """Representative of the extended hitting time, with its marked mass.

    Returns ((1/eps_M) * escape_time_subset(P, M), eps_M).  The first
    component is (1 - eps_M) times extended_hitting_time_limit, and for a
    singleton (1 - eps_M) times the plain hitting time.  A caller that
    already holds the escape time passes it as ``escape``, and the escape
    form is not solved again.
    """
    mask = marked_mask(P.dim, marked)
    eps = float(pi[mask].sum())
    if escape is None:
        escape = escape_time_subset(P, np.flatnonzero(mask), pi=pi)
    return escape / eps, eps


def extended_hitting_time_limit(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray,
    *,
    escape: float | None = None,
) -> float:
    """Extended hitting time HT+: the s -> 1 limit of the interpolated walk's hitting time.

    The hitting time of P(s) is HT(s) = <U_pi|(I - D(P(s)))^+|U_pi>, with
    |U_pi> the unmarked projection of the original chain's stationary
    state.  I - D(P(s)) = S (I - D(P)) S with S = diag(1 on U, sqrt(1 - s)
    on M) leaves one direction of span{sqrt(pi_U), sqrt(pi_M)} off the
    kernel sqrt(pi), so with eps = pi(M) and E = escape_time_subset(P, M)

        HT(s) = eps E / ((1 - eps) ((1 - eps)(1 - s) + eps)^2),

    which increases in s to HT+ = E / ((1 - eps) eps), returned here.
    That is extended_hitting_time's representative over 1 - eps, and for
    a singleton the plain hitting time.  A caller that already holds E
    passes it as ``escape`` and nothing is solved.
    """
    mask = marked_mask(P.dim, marked)
    if pi[~mask].sum() <= 0:
        raise ValueError("unmarked set carries no stationary mass")
    eps = float(pi[mask].sum())
    if escape is None:
        escape = escape_time_subset(P, np.flatnonzero(mask), pi=pi)
    return escape / ((1.0 - eps) * eps)


@dataclass(frozen=True)
class HittingTimes:
    """Bundle of the five time scales of one (chain, marked set) instance.

    ht and ht_linear must agree within HT_ROUTES_TOL relative: the Green
    block against the absorption-time vector on a lattice while |M|^2 <=
    N (past it both are that vector's mean), the resolvent against the
    absorption LU elsewhere.
    """

    ht: float
    ht_linear: float
    ht_eff: int
    eht: float
    escape: float
    eps_marked: float

    def __post_init__(self) -> None:
        if self.ht < 0 or self.ht_eff < 0:
            raise ValueError("hitting times cannot be negative")
        if abs(self.ht - self.ht_linear) > HT_ROUTES_TOL * max(1.0, self.ht):
            raise ValueError(
                f"resolvent and linear hitting times disagree: {self.ht} vs {self.ht_linear}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_instance(P: WalkMatrix, marked: Iterable[int], pi: np.ndarray) -> HittingTimes:
    """All time scales of one instance, from the lattice spectrum where P has one, else sparse solves.

    ht is the resolvent form on D(P)[U, U] and ht_linear the average
    absorption time.  On a lattice chain with uniform pi the escape time
    is one FFT, and both hitting times come from the certified vector of
    _lattice_hitting_times; any other chain takes two sparse solves
    (hitting_time_resolvent, hitting_time_linear), which HittingTimes
    checks against each other.  Nothing is densified, and P is
    restricted at most once: D(P'), which ht_eff's moments read when |M|
    > 1, serves the conjugate gradients too.
    """
    mask = marked_mask(P.dim, marked)
    idx = np.flatnonzero(mask)
    escape = escape_time_subset(P, idx, pi=pi)
    eht, eps = extended_hitting_time(P, idx, pi=pi, escape=escape)
    disc = discriminant(P, absorbing=mask) if idx.size > 1 else None
    if _on_lattice(P, pi):
        ht, ht_linear = _lattice_hitting_times(P, mask, pi, disc)
    else:
        ht, ht_linear = hitting_time_resolvent(P, idx, pi=pi), hitting_time_linear(P, idx, pi=pi)
    return HittingTimes(
        ht=ht,
        ht_linear=ht_linear,
        ht_eff=effective_hitting_time(P, idx, pi=pi, ht=ht, disc=disc),
        eht=eht,
        escape=escape,
        eps_marked=eps,
    )
