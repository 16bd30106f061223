"""Spectra of discriminants: hitting, escape, and extended hitting times.

The central objects are the discriminant D(P) of a reversible chain and
the discriminant of its absorbing counterpart.  D(P) is symmetric with
spectrum in [-1, 1]; for a chain reversible with respect to pi its top
eigenvector is sqrt(pi) with eigenvalue exactly 1.  Absorbing the marked
set M splits D(P') into an identity block on M and a strictly
sub-Perron unmarked block, and the classical expected absorption time
from the pi-conditioned unmarked start has the spectral form

    HT = sum_k  |<v'_k | U_pi>|^2 / (1 - lambda'_k)

over the unmarked-subspace eigenpairs.  An independent linear-solve
oracle for the same quantity, the 2/3-threshold step count, the escape
time of a unit vector, and the (1/eps) * escape-time representative of
the extended hitting time all live here, together with the
interpolated-walk limit that the extended hitting time is defined by.
The escape-type times are forms <g|(I - D)^+|g>, one sparse solve each;
only the absorbing sum above and the gap densify D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .markov import (
    WalkMatrix,
    discriminant,
    interpolate,
    make_absorbing,
    marked_mask,
    stationary,
)

__all__ = [
    "SpectralDecomposition",
    "HittingTimes",
    "decompose",
    "hitting_time_spectral",
    "hitting_time_linear",
    "effective_hitting_time",
    "escape_time",
    "escape_time_subset",
    "extended_hitting_time",
    "interpolated_hitting_time",
    "extended_hitting_time_limit",
    "analyze_instance",
]

RECONSTRUCTION_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-10
PERRON_TOL = 1e-10
# decompose refuses larger matrices (a 4096^2 float64 copy is already
# 134 MB); escape and extended hitting times are solves and have no limit.
DECOMPOSE_LIMIT = 4096
EFFECTIVE_HT_THRESHOLD = 2.0 / 3.0
DEFAULT_S_LIST = (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigendecomposition of a symmetric matrix, sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def gap(self) -> float:
        """delta = 1 - lambda_2 (meaningful when lambda_1 = 1)."""
        if self.eigenvalues.size < 2:
            return 1.0
        return float(1.0 - self.eigenvalues[1])


def decompose(D) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, validated and sorted descending.

    Raises if the reconstruction V diag(lambda) V^T strays from D by more
    than 1e-8 in any entry, or if the eigenvector matrix is not
    orthonormal to 1e-10.  D is densified once (CSR discriminants and
    plain arrays alike): dense eigh is the spectral oracle.  A matrix
    above DECOMPOSE_LIMIT states is refused before anything is densified.
    """
    D = sp.csr_array(D, dtype=np.float64)
    if D.shape[0] != D.shape[1]:
        raise ValueError("matrix must be square")
    if D.shape[0] > DECOMPOSE_LIMIT:
        raise ValueError(
            f"dense eigendecomposition of {D.shape[0]} states exceeds the limit "
            f"of {DECOMPOSE_LIMIT} states"
        )
    dense = D.toarray()
    if np.abs(dense - dense.T).max() > 1e-12:
        raise ValueError("matrix must be symmetric")
    vals, vecs = np.linalg.eigh(dense)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    recon = np.abs((vecs * vals[None, :]) @ vecs.T - dense).max()
    if recon > RECONSTRUCTION_TOL:
        raise RuntimeError(f"eigendecomposition reconstruction residual {recon:.3e}")
    ortho = np.abs(vecs.T @ vecs - np.eye(dense.shape[0])).max()
    if ortho > ORTHONORMALITY_TOL:
        raise RuntimeError(f"eigenvector orthonormality residual {ortho:.3e}")
    return SpectralDecomposition(vals, vecs)


def _stationary_probs(P: WalkMatrix, pi: np.ndarray | None) -> np.ndarray:
    if pi is not None:
        return np.asarray(pi, dtype=np.float64)
    return stationary(P).probs


def _unmarked_projection(pi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """|U_pi>: amplitudes sqrt(pi) restricted to unmarked states, renormalized."""
    eps_u = pi[~mask].sum()
    if eps_u <= 0:
        raise ValueError("unmarked set carries no stationary mass")
    u = np.where(mask, 0.0, np.sqrt(pi))
    return u / math.sqrt(eps_u)


def _spsolve(A: sp.csc_array, b: np.ndarray, singular: str) -> np.ndarray:
    """spsolve, raising RuntimeError(singular) where it would only warn of a singular matrix."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            return spla.spsolve(A, b)
        except spla.MatrixRankWarning as exc:
            raise RuntimeError(singular) from exc


def _escape_form(D: sp.csr_array, root: np.ndarray, g: np.ndarray, singular: str) -> float:
    """<g|(I - D)^+|g> for a symmetric D with unit kernel vector root of I - D.

    Projects g off root to h, grounds the state where root is largest
    (deletes its row and column of I - D) and solves the rest for x.  The
    solution padded with 0 at the grounded state solves (I - D) x = h
    exactly, since both sides are orthogonal to root, so h.x is the form.
    The grounded system is nonsingular exactly when eigenvalue 1 of D is
    simple; otherwise RuntimeError(singular).
    """
    h = g - root * (root @ g)
    keep = np.arange(D.shape[0]) != int(np.argmax(root))
    L = sp.eye_array(D.shape[0], format="csr") - D
    x = _spsolve(L[np.ix_(keep, keep)].tocsc(), h[keep], singular)
    return float(h[keep] @ x)


def hitting_time_spectral(P: WalkMatrix, marked: Iterable[int], pi: np.ndarray | None = None) -> float:
    """Expected absorption time via the spectrum of the absorbing discriminant.

    Decomposes D(P') for P' = make_absorbing(P, M) and sums
    |<v'_k|U_pi>|^2 / (1 - lambda'_k) over the N - |M| eigenpairs with
    |lambda'_k| < 1.  The |M| remaining eigenvalues must be 1 (the
    absorbed directions); any unmarked-subspace eigenvalue reaching 1
    means the marked set is unreachable from part of the chain.
    """
    mask = marked_mask(P.dim, marked)
    pi = _stationary_probs(P, pi)
    dec = decompose(discriminant(make_absorbing(P, np.flatnonzero(mask))))
    at_one = dec.eigenvalues >= 1.0 - PERRON_TOL
    n_marked = int(mask.sum())
    if at_one.sum() != n_marked:
        raise RuntimeError(
            f"expected {n_marked} unit eigenvalues in the absorbing discriminant, "
            f"found {int(at_one.sum())} (unmarked dynamics disconnected?)"
        )
    u = _unmarked_projection(pi, mask)
    ovl = (dec.eigenvectors.T @ u)[~at_one]
    lam = dec.eigenvalues[~at_one]
    return float(np.sum(ovl**2 / (1.0 - lam)))


def hitting_time_linear(P: WalkMatrix, marked: Iterable[int], pi: np.ndarray | None = None) -> float:
    """Independent oracle for the absorption time: a direct linear solve.

    t_x = expected steps to reach M from x satisfies (I - Q) t = 1 with
    Q the unmarked block of P^T; the result is the pi-conditioned
    unmarked average of t.
    """
    mask = marked_mask(P.dim, marked)
    pi = _stationary_probs(P, pi)
    unmarked = np.flatnonzero(~mask)
    Q = P.mat[np.ix_(unmarked, unmarked)].T.tocsc()
    A = sp.eye_array(unmarked.size, format="csc") - Q
    t = _spsolve(A, np.ones(unmarked.size), "marked set unreachable: absorption system singular")
    if not np.all(np.isfinite(t)) or t.min() < 0:
        raise RuntimeError("absorption-time solve produced invalid values")
    w = pi[unmarked]
    return float((w / w.sum()) @ t)


def effective_hitting_time(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray | None = None,
) -> int:
    """Smallest T with marked mass >= EFFECTIVE_HT_THRESHOLD (2/3) under the absorbing walk.

    The walk starts from pi conditioned on the unmarked states, and the
    iteration is capped at 100 * ceil(hitting_time_linear) -- generous,
    since the 2/3-threshold time is at most about three times the
    expectation.
    """
    mask = marked_mask(P.dim, marked)
    pi = _stationary_probs(P, pi)
    p = np.where(mask, 0.0, pi)
    p = p / p.sum()
    ht_lin = hitting_time_linear(P, np.flatnonzero(mask), pi)
    cap = 100 * max(1, math.ceil(ht_lin))
    op = make_absorbing(P, np.flatnonzero(mask)).mat
    for t in range(1, cap + 1):
        p = op @ p
        if p[mask].sum() >= EFFECTIVE_HT_THRESHOLD - 1e-12:
            return t
    raise RuntimeError(f"threshold {EFFECTIVE_HT_THRESHOLD} not reached within cap {cap}")


def escape_time(P: WalkMatrix, g: np.ndarray, pi: np.ndarray | None = None) -> float:
    """Escape time of a unit vector: sum over non-principal eigenpairs of D(P).

    E(g) = sum_{k>=2} |<v_k|g>|^2 / (1 - lambda_k) = <g|(I - D)^+|g>,
    computed by one sparse solve against the kernel vector sqrt(pi) of
    I - D rather than from the spectrum.  Equals 0 exactly when g is the
    principal eigenvector, is at least 1/2 for any g orthogonal to it,
    and never exceeds 1/gap.
    """
    g = np.asarray(g, dtype=np.float64)
    if abs(np.linalg.norm(g) - 1.0) > 1e-10:
        raise ValueError("escape time requires a unit vector")
    root = np.sqrt(_stationary_probs(P, pi))
    return _escape_form(discriminant(P), root, g, "no spectral gap: second eigenvalue at 1")


def escape_time_subset(P: WalkMatrix, subset: Iterable[int], pi: np.ndarray | None = None) -> float:
    """Escape time of |S_pi>, the pi-amplitude unit vector supported on S."""
    idx = np.unique(np.fromiter(subset, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= P.dim:
        raise ValueError("subset vertex out of range")
    if idx.size == P.dim:
        return 0.0
    pi = _stationary_probs(P, pi)
    eps = pi[idx].sum()
    if eps <= 0:
        raise ValueError("subset carries no stationary mass")
    g = np.zeros(P.dim)
    g[idx] = np.sqrt(pi[idx])
    g /= math.sqrt(eps)
    return escape_time(P, g, pi=pi)


def extended_hitting_time(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray | None = None,
) -> tuple[float, float]:
    """Representative of the extended hitting time, with its marked mass.

    Returns ((1/eps_M) * escape_time_subset(P, M), eps_M).  The first
    component matches the s -> 1 interpolated-walk limit up to fixed
    constants, and exactly reproduces the plain hitting time's scaling
    for singletons.
    """
    mask = marked_mask(P.dim, marked)
    pi = _stationary_probs(P, pi)
    eps = float(pi[mask].sum())
    value = escape_time_subset(P, np.flatnonzero(mask), pi=pi) / eps
    return value, eps


def interpolated_hitting_time(
    P: WalkMatrix,
    marked: Iterable[int],
    s: float,
    pi: np.ndarray | None = None,
) -> float:
    """Hitting time of the interpolated walk P(s) for 0 <= s < 1.

    The spectral absorption-time sum evaluated on the discriminant of
    P(s) itself rather than of the absorbing walk: with v_k(s),
    lambda_k(s) the non-principal eigenpairs of D(P(s)) and |U_pi> the
    unmarked projection of the *original* chain's stationary state,

        HT(s) = sum_{k >= 2} |<v_k(s)|U_pi>|^2 / (1 - lambda_k(s)).

    As s -> 1 the near-unit eigenvalues contribute finite terms and the
    value converges to the extended hitting time; at s = 1 those terms
    would leave the sum (the absorbing walk's unit eigenspace), which is
    exactly why the extended hitting time is defined as a limit.

    A sparse solve computes the sum as <U_pi|(I - D(P(s)))^+|U_pi>; the
    kernel vector is the square root of the fixed point of P(s): pi on
    unmarked and pi / (1 - s) on marked states, renormalized.
    """
    if not (0.0 <= s < 1.0):
        raise ValueError("interpolated hitting time defined for 0 <= s < 1")
    mask = marked_mask(P.dim, marked)
    pi = _stationary_probs(P, pi)
    P_s = interpolate(P, make_absorbing(P, np.flatnonzero(mask)), s)
    pi_s = np.where(mask, pi / (1.0 - s), pi)
    root = np.sqrt(pi_s / pi_s.sum())
    u = _unmarked_projection(pi, mask)
    return _escape_form(discriminant(P_s), root, u, "interpolated chain lost its spectral gap")


def extended_hitting_time_limit(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray | None = None,
) -> float:
    """Cross-check oracle: extrapolated s -> 1 limit of interpolated_hitting_time.

    Evaluates the interpolated hitting time on the ascending grid
    DEFAULT_S_LIST and extrapolates linearly in (1 - s) from the two
    largest values, which suffices because the quantity is rational in s
    near 1.  The sequence must be non-decreasing (within rounding); a
    genuinely non-monotone sequence signals numerical trouble.
    """
    pi = _stationary_probs(P, pi)
    values = [interpolated_hitting_time(P, marked, s, pi=pi) for s in DEFAULT_S_LIST]
    for a, b in zip(values, values[1:]):
        if b < a * (1.0 - 1e-9) - 1e-12:
            raise RuntimeError(
                f"interpolated hitting times not monotone: {a:.12g} then {b:.12g}"
            )
    e1, e2 = 1.0 - DEFAULT_S_LIST[-2], 1.0 - DEFAULT_S_LIST[-1]
    t1, t2 = values[-2], values[-1]
    slope = (t1 - t2) / (e1 - e2)
    return float(t2 - slope * e2)


@dataclass(frozen=True)
class HittingTimes:
    """Bundle of the five time scales of one (chain, marked set) instance."""

    ht: float
    ht_linear: float
    ht_eff: int
    eht: float
    escape: float
    eps_marked: float
    gap: float

    def __post_init__(self) -> None:
        if self.ht < 0 or self.ht_eff < 0:
            raise ValueError("hitting times cannot be negative")
        if abs(self.ht - self.ht_linear) > 1e-6 * max(1.0, self.ht):
            raise ValueError(
                f"spectral and linear hitting times disagree: {self.ht} vs {self.ht_linear}"
            )

    def to_dict(self) -> dict:
        return {
            "ht": self.ht,
            "ht_linear": self.ht_linear,
            "ht_eff": self.ht_eff,
            "eht": self.eht,
            "escape": self.escape,
            "eps_marked": self.eps_marked,
            "gap": self.gap,
        }


def analyze_instance(P: WalkMatrix, marked: Iterable[int], pi: np.ndarray | None = None) -> HittingTimes:
    """All time scales of one instance; the gap is the one base decomposition."""
    mask = marked_mask(P.dim, marked)
    idx = np.flatnonzero(mask)
    pi = _stationary_probs(P, pi)
    gap = decompose(discriminant(P)).gap
    escape = escape_time_subset(P, idx, pi=pi)
    eht, eps = extended_hitting_time(P, idx, pi=pi)
    return HittingTimes(
        ht=hitting_time_spectral(P, idx, pi=pi),
        ht_linear=hitting_time_linear(P, idx, pi=pi),
        ht_eff=effective_hitting_time(P, idx, pi=pi),
        eht=eht,
        escape=escape,
        eps_marked=eps,
        gap=gap,
    )
