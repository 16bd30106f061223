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

The module also houses the cost ledger (setup / update / check counts),
detection by overlap decay, finding via the interpolated walk, and the
doubling estimator of the effective hitting time with its budget cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .graphs import build_torus
from .markov import (
    WalkMatrix,
    discriminant,
    interpolate,
    make_absorbing,
    marked_mask,
    stationary,
    walk_from_graph,
)
from .spectral import effective_hitting_time

__all__ = [
    "CostLedger",
    "SzegedyWalk",
    "EffectiveHtEstimate",
    "build_walk",
    "simulate_detection",
    "interpolated_walk",
    "find_via_interpolation",
    "estimate_effective_ht",
    "cap_estimate",
    "h_unique",
]

UNITARITY_TOL = 1e-10
AUTO_VALIDATE_DIM = 256


@dataclass
class CostLedger:
    """Setup/update/check operation counts; total cost = S + steps * (U + C).

    Counts only ever increase.  Updates and checks are charged in
    lockstep (every walk step applies one update and one check), so
    ``steps`` is the common count.
    """

    setup_count: int = 0
    update_count: int = 0
    check_count: int = 0

    def charge_setup(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("cannot charge negative setups")
        self.setup_count += k

    def charge_steps(self, t: int) -> None:
        if t < 0:
            raise ValueError("cannot charge negative steps")
        self.update_count += t
        self.check_count += t

    @property
    def steps(self) -> int:
        return max(self.update_count, self.check_count)

    def total(self, unit_setup: float = 1.0, unit_update: float = 1.0, unit_check: float = 1.0) -> float:
        return (
            self.setup_count * unit_setup
            + self.update_count * unit_update
            + self.check_count * unit_check
        )

    def merge(self, other: "CostLedger") -> None:
        self.setup_count += other.setup_count
        self.update_count += other.update_count
        self.check_count += other.check_count

    def to_dict(self) -> dict:
        return {
            "setup_count": self.setup_count,
            "update_count": self.update_count,
            "check_count": self.check_count,
            "steps": self.steps,
        }


@dataclass(frozen=True)
class SzegedyWalk:
    """The two-reflection walk of a base chain, in frame coordinates.

    base: the chain whose columns define the frame.
    disc: discriminant of the base (drives both the step and the Gram).
    reducible: True when some frame vector coincides with its swap image
        (absorbing columns); harmless, the representation just carries
        redundant coordinates with a singular Gram.
    """

    base: WalkMatrix
    disc: sp.csr_array
    reducible: bool

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def frame_dim(self) -> int:
        return 2 * self.base.dim

    def initial_state(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|init> = sum_x sqrt(probs_x) phi_x, i.e. coordinates (sqrt(probs), 0)."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.dim,) or probs.min() < -1e-15:
            raise ValueError("initial distribution must be a length-N probability vector")
        return np.sqrt(np.clip(probs, 0.0, None)), np.zeros(self.dim)

    def step(self, c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One application of SWAP * (2 Pi_A - I) in frame coordinates."""
        return -d, c + 2.0 * (self.disc @ d)

    def inner(self, a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
        """Physical inner product <a|b> via the Gram matrix [[I, D], [D, I]]."""
        ca, da = a
        cb, db = b
        return float(ca @ cb + da @ db + ca @ (self.disc @ db) + da @ (self.disc @ cb))

    def norm(self, state: tuple[np.ndarray, np.ndarray]) -> float:
        return math.sqrt(max(0.0, self.inner(state, state)))

    def marked_column_mass(self, mask: np.ndarray) -> np.ndarray:
        """sum_{y in M} B[y, x] for every column x; constant along a walk."""
        B = self.base.mat
        hit = np.repeat(mask, np.diff(B.indptr))  # stored entries in marked rows
        return np.bincount(B.indices[hit], weights=B.data[hit], minlength=self.dim)

    def marked_mass(
        self,
        c: np.ndarray,
        d: np.ndarray,
        mask: np.ndarray,
        col_mass: np.ndarray | None = None,
    ) -> float:
        """Probability of measuring a marked first register.

        The physical amplitude on basis state |x, y| is
        c_x sqrt(B[y,x]) + d_y sqrt(B[x,y]); summing squares over marked
        x gives three closed-form terms.  Loops pass col_mass, the
        marked_column_mass of the same mask, to compute it only once.
        """
        cm = c[mask]
        cross = (self.disc @ d)[mask]
        if col_mass is None:
            col_mass = self.marked_column_mass(mask)
        return float(cm @ cm + 2.0 * (cm @ cross) + (d * d) @ col_mass)

    def vertex_distribution(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Measurement distribution of the first register."""
        q = c * c + 2.0 * c * (self.disc @ d) + self.base.mat @ (d * d)
        q = np.clip(q, 0.0, None)
        total = q.sum()
        if total <= 0:
            raise RuntimeError("zero-norm state has no measurement distribution")
        return q / total


def _gram_unitarity_residual(disc: np.ndarray) -> float:
    n = disc.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    W = np.block([[zero, -eye], [eye, 2.0 * disc]])
    G = np.block([[eye, disc], [disc, eye]])
    return float(np.abs(W.T @ G @ W - G).max())


def build_walk(base: WalkMatrix, validate: bool | None = None) -> SzegedyWalk:
    """Construct the walk of a base chain and optionally verify unitarity.

    Validation checks W^T G W = G (unitarity restricted to the frame
    span, in the Gram metric) to 1e-10; it runs automatically for small
    chains and can be forced or suppressed with the flag.
    """
    disc = discriminant(base)
    reducible = bool(np.any(disc.diagonal() >= 1.0 - 1e-12))
    walk = SzegedyWalk(base=base, disc=disc, reducible=reducible)
    if validate is None:
        validate = base.dim <= AUTO_VALIDATE_DIM
    if validate:
        resid = _gram_unitarity_residual(disc.toarray())
        if resid > UNITARITY_TOL:
            raise RuntimeError(f"walk unitarity residual {resid:.3e} exceeds tolerance")
    return walk


def simulate_detection(
    P: WalkMatrix,
    marked: Iterable[int],
    T_q: int,
    pi: np.ndarray | None = None,
    ledger: CostLedger | None = None,
) -> float:
    """|<init|W(P')^T_q|init>| for the absorbing walk, from the stationary frame state.

    An empty marked set is the no-absorption control: the walk is built
    from P itself and the overlap is 1 for every T_q since |init> is a
    fixed point.  The ledger is charged one setup and T_q steps.
    """
    if T_q < 0:
        raise ValueError("step count must be non-negative")
    marked = np.asarray(list(marked), dtype=np.int64)
    if pi is None:
        pi = stationary(P).probs
    base = P if marked.size == 0 else make_absorbing(P, marked)
    walk = build_walk(base)
    init = walk.initial_state(pi)
    if ledger is not None:
        ledger.charge_setup(1)
        ledger.charge_steps(T_q)
    c, d = init
    for _ in range(T_q):
        c, d = walk.step(c, d)
    return abs(walk.inner(init, (c, d)))


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


def interpolated_walk(
    P: WalkMatrix,
    marked: Iterable[int],
    eps_estimate: float,
    pi: np.ndarray,
) -> tuple[SzegedyWalk, tuple[np.ndarray, np.ndarray]]:
    """W(P(s)) at s = interpolation_parameter(eps_estimate), with its start state.

    The start is the *base* chain's stationary frame state (sqrt(pi), 0).
    """
    s = interpolation_parameter(eps_estimate)
    walk = build_walk(interpolate(P, make_absorbing(P, marked), s))
    return walk, walk.initial_state(pi)


def find_via_interpolation(
    P: WalkMatrix,
    marked: Iterable[int],
    eps_estimate: float,
    T: int,
    pi: np.ndarray | None = None,
    ledger: CostLedger | None = None,
) -> float:
    """Success probability of the interpolated-walk finding scheme.

    Builds W(P(s)) at s = interpolation_parameter(eps_estimate), starts
    from the *base* chain's stationary frame state (the cheap-to-prepare
    state; the interpolated chain's own stationary state is the walk's
    fixed point and already marked-heavy, so starting there would beg
    the question), and returns the exact average over t in {0..T-1} of
    the marked measurement mass of W^t|init> -- the success probability
    of measuring after a uniformly random number of steps.
    """
    if T < 1:
        raise ValueError("need at least one time point")
    mask = marked_mask(P.dim, marked)
    if pi is None:
        pi = stationary(P).probs
    walk, (c, d) = interpolated_walk(P, np.flatnonzero(mask), eps_estimate, pi)
    col_mass = walk.marked_column_mass(mask)
    if ledger is not None:
        ledger.charge_setup(1)
        ledger.charge_steps(T)
    total = 0.0
    for t in range(T):
        if t > 0:
            c, d = walk.step(c, d)
        total += walk.marked_mass(c, d, mask, col_mass)
    return float(total / T)


@dataclass(frozen=True)
class EffectiveHtEstimate:
    """Result of the doubling estimator: the estimate and what it cost."""

    h_tilde: int | None
    probes: tuple[int, ...]
    halted: bool
    ledger: CostLedger = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "h_tilde": self.h_tilde,
            "probes": list(self.probes),
            "halted": self.halted,
            "ledger": self.ledger.to_dict(),
        }


def estimate_effective_ht(
    P: WalkMatrix,
    marked: Iterable[int],
    pi: np.ndarray | None = None,
    budget: int | None = None,
    threshold: float = 0.75,
    max_doublings: int = 48,
) -> EffectiveHtEstimate:
    """Doubling search for a step count that absorbs 3/4 of the walk.

    Probes T = 1, 2, 4, ...; each probe evaluates exactly (by iterating
    the absorbing chain from the stationary distribution conditioned on
    unmarked states) whether T steps reach marked mass >= threshold, and
    charges ceil(sqrt(T)) update+check pairs -- the cost its quantum
    phase-estimation counterpart would pay.  Returns the first passing
    T.  With a budget, the search halts (h_tilde None, halted True) as
    soon as the next probe would push the charged steps past it.
    """
    mask = marked_mask(P.dim, marked)
    if pi is None:
        pi = stationary(P).probs
    p = np.where(mask, 0.0, pi)
    p = p / p.sum()
    op = make_absorbing(P, np.flatnonzero(mask)).mat
    ledger = CostLedger()
    ledger.charge_setup(1)
    probes: list[int] = []
    t_done = 0
    for i in range(max_doublings):
        T = 1 << i
        probe_cost = math.isqrt(T - 1) + 1  # ceil(sqrt(T)) for T >= 1
        if budget is not None and ledger.steps + probe_cost > budget:
            return EffectiveHtEstimate(None, tuple(probes), True, ledger)
        ledger.charge_steps(probe_cost)
        probes.append(T)
        while t_done < T:
            p = op @ p
            t_done += 1
        if float(p[mask].sum()) >= threshold - 1e-12:
            return EffectiveHtEstimate(T, tuple(probes), False, ledger)
    raise RuntimeError("doubling estimator exceeded the doubling cap")


@lru_cache(maxsize=None)
def h_unique(n: int) -> int:
    """Effective hitting time of one marked vertex on the n-torus (cached).

    The universal fallback estimate: it grows as N log N and upper-bounds
    the effective hitting time of any nonempty marked set on the torus
    up to constants.
    """
    P = walk_from_graph(build_torus(n))
    return effective_hitting_time(P, [0])


def cap_estimate(estimate: EffectiveHtEstimate, n: int) -> int:
    """Resolve an estimator run into a usable step count for the n-torus.

    A halted run (budget exhausted) falls back to h_unique(n); a
    completed run returns its own estimate unchanged.
    """
    if estimate.halted or estimate.h_tilde is None:
        return h_unique(n)
    return estimate.h_tilde
