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
is symmetric; build_walk checks that on every walk, in O(nnz).

The module also houses the cost ledger (setup / update / check counts),
detection by overlap decay, finding via the interpolated walk (one
discriminant product per time point, shared by the step and the
readout), the doubling estimator of the effective hitting time with its
budget cap, and its fallback h_unique, computed on the symmetry-reduced
torus chain.
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
    _rows,
    _transposed_values,
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
ESTIMATOR_THRESHOLD = 0.75
ESTIMATOR_MAX_DOUBLINGS = 48


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
        """One application of SWAP * (2 Pi_A - I) in frame coordinates.

        Loops that also read marked_mass at (c, d) pass disc_d = disc @ d
        to both calls, so the product is computed once per time point.
        """
        if disc_d is None:
            disc_d = self.disc @ d
        return -d, c + 2.0 * disc_d

    def inner(self, a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
        """Physical inner product <a|b> via the Gram matrix [[I, D], [D, I]]."""
        ca, da = a
        cb, db = b
        return float(ca @ cb + da @ db + ca @ (self.disc @ db) + da @ (self.disc @ cb))

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
        *,
        disc_d: np.ndarray | None = None,
    ) -> float:
        """Probability of measuring a marked first register.

        The physical amplitude on basis state |x, y| is
        c_x sqrt(B[y,x]) + d_y sqrt(B[x,y]); summing squares over marked
        x gives three closed-form terms.  Loops pass col_mass, the
        marked_column_mass of the same mask, to compute it only once, and
        disc_d = disc @ d, to share the product with step.
        """
        cm = c[mask]
        if disc_d is None:
            disc_d = self.disc @ d
        cross = disc_d[mask]
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


def _unitarity_residual(disc: sp.csr_array) -> float:
    """max |W^T G W - G| in closed form: 2 max(|E|, |E D|) with E = D^T - D.

    Zero, without any product, when every stored entry equals its
    transposed partner, i.e. when D is exactly symmetric.
    """
    if np.array_equal(disc.data, _transposed_values(disc)):
        return 0.0
    E = disc.T.tocsr() - disc
    return 2.0 * float(max(abs(E).max(), abs(E @ disc).max()))


def build_walk(base: WalkMatrix) -> SzegedyWalk:
    """Construct the walk of a base chain and verify its unitarity.

    Every walk is checked for W^T G W = G (unitarity restricted to the
    frame span, in the Gram metric) to 1e-10.  The residual is
    2 max(|D^T - D|, |(D^T - D) D|), so the check is equivalent to
    symmetry of the discriminant and costs O(nnz).
    """
    disc = discriminant(base)
    resid = _unitarity_residual(disc)
    if resid > UNITARITY_TOL:
        raise RuntimeError(f"walk unitarity residual {resid:.3e} exceeds tolerance")
    return SzegedyWalk(base=base, disc=disc)


def simulate_detection(
    P: WalkMatrix,
    marked: Iterable[int],
    T_q: int,
    pi: np.ndarray | None = None,
) -> float:
    """|<init|W(P')^T_q|init>| for the absorbing walk, from the stationary frame state.

    An empty marked set is the no-absorption control: the walk is built
    from P itself and the overlap is 1 for every T_q since |init> is a
    fixed point.
    """
    if T_q < 0:
        raise ValueError("step count must be non-negative")
    marked = np.asarray(list(marked), dtype=np.int64)
    if pi is None:
        pi = stationary(P).probs
    base = P if marked.size == 0 else make_absorbing(P, marked)
    walk = build_walk(base)
    init = walk.initial_state(pi)
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
    total = 0.0
    for t in range(T):
        disc_d = walk.disc @ d
        total += walk.marked_mass(c, d, mask, col_mass, disc_d=disc_d)
        if t + 1 < T:
            c, d = walk.step(c, d, disc_d=disc_d)
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
) -> EffectiveHtEstimate:
    """Doubling search for a step count that absorbs 3/4 of the walk.

    Probes T = 1, 2, ..., 2^(ESTIMATOR_MAX_DOUBLINGS - 1); each probe
    evaluates exactly (by iterating the absorbing chain from the
    stationary distribution conditioned on unmarked states) whether T
    steps reach marked mass >= ESTIMATOR_THRESHOLD, and
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
    for i in range(ESTIMATOR_MAX_DOUBLINGS):
        T = 1 << i
        probe_cost = math.isqrt(T - 1) + 1  # ceil(sqrt(T)) for T >= 1
        if budget is not None and ledger.steps + probe_cost > budget:
            return EffectiveHtEstimate(None, tuple(probes), True, ledger)
        ledger.charge_steps(probe_cost)
        probes.append(T)
        while t_done < T:
            p = op @ p
            t_done += 1
        if float(p[mask].sum()) >= ESTIMATOR_THRESHOLD - 1e-12:
            return EffectiveHtEstimate(T, tuple(probes), False, ledger)
    raise RuntimeError("doubling estimator exceeded the doubling cap")


def _torus_orbits(n: int) -> np.ndarray:
    """Orbit index of every n-torus vertex under the 8 symmetries fixing vertex 0.

    The symmetries are (r, c) -> (+-r, +-c) and the swap of r and c, so
    the orbit key is the sorted folded pair (min(r, n-r), min(c, n-c)).
    Orbits are numbered in key order: vertex 0 is alone in orbit 0.
    """
    fold = np.minimum(np.arange(n), n - np.arange(n))
    r, c = np.meshgrid(fold, fold, indexing="ij")
    key = np.minimum(r, c) * n + np.maximum(r, c)
    return np.unique(key.ravel(), return_inverse=True)[1]


def _lump(P: WalkMatrix, orbit: np.ndarray) -> WalkMatrix:
    """P lumped onto the classes orbit[x]: the chain of the class masses.

    Column O is the out-distribution of O's first member, summed by
    target class.  Raises unless every state's summed out-distribution
    equals its representative's exactly (lumpability), the condition
    under which the lumped chain carries the class masses of P.
    """
    mat = P.mat
    mass = sp.csc_array((mat.data, (orbit[_rows(mat)], mat.indices)), shape=(orbit.max() + 1, P.dim))
    rep = np.unique(orbit, return_index=True)[1]
    if (mass - mass[:, rep[orbit]]).count_nonzero():
        raise ValueError("chain is not lumpable onto the given classes")
    return WalkMatrix(mass[:, rep], kind="plain")


@lru_cache(maxsize=None)
def h_unique(n: int) -> int:
    """Effective hitting time of one marked vertex on the n-torus (cached).

    The universal fallback estimate: it grows as N log N and upper-bounds
    the effective hitting time of any nonempty marked set on the torus
    up to constants.

    The absorbing chain with vertex 0 marked, and its start (pi
    conditioned on the unmarked states), are invariant under the 8
    lattice symmetries that fix vertex 0, so the marked mass at every
    step is that of the torus walk lumped onto their orbits.  That chain
    has (n//2 + 1)(n//2 + 2)/2 states (2,145 at n = 128, against 16,384)
    and starts from orbit size / N.
    """
    orbit = _torus_orbits(n)
    Q = _lump(walk_from_graph(build_torus(n)), orbit)
    return effective_hitting_time(Q, [0], pi=np.bincount(orbit) / orbit.size)


def cap_estimate(estimate: EffectiveHtEstimate, n: int) -> int:
    """Resolve an estimator run into a usable step count for the n-torus.

    A halted run (budget exhausted) falls back to h_unique(n); a
    completed run returns its own estimate unchanged.
    """
    if estimate.halted or estimate.h_tilde is None:
        return h_unique(n)
    return estimate.h_tilde
