"""Oracles that more than one test module shares.

A plain module rather than conftest fixtures, because module-level
helpers in the tests (the orbit chain of test_szegedy) call them.
"""

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from walklab.markov import WalkMatrix, interpolate, marked_mask
from walklab.spectral import _unmarked_projection, escape_time
from walklab.szegedy import SzegedyWalk, build_walk, interpolation_parameter


def absorbing(P: WalkMatrix, marked: Iterable[int]) -> WalkMatrix:
    """Oracle: the absorbing chain P', built column by column from a dense copy of P.

    Each marked column is overwritten with its unit vector; the dense
    result goes back to CSR, which stores its nonzero entries only.
    """
    dense = P.mat.toarray()
    for m in marked:
        dense[:, m] = 0.0
        dense[m, m] = 1.0
    return WalkMatrix(sp.csr_array(dense))


def marked_column_mass(P: WalkMatrix, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: sum_{y in M} P[y, x] over the columns x where it is nonzero: (those x, the sums).

    The col_mass argument of SzegedyWalk.marked_mass for a walk on P.
    """
    mat = P.mat
    hit = np.repeat(mask, np.diff(mat.indptr))  # stored entries in marked rows
    mass = np.bincount(mat.indices[hit], weights=mat.data[hit], minlength=P.dim)
    support = np.flatnonzero(mass)
    return support, mass[support]


def gram_inner(walk: SzegedyWalk, a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
    """Oracle: the physical inner product <a|b> of two frame states, via the Gram matrix [[I, D], [D, I]]."""
    ca, da = a
    cb, db = b
    return float(ca @ cb + da @ db + ca @ (walk.disc @ db) + da @ (walk.disc @ cb))


def interpolated_hitting_time(P: WalkMatrix, marked: Iterable[int], s: float, pi: np.ndarray) -> float:
    """Oracle: the hitting time of P(s) as the escape form of D(P(s)) itself, one sparse solve.

    <U_pi|(I - D(P(s)))^+|U_pi> is the escape time of |U_pi> under P(s),
    whose fixed point is pi on unmarked and pi / (1 - s) on marked states,
    renormalized.  The route spectral.interpolated_hitting_time took
    before its closed form.
    """
    mask = marked_mask(P.dim, marked)
    pi_s = np.where(mask, pi / (1.0 - s), pi)
    return escape_time(interpolate(P, np.flatnonzero(mask), s), _unmarked_projection(pi, mask), pi_s / pi_s.sum())


def lump(P: WalkMatrix, classes: np.ndarray) -> WalkMatrix:
    """Oracle: P lumped onto the classes classes[x], the chain of the class masses.

    Column C is the out-distribution of C's first member, summed by
    target class.  Raises unless every state's summed out-distribution
    equals its representative's exactly (Kemeny-Snell lumpability), the
    condition under which the lumped chain carries the class masses of P.
    """
    mat = P.mat
    rows = np.repeat(np.arange(P.dim), np.diff(mat.indptr))
    mass = sp.csc_array((mat.data, (classes[rows], mat.indices)), shape=(classes.max() + 1, P.dim))
    rep = np.unique(classes, return_index=True)[1]
    if (mass - mass[:, rep[classes]]).count_nonzero():
        raise ValueError("chain is not lumpable onto the given classes")
    return WalkMatrix(mass[:, rep])


def find_one(P: WalkMatrix, marked: Iterable[int], eps_estimate: float, T: int, pi: np.ndarray) -> float:
    """Oracle: the finding success of one estimate, on the interpolated walk W(P(s)) itself.

    Builds discriminant(interpolate(P, marked, s)) and walks its frame
    coordinates from (sqrt(pi), 0), one product per time point shared by
    marked_mass and step: the loop find_via_interpolation ran per estimate
    before it walked every estimate on one product of D(P).
    """
    if T < 1:
        raise ValueError("need at least one time point")
    mask = marked_mask(P.dim, marked)
    walk = build_walk(interpolate(P, marked, interpolation_parameter(eps_estimate)))
    c, d = walk.initial_state(pi)
    col_mass = marked_column_mass(walk.base, mask)
    total = 0.0
    for t in range(T):
        disc_d = walk.disc @ d
        total += walk.marked_mass(c, d, mask, col_mass, disc_d=disc_d)
        if t + 1 < T:
            c, d = walk.step(c, d, disc_d=disc_d)
    return float(total / T)
