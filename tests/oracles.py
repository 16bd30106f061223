"""Oracles that the test modules share.

A plain module rather than conftest fixtures, because module-level
helpers in the tests (the orbit chain of test_szegedy) call them.
The package computes each number it reports one way; the dense eigh
(decompose) and the interpolated walk's hitting time, in closed form and
by a solve on D(P(s)), are the second routes the tests check it against.
The package builds no modified chain: the absorbing chain P' (absorbing),
the interpolated chains P(s) (convex_combination) and the frame walk
stepped on their own discriminants (FrameWalk) are built here only.
The search report's block records, which the package encodes once per
distinct walk and k, are built here one dict per (block, k)
(search_report_dicts).  The package builds a lattice walk from its
neighbour stencil; here it is built from its edge list, one vertex and
one move at a time, through COO (edge_list_walk).
"""

from typing import Iterable

import numpy as np
import pytest
import scipy.sparse as sp

from walklab.lattice import Lattice
from walklab.markov import WalkMatrix, marked_mask
from walklab.search import SearchReport
from walklab.spectral import _unmarked_projection, escape_time, escape_time_subset
from walklab.szegedy import SzegedyWalk, build_walk, interpolation_parameter


# The two square lattice kinds, under the test ids of their builders
SQUARE_KINDS = (pytest.param("torus", id="build_torus"), pytest.param("grid", id="build_grid"))

MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right


def loop_edges(height, width, wrap):
    """Oracle: the edge list built one vertex and one move at a time."""
    edges = []
    for r in range(height):
        for c in range(width):
            for dr, dc in MOVES:
                if wrap:
                    rr, cc = (r + dr) % height, (c + dc) % width
                else:
                    rr = min(max(r + dr, 0), height - 1)
                    cc = min(max(c + dc, 0), width - 1)
                edges.append([r * width + c, rr * width + cc])
    return edges


def edge_list_walk(kind: str, shape: tuple[int, int]) -> WalkMatrix:
    """Oracle: the lattice walk from loop_edges, column u taking 1/outdeg(u) at row v per edge u -> v.

    scipy's COO to CSR conversion sums the parallel edges and the grid's
    boundary loops.
    """
    src, dst = np.array(loop_edges(*shape, wrap=kind == "torus"), dtype=np.int64).T
    n = shape[0] * shape[1]
    outdeg = np.bincount(src, minlength=n)
    mat = sp.csr_array((1.0 / outdeg[src], (dst, src)), shape=(n, n))
    return WalkMatrix(mat, Lattice(kind, shape))


# decompose refuses larger matrices: a 4096^2 float64 copy is already 134 MB
DECOMPOSE_LIMIT = 4096


def decompose(D) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: full symmetric eigendecomposition (eigenvalues, eigenvectors), sorted descending.

    Raises if the reconstruction V diag(lambda) V^T strays from D by more
    than 1e-8 in any entry, or if the eigenvector matrix is not
    orthonormal to 1e-10.  D is densified once (CSR discriminants and
    plain arrays alike); a matrix above DECOMPOSE_LIMIT states is refused
    before anything is densified.
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
    if recon > 1e-8:
        raise RuntimeError(f"eigendecomposition reconstruction residual {recon:.3e}")
    ortho = np.abs(vecs.T @ vecs - np.eye(dense.shape[0])).max()
    if ortho > 1e-10:
        raise RuntimeError(f"eigenvector orthonormality residual {ortho:.3e}")
    return vals, vecs


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


def convex_combination(P: WalkMatrix, marked: Iterable[int], s: float) -> WalkMatrix:
    """Oracle: P(s) as (1 - s) P + s P', summed in sparse storage, with P' from absorbing."""
    return WalkMatrix((1.0 - s) * P.mat + s * absorbing(P, marked).mat)


class FrameWalk(SzegedyWalk):
    """Oracle: the frame walk stepped one product of its own discriminant at a time.

    The package walks W(P(s)) and W(P') on D(P) scaled on the marked set;
    this walk runs on the discriminant of whatever base it is given.
    """

    @property
    def dim(self) -> int:
        return self.base.dim

    def initial_state(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|init> = sum_x sqrt(probs_x) phi_x, i.e. coordinates (sqrt(probs), 0)."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.dim,) or probs.min() < -1e-15:
            raise ValueError("initial distribution must be a length-N probability vector")
        return np.sqrt(np.clip(probs, 0.0, None)), np.zeros(self.dim)

    def step(self, c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One application of SWAP * (2 Pi_A - I) in frame coordinates: (-d, c + 2 disc @ d).

        c and d are length-N vectors, or (N, K) blocks of K states.
        """
        return -d, c + 2.0 * (self.disc @ d)

    def vertex_distribution(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Measurement distribution of the first register."""
        q = c * c + 2.0 * c * (self.disc @ d) + self.base.mat @ (d * d)
        q = np.clip(q, 0.0, None)
        total = q.sum()
        if total <= 0:
            raise RuntimeError("zero-norm state has no measurement distribution")
        return q / total


def frame_walk(base: WalkMatrix) -> FrameWalk:
    """Oracle: build_walk's walk of base, with its unitarity check, as a FrameWalk."""
    walk = build_walk(base)
    return FrameWalk(base=walk.base, disc=walk.disc)


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


def interpolated_hitting_time(
    P: WalkMatrix,
    marked: Iterable[int],
    s: float,
    pi: np.ndarray,
    *,
    escape: float | None = None,
) -> float:
    """Oracle: the hitting time of P(s) for 0 <= s < 1, in closed form in the escape time E of M.

    HT(s) = eps E / ((1 - eps) ((1 - eps)(1 - s) + eps)^2), eps = pi(M),
    the curve whose s -> 1 limit spectral.extended_hitting_time_limit
    returns (its docstring derives it).  A caller that holds E passes it
    as ``escape`` and nothing is solved.
    """
    if not (0.0 <= s < 1.0):
        raise ValueError("interpolated hitting time defined for 0 <= s < 1")
    mask = marked_mask(P.dim, marked)
    eps, eps_u = float(pi[mask].sum()), float(pi[~mask].sum())
    if eps_u <= 0:
        raise ValueError("unmarked set carries no stationary mass")
    if escape is None:
        escape = escape_time_subset(P, np.flatnonzero(mask), pi=pi)
    q = eps_u * (1.0 - s) + eps
    return eps * escape / (eps_u * q * q)


def interpolated_hitting_time_solved(P: WalkMatrix, marked: Iterable[int], s: float, pi: np.ndarray) -> float:
    """Oracle: the hitting time of P(s) as the escape form of D(P(s)) itself, one sparse solve.

    <U_pi|(I - D(P(s)))^+|U_pi> is the escape time of |U_pi> under P(s),
    whose fixed point is pi on unmarked and pi / (1 - s) on marked states,
    renormalized.  An independent check of interpolated_hitting_time's
    closed form.
    """
    mask = marked_mask(P.dim, marked)
    pi_s = np.where(mask, pi / (1.0 - s), pi)
    return escape_time(convex_combination(P, np.flatnonzero(mask), s), _unmarked_projection(pi, mask), pi_s / pi_s.sum())


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

    Builds discriminant(convex_combination(P, marked, s)) and walks its frame
    coordinates from (sqrt(pi), 0), one product per time point shared by
    marked_mass and step: the loop find_via_interpolation ran per estimate
    before it walked every estimate on one product of D(P).
    """
    if T < 1:
        raise ValueError("need at least one time point")
    mask = marked_mask(P.dim, marked)
    walk = frame_walk(convex_combination(P, marked, interpolation_parameter(eps_estimate)))
    c, d = walk.initial_state(pi)
    col_mass = marked_column_mass(walk.base, mask)
    total = 0.0
    for t in range(T):
        disc_d = walk.disc @ d
        total += walk.marked_mass(c, d, mask, col_mass, disc_d=disc_d)
        if t + 1 < T:
            c, d = -d, c + 2.0 * disc_d
    return float(total / T)


def find_block_stepwise(walk: SzegedyWalk, mask: np.ndarray, s: np.ndarray, T: int, pi: np.ndarray) -> np.ndarray:
    """Oracle: szegedy._find_block's walk route one time point at a time, with a readout per step.

    Every estimate on one product of D0 = walk.disc per step, in the
    scaled coordinates R_k (c, d) of _find_block, stepped as
    (c, d) -> (-d, c + 2 A_k d), with one marked_mass call per time point
    adding to the total: the loop _find_block ran before it read the
    marked mass once per block of steps.  The walk route must equal it
    bit for bit.
    """
    keep = 1.0 - s
    m0 = mask @ walk.base.mat
    support = np.flatnonzero((m0 != 0.0) | mask)
    col_mass = support, keep * m0[support, None] + s * mask[support, None]
    marked = np.flatnonzero(mask)
    c = np.repeat(np.sqrt(pi)[:, None], s.size, axis=1)
    c[~mask] /= np.sqrt(keep)
    d = np.zeros_like(c)
    total = np.zeros(s.size)
    for t in range(T):
        disc_d = walk.disc @ d
        disc_d[marked] = keep * disc_d[marked] + s * d[marked]
        total += walk.marked_mass(c, d, marked, col_mass, disc_d=disc_d)
        if t + 1 < T:  # (c, d) -> (-d, c + 2 A d) in the buffers of c and disc_d
            disc_d *= 2.0
            disc_d += c
            np.negative(d, out=c)
            d = disc_d  # d's old buffer is freed for the next product
    return total / T


def block_records(blocks, walk_of, success) -> list[dict]:
    """Oracle: the search report's records of one k, one dict each; block i scores success[walk_of[i]]."""
    return [
        {"block": b, "eps_G": eps_G, "marked_in_block": len(local), "block_size": h * w,
         "success": success[row]}
        for (b, (h, w), local, eps_G), row in zip(blocks, walk_of)
    ]


_ENCODED_TO_DICT = SearchReport.to_dict  # kept when a test puts search_report_dicts in its place


def search_report_dicts(report: SearchReport) -> dict:
    """Oracle: SearchReport.to_dict with each k's block records as dicts, the route it took before it encoded them."""
    record = _ENCODED_TO_DICT(report)
    for entry, column in zip(record["per_k"], zip(*report.walk_success), strict=True):
        entry["blocks"] = block_records(report.blocks, report.walk_of, column)
    return record
