import ast
import inspect
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from walklab import cli, markov, search, spectral, szegedy, verify
from walklab import lattice as lattice_module
from walklab.lattice import Lattice
from walklab.markov import (
    WalkMatrix,
    discriminant,
    lattice_walk,
    marked_mask,
    random_reversible_chain,
    stationary,
)
from walklab.search import parse_marked_spec
from walklab.spectral import (
    analyze_instance,
    effective_hitting_time,
    escape_time,
    escape_time_subset,
    extended_hitting_time,
    extended_hitting_time_limit,
    hitting_time_linear,
    hitting_time_resolvent,
)

from oracles import SQUARE_KINDS, absorbing, decompose, interpolated_hitting_time

TWO_STATE = WalkMatrix(np.full((2, 2), 0.5))
COMPLETE_12 = WalkMatrix(np.full((12, 12), 1 / 12))
# interpolation parameters for the P(s) checks, ascending to 1 - 1e-6
S_LIST = (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)


def pi_of(P):
    """The stationary vector the package's callers pass: markov.stationary's."""
    return stationary(P)


def eigen_sum(D, g):
    """Oracle: sum_{k>=2} |<v_k|g>|^2 / (1 - lambda_k) over the dense spectrum of D.

    The definition of the escape form <g|(I - D)^+|g> that the package
    computes by a sparse solve; v_1 is the principal eigenvector.
    """
    vals, vecs = decompose(D)
    ovl = vecs[:, 1:].T @ g
    return float(np.sum(ovl**2 / (1.0 - vals[1:])))


def block_eigen_sum(P, marked, pi):
    """Oracle: HT = sum_k |<v'_k|U_pi>|^2 / (1 - lambda'_k) over the dense spectrum of D(P)[U, U].

    The sum hitting_time_resolvent writes as <U_pi|(I - D(P)[U, U])^-1|U_pi>:
    only the N - |M| unmarked states are decomposed.
    """
    unmarked = np.flatnonzero(~marked_mask(P.dim, marked))
    vals, vecs = decompose(discriminant(P)[np.ix_(unmarked, unmarked)])
    u = np.sqrt(pi[unmarked]) / math.sqrt(pi[unmarked].sum())
    ovl = vecs.T @ u
    return float(np.sum(ovl**2 / (1.0 - vals)))


def absorbing_eigen_sum(P, marked, pi):
    """Oracle: HT over the full spectrum of D(P') of the column oracle's P', its |M| unit eigenvalues dropped.

    It decomposes all N states and keeps the eigenpairs below 1, where
    block_eigen_sum decomposes the unmarked block alone.
    """
    mask = marked_mask(P.dim, marked)
    vals, vecs = decompose(discriminant(absorbing(P, marked)))
    below = vals < 1.0 - 1e-10
    assert np.count_nonzero(~below) == np.count_nonzero(mask)
    u = np.where(mask, 0.0, np.sqrt(pi)) / math.sqrt(pi[~mask].sum())
    ovl = (vecs.T @ u)[below]
    return float(np.sum(ovl**2 / (1.0 - vals[below])))


def _oracle_cases():
    """name -> (chain, pi or None, marked) for the eigen-sum comparisons."""
    rng = np.random.default_rng(6)
    cases = {}
    for kind, sides in (("torus", (3, 4, 5, 8)), ("grid", (4, 8))):
        for n in sides:
            P = lattice_walk(kind, (n, n))
            marked = rng.choice(P.dim, size=int(rng.integers(1, 5)), replace=False)
            cases[f"build_{kind}({n})"] = (P, None, marked)
    for N in (6, 9, 13, 18, 24):
        P, pi = random_reversible_chain(N, rng)
        marked = rng.choice(N, size=int(rng.integers(1, 5)), replace=False)
        cases[f"random({N})"] = (P, pi, marked)
    return cases


ORACLE_CASES = _oracle_cases()

# lattice draws for the comparison with absorbing_eigen_sum
LATTICE_DRAWS = {
    "torus": lambda rng: ("torus", (int(rng.integers(2, 17)),) * 2),
    "grid": lambda rng: ("grid", (int(rng.integers(2, 17)),) * 2),
    "rect": lambda rng: ("grid", (int(rng.integers(2, 13)), int(rng.integers(2, 13)))),
}


def torus_eigenvalues(n):
    """Oracle: the n x n torus walk spectrum in closed form.

    The two-dimensional Fourier modes diagonalize the torus: the mode
    with frequencies (k, l) has eigenvalue (cos(2 pi k/n) + cos(2 pi l/n))/2.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    return (0.5 * (np.cos(theta)[:, None] + np.cos(theta)[None, :])).ravel()


class TestDecompose:
    def test_orthonormal_descending(self):
        vals, vecs = decompose(discriminant(lattice_walk("torus", (5, 5))))
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(25), atol=1e-10)
        assert vals[1] < vals[0]

    def test_torus_spectrum_closed_form(self):
        for n in (3, 5, 8):
            vals, _ = decompose(discriminant(lattice_walk("torus", (n, n))))
            np.testing.assert_allclose(np.sort(vals), np.sort(torus_eigenvalues(n)), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_rejects_matrices_above_the_dense_limit(self):
        with pytest.raises(ValueError, match="4097 states exceeds the limit of 4096"):
            decompose(sp.eye_array(4097, format="csr"))


class TestLatticeGap:
    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_matches_the_decomposition(self, kind):
        for n in range(2, 41):
            P = lattice_walk(kind, (n, n))
            vals, _ = decompose(discriminant(P))
            assert abs(P.lattice.gap - (1.0 - vals[1])) <= 4e-15, n

    def test_torus_gap_is_the_first_pole(self):
        for n in range(2, 257):
            assert Lattice("torus", (n, n)).gap == lattice_module._poles("torus", (n, n), 0, 0)[0][1]

    def test_rejects_other_graphs(self):
        # a graph of another kind has no lattice spectrum, so no chain is built from it
        with pytest.raises(ValueError, match="torus or grid"):
            lattice_walk("line", (4, 4))


def lattice_sets(n):
    """name -> marked ids on the n-lattice: singletons, a row, clusters, random sets and half."""
    sets = {
        "corner": [0],
        "inner": [(n // 2) * n + n // 3],
        "row": list(parse_marked_spec("rows:0", n)),
        "few": list(parse_marked_spec(f"random:{max(1, n // 2)}:{n}", n)),
        "third": list(parse_marked_spec(f"random:{max(1, n * n // 3)}:{n}", n)),
        "half": list(parse_marked_spec("half", n)),
    }
    if n >= 4:
        sets["clusters"] = list(parse_marked_spec(search.standard_families(n)["clusters"], n))
    return sets


def fundamental_matrix(P):
    """Oracle: Z = (I - P + 11^T/N)^-1 - 11^T/N of a chain with uniform pi, densified."""
    N = P.dim
    avg = np.full((N, N), 1.0 / N)
    return np.linalg.inv(np.eye(N) - P.mat.toarray() + avg) - avg


class TestLattice:
    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_matches_the_sparse_routes(self, kind, n):
        # escape, eht, ht and ht_linear on every set, from the Green block or
        # conjugate gradients by |M|; the chain rebuilt without its lattice
        # takes the sparse solves
        P = lattice_walk(kind, (n, n))
        sparse, pi = WalkMatrix(P.mat), pi_of(P)
        for name, marked in lattice_sets(n).items():
            escape = escape_time_subset(P, marked, pi)
            assert escape == pytest.approx(escape_time_subset(sparse, marked, pi), rel=1e-12, abs=0), name
            eht, eps = extended_hitting_time(P, marked, pi)
            assert eht == pytest.approx(extended_hitting_time(sparse, marked, pi)[0], rel=1e-12, abs=0), name
            ht, absorption = spectral._lattice_hitting_times(P, marked_mask(P.dim, marked), pi)
            assert ht == pytest.approx(hitting_time_resolvent(sparse, marked, pi), rel=1e-12, abs=0), name
            assert ht == pytest.approx(hitting_time_linear(P, marked, pi), rel=1e-12, abs=0), name
            assert absorption == pytest.approx(hitting_time_linear(sparse, marked, pi), rel=1e-12, abs=0), name

    @pytest.mark.parametrize("graph,marked", [
        ("torus:64", "cells:(0,0)"), ("grid:64", "cells:(0,0)"), ("torus:128", "cells:(0,0)"), ("grid:128", "clusters"),
    ])
    def test_absorption_time_at_larger_sides(self, graph, marked):
        # the sparse LU drifts with N (1.3e-12 off the exact sum for a corner
        # mark of grid:128), so the largest grid takes the clusters
        g = cli.parse_graph_spec(graph)
        P = lattice_walk(g.kind, g.shape)
        marked, pi = parse_marked_spec(marked, g.shape[0]), pi_of(P)
        absorption = spectral._lattice_hitting_times(P, marked_mask(P.dim, marked), pi)[1]
        assert absorption == pytest.approx(hitting_time_linear(WalkMatrix(P.mat), marked, pi), rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (6, 3), (7, 7)])
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_absorption_times_solve_the_chain(self, kind, shape):
        # every vertex's expected steps to the marked set, against a dense solve
        P = lattice_walk(kind, shape)
        for marked in ([0], [1, P.dim - 1], list(range(0, P.dim, 3))):
            mask = marked_mask(P.dim, marked)
            if mask.all():
                continue
            unmarked = np.flatnonzero(~mask)
            Q = P.mat.toarray()[np.ix_(unmarked, unmarked)].T
            expected = np.zeros(P.dim)
            expected[unmarked] = np.linalg.solve(np.eye(unmarked.size) - Q, np.ones(unmarked.size))
            got = P.lattice.absorption_times(np.flatnonzero(mask))[0]
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * expected.max())

    def test_back_substitution_without_blas(self):
        rng = np.random.default_rng(4)
        for m in (1, 2, 7, 40):
            B = rng.standard_normal((m, m))
            A = B @ B.T + m * np.eye(m)
            L, y = lattice_module._cholesky(A)
            np.testing.assert_allclose(lattice_module._back_substitute(L, y), np.linalg.solve(A, np.ones(m)),
                                       rtol=1e-12, atol=0)


    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (6, 3), (7, 7)])
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_green_block_is_the_fundamental_matrix(self, kind, shape):
        # on the grid this is the fold: Z sums the torus kernel over 4 images
        Z = Lattice(kind, shape).green_block(np.arange(shape[0] * shape[1]))
        np.testing.assert_allclose(Z, fundamental_matrix(lattice_walk(kind, shape)), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(Z, Z.T)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (6, 3)])
    def test_grid_walk_is_the_folded_torus_walk(self, shape):
        # a function on the grid, lifted to the doubled torus by the two
        # reflections, moves under the torus walk as it does under the grid's
        grid = lattice_walk("grid", shape)
        torus = lattice_walk("torus", (2 * shape[0], 2 * shape[1]))
        lattice = Lattice("grid", shape)
        g = np.random.default_rng(sum(shape)).standard_normal(grid.dim)
        lifted = lattice._lift(g)
        assert lifted.shape == (2 * shape[0], 2 * shape[1])
        assert np.sort(lifted.ravel()).tolist() == np.sort(np.repeat(g, 4)).tolist()
        np.testing.assert_allclose((torus.mat @ lifted.ravel()).reshape(lifted.shape),
                                   lattice._lift(grid.mat @ g), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("graph,marked,green", [
        ("torus:32", "random:7:1", True),
        ("grid:32", "rows:0", True),  # |M|^2 = N
        ("torus:32", "halfchecker", False),
        ("torus:5", "random:5:2", True),
        ("torus:5", "random:6:2", False),  # |M|^2 = N + 11
        ("grid:33", "cols:0", True),
        ("grid:33", "cols:0,1", False),
    ])
    def test_route_by_marked_count(self, graph, marked, green, monkeypatch):
        # no lattice set is solved: the Green block's factor while |M|^2 <= N,
        # conjugate gradients past it
        g = cli.parse_graph_spec(graph)
        P = lattice_walk(g.kind, g.shape)
        marked = parse_marked_spec(marked, g.shape[0])
        solves, iterated = [], []
        real, real_cg = spectral._spsolve, spectral._absorption_cg
        monkeypatch.setattr(spectral, "_spsolve", lambda *a: solves.append(a) or real(*a))
        monkeypatch.setattr(spectral, "_absorption_cg", lambda *a, **k: iterated.append(a) or real_cg(*a, **k))
        ht = hitting_time_resolvent(P, marked, pi_of(P))
        assert solves == []
        assert len(iterated) == (0 if green else 1)
        assert ht == pytest.approx(hitting_time_resolvent(WalkMatrix(P.mat), marked, pi_of(P)), rel=1e-12, abs=0)
        assert ht == pytest.approx(hitting_time_linear(P, marked, pi_of(P)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_a_non_uniform_pi_takes_the_sparse_route(self, kind, monkeypatch):
        # the lattice spectrum assumes the uniform pi, so any other pi, even
        # one an ulp off it, is solved on the chain, as if it had no lattice
        P = lattice_walk(kind, (6, 6))
        sparse, uniform = WalkMatrix(P.mat), pi_of(P)
        nudged = uniform.copy()
        nudged[3] = np.nextafter(nudged[3], 1.0)
        weighted = uniform * (1.0 + 0.5 * np.random.default_rng(5).random(P.dim))
        weighted /= weighted.sum()
        solves = []
        real = spectral._spsolve
        monkeypatch.setattr(spectral, "_spsolve", lambda *a: solves.append(a) or real(*a))
        for pi in (nudged, weighted):
            for marked in ([0], [0, 7, 20]):
                solves.clear()
                escape, ht = escape_time_subset(P, marked, pi), hitting_time_resolvent(P, marked, pi)
                assert len(solves) == 2
                assert escape == escape_time_subset(sparse, marked, pi)
                assert ht == hitting_time_resolvent(sparse, marked, pi)
        # the FFT of the same vector, which ignores pi, is off by far more than rounding
        mask = marked_mask(P.dim, marked)
        g = np.where(mask, np.sqrt(weighted), 0.0) / math.sqrt(weighted[mask].sum())
        assert abs(P.lattice.escape(g) - escape) > 1e-9 * escape

    def test_torus_singleton_hitting_time_is_exact(self):
        # N z(0) = sum_{k != 0} 1/(1 - lambda_k), summed exactly by fsum, is
        # the stationary start's hitting time of one vertex
        for n in (5, 64, 256):
            P = lattice_walk("torus", (n, n))
            exact = math.fsum(P.lattice._inverse_gaps.ravel()) / (1.0 - 1.0 / (n * n))
            ht, _ = spectral._lattice_hitting_times(P, marked_mask(P.dim, [0]), pi_of(P))
            assert ht == pytest.approx(exact, rel=1e-15)
            if n == 5:
                assert ht == pytest.approx(95 / 3, rel=1e-15)

    def test_inverse_sum_without_blas(self):
        # s = 1^T A^-1 1 is |y|^2 for the y that _cholesky eliminates with L
        def inverse_sum(A):
            y = lattice_module._cholesky(A)[1]
            return float((y * y).sum())

        rng = np.random.default_rng(3)
        for m in (1, 2, 7, 40):
            B = rng.standard_normal((m, m))
            A = B @ B.T + m * np.eye(m)
            expected = np.ones(m) @ np.linalg.solve(A, np.ones(m))
            assert inverse_sum(A) == pytest.approx(expected, rel=1e-13)
            assert inverse_sum(np.tril(A)) == inverse_sum(A)
        with pytest.raises(RuntimeError, match="not positive definite"):
            inverse_sum(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_other_graphs(self):
        with pytest.raises(ValueError, match="torus or grid"):
            Lattice("line", (8, 1))


class TestAbsorptionCertificate:
    """_lattice_hitting_times checks its absorption-time vector against the chain itself."""

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_a_perturbed_kernel_raises(self, kind):
        P = lattice_walk(kind, (8, 8))
        pi, mask = pi_of(P), marked_mask(64, [0, 27])
        spectral._lattice_hitting_times(P, mask, pi)  # the true kernel passes
        P = lattice_walk(kind, (8, 8))
        P.lattice.__dict__["_inverse_gaps"] = P.lattice._inverse_gaps * (1.0 + 1e-6)
        with pytest.raises(RuntimeError, match="residual check"):
            spectral._lattice_hitting_times(P, mask, pi)

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_a_dropped_mark_raises(self, kind, monkeypatch):
        real = lattice_module._back_substitute

        def drop_last(L, y):
            x = real(L, y)
            x[-1] = 0.0
            return x

        monkeypatch.setattr(lattice_module, "_back_substitute", drop_last)
        P = lattice_walk(kind, (8, 8))
        with pytest.raises(RuntimeError, match="residual check"):
            spectral._lattice_hitting_times(P, marked_mask(64, [0, 27]), pi_of(P))

    def test_analyze_exits_one_on_a_failed_check(self, monkeypatch, capsys):
        monkeypatch.setattr(lattice_module, "_back_substitute", lambda L, y: np.zeros_like(y))
        assert cli.main(["analyze", "--graph", "torus:8", "--marked", "cells:(1,2)"]) == 1
        assert "residual check" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_a_perturbed_iterate_raises(self, kind, monkeypatch):
        # the certificate reads the true residual, not the one CG recurs
        P = lattice_walk(kind, (8, 8))
        pi, mask = pi_of(P), marked_mask(64, parse_marked_spec("random:20:1", 8))
        spectral._lattice_hitting_times(P, mask, pi)
        real = spectral._absorption_cg
        monkeypatch.setattr(spectral, "_absorption_cg", lambda P, mask, **k: real(P, mask, **k) * (1.0 + 1e-9))
        with pytest.raises(RuntimeError, match="residual check"):
            spectral._lattice_hitting_times(P, mask, pi)

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_conjugate_gradients_past_their_cap_raise(self, kind, monkeypatch, capsys):
        P = lattice_walk(kind, (8, 8))
        pi, mask = pi_of(P), marked_mask(64, parse_marked_spec("random:20:1", 8))
        steps = []
        real_restrict = spectral.restrict

        class Counted:
            def __init__(self, Q):
                self.Q = Q

            def __matmul__(self, x):
                steps.append(1)
                return self.Q @ x

        monkeypatch.setattr(spectral, "restrict", lambda A, mask: Counted(real_restrict(A, mask)))
        spectral._absorption_cg(P, mask)
        needed = len(steps) - 1  # the first product is the start's residual
        assert 1 < needed <= 2 * np.count_nonzero(~mask)
        spectral._absorption_cg(P, mask, needed)
        with pytest.raises(RuntimeError, match="did not converge in"):
            spectral._absorption_cg(P, mask, needed - 1)
        real = spectral._absorption_cg
        monkeypatch.setattr(spectral, "_absorption_cg", lambda P, mask, **k: real(P, mask, needed - 1, **k))
        with pytest.raises(RuntimeError, match="did not converge in"):
            spectral._lattice_hitting_times(P, mask, pi)
        assert cli.main(["analyze", "--graph", f"{P.lattice.kind}:8", "--marked", "random:20:1"]) == 1
        assert "did not converge" in capsys.readouterr().err


class TestConjugateGradientRoute:
    """Sets with |M|^2 > N read h from conjugate gradients on the unmarked block."""

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_a_drifted_residual_restarts_from_the_true_one(self, kind, monkeypatch):
        # the recursive residual is accepted only with the true one on P
        P = lattice_walk(kind, (8, 8))
        marked = parse_marked_spec("random:20:1", 8)
        mask = marked_mask(64, marked)
        real, calls = spectral._absorption_residual, []

        def drifted(P, mask, h):
            calls.append(h.copy())
            residual = real(P, mask, h)
            return residual + np.where(mask, 0.0, 1e-3) if len(calls) == 1 else residual

        monkeypatch.setattr(spectral, "_absorption_residual", drifted)
        h = spectral._absorption_cg(P, mask)
        assert len(calls) >= 2
        assert spectral._within_bound(real(P, mask, h), h)
        want = hitting_time_linear(WalkMatrix(P.mat), marked, pi_of(P))
        assert h[~mask].mean() == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    def test_matches_the_sparse_lu(self, kind, n):
        # halfchecker and random sets of more than sqrt(N) marks, against the
        # absorption LU on the chain rebuilt without its lattice
        P = lattice_walk(kind, (n, n))
        sparse, pi = WalkMatrix(P.mat), pi_of(P)
        third = n * n // 3
        for spec in ("halfchecker", f"random:{n + 1}:{n}", *([f"random:{third}:1"] if third > n else [])):
            marked = parse_marked_spec(spec, n)
            mask = marked_mask(P.dim, marked)
            assert np.count_nonzero(mask) ** 2 > P.dim, spec
            want = hitting_time_linear(sparse, marked, pi)
            ht, ht_linear = spectral._lattice_hitting_times(P, mask, pi)
            assert ht == ht_linear == hitting_time_resolvent(P, marked, pi), spec
            assert ht == pytest.approx(want, rel=1e-12, abs=0), spec

    @pytest.mark.parametrize("n", [2, 4, 8, 32, 64])
    def test_halfchecker_takes_no_step_on_the_torus(self, n):
        # no two unmarked vertices are adjacent, so the start h = 1 is exact
        P = lattice_walk("torus", (n, n))
        mask = marked_mask(P.dim, parse_marked_spec("halfchecker", n))
        h = spectral._absorption_cg(P, mask, 0)
        assert np.array_equal(h, (~mask).astype(np.float64))
        assert spectral._lattice_hitting_times(P, mask, pi_of(P)) == (1.0, 1.0)


class TestThinLattices:
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_analyze_matches_the_full_lattice(self, kind):
        # whole rows or columns: every number of the n x 1 lattice's panel is
        # the full lattice's, ht_eff exactly and the rest within rounding
        for n in range(2, 41):
            full = lattice_walk(kind, (n, n))
            for spec in ("rows:0", f"cols:{n // 2}", "half"):
                marked = parse_marked_spec(spec, n)
                shape, states = lattice_module._walked_lattice((n, n), marked)
                assert shape == (n, 1), (n, spec)
                thin = lattice_walk(kind, shape)
                assert thin.lattice.gap == full.lattice.gap
                got = analyze_instance(thin, states, pi_of(thin)).to_dict()
                want = analyze_instance(full, marked, pi_of(full)).to_dict()
                assert got.pop("ht_eff") == want.pop("ht_eff"), (n, spec)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (n, spec)


def spy_on_moments(monkeypatch):
    """The sizes of the D(P') that _first_passage builds a Chebyshev curve on, one per curve."""
    sizes = []
    real = spectral._ChebyshevCurve
    monkeypatch.setattr(spectral, "_ChebyshevCurve", lambda Q, u: sizes.append(Q.shape[0]) or real(Q, u))
    return sizes


def curve_and_moments(P, v, threshold, moments):
    """(the lattice chain's first passage from vertex v, the moments' on P rebuilt without its lattice), capped.

    moments is spy_on_moments' list: the lattice chain must add nothing to it.
    """
    pi, mask = pi_of(P), marked_mask(P.dim, [v])
    cap = 100 * math.ceil(hitting_time_resolvent(P, [v], pi))
    got = spectral._first_passage(P, mask, pi, threshold, cap)
    assert moments == [], (P.lattice, v, threshold)
    want = spectral._first_passage(WalkMatrix(P.mat), mask, pi, threshold, cap)
    moments.clear()
    return got, want


THRESHOLDS = (spectral.EFFECTIVE_HT_THRESHOLD, szegedy.ESTIMATOR_THRESHOLD)


class TestSingletonEffectiveTime:
    def test_the_survival_curve_is_the_first_passage(self, monkeypatch):
        # one vertex of the square torus reads ht_eff from the closed form;
        # the Chebyshev first passage, capped as effective_hitting_time caps
        # it, gives the same T on every side, corner or not
        moments = spy_on_moments(monkeypatch)
        for n in range(2, 49):
            P = lattice_walk("torus", (n, n))
            pi = pi_of(P)
            for v in {0, (n // 2) * n + n // 3}:
                t = effective_hitting_time(P, [v], pi)
                assert moments == []
                cap = 100 * math.ceil(hitting_time_resolvent(P, [v], pi))
                mask = marked_mask(P.dim, [v])
                assert t == spectral._first_passage(WalkMatrix(P.mat), mask, pi, spectral.EFFECTIVE_HT_THRESHOLD, cap)
                moments.clear()

    def test_without_the_curve_the_first_passage_runs(self, monkeypatch):
        moments = spy_on_moments(monkeypatch)
        monkeypatch.setattr(lattice_module, "_survival_curve", lambda *a: None)
        for n, h_unique in ((2, 3), (5, 35), (17, 637)):
            P = lattice_walk("torus", (n, n))
            assert effective_hitting_time(P, [0], pi_of(P)) == h_unique
        assert moments == [4, 25, 289]

    def test_every_lattice_singleton_reads_the_curve(self, monkeypatch):
        # grids, rectangles and thin lattices have their own curves; two
        # marks, or the chain rebuilt without its lattice, take the moments
        moments = spy_on_moments(monkeypatch)
        for kind, shape in (("grid", (6, 6)), ("torus", (6, 5)), ("torus", (7, 1)),
                            ("grid", (32, 1)), ("grid", (5, 6))):
            P = lattice_walk(kind, shape)
            effective_hitting_time(P, [0], pi_of(P))
            estimate = szegedy.estimate_effective_ht(P, [P.dim - 1], pi=pi_of(P), budget=1_000)
            assert not estimate.halted
        assert moments == []
        P = lattice_walk("torus", (6, 6))
        effective_hitting_time(P, [0, 1], pi_of(P))
        effective_hitting_time(WalkMatrix(P.mat), [0], pi_of(P))
        assert moments == [36, 36]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_grid_vertex(self, n, monkeypatch):
        # one vertex of each orbit of the square grid's symmetries, the
        # vertices whose modes vanish among them
        moments = spy_on_moments(monkeypatch)
        P = lattice_walk("grid", (n, n))
        for r in range((n + 1) // 2):
            for c in range(r, (n + 1) // 2):
                for threshold in THRESHOLDS:
                    got, want = curve_and_moments(P, r * n + c, threshold, moments)
                    assert got == want, (r, c, threshold)

    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_corner_centre_edge_and_inner_vertex(self, kind, n, monkeypatch):
        # square and thin lattices, and h x (h + 1) ones up to side 24; the
        # moments are the oracle
        moments = spy_on_moments(monkeypatch)
        for shape in ((n, n), (n, 1), *([(n, n + 1)] if n <= 24 else [])):
            P = lattice_walk(kind, shape)
            h, w = shape
            for r, c in {(0, 0), (h // 2, w // 2), (0, w // 2), (min(1, h - 1), min(2, w - 1))}:
                for threshold in THRESHOLDS:
                    got, want = curve_and_moments(P, r * w + c, threshold, moments)
                    assert got == want, (shape, r, c, threshold)

class TestHittingTime:
    def test_two_state_exact(self):
        assert hitting_time_resolvent(TWO_STATE, [1], pi_of(TWO_STATE)) == pytest.approx(2.0, abs=1e-12)
        assert hitting_time_linear(TWO_STATE, [1], pi_of(TWO_STATE)) == pytest.approx(2.0, abs=1e-12)

    def test_unreachable_marked_set_is_reported(self):
        # two disconnected 2-cycles: states 2 and 3 never reach state 0
        cycles = np.array(
            [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
        )
        P = WalkMatrix(cycles)
        with pytest.raises(RuntimeError, match="marked set unreachable"):
            hitting_time_linear(P, [0], pi=np.full(4, 0.25))
        with pytest.raises(RuntimeError, match="marked set unreachable"):
            hitting_time_resolvent(P, [0], pi=np.full(4, 0.25))
        with pytest.raises(RuntimeError, match="no spectral gap"):
            escape_time_subset(P, [0], pi=np.full(4, 0.25))
        with pytest.raises(RuntimeError, match="no spectral gap"):
            extended_hitting_time_limit(P, [0], pi=np.full(4, 0.25))

    def test_uniform_resampling_chain(self):
        # memoryless chain: expected hits in 1/pi_M tries, conditioned start
        assert hitting_time_resolvent(COMPLETE_12, [3], pi_of(COMPLETE_12)) == pytest.approx(12.0, rel=1e-12)
        assert hitting_time_linear(COMPLETE_12, [3], pi_of(COMPLETE_12)) == pytest.approx(12.0, rel=1e-12)

    def test_torus5_singleton(self):
        P = lattice_walk("torus", (5, 5))
        assert hitting_time_resolvent(P, [0], pi_of(P)) == pytest.approx(95 / 3, rel=1e-10)
        assert hitting_time_linear(P, [0], pi_of(P)) == pytest.approx(95 / 3, rel=1e-10)

    @pytest.mark.parametrize("case", ["random", *LATTICE_DRAWS])
    def test_matches_the_absorbing_eigen_sum(self, case):
        rng = np.random.default_rng(12)
        for _ in range(12):
            if case == "random":  # drawn as c01 draws its chains
                P, pi = random_reversible_chain(int(rng.integers(4, 33)), rng)
            else:
                P = lattice_walk(*LATTICE_DRAWS[case](rng))
                pi = pi_of(P)
            marked = rng.choice(P.dim, size=int(rng.integers(1, P.dim // 2 + 1)), replace=False)
            expected = absorbing_eigen_sum(P, marked, pi)
            assert hitting_time_resolvent(P, marked, pi) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["random", *LATTICE_DRAWS])
    def test_resolvent_form_is_the_eigen_sum(self, case):
        # the eigen sum is <U_pi|(I - D[U, U])^-1|U_pi> written over the
        # eigenpairs: 2.3e-14 relative is the worst measured on these draws
        rng = np.random.default_rng(13)
        for _ in range(12):
            if case == "random":
                P, pi = random_reversible_chain(int(rng.integers(4, 33)), rng)
            else:
                P = lattice_walk(*LATTICE_DRAWS[case](rng))
                pi = pi_of(P)
            marked = rng.choice(P.dim, size=int(rng.integers(1, P.dim // 2 + 1)), replace=False)
            ht = hitting_time_resolvent(P, marked, pi)
            assert ht == pytest.approx(block_eigen_sum(P, marked, pi), rel=1e-12, abs=0)
            assert ht == pytest.approx(hitting_time_linear(P, marked, pi), rel=1e-12, abs=0)

    def test_routes_agree_on_torus_grid(self):
        rng = np.random.default_rng(11)
        for kind, n in (("torus", 4), ("torus", 5), ("grid", 4)):
            P = lattice_walk(kind, (n, n))
            marked = rng.choice(P.dim, size=3, replace=False)
            ht_r = hitting_time_resolvent(P, marked, pi_of(P))
            ht_l = hitting_time_linear(P, marked, pi_of(P))
            assert abs(ht_r - ht_l) <= 1e-12 * max(1.0, ht_r)


class TestEffectiveHittingTime:
    def test_two_state(self):
        assert effective_hitting_time(TWO_STATE, [1], pi_of(TWO_STATE)) == 2

    def test_torus5_singleton(self):
        P = lattice_walk("torus", (5, 5))
        assert effective_hitting_time(P, [0], pi_of(P)) == 35

    def test_a_given_hitting_time_is_not_solved_again(self, monkeypatch):
        # the cap reads ht, and no route solves for it when it is given: on
        # the lattice chain, on the chain rebuilt without it, and on a random chain
        torus = lattice_walk("torus", (6, 6))
        chains = [(torus, pi_of(torus)), (WalkMatrix(torus.mat), pi_of(torus)),
                  random_reversible_chain(12, np.random.default_rng(6))]

        def unused(*args):
            raise AssertionError("hitting time solved again")

        for P, pi in chains:
            marked = [0, 7]
            expected = effective_hitting_time(P, marked, pi)
            ht = hitting_time_resolvent(P, marked, pi)
            with monkeypatch.context() as m:
                for name in ("hitting_time_resolvent", "hitting_time_linear", "_spsolve"):
                    m.setattr(spectral, name, unused)
                assert effective_hitting_time(P, marked, pi, ht=ht) == expected

    def test_markov_upper_bound(self):
        # success(T) >= 1 - HT_conditioned / T gives HT_eff <= 3 HT/(1-eps) + 1
        rng = np.random.default_rng(4)
        for _ in range(10):
            P, pi = random_reversible_chain(int(rng.integers(4, 16)), rng)
            m = rng.choice(P.dim, size=int(rng.integers(1, 3)), replace=False)
            ht = hitting_time_resolvent(P, m, pi=pi)
            eps = pi[m].sum()
            assert effective_hitting_time(P, m, pi=pi) <= 3 * ht / (1 - eps) + 1


class TestFirstPassageTies:
    def test_exact_ties_are_certified(self, first_passage_products):
        # torus:2: with vertex 0 marked S(3) = 1/3 and S(4) = 1/4, and with
        # the two neighbours 0 and 1 marked S(2) = 1/4, each exactly on a
        # threshold and 1e-12 clear of its pass bound: far more than the
        # float64 curve's error bound, so its moments certify all three
        P = lattice_walk("torus", (2, 2))
        pi = pi_of(P)
        # rebuilt without its lattice, where the survival curve would answer;
        # on the lattice chain that curve certifies vertex 0's tie at 3/4
        assert effective_hitting_time(WalkMatrix(P.mat), [0], pi) == 3
        assert spectral._first_passage(P, marked_mask(4, [0]), pi, 0.75, 100) == 4
        assert spectral._first_passage(P, marked_mask(4, [0, 1]), pi, 0.75, 100) == 2
        assert first_passage_products["moments"] == 2 + 0 + 1  # d(4) = 4 once, d(2) = 2 once

    @pytest.mark.parametrize("n", [68, 128])
    def test_exact_tie_past_the_float64_bound_is_certified_in_long_double(self, n, first_passage_products):
        # alternate rows marked: half of each unmarked vertex's moves are
        # absorbed, so S(t) = 2^-t and S(2) = 1/4 sits 1e-12 inside the 3/4
        # pass bound.  From n = 68 (4,624 states) the float64 bound's N eps
        # exceeds 1e-12, and the long-double pass certifies t = 2
        P = lattice_walk("torus", (n, n))
        mask = marked_mask(n * n, [r * n + c for r in range(0, n, 2) for c in range(n)])
        assert spectral._first_passage(P, mask, pi_of(P), 0.75, 100) == 2
        assert first_passage_products["moments"] == 1 + 1  # d(2) = 2: one product in each precision

    def test_clear_decisions_take_no_step(self, first_passage_products):
        # a clear answer is certified by the float64 moments alone
        P = lattice_walk("torus", (3, 3))
        assert effective_hitting_time(WalkMatrix(P.mat), [0], pi_of(P)) == 10
        assert first_passage_products["moments"] == 8

    def test_an_uncertified_crossing_raises(self, monkeypatch):
        real = spectral._crossing
        monkeypatch.setattr(spectral, "_crossing", lambda *args: (real(*args)[0], False))
        P = lattice_walk("torus", (3, 3))
        with pytest.raises(RuntimeError, match="cannot certify the first passage to marked mass 0.666667 near t = 10$"):
            effective_hitting_time(P, [0], pi_of(P))
        with pytest.raises(RuntimeError, match="near t = 4$"):
            spectral._first_passage(P, marked_mask(9, [0]), pi_of(P), 0.75, 4)


def synthetic_curve(S, err):
    """A curve t -> (S(t), err) for _crossing, with the list of the t it was read at."""
    reads = []

    def curve(t):
        reads.append(t)
        return S(t), err

    return curve, reads


def step_at(T):
    """S = 1 before T and 0 from T on: a crossing at T that any err < 1/2 certifies at bound 1/2."""
    return lambda t: 1.0 if t < T else 0.0


class TestCrossing:
    def test_crossing_at_one(self):
        curve, reads = synthetic_curve(step_at(1), 0.1)
        assert spectral._crossing(curve, 0.5, 64) == (1, True)
        assert sorted(reads) == [0, 1]

    @pytest.mark.parametrize("T", [1, 2, 3, 50, 64, 65, 77, 99, 100])
    def test_limit_not_a_power_of_two(self, T):
        curve, reads = synthetic_curve(step_at(T), 0.1)
        assert spectral._crossing(curve, 0.5, 100) == (T, True)
        assert max(reads) <= 100

    def test_not_reached_certified(self):
        curve, reads = synthetic_curve(step_at(101), 0.1)
        assert spectral._crossing(curve, 0.5, 100) == (None, True)
        assert reads == [1, 2, 4, 8, 16, 32, 64, 100]

    def test_not_reached_uncertified(self):
        # S(limit) fails the bound, but by less than its error
        curve, _ = synthetic_curve(lambda t: 0.5 + 0.05, 0.1)
        assert spectral._crossing(curve, 0.5, 100) == (None, False)

    def test_no_limit(self):
        curve, reads = synthetic_curve(step_at(1000), 0.1)
        assert spectral._crossing(curve, 0.5, None) == (1000, True)
        assert max(reads) == 1024

    def test_side_within_error_of_the_bound_is_uncertified(self):
        # S(T - 1) passes above the bound and S(T) below it, but one of them
        # by less than err: T is the bisection's answer, not a proven one
        for above, below in ((0.5 + 0.05, 0.0), (1.0, 0.5 - 0.05), (0.5 + 0.05, 0.5 - 0.05)):
            curve, _ = synthetic_curve(lambda t: above if t < 37 else below, 0.1)
            assert spectral._crossing(curve, 0.5, 100) == (37, False), (above, below)
        curve, _ = synthetic_curve(lambda t: 1.0 if t < 37 else 0.5 - 0.15, 0.1)
        assert spectral._crossing(curve, 0.5, 100) == (37, True)

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 100, 1000])
    def test_reads_at_most_two_log_limit_plus_two(self, limit):
        for T in range(1, limit + 2):
            curve, reads = synthetic_curve(step_at(T), 0.1)
            assert spectral._crossing(curve, 0.5, limit) == (T if T <= limit else None, True)
            assert len(reads) <= 2 * math.ceil(math.log2(limit)) + 2, (limit, T)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), lattice=st.sampled_from(["random", "torus", "grid"]))
def test_chebyshev_curve_matches_the_step_loop(seed, lattice):
    # S(t) from the moments against 1 - marked mass of the iterated
    # absorbing walk, the route the moments replaced, at every t up to 2,000
    rng = np.random.default_rng(seed)
    if lattice == "random":
        P, pi = random_reversible_chain(int(rng.integers(2, 40)), rng)
    else:
        n = int(rng.integers(2, 17))
        P = lattice_walk(lattice, (n, n))
        pi = pi_of(P)
    mask = np.zeros(P.dim, dtype=bool)
    mask[rng.choice(P.dim, size=int(rng.integers(1, P.dim)), replace=False)] = True
    P_abs = absorbing(P, np.flatnonzero(mask))
    curve = spectral._ChebyshevCurve(discriminant(P, absorbing=mask), spectral._unmarked_projection(pi, mask))
    p = np.where(mask, 0.0, pi)
    p = p / p.sum()
    for t in range(1, 2001):
        p = P_abs.mat @ p
        assert abs(curve(t)[0] - (1.0 - p[mask].sum())) <= 1e-12, t


def _rounding_cases():
    torus, grid = lattice_walk("torus", (64, 64)), lattice_walk("grid", (48, 48))
    yield "torus64-one", torus, pi_of(torus), [0]
    yield "torus64-row", torus, pi_of(torus), list(range(64))
    yield "grid48-one", grid, pi_of(grid), [0]
    rng = np.random.default_rng(11)
    for i in range(3):
        P, pi = random_reversible_chain(30, rng)
        yield f"random30-{i}", P, pi, rng.choice(30, size=int(rng.integers(1, 5)), replace=False)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17, reason="long double is no wider than double here")
@pytest.mark.parametrize("case", list(_rounding_cases()), ids=lambda c: c[0])
def test_chebyshev_rounding_stays_within_a_tenth_of_the_error_bound(case):
    # the error bound's (t + d^2 + N) eps is a bound on rounding: the
    # float64 curve strays from a long-double run of the same arithmetic
    # by under a tenth of it, up to t = 300,000 (degree 4,598)
    _, P, pi, marked = case
    mask = marked_mask(P.dim, marked)
    Q, u = discriminant(P, absorbing=mask), spectral._unmarked_projection(pi, mask)
    ts = [0, 1, 2, 3, 4, 7, 30, 100, 1000, 10_000, 100_000, 300_000]
    curve, wide = spectral._ChebyshevCurve(Q, u), spectral._ChebyshevCurve(Q.astype(np.longdouble), u.astype(np.longdouble))
    for t in ts:
        (s, err), (exact, _) = curve(t), wide(t)
        assert abs(s - exact) <= err / 10, t


class TestEscapeTime:
    def test_uniform_resampling_chain(self):
        assert escape_time_subset(COMPLETE_12, [3], pi_of(COMPLETE_12)) == pytest.approx(11 / 12, rel=1e-12)

    def test_alternating_columns_exact_half(self):
        # the marked indicator is the (-1)-eigenvector's support: single term 1/(1-(-1))
        P = lattice_walk("torus", (8, 8))
        marked = parse_marked_spec("cols:0,2,4,6", 8)
        assert escape_time_subset(P, marked, pi_of(P)) == pytest.approx(0.5, abs=1e-12)

    def test_torus5_singleton(self):
        P = lattice_walk("torus", (5, 5))
        assert escape_time_subset(P, [0], pi_of(P)) == pytest.approx(1.216, rel=1e-10)

    def test_whole_space_escapes_instantly(self):
        assert escape_time_subset(TWO_STATE, [0, 1], pi_of(TWO_STATE)) == 0.0

    @pytest.mark.parametrize("P,pi,marked", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_eigen_sum(self, P, pi, marked):
        pi = stationary(P) if pi is None else pi
        eps = pi[marked].sum()
        g = np.zeros(P.dim)
        g[marked] = np.sqrt(pi[marked] / eps)
        expected = eigen_sum(discriminant(P), g)
        assert escape_time_subset(P, marked, pi=pi) == pytest.approx(expected, rel=1e-9)
        eht, _ = extended_hitting_time(P, marked, pi=pi)
        assert eht == pytest.approx(expected / eps, rel=1e-9)

    def test_scales_past_the_dense_limit(self):
        # 16384 states, 4x the dense oracle's limit; a dense copy alone would be 2.1 GB
        P = lattice_walk("torus", (128, 128))
        marked = parse_marked_spec("halfchecker", 128)
        tracemalloc.start()
        try:
            e = escape_time_subset(P, marked, pi_of(P))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e == pytest.approx(113.917127023, rel=1e-9)
        assert peak < 64 * 2**20

    def test_bounds_for_orthogonal_states(self):
        # any unit g with <g|sqrt(pi)> = 0 has 1/2 <= E(g) <= 1/gap
        P = lattice_walk("torus", (5, 5))
        rng = np.random.default_rng(2)
        root_pi = np.sqrt(stationary(P))
        for _ in range(20):
            g = rng.normal(size=25)
            g -= root_pi * (root_pi @ g)
            g /= np.linalg.norm(g)
            e = escape_time(P, g, pi_of(P))
            assert 0.5 - 1e-12 <= e <= 1.0 / P.lattice.gap + 1e-9


class TestExtendedHittingTime:
    def test_torus5_singleton(self):
        P = lattice_walk("torus", (5, 5))
        eht, eps = extended_hitting_time(P, [0], pi_of(P))
        assert eps == pytest.approx(0.04, abs=1e-12)
        assert eht == pytest.approx(30.4, rel=1e-10)

    def test_half_torus_exact(self):
        P = lattice_walk("torus", (8, 8))
        eht, eps = extended_hitting_time(P, parse_marked_spec("half", 8), pi_of(P))
        assert eps == pytest.approx(0.5, abs=1e-12)
        assert eht == pytest.approx(6.0, rel=1e-10)

    def test_half_torus_linear_growth(self):
        vals = []
        for n in (8, 16, 32):
            P = lattice_walk("torus", (n, n))
            eht, _ = extended_hitting_time(P, parse_marked_spec("half", n), pi_of(P))
            vals.append(eht / (n * n))
        assert max(vals) / min(vals) < 1.2

    def test_upper_bound_by_gap(self):
        # E <= 1/gap so eht <= 1/(eps * gap)
        P = lattice_walk("torus", (5, 5))
        eht, eps = extended_hitting_time(P, [0, 7, 13], pi_of(P))
        assert eht <= 1.0 / (eps * P.lattice.gap) + 1e-9


class TestInterpolatedHittingTime:
    S_GRID = (0.0, 0.5, 0.9, 0.99, 0.999)
    TWO_STATE_VALUES = (0.5, 0.8888888888888892, 1.6528925619834716, 1.960592098813842, 1.9960059920099884)

    def test_two_state_frozen_curve(self):
        for s, expected in zip(self.S_GRID, self.TWO_STATE_VALUES):
            assert interpolated_hitting_time(TWO_STATE, [1], s, pi_of(TWO_STATE)) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_s(self):
        P = lattice_walk("torus", (4, 4))
        vals = [interpolated_hitting_time(P, [0, 5], s, pi_of(P)) for s in self.S_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("P,pi,marked", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_eigen_sum(self, P, pi, marked, convex_combination):
        pi = stationary(P) if pi is None else pi
        mask = np.zeros(P.dim, dtype=bool)
        mask[marked] = True
        u = np.where(mask, 0.0, np.sqrt(pi)) / math.sqrt(pi[~mask].sum())
        for s in S_LIST:
            expected = eigen_sum(discriminant(convex_combination(P, marked, s)), u)
            got = interpolated_hitting_time(P, marked, s, pi=pi)
            assert got == pytest.approx(expected, rel=1e-9), s

    def test_rejects_s_one(self):
        with pytest.raises(ValueError):
            interpolated_hitting_time(TWO_STATE, [1], 1.0, pi_of(TWO_STATE))

    @staticmethod
    def assert_closed_form_is_the_sparse_solve(P, pi, marked):
        # The oracle's I - D(P(s)) at a marked self-loop x is 1 - (s + (1 - s) P[x, x]):
        # it cancels to (1 - s)(1 - P[x, x]) and keeps about 1e-16/(1 - s) of it.  On
        # grid(6) at s = 0.999999 the oracle misses a 50-digit value by 4.3e-11, the
        # closed form by 5.6e-16; hence the second term.
        for s in (*S_LIST, 0.0, 0.5):
            want = oracles.interpolated_hitting_time_solved(P, marked, s, pi)
            rel = 1e-11 + 4e-16 / (1.0 - s)
            assert interpolated_hitting_time(P, marked, s, pi) == pytest.approx(want, rel=rel, abs=0), s

    @pytest.mark.parametrize("P,pi,marked", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_closed_form_on_the_oracle_cases(self, P, pi, marked):
        self.assert_closed_form_is_the_sparse_solve(P, stationary(P) if pi is None else pi, marked)

    @pytest.mark.parametrize("kind", SQUARE_KINDS)
    @pytest.mark.parametrize("n", range(2, 17))
    def test_closed_form_on_lattices(self, kind, n):
        P = lattice_walk(kind, (n, n))
        rng = np.random.default_rng(n)
        marked = rng.choice(P.dim, size=int(rng.integers(1, min(8, P.dim - 1) + 1)), replace=False)
        self.assert_closed_form_is_the_sparse_solve(P, stationary(P), marked)

    @pytest.mark.parametrize("N", range(3, 41))
    def test_closed_form_on_random_chains(self, N):
        rng = np.random.default_rng(100 + N)
        P, pi = random_reversible_chain(N, rng)
        for size in (1, 2, N - 1):
            self.assert_closed_form_is_the_sparse_solve(P, pi, rng.choice(N, size=size, replace=False))

    def test_a_given_escape_is_not_solved_again(self, monkeypatch):
        P = lattice_walk("torus", (6, 6))
        pi, marked = pi_of(P), parse_marked_spec("halfchecker", 6)
        escape = escape_time_subset(P, marked, pi)
        want = [interpolated_hitting_time(P, marked, 0.9, pi), extended_hitting_time_limit(P, marked, pi)]

        def no_solve(*args):
            raise AssertionError("escape form solved again")

        monkeypatch.setattr(spectral, "_spsolve", no_solve)
        got = [interpolated_hitting_time(P, marked, 0.9, pi, escape=escape),
               extended_hitting_time_limit(P, marked, pi, escape=escape)]
        assert got == want


class TestExtendedHittingTimeLimit:
    def test_two_state_limit_is_plain_ht(self):
        assert extended_hitting_time_limit(TWO_STATE, [1], pi_of(TWO_STATE)) == pytest.approx(2.0, rel=1e-12)

    def test_singleton_tori_limit_is_plain_ht(self):
        for n in (5, 9):
            P = lattice_walk("torus", (n, n))
            ht = hitting_time_resolvent(P, [0], pi_of(P))
            assert extended_hitting_time_limit(P, [0], pi_of(P)) == pytest.approx(ht, rel=1e-12)

    def test_half_torus_within_constant_of_representative(self):
        P = lattice_walk("torus", (8, 8))
        marked = parse_marked_spec("half", 8)
        eht, _ = extended_hitting_time(P, marked, pi_of(P))
        lim = extended_hitting_time_limit(P, marked, pi_of(P))
        assert 0.1 <= lim / eht <= 10.0
        assert lim / eht == pytest.approx(2.0, rel=1e-12)

    @staticmethod
    def identity_cases():
        rng = np.random.default_rng(8)
        for n in (5, 6, 8):
            P = lattice_walk("torus", (n, n))
            for size in (2, 3, 8):
                yield P, pi_of(P), rng.choice(P.dim, size=size, replace=False)
        for N in (6, 10, 15):
            P, pi = random_reversible_chain(N, rng)
            for size in (2, 3, N // 2):
                yield P, pi, rng.choice(N, size=size, replace=False)

    def test_limit_is_the_escape_identity(self):
        # HT+ = E / ((1 - eps) eps) bit for bit, and the closed-form HT(s)
        # rises to it through S_LIST and meets it at the last double below 1
        for P, pi, marked in self.identity_cases():
            escape, eps = escape_time_subset(P, marked, pi), float(pi[marked_mask(P.dim, marked)].sum())
            limit = extended_hitting_time_limit(P, marked, pi)
            assert limit == escape / ((1.0 - eps) * eps)
            curve = [interpolated_hitting_time(P, marked, s, pi, escape=escape) for s in S_LIST]
            assert all(a < b for a, b in zip(curve, curve[1:]))
            assert curve[-1] < limit
            top = interpolated_hitting_time(P, marked, np.nextafter(1.0, 0.0), pi, escape=escape)
            assert top == pytest.approx(limit, rel=1e-12, abs=0)

    def test_grid_is_strictly_ascending_below_one(self):
        # the rise to the limit is read along this grid
        assert len(S_LIST) >= 2
        assert all(0.0 <= a < b < 1.0 for a, b in zip(S_LIST, S_LIST[1:]))


class TestAnalyzeInstance:
    def test_panel_consistency(self):
        P = lattice_walk("torus", (5, 5))
        times = analyze_instance(P, [0], pi_of(P))
        assert times.ht == pytest.approx(95 / 3, rel=1e-10)
        assert times.ht_eff == 35
        assert times.eht == pytest.approx(30.4, rel=1e-10)
        assert times.escape == pytest.approx(times.eht * times.eps_marked, rel=1e-10)

    def test_lattice_routes_match_the_sparse_panel(self):
        # every field within the rounding of the sparse LU, and ht_eff exactly,
        # against the chain rebuilt without its lattice
        for graph, marked in (("torus:32", "random:7:1"), ("grid:32", "rows:0"), ("torus:32", "halfchecker")):
            g = cli.parse_graph_spec(graph)
            P = lattice_walk(g.kind, g.shape)
            marked = parse_marked_spec(marked, g.shape[0])
            sparse = analyze_instance(WalkMatrix(P.mat), marked, pi_of(P)).to_dict()
            fourier = analyze_instance(P, marked, pi_of(P)).to_dict()
            assert fourier.pop("ht_eff") == sparse.pop("ht_eff")
            assert fourier == pytest.approx(sparse, rel=1e-12, abs=0), graph

    def test_routes_must_agree(self):
        times = dict(ht=1000.0, ht_eff=1, eht=1.0, escape=1.0, eps_marked=0.5)
        spectral.HittingTimes(ht_linear=1000.0 * (1.0 + 0.9 * spectral.HT_ROUTES_TOL), **times)
        with pytest.raises(ValueError, match="resolvent and linear hitting times disagree"):
            spectral.HittingTimes(ht_linear=1000.0 * (1.0 + 1.1 * spectral.HT_ROUTES_TOL), **times)

    def test_escape_form_solved_once(self, monkeypatch):
        P = lattice_walk("torus", (6, 6))
        pi, marked = pi_of(P), parse_marked_spec("halfchecker", 6)
        calls = []
        real = spectral.escape_time_subset

        def spy(P, subset, pi, **kwargs):
            calls.append(len(subset))
            return real(P, subset, pi, **kwargs)

        monkeypatch.setattr(spectral, "escape_time_subset", spy)
        times = analyze_instance(P, marked, pi)
        assert calls == [len(marked)]
        eht, eps = extended_hitting_time(P, marked, pi)
        assert (times.eht, times.eps_marked) == (eht, eps)
        assert extended_hitting_time(P, marked, pi, escape=times.escape) == (eht, eps)


def test_c03_solves_each_escape_form_once_per_instance(monkeypatch):
    # seed 3 asks for 2,295 escape forms, 1,477 of them distinct within their instance
    instances = []
    real_partition, real_escape = verify._random_partition, spectral.escape_time_subset

    def partition_spy(rng, items):
        instances.append([])
        return real_partition(rng, items)

    def escape_spy(P, subset, pi):
        instances[-1].append(tuple(np.unique(np.fromiter(subset, dtype=np.int64)).tolist()))
        return real_escape(P, subset, pi)

    monkeypatch.setattr(verify, "_random_partition", partition_spy)
    for module in (spectral, verify):
        monkeypatch.setattr(module, "escape_time_subset", escape_spy)
    result = verify.criterion_3(seed=3)
    assert result.passed
    assert len(instances) == result.details["instances"]
    assert all(len(set(solved)) == len(solved) for solved in instances)
    assert sum(map(len, instances)) == 1477


def test_lattice_criteria_make_no_sparse_solve(monkeypatch):
    # c02 and c04 read every escape and hitting time on tori and grids from
    # the lattice spectrum, and c03 solves only on its random reversible chains
    chain, solved_on = ["none"], []
    real_solve, real_random, real_torus = spectral._spsolve, verify.random_reversible_chain, verify._torus_chain

    def solve_spy(*args):
        solved_on.append(chain[0])
        return real_solve(*args)

    def random_spy(n, rng):
        chain[0] = "random"
        return real_random(n, rng)

    def torus_spy(n):
        chain[0] = "torus"
        return real_torus(n)

    monkeypatch.setattr(spectral, "_spsolve", solve_spy)
    monkeypatch.setattr(verify, "random_reversible_chain", random_spy)
    monkeypatch.setattr(verify, "_torus_chain", torus_spy)
    assert verify.criterion_2().passed and verify.criterion_4().passed
    assert solved_on == []
    assert verify.criterion_3(seed=3).passed
    assert set(solved_on) == {"random"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    P, pi = random_reversible_chain(n, rng)
    m = rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False)
    ht_r = hitting_time_resolvent(P, m, pi=pi)
    ht_l = hitting_time_linear(P, m, pi=pi)
    assert abs(ht_r - ht_l) <= 1e-12 * max(1.0, ht_r)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_escape_inequalities_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    P, pi = random_reversible_chain(n, rng)
    size = int(rng.integers(2, 5))
    M = rng.choice(n, size=size, replace=False)
    cut = int(rng.integers(1, size))
    s1, s2 = M[:cut], M[cut:]
    e_union = escape_time_subset(P, M, pi=pi)
    e1 = escape_time_subset(P, s1, pi=pi)
    e2 = escape_time_subset(P, s2, pi=pi)
    assert e_union <= e1 + e2 + 1e-9
    eht_M, _ = extended_hitting_time(P, M, pi=pi)
    worst = max(escape_time_subset(P, [m], pi=pi) / pi[m] for m in M)
    assert eht_M <= worst + 1e-9


def test_callers_pass_pi_and_the_shared_products():
    # no function that takes pi computes a stationary vector when it is left out
    functions = [getattr(spectral, name) for name in spectral.__all__]
    functions = [fn for fn in functions if inspect.isfunction(fn)]
    functions += [szegedy.find_via_interpolation, szegedy.simulate_detection]
    with_pi = [fn.__name__ for fn in functions if "pi" in inspect.signature(fn).parameters]
    assert len(with_pi) == 10
    for fn in functions:
        pi = inspect.signature(fn).parameters.get("pi")
        assert pi is None or pi.default is inspect.Parameter.empty, fn.__name__
    for param in inspect.signature(szegedy.SzegedyWalk.marked_mass).parameters.values():
        assert param.default is inspect.Parameter.empty, param.name


def test_only_an_iterated_absorbing_walk_builds_the_absorbing_chain(monkeypatch):
    # hitting_time_resolvent reads D(P)[U, U], the limit is closed form in the
    # escape time and the finding walk scales D(P), so none restricts P to
    # read D(P')
    built = []
    real = markov.restrict

    def spy(A, mask, **kwargs):
        built.append(A.shape[0])
        return real(A, mask, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("walklab") and getattr(module, "restrict", None) is real:
            monkeypatch.setattr(module, "restrict", spy)
    P = lattice_walk("torus", (6, 6))
    pi, marked = pi_of(P), [0, 7]
    hitting_time_resolvent(P, marked, pi)
    extended_hitting_time_limit(P, marked, pi)
    szegedy.find_via_interpolation(P, marked, [0.25], 5, pi)
    assert built == []
    effective_hitting_time(P, marked, pi)  # reads the absorbing chain's discriminant
    assert built == [36]


class _Calls(ast.NodeVisitor):
    """The names a module defines or imports, and (innermost function, name) of each call it makes."""

    def __init__(self):
        self.defined, self.calls, self._stack = set(), [], ["<module>"]

    def visit_ImportFrom(self, node):
        self.defined.update(alias.name for alias in node.names)

    def visit_FunctionDef(self, node):
        self.defined.add(node.name)
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        self.calls.append((self._stack[-1], name))
        self.generic_visit(node)


def _package_calls():
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text()))
        yield path.stem, visitor


def test_make_absorbing_callers():
    # the modified chains P' and P(s) are read from P and D(P): no module
    # defines, imports or calls the constructors that built them
    gone = {"make_absorbing", "interpolate"}
    for module, visitor in _package_calls():
        assert not visitor.defined & gone, module
        assert not {name for _, name in visitor.calls} & gone, module


def test_only_lattice_walk_attaches_a_lattice():
    # one route per number and chain: no function takes a lattice argument,
    # and the chains lattice_walk returns are the only ones that carry one
    functions = [(path.stem, node) for path in sorted(Path(spectral.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    takes = [f"{module}.{fn.name}" for module, fn in functions
             if "lattice" in {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}]
    assert takes == []
    attaching = {f"{module}.{fn.name}" for module, fn in functions for call in ast.walk(fn)
                 if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "WalkMatrix"
                 and (len(call.args) > 1 or call.keywords)}
    assert attaching == {"markov.lattice_walk"}


def test_only_graph_and_random_chains_build_a_walk_matrix():
    # search and analyze build no WalkMatrix besides the walks of graphs
    builders = {f"{module}.{fn}" for module, visitor in _package_calls()
                for fn, name in visitor.calls if name == "WalkMatrix"}
    assert builders == {"markov.lattice_walk", "markov.random_reversible_chain"}
