import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.graphs import build_grid, build_torus
from walklab.markov import (
    WalkMatrix,
    check_ergodic,
    check_reversible,
    discriminant,
    export_triplets,
    interpolate,
    interpolated_stationary,
    make_absorbing,
    marked_mask,
    random_reversible_chain,
    stationary,
    walk_from_graph,
)

TWO_STATE = WalkMatrix(np.full((2, 2), 0.5), "plain")


def _column_sums(P):
    return np.asarray(P.dense().sum(axis=0)).ravel()


def _sparse_nonreversible_chain(n=7, seed=11):
    """Random chain with zero entries whose pattern is not symmetric."""
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    mat[(np.arange(n) + 1) % n, np.arange(n)] = 1.0  # no empty column
    mat /= mat.sum(axis=0, keepdims=True)
    assert ((mat > 0) != (mat.T > 0)).any()
    return WalkMatrix(mat, "plain")


def _assert_canonical(mat):
    assert isinstance(mat, sp.csr_array)
    assert mat.dtype == np.float64
    assert mat.has_canonical_format
    assert mat.data.all()


class TestWalkMatrix:
    def test_columns_are_distributions(self):
        for P in (walk_from_graph(build_torus(5)), walk_from_graph(build_grid(4))):
            np.testing.assert_allclose(_column_sums(P), 1.0, atol=1e-12)

    def test_matvec_preserves_mass(self):
        P = walk_from_graph(build_torus(4))
        p = np.zeros(16)
        p[3] = 1.0
        for _ in range(5):
            p = P.matvec(p)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError):
            WalkMatrix(np.array([[0.5, 0.2], [0.2, 0.5]]), "plain")

    def test_torus_two_has_half_entries(self):
        P = walk_from_graph(build_torus(2))
        assert set(np.unique(P.dense())) == {0.0, 0.5}

    def test_dense_input_becomes_canonical_csr(self):
        dense = np.array([[0.0, 0.5, 1.0], [0.25, 0.5, 0.0], [0.75, 0.0, 0.0]])
        P = WalkMatrix(dense, "plain")
        _assert_canonical(P.mat)
        np.testing.assert_array_equal(P.dense(), dense)

    def test_duplicate_and_unsorted_csr_input(self):
        # rows 0 and 1 list their columns out of order, row 0 holds
        # (0, 2) twice and row 1 stores an explicit zero at (1, 2)
        data = np.array([0.5, 0.25, 0.5, 0.0, 1.0, 0.75])
        indices = np.array([2, 0, 2, 2, 1, 0], dtype=np.int32)
        indptr = np.array([0, 3, 5, 6], dtype=np.int32)
        raw = sp.csr_array((data, indices, indptr), shape=(3, 3))
        saved = (data.copy(), indices.copy(), indptr.copy())
        P = WalkMatrix(raw, "plain")
        _assert_canonical(P.mat)
        expected = np.array([[0.25, 0.0, 1.0], [0.0, 1.0, 0.0], [0.75, 0.0, 0.0]])
        np.testing.assert_array_equal(P.dense(), expected)
        for before, after in zip(saved, (raw.data, raw.indices, raw.indptr)):
            np.testing.assert_array_equal(before, after)
        np.testing.assert_allclose(
            discriminant(P).toarray(), np.sqrt(expected * expected.T), rtol=0, atol=1e-15
        )


class TestStationary:
    def test_uniform_on_torus_and_grid(self):
        for g in (build_torus(5), build_torus(4), build_grid(4)):
            P = walk_from_graph(g)
            pi = stationary(P).probs
            np.testing.assert_allclose(pi, 1.0 / g.n_vertices, atol=1e-12)

    def test_periodic_chain_converges(self):
        # pure 2-cycle: power iteration alone would oscillate
        P = WalkMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "plain")
        pi = stationary(P).probs
        np.testing.assert_allclose(pi, 0.5, atol=1e-10)

    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        P, pi_known = random_reversible_chain(9, rng)
        pi = stationary(P).probs
        np.testing.assert_allclose(P.matvec(pi), pi, atol=1e-11)
        np.testing.assert_allclose(pi, pi_known, atol=1e-9)


class TestStructureChecks:
    def test_torus_reversible(self):
        P = walk_from_graph(build_torus(5))
        ok, residual = check_reversible(P, stationary(P).probs)
        assert ok and residual < 1e-12

    def test_directed_cycle_not_reversible(self):
        mat = np.zeros((3, 3))
        for x in range(3):
            mat[(x + 1) % 3, x] = 1.0
        P = WalkMatrix(mat, "plain")
        ok, residual = check_reversible(P, np.full(3, 1 / 3))
        assert not ok and residual > 0.1

    def test_ergodicity_verdicts(self):
        ok, why = check_ergodic(walk_from_graph(build_torus(5)))
        assert ok, why
        # even sides are bipartite: connected but 2-periodic
        ok, why = check_ergodic(walk_from_graph(build_torus(4)))
        assert not ok and "period" in why

    def test_grid_is_ergodic(self):
        # boundary self-loops break periodicity
        ok, why = check_ergodic(walk_from_graph(build_grid(4)))
        assert ok, why


class TestAbsorbing:
    def test_marked_columns_become_identity(self):
        P = walk_from_graph(build_torus(4))
        Pa = make_absorbing(P, [0, 5])
        dense = Pa.dense()
        for m in (0, 5):
            col = np.zeros(16)
            col[m] = 1.0
            np.testing.assert_array_equal(dense[:, m], col)
        np.testing.assert_array_equal(dense[:, 1], P.dense()[:, 1])

    def test_interpolate_endpoints(self):
        P = walk_from_graph(build_torus(4))
        Pa = make_absorbing(P, [3])
        np.testing.assert_array_equal(interpolate(P, Pa, 0.0).dense(), P.dense())
        np.testing.assert_array_equal(interpolate(P, Pa, 1.0).dense(), Pa.dense())
        with pytest.raises(ValueError):
            interpolate(P, Pa, 1.5)

    def test_absorbing_matches_column_replacement(self):
        P = _sparse_nonreversible_chain()
        marked = [1, 4]
        expected = P.dense()
        expected[:, marked] = np.eye(P.dim)[:, marked]
        Pa = make_absorbing(P, marked)
        _assert_canonical(Pa.mat)
        np.testing.assert_allclose(Pa.dense(), expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(make_absorbing(Pa, marked).dense(), Pa.dense())

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.999, 1.0])
    def test_interpolate_matches_convex_combination(self, s):
        P = _sparse_nonreversible_chain()
        Pa = make_absorbing(P, [2, 5])
        Ps = interpolate(P, Pa, s)
        _assert_canonical(Ps.mat)
        np.testing.assert_allclose(
            Ps.dense(), (1.0 - s) * P.dense() + s * Pa.dense(), rtol=0, atol=1e-15
        )

    def test_interpolated_stationary_closed_form(self):
        rng = np.random.default_rng(3)
        P, pi = random_reversible_chain(8, rng)
        marked = [2, 6]
        s = 0.7
        Ps = interpolate(P, make_absorbing(P, marked), s)
        pi_s = interpolated_stationary(pi, marked, s)
        np.testing.assert_allclose(Ps.matvec(pi_s), pi_s, atol=1e-12)
        assert abs(pi_s.sum() - 1.0) < 1e-12


class TestDiscriminant:
    def test_symmetric_for_reversible(self):
        P = walk_from_graph(build_torus(5))
        D = discriminant(P).toarray()
        D = np.asarray(D)
        np.testing.assert_allclose(D, D.T, atol=1e-14)

    def test_entrywise_sqrt(self):
        P = TWO_STATE
        D = discriminant(P).toarray()
        np.testing.assert_allclose(D, 0.5, atol=1e-15)

    def test_nonsymmetric_pattern(self):
        P = _sparse_nonreversible_chain()
        B = P.dense()
        D = discriminant(P)
        _assert_canonical(D)
        np.testing.assert_allclose(D.toarray(), np.sqrt(B * B.T), rtol=0, atol=1e-15)
        assert (D != D.T).nnz == 0

    def test_absorbing_chain(self):
        rng = np.random.default_rng(5)
        P, _ = random_reversible_chain(9, rng)
        Pa = make_absorbing(P, [0, 3, 7])
        B = Pa.dense()
        D = discriminant(Pa)
        _assert_canonical(D)
        np.testing.assert_allclose(D.toarray(), np.sqrt(B * B.T), rtol=0, atol=1e-15)

    def test_lattice_walk_from_dense_input(self):
        B = walk_from_graph(build_grid(4)).dense()
        D = discriminant(WalkMatrix(B, "plain"))
        _assert_canonical(D)
        np.testing.assert_allclose(D.toarray(), np.sqrt(B * B.T), rtol=0, atol=1e-15)


class TestHelpers:
    def test_marked_mask_rejects_degenerate(self):
        with pytest.raises(ValueError):
            marked_mask(4, [])
        with pytest.raises(ValueError):
            marked_mask(4, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            marked_mask(4, [7])

    def test_export_triplets_counts(self):
        P = walk_from_graph(build_torus(3))
        text = export_triplets(P)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 36  # 9 vertices x 4 neighbors
        row, col, val = lines[0].split()
        assert float(val) == 0.25


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 16), seed=st.integers(0, 10_000))
def test_random_chain_is_reversible_and_ergodic(n, seed):
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_chain(n, rng)
    np.testing.assert_allclose(_column_sums(P), 1.0, atol=1e-12)
    ok, residual = check_reversible(P, pi)
    assert ok, residual
    ok, why = check_ergodic(P)
    assert ok, why


@settings(max_examples=30, deadline=None)
@given(s=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_interpolated_walk_is_stochastic(s, seed):
    rng = np.random.default_rng(seed)
    P, _ = random_reversible_chain(6, rng)
    Ps = interpolate(P, make_absorbing(P, [0]), s)
    np.testing.assert_allclose(_column_sums(Ps), 1.0, atol=1e-12)
