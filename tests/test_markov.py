import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.markov import (
    WalkMatrix,
    discriminant,
    export_triplets,
    lattice_walk,
    marked_mask,
    random_reversible_chain,
    restrict,
    stationary,
)
from walklab.szegedy import interpolation_parameter

from oracles import (
    absorbing,
    convex_combination,
    edge_list_walk,
    entrywise_discriminant,
    lump,
    restricted_discriminant,
)

TWO_STATE = WalkMatrix(np.full((2, 2), 0.5))


def _column_sums(P):
    return np.asarray(P.mat.toarray().sum(axis=0)).ravel()


def check_reversible(P, pi, tol=1e-10):
    """Oracle: (ok, worst violation of detailed balance P[y,x] pi[x] = P[x,y] pi[y])."""
    flow = P.mat.toarray() * pi[None, :]
    worst = float(np.abs(flow - flow.T).max())
    return worst <= tol, worst


def is_primitive(P):
    """Oracle: some power of P is entrywise positive (irreducible and aperiodic).

    By Wielandt's bound, if any power is positive then the (n-1)^2 + 1 power is.
    """
    A = (P.mat.toarray() > 0).astype(float)
    reach = A
    for _ in range((A.shape[0] - 1) ** 2):
        if reach.all():
            break
        reach = np.minimum(reach @ A, 1.0)
    return bool(reach.all())


def interpolated_stationary(pi, marked, s):
    """Oracle: fixed point of (1 - s) P + s P_abs in closed form.

    Interpolation only rescales flow out of marked columns, so the fixed
    point is pi with unmarked mass damped by (1 - s) and renormalized.
    """
    out = np.where(marked_mask(pi.size, marked), pi, (1.0 - s) * pi)
    return out / out.sum()


def _sparse_nonreversible_chain(n=7, seed=11):
    """Random chain with zero entries whose pattern is not symmetric."""
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    mat[(np.arange(n) + 1) % n, np.arange(n)] = 1.0  # no empty column
    mat /= mat.sum(axis=0, keepdims=True)
    assert ((mat > 0) != (mat.T > 0)).any()
    return WalkMatrix(mat)


def _assert_canonical(mat):
    assert isinstance(mat, sp.csr_array)
    assert mat.dtype == np.float64
    assert mat.has_canonical_format
    assert mat.data.all()


def _assert_same_as_dense_oracle(D, P):
    """D is canonical and equals sqrt(B * B^T) of P's dense copy B, stored array for stored array."""
    _assert_canonical(D)
    B = P.mat.toarray()
    want = sp.csr_array(np.sqrt(B * B.T))
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(D, name), getattr(want, name), err_msg=name)


class TestWalkMatrix:
    def test_columns_are_distributions(self):
        for P in (lattice_walk("torus", (5, 5)), lattice_walk("grid", (4, 4))):
            np.testing.assert_allclose(_column_sums(P), 1.0, atol=1e-12)

    def test_matvec_preserves_mass(self):
        P = lattice_walk("torus", (4, 4))
        p = np.zeros(16)
        p[3] = 1.0
        for _ in range(5):
            p = P.mat @ p
        assert abs(p.sum() - 1.0) < 1e-12

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError):
            WalkMatrix(np.array([[0.5, 0.2], [0.2, 0.5]]))

    def test_torus_two_has_half_entries(self):
        P = lattice_walk("torus", (2, 2))
        assert set(np.unique(P.mat.toarray())) == {0.0, 0.5}

    def test_dense_input_becomes_canonical_csr(self):
        dense = np.array([[0.0, 0.5, 1.0], [0.25, 0.5, 0.0], [0.75, 0.0, 0.0]])
        P = WalkMatrix(dense)
        _assert_canonical(P.mat)
        np.testing.assert_array_equal(P.mat.toarray(), dense)

    def test_duplicate_and_unsorted_csr_input(self):
        # rows 0 and 1 list their columns out of order, row 0 holds
        # (0, 2) twice and row 1 stores an explicit zero at (1, 2)
        data = np.array([0.5, 0.25, 0.5, 0.0, 1.0, 0.75])
        indices = np.array([2, 0, 2, 2, 1, 0], dtype=np.int32)
        indptr = np.array([0, 3, 5, 6], dtype=np.int32)
        raw = sp.csr_array((data, indices, indptr), shape=(3, 3))
        saved = (data.copy(), indices.copy(), indptr.copy())
        P = WalkMatrix(raw)
        _assert_canonical(P.mat)
        expected = np.array([[0.25, 0.0, 1.0], [0.0, 1.0, 0.0], [0.75, 0.0, 0.0]])
        np.testing.assert_array_equal(P.mat.toarray(), expected)
        for before, after in zip(saved, (raw.data, raw.indices, raw.indptr)):
            np.testing.assert_array_equal(before, after)
        _assert_same_as_dense_oracle(discriminant(P), P)


class TestLatticeWalk:
    @pytest.mark.parametrize("h", range(1, 10))
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_matches_the_edge_list_oracle_bit_for_bit(self, kind, h):
        for w in range(1, 10):
            got, want = lattice_walk(kind, (h, w)), edge_list_walk(kind, (h, w))
            assert got.lattice == want.lattice
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got.mat, name), getattr(want.mat, name)
                assert a.dtype == b.dtype, (name, w)
                np.testing.assert_array_equal(a, b, err_msg=f"{name} at width {w}")

    def test_sides_below_one_are_refused(self):
        for kind in ("torus", "grid"):
            with pytest.raises(ValueError, match="positive side lengths"):
                lattice_walk(kind, (0, 4))

    def test_other_kinds_are_refused(self):
        with pytest.raises(ValueError, match="expected torus or grid"):
            lattice_walk("line", (4, 1))


class TestStationary:
    def test_uniform_on_torus_and_grid(self):
        # sides at which a power iteration from uniform lands an ulp off
        for kind, shape in (("torus", (7, 7)), ("torus", (17, 17)), ("torus", (33, 33)),
                            ("grid", (10, 10)), ("grid", (3, 5))):
            P = lattice_walk(kind, shape)
            np.testing.assert_array_equal(stationary(P), np.full(P.dim, 1.0 / P.dim))

    def test_periodic_chain_converges(self):
        # pure 2-cycle: periodic, so powers of P never converge, but doubly stochastic
        P = WalkMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(stationary(P), [0.5, 0.5])

    def test_rejects_chain_that_is_not_doubly_stochastic(self):
        P, _ = random_reversible_chain(9, np.random.default_rng(0))
        with pytest.raises(ValueError, match="doubly stochastic"):
            stationary(P)

    def test_fixed_point(self, power_iteration_pi):
        rng = np.random.default_rng(0)
        P, pi_known = random_reversible_chain(9, rng)
        np.testing.assert_allclose(P.mat @ pi_known, pi_known, atol=1e-15)
        np.testing.assert_allclose(power_iteration_pi(P), pi_known, atol=1e-9)


class TestStructureChecks:
    def test_torus_reversible(self):
        P = lattice_walk("torus", (5, 5))
        ok, residual = check_reversible(P, stationary(P))
        assert ok and residual < 1e-12

    def test_directed_cycle_not_reversible(self):
        mat = np.zeros((3, 3))
        for x in range(3):
            mat[(x + 1) % 3, x] = 1.0
        P = WalkMatrix(mat)
        ok, residual = check_reversible(P, np.full(3, 1 / 3))
        assert not ok and residual > 0.1

    def test_ergodicity_verdicts(self):
        assert is_primitive(lattice_walk("torus", (5, 5)))
        # even sides are bipartite: connected (the lazy chain is
        # primitive) but 2-periodic
        P = lattice_walk("torus", (4, 4))
        assert not is_primitive(P)
        assert is_primitive(WalkMatrix(0.5 * (P.mat + sp.eye_array(P.dim))))

    def test_grid_is_ergodic(self):
        # boundary self-loops break periodicity
        assert is_primitive(lattice_walk("grid", (4, 4)))


# the 2-torus has parallel edges, the grid self-loops on marked states,
# the thin lattice a 1/2 self-loop on every state
ABSORBING_CASES = {
    "torus16": lambda: (lattice_walk("torus", (16, 16)), [0, 17, 100, 255]),
    "grid9": lambda: (lattice_walk("grid", (9, 9)), [0, 4, 40, 80]),
    "thin7x1": lambda: (lattice_walk("grid", (7, 1)), [0, 3]),
    "torus2": lambda: (lattice_walk("torus", (2, 2)), [1]),
    "reversible9": lambda: (random_reversible_chain(9, np.random.default_rng(3))[0], [2, 4, 5]),
}


class TestAbsorbing:
    """D(P') from the restriction of P, and the oracles P' and P(s) the tests build.

    The package builds neither chain: D(P') is discriminant(P, absorbing=mask),
    and the walks of P(s) run on D(P) scaled on the marked set.
    absorbing (column by column) and convex_combination ((1 - s) P + s P')
    are the chains themselves, for the tests.
    """

    def test_marked_columns_become_identity(self):
        # D(P') is the identity on M and D(P) on U, with nothing between them
        P = lattice_walk("torus", (4, 4))
        mask = marked_mask(16, [0, 5])
        between = mask[:, None] | mask[None, :]
        want = np.where(between, 0.0, discriminant(P).toarray()) + np.diag(mask.astype(np.float64))
        np.testing.assert_array_equal(discriminant(P, absorbing=mask).toarray(), want)

    def test_interpolate_endpoints(self):
        # the P(s) oracle is P at s = 0 and the column oracle's P' at s = 1;
        # past 1 the marked columns go negative
        P = lattice_walk("torus", (4, 4))
        _assert_same_csr(convex_combination(P, [3], 0.0).mat, P.mat)
        _assert_same_csr(convex_combination(P, [3], 1.0).mat, absorbing(P, [3]).mat)
        with pytest.raises(ValueError):
            convex_combination(P, [3], 1.5)

    @pytest.mark.parametrize("case", ["nonreversible", "grid"])
    def test_interpolate_at_one_is_the_absorbing_chain(self, case):
        # the grid's corner 0 has a self-loop, which s = 1 must replace by 1;
        # the discriminant of P(1) is the restriction's D(P')
        if case == "grid":
            P, marked = lattice_walk("grid", (4, 4)), [0, 5, 15]
        else:
            P, marked = _sparse_nonreversible_chain(), [2, 5]
        at_one = convex_combination(P, marked, 1.0)
        _assert_same_csr(at_one.mat, absorbing(P, marked).mat)
        _assert_same_csr(discriminant(at_one), discriminant(P, absorbing=marked_mask(P.dim, marked)))

    @pytest.mark.parametrize("case", sorted(ABSORBING_CASES))
    def test_make_absorbing_is_the_column_oracle_bit_for_bit(self, case):
        # D(P') read from P restricted to U is the discriminant of the column oracle's P'
        P, marked = ABSORBING_CASES[case]()
        got = discriminant(P, absorbing=marked_mask(P.dim, marked))
        _assert_canonical(got)
        _assert_same_csr(got, discriminant(absorbing(P, marked)))

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("case", sorted(ABSORBING_CASES))
    def test_interpolate_scales_the_marked_columns(self, case, s):
        # column by column: unmarked columns as in P, marked ones times 1 - s
        # plus s on the diagonal, bit for bit on M; off M the oracle's
        # (1 - s) p + s p rounds p by at most an ulp.  Scaled by r^2 = 1 - s
        # on U and 1 on M, P(s) is (1 - s) P + s Pi_M: the form in which
        # szegedy.walk_distribution reads P(s) d^2
        P, marked = ABSORBING_CASES[case]()
        mask = marked_mask(P.dim, marked)
        dense = P.mat.toarray()
        for m in marked:
            dense[:, m] *= 1.0 - s
            dense[m, m] += s
        Ps = convex_combination(P, marked, s)
        _assert_canonical(Ps.mat)
        got = Ps.mat.toarray()
        np.testing.assert_array_equal(got[:, mask], dense[:, mask])
        np.testing.assert_allclose(got, dense, rtol=2.0**-52, atol=0)
        r2 = np.where(mask, 1.0, 1.0 - s)
        want = (1.0 - s) * P.mat.toarray() + s * np.diag(mask.astype(np.float64))
        np.testing.assert_allclose(got * r2, want, rtol=0, atol=1e-15)

    def test_absorbing_matches_column_replacement(self):
        # on a chain with one-way entries, and restricting an absorbing chain
        # again changes nothing
        P = _sparse_nonreversible_chain()
        marked = [1, 4]
        mask = marked_mask(P.dim, marked)
        expected = P.mat.toarray()
        expected[:, marked] = np.eye(P.dim)[:, marked]
        Q = discriminant(P, absorbing=mask)
        _assert_canonical(Q)
        np.testing.assert_allclose(Q.toarray(), np.sqrt(expected * expected.T), rtol=0, atol=1e-15)
        _assert_same_csr(discriminant(absorbing(P, marked), absorbing=mask), Q)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.999, 1.0])
    def test_interpolate_matches_convex_combination(self, s):
        P = _sparse_nonreversible_chain()
        absorbed = P.mat.toarray()
        absorbed[:, [2, 5]] = np.eye(P.dim)[:, [2, 5]]
        Ps = convex_combination(P, [2, 5], s)
        _assert_canonical(Ps.mat)
        np.testing.assert_allclose(
            Ps.mat.toarray(), (1.0 - s) * P.mat.toarray() + s * absorbed, rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize(
        "graph",
        [("torus", (8, 8)), ("torus", (5, 5)), ("torus", (2, 2)),
         ("grid", (8, 8)), ("grid", (5, 7)), ("grid", (2, 3))],
        ids=lambda g: f"{g[0]}{g[1]}",
    )
    def test_interpolate_is_the_convex_combination_bit_for_bit_on_lattices(self, graph):
        # lattice entries are 1/4 or 1/2, and every s the package uses is 0
        # or at least 1/2, so 1 - s, both products and their sum are exact:
        # the oracle's P(s) is P with its marked columns scaled, bit for bit
        P = lattice_walk(*graph)
        A = P.mat
        rng = np.random.default_rng(P.dim)
        s_values = [interpolation_parameter(0.5**k) for k in range(1, 15)]
        s_values += [0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999, 1.0]
        for s in s_values:
            marked = rng.choice(P.dim, size=int(rng.integers(1, P.dim // 2 + 1)), replace=False)
            mask = marked_mask(P.dim, marked)
            scaled = sp.csr_array((A.data * np.where(mask, 1.0 - s, 1.0)[A.indices], A.indices, A.indptr), shape=A.shape)
            want = WalkMatrix(scaled + sp.diags_array(np.where(mask, s, 0.0)))
            _assert_same_csr(convex_combination(P, marked, s).mat, want.mat)

    def test_interpolated_stationary_closed_form(self):
        rng = np.random.default_rng(3)
        P, pi = random_reversible_chain(8, rng)
        marked = [2, 6]
        s = 0.7
        Ps = convex_combination(P, marked, s)
        pi_s = interpolated_stationary(pi, marked, s)
        np.testing.assert_allclose(Ps.mat @ pi_s, pi_s, atol=1e-12)
        assert abs(pi_s.sum() - 1.0) < 1e-12


class TestRestrict:
    @pytest.mark.parametrize("case", sorted(ABSORBING_CASES))
    def test_drops_the_marked_rows_and_columns(self, case):
        # the dense copy with M's rows and columns zeroed, stored array for
        # stored array, in the N x N shape; the kept values are not touched
        P, marked = ABSORBING_CASES[case]()
        mask = marked_mask(P.dim, marked)
        got = restrict(P.mat, mask)
        _assert_canonical(got)
        assert got.shape == P.mat.shape
        dense = P.mat.toarray()
        dense[mask] = 0.0
        dense[:, mask] = 0.0
        _assert_same_csr(got, sp.csr_array(dense))

    @pytest.mark.parametrize("case", sorted(ABSORBING_CASES))
    def test_identity_leaves_one_unit_entry_in_each_marked_row(self, case):
        P, marked = ABSORBING_CASES[case]()
        mask = marked_mask(P.dim, marked)
        got = restrict(P.mat, mask, identity=True)
        _assert_canonical(got)
        dense = P.mat.toarray()
        dense[mask] = 0.0
        dense[:, mask] = 0.0
        dense[mask, mask] = 1.0
        _assert_same_csr(got, sp.csr_array(dense))


class TestDiscriminant:
    def test_symmetric_for_reversible(self):
        D = discriminant(lattice_walk("torus", (5, 5)))
        assert (D != D.T).nnz == 0

    def test_entrywise_sqrt(self):
        P = TWO_STATE
        np.testing.assert_array_equal(discriminant(P).toarray(), 0.5)

    def test_nonsymmetric_pattern(self):
        P = _sparse_nonreversible_chain()
        D = discriminant(P)
        _assert_same_as_dense_oracle(D, P)
        assert (D != D.T).nnz == 0

    def test_absorbing_chain(self):
        rng = np.random.default_rng(5)
        P, _ = random_reversible_chain(9, rng)
        Pa = absorbing(P, [0, 3, 7])
        _assert_same_as_dense_oracle(discriminant(Pa), Pa)
        _assert_same_as_dense_oracle(discriminant(P, absorbing=marked_mask(9, [0, 3, 7])), Pa)

    def test_lattice_walk_from_dense_input(self):
        P = WalkMatrix(lattice_walk("grid", (4, 4)).mat.toarray())
        _assert_same_as_dense_oracle(discriminant(P), P)

    @pytest.mark.parametrize("case", [*sorted(ABSORBING_CASES), "nonreversible"])
    def test_is_the_dense_oracle_bit_for_bit(self, case):
        # the chain, its absorbing chain and P(s) at an s whose scaled
        # entries are inexact: entries with a one-way partner drop out
        if case == "nonreversible":
            P, marked = _sparse_nonreversible_chain(), [2, 5]
        else:
            P, marked = ABSORBING_CASES[case]()
        for chain in (P, absorbing(P, marked), convex_combination(P, marked, 0.3)):
            _assert_same_as_dense_oracle(discriminant(chain), chain)
        _assert_same_as_dense_oracle(discriminant(P, absorbing=marked_mask(P.dim, marked)), absorbing(P, marked))

    @pytest.mark.parametrize("h", range(1, 13))
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_lattice_is_its_chain_and_the_entrywise_oracle(self, kind, h):
        # a lattice chain is symmetric, so D(P) is P.mat itself, and that is
        # sqrt(P * P^T) bit for bit, index dtypes included
        for w in range(1, 13):
            P = lattice_walk(kind, (h, w))
            assert discriminant(P) is P.mat
            _assert_same_csr(P.mat, entrywise_discriminant(P), dtypes=True)

    @pytest.mark.parametrize("h", range(2, 13))
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_absorbing_lattice_is_the_restricted_product(self, kind, h):
        # D(P') in one restrict pass equals the restricted entrywise product
        # plus the identity on M, on random masks of every density
        rng = np.random.default_rng(h)
        for w in range(1, 13):
            P = lattice_walk(kind, (h, w))
            for density in (0.1, 0.5, 0.9):
                mask = rng.random(P.dim) < density
                mask[rng.integers(P.dim)] = True
                mask[rng.integers(P.dim)] = False
                if mask.all():
                    continue
                got = discriminant(P, absorbing=mask)
                _assert_canonical(got)
                _assert_same_csr(got, restricted_discriminant(P, mask), dtypes=True)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 10_000), one_way=st.floats(0.0, 0.9), isolate=st.booleans())
    def test_absorbing_chain_with_one_way_entries_is_the_restricted_product(self, n, seed, one_way, isolate):
        # with isolate, state 0 has no self-loop and every partner of it in
        # D(P) is marked, so its row of D(P') stores nothing; one-way
        # entries drop out of both
        rng = np.random.default_rng(seed)
        mat = rng.random((n, n)) ** 8 * (rng.random((n, n)) >= one_way)
        if isolate:
            mat[0, 0] = 0.0
        mat[(np.arange(n) + 1) % n, np.arange(n)] += 1.0  # no empty column
        mat /= mat.sum(axis=0, keepdims=True)
        P = WalkMatrix(mat)
        mask = rng.random(n) < 0.5
        if isolate:
            D = discriminant(P)
            mask[D.indices[D.indptr[0]:D.indptr[1]]] = True
            mask[0] = False
        if not mask.any() or mask.all():
            return
        got = discriminant(P, absorbing=mask)
        _assert_canonical(got)
        _assert_same_csr(got, restricted_discriminant(P, mask), dtypes=True)
        if isolate:
            assert got.indptr[1] == got.indptr[0] == 0

    def test_shared_lattice_arrays_are_read_only(self):
        # discriminant hands out the chain's own arrays, so no caller may write them
        P = lattice_walk("torus", (5, 5))
        for A in (P.mat, discriminant(P)):
            for name in ("data", "indices", "indptr"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(A, name)[0] = 0
        assert discriminant(P, absorbing=marked_mask(25, [3])).data.flags.writeable


def _assert_same_csr(got, want, dtypes=False):
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        if dtypes:
            assert getattr(got, name).dtype == getattr(want, name).dtype, name


class TestLump:
    """The lumping oracle, and the thin lattices whose chains search walks in its place."""

    @pytest.mark.parametrize("n", range(2, 70))
    def test_thin_torus_is_the_torus_lumped_onto_its_lines(self, n):
        P = lattice_walk("torus", (n, n))
        thin = lattice_walk("torus", (n, 1))
        for classes in (np.repeat(np.arange(n), n), np.tile(np.arange(n), n)):  # rows, columns
            _assert_same_csr(thin.mat, lump(P, classes).mat)

    @pytest.mark.parametrize("h", range(2, 40))
    def test_thin_grid_is_the_grid_lumped_onto_its_lines(self, h):
        for w in (2, 3, 5, 8, 13, 40):
            P = lattice_walk("grid", (h, w))
            _assert_same_csr(lattice_walk("grid", (h, 1)).mat, lump(P, np.repeat(np.arange(h), w)).mat)
            _assert_same_csr(lattice_walk("grid", (w, 1)).mat, lump(P, np.tile(np.arange(w), h)).mat)

    def test_grid_rows_lump_to_the_line_walk(self):
        # a row of the clamped grid moves up, down or stays: 1/4, 1/4, 1/2,
        # and the top and bottom rows keep the clamped 1/4 as well
        h, w = 5, 3
        Q = lump(lattice_walk("grid", (h, w)), np.repeat(np.arange(h), w))
        expected = np.diag(np.full(h, 0.5)) + np.diag(np.full(h - 1, 0.25), 1) + np.diag(np.full(h - 1, 0.25), -1)
        expected[0, 0] = expected[-1, -1] = 0.75
        np.testing.assert_array_equal(Q.mat.toarray(), expected)

    def test_torus_columns_lump_to_the_cycle_walk(self):
        n = 6
        Q = lump(lattice_walk("torus", (n, n)), np.tile(np.arange(n), n))
        cycle = 0.5 * np.eye(n) + 0.25 * (np.roll(np.eye(n), 1, axis=0) + np.roll(np.eye(n), -1, axis=0))
        np.testing.assert_array_equal(Q.mat.toarray(), cycle)

    def test_rejects_a_class_map_that_is_not_lumpable(self):
        rows = np.repeat(np.arange(4), 4)
        with pytest.raises(ValueError, match="lumpable"):
            lump(random_reversible_chain(16, np.random.default_rng(0))[0], rows)
        # the grid's rows are lumpable, its diagonals are not
        diagonals = (np.arange(16) // 4 + np.arange(16) % 4) % 4
        with pytest.raises(ValueError, match="lumpable"):
            lump(lattice_walk("grid", (4, 4)), diagonals)


class TestHelpers:
    def test_marked_mask_rejects_degenerate(self):
        with pytest.raises(ValueError):
            marked_mask(4, [])
        with pytest.raises(ValueError):
            marked_mask(4, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            marked_mask(4, [7])

    def test_export_triplets_counts(self):
        P = lattice_walk("torus", (3, 3))
        text = export_triplets(P)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 36  # 9 vertices x 4 neighbors
        row, col, val = lines[0].split()
        assert float(val) == 0.25

    @pytest.mark.parametrize(
        "chain",
        [lambda: lattice_walk("torus", (2, 2)), lambda: lattice_walk("grid", (3, 3)),
         lambda: random_reversible_chain(5, np.random.default_rng(0))[0]],
        ids=["torus2", "grid3", "reversible5"],
    )
    def test_export_triplets_lists_the_dense_matrix_row_major(self, chain):
        # torus:2 sums its parallel edges into 1/2, grid:3 has self-loops
        P = chain()
        dense = P.mat.toarray()
        rows, cols = np.nonzero(dense)
        want = [f"{r} {c} {dense[r, c]:.17g}" for r, c in zip(rows, cols)]
        assert export_triplets(P).splitlines() == want


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 16), seed=st.integers(0, 10_000))
def test_random_chain_is_reversible_and_ergodic(n, seed):
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_chain(n, rng)
    np.testing.assert_allclose(_column_sums(P), 1.0, atol=1e-12)
    ok, residual = check_reversible(P, pi)
    assert ok, residual
    assert is_primitive(P)


@settings(max_examples=30, deadline=None)
@given(s=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_interpolated_walk_is_stochastic(s, seed):
    rng = np.random.default_rng(seed)
    P, _ = random_reversible_chain(6, rng)
    Ps = convex_combination(P, [0], s)
    np.testing.assert_allclose(_column_sums(Ps), 1.0, atol=1e-12)
