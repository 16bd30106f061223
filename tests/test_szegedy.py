import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import szegedy
from walklab.graphs import build_grid, build_rect_grid, build_torus
from walklab.markov import (
    WalkMatrix,
    discriminant,
    interpolate,
    make_absorbing,
    marked_mask,
    random_reversible_chain,
    stationary,
    walk_from_graph,
)
from walklab.spectral import decompose, effective_hitting_time
from walklab.szegedy import (
    CostLedger,
    _lump,
    _torus_orbits,
    _unitarity_residual,
    build_walk,
    cap_estimate,
    estimate_effective_ht,
    find_via_interpolation,
    h_unique,
    interpolated_walk,
    interpolation_parameter,
    simulate_detection,
)

TWO_STATE = WalkMatrix(np.full((2, 2), 0.5), "plain")


def pair_space_walk(base: WalkMatrix):
    """Brute-force N^2-dimensional two-register walk: W = SWAP (2 Pi_A - I)."""
    B = base.mat.toarray()
    N = B.shape[0]
    Phi = np.zeros((N * N, N))
    for x in range(N):
        for y in range(N):
            Phi[x * N + y, x] = math.sqrt(B[y, x])
    S = np.zeros((N * N, N * N))
    for x in range(N):
        for y in range(N):
            S[y * N + x, x * N + y] = 1.0
    W = S @ (2.0 * Phi @ Phi.T - np.eye(N * N))
    return Phi, S, W


def assert_frame_matches_pair_space(base: WalkMatrix, pi, marked, T=8, tol=1e-10):
    Phi, S, W = pair_space_walk(base)
    N = base.dim
    walk = build_walk(base)
    c, d = walk.initial_state(pi)
    v = Phi @ np.sqrt(pi)
    mask = np.zeros(N, dtype=bool)
    mask[list(marked)] = True
    proj = np.kron(np.diag(mask.astype(float)), np.eye(N))
    init_full = v.copy()
    init_frame = (c.copy(), d.copy())
    for _ in range(T):
        assert abs(walk.marked_mass(c, d, mask) - v @ proj @ v) < tol
        assert abs(walk.inner(init_frame, (c, d)) - init_full @ v) < tol
        q_full = (v.reshape(N, N) ** 2).sum(axis=1)
        np.testing.assert_allclose(
            walk.vertex_distribution(c, d), q_full / q_full.sum(), atol=tol
        )
        c, d = walk.step(c, d)
        v = W @ v


class TestFrameCorrespondence:
    def test_plain_torus(self):
        P = walk_from_graph(build_torus(3))
        pi = stationary(P).probs
        assert_frame_matches_pair_space(P, pi, [0])

    def test_absorbing_random_chain(self):
        rng = np.random.default_rng(1)
        P, pi = random_reversible_chain(7, rng)
        Pa = make_absorbing(P, [2, 5])
        assert_frame_matches_pair_space(Pa, pi, [2, 5])

    def test_interpolated_chain(self):
        rng = np.random.default_rng(2)
        P, pi = random_reversible_chain(6, rng)
        Ps = interpolate(P, make_absorbing(P, [0]), 0.6)
        assert_frame_matches_pair_space(Ps, pi, [0])

    def test_non_reversible_chain(self):
        # the frame construction never needs reversibility
        rng = np.random.default_rng(3)
        mat = rng.random((5, 5)) + 0.1
        mat /= mat.sum(axis=0, keepdims=True)
        P = WalkMatrix(mat, "plain")
        pi = stationary(P).probs
        assert_frame_matches_pair_space(P, pi, [1, 4])


class TestEigenphases:
    def test_cosines_match_discriminant_spectrum(self):
        # frame step acts as (c, d) -> (-d, c + 2 D d); per eigenvalue
        # lambda of D the 2x2 block has eigenphases +-arccos(lambda)
        P = walk_from_graph(build_torus(3))
        D = discriminant(P).toarray()
        N = D.shape[0]
        F = np.block([[np.zeros((N, N)), -np.eye(N)], [np.eye(N), 2.0 * D]])
        cosines = np.sort(np.cos(np.angle(np.linalg.eigvals(F))))
        expected = np.sort(np.concatenate([np.linalg.eigvalsh(D)] * 2))
        np.testing.assert_allclose(cosines, expected, atol=1e-8)


class TestWalkBasics:
    def test_initial_state_is_stationary_frame_state(self):
        P = walk_from_graph(build_torus(4))
        pi = stationary(P).probs
        walk = build_walk(P)
        c, d = walk.initial_state(pi)
        np.testing.assert_allclose(c, np.sqrt(pi), atol=1e-14)
        assert np.all(d == 0)
        assert math.sqrt(walk.inner((c, d), (c, d))) == pytest.approx(1.0, abs=1e-12)
        mask = np.zeros(16, dtype=bool)
        mask[[0, 3]] = True
        assert walk.marked_mass(c, d, mask) == pytest.approx(pi[mask].sum(), abs=1e-12)
        np.testing.assert_allclose(walk.vertex_distribution(c, d), pi, atol=1e-12)

    def test_column_mass_passed_in_matches(self):
        rng = np.random.default_rng(6)
        P, pi = random_reversible_chain(8, rng)
        walk = build_walk(interpolate(P, make_absorbing(P, [1, 4]), 0.5))
        mask = np.zeros(8, dtype=bool)
        mask[[1, 4]] = True
        col_mass = walk.marked_column_mass(mask)
        np.testing.assert_allclose(col_mass, walk.base.mat.toarray()[mask].sum(axis=0), rtol=0, atol=1e-15)
        c, d = walk.initial_state(pi)
        for _ in range(5):
            c, d = walk.step(c, d)
            assert walk.marked_mass(c, d, mask, col_mass) == walk.marked_mass(c, d, mask)

    def test_step_preserves_norm(self):
        rng = np.random.default_rng(4)
        P, pi = random_reversible_chain(8, rng)
        walk = build_walk(make_absorbing(P, [1]))
        state = walk.initial_state(pi)
        for _ in range(20):
            state = walk.step(*state)
        assert math.sqrt(walk.inner(state, state)) == pytest.approx(1.0, abs=1e-9)

    def test_validation_accepts_absorbing_chain(self):
        chain = WalkMatrix(np.array([[1.0, 0.3], [0.0, 0.7]]), "plain")
        walk = build_walk(chain)  # unitarity in the Gram metric holds
        assert np.any(walk.disc.diagonal() >= 1.0 - 1e-12)  # an absorbing column


class TestDetection:
    def test_control_is_flat(self):
        P = walk_from_graph(build_torus(4))
        for T in (0, 1, 7, 32):
            assert simulate_detection(P, [], T) == pytest.approx(1.0, abs=1e-12)

    def test_torus5_frozen_curve(self):
        P = walk_from_graph(build_torus(5))
        for T, expected in ((1, 0.96), (2, 0.86), (4, 0.545), (8, 0.3509375)):
            assert simulate_detection(P, [0], T) == pytest.approx(expected, abs=1e-9)

    def test_absorbed_mass_is_monotone(self):
        # the classical absorption curve the estimator probes is a CDF:
        # the quantum overlap itself oscillates and is not monotone
        rng = np.random.default_rng(5)
        for _ in range(5):
            P, pi = random_reversible_chain(int(rng.integers(4, 12)), rng)
            m = rng.choice(P.dim, size=int(rng.integers(1, 3)), replace=False)
            Pa = make_absorbing(P, m)
            mask = np.zeros(P.dim, dtype=bool)
            mask[m] = True
            p = np.where(mask, 0.0, pi)
            p /= p.sum()
            prev = 0.0
            for _ in range(30):
                p = Pa.mat @ p
                absorbed = p[mask].sum()
                assert absorbed >= prev - 1e-12
                prev = absorbed


class TestInterpolationParameter:
    def test_large_estimates_give_plain_chain(self):
        assert interpolation_parameter(0.5) == 0.0
        assert interpolation_parameter(0.9) == 0.0

    def test_quarter(self):
        assert interpolation_parameter(0.25) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_clamped_below_one(self):
        assert interpolation_parameter(1e-12) < 1.0

    def test_rejects_degenerate(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                interpolation_parameter(bad)


class TestFind:
    def test_fixed_point_returns_marked_mass_exactly(self):
        # eps_estimate >= 1/2 forces s = 0; the stationary frame state is
        # then a fixed point and every time step measures mass eps
        P = walk_from_graph(build_torus(5))
        pi = stationary(P).probs
        assert find_via_interpolation(P, [0], 0.6, 7, pi=pi) == pytest.approx(0.04, abs=1e-12)

    def test_singleton_tori_reach_one_fifth(self, constants):
        from walklab.calibration import torus_walk_steps
        from walklab.spectral import extended_hitting_time

        for n in (4, 5, 8):
            P = walk_from_graph(build_torus(n))
            pi = stationary(P).probs
            eht, eps = extended_hitting_time(P, [0], pi=pi)
            T = torus_walk_steps(eht, constants)
            assert find_via_interpolation(P, [0], eps, T, pi=pi) >= 0.2

    def test_deterministic(self):
        P = walk_from_graph(build_torus(5))
        pi = stationary(P).probs
        a = find_via_interpolation(P, [0, 7], 0.08, 12, pi=pi)
        b = find_via_interpolation(P, [0, 7], 0.08, 12, pi=pi)
        assert a == b


class TestEstimator:
    def test_two_state_needs_two_steps(self):
        # conditioned on starting unmarked, one step absorbs exactly 1/2 < 3/4
        est = estimate_effective_ht(TWO_STATE, [1])
        assert est.h_tilde == 2
        assert est.probes == (1, 2)
        assert not est.halted
        assert est.ledger.setup_count == 1
        assert est.ledger.steps == 3  # ceil(sqrt(1)) + ceil(sqrt(2))

    def test_torus5_frozen(self):
        est = estimate_effective_ht(walk_from_graph(build_torus(5)), [0])
        assert est.h_tilde == 64
        assert est.probes == (1, 2, 4, 8, 16, 32, 64)
        assert est.ledger.steps == 26

    def test_budget_halts_before_overspending(self):
        est = estimate_effective_ht(walk_from_graph(build_torus(5)), [0], budget=3)
        assert est.halted and est.h_tilde is None
        assert est.ledger.steps <= 3

    def test_cost_stays_within_geometric_sum(self):
        # sum of ceil(sqrt(T)) over the doubling ladder up to h_tilde
        for n in (5, 9, 17):
            est = estimate_effective_ht(walk_from_graph(build_torus(n)), [0])
            bound = (2 + math.sqrt(2)) * math.sqrt(est.h_tilde) + math.log2(est.h_tilde) + 2
            assert est.ledger.steps <= bound

    def test_estimate_between_half_and_full_effective_time(self):
        P = walk_from_graph(build_torus(9))
        # smallest T with marked mass >= 0.75 under the absorbing walk from
        # pi conditioned on the unmarked states
        p = stationary(P).probs.copy()
        p[0] = 0.0
        p /= p.sum()
        op = make_absorbing(P, [0]).mat
        target = 0
        while p[0] < 0.75 - 1e-12:
            p = op @ p
            target += 1
        est = estimate_effective_ht(P, [0])
        assert target <= est.h_tilde < 2 * target

    def test_cap_semantics(self):
        P = walk_from_graph(build_torus(5))
        capped = cap_estimate(estimate_effective_ht(P, [0], budget=3), 5)
        assert capped == h_unique(5)
        full = cap_estimate(estimate_effective_ht(P, [0]), 5)
        assert full == 64

    def test_determinism(self):
        P = walk_from_graph(build_torus(5))
        a = estimate_effective_ht(P, [0])
        b = estimate_effective_ht(P, [0])
        assert a == b and a.ledger.to_dict() == b.ledger.to_dict()


class TestHUnique:
    def test_frozen_values(self):
        assert h_unique(5) == 35
        assert h_unique(9) == 144
        assert h_unique(17) == 637


class TestCostLedger:
    def test_charges_and_merge(self):
        a = CostLedger()
        a.charge_setup()
        a.charge_steps(5)
        b = CostLedger()
        b.charge_steps(3)
        a.merge(b)
        assert a.setup_count == 1
        assert a.steps == 8
        assert a.setup_count + a.update_count + a.check_count == 1 + 8 + 8
        assert a.to_dict()["steps"] == 8

    def test_rejects_negative(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge_steps(-1)
        with pytest.raises(ValueError):
            ledger.charge_setup(-2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(0.0, 0.99))
def test_gram_unitarity_property(seed, s):
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_chain(5, rng)
    base = interpolate(P, make_absorbing(P, [0]), s)
    walk = build_walk(base)  # raises if W^T G W != G
    state = walk.initial_state(pi)
    for _ in range(3):
        state = walk.step(*state)
    assert math.sqrt(walk.inner(state, state)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_marked_mass_is_a_probability(seed):
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_chain(6, rng)
    mask = np.zeros(6, dtype=bool)
    mask[rng.choice(6, size=2, replace=False)] = True
    walk = build_walk(make_absorbing(P, np.flatnonzero(mask)))
    c, d = walk.initial_state(pi)
    for _ in range(6):
        m = walk.marked_mass(c, d, mask)
        assert -1e-10 <= m <= 1.0 + 1e-10
        c, d = walk.step(c, d)


def _gram_unitarity_residual(disc: np.ndarray) -> float:
    """Dense oracle: max |W^T G W - G| from the 2N x 2N block matrices."""
    n = disc.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    W = np.block([[zero, -eye], [eye, 2.0 * disc]])
    G = np.block([[eye, disc], [disc, eye]])
    return float(np.abs(W.T @ G @ W - G).max())


def _checkerboard(height: int, width: int) -> list[int]:
    return [r * width + c for r in range(height) for c in range(width) if (r + c) % 2 == 0]


def _sample_discriminant(states: int) -> sp.csr_array:
    rng = np.random.default_rng(states)
    if states == 64:  # an 8x8 search block, sparse pattern
        P = walk_from_graph(build_rect_grid(8, 8))
        return discriminant(interpolate(P, make_absorbing(P, _checkerboard(8, 8)), 0.7))
    P, _ = random_reversible_chain(states, rng)
    return discriminant(interpolate(P, make_absorbing(P, [0, states // 2]), 0.4))


class TestUnitarityResidual:
    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("states", [5, 17, 64])
    def test_closed_form_matches_dense_oracle(self, states, delta):
        D = _sample_discriminant(states)
        D.data += delta * np.random.default_rng(1).uniform(-1.0, 1.0, D.data.size)
        expected = _gram_unitarity_residual(D.toarray())
        # the oracle rounds sums of O(1) products: a few ulps of 2 apart
        assert _unitarity_residual(D) == pytest.approx(expected, rel=1e-9, abs=2e-15)

    def test_build_walk_rejects_asymmetric_discriminant_of_large_chain(self, monkeypatch):
        P = walk_from_graph(build_torus(17))  # 289 states

        def skewed(base):
            D = discriminant(base)
            D.data[0] += 1e-6
            return D

        monkeypatch.setattr(szegedy, "discriminant", skewed)
        with pytest.raises(RuntimeError, match="unitarity residual"):
            build_walk(P)


class TestOrbitChain:
    def test_matches_full_chain(self):
        for n in range(3, 34):
            assert h_unique(n) == effective_hitting_time(walk_from_graph(build_torus(n)), [0]), n

    def test_frozen_large_values(self):
        # recorded on the full 16,384-state chain
        assert h_unique(48) == 6738
        assert h_unique(64) == 12801
        assert h_unique(128) == 59138

    def test_iterates_orbit_chain(self, monkeypatch):
        dims = []

        def spy(P, marked, **kwargs):
            dims.append(P.dim)
            return effective_hitting_time(P, marked, **kwargs)

        monkeypatch.setattr(szegedy, "effective_hitting_time", spy)
        sides = (2, 5, 8, 33, 64)
        for n in sides:
            h_unique.__wrapped__(n)
        assert dims == [(n // 2 + 1) * (n // 2 + 2) // 2 for n in sides]

    def test_lump_rejects_non_lumpable_chain(self):
        B = walk_from_graph(build_torus(5)).mat.toarray()
        B[0, 1] += B[2, 1]  # vertex (0, 1) now steps to 0 where (1, 0) steps to (2, 0)
        B[2, 1] = 0.0
        with pytest.raises(ValueError, match="lumpable"):
            _lump(WalkMatrix(B), _torus_orbits(5))


def _find_two_products(P, marked, eps_estimate, T, pi):
    """The finding loop with marked_mass and step each computing disc @ d."""
    mask = marked_mask(P.dim, marked)
    walk, (c, d) = interpolated_walk(P, np.flatnonzero(mask), eps_estimate, pi)
    col_mass = walk.marked_column_mass(mask)
    total = 0.0
    for t in range(T):
        if t > 0:
            c, d = walk.step(c, d)
        total += walk.marked_mass(c, d, mask, col_mass)
    return float(total / T)


FIND_CASES = {
    "torus5-single": (lambda: build_torus(5), [0]),
    "torus8-pair": (lambda: build_torus(8), [0, 36]),
    "grid8-three": (lambda: build_grid(8), [0, 3, 9]),
    "block8x8-checkerboard": (lambda: build_rect_grid(8, 8), _checkerboard(8, 8)),
}


class TestSharedProduct:
    @pytest.mark.parametrize("case", sorted(FIND_CASES))
    def test_find_matches_two_product_loop(self, case):
        graph, marked = FIND_CASES[case]
        P = walk_from_graph(graph())
        pi = np.full(P.dim, 1.0 / P.dim)
        for eps in (0.5**2, 0.5**4, 0.5**7):
            for T in (1, 2, 37):
                assert find_via_interpolation(P, marked, eps, T, pi=pi) == _find_two_products(
                    P, marked, eps, T, pi
                )

    def test_step_and_marked_mass_take_the_product(self):
        P, pi = random_reversible_chain(9, np.random.default_rng(7))
        walk = build_walk(interpolate(P, make_absorbing(P, [2, 5]), 0.4))
        mask = marked_mask(9, [2, 5])
        c, d = walk.initial_state(pi)
        for _ in range(6):
            disc_d = walk.disc @ d
            assert walk.marked_mass(c, d, mask, disc_d=disc_d) == walk.marked_mass(c, d, mask)
            c2, d2 = walk.step(c, d, disc_d=disc_d)
            c, d = walk.step(c, d)
            assert np.array_equal(c, c2) and np.array_equal(d, d2)

    def test_one_discriminant_product_per_time_point(self, monkeypatch):
        products = []

        class CountingCSR(sp.csr_array):
            def __matmul__(self, other):
                products.append(other.shape)
                return super().__matmul__(other)

        def counted(*args):
            walk, state = interpolated_walk(*args)
            return replace(walk, disc=CountingCSR(walk.disc)), state

        monkeypatch.setattr(szegedy, "interpolated_walk", counted)
        P = walk_from_graph(build_rect_grid(8, 8))
        for T in (1, 2, 17):
            products.clear()
            find_via_interpolation(P, [0, 9, 27], 1 / 16, T, pi=np.full(64, 1 / 64))
            assert len(products) == T
