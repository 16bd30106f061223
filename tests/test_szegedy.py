import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import lattice as lattice_module
from walklab import markov, search, spectral, szegedy
from walklab.graphs import partition_torus
from walklab.lattice import Lattice
from walklab.markov import (
    WalkMatrix,
    discriminant,
    lattice_walk,
    marked_mask,
    random_reversible_chain,
    stationary,
)
from walklab.search import parse_marked_spec, valid_k_values
from walklab.spectral import effective_hitting_time
from walklab.szegedy import (
    build_walk,
    cap_estimate,
    estimate_effective_ht,
    find_via_interpolation,
    h_unique,
    interpolation_parameter,
    simulate_detection,
    walk_distribution,
)

from oracles import (
    absorbing,
    convex_combination,
    find_block_stepwise,
    find_one,
    frame_walk,
    gram_inner,
    lump,
    marked_column_mass,
)

TWO_STATE = WalkMatrix(np.full((2, 2), 0.5))


def pi_of(P):
    """The stationary vector the package's callers pass: markov.stationary's."""
    return stationary(P)


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
    walk = frame_walk(base)
    c, d = walk.initial_state(pi)
    v = Phi @ np.sqrt(pi)
    mask = np.zeros(N, dtype=bool)
    mask[list(marked)] = True
    proj = np.kron(np.diag(mask.astype(float)), np.eye(N))
    init_full = v.copy()
    init_frame = (c.copy(), d.copy())
    for _ in range(T):
        col_mass = marked_column_mass(base, mask)
        assert abs(walk.marked_mass(c, d, mask, col_mass, disc_d=walk.disc @ d) - v @ proj @ v) < tol
        assert abs(gram_inner(walk, init_frame, (c, d)) - init_full @ v) < tol
        q_full = (v.reshape(N, N) ** 2).sum(axis=1)
        np.testing.assert_allclose(
            walk.vertex_distribution(c, d), q_full / q_full.sum(), atol=tol
        )
        c, d = walk.step(c, d)
        v = W @ v


class TestFrameCorrespondence:
    def test_plain_torus(self):
        P = lattice_walk("torus", (3, 3))
        pi = stationary(P)
        assert_frame_matches_pair_space(P, pi, [0])

    def test_absorbing_random_chain(self):
        rng = np.random.default_rng(1)
        P, pi = random_reversible_chain(7, rng)
        Pa = absorbing(P, [2, 5])
        assert_frame_matches_pair_space(Pa, pi, [2, 5])

    def test_interpolated_chain(self):
        rng = np.random.default_rng(2)
        P, pi = random_reversible_chain(6, rng)
        Ps = convex_combination(P, [0], 0.6)
        assert_frame_matches_pair_space(Ps, pi, [0])

    def test_non_reversible_chain(self, power_iteration_pi):
        # the frame construction never needs reversibility
        rng = np.random.default_rng(3)
        mat = rng.random((5, 5)) + 0.1
        mat /= mat.sum(axis=0, keepdims=True)
        P = WalkMatrix(mat)
        pi = power_iteration_pi(P)
        assert_frame_matches_pair_space(P, pi, [1, 4])


class TestEigenphases:
    def test_cosines_match_discriminant_spectrum(self):
        # frame step acts as (c, d) -> (-d, c + 2 D d); per eigenvalue
        # lambda of D the 2x2 block has eigenphases +-arccos(lambda)
        P = lattice_walk("torus", (3, 3))
        D = discriminant(P).toarray()
        N = D.shape[0]
        F = np.block([[np.zeros((N, N)), -np.eye(N)], [np.eye(N), 2.0 * D]])
        cosines = np.sort(np.cos(np.angle(np.linalg.eigvals(F))))
        expected = np.sort(np.concatenate([np.linalg.eigvalsh(D)] * 2))
        np.testing.assert_allclose(cosines, expected, atol=1e-8)


class TestWalkBasics:
    def test_initial_state_is_stationary_frame_state(self):
        P = lattice_walk("torus", (4, 4))
        pi = stationary(P)
        walk = frame_walk(P)
        c, d = walk.initial_state(pi)
        np.testing.assert_allclose(c, np.sqrt(pi), atol=1e-14)
        assert np.all(d == 0)
        assert math.sqrt(gram_inner(walk, (c, d), (c, d))) == pytest.approx(1.0, abs=1e-12)
        mask = np.zeros(16, dtype=bool)
        mask[[0, 3]] = True
        mass = walk.marked_mass(c, d, mask, marked_column_mass(P, mask), disc_d=walk.disc @ d)
        assert mass == pytest.approx(pi[mask].sum(), abs=1e-12)
        np.testing.assert_allclose(walk.vertex_distribution(c, d), pi, atol=1e-12)

    def test_column_mass_passed_in_matches(self):
        rng = np.random.default_rng(6)
        P, pi = random_reversible_chain(8, rng)
        walk = frame_walk(convex_combination(P, [1, 4], 0.5))
        mask = np.zeros(8, dtype=bool)
        mask[[1, 4]] = True
        col_mass = marked_column_mass(walk.base, mask)
        dense_col_mass = walk.base.mat.toarray()[mask].sum(axis=0)
        support, weights = col_mass
        np.testing.assert_array_equal(support, np.flatnonzero(dense_col_mass))
        np.testing.assert_allclose(weights, dense_col_mass[support], rtol=0, atol=1e-15)
        c, d = walk.initial_state(pi)
        for _ in range(5):
            c, d = walk.step(c, d)
            disc_d = walk.disc @ d
            cm, cross = c[mask], disc_d[mask]
            dense = cm @ cm + 2.0 * (cm @ cross) + (d * d) @ dense_col_mass
            assert walk.marked_mass(c, d, mask, col_mass, disc_d=disc_d) == pytest.approx(dense, rel=1e-14)

    def test_column_mass_lives_on_the_marked_neighbours(self, monkeypatch):
        # the finding walk's readout reads d on row 0 and on the rows above
        # and below it only: one marked_mass call for all three time points,
        # with a column mass and a d history of exactly those 3 * 128 rows,
        # each time point the full walk's d on them
        calls, supports = [], []
        real_mass, real_history = szegedy.SzegedyWalk.marked_mass, szegedy._walk_history

        def spy_mass(self, c, d, mask, col_mass, *, disc_d):
            calls.append((c.copy(), d.copy(), col_mass[1].copy(), disc_d.copy()))
            return real_mass(self, c, d, mask, col_mass, disc_d=disc_d)

        def spy_history(walk, support, *args):
            supports.append(support)
            return real_history(walk, support, *args)

        monkeypatch.setattr(szegedy.SzegedyWalk, "marked_mass", spy_mass)
        monkeypatch.setattr(szegedy, "_walk_history", spy_history)
        P = lattice_walk("torus", (128, 128))
        pi = stationary(P)
        eps = [0.25, 0.5**9]
        find_via_interpolation(P, range(128), eps, 3, pi)
        [support] = supports
        [(c, d, weights, disc_d)] = calls
        rows = np.r_[0:256, 127 * 128:128 * 128]
        np.testing.assert_array_equal(support, rows)
        np.testing.assert_array_equal(np.unique(support // 128), [0, 1, 127])
        assert d.shape == (3 * 128, 3, 2) and c.shape == disc_d.shape == (128, 3, 2)
        # the full walk in scaled coordinates, R sqrt(pi) = sqrt(pi) / sqrt(1 - s) off row 0
        s = np.array([interpolation_parameter(e) for e in eps])
        mask = marked_mask(P.dim, range(128))
        m0 = mask @ P.mat
        np.testing.assert_array_equal(weights[:, 0], (1.0 - s) * m0[rows, None] + s * mask[rows, None])
        full = [np.zeros((P.dim, 2)), np.where(mask[:, None], np.sqrt(pi)[:, None], np.sqrt(pi)[:, None] / np.sqrt(1.0 - s))]
        ad = build_walk(P).disc @ full[1]
        ad[:128] = (1.0 - s) * ad[:128] + s * full[1][:128]
        full.append(2.0 * ad - full[0])
        for t in range(3):
            np.testing.assert_array_equal(d[:, t], full[t][rows])
        # the second step moved rows 1 and 127, next to the marks, off the rest
        assert np.all(full[2][128:256] != full[2][256:384])
        np.testing.assert_array_equal(c[:, 0], full[1][:128])
        np.testing.assert_array_equal(c[:, 1], 0.0)
        np.testing.assert_array_equal(c[:, 2], -full[1][:128])

    def test_step_preserves_norm(self):
        rng = np.random.default_rng(4)
        P, pi = random_reversible_chain(8, rng)
        walk = frame_walk(absorbing(P, [1]))
        state = walk.initial_state(pi)
        for _ in range(20):
            state = walk.step(*state)
        assert math.sqrt(gram_inner(walk, state, state)) == pytest.approx(1.0, abs=1e-9)

    def test_validation_accepts_absorbing_chain(self):
        chain = WalkMatrix(np.array([[1.0, 0.3], [0.0, 0.7]]))
        walk = build_walk(chain)  # unitarity in the Gram metric holds
        assert np.any(walk.disc.diagonal() >= 1.0 - 1e-12)  # an absorbing column


class TestDetection:
    def test_control_is_flat(self):
        # with nothing absorbed the stationary frame state is a fixed point;
        # detection itself needs a marked set
        P = lattice_walk("torus", (4, 4))
        walk = frame_walk(P)
        init = state = walk.initial_state(pi_of(P))
        for _ in range(32):
            state = walk.step(*state)
            assert abs(gram_inner(walk, init, state)) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="nonempty"):
            simulate_detection(P, [], 1, pi_of(P))

    def test_torus5_frozen_curve(self):
        P = lattice_walk("torus", (5, 5))
        for T, expected in ((1, 0.96), (2, 0.86), (4, 0.545), (8, 0.3509375)):
            assert simulate_detection(P, [0], T, pi_of(P)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 7, 8, 16])
    def test_chebyshev_form_is_the_frame_walk(self, n):
        # the overlap of W(P')^T from the frame walk itself, read through the Gram metric
        P = lattice_walk("torus", (n, n))
        pi = pi_of(P)
        walk = frame_walk(absorbing(P, [0]))
        init = state = walk.initial_state(pi)
        for T in range(4 * n):
            assert simulate_detection(P, [0], T, pi) == pytest.approx(abs(gram_inner(walk, init, state)), abs=1e-13)
            state = walk.step(*state)


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
        P = lattice_walk("torus", (5, 5))
        pi = stationary(P)
        assert find_via_interpolation(P, [0], [0.6], 7, pi=pi) == [pytest.approx(0.04, abs=1e-12)]

    def test_singleton_tori_reach_one_fifth(self, constants):
        from walklab.calibration import torus_walk_steps
        from walklab.spectral import extended_hitting_time

        for n in (4, 5, 8):
            P = lattice_walk("torus", (n, n))
            pi = stationary(P)
            eht, eps = extended_hitting_time(P, [0], pi=pi)
            T = torus_walk_steps(eht, constants)
            assert find_via_interpolation(P, [0], [eps], T, pi=pi)[0] >= 0.2

    def test_deterministic(self):
        P = lattice_walk("torus", (5, 5))
        pi = stationary(P)
        a = find_via_interpolation(P, [0, 7], [0.08, 0.3], 12, pi=pi)
        b = find_via_interpolation(P, [0, 7], [0.08, 0.3], 12, pi=pi)
        assert a == b
        assert all(type(v) is float for v in a)

    def test_one_success_per_estimate(self):
        P = lattice_walk("torus", (5, 5))
        pi = stationary(P)
        assert find_via_interpolation(P, [0], [], 3, pi=pi) == []
        with pytest.raises(ValueError, match="strictly between"):
            find_via_interpolation(P, [0], [0.2, 1.0], 3, pi=pi)
        with pytest.raises(ValueError, match="time point"):
            find_via_interpolation(P, [0], [0.2], 0, pi=pi)


BIG_BUDGET = 10**6


def estimate(P, marked, budget=BIG_BUDGET):
    return estimate_effective_ht(P, marked, pi=stationary(P), budget=budget)


class TestEstimator:
    def test_two_state_needs_two_steps(self):
        # conditioned on starting unmarked, one step absorbs exactly 1/2 < 3/4
        est = estimate(TWO_STATE, [1])
        assert est.h_tilde == 2
        assert est.probes == (1, 2)
        assert not est.halted
        assert est.to_dict()["ledger"]["setup_count"] == 1
        assert est.steps == 3  # ceil(sqrt(1)) + ceil(sqrt(2))

    def test_torus5_frozen(self):
        est = estimate(lattice_walk("torus", (5, 5)), [0])
        assert est.h_tilde == 64
        assert est.probes == (1, 2, 4, 8, 16, 32, 64)
        assert est.steps == 26

    def test_budget_halts_before_overspending(self):
        est = estimate(lattice_walk("torus", (5, 5)), [0], budget=3)
        assert est.halted and est.h_tilde is None
        assert est.steps <= 3

    def test_cost_stays_within_geometric_sum(self):
        # sum of ceil(sqrt(T)) over the doubling ladder up to h_tilde
        for n in (5, 9, 17):
            est = estimate(lattice_walk("torus", (n, n)), [0])
            bound = (2 + math.sqrt(2)) * math.sqrt(est.h_tilde) + math.log2(est.h_tilde) + 2
            assert est.steps <= bound

    def test_estimate_between_half_and_full_effective_time(self):
        P = lattice_walk("torus", (9, 9))
        # smallest T with marked mass >= 0.75 under the absorbing walk from
        # pi conditioned on the unmarked states
        p = stationary(P).copy()
        p[0] = 0.0
        p /= p.sum()
        op = absorbing(P, [0]).mat
        target = 0
        while p[0] < 0.75 - 1e-12:
            p = op @ p
            target += 1
        est = estimate(P, [0])
        assert target <= est.h_tilde < 2 * target

    def test_cap_semantics(self):
        P = lattice_walk("torus", (5, 5))
        capped = cap_estimate(estimate(P, [0], budget=3), 5)
        assert capped == h_unique(5)
        full = cap_estimate(estimate(P, [0]), 5)
        assert full == 64

    def test_determinism(self):
        P = lattice_walk("torus", (5, 5))
        a = estimate(P, [0])
        b = estimate(P, [0])
        assert a == b and a.to_dict() == b.to_dict()


def _probe_loop(P, marked, pi, budget):
    """Oracle: the estimator as a probe loop, iterating the chain to each probe in turn.

    Returns the estimate's to_dict() and the steps its probes paid: one
    setup, then each probe's ceil(sqrt(T)) updates and as many checks.
    """
    mask = marked_mask(P.dim, marked)
    p = np.where(mask, 0.0, pi)
    p = p / p.sum()
    op = absorbing(P, np.flatnonzero(mask)).mat
    steps = 0
    probes = []
    t_done = 0

    def result(h_tilde):
        ledger = {"setup_count": 1, "update_count": steps, "check_count": steps, "steps": steps}
        return {"h_tilde": h_tilde, "probes": probes, "halted": h_tilde is None, "ledger": ledger}, steps

    for i in range(48):
        T = 1 << i
        probe_cost = math.isqrt(T - 1) + 1
        if steps + probe_cost > budget:
            return result(None)
        steps += probe_cost
        probes.append(T)
        while t_done < T:
            p = op @ p
            t_done += 1
        if float(p[mask].sum()) >= 0.75 - 1e-12:
            return result(T)
    raise RuntimeError("probe loop exceeded 48 doublings")


ORACLE_BUDGETS = (*range(40), 100, 1_000, BIG_BUDGET)


def _oracle_cases():
    """(name, chain, pi, marked) on tori n = 2..24, grids and random reversible chains."""
    rng = np.random.default_rng(20161228)
    for n in range(2, 25):
        P = lattice_walk("torus", (n, n))
        size = 1 if n % 4 == 0 else int(rng.integers(1, n * n))
        yield f"torus{n}", P, np.full(n * n, 1.0 / (n * n)), rng.choice(n * n, size=size, replace=False)
    for n in (3, 6, 11):
        P = lattice_walk("grid", (n, n))
        yield f"grid{n}", P, stationary(P), rng.choice(n * n, size=int(rng.integers(1, n)), replace=False)
    for size in (2, 5, 9, 16):
        P, pi = random_reversible_chain(size, rng)
        yield f"random{size}", P, pi, rng.choice(size, size=int(rng.integers(1, size)), replace=False)


class TestEstimatorMatchesProbeLoop:
    @pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
    def test_every_budget(self, case):
        _, P, pi, marked = case
        for budget in ORACLE_BUDGETS:
            est = estimate_effective_ht(P, marked, pi=pi, budget=budget)
            expected, steps = _probe_loop(P, marked, pi, budget)
            assert est.to_dict() == expected, budget
            assert est.steps == steps, budget

    def test_reads_the_first_passage_from_chebyshev_moments(self, first_passage_products):
        # search --n 48 --marked random:40:1: the first passage is step 177,
        # the passing probe 256.  Doubling to 256 and bisecting back reads
        # moments to degree d(256) = 135, two per product: 68 products of
        # D(P'), where the step loop took 177 products of P'
        P = lattice_walk("torus", (48, 48))
        marked = parse_marked_spec("random:40:1", 48)
        budget = math.isqrt(h_unique(48) - 1) + 1
        est = estimate_effective_ht(P, marked, pi=np.full(48 * 48, 1.0 / (48 * 48)), budget=budget)
        assert est.h_tilde == 256
        assert first_passage_products == {"moments": 68}

    def test_halted_estimator_reads_moments_only(self, first_passage_products):
        # search --n 128 --marked rows:0 walks the 128-state n x 1 lattice;
        # every affordable probe, up to 4,096, fails.  Its one marked line is
        # one vertex there, so the survival curve certifies that with no
        # product of D(P'), where the moments took 269 (d(4096) = 538) and
        # the step loop 4,096
        lattice, states = search._walked_lattice((128, 128), parse_marked_spec("rows:0", 128))
        P = lattice_walk("torus", lattice)
        est = estimate_effective_ht(P, states, pi=stationary(P), budget=math.isqrt(h_unique(128) - 1) + 1)
        assert est.halted and est.probes[-1] == 4096
        assert first_passage_products == {"moments": 0}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), lattice=st.sampled_from(["random", "torus", "grid"]))
def test_marked_mass_never_decreases(seed, lattice):
    # the classical absorption curve the estimator probes is a CDF, exactly,
    # not within a tolerance: the probe decisions rely on it (the quantum
    # overlap itself oscillates and is not monotone)
    rng = np.random.default_rng(seed)
    if lattice == "random":
        P, pi = random_reversible_chain(int(rng.integers(2, 12)), rng)
    else:
        n = int(rng.integers(2, 9))
        P = lattice_walk(lattice, (n, n))
        pi = np.full(n * n, 1.0 / (n * n))
    mask = np.zeros(P.dim, dtype=bool)
    mask[rng.choice(P.dim, size=int(rng.integers(1, P.dim)), replace=False)] = True
    op = absorbing(P, np.flatnonzero(mask)).mat
    p = np.where(mask, 0.0, pi)
    p = p / p.sum()
    mass = p[mask].sum()
    for _ in range(60):
        q = op @ p
        assert np.all(q[mask] >= p[mask])
        assert q[mask].sum() >= mass
        p, mass = q, q[mask].sum()


class TestHUnique:
    def test_frozen_values(self):
        assert h_unique(5) == 35
        assert h_unique(9) == 144
        assert h_unique(17) == 637


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(0.0, 0.99))
def test_gram_unitarity_property(seed, s):
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_chain(5, rng)
    base = convex_combination(P, [0], s)
    walk = frame_walk(base)  # raises if W^T G W != G
    state = walk.initial_state(pi)
    for _ in range(3):
        state = walk.step(*state)
    assert math.sqrt(gram_inner(walk, state, state)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_marked_mass_is_a_probability(seed):
    rng = np.random.default_rng(seed)
    P, pi = random_reversible_chain(6, rng)
    mask = np.zeros(6, dtype=bool)
    mask[rng.choice(6, size=2, replace=False)] = True
    walk = frame_walk(absorbing(P, np.flatnonzero(mask)))
    c, d = walk.initial_state(pi)
    for _ in range(6):
        m = walk.marked_mass(c, d, mask, marked_column_mass(walk.base, mask), disc_d=walk.disc @ d)
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
        P = lattice_walk("grid", (8, 8))
        return discriminant(convex_combination(P, _checkerboard(8, 8), 0.7))
    P, _ = random_reversible_chain(states, rng)
    return discriminant(convex_combination(P, [0, states // 2], 0.4))


class TestUnitarityResidual:
    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("states", [5, 17, 64])
    def test_closed_form_matches_dense_oracle(self, states, delta, monkeypatch):
        # the closed form of the residual is zero exactly when D is symmetric:
        # build_walk accepts D when the dense residual is rounding only, and
        # rejects it when the residual is real
        D = _sample_discriminant(states)
        D.data += delta * np.random.default_rng(1).uniform(-1.0, 1.0, D.data.size)
        expected = _gram_unitarity_residual(D.toarray())
        monkeypatch.setattr(szegedy, "discriminant", lambda base: D)
        P = WalkMatrix(np.full((states, states), 1.0 / states))  # any base: D replaces its discriminant
        if delta == 0.0:
            # the oracle rounds sums of O(1) products: a few ulps of 2 apart
            assert expected <= 2e-15
            assert build_walk(P).disc is D
        else:
            assert expected >= delta
            with pytest.raises(RuntimeError, match="not symmetric"):
                build_walk(P)

    def test_build_walk_rejects_asymmetric_discriminant_of_large_chain(self, monkeypatch):
        P = lattice_walk("torus", (17, 17))  # 289 states

        def skewed(base):
            D = discriminant(base)
            D.data[0] = np.nextafter(D.data[0], 2.0)  # one ulp off its partner
            return D

        monkeypatch.setattr(szegedy, "discriminant", skewed)
        with pytest.raises(RuntimeError, match="not symmetric"):
            build_walk(P)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000), one_way=st.floats(0.0, 0.8))
def test_discriminant_is_exactly_symmetric(n, seed, one_way):
    # any column-stochastic chain, with a share of its entries zeroed so that
    # some x -> y have no y -> x, and weights spread over many magnitudes
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) ** 8 * (rng.random((n, n)) >= one_way)
    mat[(np.arange(n) + 1) % n, np.arange(n)] += 1.0  # no empty column
    mat /= mat.sum(axis=0, keepdims=True)
    P = WalkMatrix(mat)
    D = discriminant(P)
    assert (D != D.T).nnz == 0  # entry for entry, not within a tolerance
    build_walk(P)  # which raises on any asymmetry


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


def orbit_chain(n: int) -> tuple[WalkMatrix, np.ndarray]:
    """The torus walk lumped onto the orbits of vertex 0's stabiliser, and pi summed by orbit.

    The absorbing chain with vertex 0 marked and its start are invariant
    under those 8 symmetries, so its marked mass at every step is the
    lumped chain's: (n//2 + 1)(n//2 + 2)/2 states against n^2.
    """
    orbit = _torus_orbits(n)
    return lump(lattice_walk("torus", (n, n)), orbit), np.bincount(orbit) / orbit.size


def orbit_h_unique(n: int) -> int:
    """h_unique by iterating the absorbing orbit chain: the route the closed form replaced."""
    Q, pi = orbit_chain(n)
    return effective_hitting_time(Q, [0], pi)


def orbit_survival(n: int, steps: int) -> np.ndarray:
    """P(tau > T) for T = 0..steps by iterating the orbit chain killed at vertex 0."""
    Q, pi = orbit_chain(n)
    op = absorbing(Q, [0]).mat
    p = np.where(np.arange(Q.dim) == 0, 0.0, pi)
    p /= p.sum()
    out = [1.0]
    for _ in range(steps):
        p = op @ p
        out.append(1.0 - p[0])
    return np.array(out)


class TestOrbitChain:
    def test_matches_full_chain(self):
        for n in range(3, 34):
            P = lattice_walk("torus", (n, n))
            assert h_unique(n) == effective_hitting_time(P, [0], pi_of(P)), n

    def test_frozen_large_values(self):
        # 6738, 12801 and 59138 recorded on the full 16,384-state chain;
        # 268303 by iterating the 8,385-state orbit chain
        assert h_unique(48) == 6738
        assert h_unique(64) == 12801
        assert h_unique(128) == 59138
        assert h_unique(256) == 268303

    def test_uncertified_side_raises(self, monkeypatch):
        real = spectral._crossing
        monkeypatch.setattr(spectral, "_crossing", lambda *args: (real(*args)[0], False))
        for n in (2, 5, 8, 17, 33):
            with pytest.raises(RuntimeError, match=f"torus side {n}$"):
                h_unique.__wrapped__(n)

    def test_side_784_raises_without_building_a_chain(self, monkeypatch):
        # the first side the closed form leaves uncertified: S(T - 1) clears
        # 1/3 by 6.1e-10, under its error bound of 6.8e-10
        def refuse(*args, **kwargs):
            raise AssertionError("an uncertified side built a chain")

        monkeypatch.setattr(markov, "lattice_walk", refuse)
        monkeypatch.setattr(spectral, "_first_passage", refuse)
        assert h_unique.__wrapped__(783) == 2989209
        with pytest.raises(RuntimeError, match="torus side 784$"):
            h_unique.__wrapped__(784)

    def test_lump_rejects_non_lumpable_chain(self):
        B = lattice_walk("torus", (5, 5)).mat.toarray()
        B[0, 1] += B[2, 1]  # vertex (0, 1) now steps to 0 where (1, 0) steps to (2, 0)
        B[2, 1] = 0.0
        with pytest.raises(ValueError, match="lumpable"):
            lump(WalkMatrix(B), _torus_orbits(5))


class TestClosedForm:
    @pytest.mark.parametrize("n", [*range(2, 41), 48, 63, 64])
    def test_equals_orbit_chain(self, n):
        # 2-16 are the sides where the kept roots of both ends cover the whole spectrum
        assert h_unique.__wrapped__(n) == orbit_h_unique(n)

    def test_certified_without_fallback(self):
        for n in [*range(2, 65), 128, 256, 512, 1024]:
            assert h_unique.__wrapped__(n) > 0, n

    def test_sides_512_and_1024(self):
        assert h_unique.__wrapped__(512) == 1200256
        assert h_unique.__wrapped__(1024) == 5309244

    @pytest.mark.parametrize("n", range(2, 13))
    def test_all_roots_give_the_survival_curve(self, n):
        curve = lattice_module._survival_curve("torus", (n, n), 0, 0)
        assert curve.log_rho == -math.inf  # nothing dropped
        assert curve.weight.size == curve.poles - 1
        assert curve.weight.min() > 0
        assert abs(curve.weight.sum() - 1.0) <= 1e-12
        expected = orbit_survival(n, 200)
        got = np.array([curve(T)[0] for T in range(201)])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_poles_are_the_distinct_eigenvalues(self, n):
        top, bottom, mult = lattice_module._poles("torus", (n, n), 0, 0)
        assert mult.sum() == n * n
        np.testing.assert_allclose(1.0 - top, bottom - 1.0, rtol=0, atol=1e-15)
        vals = np.sort(np.linalg.eigvalsh(lattice_walk("torus", (n, n)).mat.toarray()))[::-1]
        distinct = np.flatnonzero(np.r_[True, np.diff(vals) < -1e-9])
        np.testing.assert_allclose(1.0 - top, vals[distinct], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(mult, np.diff(np.r_[distinct, vals.size]))

    @pytest.mark.parametrize("n", [2, 17, 64, 128])
    def test_certified_side_iterates_nothing(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certified side built or iterated a walk")

        monkeypatch.setattr(markov, "lattice_walk", refuse)
        monkeypatch.setattr(spectral, "_first_passage", refuse)
        assert h_unique.__wrapped__(n) == {2: 3, 17: 637, 64: 12801, 128: 59138}[n]

    def test_certificate_needs_both_sides_clear_of_the_bound(self):
        # a bound within the error of S(T) puts the crossing at T or T + 1,
        # where S(T) is one side of the certificate, so it fails
        curve = lattice_module._survival_curve("torus", (64, 64), 0, 0)
        target = 1.0 - spectral.EFFECTIVE_HT_THRESHOLD + 1e-12
        assert spectral._crossing(curve, target, None) == (12801, True)
        for T in (12800, 12801):
            s, err = curve(T)
            assert 0.0 < err < 1e-9
            for inside in (s - err / 2, s, s + err / 2):
                t, certified = spectral._crossing(curve, inside, None)
                assert t in (T, T + 1) and not certified, (T, inside)

    def test_unconverged_root_raises(self, monkeypatch):
        # the curves are cached per process: none built here may outlive it
        monkeypatch.setattr(lattice_module, "SECULAR_STEPS", 1)
        lattice_module._survival_curve.cache_clear()
        try:
            assert lattice_module._survival_curve("torus", (9, 9), 0, 0) is None
            with pytest.raises(RuntimeError, match="torus side 9$"):
                h_unique.__wrapped__(9)
        finally:
            lattice_module._survival_curve.cache_clear()

    def test_side_one_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            h_unique.__wrapped__(1)


def killed_walk_survival(P, v, steps):
    """P(tau > T) for T = 0..steps by iterating the chain P killed at v, from uniform on the other states."""
    op = absorbing(P, [v]).mat
    p = np.where(np.arange(P.dim) == v, 0.0, 1.0 / (P.dim - 1))
    out = [1.0]
    for _ in range(steps):
        p = op @ p
        out.append(1.0 - p[v])
    return np.array(out)


def near_half(shape):
    """The vertices (r, c) of an h x w lattice in the nearer half of each axis, where its mirror images read."""
    return [(r, c) for r in range((shape[0] + 1) // 2) for c in range((shape[1] + 1) // 2)]


LATTICE_SHAPES = [*((n, n) for n in range(2, 9)), *((n, n + 1) for n in range(2, 8)), (2, 1), (3, 1), (8, 1), (17, 1)]


class TestLatticeCurves:
    """Every vertex's poles and survival curve, on tori and grids of any shape."""

    @pytest.mark.parametrize("shape", LATTICE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_poles_weigh_the_eigenvectors(self, kind, shape):
        # the distinct eigenvalues of the dense walk that weigh on the
        # vertex, with N |v(vertex)|^2 summed over each eigenspace
        vals, vecs = np.linalg.eigh(lattice_walk(kind, shape).mat.toarray())
        vals, vecs = vals[::-1], vecs[:, ::-1]
        groups = np.split(np.arange(vals.size), np.flatnonzero(np.diff(vals) < -1e-9) + 1)
        for r, c in near_half(shape):
            v = r * shape[1] + c
            weight = np.array([vals.size * (vecs[v, g] ** 2).sum() for g in groups])
            seen = weight > 1e-9  # the modes that vanish at v are no poles
            lam = np.array([vals[g].mean() for g in groups])[seen]
            top, bottom, got = lattice_module._poles(kind, shape, r, c)
            np.testing.assert_allclose(1.0 - top, lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bottom - 1.0, lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got, weight[seen], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [*LATTICE_SHAPES, (12, 12), (11, 12), (64, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("kind", ["torus", "grid"])
    def test_curve_is_the_killed_walk(self, kind, shape):
        # within the curve's own error bound, which holds the dropped roots
        P = lattice_walk(kind, shape)
        for r, c in near_half(shape):
            v = r * shape[1] + c
            curve = P.lattice.survival(v)
            want = killed_walk_survival(P, v, 300)
            for T in range(301):
                s, err = curve(T)
                assert abs(s - want[T]) <= err + 1e-12, (v, T)

    def test_close_distinct_poles_stay_apart(self):
        # on the 388 x 389 grid the modes (156, 231) and (181, 206) are
        # 9.2e-14 apart relative to 1 - lambda, and distinct: two poles,
        # with a root of the killed walk between them
        top = lattice_module._poles("grid", (388, 389), 0, 0)[0]
        assert np.count_nonzero(np.abs(top - 0.99383805106459) < 1e-12) == 2

    def test_mirror_images_share_a_curve(self):
        grid, torus = Lattice("grid", (6, 5)), Lattice("torus", (6, 5))
        assert grid.survival(0) is grid.survival(4) is grid.survival(25) is grid.survival(29)
        assert grid.survival(7) is grid.survival(22)
        assert grid.survival(0) is not grid.survival(1)
        assert torus.survival(0) is torus.survival(17)


@pytest.mark.slow
def test_side_1024_estimator_reads_no_moments(monkeypatch):
    # search --n 1024 --marked 'cells:(0,0)': the estimator halts on the
    # torus's survival curve, which h_unique built; a fall back to the
    # Chebyshev moments on 2^20 states would raise here at once
    def refuse(*args):
        raise AssertionError("the first passage fell back to the Chebyshev moments")

    monkeypatch.setattr(spectral, "_ChebyshevCurve", refuse)
    P = lattice_walk("torus", (1024, 1024))
    est = estimate_effective_ht(P, [0], pi=stationary(P), budget=math.isqrt(h_unique(1024) - 1) + 1)
    assert est.halted and est.probes[-1] == 262144
    assert cap_estimate(est, 1024) == 5309244


def _find_two_products(P, marked, eps_estimate, T, pi):
    """The finding loop with marked_mass and step each computing disc @ d."""
    mask = marked_mask(P.dim, marked)
    walk = frame_walk(convex_combination(P, marked, interpolation_parameter(eps_estimate)))
    c, d = walk.initial_state(pi)
    col_mass = marked_column_mass(walk.base, mask)
    total = 0.0
    for t in range(T):
        if t > 0:
            c, d = walk.step(c, d)
        total += walk.marked_mass(c, d, mask, col_mass, disc_d=walk.disc @ d)
    return float(total / T)


FIND_CASES = {
    "torus5-single": (("torus", (5, 5)), [0]),
    "torus8-pair": (("torus", (8, 8)), [0, 36]),
    "grid8-three": (("grid", (8, 8)), [0, 3, 9]),
    "block8x8-checkerboard": (("grid", (8, 8)), _checkerboard(8, 8)),
}


class TestSharedProduct:
    @pytest.mark.parametrize("case", sorted(FIND_CASES))
    def test_find_matches_two_product_loop(self, case):
        lattice, marked = FIND_CASES[case]
        P = lattice_walk(*lattice)
        pi = np.full(P.dim, 1.0 / P.dim)
        eps = (0.5**2, 0.5**4, 0.5**7)
        for T in (1, 2, 37):
            want = [_find_two_products(P, marked, e, T, pi) for e in eps]
            np.testing.assert_allclose(find_via_interpolation(P, marked, eps, T, pi=pi), want, rtol=1e-10, atol=0)

    def test_marked_mass_takes_the_product(self):
        P, pi = random_reversible_chain(9, np.random.default_rng(7))
        walk = frame_walk(convex_combination(P, [2, 5], 0.4))
        mask = marked_mask(9, [2, 5])
        Phi, S, _ = pair_space_walk(walk.base)
        proj = np.kron(np.diag(mask.astype(float)), np.eye(9))
        col_mass = marked_column_mass(walk.base, mask)
        c, d = walk.initial_state(pi)
        states, masses = [], []
        for _ in range(6):
            disc_d = walk.disc @ d
            v = Phi @ c + S @ Phi @ d  # Phi c + Psi d, with Psi = SWAP Phi
            masses.append(walk.marked_mass(c, d, mask, col_mass, disc_d=disc_d))
            assert abs(masses[-1] - v @ proj @ v) < 1e-10
            states.append((c, d, disc_d))
            c, d = walk.step(c, d)
        # the time points as a middle axis, as the finding walk's readout
        # passes them: each mass bit for bit as alone
        c, d, disc_d = (np.stack(x, axis=1)[:, :, None] for x in zip(*states))
        support, weights = col_mass
        block = walk.marked_mass(c[mask], d[support], slice(None), (slice(None), weights[:, None, None]),
                                 disc_d=disc_d[mask])
        assert block.shape == (6, 1) and block[:, 0].tolist() == masses

    def test_one_discriminant_product_per_time_point(self, monkeypatch):
        # search's finding walks: T_walk products of D(P) per distinct walk,
        # each with one column per k, whatever |k| is
        products = []

        class CountingCSR(sp.csr_array):
            def __matmul__(self, other):
                products.append(other.shape)
                return super().__matmul__(other)

        real = szegedy.build_walk

        def counted(base):
            walk = real(base)
            return replace(walk, disc=CountingCSR(walk.disc))

        monkeypatch.setattr(szegedy, "build_walk", counted)
        monkeypatch.setattr(search, "build_walk", counted)  # search builds each walk once and passes it on
        # (marked set, side, d, distinct walks): one shared checkerboard, nine
        # distinct patterns, one thin lattice shared by three blocks
        for spec, n, d, distinct in (("halfchecker", 32, 8, 1), ("random:30:1", 20, 6, 9), ("rows:0", 20, 6, 1)):
            layout = partition_torus(n, d)
            blocks = search._block_walks(layout, parse_marked_spec(spec, n))
            k_values = search.valid_k_values(n * n)
            for T_walk, ks in itertools.product((1, 17), (k_values[:1], k_values[:3], k_values)):
                products.clear()
                search._per_k_table(blocks, T_walk, ks)
                assert len(products) == distinct * T_walk, (spec, T_walk, len(ks))
                assert all(shape[1:] == (len(ks),) for shape in products)


SAMPLE_CASES = {
    "grid6-three": (lambda: lattice_walk("grid", (6, 6)), [0, 7, 20]),
    "grid5x7-checkerboard": (lambda: lattice_walk("grid", (5, 7)), _checkerboard(5, 7)),
    "grid8-corner": (lambda: lattice_walk("grid", (8, 8)), [0]),
    "thin9x1": (lambda: lattice_walk("grid", (9, 1)), [4]),
}


class TestWalkDistribution:
    """The measured sample's distribution, walked on D(P), against the frame walk on D(P(s)) itself."""

    @pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
    def test_matches_the_interpolated_frame_walk(self, case):
        make, marked = SAMPLE_CASES[case]
        P = make()
        pi = stationary(P)
        for eps in (0.5, 0.25, 0.5**4, 0.5**9, 1e-12):  # s = 0, 2/3, ..., and s clamped at 1 - 1e-9
            s = interpolation_parameter(eps)
            walk = frame_walk(convex_combination(P, marked, s))
            c, d = walk.initial_state(pi)
            for t in range(40):
                want = walk.vertex_distribution(c, d)
                np.testing.assert_allclose(walk_distribution(build_walk(P), marked, s, t, pi), want, rtol=1e-9, atol=0)
                c, d = walk.step(c, d)

    def test_reversible_chain_from_its_own_pi(self):
        P, pi = random_reversible_chain(9, np.random.default_rng(8))
        for s in (0.0, 0.4, 0.9):
            walk = frame_walk(convex_combination(P, [2, 5], s))
            c, d = walk.initial_state(pi)
            for t in range(12):
                np.testing.assert_allclose(walk_distribution(build_walk(P), [2, 5], s, t, pi), walk.vertex_distribution(c, d),
                                           rtol=1e-9, atol=0)
                c, d = walk.step(c, d)


FACTORED_CHAINS = {
    "torus5": (lambda: lattice_walk("torus", (5, 5)), [0, 7, 8]),
    "grid6": (lambda: lattice_walk("grid", (6, 6)), [0, 5, 14, 15]),
    "thin7x1": (lambda: lattice_walk("grid", (7, 1)), [0, 3]),
    "reversible9": (lambda: random_reversible_chain(9, np.random.default_rng(3))[0], [2, 4, 5]),
}


class TestFactoredDiscriminant:
    """D(s) = S D(P) S + s Pi_M, S = diag(1 on U, sqrt(1 - s) on M): the identity the batched walk stands on."""

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0 - 1e-9])
    @pytest.mark.parametrize("case", sorted(FACTORED_CHAINS))
    def test_equals_the_interpolated_discriminant(self, case, s):
        make, marked = FACTORED_CHAINS[case]
        P = make()
        mask = marked_mask(P.dim, marked)
        S = sp.diags_array(np.where(mask, math.sqrt(1.0 - s), 1.0))
        factored = (S @ discriminant(P) @ S + s * sp.diags_array(mask.astype(float))).toarray()
        want = discriminant(convex_combination(P, marked, s)).toarray()
        np.testing.assert_array_equal(factored != 0.0, want != 0.0)
        np.testing.assert_allclose(factored, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("case", sorted(FACTORED_CHAINS))
    def test_column_mass_of_every_s(self, case):
        # P(s)'s marked column mass is (1 - s) m0 + s on M and m0 off it,
        # with m0 that of P: the readout _find_block builds from P alone
        make, marked = FACTORED_CHAINS[case]
        P = make()
        mask = marked_mask(P.dim, marked)
        m0 = np.zeros(P.dim)
        support, mass = marked_column_mass(P, mask)
        m0[support] = mass
        for s in (0.0, 0.5, 1.0 - 1e-9):
            want_support, want = marked_column_mass(convex_combination(P, marked, s), mask)
            got = np.where(mask, (1.0 - s) * m0 + s, m0)
            np.testing.assert_array_equal(np.flatnonzero(got), want_support)
            np.testing.assert_allclose(got[want_support], want, rtol=1e-15, atol=0)


# K = 1, 3 and 19 estimates: s = 0 (eps >= 1/2), interior, and s clamped at 1 - 1e-9
BATCHES = {
    1: (0.5**4,),
    3: (0.6, 0.25, 0.5**7),
    19: (0.9, 0.5, 0.3, *(0.5**k for k in range(2, 17)), 1e-12),
}


class TestBatchedFind:
    """Every estimate on one product of D(P) per step, against the single-estimate oracle."""

    @pytest.mark.parametrize("K", sorted(BATCHES))
    @pytest.mark.parametrize("case", sorted(FIND_CASES))
    def test_matches_the_single_estimate_walks(self, case, K):
        lattice, marked = FIND_CASES[case]
        P = lattice_walk(*lattice)
        pi = stationary(P)
        eps = BATCHES[K]
        assert len(eps) == K
        for T in (1, 2, 37):
            want = [find_one(P, marked, e, T, pi) for e in eps]
            np.testing.assert_allclose(find_via_interpolation(P, marked, eps, T, pi=pi), want, rtol=1e-10, atol=0)

    def test_reversible_chain_from_its_own_pi(self):
        P, pi = random_reversible_chain(11, np.random.default_rng(5))
        eps = BATCHES[19]
        want = [find_one(P, [1, 6, 7], e, 23, pi) for e in eps]
        np.testing.assert_allclose(find_via_interpolation(P, [1, 6, 7], eps, 23, pi=pi), want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("case", sorted(FIND_CASES))
    def test_one_column_chunks_equal_one_block(self, monkeypatch, case):
        lattice, marked = FIND_CASES[case]
        P = lattice_walk(*lattice)
        pi = stationary(P)
        eps = BATCHES[19]
        whole = find_via_interpolation(P, marked, eps, 37, pi=pi)
        blocks = []
        real = szegedy._find_block

        def spy(walk, mask, rows, s, T, pi, green):
            blocks.append(s.size)
            return real(walk, mask, rows, s, T, pi, green)

        monkeypatch.setattr(szegedy, "_find_block", spy)
        find_via_interpolation(P, marked, eps, 37, pi=pi)
        assert blocks == [19]
        blocks.clear()
        monkeypatch.setattr(szegedy, "FIND_BLOCK_BYTES", 8 * P.dim)  # one column per chunk
        assert find_via_interpolation(P, marked, eps, 37, pi=pi) == whole
        assert blocks == [1] * 19
        blocks.clear()
        monkeypatch.setattr(szegedy, "FIND_BLOCK_BYTES", 8 * 5 * P.dim - 1)  # four columns per chunk
        assert find_via_interpolation(P, marked, eps, 37, pi=pi) == whole
        assert blocks == [4, 4, 4, 4, 3]

    def test_block_size_cap(self):
        # the widest block of a walk on 2^20 states, the 1024-torus, stays under the cap
        width = szegedy.FIND_BLOCK_BYTES // (8 * 2**20)
        assert 1 <= width < 19
        assert 8 * 2**20 * width <= szegedy.FIND_BLOCK_BYTES


def _lattice(kind: str, shape: tuple[int, int]) -> tuple[WalkMatrix, np.ndarray]:
    P = lattice_walk(kind, shape)
    return P, stationary(P)


def _square(side: int, row: int, col: int) -> list[int]:
    return [(row + i) * side + col + j for i in (0, 1) for j in (0, 1)]


# (chain, pi) and marked states: tori (one even, so D0 has the eigenvalue
# -1), grids, thin lattices and random reversible chains from their own
# pi; corner, centre, two marks and 2x2 squares
ROUTE_CASES = {
    "torus6-corner": (lambda: _lattice("torus", (6, 6)), [0]),
    "torus7-square": (lambda: _lattice("torus", (7, 7)), _square(7, 2, 3)),
    "grid9-corner": (lambda: _lattice("grid", (9, 9)), [0]),
    "grid9-centre": (lambda: _lattice("grid", (9, 9)), [40]),
    "grid10-two": (lambda: _lattice("grid", (10, 10)), [0, 55]),
    "grid10-square": (lambda: _lattice("grid", (10, 10)), _square(10, 4, 4)),
    "thin12x1-end": (lambda: _lattice("grid", (12, 1)), [0]),
    "thin1x9-two": (lambda: _lattice("grid", (1, 9)), [2, 6]),
    "reversible13-one": (lambda: random_reversible_chain(13, np.random.default_rng(11)), [4]),
    "reversible10-three": (lambda: random_reversible_chain(10, np.random.default_rng(12)), [0, 3, 9]),
}
# K estimates of search's form, 0.5^k, plus s = 0 (eps >= 1/2) and s clamped at 1 - 1e-9
ROUTE_EPS = (0.9, *(0.5**k for k in range(1, 12)), 1e-12)


def _block(walk, mask, s, T, pi, green):
    """_find_block on one route, with the readout rows find_via_interpolation hands it."""
    return szegedy._find_block(walk, mask, szegedy._readout_rows(walk, mask), s, T, pi, green)


def _route(monkeypatch, green: bool):
    monkeypatch.setattr(szegedy, "_green_pays", lambda *counts: green)


class TestReadoutBlocks:
    """The walk route reads the marked mass once per block of steps, bit for bit the per-step loop."""

    @pytest.mark.parametrize("K", range(1, 14))
    @pytest.mark.parametrize("case", sorted(ROUTE_CASES))
    def test_walk_route_is_the_stepwise_loop(self, monkeypatch, case, K):
        # a readout budget of three time points, and T on both sides of
        # the first and second block boundary
        make, marked = ROUTE_CASES[case]
        P, pi = make()
        walk, mask = build_walk(P), marked_mask(P.dim, marked)
        s = np.array([interpolation_parameter(e) for e in ROUTE_EPS[:K]])
        support, _ = szegedy._readout_rows(walk, mask)
        monkeypatch.setattr(szegedy, "READOUT_BYTES", 3 * 8 * K * (support.size + len(marked)))
        assert szegedy._readout_steps(support.size, len(marked), K) == 3
        for T in (1, 2, 3, 4, 6, 7):
            want = find_block_stepwise(walk, mask, s, T, pi)
            assert np.array_equal(_block(walk, mask, s, T, pi, False), want), T

    @pytest.mark.parametrize("case", sorted(ROUTE_CASES))
    def test_walk_route_at_the_real_block_length(self, case):
        make, marked = ROUTE_CASES[case]
        P, pi = make()
        walk, mask = build_walk(P), marked_mask(P.dim, marked)
        s = np.array([interpolation_parameter(e) for e in ROUTE_EPS])
        support, _ = szegedy._readout_rows(walk, mask)
        steps = szegedy._readout_steps(support.size, len(marked), s.size)
        assert 8 * s.size * (support.size + len(marked)) * steps <= szegedy.READOUT_BYTES
        for T in (steps, steps + 1):
            want = find_block_stepwise(walk, mask, s, T, pi)
            assert np.array_equal(_block(walk, mask, s, T, pi, False), want), T

    def test_public_successes_are_the_stepwise_loop(self):
        # the benchmark's thin lattice of rows:0 at side 128, which keeps the walk
        P = lattice_walk("grid", (128, 1))
        pi = stationary(P)
        eps = [0.5**k for k in valid_k_values(128 * 128)]
        s = np.array([interpolation_parameter(e) for e in eps])
        want = find_block_stepwise(build_walk(P), marked_mask(128, [0]), s, 522, pi)
        assert find_via_interpolation(P, [0], eps, 522, pi) == want.tolist()

    def test_finding_walk_memory(self):
        # 40 marks on the 48^2 grid with K = 11 and T = 175, search-n48's
        # walk.  The bound is the per-step loop's peak, which read 950-967 kB
        # here (numpy 2.4, scipy 1.17), so the finding walk may hold no more
        # than it did.  It holds D0 (about 240 kB as build_walk leaves it),
        # the same three (N, K) blocks of 203 kB, and a readout of one time
        # point per block, with its temporaries about 60 kB: 930 kB.  The
        # 20 kB under the bound is the per-step readout's temporaries the
        # blocked one does not make.  A history of 32 time points would add
        # 0.5 MB, one of every time point 2.9 MB
        P = lattice_walk("grid", (48, 48))
        pi = stationary(P)
        marked = sorted(parse_marked_spec("random:40:1", 48))
        eps = [0.5**k for k in valid_k_values(48 * 48)]
        assert len(eps) == 11
        find_via_interpolation(P, marked, eps, 175, pi)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            find_via_interpolation(P, marked, eps, 175, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 950_000


class TestGreenRoute:
    """The Green route against the walk route, and the rule that picks between them."""

    @pytest.mark.parametrize("case", sorted(ROUTE_CASES))
    def test_matches_the_walk(self, case):
        make, marked = ROUTE_CASES[case]
        P, pi = make()
        walk, mask = build_walk(P), marked_mask(P.dim, marked)
        s = np.array([interpolation_parameter(e) for e in ROUTE_EPS])
        support, _ = szegedy._readout_rows(walk, mask)
        steps = szegedy._readout_steps(support.size, len(marked), s.size)
        for T in (1, 2, 3, 37, steps + 1, 160):
            want = _block(walk, mask, s, T, pi, False)
            np.testing.assert_allclose(_block(walk, mask, s, T, pi, True), want, rtol=1e-10, atol=0)

    def test_kernel_is_the_unmarked_walk(self):
        # column m of lag j is U_j(D_UU) 2 D0[U, m], the last U_j(D_UU) x_U,
        # against dense Chebyshev polynomials of D0 with M's rows and columns zeroed
        P = lattice_walk("grid", (5, 5))
        marked = np.array([6, 18])
        walk, mask = build_walk(P), marked_mask(P.dim, marked)
        support, _ = szegedy._readout_rows(walk, mask)
        x = np.sqrt(stationary(P))
        T = 9
        kernel = szegedy._green_kernel(walk.disc, support, marked, T, x)
        D = walk.disc.toarray()
        unmarked = np.diag((~mask).astype(float))
        D_UU = unmarked @ D @ unmarked
        sources = np.column_stack([2.0 * unmarked @ D[:, marked], unmarked @ x])
        U_prev, U = np.zeros_like(D), np.eye(P.dim)
        for j in range(T - 1):
            np.testing.assert_allclose(kernel[:, T - 2 - j], (U @ sources)[support], rtol=0, atol=1e-13)
            U_prev, U = U, 2.0 * D_UU @ U - U_prev

    def test_takes_every_estimate_in_one_chunk(self, monkeypatch):
        # the walk route chunks K by FIND_BLOCK_BYTES; the Green route
        # holds nothing of size N per estimate and builds its kernel once
        P = lattice_walk("grid", (9, 9))
        pi = stationary(P)
        eps = ROUTE_EPS
        blocks, kernels = [], []
        real_block, real_kernel = szegedy._find_block, szegedy._green_kernel

        def spy_block(walk, mask, rows, s, T, pi, green):
            blocks.append(s.size)
            return real_block(walk, mask, rows, s, T, pi, green)

        def spy_kernel(*args):
            kernels.append(args[3])
            return real_kernel(*args)

        monkeypatch.setattr(szegedy, "_find_block", spy_block)
        monkeypatch.setattr(szegedy, "_green_kernel", spy_kernel)
        monkeypatch.setattr(szegedy, "FIND_BLOCK_BYTES", 8 * P.dim)  # one column per walk chunk
        _route(monkeypatch, True)
        green = find_via_interpolation(P, [40], eps, 30, pi)
        assert blocks == [len(eps)] and kernels == [30]
        blocks.clear()
        _route(monkeypatch, False)
        walked = find_via_interpolation(P, [40], eps, 30, pi)
        assert blocks == [1] * len(eps) and kernels == [30]
        np.testing.assert_allclose(green, walked, rtol=1e-10, atol=0)

    def test_a_pi_d0_does_not_fix_keeps_the_walk(self, monkeypatch):
        # the Green route reads D0 sqrt(pi) = sqrt(pi), which a stationary pi
        # gives; the walk is exact from any pi
        P = lattice_walk("grid", (9, 9))
        walk, mask = build_walk(P), marked_mask(P.dim, [40])
        s = np.array([interpolation_parameter(e) for e in ROUTE_EPS])
        pi = np.random.default_rng(3).random(P.dim)
        pi /= pi.sum()
        want = find_block_stepwise(walk, mask, s, 30, pi)
        assert not np.allclose(_block(walk, mask, s, 30, pi, True), want, rtol=1e-3, atol=0)
        kernels = []
        real = szegedy._green_kernel
        monkeypatch.setattr(szegedy, "_green_kernel", lambda *args: kernels.append(args[3]) or real(*args))
        _route(monkeypatch, True)
        assert find_via_interpolation(P, [40], ROUTE_EPS, 30, pi) == want.tolist()
        assert kernels == []
        find_via_interpolation(P, [40], ROUTE_EPS, 30, stationary(P))
        assert kernels == [30]

    def test_rule(self):
        def counts(P, marked, K, T):
            walk = build_walk(P)
            support, _ = szegedy._readout_rows(walk, marked_mask(P.dim, marked))
            return P.dim, walk.disc.nnz, support.size, len(marked), K, T

        corner = counts(lattice_walk("grid", (128, 128)), [0], 13, 522)
        assert corner == (16384, 65532, 3, 1, 13, 522)
        centre = counts(lattice_walk("grid", (128, 128)), [64 * 128 + 64], 13, 522)
        many = counts(lattice_walk("grid", (48, 48)), sorted(parse_marked_spec("random:40:1", 48)), 11, 175)
        half = counts(lattice_walk("grid", (8, 8)), _checkerboard(8, 8), 13, 22)
        thin = counts(lattice_walk("grid", (128, 1)), [0], 13, 522)
        for args, green in ((corner, True), (centre, True), (many, False), (half, False), (thin, False)):
            assert szegedy._green_pays(*args) is green, args
            assert szegedy._green_pays(*args) is green  # a function of the counts alone
        assert not szegedy._green_pays(16384, 65532, 0, 0, 13, 522)  # no marks: no kernel
        # the time model favours this Green route, but its kernel and history
        # (1.2 MB) would outgrow the walk's three (N, K) blocks (320 kB)
        assert not szegedy._green_pays(1024, 8192, 2, 1, 13, 5000)
        assert szegedy._green_pays(4096, 8192 * 4, 2, 1, 13, 5000)

    def test_benchmark_blocks_keep_the_walk(self, monkeypatch, constants):
        # search-n128's thin lattice and checkerboard, search-n48's grid
        picked = []
        real = szegedy._green_pays
        monkeypatch.setattr(szegedy, "_green_pays", lambda *counts: picked.append(real(*counts)) or picked[-1])
        for n, spec in ((128, "rows:0"), (128, "halfchecker"), (48, "random:40:1")):
            picked.clear()
            search.run_search(search.SearchConfig(n=n, marked=parse_marked_spec(spec, n), constants=constants))
            assert picked == [False], (n, spec)


class TestSecularSums:
    @pytest.mark.parametrize("n", [2, 3, 48, 128, 256])
    def test_in_place_blocks_match_fresh_temporaries(self, n):
        # bit for bit the sums built from fresh (x, poles) arrays per block
        top, _, mult = lattice_module._poles("torus", (n, n), 0, 0)
        m = mult.astype(np.float64)
        x = (top[:-1] + top[1:])[:24] / 2
        f, fp = np.zeros(x.size), np.zeros(x.size)
        for start in range(0, top.size, 8192):
            block = slice(start, start + 8192)
            inv = 1.0 / (top[block] - x[:, None])
            f += inv @ m[block]
            fp += (inv * inv) @ m[block]
        got = lattice_module._secular_sums(top, m, x)
        assert np.array_equal(got[0], f) and np.array_equal(got[1], fp)

    def test_h_unique_unchanged_on_sides_2_to_130(self):
        values = [h_unique.__wrapped__(n) for n in range(2, 131)]
        assert values[:8] == [3, 10, 20, 35, 54, 79, 108, 144] and values[-3:] == [59138, 60156, 61183]
        assert hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16] == "b8bf1087a122d275"
