import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.graphs import build_grid, build_torus
from walklab.markov import (
    WalkMatrix,
    discriminant,
    interpolate,
    make_absorbing,
    random_reversible_chain,
    stationary,
    walk_from_graph,
)
from walklab.search import parse_marked_spec
from walklab.spectral import (
    DEFAULT_S_LIST,
    analyze_instance,
    decompose,
    effective_hitting_time,
    escape_time,
    escape_time_subset,
    extended_hitting_time,
    extended_hitting_time_limit,
    hitting_time_linear,
    hitting_time_spectral,
    interpolated_hitting_time,
)

TWO_STATE = WalkMatrix(np.full((2, 2), 0.5), "plain")
COMPLETE_12 = WalkMatrix(np.full((12, 12), 1 / 12), "plain")


def eigen_sum(D, g):
    """Oracle: sum_{k>=2} |<v_k|g>|^2 / (1 - lambda_k) over the dense spectrum of D.

    The definition of the escape form <g|(I - D)^+|g> that the package
    computes by a sparse solve; v_1 is the principal eigenvector.
    """
    dec = decompose(D)
    ovl = dec.eigenvectors[:, 1:].T @ g
    return float(np.sum(ovl**2 / (1.0 - dec.eigenvalues[1:])))


def _oracle_cases():
    """name -> (chain, pi or None, marked) for the eigen-sum comparisons."""
    rng = np.random.default_rng(6)
    cases = {}
    for builder, sides in ((build_torus, (3, 4, 5, 8)), (build_grid, (4, 8))):
        for n in sides:
            P = walk_from_graph(builder(n))
            marked = rng.choice(P.dim, size=int(rng.integers(1, 5)), replace=False)
            cases[f"{builder.__name__}({n})"] = (P, None, marked)
    for N in (6, 9, 13, 18, 24):
        P, pi = random_reversible_chain(N, rng)
        marked = rng.choice(N, size=int(rng.integers(1, 5)), replace=False)
        cases[f"random({N})"] = (P, pi, marked)
    return cases


ORACLE_CASES = _oracle_cases()


def torus_eigenvalues(n):
    """Oracle: the n x n torus walk spectrum in closed form.

    The two-dimensional Fourier modes diagonalize the torus: the mode
    with frequencies (k, l) has eigenvalue (cos(2 pi k/n) + cos(2 pi l/n))/2.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    return (0.5 * (np.cos(theta)[:, None] + np.cos(theta)[None, :])).ravel()


class TestDecompose:
    def test_orthonormal_descending(self):
        dec = decompose(discriminant(walk_from_graph(build_torus(5))))
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(25), atol=1e-10)
        assert dec.gap > 0

    def test_torus_spectrum_closed_form(self):
        for n in (3, 5, 8):
            dec = decompose(discriminant(walk_from_graph(build_torus(n))))
            expected = np.sort(torus_eigenvalues(n))
            np.testing.assert_allclose(np.sort(dec.eigenvalues), expected, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_rejects_matrices_above_the_dense_limit(self):
        with pytest.raises(ValueError, match="4097 states exceeds the limit of 4096"):
            decompose(sp.eye_array(4097, format="csr"))


class TestHittingTime:
    def test_two_state_exact(self):
        assert hitting_time_spectral(TWO_STATE, [1]) == pytest.approx(2.0, abs=1e-12)
        assert hitting_time_linear(TWO_STATE, [1]) == pytest.approx(2.0, abs=1e-12)

    def test_unreachable_marked_set_is_reported(self):
        # two disconnected 2-cycles: states 2 and 3 never reach state 0
        cycles = np.array(
            [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
        )
        P = WalkMatrix(cycles, "plain")
        with pytest.raises(RuntimeError, match="marked set unreachable"):
            hitting_time_linear(P, [0], pi=np.full(4, 0.25))
        with pytest.raises(RuntimeError, match="no spectral gap"):
            escape_time_subset(P, [0], pi=np.full(4, 0.25))
        with pytest.raises(RuntimeError, match="interpolated chain lost its spectral gap"):
            interpolated_hitting_time(P, [0], 0.5, pi=np.full(4, 0.25))

    def test_uniform_resampling_chain(self):
        # memoryless chain: expected hits in 1/pi_M tries, conditioned start
        assert hitting_time_spectral(COMPLETE_12, [3]) == pytest.approx(12.0, rel=1e-12)
        assert hitting_time_linear(COMPLETE_12, [3]) == pytest.approx(12.0, rel=1e-12)

    def test_torus5_singleton(self):
        P = walk_from_graph(build_torus(5))
        assert hitting_time_spectral(P, [0]) == pytest.approx(95 / 3, rel=1e-10)
        assert hitting_time_linear(P, [0]) == pytest.approx(95 / 3, rel=1e-10)

    def test_routes_agree_on_torus_grid(self):
        rng = np.random.default_rng(11)
        for builder, n in ((build_torus, 4), (build_torus, 5), (build_grid, 4)):
            P = walk_from_graph(builder(n))
            marked = rng.choice(P.dim, size=3, replace=False)
            ht_s = hitting_time_spectral(P, marked)
            ht_l = hitting_time_linear(P, marked)
            assert abs(ht_s - ht_l) <= 1e-6 * max(1.0, ht_s)


class TestEffectiveHittingTime:
    def test_two_state(self):
        assert effective_hitting_time(TWO_STATE, [1]) == 2

    def test_torus5_singleton(self):
        P = walk_from_graph(build_torus(5))
        assert effective_hitting_time(P, [0]) == 35

    def test_markov_upper_bound(self):
        # success(T) >= 1 - HT_conditioned / T gives HT_eff <= 3 HT/(1-eps) + 1
        rng = np.random.default_rng(4)
        for _ in range(10):
            P, pi = random_reversible_chain(int(rng.integers(4, 16)), rng)
            m = rng.choice(P.dim, size=int(rng.integers(1, 3)), replace=False)
            ht = hitting_time_spectral(P, m, pi=pi)
            eps = pi[m].sum()
            assert effective_hitting_time(P, m, pi=pi) <= 3 * ht / (1 - eps) + 1


class TestEscapeTime:
    def test_uniform_resampling_chain(self):
        assert escape_time_subset(COMPLETE_12, [3]) == pytest.approx(11 / 12, rel=1e-12)

    def test_alternating_columns_exact_half(self):
        # the marked indicator is the (-1)-eigenvector's support: single term 1/(1-(-1))
        P = walk_from_graph(build_torus(8))
        marked = parse_marked_spec("cols:0,2,4,6", 8)
        assert escape_time_subset(P, marked) == pytest.approx(0.5, abs=1e-12)

    def test_torus5_singleton(self):
        P = walk_from_graph(build_torus(5))
        assert escape_time_subset(P, [0]) == pytest.approx(1.216, rel=1e-10)

    def test_whole_space_escapes_instantly(self):
        assert escape_time_subset(TWO_STATE, [0, 1]) == 0.0

    @pytest.mark.parametrize("P,pi,marked", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_eigen_sum(self, P, pi, marked):
        pi = stationary(P).probs if pi is None else pi
        eps = pi[marked].sum()
        g = np.zeros(P.dim)
        g[marked] = np.sqrt(pi[marked] / eps)
        expected = eigen_sum(discriminant(P), g)
        assert escape_time_subset(P, marked, pi=pi) == pytest.approx(expected, rel=1e-9)
        eht, _ = extended_hitting_time(P, marked, pi=pi)
        assert eht == pytest.approx(expected / eps, rel=1e-9)

    def test_scales_past_the_dense_limit(self):
        # 16384 states, 4x DECOMPOSE_LIMIT; a dense copy alone would be 2.1 GB
        P = walk_from_graph(build_torus(128))
        marked = parse_marked_spec("halfchecker", 128)
        tracemalloc.start()
        try:
            e = escape_time_subset(P, marked)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e == pytest.approx(113.917127023, rel=1e-9)
        assert peak < 64 * 2**20

    def test_bounds_for_orthogonal_states(self):
        # any unit g with <g|sqrt(pi)> = 0 has 1/2 <= E(g) <= 1/gap
        P = walk_from_graph(build_torus(5))
        dec = decompose(discriminant(P))
        rng = np.random.default_rng(2)
        root_pi = np.sqrt(stationary(P).probs)
        for _ in range(20):
            g = rng.normal(size=25)
            g -= root_pi * (root_pi @ g)
            g /= np.linalg.norm(g)
            e = escape_time(P, g)
            assert 0.5 - 1e-12 <= e <= 1.0 / dec.gap + 1e-9


class TestExtendedHittingTime:
    def test_torus5_singleton(self):
        P = walk_from_graph(build_torus(5))
        eht, eps = extended_hitting_time(P, [0])
        assert eps == pytest.approx(0.04, abs=1e-12)
        assert eht == pytest.approx(30.4, rel=1e-10)

    def test_half_torus_exact(self):
        P = walk_from_graph(build_torus(8))
        eht, eps = extended_hitting_time(P, parse_marked_spec("half", 8))
        assert eps == pytest.approx(0.5, abs=1e-12)
        assert eht == pytest.approx(6.0, rel=1e-10)

    def test_half_torus_linear_growth(self):
        vals = []
        for n in (8, 16, 32):
            P = walk_from_graph(build_torus(n))
            eht, _ = extended_hitting_time(P, parse_marked_spec("half", n))
            vals.append(eht / (n * n))
        assert max(vals) / min(vals) < 1.2

    def test_upper_bound_by_gap(self):
        # E <= 1/gap so eht <= 1/(eps * gap)
        P = walk_from_graph(build_torus(5))
        dec = decompose(discriminant(P))
        eht, eps = extended_hitting_time(P, [0, 7, 13])
        assert eht <= 1.0 / (eps * dec.gap) + 1e-9


class TestInterpolatedHittingTime:
    S_GRID = (0.0, 0.5, 0.9, 0.99, 0.999)
    TWO_STATE_VALUES = (0.5, 0.8888888888888892, 1.6528925619834716, 1.960592098813842, 1.9960059920099884)

    def test_two_state_frozen_curve(self):
        for s, expected in zip(self.S_GRID, self.TWO_STATE_VALUES):
            assert interpolated_hitting_time(TWO_STATE, [1], s) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_s(self):
        P = walk_from_graph(build_torus(4))
        vals = [interpolated_hitting_time(P, [0, 5], s) for s in self.S_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("P,pi,marked", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_eigen_sum(self, P, pi, marked):
        pi = stationary(P).probs if pi is None else pi
        mask = np.zeros(P.dim, dtype=bool)
        mask[marked] = True
        u = np.where(mask, 0.0, np.sqrt(pi)) / math.sqrt(pi[~mask].sum())
        P_abs = make_absorbing(P, marked)
        for s in DEFAULT_S_LIST:
            expected = eigen_sum(discriminant(interpolate(P, P_abs, s)), u)
            got = interpolated_hitting_time(P, marked, s, pi=pi)
            assert got == pytest.approx(expected, rel=1e-9), s

    def test_rejects_s_one(self):
        with pytest.raises(ValueError):
            interpolated_hitting_time(TWO_STATE, [1], 1.0)


class TestExtendedHittingTimeLimit:
    def test_two_state_limit_is_plain_ht(self):
        assert extended_hitting_time_limit(TWO_STATE, [1]) == pytest.approx(2.0, rel=1e-6)

    def test_singleton_tori_limit_is_plain_ht(self):
        for n in (5, 9):
            P = walk_from_graph(build_torus(n))
            ht = hitting_time_spectral(P, [0])
            assert extended_hitting_time_limit(P, [0]) == pytest.approx(ht, rel=1e-3)

    def test_half_torus_within_constant_of_representative(self):
        P = walk_from_graph(build_torus(8))
        marked = parse_marked_spec("half", 8)
        eht, _ = extended_hitting_time(P, marked)
        lim = extended_hitting_time_limit(P, marked)
        assert 0.1 <= lim / eht <= 10.0
        assert lim / eht == pytest.approx(2.0, rel=1e-6)

    def test_grid_is_strictly_ascending_below_one(self):
        # the extrapolation reads the two largest points of this grid
        assert len(DEFAULT_S_LIST) >= 2
        assert all(0.0 <= a < b < 1.0 for a, b in zip(DEFAULT_S_LIST, DEFAULT_S_LIST[1:]))


class TestAnalyzeInstance:
    def test_panel_consistency(self):
        P = walk_from_graph(build_torus(5))
        times = analyze_instance(P, [0])
        assert times.ht == pytest.approx(95 / 3, rel=1e-10)
        assert times.ht_eff == 35
        assert times.eht == pytest.approx(30.4, rel=1e-10)
        assert times.escape == pytest.approx(times.eht * times.eps_marked, rel=1e-10)
        assert times.gap == pytest.approx(1 - (1 + math.cos(2 * math.pi / 5)) / 2, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    P, pi = random_reversible_chain(n, rng)
    m = rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False)
    ht_s = hitting_time_spectral(P, m, pi=pi)
    ht_l = hitting_time_linear(P, m, pi=pi)
    assert abs(ht_s - ht_l) <= 1e-6 * max(1.0, ht_s)


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
