import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.graphs import partition_torus
from walklab.locality import (
    GRID_BOUND,
    LINE_BOUND,
    _grid_paths,
    displacement_threshold,
    grid_localization,
    line_localization,
    subgrid_coverage,
    wilson_lower,
)
from walklab.search import parse_marked_spec

TRIALS = 20_000  # unit-test scale; the acceptance suite reruns at 1e5

# every chunked experiment, at a size where chunks hold ~80 trials
EXPERIMENTS = {
    "line": lambda: line_localization(25, 5000, seed=4),
    "grid": lambda: grid_localization(25, 5000, seed=4),
    "subgrid": lambda: subgrid_coverage(16, parse_marked_spec("rows:0", 16), T=2, trials=5000, seed=4),
}


class TestThreshold:
    def test_values(self):
        assert displacement_threshold(25) == 20
        assert displacement_threshold(100) == 40
        assert displacement_threshold(400) == 80
        assert displacement_threshold(1) == 4


class TestWilson:
    def test_below_point_estimate(self):
        assert wilson_lower(990, 1000) < 0.99
        assert wilson_lower(1000, 1000) < 1.0

    def test_zero_successes(self):
        assert wilson_lower(0, 100) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_trials(self):
        # same fraction, more data -> tighter bound
        assert wilson_lower(99, 100) < wilson_lower(990, 1000)


class TestLineLocalization:
    def test_tiny_T_is_fully_localized(self):
        rep = line_localization(1, 1000, seed=2)
        assert rep.threshold == 4
        assert rep.localized_fraction == 1.0

    def test_clears_localization_floor(self):
        rep = line_localization(100, TRIALS, seed=1)
        assert rep.threshold == 40
        assert rep.wilson_low >= LINE_BOUND

    def test_azuma_tail(self):
        rep = line_localization(100, TRIALS, seed=1)
        k = rep.threshold
        bound = 2.0 * math.exp(-(k * k) / (2.0 * 100))
        sigma = math.sqrt(bound * (1 - bound) / TRIALS)
        assert rep.end_tail_fraction <= bound + 3 * sigma

    def test_deterministic(self):
        assert line_localization(25, 5000, seed=9) == line_localization(25, 5000, seed=9)

    def test_worker_count_does_not_change_counts(self, monkeypatch):
        for name, experiment in EXPERIMENTS.items():
            monkeypatch.setenv("WALKLAB_WORKERS", "1")
            a = experiment()
            monkeypatch.setenv("WALKLAB_WORKERS", "3")
            b = experiment()
            assert a == b, name


class TestGridLocalization:
    def test_zero_steps_fully_localized(self):
        rep = grid_localization(0, 1000, seed=5)
        assert rep.localized_fraction == 1.0

    def test_clears_localization_floor(self):
        rep = grid_localization(100, TRIALS, seed=1)
        assert rep.wilson_low >= GRID_BOUND

    def test_at_least_union_of_axes(self):
        # per-axis localization fails independently; union bound direction
        line = line_localization(100, TRIALS, seed=3)
        grid = grid_localization(100, TRIALS, seed=3)
        assert grid.localized_fraction >= 2 * line.localized_fraction - 1

    def test_frozen_paths(self):
        # grid and sub-grid walks share this sampler; a reordered draw
        # changes these displacements.  The grid counts themselves cannot
        # show it: at small T every walk stays within ceil(4 sqrt(T)).
        dr, dc = _grid_paths(np.random.default_rng(5), 3, 6)
        assert dr.tolist() == [[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 2], [1, 2, 2, 2, 2, 2]]
        assert dc.tolist() == [[1, 0, 1, 2, 1, 2], [0, -1, -2, -1, -2, -2], [0, 0, -1, -2, -3, -2]]


class TestSubgridCoverage:
    def test_everything_marked(self):
        rep = subgrid_coverage(8, range(64), T=2, trials=2000, seed=1)
        assert rep.p_hat == 1.0
        assert rep.p_G == 1.0

    def test_row_example_single_block(self):
        # T=16 -> d = 2*ceil(4*sqrt(16)) = 32 swallows the n=32 torus
        marked = parse_marked_spec("rows:0", 32)
        rep = subgrid_coverage(32, marked, T=16, trials=TRIALS, seed=6)
        assert rep.d == 32
        assert rep.n_blocks == 1
        assert rep.p_G == 1.0
        assert rep.p_hat >= 1.0 / 74.0
        assert rep.p_G >= rep.p_hat / 5.0 - 3.0 * rep.sigma

    def test_chain_inequalities_multiblock(self):
        marked = parse_marked_spec("rows:0", 24)
        rep = subgrid_coverage(24, marked, T=1, trials=TRIALS, seed=7)
        assert rep.n_blocks == 9
        assert 0.0 < rep.p_G < 1.0
        s3 = 3.0 * rep.sigma
        assert rep.p_hat - 2.0 / 745.0 <= rep.p_ml + s3
        assert rep.p_ml <= rep.p_Gl  # exact on shared samples
        assert rep.p_Gl <= 4.0 * rep.p_G + s3
        assert rep.p_G >= rep.p_hat / 5.0 - s3

    def test_exact_block_mass(self):
        layout = partition_torus(24, 8)
        marked = parse_marked_spec("cells:(0,0)", 24)
        rep = subgrid_coverage(24, marked, T=1, trials=500, seed=8)
        assert (rep.d, rep.n_blocks) == (layout.d, layout.n_blocks)
        assert rep.p_G == pytest.approx(float(layout.weights()[0]), abs=1e-15)

    def test_deterministic(self):
        marked = parse_marked_spec("half", 16)
        a = subgrid_coverage(16, marked, T=2, trials=3000, seed=11)
        b = subgrid_coverage(16, marked, T=2, trials=3000, seed=11)
        assert a == b

    def test_frozen_counts(self):
        # start draws, then the shared grid-path sampler; reordering changes the hits
        marked = parse_marked_spec("cells:(0,0);(5,7)", 16)
        rep = subgrid_coverage(16, marked, T=1, trials=2000, seed=5)
        assert (rep.d, rep.n_blocks, rep.marked_blocks) == (8, 4, 1)
        hits = [round(p * 2000) for p in (rep.p_hat, rep.p_ml, rep.p_Gl)]
        assert hits == [27, 27, 559]


@settings(max_examples=30, deadline=None)
@given(T=st.integers(0, 2000))
def test_threshold_grows_like_sqrt(T):
    k = displacement_threshold(T)
    assert k >= 4 * math.sqrt(T)
    assert k < 4 * math.sqrt(T) + 1


@settings(max_examples=20, deadline=None)
@given(successes=st.integers(0, 500), extra=st.integers(0, 500))
def test_wilson_is_a_lower_bound(successes, extra):
    trials = successes + extra
    if trials == 0:
        return
    low = wilson_lower(successes, trials)
    assert 0.0 <= low <= successes / trials + 1e-12
