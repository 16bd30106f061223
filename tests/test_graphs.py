import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.cli import main, parse_graph_spec
from walklab.graphs import partition_torus
from walklab.lattice import Lattice
from walklab.markov import lattice_walk

from oracles import loop_edges


def edges(kind, shape):
    """The neighbour table as an edge list: four per vertex, in vertex order, then move order."""
    table = Lattice(kind, shape).neighbours()
    return np.column_stack((np.repeat(np.arange(table.shape[0]), 4), table.ravel())).tolist()


def self_loops(table):
    return int(np.count_nonzero(table == np.arange(table.shape[0])[:, None]))


class TestTorus:
    def test_four_regular(self):
        table = Lattice("torus", (5, 5)).neighbours()
        assert table.shape == (25, 4) and table.dtype == np.int64
        assert np.all(np.bincount(table.ravel()) == 4)
        assert self_loops(table) == 0

    def test_side_two_has_parallel_edges(self):
        # opposite moves coincide, so each neighbor appears twice
        assert len(edges("torus", (2, 2))) == 16
        assert len(set(map(tuple, edges("torus", (2, 2))))) == 8

    def test_coords_row_major(self, tmp_path):
        assert main(["build", "--graph", "torus:4", "--out", str(tmp_path / "b.json")]) == 0
        coords = json.loads((tmp_path / "b.json").read_text())["results"]["graph"]["coords"]
        assert coords[0] == [0, 0]
        assert coords[5] == [1, 1]
        assert coords[15] == [3, 3]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            parse_graph_spec("torus:1")

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_edges_match_loop_oracle(self, n):
        assert edges("torus", (n, n)) == loop_edges(n, n, wrap=True)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (5, 1), (2, 3), (4, 7), (6, 6)])
    def test_rect_edges_match_loop_oracle(self, shape):
        assert edges("torus", shape) == loop_edges(*shape, wrap=True)

    def test_rect_rejects_empty_side(self):
        with pytest.raises(ValueError):
            Lattice("torus", (3, 0))


class TestGrid:
    def test_boundary_self_loops(self):
        table = Lattice("grid", (4, 4)).neighbours()
        assert np.all(np.bincount(table.ravel()) == 4)
        # 4 corners x 2 loops + 8 edge cells x 1 loop
        assert self_loops(table) == 16

    def test_interior_has_no_loops(self):
        center = 4
        assert np.all(Lattice("grid", (3, 3)).neighbours()[center] != center)

    def test_rect_allows_single_row(self):
        table = Lattice("grid", (1, 3)).neighbours()
        assert table.shape == (3, 4)
        assert np.all(np.bincount(table.ravel()) == 4)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (4, 4), (3, 7), (8, 8)])
    def test_edges_match_loop_oracle(self, shape):
        assert edges("grid", shape) == loop_edges(*shape, wrap=False)


class TestPartition:
    def test_blocks_tile_the_torus(self):
        layout = partition_torus(24, 8)
        assert layout.q == 3
        assert layout.n_blocks == 9
        block_of = layout.block_of()
        seen = np.zeros(24 * 24, dtype=int)
        for b in range(layout.n_blocks):
            for v in layout.block_vertices(b):
                seen[v] += 1
        assert np.all(seen == 1)
        assert np.array_equal(np.sort(np.unique(block_of)), np.arange(9))

    def test_base_side_band(self):
        # base sides land in [d, 2d) whenever q >= 1
        for n, d in [(24, 8), (32, 12), (48, 14), (17, 5), (9, 4)]:
            layout = partition_torus(n, d)
            for lo, hi in layout.ranges:
                assert d <= hi - lo < 2 * d or layout.q == 1

    def test_oversized_d_gives_single_block(self):
        layout = partition_torus(8, 32)
        assert layout.q == 1
        assert layout.n_blocks == 1
        assert layout.block_shape(0) == (8, 8)

    def test_weights_sum_to_one(self):
        layout = partition_torus(32, 12)
        w = layout.weights()
        assert w.shape == (layout.n_blocks,)
        assert abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [*range(2, 40), 64, 127, 128, 199])
    def test_weights_are_the_block_areas_over_n_squared(self, n):
        for d in sorted({1, 2, 3, 5, 8, max(1, n // 3), max(1, n // 2), n}):
            layout = partition_torus(n, d)
            areas = [h * w for h, w in map(layout.block_shape, range(layout.n_blocks))]
            assert layout.weights().tolist() == [a / (n * n) for a in areas]

    def test_detection_example_single_block(self):
        # T=16 displacement scale: d = 2*ceil(4*sqrt(16)) = 32 swallows the whole side
        layout = partition_torus(32, 32)
        assert layout.n_blocks == 1
        assert float(layout.weights()[0]) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 64), d=st.integers(1, 80))
    def test_partition_invariants(self, n, d):
        layout = partition_torus(n, d)
        assert layout.q == max(1, n // d)
        sides = [hi - lo for lo, hi in layout.ranges]
        assert sum(sides) == n
        if layout.q > 1:
            assert all(d <= s < 2 * d for s in sides)
        assert abs(layout.weights().sum() - 1.0) < 1e-12


class TestSubgrid:
    def test_local_graph_is_clamped_grid(self):
        layout = partition_torus(24, 8)
        P = lattice_walk("grid", layout.block_shape(4))
        assert P.lattice == Lattice("grid", (8, 8))
        assert P.dim == 64
        assert np.all(np.bincount(P.lattice.neighbours().ravel()) == 4)

    def test_block_vertices_row_major(self):
        layout = partition_torus(24, 8)
        verts = layout.block_vertices(1)
        (r0, _), (c0, c1) = layout.block_range(1)
        assert verts[0] == r0 * 24 + c0
        assert verts[1] == r0 * 24 + c0 + 1
        assert len(verts) == (c1 - c0) * 8
