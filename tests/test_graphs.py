import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.graphs import (
    Graph,
    build_grid,
    build_rect_grid,
    build_rect_torus,
    build_torus,
    partition_torus,
)

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


class TestTorus:
    def test_four_regular(self):
        g = build_torus(5)
        assert g.n_vertices == 25
        assert g.src.size == 100
        assert np.all(np.bincount(g.src) == 4)
        assert np.all(np.bincount(g.dst) == 4)
        assert g.self_loop_count() == 0

    def test_side_two_has_parallel_edges(self):
        g = build_torus(2)
        # opposite moves coincide, so each neighbor appears twice
        assert g.src.size == 16
        assert len(set(zip(g.src.tolist(), g.dst.tolist()))) == 8

    def test_coords_row_major(self):
        coords = build_torus(4).to_dict()["coords"]
        assert coords[0] == [0, 0]
        assert coords[5] == [1, 1]
        assert coords[15] == [3, 3]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            build_torus(1)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_edges_match_loop_oracle(self, n):
        assert build_torus(n).to_dict()["edges"] == loop_edges(n, n, wrap=True)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (5, 1), (2, 3), (4, 7), (6, 6)])
    def test_rect_edges_match_loop_oracle(self, shape):
        g = build_rect_torus(*shape)
        assert (g.kind, g.shape) == ("torus", shape)
        assert g.to_dict()["edges"] == loop_edges(*shape, wrap=True)

    def test_rect_rejects_empty_side(self):
        with pytest.raises(ValueError):
            build_rect_torus(3, 0)


class TestGrid:
    def test_boundary_self_loops(self):
        g = build_grid(4)
        assert np.all(np.bincount(g.src) == 4)
        assert np.all(np.bincount(g.dst) == 4)
        # 4 corners x 2 loops + 8 edge cells x 1 loop
        assert g.self_loop_count() == 16

    def test_interior_has_no_loops(self):
        g = build_grid(3)
        center = 4
        assert np.all(g.dst[g.src == center] != center)

    def test_rect_allows_single_row(self):
        g = build_rect_grid(1, 3)
        assert g.n_vertices == 3
        assert np.all(np.bincount(g.src) == 4)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (4, 4), (3, 7), (8, 8)])
    def test_edges_match_loop_oracle(self, shape):
        assert build_rect_grid(*shape).to_dict()["edges"] == loop_edges(*shape, wrap=False)

    def test_rejects_out_of_range_edge(self):
        g = build_grid(3)
        dst = g.dst.copy()
        dst[5] = 9
        with pytest.raises(ValueError, match="out of range"):
            Graph(g.n_vertices, g.src, dst, g.kind, g.shape)


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
        g = build_rect_grid(*layout.block_shape(4))
        assert g.kind == "grid"
        assert g.n_vertices == 64
        assert np.all(np.bincount(g.src) == 4)

    def test_block_vertices_row_major(self):
        layout = partition_torus(24, 8)
        verts = layout.block_vertices(1)
        (r0, _), (c0, c1) = layout.block_range(1)
        assert verts[0] == r0 * 24 + c0
        assert verts[1] == r0 * 24 + c0 + 1
        assert len(verts) == (c1 - c0) * 8
