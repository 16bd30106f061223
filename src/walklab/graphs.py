"""Torus and grid lattice graphs, and block partitions of a torus into sub-grids.

All graphs here are directed 4-regular multigraphs on an h x w vertex set,
indexed row-major: vertex v = r * w + c.  The torus wraps coordinates
modulo its sides (a side of 1 or 2 produces self-loops or parallel
edges); the grid clamps coordinates at the boundary, turning each
out-of-range move into a self-loop so that every vertex keeps
out-degree and in-degree 4.  Edges are two index arrays (sources and
targets), computed by vectorized index arithmetic: four per vertex, in
vertex order, then move order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "PartitionLayout",
    "build_torus",
    "build_rect_torus",
    "build_grid",
    "build_rect_grid",
    "partition_torus",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Directed multigraph on a row-major lattice.

    Parameters
    ----------
    n_vertices : int
        Number of vertices, labeled 0 .. n_vertices - 1.
    src, dst : np.ndarray of int64
        Source and target of every directed edge; parallel edges appear
        as repeated pairs, self-loops as src == dst.
    kind : str
        "torus" or "grid".
    shape : tuple of (int, int)
        (height, width) of the underlying lattice; vertex v sits at
        (v // width, v % width).
    """

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray
    kind: str
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if self.n_vertices <= 0:
            raise ValueError("graph needs at least one vertex")
        if self.shape[0] * self.shape[1] != self.n_vertices:
            raise ValueError("one lattice site per vertex required")
        if self.src.shape != self.dst.shape:
            raise ValueError("edge sources and targets must pair up")
        ends = np.concatenate((self.src, self.dst))
        if ends.size and (ends.min() < 0 or ends.max() >= self.n_vertices):
            raise ValueError("edge endpoint out of range")

    def self_loop_count(self) -> int:
        return int(np.count_nonzero(self.src == self.dst))

    def to_dict(self) -> dict:
        """JSON-ready description of the graph."""
        return {
            "kind": self.kind,
            "shape": list(self.shape),
            "n_vertices": self.n_vertices,
            "coords": np.column_stack(np.divmod(np.arange(self.n_vertices), self.shape[1])).tolist(),
            "edges": np.column_stack((self.src, self.dst)).tolist(),
        }


# Moves in fixed order: up, down, left, right (row-1, row+1, col-1, col+1).
_MOVE_ROWS = np.array([-1, 1, 0, 0])
_MOVE_COLS = np.array([0, 0, -1, 1])


def _moves(height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source of every edge, with the unreduced row and column of its target."""
    src = np.repeat(np.arange(height * width, dtype=np.int64), 4)
    r, c = np.divmod(src, width)
    return src, r + np.tile(_MOVE_ROWS, height * width), c + np.tile(_MOVE_COLS, height * width)


def build_rect_torus(height: int, width: int) -> Graph:
    """height x width torus: each vertex points at its four cyclic lattice neighbors.

    A side of 2 makes opposite moves coincide, so the edge list carries
    parallel edges and the walk matrix later gets entries 1/2 instead of
    1/4; a side of 1 turns both moves along it into self-loops.
    """
    if height < 1 or width < 1:
        raise ValueError("torus needs positive side lengths")
    src, r, c = _moves(height, width)
    return Graph(height * width, src, (r % height) * width + c % width, "torus", (height, width))


def build_torus(n: int) -> Graph:
    """n x n torus; n = 2 carries parallel edges (see build_rect_torus)."""
    if n < 2:
        raise ValueError("torus needs n >= 2")
    return build_rect_torus(n, n)


def build_rect_grid(height: int, width: int) -> Graph:
    """height x width grid with boundary self-loops (blocks need not be square).

    Clamped moves: every step that would leave the rectangle becomes a
    self-loop, preserving 4-out/4-in at the boundary.
    """
    if height < 1 or width < 1:
        raise ValueError("grid needs positive side lengths")
    src, r, c = _moves(height, width)
    dst = np.clip(r, 0, height - 1) * width + np.clip(c, 0, width - 1)
    return Graph(height * width, src, dst, "grid", (height, width))


def build_grid(n: int) -> Graph:
    """n x n grid with boundary self-loops; corners get two loops each."""
    if n < 2:
        raise ValueError("grid needs n >= 2")
    return build_rect_grid(n, n)


def _axis_blocks(n: int, q: int) -> tuple[tuple[int, int], ...]:
    # q intervals covering range(n); the first n % q of them take the
    # larger length ceil(n/q), the rest floor(n/q).
    base, extra = divmod(n, q)
    blocks = []
    start = 0
    for i in range(q):
        size = base + (1 if i < extra else 0)
        blocks.append((start, start + size))
        start += size
    return tuple(blocks)


@dataclass(frozen=True)
class PartitionLayout:
    """Axis-aligned tiling of the n x n torus by q^2 rectangular blocks.

    Built for a requested minimum block side d: q = max(1, floor(n/d))
    blocks per axis, with side lengths floor(n/q) or ceil(n/q).  When
    d <= n/2 the smaller side D = floor(n/q) satisfies d <= D < 2d.
    Both axes are cut the same way: block b = br * q + bc spans
    ranges[br] x ranges[bc].
    """

    n: int
    d: int
    q: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def n_blocks(self) -> int:
        return self.q * self.q

    @property
    def base_side(self) -> int:
        """D, the smaller of the two block side lengths in use."""
        return self.n // self.q

    def block_range(self, block: int) -> tuple[tuple[int, int], tuple[int, int]]:
        if not (0 <= block < self.n_blocks):
            raise ValueError(f"block index {block} out of range")
        return self.ranges[block // self.q], self.ranges[block % self.q]

    def block_shape(self, block: int) -> tuple[int, int]:
        (r0, r1), (c0, c1) = self.block_range(block)
        return (r1 - r0, c1 - c0)

    def block_of(self) -> np.ndarray:
        """Block index of every torus vertex, as a flat length-n^2 array."""
        axis = np.zeros(self.n, dtype=np.int64)
        for i, (a, b) in enumerate(self.ranges):
            axis[a:b] = i
        return (axis[:, None] * self.q + axis[None, :]).reshape(-1)

    def block_vertices(self, block: int) -> np.ndarray:
        """Torus vertex labels inside a block, in local row-major order."""
        (r0, r1), (c0, c1) = self.block_range(block)
        rows = np.arange(r0, r1)
        cols = np.arange(c0, c1)
        return (rows[:, None] * self.n + cols[None, :]).reshape(-1)

    def weights(self) -> np.ndarray:
        """Fraction of torus vertices per block (the mixture weights)."""
        side = np.array([b - a for a, b in self.ranges])
        return np.outer(side, side).ravel() / (self.n * self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "q": self.q,
            "base_side": self.base_side,
            "row_ranges": [list(r) for r in self.ranges],
            "col_ranges": [list(r) for r in self.ranges],
        }


def partition_torus(n: int, d: int) -> PartitionLayout:
    """Tile the n x n torus with q^2 near-square blocks of side about d.

    q = max(1, floor(n/d)); each axis is split into q contiguous runs of
    length floor(n/q) or ceil(n/q), the longer runs first.  d > n/2 (or
    d >= n) collapses the tiling to a single block covering everything.
    """
    if n < 2:
        raise ValueError("torus needs n >= 2")
    if d < 1:
        raise ValueError("block side d must be >= 1")
    q = max(1, n // d)
    return PartitionLayout(n=n, d=d, q=q, ranges=_axis_blocks(n, q))

