"""Block partitions of the n x n torus into near-square sub-grids.

The search walks each block as its own clamped grid; the lattice walks
themselves are built from their shape (markov.lattice_walk).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PartitionLayout", "partition_torus"]


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

