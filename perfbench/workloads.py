"""The benchmark's workloads: fixed lists of walklab CLI jobs, run in order.

Each workload stresses a different side of the cost split the lineage
papers describe (spectra of the discriminant against walk simulation),
so a change to one layer moves one workload and leaves the others alone.
"""

from __future__ import annotations

WHY = {
    "search-n128": "sparse side of DENSE_LIMIT: cold h_unique(128), one 16384-vertex walk, then ~1.6k tiny block walks",
    "search-n48": "dense side of DENSE_LIMIT: the single block is the whole 2304-vertex torus, every step a dense matvec",
    "analyze-n32": "spectra only: 24 dense eigh calls of size 1024 on torus and grid, no walk simulation",
    "locality-mc": "the only locality workload: RNG and cumsum Monte Carlo, no chain and no spectrum",
}


# A workload seed selects one of INSTANCES input sets, seed mod INSTANCES,
# so that every seed is checked against reports recorded for its instance
# (record.py --seeds 0-63).
INSTANCES = 64


def instance(seed: int) -> int:
    return seed % INSTANCES


def jobs(workload: str, inst: int) -> list[list[str]]:
    """CLI argument lists of one workload for the input set ``inst``."""
    s = str(inst)
    if workload == "search-n128":
        return [
            ["search", "--n", "128", "--marked", "rows:0", "--seed", s],
            ["search", "--n", "128", "--marked", "halfchecker", "--seed", s],
        ]
    if workload == "search-n48":
        return [["search", "--n", "48", "--marked", f"random:40:{s}", "--seed", s, "--sample"]]
    if workload == "analyze-n32":
        return [
            ["analyze", "--graph", "torus:32", "--marked", "halfchecker"],
            ["analyze", "--graph", "grid:32", "--marked", "rows:0"],
            ["analyze", "--graph", "torus:32", "--marked", f"random:7:{s}"],
        ]
    if workload == "locality-mc":
        return [
            ["locality", "--experiment", "line", "--T", "400", "--trials", "500000", "--seed", s],
            ["locality", "--experiment", "grid", "--T", "400", "--trials", "500000", "--seed", s],
            ["locality", "--experiment", "subgrid", "--n", "64", "--T", "16", "--marked", "rows:0",
             "--trials", "1000000", "--seed", s],
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WHY)}")
