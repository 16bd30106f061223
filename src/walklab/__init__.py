"""walklab: a numerical laboratory for random-walk search machinery.

Builds torus and grid chains, measures hitting / escape / extended
hitting times through independent spectral and linear-solve routes,
runs frame-coordinate quantum walk simulations with explicit cost
accounting, checks walk locality by Monte Carlo, and assembles the
full partitioned search pipeline with calibrated constants.
"""

__version__ = "0.1.0"

from . import (
    calibration,
    graphs,
    lattice,
    locality,
    markov,
    reporting,
    search,
    spectral,
    szegedy,
)

__all__ = [
    "__version__",
    "calibration",
    "graphs",
    "lattice",
    "locality",
    "markov",
    "reporting",
    "search",
    "spectral",
    "szegedy",
]
