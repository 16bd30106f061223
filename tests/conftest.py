from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from walklab import spectral
from walklab.calibration import calibrate_constants, load_constants, save_constants

from oracles import convex_combination as _convex_combination

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def constants_file(tmp_path_factory):
    """Path to the calibration constants file; regenerated if the repo copy is gone."""
    path = ROOT / "calibration.cfg"
    if not path.exists():
        path = tmp_path_factory.mktemp("calibration") / "calibration.cfg"
        save_constants(calibrate_constants(), path)
    return path


@pytest.fixture(scope="session")
def constants(constants_file):
    return load_constants(constants_file)


def _power_iteration_pi(P, tol=1e-12, max_iter=200_000):
    """Oracle: fixed point of any ergodic chain P by damped power iteration.

    Iterates the lazy matrix (P + I)/2, which shares the fixed point but
    converges for periodic chains too, until ||P p - p||_inf <= tol.
    markov.stationary covers only doubly stochastic chains.
    """
    p = np.full(P.dim, 1.0 / P.dim)
    for _ in range(max_iter):
        step = P.mat @ p
        if np.abs(step - p).max() <= tol:
            return np.maximum(step, 0.0) / step.sum()
        p = 0.5 * (step + p)
    raise AssertionError(f"power iteration did not reach residual {tol:g} in {max_iter} iterations")


@pytest.fixture(scope="session")
def power_iteration_pi():
    return _power_iteration_pi


@pytest.fixture(scope="session")
def convex_combination():
    return _convex_combination


@pytest.fixture
def first_passage_products(monkeypatch):
    """Counts spectral._first_passage's products of D(P'), the Chebyshev recurrence's operator.

    D(P') is the discriminant of P restricted to the unmarked set, so only
    the discriminants spectral asks for with an absorbing mask count.
    """
    counts = {"moments": 0}

    class Counting(sp.csr_array):
        def __matmul__(self, other):
            counts["moments"] += 1
            return super().__matmul__(other)

    real_discriminant = spectral.discriminant

    def counted(P, absorbing=None):
        D = real_discriminant(P, absorbing=absorbing)
        return D if absorbing is None else Counting(D)

    monkeypatch.setattr(spectral, "discriminant", counted)
    return counts
