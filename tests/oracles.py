"""Oracles that more than one test module shares.

A plain module rather than conftest fixtures, because module-level
helpers in the tests (the orbit chain of test_szegedy) call them.
"""

import numpy as np
import scipy.sparse as sp

from walklab.markov import WalkMatrix


def lump(P: WalkMatrix, classes: np.ndarray) -> WalkMatrix:
    """Oracle: P lumped onto the classes classes[x], the chain of the class masses.

    Column C is the out-distribution of C's first member, summed by
    target class.  Raises unless every state's summed out-distribution
    equals its representative's exactly (Kemeny-Snell lumpability), the
    condition under which the lumped chain carries the class masses of P.
    """
    mat = P.mat
    rows = np.repeat(np.arange(P.dim), np.diff(mat.indptr))
    mass = sp.csc_array((mat.data, (classes[rows], mat.indices)), shape=(classes.max() + 1, P.dim))
    rep = np.unique(classes, return_index=True)[1]
    if (mass - mass[:, rep[classes]]).count_nonzero():
        raise ValueError("chain is not lumpable onto the given classes")
    return WalkMatrix(mass[:, rep], kind="plain")
