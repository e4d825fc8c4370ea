"""The rank and independence cuts behind every vanishing verdict; internal.

A singular value counts toward the numerical rank iff it exceeds
RANK_TOL * max(sigma_max, 1), and the left singular vectors past the rank
span the numerical left null space (Golub & Van Loan, Matrix Computations).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

RANK_TOL = 1e-7
INDEP_TOL = 1e-9


class NumericalRank(NamedTuple):
    """One full SVD of a matrix and the rank cut on its singular values."""

    rank: int
    threshold: float
    u: np.ndarray
    singular_values: np.ndarray
    vh: np.ndarray

    def left_null(self) -> Iterator[np.ndarray]:
        """Conjugated left singular vectors c past the rank; c @ a is ~0."""
        for k in range(self.rank, self.u.shape[0]):
            yield np.conj(self.u[:, k])


def numerical_rank(a: np.ndarray) -> NumericalRank:
    u, sing, vh = np.linalg.svd(a)
    threshold = RANK_TOL * max(float(sing[0]) if sing.size else 0.0, 1.0)
    return NumericalRank(int(np.sum(sing > threshold)), threshold, u, sing, vh)


class IncrementalBasis:
    """Modified Gram-Schmidt; add() keeps vec iff its residual > tol * max(1, ||vec||)."""

    def __init__(self, tol: float = INDEP_TOL):
        self.tol = tol
        self.ortho: list[np.ndarray] = []

    def add(self, vec: np.ndarray) -> bool:
        v = vec.copy()
        for u in self.ortho:
            v -= np.vdot(u, v) * u
        res = float(np.linalg.norm(v))
        if res > self.tol * max(1.0, float(np.linalg.norm(vec))):
            self.ortho.append(v / res)
            return True
        return False
