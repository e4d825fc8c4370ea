"""The rank and independence cuts behind every vanishing verdict; internal.

A singular value counts toward the numerical rank iff it exceeds
RANK_TOL * max(sigma_max, 1), and the left singular vectors past the rank
span the numerical left null space (Golub & Van Loan, Matrix Computations).
Each caller names the factors it reads, and numerical_rank computes only
those (LAPACK xGESDD with JOBZ = 'A', 'S' or 'N'): u for the left null
space, vh from a thin SVD, or the singular values alone for a verdict
that reads only the rank.  The cut is one formula for all three.

A vector is independent of those kept before it iff its residual off their
span exceeds INDEP_TOL * max(||vec||, 1) (IncrementalBasis, classical
Gram-Schmidt with a second pass only where the first cancels, by the
criterion of Daniel, Gragg, Kaufman & Stewart).  all_dependent asks the
same question of a block of vectors at once, against the rows kept so
far.  Its callers keep the vectors themselves, raw word images and
gadget signatures, and never read the orthonormal rows, so reports hang
on the keep decisions alone, not on the rows' bits.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

RANK_TOL = 1e-7
INDEP_TOL = 1e-9


class NumericalRank(NamedTuple):
    """One SVD of a matrix a and the rank cut on its singular values.

    u is square, for the left null space, and vh has min(a.shape) rows
    under factors="left"; vh alone, from the thin SVD, under "right"
    (simsim._intertwine, its one reader, passes a tall or square a);
    neither under "values".  A factor not computed is None.
    """

    rank: int
    threshold: float
    u: np.ndarray | None
    singular_values: np.ndarray
    vh: np.ndarray | None

    def left_null(self) -> Iterator[np.ndarray]:
        """Conjugated left singular vectors c past the rank; c @ a is ~0."""
        for k in range(self.rank, self.u.shape[0]):
            yield np.conj(self.u[:, k])


def numerical_rank(a: np.ndarray, factors: str = "left") -> NumericalRank:
    """The rank cut of a, with the factors its caller reads.

    "left" takes the full SVD of a tall a and the thin SVD otherwise, so
    u is square: the left null space that spans and
    simsim.is_11_nonvanishing read.  "right" takes the thin SVD and keeps
    vh alone.  "values" computes no singular vectors, for a caller that
    reads nothing but the rank.  LAPACK takes other paths for these two,
    so their singular values may differ from "left"'s in the last bits:
    under "values" on any matrix, under "right" only on large tall ones
    (tests/test_numerics.py says where).
    """
    if factors == "values":
        u = vh = None
        sing = np.linalg.svd(a, compute_uv=False)
    elif factors in ("left", "right"):
        full = factors == "left" and a.shape[0] > a.shape[1]
        u, sing, vh = np.linalg.svd(a, full_matrices=full)
        if factors == "right":
            u = None
    else:
        raise ValueError(f"unknown factors {factors!r}")
    threshold = RANK_TOL * max(float(sing[0]) if sing.size else 0.0, 1.0)
    return NumericalRank(int(np.sum(sing > threshold)), threshold, u, sing, vh)


class IncrementalBasis:
    """Classical Gram-Schmidt with selective reorthogonalization on one stacked basis.

    add(vec) projects a copy v of vec off the kept rows U,
    v -= (conj(U) v) U, and keeps v / ||v|| iff ||v|| > tol * max(1, ||vec||).
    A residual at or under that cut is dependent after one pass.  One
    above it but under ||vec|| / sqrt(2) has lost more than half its
    norm to cancellation, so it is projected a second time before the cut
    is read again (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976);
    one above ||vec|| / sqrt(2) is kept after one pass.  Two passes make
    classical Gram-Schmidt orthogonal to working precision (Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 2005: "twice is
    enough"), at two matrix-vector products a pass instead of one vdot
    per kept row.  The rows and their conjugates are two arrays that
    double when full, so storage follows the kept count, never len(vec)
    squared.  A vector whose norm is not a finite float (a NaN or
    infinite entry, or an overflow) raises ArithmeticError before it is
    projected: NaN > tol is false, so it would pass as dependent.  Below
    that norm the residual stays finite.

    all_dependent(block) asks of every row of a block at once whether add
    would find it dependent on the rows kept so far, with two block
    projections and each row's own cut.
    """

    def __init__(self, tol: float = INDEP_TOL):
        self.tol = tol
        self._dim = 0
        self._rows = np.zeros((0, 0), dtype=np.complex128)
        self._conj = self._rows

    @property
    def ortho(self) -> np.ndarray:
        """The kept orthonormal rows, in the order kept: a view."""
        return self._rows[: self._dim]

    def add(self, vec: np.ndarray) -> bool:
        v = np.array(vec, dtype=np.complex128)
        norm = math.sqrt(np.vdot(v, v).real)
        if not math.isfinite(norm):
            raise ArithmeticError(f"vector norm {norm} is not finite")
        cut = self.tol * max(1.0, norm)
        res = norm
        for _ in range(2 if self._dim else 0):
            # no names for the views, which would keep old arrays alive past _grown
            v -= (self._conj[: self._dim] @ v) @ self.ortho
            res = math.sqrt(np.vdot(v, v).real)
            if res <= cut or res * math.sqrt(2.0) > norm:
                break
        if res <= cut:
            return False
        if self._dim == len(self._rows):
            # one array at a time, so the old rows go before the new conjugates come
            self._rows = self._grown(self._rows, v.size)
            self._conj = self._grown(self._conj, v.size)
        np.divide(v, res, out=self._rows[self._dim])
        np.conjugate(self._rows[self._dim], out=self._conj[self._dim])
        self._dim += 1
        return True

    def all_dependent(self, block: np.ndarray) -> bool:
        """True iff every row of block is within its cut of the kept rows' span.

        Each row is projected off the kept rows twice, as one matrix
        product a pass, and its residual is read against its own cut,
        tol * max(1, ||row||).  Nothing is kept.  A row that is not
        finite answers False, so that a caller that then adds the rows
        one by one meets add's ArithmeticError.
        """
        v = np.array(block, dtype=np.complex128)
        norms = np.sqrt(np.einsum("ij,ij->i", v.conj(), v).real)
        if not np.isfinite(norms).all():
            return False
        if self._dim:
            for _ in range(2):
                v -= (v @ self._conj[: self._dim].T) @ self.ortho
        res = np.sqrt(np.einsum("ij,ij->i", v.conj(), v).real)
        return bool((res <= self.tol * np.maximum(1.0, norms)).all())

    def _grown(self, old: np.ndarray, size: int) -> np.ndarray:
        """A copy of old's kept rows with room for twice as many."""
        new = np.empty((max(1, 2 * len(old)), size), dtype=np.complex128)
        if self._dim:
            new[: self._dim] = old[: self._dim]
        return new
