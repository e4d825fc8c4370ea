"""Holographic transformations and their fixed-point predicates.

An invertible T acts on an (l,r) tensor by hitting every left slot with T
and every right slot with T inverse.  Closed-grid Holant values are
invariant under acting on every signature at once, because the T and
T-inverse factors cancel across each edge; verify_holant_theorem checks
this numerically over an enumerated family of grids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from holant.contraction import holant_eval_contracted  # unused, but perfbench's tracer wraps this name
from holant.grids import SignatureGrid
from holant.grids import enumerate_grids  # unused, but perfbench's tracer wraps this name
from holant.spans import closed_signature_blocks
from holant.tensors import MixedTensor, equality_signature

COND_WARN_THRESHOLD = 1e8
PREDICATE_TOL = 1e-8


class IllConditionedTransformWarning(UserWarning):
    pass


class DefectiveSpectrumWarning(UserWarning):
    pass


class HoloTransform:
    """An invertible basis change on the domain, with cached inverse."""

    __slots__ = ("q", "matrix", "inverse", "cond")

    def __init__(self, q: int, matrix):
        if q < 1:
            raise ValueError(f"domain size must be positive, got {q}")
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (q, q):
            raise ValueError(f"transform must be {q}x{q}, got {m.shape}")
        cond = float(np.linalg.cond(m))
        if not np.isfinite(cond):
            raise ValueError("transform matrix is singular")
        if cond > COND_WARN_THRESHOLD:
            warnings.warn(
                f"transform condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; "
                "transformed values may lose digits",
                IllConditionedTransformWarning,
            )
        m = m.copy()
        m.setflags(write=False)
        inv = np.linalg.inv(m)
        inv.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "cond", cond)

    def __setattr__(self, name, value):
        raise AttributeError("HoloTransform is immutable")

    @classmethod
    def diagonal(cls, entries) -> "HoloTransform":
        d = np.asarray(entries, dtype=np.complex128)
        return cls(len(d), np.diag(d))

    def inverse_transform(self) -> "HoloTransform":
        return HoloTransform(self.q, self.inverse)

    def act(self, t: MixedTensor) -> MixedTensor:
        """Apply slot by slot; never materializes a Kronecker power.

        Each slot is the one np.dot that np.tensordot would make, on the
        array with that slot moved first (T) or last (T inverse), so the
        values are tensordot's bits without its per-call overhead.
        """
        if t.q != self.q:
            raise ValueError(f"tensor domain {t.q} does not match transform domain {self.q}")
        arr = t.array
        q, n = self.q, arr.ndim
        for ax in range(n):
            others = [a for a in range(n) if a != ax]
            if ax < t.left:
                order = [ax, *others]
                arr = np.dot(self.matrix, arr.transpose(order).reshape(q, -1))
            else:
                order = [*others, ax]
                arr = np.dot(arr.transpose(order).reshape(-1, q), self.inverse)
            arr = arr.reshape((q,) * n).transpose([order.index(a) for a in range(n)])
        return MixedTensor(t.q, t.left, t.right, arr)

    def act_set(self, fs: dict[str, MixedTensor]) -> dict[str, MixedTensor]:
        return {name: self.act(t) for name, t in fs.items()}

    def __repr__(self) -> str:
        return f"HoloTransform(q={self.q}, cond={self.cond:.2e})"


# -- the invariance check ---------------------------------------------------


@dataclass
class HolantTheoremReport:
    """Outcome of comparing Holant values before and after a transform."""

    q: int
    max_vertices: int
    grids_checked: int
    max_abs_error: float
    max_scaled_error: float
    worst_grid: SignatureGrid | None
    tol: float
    passed: bool


def verify_holant_theorem(
    fs: dict[str, MixedTensor],
    t: HoloTransform,
    max_vertices: int,
    tol: float = PREDICATE_TOL,
) -> HolantTheoremReport:
    """Evaluate every closed grid over fs up to the bound, both ways.

    A grid passes when |before - after| <= tol * (1 + |before|).  The
    walk is the spans checkers' over fs alone: when every binding of fs
    is symmetric (MixedTensor.is_symmetric) and some id has two or
    more ports on a side, it takes one grid per class of port
    permutations (holant.spans).  In exact arithmetic the grids of a
    class share one value under fs, and one under T·F: T acts on every
    left slot alike and T inverse on every right slot alike, so T·F is
    symmetric wherever F is.  Only rounding tells the members of a class
    apart, so one of them tests what all of them would; grids_checked
    counts the classes.

    The values come as one (grids, 2) array per block of the walk from
    spans.closed_signature_blocks, which keeps the last family walked
    here: a later query on it enumerates and compiles nothing, and at
    q >= 2 its program replays it when fs and T·F bind every kind of
    grid pairwise; every other walk goes run by run.  They are judged by
    numpy as a loop over the grids in walk order would judge them:
    moduli by np.hypot, which rounds as Python's abs of a complex does,
    and worst_grid the first grid of the largest scaled error above 0
    (None if every error is 0).  A value that is NaN or infinite on
    either side raises ArithmeticError naming the first such grid in walk
    order: its error compares false with every tolerance, so it would
    pass unseen.  The overflow or invalid operation that makes such a
    value raises no numpy warning besides.
    """
    if not fs:
        raise ValueError("need at least one signature")
    qs = {s.q for s in fs.values()}
    if qs != {t.q}:
        raise ValueError("signatures and transform must share one domain size")
    transformed = t.act_set(fs)
    worst = None
    max_abs = 0.0
    max_scaled = 0.0
    count = 0
    blocks = closed_signature_blocks(max_vertices, fs, transformed)
    with np.errstate(over="ignore", invalid="ignore"):
        for block, values in blocks:
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                k = int(finite.argmin())
                grid, (vf, vg) = block[k], values[k]
                raise ArithmeticError(
                    f"grid {count + k + 1} of the walk (vertices {grid.vertices}, "
                    f"edges {grid.edges}, loops {grid.loops}) has a non-finite value: "
                    f"{complex(vf)} before the transformation, {complex(vg)} after it"
                )
            before = values[:, 0]
            diff = before - values[:, 1]
            err = np.hypot(diff.real, diff.imag)
            scaled = err / (1 + np.hypot(before.real, before.imag))
            above = np.where(scaled > max_scaled, scaled, 0.0)
            k = int(above.argmax())
            if above[k] > max_scaled:
                max_scaled = float(above[k])
                worst = block[k]
            max_abs = float(np.fmax.reduce(err, initial=max_abs))
            count += len(block)
    return HolantTheoremReport(
        q=t.q,
        max_vertices=max_vertices,
        grids_checked=count,
        max_abs_error=max_abs,
        max_scaled_error=max_scaled,
        worst_grid=worst,
        tol=tol,
        passed=max_scaled <= tol,
    )


# -- fixed-point predicates --------------------------------------------------


def is_orthogonal_preserver(t: HoloTransform, tol: float = PREDICATE_TOL) -> bool:
    """Does acting with t fix the contravariant binary equality?

    Cross-checks the signature test against the algebraic one (transpose
    equals inverse) and refuses to answer if they disagree.
    """
    eq2 = equality_signature(t.q, 2, 0)
    sig_ok = t.act(eq2).allclose(eq2, tol)
    alg_err = np.max(np.abs(t.matrix.T - t.inverse))
    alg_ok = bool(alg_err <= tol * max(1.0, float(np.max(np.abs(t.inverse)))))
    if sig_ok != alg_ok:
        raise ArithmeticError(
            f"orthogonality tests disagree near the tolerance: signature test "
            f"{sig_ok}, transpose-vs-inverse error {alg_err:.3e}"
        )
    return sig_ok


def is_permutation_preserver(t: HoloTransform, tol: float = PREDICATE_TOL) -> bool:
    """Does acting with t fix both contravariant equalities of arity 2 and 3?

    The chain construction builds every higher-arity equality out of these
    two, so fixing them fixes the whole equality family.  Cross-checks the
    0/1 pattern of the matrix and raises on disagreement.
    """
    eq2 = equality_signature(t.q, 2, 0)
    eq3 = equality_signature(t.q, 3, 0)
    sig_ok = t.act(eq2).allclose(eq2, tol) and t.act(eq3).allclose(eq3, tol)
    m = t.matrix
    pattern_ok = True
    for row in range(t.q):
        ones = np.sum(np.abs(m[row] - 1) <= tol)
        zeros = np.sum(np.abs(m[row]) <= tol)
        if ones != 1 or zeros != t.q - 1:
            pattern_ok = False
            break
    if pattern_ok:
        col_ones = np.sum(np.abs(m - 1) <= tol, axis=0)
        pattern_ok = bool(np.all(col_ones == 1))
    if sig_ok != pattern_ok:
        raise ArithmeticError(
            f"permutation tests disagree near the tolerance: signature test "
            f"{sig_ok}, matrix pattern test {pattern_ok}"
        )
    return sig_ok


# -- one-parameter families --------------------------------------------------


def epsilon_family_jordan(f: MixedTensor, eps: float) -> tuple[HoloTransform, MixedTensor]:
    """Scale a (1,1) signature toward the diagonal of its triangular form.

    Conjugating an upper-triangular matrix by diag(eps^(q-1), .., eps, 1)
    multiplies the entry at offset j-i by eps^(j-i), so the result drifts
    to the eigenvalue diagonal at rate eps.  Inputs that are not already
    upper triangular are first rotated to Schur form.  Warns when the
    spectrum has near-coincident eigenvalues, where the limit object is a
    degenerate (possibly defective) conjugate.
    """
    if f.shape != (1, 1):
        raise ValueError("the scaling family is defined for (1,1) signatures")
    if not (0 < eps):
        raise ValueError("eps must be positive")
    q = f.q
    m = f.matrix()
    eigs = np.linalg.eigvals(m)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    for i in range(q):
        for j in range(i + 1, q):
            if abs(eigs[i] - eigs[j]) <= 1e-6 * scale:
                warnings.warn(
                    "eigenvalues cluster within 1e-6; the diagonal limit is a "
                    "defective-spectrum conjugate and may be ill conditioned",
                    DefectiveSpectrumWarning,
                )
                break
        else:
            continue
        break
    d = np.array([eps ** (q - 1 - k) for k in range(q)], dtype=np.complex128)
    if np.max(np.abs(np.tril(m, -1))) == 0:
        # already triangular: conjugate by the diagonal alone, entrywise
        offsets = np.subtract.outer(-np.arange(q), -np.arange(q))
        result = MixedTensor(q, 1, 1, m * (float(eps) ** offsets.clip(min=0)) * (offsets >= 0))
        transform = HoloTransform.diagonal(d)
        return transform, result
    # imported here so that importing holant does not load scipy
    import scipy.linalg

    tri, z = scipy.linalg.schur(m, output="complex")
    transform = HoloTransform(q, np.diag(d) @ z.conj().T)
    return transform, transform.act(f)


@dataclass
class EpsilonCounterexampleReport:
    """One member of the scaled family for the symmetric arity-4 pair."""

    a: complex
    b: complex
    eps: float
    transform: HoloTransform
    transformed_disequality: MixedTensor
    transformed_signature: MixedTensor
    transformed_values: tuple[complex, ...]
    target_values: tuple[complex, ...] = (0, 0, 1, 0, 0)
    distance: float = 0.0
    expected_distance: float = 0.0
    disequality_fixed: bool = True


def epsilon_family_counterexample(a: complex, b: complex, eps: float) -> EpsilonCounterexampleReport:
    """Push the pair (disequality | [a,b,1,0,0]) toward (disequality | [0,0,1,0,0]).

    The diagonal transform diag(1/eps, eps) fixes the binary disequality
    and scales the weight-w entry of the covariant arity-4 signature by
    eps^(4-2w), so the distance to the target pair is
    sqrt(|a eps^4|^2 + 4 |b eps^2|^2).  Raises ValueError unless the inputs
    and every result are finite.
    """
    from holant.tensors import SymBoolSignature, disequality_signature, symmetric_values

    if not all(np.isfinite(v) for v in (a, b, eps)):
        raise ValueError("a, b and eps must be finite")
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = HoloTransform.diagonal([1.0 / eps, eps])
    neq = disequality_signature(2, 2, 0)
    f = SymBoolSignature((a, b, 1, 0, 0), 0, 4).to_tensor()
    target = SymBoolSignature((0, 0, 1, 0, 0), 0, 4).to_tensor()
    with np.errstate(over="ignore", invalid="ignore"):
        t_neq = t.act(neq)
        t_f = t.act(f)
        dist = float(np.sqrt(np.sum(np.abs(t_neq.entries - neq.entries) ** 2)
                             + np.sum(np.abs(t_f.entries - target.entries) ** 2)))
    try:
        expected = float(np.sqrt(abs(a * eps**4) ** 2 + 4 * abs(b * eps**2) ** 2))
    except OverflowError:  # a Python float power raises rather than give inf
        expected = float("inf")
    if not np.isfinite([dist, expected]).all():
        raise ValueError("a, b and eps overflow: the transformed family is not finite")
    return EpsilonCounterexampleReport(
        a=complex(a),
        b=complex(b),
        eps=float(eps),
        transform=t,
        transformed_disequality=t_neq,
        transformed_signature=t_f,
        transformed_values=symmetric_values(t_f, tol=1e-7),
        distance=dist,
        expected_distance=expected,
        disequality_fixed=t_neq.allclose(neq, 1e-12),
    )
