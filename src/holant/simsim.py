"""Simultaneous similarity recovery for matrix signature sets.

For sets of (1,1) signatures the gadget span is the unital matrix algebra
generated by the set, the pairing is the trace form, and equality of all
word traces characterizes simultaneous similarity for nonvanishing sets
(Procesi, 1976).  Both questions are answered on one word basis of the
algebra A generated by the pairs F_i (+) G_i, closed breadth first
(dim A <= 2 q^2; Pappacena, 1997): tr w(F) - tr w(G) is linear on A, so
it vanishes on every word iff it vanishes on the basis words, and the
word correspondence is well defined both ways iff dim A = dim A_F =
dim A_G.

recover_transform accepts a pair when the trace Grams of both sides on
that basis have full rank, then solves T F_i = G_i T for every i at once,
as the null space of one linear map on T.  On nonvanishing sets the
generated algebras are semisimple, so Holant-indistinguishable means
similar, and a seeded random member of that null space is invertible
with probability 1 (Chistov, Ivanyos & Karpinski, ISSAC 1997; Brooksbank
& Luks, J. Algebra 2008).  A T that passes the residual check is
therefore the certificate: the per-side closures and the word traces
run only to explain a pair that fails it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from holant.numerics import IncrementalBasis, numerical_rank
from holant.tensors import MixedTensor
from holant.transforms import HoloTransform


def _as_matrix(value, q=None):
    if isinstance(value, MixedTensor):
        if value.shape != (1, 1):
            raise ValueError(f"need a (1,1) signature, got shape {value.shape}")
        m = value.matrix()
    else:
        m = np.asarray(value, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrices must be square")
    if q is not None and m.shape[0] != q:
        raise ValueError("matrices must share one domain size")
    return m.astype(np.complex128)


class _Checked(dict):
    """id -> matrix as _normalize_sets leaves it: complex128, square,
    finite, one size q for every id of both sets."""


def _normalize_sets(fs, gs):
    """(q, names, f_mats, g_mats) of two signature sets, refusing a
    non-finite entry by side and id before anything multiplies it.

    A pair that this function returned passes through unconverted and
    unchecked, so recover_transform, which hands its sets on to
    trace_words_equal and build_paired_algebra (the names perfbench's
    tracer times), converts and checks them once.
    """
    if set(fs) != set(gs):
        raise ValueError("the two sets must use the same signature ids")
    names = list(fs)
    if type(fs) is _Checked and type(gs) is _Checked:
        return fs[names[0]].shape[0], names, fs, gs
    f_mats = _Checked()
    g_mats = _Checked()
    q = None
    for name in names:
        m = _as_matrix(fs[name], q)
        q = m.shape[0]
        f_mats[name] = m
        g_mats[name] = _as_matrix(gs[name], q)
    if q is None:
        raise ValueError("need at least one matrix to fix the domain size")
    # one check of every entry at once; the first bad id is looked for only on failure
    if not np.isfinite([m for name in names for m in (f_mats[name], g_mats[name])]).all():
        for name in names:
            for side, mats in (("f", f_mats), ("g", g_mats)):
                if not np.isfinite(mats[name]).all():
                    raise ValueError(f"{side}[{name!r}] has a non-finite entry")
    return q, names, f_mats, g_mats


# -- algebra closure -------------------------------------------------------------


@dataclass
class MatrixAlgebra:
    """Word-indexed basis of the unital algebra generated by the matrices."""

    q: int
    generators: dict[str, np.ndarray]
    words: list[tuple[str, ...]]
    basis: list[np.ndarray]
    gram: np.ndarray = field(default=None)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __post_init__(self):
        if self.gram is None:
            self.gram = _trace_gram(self.basis)


def _trace_gram(mats) -> np.ndarray:
    """[tr(A B)] over a list of q x q matrices, as one product.

    tr(A B) = vec(A) . vec(B^T).
    """
    b = np.array(mats, dtype=np.complex128)
    n = len(b)
    return b.reshape(n, -1) @ b.transpose(0, 2, 1).reshape(n, -1).T


def _word_closure(sides, q):
    """Basis words of the algebra generated by the tuples (M_i over sides).

    sides is a list of dicts with the same ids, one q x q matrix each: one
    dict for a matrix set's own algebra, [F, G] for the algebra of the
    pairs F_i (+) G_i.  Breadth-first by word length with generators in
    the given order, on one IncrementalBasis of the concatenated images.
    Yields (word, images), images of shape (len(sides), q, q), for the
    empty word and then for each word independent of those before it.
    Every other word is a combination of yielded words no longer than
    itself.  The images are the raw products, never the basis's
    orthonormal rows, so only its keep decisions reach a caller; the
    next level multiplies the raw images too.
    """
    gens = {name: np.stack([side[name] for side in sides]) for name in sides[0]}
    full = len(sides) * q * q
    eye = np.stack([np.eye(q, dtype=np.complex128)] * len(sides))
    basis = [((), eye)]
    independent = IncrementalBasis()
    independent.add(eye.ravel())
    yield basis[0]
    start = 0
    while start < len(basis) < full:
        end = len(basis)
        for word, images in basis[start:end]:
            for name, gen in gens.items():
                cand = images @ gen
                if independent.add(cand.ravel()):
                    basis.append((word + (name,), cand))
                    yield basis[-1]
                    if len(basis) == full:
                        return
        start = end


def algebra_closure(gens: dict[str, np.ndarray], q: int | None = None) -> MatrixAlgebra:
    """Close a named matrix set under products, breadth-first by word length.

    The identity (empty word) seeds the basis; a word enters iff its matrix
    increases the span's rank.  Terminates at dimension q^2 at the latest.
    """
    mats = {}
    for name, m in gens.items():
        mm = _as_matrix(m, q)
        q = mm.shape[0]
        mats[name] = mm
    if q is None:
        raise ValueError("empty generator set needs an explicit domain size")
    words, basis = [], []
    for word, images in _word_closure([mats], q):
        words.append(word)
        basis.append(images[0])
    return MatrixAlgebra(q=q, generators=mats, words=words, basis=basis)


@dataclass
class NonvanishingReport:
    """Trace-form rank decision; falsy when the form is degenerate."""

    nonvanishing: bool
    dim: int
    rank: int
    singular_values: np.ndarray
    radical: list[np.ndarray]
    radical_coefficients: list[np.ndarray]

    def __bool__(self) -> bool:
        return self.nonvanishing


def is_11_nonvanishing(algebra: MatrixAlgebra) -> NonvanishingReport:
    """Full trace-Gram rank means no algebra member pairs to zero with all.

    On failure the kernel of the Gram matrix gives radical elements: each
    is a nonzero algebra member trace-orthogonal to the whole algebra.
    """
    cut = numerical_rank(algebra.gram)
    coeffs = list(cut.left_null())
    radical = [sum(ci * b for ci, b in zip(c, algebra.basis)) for c in coeffs]
    return NonvanishingReport(
        nonvanishing=cut.rank == algebra.dim,
        dim=algebra.dim,
        rank=cut.rank,
        singular_values=cut.singular_values,
        radical=radical,
        radical_coefficients=coeffs,
    )


# -- trace words -----------------------------------------------------------------


@dataclass
class TraceWordReport:
    verdict: str  # equal | mismatch
    words_checked: int
    witness_word: tuple[str, ...] | None
    trace_f: complex | None
    trace_g: complex | None


def trace_words_equal(fs, gs, tol: float = 1e-8) -> TraceWordReport:
    """Compare tr(w(F)) with tr(w(G)) over every word, on the pair closure's basis.

    tr w(F) - tr w(G) is linear on the algebra generated by the pairs
    F_i (+) G_i, so it vanishes on every word iff it vanishes on the
    basis words, and the verdict is complete.  The closure is breadth
    first with generators in supplied order, and a word outside the
    basis is a combination of basis words no longer than itself, so the
    first mismatch found is as short as any mismatching word.

    Each generator pair is rescaled to unit Frobenius norm before
    multiplying, which a shared trace survives, so tol measures the
    normalized traces and long words of large matrices stay comparable in
    floating point.  Reported traces are for the matrices as given.
    """
    q, names, f_mats, g_mats = _normalize_sets(fs, gs)
    # rescaled copies: f_mats and g_mats may be the caller's own sets
    scales = {}
    f_unit = {}
    g_unit = {}
    for name in names:
        c = max(np.linalg.norm(f_mats[name]), np.linalg.norm(g_mats[name]))
        scales[name] = c if c > 0 else 1.0
        f_unit[name] = f_mats[name] / scales[name]
        g_unit[name] = g_mats[name] / scales[name]
    checked = 0
    for word, (wf, wg) in _word_closure([f_unit, g_unit], q):
        if not word:
            continue  # tr I = q on both sides
        checked += 1
        tf = complex(np.trace(wf))
        tg = complex(np.trace(wg))
        if abs(tf - tg) > tol * (1 + max(abs(tf), abs(tg))):
            word_scale = math.prod((scales[name] for name in word), start=1.0)
            return TraceWordReport("mismatch", checked, word, tf * word_scale, tg * word_scale)
    return TraceWordReport("equal", checked, None, None, None)


# -- paired algebra ----------------------------------------------------------------


@dataclass
class PairedAlgebra:
    """One word basis of the pair algebra carrying both sides' images.

    failure records a projection that is not injective, as a
    machine-readable not_covanishing witness.
    """

    q: int
    names: list[str]
    words: list[tuple[str, ...]]
    f_generators: dict[str, np.ndarray]
    g_generators: dict[str, np.ndarray]
    f_images: list[np.ndarray]
    g_images: list[np.ndarray]
    failure: dict | None


def build_paired_algebra(fs, gs) -> PairedAlgebra:
    """Close the pairs F_i (+) G_i and check that both projections are injective.

    The correspondence sum(c_w w(F)) <-> sum(c_w w(G)) is well defined in
    both directions iff dim A = dim A_F = dim A_G for the pair algebra A.
    A side whose trace Gram on the basis has full rank is injective.
    Otherwise its images are reduced in word order: the first one in the
    span of those before it expands with coefficients that the other side
    does not share, and that is the covanishing witness.
    """
    q, names, f_mats, g_mats = _normalize_sets(fs, gs)
    words, pairs = zip(*_word_closure([f_mats, g_mats], q))
    f_images, g_images = [p[0] for p in pairs], [p[1] for p in pairs]
    n = len(words)
    paired = PairedAlgebra(
        q=q,
        names=names,
        words=list(words),
        f_generators=dict(f_mats),
        g_generators=dict(g_mats),
        f_images=f_images,
        g_images=g_images,
        failure=None,
    )
    if _nondegenerate(f_images, g_images):
        return paired
    ranks = [_image_rank(f_images), _image_rank(g_images)]
    for direction, (_, k), collapsed, other in (
        ("first", ranks[0], f_images, g_images),
        ("second", ranks[1], g_images, f_images),
    ):
        if k is None:
            continue
        c = np.linalg.lstsq(_stack(collapsed[:k]).T, collapsed[k].ravel(), rcond=None)[0]
        paired.failure = {
            "kind": "not_covanishing",
            "direction": direction,
            "word": words[k],
            "words": list(words[:k]),
            "coefficients": c.tolist(),
            "residual": float(np.linalg.norm(c @ _stack(other[:k]) - other[k].ravel())),
            "dims": [n, ranks[0][0], ranks[1][0]],
        }
        break
    return paired


def _nondegenerate(f_images, g_images) -> bool:
    """Both sides' trace Grams on the basis have full rank."""
    n = len(f_images)
    return all(numerical_rank(_trace_gram(images)).rank == n for images in (f_images, g_images))


def _stack(mats):
    return np.array([m.ravel() for m in mats])


def _image_rank(images):
    """The dimension of the images' span, and the first image in the span of earlier ones."""
    independent = IncrementalBasis()
    kept = [independent.add(m.ravel()) for m in images]
    return sum(kept), None if all(kept) else kept.index(False)


# -- full recovery ----------------------------------------------------------------------


@dataclass
class RecoveryResult:
    verdict: str  # similar | vanishing | not_covanishing | trace_mismatch | verification_failed
    q: int
    transform: HoloTransform | None
    witness: dict | None
    residual: float | None

    @property
    def similar(self) -> bool:
        return self.verdict == "similar"


def recover_transform(
    fs,
    gs,
    tol: float = 1e-6,
    seed: int = 0,
) -> RecoveryResult:
    """Find T conjugating every F to its partner G, or say why none was found.

    The certificate runs first: full-rank trace Grams of both sides on
    the pair algebra's basis make both trace forms nondegenerate and the
    word correspondence well defined both ways.  Then T is a seeded
    random member of the null space of T -> (T F_i - G_i T)_i, cut at
    RANK_TOL * max(sigma_max, 1), scaled to largest-modulus entry 1.  The
    returned T satisfies ||T F T^-1 - G|| <= tol * (1 + ||G||) per pair,
    which proves similarity, so a certified pair skips the trace words.
    Otherwise the traces of all words are compared, and a mismatch is the
    reported witness.  Failing that, the first failed step is, in the
    order: either side's trace form, the correspondence, the intertwiner.
    A verification_failed witness carries the null-space dimension and
    the cut's margin (kept and first dropped sigma over the threshold).
    """
    q, names, f_mats, g_mats = _normalize_sets(fs, gs)
    result = _certify(q, names, f_mats, g_mats, tol, seed)
    if result is not None and result.similar:
        return result
    trace_report = trace_words_equal(f_mats, g_mats)
    if trace_report.verdict == "mismatch":
        return RecoveryResult(
            verdict="trace_mismatch",
            q=q,
            transform=None,
            witness={
                "word": list(trace_report.witness_word),
                "trace_f": trace_report.trace_f,
                "trace_g": trace_report.trace_g,
            },
            residual=None,
        )
    return result or _explain(q, names, f_mats, g_mats, tol, seed)


def _certify(q, names, f_mats, g_mats, tol, seed) -> RecoveryResult | None:
    """The intertwiner's verdict when both trace Grams have full rank, else None.

    dim A <= dim A_F <= q^2 when the correspondence is well defined, so
    the closure is cut one word past q^2.
    """
    closure = itertools.islice(_word_closure([f_mats, g_mats], q), q * q + 1)
    pairs = np.array([images for _, images in closure])
    if len(pairs) > q * q or not _nondegenerate(pairs[:, 0], pairs[:, 1]):
        return None
    return _intertwine(q, names, f_mats, g_mats, tol, seed)


def _explain(q, names, f_mats, g_mats, tol, seed) -> RecoveryResult:
    """The first precondition that fails, or the intertwiner's verdict.

    The pair algebra is built before the side checks, though its witness
    is read after them, so that every pair the certificate turns down
    passes through build_paired_algebra, where perfbench's tracer times
    the paired-algebra layer.
    """
    paired = build_paired_algebra(f_mats, g_mats)
    for side, mats in (("first", f_mats), ("second", g_mats)):
        report = is_11_nonvanishing(algebra_closure(mats))
        if not report:
            radical = report.radical[0]
            return RecoveryResult(
                verdict="vanishing",
                q=q,
                transform=None,
                witness={
                    "side": side,
                    "radical_element": radical.tolist(),
                    "gram_rank": report.rank,
                    "algebra_dim": report.dim,
                },
                residual=None,
            )
    if paired.failure is not None:
        kind = paired.failure.pop("kind")
        return RecoveryResult(
            verdict=kind, q=q, transform=None, witness=paired.failure, residual=None
        )
    return _intertwine(q, names, f_mats, g_mats, tol, seed)


def _intertwine(q, names, f_mats, g_mats, tol, seed) -> RecoveryResult:
    """Solve T F_i = G_i T for a seeded null-space member and check it."""
    # T.ravel() -> (T F_i - G_i T).ravel(), stacked over the ids
    eye = np.eye(q)
    stack = np.concatenate(
        [np.kron(eye, f_mats[name].T) - np.kron(g_mats[name], eye) for name in names]
    )
    rank_cut = numerical_rank(stack)
    sing, vh, thresh = rank_cut.singular_values, rank_cut.vh, rank_cut.threshold
    dim = max(sing.size - rank_cut.rank, 1)
    cut = {
        "intertwiner_dim": dim,
        "cut_margin": [
            float(sing[-dim]) / thresh,
            float(sing[-dim - 1]) / thresh if dim < sing.size else None,
        ],
    }
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    t_final = (c @ vh[-dim:].conj()).reshape(q, q)
    t_final = t_final / t_final.flat[np.argmax(np.abs(t_final))]
    try:
        t_inv = np.linalg.inv(t_final)
    except np.linalg.LinAlgError:
        return RecoveryResult(
            verdict="verification_failed",
            q=q,
            transform=None,
            witness={"reason": "intertwiner is singular", **cut},
            residual=None,
        )
    worst = 0.0
    worst_name = None
    for name in names:
        resid = np.linalg.norm(
            t_final @ f_mats[name] @ t_inv - g_mats[name]
        ) / (1 + np.linalg.norm(g_mats[name]))
        if resid > worst:
            worst = resid
            worst_name = name
    if worst > tol:
        return RecoveryResult(
            verdict="verification_failed",
            q=q,
            transform=None,
            witness={
                "reason": "final conjugation residual above tolerance",
                "pair": worst_name,
                "residual": float(worst),
                **cut,
            },
            residual=float(worst),
        )
    return RecoveryResult(
        verdict="similar",
        q=q,
        transform=HoloTransform(q, t_final),
        witness=None,
        residual=float(worst),
    )
