"""Simultaneous similarity recovery for matrix signature sets.

For sets of (1,1) signatures the gadget span is the unital matrix algebra
generated by the set, the pairing is the trace form, and equality of all
word traces characterizes simultaneous similarity (for trace-nondegenerate
sets).  recover_transform verifies those algebraic preconditions and
then solves T F_i = G_i T for every i at once, as the null space of one
linear map on T.  On nonvanishing sets the generated algebras are
semisimple, so Holant-indistinguishable means similar, and a seeded
random member of that null space is invertible with probability 1
(Chistov, Ivanyos & Karpinski, ISSAC 1997; Brooksbank & Luks, J. Algebra
2008).  A T that passes the residual check is therefore the certificate:
word traces are compared, up to max_word_len, only to explain a pair
that fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from holant.numerics import INDEP_TOL, RANK_TOL, IncrementalBasis, numerical_rank
from holant.tensors import MixedTensor
from holant.transforms import HoloTransform

DEFAULT_MAX_WORDS = 20000


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


def _normalize_sets(fs, gs):
    if set(fs) != set(gs):
        raise ValueError("the two sets must use the same signature ids")
    names = list(fs)
    f_mats = {}
    g_mats = {}
    q = None
    for name in names:
        m = _as_matrix(fs[name], q)
        q = m.shape[0]
        f_mats[name] = m
        g_mats[name] = _as_matrix(gs[name], q)
    if q is None:
        raise ValueError("need at least one matrix to fix the domain size")
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
            # tr(A B) = vec(A) . vec(B^T), so the Gram matrix is one product
            n = len(self.basis)
            b = np.array(self.basis, dtype=np.complex128).reshape(n, self.q, self.q)
            self.gram = b.reshape(n, -1) @ b.transpose(0, 2, 1).reshape(n, -1).T


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
    names = list(mats)
    words = [()]
    basis = [np.eye(q, dtype=np.complex128)]
    independent = IncrementalBasis()
    independent.add(basis[0].ravel())
    frontier = [0]
    while frontier and len(basis) < q * q:
        next_frontier = []
        for idx in frontier:
            for name in names:
                cand = basis[idx] @ mats[name]
                if independent.add(cand.ravel()):
                    words.append(words[idx] + (name,))
                    basis.append(cand)
                    next_frontier.append(len(basis) - 1)
                    if len(basis) == q * q:
                        break
            if len(basis) == q * q:
                break
        frontier = next_frontier
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
    verdict: str  # equal_at_bound | mismatch
    max_len: int
    length_reached: int
    words_checked: int
    witness_word: tuple[str, ...] | None
    trace_f: complex | None
    trace_g: complex | None


def trace_words_equal(
    fs,
    gs,
    max_len: int | None = None,
    tol: float = 1e-8,
    max_words: int = DEFAULT_MAX_WORDS,
) -> TraceWordReport:
    """Compare tr(w(F)) with tr(w(G)) over all words up to max_len.

    Breadth-first in word length with generators in supplied order, so the
    first failure is the lowest word in enumeration order.  Word count is
    capped at max_words; the reached length is reported either way and the
    pass verdict is only relative to it.

    Each generator pair is rescaled to unit Frobenius norm before
    multiplying, which a shared trace survives, so tol measures the
    normalized traces and long words of large matrices stay comparable in
    floating point.  Reported traces are for the matrices as given.
    """
    q, names, f_mats, g_mats = _normalize_sets(fs, gs)
    if max_len is None:
        max_len = q * q
    scales = {}
    for name in names:
        c = max(np.linalg.norm(f_mats[name]), np.linalg.norm(g_mats[name]))
        scales[name] = c if c > 0 else 1.0
        f_mats[name] = f_mats[name] / scales[name]
        g_mats[name] = g_mats[name] / scales[name]
    eye = np.eye(q, dtype=np.complex128)
    level = [((), eye, eye, 1.0)]
    checked = 0
    length_reached = 0
    for length in range(1, max_len + 1):
        next_level = []
        for word, mf, mg, scale in level:
            for name in names:
                wf = mf @ f_mats[name]
                wg = mg @ g_mats[name]
                tf = complex(np.trace(wf))
                tg = complex(np.trace(wg))
                checked += 1
                if abs(tf - tg) > tol * (1 + max(abs(tf), abs(tg))):
                    word_scale = scale * scales[name]
                    return TraceWordReport(
                        verdict="mismatch",
                        max_len=max_len,
                        length_reached=length,
                        words_checked=checked,
                        witness_word=word + (name,),
                        trace_f=tf * word_scale,
                        trace_g=tg * word_scale,
                    )
                next_level.append((word + (name,), wf, wg, scale * scales[name]))
                if checked >= max_words:
                    return TraceWordReport(
                        verdict="equal_at_bound",
                        max_len=max_len,
                        length_reached=length,
                        words_checked=checked,
                        witness_word=None,
                        trace_f=None,
                        trace_g=None,
                    )
        level = next_level
        length_reached = length
        if not level:
            break
    return TraceWordReport(
        verdict="equal_at_bound",
        max_len=max_len,
        length_reached=length_reached,
        words_checked=checked,
        witness_word=None,
        trace_f=None,
        trace_g=None,
    )


# -- paired algebra ----------------------------------------------------------------


@dataclass
class PairedAlgebra:
    """One word basis carrying both sides' images.

    failure records the first covanishing or trace inconsistency found
    while mirroring the closure, as a machine-readable dict.
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
    """Mirror the F-side word closure on the G side and cross-check it.

    The correspondence sum(c_w w(F)) <-> sum(c_w w(G)) is well defined in
    both directions iff the G-images of the basis words stay independent
    and every one-step word extension expands with the same coefficients
    on both sides.  Each check failure is a covanishing witness.
    """
    q, names, f_mats, g_mats = _normalize_sets(fs, gs)
    alg_f = algebra_closure(f_mats)
    g_images = [_word_matrix(w, g_mats, q) for w in alg_f.words]
    paired = PairedAlgebra(
        q=q,
        names=names,
        words=list(alg_f.words),
        f_generators=f_mats,
        g_generators=g_mats,
        f_images=list(alg_f.basis),
        g_images=g_images,
        failure=None,
    )
    scale = max(1.0, *(np.linalg.norm(m) for m in paired.f_images),
                *(np.linalg.norm(m) for m in paired.g_images))
    stack_f = np.array([m.ravel() for m in paired.f_images])
    stack_g = np.array([m.ravel() for m in paired.g_images])

    # G-images of independent F-words must stay independent
    cut = numerical_rank(stack_g)
    if cut.rank < len(alg_f.words):
        c = np.conj(cut.u[:, -1])
        paired.failure = {
            "kind": "not_covanishing",
            "direction": "second",
            "words": list(alg_f.words),
            "coefficients": c.tolist(),
            "residual": float(np.linalg.norm(c @ stack_f)),
        }
        return paired

    # one-step extensions must expand identically on both sides
    pinv = np.linalg.pinv(stack_f.T)
    for idx, w in enumerate(alg_f.words):
        for name in names:
            ext_f = paired.f_images[idx] @ f_mats[name]
            ext_g = paired.g_images[idx] @ g_mats[name]
            c = pinv @ ext_f.ravel()
            res_f = np.linalg.norm(stack_f.T @ c - ext_f.ravel())
            if res_f > 10 * INDEP_TOL * max(1.0, scale):
                # closure invariant violated; treat as internal error
                raise ArithmeticError("algebra closure lost a word expansion")
            res_g = np.linalg.norm(stack_g.T @ c - ext_g.ravel())
            if res_g > RANK_TOL * max(1.0, scale):
                paired.failure = {
                    "kind": "not_covanishing",
                    "direction": "first",
                    "word": w + (name,),
                    "words": list(alg_f.words),
                    "coefficients": c.tolist(),
                    "residual": float(res_g),
                }
                return paired
            tf = complex(np.trace(ext_f))
            tg = complex(np.trace(ext_g))
            if abs(tf - tg) > RANK_TOL * (1 + max(abs(tf), abs(tg))):
                paired.failure = {
                    "kind": "trace_mismatch",
                    "word": w + (name,),
                    "trace_f": tf,
                    "trace_g": tg,
                }
                return paired
    return paired


def _word_matrix(word, mats, q):
    m = np.eye(q, dtype=np.complex128)
    for name in word:
        m = m @ mats[name]
    return m


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
    max_word_len: int | None = None,
    seed: int = 0,
) -> RecoveryResult:
    """Find T conjugating every F to its partner G, or say why none was found.

    The certificate runs first.  Preconditions checked in order: both
    trace forms are nondegenerate on the generated algebras; the word
    correspondence is well defined both ways.  Then T is a seeded random
    member of the null space of T -> (T F_i - G_i T)_i, cut at
    RANK_TOL * max(sigma_max, 1), scaled to largest-modulus entry 1.  The
    returned T satisfies ||T F T^-1 - G|| <= tol * (1 + ||G||) per pair,
    which proves similarity, so a certified pair skips the trace-word
    sweep.  Only when a step fails are word traces compared up to
    max_word_len: a mismatch is the reported witness, and otherwise the
    first failed step is.  A verification_failed witness carries the
    null-space dimension and the cut's margin (kept and first dropped
    sigma over the threshold).
    """
    q, names, f_mats, g_mats = _normalize_sets(fs, gs)
    result = _certify(q, names, f_mats, g_mats, tol, seed)
    if result.similar:
        return result
    trace_report = trace_words_equal(f_mats, g_mats, max_len=max_word_len)
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
    return result


def _certify(q, names, f_mats, g_mats, tol, seed) -> RecoveryResult:
    """The similar verdict with T, or the first precondition that fails."""
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
    paired = build_paired_algebra(f_mats, g_mats)
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
