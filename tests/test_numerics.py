"""The shared rank and independence cuts, against copies of the code they replace.

spans and simsim each carried their own copy of the rank cut (five) and of
the modified Gram-Schmidt loop (two).  The copies below are those, as
they were.  holant.numerics reproduces every rank cut bit for bit, since
verdicts, witnesses and report bytes hang on them.  A caller that reads
fewer factors takes another LAPACK path: the thin SVD keeps the
intertwiner's singular values and vh bit for bit on stacks of up to 108
rows, and the values-only cut keeps the rank wherever the singular
values sit clear of the cut by more than rounding.  The incremental basis
is classical Gram-Schmidt with a second pass wherever the first cancels
more than half a vector's norm, whose rows differ from the loops' in
their last bits; no caller reads those rows, so reports hang only on
its keep decisions.  It must make the loops' keep decisions wherever a
residual sits clear of the cut, and keep rows orthonormal to a stated
multiple of n * eps that span the loops' space.  Its block test must
answer as adds of the block's rows would.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holant import numerics, simsim
from holant.cli import main
from holant.numerics import INDEP_TOL, RANK_TOL, IncrementalBasis, numerical_rank
from holant.serialize import sigset_to_obj
from holant.tensors import MixedTensor

# -- the replaced copies -----------------------------------------------------------


def gram_pass_cut(m):
    """spans._gram_pass, nonempty case."""
    u, sing, vh = np.linalg.svd(m)
    thresh = RANK_TOL * max(float(sing[0]), 1.0)
    rank = int(np.sum(sing > thresh))
    return sing, rank, [np.conj(u[:, k]) for k in range(rank, m.shape[0])]


def covanishing_cut(a):
    """One direction of spans.check_covanishing."""
    if a.shape[0] == 0:
        return []
    u, sing, vh = np.linalg.svd(a)
    smax = float(sing[0]) if sing.size else 0.0
    thresh = RANK_TOL * max(smax, 1.0)
    rank = int(np.sum(sing > thresh))
    return [np.conj(u[:, k]) for k in range(rank, a.shape[0])]


def trace_form_cut(gram):
    """simsim.is_11_nonvanishing."""
    u, sing, vh = np.linalg.svd(gram)
    thresh = RANK_TOL * max(float(sing[0]) if sing.size else 0.0, 1.0)
    rank = int(np.sum(sing > thresh))
    return sing, rank, [np.conj(u[:, k]) for k in range(rank, gram.shape[0])]


def paired_cut(stack_g):
    """simsim.build_paired_algebra's independence check on the G-images."""
    sing = np.linalg.svd(stack_g, compute_uv=False)
    if sing.size and sing[-1] <= RANK_TOL * max(float(sing[0]), 1.0):
        u = np.linalg.svd(stack_g)[0]
        return np.conj(u[:, -1])
    return None


def intertwiner_cut(stack):
    """simsim._intertwine's null-space dimension, cut and margin."""
    _, sing, vh = np.linalg.svd(stack)
    thresh = RANK_TOL * max(float(sing[0]), 1.0)
    dim = max(int(np.sum(sing <= thresh)), 1)
    margin = [
        float(sing[-dim]) / thresh,
        float(sing[-dim - 1]) / thresh if dim < sing.size else None,
    ]
    return dim, thresh, vh[-dim:], margin


def kron_stack(q, fs, gs):
    """simsim._intertwine's stack, kron(I, F_i^T) - kron(G_i, I) over the ids."""
    eye = np.eye(q)
    return np.concatenate([np.kron(eye, f.T) - np.kron(g, eye) for f, g in zip(fs, gs)])


def span_loop(vectors, indep_tol):
    """The basis loop of spans.build_span: kept indices and directions."""
    kept, ortho = [], []
    for i, vec in enumerate(vectors):
        v = vec.copy()
        for u in ortho:
            v -= (u.conj() @ v) * u
        res = float(np.linalg.norm(v))
        if res > indep_tol * max(1.0, float(np.linalg.norm(vec))):
            kept.append(i)
            ortho.append(v / res)
    return kept, ortho


def closure_loop(q, mats):
    """The basis loop of simsim.algebra_closure, identity first."""
    ortho = [np.eye(q, dtype=np.complex128).ravel() / np.sqrt(q)]
    kept = []
    for i, cand in enumerate(mats):
        v = cand.ravel().copy()
        for u in ortho:
            v -= (u.conj() @ v) * u
        res = np.linalg.norm(v)
        if res > INDEP_TOL * max(1.0, np.linalg.norm(cand)):
            kept.append(i)
            ortho.append(v / res)
    return kept, ortho


def same_bytes(xs, ys):
    return len(xs) == len(ys) and all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


# -- strategies --------------------------------------------------------------------


@st.composite
def matrices(draw):
    """Complex matrices: empty, rank-deficient, tall, wide and square."""
    kind = draw(st.sampled_from(["empty", "deficient", "tall", "wide", "square"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    n = draw(st.integers(1, 6))
    if kind == "empty":
        return gaussian(*draw(st.sampled_from([(0, n), (n, 0), (0, 0)])))
    if kind == "deficient":
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        k = draw(st.integers(0, min(rows, cols)))
        return gaussian(rows, k) @ gaussian(k, cols)
    m = draw(st.integers(1, 3))
    if kind == "tall":
        return gaussian(n + m, n)
    if kind == "wide":
        return gaussian(n, n + m)
    return gaussian(n, n)


@st.composite
def vector_streams(draw):
    """Vectors of one length, some of them combinations of earlier ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(1, 3))
    size = q * q
    out = []
    for _ in range(draw(st.integers(0, 2 * size + 2))):
        kind = draw(st.sampled_from(["fresh", "combination", "zero", "tiny"]))
        if kind == "combination" and out:
            c = rng.normal(size=len(out)) + 1j * rng.normal(size=len(out))
            vec = np.tensordot(c, np.array(out), axes=1)
        elif kind == "zero":
            vec = np.zeros(size, dtype=np.complex128)
        else:
            vec = rng.normal(size=size) + 1j * rng.normal(size=size)
            if kind == "tiny":
                vec = vec * 1e-12
        out.append(vec)
    return q, out


@st.composite
def graded_streams(draw):
    """Vectors of one length: a combination of the earlier ones plus a
    fresh part of a drawn size, 1e-16 to 10 times the rest, at scales
    on both sides of the absolute cut."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    out = []
    for _ in range(draw(st.integers(1, n + 4))):
        vec = np.zeros(n, dtype=np.complex128)
        if out and draw(st.booleans()):
            c = rng.normal(size=len(out)) + 1j * rng.normal(size=len(out))
            vec = np.tensordot(c, np.array(out), axes=1)
            vec /= max(np.linalg.norm(vec), 1e-300)
        fresh = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec = vec + fresh / np.linalg.norm(fresh) * 10.0 ** draw(st.integers(-16, 1))
        out.append(vec * 10.0 ** draw(st.integers(-6, 6)))
    return out


@st.composite
def intertwiner_cases(draw):
    """(q, fs, gs) for k = 1..4 ids at q = 1..6: gs random (a stack of
    full rank), conjugate to fs (a null space of dimension >= 1), or fs
    itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))

    def gaussian():
        return rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))

    fs = [gaussian() for _ in range(k)]
    kind = draw(st.sampled_from(["other", "similar", "same"]))
    if kind == "other":
        return q, fs, [gaussian() for _ in range(k)]
    if kind == "similar":
        s = gaussian()
        return q, fs, [s @ f @ np.linalg.inv(s) for f in fs]
    return q, fs, fs


# real and imaginary parts of both signs, ±0.0 among them
signed_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -0.5, 1e-300, -3e200])


@st.composite
def signed_cases(draw):
    """(q, fs, gs) whose entries have parts of both signs, ±0.0 included."""
    q, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.lists(st.builds(complex, signed_parts, signed_parts), min_size=q * q,
                       max_size=q * q)

    def matrix():
        return np.array(draw(entries), dtype=np.complex128).reshape(q, q)

    return q, [matrix() for _ in range(k)], [matrix() for _ in range(k)]


@st.composite
def near_cut_matrices(draw):
    """U diag(sigma) V^H with sigma_max at 1e-2..1e3 and the other singular
    values anywhere below it or within 1e-12..1e-9 of the cut, on either
    side, in units of max(sigma_max, 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = min(rows, cols)
    top = 10.0 ** draw(st.floats(-2, 3))
    scale = max(top, 1.0)
    sing = [top]
    for _ in range(n - 1):
        if draw(st.booleans()):
            sing.append(top * 10.0 ** draw(st.floats(-14, 0)))
        else:
            offset = draw(st.sampled_from([-1, 1])) * 10.0 ** draw(st.floats(-12, -9))
            sing.append(RANK_TOL * scale + offset * scale)

    def unitary(m):
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        return np.linalg.qr(z)[0]

    return (unitary(rows)[:, :n] * np.array(sing)) @ unitary(cols)[:, :n].conj().T


# A backward-stable SVD moves each singular value by a small multiple of
# eps * ||a|| (Golub & Van Loan, Matrix Computations, §8.6), so two LAPACK
# paths agree on the rank wherever every singular value is this far from
# the cut, in units of max(sigma_max, 1), the cut's own scale.
CUT_CLEARANCE = 1e-12


def clear_of_cut(cut):
    sing = cut.singular_values
    scale = max(float(sing[0]) if sing.size else 0.0, 1.0)
    return bool(np.all(np.abs(sing - cut.threshold) >= CUT_CLEARANCE * scale))


# -- properties --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(a=matrices())
def test_rank_cut_matches_every_replaced_copy(a):
    cut = numerical_rank(a)
    sing = cut.singular_values
    null = list(cut.left_null())
    assert cut.threshold == RANK_TOL * max(float(sing[0]) if sing.size else 0.0, 1.0)
    assert same_bytes(null, covanishing_cut(a))
    ref_sing, ref_rank, ref_null = trace_form_cut(a)
    assert (cut.rank, sing.tobytes()) == (ref_rank, ref_sing.tobytes())
    assert same_bytes(null, ref_null)
    if min(a.shape) == 0:
        return  # the three cuts below never see an empty matrix
    ref_sing, ref_rank, ref_null = gram_pass_cut(a)
    assert (cut.rank, sing.tobytes()) == (ref_rank, ref_sing.tobytes())
    assert same_bytes(null, ref_null)
    dim, thresh, null_rows, margin = intertwiner_cut(a)
    assert max(sing.size - cut.rank, 1) == dim and cut.threshold == thresh
    if a.shape[0] >= a.shape[1]:  # simsim._intertwine's stacks, vh's one reader
        assert cut.vh[-dim:].tobytes() == null_rows.tobytes()
    else:  # a wide matrix's vh holds only the rows its singular values index
        assert cut.vh.shape == a.shape
    assert [float(sing[-dim]) / cut.threshold,
            float(sing[-dim - 1]) / cut.threshold if dim < sing.size else None] == margin
    if a.shape[0] <= a.shape[1]:  # G-images: at most q*q words of q*q entries
        ref = paired_cut(a)
        assert (cut.rank < a.shape[0]) == (ref is not None)
        if ref is not None:
            assert np.conj(cut.u[:, -1]).tobytes() == ref.tobytes()
    # the thin SVD that simsim._intertwine takes: the same cut, and vh
    # without u on the tall and square stacks it passes
    right = numerical_rank(a, factors="right")
    assert right.u is None
    assert (right.rank, right.threshold) == (cut.rank, cut.threshold)
    assert right.singular_values.tobytes() == sing.tobytes()
    if a.shape[0] >= a.shape[1]:
        assert right.vh[-dim:].tobytes() == null_rows.tobytes()
    # the values-only cut that simsim._nondegenerate takes: the trace
    # form's rank wherever the singular values sit clear of the cut
    values = numerical_rank(a, factors="values")
    assert values.u is None and values.vh is None
    scale = max(float(sing[0]), 1.0)
    assert np.abs(values.singular_values - sing).max() <= 64 * np.finfo(float).eps * scale
    if clear_of_cut(cut):
        assert values.rank == trace_form_cut(a)[1]


# simsim._intertwine's stacks have at most 108 rows at the sizes the
# simsim-recovery benchmark draws (q <= 6, k <= 3).  From 134 x 34 up,
# OpenBLAS 0.3.31's zgesdd takes another path for the full SVD than for
# the thin one, and their singular values and vh differ in the last
# bits: q = 6 with four ids (144 x 36), q = 7 with three.
THIN_EQUALS_FULL_ROWS = 108


@settings(max_examples=150, deadline=None)
@given(case=intertwiner_cases())
def test_thin_svd_keeps_the_intertwiner_bits(case):
    q, fs, gs = case
    a = kron_stack(q, fs, gs)
    _, sing, vh = np.linalg.svd(a)  # the full SVD that simsim._intertwine took
    right = numerical_rank(a, factors="right")
    full = numerical_rank(a)
    assert right.rank == full.rank
    if len(a) <= THIN_EQUALS_FULL_ROWS:
        assert right.singular_values.tobytes() == sing.tobytes()
        assert right.vh.tobytes() == vh.tobytes()
    else:  # one rounding apart, and the same null space
        scale = max(float(sing[0]), 1.0)
        assert np.abs(right.singular_values - sing).max() <= 64 * np.finfo(float).eps * scale
        dim = a.shape[1] - right.rank
        if dim:
            null = vh[-dim:].conj().T
            off = right.vh[-dim:].conj().T - null @ (null.conj().T @ right.vh[-dim:].conj().T)
            assert np.linalg.norm(off, 2) <= SPAN_BOUND


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(signed_cases(), intertwiner_cases()))
def test_broadcast_stack_is_the_kron_stack(case):
    # bitwise, signed zeros included: eye's 0.0 times a negative part is -0.0
    q, fs, gs = case
    names = [f"m{i}" for i in range(len(fs))]
    stack = simsim._intertwiner_stack(q, names, dict(zip(names, fs)), dict(zip(names, gs)))
    want = kron_stack(q, fs, gs)
    assert stack.shape == want.shape and stack.dtype == want.dtype
    assert stack.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(near_cut_matrices(), matrices()))
def test_values_only_rank_is_the_full_rank_clear_of_the_cut(a):
    full = numerical_rank(a)
    values = numerical_rank(a, factors="values")
    if clear_of_cut(full):
        assert values.rank == full.rank


def test_unknown_factors_are_refused():
    with pytest.raises(ValueError, match="unknown factors 'vh'"):
        numerical_rank(np.eye(2, dtype=complex), factors="vh")


# CGS2, and CGS with the second pass only where the first loses more than
# half the norm (Daniel et al. 1976), keep I - U U^H at O(eps) while a
# kept residual is above eps times its norm by a wide margin (Giraud et
# al. 2005); the cut keeps it at least seven orders above.  The slack
# covers the constant for these lengths.
ORTHO_SLACK = 10
# sines of the principal angles between two computed spans of the same
# kept vectors: rounding, grown by the conditioning of the kept vectors
SPAN_BOUND = 1e-10


def assert_orthonormal(rows):
    k, n = rows.shape
    gap = np.abs(rows @ rows.conj().T - np.eye(k)).max(initial=0.0)
    assert gap <= ORTHO_SLACK * max(k, n, 1) * np.finfo(float).eps, gap


def assert_same_span(rows, ref_rows):
    assert len(rows) == len(ref_rows)
    if not len(rows):
        return
    q, _ = np.linalg.qr(np.array(ref_rows).T)  # orthonormal columns: the loop's span
    off = rows.T - q @ (q.conj().T @ rows.T)
    assert np.linalg.norm(off, 2) <= SPAN_BOUND


@settings(max_examples=150, deadline=None)
@given(stream=vector_streams(), tol=st.sampled_from([INDEP_TOL, RANK_TOL]))
def test_incremental_basis_matches_the_span_loop(stream, tol):
    _, vectors = stream
    basis = IncrementalBasis(tol)
    kept = [i for i, v in enumerate(vectors) if basis.add(v)]
    ref_kept, ref_ortho = span_loop(vectors, tol)
    assert kept == ref_kept
    assert_orthonormal(basis.ortho)
    assert_same_span(basis.ortho, ref_ortho)


@settings(max_examples=150, deadline=None)
@given(stream=vector_streams())
def test_incremental_basis_matches_the_closure_loop(stream):
    q, vectors = stream
    mats = [v.reshape(q, q) for v in vectors]
    basis = IncrementalBasis()
    basis.add(np.eye(q, dtype=np.complex128).ravel())
    kept = [i for i, m in enumerate(mats) if basis.add(m.ravel())]
    ref_kept, ref_ortho = closure_loop(q, mats)
    assert kept == ref_kept
    assert_orthonormal(basis.ortho)
    assert_same_span(basis.ortho, ref_ortho)


def residual_ratios(vectors, tol):
    """The span loop's residual over its cut, tol * max(1, ||vec||), per vector."""
    ortho, ratios = [], []
    for vec in vectors:
        v = vec.copy()
        for u in ortho:
            v -= (u.conj() @ v) * u
        res = float(np.linalg.norm(v))
        ratios.append(res / (tol * max(1.0, float(np.linalg.norm(vec)))))
        if ratios[-1] > 1:
            ortho.append(v / res)
    return ratios


@settings(max_examples=200, deadline=None)
@given(vectors=graded_streams(), tol=st.sampled_from([INDEP_TOL, RANK_TOL]))
def test_stacked_basis_keeps_what_modified_gram_schmidt_keeps(vectors, tol):
    # up to the first vector whose residual sits within a factor 100 of
    # the cut, where the two may round to either side, the keep decisions
    # are the loop's; the rows are orthonormal on the whole stream
    ratios = residual_ratios(vectors, tol)
    clear = next((i for i, r in enumerate(ratios) if 1e-2 < r < 1e2), len(vectors))
    basis = IncrementalBasis(tol)
    kept = [basis.add(v) for v in vectors]
    assert kept[:clear] == [r > 1 for r in ratios[:clear]]
    assert_orthonormal(basis.ortho)


def adds_find_all_dependent(prefix, block, tol):
    """Whether add, called on each row of block after the rows of prefix,
    would keep none of them."""
    basis = IncrementalBasis(tol)
    for vec in prefix:
        basis.add(vec)
    return not any(basis.add(vec) for vec in block)


@settings(max_examples=150, deadline=None)
@given(stream=st.one_of(vector_streams().map(lambda s: s[1]), graded_streams()),
       split=st.integers(0, 40), tol=st.sampled_from([INDEP_TOL, RANK_TOL]))
def test_block_test_answers_as_adds_would(stream, split, tol):
    # a block is tested against the rows kept from the prefix alone, as
    # adds that keep nothing would test each row; wherever every row's
    # residual sits clear of its cut by a factor 100 the answers agree
    if not stream:
        return
    split = min(split, len(stream) - 1)
    prefix, block = stream[:split], stream[split:]
    basis = IncrementalBasis(tol)
    for vec in prefix:
        basis.add(vec)
    ratios = [residual_ratios(prefix + [vec], tol)[-1] for vec in block]
    if any(1e-2 < r < 1e2 for r in ratios):
        return
    assert basis.all_dependent(np.array(block)) == adds_find_all_dependent(prefix, block, tol)
    # and each row alone, which is the answer's dependent half
    for vec, ratio in zip(block, ratios):
        assert basis.all_dependent(vec[None]) == (ratio <= 1)
    assert basis.all_dependent(np.zeros((0, len(block[0])), dtype=np.complex128))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_row_is_not_called_dependent(bad):
    # a block with a non-finite row answers False, so that a caller that
    # then adds its rows one by one meets add's ArithmeticError
    basis = IncrementalBasis()
    for k in range(2):
        basis.add(np.eye(3, dtype=np.complex128)[k])
    block = np.array([[1.0, 2.0, 0.0], [1.0, bad, 0.0]], dtype=np.complex128)
    assert basis.all_dependent(block[:1])
    assert not basis.all_dependent(block)
    assert basis.ortho.shape[0] == 2
    with pytest.raises(ArithmeticError, match="vector norm .* is not finite"):
        basis.add(block[1])


# -- fixed cases -----------------------------------------------------------------------


def test_threshold_is_relative_above_one_and_absolute_below():
    # 1e-5 would count against an absolute 1e-7, and 2e-7 against 5e-8
    big = numerical_rank(np.diag([1e3, 2e-4, 1e-5]).astype(complex))
    assert big.threshold == RANK_TOL * 1e3 and big.rank == 2
    small = numerical_rank(np.diag([0.5, 2e-7, 5e-8]).astype(complex))
    assert small.threshold == RANK_TOL and small.rank == 2
    assert len(list(small.left_null())) == 1


def test_empty_matrix_has_rank_zero_and_absolute_threshold():
    for factors in ("right", "values"):
        cut = numerical_rank(np.zeros((3, 0), dtype=complex), factors=factors)
        assert (cut.rank, cut.threshold, cut.singular_values.size) == (0, RANK_TOL, 0)
    tall = numerical_rank(np.zeros((3, 0), dtype=complex))
    assert (tall.rank, tall.threshold) == (0, RANK_TOL)
    assert len(list(tall.left_null())) == 3
    assert list(numerical_rank(np.zeros((0, 3), dtype=complex)).left_null()) == []


def test_left_null_vectors_annihilate_the_matrix():
    rng = np.random.default_rng(4)
    a = (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))) @ rng.normal(size=(2, 5))
    cut = numerical_rank(a)
    assert cut.rank == 2
    for c in cut.left_null():
        assert np.linalg.norm(c @ a) <= 1e-12 * np.linalg.norm(a)


def test_basis_storage_grows_with_the_kept_rows():
    # 4**10-entry vectors: a square buffer would be 4**10 rows.  The third
    # add peaks at 11: the new rows and conjugates (4 each, doubled past
    # 2), the old conjugates while the new ones are filled, and its copy
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=4**10) + 1j * rng.normal(size=4**10) for _ in range(3)]
    row = vectors[0].nbytes
    basis = IncrementalBasis()
    tracemalloc.start()
    try:
        assert all(basis.add(v) for v in vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.ortho.shape == (3, 4**10)
    assert peak < 12 * row, peak / row
    assert_orthonormal(basis.ortho)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_vectors_are_refused(bad):
    # NaN > tol is false, so a NaN vector would pass as dependent
    for rows in range(2):
        basis = IncrementalBasis()
        for k in range(rows):
            basis.add(np.eye(3, dtype=np.complex128)[k])
        vec = np.ones(3, dtype=np.complex128)
        vec[1] = bad
        with pytest.raises(ArithmeticError, match="vector norm .* is not finite"):
            basis.add(vec)
        assert basis.ortho.shape[0] == rows


def test_numerics_is_internal():
    import holant

    for name in ("RANK_TOL", "INDEP_TOL", "numerical_rank", "IncrementalBasis"):
        assert not hasattr(holant, name)


def test_empty_dual_span_prints_unit_coefficients(capsys, tmp_path):
    # every id has more right than left slots, so no gadget has profile
    # (3,0): the dual span is empty and the pairing has no columns; the
    # witness is a lone gadget with coefficient exactly 1, not conj(1)
    sigs = {
        "a": MixedTensor(2, 1, 1, np.array([1.0, 2.0, 3.0, 4.0])),
        "b": MixedTensor(2, 1, 2, np.arange(1.0, 9.0)),
    }
    path = tmp_path / "sigs.json"
    path.write_text(json.dumps(sigset_to_obj(sigs)))
    code = main(["vanishing", "--sigs", str(path), "--profile", "0,3", "--max-vertices", "3"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 1
    assert (rep["verdict"], rep["dim_dual"], rep["singular_values"]) == ("vanishing_witness", 0, [])
    assert [t["coeff"] for t in rep["witness"]["terms"]] == [[1.0, 0.0]]
    assert '"coeff":[1.0,0.0]' in out


@pytest.mark.parametrize("module", ["spans", "simsim"])
def test_no_private_tolerance_copies(module):
    import importlib

    mod = importlib.import_module(f"holant.{module}")
    # a module that names RANK_TOL at all names numerics' own
    assert getattr(mod, "RANK_TOL", numerics.RANK_TOL) is numerics.RANK_TOL
    assert not hasattr(mod, "CLOSURE_TOL")
