"""The shared rank and independence cuts, against copies of the code they replace.

spans and simsim each carried their own copy of the rank cut (five) and of
the modified Gram-Schmidt loop (two).  The copies below are those, as
they were; holant.numerics must reproduce every one of them bit for bit,
since verdicts, witnesses and report bytes hang on them.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holant import numerics
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
    assert cut.vh[-dim:].tobytes() == null_rows.tobytes()
    assert [float(sing[-dim]) / cut.threshold,
            float(sing[-dim - 1]) / cut.threshold if dim < sing.size else None] == margin
    if a.shape[0] <= a.shape[1]:  # G-images: at most q*q words of q*q entries
        ref = paired_cut(a)
        assert (cut.rank < a.shape[0]) == (ref is not None)
        if ref is not None:
            assert np.conj(cut.u[:, -1]).tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(stream=vector_streams(), tol=st.sampled_from([INDEP_TOL, RANK_TOL]))
def test_incremental_basis_matches_the_span_loop(stream, tol):
    _, vectors = stream
    basis = IncrementalBasis(tol)
    kept = [i for i, v in enumerate(vectors) if basis.add(v)]
    ref_kept, ref_ortho = span_loop(vectors, tol)
    assert kept == ref_kept
    assert same_bytes(basis.ortho, ref_ortho)


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
    assert same_bytes(basis.ortho, ref_ortho)


# -- fixed cases -----------------------------------------------------------------------


def test_threshold_is_relative_above_one_and_absolute_below():
    # 1e-5 would count against an absolute 1e-7, and 2e-7 against 5e-8
    big = numerical_rank(np.diag([1e3, 2e-4, 1e-5]).astype(complex))
    assert big.threshold == RANK_TOL * 1e3 and big.rank == 2
    small = numerical_rank(np.diag([0.5, 2e-7, 5e-8]).astype(complex))
    assert small.threshold == RANK_TOL and small.rank == 2
    assert len(list(small.left_null())) == 1


def test_empty_matrix_has_rank_zero_and_absolute_threshold():
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
