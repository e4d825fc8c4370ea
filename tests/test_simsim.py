"""Matrix algebra closure, trace diagnostics, and similarity recovery.

The round-trip construction is its own oracle: conjugate a set by a known
well-conditioned S, recover a transform, and check it conjugates every
generator.  Frozen small cases (nilpotent Gram, elementary matrix
closure) are worked out by hand.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holant import simsim
from holant.numerics import RANK_TOL, IncrementalBasis
from holant.simsim import (
    MatrixAlgebra,
    RecoveryResult,
    algebra_closure,
    build_paired_algebra,
    is_11_nonvanishing,
    recover_transform,
    trace_words_equal,
)
from holant.tensors import MixedTensor
from holant.transforms import HoloTransform
from oracles import oracle_trace_words


def random_well_conditioned(rng, q, cond_cap=1e3):
    while True:
        s = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        if np.linalg.cond(s) <= cond_cap:
            return s


def conjugate_set(mats, s):
    s_inv = np.linalg.inv(s)
    return {k: s @ m @ s_inv for k, m in mats.items()}


# -- algebra_closure ------------------------------------------------------------


def test_closure_of_empty_set_is_identity_line():
    alg = algebra_closure({}, q=3)
    assert alg.dim == 1
    assert alg.words == [()]
    assert np.allclose(alg.basis[0], np.eye(3))


def test_closure_of_diagonal_matrix():
    alg = algebra_closure({"d": np.diag([1.0, 2.0])})
    assert alg.dim == 2
    assert alg.words == [(), ("d",)]


def test_closure_of_elementary_matrices_is_full():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = e12.T
    alg = algebra_closure({"a": e12, "b": e21})
    assert alg.dim == 4


def test_closure_invariant_products_stay_in_span():
    rng = np.random.default_rng(5)
    gens = {
        "a": rng.normal(size=(3, 3)),
        "b": rng.normal(size=(3, 3)),
    }
    alg = algebra_closure(gens)
    stack = np.array([b.ravel() for b in alg.basis])
    for b in alg.basis:
        for g in alg.generators.values():
            prod = (b @ g).ravel()
            sol, *_ = np.linalg.lstsq(stack.T, prod, rcond=None)
            assert np.linalg.norm(stack.T @ sol - prod) < 1e-8 * max(
                1.0, np.linalg.norm(prod)
            )


def test_closure_words_evaluate_to_basis():
    rng = np.random.default_rng(6)
    gens = {"x": rng.normal(size=(2, 2)), "y": rng.normal(size=(2, 2))}
    alg = algebra_closure(gens)
    for word, mat in zip(alg.words, alg.basis):
        check = np.eye(2)
        for name in word:
            check = check @ gens[name]
        assert np.allclose(check, mat)


def test_gram_matrix_field():
    alg = algebra_closure({"n": np.array([[0.0, 1.0], [0.0, 0.0]])})
    assert isinstance(alg, MatrixAlgebra)
    assert np.allclose(alg.gram, np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_gram_product_matches_pairwise_traces():
    rng = np.random.default_rng(7)
    for q, k in ((1, 1), (2, 1), (3, 2), (4, 3), (5, 2)):
        gens = {f"m{i}": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
                for i in range(k)}
        alg = algebra_closure(gens)
        loop = np.array([[np.trace(a @ b) for b in alg.basis] for a in alg.basis])
        assert alg.gram.shape == loop.shape
        assert np.max(np.abs(alg.gram - loop)) <= 1e-12 * np.max(np.abs(loop))


# -- is_11_nonvanishing -----------------------------------------------------------


def test_nonvanishing_diagonal():
    assert is_11_nonvanishing(algebra_closure({"d": np.diag([1.0, 2.0])}))


def test_nonvanishing_full_matrix_algebra():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert is_11_nonvanishing(algebra_closure({"a": e12, "b": e12.T}))


def test_vanishing_nilpotent_with_radical_witness():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = is_11_nonvanishing(algebra_closure({"n": n}))
    assert not report
    assert report.rank == 1 and report.dim == 2
    assert len(report.radical) == 1
    k = report.radical[0]
    # radical is the line through the generator
    assert np.linalg.norm(k - (k[0, 1] / 1.0) * n) < 1e-9


def test_radical_is_trace_orthogonal_to_algebra():
    rng = np.random.default_rng(11)
    n = np.zeros((3, 3))
    n[0, 1] = 1.0
    n[1, 2] = 1.0
    alg = algebra_closure({"n": n})
    report = is_11_nonvanishing(alg)
    assert not report
    for k in report.radical:
        for x in alg.basis:
            assert abs(np.trace(k @ x)) < 1e-7
    del rng


def test_nonvanishing_invariant_under_conjugation():
    rng = np.random.default_rng(13)
    nilp = {"n": np.array([[0.0, 1.0], [0.0, 0.0]])}
    nice = {"d": np.diag([1.0, 2.0]), "e": rng.normal(size=(2, 2))}
    for gens, expected in ((nilp, False), (nice, True)):
        s = random_well_conditioned(rng, 2)
        before = bool(is_11_nonvanishing(algebra_closure(gens)))
        after = bool(is_11_nonvanishing(algebra_closure(conjugate_set(gens, s))))
        assert before == after == expected


# -- trace_words_equal -------------------------------------------------------------


def test_traces_equal_for_identical_sets():
    rng = np.random.default_rng(17)
    fs = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
    report = trace_words_equal(fs, fs)
    assert report.verdict == "equal"
    assert report.words_checked > 0


def test_jordan_block_matches_diagonal_in_all_traces():
    lam = 1.7
    jordan = np.array([[lam, 1.0], [0.0, lam]])
    diag = np.diag([lam, lam])
    report = trace_words_equal({"a": jordan}, {"a": diag})
    assert report.verdict == "equal"


def test_trace_mismatch_at_length_one():
    report = trace_words_equal({"a": np.diag([1.0, 2.0])}, {"a": np.diag([1.0, 3.0])})
    assert report.verdict == "mismatch"
    assert report.witness_word == ("a",)
    assert report.trace_f == pytest.approx(3.0)
    assert report.trace_g == pytest.approx(4.0)


def test_first_mismatch_in_enumeration_order():
    same = np.diag([1.0, -1.0])
    fs = {"a": same, "b": np.diag([2.0, 5.0])}
    gs = {"a": same, "b": np.diag([2.0, 6.0])}
    report = trace_words_equal(fs, gs)
    assert report.witness_word == ("b",)


def test_conjugated_set_has_equal_traces():
    rng = np.random.default_rng(23)
    fs = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=(4, 4))}
    s = random_well_conditioned(rng, 4)
    report = trace_words_equal(fs, conjugate_set(fs, s), tol=1e-7)
    assert report.verdict == "equal"


@st.composite
def word_sweep_pairs(draw):
    """Pairs small enough for a sweep to length 2 q^2 - 1 to be complete.

    The second set is the first, with one eigenvalue of its first
    generator shifted or its last generator transposed, or unchanged,
    conjugated by a well-conditioned S.
    """
    q, k = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]))
    kind = draw(st.sampled_from(["similar", "shifted", "transposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = {f"m{i}": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)) for i in range(k)}
    moved = dict(fs)
    if kind == "shifted":
        vals, vecs = np.linalg.eig(fs["m0"])
        vals[int(rng.integers(0, q))] += 0.3 + 0.7 * rng.random()
        moved["m0"] = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
    elif kind == "transposed":
        moved[f"m{k - 1}"] = fs[f"m{k - 1}"].T
    return fs, conjugate_set(moved, random_well_conditioned(rng, q))


def word_trace(mats, word):
    m = np.eye(next(iter(mats.values())).shape[0])
    for name in word:
        m = m @ mats[name]
    return complex(np.trace(m))


@settings(max_examples=60, deadline=None)
@given(pair=word_sweep_pairs())
def test_trace_words_agree_with_the_complete_sweep(pair):
    fs, gs = pair
    q = fs["m0"].shape[0]
    report = trace_words_equal(fs, gs)
    want = oracle_trace_words(fs, gs, max_len=2 * q * q - 1)
    assert report.verdict == ("equal" if want is None else "mismatch")
    if want is not None:
        # as short as the sweep's first mismatch, and a mismatch when recomputed
        assert len(report.witness_word) == len(want[0])
        tf, tg = word_trace(fs, report.witness_word), word_trace(gs, report.witness_word)
        assert abs(tf - tg) > 1e-8 * (1 + max(abs(tf), abs(tg)))
        assert report.trace_f == pytest.approx(tf, rel=1e-9)
        assert report.trace_g == pytest.approx(tg, rel=1e-9)


# -- the word closure -----------------------------------------------------------------


def word_by_word_closure(sides, q):
    """simsim._word_closure as it was before its block test at q^2 words:
    one candidate at a time, one product per generator."""
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


@st.composite
def closure_cases(draw):
    """(kind, sides, q): a matrix set and its conjugate; two unrelated sets,
    whose pair algebra passes q^2 words; nilpotent or block-triangular
    sets beside a conjugate; or a set beside itself whose products past
    its q^2 words overflow to inf."""
    kind = draw(st.sampled_from(["similar", "unrelated", "nilpotent", "reducible", "overflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(2, 4 if kind == "unrelated" else 6))
    k = draw(st.integers(2 if kind in ("unrelated", "overflow") else 1, 3))

    def gaussian():
        return rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))

    fs = {f"m{i}": gaussian() for i in range(k)}
    if kind == "unrelated":
        return kind, [fs, {name: gaussian() for name in fs}], q
    if kind == "overflow":
        # scaled so that the words up to the q^2-th have norms near 1e148
        # and their products with a generator have norms whose squares
        # overflow to inf
        *_, (last, _) = word_by_word_closure([fs], q)
        big = {name: m * 10.0 ** (148 / len(last)) for name, m in fs.items()}
        return kind, [big, big], q
    if kind == "nilpotent":
        fs = {name: np.triu(m, 1) for name, m in fs.items()}
    elif kind == "reducible":
        p = draw(st.integers(1, q - 1))
        for m in fs.values():
            m[p:, :p] = 0
    return kind, [fs, conjugate_set(fs, random_well_conditioned(rng, q))], q


@settings(max_examples=120, deadline=None)
@given(case=closure_cases())
def test_word_closure_is_the_word_by_word_closure(case):
    kind, sides, q = case
    if kind == "overflow":
        # q^2 words are finite, and the block test past them meets an inf
        # product: it must hand it to the word-by-word closure, which raises
        for closure in (word_by_word_closure, simsim._word_closure):
            with pytest.raises(ArithmeticError, match="vector norm .* is not finite"):
                list(closure(sides, q))
        return
    want = list(word_by_word_closure(sides, q))
    got = list(simsim._word_closure(sides, q))
    assert [word for word, _ in got] == [word for word, _ in want]
    assert all(g.tobytes() == w.tobytes() for (_, g), (_, w) in zip(got, want))
    if kind == "unrelated":
        assert len(got) > q * q  # the block test found an independent product


def test_an_overflow_past_q_squared_words_is_refused():
    # I, a, b and ab span all 2 x 2 matrices; b b is 1e200 * I, whose
    # norm squared overflows to inf.  The block test past those four words
    # must not call it dependent, or the closure would end without
    # refusing it
    a = np.diag([1.0, 2.0]).astype(complex)
    b = 1e100 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sides = [{"a": a, "b": b}] * 2
    closure = simsim._word_closure(sides, 2)
    assert [word for word, _ in itertools.islice(closure, 4)] == [(), ("a",), ("b",), ("a", "b")]
    with pytest.raises(ArithmeticError, match="vector norm inf is not finite"):
        next(closure)


def test_a_certified_pair_proves_its_closure_in_one_block(monkeypatch):
    # q = 6, k = 3: the identity and 35 candidates reach q^2 = 36 words,
    # and one block shows that the 73 products left add none; word by
    # word, those were 73 more adds, 109 in all
    rng = np.random.default_rng(6)
    fs = {f"m{i}": rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for i in range(3)}
    gs = conjugate_set(fs, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    adds, blocks = [], []
    add, all_dependent = IncrementalBasis.add, IncrementalBasis.all_dependent
    monkeypatch.setattr(IncrementalBasis, "add", lambda self, v: adds.append(1) or add(self, v))
    monkeypatch.setattr(IncrementalBasis, "all_dependent",
                        lambda self, block: blocks.append(len(block)) or all_dependent(self, block))
    result = recover_transform(fs, gs)
    assert result.similar and result.residual <= 1e-12
    assert (len(adds), blocks) == (36, [73])
    adds.clear()
    monkeypatch.setattr(simsim, "_word_closure", word_by_word_closure)
    assert recover_transform(fs, gs).transform.matrix.tobytes() == result.transform.matrix.tobytes()
    assert len(adds) == 109


# -- build_paired_algebra -----------------------------------------------------------


def test_paired_algebra_of_identical_sets():
    rng = np.random.default_rng(29)
    fs = {"a": rng.normal(size=(3, 3))}
    paired = build_paired_algebra(fs, fs)
    assert paired.failure is None
    for mf, mg in zip(paired.f_images, paired.g_images):
        assert np.array_equal(mf, mg)


def test_paired_algebra_detects_collapsed_second_side():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    paired = build_paired_algebra({"a": jordan}, {"a": np.zeros((2, 2))})
    assert paired.failure is not None
    assert paired.failure["kind"] == "not_covanishing"
    assert paired.failure["direction"] == "second"
    assert paired.failure["word"] == ("a",)
    assert paired.failure["dims"] == [2, 2, 1]


def test_paired_algebra_detects_escaping_extension():
    paired = build_paired_algebra(
        {"a": np.zeros((2, 2))}, {"a": np.array([[0.0, 1.0], [0.0, 0.0]])}
    )
    assert paired.failure is not None
    assert paired.failure["kind"] == "not_covanishing"
    assert paired.failure["direction"] == "first"
    assert paired.failure["dims"] == [2, 1, 2]
    # the generator's image is 0 on the first side, but not on the second
    assert paired.failure["words"] == [()]
    assert paired.failure["residual"] == pytest.approx(1.0)


# -- recover_transform ---------------------------------------------------------------


def assert_conjugates(result, fs, gs, tol=1e-6):
    assert result.verdict == "similar"
    t = result.transform.matrix
    t_inv = np.linalg.inv(t)
    for k in fs:
        resid = np.linalg.norm(t @ fs[k] @ t_inv - gs[k])
        assert resid <= tol * (1 + np.linalg.norm(gs[k])), k


def test_recover_identity_case():
    rng = np.random.default_rng(31)
    fs = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
    result = recover_transform(fs, fs)
    assert_conjugates(result, fs, fs)
    assert result.residual <= 1e-6


def test_recover_round_trip_generic_pair():
    rng = np.random.default_rng(37)
    for q in (2, 3, 4):
        fs = {
            "a": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)),
            "b": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)),
        }
        s = random_well_conditioned(rng, q)
        gs = conjugate_set(fs, s)
        result = recover_transform(fs, gs)
        assert_conjugates(result, fs, gs)


def test_similar_pair_of_benchmark_seed_36_is_certified():
    # the 23rd similar pair that the simsim-recovery benchmark builds at
    # seed 36 (its query 43): q = 4, k = 2, a conjugator of cond 138.  The
    # rank cut on the G-images of F's word basis once called it
    # not_covanishing; the trace Grams of both sides are equal and full.
    rng = np.random.default_rng(36)
    for i in range(23):
        q, k = 2 + i % 5, 1 + (i // 5) % 3
        while True:
            fs = {f"m{j}": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
                  for j in range(k)}
            if is_11_nonvanishing(algebra_closure(fs)):
                break
        while True:
            s = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            if np.linalg.cond(s) <= 1e3:
                break
    assert (q, k) == (4, 2)
    gs = conjugate_set(fs, s)
    result = recover_transform(fs, gs)
    assert result.verdict == "similar"
    assert result.residual <= 1e-6


def test_recover_round_trip_commuting_diagonalizable():
    rng = np.random.default_rng(41)
    q = 5
    fs = {
        "a": np.diag(rng.normal(size=q)).astype(complex),
        "b": np.diag(rng.normal(size=q)).astype(complex),
    }
    s = random_well_conditioned(rng, q)
    gs = conjugate_set(fs, s)
    result = recover_transform(fs, gs)
    assert_conjugates(result, fs, gs)


def test_recover_repeated_eigenvalues_single_matrix():
    rng = np.random.default_rng(43)
    d = np.diag([2.0, 2.0, 3.0, 3.0, 3.0]).astype(complex)
    s = random_well_conditioned(rng, 5)
    fs = {"a": d}
    gs = conjugate_set(fs, s)
    result = recover_transform(fs, gs)
    assert_conjugates(result, fs, gs)


def test_recover_block_structure_with_couplings():
    # two scalar blocks of the first generator joined by off-diagonal
    # couplings in the second: the intertwiner must mix the blocks
    rng = np.random.default_rng(47)
    a = np.diag([1.0, 1.0, 4.0, 4.0]).astype(complex)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    fs = {"a": a, "b": b}
    s = random_well_conditioned(rng, 4)
    gs = conjugate_set(fs, s)
    result = recover_transform(fs, gs)
    assert_conjugates(result, fs, gs)


def test_recover_vanishing_jordan_vs_diagonal():
    lam = 0.6
    jordan = np.array([[lam, 1.0], [0.0, lam]])
    result = recover_transform({"a": jordan}, {"a": np.diag([lam, lam])})
    assert result.verdict == "vanishing"
    assert result.witness["side"] == "first"
    radical = np.array(result.witness["radical_element"])
    # the radical line is spanned by J - lam I
    direction = jordan - lam * np.eye(2)
    coeff = radical[0, 1]
    assert np.linalg.norm(radical - coeff * direction) < 1e-8


def test_recovery_stages_convert_equal_sets(monkeypatch):
    # an uncertified pair passes through trace_words_equal and
    # build_paired_algebra; each converts and checks again the sets that
    # recover_transform hands it, to the same matrices, and
    # trace_words_equal rescales copies, not the sets
    converted = []
    normalize = simsim._normalize_sets

    def recording(fs, gs):
        out = normalize(fs, gs)
        converted.append([m.tobytes() for m in (*out[2].values(), *out[3].values())])
        return out

    monkeypatch.setattr(simsim, "_normalize_sets", recording)
    jordan = {"a": np.array([[0.6, 1.0], [0.0, 0.6]]), "b": 5 * np.eye(2)}
    diagonal = {"a": np.diag([0.6, 0.6]), "b": 5 * np.eye(2)}
    assert recover_transform(jordan, diagonal).verdict == "vanishing"
    assert len(converted) == 3 and converted[1] == converted[0] == converted[2]
    q, names, f_mats, g_mats = normalize(jordan, diagonal)
    before = [m.tobytes() for m in (*f_mats.values(), *g_mats.values())]
    assert trace_words_equal(f_mats, g_mats).verdict == "equal"
    assert [m.tobytes() for m in (*f_mats.values(), *g_mats.values())] == before
    assert type(build_paired_algebra(f_mats, g_mats).f_generators) is dict


def test_recover_trace_mismatch():
    result = recover_transform({"a": np.diag([1.0, 2.0])}, {"a": np.diag([1.0, 3.0])})
    assert result.verdict == "trace_mismatch"
    assert result.witness["word"] == ["a"]


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: algebra_closure({"a": MixedTensor(2, 2, 1, np.zeros(8))}),
         "need a (1,1) signature, got shape (2, 1)"),
        (lambda: algebra_closure({"a": np.zeros((2, 3))}), "matrices must be square"),
        (lambda: algebra_closure({"a": np.eye(2), "b": np.eye(3)}), "matrices must share one domain size"),
        (lambda: trace_words_equal({"a": np.eye(2)}, {"b": np.eye(2)}),
         "the two sets must use the same signature ids"),
        (lambda: recover_transform({}, {}), "need at least one matrix to fix the domain size"),
        (lambda: algebra_closure({}), "empty generator set needs an explicit domain size"),
        (lambda: algebra_closure({"a": np.zeros((0, 0))}), "domain size must be positive, got 0"),
        (lambda: algebra_closure({}, q=0), "domain size must be positive, got 0"),
        (lambda: trace_words_equal({"a": np.zeros((0, 0))}, {"a": np.zeros((0, 0))}),
         "domain size must be positive, got 0"),
        (lambda: build_paired_algebra({"a": np.zeros((0, 0))}, {"a": np.zeros((0, 0))}),
         "domain size must be positive, got 0"),
        (lambda: recover_transform({"a": np.zeros((0, 0))}, {"a": np.zeros((0, 0))}),
         "domain size must be positive, got 0"),
    ],
    ids=["shape-2-1", "non-square", "two-sizes", "different-ids", "empty-sets", "empty-closure",
         "closure-size-0", "closure-q-0", "traces-size-0", "paired-size-0", "recover-size-0"],
)
def test_matrix_set_refusals(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_a_non_finite_entry_is_named_by_side_and_id(monkeypatch, bad):
    # no closure runs (every one goes through _word_closure): the refusal
    # comes from the inputs, not from a vector norm inside a closure
    monkeypatch.setattr(simsim, "_word_closure", None)
    good = {"k": np.eye(2), "m": np.array([[1.0, 2.0], [3.0, 4.0]])}
    broken = {"k": np.eye(2), "m": np.array([[bad, 2.0], [3.0, 4.0]])}
    for fs, gs, side in ((good, broken, "g"), (broken, good, "f")):
        for check in (recover_transform, trace_words_equal, build_paired_algebra):
            with pytest.raises(ValueError, match=rf"^{side}\['m'\] has a non-finite entry$"):
                check(fs, gs)


def test_recover_success_flag_invariant_under_conjugation():
    rng = np.random.default_rng(53)
    fs = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
    s0 = random_well_conditioned(rng, 3)
    gs = conjugate_set(fs, s0)
    s1 = random_well_conditioned(rng, 3)
    direct = recover_transform(fs, gs)
    moved = recover_transform(conjugate_set(fs, s1), gs)
    assert direct.verdict == moved.verdict == "similar"

    jordan = {"a": np.array([[0.0, 1.0], [0.0, 0.0]])}
    diag = {"a": np.zeros((2, 2))}
    s2 = random_well_conditioned(rng, 2)
    assert recover_transform(jordan, diag).verdict == "vanishing"
    assert recover_transform(conjugate_set(jordan, s2), diag).verdict == "vanishing"


def test_recover_singleton_specialization():
    # singleton sets succeed exactly when both are diagonalizable with
    # the same eigenvalue multiset
    rng = np.random.default_rng(59)
    q = 4
    vals = rng.normal(size=q)
    s1 = random_well_conditioned(rng, q)
    s2 = random_well_conditioned(rng, q)
    a = s1 @ np.diag(vals) @ np.linalg.inv(s1)
    b = s2 @ np.diag(vals) @ np.linalg.inv(s2)
    result = recover_transform({"m": a}, {"m": b})
    assert_conjugates(result, {"m": a}, {"m": b})
    eig_a = np.sort_complex(np.linalg.eigvals(a))
    eig_b = np.sort_complex(np.linalg.eigvals(b))
    assert np.allclose(eig_a, eig_b, atol=1e-8)


def test_recover_is_deterministic():
    rng = np.random.default_rng(61)
    fs = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
    s = random_well_conditioned(rng, 3)
    gs = conjugate_set(fs, s)
    t1 = recover_transform(fs, gs).transform.matrix
    t2 = recover_transform(fs, gs).transform.matrix
    assert np.array_equal(t1, t2)


def test_recover_larger_domains():
    rng = np.random.default_rng(67)
    for q in (5, 6):
        fs = {
            "a": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)),
            "b": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)),
            "c": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)),
        }
        s = random_well_conditioned(rng, q)
        gs = conjugate_set(fs, s)
        result = recover_transform(fs, gs)
        assert_conjugates(result, fs, gs)


# -- the sweep-first chain, kept as an oracle ---------------------------------------


def sweep_first_recovery(fs, gs, tol=1e-6, seed=0):
    """The recovery chain with the trace words first, kept as an oracle.

    The trace words, both nonvanishing tests, the paired algebra and the
    intertwiner run in that order and the first failure is the verdict.
    """
    q, names, f_mats, g_mats = simsim._normalize_sets(fs, gs)
    trace_report = trace_words_equal(f_mats, g_mats)
    if trace_report.verdict == "mismatch":
        return RecoveryResult("trace_mismatch", q, None, {
            "word": list(trace_report.witness_word),
            "trace_f": trace_report.trace_f,
            "trace_g": trace_report.trace_g,
        }, None)
    for side, mats in (("first", f_mats), ("second", g_mats)):
        report = is_11_nonvanishing(algebra_closure(mats))
        if not report:
            return RecoveryResult("vanishing", q, None, {
                "side": side,
                "radical_element": report.radical[0].tolist(),
                "gram_rank": report.rank,
                "algebra_dim": report.dim,
            }, None)
    paired = build_paired_algebra(f_mats, g_mats)
    if paired.failure is not None:
        kind = paired.failure.pop("kind")
        return RecoveryResult(kind, q, None, paired.failure, None)
    eye = np.eye(q)
    stack = np.concatenate(
        [np.kron(eye, f_mats[name].T) - np.kron(g_mats[name], eye) for name in names]
    )
    _, sing, vh = np.linalg.svd(stack)
    thresh = RANK_TOL * max(float(sing[0]), 1.0)
    dim = max(int(np.sum(sing <= thresh)), 1)
    cut = {
        "intertwiner_dim": dim,
        "cut_margin": [
            float(sing[-dim]) / thresh,
            float(sing[-dim - 1]) / thresh if dim < sing.size else None,
        ],
    }
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    t = (c @ vh[-dim:].conj()).reshape(q, q)
    t = t / t.flat[np.argmax(np.abs(t))]
    try:
        t_inv = np.linalg.inv(t)
    except np.linalg.LinAlgError:
        return RecoveryResult("verification_failed", q, None,
                              {"reason": "intertwiner is singular", **cut}, None)
    worst, worst_name = 0.0, None
    for name in names:
        resid = np.linalg.norm(t @ f_mats[name] @ t_inv - g_mats[name]) / (
            1 + np.linalg.norm(g_mats[name])
        )
        if resid > worst:
            worst, worst_name = resid, name
    if worst > tol:
        return RecoveryResult("verification_failed", q, None, {
            "reason": "final conjugation residual above tolerance",
            "pair": worst_name,
            "residual": float(worst),
            **cut,
        }, float(worst))
    return RecoveryResult("similar", q, HoloTransform(q, t), None, float(worst))


def recovered_as_sweep_first(fs, gs, **kwargs):
    """recover_transform's result, checked equal to the sweep-first chain's."""
    want = sweep_first_recovery(fs, gs, **kwargs)
    got = recover_transform(fs, gs, **kwargs)
    assert got.verdict == want.verdict
    # repr compares floats exactly and treats nan like any other value
    assert repr(got.witness) == repr(want.witness)
    assert repr(got.residual) == repr(want.residual)
    if want.transform is None:
        assert got.transform is None
    else:
        assert np.array_equal(got.transform.matrix, want.transform.matrix)
    return got


# -- recover_transform properties ------------------------------------------------------


def random_nonvanishing_set(rng, q, k):
    while True:
        fs = {
            f"m{i}": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            for i in range(k)
        }
        if is_11_nonvanishing(algebra_closure(fs)):
            return fs


sizes = st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(case=sizes)
def test_property_conjugated_sets_are_recovered(case):
    q, k, seed = case
    rng = np.random.default_rng(seed)
    fs = random_nonvanishing_set(rng, q, k)
    gs = conjugate_set(fs, random_well_conditioned(rng, q))
    result = recovered_as_sweep_first(fs, gs)
    assert result.residual <= 1e-6
    assert_conjugates(result, fs, gs)


@settings(max_examples=25, deadline=None)
@given(case=sizes)
def test_property_shifted_eigenvalue_is_never_similar(case):
    q, k, seed = case
    rng = np.random.default_rng(seed)
    fs = random_nonvanishing_set(rng, q, k)
    vals, vecs = np.linalg.eig(fs["m0"])
    vals[int(rng.integers(0, q))] += 0.3 + 0.7 * rng.random()
    shifted = dict(fs, m0=vecs @ np.diag(vals) @ np.linalg.inv(vecs))
    gs = conjugate_set(shifted, random_well_conditioned(rng, q))
    assert recovered_as_sweep_first(fs, gs).verdict != "similar"


small_entries = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5j])


@st.composite
def small_pairs(draw):
    q = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    square = st.lists(small_entries, min_size=q * q, max_size=q * q)
    fs = {f"m{i}": np.reshape(draw(square), (q, q)) for i in range(k)}
    if draw(st.booleans()):
        s = np.eye(q) + np.triu(np.reshape(draw(square), (q, q)), 1)
        return fs, conjugate_set(fs, s)
    return fs, {name: np.reshape(draw(square), (q, q)) for name in fs}


@settings(max_examples=100, deadline=None)
@given(pair=small_pairs())
def test_property_recover_never_raises(pair):
    fs, gs = pair
    result = recovered_as_sweep_first(fs, gs)
    assert result.verdict in {
        "similar", "vanishing", "not_covanishing", "trace_mismatch", "verification_failed"
    }
    if result.similar:
        assert_conjugates(result, fs, gs)


def test_failed_verification_reports_the_cut(monkeypatch):
    rng = np.random.default_rng(71)
    fs = random_nonvanishing_set(rng, 3, 2)
    gs = conjugate_set(fs, random_well_conditioned(rng, 3))
    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(trace_words_equal(*args, **kwargs))
        return sweeps[-1]

    # a failed certificate is explained by the trace words, which match
    monkeypatch.setattr(simsim, "trace_words_equal", counting)
    result = recover_transform(fs, gs, tol=0)
    assert [r.verdict for r in sweeps] == ["equal"]
    assert result.verdict == "verification_failed"
    assert result.witness["intertwiner_dim"] >= 1
    kept, dropped = result.witness["cut_margin"]
    assert kept <= 1 < dropped


def test_singular_intertwiner_is_a_flagged_miss(monkeypatch):
    rng = np.random.default_rng(73)
    fs = random_nonvanishing_set(rng, 2, 1)
    gs = conjugate_set(fs, random_well_conditioned(rng, 2))

    def singular(m):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    result = recover_transform(fs, gs)
    assert result.verdict == "verification_failed"
    assert result.witness["intertwiner_dim"] >= 1
    assert len(result.witness["cut_margin"]) == 2


def test_certified_pair_skips_the_sweep(monkeypatch):
    rng = np.random.default_rng(79)
    fs = random_nonvanishing_set(rng, 3, 2)
    gs = conjugate_set(fs, random_well_conditioned(rng, 3))

    def forbidden(*args, **kwargs):
        raise AssertionError("trace_words_equal called on a certified pair")

    monkeypatch.setattr(simsim, "trace_words_equal", forbidden)
    assert_conjugates(recover_transform(fs, gs), fs, gs)


def test_explained_similar_pair_matches_the_certified_one(monkeypatch):
    # _explain ends in the intertwiner when the certificate turns down a
    # pair whose traces agree and whose sides are nonvanishing; it solves
    # the same stack by the same thin SVD, so it gives the certified
    # route's transform bit for bit.  k = 1 stacks are square, k >= 2 tall
    rng = np.random.default_rng(83)
    intertwine = simsim._intertwine
    solved = []

    def recording(*args):
        solved.append(intertwine(*args))
        return solved[-1]

    monkeypatch.setattr(simsim, "_intertwine", recording)
    for q, k in ((2, 1), (3, 2), (4, 3)):
        fs = random_nonvanishing_set(rng, q, k)
        gs = conjugate_set(fs, random_well_conditioned(rng, q))
        solved.clear()
        certified = recover_transform(fs, gs, seed=5)
        with monkeypatch.context() as m:
            m.setattr(simsim, "_certify", lambda *args: None)
            explained = recover_transform(fs, gs, seed=5)
        # each route solved once, and returned what it solved
        assert len(solved) == 2 and solved[0] is certified and solved[1] is explained
        assert explained.verdict == certified.verdict == "similar"
        assert explained.transform.matrix.tobytes() == certified.transform.matrix.tobytes()
        assert repr(explained.residual) == repr(certified.residual)


def test_a_refused_correspondence_is_not_covanishing(monkeypatch):
    # the paired algebra's rank decisions (its images' independence) can
    # refuse a pair whose trace Grams and side checks pass; recover_transform
    # then answers not_covanishing with the paired algebra's witness.
    # Forced here: the certificate's Grams read degenerate and the first
    # side's last basis word reads dependent on the words before it
    rng = np.random.default_rng(89)
    fs = random_nonvanishing_set(rng, 3, 2)
    gs = conjugate_set(fs, random_well_conditioned(rng, 3))
    words = build_paired_algebra(fs, gs).words
    n = len(words)
    image_rank = simsim._image_rank
    sides = []

    def first_side_collapses(images):
        sides.append(len(images))
        return (n - 1, n - 1) if len(sides) == 1 else image_rank(images)

    monkeypatch.setattr(simsim, "_nondegenerate", lambda *args: False)
    monkeypatch.setattr(simsim, "_image_rank", first_side_collapses)
    result = recover_transform(fs, gs)
    assert sides == [n, n]
    assert (result.verdict, result.transform, result.residual) == ("not_covanishing", None, None)
    witness = result.witness
    assert set(witness) == {"direction", "word", "words", "coefficients", "residual", "dims"}
    assert witness["direction"] == "first"
    assert (witness["word"], witness["words"]) == (words[-1], words[:-1])
    assert len(witness["coefficients"]) == n - 1
    assert witness["dims"] == [n, n - 1, n]
    assert np.isfinite(witness["residual"])
