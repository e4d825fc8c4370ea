"""Acceptance gate: one test per headline capability.

Each test is a single pass/fail criterion at its stated tolerance;
`pytest -v` prints one line per criterion.
"""

import itertools

import numpy as np
import pytest

from holant.grids import SignatureGrid, holant_polynomial
from holant.homgraphs import (
    SimpleGraph,
    bounded_degree_distinguisher,
    complete_graph,
    cycle_graph,
    hom_count,
)
from holant.simsim import algebra_closure, is_11_nonvanishing, recover_transform, trace_words_equal
from holant.spans import check_covanishing, check_indistinguishable, gram_nondegenerate
from holant.tensors import MixedTensor, SymBoolSignature, disequality_signature
from holant.transforms import (
    HoloTransform,
    epsilon_family_counterexample,
    epsilon_family_jordan,
    is_orthogonal_preserver,
    is_permutation_preserver,
    verify_holant_theorem,
)
from oracles import brute_hom_count


def random_set(rng, q, max_sigs=3, max_arity=3):
    k = int(rng.integers(1, max_sigs + 1))
    out = {}
    for i in range(k):
        arity = int(rng.integers(0, max_arity + 1))
        left = int(rng.integers(0, arity + 1))
        size = q**arity
        out[f"s{i}"] = MixedTensor(
            q, left, arity - left, rng.normal(size=size) + 1j * rng.normal(size=size)
        )
    return out


def random_transform(rng, q, cond_cap=100.0):
    while True:
        m = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        if np.linalg.cond(m) <= cond_cap:
            return HoloTransform(q, m)


def counterexample_pair():
    neq = disequality_signature(2, 2, 0)
    fs = {"neq": neq, "f": SymBoolSignature((1.0, 1.0, 1.0, 0, 0), 0, 4).to_tensor()}
    gs = {"neq": neq, "f": SymBoolSignature((0.0, 0.0, 1.0, 0, 0), 0, 4).to_tensor()}
    return fs, gs


def test_criterion_01_holographic_invariance():
    # 50 random sets, q in {2,3}, up to 3 signatures of arity <= 3; all
    # closed grids with <= 5 vertices agree within 1e-8 relative
    rng = np.random.default_rng(101)
    for _ in range(50):
        q = int(rng.choice([2, 3]))
        fs = random_set(rng, q)
        t = random_transform(rng, q)
        report = verify_holant_theorem(fs, t, max_vertices=5, tol=1e-8)
        assert report.passed, report.max_scaled_error


def test_criterion_02_polynomial_expansion_exact():
    grid = SignatureGrid(2, ("x", "y", "y"), ((1, 1, 0, 1), (2, 1, 0, 2)))
    poly = holant_polynomial(grid, {"x": (0, 2), "y": (1, 0)})
    assert poly.monomials == {
        (("x", (0, 0)), ("y", (0,)), ("y", (0,))): 1 + 0j,
        (("x", (0, 1)), ("y", (0,)), ("y", (1,))): 1 + 0j,
        (("x", (1, 0)), ("y", (0,)), ("y", (1,))): 1 + 0j,
        (("x", (1, 1)), ("y", (1,)), ("y", (1,))): 1 + 0j,
    }


def test_criterion_03_counterexample_pair_indistinguishable_bound_6():
    fs, gs = counterexample_pair()
    report = check_indistinguishable(fs, gs, {"neq": "neq", "f": "f"}, max_vertices=6)
    assert report.verdict == "indistinguishable_at_bound"
    assert report.max_difference == 0.0


def test_criterion_04_vanishing_witness_weight_support():
    fs, _ = counterexample_pair()
    report = gram_nondegenerate(fs, (0, 4), 6)
    assert report.verdict == "vanishing_witness"
    entries = report.witness_signature.array
    assert report.witness_signature.norm() > 1e-9
    for idx in np.ndindex(entries.shape):
        if sum(idx) >= 2:
            assert abs(entries[idx]) < 1e-9


def test_criterion_05_epsilon_family_decay():
    dists = [
        epsilon_family_counterexample(0.0, 1.0, eps).distance
        for eps in (1e-1, 1e-2, 1e-3)
    ]
    assert dists[0] / dists[1] >= 99.0
    assert dists[1] / dists[2] >= 99.0
    nil = MixedTensor(2, 1, 1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.warns(Warning):
        _, limit = epsilon_family_jordan(nil, 1e-3)
    assert limit.norm() <= 1e-3


def test_criterion_06_similarity_round_trips():
    rng = np.random.default_rng(106)
    failures = []
    for q in (2, 3, 4, 5, 6):
        for trial in range(100):
            k = int(rng.integers(1, 4))
            while True:
                fs = {
                    f"m{i}": rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
                    for i in range(k)
                }
                if is_11_nonvanishing(algebra_closure(fs)):
                    break
            while True:
                s = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
                if np.linalg.cond(s) <= 1e3:
                    break
            s_inv = np.linalg.inv(s)
            gs = {name: s @ m @ s_inv for name, m in fs.items()}
            result = recover_transform(fs, gs)
            if not (result.similar and result.residual <= 1e-6):
                # misses must be flagged, never silently wrong
                assert result.verdict == "verification_failed", result.verdict
                failures.append((q, trial))
    assert len(failures) <= 5, failures  # >= 99% of 500


def test_criterion_07_similarity_negative_controls():
    lam = 0.8
    jordan = np.array([[lam, 1.0], [0.0, lam]])
    vanish = recover_transform({"a": jordan}, {"a": np.diag([lam, lam])})
    assert vanish.verdict == "vanishing"
    radical = np.array(vanish.witness["radical_element"])
    assert np.linalg.norm(radical) > 1e-9
    direction = jordan - lam * np.eye(2)
    assert np.linalg.norm(radical - radical[0, 1] * direction) < 1e-8

    mismatch = recover_transform({"a": np.diag([1.0, 2.0])}, {"a": np.diag([1.0, 3.0])})
    assert mismatch.verdict == "trace_mismatch"
    assert len(mismatch.witness["word"]) == 1


def test_criterion_08_trace_words_detect_spectra():
    rng = np.random.default_rng(108)
    for _ in range(50):
        q = int(rng.integers(2, 6))
        vals = rng.normal(size=q) + 1j * rng.normal(size=q)
        s1 = random_transform(rng, q).matrix
        s2 = random_transform(rng, q).matrix
        a = s1 @ np.diag(vals) @ np.linalg.inv(s1)
        b = s2 @ np.diag(vals) @ np.linalg.inv(s2)
        report = trace_words_equal({"m": a}, {"m": b}, tol=1e-7)
        assert report.verdict == "equal"
    for _ in range(50):
        q = int(rng.integers(2, 6))
        vals = rng.normal(size=q) + 1j * rng.normal(size=q)
        shifted = vals.copy()
        shifted[int(rng.integers(0, q))] += 0.3 + 0.7 * rng.random()
        s1 = random_transform(rng, q).matrix
        s2 = random_transform(rng, q).matrix
        a = s1 @ np.diag(vals) @ np.linalg.inv(s1)
        b = s2 @ np.diag(shifted) @ np.linalg.inv(s2)
        report = trace_words_equal({"m": a}, {"m": b}, tol=1e-7)
        assert report.verdict == "mismatch"
        assert len(report.witness_word) <= q


def test_criterion_09_hom_agreement_corpus():
    rng = np.random.default_rng(109)
    for _ in range(500):
        nx = int(rng.integers(1, 7))
        ng = int(rng.integers(1, 7))
        x = SimpleGraph(
            nx,
            tuple(
                (u, v)
                for u, v in itertools.combinations(range(nx), 2)
                if rng.random() < 0.5
            ),
        )
        g = SimpleGraph(
            ng,
            tuple(
                (u, v)
                for u, v in itertools.combinations(range(ng), 2)
                if rng.random() < 0.5
            ),
        )
        assert hom_count(x, g) == brute_hom_count(x, g)
    k3 = complete_graph(3)
    assert hom_count(k3, k3) == 6
    assert hom_count(cycle_graph(4), complete_graph(2)) == 2


def test_criterion_10_bounded_degree_experiments():
    quick = bounded_degree_distinguisher(complete_graph(4), cycle_graph(4), 3, 3)
    assert quick.verdict == "distinguished"
    assert quick.distinguisher.n <= 3
    assert quick.distinguisher.max_degree() <= 3

    # cospectral, nonsingular, non-isomorphic (exhaustive 6-vertex search)
    f = SimpleGraph(6, ((0, 5), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)))
    g = SimpleGraph(6, ((0, 3), (1, 2), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
    af, ag = f.adjacency(), g.adjacency()
    assert np.allclose(np.sort(np.linalg.eigvalsh(af)), np.sort(np.linalg.eigvalsh(ag)), atol=1e-9)
    assert round(float(np.linalg.det(af))) != 0 and round(float(np.linalg.det(ag))) != 0
    found = bounded_degree_distinguisher(f, g, 3, 7)
    assert found.verdict == "distinguished"
    assert found.distinguisher.n <= 7
    assert found.distinguisher.max_degree() <= 3


def test_criterion_11_transform_predicates():
    rng = np.random.default_rng(111)
    for _ in range(100):
        q = int(rng.integers(2, 6))
        perm = np.eye(q)[rng.permutation(q)]
        assert is_permutation_preserver(HoloTransform(q, perm))
    count = 0
    while count < 100:
        q = int(rng.integers(2, 6))
        orth, _ = np.linalg.qr(rng.normal(size=(q, q)))
        if np.all(np.abs(np.abs(orth) - np.round(np.abs(orth))) < 1e-9):
            continue  # landed on a signed permutation, resample
        t = HoloTransform(q, orth)
        assert is_orthogonal_preserver(t)
        assert not is_permutation_preserver(t)
        count += 1


def test_criterion_12_covanishing_indistinguishability_linkage():
    rng = np.random.default_rng(112)
    corpus = []
    for trial in range(8):
        q = 2
        fs = random_set(rng, q, max_sigs=2, max_arity=2)
        kind = trial % 3
        if kind == 0:
            gs = dict(fs)
        elif kind == 1:
            gs = random_transform(rng, q).act_set(fs)
        else:
            gs = {k: (1.5 if i == 0 else 1.0) * v for i, (k, v) in enumerate(fs.items())}
        corpus.append((fs, gs))
    bound = 4
    for fs, gs in corpus:
        bij = {k: k for k in fs}
        indist = check_indistinguishable(fs, gs, bij, bound, tol=1e-8)
        cov00 = check_covanishing(fs, gs, bij, (0, 0), bound)
        # (0,0)-covanishing holds exactly when the pair is
        # indistinguishable at the same bound
        assert (cov00.verdict == "covanishing_at_bound") == (
            indist.verdict == "indistinguishable_at_bound"
        ), (cov00.verdict, indist.verdict)
        # indistinguishable + nonvanishing on both sides forces
        # covanishing at the nonvanishing profile
        for profile in ((1, 1), (0, 2)):
            gf = gram_nondegenerate(fs, profile, bound)
            gg = gram_nondegenerate(gs, profile, bound)
            if (
                indist.verdict == "indistinguishable_at_bound"
                and gf.verdict == "nonvanishing_at_bound"
                and gg.verdict == "nonvanishing_at_bound"
            ):
                cov = check_covanishing(fs, gs, bij, profile, bound)
                assert cov.verdict == "covanishing_at_bound", profile
