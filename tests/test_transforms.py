"""Holographic action, invariance, fixed-point predicates, scaled families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holant import (
    MixedTensor,
    disequality_signature,
    equality_signature,
    identity_signature,
)
from holant.contraction import gadget_signature
from holant.grids import SignatureGrid
from holant.spans import build_span, check_covanishing, check_indistinguishable, gram_nondegenerate
from holant.transforms import (
    DefectiveSpectrumWarning,
    HoloTransform,
    IllConditionedTransformWarning,
    epsilon_family_counterexample,
    epsilon_family_jordan,
    is_orthogonal_preserver,
    is_permutation_preserver,
    verify_holant_theorem,
)


def random_tensor(rng, q, left, right):
    shape = (q,) * (left + right)
    return MixedTensor(q, left, right, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_transform(rng, q, cond_cap=1e4):
    while True:
        m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        if np.linalg.cond(m) <= cond_cap:
            return HoloTransform(q, m)


def random_orthogonal(rng, q):
    m = rng.standard_normal((q, q))
    qm, r = np.linalg.qr(m)
    return qm @ np.diag(np.sign(np.diag(r)))


# -- action oracle -----------------------------------------------------------


def oracle_act(t: HoloTransform, f: MixedTensor) -> np.ndarray:
    """Kronecker-power form of the action, as a dense matrix product."""
    tl = np.array([[1.0]], dtype=np.complex128)
    for _ in range(f.left):
        tl = np.kron(tl, t.matrix)
    tr = np.array([[1.0]], dtype=np.complex128)
    for _ in range(f.right):
        tr = np.kron(tr, t.inverse)
    return (tl @ f.matrix() @ tr).reshape((f.q,) * f.arity)


def test_act_matches_kronecker_oracle():
    rng = np.random.default_rng(50)
    for _ in range(30):
        q = int(rng.integers(1, 4))
        t = random_transform(rng, q)
        f = random_tensor(rng, q, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        got = t.act(f)
        assert np.allclose(got.array, oracle_act(t, f), atol=1e-9)


def test_act_scalar_unchanged():
    t = HoloTransform(2, [[1, 2], [3, 4]])
    s = MixedTensor.scalar(2, 5 - 2j)
    assert t.act(s).entry((), ()) == 5 - 2j


def test_act_inverse_roundtrip():
    rng = np.random.default_rng(51)
    t = random_transform(rng, 3)
    f = random_tensor(rng, 3, 2, 1)
    back = t.inverse_transform().act(t.act(f))
    assert back.allclose(f, 1e-8)


def test_act_is_multiplicative_in_t():
    rng = np.random.default_rng(52)
    t1 = random_transform(rng, 2)
    t2 = random_transform(rng, 2)
    f = random_tensor(rng, 2, 1, 2)
    combined = HoloTransform(2, t1.matrix @ t2.matrix)
    assert combined.act(f).allclose(t1.act(t2.act(f)), 1e-7)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        HoloTransform(2, [[1, 1], [1, 1]])


def test_ill_conditioned_warning():
    with pytest.warns(IllConditionedTransformWarning):
        HoloTransform(2, [[1, 0], [0, 1e-12]])


def test_domain_mismatch_rejected():
    t = HoloTransform(2, np.eye(2))
    with pytest.raises(ValueError):
        t.act(identity_signature(3))


# -- invariance of closed grid values ----------------------------------------


def test_holant_theorem_random_sets():
    rng = np.random.default_rng(53)
    for _ in range(8):
        q = int(rng.integers(2, 4))
        fs = {}
        for k in range(int(rng.integers(1, 3))):
            a = int(rng.integers(1, 4))
            l = int(rng.integers(0, a + 1))
            fs[f"f{k}"] = random_tensor(rng, q, l, a - l)
        t = random_transform(rng, q)
        report = verify_holant_theorem(fs, t, max_vertices=4)
        assert report.passed, (report.max_scaled_error, report.worst_grid)
        assert report.grids_checked > 0


def test_holant_theorem_detects_non_transform():
    # perturbing one signature by hand is not a holographic action and
    # should break invariance on some grid
    rng = np.random.default_rng(54)
    q = 2
    f = random_tensor(rng, q, 1, 1)
    fs = {"f": f}
    t = HoloTransform(q, np.eye(q))
    report = verify_holant_theorem(fs, t, max_vertices=3)
    assert report.passed
    tweaked = {"f": f + 0.1 * identity_signature(q)}
    # evaluate the tweaked set against the original by hand
    from holant.contraction import holant_eval_contracted
    from holant.grids import enumerate_grids

    diffs = []
    for grid in enumerate_grids([("f", (1, 1))], 3, q):
        diffs.append(
            abs(
                holant_eval_contracted(grid, fs)
                - holant_eval_contracted(grid, tweaked)
            )
        )
    assert max(diffs) > 1e-3


# -- predicates ---------------------------------------------------------------


def test_orthogonal_preserver_accepts_rotations():
    rng = np.random.default_rng(55)
    for q in (2, 3, 4):
        for _ in range(10):
            t = HoloTransform(q, random_orthogonal(rng, q))
            assert is_orthogonal_preserver(t)


def test_orthogonal_preserver_rejects_generic():
    rng = np.random.default_rng(56)
    t = random_transform(rng, 3)
    while is_orthogonal_preserver(t):
        t = random_transform(rng, 3)
    assert not is_orthogonal_preserver(t)


def test_permutation_preserver():
    rng = np.random.default_rng(57)
    for q in (2, 3, 5):
        perm = rng.permutation(q)
        m = np.zeros((q, q))
        m[perm, np.arange(q)] = 1.0
        assert is_permutation_preserver(HoloTransform(q, m))
    # sign flip is orthogonal but not a permutation
    t = HoloTransform(2, -np.eye(2))
    assert is_orthogonal_preserver(t)
    assert not is_permutation_preserver(t)


def test_higher_equalities_factor_through_arity_three_chain():
    # arity-n equality splits into arity-3 equalities bridged by covariant
    # binary equalities, which is why fixing arities 2 and 3 fixes them all
    q = 3
    for n in (4, 5):
        k = n - 2  # chain length in arity-3 vertices
        vertices = tuple(f"e3" for _ in range(k)) + tuple("b2" for _ in range(k - 1))
        edges = []
        for c in range(k - 1):
            bridge = k + c
            edges.append((c, 3, bridge, 1))
            edges.append((c + 1, 1, bridge, 2))
        left = [(0, 1), (0, 2)]
        for c in range(1, k - 1):
            left.append((c, 2))
        left += [(k - 1, 2), (k - 1, 3)]
        grid = SignatureGrid(
            q=q,
            vertices=vertices,
            edges=tuple(edges),
            left_dangling=tuple(left),
        )
        got = gadget_signature(
            grid,
            {"e3": equality_signature(q, 3, 0), "b2": equality_signature(q, 0, 2)},
        )
        assert got.allclose(equality_signature(q, n, 0), 1e-12)


# -- scaled families -----------------------------------------------------------


@pytest.mark.filterwarnings("ignore::holant.transforms.DefectiveSpectrumWarning")
def test_jordan_family_on_jordan_block():
    lam = 2.5
    j = MixedTensor(3, 1, 1, [[lam, 1, 0], [0, lam, 1], [0, 0, lam]])
    t, result = epsilon_family_jordan(j, 1e-2)
    m = result.matrix()
    assert m[0, 1] == 1e-2 and m[1, 2] == 1e-2
    assert m[0, 2] == 0
    assert np.allclose(np.diag(m), lam)
    # the returned transform reproduces the returned tensor
    assert t.act(j).allclose(result, 1e-9)


def test_jordan_family_warns_on_clustered_spectrum():
    j = MixedTensor(2, 1, 1, [[1, 1], [0, 1]])
    with pytest.warns(DefectiveSpectrumWarning):
        epsilon_family_jordan(j, 0.1)


def test_nilpotent_family_reaches_zero():
    n = MixedTensor(2, 1, 1, [[0, 1], [0, 0]])
    with pytest.warns(DefectiveSpectrumWarning):
        _, result = epsilon_family_jordan(n, 1e-3)
    assert result.norm() <= 1e-3


def test_jordan_family_general_matrix_converges_to_diagonal():
    rng = np.random.default_rng(58)
    m = random_tensor(rng, 3, 1, 1)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, result = epsilon_family_jordan(m, eps)
        r = result.matrix()
        dists.append(float(np.linalg.norm(r - np.diag(np.diag(r)))))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-2 * max(1.0, dists[0])
    # the diagonal converges to the eigenvalue multiset
    eigs = sorted(np.linalg.eigvals(m.matrix()), key=lambda z: (z.real, z.imag))
    diag = sorted(np.diag(r), key=lambda z: (z.real, z.imag))
    assert np.allclose(eigs, diag, atol=1e-6)


def test_diagonalizable_input_reaches_exact_diagonal():
    d = MixedTensor(2, 1, 1, [[3, 0], [0, 7]])
    _, result = epsilon_family_jordan(d, 0.5)
    assert np.allclose(result.matrix(), d.matrix())


def test_jordan_family_rejects_bad_shapes():
    with pytest.raises(ValueError):
        epsilon_family_jordan(MixedTensor.zeros(2, 2, 0), 0.1)
    with pytest.raises(ValueError):
        epsilon_family_jordan(identity_signature(2), -1.0)


def test_counterexample_family_values_and_distance():
    a, b = 2.0, -1.5
    for eps in (1e-1, 1e-2):
        rep = epsilon_family_counterexample(a, b, eps)
        assert rep.disequality_fixed
        vals = rep.transformed_values
        assert abs(vals[0] - a * eps**4) < 1e-12
        assert abs(vals[1] - b * eps**2) < 1e-12
        assert abs(vals[2] - 1) < 1e-12
        assert abs(vals[3]) == 0 and abs(vals[4]) == 0
        assert abs(rep.distance - rep.expected_distance) <= 1e-12 * (1 + rep.expected_distance)


def test_counterexample_family_transform_fixes_disequality_exactly():
    rep = epsilon_family_counterexample(1.0, 1.0, 0.125)  # powers of two stay exact
    assert np.array_equal(
        rep.transformed_disequality.array, disequality_signature(2, 2, 0).array
    )


def test_counterexample_distance_decade_ratio():
    # with a = 0 the distance scales like eps^2: two decades per decade of eps
    dists = [epsilon_family_counterexample(0.0, 1.0, e).distance for e in (1e-1, 1e-2, 1e-3)]
    assert dists[0] / dists[1] >= 99
    assert dists[1] / dists[2] >= 99


# -- the judgement on value arrays ---------------------------------------------


def report_fields(report):
    """Every field of a HolantTheoremReport, floats as their exact bits."""
    out = []
    for name, value in vars(report).items():
        if isinstance(value, float):
            value = np.float64(value).tobytes()
        out.append((name, value))
    return out


def theorem_cases():
    """(fs, t, bound): closed-invariance's shapes at q = 1, 2 and 3, a
    random set, a set with a NaN entry, one with an inf entry, one that
    T leaves bitwise alone, so that every error is 0, and one with a
    1e200 entry, whose products overflow.  NON_FINITE names the cases
    with some grid value that is not finite."""
    rng = np.random.default_rng(57)
    shapes = {"a": (1, 1), "b": (2, 1), "c": (1, 2)}
    cases = []
    for q in (1, 2, 3):
        fs = {name: random_tensor(rng, q, l, r) for name, (l, r) in shapes.items()}
        cases.append((fs, random_transform(rng, q), 4))
    fs = {"f0": random_tensor(rng, 2, 2, 0), "f1": random_tensor(rng, 2, 1, 3)}
    cases.append((fs, random_transform(rng, 2), 4))
    base = {name: random_tensor(rng, 2, l, r) for name, (l, r) in shapes.items()}
    for bad in (np.nan, np.inf):
        arr = base["b"].array.copy()
        arr[0, 1, 1] = bad
        cases.append((dict(base, b=MixedTensor(2, 2, 1, arr)), random_transform(rng, 2), 3))
    cases.append((base, HoloTransform(2, np.eye(2)), 3))
    arr = base["a"].array.copy()
    arr[0, 0] = 1e200
    cases.append((dict(base, a=MixedTensor(2, 1, 1, arr)), random_transform(rng, 2), 3))
    return cases


NON_FINITE = (4, 5, 7)


def first_non_finite(fs, t, bound):
    """The refusal verify_holant_theorem raises for the first grid of the
    walk whose value is not finite under fs or T·F, each grid contracted
    alone (oracles.oracle_signatures); None if every value is finite."""
    from holant import spans
    from holant.grids import enumerate_grids
    from oracles import oracle_signatures

    walk = enumerate_grids(
        [(name, f.shape) for name, f in fs.items()], bound, t.q, symmetric=spans._symmetric_ids(fs)
    )
    for k, (g, before, after) in enumerate(oracle_signatures(walk, fs, t.act_set(fs))):
        if not np.isfinite([complex(before), complex(after)]).all():
            return (
                f"grid {k + 1} of the walk (vertices {g.vertices}, edges {g.edges}, "
                f"loops {g.loops}) has a non-finite value: {complex(before)} before the "
                f"transformation, {complex(after)} after it"
            )
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(len(theorem_cases())))
def test_theorem_report_equals_the_loop_over_grids(monkeypatch, case):
    from holant import spans
    from oracles import oracle_verify_holant_theorem

    fs, t, bound = theorem_cases()[case]
    want = oracle_verify_holant_theorem(fs, t, bound)
    refusal = first_non_finite(fs, t, bound)
    assert (refusal is not None) == (case in NON_FINITE)

    def verified():
        # a non-finite value is refused at its grid, where the loop over
        # grids would pass it over
        if refusal is None:
            assert report_fields(verify_holant_theorem(fs, t, bound)) == report_fields(want)
            return
        with pytest.raises(ArithmeticError) as refused:
            verify_holant_theorem(fs, t, bound)
        assert str(refused.value) == refusal

    # cold (the family is walked and stored), replayed from the stored
    # family, and streamed in blocks of a few grids with nothing stored;
    # blocks of 2 put each first non-finite grid past the first block
    monkeypatch.setattr(spans, "_family", None)
    verified()
    verified()
    for cap in (max(1, want.grids_checked // 3), 2):
        monkeypatch.setattr(spans, "FAMILY_MEMO_MAX_GRIDS", cap)
        monkeypatch.setattr(spans, "_family", None)
        verified()
        assert spans._family is None
    if case == 6:
        assert (want.max_abs_error, want.max_scaled_error, want.worst_grid) == (0.0, 0.0, None)


def test_theorem_replay_contracts_once_per_structure(monkeypatch):
    # closed-invariance's family: three shapes at q = 3, bound 4, 300
    # structures at loop counts 0 and 1.  Each query contracts the
    # family's one block in one call, through the module attribute that
    # perfbench's tracer wraps, with a hashable first argument: the
    # family's compiled program, kept with the stored family, which
    # planned each structure once for all three queries
    from holant import contraction, spans

    rng = np.random.default_rng(59)
    shapes = {"s0": (1, 1), "s1": (2, 1), "s2": (1, 2)}
    fs = {name: random_tensor(rng, 3, l, r) for name, (l, r) in shapes.items()}
    t = random_transform(rng, 3)
    contracted = []
    real = spans.gadget_signature
    monkeypatch.setattr(
        spans, "gadget_signature", lambda g, *rest: contracted.append(g) or real(g, *rest)
    )
    planned = []
    real_plan = contraction._plan
    monkeypatch.setattr(contraction, "_plan", lambda g, *rest: planned.append(g) or real_plan(g, *rest))
    monkeypatch.setattr(spans, "_family", None)
    for _ in range(3):
        before = len(contracted)
        assert verify_holant_theorem(fs, t, 4).grids_checked == 600
        assert len(contracted) - before == 1
    program = contracted[0]
    assert contracted == [program] * 3 and len({program}) == 1
    assert spans._family[2] is program
    runs = spans._family[1][::2]
    assert program.runs == runs and all(g.loops == 0 for g in runs)
    assert planned == list(runs) and len(set(planned)) == 300


def test_theorem_walks_and_compiles_the_family_once(monkeypatch):
    # three queries on one family: the first enumerates it and compiles
    # its program, the other two replay both from the stored family
    from holant import spans

    rng = np.random.default_rng(59)
    shapes = {"s0": (1, 1), "s1": (2, 1), "s2": (1, 2)}
    fs = {name: random_tensor(rng, 3, l, r) for name, (l, r) in shapes.items()}
    t = random_transform(rng, 3)
    walks, compiled = [], []
    walk, compile_family = spans.enumerate_grids, spans.compile_family
    monkeypatch.setattr(spans, "enumerate_grids", lambda *a, **k: walks.append(a) or walk(*a, **k))
    monkeypatch.setattr(spans, "compile_family", lambda *a: compiled.append(a) or compile_family(*a))
    monkeypatch.setattr(spans, "_family", None)
    reports = [verify_holant_theorem(fs, t, 4) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2] and reports[0].grids_checked == 600
    assert len(walks) == 1 and len(compiled) == 1
    # compiled under the family's own shapes
    assert compiled[0][1] == shapes


# -- metamorphic relations of the Holant theorem --------------------------------


@st.composite
def invariance_cases(draw, max_bound=4):
    """(fs, t, bound): closed-invariance's shapes at q in {2, 3} with
    random complex entries, bound 1 to max_bound, and T with
    cond(T) <= 10.  The cond bound is there because the theorem's
    tolerance ignores cond(T): an ill-conditioned T rounds T·F's values
    further from F's than any fixed tolerance allows.  Over 150 such
    draws at bound 4 the largest scaled error was 7.6e-13, far inside
    tol = 1e-6."""
    q = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = {"s0": (1, 1), "s1": (2, 1), "s2": (1, 2)}
    fs = {name: random_tensor(rng, q, l, r) for name, (l, r) in shapes.items()}
    return fs, random_transform(rng, q, cond_cap=10.0), draw(st.integers(1, max_bound))


@settings(max_examples=20, deadline=None)
@given(case=invariance_cases())
def test_transformed_set_is_indistinguishable_until_perturbed(case):
    # Holant(F) = Holant(T·F) on every grid, so check_indistinguishable
    # reads F and T·F alike, over the walk verify_holant_theorem checks.
    # 0.1 more on a diagonal entry of T·F's (1,1) signature changes the
    # trace of the one-vertex loop grid, the first grid with a vertex.
    # Each check runs twice: the theorem's second query replays the family
    # it stored, and check_indistinguishable walks again and keeps nothing
    from holant import spans

    fs, t, bound = case
    transformed = t.act_set(fs)
    identity = {name: name for name in fs}
    arr = transformed["s0"].array.copy()
    arr[1, 1] += 0.1
    perturbed = dict(transformed, s0=MixedTensor(t.q, 1, 1, arr))
    loop = SignatureGrid(t.q, ("s0",), ((0, 1, 0, 1),))
    for _ in range(2):
        theorem = verify_holant_theorem(fs, t, bound)
        same = check_indistinguishable(fs, transformed, identity, bound, tol=1e-6)
        assert same.verdict == "indistinguishable_at_bound"
        assert same.grids_checked == theorem.grids_checked
        assert spans._family[0][1:3] == (bound, t.q)
        apart = check_indistinguishable(fs, perturbed, identity, bound, tol=1e-6)
        assert (apart.verdict, apart.grids_checked, apart.witness_grid) == ("distinguished", 3, loop)


@settings(max_examples=24, deadline=None)
@given(case=invariance_cases(max_bound=2))
def test_transformed_set_keeps_spans_pairings_and_null_combinations(case):
    # T·F's gadget signatures are T's images of F's, T acting on the
    # dangling slots alone: a combination of gadgets vanishes under F iff
    # under T·F, the spans have one dimension, and the pairing of
    # opposite profiles, a closed grid's value, is the same.  The cuts
    # deciding these use fixed tolerances that ignore cond(T) (ROADMAP
    # items 2 and 9), so T is drawn with cond(T) <= 10
    fs, t, bound = case
    transformed = t.act_set(fs)
    identity = {name: name for name in fs}
    for profile in [(1, 1), (0, 1), (1, 0), (2, 1)]:
        report = check_covanishing(fs, transformed, identity, profile, bound)
        assert report.verdict == "covanishing_at_bound"
        assert build_span(fs, profile, bound).dim == build_span(transformed, profile, bound).dim
        before, after = (gram_nondegenerate(s, profile, bound) for s in (fs, transformed))
        assert before.verdict == after.verdict
