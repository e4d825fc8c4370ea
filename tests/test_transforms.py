"""Holographic action, invariance, fixed-point predicates, scaled families."""

from __future__ import annotations

import numpy as np
import pytest

from holant import (
    MixedTensor,
    disequality_signature,
    equality_signature,
    identity_signature,
)
from holant.grids import SignatureGrid, gadget_signature
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
    from holant.grids import enumerate_grids, holant_eval_contracted

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
