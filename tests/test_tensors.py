"""Mixed tensor arithmetic against independent loop-based oracles."""

from __future__ import annotations

import re

import numpy as np
import pytest

from holant import (
    MixedTensor,
    SymBoolSignature,
    disequality_signature,
    equality_signature,
    identity_signature,
    pair,
    symmetric_values,
)


def random_tensor(rng, q, left, right):
    shape = (q,) * (left + right)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return MixedTensor(q, left, right, arr)


# -- oracle: the pairing recomputed by explicit index loops ------------


def oracle_pair(a: MixedTensor, b: MixedTensor) -> complex:
    total = 0j
    for al in np.ndindex(*(a.q,) * a.left) if a.left else [()]:
        for ar in np.ndindex(*(a.q,) * a.right) if a.right else [()]:
            total += a.array[al + ar] * b.array[ar + al]
    return total


# -- constructors and storage ------------------------------------------


def test_equality_binary_contravariant_entries():
    e = equality_signature(2, 2, 0)
    assert list(e.entries) == [1, 0, 0, 1]


def test_equality_matches_definition_for_small_arity():
    for q in (1, 2, 3):
        for left, right in [(0, 1), (1, 1), (3, 0), (2, 2)]:
            e = equality_signature(q, left, right)
            for idx in np.ndindex(*(q,) * (left + right)):
                want = 1.0 if len(set(idx)) == 1 else 0.0
                assert e.array[idx] == want


def test_equality_arity_zero_is_domain_size():
    assert equality_signature(3, 0, 0).entry((), ()) == 3


def test_disequality_is_symmetric_complement_of_equality():
    d = disequality_signature(3, 1, 1)
    assert np.array_equal(d.matrix(), np.ones((3, 3)) - np.eye(3))


def test_flat_order_left_most_significant():
    # entry (a, b) of a (1,1) tensor sits at flat position a*q + b
    q = 3
    arr = np.arange(9).reshape(3, 3)
    t = MixedTensor(q, 1, 1, arr)
    for a in range(q):
        for b in range(q):
            assert t.entries[a * q + b] == arr[a, b]


def test_entry_count_guard():
    with pytest.raises(ValueError):
        MixedTensor.zeros(2, 27, 0)
    with pytest.raises(ValueError):
        equality_signature(3, 9, 9)


def test_immutability():
    t = identity_signature(2)
    with pytest.raises(AttributeError):
        t.q = 3
    with pytest.raises(ValueError):
        t.array[0, 0] = 5


def test_allclose_needs_one_domain_and_shape():
    # (2,0), (0,2) and (1,1) tensors at q = 2 hold arrays of one shape;
    # no tolerance makes tensors of another domain or shape close
    t = MixedTensor.zeros(2, 1, 1)
    assert t.allclose(MixedTensor.zeros(2, 1, 1), 0)
    for other in (MixedTensor.zeros(2, 2, 0), MixedTensor.zeros(2, 0, 2), MixedTensor.zeros(4, 0, 1)):
        assert not t.allclose(other, np.inf)


def test_shape_validation():
    with pytest.raises(ValueError):
        MixedTensor(2, 1, 1, np.zeros(3))
    with pytest.raises(ValueError):
        MixedTensor(0, 0, 0, np.zeros(1))
    # a negative count is refused even where the other makes the sum valid
    for build, counts in (
        (lambda: MixedTensor(2, 2, -1, [1, 2]), "(2,-1)"),
        (lambda: MixedTensor.zeros(2, 2, -1), "(2,-1)"),
        (lambda: disequality_signature(2, 3, -1), "(3,-1)"),
        (lambda: equality_signature(2, -1, 1), "(-1,1)"),
        (lambda: SymBoolSignature((1, 2), 2, -1), "(2,-1)"),
        (lambda: MixedTensor.from_matrix(np.eye(2), -1, 1), "(-1,1)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"slot counts must be nonnegative, got {counts}")):
            build()


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: MixedTensor.from_matrix(np.zeros((2, 2, 2))), "matrix form must be 2-dimensional"),
        (lambda: MixedTensor.from_matrix(np.zeros((3, 5))), "matrix shape (3, 5) is not q**1 x q**1 for any q"),
        (lambda: identity_signature(2).entry((0,), (0, 1)), "index tuple lengths must match the slot counts"),
        (lambda: identity_signature(2) + MixedTensor.zeros(2, 1, 2),
         "incompatible tensors: q/shape (2, (1, 1)) vs (2, (1, 2))"),
        (lambda: disequality_signature(2, 1, 0), "disequality is binary"),
        (lambda: symmetric_values(equality_signature(3, 1, 1)), "symmetric value extraction needs q = 2"),
        (lambda: pair(identity_signature(2), identity_signature(3)), "domain mismatch: 2 vs 3"),
        # the slot count is refused before the counts it sums
        (lambda: MixedTensor.zeros(2, -1, 0), "slot counts must be nonnegative, got (-1,0)"),
    ],
    ids=["from-3d-array", "from-3x5", "entry-index-lengths", "add-shapes", "unary-disequality",
         "symmetric-values-q3", "pair-domains", "zeros-negative-slots"],
)
def test_tensor_refusals(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()


def test_from_matrix_refuses_zero_slots():
    # a 1 x 1 matrix is a (0,0) form at every q, so none can be chosen
    with pytest.raises(ValueError, match="domain size"):
        MixedTensor.from_matrix([[5]], 0, 0)
    assert MixedTensor.from_matrix([[1, 2, 3]], 0, 1).q == 3


# -- pairing against the oracle ----------------------------------------


def test_pair_against_oracle():
    rng = np.random.default_rng(15)
    for _ in range(25):
        q = int(rng.integers(1, 4))
        left = int(rng.integers(0, 3))
        right = int(rng.integers(0, 3))
        a = random_tensor(rng, q, left, right)
        b = random_tensor(rng, q, right, left)
        assert abs(pair(a, b) - oracle_pair(a, b)) < 1e-10


def test_pair_shape_mismatch_rejected():
    a = MixedTensor.zeros(2, 1, 2)
    b = MixedTensor.zeros(2, 1, 2)
    with pytest.raises(ValueError):
        pair(a, b)


# -- symmetric Boolean signatures --------------------------------------


def test_symbool_expansion_disequality():
    s = SymBoolSignature((0, 1, 0), 2, 0)
    assert s.to_tensor().allclose(disequality_signature(2, 2, 0), 0)


def test_symbool_roundtrip():
    vals = (1 + 2j, 0.5, -3, 7j, 0)
    s = SymBoolSignature(vals, 1, 3)
    t = s.to_tensor()
    assert symmetric_values(t) == tuple(complex(v) for v in vals)


def test_symbool_weight_placement():
    t = SymBoolSignature((10, 20, 30), 0, 2).to_tensor()
    assert t.entry((), (0, 1)) == 20
    assert t.entry((), (1, 1)) == 30


def test_symmetric_values_rejects_asymmetric():
    t = MixedTensor(2, 1, 1, [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        symmetric_values(t)


def test_is_symmetric_is_decided_from_the_bits():
    rng = np.random.default_rng(3)
    assert SymBoolSignature((1, 2j, 3, -4, 5), 1, 3).to_tensor().is_symmetric()
    assert disequality_signature(3, 2, 0).is_symmetric()
    # no group of two slots: nothing to permute
    assert random_tensor(rng, 3, 1, 1).is_symmetric()
    assert MixedTensor.scalar(2, 7).is_symmetric()
    t = random_tensor(rng, 2, 2, 1)
    assert not t.is_symmetric() and t._symmetric is False
    # symmetric inside each group, but not across the groups
    arr = np.zeros((2, 2, 2))
    arr[0, 1, 1] = arr[1, 0, 1] = 1.0
    assert MixedTensor(2, 2, 1, arr).is_symmetric()
    assert not MixedTensor(2, 1, 2, arr).is_symmetric()
    # a -0.0 against a 0.0 is not bitwise symmetric
    arr = np.zeros((2, 2))
    arr[0, 1] = -0.0
    assert not MixedTensor(2, 0, 2, arr).is_symmetric()
    assert MixedTensor(2, 1, 1, arr).is_symmetric()


def test_symbool_length_validation():
    with pytest.raises(ValueError):
        SymBoolSignature((1, 0), 2, 0)


# -- pairing facts used later ------------------------------------------


def test_pair_of_identity_with_identity_is_q():
    for q in (1, 2, 4):
        assert pair(identity_signature(q), identity_signature(q)) == q


def test_scalar_arithmetic():
    s = MixedTensor.scalar(3, 2 + 1j)
    assert (s + s).entry((), ()) == 4 + 2j
    assert (2 * s).entry((), ()) == 4 + 2j
    assert (-s).entry((), ()) == -2 - 1j
