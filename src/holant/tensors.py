"""Mixed tensors over a finite domain.

A mixed tensor of shape (left, right) on domain size q is an element of
(C^q)^{tensor left} tensor ((C^q)*)^{tensor right}.  Left slots are
contravariant, right slots are covariant.  Entries are stored densely in
lexicographic order with the left slots most significant, so the flat
index of (a_1..a_l, b_1..b_r) is the base-q number a_1 a_2 .. b_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hard cap on dense storage: refuse anything above 2**26 entries.
MAX_ENTRIES = 1 << 26

DEFAULT_TOL = 1e-9


def _check_counts(left: int, right: int) -> None:
    if left < 0 or right < 0:
        raise ValueError(f"slot counts must be nonnegative, got ({left},{right})")


def _check_size(q: int, slots: int) -> None:
    if q < 1:
        raise ValueError(f"domain size must be positive, got {q}")
    if slots < 0:
        raise ValueError(f"slot count must be nonnegative, got {slots}")
    # for q >= 2, q**slots >= 2**slots is over the cap once slots reaches
    # its bit length; deciding that first keeps a huge slots count from
    # building a huge integer
    if q > 1 and (slots >= MAX_ENTRIES.bit_length() or q**slots > MAX_ENTRIES):
        raise ValueError(
            f"tensor with q={q} and {slots} slots needs more than "
            f"{MAX_ENTRIES} entries, over the cap"
        )


class MixedTensor:
    """Dense (left, right)-shaped tensor on domain [q], immutable."""

    # _equality and _symmetric cache is_equality() and is_symmetric(); each
    # is unset until decided, so that building a tensor costs nothing more
    __slots__ = ("q", "left", "right", "array", "_equality", "_symmetric")

    def __init__(self, q: int, left: int, right: int, array):
        _check_counts(left, right)
        _check_size(q, left + right)
        arr = np.asarray(array, dtype=np.complex128)
        want = (q,) * (left + right)
        if arr.size != q ** (left + right):
            raise ValueError(
                f"expected {q**(left+right)} entries for shape ({left},{right}) "
                f"at q={q}, got {arr.size}"
            )
        arr = arr.reshape(want).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MixedTensor is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, q: int, left: int, right: int) -> "MixedTensor":
        _check_counts(left, right)
        _check_size(q, left + right)
        return cls(q, left, right, np.zeros((q,) * (left + right)))

    @classmethod
    def scalar(cls, q: int, value) -> "MixedTensor":
        return cls(q, 0, 0, np.array(value, dtype=np.complex128))

    @classmethod
    def from_matrix(cls, matrix, left: int = 1, right: int = 1) -> "MixedTensor":
        """Build from the q^left x q^right matrix form."""
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2:
            raise ValueError("matrix form must be 2-dimensional")
        _check_counts(left, right)
        if not left and not right:
            raise ValueError("a (0,0) matrix form does not fix the domain size q")
        q = round(m.shape[0] ** (1.0 / left)) if left else round(m.shape[1] ** (1.0 / right))
        if m.shape != (q**left, q**right):
            raise ValueError(f"matrix shape {m.shape} is not q**{left} x q**{right} for any q")
        return cls(q, left, right, m.reshape((q,) * (left + right)))

    # -- views ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left, self.right)

    @property
    def arity(self) -> int:
        return self.left + self.right

    @property
    def entries(self) -> np.ndarray:
        """Flat entry vector, lexicographic, left slots most significant."""
        return self.array.reshape(-1)

    def matrix(self) -> np.ndarray:
        """q^left x q^right matrix form (left slots index rows)."""
        return self.array.reshape(self.q**self.left, self.q**self.right)

    def entry(self, left_index: tuple[int, ...], right_index: tuple[int, ...]) -> complex:
        if len(left_index) != self.left or len(right_index) != self.right:
            raise ValueError("index tuple lengths must match the slot counts")
        return complex(self.array[tuple(left_index) + tuple(right_index)])

    def is_equality(self) -> bool:
        """Is this bitwise equality_signature(q, left, right)?

        Decided from the bits of the entries, so a tensor with one entry
        an ulp off, or with a -0.0, is not an equality.  Decided once per
        tensor, which is immutable; equality_signature and
        identity_signature mark their results at construction.
        """
        try:
            return self._equality
        except AttributeError:
            pass
        n = self.left + self.right
        # an equality has q nonzero entries (the arity-0 one, q, has one);
        # counting them first refuses most tensors without building the
        # reference
        verdict = np.count_nonzero(self.array) == (self.q if n else 1) and np.array_equal(
            self.entries.view(np.uint64),
            equality_signature(self.q, self.left, self.right).entries.view(np.uint64),
        )
        object.__setattr__(self, "_equality", bool(verdict))
        return self._equality

    def is_symmetric(self) -> bool:
        """Is the array unchanged, bit for bit, by every permutation of
        its left slots among themselves and of its right slots among
        themselves?

        Tested on the adjacent swaps inside each group, which generate
        those permutations.  Decided from the bits, like is_equality, so
        a -0.0 against a 0.0 breaks symmetry; decided once per tensor.  A
        tensor with no group of two or more slots is symmetric.
        """
        try:
            return self._symmetric
        except AttributeError:
            pass
        # a trailing axis holds each entry's real and imaginary bits
        bits = self.array[..., None].view(np.uint64)
        swaps = [k for k in range(self.left + self.right - 1) if k + 1 != self.left]
        verdict = all(np.array_equal(bits, np.swapaxes(bits, k, k + 1)) for k in swaps)
        object.__setattr__(self, "_symmetric", verdict)
        return verdict

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    # -- linear structure ----------------------------------------------

    def _compat(self, other: "MixedTensor") -> None:
        if (self.q, self.left, self.right) != (other.q, other.left, other.right):
            raise ValueError(
                f"incompatible tensors: q/shape {(self.q, self.shape)} vs "
                f"{(other.q, other.shape)}"
            )

    def __add__(self, other: "MixedTensor") -> "MixedTensor":
        self._compat(other)
        return MixedTensor(self.q, self.left, self.right, self.array + other.array)

    def __mul__(self, scalar) -> "MixedTensor":
        return MixedTensor(self.q, self.left, self.right, self.array * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "MixedTensor":
        return self * (-1)

    def allclose(self, other: "MixedTensor", tol: float = DEFAULT_TOL) -> bool:
        """Entrywise comparison with absolute tolerance tol."""
        if (self.q, self.left, self.right) != (other.q, other.left, other.right):
            return False
        return bool(np.max(np.abs(self.array - other.array), initial=0.0) <= tol)

    def __repr__(self) -> str:
        return f"MixedTensor(q={self.q}, shape=({self.left},{self.right}))"


# -- the standard signatures ------------------------------------------


def equality_signature(q: int, left: int, right: int) -> MixedTensor:
    """Equality of arity left+right: entry 1 when all indices coincide.

    The arity-0 case is the scalar q (the closed equality vertex sums a
    single free index over the domain).
    """
    _check_counts(left, right)
    n = left + right
    _check_size(q, n)
    if n == 0:
        out = MixedTensor.scalar(q, q)
    else:
        arr = np.zeros((q,) * n, dtype=np.complex128)
        # entry (x, ..., x) sits at flat index x * (1 + q + ... + q**(n-1))
        arr.reshape(-1)[:: sum(q**k for k in range(n))] = 1.0
        out = MixedTensor(q, left, right, arr)
    object.__setattr__(out, "_equality", True)
    return out


def disequality_signature(q: int, left: int, right: int) -> MixedTensor:
    """Binary disequality: entry 1 exactly when the two indices differ."""
    if left + right != 2:
        raise ValueError("disequality is binary")
    _check_size(q, 2)
    arr = np.ones((q, q), dtype=np.complex128) - np.eye(q)
    return MixedTensor(q, left, right, arr)


def identity_signature(q: int) -> MixedTensor:
    """The (1,1) identity, the signature of a bare wire."""
    _check_size(q, 2)
    out = MixedTensor(q, 1, 1, np.eye(q))
    object.__setattr__(out, "_equality", True)  # it is equality_signature(q, 1, 1)
    return out


# -- symmetric Boolean signatures --------------------------------------


@dataclass(frozen=True)
class SymBoolSignature:
    """Symmetric signature on the Boolean domain, listed by Hamming weight.

    values[w] is the common entry on index tuples with w ones; the arity
    is len(values) - 1 and must equal left + right.
    """

    values: tuple[complex, ...]
    left: int
    right: int

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        _check_counts(self.left, self.right)
        if len(vals) != self.left + self.right + 1:
            raise ValueError(
                f"need arity+1 values, got {len(vals)} for shape "
                f"({self.left},{self.right})"
            )

    @property
    def arity(self) -> int:
        return self.left + self.right

    def to_tensor(self) -> MixedTensor:
        _check_size(2, self.arity)
        # entries in lexicographic order; at arity 0 the one index is ()
        arr = np.fromiter((self.values[sum(i)] for i in np.ndindex(*(2,) * self.arity)), complex)
        return MixedTensor(2, self.left, self.right, arr)


def symmetric_values(t: MixedTensor, tol: float = DEFAULT_TOL) -> tuple[complex, ...]:
    """Extract [f_0..f_n] from a symmetric Boolean-domain tensor.

    Raises if q != 2 or the entries are not constant on weight classes.
    """
    if t.q != 2:
        raise ValueError("symmetric value extraction needs q = 2")
    n = t.arity
    vals: list[complex] = [0j] * (n + 1)
    seen = [False] * (n + 1)
    for idx in np.ndindex(*(2,) * n) if n else [()]:
        w = sum(idx)
        v = complex(t.array[idx]) if n else complex(t.array)
        if not seen[w]:
            vals[w], seen[w] = v, True
        elif abs(vals[w] - v) > tol:
            raise ValueError(f"entries differ on weight class {w}: {vals[w]} vs {v}")
    return tuple(vals)


# -- pairing ----------------------------------------------------------


def pair(a: MixedTensor, b: MixedTensor) -> complex:
    """Full bilinear pairing of an (l,r) tensor with an (r,l) tensor.

    Slot i on the left of a is wired to slot i on the right of b and vice
    versa, so the value is trace(matrix(a) @ matrix(b)).
    """
    if a.q != b.q:
        raise ValueError(f"domain mismatch: {a.q} vs {b.q}")
    if a.left != b.right or a.right != b.left:
        raise ValueError(f"pairing needs transposed shapes, got {a.shape} vs {b.shape}")
    return complex(np.trace(a.matrix() @ b.matrix()))
