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

    __slots__ = ("q", "left", "right", "array")

    def __init__(self, q: int, left: int, right: int, array):
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
        q = round(m.shape[0] ** (1.0 / left)) if left else round(m.shape[1] ** (1.0 / right))
        if left and q**left != m.shape[0]:
            raise ValueError("matrix row count is not a power of a domain size")
        if right == 0:
            q2 = q
        else:
            q2 = round(m.shape[1] ** (1.0 / right))
        if q2**right != m.shape[1] or (left and right and q != q2):
            raise ValueError("matrix shape inconsistent with slot counts")
        q = q if left else q2
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def conj(self) -> "MixedTensor":
        return MixedTensor(self.q, self.left, self.right, np.conj(self.array))

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

    def __sub__(self, other: "MixedTensor") -> "MixedTensor":
        self._compat(other)
        return MixedTensor(self.q, self.left, self.right, self.array - other.array)

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
    n = left + right
    _check_size(q, n)
    if n == 0:
        return MixedTensor.scalar(q, q)
    arr = np.zeros((q,) * n, dtype=np.complex128)
    for x in range(q):
        arr[(x,) * n] = 1.0
    return MixedTensor(q, left, right, arr)


def disequality_signature(q: int, left: int, right: int) -> MixedTensor:
    """Binary disequality: entry 1 exactly when the two indices differ."""
    if left + right != 2:
        raise ValueError("disequality is binary")
    arr = np.ones((q, q), dtype=np.complex128) - np.eye(q)
    return MixedTensor(q, left, right, arr)


def identity_signature(q: int) -> MixedTensor:
    """The (1,1) identity, the signature of a bare wire."""
    return MixedTensor(q, 1, 1, np.eye(q))


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
        if len(vals) != self.left + self.right + 1:
            raise ValueError(
                f"need arity+1 values, got {len(vals)} for shape "
                f"({self.left},{self.right})"
            )

    @property
    def arity(self) -> int:
        return self.left + self.right

    def to_tensor(self) -> MixedTensor:
        n = self.arity
        _check_size(2, n)
        arr = np.zeros((2,) * n, dtype=np.complex128) if n else np.array(self.values[0])
        if n:
            for idx in np.ndindex(*(2,) * n):
                arr[idx] = self.values[sum(idx)]
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


# -- subdomains --------------------------------------------------------


@dataclass(frozen=True)
class SubdomainMask:
    """A subset of the domain [q], kept as a sorted tuple of elements."""

    q: int
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", elems)
        if self.q < 1:
            raise ValueError("ambient domain must be nonempty")
        if len(set(elems)) != len(elems):
            raise ValueError("mask elements must be distinct")
        if elems and (elems[0] < 0 or elems[-1] >= self.q):
            raise ValueError(f"mask elements must lie in [0, {self.q})")

    def __len__(self) -> int:
        return len(self.elements)


def restrict(t: MixedTensor, mask: SubdomainMask) -> MixedTensor:
    """Keep only entries whose indices all lie in the mask; domain shrinks."""
    if mask.q != t.q:
        raise ValueError(f"mask is over q={mask.q}, tensor over q={t.q}")
    if len(mask) == 0:
        raise ValueError("cannot restrict to an empty domain")
    n = t.arity
    if n == 0:
        return MixedTensor.scalar(len(mask), complex(t.array))
    sel = np.ix_(*([list(mask.elements)] * n))
    return MixedTensor(len(mask), t.left, t.right, t.array[sel])


def embed_uparrow(t: MixedTensor, mask: SubdomainMask) -> MixedTensor:
    """Zero-pad onto the ambient domain, placing t's domain at the mask.

    Inverse to restrict on the masked block: restrict(embed_uparrow(t, m), m)
    gives back t.
    """
    if len(mask) != t.q:
        raise ValueError(
            f"mask selects {len(mask)} elements but the tensor domain has {t.q}"
        )
    n = t.arity
    _check_size(mask.q, n)
    if n == 0:
        return MixedTensor.scalar(mask.q, complex(t.array))
    arr = np.zeros((mask.q,) * n, dtype=np.complex128)
    arr[np.ix_(*([list(mask.elements)] * n))] = t.array
    return MixedTensor(mask.q, t.left, t.right, arr)


def subdomain_restrictor(mask: SubdomainMask) -> MixedTensor:
    """The (1,1) projector fixing the mask and killing its complement."""
    arr = np.zeros((mask.q, mask.q), dtype=np.complex128)
    for x in mask.elements:
        arr[x, x] = 1.0
    return MixedTensor(mask.q, 1, 1, arr)


def direct_sum(f: MixedTensor, g: MixedTensor) -> MixedTensor:
    """Disjoint-domain sum: mixed index tuples get entry 0."""
    if f.shape != g.shape:
        raise ValueError(f"direct sum needs equal shapes, got {f.shape} vs {g.shape}")
    q = f.q + g.q
    n = f.arity
    _check_size(q, n)
    if n == 0:
        return MixedTensor.scalar(q, complex(f.array) + complex(g.array))
    arr = np.zeros((q,) * n, dtype=np.complex128)
    arr[np.ix_(*([range(f.q)] * n))] = f.array
    arr[np.ix_(*([range(f.q, q)] * n))] = g.array
    return MixedTensor(q, f.left, f.right, arr)


# -- multiplicative structure ------------------------------------------


def tensor_product(a: MixedTensor, b: MixedTensor) -> MixedTensor:
    """Tensor product; left slots of a then of b, same for right slots."""
    if a.q != b.q:
        raise ValueError(f"domain mismatch: {a.q} vs {b.q}")
    _check_size(a.q, a.arity + b.arity)
    big = np.multiply.outer(a.array, b.array)
    # outer order is (La, Ra, Lb, Rb); we want (La, Lb, Ra, Rb)
    la, ra, lb, rb = a.left, a.right, b.left, b.right
    perm = (
        list(range(la))
        + list(range(la + ra, la + ra + lb))
        + list(range(la, la + ra))
        + list(range(la + ra + lb, la + ra + lb + rb))
    )
    return MixedTensor(a.q, la + lb, ra + rb, np.transpose(big, perm))


def contract(t: MixedTensor, left_slot: int, right_slot: int) -> MixedTensor:
    """Sum left slot i against right slot j (both 1-based).

    Remaining slots keep their relative order.  Contracting the identity
    (1,1) against itself gives the scalar q.
    """
    if not (1 <= left_slot <= t.left):
        raise ValueError(f"left slot {left_slot} out of range 1..{t.left}")
    if not (1 <= right_slot <= t.right):
        raise ValueError(f"right slot {right_slot} out of range 1..{t.right}")
    ax1 = left_slot - 1
    ax2 = t.left + right_slot - 1
    arr = np.trace(t.array, axis1=ax1, axis2=ax2)
    return MixedTensor(t.q, t.left - 1, t.right - 1, arr)


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


def dagger(t: MixedTensor) -> MixedTensor:
    """Conjugate entries and swap the slot groups: (l,r) becomes (r,l).

    pair(t, dagger(t)) is then the squared Frobenius norm of t.
    """
    perm = list(range(t.left, t.arity)) + list(range(t.left))
    arr = np.conj(np.transpose(t.array, perm)) if t.arity else np.conj(t.array)
    return MixedTensor(t.q, t.right, t.left, arr)
