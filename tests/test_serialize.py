"""Round-trip checks for the JSON forms."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holant.contraction import QuantumGadget
from holant.grids import SignatureGrid
from holant.homgraphs import SimpleGraph, cycle_graph
from holant.serialize import (
    dumps,
    gadget_from_obj,
    gadget_to_obj,
    graph_from_obj,
    graph_to_obj,
    grid_from_obj,
    grid_to_obj,
    loads,
    signature_from_obj,
    signature_to_obj,
    sigset_from_obj,
    sigset_to_obj,
    transform_from_obj,
    transform_to_obj,
)
from holant.tensors import MixedTensor, SymBoolSignature, equality_signature
from holant.transforms import HoloTransform


def test_signature_byte_exact_round_trip():
    rng = np.random.default_rng(3)
    t = MixedTensor(3, 1, 2, rng.normal(size=27) + 1j * rng.normal(size=27))
    text = dumps(signature_to_obj(t))
    back = signature_from_obj(signature_to_obj(t))
    assert back.allclose(t, tol=0.0)
    assert dumps(signature_to_obj(back)) == text


def test_symbool_signature_preserved():
    s = SymBoolSignature((1.0, 0.5j, 0.0), 2, 0)
    obj = signature_to_obj(s)
    assert "symbool" in obj
    back = signature_from_obj(obj)
    assert isinstance(back, SymBoolSignature)
    assert back == s
    assert dumps(signature_to_obj(back)) == dumps(obj)


def test_signature_object_shape():
    obj = signature_to_obj(equality_signature(2, 1, 1))
    assert obj == {
        "q": 2,
        "left": 1,
        "right": 1,
        "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    }


def test_signature_errors():
    with pytest.raises(TypeError, match="not a signature: int"):
        signature_to_obj(3)
    with pytest.raises(ValueError, match="missing"):
        signature_from_obj({"q": 2, "left": 1, "right": 1})
    with pytest.raises(ValueError, match="pair"):
        signature_from_obj({"q": 1, "left": 1, "right": 0, "entries": [3.0]})
    # a count is an int or an integral float, never a bool or a string
    one = [[1.0, 0.0]]
    with pytest.raises(ValueError, match="signature 'left' must be an integer, got True"):
        signature_from_obj({"q": 1, "left": True, "right": 0, "entries": one})
    with pytest.raises(ValueError, match="signature 'q' must be an integer, got '1'"):
        signature_from_obj({"q": "1", "left": 1, "right": 0, "entries": one})
    assert signature_from_obj({"q": 1.0, "left": 1.0, "right": 0, "entries": one}).shape == (1, 0)


def test_sigset_round_trip():
    sigs = {"eq": equality_signature(2, 2, 0), "f": SymBoolSignature((0, 1, 0), 0, 2)}
    back = sigset_from_obj(sigset_to_obj(sigs))
    assert set(back) == {"eq", "f"}
    assert dumps(sigset_to_obj(back)) == dumps(sigset_to_obj(sigs))


def test_grid_round_trip():
    grid = SignatureGrid(
        q=2,
        vertices=("a", "b"),
        edges=((0, 1, 1, 1),),
        left_dangling=((1, 1),),
        right_dangling=(),
        loops=2,
    )
    obj = grid_to_obj(grid)
    back = grid_from_obj(obj)
    assert back == grid
    assert dumps(grid_to_obj(back)) == dumps(obj)
    assert obj["vertices"] == [{"sig": "a"}, {"sig": "b"}]


def test_gadget_round_trip():
    grid = SignatureGrid(q=2, vertices=("f",), edges=(), right_dangling=((0, 1), (0, 2)))
    gadget = QuantumGadget([(1.5 - 2.0j, grid), (0.25, grid)])
    obj = gadget_to_obj(gadget)
    back = gadget_from_obj(obj)
    assert back.terms[0][0] == 1.5 - 2.0j
    assert back.terms[1][1] == grid
    assert dumps(gadget_to_obj(back)) == dumps(obj)


def test_transform_round_trip():
    t = HoloTransform(2, np.array([[1.0, 2.0j], [0.0, 1.0]]))
    obj = transform_to_obj(t)
    back = transform_from_obj(obj)
    assert np.array_equal(back.matrix, t.matrix)
    assert dumps(transform_to_obj(back)) == dumps(obj)


def test_graph_round_trip():
    g = cycle_graph(5)
    obj = graph_to_obj(g)
    assert obj == {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
    assert graph_from_obj(obj) == g


def test_graph_from_obj_validates():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_obj({"n": 2, "edges": [[0, 5]]})
    with pytest.raises(ValueError, match="each number of graph edges must be an integer, got 1.2"):
        graph_from_obj({"n": 2, "edges": [[0, 1.2]]})
    assert graph_from_obj({"n": 2.0, "edges": [[0.0, 1]]}) == SimpleGraph(2, ((0, 1),))
    assert graph_from_obj({"n": 3}) == SimpleGraph(3, ())


# -- round-trip property -----------------------------------------------------------
#
# Non-finite entries are outside strict JSON by design (dumps passes
# allow_nan=False), so the strategies draw finite numbers only; -0.0 is
# among them, and arrays are compared by bytes so its sign must survive.

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.builds(complex, finite, finite)
names = st.text(alphabet="abcxyz_", min_size=1, max_size=4)


def through_text(to_obj, from_obj, x):
    return from_obj(loads(dumps(to_obj(x))))


def entries_bytes(values):
    return np.asarray(values, dtype=np.complex128).tobytes()


@st.composite
def tensors(draw):
    q = draw(st.integers(1, 3))
    left, right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entries = draw(st.lists(scalars, min_size=q ** (left + right), max_size=q ** (left + right)))
    return MixedTensor(q, left, right, entries)


@st.composite
def symbools(draw):
    left, right = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    values = draw(st.lists(scalars, min_size=left + right + 1, max_size=left + right + 1))
    return SymBoolSignature(tuple(values), left, right)


@st.composite
def grids(draw, q=None, profile=None):
    q = draw(st.integers(1, 4)) if q is None else q
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    port = st.integers(1, 3)
    stub = st.tuples(vertex, port)
    n_left, n_right = profile or (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    return SignatureGrid(
        q=q,
        vertices=tuple(draw(st.lists(names, min_size=n, max_size=n))),
        edges=tuple(draw(st.lists(st.tuples(vertex, port, vertex, port), max_size=4))),
        left_dangling=tuple(draw(st.lists(stub, min_size=n_left, max_size=n_left))),
        right_dangling=tuple(draw(st.lists(stub, min_size=n_right, max_size=n_right))),
        loops=draw(st.integers(0, 3)),
    )


@st.composite
def gadgets(draw):
    q, profile = draw(st.integers(1, 4)), (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    terms = draw(st.lists(st.tuples(scalars, grids(q, profile)), min_size=1, max_size=3))
    return QuantumGadget(tuple(terms))


def same_signature(a, b):
    if isinstance(a, SymBoolSignature):
        return (isinstance(b, SymBoolSignature) and (a.left, a.right) == (b.left, b.right)
                and entries_bytes(a.values) == entries_bytes(b.values))
    return (isinstance(b, MixedTensor) and (a.q, a.left, a.right) == (b.q, b.left, b.right)
            and a.entries.tobytes() == b.entries.tobytes())


@settings(max_examples=60, deadline=None)
@given(sig=st.one_of(tensors(), symbools()))
@example(sig=MixedTensor(1, 0, 1, [complex(-0.0, -0.0)]))
@example(sig=SymBoolSignature((complex(0.0, -0.0), -5e-324), 1, 0))
def test_signature_round_trip_property(sig):
    assert same_signature(through_text(signature_to_obj, signature_from_obj, sig), sig)


@settings(max_examples=40, deadline=None)
@given(sigs=st.dictionaries(names, st.one_of(tensors(), symbools()), max_size=3))
def test_sigset_round_trip_property(sigs):
    back = through_text(sigset_to_obj, sigset_from_obj, sigs)
    assert set(back) == set(sigs)  # dumps sorts keys: the text is canonical
    assert all(same_signature(back[k], sigs[k]) for k in sigs)


@settings(max_examples=60, deadline=None)
@given(grid=grids())
def test_grid_round_trip_property(grid):
    assert through_text(grid_to_obj, grid_from_obj, grid) == grid


@settings(max_examples=40, deadline=None)
@given(gadget=gadgets())
def test_gadget_round_trip_property(gadget):
    back = through_text(gadget_to_obj, gadget_from_obj, gadget)
    assert [g for _, g in back.terms] == [g for _, g in gadget.terms]
    assert entries_bytes([c for c, _ in back.terms]) == entries_bytes(
        [c for c, _ in gadget.terms]
    )


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 3), data=st.data())
def test_transform_round_trip_property(q, data):
    entries = data.draw(st.lists(scalars, min_size=q * q, max_size=q * q))
    with warnings.catch_warnings():
        # huge or nearly singular draws: cond overflows or is only warned about
        warnings.simplefilter("ignore")
        try:
            t = HoloTransform(q, np.reshape(entries, (q, q)))
        except ValueError:
            assume(False)
        back = through_text(transform_to_obj, transform_from_obj, t)
    assert back.q == t.q
    assert back.matrix.tobytes() == t.matrix.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 7), data=st.data())
def test_graph_round_trip_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = SimpleGraph(n, tuple(edges))
    assert through_text(graph_to_obj, graph_from_obj, g) == g
