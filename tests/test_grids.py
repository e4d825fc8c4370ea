"""Grid evaluation, gadget signatures, enumeration, and the polynomial."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import holant.contraction
import holant.grids
from holant import spans
from holant.homgraphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    hom_bindings,
    hom_count,
    hom_grid,
    path_graph,
)
from holant import (
    MixedTensor,
    disequality_signature,
    equality_signature,
    identity_signature,
    pair,
)
from holant.contraction import (
    BindingStacks,
    QuantumGadget,
    _check_cap,
    _contraction_plan,
    _einsum_path,
    derived_signature,
    derives,
    gadget_signature,
    holant_eval_contracted,
    stacked_signature,
)
from holant.grids import (
    WIRE_ID,
    SignatureGrid,
    _canonical_search,
    _components_all_dangle,
    _id_runs,
    _port_matchings,
    _unpack_edges,
    enumerate_gadgets,
    enumerate_grids,
    holant_polynomial,
)
from oracles import (
    SpecializedPlan,
    brute_gadget_signature,
    brute_holant_eval,
    oracle_contract,
    oracle_contraction_plan,
    oracle_grid_code,
    oracle_grid_labelings,
    oracle_signatures,
)


def random_tensor(rng, q, left, right):
    shape = (q,) * (left + right)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if rng.random() < 0.4:  # exercise the zero short-circuit path
        flat = arr.reshape(-1)
        kill = rng.random(flat.size) < 0.5
        flat[kill] = 0
    return MixedTensor(q, left, right, arr)


def random_closed_grid(rng, qmax=3, vmax=4, arity_max=3):
    """A random closed grid plus random bindings for its signatures."""
    q = int(rng.integers(1, qmax + 1))
    while True:
        n = int(rng.integers(0, vmax + 1))
        shapes = []
        for _ in range(n):
            a = int(rng.integers(0, arity_max + 1))
            l = int(rng.integers(0, a + 1))
            shapes.append((l, a - l))
        if sum(l for l, _ in shapes) == sum(r for _, r in shapes):
            break
    left_ports = [(v, i) for v, (l, _) in enumerate(shapes) for i in range(1, l + 1)]
    right_ports = [(v, j) for v, (_, r) in enumerate(shapes) for j in range(1, r + 1)]
    perm = rng.permutation(len(right_ports))
    edges = tuple(
        (lv, lp, right_ports[perm[k]][0], right_ports[perm[k]][1])
        for k, (lv, lp) in enumerate(left_ports)
    )
    names = [f"s{v}" for v in range(n)]
    bindings = {names[v]: random_tensor(rng, q, *shapes[v]) for v in range(n)}
    grid = SignatureGrid(
        q=q, vertices=tuple(names), edges=edges, loops=int(rng.integers(0, 2))
    )
    return grid, bindings


# -- evaluation semantics -------------------------------------------------


def test_empty_grid_and_loops():
    empty = SignatureGrid(q=3, vertices=(), edges=())
    assert holant_eval_contracted(empty, {}) == 1
    loop = SignatureGrid(q=3, vertices=(), edges=(), loops=1)
    assert holant_eval_contracted(loop, {}) == 3


def test_loop_count_is_refused_once_the_factor_overflows():
    # q**loops is a float until it reaches 2**1024, so a grid is refused
    # at construction exactly when loops >= 1024 / log2(q)
    for q, last in ((2, 1023), (3, 646), (16, 255)):
        grid = SignatureGrid(q=q, vertices=(), edges=(), loops=last)
        assert holant_eval_contracted(grid, {}) == float(q) ** last
        for loops in (last + 1, 10**400):
            with pytest.raises(ValueError, match=r"q\*\*loops is not a finite float"):
                SignatureGrid(q=q, vertices=(), edges=(), loops=loops)
    with pytest.raises(ValueError, match="loops"):
        SignatureGrid(q=5, vertices=(), edges=(), loops=1024)
    assert holant_eval_contracted(SignatureGrid(q=1, vertices=(), edges=(), loops=10**18), {}) == 1


def test_oracle_matches_closed_forms():
    # the brute evaluator the comparisons below trust, pinned by hand
    assert brute_holant_eval(SignatureGrid(q=3, vertices=(), edges=(), loops=2), {}) == 9
    for q in (1, 2, 4):
        g = SignatureGrid(q=q, vertices=("i",), edges=((0, 1, 0, 1),))
        assert brute_holant_eval(g, {"i": identity_signature(q)}) == q
    g = SignatureGrid(q=3, vertices=("a", "b"), edges=((0, 1, 1, 1), (0, 2, 1, 2)))
    b = {"a": disequality_signature(3, 2, 0), "b": disequality_signature(3, 0, 2)}
    assert brute_holant_eval(g, b) == 6


def test_identity_cycle_gives_q():
    # a single (1,1) vertex with its own output wired to its input: trace
    for q in (1, 2, 4):
        g = SignatureGrid(q=q, vertices=("i",), edges=((0, 1, 0, 1),))
        assert holant_eval_contracted(g, {"i": identity_signature(q)}) == q


def test_equality_pair_value():
    # two binary equalities wired in parallel give q
    g = SignatureGrid(q=3, vertices=("a", "b"), edges=((0, 1, 1, 1), (0, 2, 1, 2)))
    b = {"a": equality_signature(3, 2, 0), "b": equality_signature(3, 0, 2)}
    assert holant_eval_contracted(g, b) == 3
    # disequality against equality gives 0
    b2 = {"a": disequality_signature(3, 2, 0), "b": equality_signature(3, 0, 2)}
    assert holant_eval_contracted(g, b2) == 0
    # disequality against disequality counts ordered distinct pairs
    b3 = {"a": disequality_signature(3, 2, 0), "b": disequality_signature(3, 0, 2)}
    assert holant_eval_contracted(g, b3) == 6


def test_matrix_cycle_is_trace_of_power():
    rng = np.random.default_rng(31)
    q = 3
    a = random_tensor(rng, q, 1, 1)
    for k in (1, 2, 3, 4):
        g = SignatureGrid(
            q=q,
            vertices=("a",) * k,
            edges=tuple((v, 1, (v + 1) % k, 1) for v in range(k)),
        )
        want = np.trace(np.linalg.matrix_power(a.matrix(), k))
        assert abs(holant_eval_contracted(g, {"a": a}) - want) < 1e-9


def test_disconnected_grids_multiply():
    rng = np.random.default_rng(32)
    g1, b1 = random_closed_grid(rng)
    g2, b2 = random_closed_grid(rng)
    q = g1.q
    while g2.q != q:
        g2, b2 = random_closed_grid(rng)
    g2s = SignatureGrid(
        q=q,
        vertices=tuple("o" + s for s in g2.vertices),
        edges=tuple((u + len(g1.vertices), i, v + len(g1.vertices), j) for (u, i, v, j) in g2.edges),
        loops=g2.loops,
    )
    union = SignatureGrid(
        q=q,
        vertices=g1.vertices + g2s.vertices,
        edges=g1.edges + g2s.edges,
        loops=g1.loops + g2.loops,
    )
    b = dict(b1)
    b.update({"o" + s: t for s, t in b2.items()})
    v1, v2 = holant_eval_contracted(g1, b1), holant_eval_contracted(g2, b2)
    assert abs(holant_eval_contracted(union, b) - v1 * v2) < 1e-8 * (1 + abs(v1 * v2))


def test_validation_rejects_bad_port_usage():
    g = SignatureGrid(q=2, vertices=("e",), edges=((0, 1, 0, 1), (0, 1, 0, 2)))
    with pytest.raises(ValueError):
        holant_eval_contracted(g, {"e": equality_signature(2, 2, 2)})
    g2 = SignatureGrid(q=2, vertices=("e",), edges=())
    with pytest.raises(ValueError):
        holant_eval_contracted(g2, {"e": equality_signature(2, 1, 1)})
    stub = SignatureGrid(q=2, vertices=("e",), edges=(), left_dangling=((0, 1),), right_dangling=((0, 1),))
    with pytest.raises(ValueError, match="holant_eval_contracted needs a closed grid"):
        holant_eval_contracted(stub, {"e": equality_signature(2, 1, 1)})


def test_missing_binding_and_domain_mismatch():
    g = SignatureGrid(q=2, vertices=("e",), edges=((0, 1, 0, 1),))
    with pytest.raises(ValueError):
        holant_eval_contracted(g, {})
    with pytest.raises(ValueError):
        holant_eval_contracted(g, {"e": identity_signature(3)})
    wire = SignatureGrid(q=2, vertices=(WIRE_ID,), edges=((0, 1, 0, 1),))
    with pytest.raises(ValueError, match="'wire' is reserved for the identity signature"):
        holant_eval_contracted(wire, {WIRE_ID: 2 * identity_signature(2)})


# -- contraction engine agrees with the definition -------------------------


def test_contracted_agrees_with_brute_on_random_corpus():
    rng = np.random.default_rng(33)
    for _ in range(200):
        g, b = random_closed_grid(rng)
        v1 = brute_holant_eval(g, b)
        v2 = holant_eval_contracted(g, b)
        assert abs(v1 - v2) <= 1e-8 * (1 + abs(v1))


def test_gadget_signature_contract_agrees_with_brute():
    rng = np.random.default_rng(34)
    for _ in range(60):
        g, b = random_closed_grid(rng, qmax=3, vmax=3)
        # carve dangling stubs out of a closed grid by dropping edges
        if not g.edges:
            continue
        keep = list(g.edges)
        drop = keep.pop(int(rng.integers(0, len(keep))))
        u, i, v, j = drop
        grid = SignatureGrid(
            q=g.q,
            vertices=g.vertices,
            edges=tuple(keep),
            left_dangling=((u, i),),
            right_dangling=((v, j),),
            loops=g.loops,
        )
        k1 = brute_gadget_signature(grid, b)
        k2 = gadget_signature(grid, b)
        assert k1.allclose(k2, 1e-8 * (1 + k1.norm()))


def test_single_vertex_gadget_signature_is_the_signature():
    rng = np.random.default_rng(35)
    t = random_tensor(rng, 3, 2, 1)
    g = SignatureGrid(
        q=3,
        vertices=("f",),
        edges=(),
        left_dangling=((0, 1), (0, 2)),
        right_dangling=((0, 1),),
    )
    assert gadget_signature(g, {"f": t}).allclose(t, 0)


def test_wire_gadget_signature_is_identity():
    g = SignatureGrid(
        q=4,
        vertices=("wire",),
        edges=(),
        left_dangling=((0, 1),),
        right_dangling=((0, 1),),
    )
    assert gadget_signature(g, {}).allclose(identity_signature(4), 0)


def test_dangling_slot_order_transposes_signature():
    rng = np.random.default_rng(36)
    t = random_tensor(rng, 2, 0, 2)
    base = dict(q=2, vertices=("f",), edges=())
    g12 = SignatureGrid(**base, right_dangling=((0, 1), (0, 2)))
    g21 = SignatureGrid(**base, right_dangling=((0, 2), (0, 1)))
    k12 = gadget_signature(g12, {"f": t})
    k21 = gadget_signature(g21, {"f": t})
    assert np.allclose(k12.array, k21.array.T)


def test_reordered_signature_refuses_another_structure():
    t = MixedTensor(2, 1, 1, np.arange(4.0).reshape(2, 2))
    g = SignatureGrid(
        q=2, vertices=("a", "a"), edges=((0, 1, 1, 1),),
        left_dangling=((1, 1),), right_dangling=((0, 1),),
    )
    # derived_signature takes and returns a stack of signatures, here
    # a batch of one
    sig = gadget_signature(g, {"a": t}).array[None]
    assert derives(g, g) == (None, None)
    assert derived_signature(sig, *derives(g, g)).tobytes() == sig.tobytes()
    # a loop-free grid derives its loop copies; a looped one only itself
    looped = dataclasses.replace(g, loops=2)
    want = gadget_signature(looped, {"a": t}).array[None]
    assert derives(g, looped) == (None, 4.0) and derives(looped, looped) == (None, None)
    assert derived_signature(sig, *derives(g, looped)).tobytes() == want.tobytes()
    assert derived_signature(want, *derives(looped, looped)).tobytes() == want.tobytes()
    # derives is the one rule of what derived_signature may be given
    for grid, target in (
        (g, dataclasses.replace(g, edges=((1, 1, 0, 1),))),
        (g, dataclasses.replace(g, left_dangling=((0, 1),))),
        (g, dataclasses.replace(g, right_dangling=((1, 1),))),
        (g, dataclasses.replace(g, q=3)),
        (looped, g),
        (looped, dataclasses.replace(g, loops=1)),
    ):
        assert not derives(grid, target)


def test_loop_copies_keep_signed_zeros():
    # stacked_signature returns x * q**loops for the product x of its
    # steps, a complex multiply even at loops 0: (-0-0j)*1 is 0-0j, and
    # (0-0j)*3 is 0+0j where (-0-0j)*3 is 0-0j, so scaling the loop-free
    # signature by q**loops as a complex would flip the sign of a zero
    x = np.array([complex(-0.0, -0.0), complex(3.0, -0.0), complex(-0.0, -2.0)])
    g = SignatureGrid(q=3, vertices=("a",), edges=(), right_dangling=((0, 1),))
    sig = x * 1
    for loops in (1, 2):
        want = (x * 3**loops).tobytes()
        assert (sig * 3**loops).tobytes() != want
        target = dataclasses.replace(g, loops=loops)
        assert derived_signature(sig[None], *derives(g, target)).tobytes() == want
    # the walker derives a contracted grid's loop copy bitwise too
    bindings = {"a": MixedTensor(3, 0, 1, x)}
    grids = [g, dataclasses.replace(g, loops=1)]
    got = [row[1].tobytes() for row in spans.structure_signatures(grids, bindings)]
    assert got == [row[1].tobytes() for row in oracle_signatures(grids, bindings)]


def test_pairing_equals_holant_of_wired_closure():
    rng = np.random.default_rng(37)
    for _ in range(20):
        q = int(rng.integers(1, 4))
        l, r = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        a = random_tensor(rng, q, l, r)
        b = random_tensor(rng, q, r, l)
        # a's left slots onto b's right slots, b's left slots onto a's right slots
        closed = SignatureGrid(
            q=q,
            vertices=("a", "b"),
            edges=tuple((0, i, 1, i) for i in range(1, l + 1))
            + tuple((1, j, 0, j) for j in range(1, r + 1)),
        )
        val = holant_eval_contracted(closed, {"a": a, "b": b})
        want = pair(a, b)
        assert abs(val - want) <= 1e-9 * (1 + abs(want))


def test_quantum_gadget_signature_is_linear():
    rng = np.random.default_rng(40)
    t = random_tensor(rng, 2, 1, 1)
    g = SignatureGrid(
        q=2, vertices=("f",), edges=(), left_dangling=((0, 1),), right_dangling=((0, 1),)
    )
    wire = SignatureGrid(
        q=2, vertices=("wire",), edges=(), left_dangling=((0, 1),), right_dangling=((0, 1),)
    )
    qg = QuantumGadget(((2.0, g), (-1.0, wire)))
    got = qg.signature({"f": t})
    want = 2 * t.array - np.eye(2)
    assert np.allclose(got.array, want)
    with pytest.raises(ValueError):
        QuantumGadget(())
    with pytest.raises(ValueError):
        QuantumGadget(((1.0, g), (1.0, SignatureGrid(q=2, vertices=(), edges=()))))


# -- planned contraction replays the greedy contraction exactly --------------


def test_contracted_equals_oracle_on_closed_family():
    sigs = [("s0", (1, 1)), ("s1", (2, 1)), ("s2", (1, 2))]
    grids = list(enumerate_grids(sigs, 4, q=3))
    assert len(grids) == 600
    rng = np.random.default_rng(41)
    _contraction_plan.cache_clear()
    for _ in range(2):  # plans made on the first pass are replayed on the second
        fs = {sid: random_tensor(rng, 3, *sh) for sid, sh in sigs}
        for g in grids:
            assert holant_eval_contracted(g, fs) == complex(oracle_contract(g, fs))
    # each structure comes with loops 0 and 1, which share a plan; every
    # call of the second pass hits
    info = _contraction_plan.cache_info()
    assert (info.misses, info.hits) == (300, 2 * len(grids) - 300)


def test_gadget_signature_equals_oracle_on_counterexample_family():
    sigs = [("neq", (2, 0)), ("f", (0, 4))]
    gadgets = list(enumerate_gadgets(sigs, (4, 0), 5, q=2))
    assert len(gadgets) == 1548
    rng = np.random.default_rng(42)
    _contraction_plan.cache_clear()
    for _ in range(2):
        fs = {"neq": disequality_signature(2, 2, 0), "f": random_tensor(rng, 2, 0, 4)}
        for g in gadgets:
            assert np.array_equal(gadget_signature(g, fs).array, oracle_contract(g, fs))
    # gadgets that differ only in the order of their stubs share a plan
    info = _contraction_plan.cache_info()
    assert (info.misses, info.hits) == (65, 2 * len(gadgets) - 65)


@st.composite
def contraction_cases(draw):
    shapes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3))
    sigs = [(f"s{k}", sh) for k, sh in enumerate(shapes)]
    profile = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    max_vertices = draw(st.integers(0, 3))
    q = draw(st.integers(1, 3))
    return sigs, profile, max_vertices, q, draw(st.integers(0, 2**32 - 1))


def test_one_entry_contractions_round_as_the_oracle():
    # at q = 1 every tensor holds one entry, and numpy rounds a product of
    # one-entry arrays by the path it takes: np.matmul against np.dot
    # differ in the sign of a zero, broadcasting against np.multiply.outer
    # in the last bit; the batched executor must give the oracle's bits
    rng = np.random.default_rng(44)
    sigs = [("a", (1, 1)), ("b", (1, 2)), ("c", (2, 1))]
    entries = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    entries[::3] = complex(-0.0, -0.0)
    entries[1::4] = complex(0.0, -0.0)
    for k in range(8):
        fs = {sid: MixedTensor(1, *sh, entries[3 * k + n]) for n, (sid, sh) in enumerate(sigs)}
        for g in enumerate_gadgets(sigs, (2, 2), 2, 1):
            assert gadget_signature(g, fs).array.tobytes() == oracle_contract(g, fs).tobytes()
        for g in enumerate_grids(sigs, 3, 1):
            assert gadget_signature(g, fs).array.tobytes() == oracle_contract(g, fs).tobytes()


@settings(max_examples=40, deadline=None)
@given(case=contraction_cases())
def test_contraction_equals_oracle_on_random_sets(case):
    sigs, profile, max_vertices, q, seed = case
    rng = np.random.default_rng(seed)
    fs = {sid: random_tensor(rng, q, *sh) for sid, sh in sigs}
    if profile == (0, 0):
        for g in itertools.islice(enumerate_grids(sigs, max_vertices, q), 150):
            assert holant_eval_contracted(g, fs) == complex(oracle_contract(g, fs))
    else:
        for g in itertools.islice(enumerate_gadgets(sigs, profile, max_vertices, q), 150):
            assert np.array_equal(gadget_signature(g, fs).array, oracle_contract(g, fs))


def specialized_plan(grid, shapes):
    """The cached plan of grid's structure, checked against the cap at
    grid.q and specialized to grid as oracle_contraction_plan plans."""
    q = grid.q
    plan = _contraction_plan(
        grid.vertices, grid.edges,
        tuple(sorted(grid.left_dangling)), tuple(sorted(grid.right_dangling)),
        shapes, min(q, 2),
    )
    _check_cap(plan, q)
    # the plan's axes are batch-shifted: axis 0 of each stack is the batch
    traces = tuple((nid, axis1 - 1, axis2 - 1) for nid, axis1, axis2 in plan.traces)
    steps = []
    for u, axes_u, v, axes_v, shared, rank in plan.steps:
        assert axes_u[0] == axes_v[0] == 0
        perm_u, perm_v = (tuple(p - 1 for p in axes[1:]) for axes in (axes_u, axes_v))
        keep_u, keep_v = len(perm_u) - shared, len(perm_v) - shared
        assert keep_u + keep_v == rank
        steps.append((
            u, perm_u, (q**keep_u, q**shared), v, perm_v, (q**shared, q**keep_v), (q,) * rank
        ))
    perm = tuple(plan.left_axis[s] for s in grid.left_dangling) + tuple(
        plan.right_axis[s] for s in grid.right_dangling
    )
    return SpecializedPlan(traces, tuple(steps), plan.outer, perm, q**grid.loops)


def plan_or_error(plan, grid, shapes):
    try:
        return plan(grid, shapes)
    except ValueError as exc:
        return f"ValueError: {exc}"


# (signatures, profile, max_vertices): the test families above, the
# arity-4 counterexample's, and a few with wires, unary and empty shapes
PLANNED_FAMILIES = [
    ([("s0", (1, 1)), ("s1", (2, 1)), ("s2", (1, 2))], (0, 0), 4),
    ([("neq", (2, 0)), ("f", (0, 4))], (0, 0), 5),
    ([("neq", (2, 0)), ("f", (0, 4))], (4, 0), 5),
    ([("a", (2, 2))], (0, 0), 3),
    ([("a", (2, 2))], (2, 2), 2),
    ([("x", (2, 1)), ("y", (0, 3))], (1, 2), 3),
    ([("e", (0, 0)), ("p", (1, 0)), ("r", (1, 1)), ("t", (0, 2))], (1, 1), 3),
]


@functools.cache
def planned_family(k):
    sigs, profile, max_vertices = PLANNED_FAMILIES[k]
    if profile == (0, 0):
        return list(enumerate_grids(sigs, max_vertices, 2))
    return list(enumerate_gadgets(sigs, profile, max_vertices, 2))


@st.composite
def planned_grids(draw):
    """A grid or gadget from the enumerators, respecified with its edges
    and stubs shuffled, another q and another loop count, and its shapes
    as stacked_signature passes them."""
    k = draw(st.integers(0, len(PLANNED_FAMILIES) - 1))
    g = draw(st.sampled_from(planned_family(k)))
    shape_of = dict(PLANNED_FAMILIES[k][0], **{WIRE_ID: (1, 1)})
    grid = SignatureGrid(
        q=draw(st.sampled_from([1, 2, 3, 10, 16])),
        vertices=g.vertices,
        edges=draw(st.permutations(g.edges)),
        left_dangling=draw(st.permutations(g.left_dangling)),
        right_dangling=draw(st.permutations(g.right_dangling)),
        loops=draw(st.integers(0, 3)),
    )
    return grid, tuple(sorted({sid: shape_of[sid] for sid in grid.vertices}.items()))


@settings(max_examples=200, deadline=None)
@given(case=planned_grids())
def test_cached_plan_equals_reference_planner(case):
    grid, shapes = case
    assert plan_or_error(specialized_plan, grid, shapes) == plan_or_error(
        oracle_contraction_plan, grid, shapes
    )


def test_plan_cap_is_checked_at_each_q():
    # both q share one plan, and each checks the cap at its own q
    shapes = (("u", (1, 3)), ("v", (0, 5)))
    for vertices, edges, stubs, message in [
        # contracting u and v leaves 3 + 4 free axes: 2**7 entries at
        # q=2, 16**7 at q=16, over the cap
        (("u", "v"), ((0, 1, 1, 1),), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5)),
         f"intermediate tensor of {16**7} entries exceeds the cap"),
        # two unjoined v's are multiplied out to 10 axes: 2**10 and 16**10
        (("v", "v"), (), tuple((v, j) for v in (0, 1) for j in range(1, 6)),
         "outer product exceeds the entry cap"),
    ]:
        small, large = (
            SignatureGrid(q=q, vertices=vertices, edges=edges, right_dangling=stubs)
            for q in (2, 16)
        )
        _contraction_plan.cache_clear()
        assert specialized_plan(small, shapes) == oracle_contraction_plan(small, shapes)
        assert plan_or_error(specialized_plan, large, shapes) == plan_or_error(
            oracle_contraction_plan, large, shapes
        ) == f"ValueError: {message}"
        assert _contraction_plan.cache_info().misses == 1
    # through the public path too, where a missed check would fail to
    # allocate 16**10 entries rather than build them
    with pytest.raises(ValueError, match=f"^{message}$"):
        gadget_signature(large, {"v": MixedTensor.zeros(16, 0, 5)})


def test_invalid_grid_is_refused_on_every_call():
    # the plan cache keeps no failure: a grid using a port twice is refused
    # on every call, also after a valid grid on the same vertices is planned
    bindings = {"a": MixedTensor.from_matrix(np.eye(2))}
    valid = SignatureGrid(q=2, vertices=("a",), edges=((0, 1, 0, 1),))
    twice = dataclasses.replace(valid, edges=valid.edges * 2)
    _contraction_plan.cache_clear()
    for grid in (twice, valid, twice, valid, twice):
        if grid is valid:
            assert holant_eval_contracted(grid, bindings) == 2
        else:
            with pytest.raises(ValueError, match="^left port 1 of vertex 0 used 2 times$"):
                holant_eval_contracted(grid, bindings)
    assert _contraction_plan.cache_info().currsize == 1
    # plans are keyed on sorted stubs, but the message names the first
    # fault in the grid's own stub order
    bad = SignatureGrid(q=2, vertices=("a",), edges=(), left_dangling=((0, 5), (0, 3)),
                        right_dangling=((0, 1),))
    with pytest.raises(ValueError) as want:
        bad.validate({"a": (1, 1)})
    assert str(want.value).startswith("port 5 out of range")
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            gadget_signature(bad, bindings)


def test_plan_cache_keys_on_shapes():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    loop = SignatureGrid(q=2, vertices=("a",), edges=((0, 1, 0, 1),))
    stub = SignatureGrid(
        q=2, vertices=("a",), edges=(), left_dangling=((0, 1),), right_dangling=((0, 1),)
    )
    other_shape = {"a": MixedTensor(2, 2, 1, np.ones(8))}
    assert holant_eval_contracted(loop, {"a": MixedTensor.from_matrix(m)}) == 5
    assert np.array_equal(gadget_signature(stub, {"a": MixedTensor.from_matrix(m)}).array, m)
    with pytest.raises(ValueError):
        holant_eval_contracted(loop, other_shape)
    with pytest.raises(ValueError):
        gadget_signature(stub, other_shape)
    assert holant_eval_contracted(loop, {"a": MixedTensor.from_matrix(2 * m)}) == 10
    assert np.array_equal(gadget_signature(stub, {"a": MixedTensor.from_matrix(-m)}).array, -m)


# -- equality signatures as shared indices ----------------------------------


def build_mix(spec):
    """A closed grid and its bindings from a drawn spec: equality ids are
    bound to equality_signature, the others to seeded random tensors.

    spec is (q, vertices, edges, loops, seed); each vertex is
    (id, shape, bound to an equality).
    """
    q, vertices, edges, loops, seed = spec
    rng = np.random.default_rng(seed)
    bindings = {}
    for sid, shape, equal in vertices:
        if sid != WIRE_ID and sid not in bindings:
            bindings[sid] = equality_signature(q, *shape) if equal else random_tensor(rng, q, *shape)
    grid = SignatureGrid(q, tuple(sid for sid, _, _ in vertices), edges, loops=loops)
    return grid, bindings


@st.composite
def equality_mixes(draw):
    """Closed grids with an equality id "e0", a random id "f0", maybe more
    of each, maybe wires, and unary padding that balances the ports."""
    q = draw(st.integers(2, 3))
    arity = st.integers(0, 3).flatmap(lambda a: st.tuples(st.integers(0, a), st.just(a)))
    pool = {}
    for sid, equal in (("e0", True), ("e1", True), ("f0", False), ("f1", False)):
        l, a = draw(arity)
        pool[sid] = ((l, a - l), equal)
    picks = ["e0", "f0"] + draw(st.lists(st.sampled_from(sorted(pool)), max_size=3))
    vertices = [(sid, *pool[sid]) for sid in draw(st.permutations(picks))]
    vertices += [(WIRE_ID, (1, 1), True)] * draw(st.integers(0, 2))
    left = sum(l for _, (l, _), _ in vertices)
    right = sum(r for _, (_, r), _ in vertices)
    pad_equal = draw(st.booleans())
    vertices += [("pl", (1, 0), pad_equal)] * (right - left)
    vertices += [("pr", (0, 1), pad_equal)] * (left - right)
    ports_l = [(v, i) for v, (_, (l, _), _) in enumerate(vertices) for i in range(1, l + 1)]
    ports_r = [(v, j) for v, (_, (_, r), _) in enumerate(vertices) for j in range(1, r + 1)]
    assume(len(ports_l) <= 7)
    matched = draw(st.permutations(ports_r))
    edges = tuple((u, i, v, j) for (u, i), (v, j) in zip(ports_l, matched))
    return q, tuple(vertices), edges, draw(st.integers(0, 1)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(spec=equality_mixes())
# a self-edge on an equality vertex
@example(spec=(3, (("e0", (1, 1), True), ("f0", (1, 1), False)),
               ((0, 1, 0, 1), (1, 1, 1, 1)), 0, 1))
# an arity-0 equality, whose value is q
@example(spec=(2, (("e0", (0, 0), True), ("f0", (1, 1), False)), ((1, 1, 1, 1),), 1, 2))
# a wire between an equality and a random tensor
@example(spec=(3, (("e0", (1, 1), True), (WIRE_ID, (1, 1), True), ("f0", (1, 1), False)),
               ((0, 1, 1, 1), (1, 1, 2, 1), (2, 1, 0, 1)), 0, 3))
# one tensor with both axes in one class: f0 leaves and re-enters e0
@example(spec=(3, (("e0", (2, 2), True), ("f0", (1, 1), False), ("f1", (1, 1), False)),
               ((0, 1, 1, 1), (1, 1, 0, 1), (0, 2, 2, 1), (2, 1, 0, 2)), 0, 4))
def test_equality_mixes_match_brute_force(spec):
    grid, bindings = build_mix(spec)
    want = brute_holant_eval(grid, bindings)
    # rounding error is bounded by a multiple of the sum of |terms|, the
    # value of the grid under the entrywise absolute bindings
    scale = brute_holant_eval(
        grid, {sid: MixedTensor(t.q, t.left, t.right, np.abs(t.array)) for sid, t in bindings.items()}
    ).real
    # every step in einsum's loop, then every step with its operands
    # paired, each under an empty step memo: its keys do not hold which
    # way a step ran, so a shared memo would answer the second setting
    for loop_max in (holant.contraction.EINSUM_LOOP_MAX, 0):
        with (mock.patch.object(holant.contraction, "EINSUM_LOOP_MAX", loop_max),
              mock.patch.object(holant.contraction, "step_memo", holant.contraction.StepMemo())):
            got = holant_eval_contracted(grid, bindings)
        assert abs(got - want) <= 1e-9 * scale


def test_equality_is_decided_from_the_bits():
    # the 4-cycle's hom grid with a random "A": an exact equality takes
    # the elimination route; one entry 1 ulp off, or a -0.0, takes the
    # pairwise route and gives the pairwise plan's value bit for bit
    grid = hom_grid(cycle_graph(4), 3)
    rng = np.random.default_rng(7)
    a = random_tensor(rng, 3, 0, 2)
    exact = equality_signature(3, 2, 0)
    ulp = exact.array.copy()
    ulp[1, 1] = np.nextafter(1.0, 2.0)
    neg = exact.array.copy()
    neg[0, 2] = -0.0
    shapes = (("A", (0, 2)), ("eq2", (2, 0)))
    for eq2, equal in ((exact, ("eq2",)), (MixedTensor(3, 2, 0, ulp), ()), (MixedTensor(3, 2, 0, neg), ())):
        bindings = {"A": a, "eq2": eq2}
        _contraction_plan.cache_clear()
        got = holant_eval_contracted(grid, bindings)
        plan = _contraction_plan(grid.vertices, grid.edges, (), (), shapes, 2, equal)
        assert _contraction_plan.cache_info().hits == 1
        assert bool(plan.eliminations) == bool(equal)
        if equal:
            assert abs(got - brute_holant_eval(grid, bindings)) <= 1e-12 * max(1, abs(got))
        else:
            want = complex(oracle_contract(grid, bindings))
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_equality_verdict_is_kept_on_the_tensor():
    # the standard constructors mark their results; any other tensor is
    # decided from its bits on the first call, and the verdict is kept
    for t in (equality_signature(3, 2, 1), equality_signature(4, 0, 0), identity_signature(3)):
        assert t._equality is True
        copy = MixedTensor(t.q, t.left, t.right, t.array)
        assert not hasattr(copy, "_equality")
        assert copy.is_equality() and copy._equality is True
    for t in (disequality_signature(3, 1, 1), MixedTensor.scalar(3, 2), MixedTensor.zeros(2, 0, 2)):
        assert not t.is_equality() and t._equality is False
    # a hom grid's equality bindings read from values, not built by
    # equality_signature, still take the elimination route
    grid = hom_grid(cycle_graph(4), 3)
    bindings = {"A": MixedTensor(3, 0, 2, np.ones((3, 3)) - np.eye(3)),
                "eq2": MixedTensor(3, 2, 0, np.eye(3))}
    _contraction_plan.cache_clear()
    assert holant_eval_contracted(grid, bindings) == 18
    shapes = (("A", (0, 2)), ("eq2", (2, 0)))
    assert _contraction_plan(grid.vertices, grid.edges, (), (), shapes, 2, ("eq2",)).eliminations
    assert _contraction_plan.cache_info().hits == 1


def test_only_real_rows_are_eliminated_in_float64(monkeypatch):
    # the 4-cycle's hom grid at q = 3 with "A" the adjacency of K3: read
    # in float64 as it is, and with an imaginary -0.0 on one entry, but
    # kept in complex128 once that entry's imaginary part is 5e-324, the
    # smallest nonzero float, alone or stacked with a real set; and a
    # step that reads a real and a complex id runs in complex128
    einsum = np.einsum
    calls = []

    def recording(subscripts, *operands, **kwargs):
        out = einsum(subscripts, *operands, **kwargs)
        calls.append(({op.dtype.name for op in operands}, out.dtype.name))
        return out

    monkeypatch.setattr(np, "einsum", recording)
    monkeypatch.setattr(holant.contraction, "step_memo", holant.contraction.StepMemo())
    grid = hom_grid(cycle_graph(4), 3)
    adjacency = np.ones((3, 3)) - np.eye(3)

    def with_imaginary(part, at=(0, 1)):
        entries = adjacency.astype(np.complex128)
        entries.imag[at] = part
        return MixedTensor(3, 0, 2, entries)

    real, negative_zero, tiny = MixedTensor(3, 0, 2, adjacency), with_imaginary(-0.0), with_imaginary(5e-324)
    assert np.signbit(negative_zero.array.imag).sum() == 1 and tiny.array.imag[0, 1] == 5e-324
    eq2 = equality_signature(3, 2, 0)
    values = {}
    for name, a, dtype in (("real", real, "float64"), ("negative zero", negative_zero, "float64"),
                           ("tiny", tiny, "complex128")):
        calls.clear()
        values[name] = holant_eval_contracted(grid, {"A": a, "eq2": eq2})
        assert calls and all(ins == {dtype} and out == dtype for ins, out in calls), name
    assert np.array(values["negative zero"]).tobytes() == np.array(values["real"]).tobytes()
    assert values["real"] == values["tiny"].real == 18
    calls.clear()
    rows = stacked_signature(grid, BindingStacks([{"A": real, "eq2": eq2}, {"A": tiny, "eq2": eq2}]))
    assert [row.tobytes() for row in rows] == [np.array(values[k]).tobytes() for k in ("real", "tiny")]
    assert {out for _, out in calls} == {"float64", "complex128"}
    # a triangle with edges A, A and B: eliminating a vertex on the B
    # edge multiplies a float64 A by a complex B
    triangle = SignatureGrid(3, ("eq2",) * 3 + ("A", "A", "B"), (
        (0, 1, 3, 1), (1, 1, 3, 2), (1, 2, 4, 1), (2, 1, 4, 2), (0, 2, 5, 1), (2, 2, 5, 2)))
    rng = np.random.default_rng(17)
    bindings = {"A": real, "B": random_tensor(rng, 3, 0, 2), "eq2": eq2}
    calls.clear()
    got = holant_eval_contracted(triangle, bindings)
    assert ({"float64", "complex128"}, "complex128") in calls
    assert abs(got - brute_holant_eval(triangle, bindings)) <= 1e-12 * max(1, abs(got))


def test_large_elimination_steps_pair_their_operands(monkeypatch):
    # at q = 40 a width-2 step sums over 40**3 > EINSUM_LOOP_MAX value
    # tuples, so einsum pairs its operands through BLAS; the counts equal
    # those of the einsum loop and of the pairwise plan.  Each setting
    # runs under an empty step memo, so the looped one runs its own steps
    n = 40
    cubic = [(v, (v + 1) % n) for v in range(n)] + [(v, v + n // 2) for v in range(n // 2)]
    targets = [cycle_graph(n), SimpleGraph(n, tuple(cubic))]
    xs = [cycle_graph(4), complete_graph(4), path_graph(5), SimpleGraph(5, ((0, 1), (1, 2), (2, 0), (2, 3)))]
    assert n**3 > holant.contraction.EINSUM_LOOP_MAX
    cases = []
    for g in targets:
        a = np.zeros((n, n))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1
        cases += [(hom_grid(x, n), hom_bindings(a, x.max_degree())) for x in xs]
    einsum = np.einsum
    runs = []
    for loop_max in (holant.contraction.EINSUM_LOOP_MAX, n**8):
        paths = []

        def recording(*args, **kwargs):
            paths.append(kwargs.get("optimize", False))
            return einsum(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(holant.contraction, "EINSUM_LOOP_MAX", loop_max)
            m.setattr(holant.contraction, "step_memo", holant.contraction.StepMemo())
            m.setattr(np, "einsum", recording)
            runs.append(([holant_eval_contracted(grid, bindings) for grid, bindings in cases], paths))
    (paired, paired_paths), (looped, looped_paths) = runs
    # some paired step is given a path; every looped step runs in einsum's loop
    assert any(path is not False for path in paired_paths)
    assert looped_paths and all(path is False for path in looped_paths)
    assert paired == looped == [complex(oracle_contract(grid, bindings)) for grid, bindings in cases]
    # closed walks of length 4 on a cycle of 40 vertices
    assert hom_count(cycle_graph(4), cycle_graph(n)) == 6 * n


def test_kept_einsum_paths_give_the_bits_of_optimize_true():
    # the wide steps of hom counts at q = 16: np.einsum given the kept
    # greedy path returns the bytes that optimize=True returns
    rng = np.random.default_rng(15)
    cases = (("ac,ad,ab->bcd", 2, 2, 2), ("ab,bc,bd->acd", 2, 2, 2),
             ("ab,ac,abd->bcd", 2, 2, 3), ("ab,acd,acd->bcd", 2, 3, 3))
    _einsum_path.cache_clear()
    for _ in range(2):
        for subscripts, *ranks in cases:
            ops = [rng.normal(size=(16,) * r) + 1j * rng.normal(size=(16,) * r) for r in ranks]
            path = _einsum_path(subscripts, *[op.shape for op in ops])
            assert path == np.einsum_path(subscripts, *ops, optimize=True)[0]
            want = np.einsum(subscripts, *ops, optimize=True)
            assert np.einsum(subscripts, *ops, optimize=path).tobytes() == want.tobytes()
    info = _einsum_path.cache_info()
    assert (info.misses, info.hits) == (len(cases), len(cases))


# -- enumeration ------------------------------------------------------------


def oracle_count_closed_grids(sigs, max_vertices):
    """Isomorphism classes of closed grids, by a second, unpruned method.

    Enumerates every vertex-labeled grid (all signature sequences, all
    port bijections) and keeps a matching iff it is lexicographically
    minimal among all signature-preserving relabelings.  Slow, simple.
    """
    total = 0
    ids = sorted(s for s, _ in sigs)
    shape_of = dict(sigs)
    for n in range(max_vertices + 1):
        for seq in itertools.combinations_with_replacement(ids, n):
            shapes = [shape_of[s] for s in seq]
            lports = [(v, i) for v, (l, _) in enumerate(shapes) for i in range(1, l + 1)]
            rports = [(v, j) for v, (_, r) in enumerate(shapes) for j in range(1, r + 1)]
            if len(lports) != len(rports):
                continue
            perms = [
                p
                for p in itertools.permutations(range(n))
                if all(seq[p[v]] == seq[v] for v in range(n))
            ]
            for rperm in itertools.permutations(range(len(rports))):
                edges = tuple(
                    sorted(
                        (lv, lp, rports[rperm[k]][0], rports[rperm[k]][1])
                        for k, (lv, lp) in enumerate(lports)
                    )
                )
                canonical = True
                for p in perms:
                    relab = tuple(sorted((p[u], i, p[v], j) for (u, i, v, j) in edges))
                    if relab < edges:
                        canonical = False
                        break
                if canonical:
                    total += 1
    return total


@pytest.mark.parametrize(
    "sigs,max_vertices",
    [
        ([("a", (1, 1))], 4),
        ([("ne", (2, 0)), ("f", (0, 4))], 5),
        ([("x", (2, 1)), ("y", (0, 3))], 4),
        ([("p", (1, 0)), ("q", (0, 1)), ("r", (1, 1))], 3),
    ],
)
def test_enumeration_count_matches_unpruned_oracle(sigs, max_vertices):
    got = [g for g in enumerate_grids(sigs, max_vertices, q=2) if g.loops == 0]
    assert len(got) == oracle_count_closed_grids(sigs, max_vertices)


def test_enumeration_single_matrix_counts_partitions():
    # closed grids over one (1,1) signature are disjoint unions of cycles,
    # so classes with <= n vertices count partitions of 0..n
    partitions = [1, 1, 2, 3, 5, 7, 11]
    for n in (3, 5):
        got = [g for g in enumerate_grids([("a", (1, 1))], n, q=2) if g.loops == 0]
        assert len(got) == sum(partitions[: n + 1])


def test_enumeration_yields_valid_distinct_deterministic():
    sigs = [("ne", (2, 0)), ("f", (0, 4))]
    run1 = list(enumerate_grids(sigs, 6, q=2))
    run2 = list(enumerate_grids(sigs, 6, q=2))
    assert run1 == run2
    seen = set()
    for g in run1:
        g.validate(dict(sigs))
        assert g.is_closed()
        key = (g.vertices, g.edges, g.loops)
        assert key not in seen
        seen.add(key)
    # loop variants come in pairs
    assert len(run1) == 2 * len([g for g in run1 if g.loops == 0])


def test_enumeration_loop_cap():
    grids = list(enumerate_grids([], 0, q=2))
    assert [g.loops for g in grids] == [0, 1]


def test_gadget_enumeration_profiles_and_wires():
    # profile (1,1) over nothing: just the bare wire
    gs = list(enumerate_gadgets([], (1, 1), 0, q=3))
    assert len(gs) == 1
    assert gs[0].vertices == ("wire",)
    assert gadget_signature(gs[0], {}).allclose(identity_signature(3), 0)
    # profile (1,1) over one matrix signature: wire, a, a^2, ... by count
    gs = list(enumerate_gadgets([("a", (1, 1))], (1, 1), 2, q=2))
    assert len(gs) == 3
    rng = np.random.default_rng(41)
    a = random_tensor(rng, 2, 1, 1)
    sigs = sorted(
        (len(g.vertices) - list(g.vertices).count("wire"), gadget_signature(g, {"a": a}))
        for g in gs
        if True
    )
    mats = [s.matrix() for _, s in sigs]
    assert np.allclose(mats[0], np.eye(2))
    assert np.allclose(mats[1], a.matrix())
    assert np.allclose(mats[2], a.matrix() @ a.matrix())


def test_gadget_enumeration_validates_and_dedups():
    sigs = [("ne", (2, 0)), ("f", (0, 4))]
    gs = list(enumerate_gadgets(sigs, (0, 4), 3, q=2))
    shapes = dict(sigs)
    shapes["wire"] = (1, 1)
    seen = set()
    for g in gs:
        g.validate(shapes)
        assert g.profile == (0, 4)
        key = (g.vertices, g.edges, g.left_dangling, g.right_dangling)
        assert key not in seen
        seen.add(key)
    # every component must reach a dangling stub: no closed pieces
    assert all(len(g.vertices) > 0 for g in gs)


def test_gadget_enumeration_no_closed_components():
    # a (0,0)-shaped signature can only appear as a closed component
    gs = list(enumerate_gadgets([("s", (0, 0)), ("a", (1, 1))], (1, 1), 2, q=2))
    assert all("s" not in g.vertices for g in gs)


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: SignatureGrid(q=0, vertices=(), edges=()), "domain size must be positive"),
        (lambda: SignatureGrid(q=2, vertices=(), edges=(), loops=-1), "loop count must be nonnegative"),
        (lambda: next(enumerate_gadgets([("s", (1, 1))], (0, 0), 2, q=2)),
         "use enumerate_grids for closed profiles"),
        (lambda: holant_polynomial(
            SignatureGrid(q=2, vertices=("e",), edges=(), left_dangling=((0, 1),), right_dangling=((0, 1),)),
            {"e": (1, 1)},
        ), "holant_polynomial needs a closed grid"),
    ],
    ids=["q-0", "loops-negative", "gadgets-at-closed-profile", "polynomial-of-a-gadget"],
)
def test_grid_refusals(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


def test_gadget_enumeration_rejects_negative_profile():
    with pytest.raises(ValueError, match="nonnegative"):
        list(enumerate_gadgets([("s", (1, 2))], (-1, 2), 2, q=2))


def test_enumerators_refuse_duplicate_ids():
    # shapes given as lists sort as tuples, so the repeat is named
    sigs = [("s", [1, 2]), ("s", (1, 1))]
    with pytest.raises(ValueError, match="distinct"):
        list(enumerate_grids(sigs, 2, q=2))
    with pytest.raises(ValueError, match="distinct"):
        list(enumerate_gadgets(sigs, (1, 1), 2, q=2))
    # the reserved wire id is refused by closed and gadget walks alike,
    # before any grid is made
    message = "signature ids must be distinct and not the reserved wire id"
    wired = [(WIRE_ID, (1, 1)), ("f", (2, 0))]
    with pytest.raises(ValueError, match=message):
        next(enumerate_grids(wired, 2, q=2))
    with pytest.raises(ValueError, match=message):
        next(enumerate_gadgets(wired, (1, 1), 2, q=2))


# -- enumeration against the all-permutations canonical code -----------------


def oracle_enumerate_grids(sigs, max_vertices, q):
    """Same candidates as enumerate_grids, canonicalized by the oracle."""
    for n in range(max_vertices + 1):
        for multiset in itertools.combinations_with_replacement(sorted(sigs), n):
            sig_list = [s for s, _ in multiset]
            shapes = [sh for _, sh in multiset]
            lports = [(v, i) for v, (l, _) in enumerate(shapes) for i in range(1, l + 1)]
            rports = [(v, j) for v, (_, r) in enumerate(shapes) for j in range(1, r + 1)]
            if len(lports) != len(rports):
                continue
            codes = {
                oracle_grid_code(sig_list, [l + r for (l, r) in m], (), ())
                for m in _port_matchings(sig_list, lports, rports)
            }
            for edges, _, _ in sorted(codes):
                for loops in (0, 1):
                    yield SignatureGrid(q=q, vertices=tuple(sig_list), edges=edges, loops=loops)


def oracle_enumerate_gadgets(sigs, profile, max_vertices, q):
    """Same candidates as enumerate_gadgets, every slot order canonicalized
    by the oracle."""
    lp, rp = profile
    for n in range(max_vertices + 1):
        for multiset in itertools.combinations_with_replacement(sorted(sigs), n):
            shapes = [sh for _, sh in multiset]
            lports = [(v, i) for v, (l, _) in enumerate(shapes) for i in range(1, l + 1)]
            rports = [(v, j) for v, (_, r) in enumerate(shapes) for j in range(1, r + 1)]
            if len(lports) - len(rports) != lp - rp:
                continue
            for w in range(min(lp, rp) + 1):
                if lp - w > len(lports) or rp - w > len(rports) or len(lports) - lp + w < 0:
                    continue
                sig_list = [s for s, _ in multiset] + [WIRE_ID] * w
                wires = [(n + t, 1) for t in range(w)]
                codes = set()
                for dl in itertools.combinations(lports, lp - w):
                    for dr in itertools.combinations(rports, rp - w):
                        stubs_l, stubs_r = list(dl) + wires, list(dr) + wires
                        free_l = [p for p in lports if p not in dl]
                        free_r = [p for p in rports if p not in dr]
                        touched = [v for (v, _) in stubs_l + stubs_r]
                        for m in _port_matchings(sig_list, free_l, free_r, touched):
                            edges = [l + r for (l, r) in m]
                            if not _components_all_dangle(n + w, edges, stubs_l + stubs_r):
                                continue
                            for ol in itertools.permutations(stubs_l):
                                for orr in itertools.permutations(stubs_r):
                                    codes.add(oracle_grid_code(sig_list, edges, ol, orr))
                for edges, ld, rd in sorted(codes):
                    yield SignatureGrid(
                        q=q,
                        vertices=tuple(sig_list),
                        edges=edges,
                        left_dangling=ld,
                        right_dangling=rd,
                    )


NEQ_F = [("neq", (2, 0)), ("f", (0, 4))]


@pytest.mark.parametrize(
    "sigs,max_vertices",
    [
        ([("x", (2, 1)), ("y", (0, 3))], 4),
        ([("s0", (1, 1)), ("s1", (2, 1)), ("s2", (1, 2))], 4),
        # the family check_indistinguishable walks for the arity-4
        # counterexample
        (NEQ_F, 6),
        # closed components stay in closed grids (gadgets drop them)
        ([("s", (0, 0)), ("a", (1, 1))], 3),
    ],
)
def test_grid_enumeration_matches_oracle_sequence(sigs, max_vertices):
    got = list(enumerate_grids(sigs, max_vertices, q=2))
    assert got == list(oracle_enumerate_grids(sigs, max_vertices, q=2))
    # plain ints, so reports serialize as before
    assert all(type(x) is int for g in got for e in g.edges for x in e)


@pytest.mark.parametrize(
    "sigs,profile,max_vertices",
    [
        (NEQ_F, (0, 4), 5),
        (NEQ_F, (4, 0), 5),
        ([("a", (1, 1)), ("b", (1, 2))], (2, 2), 4),
    ],
)
def test_gadget_enumeration_matches_oracle_sequence(sigs, profile, max_vertices):
    got = list(enumerate_gadgets(sigs, profile, max_vertices, q=2))
    assert got == list(oracle_enumerate_gadgets(sigs, profile, max_vertices, q=2))
    assert all(
        type(x) is int
        for g in got
        for part in (g.edges, g.left_dangling, g.right_dangling)
        for t in part
        for x in t
    )
    # the slot orders of one structure come as one contiguous run, each
    # with the stubs of the run's first gadget in another order
    runs: dict[tuple, list[int]] = {}
    for k, g in enumerate(got):
        runs.setdefault((g.vertices, g.edges, g.loops), []).append(k)
    for ks in runs.values():
        assert ks == list(range(ks[0], ks[-1] + 1))
        first = got[ks[0]]
        for k in ks:
            assert sorted(got[k].left_dangling) == sorted(first.left_dangling)
            assert sorted(got[k].right_dangling) == sorted(first.right_dangling)


shape = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def enumeration_cases(draw):
    shapes = draw(st.lists(shape, min_size=1, max_size=3))
    sigs = [(f"s{k}", sh) for k, sh in enumerate(shapes)]
    # at most 8 ports in any multiset keeps the oracle within a second
    arity = max(l + r for l, r in shapes)
    max_vertices = draw(st.integers(0, 4 if arity <= 2 else 2))
    return sigs, draw(shape), max_vertices


@settings(max_examples=40, deadline=None)
@given(case=enumeration_cases())
def test_enumeration_matches_oracle_on_random_sets(case):
    sigs, profile, max_vertices = case
    if profile == (0, 0):
        got = list(enumerate_grids(sigs, max_vertices, q=2))
        assert got == list(oracle_enumerate_grids(sigs, max_vertices, q=2))
    else:
        got = list(enumerate_gadgets(sigs, profile, max_vertices, q=2))
        assert got == list(oracle_enumerate_gadgets(sigs, profile, max_vertices, q=2))


def matchings_of(sigs, profile, max_vertices):
    """Every (sig_list, edges) the enumerators canonicalize: each port
    matching of each multiset, with each choice of dangling ports and
    wires for a gadget profile, closed components included."""
    lp, rp = profile
    for n in range(max_vertices + 1):
        for multiset in itertools.combinations_with_replacement(sorted(sigs), n):
            shapes = [sh for _, sh in multiset]
            lports = [(v, i) for v, (l, _) in enumerate(shapes) for i in range(1, l + 1)]
            rports = [(v, j) for v, (_, r) in enumerate(shapes) for j in range(1, r + 1)]
            for w in range(min(lp, rp) + 1):
                sig_list = [s for s, _ in multiset] + [WIRE_ID] * w
                wires = [n + t for t in range(w)]
                for dl in itertools.combinations(lports, lp - w):
                    for dr in itertools.combinations(rports, rp - w):
                        free_l = [p for p in lports if p not in dl]
                        free_r = [p for p in rports if p not in dr]
                        touched = [v for (v, _) in dl + dr] + wires
                        for m in _port_matchings(sig_list, free_l, free_r, touched):
                            yield sig_list, [l + r for (l, r) in m]


def search_agrees_with_oracle(sig_list, edges, shapes):
    n = len(sig_list)
    radix = 1 + max((max(shapes[s]) for s in sig_list), default=0)
    code, reaching = _canonical_search(_id_runs(sig_list), edges, radix, True)
    assert _unpack_edges(code, n, radix) == oracle_grid_code(sig_list, edges, (), ())[0]
    assert sorted(reaching) == sorted(oracle_grid_labelings(sig_list, edges))
    assert _canonical_search(_id_runs(sig_list), edges, radix, False) == (code, None)


@settings(max_examples=40, deadline=None)
@given(case=enumeration_cases())
def test_canonical_search_matches_oracle_on_every_matching(case):
    sigs, profile, max_vertices = case
    shapes = dict(sigs, wire=(1, 1))
    for sig_list, edges in matchings_of(sigs, profile, max_vertices):
        search_agrees_with_oracle(sig_list, edges, shapes)


def test_canonical_search_orders_a_short_block_after_its_extension():
    # both "a" vertices send port 1 to a fresh "b"; vertex 0's port 2
    # dangles, so its block is a proper prefix of vertex 1's and must go
    # second: the next key after it belongs to label 1
    sig_list = ["a", "a", "b", "b", "b"]
    edges = [(0, 1, 2, 1), (1, 1, 3, 1), (1, 2, 4, 1)]
    code, reaching = _canonical_search(_id_runs(sig_list), edges, 3, True)
    assert _unpack_edges(code, 5, 3) == ((0, 1, 2, 1), (0, 2, 3, 1), (1, 1, 4, 1))
    assert reaching == [(1, 0, 4, 2, 3)]
    search_agrees_with_oracle(sig_list, edges, {"a": (2, 0), "b": (0, 1)})


SMALL_FAMILY = ([("x", (2, 1)), ("y", (0, 3))], 4)


def small_family_set(q):
    """Random bindings of SMALL_FAMILY's ids at q, which are not
    symmetric, so that its closed walk takes ordered ports."""
    rng = np.random.default_rng(q)
    return {sig: random_tensor(rng, q, *shape) for sig, shape in SMALL_FAMILY[0]}


def counted_structures(monkeypatch):
    """The profiles of every grids._structures walk started from here on."""
    walks = []
    real = holant.grids._structures

    def counted(sigs, profile, *rest):
        walks.append(profile)
        return real(sigs, profile, *rest)

    monkeypatch.setattr(holant.grids, "_structures", counted)
    return walks


def test_enumerate_grids_keeps_no_state(monkeypatch):
    # a plain generator: each walk enumerates again, and neither the
    # theorem's stored family nor any walk before changes what it yields
    sigs, bound = SMALL_FAMILY
    walks = counted_structures(monkeypatch)
    expected = list(oracle_enumerate_grids(sigs, bound, q=2))
    monkeypatch.setattr(spans, "_family", None)
    list(spans.closed_signature_blocks(bound, small_family_set(2)))
    assert spans._family[1] == tuple(expected)
    walks.clear()
    assert list(enumerate_grids(sigs, bound, q=2)) == expected
    assert list(enumerate_grids(sigs, bound, q=2)) == expected
    assert walks == [(0, 0), (0, 0)]


def test_closed_family_memo_replays_a_finished_walk(monkeypatch):
    sigs, bound = SMALL_FAMILY
    fs = small_family_set(2)
    monkeypatch.setattr(spans, "_family", None)
    walks = counted_structures(monkeypatch)
    [(first, _)] = spans.closed_signature_blocks(bound, fs)
    assert first == tuple(oracle_enumerate_grids(sigs, bound, q=2))
    assert spans._family[1] is first and walks == [(0, 0)]
    # a hit hands out the stored tuple and enumerates nothing
    [(again, _)] = spans.closed_signature_blocks(bound, fs)
    assert again is first and walks == [(0, 0)]
    # the key holds q and the bound; a new key replaces the stored family
    [(other_q, _)] = spans.closed_signature_blocks(bound, small_family_set(3))
    assert other_q == tuple(SignatureGrid(3, g.vertices, g.edges, loops=g.loops) for g in first)
    assert spans._family[0][2] == 3
    [(smaller, _)] = spans.closed_signature_blocks(bound - 1, fs)
    assert len(smaller) < len(first)
    assert spans._family[0][1] == bound - 1 and walks == [(0, 0)] * 3


def test_closed_walk_stopped_early_stores_nothing(monkeypatch):
    # a checker's closed walk is lazy: a consumer that stops at its first
    # grid stores nothing, so the next walk enumerates again, and the
    # theorem's walk reads the family whole and stores it
    sigs, bound = SMALL_FAMILY
    fs = small_family_set(2)
    expected = tuple(oracle_enumerate_grids(sigs, bound, q=2))
    monkeypatch.setattr(spans, "_family", None)
    walk = spans._walk((0, 0), bound, fs)
    assert next(walk) == expected[0]
    assert spans._family is None
    [(family, _)] = spans.closed_signature_blocks(bound, fs)
    assert family == expected and spans._family[1] is family


def test_closed_family_memo_skips_a_family_over_the_cap(monkeypatch):
    sigs, bound = SMALL_FAMILY
    fs = small_family_set(2)
    expected = list(oracle_enumerate_grids(sigs, bound, q=2))
    monkeypatch.setattr(spans, "FAMILY_MEMO_MAX_GRIDS", len(expected) - 1)
    monkeypatch.setattr(spans, "_family", None)
    blocks = list(spans.closed_signature_blocks(bound, fs))
    assert [g for block, _ in blocks for g in block] == expected
    assert len(blocks) == 2 and spans._family is None
    monkeypatch.setattr(spans, "FAMILY_MEMO_MAX_GRIDS", len(expected))
    [(family, _)] = spans.closed_signature_blocks(bound, fs)
    assert family == tuple(expected) and spans._family[1] is family


# -- closed blocks: the rows a compiled program does not batch ---------------

HANDOVER_FAMILIES = [
    ([("a", (1, 1)), ("b", (1, 2)), ("c", (2, 1))], 3),
    ([("a", (2, 0)), ("e", (0, 3)), ("u", (1, 0))], 4),
    ([("m", (1, 1)), ("s", (2, 2))], 3),
    SMALL_FAMILY,
]


def handover_case(q, family, kinds, seed, cap):
    """(sigs, bound, q, binding sets, entry cap) of HANDOVER_FAMILIES[family]:
    one set per entry of kinds, each id bound to a random tensor, an
    equality or the identity by the id's letter in that entry (r, e, i)."""
    sigs, bound = HANDOVER_FAMILIES[family]
    rng = np.random.default_rng(seed)
    sets = []
    for letters in kinds:
        b = {}
        for (sig, shape), kind in zip(sigs, letters):
            if kind == "r":
                b[sig] = random_tensor(rng, q, *shape)
            else:
                b[sig] = equality_signature(q, *shape) if kind == "e" else identity_signature(q)
        sets.append(b)
    return sigs, bound, q, sets, cap


@st.composite
def handover_cases(draw):
    """A small closed family at q in {1, 2, 3}, two or three binding sets
    that each bind a random subset of its ids to an equality or the
    identity, and sometimes an entry cap lowered so far that pairwise
    plans, and some elimination plans, are over it."""
    q = draw(st.integers(1, 3))
    family = draw(st.integers(0, len(HANDOVER_FAMILIES) - 1))
    sigs, _ = HANDOVER_FAMILIES[family]
    letters = st.tuples(*[st.sampled_from("rei" if sh == (1, 1) else "re") for _, sh in sigs])
    kinds = draw(st.lists(letters, min_size=2, max_size=3))
    cap = draw(st.sampled_from([None, q, q**2, q**3]))
    return handover_case(q, family, kinds, draw(st.integers(0, 2**32 - 1)), cap)


@settings(max_examples=25, deadline=None)
@given(case=handover_cases())
# 7 of the 37 structures' pairwise plans are over the cap; every set eliminates
@example(case=handover_case(3, 0, ["ere", "eee", "ire"], 0, 3))
# an elimination plan over the cap: m eliminated, s of rank 3 left over
@example(case=handover_case(2, 2, ["rr", "er"], 0, 4))
def test_closed_blocks_equal_contracting_each_grid(case):
    # a family at q = 1, or with a structure over the pairwise cap, has
    # no program and replays run by run; so does a compiled family that
    # some set's route eliminates, for which its program gives no values.
    # Every row equals each grid contracted alone, by its bytes, and a
    # refusal is the lone contraction's.  The walk is over the first set,
    # by port classes when that set binds every id symmetrically
    sigs, bound, q, sets, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spans, "_family", None)
        if cap is not None:
            mp.setattr(holant.contraction, "MAX_ENTRIES", cap)
        grids = tuple(enumerate_grids(sigs, bound, q, symmetric=spans._symmetric_ids(sets[0])))
        try:
            want = np.array([row[1:] for row in oracle_signatures(grids, *sets)])
        except ValueError as exc:
            want = str(exc)
        # the family compiles unless some structure's pairwise plan has a
        # step over the patched cap; the oracle plans at its own cap, so its
        # step shapes are read against the patched one
        compiled = q > 1 and all(
            np.prod(step[-1]) <= holant.contraction.MAX_ENTRIES
            for g in grids
            if g.loops == 0
            for step in oracle_contraction_plan(g, tuple(sigs)).steps
        )
        # the first call walks the family and compiles its program, the
        # second replays the kept program
        for _ in range(2):
            if isinstance(want, str):
                with pytest.raises(ValueError) as refused:
                    list(spans.closed_signature_blocks(bound, *sets))
                assert str(refused.value) == want
            else:
                [(block, values)] = spans.closed_signature_blocks(bound, *sets)
                assert tuple(block) == grids and values.tobytes() == want.tobytes()
            _, family, program = spans._family
            assert family == grids and (program is not None) == compiled


# -- polynomial --------------------------------------------------------------


def test_polynomial_two_vertex_example():
    # one binary covariant x read against two unary contravariant y copies
    g = SignatureGrid(
        q=2,
        vertices=("x", "y", "y"),
        edges=((1, 1, 0, 1), (2, 1, 0, 2)),
    )
    poly = holant_polynomial(g, {"x": (0, 2), "y": (1, 0)})
    expected = {
        (("x", (0, 0)), ("y", (0,)), ("y", (0,))): 1 + 0j,
        (("x", (0, 1)), ("y", (0,)), ("y", (1,))): 1 + 0j,
        (("x", (1, 0)), ("y", (0,)), ("y", (1,))): 1 + 0j,
        (("x", (1, 1)), ("y", (1,)), ("y", (1,))): 1 + 0j,
    }
    assert poly.monomials == expected


def test_polynomial_constant_for_loop_grid():
    g = SignatureGrid(q=2, vertices=(), edges=(), loops=1)
    poly = holant_polynomial(g, {})
    assert poly.monomials == {(): 2 + 0j}


def test_polynomial_evaluation_matches_holant():
    rng = np.random.default_rng(42)
    for _ in range(40):
        g, b = random_closed_grid(rng, qmax=2, vmax=3)
        poly = holant_polynomial(g, {s: t.shape for s, t in b.items()})
        v1 = poly.evaluate(b)
        v2 = brute_holant_eval(g, b)
        assert abs(v1 - v2) <= 1e-8 * (1 + abs(v2))
    # a bare wire is the identity, not a symbol: f is read on its diagonal
    g = SignatureGrid(2, ("f", WIRE_ID), ((0, 1, 1, 1), (1, 1, 0, 1)))
    f = MixedTensor(2, 1, 1, np.array([[1.5, 2.0], [-3.0, 0.25j]]))
    poly = holant_polynomial(g, {"f": (1, 1)})
    assert sorted(poly.monomials) == [(("f", (0, 0)),), (("f", (1, 1)),)]
    value = holant_eval_contracted(g, {"f": f})
    assert value == np.trace(f.matrix())
    assert abs(poly.evaluate({"f": f}) - value) <= 1e-12


def test_polynomial_merges_coefficients():
    # two equality vertices chained: assignments collapse onto q monomials
    g = SignatureGrid(q=2, vertices=("e", "e2"), edges=((0, 1, 1, 1), (0, 2, 1, 2)))
    poly = holant_polynomial(g, {"e": (2, 0), "e2": (0, 2)})
    # only diagonal assignments survive as distinct monomials plus crosses
    assert poly.num_monomials == 4
    # each monomial has one e entry and one e2 entry
    for mono in poly.monomials:
        assert [s for s, _ in mono] == ["e", "e2"]


def test_polynomial_monomial_cap(monkeypatch):
    monkeypatch.setattr("holant.grids.MONOMIAL_CAP", 2)
    g = SignatureGrid(
        q=2,
        vertices=("u", "v"),
        edges=((0, 1, 1, 1), (0, 2, 1, 2)),
    )
    with pytest.raises(ValueError):
        holant_polynomial(g, {"u": (2, 0), "v": (0, 2)})
