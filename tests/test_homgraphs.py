"""Homomorphism counting, matchings, and bounded-degree experiments.

Brute-force map enumeration (tests/oracles.py) is the oracle for every
grid-based count, and the product of in-class relabelings is the oracle
for canonical_code's search.
The connected-graph census for small n is cross-checked against a
from-scratch edge-subset enumeration.
"""

import functools
import gc
import itertools
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holant import contraction, homgraphs
from holant.contraction import (
    BindingStacks,
    _contraction_plan,
    _step_memo_info,
    gadget_signature,
    holant_eval_contracted,
    stacked_signature,
)
from holant.homgraphs import (
    SimpleGraph,
    are_isomorphic,
    bounded_degree_distinguisher,
    canonical_code,
    complete_graph,
    count_matchings,
    cycle_graph,
    enumerate_connected_graphs,
    hom_bindings,
    hom_count,
    hom_grid,
    invertible_adjacency_experiment,
    matchings_signatures,
    path_graph,
)
from holant.tensors import MixedTensor, equality_signature
from oracles import brute_hom_count, brute_matchings, oracle_canonical_code, oracle_connected_graphs

# the unique cospectral, nonsingular, non-isomorphic connected pair on
# six vertices (exhaustive search over the census)
COSPECTRAL_F = SimpleGraph(6, ((0, 5), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)))
COSPECTRAL_G = SimpleGraph(6, ((0, 3), (1, 2), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))


@st.composite
def graphs(draw, max_n):
    """A graph on at most max_n vertices whose edges are the set bits of
    a drawn integer, so every density, empty and complete included."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, 2 ** len(pairs) - 1))
    return SimpleGraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))


def petersen_graph() -> SimpleGraph:
    outer = tuple((i, (i + 1) % 5) for i in range(5))
    inner = tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    return SimpleGraph(10, outer + inner + tuple((i, i + 5) for i in range(5)))


def random_graph(rng, n, p=0.5) -> SimpleGraph:
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return SimpleGraph(n, tuple(edges))


# -- SimpleGraph ---------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(2, ((0, 2),))
    with pytest.raises(ValueError, match="duplicate"):
        SimpleGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph(3, ((1, 1),))


def test_graph_basics():
    g = cycle_graph(5)
    assert g.degrees() == [2] * 5
    assert g.is_connected()
    assert not SimpleGraph(3, ((0, 1),)).is_connected()
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert a.sum() == 10


# -- hom counting -----------------------------------------------------------------


def test_hom_grid_single_vertex_gives_domain_size():
    grid = hom_grid(SimpleGraph(1, ()), 5)
    bindings = hom_bindings(np.zeros((5, 5)), 1)
    value = holant_eval_contracted(grid, {k: v for k, v in bindings.items() if k in grid.vertices})
    assert value == pytest.approx(5.0)


def test_hom_counts_small_cases():
    k2, k3, k4 = complete_graph(2), complete_graph(3), complete_graph(4)
    c4 = cycle_graph(4)
    assert hom_count(complete_graph(2), k2) == 2
    assert hom_count(k3, k3) == 6
    assert hom_count(c4, k2) == 2
    assert hom_count(k3, k2) == 0
    assert hom_count(k3, k4) == 24
    assert hom_count(k3, c4) == 0


def test_hom_grids_share_a_plan_across_target_sizes():
    x = cycle_graph(5)
    _contraction_plan.cache_clear()
    assert hom_count(x, complete_graph(10)) == 9**5 - 9
    assert hom_count(x, complete_graph(16)) == 15**5 - 15
    assert hom_grid(x, 10) != hom_grid(x, 16)
    info = _contraction_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- the per-target bindings of hom_count ------------------------------------------


@pytest.fixture
def fresh_targets(monkeypatch):
    """hom_count's table of target bindings, emptied for one test."""
    table = weakref.WeakKeyDictionary()
    monkeypatch.setattr(homgraphs, "_target_bindings", table)
    return table


def test_interleaved_targets_keep_their_own_bindings(fresh_targets):
    # two targets on one vertex count, and two equal target objects, so
    # that a table keyed by n, or by identity, would show
    rng = np.random.default_rng(5)
    f, g = random_graph(rng, 5), random_graph(rng, 5)
    assert f != g
    g_again = SimpleGraph(g.n, g.edges)
    xs = [path_graph(3), cycle_graph(4), complete_graph(3), SimpleGraph(2, ())]
    for x in xs + xs:
        for target in (f, g, g_again, f):
            assert hom_count(x, target) == brute_hom_count(x, target)
    assert len(fresh_targets) == 2


def test_target_bindings_grow_to_the_arity_asked(fresh_targets):
    # a path needs eq0 .. eq2, K4 also eq3, which the path then ignores
    target = random_graph(np.random.default_rng(6), 6)
    for x, top in ((path_graph(4), 2), (complete_graph(4), 3), (path_graph(4), 3)):
        assert hom_count(x, target) == brute_hom_count(x, target)
        assert sorted(fresh_targets[target]) == ["A"] + [f"eq{d}" for d in range(top + 1)]


def test_a_refused_count_leaves_the_target_usable(fresh_targets):
    # K4 plus isolated vertices, 407 in all: eq3 needs 407**3 entries,
    # over the cap, while a cycle needs only eq2.  A connected left
    # graph with an edge maps into K4 alone, so the brute count into K4
    # is the count
    target = SimpleGraph(407, complete_graph(4).edges)
    want = brute_hom_count(cycle_graph(5), complete_graph(4))
    assert hom_count(cycle_graph(5), target) == want
    over = "tensor with q=407 and 3 slots needs more than 67108864 entries, over the cap"
    with pytest.raises(ValueError, match=re.escape(over)):
        hom_count(complete_graph(4), target)
    assert hom_count(cycle_graph(5), target) == want
    assert sorted(fresh_targets[target]) == ["A", "eq0", "eq1", "eq2"]


def test_hom_bindings_built_once_per_target(fresh_targets, monkeypatch):
    calls = []

    def counting(adjacency, max_arity):
        calls.append(max_arity)
        return hom_bindings(adjacency, max_arity)

    monkeypatch.setattr(homgraphs, "hom_bindings", counting)
    rng = np.random.default_rng(8)
    targets = [random_graph(rng, 4), random_graph(rng, 5)]
    census = enumerate_connected_graphs(5, 3)
    for x in census:
        for target in targets:
            assert hom_count(x, target) == brute_hom_count(x, target)
    assert len(calls) == len(targets)


def test_a_dropped_target_frees_its_bindings(fresh_targets):
    target = random_graph(np.random.default_rng(9), 5)
    assert hom_count(cycle_graph(3), target) == brute_hom_count(cycle_graph(3), target)
    held = weakref.ref(fresh_targets[target]["A"].array)
    owner = id(held())
    assert any(key[0] == owner for key in contraction.step_memo.steps)
    assert len(fresh_targets) == 1
    del target
    gc.collect()
    assert len(fresh_targets) == 0 and held() is None
    # the step memo dropped the steps kept on the target's adjacency
    assert owner not in contraction.step_memo.owned
    assert not any(key[0] == owner for key in contraction.step_memo.steps)


# -- the elimination step memo ------------------------------------------------------


@pytest.fixture
def fresh_memo(monkeypatch):
    """The elimination step memo, emptied for one test."""
    memo = contraction.StepMemo()
    monkeypatch.setattr(contraction, "step_memo", memo)
    return memo


def counted_values(pairs, patch):
    """hom_count(x, g) for each (x, g) of pairs, in order, and the bytes of
    the complex values holant_eval_contracted gave for them."""
    values = []

    def recording(grid, bindings):
        values.append(holant_eval_contracted(grid, bindings))
        return values[-1]

    patch.setattr(homgraphs, "holant_eval_contracted", recording)
    counts = [hom_count(x, g) for x, g in pairs]
    return counts, np.array(values).tobytes()


def counted_without_memo(pairs, patch):
    """counted_values under an empty step memo that keeps nothing."""
    patch.setattr(contraction, "step_memo", contraction.StepMemo())
    patch.setattr(contraction, "STEP_MEMO_BYTES", 0)
    out = counted_values(pairs, patch)
    assert _step_memo_info().entries == 0
    return out


@functools.lru_cache(maxsize=None)
def oracle_hom_count(x, g):
    """brute_hom_count, or for a cycle past six vertices, beyond its
    reach, the trace of the adjacency's power in integers."""
    if x.n <= 6:
        return brute_hom_count(x, g)
    assert x == cycle_graph(x.n)
    return int(np.trace(np.linalg.matrix_power(g.adjacency().astype(np.int64), x.n)))


@st.composite
def small_targets(draw):
    n = draw(st.integers(3, 4))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, 2 ** len(pairs) - 1))
    return SimpleGraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))


@settings(max_examples=8, deadline=None)
@given(st.lists(small_targets(), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
def test_step_memo_keeps_every_count_and_its_bits(targets, seed):
    # the degree-3 census to six vertices and the cycles C_3 .. C_20 into
    # two or three targets, interleaved, so that counts into one target
    # share steps between counts into the others
    xs = [*enumerate_connected_graphs(6, 3), *map(cycle_graph, range(3, 21))]
    pairs = [(x, g) for g in targets for x in xs]
    random.Random(seed).shuffle(pairs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(homgraphs, "_target_bindings", weakref.WeakKeyDictionary())
        m.setattr(contraction, "step_memo", contraction.StepMemo())
        counts, bits = counted_values(pairs, m)
        assert _step_memo_info().hits > 0
        assert (counts, bits) == counted_without_memo(pairs, m)
    assert counts == [oracle_hom_count(x, g) for x, g in pairs]


def test_stacked_sets_that_eliminate_keep_their_bits(fresh_memo):
    # two sets whose "A" are random tensors of one shape, so their rows
    # of one stack differ only in their values: each set's row of the
    # stacked walk is its lone value, with the memo warm and emptied
    q = 4
    rng = np.random.default_rng(11)
    eqs = {f"eq{d}": equality_signature(q, d, 0) for d in range(4)}
    sets = [{"A": MixedTensor(q, 0, 2, rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))), **eqs}
            for _ in range(2)]
    xs = [path_graph(3), cycle_graph(4), complete_graph(4), cycle_graph(4), path_graph(3)]
    lone = [[gadget_signature(hom_grid(x, q), b).array.tobytes() for b in sets] for x in xs]
    assert fresh_memo.hits > 0
    stacks = BindingStacks(sets)
    for x, want in zip(xs, lone):
        rows = stacked_signature(hom_grid(x, q), stacks)
        assert [row.tobytes() for row in rows] == want
    with pytest.MonkeyPatch.context() as m:
        m.setattr(contraction, "step_memo", contraction.StepMemo())
        m.setattr(contraction, "STEP_MEMO_BYTES", 0)
        for x, want in zip(xs, lone):
            assert [gadget_signature(hom_grid(x, q), b).array.tobytes() for b in sets] == want


def test_step_memo_evicts_within_its_bound(fresh_memo, fresh_targets, monkeypatch):
    # room for a few steps only: eviction drops the least recently used,
    # each count keeps its bits, and the memo never passes its bound
    rng = np.random.default_rng(12)
    targets = [random_graph(rng, 4), random_graph(rng, 5)]
    xs = [*enumerate_connected_graphs(5, 3), *map(cycle_graph, range(3, 12))]
    pairs = [(x, g) for x in xs for g in targets for _ in range(2)]
    bound = 6 * contraction.STEP_OVERHEAD
    monkeypatch.setattr(contraction, "STEP_MEMO_BYTES", bound)
    counts, bits = [], []
    for pair in pairs:
        count, value = counted_values([pair], monkeypatch)
        counts += count
        bits.append(value)
        info = _step_memo_info()
        assert info.nbytes <= bound and info.entries < 6
        assert info.nbytes == sum(r.nbytes + contraction.STEP_OVERHEAD for _, r in fresh_memo.steps.values())
    info = _step_memo_info()
    assert info.hits > 0 and info.misses > 2 * len(pairs)
    assert (counts, b"".join(bits)) == counted_without_memo(pairs, monkeypatch)
    assert counts == [oracle_hom_count(x, g) for x, g in pairs]


def test_step_memo_keeps_no_result_larger_than_its_array(fresh_memo, fresh_targets):
    # at q = 16 the wide steps of K4 leave rank-3 results of 16**3
    # entries, more than the adjacency's 256: they are never kept
    target = random_graph(np.random.default_rng(13), 16)
    for x in (complete_graph(4), complete_graph(4), cycle_graph(5)):
        hom_count(x, target)
    size = fresh_targets[target]["A"].array.size
    assert fresh_memo.steps
    assert all(r.size <= size and not r.flags.writeable for _, r in fresh_memo.steps.values())


def test_step_memo_removes_most_einsum_calls(fresh_memo, fresh_targets, monkeypatch):
    # the guard: the degree-3 census to six vertices into two targets runs
    # np.einsum for fewer than half of its elimination steps, and every
    # step the memo answers is one np.einsum call less
    rng = np.random.default_rng(14)
    pairs = [(x, g) for g in (random_graph(rng, 10), random_graph(rng, 16))
             for x in enumerate_connected_graphs(6, 3)]
    einsum = np.einsum
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    counts, bits = counted_values(pairs, monkeypatch)
    with_memo, hits = len(calls), _step_memo_info().hits
    calls.clear()
    assert (counts, bits) == counted_without_memo(pairs, monkeypatch)
    assert with_memo + hits == len(calls)
    assert 2 * with_memo < len(calls)


def test_hom_self_map_counts_automorphisms_at_least():
    for g in (path_graph(4), cycle_graph(5), complete_graph(3)):
        assert hom_count(g, g) >= 1


@settings(max_examples=150, deadline=None)
@given(graphs(5), graphs(5))
@example(SimpleGraph(0, ()), complete_graph(3))
@example(SimpleGraph(4, ((1, 2),)), complete_graph(3))  # isolated vertices
@example(SimpleGraph(5, ((0, 1), (2, 3), (3, 4))), cycle_graph(5))  # disconnected
def test_hom_methods_agree_on_random_corpus(x, g):
    assert hom_count(x, g) == brute_hom_count(x, g)


def test_hom_multiplicative_over_disjoint_union():
    rng = np.random.default_rng(73)
    for _ in range(10):
        x1 = random_graph(rng, 3)
        x2 = random_graph(rng, 4)
        union = SimpleGraph(
            7, x1.edges + tuple((u + 3, v + 3) for (u, v) in x2.edges)
        )
        g = random_graph(rng, 4)
        assert hom_count(union, g) == hom_count(x1, g) * hom_count(x2, g)


@st.composite
def relabelled_graphs(draw):
    """(x, g, pi, sigma): a left graph of at most 6 vertices, a target of
    at most 10 and a relabelling of each, so that every count and every
    partial count is at most 10**6, far below 2**53."""

    def graph(n):
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return SimpleGraph(n, tuple(p for p, k in zip(pairs, keep) if k))

    x, g = graph(draw(st.integers(1, 6))), graph(draw(st.integers(1, 10)))
    return x, g, draw(st.permutations(range(x.n))), draw(st.permutations(range(g.n)))


RELABELLED_TARGET = random_graph(np.random.default_rng(79), 5)


@settings(max_examples=40, deadline=None)
@given(case=relabelled_graphs())
@example(case=(cycle_graph(4), RELABELLED_TARGET, [0, 1, 2, 3], [4, 3, 2, 1, 0]))
@example(case=(cycle_graph(4), RELABELLED_TARGET, [0, 1, 2, 3], [1, 2, 3, 4, 0]))
@example(case=(cycle_graph(4), RELABELLED_TARGET, [0, 1, 2, 3], [2, 0, 4, 1, 3]))
def test_counts_invariant_under_relabeling(case):
    # isomorphic graphs have equal counts: hom(X, G) = hom(pi X, sigma G),
    # and a graph's matchings are its relabelling's
    x, g, pi, sigma = case
    count = hom_count(x, g)
    assert count < 2**53
    assert hom_count(x.relabel(pi), g.relabel(sigma)) == count
    assert count_matchings(x.relabel(pi)) == count_matchings(x)
    assert count_matchings(g.relabel(sigma)) == count_matchings(g)


def dense_relabelled_pair():
    """(G, pi G): G on 29 vertices with 367 edges, each pair kept with
    probability 0.9, and a random relabelling, drawn with numpy seed 1.
    hom(C_12, G) = 70684918287142448 is past 2**53."""
    rng = np.random.default_rng(1)
    n = int(rng.integers(20, 40))
    edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.9]
    g = SimpleGraph(n, tuple(edges))
    return g, g.relabel([int(v) for v in rng.permutation(n)])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1A: hom_count rounds through float64, and the count is past 2**53",
)
def test_hom_count_past_2_53_is_invariant_under_relabeling():
    g, h = dense_relabelled_pair()
    assert (g.n, g.m) == (29, 367)
    assert hom_count(cycle_graph(12), g) == 70684918287142448
    # reads 70684918287142456 while counts are rounded float64 values
    assert hom_count(cycle_graph(12), h) == 70684918287142448


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1A: bounded_degree_distinguisher compares float64 counts "
    "past 2**53, so it tells two isomorphic graphs apart",
)
def test_distinguisher_does_not_separate_isomorphic_graphs():
    # reads "distinguished" after 21 classes while counts are rounded
    g, h = dense_relabelled_pair()
    assert bounded_degree_distinguisher(g, h, 2, 12).verdict == "indist_at_bound"


def closed_form_misses(below=None):
    """The cycle counts that differ from their closed forms, among those
    whose exact value is below `below` (every case when it is None):
    hom(C_n, K_k) = (k-1)**n + (-1)**n (k-1) for n = 3..90 and k in
    {3, 5, 8}, and the matchings of C_n, the Lucas number L_n, for
    n = 3..90."""
    lucas = [2, 1]
    while len(lucas) <= 90:
        lucas.append(lucas[-1] + lucas[-2])
    misses = []
    for n in range(3, 91):
        for k in (3, 5, 8):
            want = (k - 1) ** n + (-1) ** n * (k - 1)
            if below is None or want < below:
                got = hom_count(cycle_graph(n), complete_graph(k))
                if got != want:
                    misses.append((f"hom(C_{n}, K_{k})", got, want))
        if below is None or lucas[n] < below:
            got = count_matchings(cycle_graph(n))
            if got != lucas[n]:
                misses.append((f"matchings(C_{n})", got, lucas[n]))
    return misses


def test_cycle_counts_below_2_53_equal_their_closed_forms():
    assert closed_form_misses(below=2**53) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1A: counts pass through float64, so 171 hom counts and 14 "
    "matchings counts past 2**53 are rounded",
)
def test_cycle_counts_equal_their_closed_forms():
    # not split by the 2**53 threshold: two hom counts above it come out exact
    assert closed_form_misses() == []


# -- matchings ---------------------------------------------------------------------


def test_matchings_signature_values():
    sigs = matchings_signatures(3)
    assert sigs[3].entry((0, 0, 0), ()) == 1
    assert sigs[3].entry((1, 0, 0), ()) == 1
    assert sigs[3].entry((1, 1, 0), ()) == 0
    perfect = matchings_signatures(2, perfect=True)
    assert perfect[2].entry((0, 0), ()) == 0
    assert perfect[2].entry((0, 1), ()) == 1
    with pytest.raises(ValueError):
        matchings_signatures(0)


def test_matchings_counts():
    assert count_matchings(complete_graph(3)) == 4
    assert count_matchings(cycle_graph(4), perfect=True) == 2
    assert count_matchings(complete_graph(2), perfect=True) == 1
    assert count_matchings(cycle_graph(4)) == 7
    assert count_matchings(path_graph(4)) == 5
    assert count_matchings(complete_graph(4), perfect=True) == 3


@settings(max_examples=100, deadline=None)
@given(graphs(6), st.booleans())
@example(SimpleGraph(0, ()), False)
@example(SimpleGraph(3, ()), True)
def test_matchings_against_brute_enumeration(x, perfect):
    assert count_matchings(x, perfect) == brute_matchings(x, perfect)


# -- canonical forms and enumeration -------------------------------------------------


def test_isomorphism_detection():
    c5 = cycle_graph(5)
    assert are_isomorphic(c5, c5.relabel([3, 1, 4, 0, 2]))
    assert not are_isomorphic(cycle_graph(4), path_graph(4))
    assert canonical_code(c5.relabel([3, 1, 4, 0, 2])) == canonical_code(c5)


@settings(max_examples=300, deadline=None)
@given(graphs(7))
@example(SimpleGraph(7, ()))
@example(complete_graph(7))
@example(cycle_graph(7))
# keeping a single tied prefix per level misses this graph's minimum
@example(SimpleGraph(6, ((0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (3, 5), (4, 5))))
def test_canonical_code_matches_the_product_oracle(g):
    assert canonical_code(g) == oracle_canonical_code(g)


@settings(max_examples=150, deadline=None)
@given(graphs(12), st.randoms(use_true_random=False))
@example(cycle_graph(12), random.Random(0))
@example(petersen_graph(), random.Random(0))
def test_canonical_code_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_code(g) == canonical_code(g.relabel(perm))


@pytest.mark.parametrize("args", [(7, 3), (6, None)])
def test_census_is_the_one_built_with_the_oracle(monkeypatch, args):
    mine = enumerate_connected_graphs(*args)
    enumerate_connected_graphs.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(homgraphs, "canonical_code", oracle_canonical_code)
            theirs = enumerate_connected_graphs(*args)
    finally:
        enumerate_connected_graphs.cache_clear()
    assert mine == theirs


def test_isomorphism_reaches_graphs_refinement_cannot_split():
    # every vertex of these graphs stays in one color class, which the
    # product of in-class relabelings could not search (10! and 12!)
    rnd = np.random.default_rng(97)
    pet = petersen_graph()
    assert are_isomorphic(pet, pet.relabel(list(rnd.permutation(10))))
    c12 = cycle_graph(12)
    assert are_isomorphic(c12, c12.relabel(list(rnd.permutation(12))))
    c6 = cycle_graph(6).edges
    two_c6 = SimpleGraph(12, c6 + tuple((u + 6, v + 6) for u, v in c6))
    assert not are_isomorphic(c12, two_c6)


def test_connected_census_matches_known_counts():
    graphs = enumerate_connected_graphs(6)
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    by_n = [0] * 8
    for g in enumerate_connected_graphs(8, 3):
        by_n[g.n - 1] += 1
    assert by_n == [1, 1, 2, 6, 10, 29, 64, 194]


def test_connected_census_against_subset_enumeration():
    # independent generation path: all edge subsets, connectivity
    # filter, canonical dedup
    for n in (3, 4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for r in range(len(pairs) + 1):
            for sub in itertools.combinations(pairs, r):
                g = SimpleGraph(n, sub)
                if g.is_connected():
                    seen.add(canonical_code(g))
        mine = [g for g in enumerate_connected_graphs(n) if g.n == n]
        assert len(mine) == len(seen)
        assert {canonical_code(g) for g in mine} == seen


def test_degree_bounded_enumeration():
    graphs = enumerate_connected_graphs(7, 3)
    assert all(g.max_degree() <= 3 and g.is_connected() for g in graphs)
    sizes = [g.n for g in graphs]
    assert sizes == sorted(sizes)
    # within one vertex count the canonical codes increase
    for n in set(sizes):
        codes = [canonical_code(g) for g in graphs if g.n == n]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


@pytest.mark.parametrize("args", [(9, 3), (8, 4), (7, None)])
def test_census_equals_the_one_that_canonicalizes_every_candidate(args):
    # __wrapped__ leaves the shared lru_cache alone
    assert enumerate_connected_graphs.__wrapped__(*args) == oracle_connected_graphs(*args)


def test_cubic_census_counts_at_nine_and_ten_vertices():
    graphs = enumerate_connected_graphs.__wrapped__(10, 3)
    assert [sum(1 for g in graphs if g.n == n) for n in (9, 10)] == [531, 1733]


def test_census_canonicalizes_only_the_candidates_it_keeps(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.n)
        return canonical_code(g)

    monkeypatch.setattr(homgraphs, "canonical_code", counting)
    graphs = enumerate_connected_graphs.__wrapped__(8, 3)
    assert len(graphs) == 307
    # every candidate canonicalized, as before, made 1722 calls
    assert len(calls) < 1000


# -- distinguisher experiments ---------------------------------------------------------


def test_k4_vs_c4_distinguished_quickly():
    report = bounded_degree_distinguisher(complete_graph(4), cycle_graph(4), 3, 3)
    assert report.verdict == "distinguished"
    assert report.distinguisher.n <= 3
    assert report.count_f != report.count_g


def test_isomorphic_pair_never_distinguished():
    g = cycle_graph(5)
    report = bounded_degree_distinguisher(g, g.relabel([2, 0, 3, 1, 4]), 3, 5)
    assert report.verdict == "indist_at_bound"
    assert report.graphs_checked > 0


def test_distinguisher_requires_positive_degree():
    with pytest.raises(ValueError):
        bounded_degree_distinguisher(complete_graph(2), complete_graph(2), 0, 2)


def test_cospectral_fixture_is_as_advertised():
    af = COSPECTRAL_F.adjacency()
    ag = COSPECTRAL_G.adjacency()
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(af)), np.sort(np.linalg.eigvalsh(ag)), atol=1e-9
    )
    assert round(float(np.linalg.det(af))) != 0
    assert round(float(np.linalg.det(ag))) != 0
    assert not are_isomorphic(COSPECTRAL_F, COSPECTRAL_G)


def test_invertible_adjacency_experiment_statuses():
    star = SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
    c5 = cycle_graph(5)
    reports = invertible_adjacency_experiment(
        [
            (star, path_graph(3)),
            (c5, c5.relabel([2, 0, 3, 1, 4])),
            (COSPECTRAL_F, COSPECTRAL_G),
        ],
        bound=7,
    )
    assert reports[0].status == "skipped"
    assert "singular" in reports[0].reason
    assert reports[1].status == "isomorphic"
    assert reports[2].status == "distinguished"
    assert reports[2].distinguisher.max_degree() <= 3
    assert reports[2].distinguisher.n <= 7
    assert reports[2].count_f != reports[2].count_g
