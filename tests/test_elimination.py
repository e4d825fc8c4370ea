"""The elimination planner and the port check against their oracles.

elimination_plan keeps each index class's neighbours as a bit mask and
takes the next class off a heap; oracle_elimination_plan recomputes every
width from the nodes and scans them all.  SignatureGrid.validate counts
ports in one flat list; oracle_validate keeps a dict of counts.  Each pair
must agree exactly: the same (steps, outer, free), the same first message.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from holant.contraction import elimination_plan
from holant.grids import SignatureGrid
from holant.homgraphs import SimpleGraph, complete_graph, cycle_graph, hom_grid, matchings_grid
from oracles import oracle_elimination_plan, oracle_validate
from test_homgraphs import graphs

# ids of the random closed grids: every small shape, one-sided ones
# ("u", "w") to balance the ports, and a scalar "z"
SHAPES = {
    "a": (1, 1), "b": (2, 0), "c": (0, 2), "d": (1, 2), "e": (2, 1),
    "f": (0, 3), "g": (3, 0), "u": (1, 0), "w": (0, 1), "z": (0, 0),
}


def hom_case(x: SimpleGraph):
    """x's hom grid with its shapes, every equality id eliminated."""
    grid = hom_grid(x, 3)
    shapes = {sig: (0, 2) if sig == "A" else (int(sig[2:]), 0) for sig in grid.vertices}
    return grid, shapes, {sig for sig in shapes if sig != "A"}


def matchings_case(x: SimpleGraph):
    """x's matchings grid with its shapes, the edge equality eliminated."""
    grid = matchings_grid(x)
    shapes = {sig: (0, 2) if sig == "eq2" else (int(sig[1:]), 0) for sig in grid.vertices}
    return grid, shapes, {"eq2"}


@st.composite
def closed_cases(draw):
    """A random closed grid over SHAPES, every left port wired to a drawn
    right port (self-edges and repeated pairs included), with a random
    subset of its ids eliminated as equalities."""
    ids = draw(st.lists(st.sampled_from(sorted(SHAPES)), max_size=10))
    lefts = sum(SHAPES[sig][0] for sig in ids)
    rights = sum(SHAPES[sig][1] for sig in ids)
    ids += ["u"] * (rights - lefts) + ["w"] * (lefts - rights)
    ids = draw(st.permutations(ids))
    left_ports = [(v, i) for v, sig in enumerate(ids) for i in range(1, SHAPES[sig][0] + 1)]
    right_ports = [(v, j) for v, sig in enumerate(ids) for j in range(1, SHAPES[sig][1] + 1)]
    wired = draw(st.permutations(right_ports))
    edges = tuple((u, i, v, j) for (u, i), (v, j) in zip(left_ports, wired))
    shapes = {sig: SHAPES[sig] for sig in ids}
    equal = draw(st.sets(st.sampled_from(sorted(shapes)))) if shapes else set()
    return SignatureGrid(2, tuple(ids), edges), shapes, equal


cases = st.one_of(
    graphs(12).map(hom_case),
    graphs(9).map(matchings_case),
    closed_cases(),
)


@settings(max_examples=300, deadline=None)
@given(cases)
@example(hom_case(SimpleGraph(0, ())))
@example(hom_case(SimpleGraph(3, ())))  # isolated vertices: arity-0 equalities
@example(hom_case(complete_graph(12)))
@example(hom_case(cycle_graph(12)))
@example(matchings_case(complete_graph(6)))
def test_elimination_plan_matches_the_oracle(case):
    grid, shapes, equal = case
    assert elimination_plan(grid.vertices, grid.edges, shapes, equal) == oracle_elimination_plan(
        grid.vertices, grid.edges, shapes, equal
    )


def _message(check, grid, shapes):
    try:
        check(grid, shapes)
    except ValueError as err:
        return str(err)
    return None


@st.composite
def corrupted(draw):
    """A valid grid, some of its edges cut into stubs listed in a drawn
    order, then one port corrupted: an end moved out of range by port or
    by vertex, an edge or stub dropped (its ports go missing), or one
    repeated (its ports are doubled)."""
    grid, shapes, _ = draw(cases)
    edges = list(grid.edges)
    cut = draw(st.sets(st.sampled_from(range(len(edges))))) if edges else set()
    left = draw(st.permutations([(u, i) for k, (u, i, _, _) in enumerate(edges) if k in cut]))
    right = draw(st.permutations([(v, j) for k, (_, _, v, j) in enumerate(edges) if k in cut]))
    edges = [e for k, e in enumerate(edges) if k not in cut]
    parts = {"edges": edges, "left": left, "right": right}
    n = len(grid.vertices)
    kind = draw(st.sampled_from(["port", "vertex", "missing", "doubled"]))
    where = draw(st.sampled_from([name for name, items in parts.items() if items] or ["none"]))
    if where != "none":
        items = parts[where]
        k = draw(st.integers(0, len(items) - 1))
        if kind == "missing":
            del items[k]
        elif kind == "doubled":
            items.insert(draw(st.integers(0, len(items))), items[k])
        else:
            item = list(items[k])
            # which number of the item to move: an edge's u or v, i or j
            slot = draw(st.sampled_from([0, 2] if kind == "vertex" else [1, 3]))
            if where != "edges":
                slot = 0 if kind == "vertex" else 1
            if kind == "vertex":
                item[slot] = draw(st.sampled_from([-1, n, n + 3]))
            else:
                item[slot] = draw(st.sampled_from([-1, 0, 4, 9]))
            items[k] = tuple(item)
    bad = SignatureGrid(2, grid.vertices, tuple(edges), tuple(left), tuple(right))
    return bad, shapes


@settings(max_examples=400, deadline=None)
@given(corrupted())
def test_validate_names_the_fault_the_oracle_names(case):
    grid, shapes = case
    assert _message(SignatureGrid.validate, grid, shapes) == _message(oracle_validate, grid, shapes)


def test_validate_messages_in_order():
    shapes = {"a": (1, 1), "b": (2, 0)}
    grid = SignatureGrid(2, ("a", "b"), ((0, 1, 0, 1),))
    for g, want in (
        (grid, "left port 1 of vertex 1 used 0 times"),
        (SignatureGrid(2, ("a", "c"), ()), "no shape known for signature 'c'"),
        (SignatureGrid(2, ("a",), ((0, 1, 2, 1),)), "vertex index 2 out of range"),
        (SignatureGrid(2, ("a",), ((0, 2, 0, 1),)),
         "port 2 out of range for L side of vertex 0 ('a' has shape (1, 1))"),
        (SignatureGrid(2, ("a",), (), ((0, 1),), ((0, 1), (0, 1))), "right port 1 of vertex 0 used 2 times"),
    ):
        assert _message(SignatureGrid.validate, g, shapes) == want
        assert _message(oracle_validate, g, shapes) == want
