"""Graph homomorphism counting through closed tensor grids.

A homomorphism count hom(X, G) becomes a Holant value by placing an
equality signature of arity deg(v) on every vertex of X (an isolated
vertex's is the arity-0 one, the scalar |V(G)|) and the adjacency
matrix of G, read as a (0,2) signature, in the middle of every edge.
The same wiring with "at most one" / "exactly one" vertex signatures
and a binary equality on the edges counts matchings and perfect
matchings.

holant.contraction sees the equality bindings and treats each equality
vertex as one index its ports share, so hom(X, G) is contracted as a sum
over X's vertices of products of adjacency matrices, one vertex
eliminated per step, and a matchings count as a sum over X's edges.

Bounded-degree indistinguishability experiments enumerate connected
left graphs up to isomorphism and compare counts against two targets.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .contraction import holant_eval_contracted
from .grids import SignatureGrid
from .tensors import MixedTensor, SymBoolSignature, _check_size, equality_signature

# Holant values for counting problems must sit this close to an integer.
ROUND_TOL = 1e-6


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1 with no loops or multi-edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at {u} not allowed")
            norm.append((min(u, v), max(u, v)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        # edges are distinct pairs u < v: each entry (u, v) and (v, u) is set once
        e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        a[e, e[:, ::-1]] = 1.0
        return a

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def relabel(self, perm: list[int]) -> "SimpleGraph":
        """Image graph where old vertex v becomes perm[v]."""
        return SimpleGraph(self.n, tuple((perm[u], perm[v]) for (u, v) in self.edges))


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


# -- grid constructions --------------------------------------------------------


def _star_grid(x: SimpleGraph, vertex_id, edge_id: str, q: int) -> SignatureGrid:
    """Common wiring: a vertex signature per x-vertex, a 2-port edge
    signature per x-edge.  vertex_id maps a degree to a binding name; an
    isolated vertex gets an arity-0 signature, a scalar with no ports."""
    vertices = [vertex_id(d) for d in x.degrees()]
    edge_base = len(vertices)
    for _ in x.edges:
        vertices.append(edge_id)
    next_port = [1] * x.n
    grid_edges = []
    for k, (u, v) in enumerate(x.edges):
        grid_edges.append((u, next_port[u], edge_base + k, 1))
        next_port[u] += 1
        grid_edges.append((v, next_port[v], edge_base + k, 2))
        next_port[v] += 1
    return SignatureGrid(q, tuple(vertices), tuple(grid_edges))


def hom_grid(x: SimpleGraph, q: int) -> SignatureGrid:
    """Closed grid whose Holant value is hom(x, G) for any target G on
    [q], once "A" is bound to the adjacency of G and each "eq{d}" to the
    equality of arity d (hom_bindings): a degree-d vertex of x is an
    "eq{d}" vertex, an isolated one "eq0", the scalar q."""
    return _star_grid(x, lambda d: f"eq{d}", "A", q)


def hom_bindings(adjacency, max_arity: int) -> dict[str, MixedTensor]:
    a = np.asarray(adjacency, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    q = a.shape[0]
    out = {"A": MixedTensor(q, 0, 2, a)}
    for d in range(max_arity + 1):
        out[f"eq{d}"] = equality_signature(q, d, 0)
    return out


def _round_count(value: complex, what: str) -> int:
    target = round(value.real)
    if abs(value - target) > ROUND_TOL * max(1.0, abs(value)):
        raise ArithmeticError(
            f"{what} value {value} strayed more than {ROUND_TOL} from an integer"
        )
    return int(target)


# target graph -> its hom_bindings, held while the caller holds the target
_target_bindings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def hom_count(x: SimpleGraph, g: SimpleGraph) -> int:
    """Number of homomorphisms from x into g: the Holant value of hom_grid.

    The bindings of g, its adjacency "A" and "eq0" up to the largest
    arity any count into g has needed, are built once per target and
    reused by every later count into g or into a target equal to it.
    They are held in a weak-keyed table, so as long as the caller holds
    g and no longer.  An equality of an arity no count has needed is
    never built, so a count refused for the entry cap (hom_bindings)
    leaves the table fit for the counts that fit it.  The arrays are
    those a fresh binding would build, so every count is unchanged.
    Counts into one target share their elimination steps through the
    step memo of holant.contraction, which keeps them while g's adjacency
    lives.
    """
    if g.n < 1:
        return 0 if x.n else 1
    _check_size(g.n, 2)  # refuse a target too large for A before its dense adjacency
    grid = hom_grid(x, g.n)
    arity = x.max_degree()
    bindings = _target_bindings.get(g)
    if bindings is None:
        bindings = _target_bindings[g] = hom_bindings(g.adjacency(), arity)
    # bindings holds "A" and eq0 .. eq{len(bindings) - 2}
    for d in range(len(bindings) - 1, arity + 1):
        bindings[f"eq{d}"] = equality_signature(g.n, d, 0)
    return _round_count(holant_eval_contracted(grid, bindings), "hom count")


def matchings_signatures(max_arity: int, perfect: bool = False) -> dict[int, MixedTensor]:
    """Boolean vertex signatures for (perfect) matchings, keyed by arity.

    Arity k holds "at most one input is 1" (or "exactly one" when
    perfect); arity 0 is included for isolated vertices.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    out = {}
    for k in range(max_arity + 1):
        vals = [0.0] * (k + 1)
        if k >= 1:
            vals[1] = 1.0
        if not perfect:
            vals[0] = 1.0
        out[k] = SymBoolSignature(tuple(vals), k, 0).to_tensor()
    return out


def matchings_grid(x: SimpleGraph) -> SignatureGrid:
    return _star_grid(x, lambda d: f"m{d}", "eq2", 2)


def count_matchings(x: SimpleGraph, perfect: bool = False) -> int:
    sigs = matchings_signatures(max(x.max_degree(), 1), perfect)
    bindings = {f"m{k}": t for k, t in sigs.items()}
    bindings["eq2"] = equality_signature(2, 0, 2)
    what = "perfect matching count" if perfect else "matching count"
    return _round_count(holant_eval_contracted(matchings_grid(x), bindings), what)


# -- canonical forms and enumeration ---------------------------------------------


def _edge_bit(n: int, u: int, v: int) -> int:
    """The bit of the pair u < v in an n-vertex adjacency code."""
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def _refine_colors(g: SimpleGraph) -> list[int]:
    """Iterated neighborhood refinement.  A color is the rank of the key
    (color, sorted neighbor colors) among all keys, so isomorphic graphs
    get the same classes; canonical_code labels them in color order."""
    adj = [[] for _ in range(g.n)]
    for (u, v) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [len(adj[v]) for v in range(g.n)]
    for _ in range(g.n):
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(g.n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def canonical_code(g: SimpleGraph) -> int:
    """Smallest adjacency bit code over the class-respecting relabelings.

    Labels are handed out color class by color class, in the order of
    `_refine_colors`, and the minimum is taken over every order within
    each class.  That is not the minimum over all n! relabelings, but
    it is the same for isomorphic graphs, since refinement colors are.

    The code's high bits belong to the pairs whose smaller label is
    large, so codes compare as the rows n-2, ..., 0 in turn, where row
    k is the set of labels above k adjacent to the vertex labelled k.
    The search hands out labels from n-1 down and keeps only the
    prefixes whose new row ties for the smallest.  Two tied prefixes
    that assigned the same vertices, and in which every unassigned
    vertex is adjacent to the same assigned labels, have the same
    futures and are merged.
    """
    n = g.n
    if n <= 1:
        return 0
    colors = _refine_colors(g)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    members: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        members.setdefault(c, []).append(v)
    owner = sorted(colors)
    # a state holds, per vertex, -1 once it has a label, else the bit
    # mask of the assigned labels it is adjacent to
    states = [(0,) * n]
    code = 0
    for k in range(n - 1, -1, -1):
        best = 1 << n  # above every mask of labels
        tied: set[tuple[int, ...]] = set()
        for state in states:
            for x in members[owner[k]]:
                row = state[x]
                if row < 0 or row > best:
                    continue
                if row < best:
                    best = row
                    tied = set()
                nxt = list(state)
                nxt[x] = -1
                for w in nbrs[x]:
                    if nxt[w] >= 0:
                        nxt[w] |= 1 << k
                tied.add(tuple(nxt))
        states = tied
        # row k holds labels v > k, from the bit of the pair (k, k+1) on
        code |= best >> (k + 1) << _edge_bit(n, k, k + 1)
    return code


def _graph_of_code(n: int, code: int) -> SimpleGraph:
    """The n-vertex graph whose adjacency bit code is code."""
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if code >> _edge_bit(n, u, v) & 1
    )
    return SimpleGraph(n, edges)


def are_isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    if a.n != b.n or sorted(a.degrees()) != sorted(b.degrees()):
        return False
    return canonical_code(a) == canonical_code(b)


@lru_cache(maxsize=None)
def enumerate_connected_graphs(
    max_vertices: int, max_degree: int | None = None
) -> tuple[SimpleGraph, ...]:
    """All connected graphs up to isomorphism, smallest first.

    Grown by attaching one new vertex to a nonempty subset of an
    existing representative, among its vertices of degree below the
    bound.  Order is by vertex count then canonical code, and each class
    is represented by _graph_of_code of its code.

    Each vertex has the key (degree, sorted degrees of its neighbours),
    compared as tuples.  A candidate is kept only if no non-cut vertex
    of it other than the new one has a larger key than the new vertex
    (the weak half of canonical augmentation: McKay, "Isomorph-free
    exhaustive generation", 1998); only the kept ones are
    canonicalized, and the classes are still told apart by their codes.
    Every class C is still reached: delete a non-cut vertex u of largest
    key from C.  What is left is connected, within the degree bound and
    one vertex smaller, so it is isomorphic to a representative h found
    before; attaching a new vertex to the images of u's neighbours in h,
    which are below the bound in h, makes a candidate isomorphic to C
    whose new vertex is u.  The key is an isomorphism invariant, so in
    that candidate the new vertex, the image of u, has the largest key
    among the non-cut vertices, and it is kept.  The candidates are
    tested on neighbour bit masks built from the parent's; a
    SimpleGraph is made only for the ones kept.
    """
    if max_vertices < 1:
        return ()
    levels: list[dict[int, SimpleGraph]] = [{0: SimpleGraph(1, ())}]
    for n in range(2, max_vertices + 1):
        found: dict[int, SimpleGraph] = {}
        for h in levels[-1].values():
            nbrs = [0] * h.n
            for (u, v) in h.edges:
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
            deg = [m.bit_count() for m in nbrs]
            room = [v for v in range(h.n) if max_degree is None or deg[v] < max_degree]
            top = len(room) if max_degree is None else min(max_degree, len(room))
            for size in range(1, top + 1):
                for back in itertools.combinations(room, size):
                    if not _new_vertex_leads(nbrs, deg, back):
                        continue
                    g = SimpleGraph(n, h.edges + tuple((v, n - 1) for v in back))
                    code = canonical_code(g)
                    if code not in found:
                        found[code] = _graph_of_code(n, code)
        levels.append(found)
    out = []
    for level in levels:
        out.extend(level[c] for c in sorted(level))
    return tuple(out)


def _new_vertex_leads(nbrs: list[int], deg: list[int], back: tuple[int, ...]) -> bool:
    """Whether the vertex attached to back has the largest key (degree,
    sorted neighbour degrees) among the non-cut vertices of the child,
    given the parent's neighbour bit masks and degrees.  The parent is
    connected, so the new vertex is never a cut vertex; a vertex w of
    higher key leads instead unless removing it disconnects the child.
    A neighbour degree list is built only for a vertex whose degree ties
    the new vertex's."""
    size = len(back)
    new = len(nbrs)
    mask = 0
    for v in back:
        mask |= 1 << v
    child = nbrs + [mask]
    for v in back:
        child[v] |= 1 << new
    child_deg = deg + [size]
    for v in back:
        child_deg[v] += 1
    own = None  # the new vertex's sorted neighbour degrees, once needed
    everyone = (1 << (new + 1)) - 1
    for w in range(new):
        if child_deg[w] < size:
            continue
        if child_deg[w] == size:
            if own is None:
                own = sorted([child_deg[v] for v in back])
            if sorted([child_deg[x] for x in range(new + 1) if child[w] >> x & 1]) <= own:
                continue
        # flood the child without w from the new vertex
        rest = everyone & ~(1 << w)
        seen = frontier = 1 << new
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = child[low.bit_length() - 1] & rest & ~seen
            seen |= grow
            frontier |= grow
        if seen == rest:
            return False
    return True


# -- indistinguishability experiments ---------------------------------------------


@dataclass(frozen=True)
class DistinguisherReport:
    verdict: str  # "distinguished" | "indist_at_bound"
    max_degree: int
    max_left_vertices: int
    graphs_checked: int
    distinguisher: SimpleGraph | None = None
    count_f: int | None = None
    count_g: int | None = None


def bounded_degree_distinguisher(
    f: SimpleGraph, g: SimpleGraph, d: int, max_left_vertices: int
) -> DistinguisherReport:
    """Search connected left graphs of max degree d for one with
    different hom counts into f and into g."""
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    checked = 0
    for x in enumerate_connected_graphs(max_left_vertices, d):
        checked += 1
        cf = hom_count(x, f)
        cg = hom_count(x, g)
        if cf != cg:
            return DistinguisherReport(
                "distinguished", d, max_left_vertices, checked, x, cf, cg
            )
    return DistinguisherReport("indist_at_bound", d, max_left_vertices, checked)


@dataclass(frozen=True)
class PairExperimentReport:
    index: int
    status: str  # "skipped" | "isomorphic" | "distinguished" | "indist_at_bound"
    reason: str | None = None
    distinguisher: SimpleGraph | None = None
    count_f: int | None = None
    count_g: int | None = None


def invertible_adjacency_experiment(
    pairs: list[tuple[SimpleGraph, SimpleGraph]], bound: int
) -> list[PairExperimentReport]:
    """For non-isomorphic pairs with nonsingular adjacency matrices,
    hunt for a degree-3 distinguisher up to the vertex bound.

    A miss is evidence relative to the bound only, never a refutation.
    """
    reports = []
    for idx, (f, g) in enumerate(pairs):
        bad = [
            side
            for side, gr in (("first", f), ("second", g))
            if abs(round(float(np.linalg.det(gr.adjacency())))) == 0
        ]
        if bad:
            reports.append(
                PairExperimentReport(
                    idx, "skipped", f"singular adjacency on {' and '.join(bad)} side"
                )
            )
            continue
        if are_isomorphic(f, g):
            reports.append(PairExperimentReport(idx, "isomorphic"))
            continue
        found = bounded_degree_distinguisher(f, g, 3, bound)
        reports.append(
            PairExperimentReport(
                idx,
                found.verdict,
                None,
                found.distinguisher,
                found.count_f,
                found.count_g,
            )
        )
    return reports
