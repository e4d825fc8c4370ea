"""Brute-force evaluators and searches, kept only as oracles for the tests.

Each one computes its number straight from the definition: a sum over
every assignment of domain values, of the product of the entries that
assignment reads, or for brute_matchings a count over every edge subset.  None of them shares evaluation code with the library:
the assignment loops and the axis tables here are their own, so a
library bug cannot hide in both.  Binding resolution and port validation
are the library's, since those decide what a grid means, not its value;
so is color refinement, which decides the relabelings a canonical code
ranges over.  oracle_grid_code and oracle_grid_labelings list every
same-id relabeling of a grid, the reference for the library's search
over tied prefixes.  oracle_contraction_plan is the contraction planner
as a plain, uncached greedy loop that plans one grid at its own q and
stub order, the reference for the library's plan cache: its plans, which
ignore q >= 2, the loop count and the stub order, are compared once
specialized to a grid, and so are its two cap messages.
oracle_signatures contracts every grid, loop copies included, with the
library's gadget_signature: the reference for spans.structure_signatures,
which contracts one grid per structure and derives the other slot orders
and loop counts.  oracle_port_class is a grid's class under same-id
relabelings and in-group port permutations, by listing every relabeling:
the reference for the walk up to port symmetry (holant.portclasses).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from holant.grids import SignatureGrid, gadget_signature, resolve_bindings
from holant.homgraphs import SimpleGraph, _refine_colors
from holant.tensors import MAX_ENTRIES, MixedTensor

# brute_hom_count refuses to walk more maps than this
BRUTE_CAP = 10**8


def _axis_positions(grid: SignatureGrid, shapes: dict[str, tuple[int, int]]):
    """For each vertex, the assignment position that feeds each axis.

    An assignment lists the edges' values, then the dangling slots',
    left slots first.
    """
    tables = [[0] * sum(shapes[sig]) for sig in grid.vertices]
    for eid, (u, i, v, j) in enumerate(grid.edges):
        tables[u][i - 1] = eid
        tables[v][shapes[grid.vertices[v]][0] + j - 1] = eid
    first = len(grid.edges)
    for k, (v, i) in enumerate(grid.left_dangling):
        tables[v][i - 1] = first + k
    first += len(grid.left_dangling)
    for k, (v, j) in enumerate(grid.right_dangling):
        tables[v][shapes[grid.vertices[v]][0] + j - 1] = first + k
    return [tuple(t) for t in tables]


def brute_gadget_signature(grid: SignatureGrid, bindings: dict[str, MixedTensor]) -> MixedTensor:
    """Signature of a gadget by pinning its dangling slots and summing.

    For every assignment of the dangling slots, sums over all edge
    assignments the product of vertex signature entries, short-circuiting
    a term as soon as a factor is zero, then multiplies by q per
    vertexless loop.
    """
    b = resolve_bindings(grid, bindings)
    shapes = {k: v.shape for k, v in b.items()}
    grid.validate(shapes)
    l, r = grid.profile
    q = grid.q
    ne = len(grid.edges)
    if q ** (ne + l + r) > MAX_ENTRIES:
        raise ValueError(f"{q}^{ne + l + r} assignments exceeds the enumeration cap")
    plans = list(zip((b[sig].array for sig in grid.vertices), _axis_positions(grid, shapes)))
    out = np.zeros((q,) * (l + r), dtype=np.complex128)
    for pins in itertools.product(range(q), repeat=l + r):
        total = 0j
        for assign in itertools.product(range(q), repeat=ne):
            slots = assign + pins
            term = 1 + 0j
            for arr, axes in plans:
                f = arr[tuple(slots[k] for k in axes)]
                if f == 0:
                    term = 0j
                    break
                term *= f
            total += term
        out[pins] = total * q**grid.loops
    return MixedTensor(q, l, r, out)


def brute_holant_eval(grid: SignatureGrid, bindings: dict[str, MixedTensor]) -> complex:
    """Holant value of a closed grid: brute_gadget_signature's closed case."""
    if not grid.is_closed():
        raise ValueError("brute_holant_eval needs a closed grid")
    return complex(brute_gadget_signature(grid, bindings).array)


def brute_hom_count(x: SimpleGraph, g: SimpleGraph) -> int:
    """Number of maps from x's vertices to g's that send edges to edges."""
    if g.n**x.n > BRUTE_CAP:
        raise ValueError(f"brute force over {g.n}**{x.n} maps refused")
    adjacent = {(u, v) for (u, v) in g.edges} | {(v, u) for (u, v) in g.edges}
    return sum(
        all((sigma[u], sigma[v]) in adjacent for (u, v) in x.edges)
        for sigma in itertools.product(range(g.n), repeat=x.n)
    )


def brute_matchings(x: SimpleGraph, perfect: bool) -> int:
    """Number of edge subsets of x that share no vertex, and that cover
    every vertex if perfect."""
    count = 0
    for r in range(x.m + 1):
        for sub in itertools.combinations(x.edges, r):
            used = [v for e in sub for v in e]
            if len(set(used)) != len(used):
                continue
            if perfect and len(used) != x.n:
                continue
            count += 1
    return count


def oracle_canonical_code(g: SimpleGraph) -> int:
    """canonical_code by listing every relabeling it ranges over.

    Labels go out color class by color class in refined color order,
    and every order within each class is tried; the code of a labeling
    sets bit i for the i-th pair of labels in combinations order.
    """
    if g.n <= 1:
        return 0
    bit = {pair: i for i, pair in enumerate(itertools.combinations(range(g.n), 2))}
    colors = _refine_colors(g)
    classes = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        label = {v: i for i, v in enumerate(itertools.chain(*parts))}
        code = sum(1 << bit[tuple(sorted((label[u], label[v])))] for (u, v) in g.edges)
        if best is None or code < best:
            best = code
    return best


def _same_id_relabelings(sig_list):
    """Every relabeling that permutes vertices with equal signature ids,
    as a dict from vertex to new label; sig_list is sorted."""
    groups = [
        list(g) for _, g in itertools.groupby(range(len(sig_list)), key=sig_list.__getitem__)
    ]
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        yield {src: dst for g, image in zip(groups, images) for src, dst in zip(g, image)}


def oracle_grid_code(sig_list, edges, left_dangling, right_dangling):
    """Minimum of (sorted edges, left stubs, right stubs) over every
    relabeling that permutes vertices with equal signature ids."""
    best = None
    for perm in _same_id_relabelings(sig_list):
        code = (
            tuple(sorted((perm[u], i, perm[v], j) for (u, i, v, j) in edges)),
            tuple((perm[v], i) for (v, i) in left_dangling),
            tuple((perm[v], j) for (v, j) in right_dangling),
        )
        if best is None or code < best:
            best = code
    return best


def oracle_grid_labelings(sig_list, edges):
    """Every same-id relabeling under which the sorted edges are smallest,
    each as the tuple of new labels in vertex order."""
    relabeled = [
        (
            tuple(sorted((perm[u], i, perm[v], j) for (u, i, v, j) in edges)),
            tuple(perm[v] for v in range(len(sig_list))),
        )
        for perm in _same_id_relabelings(sig_list)
    ]
    best = min(code for code, _ in relabeled)
    return [p for code, p in relabeled if code == best]


def oracle_port_class(grid: SignatureGrid):
    """The class of a grid under same-id relabelings and, inside each
    vertex, permutations of its left ports and of its right ports.

    Permuting a vertex's ports inside a group only renames which port
    each edge and stub uses there, so two grids are one class exactly
    when some same-id relabeling maps the multiset of (u, v) vertex
    pairs of one's edges, and the vertex of each of its slots, onto the
    other's: the ports are forgotten, and the minimum is taken over every
    relabeling.  Vertices, the profile and loops complete the class.
    """
    best = None
    for perm in _same_id_relabelings(grid.vertices):
        code = (
            tuple(sorted((perm[u], perm[v]) for (u, _, v, _) in grid.edges)),
            tuple(perm[v] for (v, _) in grid.left_dangling),
            tuple(perm[v] for (v, _) in grid.right_dangling),
        )
        if best is None or code < best:
            best = code
    return (grid.q, grid.vertices, grid.loops, best)


class SpecializedPlan(NamedTuple):
    """One grid's contraction order at its own q and stub order.

    Nodes 0..n-1 are the vertex tensors; pairwise step k creates node n+k.
    traces: (node, axis1, axis2) for each self-edge, as np.trace takes them.
    steps: (u, perm_u, shape_u, v, perm_v, shape_v, shape) per pairwise
        contraction, exactly as np.tensordot performs it: transpose and
        reshape both operands to matrices, np.dot, reshape the product.
    outer: the nodes left over, multiplied as outer products in this order.
    perm: axes of that product in dangling slot order, left stubs first.
    factor: q to the number of vertexless loops.
    """

    traces: tuple[tuple[int, int, int], ...]
    steps: tuple[tuple, ...]
    outer: tuple[int, ...]
    perm: tuple[int, ...]
    factor: int


def oracle_contraction_plan(
    grid: SignatureGrid, shapes: tuple[tuple[str, tuple[int, int]], ...]
) -> SpecializedPlan:
    """The contraction planner as it was before plans were cached per
    structure: uncached, planning one grid at its own q and stub order,
    and rebuilding and re-sorting every node pair on every greedy step.

    Validates grid against the (id, shape) pairs and plans its
    contraction from the structure only, never signature values.  Every
    self-edge is traced first; then the greedy order repeatedly contracts
    the node pair whose result tensor is smallest, the first such pair in
    node order.
    """
    shape_of = dict(shapes)
    grid.validate(shape_of)
    q = grid.q
    # one int label per vertex port, numbered so each vertex's labels list
    # its axes in order: left ports, then right ports
    start: list[int] = []
    labels: list[list[int] | None] = []
    owner: list[int] = []
    for v, sig in enumerate(grid.vertices):
        l, r = shape_of[sig]
        start.append(len(owner))
        labels.append(list(range(len(owner), len(owner) + l + r)))
        owner += [v] * (l + r)

    def right(v: int, j: int) -> int:
        return start[v] + shape_of[grid.vertices[v]][0] + j - 1

    edges = [(start[u] + i - 1, right(v, j)) for (u, i, v, j) in grid.edges]
    open_labels = [start[v] + i - 1 for (v, i) in grid.left_dangling] + [
        right(v, j) for (v, j) in grid.right_dangling
    ]

    traces = []
    self_edges = [e for e in edges if owner[e[0]] == owner[e[1]]]
    for la, lb in sorted(self_edges, key=lambda e: owner[e[0]]):
        ls = labels[owner[la]]
        p1, p2 = sorted((ls.index(la), ls.index(lb)))
        traces.append((owner[la], p1, p2))
        ls.remove(la)
        ls.remove(lb)
    edges = [e for e in edges if owner[e[0]] != owner[e[1]]]

    steps = []
    while edges:
        pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for e in edges:
            u, v = owner[e[0]], owner[e[1]]
            pairs.setdefault((min(u, v), max(u, v)), []).append(e)
        best = None
        for (u, v), shared in sorted(pairs.items()):
            cost = q ** (len(labels[u]) + len(labels[v]) - 2 * len(shared))
            if best is None or cost < best[0]:
                best = (cost, u, v, shared)
        cost, u, v, shared = best
        if cost > MAX_ENTRIES:
            raise ValueError(f"intermediate tensor of {cost} entries exceeds the cap")
        lu, lv = labels[u], labels[v]
        ax_u, ax_v = [], []
        for la, lb in shared:
            if owner[la] != u:
                la, lb = lb, la
            ax_u.append(lu.index(la))
            ax_v.append(lv.index(lb))
        keep_u = [k for k in range(len(lu)) if k not in ax_u]
        keep_v = [k for k in range(len(lv)) if k not in ax_v]
        steps.append((
            u, tuple(keep_u + ax_u), (q ** len(keep_u), q ** len(ax_u)),
            v, tuple(ax_v + keep_v), (q ** len(ax_v), q ** len(keep_v)),
            (q,) * (len(keep_u) + len(keep_v)),
        ))
        merged = [lu[k] for k in keep_u] + [lv[k] for k in keep_v]
        for lbl in merged:
            owner[lbl] = len(labels)
        labels[u] = labels[v] = None
        labels.append(merged)
        # every edge between u and v is in shared and self-edges were
        # traced up front, so the merged node has none
        edges = [e for e in edges if e not in shared]

    outer = tuple(nid for nid, ls in enumerate(labels) if ls is not None)
    size = 1
    remaining: list[int] = []
    for nid in outer:
        if size * q ** len(labels[nid]) > MAX_ENTRIES:
            raise ValueError("outer product exceeds the entry cap")
        size *= q ** len(labels[nid])
        remaining += labels[nid]
    perm = tuple(remaining.index(lbl) for lbl in open_labels)
    if sorted(perm) != list(range(len(remaining))):
        raise ValueError("open labels do not match the remaining axes")
    return SpecializedPlan(tuple(traces), tuple(steps), outer, perm, q**grid.loops)


def oracle_signatures(grids, *bindings):
    """spans.structure_signatures without the derivations: each grid with
    its own contracted signature array under every binding set."""
    for g in grids:
        yield (g, *(gadget_signature(g, b).array for b in bindings))
