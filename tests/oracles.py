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
oracle_contract_network is the greedy pairwise contraction as it was
before plans were cached, recomputing its order on every call, and
oracle_contract labels a grid's network for it: the reference whose
arithmetic every cached plan must replay bit for bit.
oracle_signatures contracts every grid, loop copies included, with the
library's gadget_signature, one binding set at a time: the reference for
spans.structure_signatures, which contracts one grid per structure for
every binding set at once and derives the other slot orders and loop
counts.  oracle_verify_holant_theorem is verify_holant_theorem's
judgement as a loop over the grids in walk order, on oracle_signatures'
values: the reference for the library's judgement of whole value arrays.
oracle_port_class is a grid's class under same-id relabelings and
in-group port permutations, by listing every relabeling: the reference
for the walk up to port symmetry (holant.portclasses).
oracle_trace_words compares the traces of every word up to a length,
the reference for simsim.trace_words_equal.  oracle_validate,
oracle_elimination_plan and oracle_connected_graphs are the port check,
the elimination planner and the connected-graph census as they were
before each was made faster (a dict of port counts, widths recomputed
from the nodes and found by a scan, every candidate canonicalized): the
references whose messages, plans and census the library must match.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from holant.contraction import gadget_signature, resolve_bindings
from holant.grids import WIRE_ID, SignatureGrid, enumerate_grids
from holant.homgraphs import SimpleGraph, _graph_of_code, _refine_colors, canonical_code
from holant.spans import _symmetric_ids
from holant.tensors import MAX_ENTRIES, MixedTensor, identity_signature
from holant.transforms import PREDICATE_TOL, HolantTheoremReport

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


def oracle_contract_network(q, node_arrays, node_labels, label_edges, open_labels, loops):
    """The contraction before plans were cached, kept verbatim as an oracle.

    Recomputes the greedy pairwise order on every call: repeatedly
    contract the node pair whose result tensor is smallest.
    """
    nodes: dict[int, tuple[np.ndarray, list]] = {
        i: (np.asarray(a, dtype=np.complex128), list(ls))
        for i, (a, ls) in enumerate(zip(node_arrays, node_labels))
    }
    owner: dict[object, int] = {}
    for nid, (_, ls) in nodes.items():
        for lbl in ls:
            owner[lbl] = nid
    next_id = len(nodes)
    edges = list(label_edges)

    def trace_self(nid):
        nonlocal edges
        arr, ls = nodes[nid]
        while True:
            here = [e for e in edges if owner[e[0]] == nid and owner[e[1]] == nid]
            if not here:
                break
            la, lb = here[0]
            p1, p2 = ls.index(la), ls.index(lb)
            arr = np.trace(arr, axis1=min(p1, p2), axis2=max(p1, p2))
            ls = [x for x in ls if x not in (la, lb)]
            del owner[la], owner[lb]
            edges.remove(here[0])
        nodes[nid] = (arr, ls)

    for nid in list(nodes):
        trace_self(nid)

    while edges:
        pairs: dict[tuple[int, int], list] = {}
        for e in edges:
            u, v = owner[e[0]], owner[e[1]]
            key = (min(u, v), max(u, v))
            pairs.setdefault(key, []).append(e)
        best = None
        for (u, v), shared in sorted(pairs.items()):
            ndim = nodes[u][0].ndim + nodes[v][0].ndim - 2 * len(shared)
            cost = q**ndim
            if best is None or cost < best[0]:
                best = (cost, u, v, shared)
        cost, u, v, shared = best
        au, lu = nodes[u]
        av, lv = nodes[v]
        ax_u, ax_v = [], []
        for (la, lb) in shared:
            if owner[la] == u:
                ax_u.append(lu.index(la))
                ax_v.append(lv.index(lb))
            else:
                ax_u.append(lu.index(lb))
                ax_v.append(lv.index(la))
            del owner[la], owner[lb]
        arr = np.tensordot(au, av, axes=(ax_u, ax_v))
        labels = [x for k, x in enumerate(lu) if k not in ax_u] + [
            x for k, x in enumerate(lv) if k not in ax_v
        ]
        del nodes[u], nodes[v]
        nodes[next_id] = (arr, labels)
        for lbl in labels:
            owner[lbl] = next_id
        edges = [e for e in edges if e not in shared]
        trace_self(next_id)
        next_id += 1

    arr = np.array(1 + 0j)
    labels: list = []
    for nid in sorted(nodes):
        a, ls = nodes[nid]
        arr = np.multiply.outer(arr, a)
        labels += ls
    perm = [labels.index(lbl) for lbl in open_labels]
    arr = np.transpose(arr, perm) if perm else arr.reshape(())
    return arr * q**loops


def oracle_contract(grid, bindings):
    """Label the grid's network as before plans and contract it by the oracle."""
    b = dict(bindings)
    b.setdefault(WIRE_ID, identity_signature(grid.q))
    shapes = {sid: sig.shape for sid, sig in b.items()}
    grid.validate(shapes)
    arrays = [b[sid].array for sid in grid.vertices]
    labels = []
    for v, sid in enumerate(grid.vertices):
        l, r = shapes[sid]
        labels.append([("L", v, i) for i in range(1, l + 1)] + [("R", v, j) for j in range(1, r + 1)])
    label_edges = [(("L", u, i), ("R", v, j)) for (u, i, v, j) in grid.edges]
    open_labels = [("L", v, i) for (v, i) in grid.left_dangling] + [
        ("R", v, j) for (v, j) in grid.right_dangling
    ]
    return oracle_contract_network(grid.q, arrays, labels, label_edges, open_labels, grid.loops)


def oracle_signatures(grids, *bindings):
    """spans.structure_signatures without the derivations: each grid with
    its own contracted signature array under every binding set."""
    for g in grids:
        yield (g, *(gadget_signature(g, b).array for b in bindings))


def oracle_verify_holant_theorem(fs, t, max_vertices, tol=PREDICATE_TOL):
    """verify_holant_theorem with the judgement a loop over the grids:
    each grid's values under fs and T·F from oracle_signatures, its error
    by Python's abs of a complex, and the first strictly largest scaled
    error kept with its grid."""
    if not fs:
        raise ValueError("need at least one signature")
    qs = {s.q for s in fs.values()}
    if qs != {t.q}:
        raise ValueError("signatures and transform must share one domain size")
    transformed = t.act_set(fs)
    worst = None
    max_abs = 0.0
    max_scaled = 0.0
    count = 0
    grids = enumerate_grids(
        [(name, sig.shape) for name, sig in fs.items()], max_vertices, t.q,
        symmetric=_symmetric_ids(fs),
    )
    for grid, sig_before, sig_after in oracle_signatures(grids, fs, transformed):
        before, after = complex(sig_before), complex(sig_after)
        err = abs(before - after)
        scaled = err / (1 + abs(before))
        count += 1
        if scaled > max_scaled:
            max_scaled = scaled
            worst = grid
        max_abs = max(max_abs, err)
    return HolantTheoremReport(
        q=t.q,
        max_vertices=max_vertices,
        grids_checked=count,
        max_abs_error=max_abs,
        max_scaled_error=max_scaled,
        worst_grid=worst,
        tol=tol,
        passed=max_scaled <= tol,
    )


def oracle_trace_words(fs, gs, max_len, tol=1e-8):
    """Every word up to max_len, breadth first, generators in the given
    order: the first word whose traces differ, with both traces, or None.

    The reference for simsim.trace_words_equal, which checks the basis
    words of the algebra generated by the pairs F_i (+) G_i.  Basis words
    are at most 2 q^2 - 1 long, so max_len = 2 q^2 - 1 makes the sweep
    complete.  Each generator pair is rescaled to unit Frobenius norm
    before multiplying, and tol applies to the rescaled traces.
    """
    names = list(fs)
    f_mats, g_mats, scales = {}, {}, {}
    for name in names:
        f, g = np.asarray(fs[name], dtype=complex), np.asarray(gs[name], dtype=complex)
        scales[name] = max(np.linalg.norm(f), np.linalg.norm(g)) or 1.0
        f_mats[name], g_mats[name] = f / scales[name], g / scales[name]
    q = next(iter(f_mats.values())).shape[0]
    eye = np.eye(q, dtype=complex)
    level = [((), eye, eye, 1.0)]
    for _ in range(max_len):
        next_level = []
        for word, mf, mg, scale in level:
            for name in names:
                wf, wg = mf @ f_mats[name], mg @ g_mats[name]
                tf, tg = complex(np.trace(wf)), complex(np.trace(wg))
                word_scale = scale * scales[name]
                if abs(tf - tg) > tol * (1 + max(abs(tf), abs(tg))):
                    return word + (name,), tf * word_scale, tg * word_scale
                next_level.append((word + (name,), wf, wg, word_scale))
        level = next_level
    return None


def oracle_validate(grid: SignatureGrid, shapes: dict[str, tuple[int, int]]) -> None:
    """SignatureGrid.validate as a closure per port and a dict of counts
    keyed by (vertex, side, port): the reference for the library's flat
    count list, which must raise the same first message."""
    n = len(grid.vertices)
    for sig in grid.vertices:
        if sig not in shapes:
            raise ValueError(f"no shape known for signature {sig!r}")
    use: dict[tuple[int, str, int], int] = {}

    def touch(v: int, side: str, port: int) -> None:
        if not (0 <= v < n):
            raise ValueError(f"vertex index {v} out of range")
        l, r = shapes[grid.vertices[v]]
        limit = l if side == "L" else r
        if not (1 <= port <= limit):
            raise ValueError(
                f"port {port} out of range for {side} side of vertex {v} "
                f"({grid.vertices[v]!r} has shape {(l, r)})"
            )
        key = (v, side, port)
        use[key] = use.get(key, 0) + 1

    for (u, i, v, j) in grid.edges:
        touch(u, "L", i)
        touch(v, "R", j)
    for (v, i) in grid.left_dangling:
        touch(v, "L", i)
    for (v, j) in grid.right_dangling:
        touch(v, "R", j)
    for v in range(n):
        l, r = shapes[grid.vertices[v]]
        for i in range(1, l + 1):
            if use.get((v, "L", i), 0) != 1:
                raise ValueError(f"left port {i} of vertex {v} used {use.get((v,'L',i),0)} times")
        for j in range(1, r + 1):
            if use.get((v, "R", j), 0) != 1:
                raise ValueError(f"right port {j} of vertex {v} used {use.get((v,'R',j),0)} times")


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def oracle_elimination_plan(vertices, edges, shape_of, equal):
    """holant.elimination.elimination_plan with every width recomputed as
    the classes of the nodes holding a class, and the next class found
    by a scan of every width: the reference for the library's bit masks
    and heap, whose (steps, outer, free) must be equal."""
    start = [0]
    for sig in vertices:
        start.append(start[-1] + sum(shape_of[sig]))
    parent = list(range(start[-1]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, sig in enumerate(vertices):
        if sig in equal:
            for port in range(start[v] + 1, start[v + 1]):
                parent[find(port)] = find(start[v])
    for (u, i, v, j) in edges:
        parent[find(start[u] + i - 1)] = find(start[v] + shape_of[vertices[v]][0] + j - 1)
    number: dict[int, int] = {}
    class_of = [number.setdefault(find(port), len(number)) for port in range(start[-1])]

    axes = {
        v: class_of[start[v]:start[v + 1]]
        for v, sig in enumerate(vertices) if sig not in equal
    }
    holders: dict[int, set[int]] = {}
    for v, classes in axes.items():
        for c in classes:
            holders.setdefault(c, set()).add(v)
    free = len(number) - len(holders) + sum(
        1 for v, sig in enumerate(vertices) if sig in equal and start[v] == start[v + 1]
    )

    width = {c: len(set().union(*(axes[w] for w in holders[c]))) - 1 for c in holders}
    steps = []
    node = len(vertices)
    while width:
        rank, c = min((w, c) for c, w in width.items())
        del width[c]
        ops = sorted(holders.pop(c))
        held = sorted(set().union(*(axes[w] for w in ops)))
        kept = [x for x in held if x != c]
        subscripts = None
        if len(held) <= len(_LETTERS):
            letter = dict(zip(held, _LETTERS))
            subscripts = ",".join("".join(letter[x] for x in axes[w]) for w in ops)
            subscripts += "->" + "".join(letter[x] for x in kept)
        steps.append((tuple(ops), subscripts, rank))
        for w in ops:
            del axes[w]
        axes[node] = kept
        # a class's width changes only when a step leaves it on the new node
        for x in kept:
            holders[x] = holders[x].difference(ops) | {node}
            width[x] = len(set().union(*(axes[w] for w in holders[x]))) - 1
        node += 1
    return tuple(steps), tuple(sorted(axes)), free


def oracle_connected_graphs(max_vertices, max_degree=None):
    """enumerate_connected_graphs with every candidate canonicalized: the
    reference for the library's census, which canonicalizes only the
    candidates whose new vertex leads the non-cut vertices by degree."""
    if max_vertices < 1:
        return ()
    levels: list[dict[int, SimpleGraph]] = [{0: SimpleGraph(1, ())}]
    for n in range(2, max_vertices + 1):
        found: dict[int, SimpleGraph] = {}
        for h in levels[-1].values():
            deg = h.degrees()
            room = [v for v in range(h.n) if max_degree is None or deg[v] < max_degree]
            top = len(room) if max_degree is None else min(max_degree, len(room))
            for size in range(1, top + 1):
                for back in itertools.combinations(room, size):
                    g = SimpleGraph(n, h.edges + tuple((v, n - 1) for v in back))
                    code = canonical_code(g)
                    if code not in found:
                        found[code] = _graph_of_code(n, code)
        levels.append(found)
    out = []
    for level in levels:
        out.extend(level[c] for c in sorted(level))
    return tuple(out)
