"""Grids and gadgets over symmetric signatures, one per class of port
permutations.

A signature is symmetric when permuting its left slots among themselves,
or its right slots among themselves, leaves its array unchanged
(MixedTensor.is_symmetric).  Over such signatures a grid's Holant value,
and a gadget's signature, depend on which vertices its edges and stubs
join but not on which port of a group they use.  So a structure is a
vertex-colored directed multigraph: its multiplicity matrix M counts the
edges from left ports of u to right ports of v, each vertex's row sum is
at most its left arity and its column sum at most its right arity, and
the ports left over are stubs, each a pendant vertex colored by its
slot.  A bare wire is a stub-to-stub edge, materialized as a vertex
carrying the reserved "wire" id, as in the ordered walk.

classes_for_multiset stands in for grids._gadgets_for_multiset: it
yields one representative of each class, an ordinary grid with ports,
for one vertex multiset and wire count.  It does not deduplicate.  It
builds M a vertex at a time and keeps a partial matrix only when it is
its own canonical form, the lexicographic minimum over same-id
relabelings of its shells: shell k is row k up to column k, then column
k above row k.  The first k shells depend only on the first k labels,
so the canonical form of a matrix restricts to the canonical form of
its leading vertices, and pruning a partial matrix that is not
canonical loses no class (orderly generation: Read 1978; Faradzev
1978).  Each canonicity test starts from its parent's, the test of the
leading vertices it extends: it keeps the parent's tied prefixes,
labelings of the first labels whose shells tie with the identity's,
and searches only those that hold the new vertex.  A prefix without it
reads only entries the parent read, and none of them fell below there,
so the kept ones lose no class and hide no "below" verdict
(_automorphisms says why).  The stub part of a class is minimized over
the automorphisms of its matrix, which the last canonicity test
returns.

Imported on first use by grids.enumerate_grids and enumerate_gadgets.
"""

from __future__ import annotations

from holant.grids import WIRE_ID, _components_all_dangle, _id_runs


def classes_for_multiset(base_sigs, base_shapes, lp, rp, w):
    """One representative per class of (lp, rp) structures over the
    vertices base_sigs (sorted ids, with base_shapes) and w bare wires.

    Representatives come in canonical order: by matrix code, then by
    the stub part, left slots first.  Each representative's edges use
    every vertex's lowest ports, in matrix order, and its stubs the ports
    left over, in slot order; so every slot order of one matrix has the
    same vertices, edges and stub multiset, and the slot orders of a
    matrix come back to back, as grids._structures promises.  As in the
    ordered walk, a structure with stubs is skipped when some component
    reaches none of them; closed structures keep every component.
    """
    n = len(base_sigs)
    sig_list = list(base_sigs) + [WIRE_ID] * w
    edge_count = sum(l for l, _ in base_shapes) - (lp - w)
    for m, automorphisms in _matrices(base_sigs, base_shapes, edge_count):
        out_deg = [sum(row) for row in m]
        in_deg = [sum(col) for col in zip(*m)]
        edges = []
        next_left, next_right = [0] * n, [0] * n
        for u in range(n):
            for v in range(n):
                for _ in range(m[u][v]):
                    next_left[u] += 1
                    next_right[v] += 1
                    edges.append((u, next_left[u], v, next_right[v]))
        edges = tuple(edges)
        left_free = [l - d for (l, _), d in zip(base_shapes, out_deg)]
        right_free = [r - d for (_, r), d in zip(base_shapes, in_deg)]
        stubs = [(v, 0) for v in range(n) if left_free[v] or right_free[v]]
        stubs += [(n + t, 0) for t in range(w)]
        if stubs and not _components_all_dangle(n + w, edges, stubs):
            continue
        for left, right in _slot_orders(left_free, right_free, w, automorphisms):
            yield (
                tuple(sig_list), edges,
                _stub_ports(left, out_deg, n), _stub_ports(right, in_deg, n),
            )


def _matrices(sigs, shapes, edge_count):
    """Canonical multiplicity matrices with edge_count edges, in code
    order, each with its automorphisms (label -> vertex tuples)."""
    n = len(sigs)
    run = _id_runs(list(sigs))
    m = [[0] * n for _ in range(n)]
    out_free = [l for l, _ in shapes]
    in_free = [r for _, r in shapes]

    def shell_entries(k):
        # (row, column) of each entry of shell k, in code order
        return [(k, j) for j in range(k + 1)] + [(i, k) for i in range(k)]

    def fill(cells, pos, budget):
        """Set every assignment of the cells from pos on into m, in lex
        order, and yield the edges each leaves in the budget."""
        if pos == len(cells):
            yield budget
            return
        u, v = cells[pos]
        top = min(out_free[u], in_free[v], budget)
        for x in range(top + 1):
            m[u][v] = x
            out_free[u] -= x
            in_free[v] -= x
            yield from fill(cells, pos + 1, budget - x)
            out_free[u] += x
            in_free[v] += x
        m[u][v] = 0

    def extend(k, budget, parent):
        for left in fill(shell_entries(k), 0, budget):
            tied = _automorphisms(m, run, k + 1, parent)
            if tied is None:
                continue
            if k + 1 < n:
                yield from extend(k + 1, left, tied)
            elif left == 0:
                yield [row[:] for row in m], tied[-1]

    if n == 0:
        if edge_count == 0:
            yield [], [()]
    elif edge_count >= 0:
        yield from extend(0, edge_count, [])


def _automorphisms(m, run, size, parent):
    """None if the leading size vertices of m are not their own canonical
    form; else the tied prefixes of each length t + 1 <= size, level by
    level.  A tied prefix is a tuple listing the vertex of each label
    0..t, each vertex of its label's id, whose shells 0..t tie with the
    identity's; the last level holds every same-id relabeling that maps
    the leading size vertices onto themselves.

    A search over tied prefixes: labels go out 0, 1, ... each to a free
    vertex of its id, and a labeling survives while its shells tie with
    the identity's.  One that falls below the identity shows the
    identity is not the minimum.  parent is this list for the leading
    size - 1 vertices, which passed the test.  A prefix that avoids the
    new vertex k = size - 1 reads only entries among the first k
    vertices, so it has the shells it had there: it tied there, and none
    fell below or the parent would have failed.  So the prefixes that
    avoid k are the parent's, and only those that hold k are searched:
    the parent's prefixes with k appended, and these extended.  Every
    candidate of a search from scratch either was one of the parent's
    or is one of these two kinds, so no tied prefix and no "below"
    verdict is lost.  Vertex k takes only
    labels of its own run, from run[k] on; below that the levels are
    the parent's as they stand.
    """
    k = size - 1
    levels = parent[:run[k]]
    fresh: list[tuple[int, ...]] = []  # the tied prefixes of length t that hold k
    for t in range(run[k], size):
        orders = [lab + (k,) for lab in (parent[t - 1] if t else [()])]
        orders += [lab + (v,) for lab in fresh for v in range(run[k], size) if v not in lab]
        fresh = []
        for order in orders:
            d = _shell_difference(m, order, t)
            if d < 0:
                return None
            if d == 0:
                fresh.append(order)
        levels.append(parent[t] + fresh if t < k else fresh)
    return levels


def _shell_difference(m, order, t):
    """The first nonzero difference, in code order, between shell t of m
    relabeled by order (label s to vertex order[s]) and the identity's
    shell t; 0 if the two tie."""
    v = order[t]
    row, own = m[v], m[t]
    for s in range(t + 1):
        d = row[order[s]] - own[s]
        if d:
            return d
    for s in range(t):
        d = m[order[s]][v] - m[s][t]
        if d:
            return d
    return 0


def _slot_orders(left_free, right_free, w, automorphisms):
    """The canonical (left, right) slot sequences, in lex order: the
    vertex holding each slot.

    Wires n, n+1, ... hold the left slots in increasing order, which is
    the smallest of their w! orders for every relabeling of the other
    vertices; a sequence pair is kept when no automorphism of the matrix
    maps it to a smaller one.
    """
    n = len(left_free)
    lefts = _arrangements([v for v in range(n) for _ in range(left_free[v])] + [n] * w)
    rights = list(_arrangements(
        [v for v in range(n) for _ in range(right_free[v])] + list(range(n, n + w))
    ))
    for left in lefts:
        wires = iter(range(n, n + w))
        left = tuple(next(wires) if v == n else v for v in left)
        for right in rights:
            if all(
                (left, right) <= (
                    tuple(lab[v] if v < n else v for v in left),
                    tuple(lab[v] if v < n else v for v in right),
                )
                for lab in automorphisms
            ):
                yield left, right


def _arrangements(items):
    """Distinct orderings of a multiset, in lex order."""
    counts: dict[int, int] = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    out: list[int] = []

    def rec():
        if len(out) == len(items):
            yield tuple(out)
            return
        for x in keys:
            if counts[x]:
                counts[x] -= 1
                out.append(x)
                yield from rec()
                out.pop()
                counts[x] += 1

    return rec()


def _stub_ports(slots, used, n):
    """(vertex, port) per slot: a vertex's stubs take the ports after its
    edges', in slot order; a wire's only port is 1."""
    taken = list(used)
    out = []
    for v in slots:
        if v >= n:
            out.append((v, 1))
        else:
            taken[v] += 1
            out.append((v, taken[v]))
    return tuple(out)
