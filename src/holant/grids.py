"""Signature grids: what a grid is, which grids exist up to isomorphism,
and the Holant value as a polynomial in symbolic signature entries.
holant.contraction turns a bound grid into numbers.

A grid is a multigraph whose vertices carry signature ids and whose edges
join a contravariant (left) port of one vertex to a covariant (right)
port of another; ports are 1-based.  Dangling stubs occupy ports the same
way and carry the grid's external slot order: left stubs are contravariant
slots 1..l, right stubs covariant slots 1..r.  Vertexless loops are kept
as a bare count; each contributes a factor q to the Holant value.

Bare wires (dangling edges with no incident vertex) are materialized as
vertices carrying the reserved signature id "wire", which is always bound
to the (1,1) identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from holant.tensors import MAX_ENTRIES, MixedTensor, identity_signature

WIRE_ID = "wire"

Edge = tuple[int, int, int, int]  # (u, left port of u, v, right port of v)
Stub = tuple[int, int]  # (vertex, port)


@dataclass(frozen=True)
class SignatureGrid:
    """A grid over named signatures; immutable structural data only."""

    q: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    left_dangling: tuple[Stub, ...] = ()
    right_dangling: tuple[Stub, ...] = ()
    loops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        object.__setattr__(self, "left_dangling", tuple(map(tuple, self.left_dangling)))
        object.__setattr__(self, "right_dangling", tuple(map(tuple, self.right_dangling)))
        if self.q < 1:
            raise ValueError("domain size must be positive")
        if self.loops < 0:
            raise ValueError("loop count must be nonnegative")
        if self.q >= 2 and self.loops >= 1024 / math.log2(self.q):
            # q**loops >= 2**1024 overflows a float, so no such grid has
            # a finite value; refuse before anything builds the power
            # (an int compares with a float exactly, at any size)
            raise ValueError(f"{self.loops} loops at q={self.q}: q**loops is not a finite float")

    @property
    def profile(self) -> tuple[int, int]:
        return (len(self.left_dangling), len(self.right_dangling))

    def is_closed(self) -> bool:
        return not self.left_dangling and not self.right_dangling

    def validate(self, shapes: dict[str, tuple[int, int]]) -> None:
        """Check every port of every vertex is used exactly once.

        shapes maps signature id to (left, right) slot counts.  The
        first fault is named in the order of the edges (left end, then
        right end), the left stubs and the right stubs, then the first
        port not used once, vertex by vertex, left ports before right.
        """
        for sig in self.vertices:
            if sig not in shapes:
                raise ValueError(f"no shape known for signature {sig!r}")
        n = len(self.vertices)
        shape = [shapes[sig] for sig in self.vertices]
        # port p of side s (0 left, 1 right) of vertex v is counted at
        # use[start[v] + s * l + p - 1], where (l, r) is v's shape
        start = []
        total = 0
        for l, r in shape:
            start.append(total)
            total += l + r
        use = [0] * total
        ends = [end for (u, i, v, j) in self.edges for end in ((u, 0, i), (v, 1, j))]
        ends += [(v, 0, i) for (v, i) in self.left_dangling]
        ends += [(v, 1, j) for (v, j) in self.right_dangling]
        for v, side, port in ends:
            if not (0 <= v < n):
                raise ValueError(f"vertex index {v} out of range")
            l, r = shape[v]
            if not (1 <= port <= (r if side else l)):
                raise ValueError(
                    f"port {port} out of range for {'LR'[side]} side of vertex {v} "
                    f"({self.vertices[v]!r} has shape {(l, r)})"
                )
            use[start[v] + side * l + port - 1] += 1
        if use.count(1) == total:
            return
        for v, (l, r) in enumerate(shape):
            for i in range(1, l + 1):
                if use[start[v] + i - 1] != 1:
                    raise ValueError(f"left port {i} of vertex {v} used {use[start[v] + i - 1]} times")
            for j in range(1, r + 1):
                if use[start[v] + l + j - 1] != 1:
                    raise ValueError(f"right port {j} of vertex {v} used {use[start[v] + l + j - 1]} times")


# -- enumeration of closed grids and gadgets -------------------------------


def _id_runs(sig_list: list[str]) -> list[int]:
    """For each vertex, the first index of its run of equal signature ids.

    sig_list is sorted, so the vertices of each id are contiguous and a
    same-id relabeling permutes each run's labels among its own vertices.
    """
    run: list[int] = []
    for v, sig in enumerate(sig_list):
        run.append(run[-1] if v and sig == sig_list[v - 1] else v)
    return run


def _canonical_search(run: list[int], edges, radix: int, labelings: bool):
    """Smallest packed edge code over same-id relabelings, by a search.

    The code of a relabeling p is the sorted tuple of packed keys
    ((p[u]*radix + i)*n + p[v])*radix + j, one per edge (u, i, v, j);
    with every port below radix and every vertex below n it orders as
    the tuple (p[u], i, p[v], j) does.  Sorted, the keys fall into blocks:
    block k is the edges out of the vertex labelled k, in port order.

    Labels are handed out 0..n-1 upward.  When label k is still free, the
    search branches over the unlabelled vertices of its run.  A target
    without a label gets the smallest free label of its run: any other
    makes that key, and so the code, larger.  Only the branches whose
    block k ties for the smallest are kept.  Distinct branches extend
    distinct partial labelings, so no two kept states coincide.  A block
    is compared with a key above every key appended: in gadgets some left
    ports dangle, and a block that is a proper prefix of another is
    followed by a key of label k+1, so it sorts after.

    A run none of whose vertices has an edge out has only empty blocks,
    so it is not branched on: its labels go out in order as its vertices
    are first reached as targets, and the vertices never reached take the
    rest in any order.

    Returns the code and, if labelings is set, every relabeling that
    reaches it, each as the tuple p; otherwise None.
    """
    n = len(run)
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (u, i, v, j) in sorted(edges):
        out[u].append((i, v, j))
    end = [0] * n
    for v in range(n):
        end[run[v]] = v + 1
    branch = [False] * n
    for v in range(n):
        if out[v]:
            branch[run[v]] = True
    top = radix * n * radix * n
    # a state is (label of each vertex or -1, next free label of each run)
    states = [([-1] * n, list(run))]
    code: list[int] = []
    for k in range(n):
        s = run[k]
        if not branch[s]:
            continue
        best = None
        tied = []
        base = k * radix
        for lab, nxt in states:
            if nxt[s] > k:
                choices = [lab.index(k)]
            else:
                choices = [v for v in range(s, end[s]) if lab[v] < 0]
            for x in choices:
                lab2, nxt2 = lab[:], nxt[:]
                if lab2[x] < 0:
                    lab2[x] = k
                    nxt2[s] = k + 1
                block = []
                for i, t, j in out[x]:
                    lt = lab2[t]
                    if lt < 0:
                        r = run[t]
                        lt = lab2[t] = nxt2[r]
                        nxt2[r] = lt + 1
                    block.append(((base + i) * n + lt) * radix + j)
                block.append(top)
                if best is None or block < best:
                    best = block
                    tied = [(lab2, nxt2)]
                elif block == best:
                    tied.append((lab2, nxt2))
        states = tied
        code += best[:-1]
    if not labelings:
        return tuple(code), None
    reaching = []
    for lab, nxt in states:
        # the vertices never reached take their runs' free labels in
        # every order
        idle = [v for v in range(n) if lab[v] < 0]
        orders = [
            itertools.permutations(range(nxt[s], end[s]))
            for s in range(n) if end[s] and nxt[s] < end[s]
        ]
        for combo in itertools.product(*orders):
            p = lab[:]
            for v, label in zip(idle, itertools.chain(*combo)):
                p[v] = label
            reaching.append(tuple(p))
    return tuple(code), reaching


def _unpack_edges(keys: tuple[int, ...], n: int, radix: int) -> tuple[Edge, ...]:
    edges = []
    for key in keys:
        key, j = divmod(key, radix)
        key, v = divmod(key, n)
        u, i = divmod(key, radix)
        edges.append((u, i, v, j))
    return tuple(edges)


def _port_matchings(sig_list: list[str], free_left, free_right, pretouched=()):
    """Bijections between the given left and right ports, symmetry-pruned.

    free_left/free_right are the (vertex, port) lists to match; vertices
    in pretouched (those already distinguished, e.g. by a dangling stub)
    are never treated as interchangeable.  Among so-far-untouched vertices
    with equal signatures only the first is tried per port number, which
    drops many isomorphic duplicates early; a final canonical dedup is
    still required.
    """
    nl = len(free_left)
    if nl != len(free_right):
        return
    out: list[tuple[Stub, Stub]] = []
    pretouched = set(pretouched)
    touched = [v in pretouched for v in range(len(sig_list))]

    def rec(k):
        if k == nl:
            yield tuple(out)
            return
        lv, lp = free_left[k]
        seen_equiv = set()
        for idx, (rv, rp) in enumerate(free_right):
            if used[idx]:
                continue
            # self-edges change the structure, so never class-prune them
            if not touched[rv] and rv != lv:
                key = (sig_list[rv], rp)
                if key in seen_equiv:
                    continue
                seen_equiv.add(key)
            used[idx] = True
            was_l, was_r = touched[lv], touched[rv]
            touched[lv] = touched[rv] = True
            out.append(((lv, lp), (rv, rp)))
            yield from rec(k + 1)
            out.pop()
            touched[lv], touched[rv] = was_l, was_r
            used[idx] = False

    used = [False] * nl
    yield from rec(0)


def _port_walk(sigs, symmetric):
    """The ids walked up to port symmetry, and the per-multiset walk.

    The walk takes one grid per class of port permutations
    (holant.portclasses, imported here on first use) when every id is in
    symmetric and some id has a group of two or more ports; otherwise no
    id, and every port is distinct (_gadgets_for_multiset).
    """
    if sigs and all(s in symmetric for s, _ in sigs) and any(max(sh) >= 2 for _, sh in sigs):
        from holant.portclasses import classes_for_multiset

        return tuple(s for s, _ in sigs), classes_for_multiset
    return (), _gadgets_for_multiset


def enumerate_grids(
    sigs: list[tuple[str, tuple[int, int]]],
    max_vertices: int,
    q: int,
    symmetric=(),
):
    """All closed grids over the named signatures, up to isomorphism.

    The (0,0) structures of _structures, in its order, each yielded with
    loop counts 0 and 1, back to back.  The loop-1 copy differs only by a
    factor q, so the checkers contract the loop-0 grid only and scale its
    value for the copy (holant.contraction.derives).

    symmetric lists the ids whose every binding is symmetric
    (MixedTensor.is_symmetric); the spans checkers and
    verify_holant_theorem compute it, and its default () walks ordered
    ports.  When every id is in it and some id has two or more ports on
    a side, isomorphism also permutes each vertex's left ports and its
    right ports (holant.portclasses).

    A plain generator: it keeps nothing between walks, and every walk
    enumerates only what its consumer reads.  The spans checkers walk it
    lazily through spans._walk; verify_holant_theorem walks it through
    spans.closed_signature_blocks, which stores the last closed family.
    """
    sigs = sorted((s, tuple(sh)) for s, sh in sigs)
    ids = [s for s, _ in sigs]
    if len(set(ids)) != len(ids):
        raise ValueError("signature ids must be distinct")
    per_multiset = _port_walk(sigs, symmetric)[1]
    for vertices, edges, _, _ in _structures(sigs, (0, 0), max_vertices, per_multiset):
        for loops in (0, 1):
            yield SignatureGrid(q=q, vertices=vertices, edges=edges, loops=loops)


def enumerate_gadgets(
    sigs: list[tuple[str, tuple[int, int]]],
    profile: tuple[int, int],
    max_vertices: int,
    q: int,
    symmetric=(),
):
    """All (l,r)-gadgets over the named signatures plus bare wires.

    The structures of _structures at a profile with stubs; each slot
    order of a structure is a gadget of its own.  Bare wires appear as
    vertices carrying the reserved "wire" id and do not count against
    max_vertices.  symmetric selects the walk up to port symmetry as in
    enumerate_grids.  Gadget families are not memoized: with ordered
    ports the (0,4) family of the arity-4 counterexample at bound 6 holds
    9816 gadgets in about 8.7 MB, 421 structures in all their slot
    orders (11 gadgets up to port symmetry), and a memo would keep such
    a family alive through the covanishing test's SVD.
    """
    lp, rp = profile
    if lp < 0 or rp < 0:
        raise ValueError(f"profile entries must be nonnegative, got {profile}")
    if lp == rp == 0:
        raise ValueError("use enumerate_grids for closed profiles")
    sigs = sorted((s, tuple(sh)) for s, sh in sigs)
    ids = [s for s, _ in sigs]
    if len(set(ids)) != len(ids) or WIRE_ID in ids:
        raise ValueError("signature ids must be distinct and not the reserved wire id")
    per_multiset = _port_walk(sigs, symmetric)[1]
    for vertices, edges, left, right in _structures(sigs, profile, max_vertices, per_multiset):
        yield SignatureGrid(
            q=q, vertices=vertices, edges=edges, left_dangling=left, right_dangling=right
        )


def _structures(sigs, profile, max_vertices, per_multiset):
    """Every structure of an (l,r) profile over sigs, up to isomorphism.

    sigs is sorted, with shapes as tuples.  A structure is (vertices,
    edges, left stubs, right stubs): up to max_vertices vertices over
    sigs, plus w bare wires, vertices with the reserved "wire" id, for
    each w up to min(l, r); a closed grid is a (0,0) structure.  Two
    structures are isomorphic when a relabeling of vertices carrying
    equal ids maps one's edges, ports kept, and its stubs in slot order
    to the other's.  Each class is represented by its canonical code,
    the lexicographic minimum over those relabelings of (sorted edges,
    left stubs, right stubs), the edge part compared first.  Yields by
    vertex count, then signature multiset, then wire count, then
    canonical code.

    Each port matching's edge part comes from _canonical_search, a search
    over tied prefixes of the code that visits only the relabelings whose
    blocks tie for the smallest.  Two rules depend on whether the
    structure has stubs, so on the profile alone:
    - a matching some component of which reaches no stub is skipped (its
      closed part only scales the signature), and only when there are
      stubs: closed grids keep every component;
    - the search returns the relabelings that reach the edge part only
      when there are stubs to order; the stub part is minimized over
      them, for every order of the stubs, once per edge part.

    per_multiset yields the classes of one multiset and wire count:
    _gadgets_for_multiset, or holant.portclasses.classes_for_multiset,
    which also permutes the ports inside each vertex's groups and keeps
    both rules.

    Since codes sort on the edge part first, every slot order of one
    structure comes back to back, and enumerate_grids yields the loop
    copies of a closed structure back to back: spans.structure_signatures
    and spans.closed_signature_blocks rely on both to contract each
    structure once and to take the other members' signature arrays from
    that one contraction.
    """
    lp, rp = profile
    for n in range(max_vertices + 1):
        for multiset in itertools.combinations_with_replacement(sigs, n):
            base_sigs = [s for s, _ in multiset]
            base_shapes = [sh for _, sh in multiset]
            L = sum(l for l, _ in base_shapes)
            R = sum(r for _, r in base_shapes)
            if L - R != lp - rp:
                continue
            for w in range(min(lp, rp) + 1):
                if lp - w <= L and rp - w <= R:
                    yield from per_multiset(base_sigs, base_shapes, lp, rp, w)


def _gadgets_for_multiset(base_sigs, base_shapes, lp, rp, w):
    n = len(base_sigs)
    sig_list = base_sigs + [WIRE_ID] * w
    shapes = base_shapes + [(1, 1)] * w
    left_ports = [(v, i) for v, (l, _) in enumerate(base_shapes) for i in range(1, l + 1)]
    right_ports = [(v, j) for v, (_, r) in enumerate(base_shapes) for j in range(1, r + 1)]
    radix = 1 + max((max(sh) for sh in shapes), default=0)
    run = _id_runs(sig_list)
    codes = set()
    seen = set()
    for dang_l in itertools.combinations(range(len(left_ports)), lp - w):
        for dang_r in itertools.combinations(range(len(right_ports)), rp - w):
            free_l = [p for k, p in enumerate(left_ports) if k not in dang_l]
            free_r = [p for k, p in enumerate(right_ports) if k not in dang_r]
            stubs_l = [left_ports[k] for k in dang_l] + [(n + t, 1) for t in range(w)]
            stubs_r = [right_ports[k] for k in dang_r] + [(n + t, 1) for t in range(w)]
            stubs = stubs_l + stubs_r
            pretouched = [v for (v, _) in stubs]
            for matching in _port_matchings(sig_list, free_l, free_r, pretouched):
                edges = [(lv, i, rv, j) for ((lv, i), (rv, j)) in matching]
                if not stubs:
                    codes.add((_canonical_search(run, edges, radix, False)[0], (), ()))
                    continue
                if not _components_all_dangle(n + w, edges, stubs):
                    continue
                # the edge part of the code does not depend on the slot
                # order, so only relabelings reaching its minimum can
                # reach the minimum code for any order of the stubs.  The
                # stubs are the ports the edges leave free, so matchings
                # with one edge part are one gadget up to slot order and
                # give the same codes: only the first is expanded
                best, reaching = _canonical_search(run, edges, radix, True)
                if best in seen:
                    continue
                seen.add(best)
                for ord_l in itertools.permutations(stubs_l):
                    for ord_r in itertools.permutations(stubs_r):
                        codes.add((best,) + min(
                            (
                                tuple((p[v], i) for (v, i) in ord_l),
                                tuple((p[v], j) for (v, j) in ord_r),
                            )
                            for p in reaching
                        ))
    vertices = tuple(sig_list)
    for keys, ld, rd in sorted(codes):
        yield vertices, _unpack_edges(keys, n + w, radix), ld, rd


def _components_all_dangle(n, edges, stubs) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, _, v, _) in edges:
        parent[find(u)] = find(v)
    dangling_roots = {find(v) for (v, _) in stubs}
    return all(find(v) in dangling_roots for v in range(n))


# -- the Holant value as a polynomial --------------------------------------

Monomial = tuple[tuple[str, tuple[int, ...]], ...]

MONOMIAL_CAP = 10**6


@dataclass
class HolantPolynomial:
    """Holant value with signature entries left symbolic.

    Each variable is one entry of one named signature; a monomial is the
    multiset of entries a single edge assignment reads, and merged
    assignments accumulate integer coefficients (times q per loop).
    """

    q: int
    monomials: dict[Monomial, complex] = field(default_factory=dict)

    @property
    def num_monomials(self) -> int:
        return len(self.monomials)

    def evaluate(self, bindings: dict[str, MixedTensor]) -> complex:
        total = 0j
        for mono, coeff in self.monomials.items():
            term = complex(coeff)
            for sig, idx in mono:
                term *= bindings[sig].array[idx] if idx else bindings[sig].array[()]
            total += term
        return total

    def sorted_items(self):
        return sorted(self.monomials.items())


def _vertex_axis_tables(grid: SignatureGrid, shapes: dict[str, tuple[int, int]]):
    """For each vertex of a closed grid, the edge that feeds each axis."""
    tables = [[0] * sum(shapes[sig]) for sig in grid.vertices]
    for eid, (u, i, v, j) in enumerate(grid.edges):
        tables[u][i - 1] = eid
        tables[v][shapes[grid.vertices[v]][0] + j - 1] = eid
    return [tuple(t) for t in tables]


def holant_polynomial(
    grid: SignatureGrid,
    shapes: dict[str, tuple[int, int]],
) -> HolantPolynomial:
    """Expand a closed grid's Holant value over symbolic signature entries."""
    if not grid.is_closed():
        raise ValueError("holant_polynomial needs a closed grid")
    shapes = dict(shapes)
    shapes.setdefault(WIRE_ID, (1, 1))
    grid.validate(shapes)
    q = grid.q
    ne = len(grid.edges)
    if q**ne > MAX_ENTRIES:
        raise ValueError(f"{q}^{ne} edge assignments exceeds the enumeration cap")
    tables = _vertex_axis_tables(grid, shapes)
    poly = HolantPolynomial(q=q)
    factor = complex(q**grid.loops)
    wire_eye = identity_signature(q)
    for assign in itertools.product(range(q), repeat=ne):
        vars_used = []
        coeff = factor
        for v, sig in enumerate(grid.vertices):
            idx = tuple(assign[k] for k in tables[v])
            if sig == WIRE_ID:
                # wires are fixed to the identity, not symbolic
                coeff *= wire_eye.array[idx]
                if coeff == 0:
                    break
            else:
                vars_used.append((sig, idx))
        else:
            mono = tuple(sorted(vars_used))
            poly.monomials[mono] = poly.monomials.get(mono, 0j) + coeff
            if len(poly.monomials) > MONOMIAL_CAP:
                raise ValueError(f"polynomial exceeds {MONOMIAL_CAP} monomials")
            continue
    poly.monomials = {m: c for m, c in poly.monomials.items() if c != 0}
    return poly
