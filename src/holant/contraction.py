"""How a bound grid becomes numbers: one plan format and every route
that runs it.

Each route replays a ContractionPlan, planned once per grid structure
(_contraction_plan), and keeps one bit contract: row k of a stacked
result is bitwise binding set k's contraction alone.
- BindingStacks checks the binding sets of a walk once per kind of grid
  and stacks each id's tensors on a leading batch axis.
- A pairwise plan contracts next the node pair whose result is smallest.
  An exact equality says that all its ports carry one value, so it is
  not a tensor of the network but one index its ports share, and
  elimination_plan sums such index classes out one np.einsum at a time
  (Dechter, "Bucket elimination", 1999): a hom(X, G) grid reads as a sum
  over X's vertices of products of G's adjacency matrix.
- _execute replays a plan on the stacks.  A lone hom count looks each
  elimination step up in the step memo (StepMemo) first, so that counts
  into one target share their steps.
- compile_family compiles the closed family that
  spans.closed_signature_blocks stores into one FamilyProgram, which
  replays every structure's pairwise plan under every binding set in a
  few batched numpy calls (Dongarra et al., "A proposed API for batched
  basic linear algebra subprograms", 2016; Gray & Kourtis,
  "Hyper-optimized tensor network contraction", 2021, treat a
  contraction tree as a compiled program).

holant.grids says what a grid is and which grids exist; it imports
nothing from here.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from holant.grids import WIRE_ID, Edge, SignatureGrid, Stub
from holant.tensors import MAX_ENTRIES, MixedTensor, identity_signature


def resolve_bindings(grid: SignatureGrid, bindings: dict[str, MixedTensor]) -> dict[str, MixedTensor]:
    """Attach tensors to ids; checks q and the reserved wire id.

    The identity binding for "wire" is built and supplied, after every
    other id's binding is checked, only when the grid has wire vertices
    or the caller binds that id.
    """
    out = dict(bindings)
    # in vertex order, so the first fault named does not depend on hashing
    for sig in dict.fromkeys(grid.vertices):
        if sig == WIRE_ID:
            continue
        if sig not in out:
            raise ValueError(f"missing binding for signature {sig!r}")
        if out[sig].q != grid.q:
            raise ValueError(
                f"binding {sig!r} has domain {out[sig].q}, grid has {grid.q}"
            )
    if WIRE_ID in out or WIRE_ID in grid.vertices:
        wire = identity_signature(grid.q)
        if WIRE_ID in out and not out[WIRE_ID].allclose(wire, 0):
            raise ValueError(f"{WIRE_ID!r} is reserved for the identity signature")
        out.setdefault(WIRE_ID, wire)
    return out


class _Bound(NamedTuple):
    """The bindings of one kind of grid across the sets of a
    BindingStacks, ready for stacked_signature."""

    shapes: tuple[tuple[str, tuple[int, int]], ...]  # (id, shape), sorted by id
    # the sets k grouped by their plan, keyed by the ids that plan takes
    # for exact equalities: () for a pairwise plan
    routes: dict[tuple[str, ...], list[int]]
    arrays: list[np.ndarray]  # per id, in shapes order, its stack (B, q, ..., q)


class BindingStacks:
    """The binding sets of one walk, each id's tensors stacked on a
    leading batch axis: the one way a grid is bound for contraction.

    bind(grid) resolves every set by resolve_bindings once per kind of
    grid the walk meets (its q, vertex sequence and whether it is
    closed), so a fault is named as a lone grid's contraction names it,
    and keeps what stacked_signature reads for that kind: a family has
    far fewer vertex sequences than structures.  Each set takes a route:
    a closed grid at q >= 2 under a set that binds some id to an exact
    equality is eliminated, every other grid is contracted pairwise.
    Every route reads one list of stacked arrays, one per id of the
    grid (_execute), and the compiled closed family reads the same
    stacks; an eliminating route reads each of its sets on that set's
    row.  Each id is stacked once per walk and domain size, the wire
    identity once some grid has wire vertices.  The sets share each id's
    shape, as every caller's correspondence checks; a set that binds an
    id with another shape than the first set's is refused by id and set
    when that id is first stacked.  A lone set's stacks
    are views of its own arrays, so holant_eval_contracted and
    gadget_signature bind through a one-set BindingStacks at the cost of
    a view per id.
    """

    __slots__ = ("sets", "_stacks", "_bound")

    def __init__(self, sets):
        self.sets = tuple(sets)
        self._stacks: dict[int, dict[str, np.ndarray]] = {}  # q -> id -> stack
        self._bound: dict[tuple[int, tuple[str, ...], bool], _Bound] = {}

    def bind(self, grid: SignatureGrid) -> _Bound:
        key = (grid.q, grid.vertices, grid.is_closed())
        bound = self._bound.get(key)
        if bound is None:
            resolved = [resolve_bindings(grid, b) for b in self.sets]
            ids = sorted(set(grid.vertices))
            eliminate = grid.q >= 2 and grid.is_closed()
            routes, shapes, arrays = {}, [], []
            for k, b in enumerate(resolved):
                equal = tuple([sig for sig in ids if eliminate and b[sig].is_equality()])
                routes.setdefault(equal, []).append(k)
            stacks = self._stacks.setdefault(grid.q, {})
            for sig in ids:
                if sig not in stacks:
                    first = resolved[0][sig]
                    for k, b in enumerate(resolved[1:], 1):
                        if b[sig].shape != first.shape:
                            raise ValueError(
                                f"binding set {k} binds {sig!r} with shape {b[sig].shape},"
                                f" set 0 with {first.shape}"
                            )
                    # a lone set's stack is a view of its array
                    stacks[sig] = (np.stack([b[sig].array for b in resolved]) if len(resolved) > 1
                                   else first.array[None])
                shapes.append((sig, resolved[0][sig].shape))
                arrays.append(stacks[sig])
            bound = self._bound[key] = _Bound(tuple(shapes), routes, arrays)
        return bound


# -- planning ---------------------------------------------------------------

# Entries kept by the plan cache.  Plans are cached per structure: a grid's
# vertices, edges and sorted stubs, its shapes, min(q, 2) and the ids it
# binds to equality signatures, so every grid that differs from a planned
# one only in q >= 2, its loop count or the order of its dangling stubs
# reuses its plan (hom grids built for several target sizes, gadgets in
# every slot order).  A walk contracts each structure once for all its
# binding sets (stacked_signature), so it looks each plan up once.  The
# program of the closed family that spans.closed_signature_blocks stores
# (FamilyProgram) looks each structure's pairwise plan up once,
# when it is compiled, and a replay of it looks up none.  The cache
# keeps a whole family, so that a later walk of one that is not stored,
# or a stored one its program gives no values for, plans nothing:
# 300 closed structures over three shapes at bound 4, the 877 closed
# structures of the arity-4 counterexample at bound 6 with ordered ports
# (5 up to port symmetry, which every checker walks over those symmetric
# signatures).  Traced by tracemalloc over a whole pass, the cache ends
# holding 12 plans on counterexample-spans, and 364 elimination plans in
# about 1.8 MB on hom-census (2.3 MB as pairwise plans).
PLAN_CACHE_SIZE = 4096


class ContractionPlan(NamedTuple):
    """One grid structure's contraction order, the same at every q >= 2.

    A plan contracts pairwise or by elimination, never both.  Nodes
    0..n-1 are the vertex tensors; step k of either kind creates node n+k.
    The axes of traces and steps are those of _execute's stacks, whose
    axis 0 is the batch of binding sets and axis k + 1 a node's axis k.
    traces: (node, axis1, axis2) for each self-edge, as np.trace takes them.
    steps: (u, axes_u, v, axes_v, shared, rank) per pairwise contraction,
        exactly as np.tensordot performs it: transpose both operands by
        their axes (the batch axis first), reshape them to stacks of
        (q**keep_u, q**shared) and (q**shared, q**keep_v) matrices, where
        keep_u and keep_v are the axes of u and v left over, multiply, and
        reshape the product to the batch axis and rank = keep_u + keep_v
        axes of size q.
    peak_rank: the largest output rank over the steps of either kind, 0
        if none.
    outer: the nodes left over, multiplied as outer products in this order.
    outer_rank: the number of axes of that product.
    left_axis, right_axis: for each dangling (vertex, port), the axis of
        that product that carries it.
    stack_of: for each vertex, the position of its id among the plan's
        (id, shape) pairs, which is where _execute's arrays hold its stack.
    eliminations: the steps of elimination_plan,
        (operands, subscripts, rank), each one np.einsum that sums an
        index class out of the nodes holding it (EINSUM_LOOP_MAX says how
        einsum runs it).
    free: the number of factors q from index classes that no tensor holds
        and from arity-0 equalities.
    shared_stack: for an elimination plan whose steps read the tensors of
        one id only, the position of that id among the plan's (id, shape)
        pairs, else -1; _execute's step memo keys such a plan's steps.
    """

    traces: tuple[tuple[int, int, int], ...]
    steps: tuple[tuple[int, tuple[int, ...], int, tuple[int, ...], int, int], ...]
    peak_rank: int
    outer: tuple[int, ...]
    outer_rank: int
    left_axis: dict[Stub, int]
    right_axis: dict[Stub, int]
    stack_of: tuple[int, ...]
    eliminations: tuple[tuple[tuple[int, ...], str | None, int], ...] = ()
    free: int = 0
    shared_stack: int = -1


def _ports(vertices: tuple[str, ...], shape_of: dict[str, tuple[int, int]]):
    """(start, right) numbering a structure's ports vertex by vertex,
    left ports before right ports: vertex v's are start[v] up to
    start[v + 1], its left port i is start[v] + i - 1 and its right port
    j is right(v, j)."""
    start = [0]
    for sig in vertices:
        start.append(start[-1] + sum(shape_of[sig]))

    def right(v: int, j: int) -> int:
        return start[v] + shape_of[vertices[v]][0] + j - 1

    return start, right


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _contraction_plan(
    vertices: tuple[str, ...],
    edges: tuple[Edge, ...],
    left: tuple[Stub, ...],
    right: tuple[Stub, ...],
    shapes: tuple[tuple[str, tuple[int, int]], ...],
    q: int,
    equal: tuple[str, ...] = (),
) -> ContractionPlan:
    """Validate a grid structure against its (id, shape) pairs and plan
    its contraction.

    left and right are the dangling stubs in any fixed order (callers
    pass them sorted); q is 1 or 2.  equal lists the ids bound to an
    exact equality signature; callers pass it only for closed grids at
    q >= 2, and then the plan eliminates index classes
    (elimination_plan).  With equal empty, the plan is pairwise.  Uses
    the structure only, never signature values, and runs only on a cache
    miss, so once per structure and equality set; an invalid grid raises
    and is not cached.  Every self-edge is traced first; then the greedy
    order repeatedly contracts the node pair whose result tensor is
    smallest, q**rank entries, the first such pair in node order.  Since
    q**rank is strictly increasing in rank for every q >= 2, q = 2 gives
    the order of every larger q; at q = 1 every pair ties.  Loops never
    enter the network, and the stub order only says which free axis
    carries which slot, so neither changes the plan.
    """
    shape_of = dict(shapes)
    SignatureGrid(q, vertices, edges, left, right).validate(shape_of)
    stack_of = tuple(map([sig for sig, _ in shapes].index, vertices))
    if equal:
        steps, outer, free = elimination_plan(vertices, edges, shape_of, set(equal))
        peak_rank = max((rank for *_, rank in steps), default=0)
        read = {stack_of[o] for operands, _, _ in steps for o in operands if o < len(vertices)}
        shared = read.pop() if len(read) == 1 else -1
        return ContractionPlan((), (), peak_rank, outer, 0, {}, {}, stack_of, steps, free, shared)
    # one int label per vertex port, its number, so each vertex's labels
    # list its axes in order: left ports, then right ports
    start, right_label = _ports(vertices, shape_of)
    n = len(vertices)
    labels: list[list[int] | None] = [list(range(start[v], start[v + 1])) for v in range(n)]
    owner = [v for v in range(n) for _ in range(start[v], start[v + 1])]
    traces = []
    pairs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    self_edges = []
    for k, (u, i, v, j) in enumerate(edges):
        e = (k, start[u] + i - 1, right_label(v, j))
        if u == v:
            self_edges.append(e)
        else:
            pairs.setdefault((min(u, v), max(u, v)), []).append(e)
    for _, la, lb in sorted(self_edges, key=lambda e: owner[e[1]]):
        ls = labels[owner[la]]
        p1, p2 = sorted((ls.index(la), ls.index(lb)))
        traces.append((owner[la], p1 + 1, p2 + 1))
        ls.remove(la)
        ls.remove(lb)

    # pairs maps each pair of nodes joined by an edge to those edges, in
    # the grid's edge order; a merge re-keys only the pairs it touches
    steps = []
    while pairs:
        u, v = min(pairs, key=lambda p: (
            q ** (len(labels[p[0]]) + len(labels[p[1]]) - 2 * len(pairs[p])), p
        ))
        shared = pairs.pop((u, v))
        lu, lv = labels[u], labels[v]
        ax_u, ax_v = [], []
        for _, la, lb in shared:
            if owner[la] != u:
                la, lb = lb, la
            ax_u.append(lu.index(la))
            ax_v.append(lv.index(lb))
        keep_u = [k for k in range(len(lu)) if k not in ax_u]
        keep_v = [k for k in range(len(lv)) if k not in ax_v]
        steps.append((
            u, tuple([0] + [k + 1 for k in keep_u + ax_u]),
            v, tuple([0] + [k + 1 for k in ax_v + keep_v]),
            len(shared), len(keep_u) + len(keep_v),
        ))
        w = len(labels)
        merged = [lu[k] for k in keep_u] + [lv[k] for k in keep_v]
        for lbl in merged:
            owner[lbl] = w
        labels[u] = labels[v] = None
        labels.append(merged)
        # every edge between u and v was in shared, so the merged node
        # has no self-edge; each other node's edges to u and v join
        for a, b in [p for p in pairs if u in p or v in p]:
            x = b if a in (u, v) else a
            pairs[(x, w)] = sorted(pairs.get((x, w), []) + pairs.pop((a, b)))

    outer = tuple(nid for nid, ls in enumerate(labels) if ls is not None)
    remaining = [lbl for nid in outer for lbl in labels[nid]]
    position = {lbl: k for k, lbl in enumerate(remaining)}
    left_axis = {(v, i): position[start[v] + i - 1] for (v, i) in left}
    right_axis = {(v, j): position[right_label(v, j)] for (v, j) in right}
    if sorted([*left_axis.values(), *right_axis.values()]) != list(range(len(remaining))):
        raise ValueError("open labels do not match the remaining axes")
    peak_rank = max((rank for *_, rank in steps), default=0)
    return ContractionPlan(
        tuple(traces), tuple(steps), peak_rank, outer, len(remaining), left_axis, right_axis, stack_of
    )


# the index letters of np.einsum subscripts
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

Step = tuple[tuple[int, ...], str | None, int]


def elimination_plan(
    vertices: tuple[str, ...],
    edges: tuple[Edge, ...],
    shape_of: dict[str, tuple[int, int]],
    equal: set[str],
) -> tuple[tuple[Step, ...], tuple[int, ...], int]:
    """Plan a closed, valid grid structure by eliminating index classes.

    Returns (steps, outer, free).  The ports of each vertex whose id is
    in equal start as one class, and union-find merges the two ends of
    each edge into index classes, numbered by their lowest port
    (_ports), so the
    numbers do not depend on which root a union keeps.  Every other
    vertex keeps its axes, each labelled by its class; one tensor may
    hold a class on several axes, which einsum reads as a diagonal.
    Nodes 0..n-1 are the vertex tensors, and step k creates node n+k.

    Each step (operands, subscripts, rank) sums one class out of the
    nodes that hold it, by one np.einsum(subscripts, *operands), and
    leaves a node of rank axes, one per class those nodes still hold, in
    class order.  The class taken is the one whose output holds the
    fewest classes, the lowest such class on ties (min-width order); the
    count of classes orders the output sizes q**rank alike for every
    q >= 2.  subscripts is None for a step with more classes than einsum
    has letters, which no q >= 2 runs under the entry cap.

    Every class is eliminated, so outer lists scalar nodes: the vertices
    that hold no class and the last node of each connected part.  free
    counts the factors q: a class that no tensor holds sums 1 over the
    domain, and an arity-0 equality has the value q.

    The widths live on the interaction graph of the classes (Rose,
    Tarjan & Lueker, "Algorithmic aspects of vertex elimination on
    graphs", 1976): adj[x] is the bit mask of the other classes some
    node holds with x, and x's step would leave popcount(adj[x]) of
    them.  Only the nodes that hold c take part in c's step, and they
    hold exactly c and its neighbours N(c), so eliminating c sets
    adj[x] = (adj[x] & ~c) | (N(c) & ~x) for each x in N(c), and leaves
    every other class alone.  The next class comes off a heap of
    (width, class) entries; an entry whose class is gone or whose width
    has changed since it was pushed is skipped.
    """
    # imported here, so that `import holant` does not load _heapq's shared library
    import heapq

    start, right = _ports(vertices, shape_of)
    # every port of an equality vertex starts in the class of its first port
    parent = list(range(start[-1]))
    for v, sig in enumerate(vertices):
        if sig in equal:
            parent[start[v]:start[v + 1]] = [start[v]] * (start[v + 1] - start[v])

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, i, v, j) in edges:
        parent[find(start[u] + i - 1)] = find(right(v, j))
    number: dict[int, int] = {}
    class_of = [number.setdefault(find(port), len(number)) for port in range(start[-1])]

    axes = {
        v: class_of[start[v]:start[v + 1]]
        for v, sig in enumerate(vertices) if sig not in equal
    }
    holders: dict[int, set[int]] = {}
    adj: dict[int, int] = {}
    for v, classes in axes.items():
        mask = 0
        for c in classes:
            mask |= 1 << c
        for c in classes:
            holders.setdefault(c, set()).add(v)
            adj[c] = adj.get(c, 0) | mask
    free = len(number) - len(holders) + sum(
        1 for v, sig in enumerate(vertices) if sig in equal and start[v] == start[v + 1]
    )

    width = {}
    for c in adj:
        adj[c] &= ~(1 << c)
        width[c] = adj[c].bit_count()
    heap = [(w, c) for c, w in width.items()]
    heapq.heapify(heap)
    steps = []
    node = len(vertices)
    while heap:
        rank, c = heapq.heappop(heap)
        if width.get(c) != rank:
            continue  # c is gone, or its width changed after this entry
        del width[c]
        ops = sorted(holders.pop(c))
        near = adj.pop(c)
        kept = _bits(near)
        held = sorted(kept + [c])
        subscripts = None
        if len(held) <= len(_LETTERS):
            letter = dict(zip(held, _LETTERS))
            subscripts = ",".join(["".join([letter[x] for x in axes[w]]) for w in ops])
            subscripts += "->" + "".join([letter[x] for x in kept])
        steps.append((tuple(ops), subscripts, rank))
        for w in ops:
            del axes[w]
        axes[node] = kept
        # a class's width changes only when a step leaves it on the new node
        gone = ~(1 << c)
        for x in kept:
            holders[x] = holders[x].difference(ops) | {node}
            adj[x] = (adj[x] & gone) | (near & ~(1 << x))
            width[x] = adj[x].bit_count()
            heapq.heappush(heap, (width[x], x))
        node += 1
    return tuple(steps), tuple(sorted(axes)), free


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- execution --------------------------------------------------------------


def _check_cap(plan: ContractionPlan, q: int) -> None:
    """Refuse a plan whose intermediate tensors or outer product would have
    more than MAX_ENTRIES entries at domain size q; an intermediate is
    named by the first step over the cap in contraction order."""
    if q**plan.peak_rank > MAX_ENTRIES:
        for *_, rank in plan.steps + plan.eliminations:
            cost = q**rank
            if cost > MAX_ENTRIES:
                raise ValueError(f"intermediate tensor of {cost} entries exceeds the cap")
    if q**plan.outer_rank > MAX_ENTRIES:
        raise ValueError("outer product exceeds the entry cap")


# Elimination steps that sum over at most this many index value tuples,
# q**(rank + 1), run in np.einsum's own C loop; larger ones let np.einsum
# pair their operands greedily (optimize=True: never an intermediate larger
# than the step's operands or output), so that each pair is one BLAS
# product.  The pairing costs some 10-20 us a step, the loop a few ns per
# tuple and operand.  Timed on a 2-CPU host (numpy 2.4.6), loop against
# paired: "ab,ac->bc" 15 against 19 us at q = 16 and 99 against 32 us at
# q = 32; "ab,ac,ad->bcd" 25 against 81 us at q = 8 and 450 against 98 us
# at q = 16.  A hom-census pass, plans cached, ran in 0.22 s with
# thresholds from 2**13 to 2**15 and 0.28 s with every step in the loop.
EINSUM_LOOP_MAX = 1 << 14


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _einsum_path(subscripts: str, *shapes: tuple[int, ...]) -> list:
    """The path np.einsum(subscripts, ..., optimize=True) takes on
    operands of these shapes: the greedy path depends on the shapes only,
    and np.einsum given it as optimize runs the same pairs it would find."""
    dummies = [np.broadcast_to(0j, shape) for shape in shapes]
    return np.einsum_path(subscripts, *dummies, optimize="greedy")[0]


# Bytes the step memo keeps, counting each kept result as its nbytes plus
# STEP_OVERHEAD for its key, its LRU node and its array header (412 bytes
# a step by tracemalloc); the least recently used step goes first.  A
# hom-census pass keeps 1452 steps, 0.59 MB of results and 1.2 MB in all;
# the counts of `holant homdist` on two 16-vertex cubic graphs at degree 3
# keep 2372 steps in 2.6 MB at bound 9 and 6656 in 8.0 MB at bound 10
# (5.4 MB of results, peak RSS +6.4 MB), so a bound of 11 or more evicts.
# A count of entries would not bound the bytes: a target of 512 vertices
# makes rank-2 results of 4 MB each.
STEP_MEMO_BYTES = 16 << 20
STEP_OVERHEAD = 400
# a step key's tag for an operand that is the memo's bound array itself
WHOLE = -1


class _StepMemoInfo(NamedTuple):
    hits: int
    misses: int
    maxbytes: int
    entries: int
    nbytes: int


class StepMemo:
    """Elimination steps already run on read-only bound arrays, each kept
    under its bound array, its np.einsum subscripts, whether it runs wide
    (EINSUM_LOOP_MAX), and its operands' tags: WHOLE for the bound
    array itself, else the serial number of the kept step that made the
    operand.  So a key costs O(operands), and names a result by how it was
    made, never by the id() of a value that eviction could free; serials
    are never reused.  A step whose operand has no tag is neither looked
    up nor kept, and nor are the steps after it that read its result.

    Keys start with the bound array's id, which the memo keeps in owned
    with a weakref.finalize that drops the array's steps when it dies, so
    the id is never that of another array.  Only results with no more
    entries than the bound array are kept (rank <= 2 for an adjacency
    matrix), read-only; no kept result is a view of the bound array, as
    every step sums one class out.  The total is bounded by
    STEP_MEMO_BYTES, read at every store.
    """

    def __init__(self):
        self.steps: OrderedDict = OrderedDict()  # key -> (serial, result), least recent first
        self.owned: dict[int, set] = {}  # bound array's id -> the keys of its steps
        self.serials = itertools.count()
        self.hits = self.misses = self.nbytes = 0

    def owner(self, stack) -> tuple[int, int] | None:
        """(id, size) of the read-only array whose whole stack is one row
        of (a lone set's stack, BindingStacks.bind), its memo set up;
        None for any other stack."""
        array = stack.base
        if (array is None or array.flags.writeable or array.shape != stack.shape[1:]
                or array.strides != stack.strides[1:]):
            return None
        if id(array) not in self.owned:
            self.owned[id(array)] = set()
            weakref.finalize(array, self.drop, id(array)).atexit = False
        return id(array), array.size

    def get(self, key: tuple):
        """The (serial, result) kept under key, marked most recently used,
        or None."""
        hit = self.steps.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
            self.steps.move_to_end(key)
        return hit

    def put(self, key: tuple, result) -> int:
        """Keep result under key, evicting the least recently used steps
        past STEP_MEMO_BYTES; result's serial number."""
        result.setflags(write=False)
        serial = next(self.serials)
        self.steps[key] = (serial, result)
        self.owned[key[0]].add(key)
        self.nbytes += result.nbytes + STEP_OVERHEAD
        while self.nbytes > STEP_MEMO_BYTES:
            old, (_, dropped) = self.steps.popitem(last=False)
            self.owned[old[0]].discard(old)
            self.nbytes -= dropped.nbytes + STEP_OVERHEAD
        return serial

    def drop(self, owner: int) -> None:
        """Forget every step of a bound array that died."""
        for key in self.owned.pop(owner, ()):
            self.nbytes -= self.steps.pop(key)[1].nbytes + STEP_OVERHEAD


# the memo _execute reads and fills
step_memo = StepMemo()


def _step_memo_info() -> _StepMemoInfo:
    """The step memo's hits, misses, byte bound, kept steps and their
    bytes, as _contraction_plan.cache_info() reports the plan
    cache's."""
    memo = step_memo
    return _StepMemoInfo(memo.hits, memo.misses, STEP_MEMO_BYTES, len(memo.steps), memo.nbytes)


def _execute(
    plan: ContractionPlan,
    q: int,
    arrays: list[np.ndarray],
    perm: tuple[int, ...],
    batch: int,
) -> np.ndarray:
    """Replay a plan at domain size q on the tensors of batch binding
    sets: arrays holds each id's tensors stacked on a leading batch axis,
    in the order of the plan's (id, shape) pairs, and every plan reads
    that one list, vertex v at arrays[plan.stack_of[v]].  perm, unless
    empty, lists the axes of the stacked outer product in slot order,
    the batch axis first.  Returns the batch results, stacked on a
    leading axis.

    Each step gives every row the bits that row gets alone: a trace runs
    on the plan's batch-shifted axes, a pairwise step is one np.matmul of
    (batch, m, k) and (batch, k, n) stacks, which equals np.dot row by
    row at q >= 2, and outer products broadcast.  At q = 1 every array
    holds one entry, and numpy rounds a one-entry product by the path it
    takes (np.matmul, np.dot and broadcasting differ in signed zeros and
    fused multiply-adds), so there each row takes np.dot and
    np.multiply.outer apart, as a lone set does.  A plan that eliminates
    has no pairwise step; each row runs its np.einsum steps apart, on
    its own row of each stack (a lone set's row is its own array), and
    only the scalars they leave are stacked.  A wide step passes np.einsum
    its greedy path, kept per subscripts and shapes (_einsum_path).

    A lone set whose steps read one bound array whole (plan.shared_stack:
    every hom count, whose only tensor is its target's adjacency) looks
    each step up in the step memo (StepMemo) before it
    runs np.einsum, and keeps what it runs there, so that counts into one
    target share their steps (A.1, A**2, the A**k chain of every cycle).
    A hit is the very array an identical np.einsum call on identical
    operands made, so every value keeps its bits.  The key holds whether
    the step runs wide, so a test that moves EINSUM_LOOP_MAX runs both.
    """
    if plan.eliminations:
        memo = step_memo
        owner = None
        if batch == 1 and plan.shared_stack >= 0:
            owner = memo.owner(arrays[plan.shared_stack])
        rows = []
        for k in range(batch):
            own = [a[k] for a in arrays]  # set k's row of each stack
            row = list(map(own.__getitem__, plan.stack_of))
            # per node, the memo tag it goes by, None for one not kept
            tags = [WHOLE] * len(row) if owner else None
            for operands, subscripts, rank in plan.eliminations:
                wide = q ** (rank + 1) > EINSUM_LOOP_MAX
                key = None
                if tags is not None:
                    key = (owner[0], subscripts, wide, *[tags[o] for o in operands])
                    if None in key:
                        key = None
                    else:
                        hit = memo.get(key)
                        if hit is not None:
                            tags.append(hit[0])
                            row.append(hit[1])
                            continue
                ops = [row[o] for o in operands]
                path = _einsum_path(subscripts, *[op.shape for op in ops]) if wide else False
                out = np.einsum(subscripts, *ops, optimize=path)
                row.append(out)
                if tags is not None:
                    tags.append(memo.put(key, out) if key and out.size <= owner[1] else None)
            rows.append(row)
        nodes = {nid: np.array([row[nid] for row in rows]) for nid in plan.outer}
    else:
        nodes = [arrays[i] for i in plan.stack_of]
        for nid, axis1, axis2 in plan.traces:
            nodes[nid] = nodes[nid].trace(axis1=axis1, axis2=axis2)
        for u, axes_u, v, axes_v, shared, rank in plan.steps:
            m = q**shared
            a = nodes[u].transpose(axes_u).reshape(batch, -1, m)
            b = nodes[v].transpose(axes_v).reshape(batch, m, -1)
            ab = np.matmul(a, b) if q > 1 else np.array([np.dot(x, y) for x, y in zip(a, b)])
            nodes.append(ab.reshape((batch,) + (q,) * rank))
    # the product starts from 1 + 0j, as a lone set's does: a multiply by
    # it can turn -0.0 into 0.0
    out = None
    for nid in plan.outer:
        node = nodes[nid]
        if out is None:
            out = node * (1 + 0j)
        elif q == 1:
            out = np.array([np.multiply.outer(x, y) for x, y in zip(out, node)])
        else:
            shifted = (1,) * (out.ndim - 1) + node.shape[1:]
            out = out.reshape(out.shape + (1,) * (node.ndim - 1)) * node.reshape((batch, *shifted))
    if out is None:
        out = np.ones(batch, dtype=np.complex128)
    if plan.free:
        out = out * q**plan.free
    return out.transpose(perm) if perm else out


def _plan(grid: SignatureGrid, shapes, equal: tuple[str, ...]) -> ContractionPlan:
    """The plan of grid under one route's (id, shape) pairs and equality
    ids; an invalid grid raises, its first fault named in its own order."""
    left = right = ()
    if grid.left_dangling or grid.right_dangling:
        left, right = tuple(sorted(grid.left_dangling)), tuple(sorted(grid.right_dangling))
    try:
        return _contraction_plan(grid.vertices, grid.edges, left, right, shapes, min(grid.q, 2), equal)
    except ValueError:
        # the plan validated the structure with its stubs sorted; validity
        # does not depend on their order but the message does, so name the
        # first fault in the grid's own order
        grid.validate(dict(shapes))
        raise


def _contract(grid: SignatureGrid, bound: _Bound, batch: int) -> np.ndarray:
    """stacked_signature on the _Bound of grid under batch binding sets:
    each route's plan, its cap checked at grid.q, replayed with the
    permutation that puts the free axes in slot order."""
    shapes, routes, arrays = bound
    out = None if len(routes) == 1 else np.empty(batch, dtype=np.complex128)
    for equal, ks in routes.items():
        plan = _plan(grid, shapes, equal)
        _check_cap(plan, grid.q)
        perm = ()
        if plan.outer_rank:  # the grid has stubs
            perm = tuple(
                [0]
                + [plan.left_axis[s] + 1 for s in grid.left_dangling]
                + [plan.right_axis[s] + 1 for s in grid.right_dangling]
            )
        if out is None:
            out = _execute(plan, grid.q, arrays, perm, batch)
        else:  # two routes, so the grid is closed and each row one value
            out[ks] = _execute(plan, grid.q, [a[ks] for a in arrays], perm, len(ks))
    out = out * grid.q**grid.loops
    out.setflags(write=False)
    return out


def stacked_signature(grid: SignatureGrid, stacks: BindingStacks) -> np.ndarray:
    """Signature arrays of grid under every binding set of stacks, as one
    read-only array of shape (B, q, ..., q): row k is bitwise
    gadget_signature(grid, stacks.sets[k]).array.

    The grid's structure is planned once and replayed once on the
    stacks, not once per binding set.  A closed grid at q >= 2 with an
    id bound to an exact equality signature (MixedTensor.is_equality;
    the wire identity is one) is contracted by eliminating index classes,
    one np.einsum per class: hom and matchings grids, whose equalities
    would otherwise be nodes of many tiny pairwise steps.  Every other
    grid, and every grid with stubs, keeps its pairwise plan; so does
    q = 1, where the entry cap bounds no step and a wide step could need
    more indices than einsum has letters.  Measured range, on a 2-CPU
    host: hom counts into targets of q = 10 to 512 vertices (hom-census;
    cycles and random cubic graphs of 128 and 512 vertices) ran as fast
    as by pairwise plans or faster, and at q = 128 some grids fit the
    entry cap that do not fit it pairwise: hom(K4, G) needs q**3 entries
    by elimination, q**4 pairwise.  Binding sets share a replay when they
    pick one plan, that is, bind the same ids to equalities; a set whose
    plan differs is replayed apart.  A lone set whose elimination steps
    read one bound array whole looks each step up in the step memo
    (_execute), keyed by the step's subscripts and how its operands were
    made, and kept while that array lives; stacked sets, whose rows are
    not bound arrays, never do.
    The plan is shared by the grid's whole structure; what depends on
    this grid alone is done here: the cap check at its q, the order of
    its free axes by its stubs, and the factor q per vertexless loop.

    grid may also be the compiled program of the closed family that
    spans.closed_signature_blocks stores and alone passes here
    (FamilyProgram, hashed by identity, so that perfbench's tracer can
    count it).  It replays all its structures at once, by one
    level-batched program, and returns a read-only (structures, B) array
    whose row j is bitwise this function's result for its structure j,
    or None when some set routes a grid through elimination.
    """
    if not isinstance(grid, SignatureGrid):
        return grid.replay(stacks)
    return _contract(grid, stacks.bind(grid), len(stacks.sets))


def holant_eval_contracted(grid: SignatureGrid, bindings: dict[str, MixedTensor]) -> complex:
    """Holant value of a closed grid via tensor contraction:
    stacked_signature under one binding set.

    Plans are cached per structure, ignoring q >= 2 and the loop count,
    in one least-recently-used cache of PLAN_CACHE_SIZE entries shared
    with gadget_signature; each call checks the entry cap at its own q
    and scales by q per loop.  A reused plan replays the same arithmetic,
    and a step the step memo answers (_execute) returns the very array
    that arithmetic made, so the value depends on neither cache.  The
    memo keeps results no larger than the bound array, up to
    STEP_MEMO_BYTES in all, and drops them when the array dies.
    """
    if not grid.is_closed():
        raise ValueError("holant_eval_contracted needs a closed grid")
    return complex(_contract(grid, BindingStacks([bindings]).bind(grid), 1)[0])


def gadget_signature(grid: SignatureGrid, bindings: dict[str, MixedTensor]) -> MixedTensor:
    """Signature of a gadget: Holant values over its dangling assignments.

    Slot order follows the dangling stub order, left stubs then right.
    The dangling slots stay free tensor axes of the contraction, planned
    and cached as in holant_eval_contracted: stacked_signature with one
    binding set.  The plan also ignores the order of the stubs, which
    decides only the final transpose of the free axes, never which pair
    is contracted next, and the loop count, which only scales the result.
    So a grid that differs from a contracted one only in slot order, or
    from a loop-free one also in its loop count, need not be contracted:
    derives says how its signature follows from the known one's array,
    bitwise.  A closed grid's signature is its (0,0) tensor,
    holding holant_eval_contracted's value.  Reuse of a cached plan does
    not change the signature.
    """
    l, r = grid.profile
    return MixedTensor(grid.q, l, r, _contract(grid, BindingStacks([bindings]).bind(grid), 1)[0])


def derives(grid: SignatureGrid, target: SignatureGrid):
    """How target's signature arrays follow from grid's: (axes, scale)
    for derived_signature, or None if they do not.

    They follow when the grids have the same q, vertices and edges, the
    same stubs as multisets, and the same loop count unless grid has
    none: both replay one plan, keyed on the sorted stubs and blind to
    loops, so they differ only in the final transpose of the free axes
    and in the scale by q**loops, which commutes with it.  axes takes
    grid's stacked arrays to target's slot order, None at grid's own;
    scale is q**loops as a float, None at grid's loop count.
    """
    if (grid.q, grid.vertices, grid.edges) != (target.q, target.vertices, target.edges):
        return None
    if grid.loops not in (0, target.loops):
        return None
    axes = None
    if grid.left_dangling != target.left_dangling or grid.right_dangling != target.right_dangling:
        if (sorted(grid.left_dangling), sorted(grid.right_dangling)) != (
            sorted(target.left_dangling), sorted(target.right_dangling)
        ):
            return None
        l = len(grid.left_dangling)
        axes = tuple(
            [0]
            + [1 + grid.left_dangling.index(s) for s in target.left_dangling]
            + [1 + l + grid.right_dangling.index(s) for s in target.right_dangling]
        )
    return axes, (float(grid.q**target.loops) if target.loops != grid.loops else None)


def derived_signature(sig: np.ndarray, axes, scale) -> np.ndarray:
    """target's signature arrays from sig, grid's as stacked_signature
    returns them, where derives(grid, target) = (axes, scale).

    Row k is bitwise gadget_signature(target, ...).array under row k's
    bindings.  Without a scale the result is a view of sig.
    stacked_signature scales by a complex multiply with q**loops + 0j,
    even at loops 0, and that can flip a signed zero: (-0-0j)*1 is 0-0j,
    and ((-0-0j)*1)*2 is 0+0j where (-0-0j)*2 is 0-0j.  A loop-free sig
    has been through the multiply by 1 + 0j, so scale multiplies its
    real and imaginary parts apart, which gives the bits a single
    complex multiply by q**loops gives.
    """
    arr = sig if axes is None else sig.transpose(axes)
    if scale is not None:
        parts = arr.reshape(-1).view(np.float64) * scale
        arr = parts.view(np.complex128).reshape(arr.shape)
    return arr


# -- quantum gadgets ---------------------------------------------------------


@dataclass(frozen=True)
class QuantumGadget:
    """Formal linear combination of gadgets with a common profile."""

    terms: tuple[tuple[complex, SignatureGrid], ...]

    def __post_init__(self):
        terms = tuple((complex(c), g) for c, g in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("a quantum gadget needs at least one term")
        q = terms[0][1].q
        prof = terms[0][1].profile
        for _, g in terms:
            if g.q != q or g.profile != prof:
                raise ValueError("terms must share domain size and profile")

    @property
    def q(self) -> int:
        return self.terms[0][1].q

    @property
    def profile(self) -> tuple[int, int]:
        return self.terms[0][1].profile

    def signature(self, bindings: dict[str, MixedTensor]) -> MixedTensor:
        l, r = self.profile
        out = MixedTensor.zeros(self.q, l, r)
        for c, g in self.terms:
            out = out + c * gadget_signature(g, bindings)
        return out


# -- the compiled closed family ---------------------------------------------


# The node entries of one part, per binding set.  A replay holds one
# part's buffer and gathered operands at a time; every part's index
# arrays are kept with the stored family.  closed-invariance's 300
# structures take 5133 entries, one part.  The largest stored family of
# its shapes, at bound 5 (3458 grids, 1729 structures), replayed warm by
# verify_holant_theorem (B = 2, 2-CPU host): at q = 3, 7.1 ms at 1 << 12,
# 4.1 ms at 1 << 14, 3.0 ms at this cap (three parts) and 2.3 ms in one
# part, with peak RSS 43.8, 43.7, 45.3 and 47.9 MB; at q = 4, 4.2 ms and
# 46.7 MB at this cap, 4.6 ms and 53.6 MB in one part.
PART_MAX_ENTRIES = 1 << 16


def _column_major(perm: list[int], split: int) -> bool:
    """Is the (rows, cols) reshape of a C-ordered tensor transposed by
    perm, the first split axes of perm its rows, a column-major view?

    A reshape is a view when each side's axes are a run of consecutive
    axes in increasing order; it is column-major when the columns' run
    comes first.  A side of one entry is a vector, which BLAS reads by
    its stride alone.
    """
    rows, cols = perm[:split], perm[split:]
    return bool(rows) and bool(cols) and cols == list(range(len(cols))) and (
        rows == list(range(len(cols), len(perm)))
    )


def compile_family(runs, shapes: dict[str, tuple[int, int]]):
    """The FamilyProgram of runs, the stored family's loop-free closed
    grids, under shapes, the family's own (id -> shape), planning each
    structure pairwise once.  Returns None, for the family to keep, when
    the family has no program under any bindings: at q = 1, where numpy
    rounds a one-entry product by the path it takes, and when some
    pairwise plan is over the entry cap."""
    runs = tuple(runs)
    q = runs[0].q
    if q == 1:
        return None
    # BindingStacks.bind gives every closed grid of one q and one id set
    # the same shapes, routes and stacks: one grid per id set, and its
    # (id, shape) pairs as bind sorts them
    id_sets, plans = {}, []
    for g in runs:
        ids = frozenset(g.vertices)
        if ids not in id_sets:
            id_sets[ids] = (g, tuple((sig, shapes[sig]) for sig in sorted(ids)))
        plans.append(_plan(g, id_sets[ids][1], ()))
        try:
            _check_cap(plans[-1], q)
        except ValueError:
            return None
    return FamilyProgram(runs, tuple(id_sets.values()), plans)


class FamilyProgram:
    """The compiled replay of the stored family's loop-free closed grids,
    runs, at q >= 2 (compile_family builds it); id_sets holds the first
    grid of each id set with its (id, shape) pairs.  replay(stacks)
    returns a read-only (structures, B) array, or None when some binding
    set routes a grid through elimination.

    The structures are split, in walk order, into parts whose nodes hold
    at most PART_MAX_ENTRIES entries in all per binding set (a part holds
    at least one structure), each compiled when the program is built.  A
    part keeps every node of its structures in one flat buffer of shape
    (B, size), B the binding sets, each node's entries in C order on
    columns of its own.  Its replay runs, in order:
    - one copy per id of that id's stack, as BindingStacks bound it for
      every route of _execute, and one chain of np.trace calls per (id,
      self-edge axes) pattern;
    - per group of pairwise steps, one np.take per operand and one
      np.matmul of the (B, G, M, K) and (B, G, K, N) stacks.  A group is
      keyed by (depth, M, K, N, memory order of each operand).  A step's
      depth is one more than its deeper operand's, a vertex's is 0, so a
      group reads only nodes written before it;
    - per number of leftover scalars, the structures' products from
      1 + 0j in plan.outer order, as _execute multiplies them.

    Each row gets the bits _execute gives it.  Two layouts decide that:
    - np.take(buf, idx, axis=1) is C-ordered; buf[:, idx] would put the
      batch axis innermost in memory, and numpy would then not hand its
      matrices to BLAS as they are;
    - numpy hands a matrix to BLAS in its own memory order, and BLAS
      rounds by that order (a matrix-vector product by dot products or
      by column sums).  _execute's transpose-then-reshape gives a
      column-major view where a step's kept and summed axes are two runs
      in reverse order, a row-major array otherwise; each operand is
      gathered in that order, worked out once from the step's axes.
    """

    __slots__ = ("runs", "id_sets", "parts")

    def __init__(self, runs, id_sets, plans):
        self.runs = runs
        self.id_sets = id_sets
        arity = {sig: sum(sh) for _, shapes in id_sets for sig, sh in shapes}
        self.parts = [
            self._compile_part(members, plans, arity) for members in self._split(plans, arity)
        ]

    def _split(self, plans, arity) -> list[list[int]]:
        """The structures, indices into runs, split in walk order into
        parts of at most PART_MAX_ENTRIES node entries; a part holds at
        least one structure."""
        q = self.runs[0].q
        parts: list[list[int]] = []
        members: list[int] = []
        entries = 0
        for i, (g, plan) in enumerate(zip(self.runs, plans)):
            traced = [0] * len(g.vertices)
            for nid, _, _ in plan.traces:
                traced[nid] += 1
            # its vertices once traced and its steps' outputs; a gather
            # reads each of these nodes at most once
            need = sum(q ** (arity[sig] - 2 * t) for sig, t in zip(g.vertices, traced))
            need += sum(q**rank for *_, rank in plan.steps)
            if members and entries + need > PART_MAX_ENTRIES:
                parts.append(members)
                members, entries = [], 0
            members.append(i)
            entries += need
        return parts + [members]

    def _compile_part(self, members: list[int], plans, arity) -> tuple:
        """(size, inputs, traces, steps, products) of the structures
        members, indices into runs, laid out in one buffer."""
        q = self.runs[0].q
        size = 0
        inputs: dict[str, tuple[int, int]] = {}  # id -> its columns
        traces: dict[tuple, tuple[int, int]] = {}  # (id, axes pairs) -> columns
        # an operand's layout: its axes and rows -> (id, whether it is
        # gathered column-major, its matrix of node entries, so gathered)
        layouts: dict[tuple, tuple[int, bool, np.ndarray]] = {}
        # key -> per step, each operand's node and layout id
        groups: dict[tuple, list] = {}
        outer: dict[int, list] = {}  # per structure, its leftover nodes

        def layout(axes, split):
            found = layouts.get((axes, split))
            if found is None:
                perm = [a - 1 for a in axes[1:]]
                column_major = _column_major(perm, split)
                idx = np.arange(q ** len(perm)).reshape((q,) * len(perm)).transpose(perm)
                idx = idx.reshape(q**split, -1)
                found = layouts[axes, split] = (len(layouts), column_major, idx.T if column_major else idx)
            return found

        for i in members:
            g, plan = self.runs[i], plans[i]
            traced: dict[int, list] = {}
            for nid, axis1, axis2 in plan.traces:
                traced.setdefault(nid, []).append((axis1, axis2))
            # a node is (where, rank, depth); where is ("at", column) or
            # (group key, position in the group)
            nodes = []
            for v, sig in enumerate(g.vertices):
                pattern = tuple(traced.get(v, ()))
                rank = arity[sig] - 2 * len(pattern)
                table, key = (traces, (sig, pattern)) if pattern else (inputs, sig)
                if key not in table:
                    table[key] = (size, size + q**rank)
                    size += q**rank
                nodes.append((("at", table[key][0]), rank, 0))
            for u, axes_u, v, axes_v, shared, rank in plan.steps:
                (wu, ru, du), (wv, rv, dv) = nodes[u], nodes[v]
                lu, fu, _ = layout(axes_u, ru - shared)
                lv, fv, _ = layout(axes_v, shared)
                key = (1 + max(du, dv), q ** (ru - shared), q**shared, q ** (rv - shared), fu, fv)
                group = groups.setdefault(key, [])
                group.append((wu, lu, wv, lv))
                nodes.append(((key, len(group) - 1), rank, key[0]))
            outer[i] = [nodes[nid][0] for nid in plan.outer]

        # the groups in order of depth, each group's outputs side by side
        base = {}
        for key in sorted(groups, key=lambda k: k[0]):
            base[key] = size
            size += len(groups[key]) * key[1] * key[3]

        def column(where) -> int:
            if where[0] == "at":
                return where[1]
            key, pos = where
            return base[key] + pos * key[1] * key[3]

        by_id = [idx for _, _, idx in layouts.values()]

        def gathered(group, at: int) -> np.ndarray:
            """The buffer columns of operand at (0 or 2) of each step of
            a group, as one (steps, rows, cols) array."""
            ids = [step[at + 1] for step in group]
            distinct = sorted(set(ids))
            table = np.stack([by_id[k] for k in distinct])
            start = np.array([column(step[at]) for step in group], dtype=np.intp)
            return table[np.searchsorted(distinct, ids)] + start[:, None, None]

        steps = []
        for key, lo in base.items():
            _, m, _, n, fa, fb = key
            group = groups[key]
            steps.append((lo, lo + len(group) * m * n, gathered(group, 0), fa, gathered(group, 2), fb))

        # the structures grouped by their number of leftover scalars
        by_count: dict[int, list[int]] = {}
        for i, nodes in outer.items():
            by_count.setdefault(len(nodes), []).append(i)
        products = []
        for count, same in sorted(by_count.items()):
            idx = np.array(
                [[column(outer[i][f]) for i in same] for f in range(count)], dtype=np.intp
            ).reshape(count, len(same))
            products.append((np.array(same, dtype=np.intp), idx))
        return size, inputs, traces, steps, products

    def replay(self, stacks: BindingStacks) -> np.ndarray | None:
        """Every structure's values under every set of stacks, as one
        read-only (structures, B) array, bitwise stacked_signature's; or
        None, before any contraction, when some set routes an id set
        through elimination.  Every set binds the family's own shapes: the
        family is stored under the first set's, and bind refuses a later
        set whose shapes differ."""
        batch = len(stacks.sets)
        stacked = {}  # each id's stack, as bound
        for g, _ in self.id_sets:
            bound = stacks.bind(g)
            if list(bound.routes) != [()]:
                return None
            stacked.update(zip(dict(bound.shapes), bound.arrays))
        out = np.empty((batch, len(self.runs)), dtype=np.complex128)
        for size, inputs, traces, steps, products in self.parts:
            buf = np.empty((batch, size), dtype=np.complex128)
            for sig, (lo, hi) in inputs.items():
                buf[:, lo:hi] = stacked[sig].reshape(batch, -1)
            for (sig, pattern), (lo, hi) in traces.items():
                node = stacked[sig]
                for axis1, axis2 in pattern:
                    node = node.trace(axis1=axis1, axis2=axis2)
                buf[:, lo:hi] = node.reshape(batch, -1)
            for lo, hi, ia, fa, ib, fb in steps:
                a = np.take(buf, ia, axis=1)
                b = np.take(buf, ib, axis=1)
                if fa:
                    a = a.swapaxes(-1, -2)
                if fb:
                    b = b.swapaxes(-1, -2)
                buf[:, lo:hi] = np.matmul(a, b).reshape(batch, -1)
            for same, idx in products:
                if not len(idx):
                    out[:, same] = 1
                    continue
                factors = np.take(buf, idx, axis=1)
                product = factors[:, 0] * (1 + 0j)
                for f in range(1, len(idx)):
                    product = product * factors[:, f]
                out[:, same] = product
        # the factor q**loops of a loop-free grid, multiplied as
        # _contract multiplies it
        out = (out * 1).T
        out.setflags(write=False)
        return out
