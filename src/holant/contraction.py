"""How a bound grid becomes numbers: one plan format and every route
that runs it.

Each route replays a ContractionPlan, planned once per grid structure
(_contraction_plan), and keeps one bit contract: row k of a stacked
result is bitwise binding set k's contraction alone.
- BindingStacks checks the binding sets of a walk once per kind of grid
  and stacks each id's tensors on a leading batch axis; an eliminating
  route reads a set's real tensors, as every count's are, in float64.
- A pairwise plan contracts next the node pair whose result is smallest.
  An exact equality says that all its ports carry one value, so it is
  not a tensor of the network but one index its ports share, and
  elimination_plan sums such index classes out one np.einsum at a time
  (Dechter, "Bucket elimination", 1999): a hom(X, G) grid reads as a sum
  over X's vertices of products of G's adjacency matrix.
- _execute replays a plan on the stacks.  Each step of an elimination
  plan that reads one bound array only, as every hom count does, has a
  structural step id, interned by its subscripts and its operands' ids
  (hash-consing: Filliatre & Conchon, "Type-safe modular hash-consing",
  2006), so that equal sub-computations of any two plans share one id.
  A lone count, whose bound array _contract hands on, asks the step
  memo (StepMemo) for the steps it needs under (array id, step id), top
  down from the plan's last nodes, and runs only the steps under its
  misses: counts into one target share whole subtrees of steps.
- compile_family compiles the closed family that
  spans.closed_signature_blocks stores into one FamilyProgram, one
  buffer of at most PROGRAM_MAX_ENTRIES entries per binding set, which
  replays every structure's pairwise plan under every binding set in a
  few batched numpy calls (Dongarra et al., "A proposed API for batched
  basic linear algebra subprograms", 2016; Gray & Kourtis,
  "Hyper-optimized tensor network contraction", 2021, treat a
  contraction tree as a compiled program).  A family over that cap
  gets no program and replays run by run.

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

from holant.grids import WIRE_ID, Edge, SignatureGrid, Stub, port_offsets
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
    # per set, what its eliminating route reads of each id, in shapes
    # order (BindingStacks.bind); None for an id it does not read, and
    # () when no set eliminates
    rows: tuple[list[np.ndarray | None], ...]


def _eliminated_row(row: np.ndarray) -> np.ndarray:
    """One set's tensor as an eliminating route reads it: a contiguous
    float64 copy of its real part when no entry has a nonzero imaginary
    part (a -0.0 is zero), else the complex row itself."""
    return row if row.imag.any() else row.real.copy()


class BindingStacks:
    """The binding sets of one walk, each id's tensors stacked on a
    leading batch axis: the one way a grid is bound for contraction.

    bind(grid) resolves every set by resolve_bindings once per kind of
    grid the walk meets (its q, id set and whether it is closed: what
    bind keeps depends on no more), and keeps a kind only once every set
    resolved, so a fault is named as a lone grid's contraction names it,
    in the grid's own vertex order.  Each set takes a route: a closed
    grid at q >= 2 under a set that binds some id to an exact equality
    is eliminated, every other grid is contracted pairwise.  The pairwise
    route reads one list of stacked arrays, one per id of the grid
    (_execute), and the compiled closed family reads the same stacks.
    An eliminating route reads each of its sets apart, on that set's
    row of each id it reads: as a float64 copy when the row's entries
    are all real, as counting grids' are, since numpy's float64 einsum
    loops run several times faster than its complex ones; else as the
    complex row.  The choice is made per set, from that set's bits
    alone, so a stacked row keeps the bits of its set alone.  Each id is
    stacked once per walk and domain size, and each row an eliminating
    route reads is chosen and copied once per walk and domain size too;
    the wire identity is stacked once some grid has wire vertices.  The
    sets share each id's shape, as every caller's
    correspondence checks; a set that binds an id with another shape
    than the first set's is refused by id and set when that id is first
    stacked.  The sets are never changed.  A lone set's stacks are views
    of its own arrays, so holant_eval_contracted and gadget_signature
    bind through a one-set BindingStacks at the cost of a view per id;
    hom_count keeps one per target, grown by extended, across counts.
    """

    __slots__ = ("sets", "_stacks", "_rows", "_bound")

    def __init__(self, sets):
        self.sets = tuple(sets)
        self._stacks: dict[int, dict[str, np.ndarray]] = {}  # q -> id -> stack
        # q -> id -> per set, its row as an eliminating route reads it
        self._rows: dict[int, dict[str, tuple[np.ndarray, ...]]] = {}
        self._bound: dict[tuple[int, frozenset[str], bool], _Bound] = {}

    def extended(self, more: dict[str, MixedTensor]) -> BindingStacks:
        """A one-set stacks over this one's set and more, new ids other
        than the wire id, keeping every kind, stack and row bound so far:
        a kind reads only its ids' bindings and the set's wire binding."""
        (bindings,) = self.sets
        if WIRE_ID in more or bindings.keys() & more.keys():
            raise ValueError("extended binds only ids the set leaves unbound, never the wire id")
        out = BindingStacks([{**bindings, **more}])
        out._stacks = {q: dict(st) for q, st in self._stacks.items()}
        out._rows = {q: dict(rows) for q, rows in self._rows.items()}
        out._bound = dict(self._bound)
        return out

    def bind(self, grid: SignatureGrid) -> _Bound:
        key = (grid.q, frozenset(grid.vertices), grid.is_closed())
        bound = self._bound.get(key)
        if bound is None:
            resolved = [resolve_bindings(grid, b) for b in self.sets]
            ids = sorted(set(grid.vertices))
            eliminate = grid.q >= 2 and grid.is_closed()
            routes, shapes, arrays, read = {}, [], [], set()
            for k, b in enumerate(resolved):
                equal = tuple([sig for sig in ids if eliminate and b[sig].is_equality()])
                routes.setdefault(equal, []).append(k)
                if equal:
                    read.update([sig for sig in ids if sig not in equal])
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
            rows = ()
            if read:
                kept = self._rows.setdefault(grid.q, {})
                for sig in read:
                    if sig not in kept:
                        kept[sig] = tuple(map(_eliminated_row, stacks[sig]))
                rows = tuple([[kept[sig][k] if sig in read else None for sig in ids]
                              for k in range(len(resolved))])
            bound = self._bound[key] = _Bound(tuple(shapes), routes, arrays, rows)
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
# The step-id table is emptied when an intern would take it past
# 4 * PLAN_CACHE_SIZE ids, and ids go on counting from where they were, so
# no id is reused: an id that a cached plan or the step memo still holds
# names one structure, and a step planned after a reset takes a fresh id,
# which at worst misses the memo once.  The degree-3 census to 10
# vertices interns 7158 ids for its 2571 classes' hom counts.
_STEP_IDS_MAX = 4 * PLAN_CACHE_SIZE


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
        pairs, else -1.
    step_ids: for such a shared-stack plan, each elimination step's
        structural id (_step_ids), by which _eliminate keys it in the
        step memo; () for every other plan.
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
    step_ids: tuple[int, ...] = ()


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
    its contraction; port_offsets validates it and numbers its ports.

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
    start, split = offsets = port_offsets(vertices, edges, left, right, shape_of)
    stack_of = tuple(map([sig for sig, _ in shapes].index, vertices))
    if equal:
        steps, outer, free = elimination_plan(vertices, edges, shape_of, set(equal), offsets)
        peak_rank = max((rank for *_, rank in steps), default=0)
        read = {stack_of[o] for operands, _, _ in steps for o in operands if o < len(vertices)}
        shared = read.pop() if len(read) == 1 else -1
        ids = _step_ids(steps, len(vertices)) if shared >= 0 else ()
        return ContractionPlan((), (), peak_rank, outer, 0, {}, {}, stack_of, steps, free, shared, ids)
    # one int label per vertex port, its number, so each vertex's labels
    # list its axes in order: left ports, then right ports
    n = len(vertices)
    labels: list[list[int] | None] = [list(range(start[v], start[v + 1])) for v in range(n)]
    owner = [v for v in range(n) for _ in range(start[v], start[v + 1])]
    traces = []
    pairs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    self_edges = []
    for k, (u, i, v, j) in enumerate(edges):
        e = (k, start[u] + i - 1, split[v] + j - 1)
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
    right_axis = {(v, j): position[split[v] + j - 1] for (v, j) in right}
    if sorted([*left_axis.values(), *right_axis.values()]) != list(range(len(remaining))):
        raise ValueError("open labels do not match the remaining axes")
    peak_rank = max((rank for *_, rank in steps), default=0)
    return ContractionPlan(
        tuple(traces), tuple(steps), peak_rank, outer, len(remaining), left_axis, right_axis, stack_of
    )


# the operand id of a shared-stack plan's one bound array, read whole
WHOLE = -1
# (subscripts, *operand ids) -> structural step id; bounded by _STEP_IDS_MAX
_step_table: dict[tuple, int] = {}
_step_serials = itertools.count()


def _step_ids(steps, n: int) -> tuple[int, ...]:
    """The structural id of each step of a shared-stack elimination plan
    of n vertices: its subscripts and its operands' ids, WHOLE for a
    vertex (every vertex a step reads is the one bound array), interned
    in _step_table.  Equal ids name equal np.einsum calls on equal
    operands, whichever plans they come from."""
    ids: list[int] = []
    for operands, subscripts, _ in steps:
        key = (subscripts, *[WHOLE if o < n else ids[o - n] for o in operands])
        sid = _step_table.get(key)
        if sid is None:
            if len(_step_table) >= _STEP_IDS_MAX:
                _step_table.clear()
            sid = _step_table[key] = next(_step_serials)
        ids.append(sid)
    return tuple(ids)


# the index letters of np.einsum subscripts
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

Step = tuple[tuple[int, ...], str | None, int]


def elimination_plan(
    vertices: tuple[str, ...],
    edges: tuple[Edge, ...],
    shape_of: dict[str, tuple[int, int]],
    equal: set[str],
    offsets: tuple[list[int], list[int]] | None = None,
) -> tuple[tuple[Step, ...], tuple[int, ...], int]:
    """Plan a closed, valid grid structure by eliminating index classes.

    Returns (steps, outer, free), node ids as ContractionPlan's;
    offsets are port_offsets', worked out when not given.  The ports of
    each vertex whose id is in equal start as one class, and union-find
    merges the two ends of each edge into index classes, numbered by
    their lowest port, so no number depends on which root a union keeps.
    Every other vertex keeps its axes, each labelled by its class; one
    tensor may hold a class on several axes, read as a diagonal.

    Each step (operands, subscripts, rank) sums one class out of the
    nodes that hold it, by one np.einsum(subscripts, *operands), and
    leaves a node of rank axes, one per class those nodes still hold, in
    class order.  The class taken is the one whose output holds the
    fewest classes, the lowest such class on ties (min-width order),
    which orders the output sizes q**rank alike for every q >= 2.  A
    step's classes take letters in class order; subscripts is None for a
    step with more classes than einsum has letters, which no q >= 2 runs
    under the entry cap.

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
    every other class alone.  The nodes that hold each class are a bit
    mask too, and each table is a list indexed by class (axes by node).
    The next class comes off a heap of (width, class) entries, and a
    class goes on it again only when its width changes; an entry whose
    class is gone (width -1) or whose width has changed is skipped.
    """
    # imported here, so that `import holant` does not load _heapq's shared library
    import heapq

    start, split = offsets or port_offsets(vertices, edges, (), (), shape_of)
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

    for u, i, v, j in edges:
        parent[find(start[u] + i - 1)] = find(split[v] + j - 1)
    number: dict[int, int] = {}  # root -> its class
    class_of = [number.setdefault(find(port), len(number)) for port in range(start[-1])]

    k = len(number)
    holders = [0] * k  # class -> bit mask of the nodes holding it
    adj = [0] * k
    axes: list[list[int] | None] = []  # node -> the classes on its axes
    free = k
    for v, sig in enumerate(vertices):
        if sig in equal:
            axes.append(None)
            free += start[v] == start[v + 1]
            continue
        classes = class_of[start[v]:start[v + 1]]
        axes.append(classes)
        mask = 0
        for c in classes:
            mask |= 1 << c
        for c in classes:
            holders[c] |= 1 << v
            adj[c] |= mask
    width = [-1] * k
    for c in range(k):
        if holders[c]:
            adj[c] &= ~(1 << c)
            width[c] = adj[c].bit_count()
    heap = [(w, c) for c, w in enumerate(width) if w >= 0]
    free -= len(heap)
    heapq.heapify(heap)
    steps = []
    node = len(vertices)
    while heap:
        rank, c = heapq.heappop(heap)
        if width[c] != rank:
            continue  # c is gone, or its width changed after this entry
        width[c] = -1
        took, near = holders[c], adj[c]
        ops, kept = [], []  # the set bits of took and of near, lowest first
        for mask, bits in ((took, ops), (near, kept)):
            while mask:
                low = mask & -mask
                bits.append(low.bit_length() - 1)
                mask ^= low
        subscripts = None
        if rank < len(_LETTERS):
            below = (near & ((1 << c) - 1)).bit_count()  # c's place among its step's classes
            letter = dict(zip(kept[:below] + [c] + kept[below:], _LETTERS))
            subscripts = ",".join(["".join([letter[x] for x in axes[w]]) for w in ops])
            subscripts += "->" + _LETTERS[:below] + _LETTERS[below + 1:rank + 1]
        steps.append((tuple(ops), subscripts, rank))
        for w in ops:
            axes[w] = None
        axes.append(kept)
        # a class's width changes only when a step leaves it on the new node
        gone, left, new = ~(1 << c), ~took, 1 << node
        for x in kept:
            holders[x] = holders[x] & left | new
            adj[x] = (adj[x] & gone) | (near & ~(1 << x))
            w = adj[x].bit_count()
            if w != width[x]:
                width[x] = w
                heapq.heappush(heap, (w, x))
        node += 1
    return tuple(steps), tuple([w for w, held in enumerate(axes) if held is not None]), free


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
# tuple and operand.  Timed in float64, as every count runs, on a 2-CPU
# host (numpy 2.4.6), loop against paired: "ab,ac->bc" 4.4 against 14 us
# at q = 16 and 15.5 against 15.2 us at q = 32; "ab,ac,ad->bcd" 15 against
# 27 us at q = 8 and 149 against 49 us at q = 16 (in complex128 17 against
# 18, 89 against 23, 29 against 53 and 299 against 49 us).  The counts of
# a hom-census pass, plans cached and the step memo empty, ran in 0.053 s
# at 2**14, 0.054-0.057 s at 2**12, 2**13, 2**15 and 2**16, and 0.059 s
# with every step in the loop (best of five).
# The step memo's keys do not hold which way a step ran, so code that
# moves this constant runs under an empty memo of its own.
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
# a step by tracemalloc); the least recently used step goes first.  Counts
# run in float64, so their results take 8 bytes an entry.  A hom-census
# pass keeps 1906 steps, 0.51 MB of results and 1.28 MB in all; the counts
# of `holant homdist` on two isomorphic 16-vertex cubic graphs (a random
# pairing, numpy seed 5) at degree 3 keep 3856 steps in 3.5 MB at bound 9
# and 12296 in 11.6 MB at bound 10 (6.7 MB of results, peak RSS +10 MB
# over a memo that keeps nothing), so a bound of 11 or more evicts.
# A count of entries would not bound the bytes: a target of 512 vertices
# makes rank-2 results of 2 MB each.
STEP_MEMO_BYTES = 16 << 20
STEP_OVERHEAD = 400


class StepMemo:
    """Elimination steps already run on read-only bound arrays, each kept
    under (bound array's id, structural step id): the step's id in the
    step-id table (_step_ids), which names the step by how it was made,
    never by the id() of a value that eviction could free.  A key costs
    two slots whatever the step's depth, and a hit answers the step's
    whole subtree: _eliminate looks up nothing below it.  The array's q
    and the step's subscripts decide whether the step runs wide
    (EINSUM_LOOP_MAX), and the array's bits whether its steps run in
    float64 (BindingStacks), so one key is one np.einsum call in one
    dtype while that constant stands: a real array's steps keep float64
    results, a complex one's complex128.

    Keys start with the bound array's id, which own registers with a
    weakref.finalize that drops the array's steps when it dies, so the
    id is never that of another array.  Only results with no more
    entries than the bound array are kept (rank <= 2 for an adjacency
    matrix), read-only; no kept result is a view of the bound array, as
    every step sums one class out.  The total is bounded by
    STEP_MEMO_BYTES, read at every store.
    """

    def __init__(self):
        self.steps: OrderedDict = OrderedDict()  # key -> result, least recent first
        self.owned: dict[int, set] = {}  # bound array's id -> the keys of its steps
        self.hits = self.misses = self.nbytes = 0

    def own(self, array: np.ndarray) -> int:
        """The id of a read-only bound array, its steps dropped when it
        dies."""
        if id(array) not in self.owned:
            self.owned[id(array)] = set()
            weakref.finalize(array, self.drop, id(array)).atexit = False
        return id(array)

    def get(self, key: tuple):
        """The result kept under key, marked most recently used, or None."""
        hit = self.steps.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
            self.steps.move_to_end(key)
        return hit

    def put(self, key: tuple, result) -> None:
        """Keep result under key, evicting the least recently used steps
        past STEP_MEMO_BYTES."""
        result.setflags(write=False)
        self.steps[key] = result
        self.owned[key[0]].add(key)
        self.nbytes += result.nbytes + STEP_OVERHEAD
        while self.nbytes > STEP_MEMO_BYTES:
            old, dropped = self.steps.popitem(last=False)
            self.owned[old[0]].discard(old)
            self.nbytes -= dropped.nbytes + STEP_OVERHEAD

    def drop(self, owner: int) -> None:
        """Forget every step of a bound array that died."""
        for key in self.owned.pop(owner, ()):
            self.nbytes -= self.steps.pop(key).nbytes + STEP_OVERHEAD


# the memo _eliminate reads and fills
step_memo = StepMemo()


def _eliminate(plan: ContractionPlan, q: int, own: list[np.ndarray], owner: int | None) -> list:
    """The values of plan.outer under one binding set, own holding its
    row of each stack: the plan's np.einsum steps that the values need,
    run in plan order, a wide one given its greedy path (_einsum_path).

    One walk goes down from the plan's outer nodes and puts each step it
    meets on the list to run, and that step's operands on the walk.
    With owner, the id of the bound array that is the shared stack's
    row (StepMemo.own), the walk first asks the step memo for each step
    the memo could keep, once per step id: a hit answers that step's
    whole subtree, which the walk does not enter.  Then the listed steps
    run, in plan order, so each finds its operands made: an operand is a
    listed step, which comes before it, or a hit.  Without owner every
    step is listed.  A kept step whose id has already run in this count
    asks the memo again first, so two equal steps of one count are one
    np.einsum call and one memo entry while the memo keeps the first.
    """
    n, steps, ids = len(plan.stack_of), plan.eliminations, plan.step_ids
    size = 0 if owner is None else own[plan.shared_stack].size
    value: dict[int, np.ndarray] = {}  # step -> its result
    asked: dict[int, np.ndarray | None] = {}  # step id -> the memo's answer
    run, walk = [], [nid - n for nid in plan.outer if nid >= n]
    while walk:
        k = walk.pop()
        operands, _, rank = steps[k]
        hit = None
        if q**rank <= size:
            if ids[k] not in asked:
                asked[ids[k]] = step_memo.get((owner, ids[k]))
            hit = asked[ids[k]]
        if hit is not None:
            value[k] = hit
        else:
            run.append(k)
            walk.extend([o - n for o in operands if o >= n])
    run.sort()
    ran = set()  # the step ids this count has run and kept
    for k in run:
        operands, subscripts, rank = steps[k]
        keep = q**rank <= size
        if keep and ids[k] in ran:
            hit = step_memo.get((owner, ids[k]))
            if hit is not None:
                value[k] = hit
                continue
        ops = [value[o - n] if o >= n else own[plan.stack_of[o]] for o in operands]
        wide = q ** (rank + 1) > EINSUM_LOOP_MAX
        path = _einsum_path(subscripts, *[op.shape for op in ops]) if wide else False
        out = value[k] = np.einsum(subscripts, *ops, optimize=path)
        if keep:
            ran.add(ids[k])
            step_memo.put((owner, ids[k]), out)
    return [value[nid - n] if nid >= n else own[plan.stack_of[nid]] for nid in plan.outer]


def _execute(
    plan: ContractionPlan,
    q: int,
    arrays: list[np.ndarray],
    perm: tuple[int, ...],
    batch: int,
    owner: int | None = None,
) -> np.ndarray:
    """Replay a plan at domain size q on the tensors of batch binding
    sets.  For a pairwise plan, arrays holds each id's tensors stacked on
    a leading batch axis, in the order of the plan's (id, shape) pairs,
    vertex v at arrays[plan.stack_of[v]]; for a plan that eliminates, it
    holds per set its list of rows in that order (_Bound.rows), so batch
    is its length.  perm, unless empty, lists the axes of the stacked
    outer product in slot order, the batch axis first.  Returns the batch
    results, stacked on a leading axis, in complex128.

    Each step gives every row the bits that row gets alone: a trace runs
    on the plan's batch-shifted axes, a pairwise step is one np.matmul of
    (batch, m, k) and (batch, k, n) stacks, which equals np.dot row by
    row at q >= 2, and outer products broadcast.  At q = 1 every array
    holds one entry, and numpy rounds a one-entry product by the path it
    takes (np.matmul, np.dot and broadcasting differ in signed zeros and
    fused multiply-adds), so there each row takes np.dot and
    np.multiply.outer apart, as a lone set does.  A plan that eliminates
    has no pairwise step; each set runs its np.einsum steps apart, on its
    own rows, and only the scalars they leave are stacked (_eliminate).
    A set whose rows are all float64, as every hom and matchings count's
    are, runs every step in float64, and its value is the real result
    with imaginary part +0.0: an integer below 2**53 is exact either way,
    while a value past it, or one that is not an integer, may round
    otherwise than in complex128.  A step that reads a float64 and a
    complex row runs in complex128 by numpy's promotion.

    owner, given only for one set whose steps read one bound array
    whole (plan.step_ids: every hom count, whose only tensor is its
    target's adjacency), is that array's id in the step memo: the set
    replays through the memo, top down, and keeps what it runs there, so
    that counts into one target share their steps (A.1, A**2, the A**k
    chain of every cycle).  Whether that array's row is read in float64
    follows from its bits, so every step kept under its id ran in one
    dtype, and a hit is the very array an identical np.einsum call on
    identical operands made: every value keeps its bits.
    """
    if plan.eliminations:
        rows = [_eliminate(plan, q, row, owner) for row in arrays]
        nodes = {nid: np.array([row[i] for row in rows]) for i, nid in enumerate(plan.outer)}
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
    shapes, routes, arrays, rows = bound
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
            # a lone set's stack is a view of its read-only array (BindingStacks.bind)
            owner = step_memo.own(arrays[plan.shared_stack].base) if batch == 1 and plan.step_ids else None
            out = _execute(plan, grid.q, rows if plan.eliminations else arrays, perm, batch, owner)
        else:  # two routes, so the grid is closed and each row one value
            read = [rows[k] for k in ks] if plan.eliminations else [a[ks] for a in arrays]
            out[ks] = _execute(plan, grid.q, read, perm, len(ks))
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
    by elimination, q**4 pairwise.  An eliminating set reads each of its
    tensors whose entries are all real, a -0.0 imaginary part included,
    as a float64 copy, so every hom and matchings count runs its steps
    in float64; a tensor with any nonzero imaginary entry stays
    complex128.  The result is complex128 either way: a float64 row's
    value has imaginary part +0.0, and its real part may differ in the
    last bits from a complex128 replay wherever that replay rounds (an
    integer count below 2**53 does not).  Binding sets share a replay when
    they pick one plan, that is, bind the same ids to equalities; a set
    whose plan differs is replayed apart.  A lone set whose elimination steps
    read one bound array whole looks its steps up in the step memo top
    down (_eliminate), each keyed by that array's id and its structural
    step id and kept while that array lives; stacked sets, whose rows
    are not bound arrays, never do.
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


def holant_eval_contracted(grid: SignatureGrid, bindings: dict[str, MixedTensor] | BindingStacks) -> complex:
    """Holant value of a closed grid via tensor contraction:
    stacked_signature under one binding set.

    bindings is that set or a one-set BindingStacks, which keeps its
    kinds for later grids (hom_count keeps one per target).
    Plans are cached per structure, ignoring q >= 2 and the loop count,
    in one least-recently-used cache of PLAN_CACHE_SIZE entries shared
    with gadget_signature; each call checks the entry cap at its own q
    and scales by q per loop.  A reused plan replays the same arithmetic,
    and a step the step memo answers (_eliminate) returns the very array
    that arithmetic made, so the value depends on neither cache.  The
    memo keeps results no larger than the bound array, up to
    STEP_MEMO_BYTES in all, and drops them when the array dies.
    """
    stacks = bindings if isinstance(bindings, BindingStacks) else BindingStacks([bindings])
    if len(stacks.sets) != 1:
        raise ValueError(f"holant_eval_contracted takes one binding set, not {len(stacks.sets)}")
    if not grid.is_closed():
        raise ValueError("holant_eval_contracted needs a closed grid")
    return complex(_contract(grid, stacks.bind(grid), 1)[0])


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


# The entries of a program's one buffer, per binding set: its vertex
# tensors, each (id, self-edges) once, and every step's output.  A family
# whose buffer would hold more gets no program and replays run by run.
# verify_holant_theorem (B = 2, 2-CPU host), warm replay against run by
# run: closed-invariance's 5133 entries, 0.8 against 8 ms; its shapes at
# bound 5, q = 3 to 8 (49 K to 0.93 M entries), 3-45 against 51-108 ms,
# for peak RSS 48-124 against 44 MB.  Over the cap the program stops
# paying for its memory: one (2,2) id at bound 4, q = 6 (1.6 M entries),
# 97 against 94 ms at 218 against 45 MB; q = 8 (4.9 M), 0.39 against
# 0.22 s at 582 against 46 MB; closed-invariance's shapes at bound 5,
# q = 10 (2.0 M), 98-156 against 117-185 ms at 217 against 45 MB.
PROGRAM_MAX_ENTRIES = 1 << 20


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


def _vertex_nodes(g: SignatureGrid, plan: ContractionPlan) -> list[tuple[str, tuple]]:
    """Each vertex of g as its program node: (id, the axis pairs of its
    self-edges, in the order the plan traces them)."""
    traced: dict[int, list] = {}
    for nid, axis1, axis2 in plan.traces:
        traced.setdefault(nid, []).append((axis1, axis2))
    return [(sig, tuple(traced.get(v, ()))) for v, sig in enumerate(g.vertices)]


def compile_family(runs, shapes: dict[str, tuple[int, int]]):
    """The FamilyProgram of runs, the stored family's loop-free closed
    grids, under shapes, the family's own (id -> shape), planning each
    structure pairwise once.  Returns None, for the family to keep, when
    the family has no program under any bindings: at q = 1, where numpy
    rounds a one-entry product by the path it takes, when some pairwise
    plan is over the entry cap, and when the program's buffer would hold
    more than PROGRAM_MAX_ENTRIES entries per binding set, which the
    plans tell before any index array is built."""
    runs = tuple(runs)
    q = runs[0].q
    if q == 1:
        return None
    # BindingStacks.bind keys its kinds by q and id set, so every closed
    # grid of one id set gets one kind: one grid per id set, and its
    # (id, shape) pairs as bind sorts them
    id_sets, plans, nodes, entries = {}, [], set(), 0
    for g in runs:
        ids = frozenset(g.vertices)
        if ids not in id_sets:
            id_sets[ids] = (g, tuple((sig, shapes[sig]) for sig in sorted(ids)))
        plan = _plan(g, id_sets[ids][1], ())
        try:
            _check_cap(plan, q)
        except ValueError:
            return None
        plans.append(plan)
        for sig, pattern in _vertex_nodes(g, plan):
            if (sig, pattern) not in nodes:
                nodes.add((sig, pattern))
                entries += q ** (sum(shapes[sig]) - 2 * len(pattern))
        entries += sum(q**rank for *_, rank in plan.steps)
        if entries > PROGRAM_MAX_ENTRIES:
            return None
    return FamilyProgram(runs, tuple(id_sets.values()), plans)


class FamilyProgram:
    """The compiled replay of the stored family's loop-free closed grids,
    runs, at q >= 2 (compile_family builds it); id_sets holds the first
    grid of each id set with its (id, shape) pairs.  replay(stacks)
    returns a read-only (structures, B) array, or None when some binding
    set routes a grid through elimination.

    The program is compiled in one pass when it is built.  It keeps every
    node of every structure in one flat buffer of shape (B, size), B the
    binding sets, each node's entries in C order on columns of its own;
    compile_family bounds size by PROGRAM_MAX_ENTRIES.  A replay runs, in
    order:
    - per (id, self-edge axes) node, one copy of that id's stack, as
      BindingStacks bound it for every route of _execute, through its
      chain of np.trace calls;
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

    __slots__ = ("runs", "id_sets", "size", "inputs", "steps", "products")

    def __init__(self, runs, id_sets, plans):
        self.runs = runs
        self.id_sets = id_sets
        arity = {sig: sum(sh) for _, shapes in id_sets for sig, sh in shapes}
        q = runs[0].q
        size = 0
        inputs: dict[tuple, tuple[int, int]] = {}  # (id, axes pairs) -> columns
        # an operand's layout: its axes and rows -> (id, whether it is
        # gathered column-major, its matrix of node entries, so gathered)
        layouts: dict[tuple, tuple[int, bool, np.ndarray]] = {}
        # key -> per step, each operand's node and layout id
        groups: dict[tuple, list] = {}
        outer = []  # per structure, its leftover nodes

        def layout(axes, split):
            found = layouts.get((axes, split))
            if found is None:
                perm = [a - 1 for a in axes[1:]]
                column_major = _column_major(perm, split)
                idx = np.arange(q ** len(perm)).reshape((q,) * len(perm)).transpose(perm)
                idx = idx.reshape(q**split, -1)
                found = layouts[axes, split] = (len(layouts), column_major, idx.T if column_major else idx)
            return found

        for g, plan in zip(runs, plans):
            # a node is (where, rank, depth); where is ("at", column) or
            # (group key, position in the group)
            nodes = []
            for sig, pattern in _vertex_nodes(g, plan):
                rank = arity[sig] - 2 * len(pattern)
                if (sig, pattern) not in inputs:
                    inputs[sig, pattern] = (size, size + q**rank)
                    size += q**rank
                nodes.append((("at", inputs[sig, pattern][0]), rank, 0))
            for u, axes_u, v, axes_v, shared, rank in plan.steps:
                (wu, ru, du), (wv, rv, dv) = nodes[u], nodes[v]
                lu, fu, _ = layout(axes_u, ru - shared)
                lv, fv, _ = layout(axes_v, shared)
                key = (1 + max(du, dv), q ** (ru - shared), q**shared, q ** (rv - shared), fu, fv)
                group = groups.setdefault(key, [])
                group.append((wu, lu, wv, lv))
                nodes.append(((key, len(group) - 1), rank, key[0]))
            outer.append([nodes[nid][0] for nid in plan.outer])

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

        self.steps = []
        for key, lo in base.items():
            _, m, _, n, fa, fb = key
            group = groups[key]
            self.steps.append((lo, lo + len(group) * m * n, gathered(group, 0), fa, gathered(group, 2), fb))

        # the structures grouped by their number of leftover scalars
        by_count: dict[int, list[int]] = {}
        for i, leftover in enumerate(outer):
            by_count.setdefault(len(leftover), []).append(i)
        self.products = []
        for count, same in sorted(by_count.items()):
            idx = np.array(
                [[column(outer[i][f]) for i in same] for f in range(count)], dtype=np.intp
            ).reshape(count, len(same))
            self.products.append((np.array(same, dtype=np.intp), idx))
        self.size, self.inputs = size, inputs

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
        buf = np.empty((batch, self.size), dtype=np.complex128)
        for (sig, pattern), (lo, hi) in self.inputs.items():
            node = stacked[sig]
            for axis1, axis2 in pattern:
                node = node.trace(axis1=axis1, axis2=axis2)
            buf[:, lo:hi] = node.reshape(batch, -1)
        for lo, hi, ia, fa, ib, fb in self.steps:
            a = np.take(buf, ia, axis=1)
            b = np.take(buf, ib, axis=1)
            if fa:
                a = a.swapaxes(-1, -2)
            if fb:
                b = b.swapaxes(-1, -2)
            buf[:, lo:hi] = np.matmul(a, b).reshape(batch, -1)
        out = np.empty((batch, len(self.runs)), dtype=np.complex128)
        for same, idx in self.products:
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
