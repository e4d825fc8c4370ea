"""Signature grids and their Holant values.

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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from holant import elimination
from holant.elimination import WHOLE, elimination_plan
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
    shape, as every caller's correspondence checks.  A lone set's stacks
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
                if sig not in stacks:  # a lone set's stack is a view of its array
                    stacks[sig] = (np.stack([b[sig].array for b in resolved]) if len(resolved) > 1
                                   else resolved[0][sig].array[None])
                shapes.append((sig, resolved[0][sig].shape))
                arrays.append(stacks[sig])
            bound = self._bound[key] = _Bound(tuple(shapes), routes, arrays)
        return bound


# -- tensor contraction ----------------------------------------------------

# Entries kept by the plan cache.  Plans are cached per structure: a grid's
# vertices, edges and sorted stubs, its shapes, min(q, 2) and the ids it
# binds to equality signatures, so every grid that differs from a planned
# one only in q >= 2, its loop count or the order of its dangling stubs
# reuses its plan (hom grids built for several target sizes, gadgets in
# every slot order).  A walk contracts each structure once for all its
# binding sets (stacked_signature), so it looks each plan up once.  The
# program of the closed family that spans.closed_signature_blocks stores
# (holant.familyprogram) looks each structure's pairwise plan up once,
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
    eliminations: the steps of holant.elimination.elimination_plan,
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
    (holant.elimination).  With equal empty, the plan is pairwise.  Uses
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
    # one int label per vertex port, numbered so each vertex's labels list
    # its axes in order: left ports, then right ports
    start: list[int] = []
    labels: list[list[int] | None] = []
    owner: list[int] = []
    for v, sig in enumerate(vertices):
        l, r = shape_of[sig]
        start.append(len(owner))
        labels.append(list(range(len(owner), len(owner) + l + r)))
        owner += [v] * (l + r)

    def right_label(v: int, j: int) -> int:
        return start[v] + shape_of[vertices[v]][0] + j - 1

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
    each step up in the step memo (holant.elimination.StepMemo) before it
    runs np.einsum, and keeps what it runs there, so that counts into one
    target share their steps (A.1, A**2, the A**k chain of every cycle).
    A hit is the very array an identical np.einsum call on identical
    operands made, so every value keeps its bits.  The key holds whether
    the step runs wide, so a test that moves EINSUM_LOOP_MAX runs both.
    """
    if plan.eliminations:
        memo = elimination.step_memo
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


def _planned(grid: SignatureGrid, shapes, equal: tuple[str, ...]):
    """(plan, perm) for grid under one route's (id, shape) pairs and
    equality ids, the cap checked at grid.q; perm is _execute's."""
    plan = _plan(grid, shapes, equal)
    _check_cap(plan, grid.q)
    perm = ()
    if plan.outer_rank:  # the grid has stubs
        perm = tuple(
            [0]
            + [plan.left_axis[s] + 1 for s in grid.left_dangling]
            + [plan.right_axis[s] + 1 for s in grid.right_dangling]
        )
    return plan, perm


def _contract(grid: SignatureGrid, bound: _Bound, batch: int) -> np.ndarray:
    """stacked_signature on the _Bound of grid under batch binding sets."""
    shapes, routes, arrays = bound
    out = None if len(routes) == 1 else np.empty(batch, dtype=np.complex128)
    for equal, ks in routes.items():
        plan, perm = _planned(grid, shapes, equal)
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
    (holant.familyprogram.FamilyProgram, hashed by identity, so that
    perfbench's tracer can count it).  It replays all its
    structures at once, by one level-batched program, and returns a
    read-only (structures, B) array whose row j is bitwise this
    function's result for its structure j, or None when some set binds
    an id with another shape or routes a grid through elimination.
    """
    if not isinstance(grid, SignatureGrid):
        return grid.replay(stacks)
    return _contract(grid, stacks.bind(grid), len(stacks.sets))


def holant_eval_contracted(grid: SignatureGrid, bindings: dict[str, MixedTensor]) -> complex:
    """Holant value of a closed grid via tensor contraction.

    The contraction order is planned from the grid, its signature shapes
    and the ids bound to exact equality signatures, in one
    least-recently-used cache of PLAN_CACHE_SIZE entries shared with
    gadget_signature.  If some id is bound to an equality, each equality
    vertex is one index its ports share, and the plan eliminates those
    indices one np.einsum at a time (bucket elimination); otherwise it
    contracts pairwise.  A plan is cached per structure, ignoring q >= 2
    and the loop count: either greedy order compares sizes q**rank, which
    order as the ranks do for every q >= 2.  Each call checks the entry
    cap at its own q and scales by q per loop.  A reused plan replays the
    same arithmetic, and a step that the step memo answers (_execute:
    an earlier count with the same bound array ran it on the same
    operands) returns the very array that arithmetic made, so the value
    depends on neither cache.  The memo keeps results no larger than
    that array, up to holant.elimination.STEP_MEMO_BYTES in all, and
    drops them when the array dies.
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


# -- quantum gadgets ------------------------------------------------------


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
    value for the copy (derives).

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
