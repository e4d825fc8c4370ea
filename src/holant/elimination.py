"""Variable (bucket) elimination plans for closed grids; internal.

An equality signature says that all its ports carry one value, so it is
not a tensor of the network but one index its ports share (Dechter,
"Bucket elimination", 1999; Gray & Kourtis, "Hyper-optimized tensor
network contraction", 2021).  A hom(X, G) grid then reads as a sum over
X's vertices of products of G's adjacency matrix, and a plan sums the
vertices out one at a time.  grids builds its ContractionPlan from what
elimination_plan returns and replays it with its one executor, which
looks each step of a lone hom count up in the step memo kept here
(StepMemo), so that counts into one target share their steps.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from typing import NamedTuple

# the index letters of np.einsum subscripts
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

Step = tuple[tuple[int, ...], str | None, int]


def elimination_plan(
    vertices: tuple[str, ...],
    edges: tuple[tuple[int, int, int, int], ...],
    shape_of: dict[str, tuple[int, int]],
    equal: set[str],
) -> tuple[tuple[Step, ...], tuple[int, ...], int]:
    """Plan a closed, valid grid structure by eliminating index classes.

    Returns (steps, outer, free).  The ports of each vertex whose id is
    in equal start as one class, and union-find merges the two ends of
    each edge into index classes, numbered by their lowest port (ports
    numbered vertex by vertex, left ports before right ports), so the
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

    start = [0]
    for sig in vertices:
        start.append(start[-1] + sum(shape_of[sig]))
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
        parent[find(start[u] + i - 1)] = find(start[v] + shape_of[vertices[v]][0] + j - 1)
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


# -- the step memo ----------------------------------------------------------

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
    (grids.EINSUM_LOOP_MAX), and its operands' tags: WHOLE for the bound
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
        of (a lone set's stack, grids.BindingStacks.bind), its memo set up;
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


# the memo grids._execute reads and fills
step_memo = StepMemo()


def _step_memo_info() -> _StepMemoInfo:
    """The step memo's hits, misses, byte bound, kept steps and their
    bytes, as grids._contraction_plan.cache_info() reports the plan
    cache's."""
    memo = step_memo
    return _StepMemoInfo(memo.hits, memo.misses, STEP_MEMO_BYTES, len(memo.steps), memo.nbytes)
