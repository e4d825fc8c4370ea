"""Variable (bucket) elimination plans for closed grids; internal.

An equality signature says that all its ports carry one value, so it is
not a tensor of the network but one index its ports share (Dechter,
"Bucket elimination", 1999; Gray & Kourtis, "Hyper-optimized tensor
network contraction", 2021).  A hom(X, G) grid then reads as a sum over
X's vertices of products of G's adjacency matrix, and a plan sums the
vertices out one at a time.  grids builds its ContractionPlan from what
elimination_plan returns and replays it with its one executor.
"""

from __future__ import annotations

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

    Returns (steps, outer, free).  Union-find merges the ports of each
    vertex whose id is in equal, and the two ends of each edge, into
    index classes, numbered by their lowest port (ports numbered vertex
    by vertex, left ports before right ports).  Every other vertex keeps
    its axes, each labelled by its class; one tensor may hold a class on
    several axes, which einsum reads as a diagonal.  Nodes 0..n-1 are the
    vertex tensors, and step k creates node n+k.

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
    """
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
