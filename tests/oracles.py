"""Brute-force evaluators and searches, kept only as oracles for the tests.

Each one computes its number straight from the definition: a sum over
every assignment of domain values, of the product of the entries that
assignment reads.  None of them shares evaluation code with the library:
the assignment loops and the axis tables here are their own, so a
library bug cannot hide in both.  Binding resolution and port validation
are the library's, since those decide what a grid means, not its value;
so is color refinement, which decides the relabelings a canonical code
ranges over.
"""

from __future__ import annotations

import itertools

import numpy as np

from holant.grids import SignatureGrid, resolve_bindings
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
