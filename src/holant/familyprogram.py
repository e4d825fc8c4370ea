"""The stored closed family compiled into one level-batched program;
internal.

spans._walk stores the last closed family a checker walked, and
spans.closed_signature_blocks compiles its loop-free grids once, by
compile_family under the family's own shapes, into a FamilyProgram that
the stored family keeps.  The program replays every structure's
pairwise plan (grids.ContractionPlan) under every binding set of a walk
in a few batched numpy calls, where grids._execute would make several
small ones per structure (the batched layout of Dongarra et al., "A
proposed API for batched basic linear algebra subprograms", 2016;
contraction trees as compiled programs, Gray & Kourtis,
"Hyper-optimized tensor network contraction", 2021).

The structures are split, in walk order, into parts whose nodes hold at
most PART_MAX_ENTRIES entries in all per binding set (a part holds at
least one structure).  A part keeps every node of its structures in one
flat buffer of shape (B, size), B the binding sets, each node's entries
in C order on columns of its own.  Its replay runs, in order:
- one copy per id of that id's stack, as grids.BindingStacks bound it
  for every route of grids._execute, and one chain of np.trace calls
  per (id, self-edge axes) pattern;
- per group of pairwise steps, one np.take per operand and one
  np.matmul of the (B, G, M, K) and (B, G, K, N) stacks.  A group is
  keyed by (depth, M, K, N, memory order of each operand).  A step's
  depth is one more than its deeper operand's, a vertex's is 0, so a
  group reads only nodes written before it;
- per number of leftover scalars, the structures' products from 1 + 0j
  in plan.outer order, as _execute multiplies them.

Each row gets the bits _execute gives it, so the values are bitwise
grids.stacked_signature's.  Two layouts decide that:
- np.take(buf, idx, axis=1) is C-ordered; buf[:, idx] would put the
  batch axis innermost in memory, and numpy would then not hand its
  matrices to BLAS as they are;
- numpy hands a matrix to BLAS in its own memory order, and BLAS rounds
  by that order (a matrix-vector product by dot products or by column
  sums).  _execute's transpose-then-reshape gives a column-major view
  where a step's kept and summed axes are two runs in reverse order, a
  row-major array otherwise; each operand is gathered in that order,
  worked out once here from the step's axes.

A replay is whole or none: only the stored family at q >= 2 whose every
structure's pairwise plan fits the entry cap has a program
(compile_family), and it gives values only when every binding set binds
every grid pairwise under the family's own shapes.  Every other replay,
and every other walk, runs run by run (spans.closed_signature_blocks).
"""

from __future__ import annotations

import numpy as np

from holant import grids as _grids

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
        plans.append(_grids._plan(g, id_sets[ids][1], ()))
        try:
            _grids._check_cap(plans[-1], q)
        except ValueError:
            return None
    return FamilyProgram(runs, tuple(id_sets.values()), plans)


class FamilyProgram:
    """The compiled replay of the stored family's loop-free closed grids,
    runs, at q >= 2 (compile_family builds it); id_sets holds the first
    grid of each id set with its (id, shape) pairs.  Every part is
    compiled when it is built.  replay(stacks) returns a read-only
    (structures, B) array, or None when the binding sets do not bind
    every grid pairwise under the family's own shapes.
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

    def replay(self, stacks: _grids.BindingStacks) -> np.ndarray | None:
        """Every structure's values under every set of stacks, as one
        read-only (structures, B) array, bitwise stacked_signature's; or
        None, before any contraction, when some set binds an id set with
        other shapes or routes it through elimination."""
        batch = len(stacks.sets)
        stacked = {}  # each id's stack, as bound
        for g, shapes in self.id_sets:
            bound = stacks.bind(g)
            if bound.shapes != shapes or list(bound.routes) != [()]:
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
        # grids._contract multiplies it
        out = (out * 1).T
        out.setflags(write=False)
        return out
