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

Which rows are batched, for every docstring that refers here: only the
stored family at q >= 2 whose every structure's pairwise plan fits the
entry cap has a program (compile_family); every other walk is replayed
run by run (spans.closed_signature_blocks).  The program batches every
pairwise row.  A segment (a run of grids with one vertex sequence) hands
every row of its structures to grids._contract, inside the same replay,
when some binding set's route eliminates equalities in it, or when the
binding sets' shapes differ from the family's own, for which it was
compiled.
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
    pairwise plan is over the entry cap.  A family with no program is
    replayed run by run, which names any fault as a cold walk names it."""
    runs = tuple(runs)
    q = runs[0].q
    if q == 1:
        return None
    if any(g.q != q or g.loops or not g.is_closed() for g in runs):
        raise ValueError("a family program holds loop-free closed grids of one q")
    starts = [i for i, g in enumerate(runs) if i == 0 or g.vertices != runs[i - 1].vertices]
    # maximal runs of grids with one vertex sequence, so one kind for
    # BindingStacks.bind: (start, end, (id, shape) pairs, as it binds them)
    segments, plans = [], []
    for start, end in zip(starts, starts[1:] + [len(runs)]):
        own = tuple((sig, shapes[sig]) for sig in sorted(set(runs[start].vertices)))
        for g in runs[start:end]:
            plans.append(_grids._plan(g, own, ()))
            try:
                _grids._check_cap(plans[-1], q)
            except ValueError:
                return None
        segments.append((start, end, own))
    return FamilyProgram(runs, segments, plans)


class FamilyProgram:
    """The compiled replay of the stored family's loop-free closed grids,
    runs, at q >= 2, under binding sets whose ids have the family's own
    shapes (compile_family builds it).  Every part is compiled
    when it is built.  replay(stacks) returns a read-only (structures, B)
    array; the rows it hands over (see the module docstring) are
    grids._contract's.
    """

    __slots__ = ("runs", "segments", "parts")

    def __init__(self, runs, segments, plans):
        self.runs = runs
        self.segments = segments
        arity = {sig: sum(sh) for _, _, shapes in segments for sig, sh in shapes}
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

    def replay(self, stacks: _grids.BindingStacks) -> np.ndarray:
        """Every structure's values under every set of stacks, as one
        read-only (structures, B) array, bitwise stacked_signature's."""
        runs, batch = self.runs, len(stacks.sets)
        # the rows handed over, contracted first: under other shapes a
        # segment's grids are invalid, and _contract names the fault in
        # walk order, as a cold walk names it
        handed, stacked = {}, {}  # stacked: each id's stack, as bound
        for start, end, shapes in self.segments:
            bound = stacks.bind(runs[start])
            stacked.update(zip(dict(bound.shapes), bound.arrays))
            if bound.shapes != shapes or list(bound.routes) != [()]:
                for i in range(start, end):
                    handed[i] = _grids._contract(runs[i], bound, batch)
        out = np.empty((batch, len(runs)), dtype=np.complex128)
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
        # grids._contract multiplies it, which multiplied the handed rows
        out = (out * 1).T
        for i, values in handed.items():
            out[i] = values
        out.setflags(write=False)
        return out
