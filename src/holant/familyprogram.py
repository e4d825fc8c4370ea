"""Closed grid families compiled into level-batched programs; internal.

spans.closed_signature_blocks replays a closed walk block by block, and
compiles each block's loop-free grids once into a FamilyProgram.  The
program replays every structure's pairwise plan (grids.ContractionPlan)
under every binding set of a walk in a few batched numpy calls, where
grids._execute would make several small ones per structure (the batched
layout of Dongarra et al., "A proposed API for batched basic linear
algebra subprograms", 2016; contraction trees as compiled programs, Gray
& Kourtis, "Hyper-optimized tensor network contraction", 2021).

The structures are split, in walk order, into parts whose nodes hold at
most PART_MAX_ENTRIES entries in all per binding set (a part holds at
least one structure).  A part keeps every node of its structures in one
flat buffer of shape (B, size), B the binding sets, each node's entries
in C order on columns of its own.  Its replay runs, in order:
- one copy per id of its stacked arrays, and one chain of np.trace calls
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

Two kinds of binding-set row keep _execute per structure, inside the
same replay: every row at q = 1, where numpy rounds a one-entry product
by the path it takes, and the rows whose route eliminates equalities.
"""

from __future__ import annotations

import numpy as np

from holant import grids as _grids

# The node entries of one part, per binding set.  A replay holds one
# part's buffer and gathered operands at a time, and its index arrays
# too unless the program is kept (the stored family's): some 16 * B + 16
# bytes per entry, so that a replay needs memory of the order of the
# structure-by-structure replay's, which held one structure's
# intermediates.  closed-invariance's 300 structures take 5133 entries,
# one part.  Peak RSS of three verify_holant_theorem calls (B = 2) on
# {a (2,2), b (1,1)} at q = 5, bound 4, 6300 grids in two streamed
# blocks (2-CPU host): 48 MB replayed structure by structure, 52 MB at
# this cap, 64 MB at 1 << 18, 101 MB at 1 << 20 and 143 MB with one
# part per block; 0.74 s structure by structure, 0.79 s at this cap.
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


class FamilyProgram:
    """The compiled replay of a block of loop-free closed grids, runs,
    under binding sets whose ids have the shapes it was compiled for.

    Building one plans every structure once, validating it, and checks
    the entry cap and plans the elimination routes of the stacks it is
    built with, raising in walk order as a replay structure by structure
    would.  It splits the structures into parts; a kept program compiles
    each part on its first replay and keeps it, one that is not compiles
    each part whenever a replay reaches it.  replay(stacks) returns a
    read-only (structures, B) array.
    """

    __slots__ = (
        "runs", "q", "segments", "eliminated", "over_cap",
        "plans", "arity", "parts", "compiled", "keep",
    )

    def __init__(self, runs, stacks: _grids.BindingStacks, *, keep: bool):
        self.runs = tuple(runs)
        q = self.q = self.runs[0].q
        if any(g.q != q or g.loops or not g.is_closed() for g in self.runs):
            raise ValueError("a family program holds loop-free closed grids of one q")
        self.eliminated: dict[tuple[int, tuple[str, ...]], tuple] = {}
        self.over_cap: dict[int, ValueError] = {}
        # maximal runs of grids with one vertex sequence, so one kind for
        # BindingStacks.bind: (start, end, (id, shape) pairs, whether a
        # pairwise plan in it is over the entry cap)
        self.segments = []
        self.parts: list[list[int]] = []  # indices into runs
        self.compiled: dict[int, tuple] = {}  # part -> its compiled form
        self.keep = keep
        if q == 1:
            return
        starts = [
            i for i, g in enumerate(self.runs) if i == 0 or g.vertices != self.runs[i - 1].vertices
        ]
        plans = self.plans = []
        for start, end in zip(starts, starts[1:] + [len(self.runs)]):
            bound = stacks.bind(self.runs[start])
            for i in range(start, end):
                plans.append(_grids._plan(self.runs[i], bound.shapes, ()))
                try:
                    _grids._check_cap(plans[i], q)
                except ValueError as exc:
                    self.over_cap[i] = exc
                self._eliminate(i, bound)
            capped = any(i in self.over_cap for i in range(start, end))
            self.segments.append((start, end, bound.shapes, capped))
        self.arity = {sig: sum(sh) for _, _, shapes, _ in self.segments for sig, sh in shapes}
        self._split()

    def _eliminate(self, i: int, bound, rows_out=None) -> None:
        """Plan structure i's routes that eliminate, and append to
        rows_out, unless it is None, (sets, i, values) for each; a
        pairwise route over the cap raises, in route order."""
        for equal, ks in bound.routes.items():
            if not equal:
                if i in self.over_cap:
                    raise self.over_cap[i]
                continue
            planned = self.eliminated.get((i, equal))
            if planned is None:
                planned = self.eliminated[i, equal] = _grids._planned(self.runs[i], bound.shapes, equal)
            if rows_out is not None:
                plan, perm = planned
                rows = [bound.rows[k] for k in ks]
                rows_out.append((ks, i, _grids._execute(plan, self.q, None, rows, perm, len(ks))))

    def _split(self) -> None:
        """Split the pairwise plans, in walk order, into parts of at
        most PART_MAX_ENTRIES node entries."""
        q, arity = self.q, self.arity
        members: list[int] = []
        entries = 0
        for i, (g, plan) in enumerate(zip(self.runs, self.plans)):
            if i in self.over_cap:
                continue
            traced = [0] * len(g.vertices)
            for nid, _, _ in plan.traces:
                traced[nid] += 1
            # its vertices once traced and its steps' outputs; a gather
            # reads each of these nodes at most once
            need = sum(q ** (arity[sig] - 2 * t) for sig, t in zip(g.vertices, traced))
            need += sum(q**rank for *_, rank in plan.steps)
            if members and entries + need > PART_MAX_ENTRIES:
                self.parts.append(members)
                members, entries = [], 0
            members.append(i)
            entries += need
        if members:
            self.parts.append(members)

    def _compile_part(self, members: list[int]) -> tuple:
        """(size, inputs, traces, steps, products) of the structures
        members, indices into runs, laid out in one buffer."""
        q, arity = self.q, self.arity
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
            g, plan = self.runs[i], self.plans[i]
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
        q, runs, batch = self.q, self.runs, len(stacks.sets)
        if q == 1:
            out = np.stack([_grids.stacked_signature(g, stacks) for g in runs])
            out.setflags(write=False)
            return out
        eliminated = []
        for start, end, shapes, capped in self.segments:
            bound = stacks.bind(runs[start])
            if bound.shapes != shapes:
                # each grid of the segment holds every id of its kind, so
                # none is valid under other shapes: planning one names the
                # fault as a replay without this program would
                _grids._plan(runs[start], bound.shapes, ())
                raise ValueError("bindings do not fit the compiled family")
            if capped or len(bound.routes) > 1 or () not in bound.routes:
                for i in range(start, end):
                    self._eliminate(i, bound, eliminated)
        out = np.empty((batch, len(runs)), dtype=np.complex128)
        for j, members in enumerate(self.parts):
            part = self.compiled.get(j)
            if part is None:
                part = self._compile_part(members)
                if self.keep:
                    self.compiled[j] = part
            size, inputs, traces, steps, products = part
            buf = np.empty((batch, size), dtype=np.complex128)
            for sig, (lo, hi) in inputs.items():
                stack = stacks.stack(q, sig)
                # an id that no pairwise route reads feeds only values
                # that its elimination routes replace
                buf[:, lo:hi] = 0 if stack is None else stack.reshape(batch, -1)
            for (sig, pattern), (lo, hi) in traces.items():
                node = stacks.stack(q, sig)
                if node is None:
                    buf[:, lo:hi] = 0
                    continue
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
        for ks, i, values in eliminated:
            out[ks, i] = values
        # the factor q**loops of a loop-free grid, multiplied as
        # stacked_signature multiplies it
        out = (out * 1).T
        out.setflags(write=False)
        return out
