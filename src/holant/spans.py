"""Bounded gadget spans and the pairing tests built on them.

The span of a signature set at a profile (l,r) collects the signatures of
all gadgets over the set (plus bare wires) with at most a given number of
vertices.  Rank decisions on the Gram matrix and the covanishing null
spaces use the holant.numerics cut; verdicts are always relative to the
vertex bound, since a larger gadget could still change the answer.

When every id's bindings are symmetric (MixedTensor.is_symmetric; F and
G alike for the check_* functions) and some id has two or more ports on
a side, the walk takes one grid or gadget per class of port permutations
(the symmetric argument of grids.enumerate_grids and enumerate_gadgets;
holant.portclasses).  No verdict can change.  Permuting a symmetric
vertex's ports inside a group changes no value under either binding
set, so the grids of one class have equal values under both, and the
difference of any two of them is null on both sides.  The ordered
walk's stacks are the class walk's rows with repeats: they span the
same spaces, the left null vectors they add are those differences,
which vanish on both sides, and the closed values they compare are the
same values.  What does change is how many grids are counted and which
ones stand as bases and witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from holant import grids as _grids
from holant.contraction import (
    BindingStacks,
    QuantumGadget,
    compile_family,
    derived_signature,
    derives,
    holant_eval_contracted,  # unused, but perfbench's tracer wraps this name
)

# structure_signatures and closed_signature_blocks contract through this
# name, which perfbench's tracer wraps as its grid contraction boundary
from holant.contraction import stacked_signature as gadget_signature
from holant.grids import SignatureGrid, enumerate_gadgets, enumerate_grids
from holant.numerics import INDEP_TOL, RANK_TOL, IncrementalBasis, numerical_rank
from holant.tensors import MixedTensor, _check_size, pair


@dataclass
class GadgetSpan:
    """A maximal independent set of bounded-gadget signatures."""

    q: int
    profile: tuple[int, int]
    max_vertices: int
    basis: list[MixedTensor]
    witnesses: list[SignatureGrid]
    gadgets_enumerated: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stack(self) -> np.ndarray:
        n = self.q ** (self.profile[0] + self.profile[1])
        return np.array([b.entries for b in self.basis], dtype=np.complex128).reshape(-1, n)

    def coefficients_for(self, t: MixedTensor) -> tuple[np.ndarray, float]:
        """Least-squares expansion of t over the basis; (coeffs, residual)."""
        if not self.basis:
            return np.zeros(0, dtype=np.complex128), float(t.norm())
        a = self.stack().T
        sol, *_ = np.linalg.lstsq(a, t.entries, rcond=None)
        res = float(np.linalg.norm(a @ sol - t.entries))
        return sol, res

    def contains(self, t: MixedTensor) -> bool:
        _, res = self.coefficients_for(t)
        return res <= RANK_TOL * max(1.0, t.norm())


def structure_signatures(grids, *bindings):
    """Yield (grid, array, ...): each grid with its signature array under
    every binding set, contracting each structure once for all of them.

    A run is grids yielded back to back with equal vertices and edges,
    which leave equal stubs free: the enumerators yield the slot orders
    of a gadget structure so, and a closed structure at loop counts 0
    and 1.  The first grid of a run is contracted once, under every
    binding set at the same time, through this module's gadget_signature
    (contraction.stacked_signature), so perfbench's tracer sees each run;
    the bindings are checked and stacked once per walk (BindingStacks).
    Every other grid of the run takes its arrays from that read-only
    stack, bitwise the same as its own contraction: a transposed view
    for another slot order, a scaled copy for a loop copy.  derives
    checks each grid against its run's first, and a grid it refuses
    starts a new run; only the current run is kept, so a consumer that
    stops early contracts nothing past the grid it stopped at.
    build_span, check_indistinguishable and check_covanishing take their
    signatures from here, and so does closed_signature_blocks for every
    closed walk but a stored family with a program, which replays it
    with the same bits.
    """
    stacks = BindingStacks(bindings)
    first = stack = None
    for g in grids:
        step = derives(first, g) if first is not None else None
        if step is None:
            first, step = g, (None, None)
            stack = gadget_signature(g, stacks)
        arrays = derived_signature(stack, *step)
        yield (g, *(arrays[k, ...] for k in range(len(bindings))))


def closed_signature_blocks(max_vertices: int, fs, *others):
    """Yield (grids, values): the closed grids over fs up to the bound,
    as verify_holant_theorem walks them (enumerate_grids, by port classes
    over the ids fs binds symmetrically), in consecutive blocks;
    values[k, j] is bitwise the value structure_signatures gives grids[k]
    under (fs, *others)[j], one read-only array per block.

    Only this function keeps a closed family, _family.  A family of at
    most FAMILY_MEMO_MAX_GRIDS grids is read whole and stored with what
    compile_family makes of it under its own shapes, which are the first
    set's: a program, or None (q = 1, or a pairwise plan over the entry
    cap).  A later call with its key enumerates and compiles nothing.  A
    program contracts every structure under all sets at once through
    this module's gadget_signature, and scales the loop copies by
    derives; it replays the whole family or gives no values (a set binds
    an id to an exact equality).  Then, and for a larger walk, which
    streams, the grids go run by run through one structure_signatures
    pass, in blocks of FAMILY_MEMO_MAX_GRIDS grids.
    """
    global _family
    sig_shapes, q, symmetric = _walk_shapes(max_vertices, fs)
    key = (tuple(sig_shapes), max_vertices, q, _grids._port_walk(sig_shapes, symmetric)[0])
    bindings = (fs, *others)
    stored = _family if _family is not None and _family[0] == key else None
    if stored is None:
        walk = enumerate_grids(sig_shapes, max_vertices, q, symmetric=symmetric)
        head = tuple(itertools.islice(walk, FAMILY_MEMO_MAX_GRIDS + 1))
        grids = itertools.chain(head, walk)
        if len(head) <= FAMILY_MEMO_MAX_GRIDS:
            stored = _family = (key, head, compile_family(head[::2], dict(sig_shapes)))
    if stored is not None:
        _, grids, program = stored
        runs = None if program is None else gadget_signature(program, BindingStacks(bindings))
        if runs is not None:
            copies = derived_signature(runs, *derives(grids[0], grids[1]))
            values = np.stack([runs, copies], axis=1).reshape(len(grids), len(bindings))
            values.setflags(write=False)
            yield grids, values
            return
    rows = structure_signatures(grids, *bindings)
    while chunk := list(itertools.islice(rows, FAMILY_MEMO_MAX_GRIDS)):
        values = np.array([row[1:] for row in chunk], dtype=np.complex128)
        values = values.reshape(len(chunk), len(bindings))
        values.setflags(write=False)
        yield [row[0] for row in chunk], values


def _symmetric_ids(*binding_sets) -> tuple[str, ...]:
    """The ids whose binding is symmetric in every binding set."""
    return tuple(
        k for k in binding_sets[0] if all(b[k].is_symmetric() for b in binding_sets)
    )


# The last closed family closed_signature_blocks walked, as (key, grids,
# program): key is (sorted (id, shape) pairs, bound, q, the ids walked up
# to port symmetry); grids the family's tuple; program its FamilyProgram
# or None.  Only verify_holant_theorem replays a family (closed-invariance
# makes 40 queries on one), so one family is kept; the other checkers
# walk lazily and stop at what they read.  A family of more than
# FAMILY_MEMO_MAX_GRIDS grids streams and is never stored.  Grids take
# 230-670 bytes each (tracemalloc): closed-invariance's family holds 600
# grids in 0.29 MB; {a (1,1), b (2,2)} at bound 5, 107350 grids, streams.
# A program takes 0.2 MB of index arrays for closed-invariance's 300
# structures, planned and compiled in about 14 ms.
FAMILY_MEMO_MAX_GRIDS = 4096
_family: tuple[tuple, tuple[SignatureGrid, ...], object] | None = None


def _walk_shapes(max_vertices: int, fs, *others):
    """(sorted (id, shape) pairs, q, ids symmetric in fs and every other
    set) of the walk over fs.  A negative bound is refused: it walks
    nothing, and every checker would pass on no grid."""
    qs = {t.q for t in fs.values()}
    if len(qs) > 1:
        raise ValueError("signatures must share a domain size")
    if not qs:
        raise ValueError("need a signature to fix the domain size")
    if max_vertices < 0:
        raise ValueError(f"max_vertices must be nonnegative, got {max_vertices}")
    return sorted((name, t.shape) for name, t in fs.items()), qs.pop(), _symmetric_ids(fs, *others)


def _walk(profile: tuple[int, int], max_vertices: int, fs, *others):
    """The lazy walk over fs at the profile of build_span,
    gram_nondegenerate, check_indistinguishable and check_covanishing:
    closed grids at (0,0) (enumerate_grids), gadgets otherwise
    (enumerate_gadgets), up to port symmetry over the ids bound
    symmetrically in fs and every other binding set.  It stores nothing,
    and a checker that stops early enumerates nothing past its stop.

    A profile whose signatures would have more than MAX_ENTRIES entries
    is refused here, before any gadget is enumerated: no signature fits
    it, and the walk would never end.
    """
    sig_shapes, q, symmetric = _walk_shapes(max_vertices, fs, *others)
    l, r = profile
    if (l, r) == (0, 0):
        return enumerate_grids(sig_shapes, max_vertices, q, symmetric=symmetric)
    if l >= 0 and r >= 0:  # enumerate_gadgets names a negative entry
        _check_size(q, l + r)
    return enumerate_gadgets(sig_shapes, profile, max_vertices, q, symmetric=symmetric)


def build_span(
    fs: dict[str, MixedTensor],
    profile: tuple[int, int],
    max_vertices: int,
    indep_tol: float = INDEP_TOL,
) -> GadgetSpan:
    """Span of gadget signatures over fs and bare wires, at the profile.

    Keeps a maximal linearly independent subset, first come first kept,
    in the deterministic enumeration order; each basis element carries
    its witness gadget.  Bare wires do not count against max_vertices.
    Over symmetric bindings it walks one gadget per class of port
    permutations, which has the span of the ordered walk (see the module
    docstring).  A gadget whose signature is not finite raises
    ArithmeticError naming its place in the walk: NaN passes no
    independence cut, so it would be dropped as dependent.  The overflow
    or invalid operation that makes such a signature raises no numpy
    warning besides.
    """
    gadgets = _walk(profile, max_vertices, fs)
    q = next(iter(fs.values())).q
    l, r = profile
    if (l, r) == (0, 0):
        # vertexless grids contribute bare constants (1 and powers of q), so
        # the interesting (0,0) span is what the vertex-bearing grids add
        gadgets = (g for g in gadgets if g.vertices)
    basis: list[MixedTensor] = []
    witnesses: list[SignatureGrid] = []
    independent = IncrementalBasis(indep_tol)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for g, sig in structure_signatures(gadgets, fs):
            count += 1
            try:
                kept = independent.add(sig.reshape(-1))
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"gadget {count} of the walk (vertices {g.vertices}, edges {g.edges}, "
                    f"loops {g.loops}) has a non-finite signature: {exc}"
                ) from None
            if kept:
                basis.append(MixedTensor(q, l, r, sig))
                witnesses.append(g)
                if len(basis) == q ** (l + r):
                    break
    return GadgetSpan(
        q=q,
        profile=profile,
        max_vertices=max_vertices,
        basis=basis,
        witnesses=witnesses,
        gadgets_enumerated=count,
    )


# -- pairing nondegeneracy ----------------------------------------------------


@dataclass
class GramReport:
    """Rank decision for the pairing between opposite-profile spans."""

    verdict: str  # nonvanishing_at_bound | vanishing_witness | inconclusive
    profile: tuple[int, int]
    max_vertices: int
    dim: int
    dim_dual: int
    rank: int
    singular_values: np.ndarray
    witness: QuantumGadget | None = None
    witness_signature: MixedTensor | None = None
    max_pairing_residual: float = 0.0


def _gram_pass(span_lr: GadgetSpan, span_rl: GadgetSpan):
    """Singular values, rank and left null vectors of the pairing matrix."""
    m = np.zeros((span_lr.dim, span_rl.dim), dtype=np.complex128)
    for i, a in enumerate(span_lr.basis):
        for j, b in enumerate(span_rl.basis):
            m[i, j] = pair(a, b)
    if min(m.shape) == 0:
        # unit coefficients as they are: conj would print 1 as [1.0, -0.0]
        return np.zeros(0), 0, list(np.eye(span_lr.dim, dtype=np.complex128))
    cut = numerical_rank(m)
    return cut.singular_values, cut.rank, list(cut.left_null())


def gram_nondegenerate(
    fs: dict[str, MixedTensor],
    profile: tuple[int, int],
    max_vertices: int,
) -> GramReport:
    """Is the pairing nondegenerate on the bounded span at this profile?

    Forms spans at (l,r) and (r,l), pairs their bases, and takes the
    numerical row rank.  A rank defect yields a combination of gadgets
    whose signature pairs to zero against the entire opposite span; if
    that combination is itself numerically zero the basis was redundant,
    so the span is re-pruned once with a coarser independence cut before
    giving up as inconclusive.
    """
    l, r = profile
    attempts = (INDEP_TOL, RANK_TOL)
    for attempt, indep_tol in enumerate(attempts):
        span_lr = build_span(fs, (l, r), max_vertices, indep_tol=indep_tol)
        if l == r:
            span_rl = span_lr  # build_span is deterministic
        else:
            span_rl = build_span(fs, (r, l), max_vertices, indep_tol=indep_tol)
        sing, rank, null_vecs = _gram_pass(span_lr, span_rl)
        if rank == span_lr.dim:
            return GramReport(
                verdict="nonvanishing_at_bound",
                profile=profile,
                max_vertices=max_vertices,
                dim=span_lr.dim,
                dim_dual=span_rl.dim,
                rank=rank,
                singular_values=sing,
            )
        # rank defect: pick the null combination with the largest signature
        best = None
        for c in null_vecs:
            sig_arr = span_lr.stack().T @ c
            norm = float(np.linalg.norm(sig_arr))
            if best is None or norm > best[0]:
                best = (norm, c, sig_arr)
        norm, c, sig_arr = best
        scale = max(1.0, max((b.norm() for b in span_lr.basis), default=0.0))
        if norm <= RANK_TOL * scale:
            if attempt + 1 < len(attempts):
                continue  # spurious kernel from basis redundancy: re-prune
            return GramReport(
                verdict="inconclusive",
                profile=profile,
                max_vertices=max_vertices,
                dim=span_lr.dim,
                dim_dual=span_rl.dim,
                rank=rank,
                singular_values=sing,
                max_pairing_residual=float("nan"),
            )
        witness_sig = MixedTensor(span_lr.q, l, r, sig_arr)
        residual = max(
            (abs(pair(witness_sig, b)) for b in span_rl.basis), default=0.0
        )
        terms = tuple(
            (complex(ci), span_lr.witnesses[i])
            for i, ci in enumerate(c)
            if abs(ci) > 1e-12
        )
        return GramReport(
            verdict="vanishing_witness",
            profile=profile,
            max_vertices=max_vertices,
            dim=span_lr.dim,
            dim_dual=span_rl.dim,
            rank=rank,
            singular_values=sing,
            witness=QuantumGadget(terms),
            witness_signature=witness_sig,
            max_pairing_residual=float(residual),
        )


# -- indistinguishability ------------------------------------------------------


@dataclass
class IndistinguishabilityReport:
    verdict: str  # indistinguishable_at_bound | distinguished
    max_vertices: int
    grids_checked: int
    max_difference: float
    witness_grid: SignatureGrid | None
    value_f: complex | None
    value_g: complex | None


def _check_correspondence(fs, gs, bijection):
    if not fs:
        raise ValueError("need at least one signature")
    for fid, gid in bijection.items():
        if not isinstance(gid, str):
            raise ValueError(f"bijection maps {fid!r} to {gid!r}, not to an id")
    if set(bijection) != set(fs) or set(bijection.values()) != set(gs):
        raise ValueError("bijection must map the first id set onto the second")
    if len(set(bijection.values())) != len(bijection):
        raise ValueError("bijection must be one-to-one: two ids map to one")
    for fid, gid in bijection.items():
        if fs[fid].shape != gs[gid].shape:
            raise ValueError(
                f"{fid!r} has shape {fs[fid].shape} but {gid!r} has {gs[gid].shape}"
            )
        if fs[fid].q != gs[gid].q:
            raise ValueError("domain sizes differ across the correspondence")
    return {fid: gs[gid] for fid, gid in bijection.items()}


def check_indistinguishable(
    fs: dict[str, MixedTensor],
    gs: dict[str, MixedTensor],
    bijection: dict[str, str],
    max_vertices: int,
    tol: float = 0.0,
) -> IndistinguishabilityReport:
    """Compare Holant values grid by grid under the id correspondence.

    Walks every closed grid over the first set up to the bound and
    evaluates it under both bindings; the first difference above
    tol * (1 + |value|) is returned as a witness.  A NaN or infinite
    value raises ArithmeticError naming its grid: no difference with it
    is above the tolerance, so it would pass unseen.  The overflow or
    invalid operation that makes such a value raises no numpy warning
    besides.  When every id is bound symmetrically on both sides, one
    grid per class of port permutations stands for the class, whose
    grids all share its values (see the module docstring).
    """
    gs_as_f = _check_correspondence(fs, gs, bijection)
    count = 0
    max_diff = 0.0
    grids = _walk((0, 0), max_vertices, fs, gs_as_f)
    with np.errstate(over="ignore", invalid="ignore"):
        for grid, sf, sg in structure_signatures(grids, fs, gs_as_f):
            vf, vg = complex(sf), complex(sg)
            count += 1
            if not all(map(math.isfinite, (vf.real, vf.imag, vg.real, vg.imag))):
                raise ArithmeticError(
                    f"grid {count} of the walk (vertices {grid.vertices}, edges {grid.edges}, "
                    f"loops {grid.loops}) has a non-finite value: {vf} under the first set, "
                    f"{vg} under the second"
                )
            diff = abs(vf - vg)
            if diff > tol * (1 + abs(vf)):
                return IndistinguishabilityReport(
                    verdict="distinguished",
                    max_vertices=max_vertices,
                    grids_checked=count,
                    max_difference=diff,
                    witness_grid=grid,
                    value_f=vf,
                    value_g=vg,
                )
            max_diff = max(max_diff, diff)
    return IndistinguishabilityReport(
        verdict="indistinguishable_at_bound",
        max_vertices=max_vertices,
        grids_checked=count,
        max_difference=max_diff,
        witness_grid=None,
        value_f=None,
        value_g=None,
    )


# -- covanishing ----------------------------------------------------------------


@dataclass
class CovanishingReport:
    verdict: str  # covanishing_at_bound | counterexample
    profile: tuple[int, int]
    max_vertices: int
    structures_checked: int
    direction: str | None = None  # which side vanished: "first" or "second"
    witness: QuantumGadget | None = None
    witness_signature_f: MixedTensor | None = None
    witness_signature_g: MixedTensor | None = None
    max_cross_residual: float = 0.0


def check_covanishing(
    fs: dict[str, MixedTensor],
    gs: dict[str, MixedTensor],
    bijection: dict[str, str],
    profile: tuple[int, int],
    max_vertices: int,
) -> CovanishingReport:
    """Do zero combinations transfer across the correspondence at this profile?

    Builds paired spans from identical gadget structures, computes the
    null space of each side's signature stack, and checks that every null
    combination is also null on the other side.  A null vector of one
    side whose image is bounded away from zero is a counterexample.
    When every id is bound symmetrically on both sides, the stacks hold
    one gadget per class of port permutations: the ordered stacks repeat
    those rows, and the null vectors the repeats add vanish on both
    sides (see the module docstring).  A gadget whose signature is not
    finite on either side raises ArithmeticError naming it and the side,
    before any SVD: the SVD of such a stack does not converge.  The
    overflow or invalid operation that makes such a signature raises no
    numpy warning besides.
    """
    gs_as_f = _check_correspondence(fs, gs, bijection)
    structures = list(_walk(profile, max_vertices, fs, gs_as_f))
    q = next(iter(fs.values())).q
    l, r = profile
    shape = (len(structures), q ** (l + r))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = list(structure_signatures(structures, fs, gs_as_f))
    stack_f, stack_g = (np.array([row[k].reshape(-1) for row in rows]).reshape(shape) for k in (1, 2))
    finite_f, finite_g = (np.isfinite(stack).all(axis=1) for stack in (stack_f, stack_g))
    if not (finite_f.all() and finite_g.all()):
        i = int((finite_f & finite_g).argmin())
        g = structures[i]
        raise ArithmeticError(
            f"gadget {i + 1} of the walk (vertices {g.vertices}, edges {g.edges}, loops {g.loops}) "
            f"has a non-finite signature under the {'second' if finite_f[i] else 'first'} set"
        )
    worst = (0.0, None, None)
    for direction, a, b in (("first", stack_f, stack_g), ("second", stack_g, stack_f)):
        # left_null() holds this direction's U; nothing else may, so it
        # is freed before the other direction's SVD
        for c in numerical_rank(a).left_null():
            cross = float(np.linalg.norm(c @ b))
            if cross > worst[0]:
                worst = (cross, direction, c)
    cross, direction, c = worst
    scale = max(1.0, np.abs(stack_f).max(initial=0.0), np.abs(stack_g).max(initial=0.0))
    if direction is None or cross <= 1e-6 * scale:
        return CovanishingReport(
            verdict="covanishing_at_bound",
            profile=profile,
            max_vertices=max_vertices,
            structures_checked=len(structures),
            max_cross_residual=cross,
        )
    terms = tuple(
        (complex(ci), structures[i]) for i, ci in enumerate(c) if abs(ci) > 1e-12
    )
    wf = MixedTensor(q, l, r, (c @ stack_f).reshape((q,) * (l + r)))
    wg = MixedTensor(q, l, r, (c @ stack_g).reshape((q,) * (l + r)))
    return CovanishingReport(
        verdict="counterexample",
        profile=profile,
        max_vertices=max_vertices,
        structures_checked=len(structures),
        direction=direction,
        witness=QuantumGadget(terms),
        witness_signature_f=wf,
        witness_signature_g=wg,
        max_cross_residual=cross,
    )
