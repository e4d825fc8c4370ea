"""The benchmark's four workloads: seeded inputs, queries and output oracles.

A query is one library call that returns a verdict or a count.  `build`
makes every input before any query is timed, except the left graphs of
hom-census, which are the census query's own answer.  Exact references
are computed before timing or when the answers are checked, after the
last query.  Queries look the library function up on its module at call
time, so the wrappers that tracing.py installs there see the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from holant import homgraphs, simsim, spans, transforms
from holant.tensors import MixedTensor, SymBoolSignature, disequality_signature


@dataclass(frozen=True)
class KnownDefect:
    """A documented way a query could fail at the commit that defined this benchmark.

    A wrong answer that `matches` still counts in `failed` but does not
    make the run incorrect, as long as at most `max_share` (rounded up)
    of the queries that carry the defect fail so in one pass.  A raised
    exception, or any other wrong answer, is never a known defect.
    """

    name: str
    matches: Callable[[object], bool]
    max_share: float = 1.0


@dataclass(frozen=True)
class Query:
    kind: str
    run: Callable[[], object]
    # returns None for a right answer, else why it is wrong
    check: Callable[[object], str | None]
    known_defect: KnownDefect | None = None


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _well_conditioned(rng, q, cond_cap):
    while True:
        m = _complex_normal(rng, (q, q))
        if np.linalg.cond(m) <= cond_cap:
            return m


# -- closed-invariance ----------------------------------------------------------

CLOSED_SHAPES = {"s0": (1, 1), "s1": (2, 1), "s2": (1, 2)}
CLOSED_Q = 3
CLOSED_BOUND = 4
# closed grids over CLOSED_SHAPES up to CLOSED_BOUND vertices, loops 0 and 1
CLOSED_CLASSES = 600


def _check_theorem(report):
    if not report.passed:
        return f"invariance failed, scaled error {report.max_scaled_error:.3e}"
    if report.grids_checked != CLOSED_CLASSES:
        return f"checked {report.grids_checked} grids, expected {CLOSED_CLASSES}"
    return None


def _is_rounding_failure(report):
    """A failure whose error is rounding, not a broken invariance.

    verify_holant_theorem compares against a fixed 1e-8 that ignores
    cond(T); the transformed side's rounding grows with it, and reached
    1.03e-8 on one set at cond 84 (seed 265889141, query 36).  A real
    break of invariance is of the order of the signature entries.
    """
    return (
        not report.passed
        and report.grids_checked == CLOSED_CLASSES
        and report.max_scaled_error <= 100 * report.tol
    )


THEOREM_ROUNDING = KnownDefect(
    "verify_holant_theorem fails a set on rounding error just past its fixed tolerance",
    _is_rounding_failure,
    max_share=0.05,
)


def closed_invariance(rng):
    queries = []
    for _ in range(40):
        fs = {
            name: MixedTensor(CLOSED_Q, l, r, _complex_normal(rng, CLOSED_Q ** (l + r)))
            for name, (l, r) in CLOSED_SHAPES.items()
        }
        t = transforms.HoloTransform(CLOSED_Q, _well_conditioned(rng, CLOSED_Q, 100.0))
        queries.append(Query(
            "verify_holant_theorem",
            lambda fs=fs, t=t: transforms.verify_holant_theorem(fs, t, CLOSED_BOUND),
            _check_theorem,
            known_defect=THEOREM_ROUNDING,
        ))
    return queries


# -- counterexample-spans ----------------------------------------------------------

SPAN_BOUND = 6


def _check_indistinguishable(report):
    if report.verdict != "indistinguishable_at_bound":
        return f"verdict {report.verdict}"
    if report.max_difference != 0.0:
        return f"max_difference {report.max_difference!r} is not exactly 0"
    return None


def _check_vanishing_witness(report):
    if report.verdict != "vanishing_witness":
        return f"verdict {report.verdict}"
    entries = report.witness_signature.array
    if report.witness_signature.norm() <= 1e-9:
        return "witness signature is zero"
    for idx in np.ndindex(entries.shape):
        if sum(idx) >= 2 and abs(entries[idx]) >= 1e-9:
            return f"witness entry {idx} of weight {sum(idx)} is {abs(entries[idx]):.3e}"
    return None


def _check_counterexample(report):
    if report.verdict != "counterexample":
        return f"verdict {report.verdict}"
    return None


def counterexample_spans(rng):
    """The arity-4 pair {neq, [a,b,1,0,0]} against {neq, [0,0,1,0,0]}.

    By the weight argument every closed grid reads only the weight-2
    entry, so the verdicts hold for every (a, b).
    """
    a, b = (complex(rng.normal(), rng.normal()) for _ in range(2))
    neq = disequality_signature(2, 2, 0)
    fs = {"neq": neq, "f": SymBoolSignature((a, b, 1.0, 0, 0), 0, 4).to_tensor()}
    gs = {"neq": neq, "f": SymBoolSignature((0.0, 0.0, 1.0, 0, 0), 0, 4).to_tensor()}
    bij = {"neq": "neq", "f": "f"}
    return [
        Query(
            "check_indistinguishable",
            lambda: spans.check_indistinguishable(fs, gs, bij, SPAN_BOUND),
            _check_indistinguishable,
        ),
        Query(
            "gram_nondegenerate",
            lambda: spans.gram_nondegenerate(fs, (0, 4), SPAN_BOUND),
            _check_vanishing_witness,
        ),
        Query(
            "check_covanishing",
            lambda: spans.check_covanishing(fs, gs, bij, (4, 0), SPAN_BOUND),
            _check_counterexample,
        ),
    ]


# -- simsim-recovery ----------------------------------------------------------------


def _check_similar(result):
    if result.verdict != "similar":
        return f"similar pair answered {result.verdict}"
    if not result.residual <= 1e-6:
        return f"residual {result.residual:.3e} above 1e-6"
    return None


def _is_flagged_miss(result):
    """A similar pair reported as a miss by one of the two routes seen at seed.

    Acceptance criterion 06 allows `verification_failed` on 1 % of similar
    pairs.  `build_paired_algebra` can also answer `not_covanishing` when
    the smallest singular value of the second algebra's stacked images
    falls under its relative RANK_TOL, which happens to a similar pair
    whose conjugator has cond near 1e3 (seed 36, q = 4, k = 2).
    """
    if result.verdict == "verification_failed":
        return True
    return result.verdict == "not_covanishing" and result.witness.get("direction") == "second"


SIMSIM_MISS = KnownDefect(
    "recover_transform misses a similar pair: verification_failed, or"
    " not_covanishing from the rank test on the second algebra",
    _is_flagged_miss,
    max_share=0.01,
)


def _check_not_similar(result):
    if result.verdict == "similar":
        return "non-similar pair answered similar"
    return None


def _conjugate(s, mats):
    s_inv = np.linalg.inv(s)
    return {name: s @ m @ s_inv for name, m in mats.items()}


def simsim_recovery(rng):
    queries = []
    # similar pairs: q cycles 2..6, k cycles 1..3, all 15 pairs 4 times
    for i in range(60):
        q, k = 2 + i % 5, 1 + (i // 5) % 3
        while True:
            fs = {f"m{j}": _complex_normal(rng, (q, q)) for j in range(k)}
            if simsim.is_11_nonvanishing(simsim.algebra_closure(fs)):
                break
        gs = _conjugate(_well_conditioned(rng, q, 1e3), fs)
        queries.append(Query(
            "recover_transform",
            lambda fs=fs, gs=gs: simsim.recover_transform(fs, gs),
            _check_similar,
            known_defect=SIMSIM_MISS,
        ))
    # one eigenvalue of the first generator shifted: traces differ
    for i in range(10):
        q, k = 2 + i % 5, 1 + i % 3
        fs = {f"m{j}": _complex_normal(rng, (q, q)) for j in range(k)}
        vals, vecs = np.linalg.eig(fs["m0"])
        vals[int(rng.integers(0, q))] += 0.3 + 0.7 * rng.random()
        shifted = dict(fs, m0=vecs @ np.diag(vals) @ np.linalg.inv(vecs))
        gs = _conjugate(_well_conditioned(rng, q, 1e3), shifted)
        queries.append(Query(
            "recover_transform",
            lambda fs=fs, gs=gs: simsim.recover_transform(fs, gs),
            _check_not_similar,
        ))
    # a Jordan block against the scalar matrix with its spectrum
    for i in range(10):
        q = 2 + i % 5
        lam = complex(rng.normal(), rng.normal())
        jordan = lam * np.eye(q) + np.eye(q, k=1)
        queries.append(Query(
            "recover_transform",
            lambda j=jordan, s=lam * np.eye(q): simsim.recover_transform({"a": j}, {"a": s}),
            _check_not_similar,
        ))
    # a seeded order spreads the fast queries (k = 1 and the early-exit
    # controls) over the pass, so the median samples the host's speed at
    # many moments
    return [queries[i] for i in rng.permutation(len(queries))]


# -- hom-census ----------------------------------------------------------------------

CENSUS_VERTICES = 8
CENSUS_DEGREE = 3
# connected graphs of max degree 3 on n = 1..8 vertices, up to isomorphism
CENSUS_CLASSES = (1, 1, 2, 6, 10, 29, 64, 194)
HOM_TARGETS = (10, 16)
CYCLE_COLOURS = (3, 5, 8)
CYCLE_LENGTHS = range(3, 61)


def exact_hom_count(x, g) -> int:
    """hom(x, g) by vertex elimination over int64 tensors.

    Exact while every partial sum fits int64, which holds for the census:
    a partial sum never exceeds g.n ** x.n <= 16 ** 8.
    """
    if g.n ** x.n >= 2**63:
        raise ValueError("count may overflow int64")
    adj = g.adjacency().astype(np.int64)
    factors = [((u, v), adj) for u, v in x.edges]
    count = g.n ** sum(1 for d in x.degrees() if d == 0)
    while any(vs for vs, _ in factors):
        live = {v for vs, _ in factors for v in vs}

        def width(v):
            return len({w for vs, _ in factors if v in vs for w in vs})

        v = min(sorted(live), key=width)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        joined = sorted({w for vs, _ in touching for w in vs})
        letter = {w: chr(ord("a") + i) for i, w in enumerate(joined)}
        kept = tuple(w for w in joined if w != v)
        spec = ",".join("".join(letter[w] for w in vs) for vs, _ in touching)
        spec += "->" + "".join(letter[w] for w in kept)
        factors.append((kept, np.einsum(spec, *(t for _, t in touching))))
    for _, t in factors:
        count *= int(t)
    return count


def _random_graph(rng, n):
    return homgraphs.SimpleGraph(
        n, tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5)
    )


def _check_census(classes):
    per_n = tuple(sum(1 for g in classes if g.n == n) for n in range(1, CENSUS_VERTICES + 1))
    if per_n != CENSUS_CLASSES:
        return f"classes per vertex count {per_n}, expected {CENSUS_CLASSES}"
    return None


def _check_count(exact):
    return lambda count: None if count == exact else f"count {count}, exact {exact}"


def _float64_rounding(exact):
    """The count past 2**53 that float64 rounding gives: a close int, not exact."""
    return KnownDefect(
        "hom counts above 2**53 pass through float64 and lose digits",
        lambda count: type(count) is int and count != exact and abs(count - exact) <= 1e-9 * exact,
    )


def _check_hom(census, i, g):
    return lambda count: _check_count(exact_hom_count(census[0][i], g))(count)


def hom_census(rng):
    """The census, then, in a seeded order, the hom counts of every class
    it found and of the cycles.

    The census runs first in a fresh interpreter, so its lru_cache is
    empty.  The classes it returns are the left graphs of the hom
    queries; their exact counts are computed when the answers are
    checked, after the last query.
    """
    census = []

    def run_census():
        census.append(homgraphs.enumerate_connected_graphs(CENSUS_VERTICES, CENSUS_DEGREE))
        return census[0]

    queries = []
    for n in HOM_TARGETS:
        g = _random_graph(rng, n)
        for i in range(sum(CENSUS_CLASSES)):
            queries.append(Query(
                "hom_count",
                lambda i=i, g=g: homgraphs.hom_count(census[0][i], g),
                _check_hom(census, i, g),
            ))
    for k in CYCLE_COLOURS:
        target = homgraphs.complete_graph(k)
        for n in CYCLE_LENGTHS:
            exact = (k - 1) ** n + (-1) ** n * (k - 1)
            queries.append(Query(
                "hom_count",
                lambda x=homgraphs.cycle_graph(n), g=target: homgraphs.hom_count(x, g),
                _check_count(exact),
                known_defect=_float64_rounding(exact) if exact > 2**53 else None,
            ))
    # the census comes first; the counts follow in a seeded order, so that
    # each kind samples the host's speed over the whole pass
    order = rng.permutation(len(queries))
    return [Query("enumerate_connected_graphs", run_census, _check_census)] + [
        queries[i] for i in order
    ]


WORKLOADS = {
    "closed-invariance": closed_invariance,
    "counterexample-spans": counterexample_spans,
    "simsim-recovery": simsim_recovery,
    "hom-census": hom_census,
}

# Boundaries (tracing.BOUNDARIES) each workload entered at the commit that
# defined the benchmark.  A traced run that never enters one of these
# reports its metrics as missing: the code was routed around the wrapper.
EXPECTED_BOUNDARIES = {
    "closed-invariance": {
        "grids.enumerate", "grids.contract", "transforms.act", "transforms.verify",
    },
    "counterexample-spans": {
        "grids.enumerate", "grids.contract", "spans.basis", "spans.gram",
        "spans.covanishing",
    },
    "simsim-recovery": {
        "simsim.trace_words", "simsim.closure", "simsim.nonvanishing",
        "simsim.paired", "simsim.recover",
    },
    "hom-census": {
        "grids.contract", "homgraphs.canonical", "homgraphs.census", "homgraphs.hom",
    },
}


def build(name: str, seed: int) -> list[Query]:
    return WORKLOADS[name](np.random.default_rng(seed))
