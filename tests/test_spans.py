"""Span construction, pairing rank checks, indistinguishability and covanishing.

Oracles: bounded (1,1) spans over a single matrix are spans of matrix
powers, so Cayley-Hamilton pins their dimensions exactly; closed-grid
verdicts are replayed grid by grid with the brute evaluator.
"""

import time
import warnings

import numpy as np
import pytest

from holant import contraction
from holant import grids as grids_module
from holant import spans
from holant import transforms as transforms_module
from holant.contraction import QuantumGadget
from holant.grids import enumerate_gadgets, enumerate_grids
from holant.spans import (
    build_span,
    check_covanishing,
    check_indistinguishable,
    gram_nondegenerate,
)
from holant.tensors import (
    MixedTensor,
    SymBoolSignature,
    disequality_signature,
    equality_signature,
    identity_signature,
    pair,
)
from holant.transforms import HoloTransform, verify_holant_theorem
from oracles import brute_holant_eval, oracle_signatures, oracle_verify_holant_theorem


def mat_tensor(m, q):
    del q
    return MixedTensor.from_matrix(np.asarray(m, dtype=np.complex128))


def counterexample_set(a, b):
    """Binary disequality feeding a symmetric 4-port signature, domain 2."""
    f = SymBoolSignature((a, b, 1.0, 0.0, 0.0), 0, 4).to_tensor()
    return {"neq": disequality_signature(2, 2, 0), "f": f}


# -- build_span ----------------------------------------------------------------


def test_empty_set_needs_domain_size():
    with pytest.raises(ValueError):
        build_span({}, (1, 1), 2)


def test_span_of_single_matrix_is_power_span():
    # Cayley-Hamilton: powers of a q x q matrix span at most q dimensions
    # once the bound allows q-1 chained vertices.
    rng = np.random.default_rng(7)
    for q in (2, 3):
        m = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        span = build_span({"m": mat_tensor(m, q)}, (1, 1), q + 1)
        assert span.dim == q
        powers = [np.linalg.matrix_power(m, k) for k in range(q + 2)]
        for p in powers:
            assert span.contains(mat_tensor(p, q))
        outside = mat_tensor(rng.normal(size=(q, q)), q)
        assert not span.contains(outside)


def test_span_dimension_grows_with_bound():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3))
    fs = {"m": mat_tensor(m, 3)}
    dims = [build_span(fs, (1, 1), b).dim for b in (0, 1, 2, 3)]
    assert dims == [1, 2, 3, 3]


def test_span_is_deterministic():
    fs = counterexample_set(1.0, 1.0)
    s1 = build_span(fs, (0, 2), 4)
    s2 = build_span(fs, (0, 2), 4)
    assert s1.dim == s2.dim
    for a, b in zip(s1.basis, s2.basis):
        assert np.array_equal(a.entries, b.entries)
    assert s1.witnesses == s2.witnesses


def test_span_witness_gadgets_reproduce_basis():
    from holant.contraction import gadget_signature

    fs = counterexample_set(0.0, 0.0)
    span = build_span(fs, (2, 0), 4)
    for sig, grid in zip(span.basis, span.witnesses):
        again = gadget_signature(grid, fs)
        assert sig.allclose(again, 1e-9)


def test_closed_profile_span_collects_scalar():
    fs = {"eq20": equality_signature(2, 2, 0), "eq02": equality_signature(2, 0, 2)}
    span = build_span(fs, (0, 0), 2)
    assert span.dim == 1
    assert span.witnesses[0].vertices  # a scalar needs at least one vertex
    assert abs(span.basis[0].entry((), ()) - 2.0) < 1e-12  # two-vertex equality loop


# -- gram_nondegenerate ---------------------------------------------------------


def test_gram_identity_only_is_nonvanishing():
    report = gram_nondegenerate({"id": identity_signature(2)}, (1, 1), 3)
    assert report.verdict == "nonvanishing_at_bound"
    assert report.rank == report.dim


def test_gram_square_profile_builds_each_span_once(monkeypatch):
    # at l == r the dual span is the span itself; the (1,1) report over a
    # nilpotent matrix N is the one two separate builds gave: span {I, N},
    # Gram matrix diag(2, 0), witness N
    from holant import spans

    built = []
    real = spans.build_span
    monkeypatch.setattr(
        spans, "build_span", lambda *a, **k: built.append(a[1]) or real(*a, **k)
    )
    fs = {"n": mat_tensor([[0, 1], [0, 0]], 2)}
    report = gram_nondegenerate(fs, (1, 1), 3)
    assert built == [(1, 1)]
    assert report.verdict == "vanishing_witness"
    assert (report.dim, report.dim_dual, report.rank) == (2, 2, 1)
    assert np.allclose(report.singular_values, [2, 0])
    assert np.allclose(report.witness_signature.matrix(), [[0, 1], [0, 0]])
    assert report.max_pairing_residual == 0.0


@pytest.mark.parametrize(
    "scale, off, verdict, dims",
    [(1.0, 1e-8, "nonvanishing_at_bound", [2, 1]), (10.0, 1e-5, "inconclusive", [2, 2])],
)
def test_gram_reprunes_a_numerically_zero_witness(monkeypatch, scale, off, verdict, dims):
    # a = scale·I + off·E01 at (1,1), bound 1: the span of the wire I and
    # a is {I, E01}, and E01 pairs to zero against both.  The Gram rank
    # finds the null combination of I and a, which is off·E01 over about
    # scale, and it is below RANK_TOL·max(1, |a|), so it may come from a
    # redundant basis: the span is built again at RANK_TOL.  At off 1e-8
    # that drops a, and the pairing of {I} is nonvanishing.  At off 1e-5
    # a stays (its residual is above RANK_TOL·|a|), the same combination
    # is found again, and the report is inconclusive: the fixed cuts see
    # no witness above the noise they allow for
    built = []
    real = spans.build_span

    def recorded(*args, **kwargs):
        span = real(*args, **kwargs)
        built.append((kwargs["indep_tol"], span.dim))
        return span

    monkeypatch.setattr(spans, "build_span", recorded)
    a = scale * np.eye(2, dtype=np.complex128)
    a[0, 1] += off
    report = gram_nondegenerate({"a": mat_tensor(a, 2)}, (1, 1), 1)
    assert built == [(spans.INDEP_TOL, dims[0]), (spans.RANK_TOL, dims[1])]
    assert (report.verdict, report.dim, report.dim_dual, report.rank) == (verdict, dims[1], dims[1], 1)
    assert (report.witness, np.isnan(report.max_pairing_residual)) == (None, verdict == "inconclusive")


def test_gram_equalities_are_nonvanishing():
    fs = {"eq20": equality_signature(2, 2, 0), "eq02": equality_signature(2, 0, 2)}
    for profile in ((1, 1), (2, 0), (0, 2)):
        report = gram_nondegenerate(fs, profile, 3)
        assert report.verdict == "nonvanishing_at_bound"


def test_gram_unreachable_profile_is_vacuously_nonvanishing():
    fs = {"eq20": equality_signature(2, 2, 0)}
    report = gram_nondegenerate(fs, (1, 0), 3)
    assert report.dim == 0
    assert report.verdict == "nonvanishing_at_bound"


def test_gram_counterexample_set_vanishes_at_04():
    # the low-weight entries of f are invisible to the disequality side,
    # so combinations supported there pair to zero against everything
    fs = counterexample_set(1.0, 1.0)
    report = gram_nondegenerate(fs, (0, 4), 6)
    assert report.verdict == "vanishing_witness"
    assert report.rank < report.dim
    assert report.max_pairing_residual < 1e-7
    sig = report.witness_signature
    assert sig.norm() > 1e-7
    # the witness lives on Hamming weights 0 and 1 only
    for idx in np.ndindex(*(2,) * 4):
        if sum(idx) >= 2:
            assert abs(sig.array[idx]) < 1e-9
    assert isinstance(report.witness, QuantumGadget)
    combo = report.witness.signature(fs)
    assert combo.allclose(sig, 1e-7)


def test_gram_weight_two_set_is_nonvanishing_at_04():
    # with the low-weight entries removed the pairing has full rank
    report = gram_nondegenerate(counterexample_set(0.0, 0.0), (0, 4), 5)
    assert report.verdict == "nonvanishing_at_bound"


def test_gram_vanishing_witness_pairs_to_zero_against_duals():
    fs = counterexample_set(1.0, 1.0)
    report = gram_nondegenerate(fs, (0, 4), 5)
    if report.verdict != "vanishing_witness":
        pytest.skip("bound 5 span too small on this profile")
    dual_span = build_span(fs, (4, 0), 5)
    for b in dual_span.basis:
        assert abs(pair(report.witness_signature, b)) < 1e-7


# -- check_indistinguishable -----------------------------------------------------


def unary_pair_sets():
    u = MixedTensor(2, 1, 0, np.array([1.0, 1.0], dtype=np.complex128))
    v1 = MixedTensor(2, 0, 1, np.array([1.0, 0.0], dtype=np.complex128))
    v2 = MixedTensor(2, 0, 1, np.array([1.0, 1.0], dtype=np.complex128))
    return {"u": u, "v": v1}, {"u": u, "v": v2}


def test_set_indistinguishable_from_itself():
    fs = counterexample_set(1.0, 1.0)
    report = check_indistinguishable(fs, fs, {k: k for k in fs}, 4)
    assert report.verdict == "indistinguishable_at_bound"
    assert report.max_difference == 0.0
    assert report.grids_checked > 0


def test_counterexample_family_is_indistinguishable_exactly():
    fs = counterexample_set(1.0, 1.0)
    gs = counterexample_set(0.0, 0.0)
    report = check_indistinguishable(fs, gs, {"neq": "neq", "f": "f"}, 5)
    assert report.verdict == "indistinguishable_at_bound"
    assert report.max_difference == 0.0


def test_distinguishable_pair_yields_witness_grid():
    fs, gs = unary_pair_sets()
    report = check_indistinguishable(fs, gs, {"u": "u", "v": "v"}, 3)
    assert report.verdict == "distinguished"
    assert report.witness_grid is not None
    assert len(report.witness_grid.vertices) == 2
    assert report.value_f == pytest.approx(1.0)
    assert report.value_g == pytest.approx(2.0)


def test_brute_and_contract_methods_agree():
    # the verdict of the contracted sweep, replayed grid by grid with the
    # brute evaluator: the sweep walks one grid per class of port
    # permutations, and every ordered-port grid agrees too
    fs = counterexample_set(0.5, -2.0)
    gs = counterexample_set(0.0, 0.0)
    report = check_indistinguishable(fs, gs, {"neq": "neq", "f": "f"}, 4)
    sig_shapes = sorted((k, t.shape) for k, t in fs.items())
    classes = list(enumerate_grids(sig_shapes, 4, 2, symmetric=("f", "neq")))
    ordered = list(enumerate_grids(sig_shapes, 4, 2))
    assert report.verdict == "indistinguishable_at_bound"
    assert report.grids_checked == len(classes) == 4
    assert len(ordered) == 26
    for grid in classes + ordered:
        vf, vg = brute_holant_eval(grid, fs), brute_holant_eval(grid, gs)
        assert abs(vf - vg) <= 1e-9 * (1 + abs(vf))


def test_correspondence_validation():
    fs, gs = unary_pair_sets()
    with pytest.raises(ValueError):
        check_indistinguishable(fs, gs, {"u": "u"}, 2)
    bad = {"u": gs["u"], "v": MixedTensor.scalar(2, 1.0)}
    with pytest.raises(ValueError):
        check_indistinguishable(fs, bad, {"u": "u", "v": "v"}, 2)
    # one side mixing domain sizes is refused as build_span refuses it
    mixed = {"a": MixedTensor(2, 1, 0, np.ones(2)), "b": MixedTensor(3, 1, 0, np.ones(3))}
    with pytest.raises(ValueError, match="signatures must share a domain size"):
        check_indistinguishable(mixed, mixed, {"a": "a", "b": "b"}, 2)
    with pytest.raises(ValueError, match="signatures must share a domain size"):
        check_covanishing(mixed, mixed, {"a": "a", "b": "b"}, (1, 0), 2)


def test_many_to_one_map_is_not_a_bijection():
    # keys cover the first set and values the second, but "a" and "b"
    # share an image, so no grid walk may start
    u = unary_pair_sets()[0]["u"]
    fs, gs, bij = {"a": u, "b": u}, {"c": u}, {"a": "c", "b": "c"}
    with pytest.raises(ValueError, match="one-to-one"):
        check_indistinguishable(fs, gs, bij, 2)
    with pytest.raises(ValueError, match="one-to-one"):
        check_covanishing(fs, gs, bij, (1, 0), 2)


@pytest.mark.parametrize("image", [["u"], {"u": "u"}])
def test_a_bijection_value_that_is_not_an_id_is_refused(image):
    # an unhashable image once failed inside set() with a TypeError that
    # named neither the id nor the bijection
    u = unary_pair_sets()[0]["u"]
    message = f"bijection maps 'u' to {image!r}, not to an id"
    with pytest.raises(ValueError) as indist:
        check_indistinguishable({"u": u}, {"u": u}, {"u": image}, 2)
    with pytest.raises(ValueError) as covanishing:
        check_covanishing({"u": u}, {"u": u}, {"u": image}, (1, 0), 2)
    assert str(indist.value) == str(covanishing.value) == message


def test_over_cap_profiles_are_refused_before_enumerating(monkeypatch):
    # a profile with q**(l+r) over tensors.MAX_ENTRIES (2**26) fits no
    # signature; every checker refuses it before any gadget is enumerated
    fs = {"m": identity_signature(2)}
    with pytest.raises(ValueError, match="profile entries must be nonnegative"):
        build_span(fs, (-1, 30), 1)

    def no_walk(*args, **kwargs):
        raise AssertionError("enumerated an over-cap profile")

    monkeypatch.setattr(spans, "enumerate_grids", no_walk)
    monkeypatch.setattr(spans, "enumerate_gadgets", no_walk)
    for profile, slots in (((13, 14), 27), ((0, 27), 27), ((30, 30), 60)):
        over = f"tensor with q=2 and {slots} slots needs more than 67108864 entries, over the cap"
        with pytest.raises(ValueError, match=over):
            build_span(fs, profile, 1)
        with pytest.raises(ValueError, match=over):
            gram_nondegenerate(fs, profile, 1)
        with pytest.raises(ValueError, match=over):
            check_covanishing(fs, fs, {"m": "m"}, profile, 1)
    # 2**26 entries are under the cap: the walk is taken
    walked = []

    def empty_walk(sigs, profile, *args, **kwargs):
        walked.append(profile)
        return iter(())

    monkeypatch.setattr(spans, "enumerate_gadgets", empty_walk)
    assert build_span(fs, (26, 0), 1).dim == 0
    assert gram_nondegenerate(fs, (13, 13), 1).verdict == "nonvanishing_at_bound"
    assert walked == [(26, 0), (13, 13)]


def test_empty_sets_are_refused():
    with pytest.raises(ValueError, match="at least one signature"):
        check_indistinguishable({}, {}, {}, 2)
    with pytest.raises(ValueError, match="at least one signature"):
        check_covanishing({}, {}, {}, (1, 1), 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_non_finite_values_are_refused(bad, tol):
    # a NaN or infinite value compares false with every tolerance, so the
    # pair would read indistinguishable_at_bound with max_difference 0
    entries = equality_signature(2, 1, 1).array.copy()
    entries[0, 0] = bad
    fs = {"e": MixedTensor(2, 1, 1, entries)}
    gs = {"e": 3 * equality_signature(2, 1, 1)}
    with pytest.raises(ArithmeticError, match=r"grid 3 of the walk \(vertices \('e',\).* non-finite"):
        check_indistinguishable(fs, gs, {"e": "e"}, 2, tol=tol)
    # the same pair with finite values is told apart at that grid
    fs["e"] = 2 * equality_signature(2, 1, 1)
    report = check_indistinguishable(fs, gs, {"e": "e"}, 2, tol=tol)
    assert (report.verdict, report.grids_checked) == ("distinguished", 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_gadget_signature_is_refused(bad):
    # a NaN residual passes no independence cut, so the gadget was dropped
    # as dependent and the span read dim 0
    entries = equality_signature(2, 0, 2).array.copy()
    entries[0, 0] = bad
    fs = {"e": MixedTensor(2, 0, 2, entries)}
    with pytest.raises(ArithmeticError, match=r"gadget 1 of the walk \(vertices \('e',\).* non-finite"):
        build_span(fs, (0, 2), 4)
    assert build_span({"e": equality_signature(2, 0, 2)}, (0, 2), 4).dim == 1
    # the covanishing SVD of a non-finite stack does not converge; the
    # gadget and its side are named before it, with no numpy warning
    entries = equality_signature(2, 1, 1).array.copy()
    entries[0, 0] = bad
    fs, gs = {"e": MixedTensor(2, 1, 1, entries)}, {"e": equality_signature(2, 1, 1)}
    named = {(1, 1): "gadget 2 of the walk (vertices ('e',), edges (), loops 0)",
             (0, 0): "gadget 3 of the walk (vertices ('e',), edges ((0, 1, 0, 1),), loops 0)"}
    for profile, gadget in named.items():
        for side, pair in (("first", (fs, gs)), ("second", (gs, fs))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ArithmeticError) as refused:
                    check_covanishing(*pair, {"e": "e"}, profile, 3)
            assert str(refused.value) == f"{gadget} has a non-finite signature under the {side} set"
        assert check_covanishing(gs, gs, {"e": "e"}, profile, 3).verdict == "covanishing_at_bound"


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.3, -2.5)])
def test_counterexample_spans_are_pinned(a, b):
    # every keep decision of the independence cut, at two bounds and for
    # two (a, b): the walk lengths and the dimension 8 of each span
    fs = counterexample_set(a, b)
    walked = {
        6: {(0, 4): 11, (4, 0): 10, (2, 2): 33},
        8: {(0, 4): 71, (4, 0): 38, (2, 2): 33},
    }
    for bound, counts in walked.items():
        for profile, count in counts.items():
            span = build_span(fs, profile, bound)
            assert (span.dim, span.gadgets_enumerated) == (8, count), (bound, profile)


def test_negative_bound_is_refused_by_every_checker():
    # a negative bound walks nothing, so every checker would pass on no
    # grid; the walk they share refuses it
    fs = {"e": equality_signature(2, 1, 1)}
    checks = {
        "verify": lambda: verify_holant_theorem(fs, HoloTransform.diagonal([1.0, 2.0]), -1),
        "indistinguishable": lambda: check_indistinguishable(fs, fs, {"e": "e"}, -1),
        "span": lambda: build_span(fs, (1, 1), -1),
        "gram": lambda: gram_nondegenerate(fs, (1, 1), -1),
        "covanishing (1,1)": lambda: check_covanishing(fs, fs, {"e": "e"}, (1, 1), -1),
        "covanishing (0,0)": lambda: check_covanishing(fs, fs, {"e": "e"}, (0, 0), -1),
    }
    for name, check in checks.items():
        with pytest.raises(ValueError, match="max_vertices must be nonnegative, got -1"):
            check()
    # bound 0 still walks the vertexless grids
    assert check_indistinguishable(fs, fs, {"e": "e"}, 0).grids_checked == 2


# -- check_covanishing ------------------------------------------------------------


def test_covanishing_over_no_gadget_is_quick():
    # one (1,1) id at profile (0,12) walks no gadget, so each side's stack
    # is 0 x 4096: the SVD computes no 4096 x 4096 vh that nothing reads
    # (that took 0.4 s and 287 MB)
    fs = {"m": identity_signature(2)}
    start = time.perf_counter()
    report = check_covanishing(fs, fs, {"m": "m"}, (0, 12), 1)
    elapsed = time.perf_counter() - start
    assert (report.verdict, report.structures_checked) == ("covanishing_at_bound", 0)
    assert elapsed < 0.05


def test_covanishing_set_with_itself():
    fs = counterexample_set(1.0, 1.0)
    bij = {k: k for k in fs}
    for profile in ((0, 0), (0, 2), (2, 0)):
        report = check_covanishing(fs, fs, bij, profile, 4)
        assert report.verdict == "covanishing_at_bound"


def test_counterexample_family_covanishes():
    fs = counterexample_set(1.0, 1.0)
    gs = counterexample_set(0.0, 0.0)
    bij = {"neq": "neq", "f": "f"}
    for profile in ((0, 0), (0, 2)):
        report = check_covanishing(fs, gs, bij, profile, 4)
        assert report.verdict == "covanishing_at_bound", profile


def test_distinguished_pair_fails_covanishing_at_closed_profile():
    # a closed-grid value difference always shows up as a transfer failure
    fs, gs = unary_pair_sets()
    report = check_covanishing(fs, gs, {"u": "u", "v": "v"}, (0, 0), 3)
    assert report.verdict == "counterexample"
    assert report.direction in ("first", "second")
    assert report.witness is not None
    # the offending combination vanishes on its own side, not the other
    wf = report.witness_signature_f
    wg = report.witness_signature_g
    small, large = (wf, wg) if report.direction == "first" else (wg, wf)
    assert small.norm() < 1e-6
    assert large.norm() > 1e-6


def test_transformed_set_covanishes_with_original():
    from holant.transforms import HoloTransform

    rng = np.random.default_rng(3)
    q = 2
    f1 = MixedTensor(q, 2, 0, rng.normal(size=(q, q)).astype(np.complex128))
    f2 = MixedTensor(q, 0, 1, rng.normal(size=(q,)).astype(np.complex128))
    fs = {"a": f1, "b": f2}
    t = HoloTransform(q, np.array([[1.0, 1.0], [0.5, -1.0]]))
    gs = {"a": t.act(f1), "b": t.act(f2)}
    bij = {"a": "a", "b": "b"}
    for profile in ((0, 0), (1, 0)):
        report = check_covanishing(fs, gs, bij, profile, 4)
        assert report.verdict == "covanishing_at_bound"


# -- one contraction per structure ------------------------------------------------


def slot_order_case(name):
    """(fs, gs, profile, bound): the arity-4 counterexample pair at either
    profile or closed, at bound 6, random q = 3 signatures whose (2,2)
    gadgets have wires, or closed-invariance's shapes at q = 3 under F
    and T·F."""
    if name.startswith("neq_f"):
        fs = counterexample_set(0.3 + 0.7j, -1.1 + 0.2j)
        gs = counterexample_set(0.0, 0.0)
        profile = {"neq_f_04": (0, 4), "neq_f_40": (4, 0)}.get(name, (0, 0))
        return fs, gs, profile, 6
    rng = np.random.default_rng(41)
    shapes = {"a": (1, 1), "b": (1, 2), "c": (2, 1)}
    fs, gs = (
        {
            k: MixedTensor(3, l, r, rng.normal(size=3 ** (l + r)) + 1j * rng.normal(size=3 ** (l + r)))
            for k, (l, r) in shapes.items()
        }
        for _ in range(2)
    )
    if name == "wired":
        return fs, gs, (2, 2), 3
    return fs, closed_transform(3).act_set(fs), (0, 0), 4


def closed_transform(q):
    from holant.transforms import HoloTransform

    m = np.array([[1.0, 0.5j, 0.0], [0.25, -1.0, 0.5], [0.0, 1.0j, 2.0]])
    return HoloTransform(q, m[:q, :q])


@pytest.mark.parametrize("case", ["neq_f_04", "neq_f_40", "wired", "closed", "neq_f_closed"])
def test_span_checkers_equal_contracting_every_gadget(monkeypatch, case):
    from holant import transforms

    fs, gs, profile, bound = slot_order_case(case)
    bij = {k: k for k in fs}
    q = next(iter(fs.values())).q
    sig_shapes = sorted((k, t.shape) for k, t in fs.items())
    # the walk the span checkers take: up to port symmetry for the
    # counterexample pair, whose every binding is symmetric, and with
    # ordered ports for the random sets
    symmetric = tuple(fs) if case.startswith("neq_f") else ()
    if profile == (0, 0):
        grids = list(enumerate_grids(sig_shapes, bound, q, symmetric=symmetric))
    else:
        grids = list(enumerate_gadgets(sig_shapes, profile, bound, q, symmetric=symmetric))
    structures = {(g.vertices, g.edges) for g in grids}
    assert len(structures) < len(grids)
    if case.startswith("neq_f"):
        # classes of port permutations: 10 closed grids over 5 structures,
        # 11 (0,4) gadgets over 4 and 10 (4,0) gadgets over 3
        assert (len(grids), len(structures)) == {
            (0, 0): (10, 5), (0, 4): (11, 4), (4, 0): (10, 3)
        }[profile]

    # every signature byte under both binding sets, as check_covanishing
    # stacks them; a closed grid's loop copy takes its value from here.
    # derives is counted through both modules, so a call from inside
    # contraction would show
    targets = []
    real_derives = spans.derives

    def counted_derives(grid, target):
        targets.append(target)
        return real_derives(grid, target)

    with monkeypatch.context() as m:
        m.setattr(spans, "derives", counted_derives)
        m.setattr(contraction, "derives", counted_derives)
        got = list(spans.structure_signatures(grids, fs, gs))
    want = list(oracle_signatures(grids, fs, gs))
    assert [row[0] for row in got] == grids
    for k in (1, 2):
        assert [row[k].tobytes() for row in got] == [row[k].tobytes() for row in want]
    # derives runs once per grid after the first, and says yes for every
    # grid but the first of each structure
    assert targets == grids[1:]
    firsts = {}
    for row in got:
        first = firsts.setdefault((row[0].vertices, row[0].edges), row)
        for k in (1, 2):
            if row is first:
                assert not row[k].flags.writeable
            elif row[0].loops == first[0].loops:
                # another slot order: a read-only view of the run's array
                assert np.shares_memory(row[k], first[k])
                assert not row[k].flags.writeable

    # each structure is contracted once, for both binding sets together,
    # through the module attribute that perfbench's tracer wraps
    contracted = []
    real = spans.gadget_signature
    monkeypatch.setattr(
        spans, "gadget_signature", lambda g, *rest: contracted.append(g) or real(g, *rest)
    )

    def reports():
        """Each checker's report, with the contractions it made.  Closed
        reports are compared as their reprs, which are bitwise: a float's
        repr round-trips it, signed zeros included."""
        out = {}
        if profile == (0, 0):
            before = len(contracted)
            # F and T·F differ by rounding, so a tolerance lets the walk finish
            out["indistinguishable"] = repr(check_indistinguishable(fs, gs, bij, bound, 1e-8))
            out["theorem"] = repr(transforms.verify_holant_theorem(fs, closed_transform(q), bound))
            out["closed_contracted"] = len(contracted) - before
        before = len(contracted)
        span = build_span(fs, profile, bound)
        out["span_contracted"] = len(contracted) - before
        out["span"] = (
            span.gadgets_enumerated, span.witnesses, [b.array.tobytes() for b in span.basis]
        )
        before = len(contracted)
        cov = check_covanishing(fs, gs, bij, profile, bound)
        out["cov_contracted"] = len(contracted) - before
        out["cov"] = (
            cov.verdict, cov.structures_checked, cov.direction, cov.max_cross_residual,
            cov.witness and cov.witness.terms,
            *(w and w.array.tobytes() for w in (cov.witness_signature_f, cov.witness_signature_g)),
        )
        return out

    mine = reports()
    if profile == (0, 0):
        # check_indistinguishable makes one contraction per structure for
        # its two binding sets; verify_holant_theorem takes the spans
        # checkers' walk, since its F is symmetric where theirs is, and
        # replays it as one compiled block, in one call
        assert mine["closed_contracted"] == len(structures) + 1
    walked = grids[: mine["span"][0]]
    assert mine["span_contracted"] == len({(g.vertices, g.edges) for g in walked})
    assert mine["cov_contracted"] == len(structures)
    assert mine["cov"][:2] == (
        "covanishing_at_bound" if profile == (0, 0) else "counterexample", len(grids)
    )

    monkeypatch.setattr(spans, "structure_signatures", oracle_signatures)
    monkeypatch.setattr(transforms, "verify_holant_theorem", oracle_verify_holant_theorem)
    ref = reports()
    assert ref["span_contracted"] == 0  # the oracle calls contraction.gadget_signature
    for out in (mine, ref):
        for key in ("closed_contracted", "span_contracted", "cov_contracted"):
            out.pop(key, None)
    assert mine == ref


def batched_case(name):
    """(grids, three binding sets) for structure_signatures: gadgets with
    slot orders and bare wires at q = 3 and at q = 1, closed grids with
    their loop copies, and a closed family whose middle set binds one id
    to an exact equality where the others do not.  The last set carries
    signed zeros."""
    rng = np.random.default_rng(43)
    if name == "closed_equality":
        shapes, profile, bound, q = {"e": (0, 3), "a": (2, 0), "u": (1, 0)}, (0, 0), 4, 3
    elif name == "closed":
        shapes, profile, bound, q = {"a": (1, 1), "b": (1, 2), "c": (2, 1)}, (0, 0), 3, 3
    else:
        q = 1 if name == "gadgets_q1" else 3
        shapes, profile, bound = {"a": (1, 1), "b": (1, 2), "c": (2, 1)}, (2, 2), 2
    sets = []
    for k in range(3):
        b = {}
        for sig, (l, r) in shapes.items():
            x = rng.normal(size=q ** (l + r)) + 1j * rng.normal(size=q ** (l + r))
            if k == 2:
                x[::3] = complex(-0.0, -0.0)
                x[1::4] = complex(0.0, -0.0)
            b[sig] = MixedTensor(q, l, r, x)
        sets.append(b)
    if name == "closed_equality":
        sets[1]["e"] = equality_signature(q, 0, 3)
    sig_shapes = sorted(shapes.items())
    if profile == (0, 0):
        grids = list(enumerate_grids(sig_shapes, bound, q))
    else:
        grids = list(enumerate_gadgets(sig_shapes, profile, bound, q))
    return grids, sets


@pytest.mark.parametrize("name", ["gadgets", "gadgets_q1", "closed", "closed_equality"])
def test_batched_rows_equal_each_set_alone(name):
    grids, sets = batched_case(name)
    structures = {(g.vertices, g.edges) for g in grids}
    if name.startswith("gadgets"):
        assert len(structures) < len(grids)  # slot orders
        assert any(grids_module.WIRE_ID in g.vertices for g in grids)
    else:
        assert {g.loops for g in grids} == {0, 1}
    if name == "closed_equality":
        # only the middle set takes an elimination plan
        assert [b["e"].is_equality() for b in sets] == [False, True, False]
    got = list(spans.structure_signatures(grids, *sets))
    want = list(oracle_signatures(grids, *sets))
    assert [row[0] for row in got] == grids
    for mine, ref in zip(got, want):
        for a, b in zip(mine[1:], ref[1:]):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def replay_case(name):
    """(sig_shapes, bound, q, three binding sets) of a closed family: the
    same shapes at q = 1, 2 and 3, with the wire identity bound in the
    second set (the walk is over the first set's ids); every set binding
    one id to an exact equality (each structure eliminated); only the
    middle set doing so (mixed routes).  The last set carries signed
    zeros."""
    rng = np.random.default_rng(47)
    if name in ("equality", "mixed"):
        shapes, bound, q = {"e": (0, 3), "a": (2, 0), "u": (1, 0)}, 4, 3
    else:
        shapes, bound, q = {"a": (1, 1), "b": (1, 2), "c": (2, 1)}, 3, int(name[1])
    sets = []
    for k in range(3):
        b = {}
        for sig, (l, r) in shapes.items():
            x = rng.normal(size=q ** (l + r)) + 1j * rng.normal(size=q ** (l + r))
            if k == 2:
                x[::3] = complex(-0.0, -0.0)
                x[1::4] = complex(0.0, -0.0)
            b[sig] = MixedTensor(q, l, r, x)
        sets.append(b)
    sets[1]["wire"] = identity_signature(q)
    if name in ("equality", "mixed"):
        for k in (1,) if name == "mixed" else (0, 1, 2):
            sets[k]["e"] = equality_signature(q, 0, 3)
    return sorted(shapes.items()), bound, q, sets


def signature_bytes(rows):
    return [[(a.shape, a.dtype, a.tobytes()) for a in row[1:]] for row in rows]


@pytest.mark.parametrize("name", ["q1", "q2", "q3", "equality", "mixed"])
def test_family_replay_equals_cold_walk_and_oracle(monkeypatch, name):
    sig_shapes, bound, q, sets = replay_case(name)
    monkeypatch.setattr(spans, "_family", None)

    def replayed():
        [(block, values)] = spans.closed_signature_blocks(bound, *sets)
        assert not values.flags.writeable
        return tuple(block), values

    # the first call walks the family and compiles its program, the later
    # ones replay it; at q = 1 there is none, and every replay is run by run
    grids, first = replayed()
    _, family, program = spans._family
    assert {g.loops for g in grids} == {0, 1} and family == grids
    assert grids == tuple(enumerate_grids(sig_shapes, bound, q, symmetric=spans._symmetric_ids(sets[0])))
    want = signature_bytes(oracle_signatures(grids, *sets))
    cold = list(spans.structure_signatures(grids, *sets))
    assert signature_bytes(cold) == want
    cold_values = np.array([row[1:] for row in cold])
    assert first.tobytes() == cold_values.tobytes()
    assert program.runs == grids[::2] if q > 1 else program is None
    for _ in range(2):
        block, values = replayed()
        assert block == grids and values.tobytes() == cold_values.tobytes()
        assert spans._family[2] is program

    # later sets binding ids with other shapes fail as a cold walk of the
    # same grids fails
    swapped = sets[:1] + [
        dict(b, a=b["u"], u=b["a"]) if "u" in b else dict(b, a=b["b"], b=b["a"]) for b in sets[1:]
    ]
    with pytest.raises(ValueError) as refused:
        list(spans.closed_signature_blocks(bound, *swapped))
    with pytest.raises(ValueError) as alone:
        list(spans.structure_signatures(grids, *swapped))
    assert str(refused.value) == str(alone.value) and spans._family[2] is program
    # a family over the memo cap streams, replayed run by run in blocks
    # of the cap; an odd block size splits some structure's loop-0 and
    # loop-1 grids across two blocks
    odd = len(grids) // 3 | 1
    for cap in (odd, odd + 1):
        monkeypatch.setattr(spans, "FAMILY_MEMO_MAX_GRIDS", cap)
        monkeypatch.setattr(spans, "_family", None)
        blocks = list(spans.closed_signature_blocks(bound, *sets))
        assert spans._family is None
        assert len(blocks) == -(-len(grids) // cap)
        assert [g for block, _ in blocks for g in block] == list(grids)
        assert np.concatenate([v for _, v in blocks]).tobytes() == cold_values.tobytes()


def test_closed_walk_over_the_cap_streams_in_blocks(monkeypatch):
    # a checker's closed walk over the cap stores nothing, so each query
    # enumerates it again, and its replay comes in blocks of the cap
    rng = np.random.default_rng(71)
    fs = {"a": MixedTensor(2, 1, 1, rng.normal(size=4)), "b": MixedTensor(2, 2, 2, rng.normal(size=16))}
    t = HoloTransform(2, np.array([[1.0, 0.5], [0.25, -1.0]]))
    monkeypatch.setattr(spans, "_family", None)
    want = verify_holant_theorem(fs, t, 3)
    assert spans._family[0][1] == 3 and len(spans._family[1]) == want.grids_checked
    cap = want.grids_checked // 4
    monkeypatch.setattr(spans, "FAMILY_MEMO_MAX_GRIDS", cap)
    monkeypatch.setattr(spans, "_family", None)
    walks, sizes = [], []
    real_walk, real_blocks = spans.enumerate_grids, spans.closed_signature_blocks

    def blocks(*args):
        for block, values in real_blocks(*args):
            sizes.append(len(block))
            yield block, values

    monkeypatch.setattr(spans, "enumerate_grids", lambda *a, **k: walks.append(a) or real_walk(*a, **k))
    monkeypatch.setattr(transforms_module, "closed_signature_blocks", blocks)
    for k in (1, 2):
        assert verify_holant_theorem(fs, t, 3) == want
        assert spans._family is None and len(walks) == k
    per_query = -(-want.grids_checked // cap)
    assert len(sizes) == 2 * per_query and sum(sizes) == 2 * want.grids_checked
    assert sizes[: per_query - 1] == [cap] * (per_query - 1) and sizes[:per_query] == sizes[per_query:]


# -- early stops ------------------------------------------------------------------


def pulled_grids(monkeypatch):
    """Every closed grid that walks through spans.enumerate_grids hand
    out from here on, in order."""
    pulled = []
    real = spans.enumerate_grids

    def counted(*args, **kwargs):
        for g in real(*args, **kwargs):
            pulled.append(g)
            yield g

    monkeypatch.setattr(spans, "enumerate_grids", counted)
    return pulled


def test_early_witness_stops_the_closed_walk(monkeypatch):
    # the arity-4 counterexample against a copy with f[0,0,1,1] moved by
    # 1e-3: G is not symmetric, so the walk takes ordered ports, 1754
    # grids at bound 6, and the seventh tells the sets apart
    fs = counterexample_set(0.0, 0.0)
    arr = fs["f"].array.copy()
    arr[0, 0, 1, 1] += 1e-3
    gs = dict(fs, f=MixedTensor(2, 0, 4, arr))
    pulled = pulled_grids(monkeypatch)
    report = check_indistinguishable(fs, gs, {"neq": "neq", "f": "f"}, 6)
    assert (report.verdict, report.grids_checked) == ("distinguished", 7)
    assert len(pulled) <= 7 and report.witness_grid is pulled[-1]


def test_closed_span_stops_at_its_first_vertex_grid(monkeypatch):
    # a (0,0) span has dimension 1, full at the first vertex-bearing grid
    # of nonzero value: gram_nondegenerate reads no grid past it
    rng = np.random.default_rng(83)
    f = MixedTensor(2, 0, 4, rng.normal(size=16) + 1j * rng.normal(size=16))
    fs = {"neq": disequality_signature(2, 2, 0), "f": f}
    walk = enumerate_grids(sorted((k, t.shape) for k, t in fs.items()), 6, 2)
    first = next(i for i, g in enumerate(walk) if g.vertices)
    pulled = pulled_grids(monkeypatch)
    report = gram_nondegenerate(fs, (0, 0), 6)
    assert (report.verdict, report.dim) == ("nonvanishing_at_bound", 1)
    assert len(pulled) == first + 1 and pulled[-1].vertices


def test_only_the_theorem_keeps_a_closed_family(monkeypatch):
    # build_span, gram_nondegenerate, check_indistinguishable and
    # check_covanishing at (0,0) leave the stored family as it was: none,
    # or the theorem's family of the same shapes, bound and q
    fs = counterexample_set(0.5, -2.0)
    gs = counterexample_set(0.0, 0.0)
    bij = {"neq": "neq", "f": "f"}
    t = HoloTransform(2, np.array([[1.0, 0.5], [0.25, -1.0]]))
    checkers = [
        lambda: build_span(fs, (0, 0), 4),
        lambda: gram_nondegenerate(fs, (0, 0), 4),
        lambda: check_indistinguishable(fs, gs, bij, 4),
        lambda: check_covanishing(fs, gs, bij, (0, 0), 4),
    ]
    monkeypatch.setattr(spans, "_family", None)
    for theorem_first in (False, True):
        if theorem_first:
            verify_holant_theorem(fs, t, 4)
        stored = spans._family
        assert (stored is None) != theorem_first
        for check in checkers:
            check()
            assert spans._family is stored
