"""The walk up to port symmetry: one grid per class of port permutations.

Oracles: oracle_port_class, the class of a grid by brute force over
same-id relabelings with ports forgotten, counts the classes of the
ordered-port walk; the library's contraction values every grid of a
class alike.  Sets outside the selection rule keep the ordered walk,
report for report.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holant import contraction, spans
from holant.contraction import gadget_signature
from holant.grids import enumerate_gadgets, enumerate_grids
from holant.spans import build_span, check_covanishing, check_indistinguishable, gram_nondegenerate
from holant.tensors import (
    MixedTensor,
    SymBoolSignature,
    disequality_signature,
)
from holant.transforms import HoloTransform, verify_holant_theorem
from oracles import oracle_port_class

ROOT = Path(__file__).resolve().parents[1]
COUNTEREXAMPLE = [("f", (0, 4)), ("neq", (2, 0))]


def counterexample_set(a, b):
    f = SymBoolSignature((a, b, 1.0, 0.0, 0.0), 0, 4).to_tensor()
    return {"neq": disequality_signature(2, 2, 0), "f": f}


def walk(sigs, profile, bound, q, symmetric):
    if profile == (0, 0):
        return list(enumerate_grids(sigs, bound, q, symmetric=symmetric))
    return list(enumerate_gadgets(sigs, profile, bound, q, symmetric=symmetric))


@pytest.mark.parametrize("profile, count", [((0, 0), 10), ((0, 4), 11), ((4, 0), 10)])
def test_counterexample_class_counts_match_the_oracle(profile, count):
    ordered = walk(COUNTEREXAMPLE, profile, 6, 2, ())
    classes = walk(COUNTEREXAMPLE, profile, 6, 2, ("f", "neq"))
    assert len(ordered) == {(0, 0): 1754, (0, 4): 9816, (4, 0): 1548}[profile]
    keys = [oracle_port_class(g) for g in classes]
    assert len(classes) == len(set(keys)) == count
    assert set(keys) == {oracle_port_class(g) for g in ordered}


def symmetric_tensor(rng, q, l, r):
    """A random tensor whose entries depend on the sorted left indices
    and the sorted right indices only: bitwise symmetric."""
    table = {}
    arr = np.empty((q,) * (l + r), dtype=np.complex128)
    for idx in np.ndindex(*arr.shape):
        key = (tuple(sorted(idx[:l])), tuple(sorted(idx[l:])))
        if key not in table:
            table[key] = complex(rng.normal(), rng.normal())
        arr[idx] = table[key]
    return MixedTensor(q, l, r, arr)


@st.composite
def symmetric_cases(draw):
    """Symmetric sets at q = 2 or 3 with groups of at most 3 ports: an id
    with more left ports than right, one with more right than left, so
    that closed grids exist, and maybe a third; bounds up to 4."""
    shapes = [
        draw(st.sampled_from([(1, 0), (2, 0), (3, 0), (2, 1)])),
        draw(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2)])),
    ]
    shapes += draw(st.lists(st.sampled_from([(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)]), max_size=1))
    if max(max(sh) for sh in shapes) < 2:
        shapes.append((0, 2))  # a group of two, so the rule selects the walk
    q = draw(st.sampled_from([2, 3]))
    bound = draw(st.integers(1, 4))
    profile = draw(st.sampled_from([(0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = {f"s{k}": symmetric_tensor(rng, q, l, r) for k, (l, r) in enumerate(shapes)}
    return fs, profile, bound


@settings(max_examples=40, deadline=None)
@given(case=symmetric_cases())
def test_every_ordered_grid_has_its_class_value(case):
    fs, profile, bound = case
    assert all(t.is_symmetric() for t in fs.values())
    q = next(iter(fs.values())).q
    sigs = sorted((k, t.shape) for k, t in fs.items())
    classes = walk(sigs, profile, bound, q, tuple(fs))
    value = {}
    for g in classes:
        value.setdefault(oracle_port_class(g), gadget_signature(g, fs).array)
    assert len(value) == len(classes)
    ordered = walk(sigs, profile, bound, q, ())
    assert {oracle_port_class(g) for g in ordered} == set(value)
    for g in ordered:
        want = value[oracle_port_class(g)]
        got = gadget_signature(g, fs).array
        assert np.abs(got - want).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(want).max(initial=0.0))


def test_closed_family_memo_keys_on_the_port_walk(monkeypatch):
    # verify_holant_theorem walks classes over the symmetric F, and
    # ordered ports over G of the same shapes, which is not symmetric;
    # neither replays the other's family.  check_indistinguishable walks
    # ordered ports since G is not symmetric, and keeps no family
    fs = counterexample_set(0.5, -2.0)
    arr = fs["f"].array.copy()
    arr[0, 0, 1, 1] += 1e-3
    gs = dict(fs, f=MixedTensor(2, 0, 4, arr))
    t = HoloTransform(2, np.array([[1.0, 0.5], [0.25, -1.0]]))
    monkeypatch.setattr(spans, "_family", None)
    for theorem_set, grids_checked, walked_by_class in ((fs, 4, ("f", "neq")), (gs, 26, ()), (fs, 4, ("f", "neq"))):
        assert verify_holant_theorem(theorem_set, t, 4).grids_checked == grids_checked
        stored = spans._family
        assert stored[0][3] == walked_by_class and len(stored[1]) == grids_checked
        # a tolerance wide enough that the walk runs to its end
        report = check_indistinguishable(fs, gs, {"neq": "neq", "f": "f"}, 4, 1.0)
        assert (report.verdict, report.grids_checked) == ("indistinguishable_at_bound", 26)
        assert spans._family is stored


def random_tensor(rng, q, l, r):
    return MixedTensor(q, l, r, rng.normal(size=q ** (l + r)) + 1j * rng.normal(size=q ** (l + r)))


def selection_case(name):
    """(fs, gs, span profile or None): sets the rule leaves on ordered ports."""
    rng = np.random.default_rng(5)
    if name == "matrix":
        # every (1,1) tensor is symmetric, but no group has two ports
        fs = {"m": random_tensor(rng, 3, 1, 1)}
        return fs, HoloTransform(3, np.eye(3) + 0.5 * np.eye(3, k=1)).act_set(fs), (1, 1)
    if name == "asymmetric":
        # one (2,1) id is asymmetric, the other id symmetric
        fs = {"a": random_tensor(rng, 2, 2, 1), "b": symmetric_tensor(rng, 2, 1, 2)}
        assert not fs["a"].is_symmetric() and fs["b"].is_symmetric()
        return fs, {"a": fs["a"] * 1.5, "b": fs["b"]}, (1, 1)
    # F symmetric, G not: one entry of G's f moved off its weight class
    fs = counterexample_set(1.0, 1.0)
    arr = fs["f"].array.copy()
    arr[0, 0, 1, 1] += 1e-3
    gs = dict(fs, f=MixedTensor(2, 0, 4, arr))
    assert fs["f"].is_symmetric() and not gs["f"].is_symmetric()
    return fs, gs, None


@pytest.mark.parametrize("name", ["matrix", "asymmetric", "g_asymmetric"])
def test_sets_outside_the_rule_keep_the_ordered_walk(monkeypatch, name):
    fs, gs, span_profile = selection_case(name)
    bij = {k: k for k in fs}

    def reports():
        out = [repr(check_indistinguishable(fs, gs, bij, 4, 1e-8))]
        if span_profile is None:
            cov = check_covanishing(fs, gs, bij, (0, 2), 4)
            out.append((repr(cov.witness), cov.max_cross_residual, cov.structures_checked))
        else:
            span = build_span(fs, span_profile, 3)
            out.append((span.gadgets_enumerated, span.witnesses, [b.array.tobytes() for b in span.basis]))
        return out

    mine = reports()
    monkeypatch.setattr(spans, "_symmetric_ids", lambda *sets: ())
    assert mine == reports()


@pytest.mark.parametrize("seed", range(4))
def test_spans_checkers_agree_on_both_walks(monkeypatch, seed):
    # {neq, f, h} bound symmetrically on both sides: every checker walks
    # one grid or gadget per port class, and with spans._symmetric_ids
    # forced empty it walks ordered ports.  Verdicts and span dims are
    # the same (the module docstring of holant.spans says why); counts,
    # bases and witnesses may differ
    rng = np.random.default_rng(seed)
    fs = {
        "neq": disequality_signature(2, 2, 0),
        "f": symmetric_tensor(rng, 2, 0, 4),
        "h": symmetric_tensor(rng, 2, 2, 0),
    }
    gs = dict(fs, f=symmetric_tensor(rng, 2, 0, 4))
    bij = {k: k for k in fs}
    bound = 3 + seed % 2
    assert spans._symmetric_ids(fs, gs) == tuple(fs)

    def verdicts():
        out = []
        for other in (fs, gs):
            out.append(check_indistinguishable(fs, other, bij, bound, 1e-8).verdict)
            out += [check_covanishing(fs, other, bij, p, bound).verdict for p in [(0, 0), (0, 2), (2, 0), (1, 1)]]
        for profile in [(0, 0), (0, 2), (2, 0), (1, 1)]:
            gram = gram_nondegenerate(fs, profile, bound)
            out.append((build_span(fs, profile, bound).dim, gram.verdict, gram.dim, gram.dim_dual, gram.rank))
        return out

    classes = verdicts()
    assert {"distinguished", "counterexample"} <= set(classes)
    monkeypatch.setattr(spans, "_symmetric_ids", lambda *sets: ())
    assert verdicts() == classes


def test_random_closed_sets_still_check_600_grids():
    # closed-invariance's shapes at q = 3, bound 4, under F and T·F
    rng = np.random.default_rng(9)
    shapes = {"s0": (1, 1), "s1": (2, 1), "s2": (1, 2)}
    fs = {k: random_tensor(rng, 3, l, r) for k, (l, r) in shapes.items()}
    t = HoloTransform(3, np.eye(3) + 0.5 * np.eye(3, k=1))
    assert verify_holant_theorem(fs, t, 4).grids_checked == 600
    report = check_indistinguishable(fs, t.act_set(fs), {k: k for k in fs}, 4, 1e-8)
    assert report.grids_checked == 600


def test_walk_needs_every_id_symmetric_and_a_group_of_two():
    sigs = [("a", (1, 1)), ("e", (2, 0)), ("d", (0, 2))]
    ordered = walk(sigs, (0, 0), 3, 2, ())
    assert walk(sigs, (0, 0), 3, 2, ("a", "e")) == ordered
    assert len(walk(sigs, (0, 0), 3, 2, ("a", "d", "e"))) < len(ordered)
    # (1,1) ids alone have no group to permute
    assert walk([("a", (1, 1))], (1, 1), 3, 2, ("a",)) == walk([("a", (1, 1))], (1, 1), 3, 2, ())


def test_slot_orders_of_a_matrix_share_its_edges():
    # structure_signatures contracts the first of a run and derives the
    # rest, so every slot order of one matrix must follow it with equal
    # vertices, edges and stub multisets
    gadgets = walk(COUNTEREXAMPLE, (4, 0), 6, 2, ("f", "neq"))
    runs = []
    for g in gadgets:
        if runs and contraction.derives(runs[-1][0], g):
            runs[-1].append(g)
        else:
            runs.append([g])
    assert [len(r) for r in runs] == [3, 6, 1]
    assert len({(r[0].vertices, r[0].edges) for r in runs}) == len(runs)


def test_counterexample_covanishing_at_bound_6():
    fs, gs = counterexample_set(1.0, 1.0), counterexample_set(0.0, 0.0)
    bij = {"neq": "neq", "f": "f"}
    closed = check_covanishing(fs, gs, bij, (0, 0), 6)
    assert (closed.verdict, closed.structures_checked) == ("covanishing_at_bound", 10)
    report = check_covanishing(fs, gs, bij, (0, 4), 6)
    assert (report.verdict, report.structures_checked) == ("counterexample", 11)
    small, large = report.witness_signature_g, report.witness_signature_f
    assert report.direction == "second"
    assert small.norm() < 1e-6 < large.norm()
    assert report.witness.signature(fs).allclose(large, 1e-9)


def test_import_does_not_load_the_class_walk():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, holant; print('holant.portclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
