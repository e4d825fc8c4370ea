"""End-to-end command line checks: exit codes, JSON reports, witnesses.

main() is invoked in-process; every report must parse as JSON and carry
a verdict field.
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holant.cli import main
from holant.serialize import (
    dumps,
    gadget_from_obj,
    graph_to_obj,
    grid_from_obj,
    grid_to_obj,
    sigset_to_obj,
    signature_from_obj,
    transform_to_obj,
)
from holant.contraction import holant_eval_contracted
from holant.grids import SignatureGrid
from holant.homgraphs import complete_graph, cycle_graph, hom_grid
from holant.tensors import (
    MixedTensor,
    SymBoolSignature,
    disequality_signature,
    equality_signature,
    identity_signature,
)
from holant.transforms import HoloTransform
from oracles import brute_holant_eval


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


@pytest.fixture
def counterexample_files(tmp_path):
    neq = disequality_signature(2, 2, 0)
    fs = {"neq": neq, "f": SymBoolSignature((1.0, 1.0, 1.0, 0, 0), 0, 4)}
    gs = {"neq": neq, "f": SymBoolSignature((0.0, 0.0, 1.0, 0, 0), 0, 4)}
    return (
        write(tmp_path, "f.json", sigset_to_obj(fs)),
        write(tmp_path, "g.json", sigset_to_obj(gs)),
        write(tmp_path, "bij.json", {"neq": "neq", "f": "f"}),
    )


def test_eval_vertexless_loop(capsys, tmp_path):
    grid = write(
        tmp_path,
        "loop.json",
        {"q": 3, "loops": 1, "vertices": [], "edges": [], "left_dangling": [], "right_dangling": []},
    )
    sigs = write(tmp_path, "empty.json", {})
    code, rep = run(capsys, ["eval", grid, "--sigs", sigs])
    assert code == 0
    assert rep["verdict"] == "ok"
    assert rep["value"] == [3.0, 0.0]


def test_eval_methods_agree(capsys, tmp_path):
    # eval against the brute evaluator on the same grid and bindings
    x = cycle_graph(4)
    bindings = {
        "eq2": equality_signature(2, 2, 0),
        "A": MixedTensor(2, 0, 2, complete_graph(2).adjacency()),
    }
    grid = write(tmp_path, "grid.json", grid_to_obj(hom_grid(x, 2)))
    sigs = write(tmp_path, "sigs.json", sigset_to_obj(bindings))
    code, rep = run(capsys, ["eval", grid, "--sigs", sigs])
    want = brute_holant_eval(hom_grid(x, 2), bindings)
    assert code == 0
    assert rep == {"q": 2, "value": [want.real, want.imag], "verdict": "ok"}
    assert rep["value"] == [2.0, 0.0]


def test_missing_binding_named_does_not_depend_on_hashing(tmp_path):
    # three vertices with no bindings: the first in vertex order is named,
    # under every string hash seed
    grid = write(
        tmp_path,
        "grid.json",
        {"q": 2, "vertices": [{"sig": "c"}, {"sig": "a"}, {"sig": "b"}],
         "edges": [[0, 1, 0, 1], [1, 1, 1, 1], [2, 1, 2, 1]]},
    )
    sigs = write(tmp_path, "empty.json", {})
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "holant.cli", "eval", grid, "--sigs", sigs],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "missing binding for signature 'c'" in proc.stderr


def shared_index_grid(k, q):
    """A closed grid whose k index classes are pairwise joined.

    One (0,2) "t" per pair of classes holds those two; each class is a
    ring of k - 1 (2,1) equalities "e", each handing its first left port
    to a t.  Summing out any class leaves a tensor over the k - 1 others.
    """
    pairs = list(itertools.combinations(range(k), 2))
    vertices = ["t"] * len(pairs)
    ports = {c: [] for c in range(k)}
    for p, (a, b) in enumerate(pairs):
        ports[a].append((p, 1))
        ports[b].append((p, 2))
    edges = []
    for c in range(k):
        ring = list(range(len(vertices), len(vertices) + k - 1))
        vertices += ["e"] * (k - 1)
        for s, v in enumerate(ring):
            edges.append((v, 1, *ports[c][s]))
            edges.append((v, 2, ring[(s + 1) % (k - 1)], 1))
    return SignatureGrid(q, tuple(vertices), tuple(edges)), pairs


def test_elimination_over_the_entry_cap_exits_2(capsys, tmp_path):
    rng = np.random.default_rng(5)
    # at k = 4 and q = 2 the grid is the sum over the classes' values of
    # the product of t over every pair
    grid, pairs = shared_index_grid(4, 2)
    t = rng.standard_normal((2, 2))
    sigs = {"e": equality_signature(2, 2, 1), "t": MixedTensor(2, 0, 2, t)}
    want = sum(
        np.prod([t[x[a], x[b]] for a, b in pairs]) for x in itertools.product(range(2), repeat=4)
    )
    assert holant_eval_contracted(grid, sigs) == pytest.approx(want, rel=1e-12)
    # at k = 8 and q = 16 every class leaves 7 others: 16**7 entries
    grid, _ = shared_index_grid(8, 16)
    sigs = {"e": equality_signature(16, 2, 1), "t": MixedTensor(16, 0, 2, rng.standard_normal((16, 16)))}
    message = f"intermediate tensor of {16**7} entries exceeds the cap"
    with pytest.raises(ValueError, match=f"^{message}$"):
        holant_eval_contracted(grid, sigs)
    grid_file = write(tmp_path, "grid.json", grid_to_obj(grid))
    sigs_file = write(tmp_path, "sigs.json", sigset_to_obj(sigs))
    assert main(["eval", grid_file, "--sigs", sigs_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"holant: {message}\n"


def test_eval_rejects_open_grid(capsys, tmp_path):
    grid = write(
        tmp_path,
        "open.json",
        {"q": 2, "loops": 0, "vertices": [{"sig": "u"}], "edges": [],
         "left_dangling": [], "right_dangling": [[0, 1]]},
    )
    sigs = write(tmp_path, "sigs.json", sigset_to_obj({"u": MixedTensor(2, 0, 1, [1, 1])}))
    assert main(["eval", grid, "--sigs", sigs]) == 2
    assert "closed" in capsys.readouterr().err


def test_poly_rejects_open_grid(capsys, tmp_path):
    # "u" reads as (1,2) at vertex 0, its stub counted, and (0,1) at
    # vertex 1, but the fault is the stub, as eval names it
    grid = write(
        tmp_path,
        "open.json",
        {"q": 2, "vertices": [{"sig": "u"}, {"sig": "u"}], "edges": [[0, 1, 1, 1]],
         "left_dangling": [], "right_dangling": [[0, 2]]},
    )
    assert main(["poly", grid]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "holant: poly needs a closed grid (no dangling ports)\n")


def test_malformed_json_gives_position(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", "{\"q\": 2,,}")
    sigs = write(tmp_path, "sigs.json", {})
    assert main(["eval", bad, "--sigs", sigs]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


ONE_LOOP = {"q": 2, "vertices": [{"sig": "a"}], "edges": [[0, 1, 0, 1]]}


@pytest.mark.parametrize("command", ["eval", "poly"])
@pytest.mark.parametrize(
    "grid_obj",
    [
        [1, 2],
        {**ONE_LOOP, "edges": [[0, 1, 0]]},
        {**ONE_LOOP, "edges": [[0, 9, 0, 1]]},
        {**ONE_LOOP, "edges": [[5, 1, 0, 1]]},
        {**ONE_LOOP, "q": "x"},
    ],
    ids=[
        "bare-list",
        "three-entry-edge",
        "port-out-of-range",
        "vertex-out-of-range",
        "q-not-a-number",
    ],
)
def test_malformed_grid_exits_2_without_traceback(capsys, tmp_path, command, grid_obj):
    grid = write(tmp_path, "grid.json", grid_obj)
    sigs = write(tmp_path, "sigs.json", sigset_to_obj({"a": MixedTensor(2, 1, 1, np.eye(2))}))
    argv = [command, grid] + (["--sigs", sigs] if command == "eval" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("holant: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, obj",
    [
        ("hom", [1, 2]),
        ("hom", {"n": 2, "edges": [[0, 1, 0]]}),
        ("hom", {"n": 2, "edges": [[0, 5]]}),
        ("hom", {"n": "x"}),
        ("homdist", [1, 2]),
        ("homdist", {"n": 2, "edges": 5}),
        ("transform", [1, 2]),
        ("transform", {"q": 2}),
        ("transform", {"q": 2, "matrix": [[1, 2]]}),
        ("transform", {"q": 2, "matrix": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}),
    ],
    ids=[
        "hom-bare-list",
        "hom-three-entry-edge",
        "hom-vertex-out-of-range",
        "hom-n-not-a-number",
        "homdist-bare-list",
        "homdist-edges-not-a-list",
        "transform-bare-list",
        "transform-missing-matrix",
        "transform-entry-not-a-pair",
        "transform-singular",
    ],
)
def test_malformed_graph_or_transform_exits_2_without_traceback(capsys, tmp_path, command, obj):
    bad = write(tmp_path, "bad.json", obj)
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    sigs = write(tmp_path, "sigs.json", sigset_to_obj({"a": MixedTensor(2, 1, 1, np.eye(2))}))
    argv = {
        "hom": ["hom", "--x", bad, "--g", k3],
        "homdist": ["homdist", "--f", k3, "--g", bad, "--max-degree", "2", "--max-vertices", "2"],
        "transform": ["transform", "--sigs", sigs, "--matrix", bad],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("holant: ") and "Traceback" not in err


def test_missing_file(capsys, tmp_path):
    sigs = write(tmp_path, "sigs.json", {})
    assert main(["eval", str(tmp_path / "nope.json"), "--sigs", sigs]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys, tmp_path):
    assert main(["eval", "x.json", "--sigs", "y.json", "--frobnicate"]) == 2
    assert capsys.readouterr().err == "holant: unrecognized arguments: --frobnicate\n"


def test_negative_profile_exits_2(capsys, tmp_path):
    sigs = write(tmp_path, "s.json", sigset_to_obj({"s": MixedTensor(2, 1, 2, np.ones(8))}))
    assert main(["vanishing", "--sigs", sigs, "--profile=-1,2", "--max-vertices", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "holant: argument --profile: profile entries must be nonnegative\n"


def test_poly_expansion(capsys, tmp_path):
    grid = write(
        tmp_path,
        "poly.json",
        {"q": 2, "loops": 0,
         "vertices": [{"sig": "x"}, {"sig": "y"}, {"sig": "y"}],
         "edges": [[1, 1, 0, 1], [2, 1, 0, 2]],
         "left_dangling": [], "right_dangling": []},
    )
    code, rep = run(capsys, ["poly", grid])
    assert code == 0
    assert rep["num_monomials"] == 4
    coeffs = {tuple(tuple((s, tuple(i))) for s, i in m["factors"]): m["coeff"] for m in rep["monomials"]}
    assert all(c == [1.0, 0.0] for c in coeffs.values())


def test_hom_and_homdist(capsys, tmp_path):
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    k4 = write(tmp_path, "k4.json", graph_to_obj(complete_graph(4)))
    c4 = write(tmp_path, "c4.json", graph_to_obj(cycle_graph(4)))
    code, rep = run(capsys, ["hom", "--x", k3, "--g", k3])
    assert (code, rep) == (0, {"count": 6, "verdict": "ok"})

    code, rep = run(capsys, ["homdist", "--f", k4, "--g", c4, "--max-degree", "3", "--max-vertices", "3"])
    assert code == 1
    assert rep["verdict"] == "distinguished"
    assert rep["count_f"] != rep["count_g"]
    assert rep["distinguisher"]["n"] <= 3

    c4b = write(tmp_path, "c4b.json", graph_to_obj(cycle_graph(4).relabel([2, 0, 3, 1])))
    code, rep = run(capsys, ["homdist", "--f", c4, "--g", c4b, "--max-degree", "2", "--max-vertices", "4"])
    assert code == 0
    assert rep["verdict"] == "indist_at_bound"


def test_transform_with_inverse_check(capsys, tmp_path):
    sigs = write(
        tmp_path, "sigs.json", sigset_to_obj({"eq": equality_signature(2, 1, 1)})
    )
    mat = write(
        tmp_path,
        "t.json",
        transform_to_obj(HoloTransform(2, np.array([[1.0, 1.0], [0.0, 1.0]]))),
    )
    code, rep = run(capsys, ["transform", "--sigs", sigs, "--matrix", mat, "--inverse-check"])
    assert code == 0
    assert rep["inverse_round_trip"] is True
    moved = signature_from_obj(rep["signatures"]["eq"])
    assert moved.shape == (1, 1)


def test_check_indist_pass_and_witness(capsys, tmp_path, counterexample_files):
    f, g, bij = counterexample_files
    code, rep = run(capsys, ["check-indist", "--f", f, "--g", g, "--bijection", bij, "--max-vertices", "4"])
    assert code == 0
    assert rep["verdict"] == "indistinguishable_at_bound"
    assert rep["max_difference"] == 0.0

    # a genuinely different pair: scaled equality against equality
    fs = {"e": equality_signature(2, 1, 1)}
    gs = {"e": 2.0 * equality_signature(2, 1, 1)}
    f2 = write(tmp_path, "f2.json", sigset_to_obj(fs))
    g2 = write(tmp_path, "g2.json", sigset_to_obj(gs))
    bij2 = write(tmp_path, "bij2.json", {"e": "e"})
    code, rep = run(capsys, ["check-indist", "--f", f2, "--g", g2, "--bijection", bij2, "--max-vertices", "3"])
    assert code == 1
    assert rep["verdict"] == "distinguished"
    # the witness grid replays: the brute evaluator, under both bindings,
    # reproduces the reported values
    witness = grid_from_obj(rep["witness_grid"])
    vf = brute_holant_eval(witness, {"e": fs["e"]})
    vg = brute_holant_eval(witness, {"e": gs["e"]})
    assert [vf.real, vf.imag] == rep["value_f"]
    assert [vg.real, vg.imag] == rep["value_g"]
    assert vf != vg


def test_vanishing_verdicts_and_witness_replay(capsys, tmp_path):
    lonely = write(
        tmp_path, "iso.json", sigset_to_obj({"u": MixedTensor(2, 0, 1, [1, 1j])})
    )
    code, rep = run(capsys, ["vanishing", "--sigs", lonely, "--profile", "0,1", "--max-vertices", "2"])
    assert code == 1
    assert rep["verdict"] == "vanishing_witness"
    gadget = gadget_from_obj(rep["witness"])
    sig = gadget.signature({"u": MixedTensor(2, 0, 1, [1, 1j])})
    reported = signature_from_obj(rep["witness_signature"])
    assert sig.allclose(reported, tol=1e-9)

    good = write(tmp_path, "eq.json", sigset_to_obj({"eq": equality_signature(2, 1, 1)}))
    code, rep = run(capsys, ["vanishing", "--sigs", good, "--profile", "1,1", "--max-vertices", "2"])
    assert code == 0
    assert rep["verdict"] == "nonvanishing_at_bound"
    assert rep["rank"] == rep["dim"]


def test_simsim_round_trip_and_mismatch(capsys, tmp_path):
    rng = np.random.default_rng(97)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    s = rng.normal(size=(3, 3))
    while np.linalg.cond(s) > 1e3:
        s = rng.normal(size=(3, 3))
    s_inv = np.linalg.inv(s)
    fs = {"a": MixedTensor.from_matrix(a), "b": MixedTensor.from_matrix(b)}
    gs = {"a": MixedTensor.from_matrix(s @ a @ s_inv), "b": MixedTensor.from_matrix(s @ b @ s_inv)}
    f = write(tmp_path, "f.json", sigset_to_obj(fs))
    g = write(tmp_path, "g.json", sigset_to_obj(gs))
    code, rep = run(capsys, ["simsim", "--f", f, "--g", g])
    assert code == 0
    assert rep["verdict"] == "similar"
    assert rep["residual"] <= 1e-6
    # the returned transform conjugates f onto g
    t = np.array([[complex(re, im) for re, im in row] for row in rep["transform"]["matrix"]])
    t_inv = np.linalg.inv(t)
    assert np.linalg.norm(t @ a @ t_inv - s @ a @ s_inv) <= 1e-6 * (1 + np.linalg.norm(a))

    f2 = write(tmp_path, "f2.json", sigset_to_obj({"m": MixedTensor.from_matrix(np.diag([1.0, 2.0]))}))
    g2 = write(tmp_path, "g2.json", sigset_to_obj({"m": MixedTensor.from_matrix(np.diag([1.0, 3.0]))}))
    code, rep = run(capsys, ["simsim", "--f", f2, "--g", g2])
    assert code == 1
    assert rep["verdict"] == "trace_mismatch"
    assert rep["witness"]["word"] == ["m"]

    bad = write(tmp_path, "bad.json", sigset_to_obj({"m": equality_signature(2, 2, 0)}))
    assert main(["simsim", "--f", bad, "--g", g2]) == 2
    assert "(1,1)" in capsys.readouterr().err


def test_simsim_names_a_non_finite_entry(capsys, tmp_path):
    # before, the NaN reached a vector norm: "vector norm nan is not finite"
    f = write(tmp_path, "f.json", sigset_to_obj({"m": MixedTensor.from_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))}))
    text = dumps(sigset_to_obj({"m": MixedTensor.from_matrix(np.array([[7.0, 2.0], [3.0, 4.0]]))}))
    g = write(tmp_path, "g.json", text.replace("[[7.0,0.0]", "[[NaN,0.0]", 1))
    for argv, side in ((["--f", f, "--g", g], "g"), (["--f", g, "--g", f], "f")):
        assert main(["simsim", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"holant: {side}['m'] has a non-finite entry\n"


def test_counterexample_command(capsys):
    code, rep = run(capsys, ["counterexample", "--a", "1,0", "--b", "1", "--eps", "0.1"])
    assert code == 0
    assert rep["verdict"] == "ok"
    assert rep["disequality_fixed"] is True
    assert rep["distance"] == pytest.approx(rep["expected_distance"], rel=1e-9)
    assert main(["counterexample", "--a", "1", "--b", "1", "--eps", "-1"]) == 2


def test_selftest_passes(capsys):
    code, rep = run(capsys, ["selftest"])
    assert code == 0
    assert rep["verdict"] == "pass"
    names = {f["name"] for f in rep["fixtures"]}
    assert len(names) == 5
    assert all(f["verdict"] == "pass" for f in rep["fixtures"])


def test_reports_are_byte_identical(capsys, tmp_path):
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    main(["hom", "--x", k3, "--g", k3])
    first = capsys.readouterr().out
    main(["hom", "--x", k3, "--g", k3])
    assert capsys.readouterr().out == first


# Each command's report keys, sorted: a report is its library report's
# fields with the None ones left out, so a field added to a report
# dataclass, or a None field kept, shows here
CHECK_KEYS = ["grids_checked", "max_difference", "max_vertices", "verdict"]
GRAM_KEYS = ["dim", "dim_dual", "max_pairing_residual", "max_vertices", "profile", "rank",
             "singular_values", "verdict"]
HOMDIST_KEYS = ["graphs_checked", "max_degree", "max_vertices", "verdict"]
TRANSFORM_KEYS = ["q", "signatures", "verdict"]
REPORT_KEYS = [
    ("eval", "ok", ["q", "value", "verdict"]),
    ("poly", "ok", ["monomials", "num_monomials", "q", "verdict"]),
    ("hom", "ok", ["count", "verdict"]),
    ("transform", "ok", TRANSFORM_KEYS),
    ("transform-inverse", "ok", ["inverse_round_trip"] + TRANSFORM_KEYS),
    ("transform-inverse-mismatch", "inverse_mismatch", ["inverse_round_trip"] + TRANSFORM_KEYS),
    ("check-indist-pass", "indistinguishable_at_bound", CHECK_KEYS),
    ("check-indist-witness", "distinguished",
     sorted(CHECK_KEYS + ["value_f", "value_g", "witness_grid"])),
    ("vanishing-nonvanishing", "nonvanishing_at_bound", GRAM_KEYS),
    ("vanishing-witness", "vanishing_witness", GRAM_KEYS + ["witness", "witness_signature"]),
    ("vanishing-inconclusive", "inconclusive", GRAM_KEYS),
    ("simsim-similar", "similar", ["q", "residual", "transform", "verdict"]),
    ("simsim-trace-mismatch", "trace_mismatch", ["q", "verdict", "witness"]),
    ("simsim-vanishing", "vanishing", ["q", "verdict", "witness"]),
    ("homdist-indist", "indist_at_bound", HOMDIST_KEYS),
    ("homdist-distinguished", "distinguished",
     sorted(HOMDIST_KEYS + ["count_f", "count_g", "distinguisher"])),
    ("counterexample", "ok",
     ["a", "b", "disequality_fixed", "distance", "eps", "expected_distance", "target_values",
      "transform", "transformed_values", "verdict"]),
    ("selftest", "pass", ["fixtures", "verdict"]),
]


@pytest.mark.parametrize("case, verdict, keys", REPORT_KEYS, ids=[case for case, *_ in REPORT_KEYS])
def test_report_keys(capsys, tmp_path, monkeypatch, case, verdict, keys):
    from holant import cli

    def sigs(name, obj):
        return write(tmp_path, name + ".json", sigset_to_obj(obj))

    def matrices(name, m):
        return sigs(name, {"m": MixedTensor.from_matrix(np.asarray(m, dtype=float))})

    eq = sigs("eq", {"eq": equality_signature(2, 1, 1)})
    grid = write(tmp_path, "grid.json", {"q": 2, "vertices": [{"sig": "eq"}] * 2,
                                         "edges": [[0, 1, 1, 1], [1, 1, 0, 1]]})
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    k4 = write(tmp_path, "k4.json", graph_to_obj(complete_graph(4)))
    c4 = write(tmp_path, "c4.json", graph_to_obj(cycle_graph(4)))
    c4b = write(tmp_path, "c4b.json", graph_to_obj(cycle_graph(4).relabel([2, 0, 3, 1])))
    shear = write(tmp_path, "shear.json", transform_to_obj(HoloTransform(2, [[1.0, 1.0], [0.0, 1.0]])))
    with pytest.warns(UserWarning, match="condition number"):
        ill = write(tmp_path, "ill.json", transform_to_obj(HoloTransform.diagonal([1e5, 1e-5])))
    one = sigs("one", {"e": equality_signature(2, 1, 1)})
    two = sigs("two", {"e": 2.0 * equality_signature(2, 1, 1)})
    ebij = write(tmp_path, "ebij.json", {"e": "e"})
    lonely = sigs("lonely", {"u": MixedTensor(2, 0, 1, [1, 1j])})
    rng = np.random.default_rng(97)
    a, s = rng.normal(size=(3, 3)), np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    similar = matrices("a", a), matrices("sas", s @ a @ np.linalg.inv(s))
    check = ["check-indist", "--bijection", ebij, "--max-vertices", "3"]
    homdist = ["homdist", "--max-degree", "2", "--max-vertices", "4"]
    argv = {
        "eval": ["eval", grid, "--sigs", eq],
        "poly": ["poly", grid],
        "hom": ["hom", "--x", k3, "--g", k3],
        "transform": ["transform", "--sigs", eq, "--matrix", shear],
        "transform-inverse": ["transform", "--sigs", eq, "--matrix", shear, "--inverse-check"],
        "transform-inverse-mismatch": ["transform", "--sigs", eq, "--matrix", ill, "--inverse-check",
                                       "--tol", "0"],
        "check-indist-pass": check + ["--f", one, "--g", one],
        "check-indist-witness": check + ["--f", one, "--g", two],
        "vanishing-nonvanishing": ["vanishing", "--sigs", eq, "--profile", "1,1", "--max-vertices", "2"],
        "vanishing-witness": ["vanishing", "--sigs", lonely, "--profile", "0,1", "--max-vertices", "2"],
        "vanishing-inconclusive": ["vanishing", "--sigs", eq, "--profile", "1,1", "--max-vertices", "2"],
        "simsim-similar": ["simsim", "--f", similar[0], "--g", similar[1]],
        "simsim-trace-mismatch": ["simsim", "--f", matrices("d12", np.diag([1.0, 2.0])),
                                  "--g", matrices("d13", np.diag([1.0, 3.0]))],
        # a Jordan block against the scalar matrix of its eigenvalue
        "simsim-vanishing": ["simsim", "--f", matrices("jordan", [[0.6, 1.0], [0.0, 0.6]]),
                             "--g", matrices("scalar", np.diag([0.6, 0.6]))],
        "homdist-indist": homdist + ["--f", c4, "--g", c4b],
        "homdist-distinguished": homdist + ["--f", k4, "--g", c4],
        "counterexample": ["counterexample", "--a", "1,0", "--b", "1", "--eps", "0.1"],
        "selftest": ["selftest"],
    }[case]
    if case == "vanishing-inconclusive":
        monkeypatch.setattr(cli, "gram_nondegenerate", inconclusive)
    code = main(argv)
    report = strict_loads(capsys.readouterr().out)
    assert code == (0 if verdict in cli.PASS_VERDICTS else 1)
    assert (report["verdict"], sorted(report)) == (verdict, keys)


def test_output_flag_writes_report(capsys, tmp_path):
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    out = tmp_path / "report.json"
    code = main(["--output", str(out), "hom", "--x", k3, "--g", k3])
    printed = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == printed


def test_env_tol_is_honored(capsys, tmp_path, monkeypatch):
    fs = {"e": equality_signature(2, 1, 1)}
    gs = {"e": 1.0000001 * equality_signature(2, 1, 1)}
    f = write(tmp_path, "f.json", sigset_to_obj(fs))
    g = write(tmp_path, "g.json", sigset_to_obj(gs))
    bij = write(tmp_path, "bij.json", {"e": "e"})
    argv = ["check-indist", "--f", f, "--g", g, "--bijection", bij, "--max-vertices", "2"]
    assert main(argv) == 1
    capsys.readouterr()
    monkeypatch.setenv("HOLANT_TOL", "0.1")
    assert main(argv) == 0
    capsys.readouterr()
    # explicit flag beats the environment
    assert main(argv + ["--tol", "0"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("HOLANT_TOL", "not-a-number")
    assert main(argv) == 2


def test_env_tol_nan_is_refused(capsys, tmp_path, monkeypatch):
    # a NaN tolerance compares false with every difference, so the
    # distinguished pair would read indistinguishable_at_bound
    f = write(tmp_path, "f.json", sigset_to_obj({"e": equality_signature(2, 1, 1)}))
    g = write(tmp_path, "g.json", sigset_to_obj({"e": 3 * equality_signature(2, 1, 1)}))
    bij = write(tmp_path, "bij.json", {"e": "e"})
    argv = ["check-indist", "--f", f, "--g", g, "--bijection", bij, "--max-vertices", "2"]
    assert main(argv) == 1
    capsys.readouterr()
    for raw in ("nan", "NaN", "-nan"):
        monkeypatch.setenv("HOLANT_TOL", raw)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "holant: HOLANT_TOL must be nonnegative\n"


def test_infinite_tol_is_refused(capsys, tmp_path, monkeypatch):
    # an infinite tolerance exceeds every difference, so the distinguished
    # pair would read indistinguishable_at_bound with max_difference 74.0
    f = write(tmp_path, "f.json", sigset_to_obj({"m": MixedTensor.from_matrix(np.diag([1.0, 2.0]))}))
    g = write(tmp_path, "g.json", sigset_to_obj({"m": MixedTensor.from_matrix(np.diag([1.0, 3.0]))}))
    bij = write(tmp_path, "bij.json", {"m": "m"})
    argv = ["check-indist", "--f", f, "--g", g, "--bijection", bij, "--max-vertices", "3"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "distinguished"
    sigs = write(tmp_path, "sigs.json", sigset_to_obj({"eq": equality_signature(2, 1, 1)}))
    mat = write(tmp_path, "t.json", transform_to_obj(HoloTransform(2, np.array([[1.0, 1.0], [0.0, 1.0]]))))
    transform = ["transform", "--sigs", sigs, "--matrix", mat, "--inverse-check"]
    for command in (argv, transform):
        for raw in ("inf", "Infinity", "1e999"):
            assert main(command + ["--tol", raw]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "holant: --tol must be finite\n")
            monkeypatch.setenv("HOLANT_TOL", raw)
            assert main(command) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "holant: HOLANT_TOL must be finite\n")
            monkeypatch.delenv("HOLANT_TOL")
        # -inf is refused as negative, as NaN is
        assert main(command + ["--tol=-inf"]) == 2
        assert capsys.readouterr().err == "holant: --tol must be nonnegative\n"
        assert main(command + ["--tol", "nan"]) == 2
        assert capsys.readouterr().err == "holant: --tol must be nonnegative\n"


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_check_indist_refuses_non_finite_values(capsys, tmp_path, bad):
    # a NaN or infinite value compares false with the tolerance, so the
    # pair read indistinguishable_at_bound with max_difference 0
    text = dumps(sigset_to_obj({"e": equality_signature(2, 1, 1)}))
    f = write(tmp_path, "f.json", text.replace("[[1.0,0.0]", f"[[{bad},0.0]", 1))
    g = write(tmp_path, "g.json", sigset_to_obj({"e": 3 * equality_signature(2, 1, 1)}))
    bij = write(tmp_path, "bij.json", {"e": "e"})
    for tol in ("0", "1e-9"):
        argv = ["check-indist", "--f", f, "--g", g, "--bijection", bij, "--max-vertices", "2", "--tol", tol]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("holant: grid 3 of the walk (vertices ('e',)")
        assert "non-finite value" in captured.err and captured.err.count("\n") == 1


def test_vanishing_refuses_a_non_finite_signature(capsys, tmp_path):
    # a NaN residual passes no independence cut, so the gadget was dropped
    # and the span read nonvanishing_at_bound with dim 0, exit 0
    text = dumps(sigset_to_obj({"e": equality_signature(2, 0, 2)}))
    argv = ["vanishing", "--profile", "0,2", "--max-vertices", "4", "--sigs"]
    assert main([*argv, write(tmp_path, "fin.json", text)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "vanishing_witness"
    nan = write(tmp_path, "nan.json", text.replace("[[1.0,0.0]", "[[NaN,0.0]", 1))
    assert main([*argv, nan]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("holant: gadget 1 of the walk (vertices ('e',)")
    assert "non-finite" in captured.err and captured.err.count("\n") == 1


def test_config_validation(capsys, tmp_path):
    k4 = write(tmp_path, "k4.json", graph_to_obj(complete_graph(4)))
    code = main(["homdist", "--f", k4, "--g", k4, "--max-degree", "3", "--max-vertices", "0"])
    assert code == 2
    assert "positive" in capsys.readouterr().err


# -- main() is the one error boundary and the one encoder -------------------------


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "case",
    [
        "homdist-degree-0",
        "poly-30-edges",
        "poly-two-arities",
        "bijection-list-value",
        "bijection-dict-value",
        "bijection-many-to-one",
        "check-indist-empty-sets",
        "entry-overflows-float",
        "negative-slot-count",
        "fractional-signature-counts",
        "fractional-grid-counts",
        "fractional-graph-counts",
    ],
)
def test_library_rejections_exit_2_without_traceback(capsys, tmp_path, case):
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    empty = write(tmp_path, "empty.json", {})
    ring = write(
        tmp_path,
        "ring.json",
        {"q": 2, "vertices": [{"sig": "a"}] * 30,
         "edges": [[i, 1, (i + 1) % 30, 1] for i in range(30)]},
    )
    a = write(tmp_path, "a.json", sigset_to_obj({"a": MixedTensor(2, 1, 1, np.eye(2))}))
    huge = write(
        tmp_path, "huge.json", '{"a":{"q":2,"left":1,"right":1,"entries":[[1' + "0" * 400 + ',0]]}}'
    )
    bij = write(tmp_path, "bij.json", {"a": ["a"]})
    bij_dict = write(tmp_path, "bij_dict.json", {"a": {"a": "a"}})
    ab = write(tmp_path, "ab.json", sigset_to_obj({"a": MixedTensor(2, 1, 1, np.eye(2)),
                                                   "b": MixedTensor(2, 1, 1, np.eye(2))}))
    c = write(tmp_path, "c.json", sigset_to_obj({"c": MixedTensor(2, 1, 1, np.eye(2))}))
    onto_c = write(tmp_path, "onto_c.json", {"a": "c", "b": "c"})
    # a (2,-1) and a (-1,2) signature joined by two edges: each slot sum is valid
    skew = write(tmp_path, "skew.json", {
        "a": {"q": 2, "left": 2, "right": -1, "entries": [[1, 0], [2, 0]]},
        "b": {"q": 2, "left": -1, "right": 2, "entries": [[1, 0], [2, 0]]},
    })
    skew_grid = write(tmp_path, "skew_grid.json", {
        "q": 2, "vertices": [{"sig": "a"}, {"sig": "b"}], "edges": [[0, 1, 1, 1], [0, 2, 1, 2]],
    })
    # counts that int() would truncate: q 2.9 and 2.5 to 2, loops 0.9 to 0, n 3.7 to 3
    frac_sigs = write(tmp_path, "frac_sigs.json", {
        "a": {"q": 2.9, "left": True, "right": 1.7, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    })
    trace = write(tmp_path, "trace.json", {"q": 2, "vertices": [{"sig": "a"}], "edges": [[0, 1, 0, 1]]})
    frac_grid = write(tmp_path, "frac_grid.json", {
        "q": 2.5, "loops": 0.9, "vertices": [{"sig": "a"}], "edges": [[0, 1.9, 0.2, 1]],
    })
    frac_graph = write(tmp_path, "frac_graph.json", {"n": 3.7, "edges": [[0, 1.2]]})
    # one id at two arities: "a" is (1,1) at vertex 0 and (2,2) at vertex 1
    two_arities = write(tmp_path, "two_arities.json", {
        "q": 2, "vertices": [{"sig": "a"}, {"sig": "a"}],
        "edges": [[0, 1, 1, 1], [1, 1, 0, 1], [1, 2, 1, 2]],
    })
    argv = {
        "homdist-degree-0": ["homdist", "--f", k3, "--g", k3, "--max-degree", "0", "--max-vertices", "3"],
        "poly-30-edges": ["poly", ring],
        "poly-two-arities": ["poly", two_arities],
        "bijection-list-value": ["check-indist", "--f", a, "--g", a, "--bijection", bij, "--max-vertices", "2"],
        "bijection-dict-value": ["check-indist", "--f", a, "--g", a, "--bijection", bij_dict,
                                 "--max-vertices", "2"],
        "bijection-many-to-one": ["check-indist", "--f", ab, "--g", c, "--bijection", onto_c,
                                  "--max-vertices", "2"],
        "check-indist-empty-sets": ["check-indist", "--f", empty, "--g", empty, "--bijection", empty,
                                    "--max-vertices", "2"],
        "entry-overflows-float": ["eval", ring, "--sigs", huge],
        "negative-slot-count": ["eval", skew_grid, "--sigs", skew],
        "fractional-signature-counts": ["eval", trace, "--sigs", frac_sigs],
        "fractional-grid-counts": ["eval", frac_grid, "--sigs", a],
        "fractional-graph-counts": ["hom", "--x", frac_graph, "--g", k3],
    }[case]
    message = {
        "bijection-list-value": f"holant: {bij}: bijection maps 'a' to ['a'], not to an id",
        "bijection-dict-value": f"holant: {bij_dict}: bijection maps 'a' to {{'a': 'a'}}, not to an id",
        "poly-two-arities": "holant: signature 'a' is used with inconsistent arities",
        "negative-slot-count": "slot counts must be nonnegative, got (2,-1)",
        "fractional-signature-counts": "signature 'q' must be an integer, got 2.9",
        "fractional-grid-counts": "grid 'q' must be an integer, got 2.5",
        "fractional-graph-counts": "graph 'n' must be an integer, got 3.7",
    }.get(case, "")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("holant: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert message in captured.err


@pytest.mark.parametrize("case", ["profile-1", "a-3-parts", "output-missing-dir"])
def test_cli_refusals_exit_2(capsys, tmp_path, case):
    eq = write(tmp_path, "eq.json", sigset_to_obj({"eq": equality_signature(2, 1, 1)}))
    k3 = write(tmp_path, "k3.json", graph_to_obj(complete_graph(3)))
    missing = str(tmp_path / "no" / "report.json")
    argv, err = {
        "profile-1": (["vanishing", "--sigs", eq, "--profile", "1", "--max-vertices", "2"],
                      "holant: argument --profile: profile must be L,R\n"),
        "a-3-parts": (["counterexample", "--a", "1,2,3", "--b", "1", "--eps", "0.1"],
                      "holant: argument --a: expected RE or RE,IM, got '1,2,3'\n"),
        # the file is written before the report is printed
        "output-missing-dir": (["--output", missing, "hom", "--x", k3, "--g", k3],
                               f"holant: cannot write {missing}: [Errno 2] No such file or directory: "
                               f"{missing!r}\n"),
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_selftest_has_no_seed_flag(capsys):
    assert main(["selftest", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "holant: unrecognized arguments: --seed 1\n"


def test_eval_has_no_tol_flag(capsys):
    assert main(["eval", "x.json", "--sigs", "y.json", "--tol", "0"]) == 2
    assert capsys.readouterr().err == "holant: unrecognized arguments: --tol 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "x.json", "--sigs", "y.json", "--method", "contract"],
        ["hom", "--x", "x.json", "--g", "y.json", "--method", "holant"],
    ],
    ids=["eval", "hom"],
)
def test_there_is_no_method_flag(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("holant: unrecognized arguments: --method") and err.count("\n") == 1


def inconclusive(fs, profile, max_vertices):
    """A stand-in for gram_nondegenerate: the inconclusive report."""
    from holant.spans import GramReport

    return GramReport(
        verdict="inconclusive", profile=profile, max_vertices=max_vertices, dim=1,
        dim_dual=1, rank=0, singular_values=np.array([0.0]), witness=None,
        witness_signature=None, max_pairing_residual=float("nan"),
    )


def test_inconclusive_residual_is_reported_as_null(capsys, tmp_path, monkeypatch):
    from holant import cli

    monkeypatch.setattr(cli, "gram_nondegenerate", inconclusive)
    sigs = write(tmp_path, "eq.json", sigset_to_obj({"eq": equality_signature(2, 1, 1)}))
    assert main(["vanishing", "--sigs", sigs, "--profile", "1,1", "--max-vertices", "2"]) == 1
    out = capsys.readouterr().out
    assert '"max_pairing_residual":null' in out
    assert strict_loads(out)["verdict"] == "inconclusive"


@pytest.mark.parametrize(
    "a, eps", [("1e300", "1e10"), ("1", "1e100")], ids=["entries", "eps-power"]
)
def test_counterexample_overflow_exits_2(capsys, a, eps):
    # finite inputs whose scaled family overflows: a * eps**4 is not finite;
    # the ill-conditioned diag(1/eps, eps) warns first, on a holant: line
    code = main(["counterexample", "--a", a, "--b", "1", "--eps", eps])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"holant: warning: transform condition number {float(eps) ** 2:.3e} exceeds 1e+08; "
        "transformed values may lose digits\n"
        "holant: a, b and eps overflow: the transformed family is not finite\n"
    )


def test_ill_conditioned_transform_warns_on_one_line(capsys, tmp_path):
    sigs = write(tmp_path, "sigs.json", sigset_to_obj({"eq": equality_signature(2, 1, 1)}))
    with pytest.warns(UserWarning, match="condition number"):
        t = HoloTransform.diagonal([1e5, 1e-5])
    mat = write(tmp_path, "t.json", transform_to_obj(t))
    assert main(["transform", "--sigs", sigs, "--matrix", mat]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "ok"
    assert captured.err == (
        "holant: warning: transform condition number 1.000e+10 exceeds 1e+08; "
        "transformed values may lose digits\n"
    )


@pytest.mark.parametrize("flag", ["--a", "--b", "--eps"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_counterexample_rejects_non_finite_input(capsys, flag, value):
    values = {"--a": "1", "--b": "1", "--eps": "0.1", flag: value}
    assert main(["counterexample", *(f"{k}={v}" for k, v in values.items())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


LIMITED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from holant.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_limited(argv, **kwargs):
    """The CLI in a fresh interpreter, under a 1 GiB address-space limit."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *argv], text=True, timeout=60, env=env, **kwargs
    )


def test_huge_arity_is_refused_before_the_power(tmp_path):
    # "left": 1e308 reads as a 1024-bit arity; q**slots would be a
    # gigantic integer, so the command must refuse it at once
    sigs = {"a": {"q": 2, "left": 1e308, "right": 1, "entries": [[1.0, 0.0]]}}
    path = write(tmp_path, "sigs.json", json.dumps(sigs))
    proc = run_limited(["vanishing", "--sigs", path, "--profile", "1,1", "--max-vertices", "2"],
                       capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "over the cap" in proc.stderr


def test_over_cap_profile_is_refused_before_enumerating(capsys, monkeypatch, tmp_path):
    # no signature has 2**60 entries, so no gadget may be enumerated: the
    # walk of slot orders at (30,30) would not end
    from holant import spans

    def no_walk(*args, **kwargs):
        raise AssertionError("enumerated gadgets at an over-cap profile")

    monkeypatch.setattr(spans, "enumerate_gadgets", no_walk)
    sigs = write(tmp_path, "s.json", sigset_to_obj({"s": identity_signature(2)}))
    code = main(["vanishing", "--sigs", sigs, "--profile", "30,30", "--max-vertices", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "holant: tensor with q=2 and 60 slots needs more than 67108864 entries, over the cap\n"
    )


def test_huge_hom_target_is_refused_before_its_adjacency(tmp_path):
    # the 20000 x 20000 adjacency alone needs 3 GiB; the target must be
    # refused by the entry cap before it is built
    x = write(tmp_path, "x.json", graph_to_obj(complete_graph(2)))
    g = write(tmp_path, "g.json", {"n": 20000, "edges": [[0, 1]]})
    proc = run_limited(["hom", "--x", x, "--g", g], capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("holant: ") and proc.stderr.count("\n") == 1
    assert "tensor with q=20000 and 2 slots needs more than 67108864 entries, over the cap" in proc.stderr


@pytest.mark.parametrize("command", ["eval", "poly"])
def test_huge_loop_count_is_refused_before_the_power(tmp_path, command):
    # 2**(10**18) would be built as a bigint before any float overflowed
    grid = write(tmp_path, "grid.json", '{"q": 2, "loops": 1e18, "vertices": [], "edges": []}')
    sigs = write(tmp_path, "sigs.json", "{}")
    argv = {"eval": ["eval", grid, "--sigs", sigs], "poly": ["poly", grid]}[command]
    proc = run_limited(argv, capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("holant: ") and proc.stderr.count("\n") == 1
    assert "q**loops is not a finite float" in proc.stderr


def test_loop_count_past_the_float_range_at_q3_is_refused(tmp_path):
    # 3**1000 is no float although 1000 < 1024; the grid must be refused
    # by the loop bound, not fail later in the contraction
    grid = write(tmp_path, "grid.json", '{"q": 3, "loops": 1000, "vertices": [], "edges": []}')
    sigs = write(tmp_path, "sigs.json", "{}")
    proc = run_limited(["eval", grid, "--sigs", sigs], capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("holant: ") and proc.stderr.count("\n") == 1
    assert "1000 loops at q=3: q**loops is not a finite float" in proc.stderr


def test_wire_grid_domain_mismatch_is_refused_before_the_identity(tmp_path):
    # the q-by-q identity for the wire would need 10**12 entries; the
    # binding's domain must be checked, and named, first
    grid = write(tmp_path, "grid.json", {
        "q": 10**6, "vertices": [{"sig": "a"}, {"sig": "wire"}],
        "edges": [[0, 1, 1, 1], [1, 1, 0, 1]],
    })
    sigs = write(tmp_path, "sigs.json", sigset_to_obj({"a": identity_signature(2)}))
    proc = run_limited(["eval", grid, "--sigs", sigs], capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("holant: ") and proc.stderr.count("\n") == 1
    assert "binding 'a' has domain 2, grid has 1000000" in proc.stderr


def test_closed_stdout_exits_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_limited(["counterexample", "--a", "1,0", "--b", "1", "--eps", "0.1"],
                           stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("holant: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


# Small valid inputs for every file-reading subcommand; the fuzz test below
# edits one of them and runs the command.  Numbers it writes stay <= 8 (a
# large float read as an arity is a large integer) so no mutant asks for a
# large structure.
FUZZ_FIXTURES = {
    "grid": {"q": 2, "loops": 0, "vertices": [{"sig": "a"}, {"sig": "a"}],
             "edges": [[0, 1, 1, 1], [1, 1, 0, 1]], "left_dangling": [], "right_dangling": []},
    "sigs": {"a": {"q": 2, "left": 1, "right": 1,
                   "entries": [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
             "s": {"symbool": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "left": 0, "right": 2}},
    "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
    "matrix": {"q": 2, "matrix": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    "bijection": {"a": "a", "s": "s"},
}

FUZZ_COMMANDS = {
    "eval": ["eval", "{grid}", "--sigs", "{sigs}"],
    "poly": ["poly", "{grid}"],
    "hom": ["hom", "--x", "{graph}", "--g", "{graph}"],
    "homdist": ["homdist", "--f", "{graph}", "--g", "{graph}", "--max-degree", "2",
                "--max-vertices", "3"],
    "transform": ["transform", "--sigs", "{sigs}", "--matrix", "{matrix}", "--inverse-check"],
    "check-indist": ["check-indist", "--f", "{sigs}", "--g", "{sigs}", "--bijection",
                     "{bijection}", "--max-vertices", "3"],
    "vanishing": ["vanishing", "--sigs", "{sigs}", "--profile", "1,1", "--max-vertices", "2"],
    "simsim": ["simsim", "--f", "{sigs}", "--g", "{sigs}"],
}

ATOMS = [None, True, -1, 0, 1, 2, 8, 0.5, float("nan"), float("inf"), "a", "x", [], {}]


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _mutate(data, obj):
    """Drop one key or item, swap it for an atom, or wrap it in a list."""
    path = data.draw(st.sampled_from(list(_nodes(obj))))
    action = data.draw(st.sampled_from(["drop", "atom", "wrap"]))
    atom = data.draw(st.sampled_from(ATOMS))
    if not path:
        return [obj] if action == "wrap" else atom
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "drop":
        del parent[key]
    else:
        parent[key] = [parent[key]] if action == "wrap" else atom
    return obj


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_inputs_keep_the_exit_code_contract(capsys, tmp_path, command, data):
    template = FUZZ_COMMANDS[command]
    used = [name for name in FUZZ_FIXTURES if "{" + name + "}" in template]
    target = data.draw(st.sampled_from(used))
    paths = {}
    for name in used:
        obj = json.loads(json.dumps(FUZZ_FIXTURES[name]))
        if name == target:
            for _ in range(data.draw(st.integers(1, 3))):
                obj = _mutate(data, obj)
        paths[name] = write(tmp_path, name + ".json", json.dumps(obj))
    code = main([arg.format(**paths) for arg in template])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("holant: ")
    else:
        assert code in (0, 1)
        assert "verdict" in strict_loads(captured.out)
