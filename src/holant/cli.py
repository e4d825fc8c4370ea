"""Command line workbench.

Every subcommand prints one canonical JSON report with a "verdict"
field; it is strict JSON, with any non-finite number reported as null.
Exit code 0 means the verdict is a pass or a success, 1 means a
mathematical failure verdict (distinguisher found, vanishing, not
similar), 2 means a usage or input-format problem, including any input
the library rejects, or a stdout that cannot be written.  main() is the
one place that maps exceptions to exit 2 and the one place that encodes
reports; stderr carries only its "holant:" lines, library warnings
included.

Environment: HOLANT_TOL overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import serialize as sz
from .contraction import holant_eval_contracted
from .grids import SignatureGrid, holant_polynomial
from .homgraphs import bounded_degree_distinguisher, complete_graph, cycle_graph, hom_count
from .simsim import recover_transform
from .spans import check_indistinguishable, gram_nondegenerate
from .tensors import MixedTensor, SymBoolSignature
from .transforms import epsilon_family_counterexample, epsilon_family_jordan

PASS_VERDICTS = {
    "ok",
    "pass",
    "similar",
    "indistinguishable_at_bound",
    "indist_at_bound",
    "nonvanishing_at_bound",
}


class CliError(Exception):
    """A usage or format failure; main() reports it and returns 2."""


def _resolve_tol(flag_value: float | None, fallback: float) -> float:
    """Explicit --tol wins, then HOLANT_TOL, then the command default."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("HOLANT_TOL")
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        raise CliError(f"HOLANT_TOL is not a number: {raw!r}")
    if not value >= 0:  # NaN too: every check would pass under it
        raise CliError("HOLANT_TOL must be nonnegative")
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        )


def _load(path: str, parse):
    """parse() of the JSON in path; a rejected object names the file."""
    try:
        return parse(_load_json(path))
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise CliError(f"{path}: {exc}")


def _bijection(obj) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise ValueError("bijection file must be a JSON object of id pairs")
    for fid, gid in obj.items():
        if not isinstance(gid, str):
            raise ValueError(f"bijection maps {fid!r} to {gid!r}, not to an id")
    return obj


def _sigset(obj) -> dict[str, MixedTensor]:
    return {
        name: sig.to_tensor() if isinstance(sig, SymBoolSignature) else sig
        for name, sig in sz.sigset_from_obj(obj).items()
    }


def _jsonify(value):
    """Reports carry numpy scalars, arrays, complex numbers, tuples.

    A non-finite float becomes None, so the encoded report is strict JSON.
    """
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonify(value.real), _jsonify(value.imag)]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


def _infer_shapes(grid) -> dict[str, tuple[int, int]]:
    left = [0] * len(grid.vertices)
    right = [0] * len(grid.vertices)
    for (u, i, v, j) in grid.edges:
        left[u] = max(left[u], i)
        right[v] = max(right[v], j)
    for (v, i) in grid.left_dangling:
        left[v] = max(left[v], i)
    for (v, j) in grid.right_dangling:
        right[v] = max(right[v], j)
    shapes: dict[str, tuple[int, int]] = {}
    for v, sid in enumerate(grid.vertices):
        sh = (left[v], right[v])
        if shapes.setdefault(sid, sh) != sh:
            raise CliError(f"signature {sid!r} is used with inconsistent arities")
    return shapes


# -- subcommand handlers ----------------------------------------------------------


def _cmd_eval(args) -> dict:
    grid = _load(args.grid, sz.grid_from_obj)
    sigs = _load(args.sigs, _sigset)
    if not grid.is_closed():
        raise CliError("eval needs a closed grid (no dangling ports)")
    return {"verdict": "ok", "q": grid.q, "value": holant_eval_contracted(grid, sigs)}


def _cmd_poly(args) -> dict:
    grid = _load(args.grid, sz.grid_from_obj)
    poly = holant_polynomial(grid, _infer_shapes(grid))
    return {
        "verdict": "ok",
        "q": poly.q,
        "num_monomials": poly.num_monomials,
        "monomials": [
            {"coeff": coeff, "factors": mono} for mono, coeff in poly.sorted_items()
        ],
    }


def _cmd_hom(args) -> dict:
    x = _load(args.x, sz.graph_from_obj)
    g = _load(args.g, sz.graph_from_obj)
    return {"verdict": "ok", "count": hom_count(x, g)}


def _cmd_homdist(args) -> dict:
    f = _load(args.f, sz.graph_from_obj)
    g = _load(args.g, sz.graph_from_obj)
    report = bounded_degree_distinguisher(f, g, args.max_degree, args.max_vertices)
    out = {
        "verdict": report.verdict,
        "max_degree": report.max_degree,
        "max_vertices": report.max_left_vertices,
        "graphs_checked": report.graphs_checked,
    }
    if report.distinguisher is not None:
        out["distinguisher"] = sz.graph_to_obj(report.distinguisher)
        out["count_f"] = report.count_f
        out["count_g"] = report.count_g
    return out


def _cmd_transform(args) -> dict:
    sigs = _load(args.sigs, _sigset)
    t = _load(args.matrix, sz.transform_from_obj)
    moved = t.act_set(sigs)
    out = {"verdict": "ok", "q": t.q, "signatures": sz.sigset_to_obj(moved)}
    if args.inverse_check:
        back = t.inverse_transform().act_set(moved)
        tol = _resolve_tol(args.tol, 1e-9)
        ok = all(back[k].allclose(sigs[k], tol) for k in sigs)
        out["inverse_round_trip"] = ok
        if not ok:
            out["verdict"] = "inverse_mismatch"
    return out


def _cmd_check_indist(args) -> dict:
    fs = _load(args.f, _sigset)
    gs = _load(args.g, _sigset)
    bijection = _load(args.bijection, _bijection)
    report = check_indistinguishable(
        fs, gs, bijection, args.max_vertices, tol=_resolve_tol(args.tol, 0.0)
    )
    out = {
        "verdict": report.verdict,
        "max_vertices": report.max_vertices,
        "grids_checked": report.grids_checked,
        "max_difference": report.max_difference,
    }
    if report.witness_grid is not None:
        out["witness_grid"] = sz.grid_to_obj(report.witness_grid)
        out["value_f"] = report.value_f
        out["value_g"] = report.value_g
    return out


def _cmd_vanishing(args) -> dict:
    fs = _load(args.sigs, _sigset)
    report = gram_nondegenerate(fs, args.profile, args.max_vertices)
    out = {
        "verdict": report.verdict,
        "profile": report.profile,
        "max_vertices": report.max_vertices,
        "dim": report.dim,
        "dim_dual": report.dim_dual,
        "rank": report.rank,
        "singular_values": report.singular_values,
        "max_pairing_residual": report.max_pairing_residual,
    }
    if report.witness is not None:
        out["witness"] = sz.gadget_to_obj(report.witness)
        out["witness_signature"] = sz.signature_to_obj(report.witness_signature)
    return out


def _cmd_simsim(args) -> dict:
    fs = _load(args.f, _sigset)
    gs = _load(args.g, _sigset)
    for name, sets in (("f", fs), ("g", gs)):
        bad = [k for k, t in sets.items() if t.shape != (1, 1)]
        if bad:
            raise CliError(f"--{name} signatures must have shape (1,1); bad ids: {bad}")
    result = recover_transform(fs, gs, tol=_resolve_tol(args.tol, 1e-6), seed=args.seed)
    out = {"verdict": result.verdict, "q": result.q}
    if result.transform is not None:
        out["transform"] = sz.transform_to_obj(result.transform)
    if result.witness is not None:
        out["witness"] = result.witness
    if result.residual is not None:
        out["residual"] = result.residual
    return out


def _parse_complex(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE or RE,IM, got {raw!r}")


def _cmd_counterexample(args) -> dict:
    report = epsilon_family_counterexample(args.a, args.b, args.eps)
    return {
        "verdict": "ok",
        "a": report.a,
        "b": report.b,
        "eps": report.eps,
        "transform": sz.transform_to_obj(report.transform),
        "transformed_values": report.transformed_values,
        "target_values": report.target_values,
        "distance": report.distance,
        "expected_distance": report.expected_distance,
        "disequality_fixed": report.disequality_fixed,
    }


# -- selftest fixtures --------------------------------------------------------------


def _fixture_polynomial() -> tuple[bool, dict]:
    grid = SignatureGrid(2, ("x", "y", "y"), ((1, 1, 0, 1), (2, 1, 0, 2)))
    poly = holant_polynomial(grid, {"x": (0, 2), "y": (1, 0)})
    want = {
        ((("x", (0, 0)),) + (("y", (0,)),) * 2): 1,
        (("x", (0, 1)), ("y", (0,)), ("y", (1,))): 1,
        (("x", (1, 0)), ("y", (0,)), ("y", (1,))): 1,
        ((("x", (1, 1)),) + (("y", (1,)),) * 2): 1,
    }
    got = {tuple(sorted(mono)): coeff for mono, coeff in poly.monomials.items()}
    want = {tuple(sorted(mono)): coeff for mono, coeff in want.items()}
    ok = got == want
    return ok, {"num_monomials": poly.num_monomials}


def _counterexample_sets():
    from .tensors import disequality_signature

    neq = disequality_signature(2, 2, 0)
    return (
        {"neq": neq, "f": SymBoolSignature((1.0, 1.0, 1.0, 0, 0), 0, 4).to_tensor()},
        {"neq": neq, "f": SymBoolSignature((0, 0, 1.0, 0, 0), 0, 4).to_tensor()},
    )


def _fixture_indistinguishable() -> tuple[bool, dict]:
    fs, gs = _counterexample_sets()
    report = check_indistinguishable(fs, gs, {"neq": "neq", "f": "f"}, max_vertices=6)
    ok = report.verdict == "indistinguishable_at_bound" and report.max_difference == 0.0
    return ok, {"grids_checked": report.grids_checked, "max_difference": report.max_difference}


def _fixture_vanishing_witness() -> tuple[bool, dict]:
    fs, _ = _counterexample_sets()
    report = gram_nondegenerate(fs, (0, 4), 6)
    if report.verdict != "vanishing_witness":
        return False, {"verdict": report.verdict}
    entries = report.witness_signature.array
    worst = 0.0
    for idx in np.ndindex(entries.shape):
        if sum(idx) >= 2:
            worst = max(worst, abs(entries[idx]))
    return worst < 1e-9, {"max_high_weight_entry": worst}


def _fixture_epsilon_family() -> tuple[bool, dict]:
    from .transforms import DefectiveSpectrumWarning

    d1 = epsilon_family_counterexample(0.0, 1.0, 1e-1).distance
    d2 = epsilon_family_counterexample(0.0, 1.0, 1e-2).distance
    nil = MixedTensor(2, 1, 1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with warnings.catch_warnings():
        # the nilpotent member has a defective spectrum on purpose
        warnings.simplefilter("ignore", DefectiveSpectrumWarning)
        _, limit = epsilon_family_jordan(nil, 1e-3)
    ok = d1 / d2 >= 99.0 and limit.norm() <= 1e-3
    return ok, {"decade_ratio": d1 / d2, "nilpotent_norm": limit.norm()}


def _fixture_hom_agreement() -> tuple[bool, dict]:
    k3 = complete_graph(3)
    counts = (hom_count(k3, k3), hom_count(cycle_graph(4), complete_graph(2)))
    return counts == (6, 2), {"counts": list(counts)}


def _cmd_selftest(_args) -> dict:
    fixtures = [
        ("polynomial_expansion", _fixture_polynomial),
        ("pair_indistinguishable_bound6", _fixture_indistinguishable),
        ("vanishing_witness_weight_support", _fixture_vanishing_witness),
        ("epsilon_family_decay", _fixture_epsilon_family),
        ("hom_count_agreement", _fixture_hom_agreement),
    ]
    rows = []
    all_ok = True
    for name, fn in fixtures:
        ok, detail = fn()
        all_ok = all_ok and ok
        rows.append({"name": name, "verdict": "pass" if ok else "fail", "detail": detail})
    return {"verdict": "pass" if all_ok else "fail", "fixtures": rows}


# -- parser and dispatch ---------------------------------------------------------------


def _profile_arg(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("profile must be L,R")
    profile = (int(parts[0]), int(parts[1]))
    if min(profile) < 0:
        raise argparse.ArgumentTypeError("profile entries must be nonnegative")
    return profile


def _complex_arg(raw: str) -> complex:
    try:
        return _parse_complex(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _checked(convert, ok, message):
    """An argparse type: convert, then raise CliError unless ok(value).

    argparse lets CliError through, so main() reports it and returns 2;
    a value convert() rejects gets argparse's own exit 2, whose message
    names the type by convert's name.
    """

    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise CliError(message)
        return value

    parse.__name__ = convert.__name__
    return parse


_tol_arg = _checked(float, lambda v: v >= 0, "--tol must be nonnegative")
_bound_arg = _checked(int, lambda v: v >= 1, "--max-vertices must be positive")
_seed_arg = _checked(int, lambda v: 0 <= v < 2**64, "--seed must fit in 64 bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holant", description="Tensor network Holant workbench"
    )
    parser.add_argument("--output", help="also write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a closed grid")
    p.add_argument("grid")
    p.add_argument("--sigs", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("poly", help="expand a closed grid over symbolic entries")
    p.add_argument("grid")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("hom", help="count homomorphisms between two graphs")
    p.add_argument("--x", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("homdist", help="search for a bounded-degree distinguisher")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--max-vertices", type=_bound_arg, required=True)
    p.set_defaults(fn=_cmd_homdist)

    p = sub.add_parser("transform", help="apply a holographic transformation")
    p.add_argument("--sigs", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--inverse-check", action="store_true")
    p.add_argument("--tol", type=_tol_arg, default=None)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("check-indist", help="compare Holant values over all bounded grids")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--bijection", required=True)
    p.add_argument("--max-vertices", type=_bound_arg, required=True)
    p.add_argument("--tol", type=_tol_arg, default=None)
    p.set_defaults(fn=_cmd_check_indist)

    p = sub.add_parser("vanishing", help="test the gadget-span pairing for degeneracy")
    p.add_argument("--sigs", required=True)
    p.add_argument("--profile", type=_profile_arg, required=True)
    p.add_argument("--max-vertices", type=_bound_arg, required=True)
    p.set_defaults(fn=_cmd_vanishing)

    p = sub.add_parser("simsim", help="recover a simultaneous similarity transform")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--tol", type=_tol_arg, default=None)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(fn=_cmd_simsim)

    p = sub.add_parser("counterexample", help="one member of the scaled arity-4 family")
    p.add_argument("--a", type=_complex_arg, required=True)
    p.add_argument("--b", type=_complex_arg, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("selftest", help="run the built-in fixtures")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for the CLI: one holant: line per warning."""
    print(f"holant: warning: {message}", file=sys.stderr)


def _print_report(text: str) -> None:
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        # nothing more can reach this stdout; point its descriptor at
        # devnull, so the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise CliError(f"cannot write stdout: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            report = _jsonify(args.fn(args))
            text = sz.dumps(report)
            _print_report(text)
            if args.output:
                try:
                    with open(args.output, "w", encoding="utf-8") as fh:
                        fh.write(text + "\n")
                except OSError as exc:
                    raise CliError(f"cannot write {args.output}: {exc}")
            return 0 if report["verdict"] in PASS_VERDICTS else 1
        except (CliError, ValueError, TypeError, ArithmeticError, MemoryError) as exc:
            # numpy's LinAlgError is a ValueError, OverflowError an
            # ArithmeticError; numpy raises MemoryError up front for a shape
            # it cannot allocate, Python's own MemoryError has no message
            print(f"holant: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
