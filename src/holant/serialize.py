"""JSON forms for signatures, grids, transforms, gadgets, and graphs.

Complex scalars are [re, im] pairs throughout.  Serialization is
canonical (sorted keys, no whitespace), so objects round-trip to
byte-identical text.
"""

from __future__ import annotations

import json

import numpy as np

from .grids import QuantumGadget, SignatureGrid
from .homgraphs import SimpleGraph
from .tensors import MixedTensor, SymBoolSignature
from .transforms import HoloTransform


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads(text: str):
    return json.loads(text)


def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _unpair(p) -> complex:
    if not (isinstance(p, (list, tuple)) and len(p) == 2):
        raise ValueError(f"expected an [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def _need(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f"{what} object is missing {key!r}")
    return obj[key]


def _count(value, field: str) -> int:
    """A count read from JSON: an int, or a float with an integral value."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _need_count(obj: dict, key: str, what: str) -> int:
    return _count(_need(obj, key, what), f"{what} {key!r}")


# -- signatures ----------------------------------------------------------------


def signature_to_obj(sig) -> dict:
    if isinstance(sig, SymBoolSignature):
        return {
            "symbool": [_pair(v) for v in sig.values],
            "left": sig.left,
            "right": sig.right,
        }
    if isinstance(sig, MixedTensor):
        return {
            "q": sig.q,
            "left": sig.left,
            "right": sig.right,
            "entries": [_pair(v) for v in sig.entries],
        }
    raise TypeError(f"not a signature: {type(sig).__name__}")


def signature_from_obj(obj: dict):
    if not isinstance(obj, dict):
        raise ValueError("signature must be a JSON object")
    if "symbool" in obj:
        values = tuple(_unpair(p) for p in obj["symbool"])
        return SymBoolSignature(
            values, _need_count(obj, "left", "signature"), _need_count(obj, "right", "signature")
        )
    q = _need_count(obj, "q", "signature")
    left = _need_count(obj, "left", "signature")
    right = _need_count(obj, "right", "signature")
    entries = [_unpair(p) for p in _need(obj, "entries", "signature")]
    return MixedTensor(q, left, right, np.array(entries, dtype=np.complex128))


def sigset_to_obj(sigs: dict) -> dict:
    return {name: signature_to_obj(sig) for name, sig in sigs.items()}


def sigset_from_obj(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("signature set must be a JSON object keyed by id")
    return {name: signature_from_obj(sub) for name, sub in obj.items()}


# -- grids and gadgets ------------------------------------------------------------


def grid_to_obj(grid: SignatureGrid) -> dict:
    return {
        "q": grid.q,
        "loops": grid.loops,
        "vertices": [{"sig": sid} for sid in grid.vertices],
        "edges": [list(e) for e in grid.edges],
        "left_dangling": [list(s) for s in grid.left_dangling],
        "right_dangling": [list(s) for s in grid.right_dangling],
    }


def _int_rows(obj: dict, key: str, width: int, vertex_cols: tuple[int, ...], n: int):
    """The grid's rows under key as int tuples of the given width.

    Entries at vertex_cols must be vertex indices below n.
    """
    rows = tuple(tuple(_count(x, f"each number of grid {key}") for x in row) for row in obj.get(key, []))
    for row in rows:
        if len(row) != width:
            raise ValueError(f"grid {key} entry {list(row)} needs {width} integers")
        if not all(0 <= row[c] < n for c in vertex_cols):
            raise ValueError(f"grid {key} entry {list(row)} names a vertex outside 0..{n - 1}")
    return rows


def grid_from_obj(obj: dict) -> SignatureGrid:
    if not isinstance(obj, dict):
        raise ValueError("grid must be a JSON object")
    vertices = tuple(
        str(_need(v, "sig", "vertex")) for v in _need(obj, "vertices", "grid")
    )
    n = len(vertices)
    return SignatureGrid(
        q=_need_count(obj, "q", "grid"),
        vertices=vertices,
        edges=_int_rows(obj, "edges", 4, (0, 2), n),
        left_dangling=_int_rows(obj, "left_dangling", 2, (0,), n),
        right_dangling=_int_rows(obj, "right_dangling", 2, (0,), n),
        loops=_count(obj.get("loops", 0), "grid 'loops'"),
    )


def gadget_to_obj(gadget: QuantumGadget) -> dict:
    return {
        "terms": [
            {"coeff": _pair(coeff), "grid": grid_to_obj(grid)}
            for coeff, grid in gadget.terms
        ]
    }


def gadget_from_obj(obj: dict) -> QuantumGadget:
    terms = [
        (_unpair(_need(t, "coeff", "gadget term")), grid_from_obj(_need(t, "grid", "gadget term")))
        for t in _need(obj, "terms", "gadget")
    ]
    return QuantumGadget(terms)


# -- transforms and graphs ----------------------------------------------------------


def transform_to_obj(t: HoloTransform) -> dict:
    return {
        "q": t.q,
        "matrix": [[_pair(v) for v in row] for row in t.matrix],
    }


def transform_from_obj(obj: dict) -> HoloTransform:
    rows = _need(obj, "matrix", "transform")
    mat = np.array([[_unpair(v) for v in row] for row in rows], dtype=np.complex128)
    return HoloTransform(_need_count(obj, "q", "transform"), mat)


def graph_to_obj(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_obj(obj: dict) -> SimpleGraph:
    return SimpleGraph(
        _need_count(obj, "n", "graph"),
        tuple(tuple(_count(x, "each number of graph edges") for x in e) for e in obj.get("edges", [])),
    )
