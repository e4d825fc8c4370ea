"""The compiled family program against a replay structure by structure.

spans.closed_signature_blocks replays the stored closed family at q >= 2
by one compiled program (holant.familyprogram), and every other walk run
by run.  Each case compares its values, loop copies included, with
oracles.oracle_signatures, which contracts every grid alone through
grids._execute, by the bytes of the arrays: a value that rounds
differently, or a zero whose sign differs, fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holant import familyprogram
from holant import grids as grids_module
from holant import spans
from holant.grids import enumerate_grids
from holant.tensors import MixedTensor, equality_signature, identity_signature
from oracles import oracle_signatures

# the overflowing set makes inf and NaN values on both sides
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def program_case(name):
    """(sig_shapes, bound, q, binding sets) of a closed family.

    q1, q2, q3: closed-invariance's shapes, whose grids have self-edges
    (traces), vector and matrix steps, and steps whose operands
    _execute sees as column-major views; the last set has zero entries
    of both signs and a zero id, so that -0.0 turns up in the values.
    mixed: the middle set binds e to an exact equality, so its rows are
    eliminated while the others' are compiled.
    """
    rng = np.random.default_rng(61)
    if name == "mixed":
        shapes, bound, q = {"e": (0, 3), "a": (2, 0), "u": (1, 0), "m": (1, 1)}, 4, 3
    else:
        shapes, bound, q = {"s0": (1, 1), "s1": (2, 1), "s2": (1, 2)}, 4, int(name[1])
    sets = []
    for k in range(3):
        b = {}
        for sig, (l, r) in shapes.items():
            x = rng.normal(size=q ** (l + r)) + 1j * rng.normal(size=q ** (l + r))
            if k == 2:
                x[::3] = complex(-0.0, -0.0)
                x[1::4] = complex(0.0, -0.0)
                x[2::5] = 0
            b[sig] = MixedTensor(q, l, r, x)
        sets.append(b)
    zero = "m" if name == "mixed" else "s0"
    sets[2][zero] = MixedTensor(q, 1, 1, np.full(q * q, complex(-0.0, -1.0)))
    if name == "mixed":
        sets[1]["e"] = equality_signature(q, 0, 3)
    else:
        # the product of two traces of this s0 overflows in its real part
        # only; a further multiply by 1 + 0j, which _execute does not
        # make, would turn its finite imaginary part into NaN
        huge = MixedTensor(q, 1, 1, np.full(q * q, complex(1e200, 1.0)))
        sets.append(dict(sets[0], s0=huge))
    return sorted(shapes.items()), bound, q, sets


def oracle_values(grids, sets):
    return np.array([row[1:] for row in oracle_signatures(grids, *sets)])


@pytest.mark.parametrize("name", ["q1", "q2", "q3", "mixed"])
def test_program_equals_each_structure_replayed_alone(monkeypatch, name):
    sig_shapes, bound, q, sets = program_case(name)
    monkeypatch.setattr(grids_module, "_last_family", None)
    grids = list(enumerate_grids(sig_shapes, bound, q))
    want = oracle_values(grids, sets)
    # the stored family: compiled by its first replay, replayed by its
    # kept program after that; at q = 1 it has none, and replays run by run
    for _ in range(2):
        [(block, values)] = spans.closed_signature_blocks(grids, *sets)
        assert block == grids
        assert values.tobytes() == want.tobytes()
    program = grids_module.family_slot(grids)[0]
    if q == 1:
        assert program is None
    else:
        assert program.runs == tuple(grids[::2]) and program.parts
    parts = want.view(np.float64)
    assert np.any((parts == 0) & np.signbit(parts))  # some part is -0.0
    assert {g.loops for g in grids} == {0, 1}
    if name == "mixed":
        assert [b["e"].is_equality() for b in sets] == [False, True, False]
    else:
        assert any(g.edges and any(u == v for u, _, v, _ in g.edges) for g in grids)


@pytest.mark.parametrize("name", ["q2", "mixed"])
def test_streamed_blocks_replay_run_by_run(monkeypatch, name):
    # a walk streamed past the memo cap builds no program, and is yielded
    # in blocks of one more grid than the cap
    sig_shapes, bound, q, sets = program_case(name)
    grids = list(enumerate_grids(sig_shapes, bound, q))
    want = oracle_values(grids, sets)

    def no_program(*args):
        raise AssertionError("a streamed walk built a family program")

    cap = len(grids) // 4
    monkeypatch.setattr(familyprogram, "compile_family", no_program)
    monkeypatch.setattr(grids_module, "FAMILY_MEMO_MAX_GRIDS", cap)
    monkeypatch.setattr(grids_module, "_last_family", None)
    blocks = list(spans.closed_signature_blocks(enumerate_grids(sig_shapes, bound, q), *sets))
    assert grids_module._last_family is None and len(blocks) >= 3
    assert [len(block) for block, _ in blocks[:-1]] == [cap + 1] * (len(blocks) - 1)
    assert [g for block, _ in blocks for g in block] == grids
    assert all(not v.flags.writeable for _, v in blocks)
    assert np.concatenate([v for _, v in blocks]).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["q2", "q3", "mixed"])
def test_parts_keep_the_bits(monkeypatch, name):
    # with the part cap lowered below the family's node entries, the
    # program splits into parts of at most PART_MAX_ENTRIES entries per
    # binding set, but for a part of one structure, each compiled when
    # the program is built
    sig_shapes, bound, q, sets = program_case(name)
    monkeypatch.setattr(familyprogram, "PART_MAX_ENTRIES", q**5)
    monkeypatch.setattr(grids_module, "_last_family", None)
    grids = list(enumerate_grids(sig_shapes, bound, q))
    want = oracle_values(grids, sets)
    for _ in range(2):
        [(_, values)] = spans.closed_signature_blocks(grids, *sets)
        assert values.tobytes() == want.tobytes()
    program = grids_module.family_slot(grids)[0]
    assert 1 < len(program.parts) < len(grids) // 2
    # each part's structures: the products' rows, by number of scalars
    members = [np.concatenate([same for same, _ in products]) for *_, products in program.parts]
    assert sorted(np.concatenate(members)) == list(range(len(grids) // 2))
    for (size, *_), part in zip(program.parts, members):
        assert size <= q**5 or len(part) == 1
    assert any(len(part) > 1 for part in members)


def test_pairwise_plans_over_the_cap(monkeypatch):
    # with the cap lowered, the largest structures' pairwise plans are
    # over it where their elimination plans are not: the family has no
    # program and replays run by run, so sets that eliminate every
    # structure still get their values, and a set that replays pairwise
    # is refused as a replay structure by structure refuses it
    sig_shapes, bound, q, sets = program_case("mixed")
    eliminated = [dict(b, e=equality_signature(q, 0, 3), m=identity_signature(q)) for b in sets]
    monkeypatch.setattr(grids_module, "MAX_ENTRIES", q)
    monkeypatch.setattr(grids_module, "_last_family", None)
    grids = list(enumerate_grids(sig_shapes, bound, q))
    with pytest.raises(ValueError) as alone:
        list(oracle_signatures(grids, *sets))
    want = oracle_values(grids, eliminated)
    for _ in range(2):
        [(_, values)] = spans.closed_signature_blocks(grids, *eliminated)
        assert values.tobytes() == want.tobytes()
        with pytest.raises(ValueError) as replayed:
            list(spans.closed_signature_blocks(grids, *sets))
        assert str(replayed.value) == str(alone.value)
    assert grids_module.family_slot(grids) == [grids_module.NO_PROGRAM]


def test_over_cap_family_is_compiled_once(monkeypatch):
    # the family of test_pairwise_plans_over_the_cap, every set binding
    # e and m to equalities, so that a replay run by run plans each
    # structure once: its first replay also tries to compile the family
    # and marks the slot, and the next one plans nothing more.  Bindings
    # whose shapes do not fit leave the slot unmarked
    sig_shapes, bound, q, sets = program_case("mixed")
    eliminated = [dict(b, e=equality_signature(q, 0, 3), m=identity_signature(q)) for b in sets]
    monkeypatch.setattr(grids_module, "MAX_ENTRIES", q)
    monkeypatch.setattr(grids_module, "_last_family", None)
    grids = list(enumerate_grids(sig_shapes, bound, q))
    want = oracle_values(grids, eliminated)
    routes = []
    plan = grids_module._plan

    def counted(grid, shapes, equal):
        routes.append(equal)
        return plan(grid, shapes, equal)

    monkeypatch.setattr(grids_module, "_plan", counted)
    swapped = [dict(b, a=b["u"], u=b["a"]) for b in eliminated]
    with pytest.raises(ValueError):
        list(spans.closed_signature_blocks(grids, *swapped))
    assert grids_module.family_slot(grids) == [None]
    per_replay = []
    for _ in range(2):
        routes.clear()
        [(_, values)] = spans.closed_signature_blocks(grids, *eliminated)
        assert values.tobytes() == want.tobytes()
        per_replay.append(list(routes))
        assert grids_module.family_slot(grids) == [grids_module.NO_PROGRAM]
    first, second = per_replay
    assert len(second) == len(grids) // 2 < len(first)


def test_import_does_not_load_the_compiler():
    # every CLI call and perfbench's setup_s pay for a cold import; the
    # compiler is imported by the first closed replay
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, holant; print('holant.familyprogram' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
