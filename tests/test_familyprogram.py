"""The compiled family program against a replay structure by structure.

spans.closed_signature_blocks stores the closed family it walks, at
q >= 2 with one compiled program (contraction.FamilyProgram), and
replays it by that program; every other walk goes run by run.  Each
case compares its values, loop copies included, with
oracles.oracle_signatures, which contracts every grid alone through
contraction._execute, by the bytes of the arrays: a value that rounds
differently, or a zero whose sign differs, fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holant import contraction
from holant import grids as grids_module
from holant import spans
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
    mixed: the middle set binds e to an exact equality, so the program
    gives no values and the family replays run by run, that set's rows
    eliminated and the others' contracted pairwise.
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


def replayed(bound, sets):
    """The one block of the stored family walked over sets[0], and its
    values under every set."""
    [(block, values)] = spans.closed_signature_blocks(bound, *sets)
    return tuple(block), values


@pytest.mark.parametrize("name", ["q1", "q2", "q3", "mixed"])
def test_program_equals_each_structure_replayed_alone(monkeypatch, name):
    sig_shapes, bound, q, sets = program_case(name)
    monkeypatch.setattr(spans, "_family", None)
    # the stored family: walked and compiled by the first call, replayed
    # by its kept program after that.  At q = 1 it has none, and replays
    # run by run; there every binding is symmetric, so the walk takes
    # port classes
    grids, values = replayed(bound, sets)
    symmetric = spans._symmetric_ids(sets[0])
    assert grids == tuple(grids_module.enumerate_grids(sig_shapes, bound, q, symmetric=symmetric))
    want = oracle_values(grids, sets)
    assert values.tobytes() == want.tobytes()
    _, family, program = spans._family
    assert family == grids
    block, again = replayed(bound, sets)
    assert block == grids and again.tobytes() == want.tobytes()
    assert spans._family[2] is program
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
    # in blocks of the cap
    sig_shapes, bound, q, sets = program_case(name)
    grids = list(grids_module.enumerate_grids(sig_shapes, bound, q))
    want = oracle_values(grids, sets)

    def no_program(*args):
        raise AssertionError("a streamed walk built a family program")

    cap = len(grids) // 4
    monkeypatch.setattr(spans, "compile_family", no_program)
    monkeypatch.setattr(spans, "FAMILY_MEMO_MAX_GRIDS", cap)
    monkeypatch.setattr(spans, "_family", None)
    blocks = list(spans.closed_signature_blocks(bound, *sets))
    assert spans._family is None and len(blocks) >= 3
    assert [len(block) for block, _ in blocks[:-1]] == [cap] * (len(blocks) - 1)
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
    monkeypatch.setattr(contraction, "PART_MAX_ENTRIES", q**5)
    monkeypatch.setattr(spans, "_family", None)
    grids, values = replayed(bound, sets)
    want = oracle_values(grids, sets)
    assert values.tobytes() == want.tobytes()
    assert replayed(bound, sets)[1].tobytes() == want.tobytes()
    program = spans._family[2]
    assert 1 < len(program.parts) < len(grids) // 2
    # each part's structures: the products' rows, by number of scalars
    members = [np.concatenate([same for same, _ in products]) for *_, products in program.parts]
    assert sorted(np.concatenate(members)) == list(range(len(grids) // 2))
    for (size, *_), part in zip(program.parts, members):
        assert size <= q**5 or len(part) == 1
    assert any(len(part) > 1 for part in members)


@pytest.mark.parametrize("name", ["q3", "mixed"])
def test_program_replays_whole_or_not_at_all(monkeypatch, name):
    # closed-invariance's shapes at q = 3 (q3): the program replays every
    # row, binding one grid per id set ({}, {s0}, {s1, s2}, {s0, s1, s2}),
    # and contracts no grid alone.  mixed: the program gives no values,
    # and the run-by-run pass contracts each loop-free structure once
    sig_shapes, bound, q, sets = program_case(name)
    monkeypatch.setattr(spans, "_family", None)
    binds, contracted, replays = [], [], []
    bind, contract = contraction.BindingStacks.bind, contraction._contract
    replay = contraction.FamilyProgram.replay

    def recorded(self, stacks):
        replays.append(replay(self, stacks))
        return replays[-1]

    monkeypatch.setattr(contraction.BindingStacks, "bind", lambda self, g: binds.append(g) or bind(self, g))
    monkeypatch.setattr(contraction, "_contract", lambda g, *a: contracted.append(g) or contract(g, *a))
    monkeypatch.setattr(contraction.FamilyProgram, "replay", recorded)
    # the first call walks and compiles the family and replays its
    # program, the second replays it warm
    for _ in range(2):
        for log in (binds, contracted, replays):
            log.clear()
        grids, values = replayed(bound, sets)
        [program_values] = replays
        if name == "q3":
            assert program_values is not None and contracted == []
            ids = [frozenset(g.vertices) for g in binds]
            assert len(ids) == 4 and set(ids) == {frozenset(g.vertices) for g in grids}
        else:
            assert program_values is None and contracted == list(grids[::2])
        assert values.tobytes() == oracle_values(grids, sets).tobytes()


def test_pairwise_plans_over_the_cap(monkeypatch):
    # with the cap lowered, the largest structures' pairwise plans are
    # over it where their elimination plans are not: the family has no
    # program and replays run by run, so sets that eliminate every
    # structure still get their values, and a set that replays pairwise
    # is refused as a replay structure by structure refuses it
    sig_shapes, bound, q, sets = program_case("mixed")
    eliminated = [dict(b, e=equality_signature(q, 0, 3), m=identity_signature(q)) for b in sets]
    monkeypatch.setattr(contraction, "MAX_ENTRIES", q)
    monkeypatch.setattr(spans, "_family", None)
    for _ in range(2):
        grids, values = replayed(bound, eliminated)
        assert values.tobytes() == oracle_values(grids, eliminated).tobytes()
        with pytest.raises(ValueError) as alone:
            list(oracle_signatures(grids, *sets))
        with pytest.raises(ValueError) as refused:
            list(spans.closed_signature_blocks(bound, *sets))
        assert str(refused.value) == str(alone.value)
        assert spans._family[1] == grids
    assert spans._family[2] is None


def test_over_cap_family_is_compiled_once(monkeypatch):
    # the family of test_pairwise_plans_over_the_cap, every set binding
    # e and m to equalities, so that a replay run by run plans each
    # structure once.  Its first walk, with the later sets binding ids
    # with other shapes, tries to compile it under its own shapes and
    # keeps the mark of no program; later replays compile nothing and
    # plan each structure once
    sig_shapes, bound, q, sets = program_case("mixed")
    eliminated = [dict(b, e=equality_signature(q, 0, 3), m=identity_signature(q)) for b in sets]
    monkeypatch.setattr(contraction, "MAX_ENTRIES", q)
    monkeypatch.setattr(spans, "_family", None)
    routes, compiled = [], []
    plan, compile_family = contraction._plan, spans.compile_family

    def counted(grid, shapes, equal):
        routes.append(equal)
        return plan(grid, shapes, equal)

    monkeypatch.setattr(contraction, "_plan", counted)
    monkeypatch.setattr(spans, "compile_family", lambda *a: compiled.append(a) or compile_family(*a))
    swapped = eliminated[:1] + [dict(b, a=b["u"], u=b["a"]) for b in eliminated[1:]]
    with pytest.raises(ValueError):
        list(spans.closed_signature_blocks(bound, *swapped))
    assert spans._family[2] is None and len(compiled) == 1
    grids = spans._family[1]
    want = oracle_values(grids, eliminated)
    for _ in range(2):
        routes.clear()
        block, values = replayed(bound, eliminated)
        assert block == grids and values.tobytes() == want.tobytes()
        assert len(routes) == len(grids) // 2
        assert spans._family[2] is None and len(compiled) == 1


def test_other_shapes_replay_without_recompiling(monkeypatch):
    # a compiled family replayed with later sets binding s0 and s1 with
    # each other's shapes compiles nothing again, and raises what a cold
    # walk of the same grids raises
    sig_shapes, bound, q, sets = program_case("q3")
    monkeypatch.setattr(spans, "_family", None)
    grids, values = replayed(bound, sets)
    program = spans._family[2]
    assert program is not None
    swapped = sets[:1] + [dict(b, s0=b["s1"], s1=b["s0"]) for b in sets[1:]]
    with pytest.raises(ValueError) as cold:
        list(spans.structure_signatures(grids, *swapped))

    def no_compile(*args):
        raise AssertionError("a stored family was compiled twice")

    monkeypatch.setattr(spans, "compile_family", no_compile)
    for _ in range(2):
        with pytest.raises(ValueError) as refused:
            list(spans.closed_signature_blocks(bound, *swapped))
        assert str(refused.value) == str(cold.value)
        assert spans._family[2] is program
    block, again = replayed(bound, sets)
    assert block is grids
    assert again.tobytes() == values.tobytes() == oracle_values(grids, sets).tobytes()


def test_a_later_set_of_other_shapes_is_refused(monkeypatch):
    # at q = 3, s1 (2,1) and s2 (1,2) have arrays of one shape, so only
    # the shapes tell later sets that swap them from the first; every
    # route refuses them by id and set before contracting, the stored
    # program's replay as a cold walk does
    sig_shapes, bound, q, sets = program_case("q3")
    monkeypatch.setattr(spans, "_family", None)
    grids, _ = replayed(bound, sets)
    swapped = sets[:1] + [dict(b, s1=b["s2"], s2=b["s1"]) for b in sets[1:]]
    assert swapped[1]["s1"].array.shape == sets[0]["s1"].array.shape
    with pytest.raises(ValueError, match=r"^binding set 1 binds 's[12]' with shape") as cold:
        list(spans.structure_signatures(grids, *swapped))
    messages = []
    for family in (spans._family, None):  # replayed by the program, then walked cold
        monkeypatch.setattr(spans, "_family", family)
        with pytest.raises(ValueError) as refused:
            list(spans.closed_signature_blocks(bound, *swapped))
        messages.append(str(refused.value))
    assert messages == [str(cold.value)] * 2


def test_import_does_not_load_the_compiler():
    # every CLI call and perfbench's setup_s pay for a cold import; the
    # compiler's module comes with holant, but no family is compiled, no
    # plan is made and the step memo is untouched until the first query
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import holant; from holant import contraction as c, spans as s; "
        "print(s._family, c._contraction_plan.cache_info().currsize, "
        "c._einsum_path.cache_info().currsize, c.step_memo.hits + c.step_memo.misses)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "None 0 0 0\n"
