"""Every name in holant.__all__ has a caller outside the tests, every
name perfbench's tracer wraps exists, the private names one library
module reads from another are listed, and importing holant stays cheap.

A caller is a use in the library (src/holant, apart from __init__.py),
the demos or perfbench: a name or attribute in code, or an import.
Strings, comments and docstrings do not count, nor does a use inside
the name's own definition or inside the definition of another exported
name that has no caller itself.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import holant

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "holant").glob("*.py"))
CONSUMERS = [
    p for p in LIBRARY if p.name != "__init__.py"
] + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _uses(path):
    """(name, enclosing top-level definition or None) for each use in path."""
    out = []
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                out.extend((alias.name, owner) for alias in node.names)
    return out


def _exports_without_caller():
    exported = set(holant.__all__)
    uses = [u for path in CONSUMERS for u in _uses(path) if u[0] in exported]
    dead: set[str] = set()
    while True:
        live = {name for name, owner in uses if owner != name and owner not in dead}
        if exported - live == dead:
            return dead
        dead = exported - live


def test_every_export_resolves():
    missing = [name for name in holant.__all__ if not hasattr(holant, name)]
    assert missing == []


def test_exports_are_listed_once():
    assert [n for n, c in Counter(holant.__all__).items() if c > 1] == []


def test_every_export_has_a_caller_outside_the_tests():
    assert CONSUMERS
    assert sorted(_exports_without_caller()) == []


def test_every_traced_name_resolves():
    # perfbench's tracer replaces these module attributes by name, so a
    # deleted one would crash every traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _, owners in tracing.BOUNDARIES.values() for site in owners]
    assert len(sites) > 10
    assert [(owner, attr) for owner, attr in sites if not hasattr(owner, attr)] == []


def test_import_does_not_load_scipy():
    # every CLI call and perfbench's setup_s pay for a cold import; scipy
    # is imported where it is used (epsilon_family_jordan), not here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, holant; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# (reader, owner, name): each private name one library module imports or
# reads from another.  A new entry is a decision to share a helper
# across a module boundary; holant.contraction shares none.
PRIVATE_READS = {
    ("homgraphs", "tensors", "_check_size"),
    ("portclasses", "grids", "_components_all_dangle"),
    ("portclasses", "grids", "_id_runs"),
    ("spans", "grids", "_port_walk"),
    ("spans", "tensors", "_check_size"),
}


def _private_reads(path):
    """(owner, name) for each _-prefixed name that path imports from a
    holant module or reads as an attribute of one it imported."""
    modules = {}  # local name -> the holant module it is bound to
    reads = set()
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("holant")):
            owner = (node.module or "").removeprefix("holant").lstrip(".")
            for alias in node.names:
                if not owner:  # from holant import grids, from . import serialize
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add((owner, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reads.add((modules[node.value.id], node.attr))
    return {(owner, name) for owner, name in reads if not name.startswith("__")}


def test_private_names_cross_modules_only_where_listed():
    found = {(p.stem, owner, name) for p in LIBRARY for owner, name in _private_reads(p) if owner != p.stem}
    assert found == PRIVATE_READS
    assert not any(owner == "contraction" for _, owner, _ in found)
