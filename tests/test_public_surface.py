"""Every name in holant.__all__ has a caller outside the tests, and every
name perfbench's tracer wraps exists.

A caller is a use in the library (src/holant, apart from __init__.py),
the demos or perfbench: a name or attribute in code, or an import.
Strings, comments and docstrings do not count, nor does a use inside
the name's own definition or inside the definition of another exported
name that has no caller itself.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import holant

ROOT = Path(__file__).resolve().parent.parent
CONSUMERS = [
    p for p in sorted((ROOT / "src" / "holant").glob("*.py")) if p.name != "__init__.py"
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
