"""Every name a package module imports is used in it, no check is an `assert`,
and every name the benchmark traces exists.

`__init__.py` is exempt from the import rule: its imports are its public
names.  `python -O` strips asserts, so a check written as one vanishes.
The benchmark's tracer stops at a name it cannot patch, so a renamed
function must fail here first.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permpriv"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_walk_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd(os)\n"
    assert unused_imports(source) == ["b"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def asserts(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_walk_finds_an_assert():
    assert asserts("def f(x):\n    assert x > 0\n    return x\n") == [2]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert(module):
    assert asserts((PACKAGE / module).read_text(encoding="utf-8")) == []


def traced_points():
    """(module, attribute) of every span in the benchmark's `bench/spans.py`."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for _, module, attr, _ in spans.POINTS]


@pytest.mark.parametrize("module,attr", traced_points())
def test_every_traced_name_resolves(module, attr):
    home = importlib.import_module(f"permpriv.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), home))
