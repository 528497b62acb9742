"""Every name a package module imports is used in it, no check is an `assert`,
every name the benchmark traces exists, and every public name has a reader.

`__init__.py` is exempt from the import rule: its imports are its public
names.  `python -O` strips asserts, so a check written as one vanishes.
The benchmark's tracer stops at a name it cannot patch, so a renamed
function must fail here first.  A public name that no module reads, README
does not document and the benchmark does not trace is library-only code.
"""

import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import permpriv

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


def names_read(source: str) -> set[str]:
    """Names a module reads, leaving out a function's or class's reads of itself."""
    read = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id != owner:
                    read.add(child.id)
            visit(child, owner)

    visit(ast.parse(source), None)
    return read


def test_the_walk_skips_a_definition_reading_itself():
    source = "def f(n):\n    return f(n - 1)\nX = 1\nclass C:\n    y = X\n"
    assert names_read(source) == {"n", "X"}


def test_every_public_name_has_a_reader():
    read = set().union(*(names_read((PACKAGE / m).read_text(encoding="utf-8")) for m in MODULES))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    traced = {part for _, attr in traced_points() for part in attr.split(".")}
    unread = [
        name for name in permpriv.__all__
        if name not in read | traced and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unread == []
