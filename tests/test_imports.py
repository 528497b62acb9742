"""Every name a package module imports is used in it, no check is an `assert`,
every name the benchmark traces exists, every public name has a reader, and
one function per file format writes files.

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


def file_writers(source: str) -> list[tuple[str, str]]:
    """(function, call) for each call that writes files: `open`, unless its
    mode is a string holding none of w, a, x and +, `.write_text`,
    `.write_bytes` and `csv.writer`.  A nested function counts as the
    outermost one that holds it."""
    found = []

    def mode(call):
        if isinstance(call.func, ast.Name):  # the builtin takes the mode second
            given = call.args[1:2]
        else:  # Path.open takes it first
            given = call.args[:1]
        given = given or [k.value for k in call.keywords if k.arg == "mode"]
        return given[0] if given else ast.Constant("r")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("write_text", "write_bytes") or (
                    name == "writer" and getattr(func.value, "id", None) == "csv"
                ):
                    found.append((owner, name))
                elif name == "open":
                    m = mode(child)
                    if not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or (
                        set(m.value) & set("wax+")
                    ):
                        found.append((owner, name))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_the_walk_finds_every_file_writer():
    source = (
        "import csv\n"
        "def a(p):\n    return open(p, 'rb').read()\n"
        "def b(p):\n    def inner():\n        return open(p, mode='a')\n    return inner\n"
        "def c(p, m):\n    p.open('w+').close()\n    open(p, m)\n    p.open()\n"
        "def d(p, fh):\n    p.write_text('x')\n    csv.writer(fh)\n    csv.reader(fh)\n"
    )
    assert file_writers(source) == [
        ("b", "open"), ("c", "open"), ("c", "open"), ("d", "write_text"), ("d", "writer"),
    ]


def test_one_function_per_file_format_writes_files():
    # CSV through write_columns, whose csv.writer writes only its header
    # row, and JSON through write_report
    found = {
        (module, owner, call)
        for module in [*MODULES, "__init__.py"]
        for owner, call in file_writers((PACKAGE / module).read_text(encoding="utf-8"))
    }
    assert found == {
        ("io_report.py", "write_columns", "open"),
        ("io_report.py", "write_columns", "writer"),
        ("io_report.py", "write_report", "open"),
    }


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
