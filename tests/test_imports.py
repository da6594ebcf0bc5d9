"""Every module of the package and of the test suite references each name
it imports. A module's `__all__` entries (the package's re-exports) and
`from __future__` imports are exempt. No function of the package nested in
another refers to its own name: such a function reaches itself through its
closure cell, a reference cycle per call of the outer function that only
the cyclic garbage collector frees. No module of the package tunes that
collector (`gc.disable`, `gc.freeze`, `gc.set_threshold`): the package
leaves no garbage it needs, and pausing it only moves the collector's walk
of a new forest into the code that runs next."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "epst").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detected():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import List, Tuple\n"
        "__all__ = ['Tuple']\n"
        "def f(x: List) -> int:\n    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "np")]


def self_referring_closures(source: str):
    """(line, name) of every function nested in another function that
    refers to its own name."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, FUNCTIONS):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                found.add((inner.lineno, inner.name))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_self_referring_closures(path):
    assert self_referring_closures(path.read_text(encoding="utf-8")) == []


def test_self_referring_closure_detected():
    source = (
        "def top(n):\n    return top(n - 1) if n else 0\n"
        "class C:\n    def method(self):\n"
        "        def walk(node):\n            return [walk(c) for c in node]\n"
        "        def once():\n            return 1\n"
        "        return walk, once\n"
    )
    assert self_referring_closures(source) == [(5, "walk")]


COLLECTOR_TUNING = {"disable", "freeze", "set_threshold"}


def collector_tuning(source: str):
    """(line, name) of every use of `gc.disable`, `gc.freeze` or
    `gc.set_threshold`, under any name the `gc` module is imported as."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "gc"
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.update((node.lineno, a.name) for a in node.names if a.name in COLLECTOR_TUNING)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in COLLECTOR_TUNING
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_collector_tuning(path):
    assert collector_tuning(path.read_text(encoding="utf-8")) == []


def test_collector_tuning_detected():
    source = (
        "import gc\nimport gc as collector\nfrom gc import freeze\n"
        "gc.collect()\ngc.disable()\npause = collector.set_threshold\n"
        "class C:\n    disable = 1\nC.disable\n"
    )
    assert collector_tuning(source) == [(3, "freeze"), (5, "disable"), (6, "set_threshold")]
