"""Tooling checks on the package source.

The contraction kernels: numpy ``einsum`` with three or more array operands
and no ``optimize`` runs as one naive nested loop over every index, which
made those calls the slowest part of the spinor pipeline.  Every module of
the package must contract through matmuls, two-operand einsums or an einsum
that is told to optimize.

Imports: a module reads every name it imports, so a deletion leaves no
stale import behind.  The package ``__init__.py`` re-exports, and a line
marked ``# noqa: F401`` keeps a name importable on purpose.

Definitions: every function, class and method of the package is read
somewhere outside its own body, in the package, its tests, demos or
benchmark, so code that nothing calls is deleted.  Dunders are exempt, and
a name the package ``__init__.py`` exports counts as read."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "emduality"
CHECKED = sorted(path.name for path in SRC.glob("*.py"))


def naive_einsums(source: str) -> list[tuple[int, int]]:
    """(line, operand count) of each ``np.einsum``/``numpy.einsum`` call with
    three or more array operands and no optimize (or optimize=False)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        if not node.args:
            continue
        if isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
            operands = len(node.args) - 1
        else:  # interleaved form: operand, sublist, operand, sublist, ...
            operands = (len(node.args) + 1) // 2
        optimize = next((k.value for k in node.keywords if k.arg == "optimize"), None)
        naive = optimize is None or (isinstance(optimize, ast.Constant)
                                     and optimize.value is False)
        if operands >= 3 and naive:
            found.append((node.lineno, operands))
    return found


def test_detector_flags_the_slow_pattern():
    source = "\n".join([
        'a = np.einsum("ij,jk->ik", x, y)',
        'b = np.einsum("ij,jk,kl->il", x, y, z)',
        'c = np.einsum("ij,jk,kl->il", x, y, z, optimize=True)',
        'd = numpy.einsum("i,ij,j->", x, y, x, optimize=False)',
        'e = np.einsum(x, [0, 1], y, [1, 2], z, [2, 3])',
    ])
    assert naive_einsums(source) == [(2, 3), (4, 3), (5, 3)]


@pytest.mark.parametrize("name", CHECKED)
def test_no_naive_multi_operand_einsum(name):
    found = naive_einsums((SRC / name).read_text(encoding="utf-8"))
    assert not found, "".join(
        f"\n{name}:{line}: np.einsum with {n} operands and no optimize"
        for line, n in found)


def test_every_module_is_scanned():
    assert {"duality.py", "fields.py", "grids.py", "spinors.py", "symplectic.py"} <= set(CHECKED)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads, except
    ``__future__`` features and names on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append((alias.lineno, name))
    return sorted(found)


def test_unused_import_detector():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "import numpy as np",
        "from dataclasses import (dataclass,",
        "                         field)",
        "from itertools import chain  # noqa: F401",
        "from math import pi as PI",
        "def f():",
        "    from functools import cache",
        "    return np.zeros(1), dataclass, PI",
    ])
    assert unused_imports(source) == [(2, "os"), (5, "field"), (9, "cache")]


@pytest.mark.parametrize("name", [n for n in CHECKED if n != "__init__.py"])
def test_no_unused_imports(name):
    found = unused_imports((SRC / name).read_text(encoding="utf-8"))
    assert not found, "".join(f"\n{name}:{line}: {imported} is imported and never used"
                              for line, imported in found)


def name_reads(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def unreferenced(source: str, reads: Counter) -> list[tuple[int, str]]:
    """(line, name) of each function, class or method of source that is read
    only inside its own body; reads counts the reads of the whole code base,
    source included.  Dunders are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and reads[name] <= name_reads(node)[name]:
                found.append((node.lineno, name))
    return found


def test_unreferenced_definition_detector():
    source = "\n".join([
        "def used(): return 1",
        "def recursive(n): return recursive(n - 1) if n else used()",
        "class Box:",
        "    def __len__(self): return 0",
        "    def method(self): return self.method",
        "    def read(self): return 2",
        "x = Box().read()",
    ])
    assert unreferenced(source, name_reads(ast.parse(source))) == [(2, "recursive"),
                                                                   (5, "method")]


def test_no_unreferenced_definitions():
    reads = Counter()
    for path in (p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py")):
        reads += name_reads(ast.parse(path.read_text(encoding="utf-8")))
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    reads.update(alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                 for alias in node.names)
    found = [(name, line, defined) for name in CHECKED
             for line, defined in unreferenced((SRC / name).read_text(encoding="utf-8"), reads)]
    assert not found, "".join(f"\n{name}:{line}: {defined} is never read outside its body"
                              for name, line, defined in found)
