"""Tooling check on the contraction kernels: numpy ``einsum`` with three or
more array operands and no ``optimize`` runs as one naive nested loop over
every index, which made those calls the slowest part of the spinor pipeline.
Every module of the package must contract through matmuls, two-operand
einsums or an einsum that is told to optimize."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "emduality"
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
