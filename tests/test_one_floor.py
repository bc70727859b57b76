"""The one floor of the membership rules.

Every relative membership rule of the package (tau symmetric, J^2 = -Id,
J^T Omega J = Omega, X in sp(2n, R), A in Sp(2n, R), -Id fixing the periods,
twisted self-duality and the chirality of a spinor) compares its defect with
tol max(1, scale)^power through ``symplectic._within``.  The guard below finds
every other place that floors a scale at 1.0; the one left is the pole rule
of ``_action``, a condition number."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from emduality import models as md
from emduality import symplectic as sp

SRC = Path(__file__).resolve().parents[1] / "src" / "emduality"


def floors(source: str) -> list[str]:
    """Names of the functions holding a ``max(...)`` or ``np.maximum(...)``
    call with a constant 1.0 argument, one entry per call."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else (
                node.func.attr if isinstance(node.func, ast.Attribute) else None)
            if name in ("max", "maximum") and any(
                    isinstance(a, ast.Constant) and isinstance(a.value, float)
                    and a.value == 1.0 for a in node.args):
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_floor_detector():
    source = "\n".join([
        "def f(x):",
        "    return max(1.0, x) + max(1, x)",
        "def g(x):",
        "    return np.maximum(x, 1.0) * np.maximum(x, 2.0)",
    ])
    assert floors(source) == ["f", "g"]


def test_the_floor_is_written_once():
    found = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner in floors(path.read_text(encoding="utf-8"))}
    assert found == {("symplectic.py", "_within"), ("symplectic.py", "_action")}


def function_tree(fn) -> ast.AST:
    return ast.parse(inspect.cleandoc("\n" + inspect.getsource(fn)))


def test_taming_reads_its_omega_law_from_sp_check():
    tree = function_tree(sp.Taming.__post_init__)
    calls = {n.func.id for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "sp_check" in calls
    assert not any(isinstance(n, ast.Attribute) and n.attr == "T" for n in ast.walk(tree))


@pytest.mark.parametrize("fn", [sp._is_symmetric, sp.in_sp_algebra])
def test_membership_rules_take_no_tolerance(fn):
    assert len(inspect.signature(fn).parameters) == 1


@pytest.mark.parametrize("fn", [sp.fractional_action, sp.infinitesimal_fractional_action])
def test_mobius_actions_take_arrays_only(fn):
    names = {n.id for n in ast.walk(function_tree(fn)) if isinstance(n, ast.Name)}
    assert "SiegelPoint" not in names


def test_within_is_relative_above_one_and_absolute_below():
    assert sp._within(1e-9, 1e-10, 10.0)
    assert not sp._within(1e-9, 1e-10, 1.0)
    assert sp._within(1e-10, 1e-10, 1e-3)
    assert sp._within(1e-6, 1e-10, 100.0, power=2)
    assert not sp._within(1e-6, 1e-10, 10.0, power=2)


def test_within_holds_for_every_matrix_of_a_stack_and_nan_fails():
    scale = np.array([1.0, 10.0])
    assert sp._within(np.array([1e-10, 1e-9]), 1e-10, scale)
    assert not sp._within(np.array([2e-10, 1e-9]), 1e-10, scale)
    assert not sp._within(np.array([0.0, np.nan]), 1e-10, scale)


# ------------------------------------------------------------- scale sweep
#
# N -> cN is an exact symmetry of the equations (conjugation by a diagonal
# element of Sp(2n, R)), so a rule that decides membership must not change its
# verdict with c.  Each input below is built at scale c; a valid one must be
# accepted at every c, and a copy whose defect is 1e-6 of its scale must be
# refused.  Below c = 1 the floor max(1, scale) turns a relative rule into an
# absolute one: there the pair's and the Siegel point's symmetry rule accept
# such a copy (FOUND lines in CHANGES.md), and no other rule may.

SCALES = [10.0 ** k for k in (-150, -80, -6, 0, 6, 80, 150)]
FLOORED_BELOW_ONE = {"pair", "siegel"}
BASE = sp.random_couplings(2, np.random.default_rng(29))
THETA = 0.6   # (|cos| + |sin|)^2 < 2: conjugating by the rotation at most doubles an entry
Q = np.array([[np.cos(THETA), -np.sin(THETA)], [np.sin(THETA), np.cos(THETA)]])
A0 = np.block([[Q, np.zeros((2, 2))], [np.zeros((2, 2)), Q]])   # in U(2), inside Sp(4, R)


def pair_at(c: float) -> sp.ElectromagneticPair:
    """BASE times a multiple k of c.  The taming of kN has the blocks
    -k(I + R I^-1 R) and I^-1 / k, so k is chosen to make the larger of the two
    about max(c, 1/c) / 2, which keeps the rotated taming inside the 1e150
    range at the extreme scales."""
    r, i = BASE.R, BASE.I
    iinv = np.linalg.inv(i)
    k = (c / (2 * np.max(np.abs(i + r @ iinv @ r))) if c >= 1
         else 2 * c * np.max(np.abs(iinv)))
    return sp.ElectromagneticPair(k * r, k * i)


def scaled_a(c: float) -> np.ndarray:
    s = np.sqrt(c)
    return np.diag([s, s, 1 / s, 1 / s])


def with_defect(m: np.ndarray, i: int, j: int, size: float) -> np.ndarray:
    out = np.array(m)
    out[i, j] += size
    return out


def build(kind: str, c: float, broken: bool):
    """The input of one kind at scale c; broken, a copy whose defect is 1e-6 of
    the scale its rule reads (max|m|, or max|m|^2 for the rules of power 2)."""
    pair = pair_at(c)
    if kind == "pair":
        i = with_defect(pair.I, 0, 1, 1e-6 * np.max(np.abs(pair.I))) if broken else pair.I
        return sp.ElectromagneticPair(pair.R, i)
    if kind == "siegel":
        tau = pair.siegel().tau
        return sp.SiegelPoint(with_defect(tau, 0, 1, 1e-6j * np.max(np.abs(tau))) if broken
                              else tau)
    j = sp.gamma(pair)
    if kind == "taming":   # (J + d Id)^2 + Id = 2 d J + d^2 Id
        return sp.Taming(j.J + 0.5e-6 * np.max(np.abs(j.J)) * np.eye(4)) if broken else j
    if kind == "conjugate":   # diag(1 + e, 1, 1, 1) moves A^T Omega A - Omega by e
        return sp.conjugate_taming(A0 @ np.diag([1 + 1e-6, 1, 1, 1]) if broken else A0, j)
    a = scaled_a(c)
    if broken:   # a_k d_k = 1 + e for the smaller entry of one pair, so max|A| stays
        k = 0 if c < 1 else 2
        a[k, k] *= 1 + 1e-6 * np.max(np.abs(a)) ** 2
    base = md.builtin("t3")
    return md.TransformedModel(base, md.parse_isometry("id", base.chart), a)


KINDS = ["pair", "siegel", "taming", "conjugate", "transformed"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", SCALES, ids=lambda c: f"{c:.0e}")
def test_valid_input_is_accepted_at_every_scale(kind, c):
    build(kind, c, broken=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", SCALES, ids=lambda c: f"{c:.0e}")
def test_defect_of_a_millionth_of_the_scale_is_refused(kind, c):
    try:
        build(kind, c, broken=True)
    except sp.DomainError:
        return
    assert c < 1 and kind in FLOORED_BELOW_ONE, f"{kind} accepts the broken copy at c = {c:g}"
