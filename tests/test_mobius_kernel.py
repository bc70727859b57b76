"""The fractional action's kernel: one inverse of a + b tau.

``symplectic._action`` forms (a + b tau)^-1 once; A . tau, the differential
of ``mobius_differential`` and the pole rule are all read from it.  The
differential is the symplectic congruence d(A.tau)[h] = (a + b tau)^-T h
(a + b tau)^-1, which holds for A in Sp(2n, R) only, so a transformed model
refuses any other A.  Kept here as oracles: the general formula
(d - (A.tau) b) h (a + b tau)^-1 the kernel had before, which holds for any
A, a central finite difference of tau -> A . tau, and the pole rule the
kernel had before, decided from the singular values of a + b tau.  The new
rule reads Frobenius norms: it is the old one exactly for n = 1, and differs
for n >= 2 only where sigma_min / max(sigma_max, 1) lies within a factor n of
1e-13."""

import ast

import numpy as np
import pytest
from test_one_block_path import SRC, loads

from emduality import models as md
from emduality import symplectic as sp

NODES = 9 ** 4


def swap(m):
    return np.swapaxes(m, -1, -2)


def siegel_stack(n, count, rng):
    """count random points of Siegel space: R symmetric, I = M^T M + 0.1."""
    r = rng.standard_normal((count, n, n))
    m = rng.standard_normal((count, n, n))
    return (r + swap(r)) / 2 + 1j * (swap(m) @ m + 0.1 * np.eye(n))


def tangent_stack(n, count, rng):
    h = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return (h + swap(h)) / 2


def per_node(x):
    return np.max(np.abs(x), axis=(-2, -1))


def central_difference(a, tau, h, step=1e-5):
    return (sp.fractional_action(a, tau + step * h)
            - sp.fractional_action(a, tau - step * h)) / (2 * step)


def general(a, tau, h):
    """d(A.tau)[h] = (d - (A.tau) b) h (a + b tau)^-1, for any A."""
    ab, bb, cb, db = sp.blocks(a)
    inv = np.linalg.inv(ab + bb @ tau)
    return (db - (cb + db @ tau) @ inv @ bb) @ h @ inv


# ------------------------------------------------ the differential, against oracles

@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_congruence_and_finite_difference(n):
    rng = np.random.default_rng(40 + n)
    a = sp.random_sp(n, rng, 0.5)
    tau, h = siegel_stack(n, NODES, rng), tangent_stack(n, NODES, rng)
    atau, d = sp.mobius_differential(a, tau, h)
    assert np.array_equal(atau, sp.fractional_action(a, tau))
    scale = per_node(d)
    assert np.all(per_node(d - general(a, tau, h)) <= 1e-12 * scale)
    assert np.all(per_node(d - central_difference(a, tau, h)) <= 1e-6 * scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_symplectic_a_breaks_the_congruence_not_the_differential(n):
    """Negative control of the guard: a transformed model refuses a
    non-symplectic A, on which the congruence of the kernel misses the
    finite difference while the general formula still meets it."""
    rng = np.random.default_rng(50 + n)
    a = sp.random_sp(n, rng, 0.5) @ np.diag([2.0] * n + [1.0] * n)
    assert not sp.sp_check(a)[0]
    base = md.Model("base", n, md.ScalarChart("poincare", 2))
    with pytest.raises(sp.DomainError, match="A is not symplectic"):
        md.TransformedModel(base, md.identity_isometry(base.chart), a)
    tau, h = siegel_stack(n, NODES, rng), tangent_stack(n, NODES, rng)
    d = sp.mobius_differential(a, tau, h)[1]
    fd = central_difference(a, tau, h)
    scale = per_node(fd)
    assert np.all(per_node(general(a, tau, h) - fd) <= 1e-6 * scale)
    assert np.all(per_node(d - fd) > 0.1 * scale)


# ------------------------------------------------ the SVD pole rule, as oracle

def svd_pole(den):
    """The pole rule before one inverse: sigma_min <= 1e-13 max(sigma_max, 1)."""
    sv = np.linalg.svd(den, compute_uv=False)
    return bool(sv[-1] <= 1e-13 * max(sv[0], 1.0))


def kernel_pole(den):
    """The kernel's decision at one point, with A = -Omega = [[0, Id], [-Id, 0]],
    for which a + b tau is tau itself."""
    try:
        sp.fractional_action(-sp.omega(den.shape[-1]), den)
    except sp.PoleError:
        return True
    return False


def test_pole_rule_is_the_svd_rule_for_n1():
    """A sweep of |a + b tau| across 1e-13 at several phases.  The sweep steps
    over 1e-13 itself, where |1 / z| and |z| may round one ulp apart."""
    moduli = np.concatenate([np.logspace(-15, -11, 400), 1e-13 * (1 + np.array([-1e-9, 1e-9])),
                             np.logspace(-3, 3, 13)])
    decisions = []
    for s in moduli:
        for phase in np.linspace(0, 2 * np.pi, 7):
            den = np.array([[s * np.exp(1j * phase)]])
            decisions.append(svd_pole(den))
            assert kernel_pole(den) == decisions[-1], (s, phase)
    assert 0 < sum(decisions) < len(decisions)


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_pole_rule_agrees_with_the_svd_rule_outside_its_band(n):
    """Random a + b tau with prescribed singular values: sigma_max from 1e-15
    to 1e8 and sigma_min down to 1e-17 below it.  Outside the band
    [1e-13 / n, 1e-13 n] of sigma_min / max(sigma_max, 1) the decisions agree."""
    rng = np.random.default_rng(60 + n)
    kept = []
    for _ in range(600):
        top = rng.uniform(-15, 8)
        logs = np.sort(rng.uniform(top - 17, top, n))[::-1]
        logs[0] = top
        den = random_unitary(n, rng) @ np.diag(10.0 ** logs) @ random_unitary(n, rng)
        sv = np.linalg.svd(den, compute_uv=False)
        ratio = sv[-1] / max(sv[0], 1.0)
        if 1e-13 / n <= ratio <= 1e-13 * n:
            continue
        kept.append(svd_pole(den))
        assert kernel_pole(den) == kept[-1], (sv, ratio)
    assert len(kept) > 400 and 0 < sum(kept) < len(kept)


# ------------------------------------------------ input that is not finite

@pytest.mark.parametrize("tau", [np.array([[np.nan + 1j]]), np.array([[np.inf + 1j]]),
                                 np.array([[complex(0, np.inf)]]),
                                 np.array([[[1j]], [[np.nan + 0j]], [[2j]]]),
                                 np.array([[1j, 0.5], [0.5, np.nan]]),
                                 np.array([[[1j, 0.5], [0.5, 1j]], [[1, 1], [1, 1 + 0j]]])],
                         ids=["nan", "inf", "inf-imaginary", "nan-member",
                              "nan-entry", "exactly-singular-member"])
@pytest.mark.filterwarnings("error")
def test_not_finite_or_singular_denominator_is_a_pole(tau):
    """a + b tau = -tau for A = Omega: a NaN or infinite tau, and an exactly
    singular member of a stack, raise PoleError from both functions, not
    numpy's LinAlgError, and numpy warns of nothing: a tau that is not finite
    is refused before the inf * 0 of b tau."""
    a = sp.omega(tau.shape[-1])
    with pytest.raises(sp.PoleError, match=r"a \+ b tau is singular"):
        sp.fractional_action(a, tau)
    with pytest.raises(sp.PoleError, match=r"a \+ b tau is singular"):
        sp.mobius_differential(a, tau, np.ones_like(tau))


# ------------------------------------------------ one inverse, by the source

def linalg_calls(function):
    """Names of the np.linalg functions a top-level function of symplectic
    calls, with repeats."""
    tree = ast.parse((SRC / "symplectic.py").read_text(encoding="utf-8"))
    top = next(t for t in tree.body if getattr(t, "name", None) == function)
    return sorted(node.func.attr for node in ast.walk(top)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and ast.unparse(node.func.value) == "np.linalg")


def test_svd_read_only_by_the_null_space_rules():
    assert {owner for _, module, owner in loads({"svd"}) if module == "symplectic"} == {
        "null_space", "column_rank"}


def test_action_forms_one_inverse():
    calls = linalg_calls("_action")
    assert calls.count("inv") == 1 and not {"svd", "solve", "pinv"} & set(calls)
    assert linalg_calls("fractional_action") == []
    assert linalg_calls("mobius_differential") == []
