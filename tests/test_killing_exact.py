"""The exact AdS4 Killing spinors: the oracle of the RK4 sweep and of the
finite-difference Killing residual.

On the built-in frame e = delta / (lam z), with z = x^3, the generator of
the Killing transport is M_i = gamma_i (1 + gamma_3) / (2 z) for i = 0, 1, 2
and M_3 = gamma_3 / (2 z), with lam cancelled.  With P+- = (1 +- gamma_3) / 2,

    eps(x) = z^(-1/2) P- eps0 + (z^(1/2) + z^(-1/2) sum_{i<3} x^i gamma_i) P+ eps0

solves d_mu eps = M_mu eps for every constant eps0: the whole Killing spinor
space.  The sweep is RK4, so it meets eps at order 4; the residual's
stencil is second order, so it reads order 2 at fixed nodes.
"""

import numpy as np
import pytest

from emduality import grids as gr
from emduality import spinors as sn

EPS0 = np.array([0.9, -0.4, 0.3, 1.1])
# the nodes of the 9^4 grid's margin-2 interior, on the 9^4 and 17^4 grids
FIXED = {9: (slice(2, 7),) * 4, 17: (slice(4, 13),) * 4}


def ads_grid(n):
    return gr.GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4), (0.8, 1.6)), (n,) * 4)


def exact_spinor(x, eps0, swap=False, sign=1.0):
    """The exact Killing spinor through eps0 at the nodes x (..., 4); swap
    exchanges P+ and P-, and sign multiplies the x^i gamma_i term (the
    negative controls)."""
    gamma = sn.clifford_rep().gamma
    plus, minus = (np.eye(4) + gamma[3]) / 2, (np.eye(4) - gamma[3]) / 2
    if swap:
        plus, minus = minus, plus
    z = x[..., 3, None]
    slash = (x[..., :3] @ gamma[:3].reshape(3, 16)).reshape(x.shape[:-1] + (4, 4))
    return (z ** -0.5 * (minus @ eps0) + z ** 0.5 * (plus @ eps0)
            + sign * z ** -0.5 * (slash @ (plus @ eps0)))


@pytest.mark.parametrize("axis_order", [(0, 1, 2, 3), (3, 2, 1, 0)])
@pytest.mark.parametrize("k", range(4))
def test_sweep_meets_exact_spinor_at_fourth_order(k, axis_order):
    devs = []
    for n in (9, 17):
        grid = ads_grid(n)
        fr = sn.builtin_frame("ads4-poincare", grid, lam=1.0)
        exact = exact_spinor(grid.coords(), np.eye(4)[k])
        swept = sn.integrate_killing(fr, 1.0, exact[(0,) * 4], axis_order=axis_order)
        devs.append(float(np.max(np.abs(swept - exact)) / np.max(np.abs(exact))))
    assert devs[0] < 1e-6
    assert 3.8 <= np.log2(devs[0] / devs[1]) <= 4.2


def test_sweep_deviation_does_not_depend_on_lambda():
    grid = ads_grid(9)
    exact = exact_spinor(grid.coords(), EPS0)
    devs = [np.max(np.abs(sn.integrate_killing(sn.builtin_frame("ads4-poincare", grid, lam=lam),
                                               lam, exact[(0,) * 4]) - exact))
            for lam in (0.7, 1.0, 1e4)]
    assert 0.0 < devs[0] < 1e-5
    assert max(devs) - min(devs) <= 1e-9 * devs[0]


def test_residual_of_exact_spinor_second_order_at_fixed_nodes():
    res = []
    for n in (9, 17):
        grid = ads_grid(n)
        fr = sn.builtin_frame("ads4-poincare", grid, lam=1.0)
        res.append(sn.killing_residual_max(fr, exact_spinor(grid.coords(), EPS0), 1.0, FIXED[n]))
    assert res[0] < 1e-2
    assert 1.8 <= np.log2(res[0] / res[1]) <= 2.2


@pytest.mark.parametrize("control", [{"swap": True}, {"sign": -1.0}])
def test_negative_controls_are_not_killing(control):
    grid = ads_grid(9)
    fr = sn.builtin_frame("ads4-poincare", grid, lam=1.0)
    wrong = exact_spinor(grid.coords(), EPS0, **control)
    assert sn.killing_residual_max(fr, wrong, 1.0) > 1.0
    swept = sn.integrate_killing(fr, 1.0, wrong[(0,) * 4])
    assert np.max(np.abs(swept - wrong)) > 0.1 * np.max(np.abs(wrong))
