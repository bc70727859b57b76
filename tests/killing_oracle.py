"""Expression-tree Killing fields: the oracle for ``duality.KillingBasis``.

Each field is a tuple of component expressions evaluated by the expression
language, so its values, its Jacobian and the Lie derivative of the chart
metric along it come from another path than the closed-form generators.
The fields carry the names of ``killing_basis`` in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emduality import expressions as ex
from emduality.models import ScalarChart


def coord_env(chart: ScalarChart, p: np.ndarray) -> dict[str, np.ndarray]:
    """Symbol environment for field components at a point or a stack of
    points: x, y on the half plane, x1..xk on flat charts."""
    if chart.kind == "poincare":
        p = np.asarray(p, dtype=float)
        return {"x": p[..., 0] + 0j, "y": p[..., 1] + 0j}
    return chart.env(p)


@dataclass(frozen=True)
class KillingField:
    """Isometry generator of a chart metric with expression components.

    value, jacobian and lie_derivative_metric take a point (dim,) or a stack
    of points (..., dim)."""

    name: str
    chart: ScalarChart
    components: tuple[ex.Expr, ...]

    def _stack(self, value, shape: tuple[int, ...], axis: int) -> np.ndarray:
        return np.stack([np.broadcast_to(np.real(value(c)), shape)
                         for c in self.components], axis=axis)

    def value(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        env = coord_env(self.chart, p)
        return self._stack(lambda c: ex.evaluate(c, env), p.shape[:-1], -1)

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """d xi^i / d x^j, exact from the expression derivative."""
        p = np.asarray(p, dtype=float)
        dim = self.chart.dim
        env = coord_env(self.chart, p[..., None, :])     # axis j: direction
        denv = coord_env(self.chart, np.eye(dim))
        return self._stack(lambda c: ex.derivative(c, env, denv), p.shape[:-1] + (dim,), -2)

    def lie_derivative_metric(self, p: np.ndarray) -> np.ndarray:
        """(L_xi G)_ij = xi^k dG_ij/dx^k + G_kj dxi^k/dx^i + G_ik dxi^k/dx^j."""
        g = self.chart.metric(p)
        dxi = self.jacobian(p)
        return (np.einsum("...k,...kij->...ij", self.value(p), self.chart.metric_deriv(p))
                + np.swapaxes(dxi, -1, -2) @ g + g @ dxi)


def oracle_basis(chart: ScalarChart) -> list[KillingField]:
    """The fields of ``killing_basis(chart)`` as expression trees."""
    if chart.kind == "poincare":
        one = ex.Num(1 + 0j)
        return [
            KillingField("d_x", chart, (one, ex.Num(0j))),
            KillingField("x d_x + y d_y", chart, (ex.parse("x", {"x"}), ex.parse("y", {"y"}))),
            KillingField("(x^2 - y^2) d_x + 2xy d_y", chart,
                         (ex.parse("x^2 - y^2", {"x", "y"}), ex.parse("2*x*y", {"x", "y"}))),
        ]
    out = []
    for i in range(chart.dim):
        comps = [ex.Num(0j)] * chart.dim
        comps[i] = ex.Num(1 + 0j)
        out.append(KillingField(f"d_x{i + 1}", chart, tuple(comps)))
    syms = {f"x{i + 1}" for i in range(chart.dim)}
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            comps = [ex.Num(0j)] * chart.dim
            comps[i] = ex.parse(f"-x{j + 1}", syms)
            comps[j] = ex.parse(f"x{i + 1}", syms)
            out.append(KillingField(f"x{i + 1} d_x{j + 1} - x{j + 1} d_x{i + 1}",
                                    chart, tuple(comps)))
    return out


def killing_residual(field_: KillingField, points: np.ndarray) -> float:
    """Max-norm of the metric Lie derivative over the points."""
    lie = field_.lie_derivative_metric(np.atleast_2d(points))
    return float(np.max(np.abs(lie), initial=0.0))
