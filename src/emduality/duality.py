"""Stabilizer and U-duality Lie algebras of a period-map model.

All computations are sample-based: the defining conditions are linearized
over sp(2n, R) (plus the isometry algebra of the chart) at quasi-random chart
points and the relevant algebras are extracted as numerical null spaces.
Reported dimensions are checked for stability under doubling the sample set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from . import expressions as ex
from .errors import EmdualityError
from .models import ScalarChart, checked_periods
from .symplectic import (fractional_action, infinitesimal_fractional_action,
                         null_space, sp_basis)

RANK_RTOL = 1e-8       # relative singular value threshold for rank decisions
TOL_LIFT = 1e-8        # normalized residual below which a lift is accepted
MIN_SAMPLES = 8


class SampleInstabilityError(RuntimeError, EmdualityError):
    """Reported dimension changed when the sample set was doubled."""


def _coord_env(chart: ScalarChart, p: np.ndarray) -> dict[str, np.ndarray]:
    """Symbol environment for Killing field components at a point or a stack
    of points: x, y on the half plane, x1..xk on flat charts."""
    if chart.kind == "poincare":
        p = np.asarray(p, dtype=float)
        return {"x": p[..., 0] + 0j, "y": p[..., 1] + 0j}
    return chart.env(p)


@dataclass(frozen=True)
class KillingField:
    """Isometry generator of a chart metric with expression components."""

    name: str
    chart: ScalarChart
    components: tuple[ex.Expr, ...]

    # value, jacobian and lie_derivative_metric take a point (dim,) or a
    # stack of points (..., dim).

    def _stack(self, value, shape: tuple[int, ...], axis: int) -> np.ndarray:
        return np.stack([np.broadcast_to(np.real(value(c)), shape)
                         for c in self.components], axis=axis)

    def value(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        env = _coord_env(self.chart, p)
        return self._stack(lambda c: ex.evaluate(c, env), p.shape[:-1], -1)

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """d xi^i / d x^j, exact from the expression derivative."""
        p = np.asarray(p, dtype=float)
        dim = self.chart.dim
        env = _coord_env(self.chart, p[..., None, :])     # axis j: direction
        denv = _coord_env(self.chart, np.eye(dim))
        return self._stack(lambda c: ex.derivative(c, env, denv), p.shape[:-1] + (dim,), -2)

    def lie_derivative_metric(self, p: np.ndarray) -> np.ndarray:
        """(L_xi G)_ij = xi^k dG_ij/dx^k + G_kj dxi^k/dx^i + G_ik dxi^k/dx^j."""
        g = self.chart.metric(p)
        dxi = self.jacobian(p)
        return (np.einsum("...k,...kij->...ij", self.value(p), self.chart.metric_deriv(p))
                + np.swapaxes(dxi, -1, -2) @ g + g @ dxi)


def killing_basis(chart: ScalarChart) -> list[KillingField]:
    """Basis of the isometry algebra: sl(2, R) generators on the half plane,
    translations + rotations on flat charts."""
    if chart.kind == "poincare":
        one = ex.Num(1 + 0j)
        return [
            KillingField("d_x", chart, (one, ex.Num(0j))),
            KillingField("x d_x + y d_y", chart, (ex.parse("x", {"x"}), ex.parse("y", {"y"}))),
            KillingField("(x^2 - y^2) d_x + 2xy d_y", chart,
                         (ex.parse("x^2 - y^2", {"x", "y"}), ex.parse("2*x*y", {"x", "y"}))),
        ]
    if chart.kind == "flat":
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
    raise ValueError(f"unsupported chart kind {chart.kind!r}")


def killing_residual(field_: KillingField, points: np.ndarray) -> float:
    """Max-norm of the metric Lie derivative over the points."""
    lie = field_.lie_derivative_metric(np.atleast_2d(points))
    return float(np.max(np.abs(lie), initial=0.0))


# ------------------------------------------------------------ linear systems

def _sym_upper_rows(m: np.ndarray) -> np.ndarray:
    """Real rows from the upper triangles of complex symmetric matrices
    (..., n, n): real parts, then imaginary parts."""
    iu = np.triu_indices(m.shape[-1])
    vals = m[..., iu[0], iu[1]]
    return np.concatenate([vals.real, vals.imag], axis=-1)


def _stab_rows(model, basis, points) -> np.ndarray:
    """Rows of the linearized stabilizer condition at the sample points:
    n(n+1) equations per point, one column per basis element."""
    tau = checked_periods(model, points)
    cols = [_sym_upper_rows(infinitesimal_fractional_action(b, tau)) for b in basis]
    return np.stack(cols, axis=-1).reshape(-1, len(basis))


def _period_rows(model, xi: KillingField, points) -> np.ndarray:
    """Period derivative along xi at the sample points, in stabilizer row order."""
    return _sym_upper_rows(model.period_directional(points, xi.value(points))).ravel()


def _default_samples(model, count: int = 16) -> np.ndarray:
    return model.chart.sample_points(count)


@dataclass
class StabilizerReport:
    dim_stab_sp: int
    basis: list[np.ndarray]
    residual: float
    samples_used: int
    minus_id_fixes_period: bool
    notes: str = "algebra dim only; discrete part not computed"


def stab_sp_algebra(model, samples: np.ndarray | None = None) -> StabilizerReport:
    """Lie algebra of the subgroup of Sp(2n, R) fixing every sampled period value.

    Null space of the stacked linearized fixing condition; the dimension must
    be stable under halving the sample set or SampleInstabilityError is raised.
    """
    if samples is None:
        samples = _default_samples(model)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) < MIN_SAMPLES:
        warnings.warn(f"only {len(samples)} samples; stabilizer may be under-determined",
                      stacklevel=2)
    basis = sp_basis(model.n_v)
    rows_half = _stab_rows(model, basis, samples[: max(len(samples) // 2, 1)])
    rows_full = _stab_rows(model, basis, samples)
    null_half = null_space(rows_half, RANK_RTOL)
    null_full = null_space(rows_full, RANK_RTOL)
    if null_half.shape[1] != null_full.shape[1]:
        raise SampleInstabilityError(
            f"stabilizer dim changed {null_half.shape[1]} -> {null_full.shape[1]} when doubling samples")
    mats = [sum(c * b for c, b in zip(col, basis)) for col in null_full.T]
    residual = 0.0
    if mats:
        residual = float(max(np.max(np.abs(rows_full @ null_full)), 0.0))
    # exact check that -Id fixes every sampled period value
    tau = checked_periods(model, samples)
    out = fractional_action(-np.eye(2 * model.n_v), tau, check=False)
    minus_ok = bool(np.all(np.max(np.abs(out - tau), axis=(-2, -1))
                           <= 1e-14 * np.maximum(1.0, np.max(np.abs(tau), axis=(-2, -1)))))
    return StabilizerReport(dim_stab_sp=null_full.shape[1], basis=mats,
                            residual=residual, samples_used=len(samples),
                            minus_id_fixes_period=minus_ok)


def lift_killing_field(model, xi: KillingField, samples: np.ndarray | None = None,
                       tol: float = TOL_LIFT) -> tuple[np.ndarray | None, float]:
    """Least-squares sp(2n, R) element matching the period derivative along xi.

    Returns (X, residual); X is None when the normalized residual exceeds tol
    (the field does not lift).  X always satisfies the sp condition exactly
    since it is built in sp coordinates.
    """
    if samples is None:
        samples = _default_samples(model)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    basis = sp_basis(model.n_v)
    rows = _stab_rows(model, basis, samples)
    rhs = _period_rows(model, xi, samples)
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    residual = float(np.max(np.abs(rows @ sol - rhs))) / scale
    x = sum(c * b for c, b in zip(sol, basis))
    return (x if residual <= tol else None), residual


@dataclass
class UDualityReport:
    dim_u: int
    dim_stab_sp: int
    dim_iso_pr: int
    exactness_gap: int
    lift_table: list[tuple[str, np.ndarray | None, float]] = field(default_factory=list)
    samples_used: int = 0
    notes: str = ""


def uduality_algebra(model, samples: np.ndarray | None = None) -> UDualityReport:
    """Joint algebra of pairs (Killing field, sp element) compatible with the model.

    dim_u is the null-space dimension of the joint linearized condition over
    iso(chart) + sp(2n, R); dim_iso_pr is the rank of its projection onto the
    isometry factor.  The exactness gap dim_u - dim_stab - dim_iso_pr is 0
    exactly when the two factors assemble into a short exact sequence at the
    algebra level.
    """
    if samples is None:
        samples = _default_samples(model)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) < MIN_SAMPLES:
        warnings.warn(f"only {len(samples)} samples; result may be under-determined",
                      stacklevel=2)
    basis = sp_basis(model.n_v)
    kfields = killing_basis(model.chart)
    k = len(kfields)

    def joint_rows(pts):
        iso_part = [-_period_rows(model, kf, pts) for kf in kfields]
        return np.column_stack([_stab_rows(model, basis, pts)] + iso_part)

    null_half = null_space(joint_rows(samples[: max(len(samples) // 2, 1)]), RANK_RTOL)
    null_full = null_space(joint_rows(samples), RANK_RTOL)
    if null_half.shape[1] != null_full.shape[1]:
        raise SampleInstabilityError(
            f"U-duality dim changed {null_half.shape[1]} -> {null_full.shape[1]} when doubling samples")
    dim_u = null_full.shape[1]

    stab = stab_sp_algebra(model, samples)
    iso_proj = null_full[len(basis):, :]
    if iso_proj.size:
        s = np.linalg.svd(iso_proj, compute_uv=False)
        dim_iso_pr = int(np.sum(s > RANK_RTOL * max(s[0] if s.size else 0.0, 1.0)))
    else:
        dim_iso_pr = 0

    table = []
    for kf in kfields:
        x, res = lift_killing_field(model, kf, samples)
        table.append((kf.name, x, res))
    lifted = sum(1 for _, x, _ in table if x is not None)
    notes = f"{lifted}/{k} Killing basis fields admit lifts"
    return UDualityReport(dim_u=dim_u, dim_stab_sp=stab.dim_stab_sp,
                          dim_iso_pr=dim_iso_pr,
                          exactness_gap=dim_u - stab.dim_stab_sp - dim_iso_pr,
                          lift_table=table, samples_used=len(samples), notes=notes)


def check_uduality_pair(f, a: np.ndarray, model, samples: np.ndarray | None = None) -> float:
    """Max deviation of A . N(p) from N(f(p)) over the samples.

    A small value certifies (f, A) as a finite duality transformation of the
    model.  Raises the underlying pole error if the action hits a pole.
    """
    if samples is None:
        samples = _default_samples(model)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lhs = fractional_action(a, checked_periods(model, samples), check=False)
    rhs = checked_periods(model, f.apply(samples))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
