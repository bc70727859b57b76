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

def _columns(m: np.ndarray) -> np.ndarray:
    """One column per entry of a stack (k, npts, n, n) of complex symmetric matrices;
    rows are point-major, n(n+1) per point: Re, then Im of the upper triangle."""
    iu = np.triu_indices(m.shape[-1])
    vals = m[..., iu[0], iu[1]]
    return np.concatenate([vals.real, vals.imag], axis=-1).reshape(len(m), -1).T


def _sample_set(model, samples: np.ndarray | None, n_fields: int = 0) -> np.ndarray:
    """The samples as a stack (count, dim).  By default max(16, 2 ceil(u / n(n+1)))
    points for u = dim sp(2n, R) + n_fields unknowns, so that the half set alone
    has as many equations as unknowns."""
    if samples is None:
        unknowns = model.n_v * (2 * model.n_v + 1) + n_fields
        per_point = model.n_v * (model.n_v + 1)
        samples = model.chart.sample_points(max(16, 2 * -(-unknowns // per_point)))
    return np.atleast_2d(np.asarray(samples, dtype=float))


@dataclass(frozen=True)
class _System:
    """Linearized conditions at the samples; the first half's rows are rows[:half]."""

    samples: np.ndarray
    tau: np.ndarray      # checked period matrices, (npts, n, n)
    basis: np.ndarray    # sp(2n, R) basis, (m, 2n, 2n)
    stab: np.ndarray     # S: infinitesimal action of each basis element, (rows, m)
    periods: np.ndarray  # P: period derivative along each field, (rows, k)
    half: int


def _system(model, samples, fields=(), what: str | None = None) -> _System:
    """Periods, S and P, each from one evaluation of the model; warns that
    ``what`` may be under-determined below MIN_SAMPLES samples."""
    samples = _sample_set(model, samples, len(fields))
    if what and len(samples) < MIN_SAMPLES:
        warnings.warn(f"only {len(samples)} samples; {what} may be under-determined",
                      stacklevel=3)
    tau = checked_periods(model, samples)
    basis = np.stack(sp_basis(model.n_v))
    stab = _columns(infinitesimal_fractional_action(basis[:, None], tau))
    periods = np.zeros((len(stab), 0))
    if fields:
        # dN along each chart axis once, then dN[xi] = xi^j d_j N field by field:
        # a (k, npts, dim) stack of field values would grow as dim^5 with the
        # default sample count (6.6 GB with its direction environment at dim 64)
        partials = model.period_directional(samples[:, None, :], np.eye(samples.shape[1]))
        periods = _columns(np.stack([np.einsum("pj,pjab->pab", kf.value(samples), partials)
                                     for kf in fields]))
    half = max(len(samples) // 2, 1) * model.n_v * (model.n_v + 1)
    return _System(samples, tau, basis, stab, periods, half)


def _stable_null_space(rows: np.ndarray, half: int, what: str) -> np.ndarray:
    """Null space of the rows, whose dimension must equal that of rows[:half]."""
    null_half = null_space(rows[:half], RANK_RTOL)
    null_full = null_space(rows, RANK_RTOL)
    if null_half.shape[1] != null_full.shape[1]:
        raise SampleInstabilityError(f"{what} dim changed {null_half.shape[1]} -> "
                                     f"{null_full.shape[1]} when doubling samples")
    return null_full


def _lifts(system: _System, tol: float) -> list[tuple[np.ndarray | None, float]]:
    """(X, normalized residual) per field, from one least-squares solve; X is
    None when the residual exceeds tol."""
    sol, *_ = np.linalg.lstsq(system.stab, system.periods, rcond=None)
    scale = np.maximum(1.0, np.max(np.abs(system.periods), axis=0))
    residual = np.max(np.abs(system.stab @ sol - system.periods), axis=0) / scale
    mats = np.tensordot(sol.T, system.basis, axes=1)
    return [(x if r <= tol else None, float(r)) for x, r in zip(mats, residual)]


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
    system = _system(model, samples, what="stabilizer")
    null = _stable_null_space(system.stab, system.half, "stabilizer")
    residual = float(np.max(np.abs(system.stab @ null), initial=0.0))
    # exact check that -Id fixes every sampled period value
    tau = system.tau
    out = fractional_action(-np.eye(2 * model.n_v), tau)
    minus_ok = bool(np.all(np.max(np.abs(out - tau), axis=(-2, -1))
                           <= 1e-14 * np.maximum(1.0, np.max(np.abs(tau), axis=(-2, -1)))))
    return StabilizerReport(dim_stab_sp=null.shape[1],
                            basis=list(np.tensordot(null.T, system.basis, axes=1)),
                            residual=residual, samples_used=len(system.samples),
                            minus_id_fixes_period=minus_ok)


def lift_killing_field(model, xi: KillingField, samples: np.ndarray | None = None,
                       tol: float = TOL_LIFT) -> tuple[np.ndarray | None, float]:
    """Least-squares sp(2n, R) element matching the period derivative along xi.

    Returns (X, residual); X is None when the normalized residual exceeds tol
    (the field does not lift).  X always satisfies the sp condition exactly
    since it is built in sp coordinates.
    """
    [(x, residual)] = _lifts(_system(model, samples, (xi,)), tol)
    return x, residual


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
    kfields = killing_basis(model.chart)
    system = _system(model, samples, kfields, what="result")
    null = _stable_null_space(np.column_stack([system.stab, -system.periods]),
                              system.half, "U-duality")
    dim_u = null.shape[1]
    dim_stab = _stable_null_space(system.stab, system.half, "stabilizer").shape[1]
    # rank of the isometry rows of the orthonormal null basis, on an absolute
    # threshold: their singular values are at most 1, so it is scale-free, where
    # unit-norm columns would turn roundoff into rank.  Off the row space vs of the
    # sp rows they are an isometry, so only the columns along vs need an SVD.
    vs = np.linalg.svd(null[:len(system.basis)], full_matrices=False)[2]
    dim_iso_pr = dim_u - len(vs) + int(np.linalg.matrix_rank(null[len(system.basis):] @ vs.T,
                                                              tol=RANK_RTOL))

    table = [(kf.name, x, res) for kf, (x, res) in zip(kfields, _lifts(system, TOL_LIFT))]
    lifted = sum(1 for _, x, _ in table if x is not None)
    return UDualityReport(dim_u=dim_u, dim_stab_sp=dim_stab, dim_iso_pr=dim_iso_pr,
                          exactness_gap=dim_u - dim_stab - dim_iso_pr, lift_table=table,
                          samples_used=len(system.samples),
                          notes=f"{lifted}/{len(kfields)} Killing basis fields admit lifts")


def check_uduality_pair(f, a: np.ndarray, model, samples: np.ndarray | None = None) -> float:
    """Max deviation of A . N(p) from N(f(p)) over the samples.

    A small value certifies (f, A) as a finite duality transformation of the
    model.  Raises the underlying pole error if the action hits a pole.
    """
    samples = _sample_set(model, samples)
    lhs = fractional_action(a, checked_periods(model, samples))
    rhs = checked_periods(model, f.apply(samples))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
