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
from .errors import EmdualityError
from .models import ScalarChart, checked_partials, checked_periods
from .symplectic import (_max_abs, _within, column_rank, fractional_action,
                         infinitesimal_fractional_action, null_space, sp_basis,
                         unit_columns)

RANK_RTOL = 1e-8       # relative singular value threshold for rank decisions
TOL_LIFT = 1e-8        # normalized residual below which a lift is accepted
MIN_SAMPLES = 8


class SampleInstabilityError(RuntimeError, EmdualityError):
    """Reported dimension changed when the sample set was doubled."""


@dataclass(frozen=True)
class KillingBasis:
    """Isometry generators of a chart metric in closed form, or a run of them:
    d_x, x d_x + y d_y and (x^2 - y^2) d_x + 2xy d_y on the half plane;
    the translations d_xi, then the rotations xi d_xj - xj d_xi (i < j), on a
    flat chart."""

    chart: ScalarChart
    names: tuple[str, ...]
    first: int = 0   # position of names[0] among the chart's generators

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, k: int) -> KillingBasis:
        """Field k alone, as a basis of one."""
        k = range(len(self.names))[k]
        return KillingBasis(self.chart, self.names[k:k + 1], self.first + k)

    def along(self, p: np.ndarray, dn: np.ndarray) -> np.ndarray:
        """Period derivative along every field, a stack (k, npts, n, n), at the
        points p (npts, dim) from the partials dn (npts, dim, n, n) of N along
        the chart axes: dN[xi] = xi^j d_j N."""
        d = np.moveaxis(dn, 1, 0)            # d[j] = d_j N, (dim, npts, n, n)
        coords = p.T[..., None, None]        # coords[j] = x^j, broadcast with d[j]
        if self.chart.kind == "poincare":
            (x, y), (dx, dy) = coords, d
            out = np.stack([dx, x * dx + y * dy, (x * x - y * y) * dx + 2 * x * y * dy])
        else:
            i, j = np.triu_indices(self.chart.dim, 1)
            out = np.concatenate([d, coords[i] * d[j] - coords[j] * d[i]])
        return out[self.first:self.first + len(self)]


def killing_basis(chart: ScalarChart) -> KillingBasis:
    """Basis of the isometry algebra: sl(2, R) generators on the half plane,
    translations + rotations on flat charts."""
    if chart.kind == "poincare":
        return KillingBasis(chart, ("d_x", "x d_x + y d_y", "(x^2 - y^2) d_x + 2xy d_y"))
    x = [f"x{i + 1}" for i in range(chart.dim)]
    return KillingBasis(chart, tuple(f"d_{a}" for a in x) + tuple(
        f"{x[i]} d_{x[j]} - {x[j]} d_{x[i]}" for i, j in zip(*np.triu_indices(chart.dim, 1))))


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
    """Periods, S and P, from one evaluation of the model; warns that
    ``what`` may be under-determined below MIN_SAMPLES samples."""
    samples = _sample_set(model, samples, len(fields))
    if what and len(samples) < MIN_SAMPLES:
        warnings.warn(f"only {len(samples)} samples; {what} may be under-determined",
                      stacklevel=3)
    if fields:
        tau, partials = checked_partials(model, samples)
    else:
        tau = checked_periods(model, samples)
    basis = sp_basis(model.n_v)
    stab = _columns(infinitesimal_fractional_action(basis[:, None], tau))
    periods = _columns(fields.along(samples, partials)) if fields else np.zeros((len(stab), 0))
    half = max(len(samples) // 2, 1) * model.n_v * (model.n_v + 1)
    return _System(samples, tau, basis, stab, periods, half)


def _nullity(rows: np.ndarray) -> int:
    return rows.shape[1] - column_rank(rows, RANK_RTOL)


def _stable(dim: int, rows: np.ndarray, half: int, what: str) -> int:
    """dim, the null-space dimension of the rows, checked equal to that of
    rows[:half], which is counted by rank alone."""
    dim_half = _nullity(rows[:half])
    if dim_half != dim:
        raise SampleInstabilityError(f"{what} dim changed {dim_half} -> {dim} "
                                     "when doubling samples")
    return dim


def _lifts(system: _System) -> list[tuple[np.ndarray | None, float]]:
    """(X, residual) per field, from one least-squares solve on the stabilizer
    columns scaled to unit norm.  Each residual is relative to the largest
    entry of the field's own P column (0 for a zero column), so it does not
    depend on the scale of N; X is None when it exceeds TOL_LIFT."""
    scaled, norms = unit_columns(system.stab)
    sol, *_ = np.linalg.lstsq(scaled, system.periods, rcond=None)
    peak = np.max(np.abs(system.periods), axis=0, initial=0.0)
    residual = (np.max(np.abs(scaled @ sol - system.periods), axis=0, initial=0.0)
                / np.where(peak > 0, peak, 1.0))
    mats = np.tensordot(sol.T / norms, system.basis, axes=1)
    return [(x if r <= TOL_LIFT else None, float(r)) for x, r in zip(mats, residual)]


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
    null = null_space(system.stab, RANK_RTOL)
    _stable(null.shape[1], system.stab, system.half, "stabilizer")
    residual = float(np.max(np.abs(system.stab @ null), initial=0.0))
    # exact check that -Id fixes every sampled period value
    tau = system.tau
    out = fractional_action(-np.eye(2 * model.n_v), tau)
    minus_ok = _within(_max_abs(out - tau), 1e-14, _max_abs(tau))
    return StabilizerReport(dim_stab_sp=null.shape[1],
                            basis=list(np.tensordot(null.T, system.basis, axes=1)),
                            residual=residual, samples_used=len(system.samples),
                            minus_id_fixes_period=minus_ok)


def lift_killing_field(model, xi: KillingBasis, samples: np.ndarray | None = None
                       ) -> tuple[np.ndarray | None, float]:
    """Least-squares sp(2n, R) element matching the period derivative along xi,
    a basis of one field (``killing_basis(chart)[k]``).

    Returns (X, residual); X is None when the normalized residual exceeds TOL_LIFT
    (the field does not lift).  X always satisfies the sp condition exactly
    since it is built in sp coordinates.
    """
    [(x, residual)] = _lifts(_system(model, samples, xi))
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
    joint = np.column_stack([system.stab, -system.periods])
    null = null_space(joint, RANK_RTOL)
    dim_u = _stable(null.shape[1], joint, system.half, "U-duality")
    dim_stab = _stable(_nullity(system.stab), system.stab, system.half, "stabilizer")
    # rank of the isometry rows of the orthonormal null basis, on an absolute
    # threshold: their singular values are at most 1, so it is scale-free, where
    # unit-norm columns would turn roundoff into rank.  Off the row space vs of the
    # sp rows they are an isometry, so only the columns along vs need an SVD.
    vs = np.linalg.svd(null[:len(system.basis)], full_matrices=False)[2]
    dim_iso_pr = dim_u - len(vs) + int(np.linalg.matrix_rank(null[len(system.basis):] @ vs.T,
                                                              tol=RANK_RTOL))

    table = [(name, x, res) for name, (x, res) in zip(kfields.names, _lifts(system))]
    lifted = sum(1 for _, x, _ in table if x is not None)
    return UDualityReport(dim_u=dim_u, dim_stab_sp=dim_stab, dim_iso_pr=dim_iso_pr,
                          exactness_gap=dim_u - dim_stab - dim_iso_pr, lift_table=table,
                          samples_used=len(system.samples),
                          notes=f"{lifted}/{len(kfields)} Killing basis fields admit lifts")


def check_uduality_pair(f, a: np.ndarray, model) -> float:
    """Max deviation of A . N(p) from N(f(p)) over the model's default samples.

    A small value certifies (f, A) as a finite duality transformation of the
    model.  Raises the underlying pole error if the action hits a pole.
    """
    samples = _sample_set(model, None)
    lhs = fractional_action(a, checked_periods(model, samples))
    rhs = checked_periods(model, f.apply(samples))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
