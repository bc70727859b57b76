"""Finite-difference residuals of the Einstein, scalar and field-strength
closure equations on a 4d coordinate patch, plus the duality transport harness.

Discretization: second-order central differences (nested for second
derivatives), residuals valid on interior nodes with margin 2.  Residuals are
evaluated, never solved: no boundary conditions enter anywhere.

The scalar equation is assembled in two ways from the same discrete
derivatives: the coupling-derivative form and the taming-derivative
(fundamental-form) source.  Their agreement is a pointwise algebraic identity
in these conventions (the taming-form source equals minus the coupling-form
source; see ``psi_form_source``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fields as fl
from .models import Model, TransformedModel, load_model

MARGIN = 2


class GridError(ValueError):
    pass


class DomainExitError(ValueError):
    pass


@dataclass(frozen=True)
class GridPatch:
    """Uniform tensor grid over a box in (t, x, y, z)."""

    extents: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        if len(self.extents) != 4 or len(self.resolution) != 4:
            raise GridError("grid is four-dimensional")
        if any(n < 7 for n in self.resolution):
            raise GridError("resolution must be >= 7 per axis (stencil margin 2)")
        if any(hi <= lo for lo, hi in self.extents):
            raise GridError("empty extent")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.resolution)

    @property
    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, n) for (lo, hi), n in zip(self.extents, self.resolution)]

    @property
    def h(self) -> np.ndarray:
        return np.array([(hi - lo) / (n - 1)
                         for (lo, hi), n in zip(self.extents, self.resolution)])

    def coords(self) -> np.ndarray:
        """Node coordinates, shape grid + (4,)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    def interior(self, margin: int = MARGIN) -> tuple[slice, ...]:
        return tuple(slice(margin, n - margin) for n in self.resolution)

    def refine(self) -> "GridPatch":
        """Halve the spacing (nodes of this grid are a subset of the new one)."""
        return GridPatch(self.extents, tuple(2 * (n - 1) + 1 for n in self.resolution))


def partials(f: np.ndarray, grid: GridPatch) -> np.ndarray:
    """Central-difference first derivatives, appended as a trailing axis.

    f has shape grid + extra; output grid + extra + (4,), last index the
    derivative direction.  Valid on margin-1 interior nodes.
    """
    h = grid.h
    return np.stack([np.gradient(f, h[a], axis=a) for a in range(4)], axis=-1)


def partials2(f: np.ndarray, grid: GridPatch) -> np.ndarray:
    """Nested central differences: output grid + extra + (4, 4), exact for
    polynomials of degree <= 2, valid on margin-2 interior nodes."""
    return partials(partials(f, grid), grid)


# ------------------------------------------------------------- curvature ops

def _check_invertible(g: np.ndarray):
    det = np.linalg.det(g)
    if np.any(np.abs(det) < 1e-14):
        bad = np.argwhere(np.abs(det) < 1e-14)
        raise fl.SingularMetricError(f"metric singular at node index {tuple(bad[0])}")


def christoffel(g: np.ndarray, grid: GridPatch) -> np.ndarray:
    """Gamma^r_{mn} per node, shape grid + (4, 4, 4)."""
    _check_invertible(g)
    ginv = np.linalg.inv(g)
    dg = partials(g, grid)  # (..., m, n, r) = d_r g_{mn}
    dg = np.moveaxis(dg, -1, -3)  # (..., r, m, n)
    # G[r, m, n] = 1/2 g^{rs} (d_m g_{sn} + d_n g_{sm} - d_s g_{mn})
    term = (np.einsum("...msn->...smn", dg) + np.einsum("...nsm->...smn", dg) - dg)
    return 0.5 * np.einsum("...rs,...smn->...rmn", ginv, term)


def _christoffel_and_derivative(g: np.ndarray, grid: GridPatch):
    """Gamma and d_l Gamma^r_{mn}, both assembled algebraically from the
    finite-difference first and second metric derivatives (no nested FD of
    Gamma itself, so polynomial metrics of degree <= 2 are stencil-exact)."""
    _check_invertible(g)
    ginv = np.linalg.inv(g)
    dg = np.moveaxis(partials(g, grid), -1, -3)       # (..., r, m, n) = d_r g_{mn}
    d2g = partials2(g, grid)                          # (..., m, n, a, b) = d_b d_a g_{mn}
    d2g = np.moveaxis(np.moveaxis(d2g, -1, -4), -1, -4)  # (..., b, a, m, n)
    # symmetrised bracket B[s, m, n] = d_m g_{sn} + d_n g_{sm} - d_s g_{mn}
    bracket = (np.einsum("...msn->...smn", dg) + np.einsum("...nsm->...smn", dg) - dg)
    gamma = 0.5 * np.einsum("...rs,...smn->...rmn", ginv, bracket)
    # d_l bracket
    dbracket = (np.einsum("...lmsn->...lsmn", d2g) + np.einsum("...lnsm->...lsmn", d2g)
                - np.einsum("...lsmn->...lsmn", d2g))
    dginv = -np.einsum("...ra,...lab,...bs->...lrs", ginv, dg, ginv)
    dgamma = (0.5 * np.einsum("...lrs,...smn->...lrmn", dginv, bracket)
              + 0.5 * np.einsum("...rs,...lsmn->...lrmn", ginv, dbracket))
    return gamma, dgamma


def ricci(g: np.ndarray, grid: GridPatch) -> np.ndarray:
    """Ricci tensor per node (valid on margin-2 interior)."""
    gamma, dgamma = _christoffel_and_derivative(g, grid)
    r = (np.einsum("...rrmn->...mn", dgamma)
         - np.einsum("...nrrm->...mn", dgamma)
         + np.einsum("...rrl,...lmn->...mn", gamma, gamma)
         - np.einsum("...rnl,...lrm->...mn", gamma, gamma))
    return r


def einstein(g: np.ndarray, grid: GridPatch) -> np.ndarray:
    """Einstein tensor G_{mn} = R_{mn} - (1/2) g_{mn} R per node."""
    ric = ricci(g, grid)
    ginv = np.linalg.inv(g)
    scal = np.einsum("...mn,...mn->...", ginv, ric)
    return ric - 0.5 * g * scal[..., None, None]


# --------------------------------------------------------------- field data

@dataclass
class FieldConfiguration:
    """Grid-sampled triple (metric, scalar map, symplectic field strength)
    together with the model supplying couplings along the scalar map.

    Cached per-node coupling data (R, I, their chart derivatives and the
    taming) is evaluated once at construction.
    """

    grid: GridPatch
    model: Model | TransformedModel
    g: np.ndarray        # grid + (4, 4)
    phi: np.ndarray      # grid + (n_s,)
    V: np.ndarray        # grid + (2 n_v, 4, 4)
    R: np.ndarray = field(init=False)
    I: np.ndarray = field(init=False)
    dR: np.ndarray = field(init=False)   # grid + (n_s, n_v, n_v)
    dI: np.ndarray = field(init=False)
    J: np.ndarray = field(init=False)    # grid + (2 n_v, 2 n_v)

    def __post_init__(self):
        shape = self.grid.shape
        n_v = self.model.n_v
        n_s = self.model.chart.dim
        if self.g.shape != shape + (4, 4):
            raise GridError(f"metric shape {self.g.shape} does not match grid")
        if self.phi.shape != shape + (n_s,):
            raise GridError(f"scalar map shape {self.phi.shape} does not match grid/chart")
        if self.V.shape != shape + (2 * n_v, 4, 4):
            raise GridError(f"field block shape {self.V.shape} does not match grid/model")
        if np.max(np.abs(self.V + np.swapaxes(self.V, -1, -2))) > 0:
            raise GridError("field strength block must be exactly antisymmetric")
        ev = np.linalg.eigvalsh(self.g)
        if not (np.all(ev[..., 0] < 0) and np.all(ev[..., 1] > 0)):
            raise GridError("metric signature must be (-, +, +, +) at every node")
        self._evaluate_couplings()

    def _evaluate_couplings(self):
        shape = self.grid.shape
        n_s = self.model.chart.dim
        flat_phi = self.phi.reshape(-1, n_s)
        bad = self.model.chart.first_outside(flat_phi)
        if bad is not None:
            raise DomainExitError(f"scalar map leaves the chart at node {bad}: {flat_phi[bad]}")
        tau = self.model.period_matrix(flat_phi)
        # derivatives along the n_s coordinate directions at every node
        dtau = self.model.period_directional(flat_phi[:, None, :], np.eye(n_s))
        _validate_siegel_bulk(tau.imag)
        self.R = tau.real.reshape(shape + tau.shape[1:])
        self.I = tau.imag.reshape(shape + tau.shape[1:])
        self.dR = dtau.real.reshape(shape + dtau.shape[1:])
        self.dI = dtau.imag.reshape(shape + dtau.shape[1:])
        iinv = np.linalg.inv(self.I)
        ru = self.R @ iinv
        self.J = np.block([[-iinv @ self.R, iinv], [-self.I - ru @ self.R, ru]])

    @property
    def n_v(self) -> int:
        return self.model.n_v

    @property
    def F(self) -> np.ndarray:
        return self.V[..., : self.n_v, :, :]

    def selfduality_violation(self) -> float:
        """Max over interior nodes of | *V + J V |."""
        inner = self.grid.interior()
        g = self.g[inner][..., None, :, :]
        sv = fl.hodge2(g, self.V[inner])
        jv = np.einsum("...AB,...Bmn->...Amn", self.J[inner], self.V[inner])
        return float(np.max(np.abs(sv + jv)))


def _validate_siegel_bulk(im_parts: np.ndarray):
    """Vectorized Siegel membership over stacked imaginary parts."""
    ev = np.linalg.eigvalsh((im_parts + np.swapaxes(im_parts, -1, -2)) / 2)
    worst = np.min(ev[..., 0])
    if worst <= 1e-12 * max(1.0, float(np.max(np.abs(im_parts)))):
        bad = int(np.argmin(ev[..., 0]))
        raise GridError(f"period map leaves Siegel space along the scalar map "
                        f"(node {bad}, min eigenvalue {worst:.3e})")


def assemble_field_block(cfg: FieldConfiguration) -> np.ndarray:
    """(F, R F - I *F) from the upper block F of cfg and its couplings: twisted
    self-dual by construction."""
    f = cfg.F
    sf = fl.hodge2(cfg.g[..., None, :, :], f)
    lower = (np.einsum("...LS,...Smn->...Lmn", cfg.R, f)
             - np.einsum("...LS,...Smn->...Lmn", cfg.I, sf))
    return np.concatenate([f, lower], axis=-3)


def make_configuration(grid: GridPatch, model, g: np.ndarray, phi: np.ndarray,
                       f: np.ndarray) -> FieldConfiguration:
    """Configuration with field block (F, R F - I *F); the couplings along
    phi are evaluated once, by the configuration."""
    cfg = FieldConfiguration(grid, model, g, phi, np.concatenate([f, np.zeros_like(f)], axis=-3))
    cfg.V = assemble_field_block(cfg)
    return cfg


# ---------------------------------------------------------------- residuals

def einstein_residual(cfg: FieldConfiguration, check: bool = True) -> np.ndarray:
    """G_{ab} - scalar stress - gauge stress per node (valid margin-2)."""
    if check:
        viol = cfg.selfduality_violation()
        if viol > 1e-8 * max(1.0, float(np.max(np.abs(cfg.V)))):
            warnings.warn(f"configuration is not twisted self-dual (violation {viol:.2e})",
                          stacklevel=2)
    g = cfg.g
    ginv = np.linalg.inv(g)
    gt = einstein(g, cfg.grid)
    # scalar stress from FD scalar-map derivatives
    dphi = partials(cfg.phi, cfg.grid)  # (..., i, a)
    cm = cfg.model.chart.metric(cfg.phi)
    t_scal = (np.einsum("...ij,...ia,...jb->...ab", cm, dphi, dphi)
              - 0.5 * g * np.einsum("...ij,...ia,...jb,...ab->...", cm, dphi, dphi,
                                    ginv)[..., None, None])
    # gauge stress: omega(V_{ac}, J V_b^c) symmetrised
    from .symplectic import omega
    q = np.einsum("AB,...BC->...AC", omega(cfg.n_v), cfg.J)
    t_gauge = np.einsum("...AB,...Aac,...cd,...Bbd->...ab", q, cfg.V, ginv, cfg.V)
    t_gauge = (t_gauge + np.swapaxes(t_gauge, -1, -2)) / 2
    return gt - t_scal - t_gauge


def _field_contractions(cfg: FieldConfiguration):
    """F.F and F.*F contractions per node: (..., L, S) arrays."""
    g = cfg.g
    ginv = np.linalg.inv(g)
    f = cfg.F
    sf = fl.hodge2(g[..., None, :, :], f)
    ff = np.einsum("...Lab,...ra,...sb,...Srs->...LS", f, ginv, ginv, f)
    fsf = np.einsum("...Lab,...ra,...sb,...Srs->...LS", f, ginv, ginv, sf)
    return ff, fsf


def local_gauge_source(cfg: FieldConfiguration) -> np.ndarray:
    """(1/2) d_k R . F *F + (1/2) d_k I . F F per node, shape grid + (n_s,)."""
    ff, fsf = _field_contractions(cfg)
    return 0.5 * (np.einsum("...kLS,...LS->...k", cfg.dR, fsf)
                  + np.einsum("...kLS,...LS->...k", cfg.dI, ff))


def _taming_derivative(cfg: FieldConfiguration) -> np.ndarray:
    """d J / d x^k along the scalar map from the coupling derivatives,
    shape grid + (n_s, 2n, 2n)."""
    iinv = np.linalg.inv(cfg.I)
    r = cfg.R
    dr, di = cfg.dR, cfg.dI
    diinv = -np.einsum("...ab,...kbc,...cd->...kad", iinv, di, iinv)
    tl = -(np.einsum("...kab,...bc->...kac", diinv, r)
           + np.einsum("...ab,...kbc->...kac", iinv, dr))
    tr = diinv
    ru_d = np.einsum("...kab,...bc->...kac", dr, iinv) + np.einsum(
        "...ab,...kbc->...kac", r, diinv)
    bl = -(di + np.einsum("...kab,...bc,...cd->...kad", dr, iinv, r)
           + np.einsum("...ab,...kbc,...cd->...kad", r, diinv, r)
           + np.einsum("...ab,...bc,...kcd->...kad", r, iinv, dr))
    br = ru_d
    top = np.concatenate([tl, tr], axis=-1)
    bot = np.concatenate([bl, br], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def psi_form_source(cfg: FieldConfiguration) -> np.ndarray:
    """Fundamental-form source (1/2) (*V, (dJ/dx^k) V)_{g,Q} per node.

    On a chart with flat bundle connection the fundamental form reduces to the
    coordinate derivative of the taming along the scalar map.  For twisted
    self-dual V this equals minus the coupling-form source (empirically
    calibrated constant -1 in these conventions; see tests).
    """
    g = cfg.g
    ginv = np.linalg.inv(g)
    dj = _taming_derivative(cfg)
    sv = fl.hodge2(g[..., None, :, :], cfg.V)
    djv = np.einsum("...kAB,...Bmn->...kAmn", dj, cfg.V)
    from .symplectic import omega
    q = np.einsum("AB,...BC->...AC", omega(cfg.n_v), cfg.J)
    # (a, b)_g = 1/2 a_{mn} b^{mn}; pairing contracts the fiber index with Q
    inner = 0.5 * np.einsum("...Amn,...rm,...sn,...kBrs->...kAB", sv, ginv, ginv, djv)
    return 0.5 * np.einsum("...AB,...kAB->...k", q, inner)


def scalar_residual(cfg: FieldConfiguration, assembly: str = "local") -> np.ndarray:
    """Residual of the scalar equations per node, shape grid + (n_s,).

    Both assemblies share the same discrete derivative fields and differ only
    in the algebraic route: "local" uses the coupling-derivative source and
    the divergence identity, "global" uses the lowered tension field and the
    fundamental-form source.  They agree pointwise up to roundoff.
    """
    grid = cfg.grid
    g = cfg.g
    ginv = np.linalg.inv(g)
    gamma = christoffel(g, grid)
    dphi = partials(cfg.phi, grid)          # (..., i, a)
    d2phi = partials2(cfg.phi, grid)        # (..., i, a, b)
    chart = cfg.model.chart
    cm = chart.metric(cfg.phi)
    dcm = chart.metric_deriv(cfg.phi)       # (..., k, i, j)
    box_phi = (np.einsum("...ab,...iab->...i", ginv, d2phi)
               - np.einsum("...ab,...cab,...ic->...i", ginv, gamma, dphi))
    grad_sq = np.einsum("...ia,...jb,...ab->...ij", dphi, dphi, ginv)  # (i, j)

    if assembly == "local":
        lhs = (np.einsum("...ik,...i->...k", cm, box_phi)
               + np.einsum("...jik,...ji->...k", dcm, grad_sq))
        rhs = (0.5 * np.einsum("...kij,...ij->...k", dcm, grad_sq)
               + local_gauge_source(cfg))
        return lhs - rhs
    if assembly == "global":
        chart_gamma = chart.christoffels(cfg.phi)  # (..., k, i, j)
        tension = box_phi + np.einsum("...kij,...ij->...k", chart_gamma, grad_sq)
        lowered = np.einsum("...ki,...i->...k", cm, tension)
        return lowered + psi_form_source(cfg)
    raise ValueError(f"unknown assembly {assembly!r}")


def maxwell_residual(cfg: FieldConfiguration) -> np.ndarray:
    """Componentwise exterior derivative of the field block (closure residual),
    shape grid + (2 n_v, 4, 4, 4): antisymmetrised d_a V_{mn}."""
    dv = partials(cfg.V, cfg.grid)  # (..., A, m, n, a)
    dv = np.moveaxis(dv, -1, -3)    # (..., A, a, m, n) = d_a V_{mn}
    return (dv + np.einsum("...Amna->...Aamn", dv)
            + np.einsum("...Anam->...Aamn", dv))


# ------------------------------------------------------------------ reports

@dataclass
class ResidualReport:
    einstein_max: float
    scalar_max: float
    maxwell_max: float
    einstein_mean: float
    scalar_mean: float
    maxwell_mean: float
    selfdual_violation: float
    worst_einstein_node: tuple[int, ...]
    grid_shape: tuple[int, ...]

    def rows(self):
        return [("einstein_max", self.einstein_max),
                ("scalar_max", self.scalar_max),
                ("maxwell_max", self.maxwell_max),
                ("einstein_mean", self.einstein_mean),
                ("scalar_mean", self.scalar_mean),
                ("maxwell_mean", self.maxwell_mean),
                ("selfdual_violation", self.selfdual_violation)]

    @classmethod
    def from_fields(cls, cfg: FieldConfiguration, e: np.ndarray, s: np.ndarray,
                    m: np.ndarray) -> "ResidualReport":
        """Report on the Einstein, scalar and Maxwell residual fields of cfg,
        each restricted to the margin-2 interior."""
        eabs = np.abs(e)
        worst = np.unravel_index(int(np.argmax(eabs.reshape(-1, 16).max(axis=1))),
                                 e.shape[:4])
        worst = tuple(int(w) + MARGIN for w in worst)
        return cls(
            einstein_max=float(eabs.max()), scalar_max=float(np.abs(s).max()),
            maxwell_max=float(np.abs(m).max()), einstein_mean=float(eabs.mean()),
            scalar_mean=float(np.abs(s).mean()), maxwell_mean=float(np.abs(m).mean()),
            selfdual_violation=cfg.selfduality_violation(),
            worst_einstein_node=worst, grid_shape=cfg.grid.shape)


def residual_report(cfg: FieldConfiguration, assembly: str = "local") -> ResidualReport:
    inner = cfg.grid.interior()
    return ResidualReport.from_fields(cfg, einstein_residual(cfg, check=False)[inner],
                                      scalar_residual(cfg, assembly)[inner],
                                      maxwell_residual(cfg)[inner])


# ---------------------------------------------------------------- transport

def transport_config(f, a: np.ndarray, cfg: FieldConfiguration) -> FieldConfiguration:
    """Duality transport (g, phi, V) -> (g, f(phi), A V), returned as a
    configuration of the transformed theory (same chart metric for isometric
    f, transformed period map A . N(f^-1))."""
    new_phi = f.apply(cfg.phi)
    bad = cfg.model.chart.first_outside(new_phi.reshape(-1, cfg.model.chart.dim))
    if bad is not None:
        raise DomainExitError(f"transported scalar map leaves the chart at node {bad}")
    new_v = np.einsum("AB,...Bmn->...Amn", np.asarray(a, dtype=float), cfg.V)
    new_model = TransformedModel(cfg.model, f, a)
    return FieldConfiguration(cfg.grid, new_model, cfg.g.copy(), new_phi, new_v)


@dataclass
class EquivarianceReport:
    einstein_discrepancy: float
    scalar_discrepancy: float
    maxwell_discrepancy: float
    before: ResidualReport
    after: ResidualReport

    @property
    def max_discrepancy(self) -> float:
        return max(self.einstein_discrepancy, self.scalar_discrepancy,
                   self.maxwell_discrepancy)


def equivariance_harness(cfg: FieldConfiguration, f, a: np.ndarray) -> EquivarianceReport:
    """Residuals before and after transport, compared node-by-node.

    Einstein residuals agree directly, closure residuals agree after mapping
    by A, scalar residuals agree after covector pullback along f.  Agreement
    is exact (roundoff) for affine isometries; for general Mobius isometries
    the finite-difference derivative of the composed scalar map introduces a
    second-order mismatch that shrinks under grid refinement.
    """
    a = np.asarray(a, dtype=float)
    tcfg = transport_config(f, a, cfg)
    inner = cfg.grid.interior()

    e0 = einstein_residual(cfg, check=False)[inner]
    e1 = einstein_residual(tcfg, check=False)[inner]
    e_disc = float(np.max(np.abs(e1 - e0)))

    m0 = maxwell_residual(cfg)[inner]
    m1 = maxwell_residual(tcfg)[inner]
    mapped = np.einsum("AB,...Bamn->...Aamn", a, m0)
    m_disc = float(np.max(np.abs(m1 - mapped)))

    s0 = scalar_residual(cfg)[inner]
    s1 = scalar_residual(tcfg)[inner]
    pulled = np.einsum("...kl,...k->...l", f.jacobian(cfg.phi[inner]), s1)  # df at phi(x)
    s_disc = float(np.max(np.abs(pulled - s0)))

    return EquivarianceReport(e_disc, s_disc, m_disc,
                              ResidualReport.from_fields(cfg, e0, s0, m0),
                              ResidualReport.from_fields(tcfg, e1, s1, m1))


# ----------------------------------------------------- manufactured builders

def metric_minkowski(grid: GridPatch) -> np.ndarray:
    return np.broadcast_to(fl.ETA, grid.shape + (4, 4)).copy()


def metric_quadratic(grid: GridPatch, terms) -> np.ndarray:
    """eta + sum of c * x^a * x^b contributions on symmetric slots (mu, nu).

    terms: iterable of (mu, nu, a, b, c); degree <= 2 keeps all stencils exact.
    """
    x = grid.coords()
    g = metric_minkowski(grid)
    for (mu, nu, a, b, c) in terms:
        bump = c * x[..., a] * x[..., b]
        g[..., mu, nu] += bump
        if mu != nu:
            g[..., nu, mu] += bump
    return g


def phi_constant(grid: GridPatch, p0) -> np.ndarray:
    p0 = np.asarray(p0, dtype=float)
    return np.broadcast_to(p0, grid.shape + p0.shape).copy()


def phi_linear(grid: GridPatch, base, slopes) -> np.ndarray:
    """phi^i = base^i + slopes[a, i] x^a."""
    base = np.asarray(base, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    x = grid.coords()
    return base + np.einsum("...a,ai->...i", x, slopes)


def field_strength_polynomial(grid: GridPatch, n_v: int, terms) -> np.ndarray:
    """F from monomial terms (L, mu, nu, c, powers): adds c * prod x^powers
    to F^L_{mu nu} (antisymmetrised).  powers is a 4-tuple of exponents."""
    x = grid.coords()
    f = np.zeros(grid.shape + (n_v, 4, 4))
    for (ell, mu, nu, c, powers) in terms:
        mono = np.full(grid.shape, float(c))
        for a, p in enumerate(powers):
            if p:
                mono = mono * x[..., a] ** p
        f[..., ell, mu, nu] += mono
        f[..., ell, nu, mu] -= mono
    return f


def random_polynomial_fieldstrength(grid: GridPatch, n_v: int,
                                    rng: np.random.Generator,
                                    amp: float = 0.1, degree: int = 2):
    terms = []
    for ell in range(n_v):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                terms.append((ell, mu, nu, amp * rng.standard_normal(), (0, 0, 0, 0)))
                if degree >= 1:
                    a = int(rng.integers(0, 4))
                    powers = [0, 0, 0, 0]
                    powers[a] = 1
                    terms.append((ell, mu, nu, amp * rng.standard_normal(), tuple(powers)))
                if degree >= 2:
                    a, b = rng.integers(0, 4, size=2)
                    powers = [0, 0, 0, 0]
                    powers[a] += 1
                    powers[b] += 1
                    terms.append((ell, mu, nu, amp * rng.standard_normal(), tuple(powers)))
    return field_strength_polynomial(grid, n_v, terms)


# -------------------------------------------------------------- config files

def parse_grid_config(text: str, resolution: tuple[int, ...] | None = None
                      ) -> FieldConfiguration:
    """Grid configuration file: key = value lines.

    Keys: model (built-in name or path), extents (4 'lo:hi' entries),
    resolution (4 ints), metric ('minkowski' or 'quadratic'), metric_coeff
    (repeats: 'mu nu a b c'), phi ('constant v...' or 'linear base... | slopes
    row-major 4 x n_s'), field ('zero' or 'random amp seed' or repeated
    field_term 'L mu nu c p0 p1 p2 p3').  A resolution argument overrides the
    file's resolution (used for refinement studies).
    """
    entries: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise GridError(f"cannot parse config line {raw!r}")
        entries.append((key.strip().lower(), val.strip()))
    kv = dict(entries)

    model = load_model(kv.get("model", "identity-tau"))
    ext = []
    for part in kv.get("extents", "-0.5:0.5 -0.5:0.5 -0.5:0.5 -0.5:0.5").split():
        lo, _, hi = part.partition(":")
        ext.append((float(lo), float(hi)))
    res = resolution or tuple(int(s) for s in kv.get("resolution", "9 9 9 9").split())
    grid = GridPatch(tuple(ext), tuple(res))

    metric_kind = kv.get("metric", "minkowski")
    if metric_kind == "minkowski":
        g = metric_minkowski(grid)
    elif metric_kind == "quadratic":
        terms = []
        for key, val in entries:
            if key == "metric_coeff":
                mu, nu, a, b, c = val.split()
                terms.append((int(mu), int(nu), int(a), int(b), float(c)))
        g = metric_quadratic(grid, terms)
    else:
        raise GridError(f"unknown metric spec {metric_kind!r}")

    phi_spec = kv.get("phi", "constant 0.0 1.0").split()
    n_s = model.chart.dim
    if phi_spec[0] == "constant":
        vals = [float(s) for s in phi_spec[1:]]
        if len(vals) != n_s:
            raise GridError(f"phi constant needs {n_s} values")
        phi = phi_constant(grid, vals)
    elif phi_spec[0] == "linear":
        rest = " ".join(phi_spec[1:])
        base_s, _, slope_s = rest.partition("|")
        base = [float(s) for s in base_s.split()]
        slopes = np.array([float(s) for s in slope_s.split()]).reshape(4, n_s)
        phi = phi_linear(grid, base, slopes)
    else:
        raise GridError(f"unknown phi spec {phi_spec[0]!r}")

    field_kind = kv.get("field", "zero").split()
    if field_kind[0] == "zero":
        f = np.zeros(grid.shape + (model.n_v, 4, 4))
    elif field_kind[0] == "random":
        amp = float(field_kind[1]) if len(field_kind) > 1 else 0.1
        seed = int(field_kind[2]) if len(field_kind) > 2 else 0
        f = random_polynomial_fieldstrength(grid, model.n_v,
                                            np.random.default_rng(seed), amp)
    elif field_kind[0] == "terms":
        terms = []
        for key, val in entries:
            if key == "field_term":
                parts = val.split()
                terms.append((int(parts[0]), int(parts[1]), int(parts[2]),
                              float(parts[3]), tuple(int(s) for s in parts[4:8])))
        f = field_strength_polynomial(grid, model.n_v, terms)
    else:
        raise GridError(f"unknown field spec {field_kind[0]!r}")

    return make_configuration(grid, model, g, phi, f)
