"""Real Clifford algebra of Lorentzian 4-space, spin connections from
orthonormal frames, real Killing spinor transport and verification, the
lightlike/spacelike one-form system built from spinor bilinears, and the
pointwise chiral endomorphism algebra.

Conventions (fixed once, validated in the tests):
  * signature (-, +, +, +), frame metric eta = diag(-1, 1, 1, 1);
  * real Majorana generators (with eps = [[0,1],[-1,0]], s1 = [[0,1],[1,0]],
    s3 = [[1,0],[0,-1]]):
        gamma_0 = eps (x) 1,   gamma_1 = s1 (x) 1,
        gamma_2 = s3 (x) s1,   gamma_3 = s3 (x) s3;
  * gamma5 = gamma_0 gamma_1 gamma_2 gamma_3, gamma5^2 = -Id;
  * spinor derivative D_mu = d_mu + (1/4) w_{mu a b} gamma^a gamma^b and
    Killing operator D_mu - (lam/2) gamma_mu; with the connection produced
    here this operator is flat on the constant-curvature z > 0 patch, which
    the path-independence tests witness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InputError
from .fields import ETA
# christoffel is unused here but stays importable: bench/spans.py wraps
# spinors.christoffel
from .grids import Geometry, GridPatch, christoffel, metric_geometry, partials  # noqa: F401
from .symplectic import null_space


class FrameError(ValueError, InputError):
    pass


def _table(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CliffordRep:
    """Gamma matrices and the Clifford tables the spinor kernels contract
    with.  Each table is built on first use and kept read-only."""

    gamma: np.ndarray  # (4, 4, 4), gamma[a] real
    eta: np.ndarray

    @property
    def gamma5(self) -> np.ndarray:
        g = self.gamma
        return g[0] @ g[1] @ g[2] @ g[3]

    def gamma_upper(self) -> np.ndarray:
        return np.einsum("ab,bij->aij", np.linalg.inv(self.eta), self.gamma)

    @cached_property
    def spin_table(self) -> np.ndarray:
        """(16, 16): row (a, b) is -(1/4) gamma^a gamma^b flattened over (i, k),
        so that w_ab (flattened) @ table = -(1/4) w_ab gamma^a gamma^b."""
        gup = self.gamma_upper()
        return _table(-0.25 * (gup[:, None] @ gup[None, :]).reshape(16, 16))

    @cached_property
    def pairing(self) -> np.ndarray:
        """The Majorana pairing C used by ``killing_bilinears``: the
        sigma = -1 invariant bilinear (gamma_a^T C = -C gamma_a), for which
        C gamma_a is symmetric and the vector bilinear is a nonzero quadratic
        form."""
        mats = invariant_bilinears(self)[-1]
        if len(mats) != 1:
            raise RuntimeError(f"expected one sigma=-1 invariant bilinear, got {len(mats)}")
        m = mats[0]
        return _table(m / np.max(np.abs(m)))

    @cached_property
    def bilinear_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Tables of C gamma_a and C gamma_{[a} gamma_{b]}, rows i and columns
        (a, k) or (a, b, k), shapes (4, 16) and (4, 64): the bilinears are
        eps @ table @ eps with the columns reshaped."""
        gam = self.gamma
        gg = gam[:, None] @ gam[None, :]
        gab = 0.5 * (gg - np.swapaxes(gg, 0, 1))
        c = self.pairing
        vec = np.moveaxis(c @ gam, -2, 0).reshape(4, 16)
        ten = np.moveaxis(c @ gab, -2, 0).reshape(4, 64)
        return _table(vec), _table(ten)

    def slash(self, v: np.ndarray) -> np.ndarray:
        """gamma(v) = v^a gamma_a for frame vectors v of shape (..., 4)."""
        v = np.asarray(v)
        return (v @ self.gamma.reshape(4, 16)).reshape(v.shape[:-1] + (4, 4))


@cache
def clifford_rep() -> CliffordRep:
    """The fixed real Majorana representation of the (3,1) Clifford relations.

    One shared instance with read-only arrays, so its tables are built once."""
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    s3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    one = np.eye(2)
    gamma = np.stack([np.kron(eps, one), np.kron(s1, one),
                      np.kron(s3, s1), np.kron(s3, s3)])
    return CliffordRep(gamma=_table(gamma), eta=_table(ETA.copy()))


# ------------------------------------------------------------------- frames

@dataclass(frozen=True)
class FramePatch:
    """Grid-sampled vierbein e^a_mu (frame index first), with optional
    analytic evaluators for the vierbein and spin connection (the built-in
    frames provide them; path integration needs them at off-node points)."""

    grid: GridPatch
    e: np.ndarray                    # grid + (a, mu)
    name: str = "custom"
    frame_fn: object = None          # x (..., 4) -> e (..., a, mu)
    conn_fn: object = None           # (x (..., 4), mu) -> w_mu (..., a, b), one direction

    def __post_init__(self):
        if self.e.shape != self.grid.shape + (4, 4):
            raise FrameError(f"vierbein shape {self.e.shape} does not match grid")
        # scale-free: |det e| against its Hadamard bound, the product of the
        # row norms (a node with a zero row fails the comparison too)
        bound = np.prod(np.linalg.norm(self.e, axis=-1), axis=-1)
        if not np.all(np.abs(np.linalg.det(self.e)) > 1e-12 * bound):
            raise FrameError("singular frame")

    def metric(self) -> np.ndarray:
        """g_{mu nu} = e^a_mu eta_ab e^b_nu per node."""
        return np.swapaxes(self.e, -1, -2) @ (ETA @ self.e)

    @cached_property
    def geometry(self) -> Geometry:
        """The metric's inverse, volume and Christoffel symbols, computed once."""
        return metric_geometry(self.metric(), self.grid)

    def inverse(self) -> np.ndarray:
        """e^mu_a, shape grid + (mu, a)."""
        return np.linalg.inv(self.e)


def conformal_connection(dln_omega) -> object:
    """Analytic spin connection of a conformal frame e^a_mu = Omega delta^a_mu,
    one direction mu at a time:
    w_{mu a b} = eta_{a mu} d_b ln(Omega) - eta_{b mu} d_a ln(Omega).

    dln_omega(x) must return the coordinate gradient of ln(Omega), shape
    (..., 4).  eta is diagonal, so w_mu is row mu and column mu of the
    gradient, shape (..., a, b)."""

    def conn(pts, mu):
        d = np.asarray(dln_omega(np.asarray(pts, dtype=float)))
        w = np.zeros(d.shape + (4,))
        w[..., mu, :] = ETA[mu, mu] * d
        w[..., :, mu] = -ETA[mu, mu] * d
        w[..., mu, mu] = 0.0
        return w

    return conn


def builtin_frame(name: str, grid: GridPatch, lam: float = 1.0) -> FramePatch:
    """'minkowski', or 'ads4-poincare': conformal factor 1/(lam z) with z the
    fourth coordinate; the grid must keep z > 0."""
    x = grid.coords()
    if name not in ("minkowski", "ads4-poincare"):
        raise FrameError(f"unknown builtin frame {name!r}")
    ads = name == "ads4-poincare"
    if ads and lam <= 0:
        raise FrameError("lam must be positive")
    if ads and np.min(x[..., 3]) <= 0:
        raise FrameError("ads4-poincare frame needs z > 0 on the whole grid")

    def frame_fn(pts):
        pts = np.asarray(pts, dtype=float)
        scale = 1.0 / (lam * pts[..., 3]) if ads else np.ones(pts.shape[:-1])
        return scale[..., None, None] * np.eye(4)

    def dln(pts):
        # gradient of ln(Omega) = -ln(lam z) (ads) or 0 (minkowski)
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1] + (4,))
        if ads:
            out[..., 3] = -1.0 / pts[..., 3]
        return out

    return FramePatch(grid, frame_fn(x), name=name, frame_fn=frame_fn,
                      conn_fn=conformal_connection(dln))


def spin_connection(fr: FramePatch) -> np.ndarray:
    """Torsion-free metric spin connection w_{mu a b} from the sampled frame.

    Finite differences of the frame (margin-1 interior); the output is
    antisymmetrised in (a, b) so that property holds to the last bit.
    """
    e = fr.e
    einv = fr.inverse()
    de = partials(ETA @ e, fr.grid)                       # (..., a, m, n) = d_n e_{a m}
    c = np.swapaxes(de, -1, -2) - de                      # C[a, m, n] = d_m e_{a n} - d_n e_{a m}
    del de
    lead = e.shape[:-2]
    # t1[m, a, b] = e^n_a C[b, m, n]; t2[m, a, b] = e^n_b C[a, m, n] = t1[m, b, a]
    t1 = np.moveaxis((c.reshape(lead + (16, 4)) @ einv).reshape(lead + (4, 4, 4)), -3, -1)
    # t3[m, a, b] = e^c_m (e^r_a C[c, r, s] e^s_b): a frame rotation of C
    rot = np.swapaxes(einv, -1, -2)[..., None, :, :] @ c
    del c
    rot = rot @ einv[..., None, :, :]
    t3 = (np.swapaxes(e, -1, -2) @ rot.reshape(lead + (4, 16))).reshape(lead + (4, 4, 4))
    del rot
    w = 0.5 * (t1 - np.swapaxes(t1, -1, -2) - t3)
    return (w - np.swapaxes(w, -1, -2)) / 2


# ---------------------------------------------------------- killing spinors

def _transport_generator(rep: CliffordRep, w_ab: np.ndarray, e_a: np.ndarray,
                         lam: float) -> np.ndarray:
    """M_mu = -(1/4) w_{mu a b} gamma^a gamma^b + (lam/2) e^a_mu gamma_a for one
    direction mu, stacked over the leading axes of w_ab (..., a, b) and
    e_a (..., a): one matmul with each Clifford table.  All four directions
    of a node are the stack (w_{mu a b}, e^a_mu transposed to (mu, a))."""
    m = (w_ab.reshape(e_a.shape[:-1] + (16,)) @ rep.spin_table).reshape(w_ab.shape)
    gamma_e = rep.slash(e_a)
    gamma_e *= 0.5 * lam
    m += gamma_e
    return m


def _axis_generator(fr: FramePatch, rep: CliffordRep, lam: float,
                    pts: np.ndarray, axis: int) -> np.ndarray:
    """M_axis at off-node points from the analytic frame and connection:
    only the swept direction is built."""
    w = np.asarray(fr.conn_fn(pts, axis))
    return _transport_generator(rep, w, fr.frame_fn(pts)[..., :, axis], lam)


def killing_residual(fr: FramePatch, eps: np.ndarray, lam: float,
                     rep: CliffordRep | None = None) -> np.ndarray:
    """d_mu eps + (1/4) w_{mu a b} gamma^a gamma^b eps - (lam/2) gamma_mu eps
    per node and direction, shape grid + (mu, component).

    Uses the finite-difference spin connection, so it is an independent check
    on spinor fields produced by ``integrate_killing`` (which integrates the
    analytic connection).  Valid on the margin-2 interior.
    """
    rep = rep or clifford_rep()
    w = spin_connection(fr)
    deps = np.moveaxis(partials(eps, fr.grid), -1, -2)    # (..., mu, comp)
    m = _transport_generator(rep, w, np.swapaxes(fr.e, -1, -2), lam)
    return deps - (m @ eps[..., None, :, None])[..., 0]


def killing_residual_max(fr: FramePatch, eps: np.ndarray, lam: float) -> float:
    return float(np.max(np.abs(killing_residual(fr, eps, lam)[fr.grid.interior()])))


def _edge_propagators(fr: FramePatch, rep: CliffordRep, lam: float,
                      nodes: np.ndarray, axis: int, h: float) -> np.ndarray:
    """RK4 propagators P_k with eps_{k+1} = P_k eps_k along lines of nodes,
    shape lines + (n, 4) -> lines + (n - 1, 4, 4).

    The transport is linear in eps, so the classical RK4 stages compose into
    one matrix per edge: with M0, Mh, M1 the generator at the edge's start,
    midpoint and end, K2 = Mh (I + h/2 M0), K3 = Mh (I + h/2 K2),
    K4 = M1 (I + h K3) and P = I + h/6 (M0 + 2 K2 + 2 K3 + K4).  The
    generator is evaluated once, at the 2n - 1 nodes and midpoints of every
    line: the end of edge k is the start of edge k + 1."""
    n = nodes.shape[-2]
    pts = np.empty(nodes.shape[:-2] + (2 * n - 1, 4))
    pts[..., 0::2, :] = nodes
    pts[..., 1::2, :] = nodes[..., :-1, :]
    pts[..., 1::2, axis] += h / 2
    m = _axis_generator(fr, rep, lam, pts, axis)
    m0, mh, m1 = m[..., 0:-1:2, :, :], m[..., 1::2, :, :], m[..., 2::2, :, :]
    eye = np.eye(4)
    k2 = mh @ (eye + h / 2 * m0)
    k3 = mh @ (eye + h / 2 * k2)
    k4 = m1 @ (eye + h * k3)
    return eye + h / 6 * (m0 + 2 * k2 + 2 * k3 + k4)


def integrate_killing(fr: FramePatch, lam: float, eps0: np.ndarray,
                      rep: CliffordRep | None = None,
                      axis_order: tuple[int, ...] = (0, 1, 2, 3)) -> np.ndarray:
    """Fill the grid with the Killing transport of eps0 from the origin corner,
    sweeping one axis at a time in the given order (RK4 per edge).

    Each swept axis makes one generator call, stacked over the nodes and
    midpoints of all its lines, and one batch of edge propagators; the sweep
    then applies them edge by edge.  Needs the analytic frame/connection
    evaluators of a built-in frame: RK4 samples them between nodes.
    """
    rep = rep or clifford_rep()
    if fr.conn_fn is None or fr.frame_fn is None:
        raise FrameError("integrate_killing needs a frame with analytic "
                         "evaluators (use builtin_frame)")
    grid = fr.grid
    coords = grid.coords()
    eps = np.zeros(grid.shape + (4,))
    eps[(0,) * 4] = np.asarray(eps0, dtype=float)

    for pos, axis in enumerate(axis_order):
        # the lines along `axis` through the block the earlier sweeps filled
        sel = tuple(slice(None) if a in axis_order[:pos + 1] else slice(0, 1)
                    for a in range(4))
        props = _edge_propagators(fr, rep, lam, np.moveaxis(coords[sel], axis, -2),
                                  axis, float(grid.h[axis]))
        lines = np.moveaxis(eps[sel], axis, -2)          # a view into eps
        for k in range(grid.shape[axis] - 1):
            lines[..., k + 1, :] = (props[..., k, :, :] @ lines[..., k, :, None])[..., 0]
    return eps


def path_defect(fr: FramePatch, lam: float, eps: np.ndarray,
                rep: CliffordRep | None = None) -> float:
    """Far-corner disagreement between two axis sweep orders: eps is the
    (0, 1, 2, 3) sweep ``integrate_killing`` returns, and the (3, 2, 1, 0)
    sweep starts from its origin value.  An integrability measure of the
    Killing transport (zero for a flat connection up to the integrator
    error)."""
    back = integrate_killing(fr, lam, eps[(0,) * 4], rep, axis_order=(3, 2, 1, 0))
    corner = tuple(n - 1 for n in fr.grid.shape)
    return float(np.max(np.abs(eps[corner] - back[corner])))


# -------------------------------------------------------- bilinear one-forms

def invariant_bilinears(rep: CliffordRep | None = None) -> dict[int, list[np.ndarray]]:
    """Bases of the spaces {C : gamma_a^T C = sigma C gamma_a for all a},
    keyed by sigma in {+1, -1}; computed by brute-force null space."""
    rep = rep or clifford_rep()
    out = {}
    for sigma in (1, -1):
        rows = []
        for a in range(4):
            ga = rep.gamma[a]
            # row-major vec: vec(G^T C - sigma C G) = (G^T kron I - sigma I kron G^T) vec C
            rows.append(np.kron(ga.T, np.eye(4)) - sigma * np.kron(np.eye(4), ga.T))
        null = null_space(np.vstack(rows), 1e-12)
        out[sigma] = [null[:, k].reshape(4, 4) for k in range(null.shape[1])]
    return out


def killing_bilinears(fr: FramePatch, eps: np.ndarray,
                      rep: CliffordRep | None = None):
    """One-forms (u, l) built from a real spinor field: for Killing spinors,
    u is lightlike and l unit spacelike with g(u, l) = 0.

    Construction found by searching the finite set of invariant-bilinear
    choices (the gamma5-inserted vector bilinear vanishes identically in this
    representation, so the spacelike partner comes from the tensor bilinear):

        u_mu   = eps^T C gamma_mu eps            (null current),
        om_ab  = eps^T C gamma_{[a} gamma_{b]} eps / 2,
        l      = -(componentwise least-squares u-contraction of om),

    where C is the sigma = -1 invariant pairing.  om decomposes as u ^ l, so
    the contraction recovers l up to a shift along u, which the first-order
    system absorbs into its free one-form; l is normalised per node (the
    search found the normalisation to be exactly 1 already).
    """
    rep = rep or clifford_rep()
    vec, ten = rep.bilinear_tables
    lead = eps.shape[:-1]
    col = eps[..., :, None]
    u_frame = ((eps @ vec).reshape(lead + (4, 4)) @ col)[..., 0]
    om_frame = ((eps @ ten).reshape(lead + (16, 4)) @ col).reshape(lead + (4, 4))
    u = np.einsum("...am,...a->...m", fr.e, u_frame)
    om = np.swapaxes(fr.e, -1, -2) @ om_frame @ fr.e
    uu = np.maximum(np.einsum("...m,...m->...", u, u), 1e-300)
    l_raw = -np.einsum("...m,...mn->...n", u, om) / uu[..., None]
    norm_sq = _quadratic(fr.geometry.ginv, l_raw, l_raw)
    if np.min(norm_sq) <= 0:
        warnings.warn("spacelike bilinear is not spacelike everywhere", stacklevel=2)
    l = l_raw / np.sqrt(np.abs(norm_sq))[..., None]
    return u, l


def _quadratic(ginv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g^{mn} a_m b_n per node."""
    return ((ginv @ a[..., :, None])[..., 0] * b).sum(axis=-1)


# ------------------------------------------------- first-order system check

@dataclass
class FirstOrderReport:
    du_residual: float
    dl_residual: float
    u_norm_violation: float        # max |g(u, u)|
    l_norm_violation: float        # max |g(l, l) - 1|
    orthogonality_violation: float
    u_killing_residual: float      # max |sym grad of u-flat|
    dkappa_max: float              # reported, not asserted
    nontrivial: bool


def _nabla(w: np.ndarray, geo: Geometry, grid: GridPatch) -> np.ndarray:
    """Covariant derivative nabla_m w_n = d_m w_n - Gamma^l_{mn} w_l of a one-form."""
    return np.moveaxis(partials(w, grid), -1, -2) - np.einsum("...lmn,...l->...mn", geo.gamma, w)


def extract_kappa(u: np.ndarray, l: np.ndarray, lam: float, g,
                  grid: GridPatch) -> np.ndarray:
    """Least-squares one-form kappa with grad l = kappa (x) u + lam (l (x) l - g).

    g is the metric or its ``Geometry``.  Componentwise least squares per
    node; meaningful wherever u is nonzero.
    """
    geo = metric_geometry(g, grid)
    w = _nabla(l, geo, grid) - lam * (np.einsum("...m,...n->...mn", l, l) - geo.g)
    denom = np.maximum(np.einsum("...n,...n->...", u, u), 1e-300)
    return np.einsum("...mn,...n->...m", w, u) / denom[..., None]


def verify_thm53(u: np.ndarray, l: np.ndarray, kappa: np.ndarray, lam: float,
                 g, grid: GridPatch) -> FirstOrderReport:
    """Residuals of the first-order system for the lightlike/spacelike pair:

        grad u = lam u ^ l,    grad l = kappa (x) u + lam (l (x) l - g),

    plus the algebraic constraints g(u,u) = 0, g(l,l) = 1, g(u,l) = 0, the
    Killing check for the vector dual to u, and the (reported, not asserted)
    size of d kappa.  g is the metric or its ``Geometry``.
    """
    inner = grid.interior()
    geo = metric_geometry(g, grid)

    grad_u = _nabla(u, geo, grid)
    wedge = np.einsum("...m,...n->...mn", u, l) - np.einsum("...m,...n->...mn", l, u)
    res_u = grad_u - lam * wedge
    res_l = _nabla(l, geo, grid) - np.einsum("...m,...n->...mn", kappa, u) \
        - lam * (np.einsum("...m,...n->...mn", l, l) - geo.g)

    uu = _quadratic(geo.ginv, u, u)
    ll = _quadratic(geo.ginv, l, l)
    ul = _quadratic(geo.ginv, u, l)

    killing = grad_u + np.swapaxes(grad_u, -1, -2)

    dkappa = np.moveaxis(partials(kappa, grid), -1, -2)
    dkappa = dkappa - np.swapaxes(dkappa, -1, -2)

    nontrivial = bool(np.max(np.abs(u[inner])) > 1e-10)
    return FirstOrderReport(
        du_residual=float(np.max(np.abs(res_u[inner]))),
        dl_residual=float(np.max(np.abs(res_l[inner]))),
        u_norm_violation=float(np.max(np.abs(uu[inner]))),
        l_norm_violation=float(np.max(np.abs(ll[inner] - 1.0))),
        orthogonality_violation=float(np.max(np.abs(ul[inner]))),
        u_killing_residual=float(np.max(np.abs(killing[inner]))),
        dkappa_max=float(np.max(np.abs(dkappa[inner]))),
        nontrivial=nontrivial)


# ----------------------------------------------------------- chiral algebra

def chiral_projectors(rep: CliffordRep | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the eigenspaces of the complex volume element i gamma5."""
    rep = rep or clifford_rep()
    nu_c = 1j * rep.gamma5
    ident = np.eye(4, dtype=complex)
    return (ident + nu_c) / 2, (ident - nu_c) / 2


def t_w(rep: CliffordRep, w: complex, eps: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chiral Killing endomorphism: T_w(eps)(v) = gamma(v)(w P+ eps + conj(w) P- eps)
    for a frame vector v (components in the orthonormal frame)."""
    p_plus, p_minus = chiral_projectors(rep)
    gv = rep.slash(np.asarray(v, dtype=float))
    return gv @ (w * (p_plus @ eps) + np.conj(w) * (p_minus @ eps))


def chiral_operator_check(w: complex, eps1: np.ndarray, eps2: np.ndarray,
                          rep: CliffordRep | None = None,
                          rng: np.random.Generator | None = None) -> dict[str, float]:
    """Pointwise verification of the chiral endomorphism algebra.

    eps1, eps2 are the claimed chiral halves (projected with a warning if they
    are not).  Returns residuals: linearity of T_w, compatibility with the
    real structure (componentwise conjugation), and the reduction to the real
    Killing endomorphism with lam = 2w for real w.
    """
    rep = rep or clifford_rep()
    rng = rng or np.random.default_rng(0)
    p_plus, p_minus = chiral_projectors(rep)
    eps1 = np.asarray(eps1, dtype=complex)
    eps2 = np.asarray(eps2, dtype=complex)
    if np.max(np.abs(p_minus @ eps1)) > 1e-10 * max(1.0, np.max(np.abs(eps1))):
        warnings.warn("eps1 is not chiral; projecting", stacklevel=2)
        eps1 = p_plus @ eps1
    if np.max(np.abs(p_plus @ eps2)) > 1e-10 * max(1.0, np.max(np.abs(eps2))):
        warnings.warn("eps2 is not chiral; projecting", stacklevel=2)
        eps2 = p_minus @ eps2
    eps = eps1 + eps2

    out = {}
    vs = rng.standard_normal((8, 4))
    lin = 0.0
    conj_comp = 0.0
    for v in vs:
        t_val = t_w(rep, w, eps, v)
        lin = max(lin, float(np.max(np.abs(t_w(rep, w, 2.5 * eps, v) - 2.5 * t_val))))
        # real structure: conjugation swaps the chiral halves and w <-> conj w
        conj_comp = max(conj_comp, float(np.max(np.abs(
            np.conj(t_val) - t_w(rep, w, np.conj(eps), v)))))
    out["linearity"] = lin
    out["real_structure"] = conj_comp
    if abs(w.imag) < 1e-14:
        red = 0.0
        for v in vs:
            real_eps = eps + np.conj(eps)  # a c-real spinor
            red = max(red, float(np.max(np.abs(
                t_w(rep, w, real_eps, v)
                - w.real * (rep.slash(v) @ real_eps)))))
        out["real_w_reduction"] = red
    return out
