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
from functools import cached_property, reduce

import numpy as np

from .errors import InputError
from .fields import ETA, blockwise, det4, inverse4, node_blocks
# christoffel is unused here but stays importable: bench/spans.py wraps
# spinors.christoffel
from .grids import (WHOLE, Geometry, GridPatch, _refuse_nodes, box_window,
                    checked_geometry, christoffel, partials)  # noqa: F401
from .symplectic import _within


class FrameError(ValueError, InputError):
    pass


def _table(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _bilinear_table(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(16, 20) table of the frame bilinears: row (i, k) of eps (x) eps, and
    the columns a of C gamma_a, then (a, b) of C gamma_{[a} gamma_{b]}, so that
    one product (eps (x) eps) @ table gives u_a and om_ab."""
    gg = gamma[:, None] @ gamma[None, :]
    gab = 0.5 * (gg - np.swapaxes(gg, 0, 1))
    return _table(np.concatenate([c @ gamma, (c @ gab).reshape(16, 4, 4)]).reshape(20, 16).T)


def _spin_table(gamma: np.ndarray) -> np.ndarray:
    """(16, 16): row (a, b) is -(1/4) gamma^a gamma^b flattened over (i, k),
    so that w_ab (flattened) @ table = -(1/4) w_ab gamma^a gamma^b."""
    gup = np.einsum("ab,bij->aij", ETA, gamma)          # eta^-1 = eta
    return _table(-0.25 * (gup[:, None] @ gup[None, :]).reshape(16, 16))


# The fixed real Majorana representation of the (3,1) Clifford relations (the
# generators of the module docstring) and the read-only tables the spinor
# kernels contract with, built once at import.
_EPS, _S1, _S3 = ([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                  [[1.0, 0.0], [0.0, -1.0]])
GAMMA = _table(np.stack([np.kron(_EPS, np.eye(2)), np.kron(_S1, np.eye(2)),
                         np.kron(_S3, _S1), np.kron(_S3, _S3)]))   # gamma[a], real
GAMMA5 = _table(GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])
SPIN_TABLE = _spin_table(GAMMA)
# the Majorana pairing C: gamma_a^T C = -C gamma_a for every a, so that each
# C gamma_a and C gamma_{[a} gamma_{b]} is symmetric; unique up to scale, and
# gamma_0 is one (it is antisymmetric, squares to -Id and anticommutes with
# the symmetric gamma_1, gamma_2, gamma_3)
PAIRING = GAMMA[0]
BILINEAR_TABLE = _bilinear_table(GAMMA, PAIRING)


def slash(v: np.ndarray) -> np.ndarray:
    """gamma(v) = v^a gamma_a for frame vectors v of shape (..., 4)."""
    v = np.asarray(v)
    return (v @ GAMMA.reshape(4, 16)).reshape(v.shape[:-1] + (4, 4))


# ------------------------------------------------------------------- frames

@dataclass(frozen=True)
class FramePatch:
    """Grid-sampled vierbein e^a_mu (frame index first), with an optional
    analytic evaluator of one direction of the vierbein and spin connection
    (the built-in frames provide it; path integration needs it at off-node
    points)."""

    grid: GridPatch
    e: np.ndarray                    # grid + (a, mu)
    along: object = None             # (x (..., 4), mu) -> (e^a_mu (..., a), w_mu (..., a, b))

    def __post_init__(self):
        if self.e.shape != self.grid.shape + (4, 4):
            raise FrameError(f"vierbein shape {self.e.shape} does not match grid")
        # scale-free: |det e| with each row scaled to unit norm (a zero row
        # stays zero, so it fails the comparison too); each row is first
        # divided by its largest |entry|, so that its sum of squares neither
        # over- nor underflows (the maximum of the four column slices: np.max
        # along the length-4 axis is 30 times slower)
        def unit_rows_det(e):
            peak = reduce(np.maximum, np.moveaxis(np.abs(e), -1, 0))[..., None]
            e = e / np.where(peak > 0, peak, 1.0)
            norm = np.sqrt(np.einsum("...ij,...ij->...i", e, e))[..., None]
            det, s = det4(e / np.where(norm > 0, norm, 1.0))
            return np.abs(det) * s ** 4 > 1e-12

        if not np.all(blockwise(unit_rows_det, (self.e, 2))):
            raise FrameError("singular frame")

    def metric(self) -> np.ndarray:
        """g_{mu nu} = e^a_mu eta_ab e^b_nu per node.  A regular frame can
        still overflow it (the AdS4 frame at lam below about 1e-155): a node
        with an entry that is not finite is refused, named by its grid index."""
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            g = np.swapaxes(self.e, -1, -2) @ (ETA @ self.e)
        _refuse_nodes(g, np.finfo(float).max, "metric not finite at node index {}")
        return g

    @cached_property
    def geometry(self) -> Geometry:
        """The checked metric; Gamma is formed on the box a reader takes."""
        return checked_geometry(self.metric(), self.grid)


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

    def omega(pts):
        return 1.0 / (lam * pts[..., 3]) if ads else np.ones(pts.shape[:-1])

    def along(pts, mu):
        # the conformal frame e^a_mu = Omega delta^a_mu has the connection
        # w_{mu a b} = eta_{a mu} d_b ln(Omega) - eta_{b mu} d_a ln(Omega):
        # eta is diagonal, so w_mu is row mu and column mu of the gradient
        # d ln(Omega), which is -dz / z (ads) or 0 (minkowski)
        pts = np.asarray(pts, dtype=float)
        e = np.zeros(pts.shape[:-1] + (4,))
        e[..., mu] = omega(pts)
        d = np.zeros(pts.shape[:-1] + (4,))
        if ads:
            d[..., 3] = -1.0 / pts[..., 3]
        w = np.zeros(d.shape + (4,))
        w[..., mu, :] = ETA[mu, mu] * d
        w[..., :, mu] = -ETA[mu, mu] * d
        w[..., mu, mu] = 0.0
        return e, w

    # the nodes sample Omega delta^a_mu, the evaluator's columns, directly
    return FramePatch(grid, omega(x)[..., None, None] * np.eye(4), along=along)


def _connection(e: np.ndarray, de: np.ndarray) -> np.ndarray:
    """The pointwise connection formula on a block of nodes: w_{m a b} from
    e (n, a, m) and its derivative de (n, a, m, k) = d_k e_{a m}."""
    einv = inverse4(e)[0]                                 # e^mu_a
    c = np.swapaxes(de, -1, -2) - de                      # C[a, m, n] = d_m e_{a n} - d_n e_{a m}
    # t1[m, a, b] = e^n_a C[b, m, n]; t2[m, a, b] = e^n_b C[a, m, n] = t1[m, b, a]
    t1 = np.moveaxis((c.reshape(-1, 16, 4) @ einv).reshape(-1, 4, 4, 4), -3, -1)
    # t3[m, a, b] = e^c_m (e^r_a C[c, r, s] e^s_b): a frame rotation of C
    rot = np.swapaxes(einv, -1, -2)[:, None] @ c @ einv[:, None]
    t3 = (np.swapaxes(e, -1, -2) @ rot.reshape(-1, 4, 16)).reshape(-1, 4, 4, 4)
    wb = 0.5 * (t1 - np.swapaxes(t1, -1, -2) - t3)
    return (wb - np.swapaxes(wb, -1, -2)) / 2


def spin_connection(fr: FramePatch, box: tuple[slice, ...] = WHOLE) -> np.ndarray:
    """Torsion-free metric spin connection w_{mu a b} from the sampled frame,
    at the nodes of a node box (every node by default), box + (mu, a, b).

    Finite differences of the frame on the box plus a one-node halo, clipped
    at the grid faces (margin-1 interior); the output is antisymmetrised in
    (a, b) so that property holds to the last bit.  After the derivative, the
    formula ``_connection`` is pointwise: it runs on node blocks and writes
    each block's connection over that block's derivative at the box nodes, so
    on the whole grid the result is the only full-size array.
    """
    window, inner = box_window(fr.grid.shape, box, 1)
    e = fr.e[window]
    # d_n e_{a m} at the box nodes, then w_{m a b}: contiguous, so it is
    # written in place (on the whole grid it is the derivative itself)
    w = np.ascontiguousarray(partials(ETA @ e, fr.grid)[inner])
    return blockwise(_connection, (e[inner], 2), (w, 3), out=w)


# ---------------------------------------------------------- killing spinors

def _transport_generator(w_ab: np.ndarray, e_a: np.ndarray, lam: float) -> np.ndarray:
    """M_mu = -(1/4) w_{mu a b} gamma^a gamma^b + (lam/2) e^a_mu gamma_a for one
    direction mu, stacked over the leading axes of w_ab (..., a, b) and
    e_a (..., a): one matmul with each Clifford table.  All four directions
    of a node are the stack (w_{mu a b}, e^a_mu transposed to (mu, a))."""
    m = (w_ab.reshape(e_a.shape[:-1] + (16,)) @ SPIN_TABLE).reshape(w_ab.shape)
    gamma_e = slash(e_a)
    gamma_e *= 0.5 * lam
    m += gamma_e
    return m


def _axis_generator(fr: FramePatch, lam: float, pts: np.ndarray, axis: int) -> np.ndarray:
    """M_axis at off-node points from the analytic evaluator, one call that
    builds only the swept direction."""
    e_a, w = fr.along(pts, axis)
    return _transport_generator(np.asarray(w), np.asarray(e_a), lam)


def killing_residual(fr: FramePatch, eps: np.ndarray, lam: float,
                     box: tuple[slice, ...] = WHOLE) -> np.ndarray:
    """d_mu eps + (1/4) w_{mu a b} gamma^a gamma^b eps - (lam/2) gamma_mu eps
    per node and direction of a node box, shape box + (mu, component).

    The finite-difference spin connection makes it an independent check on
    ``integrate_killing``, which integrates the analytic one; valid on the
    margin-2 interior.  The frame and eps are differenced on the box plus a
    one-node halo, clipped at the grid faces, and the connection formula runs
    at the box nodes only: a box node's residual is the whole grid's, bit for bit.
    """
    window, inner = box_window(fr.grid.shape, box, 1)
    w = spin_connection(fr, box)
    res = np.moveaxis(partials(eps[window], fr.grid)[inner], -1, -2)  # (..., mu, comp) = d_mu eps
    e, eps = fr.e[box], eps[box]
    for mu in range(4):   # the generator of one direction at a time, subtracted in place
        m = _transport_generator(w[..., mu, :, :], e[..., mu], lam)
        res[..., mu, :] -= (m @ eps[..., None])[..., 0]
    return res


def _edge_propagators(fr: FramePatch, lam: float, nodes: np.ndarray, axis: int,
                      h: float) -> np.ndarray:
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
    m = _axis_generator(fr, lam, pts, axis)
    m0, mh, m1 = m[..., 0:-1:2, :, :], m[..., 1::2, :, :], m[..., 2::2, :, :]
    eye = np.eye(4)
    k2 = mh @ (eye + h / 2 * m0)
    k3 = mh @ (eye + h / 2 * k2)
    k4 = m1 @ (eye + h * k3)
    return eye + h / 6 * (m0 + 2 * k2 + 2 * k3 + k4)


def _sweep(fr: FramePatch, lam: float, nodes: np.ndarray, lines: np.ndarray,
           axis: int) -> None:
    """Transport the first spinor of each line along axis, edge by edge, in
    place: nodes and lines are lines + (n, 4), the coordinates and spinors of
    the nodes.  One generator call and one batch of RK4 propagators serve all
    the lines.  Needs the analytic evaluator of a built-in frame: RK4 samples
    it between nodes."""
    if fr.along is None:
        raise FrameError("Killing transport needs a frame with an analytic "
                         "evaluator (use builtin_frame)")
    props = _edge_propagators(fr, lam, nodes, axis, float(fr.grid.h[axis]))
    for k in range(lines.shape[-2] - 1):
        lines[..., k + 1, :] = (props[..., k, :, :] @ lines[..., k, :, None])[..., 0]


def integrate_killing(fr: FramePatch, lam: float, eps0: np.ndarray,
                      axis_order: tuple[int, ...] = (0, 1, 2, 3),
                      box: tuple[slice, ...] = WHOLE) -> np.ndarray:
    """The Killing transport of eps0 from the origin corner, sweeping one
    axis at a time in the given order (RK4 per edge), on the nodes from that
    corner through the far corner of a node box (every node by default):
    [0, stop) per axis + (4,), indexed as the grid's nodes.

    Each swept axis runs in slabs of rows of its first line axis, about
    ``fields.NODE_BLOCK`` nodes each; ``_sweep`` transports a slab's lines.
    A node's spinor depends only on the nodes between it and the origin, so
    it is the whole grid's sweep's to the last bit.
    """
    grid = fr.grid
    stops = [s.indices(n)[1] for s, n in zip(box, grid.shape)]
    coords = np.stack(np.meshgrid(*(ax[:k] for ax, k in zip(grid.axes, stops)),
                                  indexing="ij"), axis=-1)
    eps = np.zeros(tuple(stops) + (4,))
    eps[(0,) * 4] = np.asarray(eps0, dtype=float)

    for pos, axis in enumerate(axis_order):
        # the lines along `axis` through the block the earlier sweeps filled
        sel = tuple(slice(None) if a in axis_order[:pos + 1] else slice(0, 1)
                    for a in range(4))
        nodes = np.moveaxis(coords[sel], axis, -2)
        lines = np.moveaxis(eps[sel], axis, -2)          # a view into eps
        for rows in node_blocks(lines.shape[0], int(np.prod(lines.shape[1:-1]))):
            _sweep(fr, lam, nodes[rows], lines[rows], axis)
    return eps


def path_defect(fr: FramePatch, lam: float, eps0: np.ndarray) -> float:
    """Far-corner disagreement between the (0, 1, 2, 3) and (3, 2, 1, 0) axis
    sweeps of eps0 from the origin corner: an integrability measure of the
    Killing transport (zero for a flat connection up to the integrator
    error).

    Each sweep is walked only along the one line per axis that reaches the
    far corner, 4 (n - 1) edges: each is the line the full sweep transports
    into the corner, by the same ``_sweep``, so each corner is the full
    sweep's (``integrate_killing``) to the last bit.
    """
    axes, corners = fr.grid.axes, []
    for order in ((0, 1, 2, 3), (3, 2, 1, 0)):
        point = np.array([ax[0] for ax in axes])
        spinor = np.asarray(eps0, dtype=float)
        for axis in order:
            ax = axes[axis]
            nodes = np.repeat(point[None], len(ax), axis=0)
            nodes[:, axis] = ax
            line = np.zeros((len(ax), 4))
            line[0] = spinor
            _sweep(fr, lam, nodes, line, axis)
            point, spinor = nodes[-1], line[-1]
        corners.append(spinor)
    return float(np.max(np.abs(corners[0] - corners[1])))


# -------------------------------------------------------- bilinear one-forms

def killing_bilinears(fr: FramePatch, eps: np.ndarray):
    """One-forms (u, l) built from a real spinor field eps:

        u_mu  = e^a_mu eps^T C gamma_a eps              (the vector bilinear),
        om_mn = e^a_m e^b_n eps^T C gamma_{[a} gamma_{b]} eps,
        l_n   = -sum_m u_m om_mn / sum_m u_m u_m,

    with C = ``PAIRING``; both frame bilinears come from one product of
    eps (x) eps with ``BILINEAR_TABLE``.  eps may cover the nodes [0, stop)
    per axis, indexed as the grid's nodes, as ``integrate_killing`` returns
    it on a box; the frame is read on the same nodes.  The gamma5-inserted
    vector bilinear vanishes identically in this representation, so the
    spacelike partner comes from the tensor bilinear.  At every node with
    u != 0 the Fierz identities give g(u, u) = 0 and om = l ^ u with
    g(l, l) = 1 and g(u, l) = 0, for any spinor, not only a Killing one: the
    contraction recovers l up to a shift along u, which keeps those
    identities and which the first-order system absorbs into its free
    one-form.  Where u = 0, l = 0.
    """
    lead = eps.shape[:-1]
    e = fr.e[tuple(slice(0, k) for k in lead)]
    # a stack of small products over the leading axes: flattened to one tall
    # GEMM, BLAS runs it on a second thread, whose buffers add 2.5 MB of RSS
    bil = (eps[..., :, None] * eps[..., None, :]).reshape(lead + (16,)) @ BILINEAR_TABLE
    u = (bil[..., None, :4] @ e)[..., 0, :]
    # u_m om_mn as three frame-vector contractions: (e u)_a, then its
    # product with the frame tensor bilinear, then with e again
    v = (e @ u[..., None])[..., 0]
    w = (v[..., None, :] @ bil[..., 4:].reshape(lead + (4, 4)))[..., 0, :]
    l = (w[..., None, :] @ e)[..., 0, :]
    l /= -np.maximum(np.einsum("...m,...m->...", u, u), 1e-300)[..., None]
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
    u_killing_residual: float      # max |sym grad of u-flat| / sqrt(max |g|)
    dkappa_max: float              # reported, not asserted
    nontrivial: bool


def _nabla(dw: np.ndarray, gamma: np.ndarray, w: np.ndarray) -> np.ndarray:
    """nabla_m w_n = d_m w_n - Gamma^l_{mn} w_l of a one-form w, from its partials dw."""
    return np.moveaxis(dw, -1, -2) - np.einsum("...lmn,...l->...mn", gamma, w)


def extract_kappa(u: np.ndarray, l: np.ndarray, lam: float, g, grid: GridPatch,
                  box: tuple[slice, ...] = WHOLE) -> np.ndarray:
    """Least-squares one-form kappa with grad l = kappa (x) u + lam (l (x) l - g)
    at the nodes of a node box, every node by default.

    g is the metric or its ``Geometry``, whose box geometry gives Gamma.
    Componentwise least squares per node, one node block at a time;
    meaningful wherever u is nonzero.
    """
    def kernel(dl, gamma, l, u, g):
        w = _nabla(dl, gamma, l) - lam * (np.einsum("...m,...n->...mn", l, l) - g)
        denom = np.maximum(np.einsum("...n,...n->...", u, u), 1e-300)
        return np.einsum("...mn,...n->...m", w, u) / denom[..., None]

    window, inner = box_window(grid.shape, box, 1)
    geo = checked_geometry(g, grid).on(box)
    return blockwise(kernel, (partials(l[window], grid)[inner], 2), (geo.gamma, 3),
                     (l[box], 1), (u[box], 1), (geo.g, 2))


def verify_thm53(u: np.ndarray, l: np.ndarray, lam: float, g, grid: GridPatch,
                 box: tuple[slice, ...] | None = None) -> FirstOrderReport:
    """Residuals of the first-order system for the lightlike/spacelike pair:

        grad u = lam u ^ l,    grad l = kappa (x) u + lam (l (x) l - g),

    plus the algebraic constraints g(u,u) = 0, g(l,l) = 1, g(u,l) = 0, the
    Killing check for the vector dual to u, and the (reported, not asserted)
    size of d kappa, each a maximum over the nodes of a node box (the
    margin-2 interior by default).  g is the metric or its ``Geometry``; u
    and l are indexed as the grid's nodes and need cover only the box plus
    two nodes.  kappa, fixed by u, l, lam and g, and Gamma are formed on the
    box plus one node, the window that the box's derivatives read.
    """
    box = grid.interior() if box is None else box
    window, inner = box_window(grid.shape, box, 1)
    g = checked_geometry(g, grid)
    geo = g.on(window)
    kappa = extract_kappa(u, l, lam, g, grid, window)
    u, l = u[window], l[window]

    def peak(a: np.ndarray) -> float:
        return float(np.max(np.abs(a[inner])))

    # u_m = e^a_m u_a scales as the frame, and so does sqrt(max |g|)
    scale = np.sqrt(peak(geo.g))
    # each residual is reduced to its box maximum as soon as it is formed
    grad_u = _nabla(partials(u, grid), geo.gamma, u)
    killing = peak(grad_u + np.swapaxes(grad_u, -1, -2))
    wedge = np.einsum("...m,...n->...mn", u, l) - np.einsum("...m,...n->...mn", l, u)
    du = peak(grad_u - lam * wedge)
    del grad_u, wedge
    dl = peak(_nabla(partials(l, grid), geo.gamma, l) - np.einsum("...m,...n->...mn", kappa, u)
              - lam * (np.einsum("...m,...n->...mn", l, l) - geo.g))
    dkappa = np.moveaxis(partials(kappa, grid), -1, -2)
    return FirstOrderReport(
        du_residual=du,
        dl_residual=dl,
        u_norm_violation=peak(_quadratic(geo.ginv, u, u)),
        l_norm_violation=float(np.max(np.abs(_quadratic(geo.ginv, l, l)[inner] - 1.0))),
        orthogonality_violation=peak(_quadratic(geo.ginv, u, l)),
        u_killing_residual=killing / scale,
        dkappa_max=peak(dkappa - np.swapaxes(dkappa, -1, -2)),
        nontrivial=bool(peak(u) > 1e-10 * scale))


# ----------------------------------------------------------- chiral algebra

def chiral_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the eigenspaces of the complex volume element i gamma5."""
    nu_c = 1j * GAMMA5
    ident = np.eye(4, dtype=complex)
    return (ident + nu_c) / 2, (ident - nu_c) / 2


def t_w(w: complex, eps: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chiral Killing endomorphism: T_w(eps)(v) = gamma(v)(w P+ eps + conj(w) P- eps)
    for frame vectors v, shape (..., 4) (components in the orthonormal frame)."""
    p_plus, p_minus = chiral_projectors()
    gv = slash(np.asarray(v, dtype=float))
    return gv @ (w * (p_plus @ eps) + np.conj(w) * (p_minus @ eps))


def chiral_operator_check(w: complex, eps1: np.ndarray, eps2: np.ndarray,
                          rng: np.random.Generator | None = None) -> dict[str, float]:
    """Pointwise verification of the chiral endomorphism algebra.

    eps1, eps2 are the claimed chiral halves (projected with a warning if they
    are not).  Returns residuals: linearity of T_w, compatibility with the
    real structure (componentwise conjugation), and the reduction to the real
    Killing endomorphism with lam = 2w for real w.
    """
    rng = rng or np.random.default_rng(0)
    p_plus, p_minus = chiral_projectors()
    eps1 = np.asarray(eps1, dtype=complex)
    eps2 = np.asarray(eps2, dtype=complex)
    if not _within(np.max(np.abs(p_minus @ eps1)), 1e-10, np.max(np.abs(eps1))):
        warnings.warn("eps1 is not chiral; projecting", stacklevel=2)
        eps1 = p_plus @ eps1
    if not _within(np.max(np.abs(p_plus @ eps2)), 1e-10, np.max(np.abs(eps2))):
        warnings.warn("eps2 is not chiral; projecting", stacklevel=2)
        eps2 = p_minus @ eps2
    eps = eps1 + eps2

    vs = rng.standard_normal((8, 4))   # the sample frame vectors, one stacked call each
    t_val = t_w(w, eps, vs)
    out = {"linearity": float(np.max(np.abs(t_w(w, 2.5 * eps, vs) - 2.5 * t_val))),
           # real structure: conjugation swaps the chiral halves and w <-> conj w
           "real_structure": float(np.max(np.abs(np.conj(t_val) - t_w(w, np.conj(eps), vs))))}
    if abs(w.imag) < 1e-14:
        real_eps = eps + np.conj(eps)  # a c-real spinor
        out["real_w_reduction"] = float(np.max(np.abs(
            t_w(w, real_eps, vs) - w.real * (slash(vs) @ real_eps))))
    return out
