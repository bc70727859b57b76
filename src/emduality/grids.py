"""Finite-difference residuals of the Einstein, scalar and field-strength
closure equations on a 4d coordinate patch, plus the duality transport harness.

Discretization: second-order central differences, one grid direction per
stencil (``partial``, with ``np.gradient``'s arithmetic; ``partials`` stacks
the four), nested for second derivatives; residuals are accurate on interior
nodes with margin 2.  A residual is computed on a node box (``BoxFields``):
the fields are differenced on the box's window, the box plus a two-node halo
clipped at the grid faces (``box_window``), and the pointwise formulas run on
the box nodes only, so a box node gets the arithmetic of a whole-grid node.
Reports run on the margin-2 interior; the whole grid is the box ``WHOLE``.
Curvature and closure run one stencil direction at a time and keep only what
their formulas read: the Ricci tensor two traces of d Gamma, the closure
residual the four independent components of dV.  Residuals are evaluated,
never solved: no boundary conditions enter anywhere.

The scalar equation is assembled in two ways from the same discrete
derivatives: the coupling-derivative form and the taming-derivative
(fundamental-form) source.  Their agreement is a pointwise algebraic identity
in these conventions (the taming-form source equals minus the coupling-form
source; see ``psi_form_source``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fields as fl
from .errors import InputError
from .models import Model, TransformedModel, checked_walk, load_model, point_text
from .symplectic import MAX_ENTRY, mobius_congruence, omega, taming_matrix
from .textio import key_values, numbers

MARGIN = 2
# Most nodes of one grid: 33^4, the finest grid of a 9^4 configuration refined
# twice (``residuals --refine 2``).
MAX_NODES = 33 ** 4


class GridError(ValueError, InputError):
    pass


class DomainExitError(ValueError, InputError):
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
        for axis, (lo, hi) in enumerate(self.extents):
            if hi <= lo:
                raise GridError(f"extents axis {axis} is empty: {lo:g}:{hi:g}")
        if np.prod(self.resolution, dtype=float) > MAX_NODES:
            raise GridError(f"grid {'x'.join(map(str, self.resolution))} has more than "
                            f"{MAX_NODES} nodes (33^4)")

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

    def interior(self) -> tuple[slice, ...]:
        return tuple(slice(MARGIN, n - MARGIN) for n in self.resolution)

    def node_box(self, extents) -> tuple[slice, ...]:
        """The nodes inside a coordinate box, given as one (lo, hi) pair per
        axis, as one slice per axis.  A node within a millionth of a spacing
        of a face counts as inside, so a node shared with another grid of the
        same extents is found however its coordinate was rounded."""
        return tuple(slice(np.searchsorted(ax, lo - tol), np.searchsorted(ax, hi + tol, "right"))
                     for ax, (lo, hi), tol in zip(self.axes, extents, 1e-6 * self.h))

    def refine(self) -> "GridPatch":
        """Halve the spacing (nodes of this grid are a subset of the new one)."""
        return GridPatch(self.extents, tuple(2 * (n - 1) + 1 for n in self.resolution))


def partial(f: np.ndarray, grid: GridPatch, axis: int, out: np.ndarray | None = None
            ) -> np.ndarray:
    """Central difference of f along one grid axis, with ``np.gradient``'s
    arithmetic (one-sided at the two end nodes), written into out if given.

    f has shape grid + extra, and so has the result.  Valid on margin-1
    interior nodes.
    """
    h = grid.h[axis]
    if out is None:
        out = np.empty(f.shape, np.result_type(f, 1.0))
    f = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    np.subtract(f[1], f[0], out=o[0])
    o[0] /= h
    np.subtract(f[-1], f[-2], out=o[-1])
    o[-1] /= h
    return out


def partials(f: np.ndarray, grid: GridPatch) -> np.ndarray:
    """Central-difference first derivatives, appended as a trailing axis.

    f has shape grid + extra; output grid + extra + (4,), last index the
    derivative direction.  Valid on margin-1 interior nodes.
    """
    out = np.empty(f.shape + (4,), np.result_type(f, 1.0))
    for a in range(4):
        partial(f, grid, a, out[..., a])
    return out


def box_window(shape: tuple[int, ...], box: tuple[slice, ...], halo=MARGIN
               ) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """(window, inner) of a node box, one slice per axis: the box widened by
    halo nodes on each side (one int, or one per axis), clipped at the grid
    faces, and the box's slices within that window.  A stencil of reach halo
    at a box node reads only window nodes, and is one-sided just where it is
    on the whole grid."""
    bounds = [s.indices(n)[:2] for s, n in zip(box, shape)]
    halos = [int(k) for k in np.broadcast_to(halo, (len(shape),))]
    window = tuple(slice(max(lo - k, 0), min(hi + k, n))
                   for (lo, hi), k, n in zip(bounds, halos, shape))
    inner = tuple(slice(lo - w.start, hi - w.start) for (lo, hi), w in zip(bounds, window))
    return window, inner


def partial_at(f: np.ndarray, grid: GridPatch, axis: int, box: tuple[slice, ...]
               ) -> np.ndarray:
    """``partial`` of f along one grid axis on the nodes of a box of f's
    nodes only: f is differenced on the box widened by one node along axis."""
    window, inner = box_window(f.shape[:4], box, np.arange(4) == axis)
    return partial(f[window], grid, axis)[inner]


# ------------------------------------------------------------- curvature ops

WHOLE = (slice(None),) * 4   # every node of a grid, as a node box


@dataclass(frozen=True)
class Geometry(fl.Metric):
    """A checked Lorentzian metric on a node box of a grid, box + (4, 4): one
    per metric field, shared by every consumer.  The geometry of a metric
    field has the whole grid as its box; ``on`` cuts a box out of it, with
    gw, the metric on the box's window, as a view.  The Christoffel symbols
    and the Einstein tensor on the box, and the box geometries, are computed
    on first use and kept."""

    grid: GridPatch
    gw: np.ndarray                         # window + (4, 4); g itself on the whole grid
    inner: tuple[slice, ...] = WHOLE       # the box within gw's window

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma^r_{mn} on the box, box + (r, m, n), written over the metric
        derivative, which is formed at the box nodes only."""
        dg = np.empty(self.g.shape + (4,))
        for k in range(4):
            dg[..., k] = partial_at(self.gw, self.grid, k, self.inner)
        return _christoffel(self.ginv, dg, out=dg)

    @cached_property
    def einstein_tensor(self) -> np.ndarray:
        out = einstein(self, self.grid)
        out.flags.writeable = False
        return out

    def on(self, box: tuple[slice, ...]) -> "Geometry":
        """The geometry on a node box of the whole grid's geometry: itself
        when the box is the whole grid."""
        bounds = tuple(s.indices(n)[:2] for s, n in zip(box, self.grid.shape))
        if bounds == tuple((0, n) for n in self.grid.shape):
            return self
        boxes = self.__dict__.setdefault("boxes", {})
        if bounds not in boxes:
            box = tuple(slice(lo, hi) for lo, hi in bounds)
            window, inner = box_window(self.grid.shape, box)
            geo = Geometry(self.g[box], self.ginv[box], self.det[box], self.grid,
                           self.g[window], inner)
            geo.__dict__["vol"] = self.vol[box]   # the metric check ran on every node
            boxes[bounds] = geo
        return boxes[bounds]


def _christoffel(ginv: np.ndarray, dg: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Gamma^r_{mn} = (1/2) g^{rs} B_{smn} from dg = d_k g_mn, with B formed
    one block of nodes at a time; written into out (which may be dg) if given."""
    out = fl.blockwise(lambda ginv, dg: (ginv @ _bracket(dg).reshape(-1, 4, 16)).reshape(dg.shape),
                       (ginv, 2), (dg, 3), out=out)
    out *= 0.5
    return out


def _bracket(dg: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """B[s, m, n] = d_m g_sn + d_n g_sm - d_s g_mn from dg[s, n, m] = d_m g_sn,
    the layout of ``partials(g)``; leading axes pass through.  Written into
    out if given."""
    out = np.add(np.swapaxes(dg, -1, -2), dg, out=out)
    out -= np.moveaxis(dg, -1, -3)
    return out


def checked_geometry(g, grid: GridPatch) -> Geometry:
    """The one way from a metric field to its geometry: the metric check,
    its shape against the grid's included, now, Gamma and the Einstein tensor
    where they are first read.  A Geometry passes through."""
    if isinstance(g, Geometry):
        return g
    if np.shape(g) != grid.shape + (4, 4):
        raise GridError(f"metric shape {np.shape(g)} does not match grid")
    m = fl.checked_metric(g)
    geo = Geometry(m.g, m.ginv, m.det, grid, m.g)
    geo.vol  # a grid metric is Lorentzian: take the volume, and its check, now
    return geo


def christoffel(g, grid: GridPatch) -> np.ndarray:
    """Gamma^r_{mn} per node, shape grid + (4, 4, 4)."""
    return checked_geometry(g, grid).gamma


def _gamma_traces(geo: Geometry, grid: GridPatch) -> tuple[np.ndarray, np.ndarray]:
    """The two traces of d_l Gamma^r_mn that the Ricci tensor reads,
    d_r Gamma^r_mn and d_n Gamma^r_rm, each box + (m, n).

    d_l Gamma = g^-1 ((1/2) d_l B - d_l g Gamma) is assembled algebraically
    from the finite-difference first and second metric derivatives (no nested
    FD of Gamma itself, so polynomial metrics of degree <= 2 are
    stencil-exact), one derivative direction l at a time: row r = l of it
    adds to the first trace, and its r-trace is column n = l of the second.
    The metric is differenced on the box plus one node, clipped at the grid
    faces, all that the second stencil reads, and that derivative again.
    """
    lead = geo.gamma.shape[:-3]
    flat_gamma = geo.gamma.reshape(lead + (4, 16))
    near, inner_near = box_window(geo.gw.shape[:4], geo.inner, 1)
    first = np.empty(geo.gw[near].shape + (4,))           # (..., m, n, k) = d_k g_mn
    for k in range(4):
        first[..., k] = partial_at(geo.gw, grid, k, near)
    dg = first[inner_near]
    inner = np.empty(dg.shape)
    flat_inner = inner.reshape(lead + (4, 16))
    div = np.zeros(lead + (16,))
    grad = np.empty(lead + (4, 4))
    for l in range(4):
        ddg = np.ascontiguousarray(partial_at(first, grid, l, inner_near))  # d_l d_k g_mn
        _bracket(ddg, inner)                            # d_l B_smn
        inner *= 0.5
        scratch = ddg.reshape(lead + (4, 16))
        flat_inner -= np.matmul(dg[..., l], flat_gamma, out=scratch)  # d_l g_sr Gamma^r_mn
        dgamma = np.matmul(geo.ginv, flat_inner, out=scratch)  # (..., r, mn) = d_l Gamma^r_mn
        div += dgamma[..., l, :]
        grad[..., l] = np.einsum("...rrm->...m", dgamma.reshape(lead + (4, 4, 4)))
        del ddg, scratch, dgamma  # so that two are not alive at the next direction
    return div.reshape(lead + (4, 4)), grad


def ricci(g, grid: GridPatch) -> np.ndarray:
    """Ricci tensor per node of a metric field or a geometry's box (valid on
    margin-2 interior nodes), from the two traces of d Gamma of
    ``_gamma_traces``: no rank-5 array is formed."""
    geo = checked_geometry(g, grid)
    gamma = geo.gamma
    lead = gamma.shape[:-3]
    div, grad = _gamma_traces(geo, grid)
    # R_mn = d_r G^r_mn - d_n G^r_rm + G^r_rl G^l_mn - G^r_nl G^l_rm
    swapped = np.swapaxes(gamma, -3, -2)                # (..., n, r, l) = G^r_nl
    return (div - grad
            + (np.einsum("...rrl->...l", gamma)[..., None, :]
               @ gamma.reshape(lead + (4, 16))).reshape(lead + (4, 4))
            - swapped.reshape(lead + (4, 16)) @ swapped.reshape(lead + (16, 4)))


def einstein(g, grid: GridPatch) -> np.ndarray:
    """Einstein tensor G_{mn} = R_{mn} - (1/2) g_{mn} R per node."""
    geo = checked_geometry(g, grid)
    ric = ricci(geo, grid)
    return ric - 0.5 * geo.g * fl.trace(geo.ginv, ric)[..., None, None]


# --------------------------------------------------------------- field data

def _not_antisymmetric(v: np.ndarray) -> np.ndarray:
    """Per node of a block, any |V + V^T| > 0; a NaN entry passes, as
    |NaN| > 0 is False.  A block whose V + V^T is exactly zero is cleared by
    one test (a NaN makes it nonzero and runs the node test)."""
    s = v + np.swapaxes(v, -1, -2)
    if not s.any():
        return np.zeros(len(v), bool)
    return (np.abs(s) > 0).reshape(len(v), -1).any(axis=1)


@dataclass
class FieldConfiguration:
    """Grid-sampled triple (metric, scalar map, symplectic field strength)
    together with the model supplying couplings along the scalar map.

    The metric is its checked whole-grid ``Geometry``: ``grid`` and ``g`` are
    the geometry's.  The couplings R, I, the walk's partials dtau and, for a
    transported configuration, inv = (a + b N)^-1 come from one checked
    model walk at construction (``models.checked_walk``).  Residuals, *V,
    the taming J and the coupling derivatives dR, dI are formed by a node
    box view, ``on(box)``; the whole grid is the box ``WHOLE``.
    """

    model: Model | TransformedModel
    geometry: Geometry   # the checked metric, grid + (4, 4)
    phi: np.ndarray      # grid + (n_s,)
    V: np.ndarray        # grid + (2 n_v, 4, 4)
    R: np.ndarray = field(init=False)    # grid + (n_v, n_v)
    I: np.ndarray = field(init=False)
    dtau: np.ndarray = field(init=False)   # grid + (n_s, n_v, n_v), complex
    inv: np.ndarray | None = field(init=False)   # grid + (n_v, n_v), complex

    def __post_init__(self):
        shape, n_v, n_s = self.grid.shape, self.model.n_v, self.model.chart.dim
        if self.phi.shape != shape + (n_s,):
            raise GridError(f"scalar map shape {self.phi.shape} does not match grid/chart")
        if self.V.shape != shape + (2 * n_v, 4, 4):
            raise GridError(f"field block shape {self.V.shape} does not match grid/model")
        if np.any(fl.blockwise(_not_antisymmetric, (self.V, 3))):
            raise GridError("field strength block must be exactly antisymmetric")
        bad = self.model.chart.first_outside(self.phi)
        if bad is not None:
            raise DomainExitError(f"scalar map leaves the chart at node {bad}: "
                                  f"{point_text(self.phi, bad)}")
        tau, self.dtau, self.inv = checked_walk(self.model, self.phi)
        self.R, self.I = tau.real, tau.imag

    @property
    def grid(self) -> GridPatch:
        return self.geometry.grid

    @property
    def g(self) -> np.ndarray:
        return self.geometry.g

    @property
    def n_v(self) -> int:
        return self.model.n_v

    @property
    def F(self) -> np.ndarray:
        return self.V[..., : self.n_v, :, :]

    def on(self, box: tuple[slice, ...]) -> "BoxFields":
        """The configuration on a node box, one slice per axis."""
        return BoxFields(self, box)


class BoxFields:
    """A configuration on a node box of its grid: its geometry on the box
    (``Geometry.on``), the fields and couplings at the box nodes (g, phi, V,
    F, R, I: views of the configuration's arrays), the coupling derivatives
    dR, dI and the taming J of the couplings there, and the fields on the
    box's window, which the difference stencils read.  Every residual
    formula reads a configuration through it, so a residual on a box is the
    residual on the box ``WHOLE`` at those nodes, computed at those nodes
    only.  The model and n_v are the configuration's."""

    NODE_FIELDS = ("g", "phi", "V", "F", "R", "I")

    def __init__(self, cfg: FieldConfiguration, box: tuple[slice, ...]):
        self.cfg, self.grid = cfg, cfg.grid
        self.box = tuple(slice(*s.indices(n)[:2]) for s, n in zip(box, cfg.grid.shape))
        self.window, self.inner = box_window(cfg.grid.shape, self.box)

    def __getattr__(self, name):
        if name in ("model", "n_v"):
            return getattr(self.cfg, name)
        if name in BoxFields.NODE_FIELDS:
            return getattr(self.cfg, name)[self.box]
        raise AttributeError(name)

    @cached_property
    def J(self) -> np.ndarray:
        """The taming of the couplings at the box nodes, box + (2 n_v, 2 n_v),
        from ``symplectic.taming_matrix``.  Couplings inside Siegel space can
        still overflow it: a node whose J has an entry that is not finite or
        exceeds MAX_ENTRY is refused, named by its grid index."""
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            j = taming_matrix(self.R, self.I)
        _refuse_nodes(j, MAX_ENTRY, f"taming not finite or above {MAX_ENTRY:g} at node index "
                      "{}: the couplings are out of range", [s.start for s in self.box])
        return j

    @cached_property
    def dtau(self) -> np.ndarray:
        """The partials of the couplings along the chart axes at the box
        nodes, box + (n_s, n_v, n_v), complex: the walk's own, or for a
        transported configuration their congruence inv^T dtau inv, formed
        here.  A transported node whose partials have an entry that is not
        finite or exceeds MAX_ENTRY is refused, named by its grid index."""
        d = self.cfg.dtau[self.box]
        if self.cfg.inv is None:
            return d
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            d = mobius_congruence(self.cfg.inv[self.box][..., None, :, :], d)
        # real and imaginary parts side by side, each held to the bound
        _refuse_nodes(d.view(float), MAX_ENTRY, "transported coupling derivative not finite "
                      f"or above {MAX_ENTRY:g} at node index {{}}: the couplings are out of "
                      "range", [s.start for s in self.box])
        return d

    @property
    def dR(self) -> np.ndarray:
        return self.dtau.real

    @property
    def dI(self) -> np.ndarray:
        return self.dtau.imag

    @cached_property
    def geometry(self) -> Geometry:
        return self.cfg.geometry.on(self.box)

    @cached_property
    def star_v(self) -> np.ndarray:
        """*V on the box nodes."""
        return fl.star_fibers(self.geometry, self.V)

    @cached_property
    def dphi_window(self) -> np.ndarray:
        """d_a phi^i on the window, window + (n_s, 4)."""
        return partials(self.cfg.phi[self.window], self.grid)

    def selfduality_violation(self) -> float:
        """Max over the box nodes of | *V + J V |."""
        return fl.selfduality_defect(self.star_v, self.J, self.V)


def assemble_field_block(cfg: FieldConfiguration) -> np.ndarray:
    """(F, R F - I *F) from the upper block F of cfg and its couplings: twisted
    self-dual by construction.  A node whose lower block has an entry that is
    not finite or exceeds MAX_ENTRY is refused, named by its grid index."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        v = fl.assemble_V(cfg.F, cfg, cfg.geometry)
    _refuse_nodes(v, MAX_ENTRY, f"lower field block not finite or above {MAX_ENTRY:g} at node "
                  "index {}: R F - I *F is out of range")
    return v


def make_configuration(grid: GridPatch, model, g: np.ndarray, phi: np.ndarray,
                       f: np.ndarray) -> FieldConfiguration:
    """Configuration with field block (F, R F - I *F): the metric is checked
    first, then the configuration evaluates the couplings along phi once."""
    cfg = FieldConfiguration(model, checked_geometry(g, grid), phi,
                             np.concatenate([f, np.zeros_like(f)], axis=-3))
    cfg.V = assemble_field_block(cfg)
    return cfg


# ---------------------------------------------------------------- residuals
#
# Each residual reads a configuration on a node box, a BoxFields, and is
# formed at the box nodes only: box + tail.

def einstein_residual(x: BoxFields, check: bool = True) -> np.ndarray:
    """G_{ab} - scalar stress - gauge stress per node (valid margin-2); with
    check, warns when the field block is not twisted self-dual on the box."""
    if check:  # from the cached *V, so the gauge stress need not dualize V again
        fl.warn_if_not_selfdual(x.selfduality_violation(), x.V, "configuration")
    geo = x.geometry
    dphi = np.swapaxes(x.dphi_window[x.inner], -1, -2)  # (..., a, i) = d_a phi^i
    out = geo.einstein_tensor - fl.stress_scalar(geo, x.model.chart.metric(x.phi), dphi)
    out -= fl.stress_gauge(geo, x.J, x.V, check=False)
    return out


def local_gauge_source(x: BoxFields) -> np.ndarray:
    """(1/2) d_k R . F *F + (1/2) d_k I . F F per node, shape box + (n_s,)."""
    n, f = x.n_v, x.F
    # one pairing raises F once: rows (*F^S, F^S) . F^L, (..., 2 n_v, L)
    pairs = fl.pairings(x.geometry, np.concatenate([x.star_v[..., :n, :, :], f], axis=-3), f)
    # both sums read a contiguous (L, S) operand, so that a box of one node
    # sums in the order of a box of many
    f_sf = np.ascontiguousarray(np.swapaxes(pairs[..., :n, :], -1, -2))
    f_f = np.ascontiguousarray(pairs[..., n:, :])
    return 0.5 * (np.einsum("...kLS,...LS->...k", x.dR, f_sf)
                  + np.einsum("...kLS,...LS->...k", x.dI, f_f))


def _taming_derivative(x: BoxFields) -> np.ndarray:
    """d J / d x^k along the scalar map from the coupling derivatives,
    shape box + (n_s, 2n, 2n)."""
    iinv = x.J[..., None, : x.n_v, x.n_v:]   # the upper right block of J is I^-1
    r, dr, di = x.R[..., None, :, :], x.dR, x.dI
    diinv = -(iinv @ di @ iinv)
    ru_d = dr @ iinv + r @ diinv
    top = np.concatenate([-(diinv @ r + iinv @ dr), diinv], axis=-1)
    bot = np.concatenate([-(di + ru_d @ r + r @ iinv @ dr), ru_d], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def psi_form_source(x: BoxFields) -> np.ndarray:
    """Fundamental-form source (1/2) (*V, (dJ/dx^k) V)_{g,Q} per node.

    On a chart with flat bundle connection the fundamental form reduces to the
    coordinate derivative of the taming along the scalar map.  For twisted
    self-dual V this equals minus the coupling-form source (empirically
    calibrated constant -1 in these conventions; see tests).
    """
    # (a, b)_g = 1/2 a_{mn} b^{mn}; the pairing contracts the fiber index with Q:
    # (1/4) sum_{A,B,C} Q_AB (dJ_k)_BC (*V^A, V^C)
    pairs = fl.pairings(x.geometry, x.star_v, x.V)
    return 0.25 * (((omega(x.n_v) @ x.J)[..., None, :, :] @ _taming_derivative(x))
                   * pairs[..., None, :, :]).sum(axis=(-2, -1))


def scalar_residual(x: BoxFields, assembly: str = "local") -> np.ndarray:
    """Residual of the scalar equations per node, shape box + (n_s,).

    Both assemblies share the same discrete derivative fields and differ only
    in the algebraic route: "local" uses the coupling-derivative source and
    the divergence identity, "global" uses the lowered tension field and the
    fundamental-form source.  They agree pointwise up to roundoff.
    """
    geo = x.geometry
    dphi = x.dphi_window[x.inner]                           # (..., i, a)
    d2phi = np.stack([partial_at(x.dphi_window, x.grid, b, x.inner)
                      for b in range(4)], axis=-1)          # (..., i, a, b)
    chart = x.model.chart
    phi = x.phi
    cm = chart.metric(phi)
    dcm = chart.metric_deriv(phi)       # (..., k, i, j)
    # box phi^i = g^ab d_a d_b phi^i - g^ab Gamma^c_ab d_c phi^i, with the
    # rank-5 product g^ab Gamma^c_ab before its sum formed for one node block only
    gamma_trace = fl.blockwise(lambda ginv, gamma: fl.trace(ginv[:, None], gamma),
                               (geo.ginv, 2), (geo.gamma, 3))[..., :, None]
    ginv = geo.ginv[..., None, :, :]  # broadcast over the first index of d2phi
    box_phi = fl.trace(ginv, d2phi) - (dphi @ gamma_trace)[..., 0]
    del gamma_trace  # not alive while the gauge sources run, which may form *V
    grad_sq = fl.contract(geo.ginv, dphi, dphi)  # (i, j)

    if assembly == "local":
        lhs = (np.einsum("...ik,...i->...k", cm, box_phi)
               + np.einsum("...jik,...ji->...k", dcm, grad_sq))
        rhs = (0.5 * np.einsum("...kij,...ij->...k", dcm, grad_sq)
               + local_gauge_source(x))
        return lhs - rhs
    if assembly == "global":
        chart_gamma = chart.christoffels(phi)  # (..., k, i, j)
        tension = box_phi + np.einsum("...kij,...ij->...k", chart_gamma, grad_sq)
        lowered = np.einsum("...ki,...i->...k", cm, tension)
        return lowered + psi_form_source(x)
    raise ValueError(f"unknown assembly {assembly!r}")


CLOSURE_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def maxwell_residual(x: BoxFields) -> np.ndarray:
    """Exterior derivative of the field block (closure residual) on its
    independent components, shape box + (2 n_v, 4): entry t is
    (dV)_{amn} = d_a V_{mn} + d_m V_{na} + d_n V_{am} for the triple
    (a, m, n) = CLOSURE_TRIPLES[t], a < m < n.  Of the 64 entries of dV per
    fiber index, 24 are +- one of these and 40 vanish."""
    v, grid, inner = x.cfg.V[x.window], x.grid, x.inner
    out = np.empty(x.V.shape[:-2] + (4,))
    for t, (a, m, n) in enumerate(CLOSURE_TRIPLES):
        dv = out[..., t]
        dv[...] = partial_at(v[..., m, n], grid, a, inner)
        dv += partial_at(v[..., n, a], grid, m, inner)
        dv += partial_at(v[..., a, m], grid, n, inner)
    return out


# ------------------------------------------------------------------ reports

@dataclass(eq=False)
class ResidualReport:
    """The residual rows of a configuration, read from its Einstein, local
    scalar and closure residuals on a node box, which it keeps: box + (4, 4),
    box + (n_s,) and the layout of ``maxwell_residual``."""

    einstein: np.ndarray
    scalar: np.ndarray
    maxwell: np.ndarray
    selfdual_violation: float

    def __post_init__(self):
        self.einstein_max, self.scalar_max, self.maxwell_max = self.maxima()
        self.einstein_mean, self.scalar_mean, maxwell_mean = (
            float(np.abs(r).mean()) for r in (self.einstein, self.scalar, self.maxwell))
        # the mean over all 64 entries of dV: 24 are +- the 4 components kept
        self.maxwell_mean = 24 / 64 * maxwell_mean

    def maxima(self) -> tuple[float, float, float]:
        """Max |residual| of each equation over the box."""
        return tuple(float(np.abs(r).max()) for r in (self.einstein, self.scalar, self.maxwell))

    def rows(self):
        return [("einstein_max", self.einstein_max),
                ("scalar_max", self.scalar_max),
                ("maxwell_max", self.maxwell_max),
                ("einstein_mean", self.einstein_mean),
                ("scalar_mean", self.scalar_mean),
                ("maxwell_mean", self.maxwell_mean),
                ("selfdual_violation", self.selfdual_violation)]


def residual_report(x: BoxFields) -> ResidualReport:
    """The one residual pass of a grid report, on a configuration's node box:
    every residual, stress, pairing and *V is formed at the box nodes only."""
    return ResidualReport(einstein_residual(x, check=False), scalar_residual(x),
                          maxwell_residual(x), x.selfduality_violation())


# ---------------------------------------------------------------- transport

def transport_config(f, a: np.ndarray, cfg: FieldConfiguration) -> FieldConfiguration:
    """Duality transport (g, phi, V) -> (g, f(phi), A V), returned as a
    configuration of the transformed theory (same chart metric for isometric
    f, transformed period map A . N(f^-1)).  Building it checks that f(phi)
    stays in the chart and the transformed periods in Siegel space; A V is
    refused, naming its first node, where an entry is not finite or exceeds
    MAX_ENTRY."""
    new_phi = f.apply(cfg.phi)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        new_v = fl.fiber_action(np.asarray(a, dtype=float), cfg.V)
    _refuse_nodes(new_v, MAX_ENTRY, f"transported field block not finite or above "
                  f"{MAX_ENTRY:g} at node index {{}}: A V is out of range")
    return FieldConfiguration(TransformedModel(cfg.model, f, a), cfg.geometry, new_phi, new_v)


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
    tcfg = transport_config(f, a, cfg)  # the transported domain is checked first
    inner = cfg.grid.interior()
    before, after = residual_report(cfg.on(inner)), residual_report(tcfg.on(inner))
    mapped = fl.fiber_action(a, before.maxwell, rank=1)
    jac = f.jacobian(cfg.phi[inner])  # df at phi(x)
    pulled = np.einsum("...kl,...k->...l", jac, after.scalar)
    return EquivarianceReport(float(np.max(np.abs(after.einstein - before.einstein))),
                              float(np.max(np.abs(pulled - before.scalar))),
                              float(np.max(np.abs(after.maxwell - mapped))),
                              before, after)


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
    to F^L_{mu nu} (antisymmetrised).  powers is a 4-tuple of exponents.

    Each monomial is formed from the powers of the four 1-D axes, broadcast,
    and each component is summed from zero in the order of the terms, then
    written once: the arithmetic of adding every term into F node by node."""
    axes = [ax.reshape([-1 if b == a else 1 for b in range(4)])
            for a, ax in enumerate(grid.axes)]
    sums: dict[tuple[int, int, int], np.ndarray] = {}
    for (ell, mu, nu, c, powers) in terms:
        mono = np.float64(c)
        for ax, p in zip(axes, powers):
            if p:
                mono = mono * ax ** p
        sums[ell, mu, nu] = sums.get((ell, mu, nu), 0.0) + mono
        sums[ell, nu, mu] = sums.get((ell, nu, mu), 0.0) - mono
    f = np.zeros(grid.shape + (n_v, 4, 4))
    for (ell, mu, nu), total in sums.items():
        f[..., ell, mu, nu] = total
    return f


def random_polynomial_fieldstrength(grid: GridPatch, n_v: int,
                                    rng: np.random.Generator,
                                    amp: float = 0.1):
    terms = []
    for ell in range(n_v):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                for deg in range(3):  # a monomial of each degree <= 2
                    axes = rng.integers(0, 4, size=deg) if deg else []
                    powers = tuple(int(k) for k in np.bincount(axes, minlength=4))
                    terms.append((ell, mu, nu, amp * rng.standard_normal(), powers))
    return field_strength_polynomial(grid, n_v, terms)


# -------------------------------------------------------------- config files

def parse_grid_config(text: str, resolution: tuple[int, ...] | None = None
                      ) -> FieldConfiguration:
    """Grid configuration file: key = value lines.

    Keys: model (built-in name or path), extents (4 'lo:hi' entries),
    resolution (4 ints), metric ('minkowski' or 'quadratic'), metric_coeff
    (repeats: 'mu nu a b c'), phi ('constant v...' or 'linear base... | slopes
    row-major 4 x n_s'), field ('zero' or 'random amp seed' or repeated
    field_term 'L mu nu c p0 p1 p2 p3'); any other key appears once.
    metric_coeff needs 'metric = quadratic' and field_term 'field = terms'.  A
    resolution argument overrides the file's resolution (refinement studies).
    """
    keys = {"model", "extents", "resolution", "metric", "metric_coeff", "phi", "field",
            "field_term"}
    entries = [(key, val) for _, key, val in key_values(text, GridError, keys)]
    kv = dict(entries)
    for key, selector, value in (("metric_coeff", "metric", "quadratic"),
                                 ("field_term", "field", "terms")):
        if key in kv and kv.get(selector, "").split()[:1] != [value]:
            raise GridError(f"{key} needs '{selector} = {value}'")

    model = load_model(kv.get("model", "identity-tau"))
    ext = [part.partition(":") for part in
           kv.get("extents", "-0.5:0.5 -0.5:0.5 -0.5:0.5 -0.5:0.5").split()]
    if not all(sep for _, sep, _ in ext):
        raise GridError("extents entries must be 'lo:hi'")
    ext = _numbers("extents", " ".join(f"{lo} {hi}" for lo, _, hi in ext), 8)
    res = resolution or _numbers("resolution", kv.get("resolution", "9 9 9 9"), 4, int)
    grid = GridPatch(tuple(zip(ext[::2], ext[1::2])), tuple(res))

    metric_kind = kv.get("metric", "minkowski")
    if metric_kind == "minkowski":
        g = metric_minkowski(grid)
    elif metric_kind == "quadratic":
        terms = []
        for key, val in entries:
            if key == "metric_coeff":
                *idx, c = val.split() or [""]
                terms.append((*_numbers("metric_coeff 'mu nu a b'", " ".join(idx), 4, int, 4),
                              *_numbers("metric_coeff c", c, 1)))
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            g = metric_quadratic(grid, terms)
        _refuse_nodes(g, np.finfo(float).max, "metric not finite at node index {}: "
                      "the extents or metric_coeff are out of range")
    else:
        raise GridError(f"unknown metric spec {metric_kind!r}")

    kind, rest = (kv.get("phi", "constant 0.0 1.0").split(None, 1) + ["", ""])[:2]
    n_s = model.chart.dim
    if kind == "constant":
        phi = phi_constant(grid, _numbers("phi constant", rest, n_s))
    elif kind == "linear":
        base, _, slopes = rest.partition("|")
        phi = phi_linear(grid, _numbers("phi linear base", base, n_s), np.reshape(
            _numbers("phi linear slopes", slopes, 4 * n_s), (4, n_s)))
    else:
        raise GridError(f"unknown phi spec {kind!r}")

    kind, rest = (kv.get("field", "zero").split(None, 1) + ["", ""])[:2]
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        if kind == "zero":
            f = np.zeros(grid.shape + (model.n_v, 4, 4))
        elif kind == "random":
            args = rest.split()
            amp = _numbers("field random amp", args[0], 1)[0] if args else 0.1
            seed = _numbers("field random seed", args[1], 1, int)[0] if len(args) > 1 else 0
            f = random_polynomial_fieldstrength(grid, model.n_v,
                                                np.random.default_rng(seed), amp)
        elif kind == "terms":
            terms = []
            for key, val in entries:
                if key == "field_term":
                    parts = val.split()
                    if len(parts) != 8:
                        raise GridError(f"field_term needs 'L mu nu c p0 p1 p2 p3', got {val!r}")
                    (ell,) = _numbers("field_term L", parts[0], 1, int, model.n_v)
                    mu, nu = _numbers("field_term mu nu", " ".join(parts[1:3]), 2, int, 4)
                    (c,) = _numbers("field_term c", parts[3], 1)
                    powers = _numbers("field_term powers", " ".join(parts[4:]), 4, int)
                    terms.append((ell, mu, nu, c, tuple(powers)))
            f = field_strength_polynomial(grid, model.n_v, terms)
        else:
            raise GridError(f"unknown field spec {kind!r}")
    _refuse_nodes(f, MAX_ENTRY, f"field strength not finite or above {MAX_ENTRY:g} at node "
                  "index {}: the field spec or the extents are out of range")

    return make_configuration(grid, model, g, phi, f)


def _refuse_nodes(a: np.ndarray, bound: float, message: str, origin=(0, 0, 0, 0)) -> None:
    """GridError naming (as the {} of message) the first node with an entry
    that is not finite or exceeds bound in magnitude, by its grid index when
    a holds the nodes of a box whose first node is origin.  One pass of min
    and max clears a clean array; NaN fails it and is searched for."""
    if a.min(initial=0.0) >= -bound and a.max(initial=0.0) <= bound:
        return
    bad = np.argwhere(~((a <= bound) & (a >= -bound)).reshape(a.shape[:4] + (-1,)).all(-1))
    if len(bad):
        raise GridError(message.format(tuple((bad[0] + origin).tolist())))


def _numbers(key: str, text: str, count: int, kind=float, bound: int | None = None) -> list:
    """The count numbers of a config value: finite floats, or ints in [0, bound)."""
    vals = numbers(text, GridError, key, kind)
    if len(vals) != count:
        raise GridError(f"{key} needs {count} numbers, got {text!r}")
    if kind is int and any(v < 0 or (bound is not None and v >= bound) for v in vals):
        raise GridError(f"{key}: {text!r} is out of range")
    return vals
