"""Period-map models: scalar charts, isometries, the model file format and the
built-in registry (constant couplings, the identity map on the upper half
plane, the two-field axio-dilaton matrix and the cubic two-field model)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import InputError
from .symplectic import (MAX_N, PD_RTOL, PoleError, SiegelPoint, _action, _symplectic_checked,
                         fractional_action, min_eig_ratio, mobius_congruence,
                         mobius_differential)
from .textio import key_values, numbers


class ModelError(ValueError, InputError):
    pass


class ModelInvalidError(ModelError):
    """A model evaluated outside Siegel space."""


# Largest chart dimension: a flat chart has dim(dim + 1)/2 Killing fields,
# each evaluated at every sample point by ``uduality``.
MAX_DIM = 64


# ------------------------------------------------------------------ charts

def _primes(count: int) -> np.ndarray:
    """The first count primes, from a sieve doubled until it holds enough."""
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for k in range(2, int(limit ** 0.5) + 1):
            if sieve[k]:
                sieve[k * k::k] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def halton(dim: int, count: int) -> np.ndarray:
    """Points 1..count of the unscrambled Halton sequence in [0, 1)^dim:
    radical inverses of the indices in the first dim primes.  Index 0, the
    origin, is skipped.  Digits are added from the least significant one, the
    order of scipy.stats.qmc.Halton(dim, scramble=False) after fast_forward(1),
    so the points agree with it bit for bit."""
    index = np.arange(1, count + 1)
    out = np.zeros((count, dim))
    for k, base in enumerate(_primes(dim)):
        q, weight = index, 1.0 / base
        while q.any():
            out[:, k] += (q % base) * weight
            q = q // base
            weight /= base
    return out


def _tau(p: np.ndarray) -> np.ndarray:
    """Half-plane point(s) (..., 2) as complex tau = x + i y."""
    p = np.asarray(p, dtype=float)
    return p[..., 0] + 1j * p[..., 1]


@dataclass(frozen=True)
class ScalarChart:
    """Coordinate chart on the scalar manifold.

    kind "poincare": upper half plane, coordinates (x, y) with y > 0 and
    metric (dx^2 + dy^2) / y^2.  kind "flat": R^dim with the Euclidean metric.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if not 0 <= self.dim <= MAX_DIM:
            raise ModelError(f"chart dim must be in 0..{MAX_DIM}, got {self.dim}")
        if self.kind not in ("flat", "poincare"):
            raise ModelError(f"unsupported chart kind {self.kind!r}")
        if self.kind == "poincare" and self.dim != 2:
            raise ModelError("poincare chart requires dim 2")

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        """The compact sampling domain used for rank decisions."""
        if self.kind == "poincare":
            return ((-1.0, 1.0), (0.5, 2.0))
        return ((-1.0, 1.0),) * self.dim

    def symbols(self) -> set[str]:
        if self.kind == "poincare":
            return {"tau"}
        return {f"x{i + 1}" for i in range(self.dim)}

    # Point-wise methods take one point (dim,) or a stack (..., dim) and
    # return per-point values with the stack shape in front.

    def env(self, p: np.ndarray) -> dict[str, np.ndarray]:
        p = np.asarray(p, dtype=float)
        if self.kind == "poincare":
            tau = _tau(p)
            return {"tau": tau, "ctau": tau.conj()}
        return {f"x{i + 1}": p[..., i] + 0j for i in range(self.dim)}

    def in_domain(self, p: np.ndarray) -> bool | np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.ndim == 0 or p.shape[-1] != self.dim:
            return False
        if self.kind == "poincare":
            return p[..., 1] > 0
        return np.ones(p.shape[:-1], dtype=bool)

    def first_outside(self, p: np.ndarray) -> int | None:
        """Index of the first point of a stack (..., dim) outside the domain,
        in the flattened stack."""
        inside = np.atleast_1d(self.in_domain(p))
        return None if inside.all() else int(np.argmin(inside))

    def metric(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        diag = 1.0 / p[..., 1:2] ** 2 if self.kind == "poincare" else np.ones(p.shape[:-1] + (1,))
        return diag[..., None] * np.eye(self.dim)

    def metric_deriv(self, p: np.ndarray) -> np.ndarray:
        """d1G[k, i, j] = d G_ij / d x^k."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (self.dim,) * 3)
        if self.kind == "poincare":
            out[..., 1, :, :] = (-2.0 / p[..., 1:2] ** 3)[..., None] * np.eye(2)
        return out

    def christoffels(self, p: np.ndarray) -> np.ndarray:
        """Gamma[k, i, j] of the chart metric."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (self.dim,) * 3)
        if self.kind == "poincare":
            y = p[..., 1]
            out[..., 0, 0, 1] = out[..., 0, 1, 0] = -1.0 / y
            out[..., 1, 0, 0] = 1.0 / y
            out[..., 1, 1, 1] = -1.0 / y
        return out

    def sample_points(self, count: int) -> np.ndarray:
        """Deterministic quasi-random points in the sampling box (Halton)."""
        unit = halton(self.dim, count)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return lo + unit * (hi - lo)


# --------------------------------------------------------------- isometries


@dataclass(frozen=True)
class MobiusIsometry:
    """Orientation-preserving isometry of the Poincare half plane,
    tau -> (a tau + b) / (c tau + d) for a real matrix with det = 1."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (2, 2):
            raise ModelError("Mobius isometry needs a 2x2 real matrix")
        det = float(np.linalg.det(m))
        if det <= 0:
            raise ModelError("Mobius isometry must have positive determinant")
        object.__setattr__(self, "m", m / np.sqrt(det))

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Image of a point (2,) or of a stack of points (..., 2)."""
        (a, b), (c, d) = self.m
        tau = _tau(p)
        w = (a * tau + b) / (c * tau + d)
        return np.stack([w.real, w.imag], axis=-1)

    def inverse(self) -> "MobiusIsometry":
        (a, b), (c, d) = self.m
        return MobiusIsometry(np.array([[d, -b], [-c, a]]))

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        (a, b), (c, d) = self.m
        fp = 1.0 / (c * _tau(p) + d) ** 2
        return np.stack([np.stack([fp.real, -fp.imag], axis=-1),
                         np.stack([fp.imag, fp.real], axis=-1)], axis=-2)


@dataclass(frozen=True)
class FlatIsometry:
    """Euclidean isometry p -> Q p + shift of a flat chart."""

    q: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        s = np.asarray(self.shift, dtype=float)
        if q.shape != (s.shape[0], s.shape[0]):
            raise ModelError("shape mismatch in flat isometry")
        if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > 1e-10:
            raise ModelError("flat isometry matrix must be orthogonal")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "shift", s)

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Image of a point (k,) or of a stack of points (..., k)."""
        return np.asarray(p, dtype=float) @ self.q.T + self.shift

    def inverse(self) -> "FlatIsometry":
        return FlatIsometry(self.q.T, -self.q.T @ self.shift)

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        return self.q + np.zeros(np.shape(p)[:-1] + (1, 1))


def identity_isometry(chart: ScalarChart):
    if chart.kind == "poincare":
        return MobiusIsometry(np.eye(2))
    return FlatIsometry(np.eye(chart.dim), np.zeros(chart.dim))


def parse_isometry(spec: str, chart: ScalarChart):
    """Isometry from a CLI spec: 'id', 'translate:s[,t]', 'scale:l', 'mobius:a,b,c,d'."""
    spec = spec.strip()
    if spec == "id":
        return identity_isometry(chart)
    if ":" not in spec:
        raise ModelError(f"bad isometry spec {spec!r}")
    kind, _, rest = spec.partition(":")
    vals = numbers(rest.replace(",", " "), ModelError, f"isometry spec {spec!r}")
    if chart.kind == "poincare":
        if kind == "translate" and len(vals) == 1:
            return MobiusIsometry(np.array([[1.0, vals[0]], [0.0, 1.0]]))
        if kind == "scale" and len(vals) == 1 and vals[0] > 0:
            return MobiusIsometry(np.array([[np.sqrt(vals[0]), 0.0], [0.0, 1.0 / np.sqrt(vals[0])]]))
        if kind == "mobius" and len(vals) == 4:
            return MobiusIsometry(np.array(vals).reshape(2, 2))
    else:
        if kind == "translate" and len(vals) == chart.dim:
            return FlatIsometry(np.eye(chart.dim), np.array(vals))
    raise ModelError(f"bad isometry spec {spec!r} for chart {chart.kind}")


# ------------------------------------------------------------------- models

@dataclass(frozen=True)
class Model:
    """Siegel-space-valued map on a scalar chart, entries given as expressions.

    Only the upper triangle (i <= j) is stored; the matrix is symmetric by
    construction.
    """

    name: str
    n_v: int
    chart: ScalarChart
    entries: dict[tuple[int, int], ex.Expr] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.n_v <= MAX_N:
            raise ModelError(f"model {self.name!r} needs nv in 1..{MAX_N}, got {self.n_v}")

    def _symmetric(self, walk, *shapes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Matrix stacks shape + (n_v, n_v), one per shape, with the (i, j)
        entries of stack k the k-th value walk(expression) returns.  An entry
        that overflows is left inf or NaN, without a numpy warning, for
        ``_siegel_checked`` to name."""
        out = tuple(np.zeros(shape + (self.n_v, self.n_v), dtype=complex) for shape in shapes)
        for (i, j), e in self.entries.items():
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    values = walk(e)
            except PoleError as err:
                raise PoleError(f"model {self.name!r}: {err}") from err
            for stack, value in zip(out, values):
                stack[..., i, j] = stack[..., j, i] = value
        return out

    def _env(self, p: np.ndarray) -> dict[str, np.ndarray]:
        """Symbol values at points inside the chart domain."""
        bad = self.chart.first_outside(p)
        if bad is not None:
            raise ModelError(f"model {self.name!r}: point {bad} {point_text(p, bad)} "
                             "outside chart domain")
        return self.chart.env(p)

    def period(self, p: np.ndarray) -> SiegelPoint:
        """Evaluate the map at a point, checked by ``checked_periods``."""
        return SiegelPoint(checked_periods(self, p))

    def period_matrix(self, p: np.ndarray) -> np.ndarray:
        """Raw matrix value at a point, or the matrix stack at a stack of points,
        without the Siegel membership check (see ``checked_periods``)."""
        p = np.asarray(p, dtype=float)
        env = self._env(p)
        return self._symmetric(lambda e: (ex.evaluate(e, env),), p.shape[:-1])[0]

    def period_directional(self, p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, dN): the raw matrices at p, with p's stack shape, and their
        derivative along the chart vector v, from one walk of each entry; p and
        v may be broadcastable stacks."""
        p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
        env, denv = self._env(p), self.chart.env(v)  # chart symbols are linear
        shape = np.broadcast_shapes(p.shape[:-1], v.shape[:-1])
        return self._symmetric(lambda e: ex.walk(e, env, denv), p.shape[:-1], shape)


class TransformedModel:
    """Image of a model under a duality pair: p -> A . N(f^-1(p)), for A in
    Sp(2n, R) (DomainError otherwise).

    Provides the same evaluation protocol as Model.  Derivatives chain the
    inverse isometry Jacobian with the differential of the fractional action,
    so they are exact (no finite differencing).
    """

    def __init__(self, base, f, a: np.ndarray):
        self.base = base
        self.f_inv = f.inverse()
        self.a = _symplectic_checked(a)
        self.name = f"{base.name}|transformed"
        self.n_v = base.n_v
        self.chart = base.chart

    def period(self, p: np.ndarray) -> SiegelPoint:
        return SiegelPoint(checked_periods(self, p))

    def period_matrix(self, p: np.ndarray) -> np.ndarray:
        return fractional_action(self.a, self.base.period_matrix(self.f_inv.apply(p)))

    def period_directional(self, p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A . N, its derivative along v) from one evaluation of the base at f^-1(p)."""
        return mobius_differential(self.a, *self.base_directional(p, v))

    def base_directional(self, p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, dN): the base's matrices at f^-1(p) and their derivative along
        v pulled back by f^-1, from one walk of the base."""
        w = np.einsum("...ij,...j->...i", self.f_inv.jacobian(p), np.asarray(v, dtype=float))
        return self.base.period_directional(self.f_inv.apply(p), w)


def point_text(stack, index: int) -> str:
    """The coordinates of the point at a flattened index of a stack (..., dim)
    as one list in full precision, for error rows (numpy's str wraps a wide
    point over lines and rounds it)."""
    stack = np.atleast_1d(np.asarray(stack, dtype=float))
    return str(stack.reshape(-1, stack.shape[-1])[index].tolist())


def checked_periods(model, p: np.ndarray) -> np.ndarray:
    """Period matrices at a point (dim,) or a stack of points (..., dim),
    checked by the one Siegel rule, ``_siegel_checked``."""
    p = np.asarray(p, dtype=float)
    return _siegel_checked(model, p, model.period_matrix(p))


def checked_partials(model, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``checked_periods`` at p (..., dim) and the partials of the raw matrices
    along every chart axis, (..., dim, n, n), from one evaluation of the
    model (``checked_walk``); a transformed model's partials are the
    congruence of its base partials."""
    tau, dtau, inv = checked_walk(model, p)
    return tau, dtau if inv is None else mobius_congruence(inv[..., None, :, :], dtau)


def checked_walk(model, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(tau, dtau, inv) from one walk of the model at p (..., dim): tau as
    ``checked_periods`` gives it, and dtau (..., dim, n, n) the partials of
    the walked matrices along the chart axes, checked finite with tau.  For
    a ``TransformedModel`` the walk is the base's, dtau the base partials
    along the axes pulled back by f^-1 and inv (..., n, n) = (a + b N)^-1,
    the one inverse of A . N, so that the partials of A . N are
    ``mobius_congruence(inv, dtau)``, formed where they are read; otherwise
    inv is None."""
    p = np.asarray(p, dtype=float)
    axes, units = p[..., None, :], np.eye(p.shape[-1])
    if isinstance(model, TransformedModel):
        n, dtau = model.base_directional(axes, units)
        tau, inv = _action(model.a, n)
        inv = inv[..., 0, :, :]
    else:
        (tau, dtau), inv = model.period_directional(axes, units), None
    return _siegel_checked(model, p, tau[..., 0, :, :], dtau), dtau, inv


def _siegel_checked(model, p: np.ndarray, tau: np.ndarray,
                    dtau: np.ndarray | None = None) -> np.ndarray:
    """tau, the period matrices of the model at p, symmetrised and checked by
    the one Siegel rule: at every point tau (and dtau, its partials, if
    given) is finite and the smallest eigenvalue of Im(tau) over its largest
    exceeds PD_RTOL.  The error names the first point that fails, by its
    index in the flattened stack and its coordinates."""
    # one whole-array test clears a finite walk; only a failure is searched
    # point by point
    if not (np.isfinite(tau).all() and (dtau is None or np.isfinite(dtau).all())):
        finite = np.all(np.isfinite(tau), axis=(-2, -1))
        if dtau is not None:
            finite &= np.all(np.isfinite(dtau), axis=(-3, -2, -1))
        bad = int(np.argmin(np.reshape(finite, -1)))
        raise ModelInvalidError(f"model {model.name!r} is not finite at point {bad} "
                                f"{point_text(p, bad)}")
    tau = (tau + np.swapaxes(tau, -1, -2)) / 2
    ratio = np.reshape(min_eig_ratio(tau.imag), -1)
    if not np.all(ratio > PD_RTOL):
        bad = int(np.argmin(ratio > PD_RTOL))
        raise ModelInvalidError(
            f"model {model.name!r} leaves Siegel space at point {bad} "
            f"{point_text(p, bad)}: relative min eigenvalue of Im(tau) "
            f"{ratio[bad]:.3e}")
    return tau


# --------------------------------------------------------------- file format

def parse_model(text: str) -> Model:
    """Parse the plain-text model format.

    Header lines ``name=``, ``nv=``, ``chart=poincare|flat``, ``dim=`` followed
    by entry lines ``N[i,j] = <expr>``.  ``#`` starts a comment.  A key or an
    entry given twice, or a key the format does not know, is an error.
    """
    lines = key_values(text, ModelError, {"name", "nv", "chart", "dim", "n["})
    entry_lines = [line for line in lines if "[" in line[1]]
    header = {key: val for _, key, val in lines if "[" not in key}

    name = header.get("name", "unnamed")
    try:
        n_v = int(header.get("nv", "0"))
    except ValueError:
        raise ModelError(f"bad nv value {header.get('nv')!r}")
    kind = header.get("chart", "poincare")
    try:
        dim = int(header.get("dim", "2" if kind == "poincare" else "1"))
    except ValueError:
        raise ModelError(f"bad dim value {header.get('dim')!r}")
    chart = ScalarChart(kind, dim)

    raw = text.splitlines()
    entries: dict[tuple[int, int], ex.Expr] = {}
    for lineno, lhs, rhs in entry_lines:
        if not rhs:
            raise ex.ExprSyntaxError("entry line needs '= <expr>'", lineno, len(lhs) + 2)
        body = lhs[lhs.index("[") + 1:]
        if "]" not in body:
            raise ex.ExprSyntaxError("missing ']' in entry index", lineno, len(lhs))
        idx = body[: body.index("]")]
        parts = idx.split(",")
        if len(parts) != 2:
            raise ex.ExprSyntaxError("entry index must be N[i,j]", lineno, 1)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ex.ExprSyntaxError(f"bad entry index {idx!r}", lineno, 1)
        if not (1 <= i <= n_v and 1 <= j <= n_v):
            raise ModelError(f"entry N[{i},{j}] outside declared nv={n_v} (line {lineno})")
        if i > j:
            raise ModelError(f"store only the upper triangle: N[{i},{j}] (line {lineno})")
        if (i - 1, j - 1) in entries:
            raise ModelError(f"repeated entry N[{i},{j}] (line {lineno})")
        # the stripped expression's place in its file line, for error columns
        line = raw[lineno - 1]
        start = line.index(rhs, line.index("=") + 1)
        entries[(i - 1, j - 1)] = ex.parse(rhs, chart.symbols(), lineno, start)
    return Model(name, n_v, chart, entries)


def print_model(model: Model) -> str:
    lines = [f"name = {model.name}", f"nv = {model.n_v}",
             f"chart = {model.chart.kind}", f"dim = {model.chart.dim}"]
    for (i, j) in sorted(model.entries):
        lines.append(f"N[{i + 1},{j + 1}] = {ex.to_text(model.entries[(i, j)])}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- builtins

_T3_TEXT = """
name = t3
nv = 2
chart = poincare
N[1,1] = (tau^2 / 2) * (tau + 3*conj(tau))
N[1,2] = -(3/2) * tau * (tau + conj(tau))
N[2,2] = 3*(tau + conj(tau)) + (3/2)*(tau - conj(tau))
"""

_AXIO_TEXT = """
name = axio-dilaton
nv = 2
chart = poincare
N[1,1] = tau
N[1,2] = 0
N[2,2] = -1/tau
"""

_IDENTITY_TEXT = """
name = identity-tau
nv = 1
chart = poincare
N[1,1] = tau
"""


def _constant_i(n_v: int) -> Model:
    chart = ScalarChart("poincare", 2)
    entries = {(k, k): ex.Num(1j) for k in range(n_v)}
    return Model(f"constant-i:{n_v}" if n_v != 1 else "constant-i", n_v, chart, entries)


BUILTIN_NAMES = ("constant-i", "identity-tau", "axio-dilaton", "t3")


def builtin(name: str) -> Model:
    """Look up a built-in model; 'constant-i:k' selects k gauge fields."""
    if name == "constant-i":
        return _constant_i(1)
    if name.startswith("constant-i:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ModelError(f"bad constant-i spec {name!r}")
        return _constant_i(k)
    texts = {"identity-tau": _IDENTITY_TEXT, "axio-dilaton": _AXIO_TEXT, "t3": _T3_TEXT}
    if name not in texts:
        raise ModelError(f"unknown model {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
    return parse_model(texts[name])


def is_builtin_spec(name: str) -> bool:
    """Whether the name selects a built-in model; a 'constant-i:k' spec does
    so even when k is out of range."""
    return name in BUILTIN_NAMES or name.startswith("constant-i:")


def load_model(name_or_path: str) -> Model:
    """Built-in name, or path to a model file; a built-in spec keeps its own error."""
    if is_builtin_spec(name_or_path):
        return builtin(name_or_path)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return parse_model(fh.read())
    except (OSError, UnicodeDecodeError):
        raise ModelError(f"{name_or_path!r} is neither a built-in model nor a readable file")


def check_siegel_on_grid(model: Model, per_axis: int = 32) -> float:
    """Smallest relative eigenvalue of Im N over a grid of the sampling box."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in model.chart.box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.chart.dim)
    return float(np.min(min_eig_ratio(checked_periods(model, pts).imag)))
