"""Pointwise Lorentzian exterior algebra for symplectic-vector-valued two-forms.

Conventions, fixed once and used everywhere:
  * coordinates (x^0..x^3) = (t, x, y, z), metric signature (-, +, +, +);
  * Levi-Civita symbol eps_{0123} = +1;
  * a two-form is stored as its antisymmetric component matrix w_{mu nu}
    (so dt^dx has w_{01} = 1 = -w_{10});
  * the Hodge dual on two-forms is
    (*w)_{mu nu} = (1/2) sqrt(-det g) eps_{mu nu rho sigma} w^{rho sigma},
    which satisfies ** = -1 in Lorentzian signature;
  * the induced inner product of two-forms is (a, b)_g = (1/2) a_{mu nu} b^{mu nu}.

With these choices the solutions of the algebraic constraint *V = -J(V)
(equivalently, lower block = R F - I * F) span the +1 eigenspace of the
twisted star operator; ``project_sd`` labels its outputs by that computed
eigenvalue.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .errors import InputError
from .symplectic import ElectromagneticPair, Taming, _within, omega


def _levi_civita_4() -> np.ndarray:
    """eps[p] = the sign of the permutation p of (0, 1, 2, 3), its parity
    the number of inversions; zero on repeated indices."""
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = (-1) ** sum(a > b for a, b in combinations(p, 2))
    return eps


EPS4 = _levi_civita_4()
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


class SingularMetricError(ValueError, InputError):
    pass


@dataclass(frozen=True)
class Metric:
    """A metric or a stack of metrics, lead + (4, 4), that passed the metric
    check, with g^-1 and det g.  Every kernel below accepts it in place of g,
    so nothing inverts a checked metric again."""

    g: np.ndarray
    ginv: np.ndarray
    det: np.ndarray       # lead

    @cached_property
    def vol(self) -> np.ndarray:
        """sqrt(-det g), taken only where the metric is Lorentzian: the one
        signature check, w0 < 0 < w1 for the ascending eigenvalues w of every
        node.  Index raising alone accepts any nonsingular metric."""
        w = np.linalg.eigvalsh(self.g)
        _reject_nodes(~((w[..., 0] < 0) & (w[..., 1] > 0)), "not Lorentzian (-, +, +, +)")
        return np.sqrt(-self.det)


def _as_taming(j) -> np.ndarray:
    return j.J if isinstance(j, Taming) else np.asarray(j, dtype=float)


# ------------------------------------------------------------ metric geometry
#
# The one path from a metric to g^-1 and sqrt(-det g), and the index raising
# built on it.  Every kernel takes metrics stacked over leading axes.  A
# fiber-valued two-form has shape lead + (k, 4, 4) against a metric lead +
# (4, 4), couplings lead + (n, n) and a taming lead + (2n, 2n); lead is ()
# at a point and the grid shape on a grid.

def invert_metric(g) -> tuple[np.ndarray, np.ndarray]:
    """(g^-1, det g) of a metric or a stack of metrics.

    A node is singular unless |det g| > 1e-14 max|g_mn|^4 (so a NaN node is
    singular): the threshold scales with the metric, so c * eta is regular
    for every c > 0.
    """
    det = np.linalg.det(g)
    _reject_nodes(~(np.abs(det) > 1e-14 * np.max(np.abs(g), axis=(-2, -1)) ** 4), "singular")
    return np.linalg.inv(g), det


def _reject_nodes(bad: np.ndarray, what: str) -> None:
    """Raise SingularMetricError naming the first node index where bad holds."""
    if np.any(bad):
        raise SingularMetricError(
            f"metric {what} at node index {tuple(np.argwhere(bad)[0].tolist())}")


NODE_BLOCK = 2048   # nodes per block of the pointwise kernels on a grid


def node_blocks(count: int, per: int = 1) -> list[slice]:
    """Consecutive slices covering range(count), each of at most NODE_BLOCK
    nodes when one item holds per nodes (and of at least one item); one
    empty slice when count is 0."""
    step = max(1, NODE_BLOCK // per)
    return [slice(i, min(i + step, count)) for i in range(0, count or 1, step)]


def blockwise(kernel, *operands: tuple[np.ndarray, int], out: np.ndarray | None = None
              ) -> np.ndarray:
    """kernel on one block of nodes at a time: the one node-block path.

    operands are (array, tail rank) pairs.  Each array is broadcast to the
    common leading shape lead and flattened to a read-only stack (N,) + its
    tail: a point is a stack of one node, and zero nodes make one empty
    block.  kernel maps blocks (n,) + tails to a new array (n,) + result
    tail, written into out (lead + result tail) or into an array allocated
    from the first block.  Returns the result as lead + result tail.
    """
    arrays = [np.asarray(a) for a, _ in operands]
    tails = [a.shape[a.ndim - rank:] for a, (_, rank) in zip(arrays, operands)]
    lead = np.broadcast_shapes(*(a.shape[:a.ndim - len(t)] for a, t in zip(arrays, tails)))
    count = int(np.prod(lead))
    stacks = [np.broadcast_to(a, lead + t).reshape((count,) + t) for a, t in zip(arrays, tails)]
    flat = None if out is None else out.reshape((count,) + out.shape[len(lead):])
    for s in node_blocks(count):
        block = kernel(*(a[s] for a in stacks))
        if flat is None:
            flat = np.empty((count,) + block.shape[1:], block.dtype)
        flat[s] = block
        del block  # so that it is not alive while the next block is computed
    return flat.reshape(lead + flat.shape[1:])


def checked_metric(g) -> Metric:
    """g as a checked Metric; a Metric passes through."""
    if isinstance(g, Metric):
        return g
    g = np.asarray(g, dtype=float)
    return Metric(g, *invert_metric(g))


def raise2(ginv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^{ab} = g^{ac} w_cd g^{db} of two-index tensors w."""
    return ginv @ w @ ginv


def contract(ginv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_{ac} g^{cd} b_{bd}: two-index tensors contracted in their second slot."""
    return a @ ginv @ np.swapaxes(b, -1, -2)


def trace(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g^{ab} t_ab."""
    return (ginv * t).sum(axis=(-2, -1))


EPS16 = EPS4.reshape(16, 16)


def star(ginv: np.ndarray, vol: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hodge dual (1/2) sqrt(-det g) eps_{mn rs} w^{rs} from a metric's
    inverse and volume, each broadcastable against w's leading shape."""
    up = raise2(ginv, w)
    dual = (up.reshape(up.shape[:-2] + (16,)) @ EPS16).reshape(up.shape)
    return (0.5 * np.asarray(vol))[..., None, None] * dual


def hodge2(g, w: np.ndarray) -> np.ndarray:
    """Hodge dual of two-form component matrices, the one-fiber case of
    ``star_fibers``: g may be a single 4x4 metric or a stack broadcastable
    against w's leading shape.  Satisfies hodge2(g, hodge2(g, w)) = -w."""
    return star_fibers(g, np.asarray(w)[..., None, :, :])[..., 0, :, :]


def star_fibers(g, v: np.ndarray) -> np.ndarray:
    """Hodge dual on the form index of fiber-valued two-forms v, lead + (k, 4, 4),
    written one node block at a time."""
    m = checked_metric(g)
    return blockwise(lambda ginv, vol, v: star(ginv[:, None], vol[:, None], v),
                     (m.ginv, 2), (m.vol, 0), (v, 3))


def fiber_action(a, w: np.ndarray, rank: int = 2) -> np.ndarray:
    """a_AB w^B: matrices a, lead + (k, k), acting on the fiber index of
    fiber-valued rank-forms w, lead + (k,) + (4,) * rank."""
    w = np.asarray(w)
    cut = w.ndim - rank
    out = np.asarray(a) @ w.reshape(w.shape[:cut] + (4 ** rank,))
    return out.reshape(out.shape[:-1] + w.shape[cut:])


def pairings(g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^A_mn b^C mn of fiber-valued two-forms a, lead + (A, 4, 4), and b,
    lead + (C, 4, 4), as lead + (A, C): b is raised one node block at a time."""
    def kernel(ginv, a, b):
        a, up = (w.reshape(w.shape[:2] + (16,)) for w in (a, raise2(ginv[:, None], b)))
        return a @ np.swapaxes(up, -1, -2)

    return blockwise(kernel, (checked_metric(g).ginv, 2), (a, 3), (b, 3))


def form_inner(g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a, b)_g = (1/2) a_{mu nu} b^{mu nu}; broadcasts over leading axes."""
    a, b = (np.asarray(w)[..., None, :, :] for w in (a, b))
    return 0.5 * pairings(g, a, b)[..., 0, 0]


def twisted_star(g, j, v: np.ndarray) -> np.ndarray:
    """Hodge dual on the form index combined with the taming on the fiber index.

    v has shape lead + (2n, 4, 4); squares to +Id on two-forms.
    """
    return fiber_action(_as_taming(j), star_fibers(g, v))


def project_sd(g, j, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojections of the twisted star: returns (v_plus, v_minus).

    v_plus is fixed by the twisted star and v_minus is negated; solutions of
    *V = -J(V) have v_minus = 0 (they carry twisted-star eigenvalue +1).
    """
    sv = twisted_star(g, j, v)
    return (v + sv) / 2, (v - sv) / 2


def assemble_V(f: np.ndarray, em, g) -> np.ndarray:
    """Stack (F, R F - I * F) into a twisted self-dual symplectic block.

    f has shape lead + (n, 4, 4) and em carries the couplings em.R, em.I,
    lead + (n, n); the output lead + (2n, 4, 4) satisfies *V = -gamma(em)(V)
    up to roundoff.
    """
    f = np.asarray(f, dtype=float)
    lower = fiber_action(em.R, f) - fiber_action(em.I, star_fibers(g, f))
    return np.concatenate([f, lower], axis=-3)


def selfduality_violation(g, j, v: np.ndarray) -> float:
    """Max-norm of *V + J(V); zero exactly on twisted self-dual blocks."""
    return selfduality_defect(star_fibers(g, v), j, v)


def selfduality_defect(star_v: np.ndarray, j, v: np.ndarray) -> float:
    """Max-norm of *V + J(V), given the Hodge dual star_v of v."""
    return float(np.max(np.abs(star_v + fiber_action(_as_taming(j), v))))


def warn_if_not_selfdual(viol: float, v: np.ndarray, what: str) -> None:
    """Warn, on behalf of the caller's caller, when viol is not roundoff against v."""
    if not _within(viol, 1e-8, np.max(np.abs(v))):
        warnings.warn(f"{what} is not twisted self-dual (violation {viol:.2e})",
                      stacklevel=3)


def complexify_plus(v: np.ndarray, g) -> np.ndarray:
    """Self-dual complexification V+ = (V - i *V) / 2, with *V+ = +i V+."""
    return (v - 1j * hodge2(g, v)) / 2


def complexify_minus(v: np.ndarray, g) -> np.ndarray:
    return (v + 1j * hodge2(g, v)) / 2


def twisted_pairing(g, j, a: np.ndarray, b: np.ndarray) -> float:
    """Twisted exterior pairing of fiber-valued two-forms:
    sum_{A,B} (a^A, b^B)_g Q_{AB} with Q = omega(., J.)."""
    jm = _as_taming(j)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"rank mismatch: {a.shape} vs {b.shape}")
    q = omega(jm.shape[0] // 2) @ jm
    return 0.5 * float(np.einsum("AB,AB->", q, pairings(g, a, b)))


def oslash_g(g, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Inner g-contraction of two-forms: (r1 oslash r2)_{ab} = r1_{ac} r2_b{}^c."""
    return contract(checked_metric(g).ginv, r1, r2)


def oslash_Q(g, j, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Twisted inner contraction sum_{A,B} Q_{AB} (v^A oslash_g w^B).

    For twisted self-dual v = w this is exactly the gauge stress tensor."""
    return _q_contraction(g, j, v, w, symmetrise=False)


def stress_gauge(g, j, v: np.ndarray, check: bool = True) -> np.ndarray:
    """Gauge stress tensor omega(V_{ac}, J V_b{}^c), symmetrised.

    Warns when v is not twisted self-dual for (g, j), since the formula
    represents the physical stress only on that subspace.
    """
    m = checked_metric(g)
    jm = _as_taming(j)
    if check:
        warn_if_not_selfdual(selfduality_violation(m, jm, v), v, "stress_gauge input")
    return _q_contraction(m, jm, v, v, symmetrise=True)


def _q_contraction(g, j, v, w, symmetrise: bool) -> np.ndarray:
    """oslash_Q, optionally symmetrised, one node block at a time: Q = Omega J
    and J(w) exist for one block only."""
    jm = _as_taming(j)
    om = omega(jm.shape[-1] // 2)

    def kernel(ginv, jm, v, w):
        # one metric across the fiber index
        t = contract(ginv[:, None], v, fiber_action(om @ jm, w)).sum(axis=-3)
        return (t + np.swapaxes(t, -1, -2)) / 2 if symmetrise else t

    return blockwise(kernel, (checked_metric(g).ginv, 2), (jm, 2), (v, 3), (w, 3))


def stress_gauge_couplings(g, em: ElectromagneticPair, f: np.ndarray) -> np.ndarray:
    """Gauge stress in coupling form: 2 I F_{ac} F_b{}^c - (1/2) g_ab I F.F."""
    m = checked_metric(g)
    x = contract(m.ginv[..., None, :, :], f, fiber_action(em.I, f)).sum(axis=-3)
    return 2.0 * x - 0.5 * m.g * trace(m.ginv, x)[..., None, None]


def stress_scalar(g, chart_metric: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Scalar stress G_ij dphi^i dphi^j - (1/2) g G_ij dphi^i . dphi^j.

    dphi has shape lead + (4, n_s): dphi[..., a, i] = d_a phi^i; the chart
    metric has shape lead + (n_s, n_s).
    """
    m = checked_metric(g)
    dphi = np.asarray(dphi, dtype=float)
    t = dphi @ np.asarray(chart_metric, dtype=float) @ np.swapaxes(dphi, -1, -2)
    # (1/2) g tr is formed in one array, after the trace's own temporary is gone
    tr = trace(m.ginv, t)[..., None, None]
    trace_part = np.multiply(0.5, m.g, out=np.empty(np.broadcast_shapes(m.g.shape, tr.shape)))
    trace_part *= tr
    return np.subtract(t, trace_part, out=trace_part)


# ------------------------------------------------------------ random helpers

def random_lorentz_metric(rng: np.random.Generator) -> np.ndarray:
    """Random metric of signature (-, +, +, +): e^T eta e for e near Id."""
    e = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    while abs(np.linalg.det(e)) < 0.1:
        e = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    if np.linalg.det(e) < 0:
        e[0] = -e[0]
    return e.T @ ETA @ e


def random_two_forms(n: int, rng: np.random.Generator) -> np.ndarray:
    """n random antisymmetric 4x4 matrices, shape (n, 4, 4)."""
    a = rng.standard_normal((n, 4, 4))
    return a - np.swapaxes(a, -1, -2)
