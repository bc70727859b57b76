"""Pointwise linear algebra of the standard symplectic space (R^{2n}, omega).

Fixes the canonical basis E = (e_1..e_n, f_1..f_n) with omega represented by
the block matrix [[0, -Id], [Id, 0]], and implements the correspondence
between coupling pairs (R, I), compatible tamings J and Siegel upper space
points tau, together with the Sp(2n, R) fractional action tying them all
together.

Sign convention: a Siegel point tau corresponds to couplings via
tau = R + i*I.  The alternate convention -R + i*I (which also occurs in the
supergravity literature) is exposed as ``alt_period``; only the R + i*I
convention is equivariant for the fractional action used here, see
``tests/test_symplectic.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Tolerances for exact-algebra identities in double precision.  The looser
# value covers identities that pass through a matrix inversion.
TOL_ALG = 1e-10
TOL_ALG_INV = 1e-8

# The one positive-definiteness rule, for Im(tau), the coupling I and a
# taming's I^-1 block alike: the smallest eigenvalue over the largest must
# exceed it.
PD_RTOL = 1e-12

# Largest n accepted from model and bundle input: sp(2n, R) has n(2n+1) basis
# matrices of size 2n x 2n, and the stabilizer system grows as n^4 (at
# n = 12 the stabilizer command peaks near 70 MB on 16 samples).
MAX_N = 12

# Largest entry magnitude accepted in a taming, an A or a bundle generator:
# sums of squares of entries, as matrix products and column norms form them,
# then stay finite for every n <= MAX_N.
MAX_ENTRY = 1e150


class DimensionError(ValueError, InputError):
    """Matrix has the wrong shape for the requested symplectic operation."""


class DomainError(ValueError, InputError):
    """Input fails the invariants of its declared domain type."""


class PoleError(ArithmeticError, InputError):
    """A fractional transformation or a model expression hit a (near-)singular
    denominator."""


@functools.lru_cache(maxsize=None)
def omega(n: int) -> np.ndarray:
    """Matrix of the standard symplectic form on R^{2n}: [[0, -Id], [Id, 0]].

    Built once per n and returned read-only."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    idn = np.eye(n)
    out = np.block([[np.zeros((n, n)), -idn], [idn, np.zeros((n, n))]])
    out.flags.writeable = False
    return out


def unit_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a with each nonzero column scaled to unit norm, and the column scales
    (1 for a zero column)."""
    norms = np.linalg.norm(a, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    return a / norms, norms


def _rank(s: np.ndarray, rtol: float) -> int:
    return int(np.sum(s > rtol * np.max(s, initial=0.0)))


def column_rank(a: np.ndarray, rtol: float) -> int:
    """Rank of a by the rule of ``null_space``: the singular values of a with
    unit-norm columns above rtol times the largest, from one SVD without
    singular vectors."""
    return _rank(np.linalg.svd(unit_columns(a)[0], compute_uv=False), rtol)


def null_space(a: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal null-space basis (columns) of a.  One SVD of a with its
    columns scaled to unit norm decides the rank (``column_rank``), so it does
    not depend on the scale of each unknown.  The null vectors, put in column
    echelon form over the coordinates by scale and mapped back, are
    orthonormalized by QR, which then mixes no large entry into a small
    coordinate.  A matrix with no entries has all of R^k as its null space."""
    scaled, norms = unit_columns(a)
    # a wide a needs the full V; for a tall one full_matrices would only add an m x m U
    _, s, vh = np.linalg.svd(scaled, full_matrices=a.shape[0] < a.shape[1])
    rank = _rank(s, rtol)
    order = np.argsort(norms, kind="stable")   # largest 1/norm first
    echelon = np.linalg.qr(vh[rank:, order], mode="r").T   # lower trapezoidal basis
    return np.linalg.qr(echelon / norms[order, None])[0][np.argsort(order)]


def blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a 2n x 2n matrix, or a stack of them, into the n x n blocks
    (a, b, c, d)."""
    m = np.asarray(a)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2:
        raise DimensionError(f"expected square even-dimensional matrix, got {m.shape}")
    n = m.shape[-1] // 2
    return m[..., :n, :n], m[..., :n, n:], m[..., n:, :n], m[..., n:, n:]


def in_range(m: np.ndarray, what: str, error: type = DomainError) -> np.ndarray:
    """m, or error naming it as out of range when an entry exceeds MAX_ENTRY
    in magnitude; checked before any product of m is formed."""
    if np.max(np.abs(m), initial=0.0) > MAX_ENTRY:
        raise error(f"{what} is out of range: an entry exceeds {MAX_ENTRY:g} in magnitude")
    return m


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def sp_check(a: np.ndarray, tol: float = TOL_ALG) -> tuple[bool, float]:
    """Test membership in Sp(2n, R).

    Returns (ok, violation) where violation is the max-norm of A^T Omega A - Omega.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected square matrix, got {m.shape}")
    if m.shape[0] % 2:
        raise DimensionError(f"expected even dimension, got {m.shape[0]}")
    om = omega(m.shape[0] // 2)
    viol = float(np.max(np.abs(m.T @ om @ m - om)))
    return viol <= tol, viol


@functools.lru_cache(maxsize=None)
def sp_basis(n: int) -> np.ndarray:
    """Basis of the Lie algebra sp(2n, R) = {X : X^T Omega + Omega X = 0}, as
    one (n(2n+1), 2n, 2n) array, built once per n and returned read-only.

    Elements have block form [[A, B], [C, -A^T]] with B, C symmetric, so the
    dimension is n^2 + n(n+1) = n(2n+1).  In order: A = E_ij for all (i, j),
    then B = E_ij + E_ji, then C = E_ij + E_ji, for i <= j; row-major each.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    a = np.arange(n * n)
    i, j = np.divmod(a, n)
    iu, ju = np.triu_indices(n)
    b = n * n + np.arange(len(iu))
    out = np.zeros((n * (2 * n + 1), 2 * n, 2 * n))
    out[a, i, j], out[a, n + j, n + i] = 1.0, -1.0
    out[b, iu, n + ju], out[b, ju, n + iu] = 1.0, 1.0
    out[b + len(iu), n + iu, ju], out[b + len(iu), n + ju, iu] = 1.0, 1.0
    out.flags.writeable = False
    return out


def _within(defect, tol: float, scale, power: int = 1) -> bool:
    """The one floor of the membership rules: defect <= tol max(1, scale)^power
    for every matrix of a stack, one defect and scale each; a NaN defect fails."""
    return bool(np.all(defect <= tol * np.maximum(1.0, scale) ** power))


def _max_abs(m: np.ndarray) -> np.ndarray:
    return np.max(np.abs(m), axis=(-2, -1))


def in_sp_algebra(x: np.ndarray) -> bool:
    """Test X^T Omega + Omega X = 0 for a matrix or every matrix of a stack,
    each to TOL_ALG relative to its largest entry."""
    x = np.asarray(x, dtype=float)
    om = omega(x.shape[-1] // 2)
    return _within(_max_abs(_transpose(x) @ om + om @ x), TOL_ALG, _max_abs(x))


def _is_symmetric(m: np.ndarray) -> bool:
    return _within(_max_abs(m - m.T), TOL_ALG, _max_abs(m))


def min_eig_ratio(s: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of a symmetric matrix (the symmetric part of s),
    relative to its spectral scale max |eigenvalue|; one ratio per matrix of
    a stack.  In closed form for n <= 2: the entry itself for n = 1, and
    m -+ hypot((a - d)/2, b), m = (a + d)/2, for n = 2, on the matrix divided
    by its largest |entry| so that nothing overflows; eigvalsh for n > 2."""
    s = np.asarray(s)
    n = s.shape[-1]
    if n > 2:
        w = np.linalg.eigvalsh((s + _transpose(s)) / 2)
        w0, scale = w[..., 0], np.max(np.abs(w), axis=-1)
    elif n == 1:
        w0 = s[..., 0, 0]
        scale = np.abs(w0)
    else:
        a, d, b = s[..., 0, 0], s[..., 1, 1], (s[..., 0, 1] + s[..., 1, 0]) / 2
        peak = np.maximum(np.maximum(np.abs(a), np.abs(d)), np.abs(b))
        peak = np.where(peak > 0, peak, 1.0)
        a, d, b = a / peak, d / peak, b / peak
        m, r = (a + d) / 2, np.hypot((a - d) / 2, b)
        w0, scale = m - r, np.abs(m) + r
    return w0 / np.maximum(scale, 1e-300)


def is_positive_definite(s: np.ndarray) -> bool:
    """Scale-invariant positive definiteness test via the eigenvalue bound."""
    return bool(min_eig_ratio(s) > PD_RTOL)


@dataclass(frozen=True)
class ElectromagneticPair:
    """Coupling pair (R, I): both symmetric n x n, I positive definite."""

    R: np.ndarray
    I: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.R, dtype=float)
        i = np.asarray(self.I, dtype=float)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "I", i)
        if r.shape != i.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionError(f"R, I must be square and matching, got {r.shape}, {i.shape}")
        if not _is_symmetric(r) or not _is_symmetric(i):
            raise DomainError("R and I must be symmetric")
        if not is_positive_definite(i):
            raise DomainError("I must be positive definite")

    def siegel(self) -> "SiegelPoint":
        """Siegel point R + i*I (the equivariant sign convention)."""
        return SiegelPoint(self.R + 1j * self.I)

    def alt_period(self) -> np.ndarray:
        """The alternate sign convention -R + i*I, returned as a plain matrix."""
        return -self.R + 1j * self.I


@dataclass(frozen=True)
class Taming:
    """Complex structure J compatibly taming omega: J^2 = -Id, J^T Omega J = Omega,
    and the Gram matrix Omega @ J symmetric positive definite."""

    J: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", j)
        if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
            raise DimensionError(f"taming must be square even-dimensional, got {j.shape}")
        in_range(j, "J")
        n = j.shape[0] // 2
        if not _within(_max_abs(j @ j + np.eye(2 * n)), TOL_ALG, _max_abs(j), 2):
            raise DomainError("J^2 != -Id")
        if not _within(sp_check(j)[1], TOL_ALG, _max_abs(j), 2):
            raise DomainError("J does not preserve omega")
        # with the two laws above, a symmetric Gram matrix is positive definite
        # exactly when its lower right block, J's upper right block I^-1, is:
        # testing that block applies the rule Im(tau) is held to
        if not _is_symmetric(omega(n) @ j) or not is_positive_definite(j[:n, n:]):
            raise DomainError("omega(., J.) is not symmetric positive definite")

    @property
    def n(self) -> int:
        return self.J.shape[0] // 2


@dataclass(frozen=True)
class SiegelPoint:
    """Complex symmetric n x n matrix with positive definite imaginary part."""

    tau: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionError(f"expected square matrix, got {t.shape}")
        if not _is_symmetric(t.real) or not _is_symmetric(t.imag):
            raise DomainError("tau must be symmetric")
        # store bit-exactly symmetric so group laws hold to the last float bit
        object.__setattr__(self, "tau", (t + t.T) / 2)
        if not is_positive_definite(self.tau.imag):
            raise DomainError("Im(tau) must be positive definite")

    def couplings(self) -> ElectromagneticPair:
        return ElectromagneticPair(self.tau.real.copy(), self.tau.imag.copy())


def taming_matrix(r: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The taming [[-I^-1 R, I^-1], [-I - R I^-1 R, R I^-1]] of couplings (R, I),
    or the stack of tamings of stacks (..., n, n), unvalidated; its upper right
    block is I^-1."""
    iinv = np.linalg.inv(i)
    ri = r @ iinv
    return np.concatenate([np.concatenate([-iinv @ r, iinv], axis=-1),
                           np.concatenate([-i - ri @ r, ri], axis=-1)], axis=-2)


def gamma(em: ElectromagneticPair) -> Taming:
    """Taming associated to the couplings, see ``taming_matrix``."""
    return Taming(taming_matrix(em.R, em.I))


def gamma_inv(j: Taming) -> ElectromagneticPair:
    """Recover the couplings from a taming.

    Solves e_a = sum_b N_ab f_b in the complex structure J (J acting as
    multiplication by i) and returns (R, I) = (-Re N, Im N).
    """
    n = j.n
    fvecs = np.vstack([np.zeros((n, n)), np.eye(n)])  # columns f_b
    jf = j.J @ fvecs
    evecs = np.vstack([np.eye(n), np.zeros((n, n))])  # columns e_a
    m = np.hstack([fvecs, jf])  # 2n x 2n, columns (f_b, J f_b)
    # m = [[0, J_12], [Id, J_22]] has determinant +-det J_12 != 0 for a taming
    x = np.linalg.solve(m, evecs)  # column a holds (alpha_a, beta_a)
    alpha = x[:n, :].T  # N_ab = alpha_ab + i beta_ab
    beta = x[n:, :].T
    return ElectromagneticPair(R=-alpha, I=beta)


def mu(j: Taming) -> SiegelPoint:
    """Siegel point of a taming: R + i*I with (R, I) = gamma_inv(J)."""
    return gamma_inv(j).siegel()


def mu_inv(tau: SiegelPoint) -> Taming:
    """Taming of a Siegel point, identifying R = Re(tau) and I = Im(tau)."""
    return gamma(tau.couplings())


def _action(a: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A . tau = (c + d tau) inv, with inv = (a + b tau)^-1 formed once.  The pole
    rule reads the same inverse: PoleError where tau is not finite, where the
    inverse is missing or not finite, or where |inv|_F max(|a + b tau|_F, 1)
    >= 1e13."""
    t = np.asarray(tau, dtype=complex)
    if not np.all(np.isfinite(t)):   # before b tau, whose 0 * inf would warn
        raise PoleError("a + b tau is singular at this point")
    ab, bb, cb, db = blocks(np.asarray(a, dtype=float))
    den = ab + bb @ t
    try:
        inv = np.linalg.inv(den)
    except np.linalg.LinAlgError:   # an exactly singular member fails the whole stack
        inv = None
    if inv is None or not np.all(np.linalg.norm(inv, axis=(-2, -1)) * np.maximum(
            np.linalg.norm(den, axis=(-2, -1)), 1.0) < 1e13):   # NaN fails too
        raise PoleError("a + b tau is singular at this point")
    return (cb + db @ t) @ inv, inv


def fractional_action(a: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Left action of Sp(2n, R) on Siegel space: A . tau = (c + d tau)(a + b tau)^-1.

    Blocks follow the layout A = [[a, b], [c, d]].  tau is a matrix or a stack
    of matrices (..., n, n); the images are returned unchecked.  Raises
    PoleError when a + b tau is singular.
    """
    return _action(a, tau)[0]


def infinitesimal_fractional_action(x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Derivative at the identity of the fractional action along X in sp(2n, R).

    Equals (X_c + X_d tau) - tau (X_a + X_b tau); symmetric whenever X lies
    in sp(2n, R) and tau is symmetric.  X may be a stack (..., 2n, 2n) and
    tau a stack (..., n, n); the two stacks broadcast.
    """
    x = np.asarray(x, dtype=float)
    if not in_sp_algebra(x):
        raise DomainError("X is not in sp(2n, R)")
    t = np.asarray(tau, dtype=complex)
    xa, xb, xc, xd = blocks(x)
    return (xc + xd @ t) - t @ (xa + xb @ t)


def mobius_differential(a: np.ndarray, tau: np.ndarray, h: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(A . tau, d(A.tau)[h]) from the one inverse of ``fractional_action``: the
    differential of tau -> A . tau at tau along a tangent matrix h is the
    congruence d(A.tau)[h] = (a + b tau)^-T h (a + b tau)^-1, which holds for
    A in Sp(2n, R) and symmetric tau (see ``_symplectic_checked``).  tau and h
    may be broadcastable stacks of matrices."""
    out, inv = _action(a, tau)
    return out, mobius_congruence(inv, h)


def mobius_congruence(inv: np.ndarray, h: np.ndarray) -> np.ndarray:
    """inv^T h inv: the differential of the fractional action along h, from
    inv = (a + b tau)^-1 of ``_action``; the stacks broadcast."""
    return _transpose(inv) @ np.asarray(h, dtype=complex) @ inv


def _symplectic_checked(a: np.ndarray) -> np.ndarray:
    """a as a float matrix, or DomainError unless it lies in Sp(2n, R): the
    violation max|A^T Omega A - Omega| may reach TOL_ALG_INV max(1, max|A|)^2."""
    m = in_range(np.asarray(a, dtype=float), "A")
    viol = sp_check(m)[1]
    if not _within(viol, TOL_ALG_INV, _max_abs(m), 2):
        raise DomainError(f"A is not symplectic (violation {viol:.3e})")
    return m


def conjugate_taming(a: np.ndarray, j: Taming) -> Taming:
    """Pointwise duality action on tamings: J -> A J A^-1 for A in Sp(2n, R)."""
    m = _symplectic_checked(a)
    return Taming(m @ j.J @ np.linalg.inv(m))


def random_couplings(n: int, rng: np.random.Generator) -> ElectromagneticPair:
    """Random valid couplings: R symmetric Gaussian, I = M^T M + 0.1 Id."""
    r = rng.standard_normal((n, n))
    r = (r + r.T) / 2
    m = rng.standard_normal((n, n))
    i = m.T @ m + 0.1 * np.eye(n)
    return ElectromagneticPair(r, i)


def random_taming(n: int, rng: np.random.Generator) -> Taming:
    """Random valid taming, generated as gamma of random couplings."""
    return gamma(random_couplings(n, rng))


def random_sp(n: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random element of Sp(2n, R) as the exponential of a random sp element.

    Needs scipy (``scipy.linalg.expm``), imported here on the first call: the
    package and the command line otherwise import numpy alone."""
    import scipy.linalg

    basis = sp_basis(n)
    coeff = rng.standard_normal(len(basis)) * scale
    x = sum(c * b for c, b in zip(coeff, basis))
    return scipy.linalg.expm(x)

