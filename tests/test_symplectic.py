import numpy as np
import pytest
import scipy.linalg

from emduality import symplectic as sp


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_sp_algebra(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of the Lie algebra sp(2n, R)."""
    basis = sp.sp_basis(n)
    return sum(c * b for c, b in zip(rng.standard_normal(len(basis)), basis))


class TestOmegaAndChecks:
    def test_omega_layout(self):
        om = sp.omega(2)
        assert np.array_equal(om[:2, 2:], -np.eye(2))
        assert np.array_equal(om[2:, :2], np.eye(2))
        assert np.array_equal(om @ om, -np.eye(4))
        assert np.array_equal(om, -om.T)

    def test_sp_check_identity(self):
        ok, viol = sp.sp_check(np.eye(6))
        assert ok and viol == 0.0

    def test_sp_check_omega_itself(self):
        ok, _ = sp.sp_check(sp.omega(3))
        assert ok

    def test_sp_check_rejects_diag2(self):
        ok, viol = sp.sp_check(np.diag([2.0, 1.0]))
        assert not ok
        # direct evaluation: A^T Omega A = 2*Omega, violation = 1
        assert viol == pytest.approx(1.0)

    def test_sp_check_odd_dimension(self):
        with pytest.raises(sp.DimensionError):
            sp.sp_check(np.eye(3))

    def test_det_plus_one(self, rng):
        for n in (1, 2, 3):
            a = sp.random_sp(n, rng)
            assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-9)


def list_sp_basis(n: int) -> list[np.ndarray]:
    """The sp(2n, R) basis built element by element: A blocks E_ij for all
    (i, j), then symmetric B and C blocks for i <= j."""
    out = []
    for i in range(n):
        for j in range(n):
            x = np.zeros((2 * n, 2 * n))
            x[i, j] = 1.0
            x[n + j, n + i] = -1.0
            out.append(x)
    for i in range(n):
        for j in range(i, n):
            x = np.zeros((2 * n, 2 * n))
            x[i, n + j] = 1.0
            x[j, n + i] = 1.0
            out.append(x)
    for i in range(n):
        for j in range(i, n):
            x = np.zeros((2 * n, 2 * n))
            x[n + i, j] = 1.0
            x[n + j, i] = 1.0
            out.append(x)
    return out


class TestSpBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
    def test_equals_list_builder(self, n):
        assert np.array_equal(sp.sp_basis(n), np.stack(list_sp_basis(n)))

    def test_cached_read_only(self):
        basis = sp.sp_basis(2)
        assert sp.sp_basis(2) is basis
        assert not basis.flags.writeable
        with pytest.raises(sp.DimensionError):
            sp.sp_basis(0)

    @pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21)])
    def test_dimension(self, n, dim):
        assert len(sp.sp_basis(n)) == dim

    def test_algebra_condition_exact(self):
        om = sp.omega(2)
        for x in sp.sp_basis(2):
            assert np.array_equal(x.T @ om + om @ x, np.zeros((4, 4)))

    def test_linear_independence(self):
        basis = sp.sp_basis(2)
        mat = np.stack([b.ravel() for b in basis])
        assert np.linalg.matrix_rank(mat) == len(basis)


class TestGammaBijection:
    def test_standard_pair(self):
        em = sp.ElectromagneticPair(np.zeros((2, 2)), np.eye(2))
        j = sp.gamma(em)
        expect = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(j.J, expect, atol=1e-15)

    def test_scaled_coupling(self):
        em = sp.ElectromagneticPair(np.zeros((1, 1)), np.array([[4.0]]))
        j = sp.gamma(em)
        assert np.allclose(j.J, [[0.0, 0.25], [-4.0, 0.0]], atol=1e-15)

    def test_gamma_inv_standard(self):
        j = sp.Taming(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        em = sp.gamma_inv(j)
        assert np.allclose(em.R, 0.0, atol=1e-15)
        assert np.allclose(em.I, 1.0, atol=1e-15)

    def test_gamma_inv_scaled(self):
        j = sp.Taming(np.array([[0.0, 0.25], [-4.0, 0.0]]))
        em = sp.gamma_inv(j)
        assert em.R[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert em.I[0, 0] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_both_ways(self, n, rng):
        for _ in range(100):
            em = sp.random_couplings(n, rng)
            em2 = sp.gamma_inv(sp.gamma(em))
            assert np.max(np.abs(em.R - em2.R)) < 1e-12 * max(1, np.max(np.abs(em.R)))
            assert np.max(np.abs(em.I - em2.I)) < 1e-12 * max(1, np.max(np.abs(em.I)))
            j = sp.random_taming(n, rng)
            j2 = sp.gamma(sp.gamma_inv(j))
            assert np.max(np.abs(j.J - j2.J)) < 1e-12 * max(1, np.max(np.abs(j.J)))

    def test_taming_invariants_hold_for_gamma(self, rng):
        # Taming.__init__ asserts J^2 = -Id, omega-compatibility and positivity.
        for n in (1, 2, 3):
            for _ in range(20):
                j = sp.gamma(sp.random_couplings(n, rng))
                # the Gram matrix omega(., J.)
                assert sp.is_positive_definite(sp.omega(n) @ j.J)

    def test_rejects_indefinite_I(self):
        with pytest.raises(sp.DomainError):
            sp.ElectromagneticPair(np.zeros((2, 2)), np.diag([1.0, -1.0]))


class TestMu:
    def test_standard_taming_maps_to_i(self):
        j = sp.Taming(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sp.mu(j).tau, 1j * np.eye(1), atol=1e-14)

    def test_i_maps_to_standard_taming(self):
        t = sp.SiegelPoint(1j * np.eye(1))
        assert np.allclose(sp.mu_inv(t).J, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n, rng):
        for _ in range(100):
            j = sp.random_taming(n, rng)
            j2 = sp.mu_inv(sp.mu(j))
            assert np.max(np.abs(j.J - j2.J)) < 1e-12 * max(1, np.max(np.abs(j.J)))


class TestFractionalAction:
    def test_identity_acts_trivially(self, rng):
        t = sp.mu(sp.random_taming(2, rng)).tau
        out = sp.fractional_action(np.eye(4), t)
        assert np.array_equal(out, t)

    def test_omega_fixes_i(self):
        out = sp.fractional_action(sp.omega(1), 1j * np.eye(1))
        assert np.allclose(out, 1j * np.eye(1), atol=1e-14)

    def test_lower_triangular_translates(self, rng):
        s = 0.7
        a = np.array([[1.0, 0.0], [s, 1.0]])
        t = sp.mu(sp.random_taming(1, rng)).tau
        out = sp.fractional_action(a, t)
        assert np.allclose(out, t + s, atol=1e-13)

    def test_minus_identity_fixed_point_exact(self, rng):
        t = sp.mu(sp.random_taming(2, rng)).tau
        out = sp.fractional_action(-np.eye(4), t)
        assert np.max(np.abs(out - t)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_composition_law(self, n, rng):
        for _ in range(100):
            a1, a2 = sp.random_sp(n, rng), sp.random_sp(n, rng)
            t = sp.mu(sp.random_taming(n, rng)).tau
            lhs = sp.fractional_action(a1 @ a2, t)
            rhs = sp.fractional_action(a1, sp.fractional_action(a2, t))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1, np.max(np.abs(lhs)))

    def test_preserves_siegel_space(self, rng):
        for _ in range(100):
            a = sp.random_sp(2, rng)
            t = sp.mu(sp.random_taming(2, rng)).tau
            out = sp.SiegelPoint(sp.fractional_action(a, t))   # the checked image
            assert np.max(np.abs(out.tau - out.tau.T)) < 1e-12 * max(1, np.max(np.abs(out.tau)))
            assert sp.min_eig_ratio(out.tau.imag) > 0

    def test_pole_error(self):
        # a + b*tau = 0 at tau = i for a = 0, b = i ... use A = Omega at tau with
        # singular tau: Omega action needs tau invertible; tau = i is fine, use a
        # crafted block instead: a = Id - b tau has rank drop when b = tau^-1 on
        # the nose; simplest: 1x1 with a=0, b=1 at tau = 0 is outside Siegel, so
        # build A with a + b*tau singular for tau = i: a = [[1,0],[0,0]] fails
        # symplecticity; instead check Omega at near-degenerate tau.
        t = sp.SiegelPoint(np.array([[1e-20 * 1j]]) + np.array([[0.0]]))
        # Im must be pd, so this tau is invalid; instead verify solver guard via
        # direct call with raw matrix input.
        with pytest.raises(sp.PoleError):
            sp.fractional_action(sp.omega(1), np.array([[0.0 + 1e-16j]]))


class TestInfinitesimalAction:
    def test_zero(self, rng):
        t = sp.mu(sp.random_taming(2, rng)).tau
        out = sp.infinitesimal_fractional_action(np.zeros((4, 4)), t)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_single_c_block(self, rng):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = sp.mu(sp.random_taming(1, rng)).tau
        out = sp.infinitesimal_fractional_action(x, t)
        assert np.allclose(out, np.eye(1), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_finite_difference(self, n, rng):
        h = 1e-5
        for _ in range(25):
            x = random_sp_algebra(n, rng)
            t = sp.mu(sp.random_taming(n, rng)).tau
            lin = sp.infinitesimal_fractional_action(x, t)
            fd = (sp.fractional_action(scipy.linalg.expm(h * x), t)
                  - sp.fractional_action(scipy.linalg.expm(-h * x), t)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(lin))))
            assert np.max(np.abs(lin - fd)) < 5e-5 * scale

    def test_output_symmetric(self, rng):
        for _ in range(25):
            x = random_sp_algebra(2, rng)
            t = sp.mu(sp.random_taming(2, rng)).tau
            out = sp.infinitesimal_fractional_action(x, t)
            assert np.max(np.abs(out - out.T)) < 1e-11 * max(1, np.max(np.abs(out)))

    def test_rejects_non_sp(self, rng):
        with pytest.raises(sp.DomainError):
            sp.infinitesimal_fractional_action(np.diag([1.0, 1.0]), 1j * np.eye(1))

    def test_stack_of_x_matches_one_at_a_time(self, rng):
        xs = np.stack([random_sp_algebra(2, rng) for _ in range(5)])
        t = sp.mu(sp.random_taming(2, rng)).tau
        one_at_a_time = np.stack([sp.infinitesimal_fractional_action(x, t) for x in xs])
        assert np.array_equal(sp.infinitesimal_fractional_action(xs, t), one_at_a_time)

    def test_rejects_a_stack_with_one_non_sp(self, rng):
        xs = np.stack([random_sp_algebra(1, rng), np.diag([1.0, 1.0])])
        with pytest.raises(sp.DomainError):
            sp.infinitesimal_fractional_action(xs, 1j * np.eye(1))


class TestConjugateTaming:
    def test_identity(self, rng):
        j = sp.random_taming(2, rng)
        assert np.allclose(sp.conjugate_taming(np.eye(4), j).J, j.J, atol=1e-14)

    def test_minus_identity(self, rng):
        j = sp.random_taming(2, rng)
        assert np.allclose(sp.conjugate_taming(-np.eye(4), j).J, j.J, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_equivariance_with_plus_re_convention(self, n, rng):
        # mu(A J A^-1) = A . mu(J): holds for the R + i*I convention only.
        for _ in range(100):
            j = sp.random_taming(n, rng)
            a = sp.random_sp(n, rng)
            lhs = sp.mu(sp.conjugate_taming(a, j)).tau
            rhs = sp.fractional_action(a, sp.mu(j).tau)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1, np.max(np.abs(lhs)))

    def test_alt_convention_not_equivariant(self, rng):
        # Documents why the alternate -R + i*I convention is not used for the
        # action: equivariance fails for a generic element.
        j = sp.random_taming(1, rng)
        a = np.array([[1.0, 0.0], [0.8, 1.0]])
        lhs = sp.gamma_inv(sp.conjugate_taming(a, j)).alt_period()
        rhs = sp.fractional_action(a, sp.gamma_inv(j).alt_period())
        assert np.max(np.abs(lhs - rhs)) > 1e-3


class TestNullSpace:
    def test_rank_ignores_column_scales(self, rng):
        """A rank-2 matrix with columns scaled by 1, 1e-12 and 1e-24 keeps a
        one-dimensional null space, and its basis is a's own null vector."""
        a = rng.standard_normal((2, 3)) * np.array([1.0, 1e-12, 1e-24])
        null = sp.null_space(a, 1e-8)
        assert null.shape == (3, 1)
        assert np.max(np.abs(a @ null)) <= 1e-15

    def test_badly_scaled_basis_is_orthonormal(self, rng):
        """Columns scaled by 1, 1e-12, 1e-24 and 1: a two-dimensional null
        space whose basis is orthonormal and annihilated by a."""
        a = rng.standard_normal((2, 4)) * np.array([1.0, 1e-12, 1e-24, 1.0])
        null = sp.null_space(a, 1e-8)
        assert null.shape == (4, 2)
        assert np.allclose(null.T @ null, np.eye(2), atol=1e-14)
        assert np.max(np.abs(a @ null)) <= 1e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_scales_rank_deficient(self, seed):
        """Rank-deficient matrices whose columns span 1e-24 to 1e6: the basis
        is orthonormal and annihilated by a to roundoff against max|a|."""
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.choice([6, 0, -6, -12, -24], size=30)
        a = rng.standard_normal((12, 9)) @ rng.standard_normal((9, 30)) * scales
        null = sp.null_space(a, 1e-10)
        assert null.shape == (30, 21)
        assert np.allclose(null.T @ null, np.eye(21), atol=1e-14)
        assert np.max(np.abs(a @ null)) <= 1e-13 * np.max(np.abs(a))

    def test_zero_columns_are_null_directions(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        null = sp.null_space(a, 1e-10)
        assert null.shape == (3, 1)
        assert np.allclose(np.abs(null[:, 0]), [0.0, 1.0, 0.0])


class TestOutOfRange:
    """A taming or an A with an entry above MAX_ENTRY = 1e150 is refused by
    name before any product of it is formed; the scale floor would square it."""

    def test_taming(self):
        with pytest.raises(sp.DomainError, match="J is out of range"):
            sp.Taming(np.array([[0.0, 1e200], [-1e-200, 0.0]]))

    def test_a(self, rng):
        a = np.diag([1e200, 1e-200])   # symplectic
        with pytest.raises(sp.DomainError, match="A is out of range"):
            sp.conjugate_taming(a, sp.random_taming(1, rng))

    def test_entries_at_the_bound_are_in_range(self, rng):
        j = sp.Taming(np.array([[0.0, 1e150], [-1e-150, 0.0]]))
        a = np.diag([1e-150, 1e150])   # J -> [[0, 1e-150], [-1e150, 0]]
        assert np.allclose(sp.conjugate_taming(a, j).J, [[0.0, 1e-150], [-1e150, 0.0]],
                           rtol=1e-15, atol=0.0)
