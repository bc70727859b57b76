import hashlib
import itertools

import numpy as np
import pytest

from emduality import fields as fl
from emduality import symplectic as sp


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def two_form(mu, nu, val=1.0):
    w = np.zeros((4, 4))
    w[mu, nu] = val
    w[nu, mu] = -val
    return w


def test_levi_civita_symbol_keeps_its_bytes():
    assert hashlib.sha256(fl.EPS4.tobytes()).hexdigest() == \
        "a37e5e4e33ef7483856bf32a4aa0cad5adcb8a1f102d9b111afc8959e9f982ef"
    # the sign of a permutation is the determinant of its permutation matrix
    for idx in itertools.product(range(4), repeat=4):
        want = round(np.linalg.det(np.eye(4)[list(idx)])) if len(set(idx)) == 4 else 0
        assert fl.EPS4[idx] == want


class TestHodge:
    def test_minkowski_dt_dx(self):
        # with eps_{0123} = +1 and signature (-,+,+,+): *(dt^dx) = -dy^dz
        sw = fl.hodge2(fl.ETA, two_form(0, 1))
        assert np.allclose(sw, two_form(2, 3, -1.0))

    def test_double_application_is_minus_identity(self, rng):
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            w = fl.random_two_forms(1, rng)[0]
            assert np.max(np.abs(fl.hodge2(g, fl.hodge2(g, w)) + w)) < 1e-12 * max(
                1, np.max(np.abs(w)))

    def test_zero(self):
        assert np.array_equal(fl.hodge2(fl.ETA, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_rejects_euclidean_metric(self):
        with pytest.raises(fl.SingularMetricError):
            fl.hodge2(np.eye(4), two_form(0, 1))

    def test_checked_metric_validation(self):
        with pytest.raises(fl.SingularMetricError, match="Lorentzian"):
            fl.checked_metric(np.diag([-1.0, -1.0, 1.0, 1.0])).vol
        m = fl.checked_metric(fl.ETA)
        assert m.det == pytest.approx(-1.0)
        assert m.vol == pytest.approx(1.0)

    def test_star_antisymmetric_in_form_index(self, rng):
        g = fl.random_lorentz_metric(rng)
        w = fl.random_two_forms(1, rng)[0]
        sw = fl.hodge2(g, w)
        assert np.max(np.abs(sw + sw.T)) < 1e-12


class TestTwistedStar:
    def test_squares_to_plus_one(self, rng):
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            j = sp.random_taming(2, rng)
            v = fl.random_two_forms(4, rng)
            out = fl.twisted_star(g, j, fl.twisted_star(g, j, v))
            assert np.max(np.abs(out - v)) < 1e-9 * max(1, np.max(np.abs(v)))

    def test_zero(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        assert np.array_equal(fl.twisted_star(g, j, np.zeros((2, 4, 4))),
                              np.zeros((2, 4, 4)))

    def test_standard_taming_swaps_blocks(self, rng):
        # J0 = [[0, Id], [-Id, 0]]: the twisted star of (F, 0) is (0, -*F)
        g = fl.random_lorentz_metric(rng)
        j0 = sp.gamma(sp.ElectromagneticPair(np.zeros((1, 1)), np.eye(1)))
        f = fl.random_two_forms(1, rng)
        v = np.concatenate([f, np.zeros((1, 4, 4))], axis=0)
        out = fl.twisted_star(g, j0, v)
        assert np.allclose(out[0], 0.0, atol=1e-13)
        assert np.allclose(out[1], -fl.hodge2(g, f[0]), atol=1e-12)


class TestProjectors:
    def test_solutions_carry_plus_eigenvalue(self, rng):
        # *V = -J V implies twisted_star V = +V: the minus component vanishes
        for _ in range(50):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            v = fl.assemble_V(fl.random_two_forms(2, rng), em, g)
            vp, vm = fl.project_sd(g, sp.gamma(em), v)
            scale = max(1.0, np.max(np.abs(v)))
            assert np.max(np.abs(vm)) < 1e-10 * scale
            assert np.max(np.abs(vp - v)) < 1e-10 * scale

    def test_zero(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        vp, vm = fl.project_sd(g, j, np.zeros((2, 4, 4)))
        assert np.array_equal(vp, 0 * vp) and np.array_equal(vm, 0 * vm)

    def test_idempotency_and_completeness(self, rng):
        for _ in range(50):
            g = fl.random_lorentz_metric(rng)
            j = sp.random_taming(2, rng)
            v = fl.random_two_forms(4, rng)
            vp, vm = fl.project_sd(g, j, v)
            scale = max(1.0, np.max(np.abs(v)))
            assert np.max(np.abs(vp + vm - v)) < 1e-12 * scale
            vpp, vpm = fl.project_sd(g, j, vp)
            assert np.max(np.abs(vpp - vp)) < 1e-9 * scale
            assert np.max(np.abs(vpm)) < 1e-9 * scale
            # twisted star fixes the plus part, negates the minus part
            assert np.max(np.abs(fl.twisted_star(g, j, vp) - vp)) < 1e-9 * scale
            assert np.max(np.abs(fl.twisted_star(g, j, vm) + vm)) < 1e-9 * scale


class TestAssembleV:
    def test_zero_field(self, rng):
        em = sp.random_couplings(2, rng)
        v = fl.assemble_V(np.zeros((2, 4, 4)), em, fl.ETA)
        assert np.array_equal(v, np.zeros((4, 4, 4)))

    def test_unit_couplings(self, rng):
        em = sp.ElectromagneticPair(np.zeros((1, 1)), np.eye(1))
        f = fl.random_two_forms(1, rng)
        g = fl.random_lorentz_metric(rng)
        v = fl.assemble_V(f, em, g)
        assert np.allclose(v[1], -fl.hodge2(g, f[0]), atol=1e-12)
        assert fl.selfduality_violation(g, sp.gamma(em), v) < 1e-12

    def test_twisted_selfduality_random(self, rng):
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            v = fl.assemble_V(fl.random_two_forms(2, rng), em, g)
            assert fl.selfduality_violation(g, sp.gamma(em), v) < 1e-10 * max(
                1, np.max(np.abs(v)))

    def test_converse_reconstruction(self, rng):
        # any V with *V = -J V decomposes as (F, R F - I *F) with F = upper block
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            j = sp.gamma(em)
            w = fl.random_two_forms(4, rng)
            v_sd, _ = fl.project_sd(g, j, w)  # generic twisted self-dual block
            rebuilt = fl.assemble_V(v_sd[:2].real, em, g)
            assert np.max(np.abs(rebuilt - v_sd)) < 1e-10 * max(1, np.max(np.abs(v_sd)))


class TestComplexify:
    def test_real_part_recovers(self, rng):
        g = fl.random_lorentz_metric(rng)
        v = fl.random_two_forms(4, rng)
        vp = fl.complexify_plus(v, g)
        assert np.max(np.abs(vp + vp.conj() - v)) < 1e-14 * max(1, np.max(np.abs(v)))

    def test_plus_is_i_eigenvector_of_star(self, rng):
        g = fl.random_lorentz_metric(rng)
        v = fl.random_two_forms(2, rng)
        vp = fl.complexify_plus(v, g)
        assert np.max(np.abs(fl.hodge2(g, vp) - 1j * vp)) < 1e-11 * max(1, np.max(np.abs(vp)))

    def test_zero(self, rng):
        g = fl.random_lorentz_metric(rng)
        assert np.array_equal(fl.complexify_plus(np.zeros((2, 4, 4)), g),
                              np.zeros((2, 4, 4)))

    def test_minus_is_conjugate_half(self, rng):
        g = fl.random_lorentz_metric(rng)
        v = fl.random_two_forms(3, rng)
        vp = fl.complexify_plus(v, g)
        vm = fl.complexify_minus(v, g)
        scale = max(1.0, np.max(np.abs(v)))
        assert np.max(np.abs(vm - vp.conj())) < 1e-13 * scale
        assert np.max(np.abs(vp + vm - v)) < 1e-13 * scale
        assert np.max(np.abs(fl.hodge2(g, vm) + 1j * vm)) < 1e-11 * scale

    def test_period_matrix_block_identity(self, rng):
        # lower block of V+ = conj(N) F+ with N = R + i I
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            v = fl.assemble_V(fl.random_two_forms(2, rng), em, g)
            vp = fl.complexify_plus(v, g)
            n = em.R + 1j * em.I
            pred = np.einsum("LS,Smn->Lmn", n.conj(), vp[:2])
            assert np.max(np.abs(vp[2:] - pred)) < 1e-10 * max(1, np.max(np.abs(vp)))


class TestPairings:
    """fields.pairings, the one pairing of fiber-valued two-forms."""

    def test_point_is_twice_form_inner(self, rng):
        for _ in range(20):
            g = fl.random_lorentz_metric(rng)
            a, b = fl.random_two_forms(3, rng), fl.random_two_forms(2, rng)
            p = fl.pairings(g, a, b)
            ginv = np.linalg.inv(g)
            oracle = np.einsum("Aab,ra,sb,Crs->AC", a, ginv, ginv, b)
            assert p.shape == (3, 2)
            assert np.max(np.abs(p - oracle)) <= 1e-13 * np.max(np.abs(oracle))
            for i, j in np.ndindex(p.shape):
                assert p[i, j] == pytest.approx(2 * fl.form_inner(g, a[i], b[j]), rel=1e-13)

    def test_one_metric_against_a_stack_of_forms(self, rng):
        g = fl.random_lorentz_metric(rng)
        a = fl.random_two_forms(15, rng).reshape(5, 3, 4, 4)
        b = fl.random_two_forms(10, rng).reshape(5, 2, 4, 4)
        p = fl.pairings(g, a, b)
        assert p.shape == (5, 3, 2)
        for k in range(5):
            assert np.array_equal(p[k], fl.pairings(g, a[k], b[k]))
        # and a stack of metrics against one pair of forms
        gs = np.stack([fl.random_lorentz_metric(rng) for _ in range(4)])
        p = fl.pairings(gs, a[0], b[0])
        assert p.shape == (4, 3, 2)
        for k in range(4):
            assert np.array_equal(p[k], fl.pairings(gs[k], a[0], b[0]))

    def test_zero_fibers(self):
        two = np.zeros((3, 2, 4, 4))
        none = np.zeros((3, 0, 4, 4))
        assert fl.pairings(fl.ETA, none, two).shape == (3, 0, 2)
        assert fl.pairings(fl.ETA, two, none).shape == (3, 2, 0)
        assert fl.pairings(fl.ETA, none[0], none[0]).shape == (0, 0)


class TestTwistedPairing:
    def test_zero(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        z = np.zeros((2, 4, 4))
        assert fl.twisted_pairing(g, j, z, z) == 0.0

    def test_symmetry(self, rng):
        for _ in range(50):
            g = fl.random_lorentz_metric(rng)
            j = sp.random_taming(2, rng)
            a = fl.random_two_forms(4, rng)
            b = fl.random_two_forms(4, rng)
            pab = fl.twisted_pairing(g, j, a, b)
            pba = fl.twisted_pairing(g, j, b, a)
            assert pab == pytest.approx(pba, rel=1e-12, abs=1e-12)

    def test_rank_mismatch(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        with pytest.raises(ValueError):
            fl.twisted_pairing(g, j, np.zeros((2, 4, 4)), np.zeros((4, 4, 4)))

    def test_positive_on_simple_elements_riemannian(self, rng):
        # Q is positive definite; with a Riemannian test metric the two-form
        # inner product is also positive, so the pairing of a nonzero simple
        # element with itself is > 0.  hodge2 is never invoked here, so the
        # Euclidean metric is legitimate.
        j = sp.random_taming(2, rng)
        geucl = np.eye(4)
        for _ in range(20):
            s = rng.standard_normal(4)  # fiber vector
            rho = fl.random_two_forms(1, rng)[0]
            a = np.einsum("A,mn->Amn", s, rho)
            if np.max(np.abs(a)) < 1e-9:
                continue
            assert fl.twisted_pairing(geucl, j, a, a) > 0

    def test_bilinearity(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        a = fl.random_two_forms(2, rng)
        b = fl.random_two_forms(2, rng)
        assert fl.twisted_pairing(g, j, 2 * a, b) == pytest.approx(
            2 * fl.twisted_pairing(g, j, a, b), rel=1e-12)


class TestOslashQ:
    def test_zero(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        z = np.zeros((2, 4, 4))
        assert np.array_equal(fl.oslash_Q(g, j, z, z), np.zeros((4, 4)))

    def test_bilinearity(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(2, rng)
        v = fl.random_two_forms(4, rng)
        w = fl.random_two_forms(4, rng)
        assert np.allclose(fl.oslash_Q(g, j, 2 * v, w), 2 * fl.oslash_Q(g, j, v, w),
                           atol=1e-12)

    def test_reproduces_gauge_stress(self, rng):
        # the symmetrised twisted inner contraction of a twisted self-dual
        # block with itself is the gauge stress tensor (factor 1 in these
        # conventions)
        for _ in range(50):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            j = sp.gamma(em)
            v = fl.assemble_V(fl.random_two_forms(2, rng), em, g)
            contr = fl.oslash_Q(g, j, v, v)
            contr = (contr + contr.T) / 2
            t = fl.stress_gauge(g, j, v)
            assert np.max(np.abs(contr - t)) < 1e-10 * max(1, np.max(np.abs(t)))


    def test_oslash_g_traces_to_twice_form_inner(self, rng):
        # g^ab (r1 oslash r2)_ab = r1_ac r2^ac = 2 (r1, r2)_g, node by node
        for _ in range(20):
            gs = np.stack([fl.random_lorentz_metric(rng) for _ in range(5)])
            r1, r2 = fl.random_two_forms(5, rng), fl.random_two_forms(5, rng)
            traced = np.einsum("kab,kab->k", np.linalg.inv(gs), fl.oslash_g(gs, r1, r2))
            want = 2 * fl.form_inner(gs, r1, r2)
            assert np.max(np.abs(traced - want)) <= 1e-13 * np.max(np.abs(want))

    def test_is_q_weighted_sum_of_oslash_g(self, rng):
        # oslash_Q(v, w) = sum_AB Q_AB (v^A oslash_g w^B) with Q = Omega J
        for _ in range(20):
            gs = np.stack([fl.random_lorentz_metric(rng) for _ in range(5)])
            j = sp.random_taming(2, rng)
            v, w = (fl.random_two_forms(20, rng).reshape(5, 4, 4, 4) for _ in range(2))
            q = sp.omega(2) @ j.J
            want = sum(q[a, b] * fl.oslash_g(gs, v[:, a], w[:, b])
                       for a in range(4) for b in range(4))
            got = fl.oslash_Q(gs, j, v, w)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestStressGauge:
    def test_zero(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        assert np.array_equal(fl.stress_gauge(g, j, np.zeros((2, 4, 4))), np.zeros((4, 4)))

    def test_constant_electric_field(self):
        # single field, E dt^dx on Minkowski with unit couplings: the stress of
        # a constant electric field, diag(E^2, -E^2, E^2, E^2) in this action
        # normalisation; cross-checked against the coupling-form expression
        e = 0.8
        f = np.stack([two_form(0, 1, e)])
        em = sp.ElectromagneticPair(np.zeros((1, 1)), np.eye(1))
        v = fl.assemble_V(f, em, fl.ETA)
        t = fl.stress_gauge(fl.ETA, sp.gamma(em), v)
        assert np.allclose(t, np.diag([e * e, -e * e, e * e, e * e]), atol=1e-13)
        t2 = fl.stress_gauge_couplings(fl.ETA, em, f)
        assert np.allclose(t, t2, atol=1e-13)

    def test_omega_form_equals_coupling_form(self, rng):
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            f = fl.random_two_forms(2, rng)
            v = fl.assemble_V(f, em, g)
            t1 = fl.stress_gauge(g, sp.gamma(em), v)
            t2 = fl.stress_gauge_couplings(g, em, f)
            assert np.max(np.abs(t1 - t2)) < 1e-10 * max(1, np.max(np.abs(t1)))

    def test_stacks_equal_points(self, rng):
        # one metric against a stack of forms, and a stack of metrics with
        # forms of their own, each node as at a point
        em = sp.random_couplings(2, rng)
        g = fl.random_lorentz_metric(rng)
        f = fl.random_two_forms(6, rng).reshape(3, 2, 4, 4)
        t = fl.stress_gauge_couplings(g, em, f)
        assert t.shape == (3, 4, 4)
        for k in range(3):
            assert np.array_equal(t[k], fl.stress_gauge_couplings(g, em, f[k]))
        gs = np.stack([fl.random_lorentz_metric(rng) for _ in range(2)])
        f = fl.random_two_forms(2, rng)
        t = fl.stress_gauge_couplings(gs, em, np.stack([f, 2 * f]))
        assert t.shape == (2, 4, 4)
        for k, c in enumerate((1, 2)):
            assert np.array_equal(t[k], fl.stress_gauge_couplings(gs[k], em, c * f))

    def test_traceless(self, rng):
        for _ in range(50):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(3, rng)
            v = fl.assemble_V(fl.random_two_forms(3, rng), em, g)
            t = fl.stress_gauge(g, sp.gamma(em), v)
            tr = float(np.einsum("ab,ab->", np.linalg.inv(g), t))
            assert abs(tr) < 1e-10 * max(1, np.max(np.abs(t)))

    def test_duality_invariance(self, rng):
        # stress_gauge(g, A J A^-1, A V) = stress_gauge(g, J, V)
        for _ in range(100):
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(2, rng)
            j = sp.gamma(em)
            v = fl.assemble_V(fl.random_two_forms(2, rng), em, g)
            t = fl.stress_gauge(g, j, v)
            a = sp.random_sp(2, rng)
            ja = sp.conjugate_taming(a, j)
            va = np.einsum("AB,Bmn->Amn", a, v)
            ta = fl.stress_gauge(g, ja, va)
            assert np.max(np.abs(ta - t)) < 1e-10 * max(1, np.max(np.abs(t)))

    def test_warns_on_non_selfdual_input(self, rng):
        g = fl.random_lorentz_metric(rng)
        j = sp.random_taming(1, rng)
        v = fl.random_two_forms(2, rng)  # generic: not twisted self-dual
        with pytest.warns(UserWarning):
            fl.stress_gauge(g, j, v)


class TestStressScalar:
    def test_zero_gradient(self, rng):
        g = fl.random_lorentz_metric(rng)
        assert np.array_equal(fl.stress_scalar(g, np.eye(2), np.zeros((4, 2))),
                              np.zeros((4, 4)))

    def test_unit_time_gradient_on_minkowski(self):
        dphi = np.zeros((4, 1))
        dphi[0, 0] = 1.0
        t = fl.stress_scalar(fl.ETA, np.eye(1), dphi)
        # d_0 phi = 1: (dphi)^2 = -1, so T = diag(1,0,0,0) + (1/2) eta
        assert np.allclose(t, np.diag([0.5, 0.5, 0.5, 0.5]), atol=1e-14)

    def test_brute_force_oracle(self, rng):
        # independent index-by-index loop evaluation
        for _ in range(20):
            g = fl.random_lorentz_metric(rng)
            ginv = np.linalg.inv(g)
            cm = np.eye(2) + 0.2 * np.ones((2, 2))
            dphi = rng.standard_normal((4, 2))
            t = fl.stress_scalar(g, cm, dphi)
            oracle = np.zeros((4, 4))
            kinetic = 0.0
            for i in range(2):
                for jj in range(2):
                    for c in range(4):
                        for d in range(4):
                            kinetic += cm[i, jj] * dphi[c, i] * dphi[d, jj] * ginv[c, d]
            for a in range(4):
                for b in range(4):
                    val = 0.0
                    for i in range(2):
                        for jj in range(2):
                            val += cm[i, jj] * dphi[a, i] * dphi[b, jj]
                    oracle[a, b] = val - 0.5 * g[a, b] * kinetic
            assert np.max(np.abs(t - oracle)) < 1e-11 * max(1, np.max(np.abs(t)))

    def test_linear_in_chart_metric(self, rng):
        g = fl.random_lorentz_metric(rng)
        dphi = rng.standard_normal((4, 2))
        cm = np.eye(2)
        assert np.allclose(fl.stress_scalar(g, 2 * cm, dphi),
                           2 * fl.stress_scalar(g, cm, dphi), atol=1e-13)

    def test_symmetry(self, rng):
        g = fl.random_lorentz_metric(rng)
        t = fl.stress_scalar(g, np.eye(3), rng.standard_normal((4, 3)))
        assert np.max(np.abs(t - t.T)) < 1e-13
