"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from emduality import duality as du
from emduality import fields as fl
from emduality import grids as gr
from emduality import holonomy as ho
from emduality import models as md
from emduality import spinors as sn
from emduality import symplectic as sp


@contextmanager
def criterion(num, label):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [{label}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num} [{label}]: PASS ({time.time() - t0:.1f}s)")


def test_criterion_1_stabilizer_dimensions():
    with criterion(1, "stabilizer dimensions"):
        t0 = time.time()
        for nv in (1, 2, 3):
            name = "constant-i" if nv == 1 else f"constant-i:{nv}"
            rep = du.stab_sp_algebra(md.builtin(name))
            assert rep.dim_stab_sp == nv * nv
            assert rep.residual <= 1e-8

        rep = du.stab_sp_algebra(md.builtin("identity-tau"))
        assert rep.dim_stab_sp == 0
        assert rep.minus_id_fixes_period  # exact +-Id fixed-point check

        rep = du.stab_sp_algebra(md.builtin("axio-dilaton"))
        assert rep.dim_stab_sp == 1
        assert rep.residual <= 1e-8
        x = rep.basis[0] / np.linalg.norm(rep.basis[0], 2)
        # diagonal so(2)+so(2) generator: X^2 = -Id with spectrum {i,i,-i,-i}
        assert np.max(np.abs(x @ x + np.eye(4))) <= 1e-8
        ev = np.linalg.eigvals(x)
        assert np.max(np.abs(ev.real)) <= 1e-8
        assert np.allclose(np.sort(ev.imag), [-1, -1, 1, 1], atol=1e-8)

        rep = du.stab_sp_algebra(md.builtin("t3"))
        assert rep.dim_stab_sp == 0
        assert time.time() - t0 < 5.0


def test_criterion_2_uduality_dimensions():
    with criterion(2, "U-duality algebra dimensions"):
        t0 = time.time()
        expected = {"constant-i": (4, 1, 3), "identity-tau": (3, 0, 3),
                    "axio-dilaton": (4, 1, 3), "t3": (3, 0, 3)}
        for name, dims in expected.items():
            rep = du.uduality_algebra(md.builtin(name))
            assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr) == dims, name
            assert rep.exactness_gap == 0, name
        assert time.time() - t0 < 10.0


def test_criterion_3_bijection_round_trips_and_action_laws():
    with criterion(3, "bijection round trips and action laws"):
        rng = np.random.default_rng(123)
        for n in (1, 2, 3):
            for _ in range(1000):
                em = sp.random_couplings(n, rng)
                em2 = sp.gamma_inv(sp.gamma(em))
                assert np.max(np.abs(em.R - em2.R)) <= 1e-12
                assert np.max(np.abs(em.I - em2.I)) <= 1e-12
                j = sp.random_taming(n, rng)
                j2 = sp.mu_inv(sp.mu(j))
                assert np.max(np.abs(j.J - j2.J)) <= 1e-12

        rng = np.random.default_rng(321)
        ident_worst = 0.0
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a1, a2 = sp.random_sp(n, rng), sp.random_sp(n, rng)
            t = sp.mu(sp.random_taming(n, rng)).tau
            # identity law
            ident = sp.fractional_action(np.eye(2 * n), t)
            ident_worst = max(ident_worst, float(np.max(np.abs(ident - t))))
            # composition law, through checked images
            lhs = sp.fractional_action(a1 @ a2, t)
            rhs = sp.SiegelPoint(sp.fractional_action(
                a1, sp.SiegelPoint(sp.fractional_action(a2, t)).tau)).tau
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
            # Siegel preservation
            assert sp.min_eig_ratio(rhs.imag) > 0
        assert ident_worst == 0.0


def test_criterion_4_twisted_selfduality_equivalence():
    with criterion(4, "twisted self-duality equivalence and block identity"):
        rng = np.random.default_rng(44)
        for k in range(500):
            nv = int(rng.integers(1, 4))
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(nv, rng)
            j = sp.gamma(em)
            f = fl.random_two_forms(nv, rng)
            v = fl.assemble_V(f, em, g)
            scale = max(1.0, float(np.max(np.abs(v))))
            # forward: assembled block solves the constraint
            assert fl.selfduality_violation(g, j, v) <= 1e-10 * scale
            # converse: project a generic block, reconstruct from its upper half
            w, _ = fl.project_sd(g, j, fl.random_two_forms(2 * nv, rng))
            rebuilt = fl.assemble_V(w[:nv].real, em, g)
            assert np.max(np.abs(rebuilt - w)) <= 1e-10 * max(1.0, np.max(np.abs(w)))
            # period-matrix block identity for the self-dual complexification
            vp = fl.complexify_plus(v, g)
            n_mat = em.R + 1j * em.I
            pred = np.einsum("LS,Smn->Lmn", n_mat.conj(), vp[:nv])
            assert np.max(np.abs(vp[nv:] - pred)) <= 1e-10 * scale
            # involution signs
            if k < 100:
                ww = fl.random_two_forms(1, rng)[0]
                assert np.max(np.abs(fl.hodge2(g, fl.hodge2(g, ww)) + ww)) <= \
                    1e-12 * max(1.0, np.max(np.abs(ww)))
                ts2 = fl.twisted_star(g, j, fl.twisted_star(g, j, v))
                assert np.max(np.abs(ts2 - v)) <= 1e-12 * scale * 10


def test_criterion_5_stress_tensor_identities():
    with criterion(5, "stress tensor duality invariance"):
        rng = np.random.default_rng(55)
        for _ in range(200):
            nv = int(rng.integers(1, 3))
            g = fl.random_lorentz_metric(rng)
            em = sp.random_couplings(nv, rng)
            j = sp.gamma(em)
            f = fl.random_two_forms(nv, rng)
            v = fl.assemble_V(f, em, g)
            t = fl.stress_gauge(g, j, v)
            scale = max(1.0, float(np.max(np.abs(t))))
            # omega-form equals the coupling form
            t2 = fl.stress_gauge_couplings(g, em, f)
            assert np.max(np.abs(t - t2)) <= 1e-10 * scale
            # invariance under symplectic conjugation
            a = sp.random_sp(nv, rng)
            ta = fl.stress_gauge(g, sp.conjugate_taming(a, j),
                                 np.einsum("AB,Bmn->Amn", a, v))
            assert np.max(np.abs(ta - t)) <= 1e-10 * scale


def _manufactured_configs(model, rng):
    grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
    mink = gr.metric_minkowski(grid)
    zero_f = np.zeros(grid.shape + (model.n_v, 4, 4))
    configs = [
        gr.make_configuration(grid, model, mink,
                              gr.phi_constant(grid, [0.1, 1.2]), zero_f),
        gr.make_configuration(grid, model, mink,
                              gr.phi_linear(grid, [0.0, 1.2],
                                            0.06 * rng.standard_normal((4, 2))),
                              gr.random_polynomial_fieldstrength(
                                  grid, model.n_v, rng, amp=0.2)),
        gr.make_configuration(grid, model,
                              gr.metric_quadratic(grid, [(0, 1, 1, 1, 0.02),
                                                         (2, 2, 0, 0, 0.03)]),
                              gr.phi_linear(grid, [0.05, 1.1],
                                            0.05 * rng.standard_normal((4, 2))),
                              gr.random_polynomial_fieldstrength(
                                  grid, model.n_v, rng, amp=0.15)),
    ]
    return configs


def test_criterion_6_equivariance_harness():
    with criterion(6, "duality transport equivariance"):
        rng = np.random.default_rng(66)
        # Minkowski vacuum residuals at machine level
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        vac = gr.make_configuration(grid, md.builtin("identity-tau"),
                                    gr.metric_minkowski(grid),
                                    gr.phi_constant(grid, [0.0, 1.0]),
                                    np.zeros(grid.shape + (1, 4, 4)))
        rep = gr.residual_report(vac)
        assert rep.einstein_max <= 1e-12
        assert rep.scalar_max <= 1e-12
        assert rep.maxwell_max <= 1e-12

        for name in ("identity-tau", "axio-dilaton", "t3"):
            model = md.builtin(name)
            for cfg in _manufactured_configs(model, rng):
                # local vs global scalar assembly
                inner = cfg.grid.interior()
                loc = gr.scalar_residual(cfg, "local")[inner]
                glo = gr.scalar_residual(cfg, "global")[inner]
                assert np.max(np.abs(loc - glo)) <= 1e-9
                for _ in range(5):
                    a = sp.random_sp(model.n_v, rng)
                    out = gr.equivariance_harness(
                        cfg, md.identity_isometry(model.chart), a)
                    assert out.max_discrepancy <= 1e-9, name

        # a same-theory pair: the unit translation on the identity map model
        model = md.builtin("identity-tau")
        cfg = _manufactured_configs(model, rng)[1]
        f = md.parse_isometry("translate:1.0", model.chart)
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = gr.equivariance_harness(cfg, f, a)
        assert out.max_discrepancy <= 1e-9


def test_criterion_7_convergence_orders():
    with criterion(7, "finite-difference convergence"):
        from test_grids import sin_metric, sin_metric_oracle, line_grid

        errs = []
        for n0 in (9, 17, 33, 65):
            grid = line_grid(n0)
            got = gr.einstein(sin_metric(grid), grid)
            ts = grid.axes[0]
            worst = 0.0
            for i0 in range(2, n0 - 2):
                if abs(ts[i0]) > 0.51:
                    continue
                worst = max(worst, float(np.max(np.abs(
                    got[i0, 3, 3, 3] - sin_metric_oracle(ts[i0])))))
            errs.append(worst)
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.6 <= e0 / e1 <= 4.4, f"einstein ratios {errs}"

        model = md.builtin("identity-tau")
        a1, a2, w = 0.3, 0.25, 1.5

        def oracle(tval):
            phi0 = np.array([a1 * np.sin(w * tval), 1.2 + a2 * np.cos(w * tval)])
            dphi = np.array([a1 * w * np.cos(w * tval), -a2 * w * np.sin(w * tval)])
            d2phi = np.array([-a1 * w * w * np.sin(w * tval),
                              -a2 * w * w * np.cos(w * tval)])
            y = phi0[1]
            cm = np.eye(2) / y ** 2
            dcm = np.zeros((2, 2, 2))
            dcm[1] = -2 / y ** 3 * np.eye(2)
            box = -d2phi
            gradsq = -np.outer(dphi, dphi)
            out = np.zeros(2)
            for k in range(2):
                lhs = sum(cm[i, k] * box[i] for i in range(2)) + sum(
                    dcm[j, i, k] * gradsq[j, i] for i in range(2) for j in range(2))
                rhs = 0.5 * sum(dcm[k, i, j] * gradsq[i, j]
                                for i in range(2) for j in range(2))
                out[k] = lhs - rhs
            return out

        errs = []
        for n0 in (9, 17, 33, 65):
            grid = line_grid(n0)
            t = grid.coords()[..., 0]
            phi = np.stack([a1 * np.sin(w * t), 1.2 + a2 * np.cos(w * t)], axis=-1)
            cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid),
                                        phi, np.zeros(grid.shape + (1, 4, 4)))
            res = gr.scalar_residual(cfg)
            ts = grid.axes[0]
            worst = 0.0
            for i0 in range(2, n0 - 2):
                if abs(ts[i0]) > 0.51:
                    continue
                worst = max(worst, float(np.max(np.abs(res[i0, 3, 3, 3]
                                                       - oracle(ts[i0])))))
            errs.append(worst)
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.6 <= e0 / e1 <= 4.4, f"scalar ratios {errs}"


def test_criterion_8_centralizer_suite():
    with criterion(8, "holonomy centralizer suite"):
        from test_holonomy import gl_commutant_oracle

        for nv in (1, 2, 3):
            _, dim = ho.centralizer_algebra(ho.BundlePresentation(nv))
            assert dim == nv * (2 * nv + 1)

        rng = np.random.default_rng(88)
        rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        for gen in (rot, np.diag([2.0, 0.5])):
            p = ho.BundlePresentation(1, [gen])
            _, dim = ho.centralizer_algebra(p)
            assert dim == 1
            assert dim == gl_commutant_oracle(p.generators, 1)

        for nv in (1, 2):
            j0 = sp.gamma(sp.ElectromagneticPair(np.zeros((nv, nv)), np.eye(nv)))
            _, dim = ho.autb_theta_algebra(ho.BundlePresentation(nv), j0)
            assert dim == nv * nv

        gens = [sp.random_sp(1, rng), sp.random_sp(1, rng)]
        pres = ho.BundlePresentation(1, gens)
        s = sp.random_sp(1, rng)
        sinv = np.linalg.inv(s)
        conj = ho.BundlePresentation(1, [s @ g @ sinv for g in gens])
        v1 = ho.conjugacy_invariants(pres, 4)
        v2 = ho.conjugacy_invariants(conj, 4)
        assert np.max(np.abs(v1 - v2)) <= 1e-10 * max(1.0, float(np.max(np.abs(v1))))


def test_criterion_9_spinor_suite():
    with criterion(9, "Killing spinor suite"):
        t0 = time.time()
        eps0 = np.array([0.9, -0.4, 0.3, 1.1])
        lam = 1.0

        # Minkowski parallel spinor at machine level
        gridm = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        frm = sn.builtin_frame("minkowski", gridm)
        eps_const = np.broadcast_to(eps0, gridm.shape + (4,)).copy()
        assert sn.killing_residual_max(frm, eps_const, 0.0) <= 1e-14

        def region(grid):
            co = grid.coords()
            return ((np.abs(co[..., 0]) <= 0.201) & (np.abs(co[..., 1]) <= 0.201)
                    & (np.abs(co[..., 2]) <= 0.201)
                    & (co[..., 3] >= 0.999) & (co[..., 3] <= 1.401))

        res_err, ric_err, defects, du_c, dl_c = [], [], [], [], []
        hs = []
        for n in (9, 17):
            grid = gr.GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4),
                                 (0.8, 1.6)), (n,) * 4)
            hs.append(float(grid.h[0]))
            fr = sn.builtin_frame("ads4-poincare", grid, lam=lam)
            eps = sn.integrate_killing(fr, lam, eps0)
            eps_rev = sn.integrate_killing(fr, lam, eps0, axis_order=(3, 2, 1, 0))
            corner = tuple(k - 1 for k in grid.shape)
            defects.append(float(np.max(np.abs(eps[corner] - eps_rev[corner]))))
            mask = region(grid)
            res = sn.killing_residual(fr, eps, lam)
            res_err.append(float(np.max(np.abs(res[mask]))))
            g = fr.metric()
            ric = gr.ricci(g, grid)
            ric_err.append(float(np.max(np.abs((ric + 3 * lam ** 2 * g)[mask]))))
            u, l = sn.killing_bilinears(fr, eps)
            kappa = sn.extract_kappa(u, l, lam, g, grid)
            out = sn.verify_thm53(u, l, kappa, lam, g, grid)
            assert out.nontrivial
            assert out.u_norm_violation <= 1e-10
            assert out.l_norm_violation <= 1e-9
            assert out.orthogonality_violation <= 1e-10
            du_c.append(out.du_residual / hs[-1] ** 2)
            dl_c.append(out.dl_residual / hs[-1] ** 2)

        order = float(np.log2(res_err[0] / res_err[1]))
        assert 1.8 <= order <= 2.2, f"killing residual order {order}"
        assert defects[1] < 0.3 * defects[0]  # integrability defect shrinks
        ric_order = float(np.log2(ric_err[0] / ric_err[1]))
        assert 1.8 <= ric_order <= 2.2, f"einstein-property order {ric_order}"
        # residuals <= C h^2 with C stable under refinement
        assert 0.5 <= du_c[1] / du_c[0] <= 2.0
        assert 0.5 <= dl_c[1] / dl_c[0] <= 2.0
        assert time.time() - t0 < 60.0
