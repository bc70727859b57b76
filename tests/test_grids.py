import itertools
import tracemalloc

import numpy as np
import pytest

from emduality import fields as fl
from emduality import grids as gr
from emduality import models as md
from emduality import symplectic as sp


def small_grid(n=7, half=0.4):
    return gr.GridPatch(((-half, half),) * 4, (n,) * 4)


def line_grid(n0, half0=1.0):
    return gr.GridPatch(((-half0, half0), (-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4)),
                        (n0, 7, 7, 7))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ------------------------------------------------- exact-derivative oracles

def old_maxwell_residual(v, grid):
    """All 64 entries of dV per fiber index, grid + (2 n_v, 4, 4, 4): the
    antisymmetrised d_a V_{mn} of the rank-5 formula the compact residual
    replaced."""
    dv = np.moveaxis(gr.partials(v, grid), -1, -3)  # (..., A, a, m, n) = d_a V_{mn}
    return (dv + np.einsum("...Amna->...Aamn", dv)
            + np.einsum("...Anam->...Aamn", dv))


def einstein_oracle(g0, dg, d2g):
    """Direct index-summation Einstein tensor from exact derivative values.

    dg[l, m, n] = d_l g_mn, d2g[l, k, m, n] = d_l d_k g_mn."""
    gi = np.linalg.inv(g0)
    gam = np.zeros((4, 4, 4))
    dgam = np.zeros((4, 4, 4, 4))
    for r in range(4):
        for m in range(4):
            for n in range(4):
                gam[r, m, n] = 0.5 * sum(
                    gi[r, s] * (dg[m, s, n] + dg[n, s, m] - dg[s, m, n]) for s in range(4))
    dgi = np.array([-gi @ dg[l] @ gi for l in range(4)])
    for l in range(4):
        for r in range(4):
            for m in range(4):
                for n in range(4):
                    acc = 0.0
                    for s in range(4):
                        acc += dgi[l, r, s] * (dg[m, s, n] + dg[n, s, m] - dg[s, m, n])
                        acc += gi[r, s] * (d2g[l, m, s, n] + d2g[l, n, s, m]
                                           - d2g[l, s, m, n])
                    dgam[l, r, m, n] = 0.5 * acc
    ric = np.zeros((4, 4))
    for m in range(4):
        for n in range(4):
            acc = 0.0
            for r in range(4):
                acc += dgam[r, r, m, n] - dgam[n, r, r, m]
                for l in range(4):
                    acc += gam[r, r, l] * gam[l, m, n] - gam[r, n, l] * gam[l, r, m]
            ric[m, n] = acc
    rs = float(np.einsum("mn,mn->", gi, ric))
    return ric - 0.5 * g0 * rs


SIN_S = np.array([[0.0, 0.3, 0.1, 0.0], [0.3, 0.2, 0.0, 0.1],
                  [0.1, 0.0, -0.1, 0.2], [0.0, 0.1, 0.2, 0.3]])
SIN_AMP, SIN_W, SIN_PH = 0.05, 2.0, 0.3


def sin_metric(grid):
    t = grid.coords()[..., 0]
    return fl.ETA + SIN_AMP * np.sin(SIN_W * t + SIN_PH)[..., None, None] * SIN_S


def sin_metric_oracle(tval):
    g0 = fl.ETA + SIN_AMP * np.sin(SIN_W * tval + SIN_PH) * SIN_S
    dg = np.zeros((4, 4, 4))
    dg[0] = SIN_AMP * SIN_W * np.cos(SIN_W * tval + SIN_PH) * SIN_S
    d2g = np.zeros((4, 4, 4, 4))
    d2g[0, 0] = -SIN_AMP * SIN_W ** 2 * np.sin(SIN_W * tval + SIN_PH) * SIN_S
    return einstein_oracle(g0, dg, d2g)


class TestCurvature:
    def test_minkowski_exact_zero(self):
        grid = small_grid()
        g = gr.metric_minkowski(grid)
        assert np.max(np.abs(gr.christoffel(g, grid))) == 0.0
        assert np.max(np.abs(gr.ricci(g, grid))) == 0.0
        assert np.max(np.abs(gr.einstein(g, grid))) == 0.0

    def test_quadratic_metric_matches_oracle(self):
        # quadratic data keeps every stencil exact, so the finite-difference
        # Einstein tensor equals the exact-derivative oracle to roundoff
        grid = small_grid(n=9, half=0.5)
        terms = [(0, 1, 1, 1, 0.03), (2, 3, 0, 2, 0.02), (1, 1, 2, 2, 0.01),
                 (0, 0, 3, 3, -0.02)]
        g = gr.metric_quadratic(grid, terms)
        center = (4, 4, 4, 4)
        x0 = grid.coords()[center]

        g0 = np.array(fl.ETA)
        dg = np.zeros((4, 4, 4))
        d2g = np.zeros((4, 4, 4, 4))
        for (mu, nu, a, b, c) in terms:
            pairs = [(mu, nu)] if mu == nu else [(mu, nu), (nu, mu)]
            for (m, n) in pairs:
                g0[m, n] += c * x0[a] * x0[b]
                for l in range(4):
                    dg[l, m, n] += c * ((a == l) * x0[b] + (b == l) * x0[a])
                    for k in range(4):
                        d2g[l, k, m, n] += c * ((a == l) * (b == k) + (b == l) * (a == k))
        expect = einstein_oracle(g0, dg, d2g)
        got = gr.einstein(g, grid)[center]
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_einstein_convergence_order(self):
        errs = []
        for n0 in (9, 17, 33):
            grid = line_grid(n0)
            got = gr.einstein(sin_metric(grid), grid)
            ts = grid.axes[0]
            worst = 0.0
            for i0 in range(2, n0 - 2):
                if abs(ts[i0]) > 0.51:
                    continue
                worst = max(worst, np.max(np.abs(got[i0, 3, 3, 3]
                                                 - sin_metric_oracle(ts[i0]))))
            errs.append(worst)
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.6 <= e0 / e1 <= 4.4

    def test_singular_metric_flagged(self):
        grid = small_grid()
        g = gr.metric_minkowski(grid)
        g[3, 3, 3, 3] = 0.0
        with pytest.raises(fl.SingularMetricError):
            gr.christoffel(g, grid)


def test_grid_of_more_than_33_to_the_4_nodes_is_refused():
    gr.GridPatch(((-0.4, 0.4),) * 4, (33,) * 4)   # the largest grid, not allocated
    with pytest.raises(gr.GridError, match="more than 1185921 nodes"):
        gr.GridPatch(((-0.4, 0.4),) * 4, (33, 33, 33, 34))


def test_node_box_of_a_coordinate_box():
    grid = gr.GridPatch(((-0.4, 0.4), (0.0, 1.0), (1.0, 2.2), (-1.0, -0.5)), (9, 11, 7, 8))
    axes = grid.axes
    inner = tuple((ax[s][0], ax[s][-1]) for ax, s in zip(axes, grid.interior()))
    assert grid.node_box(inner) == grid.interior()
    assert grid.node_box(grid.extents) == tuple(slice(0, n) for n in grid.shape)
    fine = grid.refine()
    assert fine.node_box(inner) == tuple(slice(2 * gr.MARGIN, n - 2 * gr.MARGIN)
                                         for n in fine.shape)
    # faces between nodes: the nodes strictly inside
    between = tuple((ax[1] + 0.5 * h, ax[4] - 0.5 * h) for ax, h in zip(axes, grid.h))
    assert grid.node_box(between) == (slice(2, 4),) * 4


class TestConfiguration:
    def test_vacuum_minkowski_all_zero(self):
        grid = small_grid()
        cfg = gr.make_configuration(grid, md.builtin("identity-tau"),
                                    gr.metric_minkowski(grid),
                                    gr.phi_constant(grid, [0.1, 1.0]),
                                    np.zeros(grid.shape + (1, 4, 4)))
        rep = gr.residual_report(cfg.on(cfg.grid.interior()))
        assert rep.einstein_max <= 1e-12
        assert rep.scalar_max <= 1e-12
        assert rep.maxwell_max <= 1e-12
        assert rep.selfdual_violation <= 1e-12

    def test_selfdual_by_construction(self, rng):
        grid = small_grid()
        model = md.builtin("t3")
        phi = gr.phi_linear(grid, [0.05, 1.1],
                            0.08 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.2)
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi, f)
        assert cfg.on(cfg.grid.interior()).selfduality_violation() < 1e-12

    def test_signature_validated(self):
        grid = small_grid()
        g = gr.metric_minkowski(grid)
        g[2, 2, 2, 2] = np.diag([1.0, 1.0, 1.0, 1.0])
        phi = gr.phi_constant(grid, [0.0, 1.0])
        model = md.builtin("identity-tau")
        named = r"not Lorentzian .* node index \(2, 2, 2, 2\)"
        with pytest.raises(fl.SingularMetricError, match=named):
            gr.make_configuration(grid, model, g, phi, np.zeros(grid.shape + (1, 4, 4)))
        # a bare configuration takes a checked geometry, which refuses the metric
        with pytest.raises(fl.SingularMetricError, match=named):
            gr.FieldConfiguration(model, gr.checked_geometry(g, grid), phi,
                                  np.zeros(grid.shape + (2, 4, 4)))

    def test_metric_shape_validated(self):
        grid = small_grid()
        with pytest.raises(gr.GridError, match="metric shape .* does not match grid"):
            gr.checked_geometry(gr.metric_minkowski(grid)[1:], grid)

    def test_domain_exit_flagged(self):
        grid = small_grid()
        with pytest.raises(gr.DomainExitError):
            gr.make_configuration(grid, md.builtin("identity-tau"),
                                  gr.metric_minkowski(grid),
                                  gr.phi_constant(grid, [0.0, -1.0]),
                                  np.zeros(grid.shape + (1, 4, 4)))


class TestEinsteinResidual:
    def test_constant_field_residual_is_minus_stress(self):
        grid = small_grid()
        model = md.builtin("constant-i:2")
        terms = [(0, 0, 1, 0.3, (0, 0, 0, 0)), (1, 2, 3, 0.2, (0, 0, 0, 0))]
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid),
                                    gr.phi_constant(grid, [0.0, 1.0]),
                                    gr.field_strength_polynomial(grid, 2, terms))
        res = gr.einstein_residual(cfg.on(gr.WHOLE))[grid.interior()]
        em = sp.ElectromagneticPair(np.zeros((2, 2)), np.eye(2))
        f0 = np.zeros((2, 4, 4))
        f0[0, 0, 1], f0[0, 1, 0] = 0.3, -0.3
        f0[1, 2, 3], f0[1, 3, 2] = 0.2, -0.2
        t = fl.stress_gauge(fl.ETA, sp.gamma(em), fl.assemble_V(f0, em, fl.ETA))
        assert np.max(np.abs(res + t)) < 1e-12

    def test_manufactured_matches_oracle_at_center(self, rng):
        # quadratic metric, linear phi, constant F: every derivative is
        # stencil-exact, so the residual matches a brute-force assembly
        grid = small_grid(n=9, half=0.5)
        model = md.builtin("identity-tau")
        terms = [(0, 1, 1, 1, 0.02), (2, 2, 0, 0, 0.03)]
        g = gr.metric_quadratic(grid, terms)
        slopes = 0.05 * rng.standard_normal((4, 1)) @ np.array([[1.0, 0.4]])
        phi = gr.phi_linear(grid, [0.0, 1.2], slopes)
        f = gr.field_strength_polynomial(grid, 1, [(0, 0, 1, 0.25, (0, 0, 0, 0))])
        cfg = gr.make_configuration(grid, model, g, phi, f)
        res = gr.einstein_residual(cfg.on(gr.WHOLE))
        center = (4, 4, 4, 4)
        x0 = grid.coords()[center]

        g0 = np.array(fl.ETA)
        dg = np.zeros((4, 4, 4))
        d2g = np.zeros((4, 4, 4, 4))
        for (mu, nu, a, b, c) in terms:
            pairs = [(mu, nu)] if mu == nu else [(mu, nu), (nu, mu)]
            for (m, n) in pairs:
                g0[m, n] += c * x0[a] * x0[b]
                for l in range(4):
                    dg[l, m, n] += c * ((a == l) * x0[b] + (b == l) * x0[a])
                    for k in range(4):
                        d2g[l, k, m, n] += c * ((a == l) * (b == k) + (b == l) * (a == k))
        gt = einstein_oracle(g0, dg, d2g)
        p0 = np.array([0.0, 1.2]) + x0 @ slopes
        tau = model.period(p0).tau
        em = sp.ElectromagneticPair(tau.real, tau.imag)
        f0 = np.zeros((1, 4, 4))
        f0[0, 0, 1], f0[0, 1, 0] = 0.25, -0.25
        t_gauge = fl.stress_gauge(g0, sp.gamma(em), fl.assemble_V(f0, em, g0))
        t_scal = fl.stress_scalar(g0, np.eye(2) / p0[1] ** 2, slopes)
        assert np.max(np.abs(res[center] - (gt - t_scal - t_gauge))) < 1e-10

    def test_warns_if_not_selfdual(self, rng):
        grid = small_grid()
        model = md.builtin("identity-tau")
        v = fl.random_two_forms(2, rng)[None, None, None, None] * np.ones(
            grid.shape + (1, 1, 1))
        cfg = gr.FieldConfiguration(model, gr.checked_geometry(gr.metric_minkowski(grid), grid),
                                    gr.phi_constant(grid, [0.3, 1.0]), v)
        with pytest.warns(UserWarning):
            gr.einstein_residual(cfg.on(gr.WHOLE))


class TestScalarResidual:
    def test_constant_phi_no_field(self):
        grid = small_grid()
        cfg = gr.make_configuration(grid, md.builtin("t3"),
                                    gr.metric_minkowski(grid),
                                    gr.phi_constant(grid, [0.2, 1.3]),
                                    np.zeros(grid.shape + (2, 4, 4)))
        assert np.max(np.abs(gr.scalar_residual(cfg.on(gr.WHOLE))[grid.interior()])) <= 1e-13

    def test_linear_phi_flat_chart_stencil_exact(self):
        # linear scalar map on Minkowski with flat chart: residual exactly 0
        text = "nv=1\nchart=flat\ndim=2\nN[1,1] = i + x1*0 + x2*0"
        model = md.parse_model(text)
        grid = small_grid()
        phi = gr.phi_linear(grid, [0.0, 0.0], 0.3 * np.ones((4, 2)))
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi,
                                    np.zeros(grid.shape + (1, 4, 4)))
        assert np.max(np.abs(gr.scalar_residual(cfg.on(gr.WHOLE))[grid.interior()])) <= 1e-12

    def test_constant_couplings_kill_gauge_source(self, rng):
        # constant period map: fundamental form vanishes, so the gauge source
        # is identically zero and the residual is the pure sigma-model part
        grid = small_grid()
        model = md.builtin("constant-i:2")
        phi = gr.phi_linear(grid, [0.0, 1.2], 0.06 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.3)
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi, f)
        assert np.max(np.abs(gr.local_gauge_source(cfg.on(gr.WHOLE)))) == 0.0
        assert np.max(np.abs(gr.psi_form_source(cfg.on(gr.WHOLE)))) == 0.0
        with_field = gr.scalar_residual(cfg.on(gr.WHOLE))[grid.interior()]
        cfg0 = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi,
                                     np.zeros(grid.shape + (2, 4, 4)))
        without = gr.scalar_residual(cfg0.on(gr.WHOLE))[grid.interior()]
        assert np.max(np.abs(with_field - without)) <= 1e-13

    def test_local_vs_global_assembly(self, rng):
        # the two assemblies share discrete derivatives and must agree to
        # roundoff on arbitrary configurations
        grid = small_grid()
        for name in ("identity-tau", "axio-dilaton", "t3"):
            model = md.builtin(name)
            phi = gr.phi_linear(grid, [0.05, 1.15],
                                0.07 * rng.standard_normal((4, 2)))
            f = gr.random_polynomial_fieldstrength(grid, model.n_v, rng, amp=0.25)
            g = gr.metric_quadratic(grid, [(0, 1, 1, 1, 0.02), (2, 2, 0, 0, 0.03)])
            cfg = gr.make_configuration(grid, model, g, phi, f)
            loc = gr.scalar_residual(cfg.on(gr.WHOLE), "local")[grid.interior()]
            glo = gr.scalar_residual(cfg.on(gr.WHOLE), "global")[grid.interior()]
            assert np.max(np.abs(loc - glo)) <= 1e-9 * max(1, np.max(np.abs(loc)))

    def test_psi_source_normalization(self, rng):
        # empirical constant between the taming-form and coupling-form gauge
        # sources is exactly -1 in these conventions
        grid = small_grid()
        model = md.builtin("t3")
        phi = gr.phi_linear(grid, [0.1, 1.2], 0.05 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.3)
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi, f)
        s_psi = gr.psi_form_source(cfg.on(gr.WHOLE))[grid.interior()]
        s_loc = gr.local_gauge_source(cfg.on(gr.WHOLE))[grid.interior()]
        scale = max(1e-12, float(np.max(np.abs(s_loc))))
        assert scale > 1e-4  # the sources are genuinely nonzero here
        assert np.max(np.abs(s_psi + s_loc)) < 1e-11 * scale

    def test_convergence_order(self):
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
        for n0 in (9, 17, 33):
            grid = line_grid(n0)
            t = grid.coords()[..., 0]
            phi = np.stack([a1 * np.sin(w * t), 1.2 + a2 * np.cos(w * t)], axis=-1)
            cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi,
                                        np.zeros(grid.shape + (1, 4, 4)))
            res = gr.scalar_residual(cfg.on(gr.WHOLE))
            ts = grid.axes[0]
            worst = 0.0
            for i0 in range(2, n0 - 2):
                if abs(ts[i0]) > 0.51:
                    continue
                worst = max(worst, np.max(np.abs(res[i0, 3, 3, 3] - oracle(ts[i0]))))
            errs.append(worst)
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.6 <= e0 / e1 <= 4.4


class TestMaxwellResidual:
    def test_constant_block_exact_zero(self):
        grid = small_grid()
        model = md.builtin("constant-i:2")
        f = gr.field_strength_polynomial(grid, 2, [(0, 0, 1, 0.4, (0, 0, 0, 0))])
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid),
                                    gr.phi_constant(grid, [0.0, 1.0]), f)
        assert np.max(np.abs(gr.maxwell_residual(cfg.on(gr.WHOLE))[grid.interior()])) == 0.0

    def test_exterior_derivative_of_potential_closes(self, rng):
        # V = dA for polynomial A of degree <= 2: d(dA) = 0 stencil-exactly
        grid = small_grid(n=9, half=0.5)
        x = grid.coords()
        a = np.zeros(grid.shape + (2, 4))
        for ell in range(2):
            for mu in range(4):
                a[..., ell, mu] = (rng.standard_normal() * x[..., 0] * x[..., 1]
                                   + rng.standard_normal() * x[..., 2] ** 2
                                   + rng.standard_normal() * x[..., 3])
        da = gr.partials(a, grid)  # (..., L, mu, a) = d_a A_mu
        v = np.moveaxis(da, -1, -2) - da  # V_{mn} = d_m A_n - d_n A_m

        class Holder:
            pass

        cfg = Holder()
        cfg.grid = grid
        cfg.V = v
        res = gr.maxwell_residual(gr.BoxFields(cfg, gr.WHOLE))[grid.interior()]
        assert np.max(np.abs(res)) < 1e-12

    def test_nonclosed_component_detected_at_correct_nodes(self):
        grid = small_grid()
        model = md.builtin("identity-tau")
        # F = x^2 dt^dx is not closed in the (2, 0, 1) slot: dF = 2x dx^dt^dx=0;
        # use F = y dt^dx instead: dF = dy^dt^dx nonzero everywhere
        f = gr.field_strength_polynomial(grid, 1, [(0, 0, 1, 1.0, (0, 0, 1, 0))])
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid),
                                    gr.phi_constant(grid, [0.0, 1.0]), f)
        res = gr.maxwell_residual(cfg.on(gr.WHOLE))[grid.interior()]
        # the (F-block, a=0, m=1, n=2) component is dF(dt, dx, dy) = 1
        assert np.max(np.abs(res[..., 0, 0])) == pytest.approx(1.0)
        # the lower block picks up the matching R F - I *F derivative, nonzero
        assert np.max(np.abs(res)) > 0.5

    @pytest.mark.parametrize("resolution", [(7, 7, 7, 7), (7, 9, 11, 8)])
    def test_compact_components_match_64_entry_oracle(self, resolution):
        grid = gr.GridPatch(((-0.4, 0.4), (-0.3, 0.5), (-0.6, 0.2), (0.0, 0.9)), resolution)
        model = md.builtin("t3")
        rng = np.random.default_rng(5)
        g = gr.metric_quadratic(grid, [(0, 1, 1, 1, 0.03), (2, 3, 0, 2, 0.02),
                                       (1, 1, 2, 2, 0.01), (0, 0, 3, 3, -0.02)])
        phi = gr.phi_linear(grid, [0.05, 1.2], 0.08 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, model.n_v, rng, amp=0.3)
        cfg = gr.make_configuration(grid, model, g, phi, f)
        res = gr.maxwell_residual(cfg.on(gr.WHOLE))
        old = old_maxwell_residual(cfg.V, grid)
        assert res.shape == grid.shape + (2 * model.n_v, 4)
        scale = float(np.max(np.abs(old)))
        assert scale > 0.1
        tol = 1e-13 * scale
        expected = np.zeros_like(old)
        for t, triple in enumerate(gr.CLOSURE_TRIPLES):
            for perm in itertools.permutations(range(3)):
                inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
                a, m, n = (triple[k] for k in perm)
                expected[..., a, m, n] = (-1) ** inversions * res[..., t]
        assert np.max(np.abs(old - expected)) <= tol
        repeated = [i for i in itertools.product(range(4), repeat=3) if len(set(i)) < 3]
        assert len(repeated) == 40
        assert all(np.all(old[(..., *i)] == 0) for i in repeated)
        inner = grid.interior()
        new_rep = gr.residual_report(cfg.on(cfg.grid.interior()))
        m = old[inner]
        assert abs(new_rep.maxwell_max - float(np.abs(m).max())) <= tol
        assert new_rep.maxwell_mean == pytest.approx(float(np.abs(m).mean()), rel=1e-13)


class TestMemory:
    """Transient tracemalloc peaks of the curvature and closure kernels at 13^4,
    as multiples of the size of dg (grid + (4, 4, 4)) and of V.  A rank-5
    temporary (4x dg, or 4x V) does not fit under either bound."""

    @staticmethod
    def transient_mb(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_ricci_and_closure_transients(self, rng):
        grid = small_grid(13)
        g = gr.metric_quadratic(grid, [(0, 1, 1, 1, 0.03), (2, 3, 0, 2, 0.02),
                                       (1, 1, 2, 2, 0.01), (0, 0, 3, 3, -0.02)])
        geo = gr.checked_geometry(g, grid)
        geo.gamma   # formed before the Ricci transient is measured
        dg_mb = 4 * g.nbytes / 2 ** 20
        assert self.transient_mb(gr.ricci, geo, grid) <= 4.5 * dg_mb

        class Holder:
            pass

        cfg = Holder()
        cfg.grid = grid
        v = rng.standard_normal(grid.shape + (4, 4, 4))
        cfg.V = v - np.swapaxes(v, -1, -2)
        del v
        whole = gr.BoxFields(cfg, gr.WHOLE)
        assert self.transient_mb(gr.maxwell_residual, whole) <= 0.5 * cfg.V.nbytes / 2 ** 20


class TestTransport:
    def make_cfg(self, rng, model_name="identity-tau", n=7):
        grid = small_grid(n)
        model = md.builtin(model_name)
        slopes = 0.05 * rng.standard_normal((4, model.chart.dim))
        phi = gr.phi_linear(grid, [0.0, 1.2][: model.chart.dim]
                            if model.chart.dim == 2 else [0.0], slopes)
        f = gr.random_polynomial_fieldstrength(grid, model.n_v, rng, amp=0.2)
        return gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi, f)

    def test_trivial_pair_unchanged(self, rng):
        cfg = self.make_cfg(rng)
        out = gr.transport_config(md.identity_isometry(cfg.model.chart),
                                  np.eye(2), cfg)
        assert np.array_equal(out.phi, cfg.phi)
        assert np.array_equal(out.V, cfg.V)
        assert np.array_equal(out.g, cfg.g)

    def test_transported_selfduality(self, rng):
        # transported block satisfies the transformed self-duality constraint
        cfg = self.make_cfg(rng, "t3")
        for _ in range(5):
            a = sp.random_sp(2, rng)
            f = md.MobiusIsometry(np.array([[1.0, 0.2], [-0.3, 1.0]]))
            out = gr.transport_config(f, a, cfg)
            viol = out.on(out.grid.interior()).selfduality_violation()
            assert viol < 1e-10 * max(1, np.max(np.abs(out.V)))

    def test_stress_tensors_invariant_under_transport(self, rng):
        # total stress before/after transport agrees node-by-node: the
        # einstein tensor is untouched, so compare G - residual directly
        cfg = self.make_cfg(rng, "axio-dilaton")
        a = sp.random_sp(2, rng)
        f = md.parse_isometry("scale:1.2", cfg.model.chart)
        tcfg = gr.transport_config(f, a, cfg)
        inner = cfg.grid.interior()
        gt = gr.einstein(cfg.g, cfg.grid)[inner]
        stress0 = gt - gr.einstein_residual(cfg.on(gr.WHOLE), check=False)[inner]
        stress1 = gt - gr.einstein_residual(tcfg.on(gr.WHOLE), check=False)[inner]
        assert np.max(np.abs(stress1 - stress0)) <= 1e-10

    def test_domain_exit_raises(self, rng):
        cfg = self.make_cfg(rng)
        # Mobius map sending the sampled band near the real axis far away is
        # hard to misfire on poincare; use a flat-chart model translated out of
        # nothing (flat charts are all of R^k, so exercise the poincare branch
        # via a crafted non-isometry-like object instead)
        class Bad:
            def apply(self, p):  # points (..., 2), as the isometries take them
                q = np.array(p, dtype=float)
                q[..., 1] = -1.0
                return q

            def inverse(self):
                return self

            def jacobian(self, p):
                return np.eye(2)

        with pytest.raises(gr.DomainExitError):
            gr.transport_config(Bad(), np.eye(2), cfg)


class TestEquivarianceHarness:
    def test_identity_pair_machine_zero(self, rng):
        cfg = TestTransport().make_cfg(rng, "axio-dilaton")
        rep = gr.equivariance_harness(cfg, md.identity_isometry(cfg.model.chart),
                                      np.eye(4))
        assert rep.max_discrepancy <= 1e-12

    def test_one_einstein_tensor_per_shared_geometry(self, rng, monkeypatch):
        calls = []

        def counted(g, grid):
            calls.append(g)
            return einstein(g, grid)

        einstein = gr.einstein
        monkeypatch.setattr(gr, "einstein", counted)
        cfg = TestTransport().make_cfg(rng, "axio-dilaton")
        gr.equivariance_harness(cfg, md.parse_isometry("translate:0.2", cfg.model.chart),
                                np.eye(4))
        # one Einstein tensor, on the interior box, of the geometry both share
        assert len(calls) == 1 and calls[0] is cfg.geometry.on(cfg.grid.interior())
        assert not calls[0].einstein_tensor.flags.writeable

    def test_random_sp_on_constant_model(self, rng):
        grid = small_grid()
        model = md.builtin("constant-i:2")
        phi = gr.phi_linear(grid, [0.0, 1.2], 0.05 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.25)
        cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi, f)
        for _ in range(3):
            a = sp.random_sp(2, rng)
            rep = gr.equivariance_harness(cfg, md.identity_isometry(model.chart), a)
            assert rep.max_discrepancy <= 1e-9

    def test_uduality_translation_pair_same_theory(self, rng):
        cfg = TestTransport().make_cfg(rng, "identity-tau")
        f = md.parse_isometry("translate:1.0", cfg.model.chart)
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        rep = gr.equivariance_harness(cfg, f, a)
        assert rep.max_discrepancy <= 1e-9
        # same theory: the transformed model evaluates identically
        tm = md.TransformedModel(cfg.model, f, a)
        for p in cfg.model.chart.sample_points(8):
            assert np.allclose(tm.period(p).tau, cfg.model.period(p).tau, atol=1e-12)

    def test_affine_isometries_machine_level(self, rng):
        cfg = TestTransport().make_cfg(rng, "t3")
        a = sp.random_sp(2, rng)
        for spec in ("translate:0.4", "scale:1.5"):
            f = md.parse_isometry(spec, cfg.model.chart)
            rep = gr.equivariance_harness(cfg, f, a)
            assert rep.max_discrepancy <= 1e-9

    def test_nonaffine_mobius_second_order_mismatch(self, rng):
        # for a genuinely nonaffine isometry the composed-map finite
        # differences disagree at O(h^2); the discrepancy must shrink ~4x
        model = md.builtin("identity-tau")
        f = md.MobiusIsometry(np.array([[1.0, 0.0], [0.35, 1.0]]))
        a = np.eye(2)
        discs = []
        for n in (7, 13):
            grid = gr.GridPatch(((-0.4, 0.4),) * 4, (n,) * 4)
            phi = gr.phi_linear(grid, [0.0, 1.2], 0.2 * np.ones((4, 1))
                                @ np.array([[1.0, 0.5]]))
            cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi,
                                        np.zeros(grid.shape + (1, 4, 4)))
            discs.append(gr.equivariance_harness(cfg, f, a).scalar_discrepancy)
        assert discs[1] < 0.4 * discs[0]


class TestConfigFile:
    def test_parse_and_report(self):
        text = """
        model = identity-tau
        extents = -0.4:0.4 -0.4:0.4 -0.4:0.4 -0.4:0.4
        resolution = 7 7 7 7
        metric = minkowski
        phi = constant 0.0 1.0
        field = zero
        """
        cfg = gr.parse_grid_config(text)
        rep = gr.residual_report(cfg.on(cfg.grid.interior()))
        assert rep.einstein_max <= 1e-12

    def test_quadratic_metric_and_terms(self):
        text = """
        model = axio-dilaton
        resolution = 7 7 7 7
        metric = quadratic
        metric_coeff = 0 1 1 1 0.02
        phi = constant 0.1 1.1
        field = terms
        field_term = 0 0 1 0.3 0 0 0 0
        field_term = 1 2 3 0.1 1 0 0 0
        """
        cfg = gr.parse_grid_config(text)
        assert cfg.model.n_v == 2
        assert cfg.on(cfg.grid.interior()).selfduality_violation() < 1e-12

    def test_bad_metric_spec(self):
        with pytest.raises(gr.GridError):
            gr.parse_grid_config("metric = wavy\nresolution = 7 7 7 7")

    def test_linear_phi_spec(self):
        text = ("model = identity-tau\nresolution = 7 7 7 7\n"
                "phi = linear 0.0 1.2 | 0.01 0 0 0.02 0 0 0 0.01\nfield = zero")
        cfg = gr.parse_grid_config(text)
        assert cfg.phi[..., 1].min() > 0
