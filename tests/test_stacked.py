"""Stacked (array-native) evaluation against per-point calls of the same
functions: each point of a stack must get the value a single-point call
gives, to roundoff."""

import numpy as np
import pytest
from killing_oracle import oracle_basis

from emduality import expressions as ex
from emduality import fields as fl
from emduality import grids as gr
from emduality import models as md
from emduality import symplectic as sp

FLAT_MODEL = """
name = flat2
nv = 2
chart = flat
dim = 2
N[1,1] = i*(1 + x1^2) + x2
N[1,2] = 0.3*x1*x2 - 0.1*i
N[2,2] = i*(2 + x2^2) - x1/(3 + x1)
"""


def close(stacked, single, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(single))))
    return float(np.max(np.abs(stacked - single))) <= rtol * scale


def points(chart, count=40):
    return chart.sample_points(count)


def stacked_models(tmp_path):
    path = tmp_path / "flat2.model"
    path.write_text(FLAT_MODEL)
    names = list(md.BUILTIN_NAMES) + ["constant-i:3"]
    return [md.builtin(n) for n in names] + [md.load_model(str(path))]


def transformed_models():
    base = md.builtin("t3")
    rng = np.random.default_rng(4)
    a = sp.random_sp(2, rng, scale=0.3)
    specs = ["translate:0.4", "scale:1.3", "mobius:1,0.3,-0.2,1"]
    return [md.TransformedModel(base, md.parse_isometry(s, base.chart), a) for s in specs]


class TestStackedPeriods:
    def test_period_matrix(self, tmp_path):
        for m in stacked_models(tmp_path) + transformed_models():
            pts = points(m.chart)
            stacked = m.period_matrix(pts)
            single = np.array([m.period_matrix(p) for p in pts])
            assert stacked.shape == (len(pts), m.n_v, m.n_v)
            assert close(stacked, single), m.name

    def test_period_directional(self, tmp_path):
        rng = np.random.default_rng(9)
        for m in stacked_models(tmp_path) + transformed_models():
            pts = points(m.chart)
            vs = rng.standard_normal(pts.shape)
            n, d = m.period_directional(pts, vs)
            single = [m.period_directional(p, v) for p, v in zip(pts, vs)]
            assert close(n, np.array([s[0] for s in single])), m.name
            assert close(d, np.array([s[1] for s in single])), m.name
            assert np.array_equal(n, m.period_matrix(pts)), m.name

    def test_coordinate_directions_broadcast(self, tmp_path):
        # the layout used along a scalar map: every point times every unit vector
        for m in stacked_models(tmp_path) + transformed_models():
            pts = points(m.chart, 12)
            units = np.eye(m.chart.dim)
            n, stacked = m.period_directional(pts[:, None, :], units)
            single = np.array([[m.period_directional(p, e)[1] for e in units] for p in pts])
            assert n.shape == (len(pts), 1, m.n_v, m.n_v)
            assert stacked.shape == (len(pts), m.chart.dim, m.n_v, m.n_v)
            assert close(stacked, single), m.name

    def test_checked_periods_match_period(self, tmp_path):
        for m in stacked_models(tmp_path):
            pts = points(m.chart, 16)
            single = np.array([m.period(p).tau for p in pts])
            assert close(md.checked_periods(m, pts), single), m.name

    def test_checked_periods_flags_siegel_exit(self):
        m = md.parse_model("nv=1\nchart=poincare\nN[1,1] = conj(tau)")
        with pytest.raises(md.ModelInvalidError):
            md.checked_periods(m, points(m.chart, 8))


class TestStackedIsometries:
    @pytest.mark.parametrize("spec", ["translate:0.4", "scale:1.3", "mobius:1,0.3,-0.2,1"])
    def test_mobius(self, spec):
        chart = md.ScalarChart("poincare", 2)
        f = md.parse_isometry(spec, chart)
        pts = points(chart)
        assert close(f.apply(pts), np.array([f.apply(p) for p in pts]))
        assert close(f.jacobian(pts), np.array([f.jacobian(p) for p in pts]))

    def test_flat(self):
        chart = md.ScalarChart("flat", 3)
        c, s = np.cos(0.4), np.sin(0.4)
        f = md.FlatIsometry(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]),
                            np.array([0.1, -0.2, 0.3]))
        pts = points(chart)
        assert close(f.apply(pts), np.array([f.apply(p) for p in pts]))
        assert close(f.jacobian(pts), np.array([f.jacobian(p) for p in pts]))


class TestStackedChart:
    @pytest.mark.parametrize("chart", [md.ScalarChart("poincare", 2),
                                       md.ScalarChart("flat", 3)])
    def test_geometry_matches_single_points(self, chart):
        pts = points(chart)
        for name in ("metric", "metric_deriv", "christoffels"):
            method = getattr(chart, name)
            assert close(method(pts), np.array([method(p) for p in pts])), name

    @pytest.mark.parametrize("chart", [md.ScalarChart("poincare", 2),
                                       md.ScalarChart("flat", 3)])
    def test_christoffels_koszul(self, chart):
        pts = points(chart).reshape(5, 8, chart.dim)
        ginv = np.linalg.inv(chart.metric(pts))
        dg = chart.metric_deriv(pts)  # (..., k, i, j) = d_k G_ij
        bracket = (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg)
        koszul = 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)
        assert close(chart.christoffels(pts), koszul)

    def test_in_domain_per_point(self):
        chart = md.ScalarChart("poincare", 2)
        pts = np.array([[0.0, 1.0], [0.3, -0.1], [0.2, 0.0], [1.0, 2.0]])
        assert list(chart.in_domain(pts)) == [bool(chart.in_domain(p)) for p in pts]
        assert chart.first_outside(pts) == 1
        assert chart.first_outside(pts[[0, 3]]) is None


class TestStackedKillingFields:
    @pytest.mark.parametrize("chart", [md.ScalarChart("poincare", 2),
                                       md.ScalarChart("flat", 3)])
    def test_matches_single_points(self, chart):
        pts = points(chart)
        for kf in oracle_basis(chart):
            for name in ("value", "jacobian", "lie_derivative_metric"):
                method = getattr(kf, name)
                assert close(method(pts), np.array([method(p) for p in pts])), name


class TestStackedPoles:
    def test_one_error_class(self):
        assert ex.ExprPoleError is sp.PoleError
        assert md.PoleError is sp.PoleError

    def test_expression_stack_with_one_pole(self):
        e = ex.parse("1/(tau - i)")
        tau = np.array([0.5 + 1j, 1j, 2j])
        with pytest.raises(ex.ExprPoleError):
            ex.evaluate(e, {"tau": tau})
        with pytest.raises(ex.ExprPoleError):
            ex.derivative(e, {"tau": tau}, {"tau": np.ones(3, dtype=complex)})

    def test_model_stack_with_one_pole(self):
        m = md.parse_model("nv=1\nchart=poincare\nN[1,1] = i + 1/(tau - i)")
        pts = np.array([[0.5, 1.0], [0.0, 1.0], [0.0, 2.0]])
        m.period_matrix(pts[[0, 2]])
        with pytest.raises(md.PoleError):
            m.period_matrix(pts)
        with pytest.raises(md.PoleError):
            m.period_directional(pts, np.array([1.0, 0.0]))

    def test_fractional_action_stack_with_one_pole(self):
        taus = np.array([[[1j]], [[0.0 + 1e-16j]], [[2j]]])
        single = np.array([sp.fractional_action(sp.omega(1), t)
                           for t in taus[[0, 2]]])
        assert close(sp.fractional_action(sp.omega(1), taus[[0, 2]]), single)
        with pytest.raises(sp.PoleError):
            sp.fractional_action(sp.omega(1), taus)

    @pytest.mark.parametrize("taus", [np.zeros((1, 1), dtype=complex),
                                      np.zeros((3, 1, 1), dtype=complex),
                                      np.array([[[1j]], [[0j]], [[0.5 + 2j]]])],
                             ids=["point", "singular-stack", "one-singular-member"])
    def test_action_and_differential_share_the_pole_rule(self, taus):
        """a + b tau = tau for A = [[0, 1], [-1, 0]], singular at tau = 0."""
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        hs = np.ones_like(taus)
        with pytest.raises(sp.PoleError, match=r"a \+ b tau is singular"):
            sp.fractional_action(a, taus)
        with pytest.raises(sp.PoleError, match=r"a \+ b tau is singular"):
            sp.mobius_differential(a, taus, hs)
        atau, d = sp.mobius_differential(a, taus + 1j, hs)
        assert np.array_equal(atau, sp.fractional_action(a, taus + 1j))
        assert close(d, hs / (taus + 1j) ** 2)   # A . tau = -1/tau

    def test_mobius_differential_stack(self):
        rng = np.random.default_rng(2)
        a = sp.random_sp(2, rng, scale=0.3)
        taus = np.array([sp.mu(sp.random_taming(2, rng)).tau for _ in range(6)])
        hs = rng.standard_normal(taus.shape) + 1j * rng.standard_normal(taus.shape)
        single = [sp.mobius_differential(a, t, h) for t, h in zip(taus, hs)]
        atau, d = sp.mobius_differential(a, taus, hs)
        assert np.array_equal(atau, sp.fractional_action(a, taus))
        assert close(atau, np.array([s[0] for s in single]))
        assert close(d, np.array([s[1] for s in single]))


class TestGridCouplings:
    def test_configuration_matches_per_node_calls(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        rng = np.random.default_rng(6)
        for m in [md.builtin("t3")] + transformed_models()[2:]:
            phi = gr.phi_linear(grid, [0.05, 1.1], 0.1 * rng.standard_normal((4, 2)))
            f = gr.random_polynomial_fieldstrength(grid, m.n_v, rng, amp=0.2)
            cfg = gr.make_configuration(grid, m, gr.metric_minkowski(grid), phi, f)
            flat = phi.reshape(-1, 2)
            tau = np.array([m.period_matrix(p) for p in flat]).reshape(cfg.R.shape)
            dtau = np.array([[m.period_directional(p, e)[1] for e in np.eye(2)]
                             for p in flat]).reshape(cfg.dR.shape)
            assert close(cfg.R + 1j * cfg.I, tau)
            assert close(cfg.dR + 1j * cfg.dI, dtau)

    def test_domain_exit_names_first_bad_node(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        slopes = np.zeros((4, 2))
        slopes[3, 1] = -1.0                      # y = 0.2 - z leaves where z > 0.2
        phi = gr.phi_linear(grid, [0.0, 0.2], slopes)
        first = int(np.argmax(phi.reshape(-1, 2)[:, 1] <= 0))
        assert first == 5
        with pytest.raises(gr.DomainExitError, match=rf"at node {first}:"):
            gr.make_configuration(grid, md.builtin("identity-tau"),
                                  gr.metric_minkowski(grid), phi,
                                  np.zeros(grid.shape + (1, 4, 4)))


class TestSiegelRule:
    """One rule decides Siegel membership for single points, sample stacks
    and grids: the smallest eigenvalue of Im N over its largest exceeds
    PD_RTOL, whatever the scale of Im N."""

    @staticmethod
    def model(c, sign=1):
        return md.parse_model(f"nv = 2\nchart = poincare\n"
                              f"N[1,1] = (tau + conj(tau))/2 + {c}*i\n"
                              f"N[1,2] = 0.25\nN[2,2] = -0.5 + {sign * c}*i")

    @staticmethod
    def configuration(m):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        slopes = np.zeros((4, 2))
        slopes[1, 0] = 0.5                  # Re tau = 0.1 + x/2: R varies, Im N does not
        phi = gr.phi_linear(grid, [0.1, 1.0], slopes)
        return gr.make_configuration(grid, m, gr.metric_minkowski(grid), phi,
                                     np.zeros(grid.shape + (2, 4, 4)))

    @pytest.mark.parametrize("c", [1e-14, 1.0, 1e6])
    def test_scaled_identity_accepted_everywhere(self, c):
        m = self.model(c)
        pts = points(m.chart, 8)
        tau = md.checked_periods(m, pts)
        assert np.array_equal(tau.imag, np.broadcast_to(c * np.eye(2), tau.shape))
        assert np.array_equal(m.period(pts[3]).tau, tau[3])
        cfg = self.configuration(m)
        assert np.array_equal(cfg.I, np.broadcast_to(c * np.eye(2), cfg.I.shape))
        # the grid's J against the independent route back to the couplings
        flat_r, flat_j = cfg.R.reshape(-1, 2, 2), cfg.on(gr.WHOLE).J.reshape(-1, 4, 4)
        for node in (0, 1200, 2400):
            em = sp.gamma_inv(sp.Taming(flat_j[node]))
            r = flat_r[node]
            assert np.max(np.abs(em.R - r)) <= 1e-12 * np.max(np.abs(r))
            assert np.max(np.abs(em.I - c * np.eye(2))) <= 1e-12 * c

    @pytest.mark.parametrize("c", [1e-14, 1.0, 1e6])
    def test_one_negative_direction_rejected_everywhere(self, c):
        m = self.model(c, sign=-1)
        pts = points(m.chart, 8)
        for check in (lambda: md.checked_periods(m, pts), lambda: m.period(pts[0]),
                      lambda: self.configuration(m)):
            with pytest.raises(md.ModelInvalidError, match="at point 0 "):
                check()


class TestStackedFieldKernels:
    """The fields kernels on a grid, lead = grid shape, against per-node
    calls with an ElectromagneticPair and a Taming."""

    NODES = (0, 613, 1200, 1777, 2400)

    @staticmethod
    def configuration():
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        rng = np.random.default_rng(23)
        g = gr.metric_quadratic(grid, [(0, 3, 2, 2, 0.015), (1, 2, 0, 1, -0.022),
                                       (3, 3, 1, 3, 0.018), (0, 0, 0, 1, 0.02)])
        phi = gr.phi_linear(grid, [0.05, 1.2], 0.08 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.3)
        return gr.make_configuration(grid, md.builtin("t3"), g, phi, f)

    @classmethod
    def nodes(cls, cfg, *arrays):
        """Per node: (g, pair, taming) and the node's entries of arrays."""
        lead, j = cfg.grid.shape, cfg.on(gr.WHOLE).J
        for node in cls.NODES:
            idx = np.unravel_index(node, lead)
            yield ((cfg.g[idx], sp.ElectromagneticPair(cfg.R[idx], cfg.I[idx]),
                    sp.Taming(j[idx])) + tuple(a[idx] for a in arrays))

    def test_assemble_V_and_twisted_star(self):
        cfg = self.configuration()
        for metric in (cfg.g, cfg.geometry):
            v = fl.assemble_V(cfg.F, cfg, metric)
            ts = fl.twisted_star(metric, cfg.on(gr.WHOLE).J, v)
            for g, em, j, f, v_node, ts_node in self.nodes(cfg, cfg.F, v, ts):
                single = fl.assemble_V(f, em, g)
                assert close(v_node, single)
                assert close(ts_node, fl.twisted_star(g, j, single))
        assert np.array_equal(v, cfg.V)

    def test_selfduality_violation(self):
        cfg = self.configuration()
        w = cfg.V + 0.1 * fl.random_two_forms(4, np.random.default_rng(5))
        idx = np.unravel_index(np.array(self.NODES), cfg.grid.shape)
        stacked = fl.selfduality_violation(cfg.g[idx], cfg.on(gr.WHOLE).J[idx], w[idx])
        single = max(fl.selfduality_violation(g, j, w_node)
                     for g, _, j, w_node in self.nodes(cfg, w))
        assert stacked > 1e-3 and close(stacked, single)

    def test_stresses(self):
        cfg = self.configuration()
        dphi = np.swapaxes(gr.partials(cfg.phi, cfg.grid), -1, -2)
        cm = cfg.model.chart.metric(cfg.phi)
        t_gauge = fl.stress_gauge(cfg.g, cfg.on(gr.WHOLE).J, cfg.V)
        t_scal = fl.stress_scalar(cfg.geometry, cm, dphi)
        for g, _, j, v, tg, ts, dp, c in self.nodes(cfg, cfg.V, t_gauge, t_scal, dphi, cm):
            assert close(tg, fl.stress_gauge(g, j, v))
            assert close(ts, fl.stress_scalar(g, c, dp))


class TestOneMetricInversion:
    """A checked metric is inverted once: by stress_gauge for a raw metric,
    and never again for a grid whose geometry is built."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = fl.invert_metric

        def invert_metric(g):
            calls.append(np.shape(g))
            return original(g)

        monkeypatch.setattr(fl, "invert_metric", invert_metric)
        return calls

    def test_stress_gauge_inverts_once(self, counted):
        rng = np.random.default_rng(8)
        g = fl.random_lorentz_metric(rng)
        em = sp.random_couplings(2, rng)
        v = fl.assemble_V(fl.random_two_forms(2, rng), em, g)
        counted.clear()
        fl.stress_gauge(g, sp.gamma(em), v)
        assert len(counted) == 1

    def test_einstein_residual_reuses_the_geometry(self, counted):
        cfg = TestStackedFieldKernels.configuration()
        cfg.geometry
        counted.clear()
        gr.einstein_residual(cfg.on(gr.WHOLE))
        assert counted == []


class TestSelfdualWarning:
    """The not-self-dual warning is raised at the caller of stress_gauge and
    of einstein_residual, and einstein_residual checks the nodes of its box."""

    @staticmethod
    def configuration():
        cfg = TestStackedFieldKernels.configuration()
        cfg.V = cfg.V + 0.1 * fl.random_two_forms(4, np.random.default_rng(5))
        return cfg

    def test_stress_gauge(self):
        cfg = self.configuration()
        with pytest.warns(UserWarning, match="stress_gauge input is not twisted self-dual") as rec:
            fl.stress_gauge(cfg.geometry, cfg.on(gr.WHOLE).J, cfg.V)
        assert [w.filename for w in rec] == [__file__]

    def test_einstein_residual(self):
        x = self.configuration().on((slice(2, 5), slice(1, 6), slice(0, 3), slice(4, 7)))
        with pytest.warns(UserWarning, match="configuration is not twisted self-dual") as rec:
            gr.einstein_residual(x)
        assert [w.filename for w in rec] == [__file__]
        assert f"{x.selfduality_violation():.2e}" in str(rec[0].message)
