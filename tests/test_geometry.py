"""The metric-geometry path of ``fields`` and ``grids`` against the einsum
formulas it replaced, written out literally here as oracles; the scale-free
singular-metric check; and the per-configuration caches."""

import numpy as np
import pytest

from emduality import fields as fl
from emduality import grids as gr
from emduality import models as md
from emduality.symplectic import omega

QUADRATIC = [(0, 1, 1, 1, 0.03), (2, 3, 0, 2, 0.02), (1, 1, 2, 2, 0.01),
             (0, 0, 3, 3, -0.02), (1, 3, 0, 1, 0.025), (0, 2, 2, 3, -0.015)]


def close(new, old, rtol=1e-13):
    scale = max(float(np.max(np.abs(old))), 1e-300)
    return float(np.max(np.abs(new - old))) <= rtol * scale


# ---------------------------------------------------------------- oracles

def old_hodge2(g, w):
    det = np.linalg.det(g)
    ginv = np.linalg.inv(g)
    dual = 0.5 * np.einsum("mnrs,...ra,...sb,...ab->...mn", fl.EPS4, ginv, ginv, w)
    return np.sqrt(-det)[..., None, None] * dual


def old_form_inner(g, a, b):
    ginv = np.linalg.inv(g)
    return 0.5 * np.einsum("...ab,...ra,...sb,...rs->...", a, ginv, ginv, b)


def partials2(f, grid):
    """Nested central differences: output grid + extra + (4, 4), exact for
    polynomials of degree <= 2, valid on margin-2 interior nodes."""
    return gr.partials(gr.partials(f, grid), grid)


def old_christoffel_and_derivative(g, grid):
    ginv = np.linalg.inv(g)
    dg = np.moveaxis(gr.partials(g, grid), -1, -3)
    d2g = partials2(g, grid)
    d2g = np.moveaxis(np.moveaxis(d2g, -1, -4), -1, -4)
    bracket = (np.einsum("...msn->...smn", dg) + np.einsum("...nsm->...smn", dg) - dg)
    gamma = 0.5 * np.einsum("...rs,...smn->...rmn", ginv, bracket)
    dbracket = (np.einsum("...lmsn->...lsmn", d2g) + np.einsum("...lnsm->...lsmn", d2g)
                - np.einsum("...lsmn->...lsmn", d2g))
    dginv = -np.einsum("...ra,...lab,...bs->...lrs", ginv, dg, ginv)
    dgamma = (0.5 * np.einsum("...lrs,...smn->...lrmn", dginv, bracket)
              + 0.5 * np.einsum("...rs,...lsmn->...lrmn", ginv, dbracket))
    return gamma, dgamma


def old_ricci(g, grid):
    gamma, dgamma = old_christoffel_and_derivative(g, grid)
    return (np.einsum("...rrmn->...mn", dgamma)
            - np.einsum("...nrrm->...mn", dgamma)
            + np.einsum("...rrl,...lmn->...mn", gamma, gamma)
            - np.einsum("...rnl,...lrm->...mn", gamma, gamma))


def old_stresses(cfg):
    g = cfg.g
    ginv = np.linalg.inv(g)
    dphi = gr.partials(cfg.phi, cfg.grid)
    cm = cfg.model.chart.metric(cfg.phi)
    t_scal = (np.einsum("...ij,...ia,...jb->...ab", cm, dphi, dphi)
              - 0.5 * g * np.einsum("...ij,...ia,...jb,...ab->...", cm, dphi, dphi,
                                    ginv)[..., None, None])
    q = np.einsum("AB,...BC->...AC", omega(cfg.n_v), cfg.on(gr.WHOLE).J)
    t_gauge = np.einsum("...AB,...Aac,...cd,...Bbd->...ab", q, cfg.V, ginv, cfg.V)
    return t_scal, (t_gauge + np.swapaxes(t_gauge, -1, -2)) / 2


def old_field_contractions(cfg):
    g = cfg.g
    ginv = np.linalg.inv(g)
    f = cfg.F
    sf = old_hodge2(g[..., None, :, :], f)
    ff = np.einsum("...Lab,...ra,...sb,...Srs->...LS", f, ginv, ginv, f)
    fsf = np.einsum("...Lab,...ra,...sb,...Srs->...LS", f, ginv, ginv, sf)
    return ff, fsf


def old_taming_derivative(cfg):
    iinv = np.linalg.inv(cfg.I)
    r = cfg.R
    dr, di = cfg.dR, cfg.dI
    diinv = -np.einsum("...ab,...kbc,...cd->...kad", iinv, di, iinv)
    tl = -(np.einsum("...kab,...bc->...kac", diinv, r)
           + np.einsum("...ab,...kbc->...kac", iinv, dr))
    tr = diinv
    ru_d = np.einsum("...kab,...bc->...kac", dr, iinv) + np.einsum(
        "...ab,...kbc->...kac", r, diinv)
    bl = -(di + np.einsum("...kab,...bc,...cd->...kad", dr, iinv, r)
           + np.einsum("...ab,...kbc,...cd->...kad", r, diinv, r)
           + np.einsum("...ab,...bc,...kcd->...kad", r, iinv, dr))
    top = np.concatenate([tl, tr], axis=-1)
    bot = np.concatenate([bl, ru_d], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def old_psi_form_source(cfg):
    g = cfg.g
    ginv = np.linalg.inv(g)
    dj = old_taming_derivative(cfg)
    sv = old_hodge2(g[..., None, :, :], cfg.V)
    djv = np.einsum("...kAB,...Bmn->...kAmn", dj, cfg.V)
    q = np.einsum("AB,...BC->...AC", omega(cfg.n_v), cfg.on(gr.WHOLE).J)
    inner = 0.5 * np.einsum("...Amn,...rm,...sn,...kBrs->...kAB", sv, ginv, ginv, djv)
    return 0.5 * np.einsum("...AB,...kAB->...k", q, inner)


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def grid():
    return gr.GridPatch(((-0.5, 0.5),) * 4, (7,) * 4)


@pytest.fixture(scope="module")
def metric(grid):
    return gr.metric_quadratic(grid, QUADRATIC)


def configuration(grid, metric, name, field=True):
    rng = np.random.default_rng(11)
    model = md.builtin(name)
    phi = gr.phi_linear(grid, [0.05, 1.2], 0.08 * rng.standard_normal((4, 2)))
    f = (gr.random_polynomial_fieldstrength(grid, model.n_v, rng, amp=0.3) if field
         else np.zeros(grid.shape + (model.n_v, 4, 4)))
    return gr.make_configuration(grid, model, metric, phi, f)


@pytest.fixture(scope="module", params=["t3", "axio-dilaton"])
def cfg(request, grid, metric):
    return configuration(grid, metric, request.param)


# ---------------------------------------------------------------- kernels

class TestOracles:
    def test_hodge2(self, metric, cfg):
        assert close(fl.hodge2(metric[..., None, :, :], cfg.V),
                     old_hodge2(metric[..., None, :, :], cfg.V))
        assert close(cfg.on(gr.WHOLE).star_v, old_hodge2(metric[..., None, :, :], cfg.V))

    def test_form_inner(self, metric, cfg):
        g = metric[..., None, :, :]
        a, b = cfg.V, cfg.on(gr.WHOLE).star_v
        assert close(fl.form_inner(g, a, b), old_form_inner(g, a, b))

    def test_christoffel_and_ricci(self, grid, metric):
        gamma, _ = old_christoffel_and_derivative(metric, grid)
        assert close(gr.christoffel(metric, grid), gamma)
        assert close(gr.ricci(metric, grid), old_ricci(metric, grid))

    def test_christoffel_and_ricci_anisotropic(self):
        # four different spacings and lengths: a derivative taken along the
        # wrong axis, or with another axis' spacing, does not cancel here
        grid = gr.GridPatch(((-0.5, 0.5), (-0.3, 0.6), (-0.7, 0.1), (0.0, 0.8)),
                            (7, 9, 11, 8))
        x = grid.coords()
        metric = gr.metric_quadratic(grid, QUADRATIC)
        metric += (0.02 * np.sin(3 * x[..., 0] + x[..., 2])[..., None, None]
                   * np.ones((4, 4)) + 0.03 * np.diag([0.0, 1, 2, 3])
                   * np.cos(2 * x[..., 1] - x[..., 3])[..., None, None])
        assert len(set(grid.h)) == 4
        gamma, _ = old_christoffel_and_derivative(metric, grid)
        assert close(gr.christoffel(metric, grid), gamma)
        ric = gr.ricci(metric, grid)
        assert float(np.max(np.abs(ric))) > 0.1
        assert close(ric, old_ricci(metric, grid))

    def test_partials_is_numpy_gradient(self):
        grid = gr.GridPatch(((-0.5, 0.5), (-0.3, 0.6), (-0.7, 0.1), (0.0, 0.8)),
                            (7, 9, 11, 8))
        f = np.random.default_rng(3).standard_normal(grid.shape + (3, 2))
        h = grid.h
        grad = np.stack([np.gradient(f, h[a], axis=a) for a in range(4)], axis=-1)
        assert np.array_equal(gr.partials(f, grid), grad)
        for a in range(4):
            assert np.array_equal(gr.partial(f[..., 1, 0], grid, a), grad[..., 1, 0, a])

    def test_stresses(self, grid, metric, cfg):
        t_scal, t_gauge = old_stresses(cfg)
        stress = gr.einstein(metric, grid) - gr.einstein_residual(cfg.on(gr.WHOLE), check=False)
        assert close(stress, t_scal + t_gauge)
        vacuum = configuration(grid, metric, cfg.model.name, field=False)
        t_scal0, t_gauge0 = old_stresses(vacuum)
        assert np.max(np.abs(t_gauge0)) == 0.0
        assert close(gr.einstein(metric, grid) - gr.einstein_residual(vacuum.on(gr.WHOLE)),
                     t_scal0)

    def test_field_contractions(self, cfg):
        # F.F and F.*F as fields.pairings gives them, *F.F transposed to (L, S)
        geo, f = cfg.geometry, cfg.F
        ff = fl.pairings(geo, f, f)
        sf = cfg.on(gr.WHOLE).star_v[..., : cfg.n_v, :, :]
        fsf = np.swapaxes(fl.pairings(geo, sf, f), -1, -2)
        for new, old in zip((ff, fsf), old_field_contractions(cfg)):
            assert close(new, old)

    def test_taming_derivative(self, cfg):
        assert close(gr._taming_derivative(cfg.on(gr.WHOLE)), old_taming_derivative(cfg))

    def test_psi_form_source(self, cfg):
        assert close(gr.psi_form_source(cfg.on(gr.WHOLE)), old_psi_form_source(cfg))


# ---------------------------------------------------------- metric check

class TestSingularMetric:
    def test_small_multiple_of_eta_is_regular(self, grid):
        g = 1e-4 * gr.metric_minkowski(grid)
        w = np.zeros((4, 4))
        w[0, 1], w[1, 0] = 1.0, -1.0
        assert np.max(np.abs(fl.hodge2(1e-4 * fl.ETA, fl.hodge2(1e-4 * fl.ETA, w)) + w)) < 1e-12
        assert np.max(np.abs(gr.christoffel(g, grid))) == 0.0

    def test_nearly_degenerate_metric_is_singular(self, grid):
        bad = 1e4 * np.diag([-1e-20, 1.0, 1.0, 1.0])
        with pytest.raises(fl.SingularMetricError):
            fl.hodge2(bad, np.zeros((4, 4)))
        g = gr.metric_minkowski(grid)
        g[1, 2, 3, 4] = bad
        with pytest.raises(fl.SingularMetricError, match=r"node index \(1, 2, 3, 4\)"):
            gr.christoffel(g, grid)

    def test_positive_determinant_rejected(self, grid):
        g = gr.metric_minkowski(grid)
        g[2, 2, 2, 2] = np.eye(4)
        with pytest.raises(fl.SingularMetricError, match="Lorentzian"):
            gr.christoffel(g, grid)

    def test_nan_node_is_singular(self, grid):
        g = gr.metric_minkowski(grid)
        g[1, 2, 3, 4, 0, 0] = np.nan
        named = r"singular at node index \(1, 2, 3, 4\)"
        with np.errstate(invalid="ignore"), pytest.raises(fl.SingularMetricError, match=named):
            gr.christoffel(g, grid)

    def test_overflowing_determinant_is_named(self, grid):
        g = gr.metric_minkowski(grid)
        g[1, 2, 3, 4] = 1e100 * fl.ETA
        named = r"determinant overflows at node index \(1, 2, 3, 4\)"
        with np.errstate(all="raise"), pytest.raises(fl.SingularMetricError, match=named):
            gr.christoffel(g, grid)

    # det g < 0 with the wrong signature: a determinant test lets these pass
    WRONG_SIGNATURE = {"minus-eta": -fl.ETA, "three-minus": np.diag([-1.0, -1.0, -1.0, 1.0])}

    @pytest.mark.parametrize("bad", WRONG_SIGNATURE.values(), ids=WRONG_SIGNATURE)
    def test_wrong_signature_rejected_at_a_point(self, bad):
        assert np.linalg.det(bad) < 0
        w = np.zeros((4, 4))
        w[0, 1], w[1, 0] = 1.0, -1.0
        with pytest.raises(fl.SingularMetricError, match=r"Lorentzian .* node index \(\)"):
            fl.hodge2(bad, w)
        with pytest.raises(fl.SingularMetricError, match="Lorentzian"):
            fl.star_fibers(bad, w[None])

    @pytest.mark.parametrize("bad", WRONG_SIGNATURE.values(), ids=WRONG_SIGNATURE)
    def test_wrong_signature_node_named(self, grid, bad):
        g = gr.metric_minkowski(grid)
        g[3, 1, 4, 0] = bad
        with pytest.raises(fl.SingularMetricError, match=r"node index \(3, 1, 4, 0\)"):
            gr.christoffel(g, grid)
        with pytest.raises(fl.SingularMetricError, match=r"node index \(3, 1, 4, 0\)"):
            configuration(grid, g, "t3")

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_scaled_eta_is_lorentzian(self, grid, c):
        assert fl.checked_metric(c * fl.ETA).vol == pytest.approx(c * c)
        geo = gr.checked_geometry(c * gr.metric_minkowski(grid), grid)
        assert np.all(geo.vol == geo.vol.flat[0])
        assert geo.vol.flat[0] == pytest.approx(c * c)


# ---------------------------------------------------------------- caches

class TestCaches:
    def test_reassigned_block_recomputes_star(self, grid, metric):
        # *V is formed by a view of the configuration, from its current V
        cfg = configuration(grid, metric, "t3")
        assert cfg.on(gr.WHOLE).selfduality_violation() < 1e-12
        cfg.V = 2.0 * cfg.V
        assert close(cfg.on(gr.WHOLE).star_v, old_hodge2(metric[..., None, :, :], cfg.V))

    def test_metric_is_the_geometry(self, grid, metric):
        # the metric is held once, as the checked geometry, and has no setter
        cfg = configuration(grid, metric, "t3")
        assert cfg.g is cfg.geometry.g and cfg.grid is cfg.geometry.grid
        for name, value in (("g", 2.0 * cfg.g), ("grid", grid.refine())):
            with pytest.raises(AttributeError):
                setattr(cfg, name, value)
        assert cfg.g is cfg.geometry.g and cfg.grid is grid

    def test_transport_shares_geometry(self, grid, metric):
        cfg = configuration(grid, metric, "axio-dilaton")
        out = gr.transport_config(md.identity_isometry(cfg.model.chart), np.eye(4), cfg)
        assert out.geometry is cfg.geometry

    def test_cached_couplings(self, cfg):
        # the whole-grid view forms J once; its upper right block is I^-1 and
        # Q = Omega J is symmetric
        whole = cfg.on(gr.WHOLE)
        j = whole.J
        assert whole.J is j
        assert close(j[..., : cfg.n_v, cfg.n_v:], np.linalg.inv(cfg.I))
        q = np.einsum("AB,...BC->...AC", omega(cfg.n_v), j)
        assert close(q, np.swapaxes(q, -1, -2))

    def test_thm53_geometry_once_per_frame(self):
        from emduality import spinors as sn
        grid = gr.GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4), (0.8, 1.6)), (7,) * 4)
        fr = sn.builtin_frame("ads4-poincare", grid, lam=1.0)
        eps = sn.integrate_killing(fr, 1.0, np.array([0.9, -0.4, 0.3, 1.1]))
        u, l = sn.killing_bilinears(fr, eps)
        geo = fr.geometry
        kappa = sn.extract_kappa(u, l, 1.0, geo, grid)
        assert np.array_equal(kappa, sn.extract_kappa(u, l, 1.0, fr.metric(), grid))
        out = sn.verify_thm53(u, l, kappa, 1.0, geo, grid)
        assert out == sn.verify_thm53(u, l, kappa, 1.0, fr.metric(), grid)
        assert fr.geometry is geo
