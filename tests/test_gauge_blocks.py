"""The node-blocked gauge kernels against the all-at-once formulas they
replaced, kept here as oracles: the Hodge dual of fiber-valued forms, the
gauge stress and the pairings of two-forms give the same bytes.  Tracemalloc
bounds at 13^4 and on a whole ``transport`` command keep the transient of
each kernel at one node block above its result."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from emduality import fields as fl
from emduality import grids as gr
from emduality.cli import run
from emduality.symplectic import omega

GOLDEN = Path(__file__).resolve().parent / "golden"
MiB = 2 ** 20


def golden_config(name, n=None):
    text = (GOLDEN / f"{name}.cfg").read_text(encoding="utf-8")
    return gr.parse_grid_config(text, (n,) * 4 if n else None)


# ---------------------------------------------------------------- oracles

def allatonce_star_fibers(g, v):
    m = fl.checked_metric(g)
    return fl.star(m.ginv[..., None, :, :], m.vol[..., None], v)


def allatonce_oslash_Q(g, j, v, w):
    jm = np.asarray(j, dtype=float)
    q = omega(jm.shape[-1] // 2) @ jm
    ginv = fl.checked_metric(g).ginv[..., None, :, :]
    return fl.contract(ginv, v, fl.fiber_action(q, w)).sum(axis=-3)


def allatonce_stress_gauge(g, j, v):
    t = allatonce_oslash_Q(g, j, v, v)
    return (t + np.swapaxes(t, -1, -2)) / 2


def flat_pairings(a, b):
    """sum_mn a^A_mn b^C_mn for every pair of fiber indices: (..., A, C)."""
    lead = a.shape[:-3]
    return (a.reshape(lead + (a.shape[-3], 16))
            @ np.swapaxes(b.reshape(lead + (b.shape[-3], 16)), -1, -2))


def allatonce_pairings(g, a, b):
    return flat_pairings(a, fl.raise2(fl.checked_metric(g).ginv[..., None, :, :], b))


def allatonce_local_gauge_source(cfg):
    # F.F and F.*F all at once, with the raised F on the left of F.*F:
    # local_gauge_source, which raises F in *F.F instead, gives these bytes
    f = cfg.F
    fup = fl.raise2(cfg.geometry.ginv[..., None, :, :], f)
    ff = flat_pairings(f, fup)
    fsf = flat_pairings(fup, allatonce_star_fibers(cfg.g, cfg.V)[..., : cfg.n_v, :, :])
    return 0.5 * (np.einsum("...kLS,...LS->...k", cfg.dR, fsf)
                  + np.einsum("...kLS,...LS->...k", cfg.dI, ff))


def allatonce_psi_form_source(cfg):
    star_v = allatonce_star_fibers(cfg.g, cfg.V)
    pairs = allatonce_pairings(cfg.geometry, star_v, cfg.V)[..., None, :, :]
    whole = cfg.on(gr.WHOLE)
    dj = gr._taming_derivative(whole)
    q = omega(cfg.n_v) @ whole.J
    return 0.25 * ((q[..., None, :, :] @ dj) * pairs).sum(
        axis=(-2, -1))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module", params=["t3", "axio-dilaton"])
def cfg(request):
    return golden_config(request.param)


@pytest.fixture(scope="module")
def stack():
    """3000 random Lorentzian metrics (two node blocks), with random
    fiber-valued two-forms and tamings."""
    rng = np.random.default_rng(29)
    g = np.stack([fl.random_lorentz_metric(rng) for _ in range(3000)])
    v = rng.standard_normal((3000, 4, 4, 4))
    j = rng.standard_normal((3000, 4, 4))
    return g, v - np.swapaxes(v, -1, -2), j


class TestAllAtOnceBytes:
    def test_star_fibers(self, cfg):
        assert same_bytes(fl.star_fibers(cfg.geometry, cfg.V),
                          allatonce_star_fibers(cfg.geometry, cfg.V))
        assert same_bytes(cfg.on(gr.WHOLE).star_v, allatonce_star_fibers(cfg.g, cfg.V))

    def test_stress_gauge(self, cfg):
        whole = cfg.on(gr.WHOLE)
        geo, star_v, j = cfg.geometry, whole.star_v, whole.J
        assert same_bytes(fl.stress_gauge(geo, j, cfg.V, check=False),
                          allatonce_stress_gauge(geo, j, cfg.V))
        assert same_bytes(fl.oslash_Q(geo, j, cfg.V, star_v),
                          allatonce_oslash_Q(geo, j, cfg.V, star_v))

    def test_field_contractions_and_psi_source(self, cfg):
        # F.F, *F.F and *V.V by fields.pairings, and the two scalar sources built on them
        whole = cfg.on(gr.WHOLE)
        geo, f, sf = cfg.geometry, cfg.F, whole.star_v[..., : cfg.n_v, :, :]
        for a, b in ((f, f), (sf, f), (whole.star_v, cfg.V)):
            assert same_bytes(fl.pairings(geo, a, b), allatonce_pairings(geo, a, b))
        assert same_bytes(gr.local_gauge_source(whole), allatonce_local_gauge_source(cfg))
        assert same_bytes(gr.psi_form_source(whole), allatonce_psi_form_source(cfg))

    def test_hodge2(self, cfg):
        # the one-fiber case of star_fibers, on one form per node and on a
        # stack of forms against a metric with a fiber axis
        geo = cfg.geometry
        w = cfg.F[..., 1, :, :]
        assert same_bytes(fl.hodge2(geo, w), fl.star(geo.ginv, geo.vol, w))
        assert same_bytes(fl.hodge2(cfg.g[..., None, :, :], cfg.V), cfg.on(gr.WHOLE).star_v)

    def test_gamma_trace_of_scalar_residual(self, cfg):
        # g^ab Gamma^c_ab as scalar_residual forms it, node block by node
        # block, summed as the all-at-once trace did (np.einsum sums it in
        # another order: it differs by ~1e-20 on 20 entries of the
        # axio-dilaton config)
        geo = cfg.geometry
        blocked = fl.blockwise(lambda ginv, gamma: fl.trace(ginv[:, None], gamma),
                               (geo.ginv, 2), (geo.gamma, 3))
        assert same_bytes(blocked, fl.trace(geo.ginv[..., None, :, :], geo.gamma))

    def test_random_lorentzian_stack(self, stack):
        g, v, j = stack
        assert same_bytes(fl.star_fibers(g, v), allatonce_star_fibers(g, v))
        assert same_bytes(fl.stress_gauge(g, j, v, check=False), allatonce_stress_gauge(g, j, v))
        assert same_bytes(fl.oslash_Q(g, j, v, v[::-1]), allatonce_oslash_Q(g, j, v, v[::-1]))

    def test_point_is_a_stack_of_one(self, stack):
        g, v, j = stack
        for k in (0, 1, 2999):
            assert same_bytes(fl.star_fibers(g[k], v[k]), allatonce_star_fibers(g[k], v[k]))
            assert same_bytes(fl.stress_gauge(g[k], j[k], v[k], check=False),
                              allatonce_stress_gauge(g[k], j[k], v[k]))
        # one metric against a stack of forms, and a stack of metrics against one taming
        assert same_bytes(fl.star_fibers(g[7], v), allatonce_star_fibers(g[7], v))
        assert same_bytes(fl.stress_gauge(g, j[7], v, check=False),
                          allatonce_stress_gauge(g, j[7], v))


def test_coupling_form_of_the_gauge_stress_on_a_grid(cfg):
    # 2 I F F - (1/2) g I F.F with the configuration as its coupling pair,
    # against the omega form omega(V, J V) of the Einstein residual
    geo = cfg.geometry
    t = fl.stress_gauge(geo, cfg.on(gr.WHOLE).J, cfg.V, check=False)
    t2 = fl.stress_gauge_couplings(geo, cfg, cfg.F)
    assert t2.shape == t.shape
    assert np.max(np.abs(t2 - t)) <= 1e-12 * np.max(np.abs(t))


class TestBlockwise:
    """fields.blockwise itself, on elementwise kernels: the shapes it
    broadcasts and flattens, the blocks it runs and the empty stacks."""

    @staticmethod
    def kernel(a, b):
        # a metric-like (n, 4, 4) block against a form-like (n, k, 4, 4) block
        return a[:, None] * b + 1.0

    @pytest.fixture(params=[1, 7, 10 ** 9])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(fl, "NODE_BLOCK", request.param)
        return request.param

    def test_point_is_a_stack_of_one(self, stack, block):
        g, v, _ = stack
        out = fl.blockwise(self.kernel, (g[5], 2), (v[5], 3))
        assert same_bytes(out, g[5] * v[5] + 1.0)

    def test_one_metric_against_a_stack_of_forms(self, stack, block):
        g, v, _ = stack
        assert same_bytes(fl.blockwise(self.kernel, (g[7], 2), (v[:100], 3)),
                          g[7] * v[:100] + 1.0)
        assert same_bytes(fl.blockwise(self.kernel, (g[:100], 2), (v[7], 3)),
                          g[:100, None] * v[7] + 1.0)
        # leading shapes that broadcast on two axes
        a, b = g[:5, None], v[None, :6, :2]
        assert same_bytes(fl.blockwise(self.kernel, (a, 2), (b, 3)),
                          a[..., None, :, :] * b + 1.0)

    def test_result_tail_and_out(self, stack, block):
        g, v, _ = stack
        sums = fl.blockwise(lambda v: v.sum(axis=(-2, -1)), (v[:50].reshape(5, 10, 4, 4, 4), 3))
        assert same_bytes(sums, v[:50].reshape(5, 10, 4, 4, 4).sum(axis=(-2, -1)))
        # a kernel may read the block it is written over
        w = v[:100].copy()
        out = fl.blockwise(lambda a, w: a[:, None] * w, (g[:100], 2), (w, 3), out=w)
        assert np.shares_memory(out, w) and same_bytes(w, g[:100, None] * v[:100])

    def test_zero_nodes(self, block):
        out = fl.blockwise(self.kernel, (fl.ETA, 2), (np.zeros((0, 2, 4, 4)), 3))
        assert out.shape == (0, 2, 4, 4)
        assert fl.star_fibers(fl.ETA, np.zeros((0, 2, 4, 4))).shape == (0, 2, 4, 4)
        assert fl.star_fibers(fl.ETA, np.zeros((3, 0, 2, 4, 4))).shape == (3, 0, 2, 4, 4)

    def test_zero_fibers(self, block):
        out = fl.blockwise(self.kernel, (fl.ETA, 2), (np.zeros((3, 0, 4, 4)), 3))
        assert out.shape == (3, 0, 4, 4)
        assert fl.star_fibers(fl.ETA, np.zeros((3, 0, 4, 4))).shape == (3, 0, 4, 4)
        assert fl.star_fibers(fl.ETA, np.zeros((0, 4, 4))).shape == (0, 4, 4)


class TestMemory:
    """Tracemalloc transients of the gauge kernels on the golden t3 config at
    13^4, against the size of its field block V (2 n_v = 4: 13.95 MiB).
    The parent's all-at-once kernels took 42.1, 45.3 and 50.6 MiB."""

    @staticmethod
    def transient(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def t3_13(self):
        cfg = golden_config("t3", 13)
        cfg.geometry.einstein_tensor  # kept by the configuration, not part of a residual
        whole = cfg.on(gr.WHOLE)
        whole.J   # formed by the view before the kernels that read it are measured
        return cfg, whole, cfg.V.nbytes

    def test_star_fibers(self, t3_13):
        cfg, _, full = t3_13
        assert self.transient(fl.star_fibers, cfg.geometry, cfg.V) <= 1.3 * full

    def test_stress_gauge(self, t3_13):
        cfg, whole, full = t3_13
        assert self.transient(fl.stress_gauge, cfg.geometry, whole.J, cfg.V,
                              check=False) <= 0.6 * full

    def test_hodge2(self, t3_13):
        # the one-fiber case of star_fibers: 4.3 MiB for a 3.5 MiB result,
        # where the all-at-once dual took 10.7 MiB
        cfg, _, _ = t3_13
        w = cfg.F[..., 0, :, :]
        assert self.transient(fl.hodge2, cfg.geometry, w) <= 1.5 * w.nbytes

    def test_einstein_residual(self, t3_13):
        cfg, whole, full = t3_13
        assert self.transient(gr.einstein_residual, whole, check=False) <= 1.0 * full


def test_transport_command_peak(tmp_path):
    """The traced peak of a whole transport command on a 9^4 copy of the golden
    t3 config: 31.2 MiB with the blocked kernels, 39.4 MiB with the
    all-at-once ones.  A full-size temporary brought back into the gauge
    sector fails here."""
    text = (GOLDEN / "t3.cfg").read_text(encoding="utf-8")
    config = tmp_path / "t3.cfg"
    config.write_text(text.replace("resolution = 7 7 7 7", "resolution = 9 9 9 9"),
                      encoding="utf-8")
    argv = ["transport", "--config", str(config), "--f", "id", "--A", str(GOLDEN / "t3.A")]
    tracemalloc.start()
    try:
        code, report = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "result = pass" in report
    assert peak <= 35 * MiB
