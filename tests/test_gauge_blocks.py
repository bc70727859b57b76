"""The node-blocked gauge kernels against the all-at-once formulas they
replaced, kept here as oracles: the Hodge dual of fiber-valued forms, the
gauge stress and the raised-form pairings give the same bytes.  Tracemalloc
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


def allatonce_field_contractions(cfg):
    f = cfg.F
    fup = fl.raise2(cfg.geometry.ginv[..., None, :, :], f)
    return (gr._pairings(f, fup),
            gr._pairings(fup, cfg.star_v[..., : cfg.n_v, :, :]))


def allatonce_psi_form_source(cfg):
    vup = fl.raise2(cfg.geometry.ginv[..., None, :, :], cfg.V)
    pairs = gr._pairings(cfg.star_v, vup)[..., None, :, :]
    return 0.25 * ((cfg.Q[..., None, :, :] @ gr._taming_derivative(cfg)) * pairs).sum(
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
        assert same_bytes(cfg.star_v, allatonce_star_fibers(cfg.g, cfg.V))

    def test_stress_gauge(self, cfg):
        geo = cfg.geometry
        assert same_bytes(fl.stress_gauge(geo, cfg.J, cfg.V, check=False),
                          allatonce_stress_gauge(geo, cfg.J, cfg.V))
        assert same_bytes(fl.oslash_Q(geo, cfg.J, cfg.V, cfg.star_v),
                          allatonce_oslash_Q(geo, cfg.J, cfg.V, cfg.star_v))

    def test_field_contractions_and_psi_source(self, cfg):
        for new, old in zip(gr._field_contractions(cfg), allatonce_field_contractions(cfg)):
            assert same_bytes(new, old)
        assert same_bytes(gr.psi_form_source(cfg), allatonce_psi_form_source(cfg))

    def test_gamma_trace_of_scalar_residual(self, cfg):
        # g^ab Gamma^c_ab of scalar_residual, summed as the all-at-once trace
        # did (np.einsum sums it in another order: it differs by ~1e-20 on
        # 20 entries of the axio-dilaton config)
        geo = cfg.geometry
        assert same_bytes(gr._gamma_trace(geo), fl.trace(geo.ginv[..., None, :, :], geo.gamma))

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
        return cfg, cfg.V.nbytes

    def test_star_fibers(self, t3_13):
        cfg, full = t3_13
        assert self.transient(fl.star_fibers, cfg.geometry, cfg.V) <= 1.3 * full

    def test_stress_gauge(self, t3_13):
        cfg, full = t3_13
        assert self.transient(fl.stress_gauge, cfg.geometry, cfg.J, cfg.V,
                              check=False) <= 0.6 * full

    def test_einstein_residual(self, t3_13):
        cfg, full = t3_13
        assert self.transient(gr.einstein_residual, cfg, check=False) <= 1.0 * full


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
