"""Closed-form kernels of the configuration build against the LAPACK path,
which stays here as their oracle: the 4x4 inverse and determinant of
``fields.inverse4`` (read by ``invert_metric``, the frame check and the spin
connection), the Sylvester signature test of ``Metric.vol``, the 2x2 Siegel
ratio of ``symplectic.min_eig_ratio``, the antisymmetry check of a field
block and the polynomial field strength from the grid's 1-D axes."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from emduality import fields as fl
from emduality import grids as gr
from emduality import models as md
from emduality import symplectic as sp
from emduality.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
SCALES = (-150, -80, -6, 0, 6, 80, 150)


def lapack_invert_metric(g):
    """The LAPACK rule: det and inv each factorise g; singular unless
    |det g| > 1e-14 max|g|^4."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        det = np.linalg.det(g)
        scale = np.max(np.abs(g), axis=(-2, -1)) ** 4
    fl._reject_nodes(np.isinf(det), "determinant overflows")
    fl._reject_nodes(~(np.abs(det) > 1e-14 * scale), "singular")
    return np.linalg.inv(g), det


def refusal(fn, g):
    try:
        fn(g)
    except fl.SingularMetricError as err:
        return str(err)
    return None


def lorentz_stack(rng, count=3000):
    return np.stack([fl.random_lorentz_metric(rng) for _ in range(count)])


@pytest.mark.parametrize("k", SCALES)
def test_metric_inverse_and_determinant_meet_lapack(k):
    g = lorentz_stack(np.random.default_rng(k + 200)) * 10.0 ** k
    expect = refusal(lapack_invert_metric, g)
    assert refusal(fl.invert_metric, g) == expect
    if expect is None:
        ginv, det = fl.invert_metric(g)
        ref_inv, ref_det = lapack_invert_metric(g)
        assert np.max(np.abs(ginv - ref_inv)) <= 1e-13 * np.max(np.abs(ref_inv))
        assert np.all(np.abs(det - ref_det) <= 1e-13 * np.abs(ref_det))


def test_inverse_of_frames_meets_lapack():
    e = np.random.default_rng(3).standard_normal((5000, 4, 4))
    inv, det, s = fl.inverse4(e)
    ref = np.linalg.inv(e)
    cond = np.linalg.cond(e)
    err = np.max(np.abs(inv - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert np.all(err <= 1e-14 * cond)
    assert np.allclose(det * s ** 4, np.linalg.det(e), rtol=1e-12, atol=1e-14)
    assert np.array_equal(fl.det4(e)[0], det)


@pytest.mark.parametrize("bad, node", [("singular", 7), ("nan", 11), ("zero", 2),
                                       ("overflow", 5)])
def test_bad_nodes_get_the_same_refusal(bad, node):
    g = lorentz_stack(np.random.default_rng(4), 20)
    if bad == "singular":
        g[node, 3] = g[node, 2]
    elif bad == "nan":
        g[node, 1, 2] = np.nan
    elif bad == "zero":
        g[node] = 0.0
    else:
        g[node] *= 1e80
    expect = refusal(lapack_invert_metric, g)
    assert expect is not None and f"({node},)" in expect
    assert refusal(fl.invert_metric, g) == expect


def eigen_verdict(g):
    w = np.linalg.eigvalsh(g)
    return (w[..., 0] < 0) & (w[..., 1] > 0)


def test_signature_rule_meets_eigvalsh_on_every_node():
    rng = np.random.default_rng(5)
    g = lorentz_stack(rng, 2000)
    # indefinite spatial blocks that are still Lorentzian: time along x
    swap = np.eye(4)[[1, 0, 2, 3]]
    g[:300] = swap @ g[:300] @ swap
    # not Lorentzian: two negative directions, or none
    g[300:400] = np.diag([-1.0, -1.0, 1.0, 1.0])
    g[400:500] = np.abs(g[400:500]) + 4 * np.eye(4)
    # only just Lorentzian: the spatial block's smallest eigenvalue near zero
    t = rng.uniform(1e-6, 1e-3, 200)
    g[500:700] = np.diag([-1.0, 1.0, 1.0, 0.0])
    g[500:700, 3, 3] = t
    g[600:700, 3, 3] = -t[100:]
    verdict = eigen_verdict(g)
    assert not verdict.all() and verdict.any()
    first = int(np.argmin(verdict))
    with pytest.raises(fl.SingularMetricError, match=rf"not Lorentzian .* \({first},\)"):
        fl.checked_metric(g).vol
    lorentzian = g[verdict]
    assert np.array_equal(fl.checked_metric(lorentzian).vol,
                          np.sqrt(-fl.checked_metric(lorentzian).det))


def test_sylvester_decides_a_smooth_metric_without_eigvalsh(monkeypatch):
    a = 0.05 * np.random.default_rng(6).standard_normal((500, 4, 4))
    m = fl.checked_metric(fl.ETA + a + np.swapaxes(a, -1, -2))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert m.vol.shape == (500,)


def test_two_by_two_siegel_ratio_meets_eigvalsh():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4000, 2, 2))
    s = a @ np.swapaxes(a, -1, -2)
    s[:1000] *= 10.0 ** rng.integers(-150, 150, 1000)[:, None, None]
    # ratios near PD_RTOL, on both sides of it
    w, v = np.linalg.eigh(s[1000:2000])
    w[:, 0] = w[:, 1] * sp.PD_RTOL * (1 + np.where(np.arange(1000) % 2, 1e-3, -1e-3))
    s[1000:2000] = (v * w[:, None, :]) @ np.swapaxes(v, -1, -2)
    s[2000:2200] = -s[2000:2200]
    s[2200:2300] = 0.0
    w = np.linalg.eigvalsh((s + np.swapaxes(s, -1, -2)) / 2)
    expect = w[..., 0] / np.maximum(np.max(np.abs(w), axis=-1), 1e-300)
    got = sp.min_eig_ratio(s)
    assert np.max(np.abs(got - expect)) <= 1e-14
    assert np.array_equal(got > sp.PD_RTOL, expect > sp.PD_RTOL)
    one = s[:100, :1, :1]
    assert np.array_equal(sp.min_eig_ratio(one), np.sign(one[:, 0, 0]))


def test_antisymmetry_check_keeps_its_verdict_on_nan():
    grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
    cfg = gr.make_configuration(grid, md.builtin("identity-tau"), gr.metric_minkowski(grid),
                                gr.phi_constant(grid, [0.0, 1.0]),
                                np.zeros(grid.shape + (1, 4, 4)))
    v = cfg.V.copy()
    v[1, 2, 3, 4, 0, 1, 2] = np.nan
    gr.FieldConfiguration(cfg.model, cfg.geometry, cfg.phi, v)   # NaN passes, as before
    v[1, 2, 3, 4, 0, 1, 2] = 1e-300
    with pytest.raises(gr.GridError, match="exactly antisymmetric"):
        gr.FieldConfiguration(cfg.model, cfg.geometry, cfg.phi, v)


def test_polynomial_field_keeps_its_bytes():
    """The field strength from the 1-D axes equals the node-by-node sum of
    every term, including repeated, reversed and diagonal components."""
    grid = gr.GridPatch(((-0.4, 0.4), (-0.3, 0.5), (-0.4, 0.4), (-0.2, 0.4)), (9,) * 4)
    terms = [(0, 0, 1, 0.3, (1, 0, 2, 0)), (0, 1, 0, -0.7, (1, 0, 2, 0)),
             (0, 2, 2, 1.5, (0, 1, 0, 0)), (1, 3, 1, -0.0, (0, 0, 0, 0)),
             (1, 1, 3, 2.0, (0, 0, 0, 3)), (0, 0, 1, 0.1, (2, 1, 0, 1))]
    x = grid.coords()
    expect = np.zeros(grid.shape + (2, 4, 4))
    for ell, mu, nu, c, powers in terms:
        mono = np.full(grid.shape, float(c))
        for a, p in enumerate(powers):
            if p:
                mono = mono * x[..., a] ** p
        expect[..., ell, mu, nu] += mono
        expect[..., ell, nu, mu] -= mono
    got = gr.field_strength_polynomial(grid, 2, terms)
    assert hashlib.sha256(got.tobytes()).digest() == hashlib.sha256(expect.tobytes()).digest()


def test_configuration_build_calls_no_lapack_on_metric_stacks(monkeypatch):
    """Building the golden t3 configuration and its transport calls no
    eigvalsh, and no det or inv on a (..., 4, 4) stack."""
    calls = []
    for name in ("eigvalsh", "det", "inv"):
        original = getattr(np.linalg, name)

        def counted(m, *args, _name=name, _original=original, **kwargs):
            if _name == "eigvalsh" or np.shape(m)[-2:] == (4, 4):
                calls.append((_name, np.shape(m)))
            return _original(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    congruences = []
    original_congruence = gr.mobius_congruence

    def congruence(inv, h):
        congruences.append(np.shape(h)[:4])
        return original_congruence(inv, h)
    monkeypatch.setattr(gr, "mobius_congruence", congruence)
    code, text = run(["transport", "--config", str(GOLDEN / "t3.cfg"), "--f", "id",
                      "--A", str(GOLDEN / "t3.A")])
    assert "error" not in text, text
    assert calls == []
    # the transported dN is formed on the 3^4 interior box of the 7^4 grid only
    assert congruences == [(3, 3, 3, 3)]


# ------------------------------------------- transported dN at the box nodes

def transported(spec="mobius:1,0.3,-0.2,1"):
    grid = gr.GridPatch(((-0.4, 0.4),) * 4, (9, 8, 9, 7))
    rng = np.random.default_rng(11)
    base = md.builtin("t3")
    phi = gr.phi_linear(grid, [0.05, 1.1], 0.1 * rng.standard_normal((4, 2)))
    f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.2)
    cfg = gr.make_configuration(grid, base, gr.metric_minkowski(grid), phi, f)
    iso = md.parse_isometry(spec, base.chart)
    return gr.transport_config(iso, sp.random_sp(2, rng, 0.3), cfg)


BOXES = [gr.WHOLE, (slice(2, 7), slice(2, 6), slice(2, 7), slice(2, 5)),
         (slice(0, 3), slice(5, 8), slice(4, 5), slice(0, 7)),
         (slice(4, 5), slice(3, 4), slice(8, 9), slice(6, 7))]


@pytest.mark.parametrize("box", range(len(BOXES)))
def test_box_coupling_derivatives_are_the_whole_grid_ones(box):
    """dR and dI of a transported configuration, formed at the box nodes,
    are == the whole grid's partials of A . N (``checked_partials``, the
    congruence on every node) at those nodes."""
    tcfg = transported()
    whole = md.checked_partials(tcfg.model, tcfg.phi)[1][BOXES[box]]
    x = tcfg.on(BOXES[box])
    assert np.array_equal(x.dR, whole.real) and np.array_equal(x.dI, whole.imag)


def steep_transport(slope):
    """A flat one-field model whose transported dN exceeds MAX_ENTRY where
    |x1| > 0.25, with x1 = t along the grid: A = diag(1e-6, 1e6) scales dN
    by 1e12, and the base dN = 4e138 i x1 stays finite."""
    grid = gr.GridPatch(((-0.4, 0.4),) * 4, (9,) * 4)
    model = md.parse_model("nv = 1\nchart = flat\ndim = 1\nN[1,1] = i*(1 + 2e138*x1^2)\n")
    phi = gr.phi_linear(grid, [0.0], [[slope], [0.0], [0.0], [0.0]])
    cfg = gr.make_configuration(grid, model, gr.metric_minkowski(grid), phi,
                                np.zeros(grid.shape + (1, 4, 4)))
    return gr.transport_config(md.identity_isometry(model.chart), np.diag([1e-6, 1e6]), cfg)


def test_transported_dn_is_checked_at_the_box_nodes_only():
    tcfg = steep_transport(1.0)
    inner = tcfg.on(tcfg.grid.interior())   # |t| <= 0.2 there
    assert np.all(np.isfinite(inner.dI))
    with pytest.raises(gr.GridError, match=r"transported coupling derivative .* node index "
                                           r"\(0, 0, 0, 0\)"):
        tcfg.on(gr.WHOLE).dI
    with pytest.raises(gr.GridError, match=r"node index \(7, 2, 2, 2\)"):
        tcfg.on((slice(7, 9), slice(2, 7), slice(2, 7), slice(2, 7))).dR
