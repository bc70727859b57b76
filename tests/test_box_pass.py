"""The residual pass on a node box is the pass on the whole grid, the box
``WHOLE``, at the box nodes.

``grids.residual_report`` differences the fields on the box's window (the
box plus a two-node halo, clipped at the grid faces) and runs every pointwise
formula on the box nodes only.  A central difference at a box node reads the
same inputs with the same arithmetic as on the whole grid, so every array
here is compared with ``==``, not to a tolerance: the residuals on ``WHOLE``,
the curvature of the metric field and ``fields.star_fibers`` of the whole
field block, sliced to the box, are the oracle.
"""

from pathlib import Path

import numpy as np
import pytest

from emduality import cli
from emduality import fields as fl
from emduality import grids as gr
from emduality import models as md
from emduality import symplectic as sp

SHAPE = (8, 7, 9, 7)
GRID = gr.GridPatch(((-0.4, 0.4), (-0.3, 0.5), (-0.4, 0.2), (-0.2, 0.4)), SHAPE)
METRIC_TERMS = [(0, 1, 1, 1, 0.03), (2, 3, 0, 2, 0.02), (1, 1, 2, 2, 0.01),
                (0, 0, 3, 3, -0.02), (1, 3, 0, 3, 0.015)]
MODELS = ("t3", "axio-dilaton", "constant-i:2")


def configuration(name, rng):
    model = md.builtin(name)
    phi = gr.phi_linear(GRID, [0.05, 1.1], 0.08 * rng.standard_normal((4, 2)))
    f = gr.random_polynomial_fieldstrength(GRID, model.n_v, rng, amp=0.2)
    return gr.make_configuration(GRID, model, gr.metric_quadratic(GRID, METRIC_TERMS), phi, f)


def transported(rng):
    cfg = configuration("axio-dilaton", rng)
    return gr.transport_config(md.parse_isometry("scale:1.2", cfg.model.chart),
                               sp.random_sp(2, rng), cfg)


def boxes():
    """The interior, boxes on a face and at a corner, one-node boxes and
    seeded random boxes."""
    rng = np.random.default_rng(11)
    out = {"interior": GRID.interior(),
           "face": (slice(0, 3), slice(2, 5), slice(3, 9), slice(1, 6)),
           "corner": tuple(slice(n - 2, n) for n in SHAPE),
           "node": (slice(3, 4), slice(2, 3), slice(4, 5), slice(3, 4)),
           "face-node": (slice(0, 1), slice(6, 7), slice(4, 5), slice(0, 1)),
           "whole": tuple(slice(0, n) for n in SHAPE)}
    for k in range(4):
        lo = [int(rng.integers(0, n)) for n in SHAPE]
        out[f"random{k}"] = tuple(slice(a, int(rng.integers(a + 1, n + 1)))
                                  for a, n in zip(lo, SHAPE))
    return out


BOXES = boxes()


def whole_grid(cfg):
    """The whole-grid arrays the box pass must reproduce."""
    whole = cfg.on(gr.WHOLE)
    return {"einstein": gr.einstein_residual(whole, check=False),
            "local": gr.scalar_residual(whole, "local"),
            "global": gr.scalar_residual(whole, "global"),
            "maxwell": gr.maxwell_residual(whole),
            "gamma": gr.christoffel(cfg.g, cfg.grid),
            "G": gr.einstein(cfg.g, cfg.grid),
            "star_v": fl.star_fibers(cfg.geometry, cfg.V),
            "J": whole.J}


@pytest.fixture(scope="module", params=MODELS + ("transported",))
def case(request):
    rng = np.random.default_rng(5)
    cfg = transported(rng) if request.param == "transported" else configuration(request.param, rng)
    return cfg, whole_grid(cfg)


@pytest.mark.parametrize("name", list(BOXES))
def test_box_pass_is_the_whole_grid_pass_at_the_box_nodes(case, name):
    cfg, full = case
    box = BOXES[name]
    x = cfg.on(box)
    got = {"einstein": gr.einstein_residual(x, check=False),
           "local": gr.scalar_residual(x, "local"),
           "global": gr.scalar_residual(x, "global"),
           "maxwell": gr.maxwell_residual(x),
           "gamma": x.geometry.gamma,
           "G": x.geometry.einstein_tensor,
           "star_v": x.star_v,
           "J": x.J}
    for key, value in got.items():
        assert np.array_equal(value, full[key][box]), key
    rep = gr.residual_report(x)
    assert np.array_equal(rep.einstein, full["einstein"][box])
    assert np.array_equal(rep.scalar, full["local"][box])
    assert np.array_equal(rep.maxwell, full["maxwell"][box])
    assert rep.selfdual_violation == fl.selfduality_defect(full["star_v"][box], full["J"][box],
                                                           cfg.V[box])


def test_default_box_is_the_interior(case):
    """The grid reports read the margin-2 interior: the transport harness
    compares the reports of the interior view before and after transport."""
    cfg, full = case
    inner = GRID.interior()
    out = gr.equivariance_harness(cfg, md.parse_isometry("id", cfg.model.chart),
                                  np.eye(2 * cfg.n_v))
    assert out.before.maxima() == tuple(float(np.abs(full[k][inner]).max())
                                        for k in ("einstein", "local", "maxwell"))
    assert out.before.selfdual_violation == fl.selfduality_defect(
        full["star_v"][inner], full["J"][inner], cfg.V[inner])


def test_whole_box_is_the_configuration_itself(case):
    cfg, _ = case
    x = cfg.on(gr.WHOLE)
    assert x.geometry is cfg.geometry
    assert all(getattr(x, name).shape == getattr(cfg, name).shape for name in x.NODE_FIELDS)


def test_one_geometry_per_box():
    cfg = configuration("t3", np.random.default_rng(2))
    inner = GRID.interior()
    geo = cfg.geometry.on(inner)
    assert cfg.geometry.on(tuple(slice(s.start, s.stop) for s in inner)) is geo
    assert geo.g.shape == tuple(s.stop - s.start for s in inner) + (4, 4)
    assert geo.gw.shape == SHAPE + (4, 4)        # the interior's window is the whole grid
    assert cfg.geometry.on(BOXES["node"]).gw.shape == (5, 5, 5, 5, 4, 4)


@pytest.mark.parametrize("name", ["interior", "face", "node"])
def test_report_forms_nothing_on_the_whole_grid(monkeypatch, name):
    """While a report runs, the stresses, pairings, duals and the Einstein
    tensor see arrays of the box's shape only."""
    cfg = configuration("t3", np.random.default_rng(3))
    box = BOXES[name]
    shape = tuple(s.stop - s.start for s in box)
    seen = []

    def spy(module, fn, lead):
        original = getattr(module, fn)

        def wrapped(*args, **kwargs):
            seen.append((fn, lead(*args)))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, fn, wrapped)

    spy(fl, "stress_gauge", lambda g, j, v, *rest: v.shape[:-3])
    spy(fl, "pairings", lambda g, a, b: a.shape[:-3])
    spy(fl, "star_fibers", lambda g, v: v.shape[:-3])
    spy(gr, "einstein", lambda g, grid: g.g.shape[:-2])
    gr.residual_report(cfg.on(box))
    assert {fn for fn, _ in seen} == {"stress_gauge", "pairings", "star_fibers", "einstein"}
    assert all(lead == shape for _, lead in seen), seen


def test_residuals_form_star_v_once(monkeypatch):
    """``residuals`` reads one interior view: its report, the global scalar
    assembly and the self-duality row share one *V of the 2 n_v fibers."""
    formed = []
    star_fibers = fl.star_fibers

    def spy(g, v):
        formed.append(v.shape)
        return star_fibers(g, v)

    monkeypatch.setattr(fl, "star_fibers", spy)
    golden = Path(__file__).resolve().parent / "golden"
    code, _ = cli.run(["residuals", "--config", str(golden / "t3.cfg")])
    assert code == 0
    # t3 has n_v = 2 on a 7^4 grid; the n_v-fiber *F is the field block's assembly
    assert [shape for shape in formed if shape[-3] == 4] == [(3, 3, 3, 3, 4, 4, 4)]


@pytest.mark.parametrize("halo", [0, 1, 2, (0, 1, 0, 2)])
def test_box_window_clips_at_the_faces(halo):
    box = (slice(0, 2), slice(3, 4), slice(5, 9), slice(1, 6))
    window, inner = gr.box_window(SHAPE, box, halo)
    k = np.broadcast_to(halo, (4,))
    for s, w, i, n, h in zip(box, window, inner, SHAPE, k):
        assert w.start == max(s.start - h, 0) and w.stop == min(s.stop + h, n)
        assert (w.start + i.start, w.start + i.stop) == (s.start, s.stop)


ADS = [(n,) * 4 for n in cli.ADS_SIZES]


@pytest.mark.parametrize("argv, grids, boxes", [
    (["thm53", "--frame", "ads4-poincare", "--lambda", "0.9"], ADS, [(7,) * 4, (9,) * 4]),
    (["spinor-check", "--frame", "ads4-poincare"], ADS, []),
    (["residuals", "--config", "t3.cfg"], [(7,) * 4], [(3,) * 4]),
    (["selfdual", "--config", "t3.cfg"], [(7,) * 4], []),
    (["transport", "--config", "t3.cfg", "--f", "id", "--A", "t3.A"], [(7,) * 4], [(3,) * 4])])
def test_no_command_forms_gamma_on_a_whole_grid(monkeypatch, argv, grids, boxes):
    """Every Christoffel symbol a command forms is that of a node box short of
    its own grid: ``thm53`` reads the box of the coarse interior's region
    plus one node on its 9^4 and 13^4 grids (the fine grid's box has the
    coarse grid's shape), a report on the 7^4 t3 config its interior, once
    for a configuration and its transport, and the self-duality view and
    the spinor check form none."""
    formed = []
    christoffel = gr._christoffel

    def spy(ginv, dg, out=None):
        formed.append(ginv.shape[:-2])
        return christoffel(ginv, dg, out)

    monkeypatch.setattr(gr, "_christoffel", spy)
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    code, _ = cli.run(argv)
    assert code == 0
    assert formed == boxes
    assert all(box != grid for grid, box in zip(grids, formed)), formed
