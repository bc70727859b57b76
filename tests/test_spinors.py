import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from emduality import cli
from emduality import fields as fl
from emduality import grids as gr
from emduality import spinors as sn
from emduality import symplectic as sp


LAM = 1.0
GOLDEN_T3 = Path(__file__).resolve().parent / "golden" / "t3.cfg"


def ads_grid(n):
    return gr.GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4), (0.8, 1.6)), (n,) * 4)


def region_mask(grid):
    # fixed physical comparison region, common to all refinements
    co = grid.coords()
    return ((np.abs(co[..., 0]) <= 0.201) & (np.abs(co[..., 1]) <= 0.201)
            & (np.abs(co[..., 2]) <= 0.201)
            & (co[..., 3] >= 0.999) & (co[..., 3] <= 1.401))


EPS0 = np.array([0.9, -0.4, 0.3, 1.1])


@pytest.fixture(scope="module")
def ads9():
    grid = ads_grid(9)
    fr = sn.builtin_frame("ads4-poincare", grid, lam=LAM)
    eps = sn.integrate_killing(fr, LAM, EPS0)
    return grid, fr, eps


@pytest.fixture(scope="module")
def ads17():
    grid = ads_grid(17)
    fr = sn.builtin_frame("ads4-poincare", grid, lam=LAM)
    eps = sn.integrate_killing(fr, LAM, EPS0)
    return grid, fr, eps


class TestCliffordRep:
    def test_anticommutation_exact(self):
        for a in range(4):
            for b in range(4):
                anti = sn.GAMMA[a] @ sn.GAMMA[b] + sn.GAMMA[b] @ sn.GAMMA[a]
                assert np.array_equal(anti, 2 * sn.ETA[a, b] * np.eye(4))

    def test_real_entries(self):
        assert sn.GAMMA.dtype == np.float64
        assert np.all(np.isreal(sn.GAMMA))

    def test_traceless(self):
        for a in range(4):
            assert np.trace(sn.GAMMA[a]) == 0.0

    def test_gamma5_squares_to_minus_one(self):
        g5 = sn.GAMMA5
        assert np.array_equal(g5 @ g5, -np.eye(4))

    def test_lorentz_bracket_closure(self):
        # M_ab = (1/4)[gamma_a, gamma_b] closes the so(3,1) bracket
        eta = sn.ETA
        m = np.zeros((4, 4, 4, 4))
        for a in range(4):
            for b in range(4):
                m[a, b] = 0.25 * (sn.GAMMA[a] @ sn.GAMMA[b]
                                  - sn.GAMMA[b] @ sn.GAMMA[a])
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        lhs = m[a, b] @ m[c, d] - m[c, d] @ m[a, b]
                        rhs = (eta[b, c] * m[a, d] - eta[a, c] * m[b, d]
                               - eta[b, d] * m[a, c] + eta[a, d] * m[b, c])
                        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_invariant_bilinear_spaces(self):
        bil = invariant_bilinears()
        assert len(bil[1]) == 1 and len(bil[-1]) == 1
        for sigma in (1, -1):
            c = bil[sigma][0]
            for a in range(4):
                assert np.max(np.abs(sn.GAMMA[a].T @ c - sigma * c @ sn.GAMMA[a])) < 1e-12


class TestFrames:
    def test_minkowski_frame(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        fr = sn.builtin_frame("minkowski", grid)
        assert np.array_equal(fr.metric()[0, 0, 0, 0], sn.ETA)

    def test_ads_frame_metric(self, ads9):
        grid, fr, _ = ads9
        z = grid.coords()[..., 3]
        g = fr.metric()
        expect = sn.ETA * (1.0 / (LAM * z) ** 2)[..., None, None]
        assert np.max(np.abs(g - expect)) < 1e-13

    def test_ads_needs_positive_z(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        with pytest.raises(sn.FrameError):
            sn.builtin_frame("ads4-poincare", grid)

    def test_unknown_frame(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        with pytest.raises(sn.FrameError):
            sn.builtin_frame("rindler", grid)

    def test_frame_consistency_validated(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        bad = np.zeros(grid.shape + (4, 4))
        with pytest.raises(sn.FrameError):
            sn.FramePatch(grid, bad)

    @pytest.mark.filterwarnings("error")
    def test_singular_frame_check_is_scale_free(self):
        # |det e| is taken with the rows of e scaled to unit norm, each first
        # divided by its largest entry, so a small or huge regular frame passes
        # (det e itself, or a row's norm, would over- or underflow), and one
        # degenerate node or a zero row fails, all without a numpy warning
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        eye = np.broadcast_to(np.eye(4), grid.shape + (4, 4))
        for scale in (1e-4, 1e-300, 1e-150, 1e-80, 1e80, 1e150, 1e300):
            sn.FramePatch(grid, scale * eye)
        degenerate = eye.copy()
        degenerate[3, 2, 1, 4, 1] = degenerate[3, 2, 1, 4, 0]
        zero_row = eye.copy()
        zero_row[1, 2, 3, 4, 2] = 0.0
        for bad in (degenerate, 1e-4 * degenerate, zero_row):
            with pytest.raises(sn.FrameError, match="singular frame"):
                sn.FramePatch(grid, bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [-1e-300, 1e-300, -1e-150, 1e-150, -1e-80, 1e-80, 1e-12,
                                     1e12, 1e80, 1e150, -1e300, 1e300])
    def test_spinor_check_reads_as_unit_lambda(self, lam):
        # the AdS4 Killing spinors do not depend on lambda, and every row of
        # spinor-check is scale-free: each lambda gives the rows of +-1
        def rows(value):
            # one argument: argparse reads a separate "-1e-80" as an option
            code, text = cli.run(["spinor-check", "--frame", "ads4-poincare",
                                  f"--lambda={value!r}"])
            checks = dict(line.split(" = ", 1) for line in text.splitlines()
                          if line.startswith(("check ", "result ")))
            return code, checks

        code, checks = rows(lam)
        unit_code, unit = rows(float(np.copysign(1.0, lam)))
        assert (code, checks.keys()) == (unit_code, unit.keys()) and code == 0
        for key, line in checks.items():
            value, *rest = line.split()
            expected, *unit_rest = unit[key].split()
            assert rest == unit_rest
            if rest:
                assert float(value) == pytest.approx(float(expected), rel=1e-6)


class TestSpinConnection:
    def test_minkowski_zero_exact(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        fr = sn.builtin_frame("minkowski", grid)
        assert np.max(np.abs(sn.spin_connection(fr))) == 0.0

    def test_antisymmetry_exact(self, ads9):
        _, fr, _ = ads9
        w = sn.spin_connection(fr)
        assert np.max(np.abs(w + np.swapaxes(w, -1, -2))) == 0.0

    def test_matches_conformal_oracle(self, ads9, ads17):
        # the analytic conformal-frame connection is the oracle; agreement
        # must be second order in the spacing
        errs = []
        for grid, fr, _ in (ads9, ads17):
            w_fd = sn.spin_connection(fr)
            w_an = full_connection(fr, grid.coords())
            m = region_mask(grid)
            errs.append(float(np.max(np.abs(w_fd[m] - w_an[m]))))
        assert errs[0] < 2e-2
        assert 1.5 <= np.log2(errs[0] / errs[1]) <= 2.5

    def test_metric_compatibility(self, ads9, ads17):
        errs = []
        for _, fr, _ in (ads9, ads17):
            errs.append(metric_compatibility_residual(fr, sn.spin_connection(fr)))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3


class TestKillingTransport:
    def test_minkowski_parallel_spinor(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        fr = sn.builtin_frame("minkowski", grid)
        eps = np.broadcast_to(EPS0, grid.shape + (4,)).copy()
        assert np.max(np.abs(sn.killing_residual(fr, eps, 0.0, grid.interior()))) <= 1e-14

    def test_minkowski_integration_constant(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        fr = sn.builtin_frame("minkowski", grid)
        eps = sn.integrate_killing(fr, 0.0, EPS0)
        assert np.max(np.abs(eps - EPS0)) == 0.0
        assert sn.path_defect(fr, 0.0, eps) == 0.0

    def test_ads_residual_second_order(self, ads9, ads17):
        errs = []
        for grid, fr, eps in (ads9, ads17):
            res = sn.killing_residual(fr, eps, LAM)
            errs.append(float(np.max(np.abs(res[region_mask(grid)]))))
        order = np.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2

    def test_ads_path_defect_shrinks(self, ads9, ads17):
        defects = []
        for grid, fr, eps in (ads9, ads17):
            defects.append(sn.path_defect(fr, LAM, eps))
        assert defects[0] < 1e-5
        assert defects[1] < 0.3 * defects[0]

    def test_wrong_killing_constant_negative_control(self, ads9):
        _, fr, _ = ads9
        assert sn.path_defect(fr, 1.3, sn.integrate_killing(fr, 1.3, EPS0)) > 1e-2

    def test_random_field_negative_control(self, ads9):
        grid, fr, _ = ads9
        rng = np.random.default_rng(5)
        eps = rng.standard_normal(grid.shape + (4,))
        assert np.max(np.abs(sn.killing_residual(fr, eps, LAM, grid.interior()))) > 1.0

    def test_requires_analytic_frame(self, ads9):
        grid, fr, _ = ads9
        bare = sn.FramePatch(grid, fr.e.copy())
        with pytest.raises(sn.FrameError):
            sn.integrate_killing(bare, LAM, EPS0)


def full_reverse_defect(fr, lam, eps):
    """The far-corner defect from the full (3, 2, 1, 0) sweep of every node:
    the oracle of the corner-path ``path_defect``."""
    back = sn.integrate_killing(fr, lam, eps[(0,) * 4], axis_order=(3, 2, 1, 0))
    corner = tuple(n - 1 for n in fr.grid.shape)
    return float(np.max(np.abs(eps[corner] - back[corner])))


def cli_region_mask(grid):
    """The coordinate box ``spinor-check`` reads: the 9^4 grid's margin-2
    interior, widened by 1e-9."""
    coarse = ads_grid(9)
    inner = coarse.coords()[coarse.interior()].reshape(-1, 4)
    x = grid.coords()
    return np.all((x >= inner.min(axis=0) - 1e-9) & (x <= inner.max(axis=0) + 1e-9), axis=-1)


def cli_box(grid):
    """The node box of ``cli_region_mask``: one slice per axis, from the
    mask's extent along that axis."""
    inside = cli_region_mask(grid)
    box = []
    for axis in range(4):
        hit = np.flatnonzero(np.any(inside, axis=tuple(b for b in range(4) if b != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


class TestComputeOnlyWhatIsRead:
    """``path_defect`` walks the corner path and ``killing_residual`` runs
    the connection formula on its node box only; the full-field sweep and
    the all-at-once residual are their oracles."""

    @pytest.mark.parametrize("shape", [(9,) * 4, (13,) * 4, (7, 9, 8, 11)])
    @pytest.mark.parametrize("name, lam", [("minkowski", 0.0), ("ads4-poincare", 0.7),
                                           ("ads4-poincare", 1.0), ("ads4-poincare", 1e4)])
    def test_corner_path_is_the_full_sweep_corner(self, name, lam, shape):
        grid = gr.GridPatch(((-0.4, 0.4), (-0.3, 0.5), (-0.4, 0.6), (0.8, 1.6)), shape)
        fr = sn.builtin_frame(name, grid, lam=lam or 1.0)
        eps = sn.integrate_killing(fr, lam, EPS0)
        defect = sn.path_defect(fr, lam, eps)
        assert defect == full_reverse_defect(fr, lam, eps)
        if name == "minkowski":
            assert defect == 0.0

    @pytest.mark.parametrize("n", [9, 13])
    @pytest.mark.parametrize("box", ["interior", "cli region", "face", "one node",
                                     "one corner node"])
    def test_windowed_residual_matches_full_grid(self, monkeypatch, n, box):
        # the residual on a box is the independent all-at-once residual of
        # the whole grid, sliced to the box, bit for bit
        fr = sn.builtin_frame("ads4-poincare", ads_grid(n), lam=LAM)
        eps = sn.integrate_killing(fr, LAM, EPS0)
        nodes = {"interior": fr.grid.interior(),
                 "cli region": cli_box(fr.grid),
                 # touches the t = min face: the halo is clipped there
                 "face": (slice(0, 3), slice(2, 7), slice(4, 5), slice(1, 4)),
                 "one node": (slice(5, 6),) * 4,
                 # the far corner: the halo is clipped at four faces
                 "one corner node": (slice(n - 1, n),) * 4}[box]
        full = allatonce_killing_residual(fr, eps, LAM)[nodes]
        counts = []
        connection = sn._connection

        def spy(e, de):
            counts.append(len(e))
            return connection(e, de)

        monkeypatch.setattr(sn, "_connection", spy)
        assert sn.killing_residual(fr, eps, LAM, nodes).tobytes() == full.tobytes()
        # the connection formula runs on the box nodes only
        assert sum(counts) == np.prod([s.stop - s.start for s in nodes])
        # and the residual's connection is spin_connection on the box
        assert (sn.spin_connection(fr, nodes).tobytes()
                == allatonce_spin_connection(fr)[nodes].tobytes())
        # and kappa on the box, read with the Gamma of the box geometry, is
        # the all-at-once kappa of the whole grid there
        u, l = sn.killing_bilinears(fr, eps)
        kappa = allatonce_extract_kappa(u, l, LAM, gr.checked_geometry(fr.metric(), fr.grid),
                                        fr.grid)
        assert (sn.extract_kappa(u, l, LAM, fr.geometry, fr.grid, nodes).tobytes()
                == kappa[nodes].tobytes())

    @pytest.mark.parametrize("n", [9, 13])
    def test_first_order_system_matches_full_grid(self, n):
        # the residuals read on the interior's window are those of the whole
        # grid's arrays, reduced over the interior
        fr = sn.builtin_frame("ads4-poincare", ads_grid(n), lam=LAM)
        u, l = sn.killing_bilinears(fr, sn.integrate_killing(fr, LAM, EPS0))
        geo, grid, inner = gr.checked_geometry(fr.metric(), fr.grid), fr.grid, fr.grid.interior()
        kappa = allatonce_extract_kappa(u, l, LAM, geo, grid)
        grad_u, grad_l = (np.moveaxis(gr.partials(w, grid), -1, -2)
                          - np.einsum("...lmn,...l->...mn", geo.gamma, w) for w in (u, l))
        wedge = np.einsum("...m,...n->...mn", u, l) - np.einsum("...m,...n->...mn", l, u)
        dl = (grad_l - np.einsum("...m,...n->...mn", kappa, u)
              - LAM * (np.einsum("...m,...n->...mn", l, l) - geo.g))
        dkappa = np.moveaxis(gr.partials(kappa, grid), -1, -2)
        rep = sn.verify_thm53(u, l, LAM, fr.geometry, grid)
        assert rep.du_residual == np.max(np.abs((grad_u - LAM * wedge)[inner]))
        assert rep.dl_residual == np.max(np.abs(dl[inner]))
        killing = grad_u + np.swapaxes(grad_u, -1, -2)
        assert rep.u_killing_residual == np.max(np.abs(killing[inner]))
        assert rep.dkappa_max == np.max(np.abs((dkappa - np.swapaxes(dkappa, -1, -2))[inner]))

    def test_windowed_residual_minkowski_exactly_zero(self):
        fr = sn.builtin_frame("minkowski", ads_grid(9))
        eps = sn.integrate_killing(fr, 0.0, EPS0)
        for box in (fr.grid.interior(), cli_box(fr.grid),
                    (slice(0, 1), slice(4, 5), slice(8, 9), slice(2, 3))):
            assert np.max(np.abs(sn.killing_residual(fr, eps, 0.0, box))) == 0.0

    def test_one_spinor_round_computes_only_what_it_reads(self, monkeypatch):
        # spinor-check on ads4 runs the connection formula on the node box of
        # the coarse interior (5^4 and 7^4 nodes, not the 9^4 and 13^4 grids),
        # and each path defect hands the propagators one line per axis
        connections, paths, running = [], [], []
        connection, residual = sn._connection, sn.killing_residual
        propagators, defect = sn._edge_propagators, sn.path_defect

        def spy_connection(e, de):
            connections[-1] += len(e)
            return connection(e, de)

        def spy_residual(fr, eps, lam, box=gr.WHOLE):
            connections.append(0)
            return residual(fr, eps, lam, box)

        def spy_propagators(fr, lam, nodes, axis, h):
            if running:
                paths[-1].append((nodes.shape, axis))
            return propagators(fr, lam, nodes, axis, h)

        def spy_defect(fr, lam, eps):
            paths.append([])
            running.append(True)
            try:
                return defect(fr, lam, eps)
            finally:
                running.pop()

        monkeypatch.setattr(sn, "_connection", spy_connection)
        monkeypatch.setattr(sn, "killing_residual", spy_residual)
        monkeypatch.setattr(sn, "_edge_propagators", spy_propagators)
        monkeypatch.setattr(sn, "path_defect", spy_defect)
        assert cli.run(["spinor-check", "--frame", "ads4-poincare", "--lambda", "1.0"])[0] == 0
        assert connections == [5 ** 4, 7 ** 4]
        assert paths == [[((n, 4), axis) for axis in (3, 2, 1, 0)] for n in cli.ADS_SIZES]


class TestEinsteinProperty:
    def test_ads_is_einstein(self, ads9, ads17):
        # Ric = -3 lam^2 g to second order
        errs = []
        for grid, fr, _ in (ads9, ads17):
            g = fr.metric()
            ric = gr.ricci(g, grid)
            m = region_mask(grid)
            errs.append(float(np.max(np.abs((ric + 3 * LAM ** 2 * g)[m]))))
        order = np.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2


class TestBilinears:
    def test_algebraic_properties_machine_exact(self, ads9):
        grid, fr, eps = ads9
        u, l = sn.killing_bilinears(fr, eps)
        g = fr.metric()
        ginv = np.linalg.inv(g)
        uu = np.einsum("...mn,...m,...n->...", ginv, u, u)
        ll = np.einsum("...mn,...m,...n->...", ginv, l, l)
        ul = np.einsum("...mn,...m,...n->...", ginv, u, l)
        scale = float(np.max(np.abs(u))) ** 2
        assert np.max(np.abs(uu)) < 1e-12 * scale     # lightlike
        assert np.max(np.abs(ll - 1.0)) < 1e-10       # unit spacelike
        assert np.max(np.abs(ul)) < 1e-12 * np.sqrt(scale)
        assert np.max(np.abs(u)) > 1.0                # nontrivial

    @pytest.mark.parametrize("frame", ["eta", "wavy"])
    def test_fierz_identities_on_random_spinors(self, frame, wavy9):
        # for any real spinor, not only a Killing one, and with no
        # normalisation: u null, l unit, u orthogonal to l, and the tensor
        # bilinear (by the searched pairing) om = l ^ u, node by node
        if frame == "eta":
            grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
            fr = sn.FramePatch(grid, np.broadcast_to(np.eye(4), grid.shape + (4, 4)))
        else:
            fr = wavy9
        eps = np.random.default_rng(5).standard_normal(fr.grid.shape + (4,))
        u, l = sn.killing_bilinears(fr, eps)
        ginv = np.linalg.inv(oracle_metric(fr.e))

        def g(a, b):
            return np.einsum("...mn,...m,...n->...", ginv, a, b)

        size_u, size_l = np.linalg.norm(u, axis=-1), np.linalg.norm(l, axis=-1)
        assert np.max(np.abs(g(u, u)) / size_u ** 2) <= 1e-14
        assert np.max(np.abs(g(l, l) - 1.0)) <= 1e-14
        assert np.max(np.abs(g(u, l)) / (size_u * size_l)) <= 1e-14
        _, om = oracle_vector_tensor(fr, eps)
        wedge = np.einsum("...m,...n->...mn", l, u) - np.einsum("...m,...n->...mn", u, l)
        om_size = np.max(np.abs(om), axis=(-2, -1))[..., None, None]
        assert np.max(np.abs(om - wedge) / om_size) <= 1e-14

    def test_first_order_system_second_order(self, ads9, ads17):
        maxima = []
        for grid, fr, eps in (ads9, ads17):
            u, l = sn.killing_bilinears(fr, eps)
            g = fr.metric()
            rep = sn.verify_thm53(u, l, LAM, g, grid)
            assert rep.nontrivial
            assert rep.u_norm_violation < 1e-10
            assert rep.l_norm_violation < 1e-10
            assert rep.orthogonality_violation < 1e-10
            maxima.append((rep.du_residual, rep.dl_residual, rep.u_killing_residual))
        # C = err / h^2 stable: each residual shrinks by ~4 (interior growth
        # makes the plain max slightly sub-quadratic; require a factor >= 2)
        for k in range(3):
            assert maxima[1][k] < 0.55 * maxima[0][k]

    def test_first_order_system_fixed_region_order(self, ads9, ads17):
        errs = []
        for grid, fr, eps in (ads9, ads17):
            u, l = sn.killing_bilinears(fr, eps)
            g = fr.metric()
            gam = gr.christoffel(g, grid)
            du = np.moveaxis(gr.partials(u, grid), -1, -2)
            grad_u = du - np.einsum("...lmn,...l->...mn", gam, u)
            wedge = (np.einsum("...m,...n->...mn", u, l)
                     - np.einsum("...m,...n->...mn", l, u))
            res = grad_u - LAM * wedge
            errs.append(float(np.max(np.abs(res[region_mask(grid)]))))
        assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2

    def test_dkappa_reported(self, ads9):
        grid, fr, eps = ads9
        u, l = sn.killing_bilinears(fr, eps)
        g = fr.metric()
        rep = sn.verify_thm53(u, l, LAM, g, grid)
        assert np.isfinite(rep.dkappa_max)


class TestThm53Checks:
    def test_zero_u_rejected(self):
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        fr = sn.builtin_frame("minkowski", grid)
        g = fr.metric()
        l = np.zeros(grid.shape + (4,))
        l[..., 1] = 1.0
        rep = sn.verify_thm53(np.zeros(grid.shape + (4,)), l, 0.0, g, grid)
        assert not rep.nontrivial
        assert rep.du_residual == 0.0
        assert rep.dl_residual == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1e12, 1e20, 1e40])
    def test_nontrivial_is_scale_free(self, lam):
        # u_m = e^a_m u_a scales as the frame, 1/lam, and so does the bound
        # 1e-10 sqrt(max |g|) it is compared with
        code, text = cli.run(["thm53", "--frame", "ads4-poincare", f"--lambda={lam!r}"])
        assert code == 0
        assert "check nontrivial = true tol - pass" in text.splitlines()

    def test_perturbed_norm_flagged(self, ads9):
        grid, fr, eps = ads9
        u, l = sn.killing_bilinears(fr, eps)
        g = fr.metric()
        rep = sn.verify_thm53(u, 1.1 * l, LAM, g, grid)
        assert rep.l_norm_violation == pytest.approx(0.21, abs=0.01)


class TestChiralAlgebra:
    def test_projectors(self):
        p_plus, p_minus = sn.chiral_projectors()
        assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-14
        assert np.max(np.abs(p_plus + p_minus - np.eye(4))) < 1e-14
        assert np.max(np.abs(p_plus @ p_minus)) < 1e-14

    def test_zero_w(self):
        rng = np.random.default_rng(0)
        eps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for _ in range(5):
            v = rng.standard_normal(4)
            assert np.max(np.abs(sn.t_w(0.0, eps, v))) == 0.0

    def test_real_w_reduction(self):
        # real w on a conjugation-real spinor reduces to the real Killing
        # endomorphism with lam = 2w
        rng = np.random.default_rng(1)
        eps_real = rng.standard_normal(4).astype(complex)
        w = 0.45
        for _ in range(10):
            v = rng.standard_normal(4)
            lhs = sn.t_w(w, eps_real, v)
            rhs = w * np.einsum("a,aij,j->i", v, sn.GAMMA, eps_real)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_check_report(self):
        rng = np.random.default_rng(2)
        p_plus, p_minus = sn.chiral_projectors()
        eps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = sn.chiral_operator_check(0.3 + 0.7j, p_plus @ eps, p_minus @ eps)
        assert out["linearity"] < 1e-13
        assert out["real_structure"] < 1e-13
        out2 = sn.chiral_operator_check(0.5, p_plus @ eps, p_minus @ eps)
        assert out2["real_w_reduction"] < 1e-13

    @staticmethod
    def loop_check(w, eps1, eps2, rng):
        """The residuals of ``chiral_operator_check`` for chiral halves eps1,
        eps2, one sample frame vector at a time: the reference for its
        stacked calls."""
        out = {"linearity": 0.0, "real_structure": 0.0}
        eps = eps1 + eps2
        real_eps = eps + np.conj(eps)
        for v in rng.standard_normal((8, 4)):
            t_val = sn.t_w(w, eps, v)
            out["linearity"] = max(out["linearity"], float(np.max(np.abs(
                sn.t_w(w, 2.5 * eps, v) - 2.5 * t_val))))
            out["real_structure"] = max(out["real_structure"], float(np.max(np.abs(
                np.conj(t_val) - sn.t_w(w, np.conj(eps), v)))))
            if abs(w.imag) < 1e-14:
                out["real_w_reduction"] = max(out.get("real_w_reduction", 0.0), float(
                    np.max(np.abs(sn.t_w(w, real_eps, v)
                                  - w.real * (sn.slash(v) @ real_eps)))))
        return out

    @pytest.mark.parametrize("w", [0.3 + 0.7j, 0.5, -1.2, 2j])
    def test_stacked_check_matches_loop(self, w):
        p_plus, p_minus = sn.chiral_projectors()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            eps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            halves = p_plus @ eps, p_minus @ eps
            got = sn.chiral_operator_check(w, *halves, np.random.default_rng(seed + 10))
            assert got == self.loop_check(w, *halves, np.random.default_rng(seed + 10))

    def test_non_chiral_input_warns(self):
        rng = np.random.default_rng(3)
        eps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        with pytest.warns(UserWarning):
            sn.chiral_operator_check(0.2, eps, eps)


# ------------------------------------------------------------ einsum oracles
# The contraction kernels written out as the multi-operand einsums they were
# first written as, one formula each.  The stacked-matmul kernels of the
# module must agree with them to roundoff.

def bilinear_space(gamma, sigma):
    """Basis of {C : gamma_a^T C = sigma C gamma_a for all a}, by brute-force
    null space."""
    # row-major vec: vec(G^T C - sigma C G) = (G^T kron I - sigma I kron G^T) vec C
    rows = [np.kron(ga.T, np.eye(4)) - sigma * np.kron(np.eye(4), ga.T) for ga in gamma]
    null = sp.null_space(np.vstack(rows), 1e-12)
    return [null[:, k].reshape(4, 4) for k in range(null.shape[1])]


def searched_pairing(gamma):
    """The sigma = -1 invariant bilinear found by search, scaled to largest
    entry 1: the oracle of the closed form ``sn.PAIRING``."""
    mats = bilinear_space(gamma, -1)
    if len(mats) != 1:
        raise RuntimeError(f"expected one sigma=-1 invariant bilinear, got {len(mats)}")
    return mats[0] / np.max(np.abs(mats[0]))


def invariant_bilinears():
    """Bases of the spaces {C : gamma_a^T C = sigma C gamma_a for all a},
    keyed by sigma in {+1, -1}."""
    return {sigma: bilinear_space(sn.GAMMA, sigma) for sigma in (1, -1)}


def full_frame(fr, pts):
    """e (..., a, mu): the direction-only evaluator's columns stacked over mu."""
    return np.stack([fr.along(pts, mu)[0] for mu in range(4)], axis=-1)


def full_connection(fr, pts):
    """w (..., mu, a, b): the direction-only evaluator stacked over mu."""
    return np.stack([fr.along(pts, mu)[1] for mu in range(4)], axis=-3)


def metric_compatibility_residual(fr, w):
    """Max norm over the margin-2 interior of
    d_mu e^a_nu + w_mu^a_b e^b_nu - Gam^l_{mu nu} e^a_l  (second order)."""
    gam = gr.christoffel(fr.geometry, fr.grid)
    de = np.moveaxis(gr.partials(fr.e, fr.grid), -1, -3)     # (..., mu, a, nu)
    wu = np.einsum("ac,...mcb->...mab", np.linalg.inv(sn.ETA), w)
    term = (de + np.einsum("...mab,...bn->...man", wu, fr.e)
            - np.einsum("...lmn,...al->...man", gam, fr.e))
    return float(np.max(np.abs(term[fr.grid.interior()])))


def oracle_generator(w_mab, e_am, lam):
    gup = np.einsum("ab,bij->aij", np.linalg.inv(sn.ETA), sn.GAMMA)
    quarter = 0.25 * np.einsum("...mab,aij,bjk->...mik", w_mab, gup, gup)
    gamma_mu = np.einsum("...am,aij->...mij", e_am, sn.GAMMA)
    return -quarter + 0.5 * lam * gamma_mu


def oracle_metric(e):
    return np.einsum("...am,ab,...bn->...mn", e, sn.ETA, e)


def oracle_spin_connection(fr):
    e = fr.e
    einv = np.linalg.inv(e)
    e_low = np.einsum("ab,...bm->...am", sn.ETA, e)
    de = gr.partials(e_low, fr.grid)
    c = np.einsum("...anm->...amn", de) - de
    t1 = np.einsum("...na,...bmn->...mab", einv, c)
    t2 = np.einsum("...nb,...amn->...mab", einv, c)
    t3 = np.einsum("...ra,...sb,...crs,...cm->...mab", einv, einv, c, e)
    w = 0.5 * (t1 - t2 - t3)
    return (w - np.swapaxes(w, -1, -2)) / 2


def allatonce_spin_connection(fr):
    """The connection formula on every node at once, with full-size rank-5
    temporaries: the oracle of the node-block kernel."""
    e = fr.e
    einv = np.linalg.inv(e)
    de = gr.partials(sn.ETA @ e, fr.grid)
    c = np.swapaxes(de, -1, -2) - de
    lead = e.shape[:-2]
    t1 = np.moveaxis((c.reshape(lead + (16, 4)) @ einv).reshape(lead + (4, 4, 4)), -3, -1)
    rot = np.swapaxes(einv, -1, -2)[..., None, :, :] @ c
    rot = rot @ einv[..., None, :, :]
    t3 = (np.swapaxes(e, -1, -2) @ rot.reshape(lead + (4, 16))).reshape(lead + (4, 4, 4))
    w = 0.5 * (t1 - np.swapaxes(t1, -1, -2) - t3)
    return (w - np.swapaxes(w, -1, -2)) / 2


def allatonce_killing_residual(fr, eps, lam):
    """The Killing residual with the generators of all four directions stacked:
    the oracle of the one-direction kernel."""
    w = allatonce_spin_connection(fr)
    deps = np.moveaxis(gr.partials(eps, fr.grid), -1, -2)
    m = sn._transport_generator(w, np.swapaxes(fr.e, -1, -2), lam)
    return deps - (m @ eps[..., None, :, None])[..., 0]


def allatonce_extract_kappa(u, l, lam, geo, grid):
    """kappa on every node at once, with full-size temporaries: the oracle of
    the node-block kernel."""
    nabla = (np.moveaxis(gr.partials(l, grid), -1, -2)
             - np.einsum("...lmn,...l->...mn", geo.gamma, l))
    w = nabla - lam * (np.einsum("...m,...n->...mn", l, l) - geo.g)
    denom = np.maximum(np.einsum("...n,...n->...", u, u), 1e-300)
    return np.einsum("...mn,...n->...m", w, u) / denom[..., None]


def oracle_vector_tensor(fr, eps):
    """u_m and om_mn from the searched pairing by multi-operand einsums."""
    c = searched_pairing(sn.GAMMA)
    gam = sn.GAMMA
    u_frame = np.einsum("...i,ij,ajk,...k->...a", eps, c, gam, eps)
    gab = 0.5 * (np.einsum("aij,bjk->abik", gam, gam)
                 - np.einsum("bij,ajk->abik", gam, gam))
    om_frame = np.einsum("...i,ij,abjk,...k->...ab", eps, c, gab, eps)
    return (np.einsum("...am,...a->...m", fr.e, u_frame),
            np.einsum("...am,...bn,...ab->...mn", fr.e, fr.e, om_frame))


def oracle_bilinears(fr, eps):
    """u, l from ``oracle_vector_tensor``, with l normalised per node: the
    path the closed-form table replaced."""
    u, om = oracle_vector_tensor(fr, eps)
    uu = np.maximum(np.einsum("...m,...m->...", u, u), 1e-300)
    l_raw = -np.einsum("...m,...mn->...n", u, om) / uu[..., None]
    ginv = np.linalg.inv(oracle_metric(fr.e))
    norm_sq = np.einsum("...mn,...m,...n->...", ginv, l_raw, l_raw)
    return u, l_raw / np.sqrt(np.abs(norm_sq))[..., None]


def oracle_integrate(fr, lam, eps0, axis_order):
    # one RK4 step per edge, three generator evaluations each, all four
    # directions built at every stage and the unused three dropped
    coords = fr.grid.coords()
    eps = np.zeros(fr.grid.shape + (4,))
    eps[(0,) * 4] = eps0

    def m_at(q, axis):
        return oracle_generator(full_connection(fr, q), full_frame(fr, q),
                                lam)[..., axis, :, :]

    def apply(m, y):
        return np.einsum("...ij,...j->...i", m, y)

    for pos, axis in enumerate(axis_order):
        idx = [slice(0, 1)] * 4
        for done in axis_order[:pos]:
            idx[done] = slice(None)
        h = float(fr.grid.h[axis])
        for k in range(fr.grid.shape[axis] - 1):
            cur, nxt = list(idx), list(idx)
            cur[axis] = slice(k, k + 1)
            nxt[axis] = slice(k + 1, k + 2)
            pts = coords[tuple(cur)]
            shifted = [pts.copy() for _ in range(3)]
            for q, s in zip(shifted, (0.0, h / 2, h)):
                q[..., axis] += s
            m0, m_half, m1 = (m_at(q, axis) for q in shifted)
            y0 = eps[tuple(cur)]
            k1 = apply(m0, y0)
            k2 = apply(m_half, y0 + h / 2 * k1)
            k3 = apply(m_half, y0 + h / 2 * k2)
            k4 = apply(m1, y0 + h * k3)
            eps[tuple(nxt)] = y0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return eps


def rel_err(new, old):
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


@pytest.fixture(scope="module")
def wavy9():
    """A non-conformal frame e = I + 0.1 sin(K x + phi) on a 9^4 grid, with an
    analytic (not torsion-free, only antisymmetric) connection evaluator for
    the generator tests."""
    rng = np.random.default_rng(11)
    k_e, phi_e = rng.uniform(-3, 3, (4, 4, 4)), rng.uniform(0, 2 * np.pi, (4, 4))
    k_w, phi_w = rng.uniform(-3, 3, (4, 4, 4, 4)), rng.uniform(0, 2 * np.pi, (4, 4, 4))

    def frame_fn(pts):
        return np.eye(4) + 0.1 * np.sin(np.einsum("...n,amn->...am", pts, k_e) + phi_e)

    def conn_fn(pts, mu):
        w = 0.3 * np.cos(np.einsum("...n,abn->...ab", pts, k_w[mu]) + phi_w[mu])
        return w - np.swapaxes(w, -1, -2)

    def along(pts, mu):
        return frame_fn(pts)[..., :, mu], conn_fn(pts, mu)

    grid = gr.GridPatch(((-0.4, 0.4),) * 4, (9,) * 4)
    return sn.FramePatch(grid, frame_fn(grid.coords()), along=along)


class TestKernelOracles:
    def test_transport_generator_all_directions(self, wavy9):
        x = wavy9.grid.coords()
        w, e = full_connection(wavy9, x), wavy9.e
        for lam in (0.0, 0.7):
            new = sn._transport_generator(w, np.swapaxes(e, -1, -2), lam)
            assert rel_err(new, oracle_generator(w, e, lam)) < 1e-13

    def test_axis_generator_is_slice_of_full(self, wavy9):
        pts = wavy9.grid.coords()[:, 2, :, 3]
        full = oracle_generator(full_connection(wavy9, pts), full_frame(wavy9, pts), 0.7)
        for axis in range(4):
            one = sn._axis_generator(wavy9, 0.7, pts, axis)
            assert rel_err(one, full[..., axis, :, :]) < 1e-13

    def test_spin_connection(self, wavy9):
        assert rel_err(sn.spin_connection(wavy9), oracle_spin_connection(wavy9)) < 1e-13

    def test_metric(self, wavy9):
        assert rel_err(wavy9.metric(), oracle_metric(wavy9.e)) < 1e-13

    def test_killing_bilinears(self, wavy9, ads9):
        _, _, eps = ads9
        u, l = sn.killing_bilinears(wavy9, eps)
        u_old, l_old = oracle_bilinears(wavy9, eps)
        assert rel_err(u, u_old) < 1e-13
        assert rel_err(l, l_old) < 1e-13

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0)])
    def test_integrate_killing(self, ads9, order):
        _, fr, _ = ads9
        new = sn.integrate_killing(fr, LAM, EPS0, axis_order=order)
        assert rel_err(new, oracle_integrate(fr, LAM, EPS0, order)) < 1e-13

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)])
    def test_integrate_killing_noncubic(self, order):
        grid = gr.GridPatch(((-0.4, 0.4), (-0.3, 0.5), (-0.4, 0.6), (0.8, 1.6)),
                            (7, 9, 11, 8))
        fr = sn.builtin_frame("ads4-poincare", grid, lam=LAM)
        new = sn.integrate_killing(fr, LAM, EPS0, axis_order=order)
        assert rel_err(new, oracle_integrate(fr, LAM, EPS0, order)) < 1e-13

    def test_integrate_killing_wavy(self, wavy9):
        # a generator that varies along every axis, in every direction
        order = (1, 3, 0, 2)
        new = sn.integrate_killing(wavy9, 0.7, EPS0, axis_order=order)
        assert rel_err(new, oracle_integrate(wavy9, 0.7, EPS0, order)) < 1e-13

    def test_one_connection_call_per_slab(self, ads9):
        _, fr, _ = ads9
        calls = []

        def counted(pts, mu):
            calls.append((np.shape(pts), mu))
            return fr.along(pts, mu)

        spy = sn.FramePatch(fr.grid, fr.e, along=counted)
        order = (2, 0, 3, 1)
        eps = sn.integrate_killing(spy, LAM, EPS0, axis_order=order)
        # the axes are swept in order, each in slabs of lines
        mus = [mu for _, mu in calls]
        assert [mu for k, mu in enumerate(mus) if k == 0 or mus[k - 1] != mu] == list(order)
        lines = 1
        for mu in order:
            shapes = [shape for shape, m in calls if m == mu]
            # 2n - 1 nodes and midpoints on each line; every line of the
            # swept block once; at most NODE_BLOCK nodes per slab
            assert all(shape[-2:] == (17, 4) for shape in shapes)
            assert sum(int(np.prod(shape[:-2])) for shape in shapes) == lines
            assert all(9 * np.prod(shape[:-2]) <= fl.NODE_BLOCK for shape in shapes)
            lines *= 9
        assert len(calls) > 4
        assert np.array_equal(eps, sn.integrate_killing(fr, LAM, EPS0, axis_order=order))

    def test_builtin_evaluator_matches_samples_and_spin_connection(self):
        # the sampled frame is Omega delta^a_mu and the evaluator's columns
        # to the last bit; its connection agrees with the finite-difference one on the interior,
        # exactly on minkowski and at second order on ads
        errs = {}
        for name in ("minkowski", "ads4-poincare"):
            for k, n in ((1, 9), (2, 17)):
                grid = ads_grid(n)
                fr = sn.builtin_frame(name, grid, lam=0.7)
                x = grid.coords()
                omega = 1.0 / (0.7 * x[..., 3]) if name != "minkowski" else np.ones(grid.shape)
                assert np.array_equal(fr.e, omega[..., None, None] * np.eye(4))
                assert np.array_equal(full_frame(fr, x), fr.e)
                # the nodes of the 9^4 grid's margin-2 interior, on both grids
                inner = (slice(2 * k, n - 2 * k, k),) * 4
                w_fd = sn.spin_connection(fr)[inner]
                errs[name, n] = float(np.max(np.abs(full_connection(fr, x)[inner] - w_fd)))
        assert errs["minkowski", 9] == errs["minkowski", 17] == 0.0
        assert 1.8 <= np.log2(errs["ads4-poincare", 9] / errs["ads4-poincare", 17]) <= 2.2

    @pytest.mark.parametrize("n", [9, 13])
    @pytest.mark.parametrize("name, lam", [("minkowski", 0.0), ("ads4-poincare", 0.7),
                                           ("ads4-poincare", 1.0), ("ads4-poincare", 1e4)])
    def test_lean_kernels_match_all_at_once_bytes(self, name, lam, n):
        fr = sn.builtin_frame(name, ads_grid(n), lam=lam or 1.0)
        eps = sn.integrate_killing(fr, lam, EPS0)
        assert sn.spin_connection(fr).tobytes() == allatonce_spin_connection(fr).tobytes()
        assert (sn.killing_residual(fr, eps, lam).tobytes()
                == allatonce_killing_residual(fr, eps, lam).tobytes())
        u, l = sn.killing_bilinears(fr, eps)
        assert (sn.extract_kappa(u, l, lam, fr.geometry, fr.grid).tobytes()
                == allatonce_extract_kappa(u, l, lam, fr.geometry, fr.grid).tobytes())

    def test_lean_kernels_match_all_at_once_wavy(self, wavy9, ads9):
        _, _, eps = ads9
        assert rel_err(sn.spin_connection(wavy9), allatonce_spin_connection(wavy9)) <= 1e-15
        assert rel_err(sn.killing_residual(wavy9, eps, 0.7),
                       allatonce_killing_residual(wavy9, eps, 0.7)) <= 1e-15

    @pytest.mark.parametrize("block", [1, 100, 10 ** 9])
    def test_node_blocks_do_not_change_the_kernels(self, wavy9, ads9, monkeypatch, block):
        # every node, and every propagator of the sweep, is computed by the
        # same arithmetic in any block or slab; fields.NODE_BLOCK is the one
        # block size, of the spinor and the gauge kernels alike
        _, fr, _ = ads9
        g = wavy9.metric()
        cfg = gr.parse_grid_config(GOLDEN_T3.read_text(encoding="utf-8"))

        def outputs():
            sweeps = [sn.integrate_killing(f, 0.7, EPS0, axis_order=(1, 3, 0, 2))
                      for f in (fr, wavy9)]
            geo, whole = cfg.geometry, cfg.on(gr.WHOLE)
            star_v = fl.star_fibers(geo, cfg.V)
            gauge = [star_v, fl.stress_gauge(geo, whole.J, cfg.V, check=False),
                     fl.oslash_Q(geo, whole.J, cfg.V, cfg.V), fl.pairings(geo, cfg.F, cfg.F),
                     fl.pairings(geo, star_v, cfg.V), fl.hodge2(geo, cfg.F[..., 0, :, :]),
                     gr.local_gauge_source(whole), gr.psi_form_source(whole),
                     gr.einstein_residual(whole, check=False),
                     gr.scalar_residual(whole, "local"), gr.scalar_residual(whole, "global")]
            u, l = sn.killing_bilinears(fr, sweeps[0])
            kappa = sn.extract_kappa(u, l, 0.7, fr.geometry, fr.grid)
            return [sn.spin_connection(wavy9), gr.checked_geometry(g, wavy9.grid).gamma,
                    *sweeps, *gauge, kappa]

        before = outputs()
        monkeypatch.setattr(fl, "NODE_BLOCK", block)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(outputs(), before))
        # the blocked antisymmetry check of a configuration still finds one bad node
        v = cfg.V.copy()
        v[3, 1, 4, 0, 1, 2, 3] += 1e-300
        with pytest.raises(gr.GridError, match="exactly antisymmetric"):
            gr.FieldConfiguration(cfg.model, gr.checked_geometry(cfg.g, cfg.grid), cfg.phi, v)
        # and the blocked singular-frame check still finds one singular node
        e = wavy9.e.copy()
        e[3, 1, 4, 0, 2] = e[3, 1, 4, 0, 1]
        with pytest.raises(sn.FrameError, match="singular frame"):
            sn.FramePatch(wavy9.grid, e)

    def test_tables_built_once_and_read_only(self):
        # module constants built at import by their builders, read-only; the
        # closed-form pairing is the searched one to roundoff (the search
        # leaves entries of 2e-16 off its signed permutation)
        for table, built in ((sn.GAMMA5, sn.GAMMA[0] @ sn.GAMMA[1] @ sn.GAMMA[2] @ sn.GAMMA[3]),
                             (sn.SPIN_TABLE, sn._spin_table(sn.GAMMA)),
                             (sn.BILINEAR_TABLE, sn._bilinear_table(sn.GAMMA, sn.PAIRING))):
            assert np.array_equal(table, built)
        searched = searched_pairing(sn.GAMMA)
        assert np.max(np.abs(sn.PAIRING - searched)) <= 1e-13
        assert np.max(np.abs(sn.BILINEAR_TABLE
                             - sn._bilinear_table(sn.GAMMA, searched))) <= 1e-13
        for table in (sn.GAMMA, sn.GAMMA5, sn.SPIN_TABLE, sn.PAIRING, sn.BILINEAR_TABLE):
            assert not table.flags.writeable

    def test_pairing_requires_one_invariant_bilinear(self):
        with pytest.raises(RuntimeError):
            searched_pairing(np.zeros((4, 4, 4)))

    def test_import_makes_no_linalg_call(self):
        # the Clifford constants are written in closed form, so importing the
        # package runs no factorisation: every public np.linalg function is
        # wrapped before the import, in a fresh interpreter
        probe = (
            "import numpy as np\n"
            "calls = []\n"
            "def wrap(name, f):\n"
            "    def counted(*args, **kwargs):\n"
            "        calls.append(name)\n"
            "        return f(*args, **kwargs)\n"
            "    return counted\n"
            "for name in dir(np.linalg):\n"
            "    f = getattr(np.linalg, name)\n"
            "    if callable(f) and not isinstance(f, type) and not name.startswith('_'):\n"
            "        setattr(np.linalg, name, wrap(name, f))\n"
            "import emduality.cli\n"
            "print(calls)\n"
            "np.linalg.norm([1.0])\n"
            "print(calls)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True)
        # the second line shows the wrappers count a call
        assert out.stdout.split() == ["[]", "['norm']"]


class TestMemory:
    """Transient tracemalloc peaks of the spinor kernels at 13^4, against the
    size of one grid + (4, 4, 4) array (14.6 MB)."""

    @staticmethod
    def transient(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def ads13(self):
        fr = sn.builtin_frame("ads4-poincare", ads_grid(13), lam=LAM)
        return fr, np.prod(fr.grid.shape) * 64 * 8

    def test_spin_connection_and_geometry(self, ads13):
        fr, full = ads13
        assert self.transient(sn.spin_connection, fr) <= 2.5 * full
        # Gamma, with g, g^-1 and det g (1.5 arrays), and no full-size bracket
        assert self.transient(lambda g, grid: gr.checked_geometry(g, grid).gamma,
                              fr.metric(), fr.grid) <= 1.75 * full

    def test_sweep(self, ads13):
        fr, _ = ads13
        assert self.transient(sn.integrate_killing, fr, LAM, EPS0) <= 10 * 2 ** 20

    def test_frame_check(self, ads13):
        # the singular-frame check runs in node blocks: 4.8 MiB for a 3.5 MiB
        # frame, where the whole-stack check took 9.6 MiB
        fr, _ = ads13
        assert self.transient(sn.builtin_frame, "ads4-poincare", fr.grid, LAM) <= 1.75 * fr.e.nbytes

    def test_extract_kappa(self, ads13):
        # only partials(l) is full-size, a grid + (4, 4) array like e: 5.1 MiB,
        # where the whole-grid formula took 10.5 MiB
        fr, _ = ads13
        u, l = sn.killing_bilinears(fr, sn.integrate_killing(fr, LAM, EPS0))
        fr.geometry.gamma   # the whole grid's Gamma is the input here, not a transient
        assert self.transient(sn.extract_kappa, u, l, LAM, fr.geometry, fr.grid) <= 2 * fr.e.nbytes

    def test_verify_thm53(self, ads13):
        # kappa and Gamma are formed on the interior's window, 11^4 of 13^4
        # nodes: about 1.16 grid + (4, 4, 4) arrays, where extract_kappa and
        # verify_thm53 on the whole grid took 2.1
        _, full = ads13
        fr = sn.builtin_frame("ads4-poincare", ads_grid(13), lam=LAM)
        u, l = sn.killing_bilinears(fr, sn.integrate_killing(fr, LAM, EPS0))
        geo = fr.geometry
        assert "gamma" not in vars(geo)
        assert self.transient(sn.verify_thm53, u, l, LAM, geo, fr.grid) <= 1.25 * full
