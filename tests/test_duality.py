import numpy as np
import pytest
import scipy.linalg
from killing_oracle import killing_residual, oracle_basis

from emduality import duality as du
from emduality import expressions as ex
from emduality import models as md
from emduality.symplectic import (in_sp_algebra, infinitesimal_fractional_action,
                                  omega, sp_basis)

FLAT2 = md.parse_model("nv=2\nchart=flat\ndim=2\n"
                       "N[1,1] = i*(2 + x1^2)\nN[1,2] = x2\nN[2,2] = 3*i + x1")
# 55 Killing fields on a 10-dimensional flat chart (tests/golden/unstable.model)
FLAT10 = md.parse_model("name=flat10\nnv=1\nchart=flat\ndim=10\nN[1,1] = x1 + i*(2 + x1^2)")
T3 = md.builtin("t3")
T3_IMAGE = md.TransformedModel(T3, md.parse_isometry("scale:1.3", T3.chart),
                               np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                         [0.5, 0.1, 1.0, 0.0], [0.1, 0.2, 0.0, 1.0]]))
SYSTEM_MODELS = ([md.builtin(name) for name in md.BUILTIN_NAMES + ("constant-i:2",)]
                 + [FLAT2, T3_IMAGE])


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestKillingBasis:
    def test_poincare_has_three_fields(self):
        chart = md.ScalarChart("poincare", 2)
        assert len(du.killing_basis(chart)) == 3

    def test_flat_dim1_single_translation(self, rng):
        chart = md.ScalarChart("flat", 1)
        fields = du.killing_basis(chart)
        assert fields.names == ("d_x1",)
        assert np.allclose(oracle_basis(chart)[0].value(np.array([0.3])), [1.0])
        dn = rng.standard_normal((4, 1, 2, 2))
        assert np.array_equal(fields.along(rng.standard_normal((4, 1)), dn), dn[None, :, 0])

    def test_flat_counts(self):
        assert len(du.killing_basis(md.ScalarChart("flat", 3))) == 3 + 3

    @pytest.mark.parametrize("kind,dim", [("poincare", 2), ("flat", 2), ("flat", 3)])
    def test_killing_equation_residual(self, kind, dim):
        chart = md.ScalarChart(kind, dim)
        pts = chart.sample_points(100)
        oracle = oracle_basis(chart)
        assert tuple(kf.name for kf in oracle) == du.killing_basis(chart).names
        for kf in oracle:
            assert killing_residual(kf, pts) <= 1e-8

    def test_lie_derivative_matches_fd_oracle(self):
        # oracle: central finite differences of the pulled-back metric along
        # the flow, phi_t(p) ~ p + t xi(p)
        chart = md.ScalarChart("poincare", 2)
        kf = oracle_basis(chart)[2]
        h = 1e-6
        for p in chart.sample_points(10):
            xi = kf.value(p)
            jac = kf.jacobian(p)
            # L_xi g = d/dt (phi_t^* g) at t=0 via FD on t
            def pullback(t):
                q = p + t * xi
                dphi = np.eye(2) + t * jac
                return dphi.T @ chart.metric(q) @ dphi
            fd = (pullback(h) - pullback(-h)) / (2 * h)
            assert np.allclose(kf.lie_derivative_metric(p), fd, atol=1e-6)


class TestStabilizer:
    @pytest.mark.parametrize("nv", [1, 2, 3])
    def test_constant_model_u_n(self, nv):
        name = "constant-i" if nv == 1 else f"constant-i:{nv}"
        rep = du.stab_sp_algebra(md.builtin(name))
        assert rep.dim_stab_sp == nv * nv
        assert rep.residual <= 1e-8

    def test_identity_tau_discrete(self):
        rep = du.stab_sp_algebra(md.builtin("identity-tau"))
        assert rep.dim_stab_sp == 0
        assert rep.minus_id_fixes_period
        assert "discrete part" in rep.notes

    def test_axio_dilaton_diagonal_u1(self):
        rep = du.stab_sp_algebra(md.builtin("axio-dilaton"))
        assert rep.dim_stab_sp == 1
        x = rep.basis[0]
        x = x / np.linalg.norm(x, 2)
        # diagonal so(2)+so(2) generator: squares to -Id, spectrum {i, i, -i, -i}
        assert np.allclose(x @ x, -np.eye(4), atol=1e-8)
        ev = np.linalg.eigvals(x)
        assert np.max(np.abs(ev.real)) < 1e-8
        assert np.allclose(np.sort(ev.imag), [-1, -1, 1, 1], atol=1e-8)
        # no mixing between the two field pairs beyond the (F^L, G_L) planes
        xa, xb = x[:2, :2], x[:2, 2:]
        assert np.allclose(xa, 0.0, atol=1e-8)
        assert np.allclose(np.abs(xb), [[0, 1], [1, 0]], atol=1e-8)

    def test_t3_trivial(self):
        rep = du.stab_sp_algebra(md.builtin("t3"))
        assert rep.dim_stab_sp == 0

    def test_basis_elements_in_sp(self):
        rep = du.stab_sp_algebra(md.builtin("axio-dilaton"))
        for x in rep.basis:
            assert in_sp_algebra(x)

    def test_basis_exponentiates_to_fixing_group_elements(self, rng):
        for name in ("constant-i", "axio-dilaton", "constant-i:2"):
            m = md.builtin(name)
            rep = du.stab_sp_algebra(m)
            ident = md.identity_isometry(m.chart)
            for x in rep.basis:
                for t in (0.1, 0.5, 1.0):
                    a = scipy.linalg.expm(t * x)
                    assert du.check_uduality_pair(ident, a, m) <= 1e-8

    def test_under_determination_warning(self):
        m = md.builtin("constant-i")
        with pytest.warns(UserWarning):
            du.stab_sp_algebra(m, m.chart.sample_points(4))


class TestLifts:
    def test_identity_tau_translation_lift(self):
        m = md.builtin("identity-tau")
        kf = du.killing_basis(m.chart)[0]  # d_x
        x, res = du.lift_killing_field(m, kf)
        assert x is not None and res <= 1e-10
        # translation lifts to the lower-triangular generator: X_c = 1 block
        assert x[1, 0] == pytest.approx(1.0, abs=1e-8)
        assert abs(x[0, 0]) < 1e-8 and abs(x[0, 1]) < 1e-8 and abs(x[1, 1]) < 1e-8

    def test_t3_all_fields_lift(self):
        m = md.builtin("t3")
        for kf in du.killing_basis(m.chart):
            x, res = du.lift_killing_field(m, kf)
            assert x is not None
            assert res <= 1e-8

    def test_constant_model_zero_lift(self):
        m = md.builtin("constant-i")
        kf = du.killing_basis(m.chart)[0]
        x, res = du.lift_killing_field(m, kf)
        assert res <= 1e-12
        # dN = 0, so the minimal-norm lift is in the stabilizer; X = 0 works
        stab = du.stab_sp_algebra(m)
        coeffs, residues, *_ = np.linalg.lstsq(
            np.stack([b.ravel() for b in stab.basis], axis=1), x.ravel(), rcond=None)
        assert np.linalg.norm(x.ravel() - np.stack(
            [b.ravel() for b in stab.basis], axis=1) @ coeffs) < 1e-10

    def test_lift_ambiguity_is_stabilizer(self, rng):
        # two lifts of the same field differ by a stabilizer element
        m = md.builtin("axio-dilaton")
        kf = du.killing_basis(m.chart)[1]
        x1, res1 = du.lift_killing_field(m, kf, m.chart.sample_points(16))
        x2, res2 = du.lift_killing_field(m, kf, m.chart.sample_points(24))
        assert x1 is not None and x2 is not None
        stab = du.stab_sp_algebra(m)
        basis_mat = np.stack([b.ravel() for b in stab.basis], axis=1)
        diff = (x1 - x2).ravel()
        coeffs, *_ = np.linalg.lstsq(basis_mat, diff, rcond=None)
        assert np.linalg.norm(diff - basis_mat @ coeffs) < 1e-8

    def test_no_lift_reported_for_incompatible_model(self):
        # a model whose period map is not equivariant along the rotation flow:
        # N(tau) = tau + conj(tau) fails Siegel, use instead 2x2 block mixing
        # tau with a constant; the special conformal field cannot lift.
        text = "nv=1\nchart=poincare\nN[1,1] = tau + 5*i"
        m = md.parse_model(text)
        kf = du.killing_basis(m.chart)[2]
        x, res = du.lift_killing_field(m, kf)
        assert x is None
        assert res > 1e-3


class TestUDuality:
    @pytest.mark.parametrize("name,dims", [
        ("constant-i", (4, 1, 3)),
        ("identity-tau", (3, 0, 3)),
        ("axio-dilaton", (4, 1, 3)),
        ("t3", (3, 0, 3)),
    ])
    def test_dimension_triples(self, name, dims):
        rep = du.uduality_algebra(md.builtin(name))
        assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr) == dims
        assert rep.exactness_gap == 0

    def test_sample_stability_across_sizes(self):
        m = md.builtin("axio-dilaton")
        dims = []
        for n in (8, 16, 32):
            rep = du.uduality_algebra(m, m.chart.sample_points(n))
            dims.append((rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr))
        assert dims[0] == dims[1] == dims[2]

    def test_lift_count_matches_projection_rank(self):
        for name in ("identity-tau", "t3"):
            rep = du.uduality_algebra(md.builtin(name))
            lifted = sum(1 for _, x, _ in rep.lift_table if x is not None)
            assert lifted == rep.dim_iso_pr


class TestPairCheck:
    def test_trivial_pair(self):
        m = md.builtin("identity-tau")
        assert du.check_uduality_pair(md.identity_isometry(m.chart), np.eye(2), m) == 0.0

    def test_translation_pair(self):
        m = md.builtin("identity-tau")
        f = md.parse_isometry("translate:1.0", m.chart)
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert du.check_uduality_pair(f, a, m) <= 1e-12

    def test_mismatched_pair_has_unit_residual(self):
        m = md.builtin("identity-tau")
        f = md.parse_isometry("translate:1.0", m.chart)
        assert du.check_uduality_pair(f, np.eye(2), m) == pytest.approx(1.0)

    def test_exponentiated_lift_gives_pair(self):
        # exp of a lift of xi pairs with the time-1 flow of xi
        m = md.builtin("identity-tau")
        kf = du.killing_basis(m.chart)[0]
        x, _ = du.lift_killing_field(m, kf)
        for t in (0.3, 1.0):
            f = md.parse_isometry(f"translate:{t}", m.chart)
            a = scipy.linalg.expm(t * x)
            assert du.check_uduality_pair(f, a, m) <= 1e-10


class TestLinearSystem:
    @pytest.mark.parametrize("model", SYSTEM_MODELS, ids=lambda m: m.name)
    def test_stacked_rows_match_per_basis_oracle(self, model):
        # oracle: the infinitesimal action of one basis element at a time,
        # its upper triangle as Re rows then Im rows at each point
        system = du._system(model, None, du.killing_basis(model.chart))
        iu = np.triu_indices(model.n_v)
        cols = []
        for b in sp_basis(model.n_v):
            act = infinitesimal_fractional_action(b, system.tau)[:, iu[0], iu[1]]
            cols.append(np.concatenate([act.real, act.imag], axis=-1).ravel())
        oracle = np.stack(cols, axis=-1)
        assert system.stab.shape == oracle.shape
        assert np.max(np.abs(system.stab - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))

    @pytest.mark.parametrize("model", SYSTEM_MODELS + [FLAT10], ids=lambda m: m.name)
    def test_period_columns_match_per_field_oracle(self, model):
        # oracle: the directional derivative along the values of each
        # expression-tree field, against KillingBasis.along and the P columns
        fields = du.killing_basis(model.chart)
        system = du._system(model, None, fields)
        along = fields.along(system.samples, model.period_directional(
            system.samples[:, None, :], np.eye(model.chart.dim))[1])
        iu = np.triu_indices(model.n_v)
        for col, dn, kf in zip(system.periods.T, along, oracle_basis(model.chart), strict=True):
            d = model.period_directional(system.samples, kf.value(system.samples))[1]
            scale = max(1.0, np.max(np.abs(d)))
            assert np.max(np.abs(dn - d)) <= 1e-13 * scale
            d = d[:, iu[0], iu[1]]
            assert np.max(np.abs(col - np.concatenate([d.real, d.imag], axis=-1).ravel())
                          ) <= 1e-13 * scale

    def test_one_field_is_a_run_of_the_basis(self, rng):
        fields = du.killing_basis(md.ScalarChart("flat", 4))
        p, dn = rng.standard_normal((5, 4)), rng.standard_normal((5, 4, 2, 2))
        whole = fields.along(p, dn)
        for k in (0, 3, 4, 9, -1):
            assert fields[k].names == (fields.names[k],)
            assert np.array_equal(fields[k].along(p, dn), whole[k][None])
        with pytest.raises(IndexError):
            fields[10]

    @pytest.mark.parametrize("model", SYSTEM_MODELS, ids=lambda m: m.name)
    def test_half_sample_set_is_a_row_prefix(self, model):
        fields = du.killing_basis(model.chart)
        full = du._system(model, None, fields)
        half = du._system(model, full.samples[: len(full.samples) // 2], fields)
        assert np.array_equal(full.stab[: full.half], half.stab)
        assert np.array_equal(full.periods[: full.half], half.periods)

    def test_one_period_evaluation_per_uduality_call(self, monkeypatch):
        """One evaluation of the model per call, N and its partials together
        from ``checked_partials``, and as many expression walks for 55 Killing
        fields (FLAT10) as for 3 (the same N on a 2-dimensional chart): nothing
        is evaluated field by field."""
        flat2 = md.parse_model("nv=1\nchart=flat\ndim=2\nN[1,1] = x1 + i*(2 + x1^2)")
        cases = ((md.builtin("t3"), (3, 0, 3)), (FLAT10, (45, 0, 45)), (flat2, (1, 0, 1)))
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(du, "checked_periods", counted("checked_periods", du.checked_periods))
        monkeypatch.setattr(du, "checked_partials",
                            counted("checked_partials", du.checked_partials))
        monkeypatch.setattr(md.Model, "period_matrix",
                            counted("period_matrix", md.Model.period_matrix))
        monkeypatch.setattr(md.Model, "period_directional",
                            counted("period_directional", md.Model.period_directional))
        monkeypatch.setattr(ex, "walk", counted("walk", ex.walk))
        seen = []
        for model, dims in cases:
            counts.update(dict.fromkeys(("checked_periods", "checked_partials", "period_matrix",
                                         "period_directional", "walk"), 0))
            rep = du.uduality_algebra(model)
            assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr) == dims
            assert (counts["checked_periods"], counts["checked_partials"],
                    counts["period_matrix"], counts["period_directional"]) == (0, 1, 0, 1)
            seen.append(counts["walk"])
        assert seen[1] == seen[2] > 0

    def test_default_samples_grow_with_unknowns(self):
        for name in md.BUILTIN_NAMES + ("constant-i:12",):
            m = md.builtin(name)
            assert len(du._sample_set(m, None, len(du.killing_basis(m.chart)))) == 16
        # (3 + 55) unknowns over 2 equations per point, doubled
        assert len(du._sample_set(FLAT10, None, 55)) == 58

    def test_default_samples_stabilize_many_killing_fields(self):
        # closed form on a d-dimensional flat chart with N = x1 + i(2 + x1^2):
        # the d(d-1)/2 fields that fix x1 lift, and nothing else is in u
        for d, samples in ((10, 58), (48, 1180)):
            model = FLAT10 if d == 10 else md.parse_model(
                f"nv=1\nchart=flat\ndim={d}\nN[1,1] = x1 + i*(2 + x1^2)")
            rep = du.uduality_algebra(model)
            rot = d * (d - 1) // 2
            assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr, rep.exactness_gap) == (
                rot, 0, rot, 0)
            assert rep.samples_used == samples
            assert rep.notes == f"{rot}/{rot + d} Killing basis fields admit lifts"

    def test_zero_dim_flat_chart_has_no_fields(self):
        rep = du.uduality_algebra(md.parse_model("nv=1\nchart=flat\ndim=0\nN[1,1] = i"))
        assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr, rep.lift_table) == (1, 1, 0, [])

    def test_too_few_samples_are_unstable(self):
        with pytest.raises(du.SampleInstabilityError, match="U-duality dim changed"):
            du.uduality_algebra(FLAT10, FLAT10.chart.sample_points(16))


class TestRankRule:
    """Ranks are decided on columns scaled to unit norm, so the algebras of
    N = c i do not depend on c: the stabilizer of a point of the upper half
    plane is one-dimensional, and the three Killing fields all lift."""

    @pytest.mark.parametrize("c", [1e-14, 1e-9, 1e-6, 1.0, 1e6, 1e9])
    def test_scaled_point_of_the_half_plane(self, c):
        m = md.parse_model(f"nv = 1\nchart = poincare\nN[1,1] = {c!r}*i")
        assert du.stab_sp_algebra(m).dim_stab_sp == 1
        rep = du.uduality_algebra(m)
        assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr, rep.exactness_gap) == (4, 1, 3, 0)

    def test_no_field_lifts_with_a_stabilizer(self):
        """N = diag(i(1 + x1^2), i): the translation does not lift and the
        stabilizer is one-dimensional.  The isometry rows of the orthonormal
        null basis are roundoff, so the projection has rank 0."""
        m = md.parse_model("nv = 2\nchart = flat\ndim = 1\nN[1,1] = i*(1 + x1^2)\nN[2,2] = i")
        rep = du.uduality_algebra(m)
        assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr, rep.exactness_gap) == (1, 1, 0, 0)
        assert rep.notes == "0/1 Killing basis fields admit lifts"

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e6])
    def test_lifts_do_not_depend_on_the_scale_of_n(self, c):
        """N = c (x1 + 2i): the fields that fix x1 (d_x2, d_x3 and the
        rotation in the (x2, x3) plane) lift, as does d_x1; the rotations
        that move x1 do not, whatever c."""
        m = md.parse_model(f"nv = 1\nchart = flat\ndim = 3\nN[1,1] = {c!r}*(x1 + 2*i)")
        rep = du.uduality_algebra(m)
        assert (rep.dim_u, rep.dim_stab_sp, rep.dim_iso_pr, rep.exactness_gap) == (4, 0, 4, 0)
        assert rep.notes == "4/6 Killing basis fields admit lifts"
        assert [name for name, x, _ in rep.lift_table if x is None] == [
            "x1 d_x2 - x2 d_x1", "x1 d_x3 - x3 d_x1"]

    def test_a_large_entry_leaves_the_translation_lift(self):
        """N = diag(x1 + 2i, 1e6 i): d_x1 lifts to the translation of N11
        although the stabilizer columns of the second entry are 1e12 larger,
        so the lifts count dim_iso_pr."""
        m = md.parse_model("nv = 2\nchart = flat\ndim = 2\nN[1,1] = x1 + 2*i\nN[2,2] = 1e6*i")
        rep = du.uduality_algebra(m)
        assert rep.dim_iso_pr == 2
        assert rep.notes == "2/3 Killing basis fields admit lifts"
