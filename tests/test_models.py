import ast
from collections import Counter

import numpy as np
import pytest
from scipy.stats import qmc

from emduality import expressions as ex
from emduality import grids as gr
from emduality import models as md
from emduality import symplectic as sp
from emduality.cli import run
from emduality.symplectic import fractional_action, min_eig_ratio, random_sp


def pt(x, y):
    return np.array([float(x), float(y)])


class TestParseModel:
    def test_identity_tau(self):
        m = md.parse_model("name=idt\nnv=1\nchart=poincare\nN[1,1] = tau")
        assert m.n_v == 1
        assert np.allclose(m.period(pt(0.3, 1.1)).tau, [[0.3 + 1.1j]])

    def test_axio_dilaton_text(self):
        m = md.parse_model(
            "nv=2\nchart=poincare\nN[1,1] = tau\nN[2,2] = -1/tau\nN[1,2] = 0")
        out = m.period(pt(0.0, 1.0)).tau
        assert np.allclose(out, np.diag([1j, 1j]))

    def test_incomplete_expression(self):
        with pytest.raises(md.ex.ExprSyntaxError):
            md.parse_model("nv=1\nchart=poincare\nN[1,1] = tau +")

    def test_lower_triangle_rejected(self):
        with pytest.raises(md.ModelError):
            md.parse_model("nv=2\nchart=poincare\nN[2,1] = tau")

    def test_index_out_of_range(self):
        with pytest.raises(md.ModelError):
            md.parse_model("nv=1\nchart=poincare\nN[1,2] = tau")

    def test_comments_and_whitespace(self):
        m = md.parse_model("# a model\n nv = 1 \nchart=poincare\n\nN[1,1] = tau # entry\n")
        assert m.n_v == 1

    @pytest.mark.parametrize("dim", ["x", "-1", "1.5", "65"])
    def test_bad_dim(self, dim):
        with pytest.raises(md.ModelError, match="dim"):
            md.parse_model(f"nv=1\nchart=flat\ndim={dim}\nN[1,1] = i")

    def test_zero_dim_flat_chart(self):
        m = md.parse_model("nv=1\nchart=flat\ndim=0\nN[1,1] = 2*i")
        assert m.chart.sample_points(4).shape == (4, 0)

    @pytest.mark.parametrize("nv", ["0", "13"])
    def test_nv_out_of_range(self, nv):
        with pytest.raises(md.ModelError, match="nv"):
            md.parse_model(f"nv={nv}\nchart=poincare\nN[1,1] = tau")

    def test_constant_i_nv_out_of_range(self):
        for spec in ("constant-i:0", "constant-i:13"):
            with pytest.raises(md.ModelError, match="nv"):
                md.builtin(spec)

    def test_print_parse_round_trip_builtins(self):
        for name in md.BUILTIN_NAMES:
            m = md.builtin(name)
            m2 = md.parse_model(md.print_model(m))
            assert m.entries == m2.entries
            assert m.n_v == m2.n_v


class TestEvalPeriod:
    def test_axio_dilaton_at_i(self):
        m = md.builtin("axio-dilaton")
        out = m.period(pt(0, 1)).tau
        assert np.allclose(out, np.diag([1j, 1j]), atol=1e-15)
        assert np.allclose(out.imag, np.eye(2), atol=1e-15)

    def test_axio_dilaton_imaginary_part(self):
        # Im N = diag(Im tau, Im tau / |tau|^2)
        m = md.builtin("axio-dilaton")
        x, y = 0.4, 1.3
        out = m.period(pt(x, y)).tau
        assert out[0, 0] == pytest.approx(x + 1j * y)
        assert out.imag[1, 1] == pytest.approx(y / (x * x + y * y))

    def test_t3_at_i(self):
        out = md.builtin("t3").period(pt(0, 1)).tau
        assert np.allclose(out.imag, [[1.0, 0.0], [0.0, 3.0]], atol=1e-14)

    def test_t3_at_2i(self):
        out = md.builtin("t3").period(pt(0, 2)).tau
        assert np.allclose(out.imag, [[8.0, 0.0], [0.0, 6.0]], atol=1e-14)

    def test_t3_imaginary_part_formula(self):
        # Im N = [[y^3 + 3x^2 y, -3xy], [-3xy, 3y]]
        x, y = -0.7, 0.9
        out = md.builtin("t3").period(pt(x, y)).tau
        expect = np.array([[y ** 3 + 3 * x * x * y, -3 * x * y], [-3 * x * y, 3 * y]])
        assert np.allclose(out.imag, expect, atol=1e-13)

    def test_constant_model(self):
        m = md.builtin("constant-i:2")
        for p in (pt(0, 1), pt(-0.5, 0.7), pt(0.9, 1.9)):
            assert np.allclose(m.period(p).tau, 1j * np.eye(2))

    def test_pole_error(self):
        m = md.parse_model("nv=1\nchart=flat\ndim=1\nN[1,1] = i + 1/x1")
        with pytest.raises(md.PoleError):
            m.period(np.array([0.0]))

    def test_siegel_violation_flagged(self):
        m = md.parse_model("nv=1\nchart=poincare\nN[1,1] = conj(tau)")
        with pytest.raises(md.ModelInvalidError):
            m.period(pt(0.1, 1.0))

    def test_outside_domain(self):
        m = md.builtin("identity-tau")
        with pytest.raises(md.ModelError):
            m.period(pt(0.0, -1.0))

    def test_outside_domain_names_first_bad_point(self):
        m = md.builtin("identity-tau")
        pts = np.array([[[0.0, 1.0], [0.5, 2.0]], [[0.25, -0.5], [1.0, 1.0]]])
        with pytest.raises(md.ModelError) as err:
            m.period_matrix(pts)
        assert str(err.value) == ("model 'identity-tau': point 2 [0.25, -0.5] "
                                  "outside chart domain")

    def test_wide_point_leaving_siegel_is_one_full_precision_line(self):
        m = md.parse_model("name = wide\nnv = 1\nchart = flat\ndim = 12\n"
                           "N[1,1] = x1 + i*x2")
        pts = np.random.default_rng(4).uniform(0.1, 1.0, (2, 3, 12))
        pts[1, 0, 1] = -1 / 3          # flat index 3
        with pytest.raises(md.ModelInvalidError) as err:
            md.checked_periods(m, pts)
        msg = str(err.value)
        assert "\n" not in msg
        head, _, coords = msg.partition(" at point 3 ")
        assert head == "model 'wide' leaves Siegel space"
        assert ast.literal_eval(coords.split("]")[0] + "]") == pts[1, 0].tolist()


class TestPeriodDerivative:
    def test_identity_tau_partials(self):
        m = md.builtin("identity-tau")
        assert np.allclose(m.period_directional(pt(0.1, 0.9), [1, 0]), ([[0.1 + 0.9j]], [[1.0]]))
        assert np.allclose(m.period_directional(pt(0.1, 0.9), [0, 1]), ([[0.1 + 0.9j]], [[1j]]))

    @pytest.mark.parametrize("name", md.BUILTIN_NAMES)
    def test_matches_central_differences(self, name):
        m = md.builtin(name)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(50):
            p = np.array([rng.uniform(-1, 1), rng.uniform(0.6, 1.9)])
            v = rng.standard_normal(2)
            d = m.period_directional(p, v)[1]
            fd = (m.period(p + h * v).tau - m.period(p - h * v).tau) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(d))))
            assert np.max(np.abs(d - fd)) < 1e-7 * scale


class TestBuiltinsRegistry:
    def test_axio_dilaton_shape(self):
        m = md.builtin("axio-dilaton")
        assert m.n_v == 2 and m.chart.kind == "poincare"

    def test_unknown_name(self):
        with pytest.raises(md.ModelError):
            md.builtin("unknown")

    @pytest.mark.parametrize("name", ["constant-i", "constant-i:2", "identity-tau",
                                      "axio-dilaton", "t3"])
    def test_siegel_membership_on_grid(self, name):
        assert md.check_siegel_on_grid(md.builtin(name), per_axis=32) > 0

    def test_t3_trace_det_positive(self):
        m = md.builtin("t3")
        for p in m.chart.sample_points(64):
            im = m.period(p).tau.imag
            assert np.trace(im) > 0
            assert np.linalg.det(im) > 0
            assert min_eig_ratio(im) > 0


class TestIsometries:
    def test_mobius_apply_inverse(self):
        f = md.MobiusIsometry(np.array([[2.0, 1.0], [1.0, 1.0]]))
        p = pt(0.3, 0.8)
        q = f.apply(p)
        assert q[1] > 0
        assert np.allclose(f.inverse().apply(q), p, atol=1e-12)

    def test_jacobian_vs_finite_difference(self):
        f = md.MobiusIsometry(np.array([[1.0, 0.5], [-0.7, 1.0]]))
        p = pt(0.2, 1.1)
        h = 1e-6
        jac = f.jacobian(p)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (f.apply(p + e) - f.apply(p - e)) / (2 * h)
            assert np.allclose(jac[:, k], fd, atol=1e-8)

    def test_poincare_isometry_preserves_metric(self):
        # pullback check: J^T G(f(p)) J = G(p)
        chart = md.ScalarChart("poincare", 2)
        f = md.parse_isometry("mobius:1,0.5,-0.7,1", chart)
        for p in chart.sample_points(20):
            jac = f.jacobian(p)
            lhs = jac.T @ chart.metric(f.apply(p)) @ jac
            assert np.allclose(lhs, chart.metric(p), atol=1e-10)

    def test_parse_specs(self):
        chart = md.ScalarChart("poincare", 2)
        f = md.parse_isometry("translate:0.5", chart)
        assert np.allclose(f.apply(pt(0, 1)), pt(0.5, 1))
        g = md.parse_isometry("scale:4", chart)
        assert np.allclose(g.apply(pt(0.2, 1)), pt(0.8, 4.0))
        flat = md.ScalarChart("flat", 2)
        t = md.parse_isometry("translate:1,2", flat)
        assert np.allclose(t.apply(pt(0, 0)), pt(1, 2))

    def test_bad_spec(self):
        with pytest.raises(md.ModelError):
            md.parse_isometry("widget:1", md.ScalarChart("poincare", 2))


class TestTransformedModel:
    def test_uduality_pair_leaves_model_invariant(self):
        base = md.builtin("identity-tau")
        f = md.parse_isometry("translate:1.0", base.chart)
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        tm = md.TransformedModel(base, f, a)
        for p in base.chart.sample_points(10):
            assert np.allclose(tm.period(p).tau, base.period(p).tau, atol=1e-12)
            v = np.array([0.3, -0.2])
            assert np.allclose(tm.period_directional(p, v),
                               base.period_directional(p, v), atol=1e-12)

    def test_matches_direct_composition(self):
        rng = np.random.default_rng(3)
        base = md.builtin("t3")
        f = md.parse_isometry("mobius:1,0.3,0.2,1", base.chart)
        from emduality.symplectic import random_sp
        a = random_sp(2, rng)
        tm = md.TransformedModel(base, f, a)
        for p in base.chart.sample_points(10):
            expect = fractional_action(a, base.period(f.inverse().apply(p)).tau)
            assert np.allclose(tm.period(p).tau, expect, atol=1e-12)

    def test_directional_derivative_matches_fd(self):
        rng = np.random.default_rng(4)
        base = md.builtin("axio-dilaton")
        f = md.parse_isometry("mobius:1,0.2,-0.1,1", base.chart)
        from emduality.symplectic import random_sp
        a = random_sp(2, rng)
        tm = md.TransformedModel(base, f, a)
        h = 1e-6
        for p in base.chart.sample_points(5):
            v = rng.standard_normal(2)
            d = tm.period_directional(p, v)[1]
            fd = (tm.period(p + h * v).tau - tm.period(p - h * v).tau) / (2 * h)
            assert np.max(np.abs(d - fd)) < 1e-6 * max(1.0, np.max(np.abs(d)))


class TestOneWalkPerConfiguration:
    """A configuration evaluates its model once: N and its partials along the
    chart axes come from one walk of each entry, and a transported
    configuration evaluates its base model once, at f^-1 of the scalar map,
    and inverts a + b N there once, for A . N, its differential and the pole
    rule alike: no SVD and no solve."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("period_matrix", "period_directional"):
            monkeypatch.setattr(md.Model, name, counted(name, getattr(md.Model, name)))
        for name in ("evaluate", "derivative"):
            monkeypatch.setattr(ex, name, counted(name, getattr(ex, name)))
        for name in ("svd", "solve"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))

        def complex_only(fn):   # a + b tau is complex; a taming's I, not counted, is real
            def inverse(m):
                if np.iscomplexobj(m):
                    calls["inv of a + b tau"] += 1
                return fn(m)
            return inverse
        # the inverse of a + b tau, by LAPACK or, for n <= 2, in closed form
        monkeypatch.setattr(np.linalg, "inv", complex_only(np.linalg.inv))
        monkeypatch.setattr(sp, "_small_inverse", complex_only(sp._small_inverse))
        return calls

    @staticmethod
    def configuration():
        grid = gr.GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
        rng = np.random.default_rng(6)
        phi = gr.phi_linear(grid, [0.05, 1.1], 0.1 * rng.standard_normal((4, 2)))
        f = gr.random_polynomial_fieldstrength(grid, 2, rng, amp=0.2)
        return grid, phi, f, random_sp(2, rng, 0.3)

    def test_one_walk_per_configuration(self, calls):
        grid, phi, f, _ = self.configuration()
        base = md.builtin("t3")
        calls.clear()
        gr.make_configuration(grid, base, gr.metric_minkowski(grid), phi, f)
        assert calls == {"period_directional": 1}

    @pytest.mark.parametrize("spec", ["id", "translate:0.3", "mobius:1,0.3,-0.2,1"])
    def test_one_base_walk_per_transported_configuration(self, calls, spec):
        grid, phi, f, a = self.configuration()
        base = md.builtin("t3")
        cfg = gr.make_configuration(grid, base, gr.metric_minkowski(grid), phi, f)
        iso = md.parse_isometry(spec, base.chart)
        calls.clear()
        gr.transport_config(iso, a, cfg)
        assert calls == {"period_directional": 1, "inv of a + b tau": 1}


def scipy_halton(dim, count):
    sampler = qmc.Halton(d=dim, scramble=False)
    sampler.fast_forward(1)
    return sampler.random(count)


class TestHalton:
    """The numpy Halton points against scipy's unscrambled Halton sampler,
    which computed the sample points before: equal bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 13])
    @pytest.mark.parametrize("count", [1, 16, 1000])
    def test_matches_scipy(self, dim, count):
        assert np.array_equal(md.halton(dim, count), scipy_halton(dim, count))

    def test_primes(self):
        assert md._primes(10).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert md._primes(1000)[-1] == 7919      # the 1000th prime
        assert md._primes(0).size == 0

    @pytest.mark.parametrize("model", ["t3", "axio-dilaton"])
    def test_reports_match_scipy_sample_points(self, monkeypatch, model):
        """uduality, stabilizer and lift reports are the same text whether the
        sample points come from numpy or from scipy."""
        argvs = [["uduality", "--model", model], ["stabilizer", "--model", model]]
        argvs += [["lift", "--model", model, "--killing", k] for k in ("dx", "scale", "special")]
        ours = [run(argv) for argv in argvs]
        calls = []

        def halton(dim, count):
            calls.append((dim, count))
            return scipy_halton(dim, count)

        monkeypatch.setattr(md, "halton", halton)
        assert [run(argv) for argv in argvs] == ours
        assert len(calls) == len(argvs)
