import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from emduality import grids as gr
from emduality import models as md
from emduality.cli import build_parser, run

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def a_translation(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1 0\n1 1\n")
    return str(path)


@pytest.fixture
def bundle_file(tmp_path):
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    path = tmp_path / "bundle.txt"
    path.write_text(f"nv = 1\ngenerator = {c} {-s} {s} {c}\n")
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        "model = identity-tau\n"
        "extents = -0.4:0.4 -0.4:0.4 -0.4:0.4 -0.4:0.4\n"
        "resolution = 7 7 7 7\n"
        "metric = minkowski\n"
        "phi = constant 0.1 1.2\n"
        "field = terms\n"
        "field_term = 0 0 1 0.3 0 0 0 0\n")
    return str(path)


class TestModels:
    def test_list(self):
        code, text = run(["models", "list"])
        assert code == 0
        assert "t3" in text and "axio-dilaton" in text

    def test_show(self):
        code, text = run(["models", "show", "axio-dilaton"])
        assert code == 0
        assert "nv = 2" in text

    def test_show_unknown_exit_2(self):
        code, _ = run(["models", "show", "unknown"])
        assert code == 2

    def test_unknown_command_exit_2(self):
        code, _ = run(["frobnicate"])
        assert code == 2


class TestAlgebraCommands:
    def test_stabilizer_axio_dilaton(self):
        code, text = run(["stabilizer", "--model", "axio-dilaton"])
        assert code == 0
        assert "check dim_stab_sp = 1" in text
        assert "minus_id_fixes_period = true" in text

    def test_uduality_t3(self):
        code, text = run(["uduality", "--model", "t3"])
        assert code == 0
        assert "check dim_u = 3" in text
        assert "check dim_stab_sp = 0" in text
        assert "check dim_iso_pr = 3" in text
        assert "check exactness_gap = 0" in text

    def test_lift(self):
        code, text = run(["lift", "--model", "identity-tau", "--killing", "dx"])
        assert code == 0
        assert "lift_residual" in text

    def test_lift_bad_spec_exit_2(self):
        code, _ = run(["lift", "--model", "identity-tau", "--killing", "bogus"])
        assert code == 2

    @pytest.mark.parametrize("alias", ["dx", "scale", "special"])
    def test_lift_alias_on_a_flat_chart_asks_for_an_index(self, tmp_path, alias):
        path = tmp_path / "flat3.model"
        path.write_text("nv = 1\nchart = flat\ndim = 3\nN[1,1] = i*(2 + x1^2)\n")
        code, text = run(["lift", "--model", str(path), "--killing", alias])
        assert code == 2
        assert (f"error = killing alias {alias!r} names a half-plane field; "
                "give an index on the flat chart") in text.splitlines()
        code, text = run(["lift", "--model", str(path), "--killing", "1"])
        assert code == 0
        assert "killing = d_x2" in text.splitlines()

    def test_pair_check_pass(self, a_translation):
        code, text = run(["pair-check", "--model", "identity-tau",
                          "--f", "translate:1.0", "--A", a_translation])
        assert code == 0
        assert "pair_residual" in text

    def test_pair_check_tolerance_failure_exit_1(self, a_translation):
        code, text = run(["pair-check", "--model", "identity-tau",
                          "--f", "translate:2.0", "--A", a_translation])
        assert code == 1
        assert "FAIL" in text

    def test_pair_check_stops_at_a_failed_a_row(self, tmp_path):
        # the pair is tested for A in Sp(2n, R) only, as transport's harness
        path = tmp_path / "a.txt"
        path.write_text("2 0\n0 1\n")
        code, text = run(["pair-check", "--model", "identity-tau", "--f", "id",
                          "--A", str(path)])
        assert code == 1
        checks = [line for line in text.splitlines() if line.startswith("check ")]
        assert len(checks) == 1
        assert re.fullmatch(r"check A_symplectic_violation = 1 tol 1e-08 FAIL", checks[0])
        assert "pair_residual" not in text

    def test_stabilizer_system_too_large_exit_2(self):
        # 1e9 samples would make a 6e9-entry system (and a 7.45 GiB sample set)
        code, text = run(["stabilizer", "--model", "identity-tau",
                          "--samples", "1000000000"])
        assert code == 2
        assert "error = --samples 1000000000 makes a stabilizer system of more than " \
               "4194304 entries at nv = 1" in text

    FLAT10 = "nv = 1\nchart = flat\ndim = 10\nN[1,1] = x1 + i*(2 + x1^2)\n"

    def test_unstable_sample_count_exit_1(self, tmp_path):
        """Two samples leave the stabilizer of a model on a 10-dimensional flat
        chart unstable under doubling: a failed check with a report."""
        path = tmp_path / "flat10.model"
        path.write_text(self.FLAT10)
        with pytest.warns(UserWarning, match="only 2 samples"):
            code, text = run(["stabilizer", "--model", str(path), "--samples", "2"])
        assert code == 1
        assert "error = stabilizer dim changed 1 -> 0" in text and "result = FAIL" in text

    def test_default_samples_grow_with_killing_fields(self, tmp_path):
        """The 55 Killing fields of a 10-dimensional flat chart get 58 default
        samples, so the dimensions are stable; the 10 fields that move x1 do
        not lift, which their info rows report without failing the command."""
        path = tmp_path / "flat10.model"
        path.write_text(self.FLAT10)
        code, text = run(["uduality", "--model", str(path)])
        assert "error" not in text
        for row in ("dim_u = 45", "dim_stab_sp = 0", "dim_iso_pr = 45", "exactness_gap = 0"):
            assert f"check {row} " in text
        assert "notes = 45/55 Killing basis fields admit lifts" in text
        assert (code, text.count("FAIL"), text.count("\nno_lift[")) == (0, 0, 10)

    @pytest.mark.parametrize("argv,code", [(["stabilizer", "--model"], 3),
                                           (["models", "show"], 2)])
    def test_builtin_spec_keeps_its_error(self, argv, code):
        """A constant-i spec with nv out of range reports that cause, not a
        missing file or an unknown name."""
        got, text = run(argv + ["constant-i:13"])
        assert got == code
        assert "error = model 'constant-i:13' needs nv in 1..12, got 13" in text

    @pytest.mark.parametrize("samples", ["0", "-3", "abc"])
    def test_stabilizer_bad_sample_count_exit_2(self, samples):
        code, text = run(["stabilizer", "--model", "identity-tau", "--samples", samples])
        assert (code, text) == (2, "")

    def test_unreadable_model_file_exit_3(self, tmp_path):
        binary = tmp_path / "binary.model"
        binary.write_bytes(b"\xff\xfe\x00nv = 1")
        for path in (binary, tmp_path):
            code, text = run(["stabilizer", "--model", str(path)])
            assert code == 3
            assert "readable file" in text and "result = FAIL" in text

    def test_model_file_missing_exit_3(self):
        code, _ = run(["stabilizer", "--model", "no-such-model-or-file"])
        assert code == 3

    @pytest.mark.parametrize("dim", ["x", "-1"])
    def test_model_file_bad_dim_exit_3(self, tmp_path, dim):
        path = tmp_path / "bad.model"
        path.write_text(f"nv = 1\nchart = flat\ndim = {dim}\nN[1,1] = i\n")
        code, text = run(["stabilizer", "--model", str(path)])
        assert code == 3
        assert "error = " in text and "dim" in text
        assert "result = FAIL" in text


class TestBundleCommands:
    def test_centralizer(self, bundle_file):
        code, text = run(["centralizer", "--bundle", bundle_file])
        assert code == 0
        assert "check dim_centralizer = 1" in text

    def test_centralizer_with_taming(self, bundle_file, tmp_path):
        j = tmp_path / "taming.txt"
        j.write_text("0 1\n-1 0\n")
        code, text = run(["centralizer", "--bundle", bundle_file,
                          "--taming", str(j)])
        assert code == 0
        assert "dim_autb_theta = 1" in text

    def test_invariants(self, bundle_file):
        code, text = run(["invariants", "--bundle", bundle_file, "--maxlen", "3"])
        assert code == 0
        assert "traces" in text

    def test_invariants_maxlen_guard_exit_2(self, bundle_file):
        code, _ = run(["invariants", "--bundle", bundle_file, "--maxlen", "9"])
        assert code == 2

    def test_missing_bundle_exit_3(self):
        code, _ = run(["centralizer", "--bundle", "/nonexistent/b.txt"])
        assert code == 3

    def test_improper_taming_exit_3(self, bundle_file, tmp_path):
        """J = diag(1, -1) is not a complex structure: bad input, no traceback."""
        j = tmp_path / "taming.txt"
        j.write_text("1 0\n0 -1\n")
        code, text = run(["centralizer", "--bundle", bundle_file, "--taming", str(j)])
        assert code == 3
        assert "error = J^2 != -Id" in text and "result = FAIL" in text

    @pytest.mark.parametrize("bundle, taming, error", [
        ("nv = 1\n", "0 1e200\n-1e-200 0\n", "J is out of range"),
        ("nv = 1\ngenerator = 1e200 0 0 1e-200\n", "", "generator 1 is out of range")])
    def test_out_of_range_matrix_exit_3(self, tmp_path, bundle, taming, error):
        """A taming or a generator with an entry above 1e150 is bad input,
        refused before any product of it is formed."""
        path = tmp_path / "b.bundle"
        path.write_text(bundle)
        argv = ["centralizer", "--bundle", str(path)]
        if taming:
            j = tmp_path / "taming.txt"
            j.write_text(taming)
            argv += ["--taming", str(j)]
        code, text = run(argv)
        assert code == 3
        assert f"error = {error}: an entry exceeds 1e+150 in magnitude" in text

    def test_taming_at_the_range_bound(self, tmp_path):
        path, j = tmp_path / "b.bundle", tmp_path / "taming.txt"
        path.write_text("nv = 1\n")
        j.write_text("0 1e150\n-1e-150 0\n")
        code, text = run(["centralizer", "--bundle", str(path), "--taming", str(j)])
        assert code == 0
        assert "check dim_autb_theta = 1 " in text

    def test_singular_generator_exit_3(self, tmp_path):
        path = tmp_path / "singular.bundle"
        path.write_text("nv = 1\ngenerator = 0 0 0 0\nrelation = 1 -1\n")
        for argv in (["centralizer"], ["invariants", "--maxlen", "2"]):
            code, text = run(argv + ["--bundle", str(path)])
            assert code == 3
            assert "singular" in text and "result = FAIL" in text

    def test_maxlen_checked_by_the_parser(self):
        for maxlen in ("0", "7"):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args(["invariants", "--bundle", "b.txt",
                                           "--maxlen", maxlen])
            assert err.value.code == 2


class TestGridCommands:
    def test_selfdual(self, config_file):
        code, text = run(["selfdual", "--config", config_file])
        assert code == 0
        assert "selfdual_violation" in text

    def test_residuals(self, config_file):
        code, text = run(["residuals", "--config", config_file])
        assert code == 0
        assert "scalar_assembly_gap" in text

    def test_residuals_convergence_table(self, config_file):
        code, text = run(["residuals", "--config", config_file, "--refine", "1"])
        assert code == 0
        assert "refine[1] grid = 13x13x13x13" in text
        assert "refine[1] einstein_max" in text

    def test_transport(self, config_file, a_translation):
        code, text = run(["transport", "--config", config_file,
                          "--f", "translate:1.0", "--A", a_translation])
        assert code == 0
        assert "einstein_discrepancy" in text

    @pytest.mark.parametrize("keys", [
        {}, {"extents": "-0.4:0.4 -0.3:0.5 -0.4:0.2 -0.2:0.4", "resolution": "7 8 9 7"}])
    def test_refine_rows_read_the_coarse_interior(self, tmp_path, keys):
        # each refine[1] row is the refined residual's maximum over the fine
        # nodes inside the coarse interior's coordinate box, found by coordinate
        lines = (GOLDEN / "t3.cfg").read_text(encoding="utf-8").splitlines()
        text = "\n".join(f"{key} = {keys[key]}" if (key := line.split(" = ")[0]) in keys
                         else line for line in lines) + "\n"
        path = tmp_path / "grid.cfg"
        path.write_text(text)
        code, report = run(["residuals", "--config", str(path), "--refine", "1"])
        assert code == 0
        coarse = gr.parse_grid_config(text).grid
        fine = gr.parse_grid_config(text, coarse.refine().resolution)
        inside = np.ix_(*[(ax >= c[s][0] - 1e-12) & (ax <= c[s][-1] + 1e-12) for ax, c, s
                          in zip(fine.grid.axes, coarse.axes, coarse.interior())])
        whole = fine.on(gr.WHOLE)
        for name, res in [("einstein_max", gr.einstein_residual(whole, check=False)),
                          ("scalar_max", gr.scalar_residual(whole)),
                          ("maxwell_max", gr.maxwell_residual(whole))]:
            value = format(float(np.abs(res[inside]).max()), ".12g")
            assert f"\nrefine[1] {name} = {value}\n" in report

    def test_transport_checks_that_a_is_symplectic(self, config_file, tmp_path):
        # the harness needs A in Sp(2n, R): transport stops at the failed row
        path = tmp_path / "a.txt"
        path.write_text("2 0\n0 1\n")
        code, text = run(["transport", "--config", config_file, "--f", "id",
                          "--A", str(path)])
        assert code == 1
        checks = [line for line in text.splitlines() if line.startswith("check ")]
        assert re.fullmatch(r"check A_symplectic_violation = \S+ tol 1e-08 FAIL", checks[-1])
        assert "discrepancy" not in text

    def test_out_of_range_a_exit_3(self, config_file, tmp_path):
        # symplectic, but the harness would square its entries
        path = tmp_path / "a.txt"
        path.write_text("1e200 0\n0 1e-200\n")
        code, text = run(["transport", "--config", config_file, "--f", "id",
                          "--A", str(path)])
        assert code == 3
        assert f"error = A in {str(path)!r} is out of range" in text
        assert "check " not in text

    def test_grid_too_large_exit_3(self, config_file, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(Path(config_file).read_text().replace(
            "resolution = 7 7 7 7", "resolution = 100000 100000 100000 100000"))
        code, text = run(["residuals", "--config", str(path)])
        assert code == 3
        assert "has more than 1185921 nodes (33^4)" in text

    def test_refine_past_the_largest_grid_exit_2(self, tmp_path):
        # from 9^4, --refine 2 reaches 33^4, the largest grid; one more is refused
        # before any residual is computed
        path = tmp_path / "grid.cfg"
        path.write_text((GOLDEN / "t3.cfg").read_text(encoding="utf-8").replace(
            "resolution = 7 7 7 7", "resolution = 9 9 9 9"))
        for refine in ("3", "40"):
            code, text = run(["residuals", "--config", str(path), "--refine", refine])
            assert code == 2
            assert f"error = --refine {refine}: grid 65x65x65x65 has more than" in text

    def test_negative_refine_exit_2(self, config_file):
        code, text = run(["residuals", "--config", config_file, "--refine", "-1"])
        assert (code, text) == (2, "")

    def test_binary_config_exit_3(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe\x00model = identity-tau")
        code, text = run(["residuals", "--config", str(path)])
        assert code == 3
        assert "cannot read" in text and "result = FAIL" in text

    def test_missing_config_exit_3(self):
        code, _ = run(["residuals", "--config", "/nonexistent/x.cfg"])
        assert code == 3


class TestMalformedGridInputs:
    """Bad grid inputs give exit 3 and an error report, never a traceback."""

    @staticmethod
    def config(tmp_path, **keys):
        lines = {"model": "identity-tau",
                 "extents": "-0.4:0.4 -0.4:0.4 -0.4:0.4 -0.4:0.4",
                 "resolution": "7 7 7 7", "phi": "constant 0.1 1.2", "field": "zero"}
        lines.update(keys)
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items() if v is not None))
        return str(path)

    @staticmethod
    def model_file(tmp_path, entry):
        path = tmp_path / "bad.model"
        path.write_text(f"nv = 1\nchart = poincare\nN[1,1] = {entry}\n")
        return str(path)

    def assert_bad_input(self, cfg):
        code, text = run(["residuals", "--config", cfg])
        assert code == 3
        assert "error = " in text
        assert "result = FAIL" in text

    def test_scalar_map_leaves_half_plane(self, tmp_path):
        self.assert_bad_input(self.config(tmp_path, phi="linear 0.0 0.2 | 0 0 0 1 0 0 0 0"))

    def test_non_lorentzian_metric(self, tmp_path):
        self.assert_bad_input(self.config(
            tmp_path, extents="-0.5:0.5 -0.5:0.5 -0.5:0.5 -0.5:0.5",
            metric="quadratic", metric_coeff="0 0 0 0 5.0"))

    def test_metric_coeff_needs_the_quadratic_metric(self, tmp_path):
        code, text = run(["residuals", "--config", self.config(
            tmp_path, metric_coeff="0 0 1 1 0.5")])
        assert code == 3
        assert "error = metric_coeff needs 'metric = quadratic'" in text.splitlines()

    def test_field_term_needs_the_terms_field(self, tmp_path):
        code, text = run(["residuals", "--config", self.config(
            tmp_path, field=None, field_term="0 0 1 0.3 0 0 0 0")])
        assert code == 3
        assert "error = field_term needs 'field = terms'" in text.splitlines()

    @pytest.mark.parametrize("entry, phi", [("i + tau^2000", "constant 0.0 1.6"),
                                            ("i + x1^2000", "constant 1.4236 0.0")],
                             ids=["N", "dN"])
    def test_couplings_that_overflow(self, tmp_path, entry, phi):
        # at x1 = 1.4236, x1^2000 is finite but its derivative 2000 x1^1999 is not
        chart = "poincare" if "tau" in entry else "flat\ndim = 2"
        model = tmp_path / "steep.model"
        model.write_text(f"name = steep\nnv = 1\nchart = {chart}\nN[1,1] = {entry}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["residuals", "--config",
                              self.config(tmp_path, model=str(model), phi=phi)])
        assert code == 3
        point = phi.split(None, 1)[1].replace(" ", ", ")
        assert f"error = model 'steep' is not finite at point 0 [{point}]" in text.splitlines()

    def test_incomplete_model_expression(self, tmp_path):
        model = self.model_file(tmp_path, "tau +")
        self.assert_bad_input(self.config(tmp_path, model=model))

    def test_superscript_digit_in_model_expression(self, tmp_path):
        model = tmp_path / "bad.model"
        model.write_text("nv = 1\nchart = poincare\nN[1,1] = i + 2 * \u00b2\n", encoding="utf-8")
        self.assert_bad_input(self.config(tmp_path, model=str(model)))

    def test_model_pole_on_the_scalar_map(self, tmp_path):
        model = self.model_file(tmp_path, "i + 1/(tau - i)")
        self.assert_bad_input(self.config(tmp_path, model=model, phi="constant 0.0 1.0"))


MALFORMED_CONFIGS = {
    "resolution": {"resolution": "9 9 x 9"},
    "extents": {"extents": "a:b -0.4:0.4 -0.4:0.4 -0.4:0.4"},
    "slope count": {"phi": "linear 0.0 1.2 | 0.01 0 0 0.02 0 0 0"},
    "metric_coeff": {"metric": "quadratic", "metric_coeff": "0 1 0.02"},
    "field_term index": {"field": "terms", "field_term": "1 0 1 0.3 0 0 0 0"},
}


class TestMalformedNumbers:
    """Malformed numbers in input files: exit 3 with an error report."""

    @staticmethod
    def assert_bad_input(argv):
        code, text = run(argv)
        assert code == 3
        assert "error = " in text
        assert "result = FAIL" in text

    @pytest.mark.parametrize("keys", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
    def test_config(self, tmp_path, keys):
        self.assert_bad_input(["residuals", "--config",
                               TestMalformedGridInputs.config(tmp_path, **keys)])

    def test_matrix(self, config_file, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("1 0\nx 1\n")
        self.assert_bad_input(["transport", "--config", config_file,
                               "--f", "translate:1.0", "--A", str(a)])

    def test_bundle(self, tmp_path):
        path = tmp_path / "bundle.txt"
        path.write_text("nv = 1\ngenerator = 1 0 q 1\n")
        self.assert_bad_input(["centralizer", "--bundle", str(path)])


class TestNumberErrorsNameTheirSource:
    """A bad number is reported with the option, key or file it came from and
    the first bad token."""

    @staticmethod
    def error(argv):
        code, text = run(argv)
        return code, next(line for line in text.splitlines() if line.startswith("error = "))

    @pytest.mark.parametrize("key, value, where, token", [
        ("resolution", "7 7 x 7", "resolution", "'x'"),
        ("extents", "-0.4:0.4 -0.4:y -0.4:0.4 -0.4:0.4", "extents", "'y'"),
        ("phi", "constant 0.1 nan", "phi constant", "'nan'"),
        ("phi", "constant 1e999 abc", "phi constant", "'1e999'")])
    def test_config_key(self, tmp_path, key, value, where, token):
        cfg = TestMalformedGridInputs.config(tmp_path, **{key: value})
        code, line = self.error(["residuals", "--config", cfg])
        assert code == 3
        assert f"number in {where}: {token}" in line

    def test_matrix_file(self, config_file, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("1 0\nx 1\n")
        code, line = self.error(["transport", "--config", config_file,
                                 "--f", "id", "--A", str(a)])
        assert code == 3
        assert line == f"error = malformed number in {str(a)!r}: 'x'"

    @pytest.mark.parametrize("body, where, token", [
        ("nv = 1\ngenerator = 1 0 q 1\n", "generator on line 2", "'q'"),
        ("nv = 1\ngenerator = 1 0 0 1\nrelation = 1 z\n", "relation on line 3", "'z'"),
        ("nv = x\n", "nv on line 1", "'x'")])
    def test_bundle_key(self, tmp_path, body, where, token):
        path = tmp_path / "bundle.txt"
        path.write_text(body)
        code, line = self.error(["centralizer", "--bundle", str(path)])
        assert code == 3
        assert f"number in {where}: {token}" in line

    @pytest.mark.parametrize("f, token", [("translate:abc", "'abc'"),
                                          ("mobius:1,0,inf,x", "'inf'")])
    def test_isometry_spec(self, f, token):
        code, line = self.error(["pair-check", "--model", "identity-tau", "--f", f,
                                 "--A", "unused.A"])
        assert code == 2
        assert f"number in isometry spec {f!r}: {token}" in line


def test_overflowing_metric_is_bad_input(tmp_path):
    """A metric that overflows to inf is out-of-range input, named at its first
    node, and numpy's overflow warning does not reach the user."""
    cfg = TestMalformedGridInputs.config(
        tmp_path, extents=" ".join(["-1e200:1e200"] * 4), metric="quadratic",
        metric_coeff="1 2 0 0 1.0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["residuals", "--config", cfg])
    assert code == 3
    assert ("error = metric not finite at node index (0, 0, 0, 0): "
            "the extents or metric_coeff are out of range") in text


T3_TERM = "field_term = 0 0 1 0.3 0 0 1 0"
T3_EXTENTS = "extents = -0.4:0.4 -0.4:0.4 -0.4:0.4 -0.4:0.4"
OUT_OF_RANGE_FIELDS = {
    "term-coefficient": [(T3_TERM, "field_term = 0 0 1 1e160 0 0 1 0")],
    "random-amplitude": [("field = terms", "field = random 1e155 3"), (T3_TERM + "\n", ""),
                         ("field_term = 1 2 3 -0.2 1 0 0 1\n", "")],
    # 0.3 y^400 overflows at |y| = 10
    "monomial-power": [(T3_TERM, "field_term = 0 0 1 0.3 0 0 400 0"),
                       (T3_EXTENTS, "extents = -0.4:0.4 -0.4:0.4 -10:10 -0.4:0.4")]}


@pytest.mark.parametrize("command", [["residuals"], ["selfdual"],
                                     ["transport", "--f", "id", "--A", str(GOLDEN / "t3.A")]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("case", list(OUT_OF_RANGE_FIELDS))
def test_out_of_range_field_is_bad_input(tmp_path, command, case):
    """A field strength that overflows, or exceeds the largest entry the
    program takes, is refused at its first node before any product of it is
    formed: a report and exit 3, and no numpy warning, under warnings as
    errors."""
    text = (GOLDEN / "t3.cfg").read_text(encoding="utf-8")
    for old, new in OUT_OF_RANGE_FIELDS[case]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "field.cfg"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run([command[0], "--config", str(path), *command[1:]])
    assert code == 3
    assert ("error = field strength not finite or above 1e+150 at node index (0, 0, 0, 0): "
            "the field spec or the extents are out of range") in out
    assert "result = FAIL" in out and "Traceback" not in out


# flat dim-1 models inside Siegel space whose taming overflows at the
# constant scalar value, with a field small enough that the lower field
# block R F - I *F stays in range: (N[1,1], x1, field amplitude)
TAMING_OVERFLOWS = {"power": ("i + x1^200", 10, 1e-60), "scale": ("1e80 * x1 + 1e-150 * i", 1, 0.1)}
TAMING_ERROR = ("error = taming not finite or above 1e+150 at node index (2, 2, 2, 2): "
                "the couplings are out of range")
TRANSPORTED_ERROR = ("error = transported field block not finite or above 1e+150 at node "
                     "index (0, 0, 0, 0): A V is out of range")
LOWER_ERROR = ("error = lower field block not finite or above 1e+150 at node index "
               "(0, 0, 0, 0): R F - I *F is out of range")
# flat dim-1 models whose lower field block leaves the range: (N[1,1], x1,
# field spec); the first overflows to inf, the second reaches 1e199
LOWER_OVERFLOWS = {"inf": ("i + 1e300 * x1", 1, "terms\nfield_term = 0 0 1 1e10 0 0 0 0"),
                   "power": ("i + x1^200", 10, "random 0.1 3")}
COMMANDS = [["residuals"], ["selfdual"], ["transport", "--f", "id"]]


def run_flat_model(tmp_path, command, period, x1, field):
    """command on a 7^4 Minkowski config of the flat dim-1 model N[1,1] =
    period at the constant scalar x1, A the identity for transport, under
    warnings as errors."""
    model = tmp_path / "overflow.model"
    model.write_text(f"name = overflow\nnv = 1\nchart = flat\ndim = 1\nN[1,1] = {period}\n")
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(f"model = {model}\nresolution = 7 7 7 7\nphi = constant {x1}\n"
                   f"field = {field}\n")
    identity = tmp_path / "identity.A"
    identity.write_text("1 0\n0 1\n")
    extra = ["--A", str(identity)] if command[0] == "transport" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run([command[0], "--config", str(cfg), *command[1:], *extra])


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("case", list(TAMING_OVERFLOWS))
def test_out_of_range_taming_is_bad_input(tmp_path, command, case):
    """Couplings inside Siegel space can still overflow the taming: it is
    refused, naming the first node of the interior by its grid index, with a
    report and exit 3 and no numpy warning under warnings as errors."""
    period, x1, amp = TAMING_OVERFLOWS[case]
    code, out = run_flat_model(tmp_path, command, period, x1, f"random {amp!r} 3")
    assert code == 3
    assert TAMING_ERROR in out
    assert "result = FAIL" in out and "Traceback" not in out


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("case", list(LOWER_OVERFLOWS))
def test_out_of_range_lower_field_block_is_bad_input(tmp_path, command, case):
    """A lower field block R F - I *F that is not finite or exceeds the
    largest entry taken is refused when the configuration is built, at its
    first node: a report and exit 3 and no numpy warning under warnings as
    errors, and transport with A the identity names the lower block, not A V."""
    code, out = run_flat_model(tmp_path, command, *LOWER_OVERFLOWS[case])
    assert code == 3
    assert LOWER_ERROR in out
    assert "result = FAIL" in out and "Traceback" not in out


def test_out_of_range_transported_field_is_bad_input(tmp_path):
    """A and V each within the largest entry taken can give A V beyond it: the
    transported block is refused at its first node, with a report and exit 3
    and no numpy warning under warnings as errors.  F = 1e149 gives a lower
    field block of 2e149, in range, and A V = 1e169."""
    text = (GOLDEN / "t3.cfg").read_text(encoding="utf-8")
    text = text.replace(T3_TERM + "\n", "").replace("field_term = 1 2 3 -0.2 1 0 0 1",
                                                    "field_term = 0 0 1 1e149 0 0 0 0")
    cfg = tmp_path / "field.cfg"
    cfg.write_text(text)
    a = tmp_path / "scaled.A"
    a.write_text("1e20 0 0 0\n0 1e20 0 0\n0 0 1e-20 0\n0 0 0 1e-20\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(["transport", "--config", str(cfg), "--f", "id", "--A", str(a)])
    assert code == 3
    assert TRANSPORTED_ERROR in out
    assert "result = FAIL" in out and "Traceback" not in out


@pytest.mark.parametrize("lam", ["1e-80", "1e-72"])
def test_overflowing_ads_metric_is_bad_input(lam):
    """At a tiny lambda the AdS metric's determinant overflows: thm53 refuses
    it at its first node with a report, and numpy's overflow warning does not
    reach the user."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["thm53", "--frame", "ads4-poincare", "--lambda", lam])
    assert code == 3
    assert "error = metric determinant overflows at node index (0, 0, 0, 0)" in text
    assert "result = FAIL" in text and "Traceback" not in text


@pytest.mark.parametrize("entry", ["tau + 10^400", "(1/3)^-700", "tau + 1e999",
                                   "tau + 1e308*10", "tau + 1e999*i", "tau^1e400"])
def test_non_finite_constant_is_bad_input(tmp_path, entry):
    """A literal, an exponent or a folded constant that is not finite is a
    syntax error at its line and column, not a traceback."""
    model = tmp_path / "big.model"
    model.write_text(f"nv = 1\nN[1,1] = {entry}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["stabilizer", "--model", str(model)])
    assert code == 3
    error = next(line for line in text.splitlines() if line.startswith("error = "))
    assert "finite" in error and "(line 2, column " in error
    assert "result = FAIL" in text


@pytest.mark.parametrize("body, error", [
    ("nv = 1\nN[1,1] = tau + 10^400\n", "constant is not finite (line 2, column 19)"),
    ("name = x\nnv = 1\n  N[1, 1] =   tau + foo  # c\n", "unknown symbol 'foo' (line 3, column 21)"),
    ("nv=1\nN[1,1]=tau)\n", "trailing input ')' (line 2, column 11)")])
def test_expression_error_columns_count_from_the_file_line(tmp_path, body, error):
    """An expression error in a model entry is placed at its column in the
    file line, not in the expression."""
    model = tmp_path / "entry.model"
    model.write_text(body)
    code, text = run(["stabilizer", "--model", str(model)])
    assert code == 3
    assert f"error = {error}" in text.splitlines()


class TestUnknownAndRepeatedKeys:
    """A key the format does not know, or a key given twice that may not
    repeat, is bad input named by its key and line."""

    CONFIG = ("model = identity-tau\nextents = -0.4:0.4 -0.4:0.4 -0.4:0.4 -0.4:0.4\n"
              "resolution = 7 7 7 7\n")

    @pytest.mark.parametrize("command, body, error", [
        ("residuals --config", CONFIG + "resoluton = 7 7 7 7\n",
         "unknown key 'resoluton' on line 4"),
        ("residuals --config", CONFIG + "resolution = 7 7 7 7\n",
         "repeated key 'resolution' on line 4"),
        ("residuals --config", CONFIG + "resolution[1] = 7\n",
         "unknown key 'resolution[1]' on line 4"),
        ("stabilizer --model", "nv = 1\nchrat = flat\nN[1,1] = tau\n",
         "unknown key 'chrat' on line 2"),
        ("stabilizer --model", "nv = 1\nN[1,1] = tau\nnv = 1\n", "repeated key 'nv' on line 3"),
        ("stabilizer --model", "nv = 1\nN[1,1] = tau\nN[1,1] = 2*tau\n",
         "repeated key 'n[1,1]' on line 3"),
        ("stabilizer --model", "nv = 1\nN[1,1] = tau\nN [1, 1] = 2*tau\n",
         "repeated entry N[1,1] (line 3)"),
        ("stabilizer --model", "nv = 1\nN = tau\n", "unknown key 'n' on line 2"),
        ("centralizer --bundle", "nv = 1\nnv = 1\ngenerator = 1 0 0 1\n",
         "repeated key 'nv' on line 2"),
        ("centralizer --bundle", "nv = 1\ngenrator = 1 0 0 1\n",
         "unknown key 'genrator' on line 2")])
    def test_bad_key(self, tmp_path, command, body, error):
        path = tmp_path / "input.txt"
        path.write_text(body)
        code, text = run(command.split() + [str(path)])
        assert code == 3
        assert f"error = {error}" in text.splitlines()
        assert "result = FAIL" in text

    def test_repeating_keys_repeat(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(self.CONFIG + "field = terms\nfield_term = 0 0 1 0.3 0 0 0 0\n"
                        "field_term = 0 0 2 0.1 1 0 0 0\n")
        assert run(["selfdual", "--config", str(path)])[0] == 0


class TestMalformedArguments:
    """Non-numeric or non-finite numeric arguments: exit 2, never a traceback."""

    @pytest.mark.parametrize("f", ["translate:abc", "translate:nan", "scale:inf",
                                   "mobius:1,0,x,1"])
    @pytest.mark.parametrize("command", ["pair-check", "transport"])
    def test_isometry_numbers(self, config_file, a_translation, command, f):
        source = (["--model", "identity-tau"] if command == "pair-check"
                  else ["--config", config_file])
        code, text = run([command, *source, "--f", f, "--A", a_translation])
        assert code == 2
        assert "number in" in text and "result = FAIL" in text

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999", "abc", "1 2"])
    @pytest.mark.parametrize("argv", [
        ["spinor-check", "--frame", "ads4-poincare", "--lambda"],
        ["thm53", "--frame", "ads4-poincare", "--lambda"],
        # the check bounds are fixed: a --tol of any value is an unknown option
        ["stabilizer", "--model", "identity-tau", "--tol"],
        ["pair-check", "--model", "identity-tau", "--f", "id", "--A", "a.txt", "--tol"],
        ["selfdual", "--config", "grid.cfg", "--tol"],
        ["transport", "--config", "grid.cfg", "--f", "id", "--A", "a.txt", "--tol"]],
        ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_finite_floats(self, argv, value):
        assert run(argv + [value]) == (2, "")


class TestSpinorCommands:
    def test_spinor_check_minkowski(self):
        code, text = run(["spinor-check", "--frame", "minkowski", "--lambda", "0"])
        assert code == 0
        assert "parallel_residual" in text

    def test_spinor_check_ads_converges(self):
        code, text = run(["spinor-check", "--frame", "ads4-poincare", "--lambda", "1.0"])
        assert code == 0
        assert "result = pass" in text

    def test_spinor_check_ads_negative_lambda(self):
        """The frame is built at |lambda|: a negative lambda has Killing spinors too."""
        code, text = run(["spinor-check", "--frame", "ads4-poincare", "--lambda", "-0.5"])
        assert code == 0
        assert "result = pass" in text

    @pytest.mark.parametrize("argv", [["spinor-check", "--lambda", "-1e-80"],
                                      ["thm53", "--lambda", "-5e-1"]], ids=lambda a: a[0])
    def test_negative_lambda_in_exponent_form(self, argv):
        """A separate negative value in exponent form is a number, not an option."""
        code, text = run(argv[:1] + ["--frame", "ads4-poincare"] + argv[1:])
        assert code == 0
        assert "result = pass" in text
        assert run(argv[:1] + ["--frame", "ads4-poincare", "--lambda", "-x"]) == (2, "")

    @pytest.mark.parametrize("command", ["spinor-check", "thm53"])
    def test_ads_lambda_zero_exit_2(self, command):
        code, text = run([command, "--frame", "ads4-poincare", "--lambda", "0"])
        assert code == 2
        assert "error = " in text and "lambda" in text

    def test_spinor_check_unknown_frame_exit_2(self):
        code, _ = run(["spinor-check", "--frame", "rindler"])
        assert code == 2

    def test_thm53_ads(self):
        code, text = run(["thm53", "--frame", "ads4-poincare", "--lambda", "1.0"])
        assert code == 0
        assert "check nontrivial = true" in text
        assert "dkappa_max" in text


class TestDeterminism:
    def test_byte_identical_reports(self):
        _, t1 = run(["stabilizer", "--model", "axio-dilaton"])
        _, t2 = run(["stabilizer", "--model", "axio-dilaton"])
        assert t1 == t2


class TestImports:
    def test_cli_runs_without_scipy(self):
        """The command line imports numpy only: scipy stays unloaded through a
        U-duality and a spinor check in a fresh interpreter."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys\n"
                f"sys.path.insert(0, {src!r})\n"
                "from emduality import cli\n"
                "assert cli.run(['uduality', '--model', 't3'])[0] == 0\n"
                "assert cli.run(['spinor-check', '--frame', 'minkowski'])[0] == 0\n"
                "print('scipy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_parser_usable(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
        from regenerate import REPORTS, run_case

        assert run(["frobnicate"]) == (2, "")
        assert run_case(["stabilizer", "--model", "identity-tau"]) == (
            REPORTS / "stabilizer-identity-tau.txt").read_text(encoding="utf-8")


class TestInputBranches:
    """Branches of the model, grid and bundle readers: each malformed input
    gives its documented exit code and a one-row error report."""

    CONFIG = TestUnknownAndRepeatedKeys.CONFIG

    @pytest.mark.parametrize("command, body, error", [
        ("stabilizer --model", "nv = 1\nchart = poincare\ndim = 3\nN[1,1] = tau\n",
         "poincare chart requires dim 2"),
        ("stabilizer --model", "nv = 1\nN[1,1 = tau\n",
         "missing ']' in entry index (line 2, column 5)"),
        ("stabilizer --model", "nv = 1\nN[1] = tau\n",
         "entry index must be N[i,j] (line 2, column 1)"),
        ("stabilizer --model", "nv = 1\nN[1,1] =\n",
         "entry line needs '= <expr>' (line 2, column 8)"),
        ("stabilizer --model", "nv = 1\nN[1,1] = tau^1.5\n",
         "exponent must be an integer (line 2, column 14)"),
        ("stabilizer --model", "nv = 1\nN[1,1] = i + conj(x)\n",
         "conj() takes only tau, got 'x' (line 2, column 19)"),
        ("stabilizer --model", "nv = 1\nchart = flat\ndim = 1\nN[1,1] = i + conj(x1)\n",
         "conj() takes only tau, got 'x1' (line 4, column 19)"),
        ("selfdual --config", CONFIG + "phi = quadratic 1 2\n", "unknown phi spec 'quadratic'"),
        ("selfdual --config", CONFIG + "field = foo\n", "unknown field spec 'foo'"),
        ("selfdual --config", CONFIG + "field = terms\nfield_term = 0 0 1 0.3\n",
         "field_term needs 'L mu nu c p0 p1 p2 p3', got '0 0 1 0.3'"),
        ("selfdual --config", CONFIG.replace("7 7 7 7", "5 9 9 9"),
         "resolution must be >= 7 per axis (stencil margin 2)"),
        ("selfdual --config", CONFIG.replace("-0.4:0.4", "1:0", 1),
         "extents axis 0 is empty: 1:0"),
        ("centralizer --bundle", "generator = 1 0 0 1\nnv = 1\n",
         "nv must come before generators"),
        ("centralizer --bundle", "# no nv\n", "file must set nv")],
        ids=["poincare-dim-3", "no-bracket", "one-index", "no-expression",
             "fractional-power", "conj-x", "conj-x1-flat", "phi-quadratic", "field-foo",
             "field-term-4", "resolution-5", "extents-1-0", "generator-first", "no-nv"])
    def test_bad_input(self, tmp_path, command, body, error):
        path = tmp_path / "input.txt"
        path.write_text(body)
        code, text = run(command.split() + [str(path)])
        assert code == 3
        assert f"error = {error}" in text.splitlines()
        assert "result = FAIL" in text

    @pytest.mark.parametrize("argv, code", [(["stabilizer", "--model"], 3),
                                            (["models", "show"], 2)])
    def test_bad_constant_i_spec(self, argv, code):
        got, text = run(argv + ["constant-i:x"])
        assert got == code
        assert "error = bad constant-i spec 'constant-i:x'" in text.splitlines()

    def test_unary_plus_is_the_identity(self, tmp_path):
        points = np.array([[0.3, 1.2], [-0.7, 0.4]])
        periods, reports = [], []
        for entry in ("+tau", "tau"):
            model = tmp_path / "entry.model"
            model.write_text(f"name = m\nnv = 1\nN[1,1] = {entry}\n")
            periods.append(md.load_model(str(model)).period_matrix(points))
            reports.append(run(["stabilizer", "--model", str(model)]))
        assert np.array_equal(*periods)
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_identity_pair_on_a_flat_chart(self, tmp_path):
        model = tmp_path / "flat.model"
        model.write_text("name = flat\nnv = 1\nchart = flat\ndim = 1\nN[1,1] = i + x1\n")
        a = tmp_path / "id.A"
        a.write_text("1 0\n0 1\n")
        code, text = run(["pair-check", "--model", str(model), "--f", "id", "--A", str(a)])
        assert code == 0
        assert "check pair_residual = 0 tol 1e-10 pass" in text.splitlines()
