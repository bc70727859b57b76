"""Tests of the benchmark's own pieces: the closed-form Einstein oracle, the
report parser, span arithmetic and wrapping, and the seeded inputs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from emduality import cli, duality, grids, models, spinors, symplectic  # noqa: E402


# ------------------------------------------------------------------- oracle

def test_oracle_vanishes_on_minkowski():
    x = np.random.default_rng(0).uniform(-0.4, 0.4, size=(50, 4))
    assert np.max(np.abs(oracle.einstein_closed_form(x, []))) == 0.0
    assert oracle.einstein_max(workloads.EXTENTS, (7,) * 4, []) == 0.0


def test_oracle_matches_grid_einstein_on_quadratic_metric():
    terms = [(0, 1, 1, 1, 0.02), (2, 3, 0, 2, -0.01), (1, 1, 2, 2, 0.03),
             (0, 0, 3, 3, 0.025)]
    grid = grids.GridPatch(workloads.EXTENTS, (9,) * 4)
    fd = grids.einstein(grids.metric_quadratic(grid, terms), grid)[grid.interior()]
    inner = grid.coords()[grid.interior()].reshape(-1, 4)
    exact = oracle.einstein_closed_form(inner, terms).reshape(fd.shape)
    assert np.max(np.abs(exact)) > 1e-3          # a real test, not 0 == 0
    assert np.max(np.abs(fd - exact)) < 1e-13
    assert oracle.einstein_max(workloads.EXTENTS, (9,) * 4, terms) == \
        pytest.approx(float(np.max(np.abs(fd))), rel=1e-12)


# ------------------------------------------------------------------- parser

def test_parser_reads_meta_checks_and_result():
    text = ("schema = emduality-report/1\ncommand = residuals\nseed = 0\n"
            "refine[1] einstein_max = 0.0123\ntraces = 1 2.5 -3\n"
            "check lift[dx] residual = 1e-15 tol 1e-08 pass\n"
            "check residual_order = 1.2 tol - FAIL\nresult = FAIL\n")
    rep = report.parse(text)
    assert rep.meta["command"] == "residuals"
    assert rep.number("refine[1] einstein_max") == 0.0123
    assert rep.numbers("traces") == [1.0, 2.5, -3.0]
    assert rep.checks["lift[dx] residual"] == report.Check("1e-15", "1e-08", True)
    assert not rep.checks["residual_order"].passed
    assert not rep.passed
    with pytest.raises(KeyError):
        rep.number("missing")


def test_parser_reads_a_cli_report():
    code, text = cli.run(["uduality", "--model", "axio-dilaton"])
    rep = report.parse(text)
    assert code == 0 and rep.passed
    assert (rep.number("dim_u"), rep.number("dim_stab_sp"), rep.number("dim_iso_pr")) == (4, 1, 3)


@pytest.mark.parametrize("text", ["command = x\n", "no separator here\nresult = pass\n"])
def test_parser_rejects_malformed_reports(text):
    with pytest.raises(report.ReportFormatError):
        report.parse(text)


# -------------------------------------------------------------------- spans

class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds a [2, 5] and b [6, 7]; a holds b [3, 4]
    tracer = spans.Tracer(FakeClock(0, 2, 3, 4, 5, 6, 7, 10))

    def b():
        pass

    def a():
        tb()

    def outer():
        ta()
        tb()

    ta, tb = tracer.wrap("a", a), tracer.wrap("b", b)
    tracer.wrap("outer", outer)()
    assert tracer.calls == {"outer": 1, "a": 1, "b": 2}
    assert tracer.self_s == {"outer": 10 - 3 - 1, "a": 3 - 1, "b": 1 + 1}
    assert tracer.edges == {("", "outer"): [1, 10], ("outer", "a"): [1, 3],
                            ("a", "b"): [1, 1], ("outer", "b"): [1, 1]}
    assert tracer.stack == []


def test_recursion_counts_outermost_call_only():
    tracer = spans.Tracer(FakeClock(0, 4))

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("fact", fact)
    assert traced(5) == 120
    assert tracer.calls == {"fact": 1}
    assert tracer.self_s == {"fact": 4}


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(FakeClock(0, 1))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.calls == {"boom": 1} and tracer.stack == [] and not tracer.open


def test_delta_of_snapshots():
    before = {"calls": {"a": 2}, "self_s": {"a": 1.0}, "counters": {}}
    after = {"calls": {"a": 5, "b": 1}, "self_s": {"a": 1.5, "b": 0.25},
             "counters": {"grids.nodes": 81}}
    assert spans.delta(after, before) == {"calls": {"a": 3, "b": 1},
                                          "self_s": {"a": 0.5, "b": 0.25},
                                          "counters": {"grids.nodes": 81}}


def test_installed_wraps_from_imports_and_restores():
    originals = (grids.christoffel, spinors.christoffel, spinors.partials,
                 models.mobius_differential, models.Model.period_matrix, cli.run)
    tracer = spans.Tracer()
    with spans.installed(tracer, spans.targets()):
        assert spinors.christoffel is grids.christoffel
        assert spinors.christoffel is not originals[0]
        assert models.mobius_differential is symplectic.mobius_differential
        code, _ = cli.run(["stabilizer", "--model", "identity-tau"])
    assert code == 0
    assert tracer.calls["cli"] == 1
    assert tracer.calls["duality.stab_sp_algebra"] == 1
    assert tracer.calls["symplectic.infinitesimal_fractional_action"] > 0
    assert (grids.christoffel, spinors.christoffel, spinors.partials,
            models.mobius_differential, models.Model.period_matrix, cli.run) == originals


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    snapshot = {"calls": {}, "self_s": {}, "counters": {}}
    for m in spec["per_layer"]:
        run.per_layer(m["name"], [snapshot], 0.0)
    names = {t[0] for t in spans.targets()}
    for m in spec["per_layer"]:
        base = m["name"].rpartition(".")[0]
        assert base in names or m["name"] in ("cli.reports", "grids.nodes",
                                              "trace.overhead_s"), m["name"]


# ------------------------------------------------------------------- inputs

@pytest.mark.parametrize("name", ["transport", "spinors", "algebra"])
def test_same_seed_same_inputs(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        w = workloads.build(name, seed, str(d))
        return ([op.argv for op in w.ops],
                {p.name: p.read_text() for p in sorted(d.iterdir())})

    argv_a, files_a = files(3, "a")
    argv_b, files_b = files(3, "b")
    _, files_c = files(4, "c")

    def strip(argv, sub):
        return [[s.replace(str(tmp_path / sub), "") for s in a] for a in argv]

    assert strip(argv_a, "a") == strip(argv_b, "b") and files_a == files_b
    if name != "spinors":
        assert files_a != files_c


def test_failing_ads_check_does_not_depend_on_the_seed(tmp_path):
    argv = [[op.argv for op in workloads.build("spinors", s, str(tmp_path)).ops
             if op.key == "spinor-check ads4"] for s in (1, 2, 3)]
    assert argv[0] == argv[1] == argv[2]


@pytest.mark.parametrize("model", workloads.ALGEBRA_MODELS)
def test_pairs_are_duality_pairs(model):
    m = models.builtin(model)
    f, a = workloads._pair(model, np.random.default_rng(5))
    assert symplectic.sp_check(a, 1e-12)[0]
    assert duality.check_uduality_pair(models.parse_isometry(f, m.chart), a, m) < 1e-13
