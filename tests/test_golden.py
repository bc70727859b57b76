"""Golden reports: every case of ``tests/golden/cases.txt`` gives the report
stored in ``tests/golden/reports``.

These are the program's own earlier outputs, so they catch drift, not
errors; what is right is decided by the oracles of the other tests.  Rows
are compared one by one by ``regenerate.row_problem``, whose rules that
module's docstring states.  Each case runs with numpy's ``RuntimeWarning``
as an error, so bad input gives its report and exit code, not a warning on
the way.
"""

import argparse
import itertools
import sys
from pathlib import Path

import pytest

from emduality.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from regenerate import (REPORTS, ROUNDOFF, ZERO_ROWS, cases, input_scale,  # noqa: E402
                        kept_rows, named, row_problem, rows, run_case)

CASES = cases()


def test_zero_row_patterns_take_brackets_literally():
    assert named("lift[d_x] residual", ZERO_ROWS)
    assert named("generator[0] sp_violation", ZERO_ROWS)
    assert named("t_discrepancy", ZERO_ROWS)
    assert not named("lift* residual", ZERO_ROWS)
    assert not named("dim_u", ZERO_ROWS)


def test_regeneration_keeps_the_rows_it_accepts():
    old = ("exit = 1\n"
           "einstein_max_before = 0.125\n"
           "check scalar_discrepancy = 5.20417042793e-18 tol 1e-09 pass\n"
           "check maxwell_discrepancy = 0.5 tol 1e-09 FAIL\n"
           "check pair_residual = 0 tol 1e-10 pass\n")
    new = ("exit = 1\n"
           "einstein_max_before = 0.12500000000001\n"
           "check scalar_discrepancy = 3.46944695195e-18 tol 1e-09 pass\n"
           "check maxwell_discrepancy = 0.25 tol 1e-09 FAIL\n"
           "check pair_residual = 0 tol 1e-08 pass\n"
           "einstein_max_after = 0.5\n")
    assert kept_rows(old, new, 1e-12).splitlines() == [
        "exit = 1",
        "einstein_max_before = 0.125",                                  # kept: within 1e-10
        "check scalar_discrepancy = 5.20417042793e-18 tol 1e-09 pass",  # kept: roundoff
        "check maxwell_discrepancy = 0.25 tol 1e-09 FAIL",              # replaced: moved
        "check pair_residual = 0 tol 1e-08 pass",                       # replaced: new tol
        "einstein_max_after = 0.5"]                                     # added
    assert kept_rows("", new, 1e-12) == new
    assert kept_rows(new, "exit = 2\n", 1e-12) == "exit = 2\n"


def test_every_option_is_set_by_a_case():
    """Every option of the command-line parser is given on some line of
    ``cases.txt`` (the k-th positional by a case with at least k leading
    values), so an option that nothing sets cannot come back unnoticed."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unset = []
    for command, parser in sub.choices.items():
        given = [argv[1:] for argv in CASES.values() if argv[0] == command]
        positional = 0
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                ok = any(set(action.option_strings) & set(argv) for argv in given)
            else:
                positional += 1
                ok = any(len(list(itertools.takewhile(lambda t: not t.startswith("-"), argv)))
                         >= positional for argv in given)
            if not ok:
                unset.append(f"{command} {'/'.join(action.option_strings) or action.dest}")
    assert not unset, f"options no case sets: {unset}"


def test_reports_match_cases():
    assert sorted(p.stem for p in REPORTS.glob("*.txt")) == sorted(CASES)


@pytest.mark.filterwarnings("error::RuntimeWarning")   # a report, never a numpy warning
@pytest.mark.parametrize("name", list(CASES))
def test_golden_report(name):
    argv = CASES[name]
    want = (REPORTS / f"{name}.txt").read_text(encoding="utf-8")
    got = run_case(argv)
    want_rows, got_rows = rows(want), rows(got)
    assert [(n, r) for n, _, r in got_rows] == [(n, r) for n, _, r in want_rows], got
    bound = ROUNDOFF * input_scale(argv)
    problems = [p for (n, w, _), (_, g, _) in zip(want_rows, got_rows)
                if (p := row_problem(n, w, g, bound))]
    assert not problems, "\n".join(problems)
