"""Golden reports: every case of ``tests/golden/cases.txt`` gives the report
stored in ``tests/golden/reports``.

These are the program's own earlier outputs, so they catch drift, not
errors; what is right is decided by the oracles of the other tests.  Rows
are compared one by one:
  * the exit code, row names, text values, digests, tolerances and pass/FAIL
    exactly;
  * numbers to 1e-10 relative to the largest magnitude in their row;
  * rows named in ``ZERO_ROWS`` whose stored value is at roundoff level only
    against the roundoff bound: exactly 0 in exact arithmetic, their digits
    are noise.
Each case runs with numpy's ``RuntimeWarning`` as an error, so bad input
gives its report and exit code, not a warning on the way.
"""

import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from regenerate import REPORTS, cases, run_case  # noqa: E402

CASES = cases()
REL = 1e-10
# roundoff bound for the ZERO_ROWS, times the largest input matrix entry
ROUNDOFF = 1e-12
ZERO_ROWS = ("selfdual_violation", "scalar_assembly_gap", "*_discrepancy",
             "u_norm_violation", "l_norm_violation", "orthogonality_violation",
             "parallel_residual", "path_defect", "residual", "lift_residual",
             "lift[*] residual", "pair_residual", "A_symplectic_violation",
             "generator[*] sp_violation", "relation[*] violation")
EXACT_ROWS = ("input_digest",)
MATRIX_OPTIONS = ("--A", "--bundle", "--taming")
CHECK = re.compile(r"check (.+) = (.*) tol (\S+) (pass|FAIL)")


def named(name: str, patterns: tuple[str, ...]) -> bool:
    """Whether a row name matches one of the patterns, where ``*`` is the
    only wildcard: brackets in ``lift[*] residual`` are literal, as in the
    row names."""
    return any(re.fullmatch(".*".join(map(re.escape, pat.split("*"))), name)
               for pat in patterns)


def input_scale(argv: list[str]) -> float:
    """Largest entry of the case's matrix and bundle files, at least 1."""
    scale = 1.0
    for opt, value in zip(argv, argv[1:]):
        path = GOLDEN / value
        if opt in MATRIX_OPTIONS and path.is_file():
            for line in path.read_text(encoding="utf-8").splitlines():
                for tok in re.split(r"[\s=,]+", line.split("#", 1)[0]):
                    try:
                        scale = max(scale, abs(float(tok)))
                    except ValueError:
                        pass
    return scale


def rows(text: str) -> list[tuple[str, str, str]]:
    """(name, value, rest) per line: rest is 'tol status' for check rows."""
    out = []
    for line in text.splitlines():
        m = CHECK.fullmatch(line)
        if m:
            out.append((m[1], m[2], f"{m[3]} {m[4]}"))
        else:
            name, _, value = line.partition(" = ")
            out.append((name, value, ""))
    return out


def _floats(value: str) -> list[float] | None:
    try:
        return [float(tok) for tok in value.split()] or None
    except ValueError:
        return None


def row_problem(name: str, want: str, got: str, bound: float) -> str | None:
    w, g = (None, None) if name in EXACT_ROWS else (_floats(want), _floats(got))
    if w is None or g is None or len(w) != len(g):
        return None if want == got else f"{name}: {got!r}, expected {want!r}"
    if len(w) == 1 and named(name, ZERO_ROWS) and abs(w[0]) <= bound:
        return None if abs(g[0]) <= bound else f"{name} = {g[0]:.3e} exceeds roundoff {bound:.1e}"
    top = max(max(abs(v) for v in w), max(abs(v) for v in g))
    if all(abs(a - b) <= REL * top for a, b in zip(w, g)):
        return None
    return f"{name}: {got!r}, expected {want!r}"


def test_zero_row_patterns_take_brackets_literally():
    assert named("lift[d_x] residual", ZERO_ROWS)
    assert named("generator[0] sp_violation", ZERO_ROWS)
    assert named("t_discrepancy", ZERO_ROWS)
    assert not named("lift* residual", ZERO_ROWS)
    assert not named("dim_u", ZERO_ROWS)


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
