"""Golden CLI reports: the cases of ``cases.txt`` and the reports they give.

Each case is a command line run by ``emduality.cli.run`` from this directory
(so the file names in the reports are the short relative ones).  Its report
is stored in ``reports/<name>.txt`` after an ``exit = <code>`` line.
``tests/test_golden.py`` compares the program's reports with these files.

Regenerate after a deliberate report change, and list the rows that moved:

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

With case names only those reports are rewritten, with none every report.
A stored row is kept wherever ``row_problem``, the golden test's comparison,
accepts the new value, so roundoff rows whose digits depend on what ran
earlier in the process stay as they are.  Each row whose text moved is
printed as ``case: old -> new``.

Rows are compared one by one:
  * the exit code, row names, text values, digests, tolerances and pass/FAIL
    exactly;
  * numbers to 1e-10 relative to the largest magnitude in their row;
  * rows named in ``ZERO_ROWS`` whose stored value is at roundoff level only
    against the roundoff bound: exactly 0 in exact arithmetic, their digits
    are noise.
"""

from __future__ import annotations

import os
import re
import shlex
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"
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


def cases() -> dict[str, list[str]]:
    """name -> argv, in file order."""
    out = {}
    for raw in (HERE / "cases.txt").read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, _, command = line.partition(":")
            out[name.strip()] = shlex.split(command)
    return out


@contextmanager
def _golden_env():
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        yield
    finally:
        os.chdir(cwd)


def run_case(argv: list[str]) -> str:
    """The exit line and report of one case, as stored in reports/."""
    from emduality.cli import run

    with _golden_env():
        code, text = run(argv)
    return f"exit = {code}\n{text}"


def moved_rows(old: str, new: str) -> list[str]:
    """``old -> new`` for each line that differs, paired in order; a missing
    line reads as ``(none)``."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    width = max(len(old_lines), len(new_lines))
    old_lines += ["(none)"] * (width - len(old_lines))
    new_lines += ["(none)"] * (width - len(new_lines))
    return [f"{a} -> {b}" for a, b in zip(old_lines, new_lines) if a != b]


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
        path = HERE / value
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


def kept_rows(old: str, new: str, bound: float) -> str:
    """new, with each stored line of old kept where the line in its place has
    the same name and tolerance and ``row_problem`` accepts its value."""
    old_lines, out = old.splitlines(), new.splitlines()
    for k, ((name, want, rest), (got_name, got, got_rest)) in enumerate(zip(rows(old), rows(new))):
        if (name, rest) == (got_name, got_rest) and not row_problem(name, want, got, bound):
            out[k] = old_lines[k]
    return "\n".join(out) + "\n"


def main(names: list[str]) -> None:
    known = cases()
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    REPORTS.mkdir(exist_ok=True)
    for name in names or known:
        path = REPORTS / f"{name}.txt"
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        new = kept_rows(old, run_case(known[name]), ROUNDOFF * input_scale(known[name]))
        for row in moved_rows(old, new):
            print(f"{name}: {row}")
        path.write_text(new, encoding="utf-8")
    print(f"wrote {len(names or known)} reports to {REPORTS}")


if __name__ == "__main__":
    main(sys.argv[1:])
