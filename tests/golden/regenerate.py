"""Golden CLI reports: the cases of ``cases.txt`` and the reports they give.

Each case is a command line run by ``emduality.cli.run`` from this directory
(so the file names in the reports are the short relative ones).  Its report
is stored in ``reports/<name>.txt`` after an ``exit = <code>`` line.
``tests/test_golden.py`` compares the program's reports with these files.

Regenerate after a deliberate report change, and list the rows that moved:

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

With case names only those reports are rewritten, with none every report.
Each row whose text moved is printed as ``case: old -> new``.
"""

from __future__ import annotations

import os
import shlex
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"


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


def main(names: list[str]) -> None:
    known = cases()
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    REPORTS.mkdir(exist_ok=True)
    for name in names or known:
        path = REPORTS / f"{name}.txt"
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        new = run_case(known[name])
        for row in moved_rows(old, new):
            print(f"{name}: {row}")
        path.write_text(new, encoding="utf-8")
    print(f"wrote {len(names or known)} reports to {REPORTS}")


if __name__ == "__main__":
    main(sys.argv[1:])
