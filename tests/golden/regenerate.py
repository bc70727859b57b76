"""Golden CLI reports: the cases of ``cases.txt`` and the reports they give.

Each case is a command line run by ``emduality.cli.run`` from this directory
(so the file names in the reports are the short relative ones) with
``EMDUALITY_SEED`` unset.  Its report is stored in ``reports/<name>.txt``
after an ``exit = <code>`` line.  ``tests/test_golden.py`` compares the
program's reports with these files.

Regenerate after a deliberate report change, and list the rows that moved:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import os
import shlex
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
    cwd, seed = os.getcwd(), os.environ.pop("EMDUALITY_SEED", None)
    os.chdir(HERE)
    try:
        yield
    finally:
        os.chdir(cwd)
        if seed is not None:
            os.environ["EMDUALITY_SEED"] = seed


def run_case(argv: list[str]) -> str:
    """The exit line and report of one case, as stored in reports/."""
    from emduality.cli import run

    with _golden_env():
        code, text = run(argv)
    return f"exit = {code}\n{text}"


def main() -> None:
    REPORTS.mkdir(exist_ok=True)
    for name, argv in cases().items():
        (REPORTS / f"{name}.txt").write_text(run_case(argv), encoding="utf-8")
    print(f"wrote {len(cases())} reports to {REPORTS}")


if __name__ == "__main__":
    main()
