"""Parser for the structured-text reports that ``emduality.cli.run`` returns.

A report is a block of lines:

    schema = emduality-report/1
    command = transport
    key = value                                   (metadata rows)
    check name = value tol t pass|FAIL            (check rows)
    result = pass|FAIL

Keys and check names may contain spaces (``refine[1] einstein_max``), so a
metadata row splits at its first `` = `` and a check row is matched whole.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_CHECK = re.compile(r"^check (.+?) = (\S+) tol (\S+) (pass|FAIL)$")


class ReportFormatError(ValueError):
    pass


@dataclass
class Check:
    value: str
    tol: str
    passed: bool


@dataclass
class Report:
    meta: dict[str, str] = field(default_factory=dict)
    checks: dict[str, Check] = field(default_factory=dict)
    result: str = ""

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def number(self, name: str) -> float:
        """Value of a check row, or else of a metadata row, as a float."""
        if name in self.checks:
            return float(self.checks[name].value)
        if name in self.meta:
            return float(self.meta[name])
        raise KeyError(f"report has no row {name!r}")

    def numbers(self, name: str) -> list[float]:
        """Whitespace-separated floats of a metadata row."""
        return [float(s) for s in self.meta[name].split()]


def parse(text: str) -> Report:
    rep = Report()
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _CHECK.match(line)
        if m:
            name, value, tol, status = m.groups()
            rep.checks[name] = Check(value, tol, status == "pass")
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ReportFormatError(f"cannot parse report line {line!r}")
        if key == "result":
            rep.result = value
        else:
            rep.meta[key] = value
    if rep.result not in ("pass", "FAIL"):
        raise ReportFormatError("report has no result row")
    return rep
