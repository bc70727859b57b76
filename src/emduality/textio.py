"""The plain-text input formats' two building blocks: ``key = value`` lines
with ``#`` comments, and lists of numbers.  Each reader raises the input
error type its caller passes, so every malformed file is reported as bad
input."""

from __future__ import annotations

import math


def key_values(text: str, error: type[Exception]) -> list[tuple[int, str, str]]:
    """(line number, lower-case key, value) of each non-blank line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, sep, val = line.partition("=")
            if not sep:
                raise error(f"cannot parse line {lineno}: {raw!r}")
            out.append((lineno, key.strip().lower(), val.strip()))
    return out


def numbers(text: str, error: type[Exception], where: str | None, kind=float) -> list:
    """The whitespace-separated numbers of text: finite floats, or ints.

    The error names where, the option, key or file that text came from (None
    when the caller names it, as argparse does), and the first bad token."""
    source = f" in {where}" if where else ""
    vals = []
    for token in text.split():
        try:
            vals.append(kind(token))
        except ValueError:
            raise error(f"malformed number{source}: {token!r}") from None
        if kind is float and not math.isfinite(vals[-1]):
            raise error(f"non-finite number{source}: {token!r}")
    return vals
