"""The plain-text input formats' two building blocks: ``key = value`` lines
with ``#`` comments, and lists of numbers.  Each reader raises the input
error type its caller passes, so every malformed file is reported as bad
input."""

from __future__ import annotations

import numpy as np


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


def numbers(text: str, error: type[Exception], kind=float) -> list:
    """The whitespace-separated numbers of text: finite floats, or ints."""
    try:
        vals = [kind(s) for s in text.split()]
    except ValueError:
        raise error(f"malformed number in {text!r}") from None
    if kind is float and not np.all(np.isfinite(vals)):
        raise error(f"non-finite number in {text!r}")
    return vals
