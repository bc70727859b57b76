"""The plain-text input formats' two building blocks: ``key = value`` lines
with ``#`` comments, checked against the keys each format knows, and lists of
numbers.  Each reader raises the input error type its caller passes, so every
malformed file is reported as bad input."""

from __future__ import annotations

import math


# The keys a file may give more than once; every other key appears once.
REPEATING = frozenset({"metric_coeff", "field_term", "generator", "relation"})


def key_values(text: str, error: type[Exception], keys: set[str]) -> list[tuple[int, str, str]]:
    """(line number, lower-case key, value) of each non-blank line.  Each key
    must be one of keys; an indexed key ``k[...]`` is known when ``k[`` is,
    and its format checks the index.  Only the keys of REPEATING may repeat."""
    out, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, sep, val = line.partition("=")
            if not sep:
                raise error(f"cannot parse line {lineno}: {raw!r}")
            key = key.strip().lower()
            name, bracket, _ = key.partition("[")
            if name.strip() + bracket not in keys:
                raise error(f"unknown key {key!r} on line {lineno}")
            if key in seen and key not in REPEATING:
                raise error(f"repeated key {key!r} on line {lineno}")
            seen.add(key)
            out.append((lineno, key, val.strip()))
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
