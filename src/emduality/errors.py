"""The library's error root.  Every error class of ``emduality`` derives from
``EmdualityError`` and keeps its builtin base (``ValueError``,
``ArithmeticError`` or ``RuntimeError``), so callers may catch either.

The command line maps them to exit codes: ``UsageError`` (a bad
command-line value) to 2, ``InputError`` (malformed or out-of-domain input
data) to 3, and any other library error, such as an unstable sample count,
to 1: a failed check.
"""


class EmdualityError(Exception):
    pass


class InputError(EmdualityError):
    """Malformed or out-of-domain input data."""


class UsageError(EmdualityError):
    """A bad command-line value."""
