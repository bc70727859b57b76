"""One expression arithmetic.  The parser folds constant subtrees through
``expressions.evaluate``, so the operators, the integer powers and the pole
rule are written once: ``POLE_EPS`` is read only by ``_guard_pole``, and
``_guard_pole`` only by ``evaluate`` and ``derivative``.  The constructors
that folded by their own arithmetic are kept below as the oracle: the trees
they built are the trees the parser builds, digit for digit, except that a
constant which is not finite is now a syntax error."""

import cmath
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_one_block_path import loads

from emduality import expressions as ex
from emduality import models as md
from emduality.errors import InputError

GOLDEN = Path(__file__).resolve().parent / "golden"


def oracle_neg(arg):
    if isinstance(arg, ex.Num):
        return ex.Num(-arg.value)
    return ex.Neg(arg)


def oracle_pow(base, exponent):
    if isinstance(base, ex.Num):
        if exponent >= 0 or abs(base.value) >= ex.POLE_EPS:
            return ex.Num(base.value ** exponent)
    return ex.Pow(base, exponent)


def oracle_binop(op, left, right):
    if isinstance(left, ex.Num) and isinstance(right, ex.Num):
        if op == "+":
            return ex.Num(left.value + right.value)
        if op == "-":
            return ex.Num(left.value - right.value)
        if op == "*":
            return ex.Num(left.value * right.value)
        if abs(right.value) >= ex.POLE_EPS:
            return ex.Num(left.value / right.value)
    return ex.BinOp(op, left, right)


@contextmanager
def oracle_parser():
    """The parser on the oracle constructors."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "make_neg", oracle_neg)
        mp.setattr(ex, "make_pow", oracle_pow)
        mp.setattr(ex, "make_binop", oracle_binop)
        yield


def finite(e) -> bool:
    if isinstance(e, ex.Num):
        return cmath.isfinite(e.value)
    if isinstance(e, ex.Sym):
        return True
    if isinstance(e, ex.Neg):
        return finite(e.arg)
    if isinstance(e, ex.Pow):
        return finite(e.base)
    return finite(e.left) and finite(e.right)


def parsed(text: str) -> str | None:
    """repr of the parsed tree of text, or None when a constant of it is not
    finite."""
    try:
        tree = ex.parse(text, {"tau", "x1"})
    except ex.ExprSyntaxError as err:
        assert "not finite" in str(err)
        return None
    return repr(tree) if finite(tree) else None


def model_trees(text: str) -> str:
    try:
        return repr(md.parse_model(text).entries)
    except InputError as err:
        return f"{type(err).__name__}: {err}"


MODEL_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.model"))]
MODEL_TEXTS += [md.print_model(md.builtin(name)) for name in md.BUILTIN_NAMES]


def all_trees() -> list:
    return ([model_trees(text) for text in MODEL_TEXTS]
            + [repr(md.builtin(name).entries) for name in md.BUILTIN_NAMES])


def test_golden_and_builtin_models_parse_to_the_oracle_trees():
    assert len(MODEL_TEXTS) >= 8
    new = all_trees()
    with oracle_parser():
        assert all_trees() == new


# leaves near and at the poles, and exponents down to -3 and through 0
_leaf = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.5, 3, 1e-14, -1e-14, 1e-13, 1j, 2 - 1j, 1e-14j]).map(
        lambda v: ex.Num(complex(v))),
    st.floats(-9, 9, allow_nan=False).map(lambda v: ex.Num(complex(round(v, 3)))),
    st.sampled_from(["tau", "ctau", "x1"]).map(ex.Sym),
)
_trees = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        sub.map(ex.Neg),
        st.tuples(sub, st.integers(-3, 3)).map(lambda t: ex.Pow(*t)),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: ex.BinOp(*t)),
    ),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_random_expressions_parse_to_the_oracle_trees(tree):
    text = ex.to_text(tree)
    new = parsed(text)
    with oracle_parser():
        assert parsed(text) == new


@pytest.mark.parametrize("text", ["1/0", "0^-1", "(1 - 1)^(-2)", "2/1e-14", "1e-14^-1",
                                  "2*(1 - 1)/(1 - 1)", "0^0", "tau/0", "(3*i)^-3"])
def test_poles_stay_unfolded_and_the_rest_folds_as_the_oracle(text):
    new = parsed(text)
    with oracle_parser():
        assert parsed(text) == new


def test_pole_rule_read_only_by_evaluate_and_derivative():
    assert loads({"POLE_EPS", "_guard_pole"}) == {
        ("POLE_EPS", "expressions", "_guard_pole"),
        ("_guard_pole", "expressions", "evaluate"),
        ("_guard_pole", "expressions", "derivative")}
