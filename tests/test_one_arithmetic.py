"""One expression arithmetic.  The parser folds constant subtrees through
``expressions.evaluate``, and ``evaluate`` and ``derivative`` are the two
halves of one walk, ``expressions.walk``, so the operators, the integer powers
and the pole rule are written once: ``POLE_EPS`` is read only by
``_guard_pole``, and ``_guard_pole`` only by ``walk``.

Two oracles are kept below.  The constructors that folded by their own
arithmetic: the trees they built are the trees the parser builds, digit for
digit, except that a constant which is not finite is now a syntax error.  And
the separate ``evaluate`` and ``derivative`` walks that ``walk`` replaced,
with the period matrices and partials built from them: N and its partials
keep their bytes on every model, the pole cases raise the same exception
type, and ``derivative`` of a negative power now names the power k itself
in its pole message (the old walk named k - 1)."""

import cmath
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_one_block_path import loads

from emduality import expressions as ex
from emduality import models as md
from emduality import symplectic as sp
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


def test_pole_rule_read_only_by_the_walk():
    assert loads({"POLE_EPS", "_guard_pole"}) == {
        ("POLE_EPS", "expressions", "_guard_pole"),
        ("_guard_pole", "expressions", "walk")}


# ------------------------------------------------ the two walks, as oracle

def oracle_guard(v, what):
    if np.any(np.abs(v) < ex.POLE_EPS):
        raise ex.ExprPoleError(what)


def oracle_evaluate(e, env):
    if isinstance(e, ex.Num):
        return e.value
    if isinstance(e, ex.Sym):
        return env[e.name]
    if isinstance(e, ex.Neg):
        return -oracle_evaluate(e.arg, env)
    if isinstance(e, ex.Pow):
        b = oracle_evaluate(e.base, env)
        if e.exponent < 0:
            oracle_guard(b, f"base ~ 0 raised to power {e.exponent}")
        return b ** e.exponent
    left = oracle_evaluate(e.left, env)
    right = oracle_evaluate(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    oracle_guard(right, "division by ~ 0")
    return left / right


def oracle_derivative(e, env, denv):
    if isinstance(e, ex.Num):
        return 0j
    if isinstance(e, ex.Sym):
        return denv.get(e.name, 0j)
    if isinstance(e, ex.Neg):
        return -oracle_derivative(e.arg, env, denv)
    if isinstance(e, ex.Pow):
        if e.exponent == 0:
            return 0j
        b = oracle_evaluate(e.base, env)
        if e.exponent < 1:
            oracle_guard(b, f"base ~ 0 raised to power {e.exponent - 1}")
        return e.exponent * b ** (e.exponent - 1) * oracle_derivative(e.base, env, denv)
    left, right = e.left, e.right
    if e.op == "+":
        return oracle_derivative(left, env, denv) + oracle_derivative(right, env, denv)
    if e.op == "-":
        return oracle_derivative(left, env, denv) - oracle_derivative(right, env, denv)
    lv, rv = oracle_evaluate(left, env), oracle_evaluate(right, env)
    ld, rd = oracle_derivative(left, env, denv), oracle_derivative(right, env, denv)
    if e.op == "*":
        return ld * rv + lv * rd
    oracle_guard(rv, "division by ~ 0")
    return (ld * rv - lv * rd) / (rv * rv)


def outcome(fn):
    """Type, shape and bytes of each value fn returns, or the type of the
    exception it raises."""
    try:
        with np.errstate(all="ignore"):
            values = fn()
    except ArithmeticError as err:   # the pole error, or overflow of a Python complex
        return type(err)
    return [None if v is None else (type(v), np.shape(v), np.asarray(v).tobytes())
            for v in values]


ENVS = {   # a stack of points (5, 1) with two directions, and one point as Python complex
    "stack": ({"tau": np.array([[0.3 + 0.9j], [1j], [-0.7 + 0.2j], [1e-14j], [2 + 1e-13j]]),
               "x1": np.array([[0.5], [0.0], [-1.5], [1e-14], [3.0]]) + 0j},
              {"tau": np.array([1.0, 1j]), "ctau": np.array([1.0, -1j]),
               "x1": np.array([1.0, 0.0]) + 0j}),
    "point": ({"tau": 0.3 + 0.9j, "x1": -0.25 + 0j}, {"tau": 0.6 - 0.8j, "x1": 1 + 0j}),
}


@settings(max_examples=300, deadline=None)
@given(_trees, st.sampled_from(sorted(ENVS)))
def test_one_walk_matches_the_two_walks_bytewise(tree, where):
    env, denv = ENVS[where]
    env = dict(env, ctau=np.conj(env["tau"]))
    both = outcome(lambda: (oracle_evaluate(tree, env), oracle_derivative(tree, env, denv)))
    assert outcome(lambda: ex.walk(tree, env, denv)) == both
    assert outcome(lambda: (ex.evaluate(tree, env), ex.derivative(tree, env, denv))) == both
    value = outcome(lambda: (oracle_evaluate(tree, env),))
    assert outcome(lambda: (ex.evaluate(tree, env),)) == value
    assert outcome(lambda: ex.walk(tree, env)) == (value if isinstance(value, type)
                                                   else value + [None])


def test_derivative_pole_names_the_power():
    e = ex.parse("(tau - tau)^(-2)")
    env, denv = {"tau": 1j}, {"tau": 1 + 0j}
    with pytest.raises(ex.ExprPoleError, match=r"power -3$"):
        oracle_derivative(e, env, denv)
    with pytest.raises(ex.ExprPoleError, match=r"power -2$"):
        ex.derivative(e, env, denv)


@np.errstate(over="ignore", invalid="ignore")   # overflow.model overflows, silently as in the package
def oracle_matrices(model, value, shape):
    out = np.zeros(shape + (model.n_v, model.n_v), dtype=complex)
    for (i, j), e in model.entries.items():
        out[..., i, j] = out[..., j, i] = value(e)
    return out


def oracle_period_matrix(model, p):
    env = model.chart.env(p)
    return oracle_matrices(model, lambda e: oracle_evaluate(e, env), p.shape[:-1])


def oracle_period_directional(model, p, v):
    env, denv = model.chart.env(p), model.chart.env(v)
    shape = np.broadcast_shapes(p.shape[:-1], v.shape[:-1])
    return oracle_matrices(model, lambda e: oracle_derivative(e, env, denv), shape)


def oracle_mobius_differential(a, tau, h):
    """The general formula (d - (A.tau) b) h (a + b tau)^-1, which holds for
    any A; the kernel's congruence meets it to roundoff for A in Sp(2n, R)."""
    ab, bb, cb, db = sp.blocks(a)
    deninv = np.linalg.inv(ab + bb @ tau)
    return (db - (cb + db @ tau) @ deninv @ bb) @ h @ deninv


@np.errstate(over="ignore", invalid="ignore")   # overflow.model overflows, silently as in the package
def oracle_couplings(model, p):
    """N at the points p (npts, dim), symmetrised, and its partials along the
    chart axes, as the two separate evaluations built them: the raw matrices
    at p, then the derivative at p[:, None] along the unit vectors (for a
    transformed model, the base at f^-1 of each, the fractional action and
    the differential at the base matrices of the second evaluation)."""
    axes, units = p[:, None, :], np.eye(p.shape[-1])
    if isinstance(model, md.TransformedModel):
        tau = sp.fractional_action(model.a, oracle_period_matrix(model.base, model.f_inv.apply(p)))
        q = model.f_inv.apply(axes)
        w = np.einsum("...ij,...j->...i", model.f_inv.jacobian(axes), units)
        dtau = oracle_mobius_differential(model.a, oracle_period_matrix(model.base, q),
                                          oracle_period_directional(model.base, q, w))
    else:
        tau = oracle_period_matrix(model, p)
        dtau = oracle_period_directional(model, axes, units)
    return (tau + np.swapaxes(tau, -1, -2)) / 2, dtau


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def roundoff_close(a, b) -> bool:
    """Same shape and type, and equal to 1e-13 of the stack's largest |entry|."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)))


def coupling_models() -> list:
    models = [md.builtin(name) for name in md.BUILTIN_NAMES + ("constant-i:3",)]
    for path in sorted(GOLDEN.glob("*.model")):
        try:
            models.append(md.load_model(str(path)))
        except InputError:
            continue
    a = sp.random_sp(2, np.random.default_rng(8), scale=0.3)
    t3 = md.builtin("t3")
    for spec in ("id", "translate:0.4", "scale:1.3", "mobius:1,0.3,-0.2,1"):
        models.append(md.TransformedModel(t3, md.parse_isometry(spec, t3.chart), a))
    flat = md.parse_model("nv=2\nchart=flat\ndim=2\nN[1,1] = i*(2 + x1^2)\n"
                          "N[1,2] = x1*x2/(3 + x2^2)\nN[2,2] = 2*i + x2^-2*i")
    a = sp.random_sp(2, np.random.default_rng(9), scale=0.3)
    c, s = np.cos(0.7), np.sin(0.7)
    return models + [flat] + [md.TransformedModel(flat, f, a) for f in (
        md.parse_isometry("translate:0.25,-0.5", flat.chart),
        md.FlatIsometry(np.array([[c, -s], [s, c]]), np.array([0.1, -0.2])))]


@pytest.mark.parametrize("model", coupling_models(), ids=lambda m: m.name)
def test_couplings_keep_their_bytes(model):
    """N keeps its bytes on every model, and so does dN on an untransformed
    one; a transformed dN is the symplectic congruence, which meets the general
    formula to roundoff."""
    p = model.chart.sample_points(12)
    transformed = isinstance(model, md.TransformedModel)
    same_partials = roundoff_close if transformed else same_bytes
    if not transformed:
        assert same_bytes(model.period_matrix(p), oracle_period_matrix(model, p))
        v = np.random.default_rng(1).standard_normal(p.shape)
        n, d = model.period_directional(p, v)
        assert same_bytes(n, oracle_period_matrix(model, p))
        assert same_bytes(d, oracle_period_directional(model, p, v))
    try:
        tau, dtau = oracle_couplings(model, p)
        expect = md._siegel_checked(model, p, tau), dtau
    except InputError as err:
        with pytest.raises(type(err)):
            md.checked_partials(model, p)
        return
    got = md.checked_partials(model, p)
    assert same_bytes(got[0], expect[0]) and same_partials(got[1], expect[1])
    # a configuration evaluates the same points as a grid-shaped stack
    got = md.checked_partials(model, p.reshape(3, 2, 2, -1))
    assert same_bytes(got[0].reshape(expect[0].shape), expect[0])
    assert same_partials(got[1].reshape(expect[1].shape), expect[1])
