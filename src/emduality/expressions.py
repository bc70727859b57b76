"""Tiny expression language for matrix entries of period maps.

Supports complex literals (via the imaginary unit ``i``), the chart symbols
``tau`` and ``conj(tau)`` on upper-half-plane charts, real coordinates
``x1..xk`` on flat charts, the four arithmetic operators, unary minus,
parentheses and integer powers (``^`` or ``**``).  Expressions evaluate to
complex numbers and carry exact directional derivatives.  Symbol values may
be complex scalars or broadcastable complex arrays (a stack of points); the
result then has the broadcast shape.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .symplectic import PoleError as ExprPoleError

POLE_EPS = 1e-13


class ExprSyntaxError(ValueError, InputError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownSymbolError(ExprSyntaxError):
    pass


def _guard_pole(v, what: str):
    """Raise the pole error when any value of v is (near) zero."""
    if np.any(np.abs(v) < POLE_EPS):
        raise ExprPoleError(what)


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Num | Sym | Neg | BinOp | Pow


Value = complex | np.ndarray


def walk(e: Expr, env: dict[str, Value], denv: dict[str, Value] | None = None
         ) -> tuple[Value, Value | None]:
    """(value, directional derivative) of e from one walk of the tree: each
    operator, the integer power and the pole rule are written here once.  denv
    gives the derivative of each symbol; with no denv no derivative is formed
    and the second item is None."""
    if isinstance(e, Num):
        return e.value, None if denv is None else 0j
    if isinstance(e, Sym):
        return env[e.name], None if denv is None else denv.get(e.name, 0j)
    if isinstance(e, Neg):
        v, d = walk(e.arg, env, denv)
        return -v, None if denv is None else -d
    if isinstance(e, Pow):
        (b, db), k = walk(e.base, env, denv), e.exponent
        if k < 0:
            _guard_pole(b, f"base ~ 0 raised to power {k}")
        return b ** k, None if denv is None else (0j if k == 0 else k * b ** (k - 1) * db)
    (l, ld), (r, rd) = walk(e.left, env, denv), walk(e.right, env, denv)
    if e.op == "+":
        return l + r, None if denv is None else ld + rd
    if e.op == "-":
        return l - r, None if denv is None else ld - rd
    if e.op == "*":
        return l * r, None if denv is None else ld * r + l * rd
    _guard_pole(r, "division by ~ 0")
    return l / r, None if denv is None else (ld * r - l * rd) / (r * r)


def evaluate(e: Expr, env: dict[str, Value]) -> Value:
    """The value of ``walk``."""
    return walk(e, env)[0]


def derivative(e: Expr, env: dict[str, Value], denv: dict[str, Value]) -> Value:
    """The directional derivative of ``walk``; denv gives the derivative of
    each symbol."""
    return walk(e, env, denv)[1]


# ---------------------------------------------------------------- printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _print(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        v = e.value
        if v.imag == 0:
            s = _fmt_real(v.real)
            return (s, _PREC["atom"] if v.real >= 0 else _PREC["neg"])
        if v.real == 0:
            if v.imag == 1:
                return ("i", _PREC["atom"])
            return (f"{_fmt_real(v.imag)}*i", _PREC["*"])
        re, im = _fmt_real(v.real), _fmt_real(v.imag)
        return (f"({re} + {im}*i)" if v.imag >= 0 else f"({re} - {_fmt_real(-v.imag)}*i)",
                _PREC["atom"])
    if isinstance(e, Sym):
        return ("conj(tau)" if e.name == "ctau" else e.name, _PREC["atom"])
    if isinstance(e, Neg):
        s, p = _print(e.arg)
        if p < _PREC["neg"]:
            s = f"({s})"
        return (f"-{s}", _PREC["neg"])
    if isinstance(e, Pow):
        s, p = _print(e.base)
        if p < _PREC["atom"]:
            s = f"({s})"
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return (f"{s}^{exp}", _PREC["pow"])
    ls, lp = _print(e.left)
    rs, rp = _print(e.right)
    prec = _PREC[e.op]
    if lp < prec:
        ls = f"({ls})"
    # parenthesise right operands at equal precedence so the printed text
    # encodes the tree shape exactly (parse . print == id on parsed forms)
    if rp <= prec:
        rs = f"({rs})"
    return (f"{ls} {e.op} {rs}", prec)


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def to_text(e: Expr) -> str:
    return _print(e)[0]


# ------------------------------------------------------- smart constructors
#
# The parser folds constant subtrees through ``evaluate``, so parsed
# expressions are in a normal form with no Num-only arithmetic left (except
# poles, which stay unfolded and raise at evaluation time per the pole policy).

def _folded(e: Expr, *operands: Expr) -> Expr:
    """Num(value of e) when every operand of e is a Num, else e.  A folded
    constant that is not finite raises OverflowError."""
    if not all(isinstance(o, Num) for o in operands):
        return e
    try:
        value = evaluate(e, {})
    except ExprPoleError:
        return e
    if not cmath.isfinite(value):
        raise OverflowError("constant is not finite")
    return Num(value)


def make_neg(arg: Expr) -> Expr:
    return _folded(Neg(arg), arg)


def make_pow(base: Expr, exponent: int) -> Expr:
    return _folded(Pow(base, exponent), base)


def make_binop(op: str, left: Expr, right: Expr) -> Expr:
    return _folded(BinOp(op, left, right), left, right)


# ---------------------------------------------------------------- tokenizer

@dataclass(frozen=True)
class _Tok:
    kind: str  # num ident op lparen rparen eof
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[^\W\d]\w*)|(?P<op>\*\*|[-+*/^])"
                    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<space>\s)")


def _tokenize(src: str, line_offset: int = 1, col_offset: int = 0) -> list[_Tok]:
    toks = []
    pos = 0
    while True:
        line = line_offset + src.count("\n", 0, pos)
        col = pos - src.rfind("\n", 0, pos) + (col_offset if line == line_offset else 0)
        if pos == len(src):
            return toks + [_Tok("eof", "", line, col)]
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        if m.lastgroup != "space":
            toks.append(_Tok(m.lastgroup, "^" if m.group() == "**" else m.group(), line, col))
        pos = m.end()


class _Parser:
    def __init__(self, toks: list[_Tok], allowed: set[str]):
        self.toks = toks
        self.pos = 0
        self.allowed = allowed

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        """Take the next token when its text is text."""
        taken = self.peek().text == text
        self.pos += taken
        return taken

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            got = t.text or "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, got {got!r}", t.line, t.col)
        return self.next()

    def parse(self) -> Expr:
        try:
            e = self.expr()
        except OverflowError:
            t = self.toks[self.pos - 1]
            raise ExprSyntaxError("constant is not finite", t.line, t.col) from None
        t = self.peek()
        if t.kind != "eof":
            raise ExprSyntaxError(f"trailing input {t.text!r}", t.line, t.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            e = make_binop(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            e = make_binop(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.accept("-"):
            return make_neg(self.factor())
        if self.accept("+"):
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if not self.accept("^"):
            return base
        sign = -1 if self.accept("-") else 1
        paren = self.accept("(")
        if paren and self.accept("-"):
            sign = -sign
        numtok = self.expect("num")
        if paren:
            self.expect("rparen")
        return make_pow(base, sign * self._int_of(numtok))

    @staticmethod
    def _number(t: _Tok) -> float:
        val = float(t.text)
        if not cmath.isfinite(val):
            raise ExprSyntaxError(f"non-finite number {t.text!r}", t.line, t.col)
        return val

    def _int_of(self, t: _Tok) -> int:
        val = self._number(t)
        if val != int(val):
            raise ExprSyntaxError("exponent must be an integer", t.line, t.col)
        return int(val)

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Num(complex(self._number(t)))
        if t.kind == "ident":
            if t.text == "i":
                return Num(1j)
            if t.text == "conj":
                self.expect("lparen")
                inner = self.expect("ident")
                if inner.text != "tau":
                    raise UnknownSymbolError(
                        f"conj() takes only tau, got {inner.text!r}", inner.line, inner.col)
                self.expect("rparen")
                if "tau" not in self.allowed:
                    raise UnknownSymbolError("tau not available on this chart", t.line, t.col)
                return Sym("ctau")
            if t.text in self.allowed:
                return Sym(t.text)
            raise UnknownSymbolError(f"unknown symbol {t.text!r}", t.line, t.col)
        if t.kind == "lparen":
            e = self.expr()
            self.expect("rparen")
            return e
        got = t.text or "end of input"
        raise ExprSyntaxError(f"expected an operand, got {got!r}", t.line, t.col)


def parse(src: str, allowed: set[str] | None = None, line_offset: int = 1,
          col_offset: int = 0) -> Expr:
    """Parse an expression; allowed lists the free symbols permitted.  Errors
    count lines from line_offset, and columns of the first line from
    col_offset + 1 (the expression's place in a file)."""
    if allowed is None:
        allowed = {"tau"}
    return _Parser(_tokenize(src, line_offset, col_offset), allowed).parse()
