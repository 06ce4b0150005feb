"""Symbolic expressions over the three-point delay jet space.

The coordinate set covers the independent variable and the phase variables at
the current time, one delay back and one delay forward, together with first
and second time derivatives:

    t, tm, tp            time at the three points (tm = t - tau, tp = t + tau)
    q, qm, qp, ...       position and its shifts
    p, pm, pp, ...       momentum and its shifts
    qd, qdd, pd, pdd     first / second derivatives (suffix m/p for shifts)
    tau                  the delay constant

Expressions are immutable and hash-consed: structurally identical trees are
the same object, so equality is identity and large derived expressions share
their common subtrees.

Evaluation compiles a tuple of roots once (`compiled_many`) into
straight-line source over a slot vector `A` indexed by symbol: one
`v_i = ...` line per distinct subtree of the roots, root j stored to `out[j]`
and, for a zero check, the largest intermediate magnitude as one more row.
The same source is bound twice: the scalar binding takes a list of floats
(one jet point), the array binding a `(NSLOTS, N)` float array with one jet
point per column.  `evaluate`, `compiled` and the RK4 right-hand sides run
the scalar binding; `evaluate_many`, `evaluate_array` (its one-root case),
zero checks, fits, on-shell jets, grids and drift monitors the array one.
Both give the same bits: `+ - * /`, `sin` and `cos` run in numpy, whose
results match Python's, while integer powers and `exp`, where numpy and
Python round differently, run elementwise on Python floats.  When the array
binding raises, or yields a value that is not finite, the scalar binding is
re-run jet by jet in order, so errors and their witnesses are the ones a
plain loop over the roots and jets would give.

Sampled checks and fits run on seeded random jets.  Sample k of seed s is
numpy's `default_rng((s mod 2**32, k))` stream mapped to coordinates, so it
depends only on (s, k).  `random_jets` draws a whole block of samples in one
vectorised pass that reproduces those streams bit for bit.

Rational constants are kept exact (`fractions.Fraction`) until evaluation;
evaluation itself is plain IEEE double arithmetic.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, identifier: str, offset: int):
        super().__init__(f"unknown identifier '{identifier}'", offset)
        self.identifier = identifier


class ShiftRangeError(ExprError):
    def __init__(self, symbol: "Symbol", direction: int):
        super().__init__(
            f"shifting '{symbol.name}' by {direction:+d} leaves the allowed range"
        )
        self.symbol = symbol


class DerivativeOrderError(ExprError):
    pass


class EvalError(ExprError):
    def __init__(self, message: str, jet: "JetPoint | None" = None):
        super().__init__(message)
        self.jet = jet


class MissingSymbolError(EvalError):
    def __init__(self, symbol: "Symbol", jet: "JetPoint | None" = None):
        super().__init__(f"jet point has no value for '{symbol.name}'", jet)
        self.symbol = symbol


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

_SHIFT_SUFFIX = {-1: "m", 0: "", 1: "p"}


@dataclass(frozen=True, eq=False)
class Symbol:
    """One jet coordinate: base in {t, q, p}, shift in {-1,0,+1}, order <= 2."""

    base: str
    shift: int
    order: int
    index: int

    @property
    def name(self) -> str:
        return self.base + "d" * self.order + _SHIFT_SUFFIX[self.shift]

    def __repr__(self) -> str:
        return self.name


SYMBOLS: list[Symbol] = []
_SYM_BY_KEY: dict[tuple[str, int, int], Symbol] = {}
SYMBOL_BY_NAME: dict[str, Symbol] = {}

for _base in ("t", "q", "p"):
    for _order in range(1 if _base == "t" else 3):
        for _shift in (-1, 0, 1):
            _s = Symbol(_base, _shift, _order, len(SYMBOLS))
            SYMBOLS.append(_s)
            _SYM_BY_KEY[(_base, _shift, _order)] = _s
            SYMBOL_BY_NAME[_s.name] = _s

TAU_INDEX = len(SYMBOLS)
NSLOTS = TAU_INDEX + 1


def symbol(base: str, shift: int, order: int = 0) -> Symbol:
    try:
        return _SYM_BY_KEY[(base, shift, order)]
    except KeyError:
        raise ValueError(f"no jet symbol with base={base!r} shift={shift} order={order}")


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression node; construct through the module helpers."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, n):
        return powi(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_source(self)

    def __repr__(self) -> str:
        return to_source(self)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: Number

    __slots__ = ("value",)


@dataclass(frozen=True, eq=False, repr=False)
class Sym(Expr):
    symbol: Symbol

    __slots__ = ("symbol",)


@dataclass(frozen=True, eq=False, repr=False)
class TauConst(Expr):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    terms: tuple[Expr, ...]

    __slots__ = ("terms",)


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    factors: tuple[Expr, ...]

    __slots__ = ("factors",)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    arg: Expr

    __slots__ = ("arg",)


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    num: Expr
    den: Expr

    __slots__ = ("num", "den")


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    __slots__ = ("base", "exponent")


@dataclass(frozen=True, eq=False, repr=False)
class Func(Expr):
    name: str
    arg: Expr

    __slots__ = ("name", "arg")


_INTERN: dict[tuple, Expr] = {}


def _intern(key: tuple, build: Callable[[], Expr]) -> Expr:
    node = _INTERN.get(key)
    if node is None:
        node = build()
        _INTERN[key] = node
    return node


def _const_key(v: Number) -> tuple:
    if isinstance(v, Fraction):
        return ("c", "F", v.numerator, v.denominator)
    return ("c", "f", v.hex())


def const(v: Number) -> Const:
    if isinstance(v, bool):
        raise TypeError("boolean is not a numeric constant")
    if isinstance(v, int):
        v = Fraction(v)
    elif not isinstance(v, (float, Fraction)):
        raise TypeError(f"unsupported constant type {type(v).__name__}")
    return _intern(_const_key(v), lambda: Const(v))  # type: ignore[return-value]


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


def sym(s: Symbol | str) -> Sym:
    if isinstance(s, str):
        s = SYMBOL_BY_NAME[s]
    return _intern(("s", s.index), lambda: Sym(s))  # type: ignore[return-value]


TAU: TauConst = _intern(("tau",), TauConst)  # type: ignore[assignment]


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def add(*terms) -> Expr:
    flat: list[Expr] = []
    acc: Number = Fraction(0)
    touched = False
    stack = [as_expr(t) for t in terms]
    for item in stack:
        parts = item.terms if isinstance(item, Add) else (item,)
        for p in parts:
            if isinstance(p, Const):
                acc = acc + p.value
                touched = True
            else:
                flat.append(p)
    if touched and acc != 0:
        flat.append(const(acc))
    if not flat:
        return const(acc if touched else Fraction(0))
    if len(flat) == 1:
        return flat[0]
    key = ("+",) + tuple(id(f) for f in flat)
    tup = tuple(flat)
    return _intern(key, lambda: Add(tup))


def neg(x) -> Expr:
    x = as_expr(x)
    if isinstance(x, Const):
        return const(-x.value)
    if isinstance(x, Neg):
        return x.arg
    return _intern(("neg", id(x)), lambda: Neg(x))


def sub(a, b) -> Expr:
    return add(a, neg(b))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    coeff: Number = Fraction(1)
    negative = False
    zero = False

    def push(x: Expr):
        nonlocal coeff, negative, zero
        if isinstance(x, Mul):
            for f in x.factors:
                push(f)
        elif isinstance(x, Neg):
            negative = not negative
            push(x.arg)
        elif isinstance(x, Const):
            v = x.value
            if v == 0:
                zero = True
                coeff = coeff * v
                return
            if v < 0:
                negative = not negative
                v = -v
            coeff = coeff * v
        else:
            flat.append(x)

    for f in factors:
        push(as_expr(f))
    if zero:
        return const(coeff * 0)
    parts = ([const(coeff)] if coeff != 1 else []) + flat
    if not parts:
        out: Expr = const(coeff)
    elif len(parts) == 1:
        out = parts[0]
    else:
        key = ("*",) + tuple(id(f) for f in parts)
        tup = tuple(parts)
        out = _intern(key, lambda: Mul(tup))
    return neg(out) if negative else out


def div(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if _is_const(b, 0):
        raise ExprError("division by the literal zero constant")
    if isinstance(a, Const) and isinstance(b, Const):
        if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
            return const(a.value / b.value)
        return const(float(a.value) / float(b.value))
    negative = False
    if isinstance(a, Neg):
        negative = not negative
        a = a.arg
    if isinstance(b, Neg):
        negative = not negative
        b = b.arg
    if isinstance(a, Const) and a.value < 0:
        negative = not negative
        a = const(-a.value)
    if isinstance(b, Const) and b.value < 0:
        negative = not negative
        b = const(-b.value)
    if _is_const(b, 1):
        out = a
    elif _is_const(a, 0):
        out = a
    elif isinstance(b, Const) and isinstance(a, Mul) and isinstance(a.factors[0], Const):
        out = mul(div(a.factors[0], b), *a.factors[1:])
    else:
        bb = b
        aa = a
        out = _intern(("/", id(aa), id(bb)), lambda: Div(aa, bb))
    return neg(out) if negative else out


def powi(base, exponent: int) -> Expr:
    base = as_expr(base)
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        exponent = int(exponent)
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise TypeError("exponents must be integers")
    if exponent == 0:
        return const(Fraction(1))
    if exponent == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if v == 0 and exponent < 0:
            raise ExprError("zero raised to a negative power")
        if isinstance(v, Fraction):
            return const(v**exponent)
        return const(float(v) ** exponent)
    if isinstance(base, Neg):
        inner = powi(base.arg, exponent)
        return inner if exponent % 2 == 0 else neg(inner)
    b = base
    n = exponent
    return _intern(("^", id(b), n), lambda: Pow(b, n))


def _func(name: str, arg) -> Expr:
    a = as_expr(arg)
    return _intern(("fn", name, id(a)), lambda: Func(name, a))


def sin(arg) -> Expr:
    return _func("sin", arg)


def cos(arg) -> Expr:
    return _func("cos", arg)


def exp(arg) -> Expr:
    return _func("exp", arg)


# Ready-made atoms, named exactly like the surface grammar.
t = sym("t")
tm = sym("tm")
tp = sym("tp")
q = sym("q")
qm = sym("qm")
qp = sym("qp")
p = sym("p")
pm = sym("pm")
pp = sym("pp")
qd = sym("qd")
qdm = sym("qdm")
qdp = sym("qdp")
pd = sym("pd")
pdm = sym("pdm")
pdp = sym("pdp")
qdd = sym("qdd")
qddm = sym("qddm")
qddp = sym("qddp")
pdd = sym("pdd")
pddm = sym("pddm")
pddp = sym("pddp")
tau = TAU

ZERO = const(0)
ONE = const(1)


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------

_SYMBOLS_CACHE: dict[int, frozenset[Symbol]] = {}


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    return ()


def symbols_of(e: Expr) -> frozenset[Symbol]:
    cached = _SYMBOLS_CACHE.get(id(e))
    if cached is not None:
        return cached
    if isinstance(e, Sym):
        out = frozenset((e.symbol,))
    else:
        out = frozenset().union(*(symbols_of(c) for c in _children(e))) if _children(e) else frozenset()
    _SYMBOLS_CACHE[id(e)] = out
    return out


def _rebuild(e: Expr, rec: Callable[[Expr], Expr]) -> Expr:
    if isinstance(e, Add):
        return add(*[rec(c) for c in e.terms])
    if isinstance(e, Mul):
        return mul(*[rec(c) for c in e.factors])
    if isinstance(e, Neg):
        return neg(rec(e.arg))
    if isinstance(e, Div):
        return div(rec(e.num), rec(e.den))
    if isinstance(e, Pow):
        return powi(rec(e.base), e.exponent)
    if isinstance(e, Func):
        return _func(e.name, rec(e.arg))
    return e


def shift(e: Expr, direction: int) -> Expr:
    """Apply the forward (+1) or backward (-1) delay shift to every symbol."""
    if direction not in (-1, 1):
        raise ValueError("shift direction must be +1 or -1")
    memo: dict[int, Expr] = {}

    def rec(x: Expr) -> Expr:
        got = memo.get(id(x))
        if got is not None:
            return got
        if isinstance(x, Sym):
            s = x.symbol
            ns = s.shift + direction
            if ns < -1 or ns > 1:
                raise ShiftRangeError(s, direction)
            out: Expr = sym(symbol(s.base, ns, s.order))
        else:
            out = _rebuild(x, rec)
        memo[id(x)] = out
        return out

    return rec(e)


def substitute(e: Expr, mapping: Mapping[Symbol | str | Sym, Expr | Number]) -> Expr:
    """Replace symbols by expressions everywhere in `e`."""
    table: dict[int, Expr] = {}
    for key, val in mapping.items():
        if isinstance(key, Sym):
            key = key.symbol
        elif isinstance(key, str):
            key = SYMBOL_BY_NAME[key]
        table[key.index] = as_expr(val)
    memo: dict[int, Expr] = {}

    def rec(x: Expr) -> Expr:
        got = memo.get(id(x))
        if got is not None:
            return got
        if isinstance(x, Sym):
            out = table.get(x.symbol.index, x)
        else:
            out = _rebuild(x, rec)
        memo[id(x)] = out
        return out

    return rec(e)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

_PARTIAL_CACHE: dict[tuple[int, int], Expr] = {}


def partial(e: Expr, s: Symbol | Sym | str) -> Expr:
    """Partial derivative treating every jet symbol as an independent coordinate."""
    if isinstance(s, Sym):
        s = s.symbol
    elif isinstance(s, str):
        s = SYMBOL_BY_NAME[s]
    key = (id(e), s.index)
    got = _PARTIAL_CACHE.get(key)
    if got is not None:
        return got
    if isinstance(e, (Const, TauConst)):
        out: Expr = ZERO
    elif isinstance(e, Sym):
        out = ONE if e.symbol is s else ZERO
    elif s not in symbols_of(e):
        out = ZERO
    elif isinstance(e, Add):
        out = add(*[partial(c, s) for c in e.terms])
    elif isinstance(e, Neg):
        out = neg(partial(e.arg, s))
    elif isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = partial(f, s)
            if _is_const(df, 0):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            pieces.append(mul(df, *rest))
        out = add(*pieces)
    elif isinstance(e, Div):
        da = partial(e.num, s)
        db = partial(e.den, s)
        out = sub(div(da, e.den), div(mul(e.num, db), powi(e.den, 2)))
    elif isinstance(e, Pow):
        out = mul(e.exponent, powi(e.base, e.exponent - 1), partial(e.base, s))
    elif isinstance(e, Func):
        darg = partial(e.arg, s)
        if e.name == "sin":
            out = mul(cos(e.arg), darg)
        elif e.name == "cos":
            out = neg(mul(sin(e.arg), darg))
        else:
            out = mul(e, darg)
    else:  # pragma: no cover
        raise TypeError(f"cannot differentiate {type(e).__name__}")
    _PARTIAL_CACHE[key] = out
    return out


_TOTAL_CACHE: dict[int, Expr] = {}


def total_derivative(e: Expr) -> Expr:
    """Three-point total time derivative.

    All three time coordinates advance at unit rate; positions and momenta at
    every shift advance through their stored derivative symbols.  Input must
    not contain second-derivative symbols (the result would need third
    derivatives, which the jet space does not carry).
    """
    got = _TOTAL_CACHE.get(id(e))
    if got is not None:
        return got
    bad = [s for s in symbols_of(e) if s.order >= 2]
    if bad:
        raise DerivativeOrderError(
            f"total derivative of an expression containing {bad[0].name} would "
            "need third derivatives"
        )
    terms = []
    for sh in (-1, 0, 1):
        terms.append(partial(e, symbol("t", sh, 0)))
        for base in ("q", "p"):
            d0 = partial(e, symbol(base, sh, 0))
            if not _is_const(d0, 0):
                terms.append(mul(sym(symbol(base, sh, 1)), d0))
            d1 = partial(e, symbol(base, sh, 1))
            if not _is_const(d1, 0):
                terms.append(mul(sym(symbol(base, sh, 2)), d1))
    out = add(*terms)
    _TOTAL_CACHE[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _fmt_number(v: Number) -> tuple[str, int]:
    """Return (text, precedence-class) for a non-negative constant."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator), 100
        return f"{v.numerator}/{v.denominator}", 20
    return repr(v), 100


def _render(e: Expr, ctx: int) -> str:
    s, prec = _render_raw(e)
    return f"({s})" if prec < ctx else s


def _render_raw(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = e.value
        if v < 0:
            text, _ = _fmt_number(-v)
            return "-" + text, 15
        return _fmt_number(v)
    if isinstance(e, Sym):
        return e.symbol.name, 100
    if isinstance(e, TauConst):
        return "tau", 100
    if isinstance(e, Add):
        first = e.terms[0]
        if isinstance(first, Neg):
            out = "-" + _render(first.arg, 16)
        elif isinstance(first, Const) and first.value < 0:
            out = "-" + _render(const(-first.value), 16)
        else:
            out = _render(first, 11)
        for term in e.terms[1:]:
            if isinstance(term, Neg):
                out += " - " + _render(term.arg, 11)
            elif isinstance(term, Const) and term.value < 0:
                out += " - " + _render(const(-term.value), 11)
            else:
                out += " + " + _render(term, 11)
        return out, 10
    if isinstance(e, Neg):
        return "-" + _render(e.arg, 16), 15
    if isinstance(e, Mul):
        parts = [_render(e.factors[0], 20)]
        parts += [_render(f, 21) for f in e.factors[1:]]
        return "*".join(parts), 20
    if isinstance(e, Div):
        return _render(e.num, 20) + "/" + _render(e.den, 21), 20
    if isinstance(e, Pow):
        n = e.exponent
        suffix = str(n) if n >= 0 else f"({n})"
        return _render(e.base, 31) + "^" + suffix, 30
    if isinstance(e, Func):
        return f"{e.name}({_render(e.arg, 0)})", 100
    raise TypeError(f"cannot print {type(e).__name__}")  # pragma: no cover


def to_source(e: Expr) -> str:
    return _render(e, 0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp}


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise ParseError(f"unexpected character {source[pos]!r}", pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))  # type: ignore[arg-type]
            pos = m.end()
        self.tokens.append(("eof", "", len(source)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, ch: str):
        kind, text, off = self.next()
        if kind != "op" or text != ch:
            raise ParseError(f"expected '{ch}'", off)

    def parse(self) -> Expr:
        e = self.expression()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", off)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return powi(base, self.exponent())
        return base

    def exponent(self) -> int:
        kind, text, off = self.next()
        if kind == "op" and text == "(":
            n = self.exponent()
            self.expect_op(")")
            return n
        if kind == "op" and text == "-":
            return -self.exponent()
        if kind == "num" and re.fullmatch(r"\d+", text):
            return int(text)
        raise ParseError("exponent must be an integer", off)

    def atom(self) -> Expr:
        kind, text, off = self.next()
        if kind == "num":
            if re.fullmatch(r"\d+", text):
                return const(Fraction(int(text)))
            return const(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _FUNCTIONS[text](arg)
            if text == "tau":
                return TAU
            if text in SYMBOL_BY_NAME:
                return sym(text)
            raise UnknownIdentifierError(text, off)
        if kind == "op" and text == "(":
            e = self.expression()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expr:
    """Parse the surface grammar; round-trips with `to_source`."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# jet points and evaluation
# ---------------------------------------------------------------------------


class JetPoint:
    """Numeric values for the jet coordinates at one base time.

    The three time slots always satisfy tm = t - tau and tp = t + tau; all
    other coordinates are free (a jet point is off-shell unless constrained
    explicitly).
    """

    __slots__ = ("tau", "_vals")

    def __init__(self, tau_value: float, values: Mapping[str | Symbol, float] | None = None,
                 t_value: float | None = None):
        tau_value = float(tau_value)
        if not (tau_value > 0) or not math.isfinite(tau_value):
            raise ValueError("tau must be a positive finite number")
        vals = [math.nan] * NSLOTS
        vals[TAU_INDEX] = tau_value
        object.__setattr__(self, "tau", tau_value)
        object.__setattr__(self, "_vals", vals)
        if t_value is not None:
            self._set_time(float(t_value))
        if values:
            for key, val in values.items():
                s = SYMBOL_BY_NAME[key] if isinstance(key, str) else key
                val = float(val)
                if not math.isfinite(val):
                    raise ValueError(f"non-finite value for '{s.name}'")
                if s.base == "t" and s.order == 0:
                    if s.shift == 0:
                        self._set_time(val)
                    else:
                        expected = self._vals[symbol("t", 0).index] + s.shift * tau_value
                        if not math.isnan(expected) and abs(val - expected) > 1e-9 * (1 + abs(expected)):
                            raise ValueError(
                                f"'{s.name}'={val} conflicts with t and tau "
                                f"(expected {expected})"
                            )
                else:
                    self._vals[s.index] = val

    @classmethod
    def from_slots(cls, slots: Iterable[float]) -> "JetPoint":
        """The jet whose slot vector is `slots` (e.g. one column of a slot array)."""
        vals = [float(v) for v in slots]
        out = cls.__new__(cls)
        object.__setattr__(out, "tau", vals[TAU_INDEX])
        object.__setattr__(out, "_vals", vals)
        return out

    def _set_time(self, t_value: float):
        self._vals[symbol("t", 0).index] = t_value
        self._vals[symbol("t", -1).index] = t_value - self.tau
        self._vals[symbol("t", 1).index] = t_value + self.tau

    @property
    def t(self) -> float:
        return self._vals[symbol("t", 0).index]

    def value(self, s: Symbol | Sym | str) -> float:
        if isinstance(s, Sym):
            s = s.symbol
        elif isinstance(s, str):
            s = SYMBOL_BY_NAME[s]
        v = self._vals[s.index]
        if math.isnan(v):
            raise MissingSymbolError(s, self)
        return v

    def slots(self) -> list[float]:
        return self._vals

    def __repr__(self) -> str:
        named = {
            s.name: round(self._vals[s.index], 6)
            for s in SYMBOLS
            if not math.isnan(self._vals[s.index])
        }
        return f"JetPoint(tau={self.tau}, {named})"


_T_SLOTS = tuple(symbol("t", sh, 0).index for sh in (-1, 0, 1))
_FREE_SLOTS = [s.index for s in SYMBOLS if s.base != "t"]


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map unit draws to [low, high) exactly as `Generator.uniform` does."""
    return low + (high - low) * u


# Sample k of a block is numpy's `default_rng((seed, k)).random(_DRAWS)`.
# `_draw_units` computes that stream for every column of a block at once, in
# three steps.  SeedSequence hashes the entropy words [seed, k mod 2**32,
# k >> 32] into a pool of 4 words; numpy pads a short pool with 0, so the zero
# high word of k < 2**32 needs no case of its own.  PCG64 seeds from the
# pool's 8 output words.  Draw r comes from the 128-bit LCG state r steps
# after seeding, which is A_r * initstate + B_r * inc in closed form (Brown,
# "Random number generation with arbitrary strides", 1994), put through the
# XSL-RR output function.  All unsigned arithmetic wraps, as in numpy's C code.

_DRAWS = 2 + len(_FREE_SLOTS)
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The multiplier SeedSequence's hash holds before each of `calls` calls and after the last."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# 4 calls fill the pool and 12 mix it; 8 calls give the output words.
_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as `(hi, lo)` uint64 columns."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64)[:, None],
        np.array([v & _MASK64 for v in values], dtype=np.uint64)[:, None],
    )


# srandom leaves the state at M * initstate + (M + 1) * inc, and every draw
# steps once before its output, so the state behind draw r = 1, 2, ... is
# M**(r+1) * initstate + (1 + M + ... + M**(r+1)) * inc (mod 2**128).
_POWERS = [pow(_PCG_MULT, j, 2**128) for j in range(_DRAWS + 2)]
_JUMP_STATE = _split128(_POWERS[2:])
_JUMP_INC = _split128([sum(_POWERS[: r + 3]) % 2**128 for r in range(_DRAWS)])


def _hashmix(value: np.ndarray, consts: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """SeedSequence's `hashmix` for its calls lo..hi-1, one call per row."""
    value = (value ^ consts[lo:hi]) * consts[lo + 1 : hi + 1]
    return value ^ (value >> 16)


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y, from 32-bit halves."""
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 for `(hi, lo)` pairs."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _draw_units(seed: int, n: int, start: int) -> np.ndarray:
    """`(_DRAWS, n)` array whose column k is `default_rng((seed, start + k)).random(_DRAWS)`."""
    if start < 0 or start + n > 2**64:
        raise ValueError(f"sample indices [{start}, {start + n}) are outside [0, 2**64)")
    k = np.arange(n, dtype=np.uint64) + np.uint64(start)
    with np.errstate(over="ignore"):
        pool = np.zeros((4, n), dtype=np.uint32)
        pool[0] = seed
        pool[1] = k & _MASK32
        pool[2] = k >> 32
        pool = _hashmix(pool, _POOL_HASH, 0, 4)
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            mixed = _hashmix(pool[src], _POOL_HASH, 3 * src + 4, 3 * src + 7)
            x = _MIX_L * pool[dst] - _MIX_R * mixed
            pool[dst] = x ^ (x >> 16)
        words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT_HASH, 0, 8).astype(np.uint64)
        state_hi, state_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << 32)
        inc = ((seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1)
        a_hi, a_lo = _mul128(_JUMP_STATE, (state_hi, state_lo))
        b_hi, b_lo = _mul128(_JUMP_INC, inc)
        lo = a_lo + b_lo
        hi = a_hi + b_hi + (lo < a_lo)
        x = hi ^ lo
        rot = hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * 2.0**-53


def _jet_slots(u: np.ndarray) -> np.ndarray:
    """`(NSLOTS, n)` jets from `(_DRAWS, n)` unit draws: tau, then t, then the free slots."""
    out = np.empty((NSLOTS, u.shape[1]))
    tau_values = _uniform(u[0], 0.3, 1.5)
    t_values = _uniform(u[1], -3.0, 3.0)
    out[TAU_INDEX] = tau_values
    out[_T_SLOTS[0]] = t_values - tau_values
    out[_T_SLOTS[1]] = t_values
    out[_T_SLOTS[2]] = t_values + tau_values
    out[_FREE_SLOTS] = _uniform(u[2:], -2.0, 2.0)
    return out


def _draw_jets(seed: int, n: int, start: int) -> np.ndarray:
    """`random_jets` without the memo; `seed` is already reduced to 32 bits."""
    return _jet_slots(_draw_units(seed, n, start))


# One analysis samples the same (seed, n) block many times: every check of a
# run shares its seed, and the off- and on-shell fits share theirs.
_cached_jets = functools.lru_cache(maxsize=16)(_draw_jets)


def random_jets(seed: int, n: int, start: int = 0) -> np.ndarray:
    """`(NSLOTS, n)` slot array of deterministic pseudo-random jet points.

    Column k is sample `start + k`: the 20 draws of numpy's
    `default_rng((seed mod 2**32, start + k)).random(20)`, so it depends only
    on those two numbers.  The whole block is drawn in one vectorised pass
    that reproduces those streams bit for bit.  Coordinate values are uniform
    in [-2, 2], tau in [0.3, 1.5], t in [-3, 3].  Sample indices must lie in
    [0, 2**64) (`ValueError` otherwise).  The array is the caller's to modify.
    """
    return _cached_jets(int(seed) & _MASK32, int(n), int(start)).copy()


def random_jet(seed: int, index: int = 0) -> JetPoint:
    """Sample `index` of `random_jets(seed, ...)` as a jet point.

    One column is cheaper to draw with numpy's own generator than with the
    block pass of `random_jets`, whose fixed cost is several single draws.
    """
    u = np.random.default_rng((int(seed) & _MASK32, int(index))).random(_DRAWS)
    return JetPoint.from_slots(_jet_slots(u[:, None])[:, 0])


def grid_slots(tau_value: float, rows: Mapping[Symbol, np.ndarray]) -> np.ndarray:
    """`(NSLOTS, N)` slot array of the given symbol rows and tau; other slots are nan."""
    out = np.full((NSLOTS, len(next(iter(rows.values())))), math.nan)
    out[TAU_INDEX] = tau_value
    for s, values in rows.items():
        out[s.index] = values
    return out


def _elementwise(fn: Callable) -> Callable:
    """Apply a Python float function to every entry, so it rounds as Python does."""

    def apply(x, *args):
        x = np.asarray(x, dtype=float)
        return np.array([fn(v, *args) for v in x.ravel().tolist()]).reshape(x.shape)

    return apply


_SCALAR_BINDING = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_pow": operator.pow,
    "_maxabs": lambda values: max(map(abs, values)),
}
_ARRAY_BINDING = {
    "_sin": np.sin,
    "_cos": np.cos,
    "_exp": _elementwise(math.exp),
    "_pow": _elementwise(operator.pow),
    "_maxabs": lambda values: functools.reduce(np.maximum, map(np.abs, values)),
}

# Keyed by the roots' ids and the flag, so one root's key is `(id(e),
# with_magnitude)`; generated code inlining kernel lines (`compiled_source`)
# ends its key with a string tag instead.  `_INTERN` keeps every node, so no
# id is reused.
_COMPILE_CACHE: dict[tuple, Callable] = {}


def _kernel_lines(n: Expr, names: dict[int, str], lines: list[str], last_use: dict[str, int]) -> str:
    """Append a `v_i = ...` line for every subtree of `n` not named yet
    (children first, left to right), record the last line that reads each
    name, and return the name of `n`."""
    got = names.get(id(n))
    if got is not None:
        return got
    args = [_kernel_lines(c, names, lines, last_use) for c in _children(n)]
    if isinstance(n, Const):
        src = repr(float(n.value))
    elif isinstance(n, Sym):
        src = f"A[{n.symbol.index}]"
    elif isinstance(n, TauConst):
        src = f"A[{TAU_INDEX}]"
    elif isinstance(n, Add):
        src = " + ".join(args)
    elif isinstance(n, Mul):
        src = "*".join(args)
    elif isinstance(n, Neg):
        src = f"-{args[0]}"
    elif isinstance(n, Div):
        src = " / ".join(args)
    elif isinstance(n, Pow):
        src = f"_pow({args[0]}, {n.exponent})"
    elif isinstance(n, Func):
        src = f"_{n.name}({args[0]})"
    else:  # pragma: no cover
        raise TypeError(type(n).__name__)
    for arg in args:
        last_use[arg] = len(lines)
    name = f"v{len(names)}"
    names[id(n)] = name
    lines.append(f"{name} = {src}")
    return name


def _many_source(roots: tuple[Expr, ...], with_magnitude: bool = False) -> str:
    """Straight-line source of `_f(A, out)` over the union of the roots'
    subtrees: root j goes to `out[j]` as soon as it is computed and, with
    `with_magnitude`, the largest magnitude of any subtree goes to
    `out[len(roots)]`.  Every name is deleted after its last use, except
    after the last line, where the return frees them."""
    names: dict[int, str] = {}
    lines: list[str] = []
    last_use: dict[str, int] = {}
    for j, root in enumerate(roots):
        name = _kernel_lines(root, names, lines, last_use)
        last_use[name] = len(lines)
        lines.append(f"out[{j}] = {name}")
    if with_magnitude:
        last_use.update(dict.fromkeys(names.values(), len(lines)))
        lines.append(f"out[{len(roots)}] = _maxabs(({', '.join(names.values())},))")
    dead: dict[int, list[str]] = {}
    for name, i in last_use.items():
        dead.setdefault(i, []).append(name)
    body = []
    for i, line in enumerate(lines):
        body.append(line)
        if i in dead and i < len(lines) - 1:
            body.append("del " + ", ".join(dead[i]))
    body.append("return out")
    return "def _f(A, out):\n    " + "\n    ".join(body) + "\n"


def kernel_lines(roots: Iterable[Expr], read: Callable[[int], str]) -> tuple[list[str], list[str]]:
    """The straight-line `v_i = ...` lines of the roots' kernel, for inlining
    into generated code, and the name that holds each root.  Slot i is read
    as the source `read(i)` (a name, or an expression in parentheses); no
    name is deleted."""
    roots = tuple(roots)
    names = {id(sym(s)): read(s.index) for root in roots for s in symbols_of(root)}
    names[id(TAU)] = read(TAU_INDEX)
    lines: list[str] = []
    return lines, [_kernel_lines(root, names, lines, {}) for root in roots]


def compiled_source(key: tuple, source: Callable[[], str], env: dict | None = None) -> Callable:
    """The function `_f` that `source()` defines, compiled once per `key`
    into `_COMPILE_CACHE`: `f` has the scalar binding and `env` as its
    globals, `f.array` the array binding and `env`."""
    fn = _COMPILE_CACHE.get(key)
    if fn is None:
        code = compile(source(), "<delayham-expr>", "exec")
        fn = _COMPILE_CACHE[key] = _bind(code, {**_SCALAR_BINDING, **(env or {})})
        fn.array = _bind(code, {**_ARRAY_BINDING, **(env or {})})
    return fn


def _bind(code, binding: dict) -> Callable:
    env = dict(binding)
    exec(code, env)
    return env["_f"]


def compiled_many(roots: Iterable[Expr], with_magnitude: bool = False) -> Callable:
    """Compile the roots into one cached kernel `f(slots, out) -> out`.

    Row j of `out` gets root j's value and, with `with_magnitude`, row
    `len(roots)` the largest intermediate magnitude.  Subtrees shared by the
    roots are computed once, each with its own operation order, so every row
    has the bits of its root compiled alone.  `f` is the scalar binding
    (`slots` a list of floats, `out` a list); `f.array` binds the same source
    to a `(NSLOTS, N)` slot array and a `(rows, N)` float array.
    """
    roots = tuple(roots)
    key = (*map(id, roots), with_magnitude)
    return compiled_source(key, lambda: _many_source(roots, with_magnitude))


def compiled(e: Expr, with_magnitude: bool = False) -> Callable:
    """Compile into `f(slots) -> value` (or `(value, max_abs_intermediate)`).

    A scalar view on the kernel `compiled_many((e,), with_magnitude)`.
    """
    kernel = compiled_many((e,), with_magnitude)
    rows = 1 + with_magnitude
    pick = tuple if with_magnitude else operator.itemgetter(0)

    def f(slots):
        return pick(kernel(slots, [0.0] * rows))

    return f


def _array_rows(roots: tuple[Expr, ...], slots: np.ndarray, with_magnitude: bool = False):
    """The roots' kernel on the array binding over `slots`: its `(rows, N)`
    array, or None when it raised a numeric error (numpy's divide and
    invalid raise; over- and underflow do not)."""
    kernel = compiled_many(roots, with_magnitude).array
    out = np.empty((len(roots) + with_magnitude, slots.shape[1]))
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            return kernel(slots, out)
    except (OverflowError, ZeroDivisionError, ValueError, FloatingPointError):
        return None


def _scalar_columns(e: Expr, slots: np.ndarray, with_magnitude: bool = False,
                    jet_at: Callable[[int], JetPoint] | None = None):
    """The scalar binding of `e` at each column of `slots` in order, yielding
    its value (or `(value, magnitude)`); the first column that fails raises
    its `EvalError` naming `jet_at(k)`, by default the column's own jet."""
    fn = compiled(e, with_magnitude)
    needed = sorted(symbols_of(e), key=lambda s: s.index)
    columns = slots.T.tolist()
    jet_at = jet_at or (lambda k: JetPoint.from_slots(columns[k]))
    for k, vals in enumerate(columns):
        for s in needed:
            if math.isnan(vals[s.index]):
                raise MissingSymbolError(s, jet_at(k))
        try:
            got = fn(vals)
        except ZeroDivisionError:
            raise EvalError("division by zero", jet_at(k)) from None
        except OverflowError:
            raise EvalError("numeric overflow", jet_at(k)) from None
        except ValueError:
            raise EvalError("math domain error", jet_at(k)) from None
        yield got


def evaluate(e: Expr, jet: JetPoint) -> float:
    """IEEE double evaluation of `e` at `jet`."""
    return next(_scalar_columns(e, np.reshape(jet._vals, (NSLOTS, 1)), jet_at=lambda k: jet))


def evaluate_array(e: Expr, slots: np.ndarray) -> np.ndarray:
    """Values of `e` at every column of a `(NSLOTS, N)` slot array: the
    one-root case of `evaluate_many`.

    Bit-identical to `evaluate` column by column; the first column (in order)
    where evaluation fails raises its `EvalError`.
    """
    return evaluate_many((e,), slots)[0]


def evaluate_many(roots: Iterable[Expr], slots: np.ndarray) -> np.ndarray:
    """`(len(roots), N)` array whose row j is `evaluate_array(roots[j], slots)`.

    One kernel (`compiled_many`) computes every distinct subtree of the roots
    once, so the rows are bit-identical to the per-root calls.  When the
    kernel raises, every root is re-run on its own in order; a row that is
    not finite re-runs its root jet by jet on the scalar binding.  Either way
    the first failing root raises its `EvalError`.
    """
    roots = tuple(roots)
    out = _array_rows(roots, slots)
    if out is None:
        if len(roots) > 1:
            return np.array([evaluate_array(root, slots) for root in roots])
        out = np.full((1, slots.shape[1]), math.nan)
    for j in np.flatnonzero(~np.isfinite(out).all(axis=1)):
        out[j] = list(_scalar_columns(roots[j], slots))
    return out


class ZeroCheck(NamedTuple):
    ok: bool
    witness: JetPoint | None
    worst: float

    def __bool__(self) -> bool:  # type: ignore[override]
        return self.ok


def _zero_check(e: Expr, slots: np.ndarray, tol: float, jet_at: Callable[[int], JetPoint]) -> ZeroCheck:
    """Accept when |value| <= tol * (1 + largest intermediate magnitude) at
    every column of `slots`; otherwise the first failing column's jet
    (`jet_at(k)`) is the witness."""
    out = _array_rows((e,), slots, with_magnitude=True)
    if out is not None and np.isfinite(out).all():
        ratio = np.abs(out[0]) / (1.0 + out[1])
        bad = ~(ratio <= tol)
        if bad.any():
            k = int(np.argmax(bad))
            return ZeroCheck(False, jet_at(k), float(ratio[k]))
        return ZeroCheck(True, None, float(ratio.max(initial=0.0)))
    worst = 0.0
    for k, (value, mag) in enumerate(_scalar_columns(e, slots, True, jet_at)):
        ratio = abs(value) / (1.0 + mag)
        if not (ratio <= tol):
            return ZeroCheck(False, jet_at(k), ratio)
        worst = max(worst, ratio)
    return ZeroCheck(True, None, worst)


def is_zero(e: Expr, samples: int = 100, tol: float = 1e-9, seed: int = 0) -> ZeroCheck:
    """Sampled check that `e` vanishes identically.

    Evaluates at `samples` seeded pseudo-random jet points and accepts when
    |value| <= tol * (1 + largest intermediate magnitude) at every point.  On
    failure the witness jet point is returned.  Sample k's randomness depends
    only on (seed, k), so how the samples are batched cannot change the
    verdict.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return is_zero_on(e, random_jets(seed, samples), tol)


def is_zero_on(e: Expr, slots: np.ndarray, tol: float = 1e-9) -> ZeroCheck:
    """Like `is_zero` but over the columns of a caller-supplied `(NSLOTS, N)`
    slot array (e.g. on-shell jets); a witness is its column as a jet point."""
    return _zero_check(e, slots, tol, lambda k: JetPoint.from_slots(slots[:, k]))


# no library caller; kept because bench/tracing.py wraps it by name
def is_zero_at(e: Expr, jets: Iterable[JetPoint], tol: float = 1e-9) -> ZeroCheck:
    """`is_zero_on` over a list of jet points; a witness is one of them."""
    jets = list(jets)
    slots = np.array([jet._vals for jet in jets], dtype=float).reshape(len(jets), NSLOTS).T
    return _zero_check(e, slots, tol, jets.__getitem__)
