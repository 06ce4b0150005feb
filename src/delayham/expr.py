"""Symbolic expressions over the three-point delay jet space.

The coordinate set covers the independent variable and the phase variables at
the current time, one delay back and one delay forward, together with first
and second time derivatives:

    t, tm, tp            time at the three points (tm = t - tau, tp = t + tau)
    q, qm, qp, ...       position and its shifts
    p, pm, pp, ...       momentum and its shifts
    qd, qdd, pd, pdd     first / second derivatives (suffix m/p for shifts)
    tau                  the delay constant

Each coordinate is one `Sym` atom, built once at import: it carries its base,
shift, order, slot index and name, `SYMBOLS[k]` is the atom of slot k, and
`symbol`, `sym`, `SYMBOL_BY_NAME` and `parse` return the same atoms.  Code
takes an atom or its name wherever it needs a coordinate.

Expressions are immutable and hash-consed: structurally identical trees are
the same object, so equality is identity and large derived expressions share
their common subtrees.  Nodes are built only through the module helpers
(`const`, `sym`, `add`, `mul`, ...), which all go through `_intern`; calling
a node class directly raises `TypeError`.

Evaluation runs one kernel per tuple of roots.  One plan (`_plan`) fixes its
order: one step per distinct subtree of the roots, children first, root j
stored to `out[j]` and, for a zero check, root j's magnitude as one more row:
the largest |value| in its own subtree.  A compiled kernel builds it bottom
up as the max of each node's |value| and its children's magnitudes; a tape
takes it as one max over the |values| of the subtree's steps, with the same
bits, since a max is exact.  `zero_checks` checks many
roots over the same jets in one such shared kernel (`check-identity` checks
all its residuals in one), and `is_zero` is its one-root case.  The plan has
two consumers.  `kernel_lines` writes it as straight-line source: over a slot
vector `A` indexed by slot for the kernels compiled once (`compiled_many`),
and over named locals for the right-hand side inlined into the solver's RK4
interval.  `_tape` runs it as a tape.  A kernel's source is bound twice:
the scalar binding takes a list of floats (one jet point), the array binding
a `(NSLOTS, N)` float array with one jet point per column.  `evaluate`,
`compiled` and the RK4 right-hand sides run the scalar binding;
`evaluate_many`, zero checks, fits, on-shell jets, grids and drift monitors
the array one.  The first array use of a kernel not compiled yet runs its
tape on the array binding's operations instead and compiles nothing; a later
one compiles it, so a tree checked once costs no `compile()` and one that is
reused runs compiled.  Every path gives
the same bits: `+ - * /`, `sin` and `cos` run in numpy, whose results match
Python's, while integer powers and `exp`, where numpy and Python round
differently, run elementwise on Python floats.  A root whose array rows are
not finite, and every root when the array kernel raises, is re-run on the
scalar binding jet by jet, in root order, so errors and their witnesses are
the ones a plain loop over the roots and jets would give.

Sampled checks and fits run on seeded random jets.  Sample k of seed s is 20
unit draws mapped to coordinates; draw j is the SplitMix64 finaliser of
s + (20k + j + 1) * 0x9E3779B97F4A7C15 (mod 2**64), with s taken mod 2**32,
so it depends only on (s, k).  `random_jets` draws a whole block of samples
in one uint64 numpy pass, and `random_jet` is one column of it.

Rational constants are kept exact (`fractions.Fraction`) until evaluation;
evaluation itself is plain IEEE double arithmetic, and a rational beyond the
double range evaluates as +-inf, like a float literal beyond it.  `add` and
`mul` fold integer constants exactly, in plain `int` arithmetic, to the same
`Fraction` nodes.
"""

from __future__ import annotations

import functools
import math
import operator
import re
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
    def __init__(self, symbol: "Sym", direction: int):
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
    def __init__(self, symbol: "Sym", jet: "JetPoint | None" = None):
        super().__init__(f"jet point has no value for '{symbol.name}'", jet)
        self.symbol = symbol


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression node, built only by the module helpers.

    `_intern` is the one constructor: calling a node class raises
    `TypeError`, and assigning or deleting a slot raises `AttributeError`.
    Every node's `mask` is the bit set of the coordinate slots its subtree
    reads, fixed when the node is built."""

    __slots__ = ("mask",)

    def __new__(cls, *args, **kwargs):
        raise TypeError(f"{cls.__name__} nodes are built by the expr module helpers")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: expression nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: expression nodes are immutable")

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


class Const(Expr):
    __slots__ = ("value",)  # Fraction or float


_SHIFT_SUFFIX = {-1: "m", 0: "", 1: "p"}


class Sym(Expr):
    """One jet coordinate: base in {t, q, p}, shift in {-1, 0, +1}, order <= 2,
    and its slot index in a jet's slot vector."""

    __slots__ = ("base", "shift", "order", "index")

    @property
    def name(self) -> str:
        return self.base + "d" * self.order + _SHIFT_SUFFIX[self.shift]


class TauConst(Expr):
    __slots__ = ()


class Add(Expr):
    __slots__ = ("terms",)


class Mul(Expr):
    __slots__ = ("factors",)


class Neg(Expr):
    __slots__ = ("arg",)


class Div(Expr):
    __slots__ = ("num", "den")


class Pow(Expr):
    __slots__ = ("base", "exponent")  # exponent: int


class Func(Expr):
    __slots__ = ("name", "arg")


_INTERN: dict[tuple, Expr] = {}

# One shared int per distinct mask value, so nodes that read the same
# coordinates hold the same mask object.
_MASKS: dict[int, int] = {}


def _children(e: Expr) -> tuple[Expr, ...]:
    cls = type(e)
    if cls is Add:
        return e.terms
    if cls is Mul:
        return e.factors
    if cls is Neg or cls is Func:
        return (e.arg,)
    if cls is Div:
        return (e.num, e.den)
    if cls is Pow:
        return (e.base,)
    return ()


def _intern(key: tuple, cls: type, *fields) -> Expr:
    """The node interned under `key`; on a miss, a new `cls` node whose slots
    take `fields` in order, and whose `mask` has bit k set when its subtree
    reads the coordinate of slot k.  A key holds the node's children
    themselves, not their ids, so it keeps them alive and cannot alias a
    dead node; an `Add` or `Mul` key shares the node's own children tuple."""
    node = _INTERN.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        mask = 1 << node.index if cls is Sym else 0
        for c in _children(node):
            mask |= c.mask
        object.__setattr__(node, "mask", _MASKS.setdefault(mask, mask))
        _INTERN[key] = node
    return node


def _const_key(v: Number) -> tuple:
    if isinstance(v, Fraction):
        return ("c", "F", v.numerator, v.denominator)
    return ("c", "f", v.hex())


def const(v: Number) -> Const:
    if type(v) is int:  # the node of Fraction(v), looked up before making one
        node = _INTERN.get(("c", "F", v, 1))
        if node is not None:
            return node  # type: ignore[return-value]
        v = Fraction(v)
    elif isinstance(v, bool):
        raise TypeError("boolean is not a numeric constant")
    elif isinstance(v, int):
        v = Fraction(v)
    elif not isinstance(v, (float, Fraction)):
        raise TypeError(f"unsupported constant type {type(v).__name__}")
    return _intern(_const_key(v), Const, v)  # type: ignore[return-value]


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


# The 21 jet coordinates, one `Sym` atom each, in slot order; tau's slot follows.
SYMBOLS: list[Sym] = []
for _base in ("t", "q", "p"):
    for _order in range(1 if _base == "t" else 3):
        for _shift in (-1, 0, 1):
            SYMBOLS.append(_intern(("s", len(SYMBOLS)), Sym, _base, _shift, _order, len(SYMBOLS)))
_SYM_BY_KEY = {(s.base, s.shift, s.order): s for s in SYMBOLS}
SYMBOL_BY_NAME = {s.name: s for s in SYMBOLS}
TAU_INDEX = len(SYMBOLS)
NSLOTS = TAU_INDEX + 1


def symbol(base: str, shift: int, order: int = 0) -> Sym:
    try:
        return _SYM_BY_KEY[(base, shift, order)]
    except KeyError:
        raise ValueError(f"no jet symbol with base={base!r} shift={shift} order={order}")


def sym(key: Sym | str) -> Sym:
    """The coordinate atom that `key` is or names; `TypeError` for anything else."""
    s = SYMBOL_BY_NAME.get(key, key) if isinstance(key, str) else key
    if type(s) is not Sym:
        raise TypeError(f"not one of the {len(SYMBOLS)} jet coordinates: {key!r}")
    return s


TAU: TauConst = _intern(("tau",), TauConst)  # type: ignore[assignment]


def _is_const(e: Expr, value=None) -> bool:
    if type(e) is not Const:
        return False
    return value is None or e.value == value


def _folded(v: Number) -> Number:
    """A constant's value as `add` and `mul` fold it: an integer as an int.
    Mixed int, `Fraction` and float arithmetic gives the same values as
    all-`Fraction` arithmetic, so folds return the same nodes, and integer
    folds make no `Fraction` objects."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def add(*terms) -> Expr:
    flat: list[Expr] = []
    acc: Number = 0
    touched = False
    stack = [as_expr(t) for t in terms]
    for item in stack:
        parts = item.terms if type(item) is Add else (item,)
        for p in parts:
            if type(p) is Const:
                acc = acc + _folded(p.value)
                touched = True
            else:
                flat.append(p)
    if touched and acc != 0:
        flat.append(const(acc))
    if not flat:
        return const(acc)
    if len(flat) == 1:
        return flat[0]
    terms = tuple(flat)
    return _intern(("+", terms), Add, terms)


def neg(x) -> Expr:
    x = as_expr(x)
    if isinstance(x, Const):
        return const(-x.value)
    if isinstance(x, Neg):
        return x.arg
    return _intern(("neg", x), Neg, x)


def sub(a, b) -> Expr:
    return add(a, neg(b))


def mul(*factors) -> Expr:
    # Flattens one level, as `add` does: by construction a `Mul`'s factors
    # hold no `Mul` or `Neg`, and a `Neg`'s argument is no `Neg`.
    flat: list[Expr] = []
    coeff: Number = 1
    negative = False
    zero = False
    for f in factors:
        x = as_expr(f)
        if type(x) is Neg:
            negative = not negative
            x = x.arg
        for y in x.factors if type(x) is Mul else (x,):
            if type(y) is not Const:
                flat.append(y)
                continue
            v = _folded(y.value)
            if v == 0:
                zero = True
                coeff = coeff * v
                continue
            if v < 0:
                negative = not negative
                v = -v
            coeff = coeff * v
    if zero:
        return const(coeff * 0)
    parts = ([const(coeff)] if coeff != 1 else []) + flat
    if not parts:
        out: Expr = const(coeff)
    elif len(parts) == 1:
        out = parts[0]
    else:
        factors = tuple(parts)
        out = _intern(("*", factors), Mul, factors)
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
        out = _intern(("/", a, b), Div, a, b)
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
    return _intern(("^", base, exponent), Pow, base, exponent)


def _func(name: str, arg) -> Expr:
    a = as_expr(arg)
    return _intern(("fn", name, a), Func, name, a)


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

# One frozenset per distinct coordinate set, keyed by its mask.
_SYMBOLS_CACHE: dict[int, frozenset[Sym]] = {}


def symbols_of(e: Expr) -> frozenset[Sym]:
    """The coordinates that `e` reads: the atoms of the bits of its mask."""
    got = _SYMBOLS_CACHE.get(e.mask)
    if got is None:
        got = _SYMBOLS_CACHE[e.mask] = frozenset(s for s in SYMBOLS if e.mask >> s.index & 1)
    return got


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


# Keyed like `_PARTIAL_CACHE`, by the node itself and the direction.  A shift
# out of range is not stored, so it raises again on every call.
_SHIFT_CACHE: dict[tuple[Expr, int], Expr] = {}


def shift(e: Expr, direction: int) -> Expr:
    """Apply the forward (+1) or backward (-1) delay shift to every symbol."""
    if direction not in (-1, 1):
        raise ValueError("shift direction must be +1 or -1")
    return _shift(e, direction)


def _shift(e: Expr, direction: int) -> Expr:
    key = (e, direction)
    got = _SHIFT_CACHE.get(key)
    if got is None:
        if isinstance(e, Sym):
            if not -1 <= e.shift + direction <= 1:
                raise ShiftRangeError(e, direction)
            got = symbol(e.base, e.shift + direction, e.order)
        else:
            got = _rebuild(e, lambda x: _shift(x, direction))
        _SHIFT_CACHE[key] = got
    return got


def substitute(e: Expr, mapping: Mapping[Sym | str, Expr | Number]) -> Expr:
    """Replace symbols, keyed by atom or name, by expressions everywhere in `e`."""
    table = {sym(k).index: as_expr(v) for k, v in mapping.items()}
    memo: dict[int, Expr] = {}

    def rec(x: Expr) -> Expr:
        got = memo.get(id(x))
        if got is not None:
            return got
        if type(x) is Sym:
            out = table.get(x.index, x)
        else:
            out = _rebuild(x, rec)
        memo[id(x)] = out
        return out

    try:
        return rec(e)
    finally:
        del rec  # `rec` reaches itself through its closure; drop that cycle


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

_PARTIAL_CACHE: dict[tuple[Expr, int], Expr] = {}


def partial(e: Expr, s: Sym | str) -> Expr:
    """Partial derivative treating every jet symbol as an independent coordinate."""
    if type(s) is not Sym:
        s = sym(s)
    if not e.mask >> s.index & 1:
        return ZERO
    key = (e, s.index)
    got = _PARTIAL_CACHE.get(key)
    if got is not None:
        return got
    cls = type(e)
    if cls is Sym:
        out: Expr = ONE
    elif cls is Add:
        out = add(*[partial(c, s) for c in e.terms])
    elif cls is Neg:
        out = neg(partial(e.arg, s))
    elif cls is Mul:
        pieces = []
        for i, f in enumerate(e.factors):
            df = partial(f, s)
            if _is_const(df, 0):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            pieces.append(mul(df, *rest))
        out = add(*pieces)
    elif cls is Div:
        da = partial(e.num, s)
        db = partial(e.den, s)
        out = sub(div(da, e.den), div(mul(e.num, db), powi(e.den, 2)))
    elif cls is Pow:
        out = mul(e.exponent, powi(e.base, e.exponent - 1), partial(e.base, s))
    elif cls is Func:
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


_TOTAL_CACHE: dict[Expr, Expr] = {}
_SECOND_ORDER = sum(1 << s.index for s in SYMBOLS if s.order == 2)


def total_derivative(e: Expr) -> Expr:
    """Three-point total time derivative.

    All three time coordinates advance at unit rate; positions and momenta at
    every shift advance through their stored derivative symbols.  Input must
    not contain second-derivative symbols (the result would need third
    derivatives, which the jet space does not carry): `DerivativeOrderError`
    names the one in the lowest slot.
    """
    got = _TOTAL_CACHE.get(e)
    if got is not None:
        return got
    bad = e.mask & _SECOND_ORDER
    if bad:
        first = SYMBOLS[(bad & -bad).bit_length() - 1]
        raise DerivativeOrderError(
            f"total derivative of an expression containing {first.name} would "
            "need third derivatives"
        )
    terms = []
    for sh in (-1, 0, 1):
        terms.append(partial(e, symbol("t", sh, 0)))
        for base in ("q", "p"):
            d0 = partial(e, symbol(base, sh, 0))
            if not _is_const(d0, 0):
                terms.append(mul(symbol(base, sh, 1), d0))
            d1 = partial(e, symbol(base, sh, 1))
            if not _is_const(d1, 0):
                terms.append(mul(symbol(base, sh, 2), d1))
    out = add(*terms)
    _TOTAL_CACHE[e] = out
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
        return e.name, 100
    if isinstance(e, TauConst):
        return "tau", 100
    if isinstance(e, Add):
        first = e.terms[0]
        if isinstance(first, Neg):
            out = "-" + _render(first.arg, 16)
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

# The deepest nesting `parse` accepts, counting parentheses, function calls,
# parentheses in exponents and each division in a product (`a/b/c` nests its
# divisions in the tree): each level costs the recursive descent, or the
# recursive passes over the tree, a few Python frames, so any deeper input is
# a `ParseError` well before the interpreter's recursion limit.  Runs of unary
# minus signs do not nest.
MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.depth = 0
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

    def deeper(self, off: int) -> None:
        """Go one nesting level down; `ParseError` past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", off)
        self.depth += 1

    def nested(self, inner, off: int):
        """`inner()` one nesting level down, closed by ')'."""
        self.deeper(off)
        e = inner()
        self.expect_op(")")
        self.depth -= 1
        return e

    def minus_signs(self) -> bool:
        """Consume a run of '-' tokens; whether their count is odd."""
        odd = False
        while self.peek()[:2] == ("op", "-"):
            self.next()
            odd = not odd
        return odd

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
        depth = self.depth
        e = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                if text == "/":
                    self.deeper(off)
                rhs = self.unary()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                self.depth = depth
                return e

    def unary(self) -> Expr:
        negative = self.minus_signs()
        e = self.power()
        return neg(e) if negative else e

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return powi(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = -1 if self.minus_signs() else 1
        kind, text, off = self.next()
        if kind == "op" and text == "(":
            return sign * self.nested(self.exponent, off)
        if kind == "num" and re.fullmatch(r"\d+", text):
            return sign * int(text)
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
                return _FUNCTIONS[text](self.nested(self.expression, off))
            if text == "tau":
                return TAU
            if text in SYMBOL_BY_NAME:
                return SYMBOL_BY_NAME[text]
            raise UnknownIdentifierError(text, off)
        if kind == "op" and text == "(":
            return self.nested(self.expression, off)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expr:
    """Parse the surface grammar; round-trips with `to_source`."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# jet points and evaluation
# ---------------------------------------------------------------------------


class JetPoint:
    """Numeric values for the jet coordinates at one base time.

    The three time slots always satisfy tm = t - tau and tp = t + tau: t
    (or `t_value`) sets all three, and so does tm or tp given without t; given
    with t, they must agree with it.  All other coordinates are free (a jet
    point is off-shell unless constrained explicitly).
    """

    __slots__ = ("tau", "_vals")

    def __init__(self, tau_value: float, values: Mapping[str | Sym, float] | None = None,
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
            shifted = []  # tm and tp, checked once t is known
            for key, val in values.items():
                s = sym(key)
                val = float(val)
                if not math.isfinite(val):
                    raise ValueError(f"non-finite value for '{s.name}'")
                if s is t:
                    self._set_time(val)
                elif s is tm or s is tp:
                    shifted.append((s, val))
                else:
                    self._vals[s.index] = val
            for s, val in shifted:
                expected = self._vals[t.index] + s.shift * tau_value
                if math.isnan(expected):  # no t given: the shifted time sets it
                    self._set_time(val - s.shift * tau_value)
                elif abs(val - expected) > 1e-9 * (1 + abs(expected)):
                    raise ValueError(f"'{s.name}'={val} conflicts with t and tau (expected {expected})")

    @classmethod
    def from_slots(cls, slots: Iterable[float]) -> "JetPoint":
        """The jet whose slot vector is `slots` (e.g. one column of a slot array)."""
        vals = [float(v) for v in slots]
        out = cls.__new__(cls)
        object.__setattr__(out, "tau", vals[TAU_INDEX])
        object.__setattr__(out, "_vals", vals)
        return out

    def _set_time(self, t_value: float):
        self._vals[t.index] = t_value
        self._vals[tm.index] = t_value - self.tau
        self._vals[tp.index] = t_value + self.tau

    @property
    def t(self) -> float:
        return self._vals[t.index]

    def value(self, s: Sym | str) -> float:
        s = sym(s)
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


_FREE_SLOTS = [s.index for s in SYMBOLS if s.base != "t"]


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map unit draws in [0, 1) to [low, high) as numpy's `Generator.uniform` does."""
    return low + (high - low) * u


# Draw j of sample k of seed s is counter c = _DRAWS * k + j + 1 of SplitMix64
# (Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
# 2014) seeded with s: its finaliser applied to s + c * _GAMMA, top 53 bits as
# a unit float.  Sample indices stop short of 2**64 // _DRAWS, so no counter
# wraps; the uint64 array arithmetic itself wraps mod 2**64.

_DRAWS = 2 + len(_FREE_SLOTS)
_MASK32 = 0xFFFFFFFF
_SAMPLES_END = 2**64 // _DRAWS
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULT = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_DRAW_OFFSETS = np.arange(1, _DRAWS + 1, dtype=np.uint64)[:, None]


def _draw_units(seed: int, n: int, start: int) -> np.ndarray:
    """`(_DRAWS, n)` unit draws in [0, 1); column k holds those of sample `start + k`."""
    if n < 0 or start < 0 or start + n > _SAMPLES_END:
        raise ValueError(f"sample indices [{start}, {start + n}) are outside [0, 2**64 // {_DRAWS})")
    counters = (np.arange(n, dtype=np.uint64) + np.uint64(start)) * np.uint64(_DRAWS) + _DRAW_OFFSETS
    z = np.uint64(seed) + counters * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX_MULT[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX_MULT[1]
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _jet_slots(u: np.ndarray) -> np.ndarray:
    """`(NSLOTS, n)` jets from `(_DRAWS, n)` unit draws: tau, then t, then the free slots."""
    out = np.empty((NSLOTS, u.shape[1]))
    tau_values = _uniform(u[0], 0.3, 1.5)
    t_values = _uniform(u[1], -3.0, 3.0)
    out[TAU_INDEX] = tau_values
    out[tm.index] = t_values - tau_values
    out[t.index] = t_values
    out[tp.index] = t_values + tau_values
    out[_FREE_SLOTS] = _uniform(u[2:], -2.0, 2.0)
    return out


def random_jets(seed: int, n: int, start: int = 0) -> np.ndarray:
    """`(NSLOTS, n)` slot array of deterministic pseudo-random jet points.

    Column k is sample `start + k`: its 20 unit draws are counters of a
    SplitMix64 hash of `seed mod 2**32`, so it depends only on those two
    numbers, and the whole block is drawn in one vectorised pass.  Coordinate
    values are uniform in [-2, 2], tau in [0.3, 1.5], t in [-3, 3].  Sample
    indices must lie in [0, 2**64 // 20) (`ValueError` otherwise).  `seed`,
    `n` and `start` are integers, numpy's included; any other type, a float
    among them, is a `TypeError`.  The array is the caller's to modify.
    """
    seed, n, start = map(operator.index, (seed, n, start))
    return _jet_slots(_draw_units(seed & _MASK32, n, start))


def random_jet(seed: int, index: int = 0) -> JetPoint:
    """Sample `index` of `random_jets(seed, ...)` as a jet point."""
    return JetPoint.from_slots(random_jets(seed, 1, index)[:, 0])


def grid_slots(tau_value: float, rows: Mapping[Sym, np.ndarray]) -> np.ndarray:
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


# Both bind `inf` and `nan`, the source text of a non-finite constant.
_SCALAR_BINDING = {
    "inf": math.inf, "nan": math.nan,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_pow": operator.pow,
    "_max": max,
}
_ARRAY_BINDING = {
    "inf": math.inf, "nan": math.nan,
    "_sin": np.sin,
    "_cos": np.cos,
    "_exp": _elementwise(math.exp),
    "_pow": _elementwise(operator.pow),
    "_max": lambda *values: functools.reduce(np.maximum, values),
}

# Keyed by the roots' ids and the flag, so one root's key is `(id(e),
# with_magnitude)`; generated code inlining kernel lines (`compiled_source`)
# ends its key with a string tag instead.  Unlike the `_INTERN` and derivative
# cache keys, these keys hold ids, not nodes: they are sound only because
# `_INTERN` keeps every node alive, so no id is reused (the same holds for
# `_TAPED`).  A kernel whose only array use is its first one is never
# compiled (`_array_rows`), so a one-off tree adds no entry here: the one
# shared kernel of all residuals of a `check-identity` run (`zero_checks`),
# with each root's magnitude taken over its own subtree, is such a kernel.
_COMPILE_CACHE: dict[tuple, Callable] = {}

# Keys of the kernels `_array_rows` has run once as a tape; only the key is
# kept, not the tape.
_TAPED: set[tuple] = set()


# The head of a `_plan` step that computes a node's magnitude.
_MAGNITUDE = "magnitude"


def _plan(roots: tuple[Expr, ...], with_magnitude: bool = False) -> tuple[list, list[tuple[int, ...]]]:
    """The evaluation order of the roots' kernel as parallel lists `(heads,
    operands)`: every subtree of the roots once, children first and left to
    right, root by root.

    A step whose head is a node computes it from the values of the earlier
    steps `operands[s]`, its children.  With `with_magnitude`, the next step
    computes the node's magnitude, the largest |value| in its subtree: its
    head is `_MAGNITUDE` and its operands are the node's value and its
    children's magnitudes.  A step whose head is an int i stores its operand
    as row i: root j's value as row j and, with `with_magnitude`, its
    magnitude as row `len(roots) + j`, right after root j is complete.
    Only `kernel_lines` plans magnitudes; `_tape` plans values only and
    places the magnitudes itself (`_magnitude_rows`).

    The plan makes no work for the garbage collector, whose full
    collections walk every node `_INTERN` holds until `cli.main` freezes
    them at the end of a command: its steps are parallel lists rather than
    a tuple per step, since a tuple holding a node is tracked by the
    collector, and it leaves no reference cycle, so its lists are freed as
    soon as the kernel is built."""
    at: dict[int, int] = {}  # a node's id -> its value step
    magnitude: dict[int, int] = {}  # a value step -> its magnitude step
    heads: list = []
    operands: list[tuple[int, ...]] = []

    def visit(n: Expr) -> int:
        got = at.get(id(n))
        if got is None:
            reads = tuple(map(visit, _children(n)))
            got = at[id(n)] = len(heads)
            heads.append(n)
            operands.append(reads)
            if with_magnitude:
                magnitude[got] = len(heads)
                heads.append(_MAGNITUDE)
                operands.append((got, *map(magnitude.__getitem__, reads)))
        return got

    try:
        for j, root in enumerate(roots):
            got = visit(root)
            heads.append(j)
            operands.append((got,))
            if with_magnitude:
                heads.append(len(roots) + j)
                operands.append((magnitude[got],))
    finally:
        del visit  # `visit` reaches itself through its closure; drop that cycle
    return heads, operands


def _last_uses(operands: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """For each step of a `_plan`, the steps whose values it reads last."""
    last: dict[int, int] = {}
    for s, reads in enumerate(operands):
        for v in reads:
            last[v] = s
    dead: list[list[int]] = [[] for _ in operands]
    for v, s in last.items():
        dead[s].append(v)
    return list(map(tuple, dead))


def _double(value: Number) -> float:
    """A constant's value as a double, as the source and the tape read it: a
    rational beyond the double range rounds to +-inf, as IEEE conversion
    does, and every nan is `math.nan`."""
    try:
        v = float(value)
    except OverflowError:  # a Fraction; its sign gives the infinity's
        return math.inf if value > 0 else -math.inf
    return math.nan if v != v else v


def _node_source(n: Expr, args: list[str]) -> str:
    """The source of `n`'s value from its children's names `args`; `n` is
    not a slot read (`Sym` or `TauConst`)."""
    if isinstance(n, Const):
        return repr(_double(n.value))
    if isinstance(n, Add):
        return " + ".join(args)
    if isinstance(n, Mul):
        return "*".join(args)
    if isinstance(n, Neg):
        return f"-{args[0]}"
    if isinstance(n, Div):
        return " / ".join(args)
    if isinstance(n, Pow):
        return f"_pow({args[0]}, {n.exponent})"
    if isinstance(n, Func):
        return f"_{n.name}({args[0]})"
    raise TypeError(type(n).__name__)  # pragma: no cover


def kernel_lines(roots: Iterable[Expr], read: Callable[[int], str], store: Callable[[int], str],
                 with_magnitude: bool = False) -> list[str]:
    """Straight-line source of the roots' kernel, one line per step of
    `_plan`: step s computes `v<s>`, reading slot i as the source `read(i)`,
    or stores row j as `store(j) = ...` (a target such as `out[j]` or a
    local name).  Every name is deleted after its last use, except after the
    last line.  This is the source of every compiled kernel (`_many_source`)
    and of the right-hand side inlined into the solver's RK4 interval."""
    heads, operands = _plan(tuple(roots), with_magnitude)
    dead = _last_uses(operands)
    lines = []
    for s, (head, reads) in enumerate(zip(heads, operands)):
        args = [f"v{i}" for i in reads]
        if isinstance(head, int):
            lines.append(f"{store(head)} = {args[0]}")
        elif head is _MAGNITUDE:
            own = f"abs({args[0]})"
            lines.append(f"v{s} = _max({', '.join(args[1:])}, {own})" if args[1:] else f"v{s} = {own}")
        elif isinstance(head, Sym):
            lines.append(f"v{s} = {read(head.index)}")
        elif head is TAU:
            lines.append(f"v{s} = {read(TAU_INDEX)}")
        else:
            lines.append(f"v{s} = {_node_source(head, args)}")
        if dead[s] and s < len(heads) - 1:
            lines.append("del " + ", ".join(f"v{i}" for i in dead[s]))
    return lines


def _many_source(roots: tuple[Expr, ...], with_magnitude: bool = False) -> str:
    """Source of `_f(A, out)`: the `kernel_lines` of the roots over the slot
    vector `A`, storing row j to `out[j]`, then `return out`."""
    body = kernel_lines(roots, "A[{}]".format, "out[{}]".format, with_magnitude)
    return "def _f(A, out):\n    " + "\n    ".join([*body, "return out"]) + "\n"


# The tape's op per node type: its `kernel_lines` step on the array binding,
# as a function of the slot array, `out`, the node and its children's values.
_TAPE_OPS: dict[type, Callable] = {
    Const: lambda A, out, value: value,
    Sym: lambda A, out, n: A[n.index],
    TauConst: lambda A, out, n: A[TAU_INDEX],
    Add: lambda A, out, n, *terms: functools.reduce(operator.add, terms),
    Mul: lambda A, out, n, *factors: functools.reduce(operator.mul, factors),
    Neg: lambda A, out, n, x: -x,
    Div: lambda A, out, n, x, y: x / y,
    Pow: lambda A, out, n, x: _ARRAY_BINDING["_pow"](x, n.exponent),
    Func: lambda A, out, n, x: _ARRAY_BINDING["_" + n.name](x),
}


def _store(A, out, row, value):
    out[row] = value


# The most rows of a magnitude buffer that one max of a root's magnitude
# gathers at a time (`_run_tape`), so its copy stays small whatever the size
# of the root's subtree.
_GATHER = 256


# `_magnitude_rows`' kind of a plan step's head: a store, a `Neg`, or (0) a
# step that keeps its |value| in a row.
_ROW_KINDS = {int: 2, Neg: 1}


def _magnitude_rows(heads: list, operands: list[tuple[int, ...]], roots: int) -> tuple[list, int]:
    """Where a tape of the values-only `_plan` of `roots` roots keeps the
    magnitudes, as `(rows, size)` for `_tape`.

    A root's magnitude is the largest |value| in its subtree, so it is one
    max over the |values| of its subtree's steps.  Every value step but a
    `Neg` (|-x| is |x|, and x is in the subtree too) keeps its |value| in a
    row of a `(size, N)` buffer: `rows[s]` is that row.  Root j's store has
    `rows[s] = (roots + j, gathers)`: its magnitude's row of `out`, and the
    buffer rows of its subtree in chunks of at most `_GATHER`.  Every other
    step's row is None.  Rows are assigned statically, like registers: a
    step takes a free row when it runs and gives it back after the store of
    the last root whose subtree holds it.  A subtree is found once, as a bit
    mask of steps OR-ed up the plan."""
    masks: list[int] = []  # bit t of masks[s] is set when step t is in step s's subtree
    for s, reads in enumerate(operands):
        mask = 1 << s
        for v in reads:
            mask |= masks[v]
        masks.append(mask)
    kinds = np.array([_ROW_KINDS.get(type(head), 0) for head in heads], np.int8)
    stores = np.flatnonzero(kinds == 2).tolist()
    keep = kinds == 0
    kept = np.flatnonzero(keep)  # the steps that keep a row, in plan order
    width = len(heads) // 8 + 1
    packed = b"".join(masks[s].to_bytes(width, "little") for s in stores)
    member = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(roots, width), axis=1,
                           count=len(heads), bitorder="little").view(bool)[:, keep]
    last = (member * np.arange(roots)[:, None]).max(axis=0, initial=0)  # the last root holding a kept step
    given_back = np.argsort(last, kind="stable")  # kept steps by the root after whose store they free a row
    back = np.searchsorted(last, np.arange(roots + 1), sorter=given_back)
    own = np.searchsorted(kept, [-1, *stores])  # root j's own kept steps: own[j]:own[j + 1]
    row_of = np.empty(len(kept), np.intp)
    free: list[int] = []
    size = 0
    rows: list = [None] * len(heads)
    for j, s in enumerate(stores):
        a, b = own[j], own[j + 1]
        reuse = min(b - a, len(free))
        row_of[a:b] = free[:reuse] + list(range(size, size + b - a - reuse))
        size += b - a - reuse
        del free[:reuse]
        gather = row_of[member[j]]
        rows[s] = (roots + j, tuple(gather[k:k + _GATHER] for k in range(0, len(gather), _GATHER)))
        free += row_of[given_back[back[j]:back[j + 1]]].tolist()
    for s, row in zip(kept.tolist(), row_of.tolist()):
        rows[s] = row
    return rows, size


def _tape(roots: tuple[Expr, ...], with_magnitude: bool = False) -> tuple[list, list, list, list, list, int]:
    """The kernel of `_many_source` as a tape on the array binding: the
    parallel lists `(ops, heads, operands, frees, rows)` of the steps of the
    values-only `_plan`, and the magnitude buffer's row count.  Step s's
    value is `ops[s](A, out, heads[s], *values)` of the values of the steps
    `operands[s]` (None for a store); the values of the steps `frees[s]` are
    dropped after it, as the source's `del` lines drop them.

    With `with_magnitude`, `rows` places the magnitudes (`_magnitude_rows`):
    a step's |value| goes to a buffer row, and root j's magnitude is one max
    over the rows of its subtree at its store.  The compiled kernel builds
    the same magnitude node by node, as a max of |value| and the children's
    magnitudes; a max is exact and passes nan on, so the two give the same
    bits.  Without it, every row is None."""
    heads, operands = _plan(roots)
    ops = []
    rows, size = _magnitude_rows(heads, operands, len(roots)) if with_magnitude else ([None] * len(heads), 0)
    for s, head in enumerate(heads):
        if isinstance(head, int):
            ops.append(_store)
        else:
            ops.append(_TAPE_OPS[type(head)])
            if isinstance(head, Const):  # converted here, as `_node_source` converts it
                heads[s] = _double(head.value)
    return ops, heads, operands, _last_uses(operands), rows, size


def _run_tape(tape: tuple[list, list, list, list, list, int], slots: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run a `_tape` over a `(NSLOTS, N)` slot array into `out`: the bits
    and exceptions of the compiled array binding of the same kernel.  A
    step with a row writes its |value| there; a store with one takes its
    root's magnitude as the max over the gathered rows, `_GATHER` at a time."""
    ops, heads, operands, frees, rows, size = tape
    buffer = np.empty((size, slots.shape[1]))
    magnitudes, absolute = list(buffer), np.absolute
    values: list = []
    for op, head, reads, free, row in zip(ops, heads, operands, frees, rows):
        value = op(slots, out, head, *map(values.__getitem__, reads))
        values.append(value)
        if row.__class__ is int:
            absolute(value, magnitudes[row])
        elif row is not None:
            target, gathers = row
            np.max(buffer[gathers[0]], axis=0, out=out[target])
            for gather in gathers[1:]:
                np.maximum(out[target], buffer[gather].max(axis=0), out=out[target])
        for i in free:
            values[i] = None
    return out


def compiled_source(key: tuple, source: Callable[[], str], env: dict | None = None) -> Callable:
    """The function `_f` that `source()` defines, compiled once per `key`
    into `_COMPILE_CACHE`: `f` has the scalar binding and `env` as its
    globals, `f.array` the array binding and `env`.  Array evaluation
    compiles a kernel only on its second use (`_array_rows`)."""
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
    `len(roots) + j` its magnitude, the largest |value| of any subtree of
    root j.  Subtrees shared by the roots are computed once, each with its
    own operation order, and a magnitude is a max, which is exact, so every
    row has the bits of its root compiled alone.  `f` is the scalar binding
    (`slots` a list of floats, `out` a list); `f.array` binds the same source
    to a `(NSLOTS, N)` slot array and a `(rows, N)` float array, and gives
    the bits of the kernel's tape (`_tape`), which runs a kernel's first
    array use in its place.
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


def _check_slot_block(slots) -> None:
    """Check that `slots` is a slot block, a `(NSLOTS, N)` float64 numpy
    array: `TypeError` for any other type or dtype, `ValueError` for any
    other shape.  `evaluate_many` and `zero_checks` check every block here."""
    if not isinstance(slots, np.ndarray) or slots.dtype != np.float64:
        got = f"{slots.dtype} array" if isinstance(slots, np.ndarray) else type(slots).__name__
        raise TypeError(f"a slot block is a float64 numpy array, not a {got}")
    if slots.ndim != 2 or slots.shape[0] != NSLOTS:
        raise ValueError(f"a slot block has shape ({NSLOTS}, N), not {slots.shape}")


def _check_roots(roots: Iterable) -> tuple[Expr, ...]:
    """The roots as a tuple, checked to be expressions: a `TypeError` names
    the index of the first that is not an `Expr`.  `evaluate_many` and
    `zero_checks` check their roots here."""
    roots = tuple(roots)
    for j, root in enumerate(roots):
        if not isinstance(root, Expr):
            raise TypeError(f"root {j} is not an Expr ({type(root).__name__})")
    return roots


_ARRAY_ERRSTATE = dict(divide="raise", invalid="raise", over="ignore", under="ignore")


def _array_rows(roots: tuple[Expr, ...], slots: np.ndarray, with_magnitude: bool = False):
    """The roots' kernel on the array binding over `slots`: its `(rows, N)`
    array, all nan when the kernel raised a numeric error (numpy's divide
    and invalid raise; over- and underflow do not).

    The first array use of a kernel that is not compiled yet runs its tape
    and keeps only its key in `_TAPED`; a later use compiles it and runs
    `compiled_many(...).array`.  So a kernel that runs once costs no
    `compile()`, and one that is reused runs compiled.  Both give the same
    bits and raise the same errors.  With `with_magnitude`, row
    `len(roots) + j` is root j's magnitude, the largest |value| in its
    subtree: the tape takes it as one max over the subtree's rows of |value|
    (`_magnitude_rows`), the compiled kernel node by node."""
    key = (*map(id, roots), with_magnitude)
    if key in _TAPED or key in _COMPILE_CACHE:
        kernel = compiled_many(roots, with_magnitude).array
    else:
        _TAPED.add(key)
        kernel = functools.partial(_run_tape, _tape(roots, with_magnitude))
    out = np.empty((len(roots) * (1 + with_magnitude), slots.shape[1]))
    try:
        with np.errstate(**_ARRAY_ERRSTATE):
            return kernel(slots, out)
    except (OverflowError, ZeroDivisionError, ValueError, FloatingPointError):
        out.fill(math.nan)
        return out


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


def evaluate_many(roots: Iterable[Expr], slots: np.ndarray) -> np.ndarray:
    """`(len(roots), N)` array whose row j holds the values of `roots[j]` at
    every column of a `(NSLOTS, N)` slot array.

    One kernel (`compiled_many`) computes every distinct subtree of the roots
    once, and row j is bit-identical to `evaluate` of root j column by
    column.  A row that is not finite, every row when the kernel raised,
    re-runs its root jet by jet on the scalar binding, in root order, so the
    first failing root raises the `EvalError` of its first failing column.
    A `slots` that is not such an array is a `TypeError` (not a float64
    numpy array) or a `ValueError` (any other shape).  A root that is not an
    `Expr` is a `TypeError` naming the index of the first such root.
    """
    _check_slot_block(slots)
    roots = _check_roots(roots)
    out = _array_rows(roots, slots)
    for j in np.flatnonzero(~np.isfinite(out).all(axis=1)):
        out[j] = list(_scalar_columns(roots[j], slots))
    return out


class ZeroCheck(NamedTuple):
    ok: bool
    witness: JetPoint | None
    worst: float

    def __bool__(self) -> bool:  # type: ignore[override]
        return self.ok


def _zero_verdict(value: np.ndarray, magnitude: np.ndarray, tol: float,
                  jet_at: Callable[[int], JetPoint]) -> ZeroCheck:
    """Accept when |value| <= tol * (1 + magnitude) at every column; otherwise
    the first failing column's jet (`jet_at(k)`) is the witness."""
    ratio = np.abs(value) / (1.0 + magnitude)
    bad = ~(ratio <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        return ZeroCheck(False, jet_at(k), float(ratio[k]))
    return ZeroCheck(True, None, float(ratio.max(initial=0.0)))


def _scalar_zero_check(e: Expr, slots: np.ndarray, tol: float,
                       jet_at: Callable[[int], JetPoint]) -> ZeroCheck:
    """`_zero_verdict` of `e` on the scalar binding, column by column."""
    worst = 0.0
    for k, (value, mag) in enumerate(_scalar_columns(e, slots, True, jet_at)):
        ratio = abs(value) / (1.0 + mag)
        if not (ratio <= tol):
            return ZeroCheck(False, jet_at(k), ratio)
        worst = max(worst, ratio)
    return ZeroCheck(True, None, worst)


def zero_checks(roots: Iterable[Expr], slots: np.ndarray, tol: float = 1e-9,
                jet_at: Callable[[int], JetPoint] | None = None) -> list[ZeroCheck]:
    """Sampled zero check of every root over the columns of a `(NSLOTS, N)`
    slot array (e.g. on-shell jets), in one kernel.

    Root j is accepted when |value| <= tol * (1 + magnitude) at every column,
    where its magnitude is the largest |value| in its own subtree, so every
    root whose rows are finite gets the bits of its own one-root check.  The
    magnitude has that one definition on every binding: a kernel's first
    run, its tape, takes it as one max over the subtree's |values|, and a
    compiled kernel node by node, each with the same bits.  A
    root whose rows are not finite, every root when the kernel raised, is
    checked jet by jet on the scalar binding, in root order, so the first
    failing root raises its `EvalError`.  A witness is `jet_at(k)`, by
    default column k as a jet point.  A `slots` that is not such an array is
    a `TypeError` (not a float64 numpy array) or a `ValueError` (any other
    shape), and a block with no column or a `tol` that is not positive is a
    `ValueError`.  A root that is not an `Expr` is a `TypeError` naming the
    index of the first such root.
    """
    _check_slot_block(slots)
    if slots.shape[1] == 0:
        raise ValueError("a zero check needs at least one jet")
    if not tol > 0:
        raise ValueError("tol must be positive")
    roots = _check_roots(roots)
    jet_at = jet_at or (lambda k: JetPoint.from_slots(slots[:, k]))
    out = _array_rows(roots, slots, with_magnitude=True)
    n = len(roots)
    finite = np.isfinite(out).all(axis=1)
    return [
        _zero_verdict(out[j], out[n + j], tol, jet_at) if finite[j] and finite[n + j]
        else _scalar_zero_check(root, slots, tol, jet_at)
        for j, root in enumerate(roots)
    ]


def is_zero(e: Expr, samples: int = 100, tol: float = 1e-9, seed: int = 0) -> ZeroCheck:
    """Sampled check that `e` vanishes identically.

    Evaluates at `samples` seeded pseudo-random jet points and accepts when
    |value| <= tol * (1 + largest intermediate magnitude) at every point.  On
    failure the witness jet point is returned.  Sample k's randomness depends
    only on (seed, k), so how the samples are batched cannot change the
    verdict.
    """
    return zero_checks((e,), random_jets(seed, samples), tol)[0]


# no library caller; kept because bench/tracing.py wraps it by name
def is_zero_at(e: Expr, jets: Iterable[JetPoint], tol: float = 1e-9) -> ZeroCheck:
    """`zero_checks` of `e` over a list of jet points; a witness is one of them."""
    jets = list(jets)
    slots = np.array([jet._vals for jet in jets], dtype=float).reshape(len(jets), NSLOTS).T
    return zero_checks((e,), slots, tol, jets.__getitem__)[0]
