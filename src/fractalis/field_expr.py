"""Scalar-field expressions in the variables x1..xk.

A tiny arithmetic language used to supply germ functions, scale functions
and base fields as text: numbers, variables ``x1..xk``, unary minus, the
binary operators ``+ - * / ^`` and the functions ``sin cos exp log abs
sqrt``. ``^`` is right-associative and binds tighter than ``*``/``/``,
which bind tighter than ``+``/``-``; unary minus sits between the two
groups, so ``-x1^2`` means ``-(x1^2)``.

Evaluation runs on numpy arrays only; a call at a point evaluates the
arrays of that one point. The one domain rule: a non-finite value in the
result raises FieldDomainError. A division by zero, the log of a
non-positive number and the sqrt of a negative one give such values; an
intermediate infinity that the expression maps back to a finite value, as
in ``1/(1/0)``, raises nothing.

Parsed expressions are immutable and evaluation is pure, so a single
FieldExpr may be evaluated from any number of threads.

``FieldExpr.polynomial`` gives the exact normal form of an expression
that is a polynomial as written: its coefficients as rationals, the
literals read as the doubles they parse to.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from ._fields import _Field, _full_shape

__all__ = [
    "FieldExpr",
    "FieldParseError",
    "FieldDomainError",
    "parse_field",
]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

# binding powers; ^ > unary minus > * / > + -
_BP_ADD = 10
_BP_UNARY = 15
_BP_MUL = 20
_BP_POW = 30


class FieldParseError(ValueError):
    """Syntax or name error in an expression, with source position."""

    def __init__(self, message: str, source: str, pos: int):
        super().__init__(f"{message} at position {pos}: {source!r}")
        self.pos = pos


class FieldDomainError(ArithmeticError):
    """Evaluation gave a non-finite value, as a division by zero, the sqrt
    of a negative or the log of a non-positive number does."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Func]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            if source[pos:].strip() == "":
                break
            raise FieldParseError("unexpected character", source, pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, arity: int):
        self.source = source
        self.arity = arity
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op: str):
        kind, text, pos = self.advance()
        if kind != "op" or text != op:
            raise FieldParseError(f"expected {op!r}", self.source, pos)

    def fail(self, message: str, pos: int):
        raise FieldParseError(message, self.source, pos)

    def expression(self, rbp: int) -> Node:
        left = self.prefix()
        while rbp < self.lbp():
            left = self.infix(left)
        return left

    def lbp(self) -> int:
        kind, text, _ = self.peek()
        if kind != "op":
            return 0
        return {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL, "^": _BP_POW}.get(text, 0)

    def prefix(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            return self.name(text, pos)
        if kind == "op" and text == "-":
            return Neg(self.expression(_BP_UNARY))
        if kind == "op" and text == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        self.fail("unexpected token" if kind != "end" else "unexpected end of input", pos)

    def infix(self, left: Node) -> Node:
        kind, op, pos = self.advance()
        if op == "^":
            # right-associative
            return BinOp("^", left, self.expression(_BP_POW - 1))
        return BinOp(op, left, self.expression(self.binding(op, pos)))

    def binding(self, op: str, pos: int) -> int:
        try:
            return {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL}[op]
        except KeyError:
            self.fail(f"unexpected operator {op!r}", pos)

    def name(self, text: str, pos: int) -> Node:
        if text in _FUNCTIONS:
            self.expect("(")
            arg = self.expression(0)
            self.expect(")")
            return Func(text, arg)
        m = re.fullmatch(r"x([1-9]\d*)", text)
        if m is None:
            self.fail(f"unknown identifier {text!r}", pos)
        index = int(m.group(1))
        if index > self.arity:
            self.fail(f"variable x{index} exceeds arity {self.arity}", pos)
        return Var(index)


def _eval_arrays(node: Node, coords: list) -> np.ndarray:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -_eval_arrays(node.arg, coords)
    if isinstance(node, Func):
        return _FUNCTIONS[node.name](_eval_arrays(node.arg, coords))
    a = _eval_arrays(node.left, coords)
    b = _eval_arrays(node.right, coords)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return np.power(a, b)


# Limits of the normal form that ``FieldExpr.polynomial`` forms: the degree
# in each variable, the number of coefficients, and the bits of any
# coefficient's numerator or denominator. Each product is checked against
# them before it is formed, so the work of one product stays bounded, and
# a power ^n of a non-constant base before any product.
_MAX_DEGREE = 16
_MAX_COEFFS = 1024
_MAX_BITS = 4096


def _poly(node: Node, arity: int):
    """The normal form of ``node`` as {exponent tuple: nonzero Fraction},
    or None when it is not a polynomial as written (a function, a division
    by a non-constant or by zero, a power other than a constant
    non-negative integer) or outgrows the limits above."""
    if isinstance(node, Num):
        if not math.isfinite(node.value):
            return None
        return {(0,) * arity: Fraction(node.value)} if node.value else {}
    if isinstance(node, Var):
        return {tuple(int(q == node.index - 1) for q in range(arity)): Fraction(1)}
    if isinstance(node, Func):
        return None
    if isinstance(node, Neg):
        arg = _poly(node.arg, arity)
        return None if arg is None else {e: -c for e, c in arg.items()}
    a, b = _poly(node.left, arity), _poly(node.right, arity)
    if a is None or b is None:
        return None
    if node.op in "+-":
        sign = 1 if node.op == "+" else -1
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + sign * c
        return {e: c for e, c in out.items() if c}
    if node.op == "*":
        return _product(a, b)
    constant = _constant(b)
    if constant is None:
        return None
    if node.op == "/":
        return None if constant == 0 else {e: c / constant for e, c in a.items()}
    # a power: the exponent must be a constant non-negative integer
    if constant < 0 or constant.denominator != 1:
        return None
    n = int(constant)
    if n and max(map(max, _degrees(a)), default=0) * n > _MAX_DEGREE:
        return None
    out = {(0,) * arity: Fraction(1)}
    while n:  # square and multiply
        if n & 1:
            out = _product(out, a)
        n >>= 1
        if n and out is not None:
            a = _product(a, a)
        if out is None or a is None:
            return None
    return out


def _constant(poly):
    """The value of a constant normal form, else None."""
    if not poly:
        return Fraction(0)
    if len(poly) == 1 and not any(next(iter(poly))):
        return next(iter(poly.values()))
    return None


def _degrees(poly):
    """The exponents of each variable in a nonempty normal form."""
    return zip(*poly)


def _bits(poly) -> int:
    """The most bits of a numerator or a denominator in a normal form."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.values()), default=0)


def _product(a, b):
    """The product of two normal forms, or None when it would pass a limit
    of the normal form: a degree above ``_MAX_DEGREE``, more than
    ``_MAX_COEFFS`` coefficients, or coefficients of more than
    ``_MAX_BITS`` bits."""
    if a and b:
        degrees = [max(ea) + max(eb) for ea, eb in zip(_degrees(a), _degrees(b))]
        if (max(degrees) > _MAX_DEGREE or math.prod(d + 1 for d in degrees) > _MAX_COEFFS
                or _bits(a) + _bits(b) > _MAX_BITS):
            return None
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@dataclass(frozen=True)
class FieldExpr(_Field):
    """A parsed scalar field on k variables.

    Instances are immutable; ``eval_arrays`` evaluates elementwise over
    numpy coordinate arrays (one array per variable, broadcasting against
    one another) and returns their broadcast shape, also for an expression
    that reads fewer variables or none. A call at a point (a sequence of k
    floats) is ``eval_arrays`` at that one point.
    """

    root: Node
    arity: int
    source: str

    def eval_arrays(self, coords) -> np.ndarray:
        if len(coords) != self.arity:
            raise ValueError(f"expected {self.arity} coordinate arrays, got {len(coords)}")
        with np.errstate(all="ignore"):
            out = _eval_arrays(self.root, list(coords))
        out = np.asarray(out, dtype=float)
        if not np.all(np.isfinite(out)):
            raise FieldDomainError(f"non-finite value while evaluating {self.source!r}")
        return _full_shape(out, coords)

    def polynomial(self):
        """The exact coefficient tensor of the expression, or None.

        The expression qualifies when it uses only ``+ - *``, powers
        ``^n`` by a constant non-negative integer n and division by a
        nonzero constant, and stays within the limits of the normal form:
        degree at most ``_MAX_DEGREE`` in each variable, at most
        ``_MAX_COEFFS`` coefficients, and factors of at most ``_MAX_BITS``
        bits between them in each product.
        Entry [i1, ..., ik] of the returned object array is the
        ``Fraction`` that multiplies x1^i1 * ... * xk^ik, as in
        ``TensorPolynomial``; every literal counts as the double it parses
        to, so the tensor is the polynomial that exact arithmetic on those
        doubles evaluates."""
        terms = _poly(self.root, self.arity)
        if terms is None:
            return None
        exps = list(terms) or [(0,) * self.arity]
        out = np.full([max(e[q] for e in exps) + 1 for q in range(self.arity)],
                      Fraction(0), dtype=object)
        if out.size > _MAX_COEFFS:
            return None
        for e, c in terms.items():
            out[e] = c
        return out

    def __repr__(self) -> str:
        return f"FieldExpr({self.source!r}, arity={self.arity})"


def parse_field(source: str, arity: int) -> FieldExpr:
    """Parse ``source`` into a FieldExpr over x1..x<arity>.

    Raises FieldParseError (with position) on bad syntax, unknown
    identifiers, or variable indices beyond ``arity``.
    """
    if not source or not source.strip():
        raise FieldParseError("empty expression", source, 0)
    if arity < 1:
        raise ValueError("arity must be >= 1")
    parser = _Parser(source, arity)
    root = parser.expression(0)
    kind, _, pos = parser.peek()
    if kind != "end":
        parser.fail("trailing input", pos)
    return FieldExpr(root, arity, source)
