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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


def _precedence(node: Node) -> int:
    if isinstance(node, BinOp):
        return {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL, "^": _BP_POW}[node.op]
    if isinstance(node, Neg):
        return _BP_UNARY
    return 100


def _to_source(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = _to_source(node.arg)
        if _precedence(node.arg) < 100:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Func):
        return f"{node.name}({_to_source(node.arg)})"
    prec = _precedence(node)
    left = _to_source(node.left)
    right = _to_source(node.right)
    # parenthesize whenever the child binds no tighter than this node; keeps
    # the printer trivially re-parseable for - / ^ without special cases
    if _precedence(node.left) <= prec:
        left = f"({left})"
    if _precedence(node.right) <= prec:
        right = f"({right})"
    return f"{left} {node.op} {right}"


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

    def to_source(self) -> str:
        """Render back to text; re-parsing yields an expression with
        identical evaluations."""
        return _to_source(self.root)

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
