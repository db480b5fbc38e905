"""Tiny expression language for scalar coefficients in (t, x[, u]).

Grammar (standard precedence, ^ right-associative and binding tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers are restricted to the variables {t, x, u}, the constants
{pi, e} and the one-argument functions {sin, cos, exp, log, sqrt, abs,
tanh}.  There is no implicit multiplication: "2x" is a syntax error.

Evaluation accepts scalars or numpy arrays for the variables and is
total on the declared domain: division by zero and out-of-domain
function arguments raise EvalError rather than returning NaN.  A
CoefficientField returns a float array of its arguments' broadcast shape.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvalError, ExprSyntaxError, UnknownIdentifier

VARIABLES = ("t", "x", "u")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")


# ---------------------------------------------------------------------------
# AST nodes (immutable)

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, Bin, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ExprSyntaxError(bad_at, f"unexpected character {source[bad_at]!r}",
                                  expected={"number", "identifier", "operator"})
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(pos, f"expected {op!r}, found {text or 'end of input'!r}",
                              expected={op})

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, f"trailing input {text!r}", expected={"end of input"})
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in CONSTANTS:
                return Const(text)
            if text in VARIABLES:
                return Var(text)
            raise UnknownIdentifier(text, pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(pos, f"expected a value, found {text or 'end of input'!r}",
                              expected={"number", "identifier", "("})


def parse_expr(source: str) -> Expr:
    """Parse an expression string into an immutable AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse_expr to an identical AST)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(node: Expr) -> str:
    return _pretty(node, 0)


def _pretty(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        inner = _pretty(node.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, Call):
        return f"{node.fn}({_pretty(node.arg, 0)})"
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        # + and * are left-associative: the right child needs parens at equal
        # precedence; ^ is right-associative so the left child does.
        if node.op == "^":
            left = _pretty(node.left, prec + 1)
            right = _pretty(node.right, prec)
        else:
            left = _pretty(node.left, prec)
            right = _pretty(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation

def eval_expr(node: Expr, env: dict):
    """Evaluate an AST given a variable environment.

    Values may be scalars or numpy arrays; arithmetic broadcasts.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        if node.name not in env or env[node.name] is None:
            raise EvalError("missing_var", f"variable {node.name!r} not supplied")
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_expr(node.operand, env)
    if isinstance(node, Call):
        arg = eval_expr(node.arg, env)
        if node.fn == "log":
            if np.any(np.asarray(arg) <= 0):
                raise EvalError("domain", "log of non-positive value")
            return np.log(arg)
        if node.fn == "sqrt":
            if np.any(np.asarray(arg) < 0):
                raise EvalError("domain", "sqrt of negative value")
            return np.sqrt(arg)
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
              "abs": np.abs, "tanh": np.tanh}[node.fn]
        return fn(arg)
    if isinstance(node, Bin):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(np.asarray(right) == 0):
                raise EvalError("div_zero", "division by zero")
            return left / right
        if node.op == "^":
            la = np.asarray(left)
            ra = np.asarray(right)
            if np.any((la < 0) & (ra != np.floor(ra))):
                raise EvalError("domain", "negative base with non-integer exponent")
            if np.any((la == 0) & (ra < 0)):
                raise EvalError("div_zero", "zero base with negative exponent")
            return la ** ra
    raise TypeError(f"not an Expr node: {node!r}")


def free_vars(node: Expr) -> frozenset:
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, Neg):
        return free_vars(node.operand)
    if isinstance(node, Call):
        return free_vars(node.arg)
    if isinstance(node, Bin):
        return free_vars(node.left) | free_vars(node.right)
    return frozenset()


@dataclass(frozen=True)
class CoefficientField:
    """A parsed coefficient expression with an optional declared period.

    If period_T is set the field is evaluated at ``t mod period_T``
    (exact floating remainder), making the declared periodicity an
    enforced invariant rather than a user obligation.
    """

    expr: Expr
    period_T: float | None = None

    def __post_init__(self):
        if self.period_T is not None and not self.period_T > 0:
            raise ValueError("period_T must be positive")

    @classmethod
    def from_string(cls, source: str, period_T: float | None = None) -> "CoefficientField":
        return cls(parse_expr(source), period_T)

    def _reduce_t(self, t):
        if self.period_T is None:
            return t
        r = np.fmod(t, self.period_T)
        return np.where(r < 0, r + self.period_T, r)

    def __call__(self, t=None, x=None, u=None):
        """A float ndarray of the broadcast shape of the arguments given (0-d
        if all are scalars); a read-only view where the expression ignores one."""
        out = np.asarray(eval_expr(self.expr, {"t": None if t is None else self._reduce_t(t),
                                               "x": x, "u": u}), dtype=float)
        shape = np.broadcast(*(v for v in (t, x, u) if v is not None)).shape
        return out if out.shape == shape else np.broadcast_to(out, shape)

