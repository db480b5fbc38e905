"""Tiny expression language for scalar coefficients in (t, x[, u]).

Grammar (standard precedence, ^ right-associative and binding tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers are restricted to the variables {t, x, u}, the constants
{pi, e} (parsed as their numbers) and the one-argument functions {sin,
cos, exp, log, sqrt, abs, tanh}.  There is no implicit multiplication:
"2x" is a syntax error, and so is a number literal that overflows.

Evaluation accepts scalars or numpy arrays for the variables and is
total on the declared domain: division by zero and out-of-domain
function arguments raise EvalError rather than returning NaN.  A
CoefficientField returns a float array of its arguments' broadcast shape.
It knows the variables its tree reads: an expression that reads none is
evaluated once, and one that does not read t skips the period reduction.

A tree is a tuple tagged with its kind: ("num", value), ("var", name),
("neg", operand), ("bin", op, left, right) with op one of + - * / ^, or
("call", fn, arg); its equality, hashing and immutability are the tuple's.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import EvalError, ExprSyntaxError, UnknownIdentifier

VARIABLES = ("t", "x", "u")
CONSTANTS = {"pi": math.pi, "e": math.e}


def _checked(fn, *rules):
    """fn behind its domain rules (outside, kind, message), checked in order:
    EvalError(kind, message) where outside(*args) holds anywhere."""
    def call(*args):
        arrays = [np.asarray(a) for a in args]
        for outside, kind, message in rules:
            if np.any(outside(*arrays)):
                raise EvalError(kind, message)
        return fn(*args)
    return call


FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "tanh": np.tanh,
             "log": _checked(np.log, (lambda a: a <= 0, "domain", "log of non-positive value")),
             "sqrt": _checked(np.sqrt, (lambda a: a < 0, "domain", "sqrt of negative value"))}
# the plain Python operators: numpy's ufuncs would warn on a scalar overflow
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": _checked(operator.truediv, (lambda a, b: b == 0, "div_zero", "division by zero")),
             "^": _checked(lambda a, b: np.asarray(a) ** np.asarray(b),
                           (lambda a, b: (a < 0) & (b != np.floor(b)), "domain",
                            "negative base with non-integer exponent"),
                           (lambda a, b: (a == 0) & (b < 0), "div_zero",
                            "zero base with negative exponent"))}

# operands nest one level per parenthesis, call, unary minus, power and
# chained + - * / operator: bounds the parser's recursion and the tree depth
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)
# binary operator levels, loosest first; each is a left-associative chain
_LEVELS = ("+-", "*/")


def _tokenize(source: str):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(m.start(kind), f"unexpected character {m[kind]!r}")
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def accept(self, ops):
        """Consume the next token and return its text if it is one of ops."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.i += 1
            return text
        return None

    def expect_op(self, op):
        if not self.accept(op):
            _, text, pos = self.peek()
            raise ExprSyntaxError(pos, f"expected {op!r}, found {text or 'end of input'!r}")

    def parse(self) -> tuple:
        node = self.chain()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, f"trailing input {text!r}")
        return node

    def chain(self, level=0) -> tuple:
        if level == len(_LEVELS):
            return self.unary()
        depth = self.depth
        node = self.chain(level + 1)
        while op := self.accept(_LEVELS[level]):
            self.depth += 1     # the chain so far is the left operand
            node = ("bin", op, node, self.chain(level + 1))
        self.depth = depth
        return node

    def unary(self) -> tuple:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(self.peek()[2], f"nested deeper than {MAX_DEPTH} levels")
        node = ("neg", self.unary()) if self.accept("-") else self.power()
        self.depth -= 1
        return node

    def power(self) -> tuple:
        base = self.atom()
        return ("bin", "^", base, self.unary()) if self.accept("^") else base

    def atom(self) -> tuple:
        kind, text, pos = self.peek()
        self.i += 1
        if kind == "num":
            if not math.isfinite(value := float(text)):
                raise ExprSyntaxError(pos, f"number {text!r} is out of range")
            return ("num", value)
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.chain()
                self.expect_op(")")
                return ("call", text, arg)
            if text in CONSTANTS:
                return ("num", CONSTANTS[text])
            if text in VARIABLES:
                return ("var", text)
            raise UnknownIdentifier(text)
        if kind == "op" and text == "(":
            node = self.chain()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(pos, f"expected a value, found {text or 'end of input'!r}")


def parse_expr(source: str) -> tuple:
    """Parse an expression string into a tree."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Evaluation

def eval_expr(node: tuple, env: dict):
    """Evaluate a tree given a variable environment.

    Values may be scalars or numpy arrays; arithmetic broadcasts.
    """
    match node:
        case ("bin", op, left, right):
            return OPERATORS[op](eval_expr(left, env), eval_expr(right, env))
        case ("var", name):
            if env.get(name) is None:
                raise EvalError("missing_var", f"variable {name!r} not supplied")
            return env[name]
        case ("num", value):
            return value
        case ("call", fn, arg):
            return FUNCTIONS[fn](eval_expr(arg, env))
        case ("neg", operand):
            return -eval_expr(operand, env)
    raise TypeError(f"not an expression tree: {node!r}")


def _reads(node: tuple) -> frozenset:
    match node:
        case ("bin", _, left, right):
            return _reads(left) | _reads(right)
        case ("var", name):
            return frozenset((name,))
        case ("call", _, operand) | ("neg", operand):
            return _reads(operand)
    return frozenset()


class CoefficientField:
    """A parsed coefficient expression with an optional declared period.

    If period_T is set the field is evaluated at ``t mod period_T``
    (exact floating remainder), making the declared periodicity an
    enforced invariant rather than a user obligation.  ``reads`` is the
    set of variables the expression reads; ``folded`` is the read-only
    value of one that reads none, computed once (else None).
    """

    def __init__(self, expr: tuple, period_T: float | None = None):
        if period_T is not None and not period_T > 0:
            raise ValueError("period_T must be positive")
        self.expr, self.period_T, self.reads, self.folded = expr, period_T, _reads(expr), None
        if not self.reads:
            # a constant that fails or overflows is left to every call, which
            # raises or warns as an unfolded expression does
            try:
                with np.errstate(all="raise"):
                    value = np.asarray(eval_expr(expr, {}), dtype=float)
            except (EvalError, FloatingPointError):
                pass
            else:
                value.flags.writeable = False
                self.folded = value

    @classmethod
    def from_string(cls, source: str, period_T: float | None = None) -> "CoefficientField":
        return cls(parse_expr(source), period_T)

    def _reduce_t(self, t):
        if self.period_T is None or "t" not in self.reads:
            return t
        r = np.fmod(t, self.period_T)
        return np.where(r < 0, r + self.period_T, r)

    def __call__(self, t=None, x=None, u=None):
        """A float ndarray of the broadcast shape of the arguments given (0-d
        if all are scalars); a read-only view where the expression ignores one."""
        shape = np.broadcast(*(v for v in (t, x, u) if v is not None)).shape
        if self.folded is not None:
            # the one folded value, strided 0 along every axis
            return np.ndarray(shape, float, buffer=self.folded, strides=(0,) * len(shape))
        out = np.asarray(eval_expr(self.expr, {"t": None if t is None else self._reduce_t(t),
                                               "x": x, "u": u}), dtype=float)
        return out if out.shape == shape else np.broadcast_to(out, shape)
