"""Expression language: parsing, printing, evaluation, periodicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perifp.coeff_dsl import CONSTANTS, CoefficientField, eval_expr, parse_expr
from perifp.errors import EvalError, ExprSyntaxError, UnknownIdentifier


# ---------------------------------------------------------------------------
# parsing

def test_parse_polynomial():
    node = parse_expr("x*(1-x)")
    assert eval_expr(node, {"x": 0.5}) == 0.25
    assert eval_expr(node, {"x": 0.0}) == 0.0


def test_parse_standard_drift():
    node = parse_expr("sin(2*pi*t)*(1-2*x)")
    val = eval_expr(node, {"t": 0.25, "x": 0.0})
    assert val == pytest.approx(1.0, abs=1e-15)


def test_precedence_power_over_unary_minus():
    # -x^2 parses as -(x^2)
    assert eval_expr(parse_expr("-x^2"), {"x": 3.0}) == -9.0


def test_power_right_associative():
    # 2^3^2 = 2^(3^2) = 512
    assert eval_expr(parse_expr("2^3^2"), {}) == 512.0


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2x")


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_expr("y + 1")
    with pytest.raises(UnknownIdentifier):
        parse_expr("sinh(x)")


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x + * 2")
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError, match="unexpected character '\\$'") as exc:
        parse_expr("x $ 2")
    assert exc.value.position == 2


@pytest.mark.parametrize("source, position, literal", [
    ("1e400", 0, "1e400"),
    ("2*x + 1.8e308", 6, "1.8e308"),
    ("sin(  99999e99999)", 6, "99999e99999"),
])
def test_literal_that_overflows_is_a_syntax_error(source, position, literal):
    with pytest.raises(ExprSyntaxError, match=f"number '{literal}' is out of range") as exc:
        parse_expr(source)
    assert exc.value.position == position
    assert parse_expr("1e-400") == ("num", 0.0)     # underflow stays a finite number


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789.eE+-*/^() xtupisncoxlgqrabh$_\t", max_size=40))
def test_any_string_parses_or_raises_a_parse_error(source):
    try:
        node = parse_expr(source)
    except (ExprSyntaxError, UnknownIdentifier):
        return
    assert parse_expr(pretty(node)) == node


def test_empty_and_unbalanced():
    for bad in ("", "(x", "x)", "x +", "* x"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


@pytest.mark.parametrize("source, position", [
    ("(" * 300 + "x" + ")" * 300, 100),      # the 101st parenthesis
    ("-" * 1200 + "x", 100),
    ("+".join(["x"] * 1500), 200),            # the operand after the 100th '+'
], ids=["parentheses", "unary-minus", "long-sum"])
def test_nesting_past_the_depth_bound_is_a_syntax_error(source, position):
    # no RecursionError in the parser, nor later in eval_expr
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels") as exc:
        parse_expr(source)
    assert exc.value.position == position


def test_nesting_below_the_depth_bound_parses_and_evaluates():
    nest = parse_expr("(" * 64 + "x" + ")" * 64)
    assert eval_expr(nest, {"x": 0.25}) == 0.25
    total = parse_expr("+".join(["x"] * 64))
    assert eval_expr(total, {"x": 0.25}) == 16.0
    assert parse_expr(pretty(total)) == total


def test_constants_and_functions():
    assert eval_expr(parse_expr("pi"), {}) == pytest.approx(math.pi)
    assert eval_expr(parse_expr("e"), {}) == pytest.approx(math.e)
    # a constant is its number
    assert parse_expr("2*pi") == ("bin", "*", ("num", 2.0), ("num", math.pi))
    assert eval_expr(parse_expr("exp(1)"), {}) == pytest.approx(math.e)
    assert eval_expr(parse_expr("tanh(0)"), {}) == 0.0
    assert eval_expr(parse_expr("abs(-3)"), {}) == 3.0


# ---------------------------------------------------------------------------
# evaluation semantics

def test_eval_vectorized_over_arrays():
    node = parse_expr("x^2 + 1")
    xs = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(eval_expr(node, {"x": xs}), xs**2 + 1)


def test_eval_division_by_zero():
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expr("1/x"), {"x": 0.0})
    assert exc.value.kind == "div_zero"


def test_eval_domain_errors():
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expr("log(x)"), {"x": -1.0})
    assert exc.value.kind == "domain"
    with pytest.raises(EvalError):
        eval_expr(parse_expr("sqrt(x)"), {"x": -4.0})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("x^0.5"), {"x": -1.0})


def test_eval_missing_variable():
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expr("t + x"), {"t": 0.0})
    assert exc.value.kind == "missing_var"


def test_integer_power_of_negative_base():
    assert eval_expr(parse_expr("x^3"), {"x": -2.0}) == -8.0


# ---------------------------------------------------------------------------
# pretty printing (round-trips through parse_expr to an identical tree)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(node: tuple) -> str:
    return _pretty(node, 0)


def _pretty(node: tuple, parent_prec: int) -> str:
    match node:
        case ("num", value):
            return repr(value)
        case ("var", name):
            return name
        case ("neg", operand):
            text = f"-{_pretty(operand, _PREC['neg'])}"
            return f"({text})" if parent_prec > _PREC["neg"] else text
        case ("call", fn, arg):
            return f"{fn}({_pretty(arg, 0)})"
        case ("bin", op, left, right):
            prec = _PREC[op]
            # + and * are left-associative: the right child needs parens at
            # equal precedence; ^ is right-associative so the left child does.
            if op == "^":
                text = f"{_pretty(left, prec + 1)} {op} {_pretty(right, prec)}"
            else:
                text = f"{_pretty(left, prec)} {op} {_pretty(right, prec + 1)}"
            return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression tree: {node!r}")


_leaf = st.one_of(
    st.tuples(st.just("num"), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.tuples(st.just("var"), st.sampled_from(["t", "x", "u"])),
    st.sampled_from(["pi", "e"]).map(lambda k: ("num", CONSTANTS[k])),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("bin"), st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
        st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp", "tanh", "abs"]), sub),
    )


@settings(max_examples=100, deadline=None)
@given(_exprs(6))
def test_pretty_parse_round_trip(node):
    assert parse_expr(pretty(node)) == node


def test_node_equality_is_structural_and_typed():
    # a tree equals a tree of its own kind with equal fields, and hashes alike;
    # it never equals a tree of another kind built from the same fields, nor
    # the bare tuple of its fields, so the round trip above checks every kind
    assert parse_expr("-(x + 1)") == ("neg", ("bin", "+", ("var", "x"), ("num", 1.0)))
    assert hash(parse_expr("x ^ 2")) == hash(("bin", "^", ("var", "x"), ("num", 2.0)))
    assert ("var", "x") != ("num", "x")
    assert ("num", ("var", "x")) != ("neg", ("var", "x"))
    assert ("num", 1.0) != (1.0,) and (1.0,) != ("num", 1.0)
    assert ("call", "sin", ("var", "x")) != ("sin", ("var", "x"))
    assert ("bin", "+", ("var", "x"), ("num", 1.0)) != ("bin", "+", ("num", 1.0), ("var", "x"))
    assert repr(parse_expr("x + 1")) == "('bin', '+', ('var', 'x'), ('num', 1.0))"
    with pytest.raises(TypeError):
        parse_expr("1")[1] = 2.0
    for bad in [("const", 1.0), ("num",), ("bin", "+", ("num", 1.0)), "x", 1.0]:
        with pytest.raises(TypeError, match="not an expression tree"):
            eval_expr(bad, {})


@settings(max_examples=100, deadline=None)
@given(_exprs(4),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_round_trip_preserves_values(node, t, x, u):
    env = {"t": t, "x": x, "u": u}
    try:
        expected = eval_expr(node, env)
    except EvalError:
        return
    got = eval_expr(parse_expr(pretty(node)), env)
    if np.isfinite(expected):
        assert got == expected  # identical tree, identical arithmetic


# ---------------------------------------------------------------------------
# periodic coefficient fields

def test_field_periodic_reduction():
    f = CoefficientField.from_string("t", period_T=1.0)
    assert float(f(t=2.5)) == 0.5
    assert float(f(t=-0.25)) == 0.75


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-2**20, max_value=2**20),
       st.integers(min_value=-5, max_value=5))
def test_field_exact_periodicity_on_dyadics(k, n):
    # dyadic times make t + n*T exact in floating point
    f = CoefficientField.from_string("sin(2*pi*t) + t^2", period_T=1.0)
    t = k / 2.0**10
    assert float(f(t=t)) == float(f(t=t + n * 1.0))


def test_field_aperiodic_when_no_period_declared():
    f = CoefficientField.from_string("t")
    assert float(f(t=2.5)) == 2.5


def test_field_determinism():
    f = CoefficientField.from_string("sin(2*pi*t)*(1-2*x)", period_T=1.0)
    xs = np.linspace(0, 1, 33)
    a = np.asarray(f(t=0.3, x=xs))
    b = np.asarray(f(t=0.3, x=xs))
    assert np.array_equal(a, b)


def test_field_rejects_undeclared_vars():
    f = CoefficientField.from_string("x + 1")
    with pytest.raises(EvalError):
        f(t=0.0)  # x missing


@pytest.mark.parametrize("source, reads", [
    ("2.5", set()), ("pi", set()), ("t", {"t"}), ("x", {"x"}), ("u", {"u"}),
    ("-x", {"x"}), ("sqrt(u)", {"u"}), ("t*x", {"t", "x"}), ("x^u - t", {"t", "x", "u"}),
    ("exp(-(e + 2)/3)", set()), ("sin(2*pi*t)*(1 - 2*x)", {"t", "x"}),
])
def test_field_reads_the_variables_of_its_tree(source, reads):
    # num, var, neg, call and bin trees
    assert CoefficientField.from_string(source).reads == reads


@pytest.mark.parametrize("source", ["2.5", "-pi/4", "exp(1)*2^-3"])
def test_constant_field_is_one_read_only_value(source):
    # evaluated once: every call is a read-only view of the value of the
    # tree, in the broadcast shape of the arguments, for any t
    f = CoefficientField.from_string(source, period_T=1.0)
    value = np.asarray(eval_expr(parse_expr(source), {}), dtype=float)
    for kwargs, shape in [({"t": 0.3}, ()), ({"t": 7.5, "x": np.zeros(4)}, (4,)),
                          ({"t": np.zeros((3, 1)), "x": np.zeros(4), "u": 1.0}, (3, 4))]:
        out = f(**kwargs)
        assert out.dtype == np.float64 and out.shape == shape
        assert not out.flags.writeable
        assert out.tobytes() == np.broadcast_to(value, shape).tobytes()
        with pytest.raises(ValueError):
            out[...] = 0.0
    assert float(f(t=0.0)) == float(value)


@pytest.mark.parametrize("source, kind, message", [
    ("1/0", "div_zero", "division by zero"),
    ("log(0)", "domain", "log of non-positive value"),
    ("sqrt(-1)", "domain", "sqrt of negative value"),
    ("(-1)^0.5", "domain", "negative base with non-integer exponent"),
    ("0^(-1)", "div_zero", "zero base with negative exponent"),
])
def test_failing_constant_raises_at_every_call(source, kind, message):
    f = CoefficientField.from_string(source, period_T=1.0)
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            f(t=0.0, x=np.zeros(3))
        assert exc.value.kind == kind and str(exc.value) == f"{kind}: {message}"


@pytest.mark.parametrize("source", ["1", "t", "x", "u", "t*x"])
def test_field_returns_float_array_of_broadcast_shape(source):
    # every call returns a float ndarray shaped like the broadcast of the
    # arguments given, whichever of them the expression uses
    f = CoefficientField.from_string(source, period_T=1.0)
    ts = np.array([[0.0], [0.25], [0.5]])
    xs = np.linspace(0.0, 1.0, 4)
    us = np.arange(4)                    # integer input still gives floats
    for t, x, u, shape in [(0.25, 0.5, 2, ()), (ts, 0.5, 2, (3, 1)),
                           (0.25, xs, 2, (4,)), (0.25, 0.5, us, (4,)),
                           (ts, xs, 2, (3, 4)), (ts, xs, us, (3, 4))]:
        out = f(t=t, x=x, u=u)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert out.shape == shape
        expected = {"1": 1.0, "t": t, "x": x, "u": u, "t*x": np.multiply(t, x)}[source]
        np.testing.assert_array_equal(out, np.broadcast_to(expected, shape))
