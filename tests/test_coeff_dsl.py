"""Expression language: parsing, printing, evaluation, periodicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perifp.coeff_dsl import (Bin, Call, CoefficientField, Const, Neg, Num, Var,
                              eval_expr, free_vars, parse_expr, pretty)
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


def test_empty_and_unbalanced():
    for bad in ("", "(x", "x)", "x +", "* x"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


def test_constants_and_functions():
    assert eval_expr(parse_expr("pi"), {}) == pytest.approx(math.pi)
    assert eval_expr(parse_expr("e"), {}) == pytest.approx(math.e)
    assert eval_expr(parse_expr("exp(1)"), {}) == pytest.approx(math.e)
    assert eval_expr(parse_expr("tanh(0)"), {}) == 0.0
    assert eval_expr(parse_expr("abs(-3)"), {}) == 3.0


def test_free_vars():
    assert free_vars(parse_expr("sin(2*pi*t)*(1-2*x)")) == {"t", "x"}
    assert free_vars(parse_expr("u*(1-u)")) == {"u"}
    assert free_vars(parse_expr("pi + 1")) == set()


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
# pretty printing round trip

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from(["t", "x", "u"]).map(Var),
    st.sampled_from(["pi", "e"]).map(Const),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        sub.map(Neg),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "tanh", "abs"]), sub),
    )


@settings(max_examples=100, deadline=None)
@given(_exprs(6))
def test_pretty_parse_round_trip(node):
    assert parse_expr(pretty(node)) == node


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
        assert got == expected  # identical AST, identical arithmetic


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
