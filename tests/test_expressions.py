import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otlab.expressions import MAX_DEPTH, Expression, ExpressionError

FUNCTIONS = ("sin", "cos", "tan", "exp", "sqrt", "tanh", "abs", "log")


def test_constants_and_coordinates():
    pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    assert Expression("2.5")(pts).tolist() == [2.5, 2.5]
    assert Expression("x1")(pts).tolist() == [1.0, 0.5]
    assert Expression("x3")(pts).tolist() == [3.0, 0.0]
    # aliases
    assert Expression("y")(pts).tolist() == [2.0, -1.0]


def test_arithmetic_precedence():
    pts = np.array([[2.0, 3.0, 4.0]])
    assert Expression("1 + 2*x1**2")(pts)[0] == pytest.approx(9.0)
    assert Expression("(1 + 2*x1)**2")(pts)[0] == pytest.approx(25.0)
    assert Expression("-x1**2")(pts)[0] == pytest.approx(-4.0)
    assert Expression("6/x1/3")(pts)[0] == pytest.approx(1.0)
    assert Expression("2**-1")(pts)[0] == pytest.approx(0.5)


def test_functions_and_pi():
    pts = np.array([[0.25, 0.0, 0.0]])
    assert Expression("sin(pi*x1)")(pts)[0] == pytest.approx(math.sin(math.pi / 4))
    assert Expression("exp(-x1)*sqrt(4)")(pts)[0] == pytest.approx(2 * math.exp(-0.25))
    assert Expression("tanh(x1) + abs(-2)")(pts)[0] == pytest.approx(math.tanh(0.25) + 2)


def test_single_point_convenience():
    assert Expression("x1 + x2")(np.array([1.0, 2.0, 0.0]))[0] == pytest.approx(3.0)


def test_rejects_unknown_names_and_bad_syntax():
    with pytest.raises(ExpressionError):
        Expression("__import__('os')")
    with pytest.raises(ExpressionError):
        Expression("foo(x1)")
    with pytest.raises(ExpressionError):
        Expression("x4", dimension=3)
    with pytest.raises(ExpressionError):
        Expression("1 +")
    with pytest.raises(ExpressionError):
        Expression("(1 + 2")
    with pytest.raises(ExpressionError):
        Expression("1 2")
    # Python syntax outside the grammar, and trees too deep to parse or compile
    for text in ("x1[0]", "x1.real", "1j", "True", "x1 % 2", "lambda: 1", "sin(x=1)", "x0",
                 "sin(x1, x2)", "sin", "sin(*x1)", "x1 < 2", "'1'", "None", "", "1" * 400, "x1 # 2",
                 "-" * 3000 + "1", "+".join(["x1"] * 3000), "-" * (MAX_DEPTH + 1) + "x1"):
        with pytest.raises(ExpressionError):
            Expression(text)


def test_python_literal_forms_and_trailing_space():
    pts = np.array([[0.5, 0.0, 0.0]])
    for text, value in (("1 ", 1.0), ("0x10", 16.0), ("1_000", 1000.0), ("2.5e-1", 0.25), (" x\t", 0.5)):
        assert Expression(text)(pts).tolist() == [value]


def test_depth_cap_is_inclusive():
    assert Expression("-" * MAX_DEPTH + "x1")(np.array([[2.0, 0, 0]])).tolist() == [2.0]


def _oracle(text, pts):
    """Python's own evaluation of ``text``, numpy functions on coordinate columns."""
    names = {f: getattr(np, f) for f in FUNCTIONS}
    names.update(pi=math.pi, e=math.e)
    for i, alias in enumerate("xyz"):
        names[alias] = names[f"x{i + 1}"] = pts[:, i]
    return eval(text, {"__builtins__": {}}, names)


_leaves = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "x", "y", "z", "pi", "e"]),
    st.floats(0.0, 10.0).map(repr),  # floats, so the oracle never builds a huge int power
)


def _extend(children):
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**"]), children)
    return st.one_of(
        binary.map(" ".join),
        binary.map(lambda t: "(" + " ".join(t) + ")"),
        st.tuples(st.sampled_from(["+", "-"]), children).map("".join),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})"),
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=st.recursive(_leaves, _extend, max_leaves=12))
def test_grammar_corpus_matches_python(text):
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (16, 3))
    with np.errstate(all="ignore"):
        try:
            expected = _oracle(text, pts)
        except (ArithmeticError, ValueError):  # e.g. 0.0 ** -1.0 or float overflow in Python
            return
        got = Expression(text)(pts)
    expected = np.broadcast_to(expected, got.shape)
    if np.iscomplexobj(expected):  # a negative float to a fractional power, in Python
        return
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0, equal_nan=True)
