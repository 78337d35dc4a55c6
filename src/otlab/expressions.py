"""Coefficient expressions: a small subset of Python arithmetic.

Media and boundary data can be given as expressions over the coordinates
``x1 .. xn`` (``x, y, z`` are aliases for ``x1, x2, x3``).  The text is
parsed by ``ast.parse(text, mode="eval")`` and the tree is compiled, node by
node, into numpy closures; Python never evaluates it.  Accepted nodes:

    numeric literals: any Python int or float form (2, 2.5e-3, 0x10, 1_000)
    names: x1 .. xn, x, y, z and the constants pi, e
    operators: a + b, a - b, a * b, a / b, a ** b, +a, -a
    calls: f(a) with one positional argument, f one of
           sin, cos, tan, exp, sqrt, tanh, abs, log

with Python's precedence and associativity (``-x**2`` is ``-(x**2)``, ``**``
binds to the right), on one line; space around it is ignored.  Anything
else (attributes, subscripts, keywords, bool or complex literals, other
operators, comments) raises ``ExpressionError`` when the expression is
built, and so does a tree nested deeper than ``MAX_DEPTH`` levels or too
deep for the parser.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

_FUNCTIONS = {f: getattr(np, f) for f in ("sin", "cos", "tan", "exp", "sqrt", "tanh", "abs", "log")}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_ALIASES = {"x": "x1", "y": "x2", "z": "x3"}

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}

# keeps both the compiling walk and the evaluating closures far from
# Python's recursion limit, whatever the caller's stack depth
MAX_DEPTH = 100


class ExpressionError(ValueError):
    pass


def _constant(value: float):
    return lambda points: np.full(points.shape[0], value)


class Expression:
    """Parsed coefficient expression, callable on point arrays."""

    def __init__(self, text: str, dimension: int = 3):
        self.text = text
        self.dimension = dimension
        if "#" in text:  # Python would drop the rest of the line
            raise ExpressionError(f"comments are not allowed in expression {text!r}")
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
        self._eval = self._compile(tree.body, 0)

    def _compile(self, node, depth: int):
        """Closure points -> values for ``node``.  Constants are full arrays,
        so every operator acts on two arrays, operands left first."""
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression {self.text!r} is nested deeper than {MAX_DEPTH} levels")
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:
                return _constant(float(node.value))
            except OverflowError:
                raise ExpressionError(f"literal too large in expression {self.text!r}") from None
        if isinstance(node, ast.Name):
            name = _ALIASES.get(node.id, node.id)
            if name in _CONSTANTS:
                return _constant(_CONSTANTS[name])
            coord = re.fullmatch(r"x(\d+)", name)
            if coord and 1 <= int(coord.group(1)) <= self.dimension:
                axis = int(coord.group(1)) - 1
                return lambda points: points[:, axis]
            raise ExpressionError(
                f"unknown name {node.id!r} in expression {self.text!r} "
                f"(coordinates are x1..x{self.dimension})"
            )
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = self._compile(node.operand, depth + 1)
            if isinstance(node.op, ast.UAdd):
                return operand
            return lambda points: -operand(points)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op = _BINARY[type(node.op)]
            lhs, rhs = self._compile(node.left, depth + 1), self._compile(node.right, depth + 1)
            return lambda points: op(lhs(points), rhs(points))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and len(node.args) == 1
            and not node.keywords
        ):
            func, arg = _FUNCTIONS[node.func.id], self._compile(node.args[0], depth + 1)
            return lambda points: func(arg(points))
        source = ast.get_source_segment(self.text.strip(), node)
        raise ExpressionError(f"{source!r} is not allowed in expression {self.text!r}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at ``points`` of shape (npts, dimension); returns (npts,)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        out = self._eval(points)
        return np.broadcast_to(out, (points.shape[0],)).astype(float)
