"""Gegenbauer (ultraspherical) polynomials of order (n-2)/2 at complex arguments.

The order is tied to the space dimension n >= 3 of the elliptic problem;
no attempt is made at a general-purpose ultraspherical library.  Degrees
are capped at 64 and dimensions at 16.

Evaluation uses the three-term recurrence

    C_0 = 1,   C_1 = 2*alpha*z,
    m C_m = 2 z (m + alpha - 1) C_{m-1} - (m + 2 alpha - 2) C_{m-2},

which is numerically stable on the region of interest.  The explicit
finite sum

    C_m(z) = sum_{j=0}^{floor(m/2)} (-1)^j (alpha)_{m-j} / (j! (m-2j)!) (2z)^{m-2j}

gives the coefficient tables; its coefficients are exact because the
Gamma-function ratio reduces to the rising factorial (alpha)_{m-j}, a
rational number for every integer dimension.  The tests evaluate the sum
in exact rational arithmetic as the oracle for the recurrence, next to the
derivatives and ODE residuals they check, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

MAX_DEGREE = 64
MAX_DIMENSION = 16


@dataclass(frozen=True)
class GegenbauerSpec:
    """Degree and dimension pair fixing one polynomial C_m^{(n-2)/2}."""

    m: int
    dimension: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"degree must be >= 0, got {self.m}")
        if self.m > MAX_DEGREE:
            raise ValueError(f"degree capped at {MAX_DEGREE} (overflow guard), got {self.m}")
        if self.dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dimension}")
        if self.dimension > MAX_DIMENSION:
            raise ValueError(f"dimension capped at {MAX_DIMENSION}, got {self.dimension}")

    @property
    def order(self) -> Fraction:
        """The polynomial order (n-2)/2 as an exact rational."""
        return Fraction(self.dimension - 2, 2)


def _recurrence(m: int, alpha: float, z):
    """C_m^alpha(z) by the three-term recurrence, vectorized in z."""
    z = np.asarray(z)
    prev = np.ones_like(z)
    if m == 0:
        return prev
    cur = 2.0 * alpha * z
    for j in range(2, m + 1):
        prev, cur = cur, (2.0 * z * (j + alpha - 1.0) * cur - (j + 2.0 * alpha - 2.0) * prev) / j
    return cur


def sum_coefficients(m: int, dimension: int) -> list[tuple[int, Fraction]]:
    """Exact coefficients [(power of (2z), coefficient)] of the finite sum."""
    spec = GegenbauerSpec(m, dimension)
    alpha = spec.order
    out = []
    for j in range(m // 2 + 1):
        rising = Fraction(1)
        for i in range(m - j):
            rising *= alpha + i
        coeff = (-1) ** j * rising / (math.factorial(j) * math.factorial(m - 2 * j))
        out.append((m - 2 * j, coeff))
    return out


def gegenbauer_eval(spec: GegenbauerSpec, z):
    """Value of C_m^{(n-2)/2} at the (possibly complex) argument z."""
    return _recurrence(spec.m, float(spec.order), z)


def endpoint_values(spec: GegenbauerSpec) -> tuple[float, float]:
    """(C_m(1), C_m(-1)) from the closed form Gamma(m+n-2)/(m! Gamma(n-2)).

    Both are nonzero for every m and n >= 3; the value at -1 is (-1)^m times
    the value at 1 by polynomial parity.
    """
    n, m = spec.dimension, spec.m
    rising = Fraction(1)
    for i in range(m):
        rising *= Fraction(n - 2 + i)
    at_one = rising / math.factorial(m)
    if at_one == 0:
        raise ArithmeticError(f"endpoint value vanished for m={m}, n={n}")
    return float(at_one), float((-1) ** m * at_one)


def coefficient_table(max_m: int, dimension: int) -> list[tuple[int, int, float]]:
    """Rows (m, power, coefficient) for all degrees up to max_m (CSV dump)."""
    rows = []
    for m in range(max_m + 1):
        for power, coeff in sum_coefficients(m, dimension):
            rows.append((m, power, float(coeff)))
    return rows
