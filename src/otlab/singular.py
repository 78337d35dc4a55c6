"""Singular solutions with an isolated singularity of arbitrary order.

For a frozen complex tensor K^{-1}(z) = n (M(z) - ik I), M from
``medium.base_matrix``, the leading terms are

    u_m(x) = (K^{-1}(z) v . v)^{(2-n-m)/2} m! (K^{-1}_{nn}(z))^{m/2}
             C_m^{(n-2)/2}( K^{-1}_{(n)}(z) v / (K^{-1}_{nn}(z) K^{-1}(z) v . v)^{1/2} ),

v = x - z, with complex powers on the principal branch.  They are the
y_n-derivatives of the anisotropic fundamental solution at the pole, which
is u_0.  The independent routes the closed form is checked against (the
induction double sum, the isotropic simplification, the analytic gradient
and the gradient lower bracket) live with the tests, in ``tests/oracles.py``.

The module also houses the truncated Newtonian potential (the decay
workhorse behind the remainder estimates) and the discrete annulus
correction solve.

The potential quadrature is a product rule: cached, read-only Gauss
nodes on fixed unit directions times radial nodes per shell or segment.
Its kernel series in (|y|/|x|)^j P_j(x^ . y^) (the tail j > nu near the
origin, the removed moments j <= nu further out) is therefore tabulated as
P_j on the directions once per call, and each set of radii costs one
small matrix product; the outer distances |y - x| come from the same
cosines by the law of cosines.  The direct truncated Laplace kernel the
tests compare it with is in ``tests/oracles.py``.  The nodes of a shell or
segment do not depend on the probe, so a decay fit evaluates the source
once per block that its probes share.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureBudgetError, SingularityError
from .gegenbauer import GegenbauerSpec, gegenbauer_eval
from .medium import OpticalMedium, base_matrix
from .solver import ComplexField, apply_operator, assemble, loglog_fit, solve_dirichlet


class BranchCutWarning(UserWarning):
    """Argument of a principal-branch power came within 1e-9 of the cut."""


def principal_branch_power(w, exponent: float):
    """w**exponent on the principal branch (cut along the negative reals).

    Raises at w = 0 and warns when an argument is within 1e-9 of the cut.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("principal branch power undefined at w = 0")
    if np.any(np.abs(np.angle(w)) > math.pi - 1e-9):
        warnings.warn(
            "principal-branch argument within 1e-9 of the negative real axis",
            BranchCutWarning,
            stacklevel=2,
        )
    out = np.exp(exponent * np.log(w))
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class SingularityPoint:
    """Pole location with the frozen tensor K^{-1}(z)."""

    z: np.ndarray
    K_inv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "K_inv", np.asarray(self.K_inv, dtype=complex))
        n = len(self.z)
        if self.K_inv.shape != (n, n):
            raise ValueError("frozen tensor shape does not match the point dimension")
        if np.abs(self.K_inv - self.K_inv.T).max() > 1e-12 * np.abs(self.K_inv).max():
            raise ValueError("frozen tensor must be symmetric")

    @classmethod
    def from_coefficients(cls, z, mu_a: float, mu_s: float, B, k: float, n: int):
        """Freeze K^{-1}(z) = n (M - ik I), M = ``medium.base_matrix``, at the pole."""
        B = np.zeros((n, n)) if B is None else np.asarray(B, dtype=float)
        K_inv = n * (base_matrix(mu_a, mu_s, B) - 1j * k * np.eye(n))
        return cls(np.asarray(z, dtype=float), K_inv)

    @property
    def dimension(self) -> int:
        return len(self.z)

    @property
    def last_row(self) -> np.ndarray:
        return self.K_inv[-1]

    @property
    def last_entry(self) -> complex:
        return complex(self.K_inv[-1, -1])


@dataclass(frozen=True)
class SingularSolutionSpec:
    """Order of the isolated singularity and where it sits."""

    m: int
    at: SingularityPoint

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("singularity order must be >= 0")


def _displacement(at: SingularityPoint, x) -> np.ndarray:
    v = np.atleast_2d(np.asarray(x, dtype=float)) - at.z
    if np.any(np.all(v == 0.0, axis=1)):
        raise SingularityError("evaluation at the singular point")
    return v


def _scalarize(values: np.ndarray, x) -> np.ndarray | complex:
    return complex(values[0]) if np.asarray(x).ndim == 1 else values


def leading_term(spec: SingularSolutionSpec, x):
    """Order-m leading term u_m; homogeneous of degree 2 - n - m in x - z."""
    at, m = spec.at, spec.m
    n = at.dimension
    v = _displacement(at, x)
    Q = np.einsum("pi,ij,pj->p", v, at.K_inv, v)
    if m == 0:
        vals = principal_branch_power(Q, (2.0 - n) / 2.0)
        return _scalarize(np.atleast_1d(vals), x)
    b = at.last_entry
    a = v @ at.last_row
    sigma = principal_branch_power(b * Q, 0.5)
    poly = gegenbauer_eval(GegenbauerSpec(m, n), a / sigma)
    vals = (
        principal_branch_power(Q, (2.0 - n - m) / 2.0)
        * math.factorial(m)
        * principal_branch_power(b, m / 2.0)
        * poly
    )
    return _scalarize(np.atleast_1d(vals), x)


# ---------------------------------------------------------------------------
# truncated Laplace kernel and Newtonian potential


_EPS = float(np.finfo(float).eps)


def _sphere_constant(n: int) -> float:
    """C_n = ((n-2) omega_{n-1})^{-1}, so the kernel integrates to a delta."""
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return 1.0 / ((n - 2) * omega)


@dataclass(frozen=True)
class PotentialRule:
    """Node counts and budgets for the truncated-potential quadrature.

    The outer angular orders dominate the accuracy (the mollified kernel
    has angular feature scale ~ 1/4 radian around the probe); the defaults
    give ~1e-9 relative error on the spherical-harmonic reference family.

    The inner shell ladder stops after two settled shells in a row, at most
    ``max_inner_shells`` in all.  A shell is settled when its |value| is at
    most ``shell_rtol`` times the larger of |running total| and the largest
    shell so far, or at most the rounding floor sqrt(N) eps sum |w k f| of
    its own N-term sum (a source orthogonal to every tail term, such as
    |y|^-s Y_1 for nu >= 1, leaves only that floor); the floor comes from
    machine epsilon and has no field here.
    """

    inner_radial: int = 10
    inner_theta: int = 16
    inner_phi: int = 32
    outer_radial: int = 14
    outer_theta: int = 40
    outer_phi: int = 80
    patch_radial: int = 16
    patch_theta: int = 16
    patch_phi: int = 32
    max_inner_shells: int = 220
    series_terms: int = 60
    shell_rtol: float = 1e-13


@dataclass
class PotentialInfo:
    value: complex
    tolerance_estimate: float
    inner_shells: int


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(count))


@lru_cache(maxsize=None)
def _sphere_nodes(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights of the Gauss-Legendre (polar) times
    midpoint (azimuthal) product rule on the sphere, shared read-only."""
    mu, wmu = _gauss_legendre(n_theta)
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    s = np.sqrt(1.0 - mu**2)
    dirs = np.stack(
        [
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.outer(mu, np.ones(n_phi)).ravel(),
        ],
        axis=1,
    )
    w = np.outer(wmu, np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
    return _read_only(dirs, w)


def _radial_nodes(lo: float, hi: float, count: int):
    xg, wg = _gauss_legendre(count)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * xg, half * wg


def _shell_rule(lo: float, hi: float, count: int, w_dirs: np.ndarray):
    """Radii and r^2 dr dS weights of the product rule on lo <= r <= hi:
    ``count`` Gauss-Legendre radii times the directions weighted ``w_dirs``,
    the weights flattened radius-major like the nodes rad x dirs."""
    rad, wr = _radial_nodes(lo, hi, count)
    return rad, (wr[:, None] * (rad**2)[:, None] * w_dirs[None, :]).ravel()


def _zonal_series(rx: float, cosg: np.ndarray, orders: range):
    """rad -> C_3/rx sum_{j in orders} (rad/rx)^j P_j(cosg), shape
    (len(rad), len(cosg)), for points rad * d on fixed unit directions d,
    with rx = |x| and cosg = x^ . d.

    P_j(x^ . d) depends on the directions alone, so it is tabulated once;
    each set of radii then costs one (radii x orders) @ (orders x
    directions) product.  With rad < |x| these are the terms of the
    expansion C_3/|x - y| = C_3/|x| sum_j (|y|/|x|)^j P_j(x^ . y^).
    """
    rows = []
    prev, cur = np.zeros_like(cosg), np.ones_like(cosg)  # P_{-1} = 0, P_0
    for j in range(orders.stop):
        if j >= orders.start:
            rows.append(cur)
        prev, cur = cur, ((2 * j + 1) * cosg * cur - j * prev) / (j + 1)
    table = np.array(rows).reshape(len(orders), len(cosg))
    powers = np.arange(orders.start, orders.stop)
    scale = _sphere_constant(3) / rx

    def series(rad: np.ndarray) -> np.ndarray:
        return scale * ((rad[:, None] / rx) ** powers @ table)

    return series


@lru_cache(maxsize=None)
def _mollifier_coefficients(match_order: int = 8) -> tuple[float, ...]:
    """Even polynomial p(u) matching 1/u and its first ``match_order``
    derivatives at u = 1 (the smooth core of the mollified kernel)."""
    size = match_order + 1
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    for d in range(size):
        for i in range(size):
            fall = 1.0
            for k in range(d):
                fall *= 2 * i - k
            A[d, i] = fall
        rhs[d] = (-1) ** d * math.factorial(d)
    return tuple(np.linalg.solve(A, rhs))


def _mollified_inverse_distance(rho: np.ndarray, delta: float) -> np.ndarray:
    """1/rho for rho >= delta, an even C^8 polynomial core below."""
    inside = rho < delta
    if not inside.any():
        return 1.0 / rho
    out = np.empty_like(rho)
    out[~inside] = 1.0 / rho[~inside]
    u = rho[inside] / delta
    acc = np.zeros_like(u)
    for i, c in enumerate(_mollifier_coefficients()):
        acc += c * u ** (2 * i)
    out[inside] = acc / delta
    return out


def _block_source(f, memo, key, rad, dirs, keep):
    """f at the block's product nodes rad x dirs, shape (len(rad) * len(dirs),).

    ``memo`` (None or a dict owned by one decay fit) maps a block key
    (node counts, lo, hi) to f's values on that block.  Equal endpoints and
    counts give bitwise-equal nodes, so a hit returns exactly what f would;
    the points are built only on a miss, and only blocks marked ``keep``
    are stored.
    """
    if memo is not None and key in memo:
        return memo[key]
    values = f((rad[:, None, None] * dirs[None, :, :]).reshape(-1, 3))
    if memo is not None and keep:
        memo[key] = values
    return values


def _rounding_floor(terms: np.ndarray) -> float:
    """sqrt(N) eps sum |t| for a sum of N terms t: the size its rounding
    reaches when the errors of the products and the additions add like a
    random walk.  A sum no larger than this cannot be told from zero."""
    return math.sqrt(terms.size) * _EPS * float(np.sum(np.abs(terms)))


def _relative_level(last_level, total) -> float:
    """The last shell's level relative to the running total, or 1.0 when
    either is missing: what a failed ladder has achieved."""
    if not last_level or total == 0:
        return 1.0
    return last_level / abs(total)


def _potential(f, nu, x, radius, rule, memo):
    """u(x) = int_{B_radius} Gamma_nu(x, y) f(y) dy for n = 3.

    ``f`` is a callable taking points of shape (k, 3).  The integral is
    split at |y| = |x|/2: inside, the kernel is summed through its stable
    tail series over a geometric shell ladder (this is what makes strongly
    singular f integrable); outside, the Newtonian part is mollified on a
    ball around x, the removed moments are added as their series, and the
    exact-minus-mollified difference is added back by a spherical patch
    quadrature centred at x.  Both series, and the outer distances
    |y - x|^2 = rad^2 + |x|^2 - 2 |x| rad x^ . d, come from the cosines
    x^ . d on the fixed quadrature directions (see ``_zonal_series``).

    The quadrature points y = rad * d of a block (an inner shell or an
    outer segment) depend only on the block's endpoints and node counts,
    never on x; only the kernel does.  ``memo`` is None or the dict of one
    ``potential_decay_fit`` (see ``_block_source``): with None, f is
    evaluated afresh on every block; a fit shares f's values on the blocks
    its probes have in common (see there).

    The shell ladder stops by the rule in ``PotentialRule``.  The tolerance
    estimate adds the skipped shells, continued geometrically from the last
    two shell levels (a shell's level is the larger of its |value| and its
    rounding floor, so a ladder stopped at the floor still bounds what it
    skipped), the truncation of the tail series, the difference between
    the full- and low-resolution outer passes and 1e-12 |u|.

    Returns (value, PotentialInfo).

    Raises QuadratureBudgetError, reporting the finite relative level the
    ladder reached, when the ladder fails to settle in its budget or above
    |y| = 1e-280, and at the first shell whose sum is not finite (a source
    that overflows on deep shells), naming that shell.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if not 0.0 < r <= 0.75 * radius:
        raise ValueError("probe must satisfy 0 < |x| <= 0.75 radius")
    if nu < -1:
        raise ValueError("truncation order must be >= -1")

    sph_in, w_in = _sphere_nodes(rule.inner_theta, rule.inner_phi)
    inner_counts = (rule.inner_radial, rule.inner_theta, rule.inner_phi)
    # every shell uses the same directions, so the tail kernel
    # -C_3/|x-y| + C_3 sum_{j<=nu} ... = -C_3/|x| sum_{j>nu} (|y|/|x|)^j P_j
    # is tabulated once for the whole ladder
    tail = _zonal_series(r, sph_in @ (x / r), range(nu + 1, nu + 1 + rule.series_terms))

    total = 0.0 + 0.0j
    err = 0.0

    # inner ladder |y| <= |x|/2
    hi = r / 2.0
    shells = 0
    trailing_small = 0
    last_level = None
    contrib_mag_max = 0.0
    while shells < rule.max_inner_shells and hi >= 1e-280:
        lo = hi / 2.0
        rad, wq = _shell_rule(lo, hi, rule.inner_radial, w_in)
        kern = -tail(rad).ravel()
        fv = _block_source(f, memo, (inner_counts, lo, hi), rad, sph_in, True)
        terms = wq * kern * fv
        contrib = np.sum(terms)
        if not np.isfinite(contrib):
            raise QuadratureBudgetError(
                f"inner shell [{lo:.3e}, {hi:.3e}] has a non-finite sum "
                f"after {shells} finite shells",
                _relative_level(last_level, total),
            )
        total += contrib
        mag = abs(contrib)
        floor = _rounding_floor(terms)
        level = max(mag, floor)
        contrib_mag_max = max(contrib_mag_max, mag)
        shells += 1
        if last_level is not None and mag <= max(
            rule.shell_rtol * max(abs(total), contrib_mag_max), floor
        ):
            trailing_small += 1
            if trailing_small >= 2:
                # the skipped shells, continued geometrically from the last two
                ratio = min(level / last_level, 0.9) if last_level > 0 else 0.0
                err += level * ratio / (1.0 - ratio)
                break
        else:
            trailing_small = 0
        last_level = level
        hi = lo
    else:
        raise QuadratureBudgetError(
            f"inner shell ladder did not settle in {shells} shells "
            f"(budget {rule.max_inner_shells}, down to |y| = {hi:.3e})",
            _relative_level(last_level, total),
        )
    # series truncation of the tail kernel
    err += abs(total) * 2.0 ** (-rule.series_terms)

    # outer region |x|/2 <= |y| <= radius, mollified on the delta-ball around
    # x, at full and reduced angular resolution so the difference gives a
    # conservative error estimate; the ball patch does not depend on them
    delta = min(r / 4.0, (radius - r) / 2.0)
    outer_full = _outer_contribution(
        f, nu, x, radius, delta, rule, rule.outer_theta, rule.outer_phi, memo
    )
    outer_low = _outer_contribution(
        f, nu, x, radius, delta, rule, max(rule.outer_theta - 8, 8), max(rule.outer_phi - 16, 16), memo
    )
    total += outer_full + _ball_patch(f, x, delta, rule)
    err += abs(outer_full - outer_low)

    err += 1e-12 * abs(total)
    return total, PotentialInfo(value=total, tolerance_estimate=err, inner_shells=shells)


def _outer_contribution(f, nu, x, radius, delta, rule, n_theta, n_phi, memo):
    """Outer integral over |x|/2 <= |y| <= radius with the Newtonian part
    mollified on the ``delta``-ball around x.

    Segments from r + delta outwards are kept in ``memo``: a probe at half
    the radius has the same doubling segments and the same last one.  The
    near field [|x|/2, r + delta] belongs to this probe alone.
    """
    r = float(np.linalg.norm(x))
    cn = _sphere_constant(3)
    sph_out, w_out = _sphere_nodes(n_theta, n_phi)
    cosg = sph_out @ (x / r)
    # Gamma_nu + C_3/rho: the moments j <= nu that the truncation removes
    moments = _zonal_series(r, cosg, range(nu + 1))

    breakpoints = [r / 2.0, r - delta, r, r + delta]
    c = r + delta
    while c * 2.0 < radius:
        c *= 2.0
        breakpoints.append(c)
    breakpoints.append(radius)
    counts = (rule.outer_radial, n_theta, n_phi)
    total = 0.0 + 0.0j
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi <= lo:
            continue
        rad, wq = _shell_rule(lo, hi, rule.outer_radial, w_out)
        # |y - x| by the law of cosines on the tabulated x^ . d
        rho = np.sqrt((rad**2 + r * r)[:, None] - (2.0 * r * rad)[:, None] * cosg).ravel()
        kern = -cn * _mollified_inverse_distance(rho, delta) + moments(rad).ravel()
        fv = _block_source(f, memo, (counts, lo, hi), rad, sph_out, lo >= r + delta)
        total += np.sum(wq * kern * fv)
    return total


def _ball_patch(f, x, delta, rule):
    """The exact-minus-mollified Newtonian part on the delta-ball around x."""
    sph_p, w_p = _sphere_nodes(rule.patch_theta, rule.patch_phi)
    rad, wq = _shell_rule(0.0, delta, rule.patch_radial, w_p)
    pts = (x[None, None, :] + rad[:, None, None] * sph_p[None, :, :]).reshape(-1, 3)
    rho = np.repeat(rad, len(w_p))
    kern = -_sphere_constant(3) * (1.0 / rho - _mollified_inverse_distance(rho, delta))
    return np.sum(wq * kern * f(pts))


def shell_source_exponent(f, radius: float, p: float = 4.0, num_shells: int = 6) -> float:
    """Fitted singularity rate s of a source from its dyadic-shell L^p sizes.

    With (int_{r<|y|<2r} |f|^p)^{1/p} ~ r^{3/p - s}, the slope of the shell
    norms on a log-log ladder recovers s.  Used to check numerically that a
    source is compatible with a requested truncation order.
    """
    sph, wsph = _sphere_nodes(12, 24)
    radii, norms = [], []
    hi = radius / 2.0
    for _ in range(num_shells):
        lo = hi / 2.0
        rad, wq = _shell_rule(lo, hi, 12, wsph)
        pts = (rad[:, None, None] * sph[None, :, :]).reshape(-1, 3)
        norms.append(np.sum(wq * np.abs(f(pts)) ** p) ** (1.0 / p))
        radii.append(math.sqrt(lo * hi))
        hi = lo
    return 3.0 / p - loglog_fit(radii, np.maximum(norms, 1e-300))[0]


# a decay fit needs each probe's value well above its quadrature error
_FIT_PROBE_RTOL = 1e-3


@dataclass
class DecayFit:
    radii: np.ndarray
    values: np.ndarray
    exponent: float
    fit_residual: float
    source_exponent: float | None = None


def potential_decay_fit(
    f,
    nu: int,
    radii,
    radius: float,
    direction=(0.0, 0.0, 1.0),
    rule=None,
    verify_source: bool = True,
) -> DecayFit:
    """Fit log |u| against log |x| along a fixed ray of probe radii.

    When ``verify_source`` is set, the dyadic-shell growth of f is measured
    and a warning is issued if it is incompatible with the truncation order
    (the order must satisfy nu = floor(s) - 3 for sources of rate s).

    The probes share f's values on the quadrature blocks they have in
    common; each value equals a ``_potential`` call without the memo bit
    for bit.  A block's nodes depend only on its endpoints and
    node counts, and halving a probe radius halves every endpoint exactly,
    so on dyadic radii the probe at r/2 meets again the inner shells
    [r/2^(i+1), r/2^i] of the probe at r, its outer doubling segments
    [1.25 r 2^k, 1.25 r 2^(k+1)] and its last segment, at both angular
    resolutions.  Those blocks are kept for the length of the fit; the
    near field of each probe and its delta-ball patch are not.  Non-dyadic
    radii simply miss.

    Raises ValueError unless there are at least two distinct, finite,
    positive radii and the direction is a finite nonzero 3-vector, and
    QuadratureBudgetError when a probe's tolerance estimate is not below
    1e-3 |u| (a zero potential, or a ray in a nodal set of the source,
    leaves only quadrature noise to fit).
    """
    direction = np.asarray(direction, dtype=float)
    length = float(np.linalg.norm(direction)) if direction.shape == (3,) else 0.0
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"direction must be a finite nonzero 3-vector, got {direction.tolist()}")
    direction = direction / length
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ValueError(f"probe radii must be finite and positive, got {radii.tolist()}")
    if len(radii) < 2:
        raise ValueError(f"a decay fit needs at least two probe radii, got {radii.tolist()}")
    if np.any(radii[1:] == radii[:-1]):
        raise ValueError(f"probe radii must be distinct, got {radii.tolist()}")
    source_exponent = None
    if verify_source:
        source_exponent = shell_source_exponent(f, radius)
        if not (3.0 + nu - 0.2 <= source_exponent <= 4.0 + nu + 0.2):
            warnings.warn(
                f"source decays like |y|^(-{source_exponent:.2f}), outside the band "
                f"({3 + nu}, {4 + nu}) matched by truncation order {nu}",
                stacklevel=2,
            )
    rule = rule or PotentialRule()
    memo = {}
    values = []
    for r in radii:
        value, info = _potential(f, nu, r * direction, radius, rule, memo)
        if not info.tolerance_estimate < _FIT_PROBE_RTOL * abs(value):
            raise QuadratureBudgetError(
                f"probe at radius {r:.6g} has |u| = {abs(value):.3e} with a tolerance "
                f"estimate of {info.tolerance_estimate:.3e}, not below {_FIT_PROBE_RTOL:g} "
                "of it: the fit would follow quadrature noise",
                info.tolerance_estimate / abs(value) if value else math.inf,
            )
        values.append(value)
    values = np.array(values)
    exponent, rms = loglog_fit(radii, np.abs(values))
    return DecayFit(
        radii=radii,
        values=values,
        exponent=exponent,
        fit_residual=rms,
        source_exponent=source_exponent,
    )


# ---------------------------------------------------------------------------
# discrete annulus correction


# shells of the annulus decay fit, and the RMS residual (log units) that flags it
ANNULUS_SHELLS = 6
FIT_RMS_THRESHOLD = 0.5


@dataclass
class CorrectionResult:
    """Annulus solve for the remainder w plus its fitted radial decay."""

    w: ComplexField
    shell_radii: np.ndarray
    sup_w: np.ndarray
    sup_dw: np.ndarray
    sup_r_dw: np.ndarray
    exponent_w: float
    exponent_r_dw: float
    fit_residual: float
    flagged: bool
    candidate_exponents: dict


def b_vanishes_near_pole(medium: OpticalMedium, z, r_min: float) -> bool:
    """Whether B is zero (to 1e-13) within r_min + 2h of the pole ``z``, as
    ``correction_w`` requires of its medium."""
    near = np.linalg.norm(medium.grid.points - z, axis=1) <= r_min + 2 * medium.grid.h
    return bool(np.abs(medium.B[near]).max() <= 1e-13)


def correction_w(
    medium: OpticalMedium,
    spec: SingularSolutionSpec,
    r_min: float,
    r_max: float,
    include_reaction: bool = True,
) -> CorrectionResult:
    """Solve L w = -L u_m on the discrete annulus r_min < |x-z| < r_max.

    Zero Dirichlet data on both spheres; the mismatch against the true
    remainder's inner trace is absorbed into the fitted-constant slack,
    which is why only decay exponents are reported.  Shell sups of |w| and
    |x-z| |Dw| are fitted log-log over at most ``ANNULUS_SHELLS`` shells; the
    fit is flagged when its RMS residual exceeds ``FIT_RMS_THRESHOLD`` (log
    units).
    """
    grid = medium.grid
    z = spec.at.z
    if np.any(np.abs(z) > grid.extent / 2.0 - 2 * grid.h):
        raise ValueError("pole must be well inside the cube")
    mask = grid.annulus_interior_mask(z, r_min, r_max)
    if r_max - r_min < 4 * grid.h or mask.sum() < 50:
        raise ValueError("annulus too thin for this grid")
    # shells thinner than ~1.5 h cannot hold a full gradient stencil
    num_shells = max(3, min(ANNULUS_SHELLS, int((r_max - r_min) / (1.5 * grid.h))))
    if not b_vanishes_near_pole(medium, z, r_min):
        raise ValueError("B must vanish on a neighbourhood of the pole")
    dist = np.linalg.norm(grid.points - z, axis=1)

    op = assemble(medium, grid, include_reaction=include_reaction, interior_mask=mask)
    u_m = np.zeros(grid.num_points, dtype=complex)
    safe = dist > max(r_min - 2 * grid.h, 0.5 * r_min)
    u_m[safe] = leading_term(spec, grid.points[safe])
    w_field = solve_dirichlet(op, np.zeros(len(op.boundary_idx)), -apply_operator(op, u_m))

    w = w_field.values
    grad_w = grid.gradient(w)
    # gradient trusted only where the full stencil lives inside the annulus;
    # the annulus avoids the cube surface, so no stencil leaves the grid
    ok = mask.copy()
    for s in grid.strides:
        ok[s:-s] &= mask[: -2 * s] & mask[2 * s :]

    edges = np.geomspace(r_min, r_max, num_shells + 1)
    mids, sup_w, sup_dw, sup_rdw = [], [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        shell = mask & (dist >= lo) & (dist < hi)
        if not shell.any():
            continue
        mids.append(math.sqrt(lo * hi))
        sup_w.append(np.abs(w[shell]).max())
        shell_g = shell & ok
        if shell_g.any():
            mags = np.linalg.norm(grad_w[shell_g], axis=1)
            sup_dw.append(float(mags.max()))
            sup_rdw.append(float(np.max(dist[shell_g] * mags)))
        else:
            sup_dw.append(np.nan)
            sup_rdw.append(np.nan)
    mids = np.asarray(mids)
    sup_w = np.asarray(sup_w)
    sup_dw = np.asarray(sup_dw)
    sup_rdw = np.asarray(sup_rdw)

    # interior shells only: the zero boundary data pins both end shells
    sel = slice(1, -1) if len(mids) >= 4 else slice(None)
    exp_w, rms = loglog_fit(mids[sel], np.maximum(sup_w[sel], 1e-300))
    good = np.isfinite(sup_rdw[sel])
    exp_rdw = float("nan")
    if good.sum() >= 2:
        exp_rdw = loglog_fit(mids[sel][good], np.maximum(sup_rdw[sel][good], 1e-300))[0]

    n = spec.at.dimension
    alpha = medium.apriori.alpha
    return CorrectionResult(
        w=w_field,
        shell_radii=mids,
        sup_w=sup_w,
        sup_dw=sup_dw,
        sup_r_dw=sup_rdw,
        exponent_w=exp_w,
        exponent_r_dw=exp_rdw,
        fit_residual=rms,
        flagged=rms > FIT_RMS_THRESHOLD,
        candidate_exponents={
            "with_order": 2.0 - n - spec.m + alpha,
            "without_order": 2.0 - n + alpha,
        },
    )
