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
once per block that its probes share.  Its kernels scale with the probe:
halving the probe and every endpoint divides the weighted kernel by 4
exactly, so a fit builds each kernel once per family of blocks whose
probes differ by a power of two, and every value keeps its bits.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
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


def _zonal_series(cosg: np.ndarray, orders: range):
    """ratio -> sum_{j in orders} ratio^j P_j(cosg), shape (len(ratio),
    len(cosg)), for points rad * d on fixed unit directions d, with
    ratio = rad/|x| and cosg = x^ . d.

    P_j(x^ . d) depends on the directions alone, so it is tabulated once;
    each set of radii then costs one (radii x orders) @ (orders x
    directions) product.  Times C_3/|x|, with rad < |x|, these are the terms
    of the expansion C_3/|x - y| = C_3/|x| sum_j (|y|/|x|)^j P_j(x^ . y^).
    The table serves every probe on the ray of x, and the product depends
    on |x| only through the ratio.
    """
    rows = []
    prev, cur = np.zeros_like(cosg), np.ones_like(cosg)  # P_{-1} = 0, P_0
    for j in range(orders.stop):
        if j >= orders.start:
            rows.append(cur)
        prev, cur = cur, ((2 * j + 1) * cosg * cur - j * prev) / (j + 1)
    table = np.array(rows).reshape(len(orders), len(cosg))
    powers = np.arange(orders.start, orders.stop)

    def series(ratio: np.ndarray) -> np.ndarray:
        return ratio[:, None] ** powers @ table

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
    """1/rho for rho >= delta, an even C^8 polynomial core below.

    1/rho is taken on every node and overwritten on the few inside the
    delta-ball, by index rather than by a boolean gather and scatter.
    """
    out = 1.0 / rho
    inside = np.flatnonzero(rho < delta)
    if inside.size:
        u = rho[inside] / delta
        acc = np.zeros_like(u)
        for i, c in enumerate(_mollifier_coefficients()):
            acc += c * u ** (2 * i)
        out[inside] = acc / delta
    return out


def _product_points(rad: np.ndarray, dirs: np.ndarray, centre=None) -> np.ndarray:
    """The points centre + rad[i] * dirs[j], radius-major, shape (k, 3) in
    column-major order: the transpose of a C-ordered (3, k) array, so each
    coordinate is one contiguous column and a source's ``pts[:, 2]`` or
    ``np.linalg.norm(pts, axis=1)`` reads memory in order."""
    pts = np.empty((3, len(rad), len(dirs)))
    np.multiply(rad[None, :, None], dirs.T[:, None, :], out=pts)
    if centre is not None:
        pts += centre[:, None, None]
    return pts.reshape(3, -1).T


def _block_source(f, memo, key, rad, dirs, keep):
    """f at the block's product nodes rad x dirs, shape (len(rad) * len(dirs),);
    f receives them column-major (see ``_product_points``).

    ``memo`` (the dict of one call of ``_potentials``) maps a block key
    (node counts, lo, hi) to f's values on that block.  Equal endpoints and
    counts give bitwise-equal nodes, so a hit returns exactly what f would;
    the points are built only on a miss, and only blocks marked ``keep``
    (a later use may come) are stored.  The caller drops a block after its
    last use.
    """
    if key in memo:
        return memo[key]
    values = f(_product_points(rad, dirs))
    if keep:
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


def _family_key(r, radius, lengths, *labels):
    """The family key of the probe at |x| = r = mantissa 2^e, or of one of
    its blocks, and e.

    The key holds ``labels``, the mantissa of r and ``lengths`` (a block's
    endpoints and delta, or none for the probe itself) times 2^-e
    (``math.ldexp``, exact), so equal keys mean probes whose radii, and
    lengths, differ by a power of two exactly: one family.  Non-dyadic
    radii differ in the mantissa and get their own keys.
    For r outside [2^-200, 2^200], or radius above 2^200, the key holds r
    and the lengths as they are: scaled that far, a kernel value could leave
    the normal range, where a power of two no longer scales it exactly.
    """
    mantissa, e = math.frexp(r)
    if -200 <= e <= 200 and radius <= 2.0**200:
        return labels + (mantissa,) + tuple(math.ldexp(v, -e) for v in lengths), e
    return labels + (r,) + tuple(lengths), e


def _inner_tail(tails, index, series, ratio):
    """The unscaled tail product ``series(ratio)`` of the inner shell
    ``index``, kept in ``tails``, the dict of one family of probes
    (``_family_key``) in ``_potentials``.  Shell i of every probe of a
    family has the same nodes relative to the probe's radius, so the
    product is the same bit for bit; each probe scales it by its own
    C_3/|x|."""
    if index not in tails:
        tails[index] = series(ratio)
    return tails[index]


def _inner_ladder(f, r, rule, tail, tails, memo, reach):
    """(total, err, shells) of the inner ladder |y| <= r/2 of the probe at
    |x| = r, whose tail series on the inner directions is ``tail``: the
    shells [r/2^(i+1), r/2^i] until the stop rule of ``PotentialRule``, the
    skipped shells continued geometrically, and the truncation of the tail
    series.  f's values on a shell are kept in ``memo`` when its hi is below
    ``reach``, the largest later probe whose ladder can meet it.  See
    ``_potentials``."""
    sph_in, w_in = _sphere_nodes(rule.inner_theta, rule.inner_phi)
    inner_counts = (rule.inner_radial, rule.inner_theta, rule.inner_phi)
    scale = _sphere_constant(3) / r
    total = 0.0 + 0.0j
    err = 0.0
    hi = r / 2.0
    shells = 0
    trailing_small = 0
    last_level = None
    contrib_mag_max = 0.0
    while shells < rule.max_inner_shells and hi >= 1e-280:
        lo = hi / 2.0
        rad, wq = _shell_rule(lo, hi, rule.inner_radial, w_in)
        # the tail kernel -C_3/|x| sum_{j>nu} (|y|/|x|)^j P_j, weighted
        kern = (_inner_tail(tails, shells, tail, rad / r) * scale).ravel()
        np.negative(kern, out=kern)
        kern *= wq
        fv = _block_source(f, memo, (inner_counts, lo, hi), rad, sph_in, hi < reach)
        terms = kern * fv
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
    return total, err, shells


def _outer_kernel(r, delta, lo, hi, count, cosg, w, moments):
    """The weighted outer kernel wq * (-C_3 * mollified 1/rho + moments) on
    the segment [lo, hi] of the probe at |x| = r, flattened like the nodes.

    |y - x| comes from the law of cosines on the tabulated x^ . d; rho and
    the kernel are built in place.
    """
    cn = _sphere_constant(3)
    rad, wq = _shell_rule(lo, hi, count, w)
    rho = np.multiply((2.0 * r * rad)[:, None], cosg)
    np.subtract((rad**2 + r * r)[:, None], rho, out=rho)
    np.sqrt(rho, out=rho)
    kern = _mollified_inverse_distance(rho.ravel(), delta)
    kern *= -cn
    # Gamma_nu + C_3/rho: the moments j <= nu that the truncation removes
    mom = moments(rad / r)
    mom *= cn / r
    kern += mom.ravel()
    kern *= wq
    return kern


def _outer_segments(r, delta, radius):
    """The outer segments [lo, hi] of the probe at |x| = r: between r/2,
    r - delta, r, r + delta, the doublings of r + delta below radius, and
    radius."""
    breakpoints = [r / 2.0, r - delta, r, r + delta]
    c = r + delta
    while c * 2.0 < radius:
        c *= 2.0
        breakpoints.append(c)
    breakpoints.append(radius)
    return [(lo, hi) for lo, hi in zip(breakpoints[:-1], breakpoints[1:]) if hi > lo]


def _outer_by_family(f, nu, probes, radius, rule, n_theta, n_phi, memo, users):
    """The outer integrals over |x|/2 <= |y| <= radius, with the Newtonian
    part mollified on the delta-ball around x, of the probes (x^, r, delta)
    at angular resolution ``n_theta`` x ``n_phi``; one complex per probe.

    A probe's segments are ``_outer_segments``; from r + delta outwards, a
    probe at half the radius has the same doubling segments and the same
    last one.  ``users`` counts the uses of each segment's block still to
    come, in both passes: f's values stay in ``memo`` until the last one.

    The segments are looped over by family (``_family_key``).  Each
    family's kernel is built at its first member, and a member whose probe
    is 2^k times smaller takes it times 4^k exactly (nodes, rho, the
    mollifier, the moments and the weights r^2 dr dS all scale by powers of
    two), so only one kernel is alive at a time.  Each probe's partial
    sums are then added in its breakpoint order from 0.
    """
    sph, w = _sphere_nodes(n_theta, n_phi)
    counts = (rule.outer_radial, n_theta, n_phi)
    families = {}
    partials = []
    for p, (x_hat, r, delta) in enumerate(probes):
        segments = _outer_segments(r, delta, radius)
        partials.append([None] * len(segments))
        for s, (lo, hi) in enumerate(segments):
            key, e = _family_key(r, radius, (lo, hi, delta), x_hat, counts)
            families.setdefault(key, []).append((p, s, e, lo, hi))
    tables = {}
    for members in families.values():
        p0, _, e0, lo0, hi0 = members[0]
        x_hat, r0, delta0 = probes[p0]
        if x_hat not in tables:
            cosg = sph @ np.array(x_hat)
            tables[x_hat] = cosg, _zonal_series(cosg, range(nu + 1))
        cosg, moments = tables[x_hat]
        kern0 = _outer_kernel(r0, delta0, lo0, hi0, rule.outer_radial, cosg, w, moments)
        for p, s, e, lo, hi in members:
            _, r, delta = probes[p]
            kern = kern0 if e == e0 else kern0 * math.ldexp(1.0, 2 * (e - e0))
            rad, _ = _radial_nodes(lo, hi, rule.outer_radial)
            key = (counts, lo, hi)
            users[key] -= 1
            fv = _block_source(f, memo, key, rad, sph, users[key] > 0)
            if not users[key]:
                memo.pop(key, None)
            # f may be complex, so this last product allocates
            partials[p][s] = np.sum(kern * fv)
    totals = []
    for parts in partials:
        total = 0.0 + 0.0j
        for part in parts:
            total += part
        totals.append(total)
    return totals


def _potentials(f, nu, probes, radius, rule):
    """u(x) = int_{B_radius} Gamma_nu(x, y) f(y) dy for n = 3 at each probe
    x of ``probes``; yields (value, PotentialInfo) per probe, in order.

    ``f`` is a callable taking points of shape (k, 3), handed over in
    column-major order (one contiguous column per coordinate), and
    returning k real or complex values.  The integral is
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
    never on x; only the kernel does.  f's values on the blocks the probes
    have in common are shared (see ``_block_source``): on dyadic radii the
    probe at r/2 meets again the inner shells [r/2^(i+1), r/2^i] of the
    probe at r, its outer doubling segments and its last segment.  A block
    is kept only while a use of it may still come: an inner shell until no
    later probe's ladder can reach it (a larger radius that differs from the
    shell's by a power of two), an outer segment until the last of its uses,
    counted up front.  The kernels are shared by family (``_family_key``):
    the unscaled inner tail of a shell is built once per family and kept
    until the family's last probe has run its ladder, and each outer kernel
    is built once per family (see ``_outer_by_family``).  Every value equals
    a call with its probe alone bit for bit.

    The shell ladder stops by the rule in ``PotentialRule``.  The tolerance
    estimate adds the skipped shells, continued geometrically from the last
    two shell levels (a shell's level is the larger of its |value| and its
    rounding floor, so a ladder stopped at the floor still bounds what it
    skipped), the truncation of the tail series, the difference between
    the full- and low-resolution outer passes and 1e-12 |u|.

    Every probe is computed before the first value is yielded.  The
    QuadratureBudgetError of a probe whose ladder fails to settle in its
    budget or above |y| = 1e-280, or meets a shell whose sum is not finite
    (a source that overflows on deep shells, naming that shell), is raised
    in that probe's place, after the values of the probes before it; it
    reports the finite relative level the ladder reached.  The probes
    after it are not computed.
    """
    xs = [np.asarray(x, dtype=float) for x in probes]
    rs = [float(np.linalg.norm(x)) for x in xs]
    if not all(0.0 < r <= 0.75 * radius for r in rs):
        raise ValueError("probe must satisfy 0 < |x| <= 0.75 radius")
    if nu < -1:
        raise ValueError("truncation order must be >= -1")
    x_hats = [tuple((x / r).tolist()) for x, r in zip(xs, rs)]
    # the inner tails of a family of probes are kept until its last probe has run
    families = [_family_key(r, radius, (), x_hat)[0] for r, x_hat in zip(rs, x_hats)]
    left = Counter(families)
    memo, tails = {}, {}
    # the shells [r/2^(i+1), r/2^i] of the probe at r are shells of a later
    # probe only if its radius is r times a power of two: the largest such
    # radius bounds the shells worth keeping
    mantissas = [math.frexp(r)[0] for r in rs]
    reach = [
        max((q for q, mq in zip(rs[p + 1 :], mantissas[p + 1 :]) if mq == mantissas[p]), default=0.0)
        for p in range(len(rs))
    ]

    sph_in, _ = _sphere_nodes(rule.inner_theta, rule.inner_phi)
    orders = range(nu + 1, nu + 1 + rule.series_terms)
    series = {}
    ladders, outer, failure = [], [], None
    for p, (x, r, x_hat, family) in enumerate(zip(xs, rs, x_hats, families)):
        if x_hat not in series:
            series[x_hat] = _zonal_series(sph_in @ (x / r), orders)
        try:
            ladders.append(
                _inner_ladder(f, r, rule, series[x_hat], tails.setdefault(family, {}), memo, reach[p])
            )
        except QuadratureBudgetError as exc:
            failure = exc
            break
        left[family] -= 1
        if not left[family]:
            del tails[family]
        # the shells of this probe's mantissa that no later probe can reach
        for key in [key for key in memo if key[2] >= reach[p] and math.frexp(key[2])[0] == mantissas[p]]:
            del memo[key]
        outer.append((x_hat, r, min(r / 4.0, (radius - r) / 2.0)))
    # the outer passes count their own uses; a block they share with a
    # ladder is evaluated again, to the same bits
    memo.clear()

    # every use of an outer block, in both passes, counted up front
    resolutions = [
        (rule.outer_theta, rule.outer_phi),
        (max(rule.outer_theta - 8, 8), max(rule.outer_phi - 16, 16)),
    ]
    users = Counter(
        ((rule.outer_radial, *angles), lo, hi)
        for angles in resolutions
        for _, r, delta in outer
        for lo, hi in _outer_segments(r, delta, radius)
    )

    # outer region at full and reduced angular resolution, so the difference
    # gives a conservative error estimate; the ball patch does not depend on them
    outer_full, outer_low = (
        _outer_by_family(f, nu, outer, radius, rule, *angles, memo, users) for angles in resolutions
    )
    for x, (total, err, shells), (_, _, delta), full, low in zip(xs, ladders, outer, outer_full, outer_low):
        total += full + _ball_patch(f, x, delta, rule)
        err += abs(full - low)
        err += 1e-12 * abs(total)
        yield total, PotentialInfo(tolerance_estimate=err, inner_shells=shells)
    if failure is not None:
        raise failure


def _ball_patch(f, x, delta, rule):
    """The exact-minus-mollified Newtonian part on the delta-ball around x.

    The kernel depends on the distance rad alone, so it is formed once per
    radius and repeated over the directions.
    """
    sph_p, w_p = _sphere_nodes(rule.patch_theta, rule.patch_phi)
    rad, wq = _shell_rule(0.0, delta, rule.patch_radial, w_p)
    kern = -_sphere_constant(3) * (1.0 / rad - _mollified_inverse_distance(rad, delta))
    return np.sum(wq * np.repeat(kern, len(w_p)) * f(_product_points(rad, sph_p, x)))


def shell_source_exponent(f, radius: float) -> float:
    """Fitted singularity rate s of a source from its dyadic-shell L^p sizes.

    With (int_{r<|y|<2r} |f|^p)^{1/p} ~ r^{3/p - s}, the slope of the shell
    norms (p = 4, six shells below radius / 2) on a log-log ladder recovers
    s.  Used to check numerically that a source is compatible with a
    requested truncation order.
    """
    p, num_shells = 4.0, 6
    sph, wsph = _sphere_nodes(12, 24)
    radii, norms = [], []
    hi = radius / 2.0
    for _ in range(num_shells):
        lo = hi / 2.0
        rad, wq = _shell_rule(lo, hi, 12, wsph)
        norms.append(np.sum(wq * np.abs(f(_product_points(rad, sph))) ** p) ** (1.0 / p))
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

    ``f`` maps a (k, 3) array of points, handed over in column-major order
    (one contiguous column per coordinate), to k real or complex values.
    When ``verify_source`` is set, the dyadic-shell growth of f is measured
    and a warning is issued if it is incompatible with the truncation order
    (the order must satisfy nu = floor(s) - 3 for sources of rate s).

    The probes run as one call of ``_potentials``, so they share f's values
    on the quadrature blocks they have in common and the kernels of their
    families: on dyadic radii the probe at r/2 meets again the inner shells
    [r/2^(i+1), r/2^i] of the probe at r, its outer doubling segments
    [1.25 r 2^k, 1.25 r 2^(k+1)] and its last segment, at both angular
    resolutions, and each of its outer kernels but two is the kernel of the
    probe at r on the doubled segment, divided by 4 exactly.  The probes
    2^-5 .. 2^-10 in the unit ball thus build 18 outer kernels per
    resolution instead of 63.  Each value equals a call with its probe
    alone bit for bit.

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
    values = []
    for r, (value, info) in zip(radii, _potentials(f, nu, [r * direction for r in radii], radius, rule)):
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


# the rates s of the sources |y|^-s Y_1 whose decay fits `otlab singular`
# reports (truncation order floor(s) - 3, probes 2^-5..2^-10 along the ray
# (0.36, 0.48, 0.8)); criterion 05 fits the same family
POTENTIAL_DECAY_RATES = (4.5, 5.25)


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
    sup_um: np.ndarray
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
    units).  ``sup_um`` is max |u_m| over the annulus nodes of the same
    shells, for comparison.
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
    mids, sup_um, sup_w, sup_dw, sup_rdw = [], [], [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        shell = mask & (dist >= lo) & (dist < hi)
        if not shell.any():
            continue
        mids.append(math.sqrt(lo * hi))
        sup_um.append(np.abs(u_m[shell]).max())
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
    sup_um = np.asarray(sup_um)
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
        sup_um=sup_um,
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
