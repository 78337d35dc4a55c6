"""Test oracles: independent routes the tests compare otlab against.

None of these is called by the package.  Each is a second derivation of a
quantity otlab computes another way, kept apart so the two cannot share a
transcription error:

- Gegenbauer polynomials: the finite sum in exact rational arithmetic
  (against the recurrence), the order-raising derivatives and the residuals
  of the two candidate ODEs;
- singular solutions: the induction (double-sum) route to the order-m
  pole derivative, the isotropic simplification, the analytic gradient and
  the gradient lower bracket;
- the truncated Laplace kernel evaluated directly (against the tabulated
  series of the potential quadrature);
- the tensor derivative gap by entrywise differencing of the sampled K
  (against the chain rule);
- the continuous Alessandrini identity (against assembled D-N maps);
- the dense whitening of a boundary matrix and its dense SVD (against the
  block-wise whitening and the Lanczos norms of ``otlab.dnmap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from otlab.dnmap import DNOperator, SobolevScale, assemble_dn
from otlab.errors import SingularityError
from otlab.gegenbauer import GegenbauerSpec, _recurrence, gegenbauer_eval, sum_coefficients
from otlab.medium import OpticalMedium, split_real_imag
from otlab.singular import (
    SingularSolutionSpec,
    _displacement,
    _scalarize,
    _sphere_constant,
    principal_branch_power,
)
from otlab.solver import assemble, solve_dirichlet


# ---------------------------------------------------------------------------
# Gegenbauer polynomials


def _sum_eval_exact(m: int, dimension: int, z: complex) -> complex:
    # exact rational complex arithmetic: float inputs convert to Fractions
    # without loss, so the only rounding is the final cast back to complex
    zr, zi = Fraction(float(np.real(z))) * 2, Fraction(float(np.imag(z))) * 2
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(m):
        pr, pi = powers[-1]
        powers.append((pr * zr - pi * zi, pr * zi + pi * zr))
    total_r, total_i = Fraction(0), Fraction(0)
    for power, coeff in sum_coefficients(m, dimension):
        pr, pi = powers[power]
        total_r += coeff * pr
        total_i += coeff * pi
    return complex(float(total_r), float(total_i))


def gegenbauer_sum_eval(spec: GegenbauerSpec, z):
    """Direct evaluation of the finite sum with exact rational arithmetic.

    This is the cancellation-free oracle the recurrence is validated
    against; it is scalar-looped and therefore slower than
    ``gegenbauer_eval``.
    """
    arr = np.asarray(z)
    if arr.ndim == 0:
        out = _sum_eval_exact(spec.m, spec.dimension, complex(arr))
        return out.real if np.isrealobj(arr) else out
    flat = np.array([_sum_eval_exact(spec.m, spec.dimension, complex(v)) for v in arr.ravel()])
    out = flat.reshape(arr.shape)
    return out.real if np.isrealobj(arr) else out


def gegenbauer_derivative(spec: GegenbauerSpec, z):
    """d/dz C_m^{(n-2)/2}(z) via the order-raising identity 2*alpha*C_{m-1}^{alpha+1}."""
    if spec.m == 0:
        return np.zeros_like(np.asarray(z))
    alpha = float(spec.order)
    return 2.0 * alpha * _recurrence(spec.m - 1, alpha + 1.0, z)


def gegenbauer_second_derivative(spec: GegenbauerSpec, z):
    if spec.m <= 1:
        return np.zeros_like(np.asarray(z))
    alpha = float(spec.order)
    return 4.0 * alpha * (alpha + 1.0) * _recurrence(spec.m - 2, alpha + 2.0, z)


@dataclass(frozen=True)
class OdeResiduals:
    """Residuals of the two candidate second-order ODEs at one argument.

    ``standard`` is (1-t^2) y'' - (n-1) t y' + m (m+n-2) y, the equation the
    order-(n-2)/2 polynomials satisfy.  ``variant`` is the alternative form
    (t^2-1) y'' + 2 t (n-1) y' - m (m+n-2) y, reported side by side; the two
    differ by a factor of 2 on the first-order coefficient and only one of
    them can vanish on the polynomial family.  ``scale`` is the sum of the
    term magnitudes of the standard form, for relative comparisons.
    """

    standard: float
    variant: float
    scale: float


def ode_residual(spec: GegenbauerSpec, t: float) -> OdeResiduals:
    """Evaluate both candidate ODE residuals at a real argument |t| <= 1."""
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"argument must satisfy |t| <= 1, got {t}")
    n, m = spec.dimension, spec.m
    y = float(gegenbauer_eval(spec, t))
    dy = float(gegenbauer_derivative(spec, t))
    d2y = float(gegenbauer_second_derivative(spec, t))
    lam = m * (m + n - 2)
    standard = (1.0 - t * t) * d2y - (n - 1.0) * t * dy + lam * y
    variant = (t * t - 1.0) * d2y + 2.0 * t * (n - 1.0) * dy - lam * y
    scale = abs((1.0 - t * t) * d2y) + abs((n - 1.0) * t * dy) + abs(lam * y)
    return OdeResiduals(standard=standard, variant=variant, scale=scale)


# ---------------------------------------------------------------------------
# singular solutions and the truncated Laplace kernel


def leading_term_gradient(spec: SingularSolutionSpec, x):
    """Analytic gradient of the leading term, shape (..., n)."""
    at, m = spec.at, spec.m
    n = at.dimension
    v = _displacement(at, x)
    Q = np.einsum("pi,ij,pj->p", v, at.K_inv, v)
    dQ = 2.0 * v @ at.K_inv
    gamma = (2.0 - n - m) / 2.0
    Qg = principal_branch_power(Q, gamma)
    if m == 0:
        grad = (gamma * Qg / Q)[:, None] * dQ
        return grad[0] if np.asarray(x).ndim == 1 else grad
    b = at.last_entry
    a = v @ at.last_row
    sigma = principal_branch_power(b * Q, 0.5)
    zeta = a / sigma
    spec_poly = GegenbauerSpec(m, n)
    c = gegenbauer_eval(spec_poly, zeta)
    dc = gegenbauer_derivative(spec_poly, zeta)
    # zeta = a / sigma with sigma^2 = b Q:  d zeta = da/sigma - a b dQ / (2 sigma^3)
    dzeta = at.last_row[None, :] / sigma[:, None] - (a * b / (2.0 * sigma**3))[:, None] * dQ
    const = math.factorial(m) * principal_branch_power(b, m / 2.0)
    grad = const * ((gamma * Qg / Q * c)[:, None] * dQ + Qg[:, None] * dc[:, None] * dzeta)
    return grad[0] if np.asarray(x).ndim == 1 else grad


def leading_term_isotropic(spec: SingularSolutionSpec, x):
    """Simplified leading term when B(z) = 0:

        m! (mu_a(z) + mu_s(z) - ik)^{(2-n)/2} |x-z|^{2-n-m} C_m((x-z)_n / |x-z|).

    Its constant convention differs from the anisotropic closed form by a
    fixed power of the dimension; the ratio of the two is checked to be
    constant, not equal to one.
    """
    at, m = spec.at, spec.m
    n = at.dimension
    off = at.K_inv - np.diag(np.diag(at.K_inv))
    if np.abs(off).max() > 1e-10 * np.abs(at.K_inv).max() or np.abs(
        np.diag(at.K_inv) - at.last_entry
    ).max() > 1e-10 * abs(at.last_entry):
        raise ValueError("isotropic form requires a scalar frozen tensor (B(z) = 0)")
    c = at.last_entry / n  # mu_a + mu_s - ik
    v = _displacement(at, x)
    r = np.linalg.norm(v, axis=1)
    poly = gegenbauer_eval(GegenbauerSpec(m, n), v[:, -1] / r)
    vals = (
        math.factorial(m)
        * principal_branch_power(c, (2.0 - n) / 2.0)
        * r ** (2.0 - n - m)
        * poly
    )
    return _scalarize(np.atleast_1d(vals), x)


def um_via_induction(spec: SingularSolutionSpec, x):
    """Direct double-sum evaluation of the m-th pole derivative of the
    fundamental solution (independent oracle for the closed form).

    Partitioning the m-fold derivative of (Q0 - 2 a s + b s^2)^{(2-n)/2}
    into j second-order and m-2j first-order blocks gives

        sum_j m!/(j! 2^j (m-2j)!) prod_{k<m-j}((2-n)/2 - k)
              Q^{(2-n)/2-m+j} (-2a)^{m-2j} (2b)^j.
    """
    at, m = spec.at, spec.m
    if m > 8:
        raise ValueError("induction-formula evaluation capped at order 8 (cost)")
    n = at.dimension
    v = _displacement(at, x)
    Q = np.einsum("pi,ij,pj->p", v, at.K_inv, v)
    a = v @ at.last_row
    b = at.last_entry
    gamma0 = (2.0 - n) / 2.0
    total = np.zeros(len(v), dtype=complex)
    for j in range(m // 2 + 1):
        falling = 1.0
        for k in range(m - j):
            falling *= gamma0 - k
        comb = math.factorial(m) / (math.factorial(j) * 2**j * math.factorial(m - 2 * j))
        total += (
            comb
            * falling
            * principal_branch_power(Q, gamma0 - m + j)
            * (-2.0 * a) ** (m - 2 * j)
            * (2.0 * b) ** j
        )
    return _scalarize(total, x)


def gradient_lower_bracket(m: int, n: int, t):
    """(2-n-m)^2 C_m(t)^2 + C_m'(t)^2 (1 - t^2) for real |t| <= 1.

    The square of |x-z|^{n+m-1} |grad u_m| in the isotropic normalization;
    strictly positive because the polynomial and its derivative never
    vanish together on [-1, 1].
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("bracket argument must satisfy |t| <= 1")
    spec = GegenbauerSpec(m, n)
    c = np.asarray(gegenbauer_eval(spec, t), dtype=float)
    dc = np.asarray(gegenbauer_derivative(spec, t), dtype=float)
    out = (2.0 - n - m) ** 2 * c**2 + dc**2 * (1.0 - t * t)
    return float(out) if out.ndim == 0 else out


def bracket_grid_minimum(m: int, n: int, num: int = 10_001) -> float:
    """Minimum of the gradient bracket over a uniform grid of [-1, 1]."""
    t = np.linspace(-1.0, 1.0, num)
    return float(np.min(gradient_lower_bracket(m, n, t)))


def truncated_laplace_kernel(x, y, nu: int, n: int = 3):
    """Gamma_nu(x, y): the Laplace fundamental solution with its first
    nu + 1 exterior-harmonic moments removed,

        Gamma_nu = -C_n |x-y|^{2-n} + C_n sum_{j<=nu} |y|^j / |x|^{j+n-2}
                                            C_j^{(n-2)/2}(x^ . y^).

    nu = -1 returns the plain fundamental solution.  Harmonic in x away
    from the origin; decays like (|y|/|x|)^{nu+1} |x|^{2-n} for |y| < |x|.
    """
    if nu < -1:
        raise ValueError("truncation order must be >= -1")
    x = np.asarray(x, dtype=float)
    y_was_vector = np.asarray(y).ndim == 1
    y = np.atleast_2d(np.asarray(y, dtype=float))
    diff = x[None, :] - y
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist == 0.0):
        raise SingularityError("kernel evaluation at x = y")
    cn = _sphere_constant(n)
    out = -cn * dist ** (2.0 - n)
    if nu >= 0:
        rx = np.linalg.norm(x)
        if rx == 0.0:
            raise SingularityError("truncated kernel needs |x| > 0")
        ry = np.linalg.norm(y, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosg = np.where(ry > 0.0, (y @ x) / (np.maximum(ry, 1e-300) * rx), 0.0)
        t = ry / rx
        acc = np.zeros_like(dist)
        prev = np.ones_like(dist)
        cur = None
        spec_alpha = (n - 2) / 2.0
        tpow = np.ones_like(dist)
        for j in range(nu + 1):
            if j == 0:
                cj = prev
            elif j == 1:
                cur = 2.0 * spec_alpha * cosg
                cj = cur
            else:
                prev, cur = cur, (
                    2.0 * cosg * (j + spec_alpha - 1.0) * cur - (j + 2.0 * spec_alpha - 2.0) * prev
                ) / j
                cj = cur
            acc += tpow * cj
            tpow = tpow * t
        out = out + cn * rx ** (2.0 - n) * acc
    return float(out[0]) if y_was_vector else out


# ---------------------------------------------------------------------------
# tensor derivative gap and the Alessandrini identity


def tensor_derivative_gap_direct(medium1: OpticalMedium, medium2: OpticalMedium, h: int) -> float:
    """Cross-check route: differentiate the sampled K fields entrywise."""
    if h not in (0, 1):
        raise ValueError("tensor derivative gap implemented for h in {0, 1}")
    grid = medium1.grid
    dK = split_real_imag(medium1).K - split_real_imag(medium2).K
    b = grid.boundary_indices
    if h == 0:
        return float(np.linalg.norm(dK[b], axis=(1, 2)).max())
    n = dK.shape[-1]
    parts = np.stack(
        [np.stack([grid.gradient(dK[:, i, j]) for j in range(n)], axis=-1) for i in range(n)],
        axis=-2,
    )
    return float(np.sqrt(np.sum(np.abs(parts[b]) ** 2, axis=(1, 2, 3))).max())


def alessandrini_residual(
    medium1: OpticalMedium,
    medium2: OpticalMedium,
    f,
    g,
    dn1: DNOperator | None = None,
    dn2: DNOperator | None = None,
) -> float:
    """Relative defect of the boundary-volume identity

        <(L1 - L2) f, conj(g)> = int (K1 - K2) grad u . grad v
                                 + int (mu1 - mu2) u v

    where u solves with medium1 and data f, v with medium2 and data g.
    Volume integrals use trapezoid quadrature and discrete gradients, so the
    defect is pure discretization error and shrinks under refinement.
    """
    grid = medium1.grid
    if medium2.grid is not grid and medium2.grid != grid:
        raise ValueError("media must share one grid")
    tensor1, tensor2 = split_real_imag(medium1), split_real_imag(medium2)
    op1 = assemble(medium1, grid, tensor=tensor1)
    op2 = assemble(medium2, grid, tensor=tensor2)
    if dn1 is None:
        dn1 = assemble_dn(medium1, grid, operator=op1)
    if dn2 is None:
        dn2 = assemble_dn(medium2, grid, operator=op2)

    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    # <Lambda f, conj(g)> = g^T S f, bilinear in both arguments
    lhs = complex(g @ (dn1.matrix @ f)) - complex(g @ (dn2.matrix @ f))

    u = solve_dirichlet(op1, f).values
    v = solve_dirichlet(op2, g).values
    grad_u = grid.gradient(u)
    grad_v = grid.gradient(v)
    dK = tensor1.K - tensor2.K
    w = grid.volume_weights
    vol_grad = np.sum(w * np.einsum("pi,pij,pj->p", grad_u, dK, grad_v))
    vol_mass = np.sum(w * (medium1.mu_a - medium2.mu_a) * u * v)

    scale = max(abs(lhs), abs(vol_grad) + abs(vol_mass), 1e-300)
    return float(abs(lhs - vol_grad - vol_mass) / scale)


# ---------------------------------------------------------------------------
# dense H^{1/2} -> H^{-1/2} norms


def dense_whitened(delta, scale: SobolevScale) -> np.ndarray:
    """(I+D)^{-1/4} V^T Delta V (I+D)^{-1/4} with the dense eigenbasis V of
    ``scale.eigenvectors``: the Nb x Nb matrix whose spectral norm is the
    H^{1/2} -> H^{-1/2} operator norm of Delta.  V is real, so the
    congruence is taken part by part, as two real products."""
    delta = np.asarray(delta, dtype=complex)
    w = (1.0 + scale.eigenvalues) ** -0.25
    V = scale.eigenvectors
    core = (V.T @ delta.real @ V) + 1j * (V.T @ delta.imag @ V)
    return w[:, None] * core * w[None, :]


def dense_operator_norm(delta, scale: SobolevScale) -> float:
    """Largest singular value of ``dense_whitened(delta, scale)`` by a dense SVD."""
    return float(np.linalg.svd(dense_whitened(delta, scale), compute_uv=False)[0])
