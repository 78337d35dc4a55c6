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
  series of the potential quadrature), and the mollified 1/rho by a boolean
  gather and scatter (against the indexed overwrite of the quadrature);
- the energy matrix as COO triplets summed by the CSR conversion (against
  the diagonal-by-diagonal build of ``solver._stencil``);
- the four blocks of the partition sliced from the full CSR, and the sine
  preconditioner's model from the CSR's diagonals and row sums (against
  ``DiscreteOperator``'s blocks and ``solver._scaled_model``, read from the
  stencil's diagonals);
- the diffusion tensor K = (n (M - ik I))^{-1} by a direct complex
  inverse, and the spectra of K_R and K_I by ``eigvalsh`` of the sampled
  parts (against the adjugate closed form of ``split_real_imag`` and the
  eigenvalue map of ``verify_ellipticity``);
- the tensor derivative gap by entrywise differencing of the sampled K
  (against the chain rule);
- the continuous Alessandrini identity (against Schur products);
- the dense whitening of a boundary matrix and its dense SVD (against the
  block-wise whitening and the Lanczos norms of ``otlab.dnmap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from otlab.dnmap import SobolevScale, _dn_product
from otlab.errors import SingularityError
from otlab.gegenbauer import GegenbauerSpec, _recurrence, gegenbauer_eval, sum_coefficients
from otlab.grid import GridDomain
from otlab.medium import ComplexTensorField, OpticalMedium, base_matrix, split_real_imag
from otlab.singular import (
    SingularSolutionSpec,
    _displacement,
    _mollifier_coefficients,
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


def masked_mollified_inverse_distance(rho: np.ndarray, delta: float) -> np.ndarray:
    """1/rho for rho >= delta and the even polynomial core below, each
    formed on its own boolean-masked part of rho and scattered back."""
    inside = rho < delta
    out = np.empty_like(rho)
    out[~inside] = 1.0 / rho[~inside]
    u = rho[inside] / delta
    acc = np.zeros_like(u)
    for i, c in enumerate(_mollifier_coefficients()):
        acc += c * u ** (2 * i)
    out[inside] = acc / delta
    return out


# ---------------------------------------------------------------------------
# the diffusion tensor and its ellipticity spectra


def direct_diffusion_tensor(mu_a, mu_s, B, k: float, n: int = 3) -> np.ndarray:
    """K = (n (M - ik I))^{-1} by numpy's complex inverse, over the leading
    axes of ``B`` (None for B = 0 at one point)."""
    B = np.zeros((n, n)) if B is None else np.asarray(B, dtype=float)
    return np.linalg.inv(n * (base_matrix(mu_a, mu_s, B) - 1j * k * np.eye(n)))


def adjugate_diffusion_tensor(medium: OpticalMedium) -> np.ndarray:
    """K of ``split_real_imag`` from the complex 3 x 3 adjugate at every
    node, isotropic or not: the whole-grid formula that the tensor pass
    now runs on the anisotropic rows only."""
    n, k = medium.apriori.n, medium.apriori.k
    M = base_matrix(medium.mu_a, medium.mu_s, medium.B).reshape(-1, 9).T
    s = np.abs(M[0] + M[4] + M[8]) + n * k
    upper = np.zeros((6, len(s)), dtype=complex)
    np.divide(M[[0, 4, 8, 1, 5, 2]], s, out=upper.real)
    upper.imag[:3] = -k / s
    a, b, c, d, e, f = upper
    cof = np.stack([b * c - e * e, a * c - f * f, a * b - d * d, e * f - d * c, d * e - f * b, d * f - a * e])
    cof *= 1.0 / ((n * s) * (a * cof[0] + d * cof[3] + f * cof[4]))
    return cof[[0, 3, 4, 3, 1, 5, 4, 5, 2]].T.reshape(-1, 3, 3)


def sampled_spectra(tensor: ComplexTensorField):
    """(min eig K_R, min eig K_I, max|eig K_R|^2 + max|eig K_I|^2) per node,
    from ``eigvalsh`` of the sampled K_R and K_I."""
    eigs_R = np.linalg.eigvalsh(tensor.K.real)
    eigs_I = np.linalg.eigvalsh(tensor.K.imag)
    norm_sq = np.abs(eigs_R).max(axis=1) ** 2 + np.abs(eigs_I).max(axis=1) ** 2
    return eigs_R[:, 0], eigs_I[:, 0], norm_sq


def coo_energy_matrix(grid: GridDomain, tensor: ComplexTensorField, include_reaction: bool = True):
    """The energy matrix of ``solver._stencil`` built as COO triplets, one
    per coupling and node, with the duplicates summed by the CSR conversion:
    the face-averaged flux terms, the node-centred cross terms and the
    trapezoid mass terms written out index by index."""
    h = grid.h
    N = grid.num_points
    m = grid.m_per_axis
    strides = grid.strides
    midx = grid.multi_index

    rows, cols, vals = [], [], []

    # face-averaged flux terms for the diagonal tensor entries; the
    # transverse trapezoid fraction keeps the boundary energy functional
    # second-order and leaves every interior equation untouched (faces
    # incident to interior unknowns always carry weight one)
    for d in range(3):
        has_next = midx[:, d] < m - 1
        p = np.flatnonzero(has_next)
        q = p + strides[d]
        transverse = [e for e in range(3) if e != d]
        w_t = 0.5 ** grid.rim[p][:, transverse].sum(axis=1)
        coef = 0.5 * (tensor.K[p, d, d] + tensor.K[q, d, d]) * h * w_t
        rows += [p, q, p, q]
        cols += [p, q, q, p]
        vals += [coef, coef, -coef, -coef]

    # node-centered cross terms (only present for anisotropic B)
    for d in range(3):
        for e in range(d + 1, 3):
            if not np.any(tensor.K[:, d, e]):
                continue
            p = np.flatnonzero(~(grid.rim[:, d] | grid.rim[:, e]))
            coef = tensor.K[p, d, e] * h * grid.trapezoid_fraction[p] / 4.0
            for s1 in (-1, 1):
                for s2 in (-1, 1):
                    sign = s1 * s2
                    rows += [p + s1 * strides[e], p + s1 * strides[d]]
                    cols += [p + s2 * strides[d], p + s2 * strides[e]]
                    vals += [sign * coef, sign * coef]

    if include_reaction:
        p = np.arange(N)
        rows.append(p)
        cols.append(p)
        vals.append(tensor.q * grid.volume_weights)

    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
        dtype=complex,
    ).tocsr()


def sliced_blocks(op):
    """(A_II, A_IB, A_BI, A_BB) of ``op`` sliced from its full CSR matrix by
    fancy indexing, rows first."""
    A, ii, bb = op.matrix, op.interior_idx, op.boundary_idx
    A_IB = A[ii][:, bb].tocsc()
    return A[ii][:, ii].tocsr(), A_IB, A_IB.T.tocsr(), A[bb][:, bb].tocsr()


def csr_sine_model(op):
    """(D, [a_0, a_1, a_2], b) of the sine preconditioner's model on the
    whole strict interior from the CSR: D and the couplings from
    ``diagonal(k)`` of the sliced A_II, the row sums from the full matrix
    times ones."""
    n = op.grid.m_per_axis - 2
    A_II = sliced_blocks(op)[0]
    D = A_II.diagonal()
    s = np.sqrt(1.0 / D)
    a = [-(s[:-k] * A_II.diagonal(k)) @ s[k:] / (n * n * (n - 1)) for k in (n * n, n, 1)]
    b = (op.matrix @ np.ones(op.grid.num_points))[op.interior_idx] @ (1.0 / D) / n**3
    return D, a, b


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


def alessandrini_residual(medium1: OpticalMedium, medium2: OpticalMedium, f, g) -> float:
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

    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    # <Lambda f, conj(g)> = g^T S f, bilinear in both arguments
    lhs = complex(g @ _dn_product(op1)(f)) - complex(g @ _dn_product(op2)(f))

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
