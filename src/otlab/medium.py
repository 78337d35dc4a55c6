"""Optical coefficients, complex diffusion-tensor algebra and wave-number ranges.

The forward operator is L = -div(K grad .) + q with

    K = (1/n) ((mu_a - i k) I + (I - B) mu_s)^{-1},      q = mu_a - i k.

All pointwise algebra lives here: the one formula for the real part

    M = mu_a I + (I - B) mu_s,      K^{-1} = n (M - i k I),

(``base_matrix``), K from it by one complex 3 x 3 adjugate, the two-sided
ellipticity bounds Re K and Im K satisfy under the a-priori assumptions,
and the admissible wave-number intervals of the boundary-stability theory.
eig(M) = mu_a + mu_s eig(I - B) needs an eigen-solve, and the audit reads B,
only where B is not exactly zero (``OpticalMedium.anisotropic_rows``).

Writing u = u_R + i u_I turns the complex equation into a real system for
(u_R, u_I) with the 2n x 2n block coefficient [[K_R, -K_I], [K_I, K_R]],
K_R = Re K and K_I = Im K, and the reaction block [[mu_a, k], [-k, mu_a]].
Their quadratic forms see only K_R and mu_a, which is why
``verify_ellipticity`` audits the spectrum of K_R alone; no code path
builds the blocks.  The pointwise tensor K, its sensitivity
dK/dmu_a = -n K^2 and the audited spectra are checked in the tests against
numpy's inverse of n (M - ik I) and ``eigvalsh`` of the real and imaginary
parts of the sampled K.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import hashlib
import math

import numpy as np

from .expressions import Expression
from .grid import GridDomain


@dataclass(frozen=True)
class AprioriData:
    """A-priori constants the stability theory depends on.

    n: space dimension (>= 3); p: Sobolev exponent (> n); lam: two-sided
    bound on mu_a and mu_s; E: W^{1,p} norm bound; cal_e: ellipticity bound
    of I - B; k: wave number; r0, L: boundary Lipschitz constants; diam:
    domain diameter; alpha: Hoelder exponent in (0, 1 - n/p).
    """

    n: int = 3
    p: float = 4.0
    lam: float = 1.5
    E: float = 10.0
    cal_e: float = 1.2
    k: float = 0.12
    r0: float = 1.0
    L: float = 1.0
    diam: float = 2.0
    alpha: float = 0.2

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")
        if not self.p > self.n:
            raise ValueError(f"need p > n, got p={self.p}, n={self.n}")
        for name in ("lam", "E", "cal_e", "k", "r0", "L", "diam"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # two-sided bounds 1/lam <= . <= lam are only consistent for lam >= 1
        if self.lam < 1 or self.cal_e < 1:
            raise ValueError("lam and cal_e must be >= 1 (two-sided bound consistency)")
        if not 0 < self.alpha < 1 - self.n / self.p:
            raise ValueError(
                f"alpha must lie in (0, 1 - n/p) = (0, {1 - self.n / self.p:.4g}), "
                f"got {self.alpha}"
            )


def k_admissible_ranges(lam: float, cal_e: float, n: int) -> tuple[float, float]:
    """Endpoints (k0, k0_tilde) of the admissible wave-number intervals.

    A wave number is admissible when 0 < k <= k0 or k >= k0_tilde, with

        k0 = (sqrt(lam^2 (1+E)^2 + lam^-2 (1+1/E)^2 tan^2(pi/2n)) - lam (1+E)) / tan(pi/2n)
        k0_tilde = (1 + sqrt(1 + tan^2(pi/2n))) / tan(pi/2n) * lam (1+E)

    where E stands for cal_e.  Requires n >= 3 so tan(pi/2n) is tame.
    """
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    if lam <= 0 or cal_e <= 0:
        raise ValueError("lam and cal_e must be positive")
    t = math.tan(math.pi / (2 * n))
    hi = lam * (1.0 + cal_e)
    lo = (1.0 + 1.0 / cal_e) / lam
    # rationalized form of (sqrt(hi^2 + lo^2 t^2) - hi) / t, which cancels
    # catastrophically for hi >> lo
    k0 = lo * lo * t / (math.sqrt(hi * hi + lo * lo * t * t) + hi)
    k0_tilde = (1.0 + math.sqrt(1.0 + t * t)) / t * hi
    return k0, k0_tilde


def is_wave_number_admissible(k: float, lam: float, cal_e: float, n: int) -> bool:
    """Classify k against the closed intervals (0, k0] and [k0_tilde, inf)."""
    k0, k0_tilde = k_admissible_ranges(lam, cal_e, n)
    return (0.0 < k <= k0) or (k >= k0_tilde)


# largest max |B - B^T| taken for a symmetric B
B_SYMMETRY_ATOL = 1e-12


def base_matrix(mu_a, mu_s, B) -> np.ndarray:
    """M = mu_a I + (I - B) mu_s, the real part of K^{-1} / n, over any leading axes.

    ``mu_a`` and ``mu_s`` broadcast against the leading axes of ``B``
    (..., n, n).  This is the only place M is written out:
    ``split_real_imag`` samples K from it,
    ``SingularityPoint.from_coefficients`` freezes K^{-1} = n (M - ik I)
    and ``stability.tensor_derivative_gap`` differentiates it.
    """
    n = B.shape[-1]
    mu_a, mu_s = np.asarray(mu_a), np.asarray(mu_s)
    # one array, written in place: fresh (..., n, n) temporaries cost more than the arithmetic
    M = np.empty(np.broadcast_shapes(mu_a.shape, mu_s.shape, B.shape[:-2]) + (n, n))
    np.subtract(np.eye(n), B, out=M)
    M *= mu_s[..., None, None]
    M[..., range(n), range(n)] += mu_a[..., None]
    return M


# ---------------------------------------------------------------------------
# sampled fields


@dataclass
class OpticalMedium:
    """Optical coefficients sampled on the solver grid.

    mu_a, mu_s have shape (num_points,), B has shape (num_points, n, n)
    and is symmetric pointwise.  Admissibility (the pointwise a-priori
    bounds) is checked on the samples only.
    """

    grid: GridDomain
    mu_a: np.ndarray
    mu_s: np.ndarray
    B: np.ndarray
    apriori: AprioriData
    supp_B_interior: bool = True

    @classmethod
    def from_expressions(
        cls,
        grid: GridDomain,
        apriori: AprioriData,
        mu_a="1",
        mu_s="1",
        B=None,
        supp_B_interior: bool = True,
    ) -> "OpticalMedium":
        """Build a medium from constants, expression strings or raw arrays.

        Raw arrays are copied, so writing into the caller's array afterwards
        changes neither the medium nor its checks nor its ``fingerprint``.
        """
        n = apriori.n
        pts = grid.points
        npts = grid.num_points

        def scalar_field(spec):
            if isinstance(spec, str):
                return Expression(spec, dimension=n)(pts)
            arr = np.array(spec, dtype=float)
            if arr.ndim == 0:
                return np.full(npts, float(arr))
            if arr.shape != (npts,):
                raise ValueError(f"scalar field must have shape ({npts},), got {arr.shape}")
            return arr

        mu_a_arr = scalar_field(mu_a)
        mu_s_arr = scalar_field(mu_s)
        if B is None:
            B_arr = np.zeros((npts, n, n))
        elif isinstance(B, (list, tuple)):
            B_arr = np.zeros((npts, n, n))
            for i in range(n):
                for j in range(n):
                    B_arr[:, i, j] = scalar_field(B[i][j])
        else:
            B_arr = np.array(B, dtype=float)
            if B_arr.shape == (n, n):
                B_arr = np.broadcast_to(B_arr, (npts, n, n)).copy()
            elif B_arr.shape != (npts, n, n):
                raise ValueError(f"B must have shape ({npts}, {n}, {n}), got {B_arr.shape}")
        return cls(grid, mu_a_arr, mu_s_arr, B_arr, apriori, supp_B_interior)

    def with_absorption(self, mu_a: np.ndarray) -> "OpticalMedium":
        """Same medium with a replaced absorption field (used by perturbation
        sweeps); the field is copied, like the raw arrays of ``from_expressions``."""
        mu_a = np.array(mu_a, dtype=float)
        if mu_a.shape != self.mu_a.shape:
            raise ValueError("replacement absorption field has the wrong shape")
        return replace(self, mu_a=mu_a)

    def fingerprint(self) -> str:
        hsh = hashlib.sha256()
        hsh.update(self.grid.fingerprint().encode())
        for arr in (self.mu_a, self.mu_s, self.B):
            hsh.update(np.ascontiguousarray(arr).tobytes())
        hsh.update(repr(self.apriori).encode())
        return hsh.hexdigest()[:16]

    def anisotropic_rows(self) -> np.ndarray:
        """Indices of the nodes where B is not exactly zero; I - B = I at every other node."""
        entries = self.B.reshape(len(self.B), -1).T
        # any entry nonzero, one strided column at a time: no |B| temporary
        nonzero = entries[0] != 0
        for column in entries[1:]:
            nonzero |= column != 0
        return np.flatnonzero(nonzero)

    def b_asymmetry(self, rows: np.ndarray | None = None) -> float:
        """max |B - B^T| over the samples, read on ``rows`` (``anisotropic_rows``
        when not given), outside which B is zero."""
        B = self.B.take(self.anisotropic_rows() if rows is None else rows, axis=0)
        # one pair of strided columns at a time: a fancy index costs several times more
        gaps = [np.abs(B[:, i, j] - B[:, j, i]).max(initial=0.0) for i, j in zip(*np.triu_indices(B.shape[-1], 1))]
        return float(max(gaps, default=0.0))

    def b_spectrum(self, rows: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of I - (B + B^T)/2 at the nodes ``rows``, shape
        (len(rows), n); at a node where B is zero all n of them are 1."""
        B = self.B.take(rows, axis=0)
        n = B.shape[-1]
        S = B + np.swapaxes(B, 1, 2)
        S *= -0.5
        S[:, range(n), range(n)] += 1.0
        return np.linalg.eigvalsh(S)

    def admissibility_violations(self) -> list[str]:
        """Pointwise a-priori checks on the samples; empty list means admissible."""
        a = self.apriori
        out = []
        for name, f in (("mu_a", self.mu_a), ("mu_s", self.mu_s)):
            outside = (f < 1.0 / a.lam - 1e-12) | (f > a.lam + 1e-12)
            if outside.any():
                bad = int(np.argmax(outside))
                out.append(
                    f"{name} out of [1/lam, lam] = [{1 / a.lam:.6g}, {a.lam:.6g}] "
                    f"at node {bad} (value {f[bad]:.6g})"
                )
        rows = self.anisotropic_rows()
        asym = self.b_asymmetry(rows)
        if asym > B_SYMMETRY_ATOL:
            out.append(f"B not symmetric (max asymmetry {asym:.3e})")
        eigs = self.b_spectrum(rows)
        if len(rows) < len(self.B):
            eigs = np.append(eigs, 1.0)  # the eigenvalue of I - B where B is zero
        lo, hi = eigs.min(), eigs.max()
        if lo < 1.0 / a.cal_e - 1e-12 or hi > a.cal_e + 1e-12:
            out.append(
                f"I - B eigenvalues [{lo:.6g}, {hi:.6g}] escape "
                f"[1/cal_e, cal_e] = [{1 / a.cal_e:.6g}, {a.cal_e:.6g}]"
            )
        if self.supp_B_interior:
            near = rows[~self.grid.interior_mask[rows]]
            if np.any(np.linalg.norm(self.B[near], axis=(1, 2)) > 1e-14):
                out.append("B does not vanish on the boundary layer (supp_B_interior set)")
        return out

    def sobolev_norm_estimate(self, which: str = "mu_a") -> float:
        """Grid estimate of the W^{1,p} norm of a coefficient (approximation).

        Discrete gradients plus trapezoid quadrature of |.|^p; recorded as an
        approximation in reports, never used as a hard gate.
        """
        f = {"mu_a": self.mu_a, "mu_s": self.mu_s}[which]
        p = self.apriori.p
        w = self.grid.volume_weights
        grad = self.grid.gradient(f)
        total = np.sum(w * np.abs(f) ** p) + np.sum(w * np.linalg.norm(grad, axis=1) ** p)
        return float(total ** (1.0 / p))


@dataclass
class ComplexTensorField:
    """Sampled diffusion tensor K and reaction coefficient q = mu_a - i k.

    ``eig_M`` holds the ascending eigenvalues of M = ``base_matrix`` per
    node; Re K and Im K are rational functions of the symmetric M, so they
    share its eigenvectors and their spectra follow from these.

    Both are stored coefficient-major, so each coefficient is one contiguous
    row over the nodes: ``K`` is the (N, 3, 3) view of a (3, 3, N) array and
    ``eig_M`` the (N, 3) view of a (3, N) one.
    """

    K: np.ndarray       # (N, 3, 3) complex, a view of (3, 3, N)
    eig_M: np.ndarray   # (N, 3) real, ascending, a view of (3, N)
    q: np.ndarray       # (N,) complex


def split_real_imag(medium: OpticalMedium) -> ComplexTensorField:
    """Sample K, the eigenvalues of M and q over the whole grid.

    K = (1/n) A^{-1} = adj(A) / (n det A) with A = M - ik I,
    M = ``base_matrix``.  Where B is zero, A = alpha I and K = kappa I, which
    the adjugate's own operation order gives from alpha alone: kappa is
    written on every node, then the complex 3 x 3 adjugate on the six
    entries of the upper triangle overwrites the ``anisotropic_rows``.  It
    matches numpy's inverse of n (M - ik I) to round-off.  The eigenvalues
    of M are mu_a + mu_s eig(I - B): 1 for eig(I - B) where B is zero,
    ``OpticalMedium.b_spectrum`` on the ``anisotropic_rows``, so an
    isotropic medium runs no eigen-solve.  Both are written coefficient-major,
    with no gather: K into a (3, 3, N) array and eig_M into a (3, N) one,
    returned as their (N, 3, 3) and (N, 3) views.  The grid is the 3-D
    cube, so the tensor must be 3 x 3 (n = 3); anything else raises
    ValueError.  The adjugate reads one triangle of M, so a B that is not
    symmetric (max |B - B^T| above ``B_SYMMETRY_ATOL``) raises ValueError
    too.
    """
    n, k = medium.apriori.n, medium.apriori.k
    if n != 3 or medium.B.shape[1:] != (3, 3):
        raise ValueError(f"the diffusion tensor must be 3 x 3 (n = 3), got n = {n}, B {medium.B.shape}")
    rows = medium.anisotropic_rows()
    asym = medium.b_asymmetry(rows)
    if asym > B_SYMMETRY_ATOL:
        raise ValueError(f"B must be symmetric, got max |B - B^T| = {asym:.3e}")
    mu_a, mu_s = medium.mu_a, medium.mu_s
    K = np.zeros((3, 3, len(mu_a)), dtype=complex)
    # where B is zero, M = (mu_s + mu_a) I and A/s = alpha I, s = |tr M| + nk,
    # so K = kappa I with the adjugate's kappa = alpha^2 / (n s alpha alpha^2),
    # in its operation order; the anisotropic rows are overwritten below
    diag = mu_s + mu_a
    s = np.abs(diag + diag + diag) + n * k
    alpha = np.empty(len(s), dtype=complex)
    np.divide(diag, s, out=alpha.real)
    np.divide(-k, s, out=alpha.imag)
    kappa = K[0, 0]
    np.multiply(alpha, alpha, out=kappa)
    # in place, like the adjugate's scaling: a product that numpy writes into
    # its right operand's temporary can round the imaginary part differently
    kappa *= 1.0 / ((n * s) * (alpha * kappa))
    K[1, 1] = kappa
    K[2, 2] = kappa
    # A is divided by the positive |tr M| + nk at each node, so det neither
    # under- nor overflows for entries far from one; K = adj(A/s) / (n s det(A/s))
    M = base_matrix(mu_a[rows], mu_s[rows], medium.B[rows]).reshape(-1, 9).T  # row 3i + j: M_ij
    s = np.abs(M[0] + M[4] + M[8]) + n * k
    upper = np.zeros((6, len(rows)), dtype=complex)
    np.divide(M[[0, 4, 8, 1, 5, 2]], s, out=upper.real)
    upper.imag[:3] = -k / s
    a, b, c, d, e, f = upper
    adj = np.stack([b * c - e * e, a * c - f * f, a * b - d * d, e * f - d * c, d * e - f * b, d * f - a * e])
    adj *= 1.0 / ((n * s) * (a * adj[0] + d * adj[3] + f * adj[4]))
    for (i, j), entry in zip(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)), adj):
        K[i, j, rows] = K[j, i, rows] = entry
    eig_M = np.empty((n, len(mu_a)))
    eig_M[:] = mu_a + mu_s  # mu_a + mu_s eig(I - B) with eig(I - B) = 1
    eig_M[:, rows] = (mu_a[rows, None] + mu_s[rows, None] * medium.b_spectrum(rows)).T
    # a negative mu_s reverses the order of mu_s eig(I - B)
    flip = rows[mu_s[rows] < 0]
    eig_M[:, flip] = eig_M[::-1, flip]
    return ComplexTensorField(K=K.transpose(2, 0, 1), eig_M=eig_M.T, q=mu_a - 1j * k)


@dataclass
class EllipticityReport:
    """Pointwise ellipticity audit of a sampled tensor field.

    Lower bounds are the explicit a-priori ones

        min eig K_R >= lam (1+cal_e) / n / (lam^2 (1+cal_e)^2 + k^2)
        min eig K_I >= k / n / (lam^2 (1+cal_e)^2 + k^2)

    and the upper bound is the two-norm estimate

        |K_R|^2 + |K_I|^2 <= (lam^-2 (1+1/cal_e)^2 + k^2)^{-2}
                             (lam^2 (1+cal_e)^2 + k^2) / n^2.
    """

    min_eig_K_R: np.ndarray
    min_eig_K_I: np.ndarray
    norm_sq_sum: np.ndarray
    lower_bound_K_R: float
    lower_bound_K_I: float
    upper_bound_norm_sq: float
    strong_ellipticity_constant: float
    violations: list = field(default_factory=list)

    @property
    def admissible(self) -> bool:
        return not self.violations


def verify_ellipticity(tensor: ComplexTensorField, apriori: AprioriData) -> EllipticityReport:
    """Check every grid sample against the explicit ellipticity bounds.

    K_R and K_I are rational functions of the symmetric M, so each
    eigenvalue m of M (``tensor.eig_M``) gives the eigenvalues
    m / (n (m^2 + k^2)) of K_R and k / (n (m^2 + k^2)) of K_I; no
    eigen-solve of K_R or K_I is needed.  Violations are report entries,
    never exceptions.
    """
    lam, cal_e, k, n = apriori.lam, apriori.cal_e, apriori.k, apriori.n
    hi = lam * (1.0 + cal_e)
    lo = (1.0 + 1.0 / cal_e) / lam
    lower_R = hi / n / (hi * hi + k * k)
    lower_I = k / n / (hi * hi + k * k)
    upper = (hi * hi + k * k) / (n * n) / (lo * lo + k * k) ** 2

    # one row per ascending eigenvalue (the layout of ``split_real_imag``, so
    # no copy), so each extreme is an elementwise pick among three rows, not
    # a reduction along a short axis of length 3
    eig_M = np.ascontiguousarray(tensor.eig_M.T)
    # two (3, N) arrays, written in place: each fresh temporary of that size
    # can cost a page-faulting allocation of its own, more than its arithmetic
    denom = np.square(eig_M)
    denom += k**2
    denom *= n
    eigs_R = eig_M / denom
    eigs_I = np.divide(k, denom, out=denom)
    min_R, min_I = np.minimum.reduce(eigs_R), np.minimum.reduce(eigs_I)
    norm_sq = np.maximum.reduce(np.abs(eigs_R, out=eigs_R)) ** 2 + np.maximum.reduce(eigs_I) ** 2

    tol = 1e-12
    violations = []
    for idx in np.flatnonzero(min_R < lower_R - tol):
        violations.append((int(idx), "K_R lower bound", float(min_R[idx]), lower_R))
    for idx in np.flatnonzero(min_I < lower_I - tol):
        violations.append((int(idx), "K_I lower bound", float(min_I[idx]), lower_I))
    for idx in np.flatnonzero(norm_sq > upper + tol):
        violations.append((int(idx), "norm upper bound", float(norm_sq[idx]), upper))
    # reaction positivity: q xi . xi = mu_a |xi|^2 must stay in [1/lam, lam]
    mu_a = tensor.q.real
    for idx in np.flatnonzero(mu_a < 1.0 / lam - tol):
        violations.append((int(idx), "reaction lower bound", float(mu_a[idx]), 1.0 / lam))
    for idx in np.flatnonzero(mu_a > lam + tol):
        violations.append((int(idx), "reaction upper bound", float(mu_a[idx]), lam))

    # the 2n x 2n block C satisfies C xi . xi = K_R xi1 . xi1 + K_R xi2 . xi2,
    # so the sandwich constant is governed by the spectrum of K_R alone
    c2 = max(math.sqrt(upper), 1.0 / lower_R)
    return EllipticityReport(
        min_eig_K_R=min_R,
        min_eig_K_I=min_I,
        norm_sq_sum=norm_sq,
        lower_bound_K_R=lower_R,
        lower_bound_K_I=lower_I,
        upper_bound_norm_sq=upper,
        strong_ellipticity_constant=c2,
        violations=violations,
    )
