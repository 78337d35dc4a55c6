"""Optical coefficients, complex diffusion-tensor algebra and wave-number ranges.

The forward operator is L = -div(K grad .) + q with

    K = (1/n) ((mu_a - i k) I + (I - B) mu_s)^{-1},      q = mu_a - i k.

All pointwise algebra lives here: the one formula for the real part

    M = mu_a I + (I - B) mu_s,      K^{-1} = n (M - i k I),

(``base_matrix``), the closed forms for Re K and Im K built on it, the
two-sided ellipticity bounds they satisfy under the a-priori assumptions,
and the admissible wave-number intervals of the boundary-stability theory.

Writing u = u_R + i u_I turns the complex equation into a real system for
(u_R, u_I) with the 2n x 2n block coefficient [[K_R, -K_I], [K_I, K_R]]
and the reaction block [[mu_a, k], [-k, mu_a]].  Their quadratic forms see
only K_R and mu_a, which is why ``verify_ellipticity`` audits the spectrum
of K_R alone; no code path builds the blocks.  The pointwise tensor K,
its sensitivity dK/dmu_a = -n K^2 and the audited spectra are checked in
the tests against numpy's inverse of n (M - ik I) and ``eigvalsh`` of the
sampled K_R and K_I.
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
    eye = np.eye(B.shape[-1])
    mu_a = np.asarray(mu_a)[..., None, None]
    mu_s = np.asarray(mu_s)[..., None, None]
    return mu_a * eye + (eye - B) * mu_s


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
        """Build a medium from constants, expression strings or raw arrays."""
        n = apriori.n
        pts = grid.points
        npts = grid.num_points

        def scalar_field(spec):
            if isinstance(spec, str):
                return Expression(spec, dimension=n)(pts)
            arr = np.asarray(spec, dtype=float)
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
            B_arr = np.asarray(B, dtype=float)
            if B_arr.shape == (n, n):
                B_arr = np.broadcast_to(B_arr, (npts, n, n)).copy()
            elif B_arr.shape != (npts, n, n):
                raise ValueError(f"B must have shape ({npts}, {n}, {n}), got {B_arr.shape}")
        return cls(grid, mu_a_arr, mu_s_arr, B_arr, apriori, supp_B_interior)

    def with_absorption(self, mu_a: np.ndarray) -> "OpticalMedium":
        """Same medium with a replaced absorption field (used by perturbation sweeps)."""
        mu_a = np.asarray(mu_a, dtype=float)
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

    def b_asymmetry(self, out: np.ndarray | None = None) -> float:
        """max |B - B^T| over the samples, with B - B^T formed in ``out`` (an
        array shaped like B) when given."""
        gap = np.subtract(self.B, np.transpose(self.B, (0, 2, 1)), out=out)
        return float(np.abs(gap, out=gap).max())

    def admissibility_violations(self) -> list[str]:
        """Pointwise a-priori checks on the samples; empty list means admissible."""
        a = self.apriori
        out = []
        for name, f in (("mu_a", self.mu_a), ("mu_s", self.mu_s)):
            if f.min() < 1.0 / a.lam - 1e-12 or f.max() > a.lam + 1e-12:
                bad = int(np.argmax((f < 1.0 / a.lam) | (f > a.lam)))
                out.append(
                    f"{name} out of [1/lam, lam] = [{1 / a.lam:.6g}, {a.lam:.6g}] "
                    f"at node {bad} (value {f[bad]:.6g})"
                )
        asym = self.b_asymmetry()
        if asym > B_SYMMETRY_ATOL:
            out.append(f"B not symmetric (max asymmetry {asym:.3e})")
        eigs = np.linalg.eigvalsh(np.eye(a.n)[None, :, :] - 0.5 * (self.B + np.transpose(self.B, (0, 2, 1))))
        lo, hi = eigs.min(), eigs.max()
        if lo < 1.0 / a.cal_e - 1e-12 or hi > a.cal_e + 1e-12:
            out.append(
                f"I - B eigenvalues [{lo:.6g}, {hi:.6g}] escape "
                f"[1/cal_e, cal_e] = [{1 / a.cal_e:.6g}, {a.cal_e:.6g}]"
            )
        if self.supp_B_interior:
            bnorm = np.linalg.norm(self.B, axis=(1, 2))
            near = ~self.grid.interior_mask
            if np.any(bnorm[near] > 1e-14):
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
    """Sampled diffusion tensor with its real/imaginary split and reaction terms.

    ``eig_M`` holds the ascending eigenvalues of M = ``base_matrix`` per
    node; K_R and K_I are rational functions of the symmetric M, so they
    share its eigenvectors and their spectra follow from these.
    """

    K: np.ndarray       # (N, 3, 3) complex
    eig_M: np.ndarray   # (N, 3) real, ascending
    q_R: np.ndarray     # (N,)
    q_I: np.ndarray     # (N,)
    k: float
    n: int

    @property
    def K_R(self) -> np.ndarray:
        return self.K.real

    @property
    def K_I(self) -> np.ndarray:
        return self.K.imag

    @property
    def q(self) -> np.ndarray:
        return self.q_R + 1j * self.q_I


def _symmetric_inverse(S: np.ndarray) -> np.ndarray:
    """Inverses of symmetric positive definite 3 x 3 matrices (N, 3, 3) from
    the adjugate, adj(S) / det(S), on the six entries of the upper triangle.

    Each S is first divided by its trace, so det neither under- nor
    overflows for entries far from one.  The six cofactors are written in
    place into one (6, N) array: N-sized temporaries left on the heap
    between a sweep's amplitudes fragment it, so that the next LU grows the
    heap, and the entry-by-entry form raised the m=17 sweep's peak RSS.
    """
    t = np.trace(S, axis1=1, axis2=2)
    a, b, c, d, e, f = S[:, [0, 1, 2, 0, 1, 0], [0, 1, 2, 1, 2, 2]].T / t
    cof = np.empty((6, len(t)))
    np.multiply(b, c, out=cof[0])
    cof[0] -= e * e
    np.multiply(a, c, out=cof[1])
    cof[1] -= f * f
    np.multiply(a, b, out=cof[2])
    cof[2] -= d * d
    np.multiply(e, f, out=cof[3])
    cof[3] -= d * c
    np.multiply(d, e, out=cof[4])
    cof[4] -= f * b
    np.multiply(d, f, out=cof[5])
    cof[5] -= a * e
    det = a * cof[0] + d * cof[3] + f * cof[4]
    det *= t
    cof /= det
    return cof[[0, 3, 4, 3, 1, 5, 4, 5, 2]].T.reshape(-1, 3, 3)


def split_real_imag(medium: OpticalMedium) -> ComplexTensorField:
    """Sample K, K_R, K_I, the eigenvalues of M and q over the whole grid.

    K_R and K_I come from their closed forms

        K_R = (1/n) (M^2 + k^2 I)^{-1} M,    K_I = (k/n) (M^2 + k^2 I)^{-1},

    M = ``base_matrix``, with (M^2 + k^2 I)^{-1} from the symmetric 3 x 3
    adjugate, and K = K_R + i K_I, which matches the direct complex inverse
    of n (M - ik I) to round-off.  One batched ``eigvalsh`` of M gives
    ``eig_M`` for ``verify_ellipticity``.  The grid is the 3-D cube, so the
    tensor must be 3 x 3 (n = 3); anything else raises ValueError.  Both
    read one triangle of M, so a B that is not symmetric (max |B - B^T|
    above ``B_SYMMETRY_ATOL``) raises ValueError too.
    """
    a = medium.apriori
    n, k = a.n, a.k
    if n != 3 or medium.B.shape[1:] != (3, 3):
        raise ValueError(f"the diffusion tensor must be 3 x 3 (n = 3), got n = {n}, B {medium.B.shape}")
    # one (N, 3, 3) buffer takes B - B^T and then M^2 + k^2 I, so the check
    # adds no N-sized temporary to the tensor pass a sweep runs per amplitude
    S = np.empty_like(medium.B)
    asym = medium.b_asymmetry(out=S)
    if asym > B_SYMMETRY_ATOL:
        raise ValueError(f"B must be symmetric, got max |B - B^T| = {asym:.3e}")
    M = base_matrix(medium.mu_a, medium.mu_s, medium.B)
    np.matmul(M, M, out=S)
    S += k * k * np.eye(3)
    core = _symmetric_inverse(S)
    return ComplexTensorField(
        K=(core @ M) / n + 1j * ((k / n) * core),
        eig_M=np.linalg.eigvalsh(M),
        q_R=medium.mu_a.copy(),
        q_I=np.full_like(medium.mu_a, -k),
        k=k,
        n=n,
    )


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

    denom = tensor.n * (tensor.eig_M**2 + tensor.k**2)
    eigs_R = tensor.eig_M / denom
    eigs_I = tensor.k / denom
    min_R, min_I = eigs_R.min(axis=1), eigs_I.min(axis=1)
    norm_sq = np.abs(eigs_R).max(axis=1) ** 2 + eigs_I.max(axis=1) ** 2

    tol = 1e-12
    violations = []
    for idx in np.flatnonzero(min_R < lower_R - tol):
        violations.append((int(idx), "K_R lower bound", float(min_R[idx]), lower_R))
    for idx in np.flatnonzero(min_I < lower_I - tol):
        violations.append((int(idx), "K_I lower bound", float(min_I[idx]), lower_I))
    for idx in np.flatnonzero(norm_sq > upper + tol):
        violations.append((int(idx), "norm upper bound", float(norm_sq[idx]), upper))
    # reaction positivity: q xi . xi = mu_a |xi|^2 must stay in [1/lam, lam]
    for idx in np.flatnonzero(tensor.q_R < 1.0 / lam - tol):
        violations.append((int(idx), "reaction lower bound", float(tensor.q_R[idx]), 1.0 / lam))
    for idx in np.flatnonzero(tensor.q_R > lam + tol):
        violations.append((int(idx), "reaction upper bound", float(tensor.q_R[idx]), lam))

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
