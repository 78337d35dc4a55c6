"""Boundary-stability experiments against computed Dirichlet-to-Neumann data.

A perturbation family mu_a + eps * profile is swept over a geometric ladder
of amplitudes; for each amplitude the experiment measures the
H^{1/2} -> H^{-1/2} norm of the difference of the two D-N operators and
compares it with boundary sup norms of the absorption difference and of its
directional derivatives along the exterior non-tangential field.  The
difference comes from the discrete Alessandrini identity S2 - S1 = H1^T E H2
(``dnmap.difference_norm``), applied to vectors inside a Lanczos iteration:
the base medium's interior LU, its sampled tensor and the boundary
eigenbasis are built once per sweep, each amplitude factors its own
interior block, and no boundary-sized (Nb x Nb) matrix is formed.  The
amplitudes run from the largest down, and each amplitude's Lanczos
iteration starts near the previous amplitude's top Ritz vector.  The
theory gives one-sided inequalities (Lipschitz for the boundary values,
Hoelder with exponent delta_h for h-th derivatives), so the report records
inequality constants and observed slopes rather than asserting exact
exponents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dnmap import SobolevScale, difference_norm
from .errors import InadmissibleWaveNumberError
from .grid import GridDomain
from .medium import OpticalMedium, base_matrix, is_wave_number_admissible, split_real_imag
from .solver import assemble, loglog_fit


def holder_exponent(alpha: float, h: int) -> float:
    """delta_h = prod_{i=0..h} alpha / (alpha + i); the boundary-derivative
    stability exponent (1 at h = 0, strictly decreasing in h)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if h < 0:
        raise ValueError("derivative order must be >= 0")
    out = 1.0
    for i in range(h + 1):
        out *= alpha / (alpha + i)
    return out


@dataclass
class NonTangentialField:
    """Outward unit field on the boundary nodes, blended near edges."""

    grid: GridDomain
    points: np.ndarray      # boundary node coordinates
    directions: np.ndarray  # unit vectors, pointing outward
    tau0: float
    comparability: float    # C with C tau <= dist(z_tau, boundary) <= tau


def build_nu_tilde(grid: GridDomain) -> NonTangentialField:
    """Blend face normals into a smooth exterior field near edges/corners.

    Inside each face the field is the exact outward normal; within a band
    of width 2h of an edge the incident face normals are averaged with a
    linear ramp and renormalized.  The comparability constant of the
    exterior points z_tau = x + tau nu is measured on samples with
    tau in {h, 2h, 4h}.
    """
    pts = grid.points[grid.boundary_indices]
    half = grid.extent / 2.0
    band = 2.0 * grid.h
    dirs = np.zeros_like(pts)
    for axis in range(3):
        for sign in (-1.0, 1.0):
            dist_to_face = np.abs(half - sign * pts[:, axis])
            weight = np.maximum(0.0, 1.0 - dist_to_face / band)
            dirs[:, axis] += sign * weight
    norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]

    comparability = np.inf
    tau0 = 4.0 * grid.h
    for tau in (grid.h, 2.0 * grid.h, 4.0 * grid.h):
        z = pts + tau * dirs
        dist = grid.distance_to_boundary(z)
        if np.any(dist > tau * (1.0 + 1e-12)):
            raise AssertionError("exterior distance exceeded tau; field not outward")
        comparability = min(comparability, float(dist.min() / tau))
    return NonTangentialField(
        grid=grid, points=pts, directions=dirs, tau0=tau0, comparability=comparability
    )


def finite_difference_weights(offsets, derivative_order: int) -> np.ndarray:
    """Weights reproducing the m-th derivative at 0 from samples at ``offsets``."""
    xs = np.asarray(offsets, dtype=float)
    n = len(xs)
    m = derivative_order
    if n <= m:
        raise ValueError("need more sample points than the derivative order")
    C = np.zeros((n, m + 1))
    C[0, 0] = 1.0
    c1, c4 = 1.0, xs[0]
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, xs[i]
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, m]


def normal_derivative_sup(evaluate, nu_field: NonTangentialField, order: int):
    """(sup, skipped): the sup over boundary samples of the order-th
    directional derivative along the outward field, by one-sided stencils
    reaching inward, and the number of samples skipped.

    ``evaluate`` maps points (k, 3) to real values.  The stencil spacing
    scales like sqrt(h) for noise control and uses order + 3 points
    (accuracy order 3).  Samples whose stencil exits the domain are skipped
    and counted.
    """
    grid = nu_field.grid
    spacing = 0.25 * math.sqrt(grid.h * grid.extent)
    npts = order + 3
    offsets = -spacing * np.arange(npts)  # inward along -nu
    weights = finite_difference_weights(offsets, order)

    half = grid.extent / 2.0
    stack = np.stack(
        [nu_field.points + off * nu_field.directions for off in offsets], axis=0
    )
    inside = np.all(np.abs(stack) <= half + 1e-12, axis=(0, 2))
    skipped = int((~inside).sum())
    kept = stack[:, inside, :]
    vals = np.stack([np.asarray(evaluate(kept[i])) for i in range(npts)], axis=0)
    derivs = np.tensordot(weights, vals, axes=(0, 0))
    return (float(np.abs(derivs).max()) if derivs.size else 0.0), skipped


@dataclass
class PerturbationSpec:
    """Boundary patch perturbation of the absorption coefficient.

    The difference behaves like (d / depth)^profile_order times a smooth
    tangential bump of the given width, where d is the distance to the face
    z = +extent/2, centred on that face's centre (kept away from the cube
    edges where the exterior field is blended).  The bump
    polynomial is C^3 at its rims, so orders up to 3 are meaningful.

    Each amplitude's medium is built once and audited once, on first use, and
    kept: the command line's check of the ladder, the sweep's and its rows
    share them.
    """

    base: OpticalMedium
    profile_order: int
    width: float = 0.3
    depth: float = 0.4
    smoothness: int = 3
    _media: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _audits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.profile_order < 0:
            raise ValueError("profile order must be >= 0")
        if self.profile_order > self.smoothness:
            raise ValueError(
                f"profile order {self.profile_order} exceeds the C^{{h,alpha}} "
                f"smoothness {self.smoothness} of the bump family"
            )
        half = self.base.grid.extent / 2.0
        if not 0 < self.width < half or not 0 < self.depth <= 2 * half:
            raise ValueError("patch width/depth incompatible with the domain")
        if not np.any(self.profile(self.base.grid.points)):
            grid = self.base.grid
            raise ValueError(
                f"the perturbation profile (width={self.width}, depth={self.depth}, "
                f"profile_order={self.profile_order}) vanishes at every node of the "
                f"{grid.m_per_axis}^3 grid (spacing {grid.h:.4g})"
            )

    def profile(self, points: np.ndarray) -> np.ndarray:
        """Unit-amplitude perturbation profile (multiply by eps)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        half = self.base.grid.extent / 2.0
        d = half - points[:, 2]
        rho2 = points[:, 0] ** 2 + points[:, 1] ** 2
        bump = np.where(rho2 < self.width**2, (1.0 - rho2 / self.width**2) ** 4, 0.0)
        u = d / self.depth
        ramp = np.where(
            (u >= 0.0) & (u < 1.0), u**self.profile_order * (1.0 - u) ** 4, 0.0
        )
        return bump * ramp

    def perturbed(self, eps: float) -> OpticalMedium:
        """The base medium with absorption mu_a + eps * profile."""
        if eps not in self._media:
            delta = eps * self.profile(self.base.grid.points)
            self._media[eps] = self.base.with_absorption(self.base.mu_a + delta)
        return self._media[eps]

    def violations(self, eps: float) -> list[str]:
        """``admissibility_violations`` of the medium at amplitude eps."""
        if eps not in self._audits:
            self._audits[eps] = self.perturbed(eps).admissibility_violations()
        return self._audits[eps]

    def admissible_amplitude(self, eps: float) -> bool:
        return not self.violations(eps)


@dataclass
class StabilityRow:
    eps: float
    dn_gap: float
    sup_mu_boundary: float
    sup_normal_derivatives: list
    tensor_gap: float
    linear_regime: bool = True


@dataclass
class StabilityReport:
    """Per-amplitude measurements and the fitted stability relations."""

    rows: list
    derivative_order: int
    tensor_gap_order: int
    alpha: float
    predicted_exponents: list
    observed_slopes: dict
    inequality_constants: dict
    violations: list
    skipped_boundary_samples: int
    comparability: float
    tau0: float
    base_fingerprint: str
    grid_fingerprint: str
    dropped_amplitudes: list = field(default_factory=list)

    def table(self) -> dict:
        """Column-oriented view used by the CSV and JSON writers."""
        cols = {
            "eps": [r.eps for r in self.rows],
            "dn_gap": [r.dn_gap for r in self.rows],
            "sup_mu_boundary": [r.sup_mu_boundary for r in self.rows],
            "tensor_gap": [r.tensor_gap for r in self.rows],
            "linear_regime": [int(r.linear_regime) for r in self.rows],
        }
        for j in range(self.derivative_order + 1):
            cols[f"sup_normal_derivative_{j}"] = [
                r.sup_normal_derivatives[j] for r in self.rows
            ]
        return cols


def tensor_derivative_gap(
    medium1: OpticalMedium, K1: np.ndarray, medium2: OpticalMedium, K2: np.ndarray, h: int
) -> float:
    """Boundary sup of |D^h (K_1 - K_2)| for the sampled tensors K1, K2 of
    the two media, via the chain rule dK = -n K dM K with M = ``base_matrix``.

    ``h`` = 0 or 1; higher orders would need the full derivative polynomial
    of the matrix inverse and are out of desk scope.  Frobenius norms per
    node, maximized over the boundary.
    """
    if h not in (0, 1):
        raise ValueError("tensor derivative gap implemented for h in {0, 1}")
    grid = medium1.grid
    b = grid.boundary_indices
    if h == 0:
        return float(np.linalg.norm((K1 - K2)[b], axis=(1, 2)).max())
    n = medium1.apriori.n
    gap = None
    for med, K in ((medium1, K1), (medium2, K2)):
        # M is linear in (mu_a, mu_s) at fixed B, so each partial derivative
        # of M is M of the derivatives (B fixed) minus dB mu_s
        dM = base_matrix(grid.gradient(med.mu_a), grid.gradient(med.mu_s), med.B[:, None])
        if np.abs(med.B).max() > 0:
            dB = np.stack(
                [
                    np.stack([grid.gradient(med.B[:, i, j]) for j in range(n)], axis=-1)
                    for i in range(n)
                ],
                axis=-2,
            )  # (N, 3, n, n)
            dM = dM - dB * med.mu_s[:, None, None, None]
        dK = -n * np.einsum("pij,pdjk,pkl->pdil", K, dM, K)
        gap = dK if gap is None else gap - dK
    return float(np.sqrt(np.sum(np.abs(gap[b]) ** 2, axis=(1, 2, 3))).max())


def _assemble_sampled(medium: OpticalMedium, grid: GridDomain):
    """(assemble(medium), K) from one sampling of the medium's tensor; only K
    outlives the call, for the tensor gap."""
    tensor = split_real_imag(medium)
    return assemble(medium, grid, tensor=tensor), tensor.K


def run_stability_experiment(
    pspec: PerturbationSpec,
    derivative_order: int,
    eps_values,
    scale: SobolevScale | None = None,
    seed: int = 0,
) -> StabilityReport:
    """Sweep the perturbation amplitude and confront the D-N gaps with the
    boundary norms the stability theory controls.

    For each admissible eps the report row holds ||L1 - L2||_*, the boundary
    sup of the absorption difference, its directional-derivative sups up to
    ``derivative_order`` and the boundary tensor gap.  Fits are slopes of
    log(norm) against log(D-N gap); the inequality constants are the largest
    observed ratios norm / gap^{delta_j}.  The tensor gap is taken at order
    min(derivative_order, 1), the highest ``tensor_derivative_gap`` has, and
    the report records that order.  Amplitudes of both signs, a ladder with
    no nonzero admissible amplitude and a ``scale`` built on another grid
    raise ValueError, and so does a sweep in which every D-N gap is zero.

    The amplitudes run from the largest |eps| down, and each amplitude's
    Lanczos iteration starts from the previous amplitude's top Ritz vector
    plus a random part drawn with ``seed``; the first amplitude starts from
    the random vector alone.  An amplitude with a zero gap yields no vector,
    and the next one starts from the last vector there was.  Each medium's
    tensor is sampled once per sweep.
    """
    base = pspec.base
    grid = base.grid
    a = base.apriori
    if not is_wave_number_admissible(a.k, a.lam, a.cal_e, a.n):
        raise InadmissibleWaveNumberError(
            f"k={a.k} lies outside the admissible intervals for lam={a.lam}, cal_e={a.cal_e}"
        )
    if derivative_order >= 1 and not base.supp_B_interior:
        raise ValueError("derivative experiments require supp(B) interior to the domain")
    if derivative_order > pspec.smoothness:
        raise ValueError("derivative order exceeds the perturbation smoothness")
    eps_values = sorted(set(float(e) for e in eps_values), key=abs, reverse=True)
    if any(e > 0.0 for e in eps_values) and any(e < 0.0 for e in eps_values):
        raise ValueError(f"amplitudes must share one sign, got {eps_values}")

    if scale is not None and scale.grid != grid:
        raise ValueError(
            f"the Sobolev scale was built on a {scale.grid.m_per_axis}^3 grid "
            f"(extent {scale.grid.extent}), the medium lives on a {grid.m_per_axis}^3 "
            f"grid (extent {grid.extent})"
        )

    dropped = [e for e in eps_values if e != 0.0 and not pspec.admissible_amplitude(e)]
    for e in dropped:
        warnings.warn(f"amplitude eps={e} breaks admissibility; dropped", stacklevel=2)
    eps_values = [e for e in eps_values if e != 0.0 and e not in dropped]
    if not eps_values:
        raise ValueError(f"no nonzero admissible amplitude is left (dropped: {dropped})")

    nu_field = build_nu_tilde(grid)
    scale = scale or SobolevScale.build(grid)
    base_op, base_K = _assemble_sampled(base, grid)
    tensor_gap_order = min(derivative_order, 1)

    sups = [normal_derivative_sup(pspec.profile, nu_field, j) for j in range(derivative_order + 1)]
    deriv_sups, skipped = [sup for sup, _ in sups], sups[0][1]

    rows, guess = [], None
    for eps in eps_values:
        med2 = pspec.perturbed(eps)
        op2, K2 = _assemble_sampled(med2, grid)
        dn_gap, guess = difference_norm(base_op, op2, scale, seed=seed, guess=guess)
        rows.append(
            StabilityRow(
                eps=eps,
                dn_gap=dn_gap,
                sup_mu_boundary=abs(eps) * deriv_sups[0],
                sup_normal_derivatives=[abs(eps) * s for s in deriv_sups],
                tensor_gap=tensor_derivative_gap(base, base_K, med2, K2, tensor_gap_order),
            )
        )
        # freed before the next assembly, so the next LU reuses their memory
        del op2, K2
    if not any(r.dn_gap > 0 for r in rows):
        raise ValueError(f"every D-N gap is zero, at the amplitudes {eps_values}: nothing to fit")

    # linear-regime flags: deviation from the power law fitted on the two
    # largest amplitudes; a zero gap (an amplitude too small to change the
    # sampled medium) fits no power law
    if len(rows) >= 3:
        e0, e1 = rows[0], rows[1]
        fit = e0.dn_gap > 0 and e1.dn_gap > 0
        slope = math.log(e0.dn_gap / e1.dn_gap) / math.log(e0.eps / e1.eps) if fit else 0.0
        for r in rows:
            pred = e0.dn_gap * (r.eps / e0.eps) ** slope
            r.linear_regime = (
                fit and r.dn_gap > 0 and abs(math.log(r.dn_gap / pred)) <= math.log(1.25)
            )

    gaps = np.array([r.dn_gap for r in rows])
    slopes, constants, violations = {}, {}, []
    predicted = [1.0] + [holder_exponent(a.alpha, j) for j in range(1, derivative_order + 1)]
    for j in range(derivative_order + 1):
        sups = np.array([r.sup_normal_derivatives[j] for r in rows])
        ok = (sups > 0) & (gaps > 0)
        slopes[f"order_{j}"] = loglog_fit(gaps[ok], sups[ok])[0] if ok.sum() >= 2 else float("nan")
        delta_j = predicted[j]
        ratios = sups[ok] / gaps[ok] ** delta_j
        if len(ratios):
            constants[f"order_{j}"] = float(ratios.max())
            if ratios[-1] > 2.0 * ratios[0]:
                violations.append(
                    f"order {j}: ratio grows toward small amplitudes "
                    f"({ratios[0]:.3g} -> {ratios[-1]:.3g})"
                )
        else:
            constants[f"order_{j}"] = float("nan")
    # sup_mu_boundary is the order-0 sup and delta_0 = 1: the same fit and ratio
    slopes["boundary_values"] = slopes["order_0"]
    constants["boundary_values"] = constants["order_0"]

    return StabilityReport(
        rows=rows,
        derivative_order=derivative_order,
        tensor_gap_order=tensor_gap_order,
        alpha=a.alpha,
        predicted_exponents=predicted,
        observed_slopes=slopes,
        inequality_constants=constants,
        violations=violations,
        skipped_boundary_samples=skipped,
        comparability=nu_field.comparability,
        tau0=nu_field.tau0,
        base_fingerprint=base.fingerprint(),
        grid_fingerprint=grid.fingerprint(),
        dropped_amplitudes=dropped,
    )
