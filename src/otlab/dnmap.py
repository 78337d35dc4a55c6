"""Discrete Dirichlet-to-Neumann operators and boundary Sobolev machinery.

The D-N matrix is assembled through the volume (weak) form: with the full
energy matrix A partitioned into interior/boundary blocks, the column for
nodal boundary data e_j is the boundary rows of A applied to the discrete
solution, i.e. the Schur complement

    S = A_BB - A_BI A_II^{-1} A_IB.

S is complex symmetric (bilinear symmetry <Lf, conj(g)> = <Lg, conj(f)>),
not Hermitian.  The pairing convention is <Lambda f, conj(g)> = g^T S f
with the plain (unconjugated) dot product.

H^{1/2} and its dual are realized spectrally on the boundary surface grid:
a face-wise five-point graph Laplacian S_b stitched across cube edges, a
trapezoid mass matrix M_b, and fractional powers of I + M_b^{-1} S_b in the
(M_b-orthonormal) eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import FactorizationError, PowerIterationError, ResidualError
from .grid import GridDomain
from .medium import OpticalMedium, split_real_imag
from .solver import SOLVE_RTOL, DiscreteOperator, assemble, solve_dirichlet

DN_CHUNK = 512


@dataclass
class SobolevScale:
    """Boundary mass, graph Laplacian and eigenbasis backing the H^{±1/2} norms."""

    grid: GridDomain
    boundary_idx: np.ndarray
    mass: np.ndarray            # (Nb,) trapezoid surface weights
    stiffness: sp.csr_matrix    # (Nb, Nb) SPSD, kernel = constants
    eigenvalues: np.ndarray     # ascending, >= 0
    eigenvectors: np.ndarray    # V with V^T diag(mass) V = I

    @classmethod
    def build(cls, grid: GridDomain) -> "SobolevScale":
        b_idx = grid.boundary_indices
        nb = len(b_idx)
        pos = -np.ones(grid.num_points, dtype=int)
        pos[b_idx] = np.arange(nb)
        m, h = grid.m_per_axis, grid.h

        mass = np.zeros(nb)
        rows, cols, vals = [], [], []
        for axis in range(3):
            for side in (0, 1):
                face = grid.face_node_ids(axis, side)
                fpos = pos[face]
                # 2-D trapezoid fractions on this face
                frac = np.ones((m, m))
                frac[0, :] *= 0.5
                frac[-1, :] *= 0.5
                frac[:, 0] *= 0.5
                frac[:, -1] *= 0.5
                np.add.at(mass, fpos.ravel(), (h * h * frac).ravel())
                # in-face edges along both transverse directions, rim edges
                # carry half the transverse width
                for t in (0, 1):
                    a = np.moveaxis(fpos, t, 0)
                    left, right = a[:-1, :], a[1:, :]
                    w = np.ones_like(left, dtype=float)
                    w[:, 0] = 0.5
                    w[:, -1] = 0.5
                    for r, c, v in (
                        (left, left, w),
                        (right, right, w),
                        (left, right, -w),
                        (right, left, -w),
                    ):
                        rows.append(r.ravel())
                        cols.append(c.ravel())
                        vals.append(v.ravel())
        S = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nb, nb),
        ).tocsr()
        lam, V = scipy.linalg.eigh(S.toarray(), np.diag(mass))
        lam = np.maximum(lam, 0.0)
        return cls(grid, b_idx, mass, S, lam, V)

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """Expansion coefficients of boundary data in the M_b-orthonormal basis."""
        return self.eigenvectors.T @ (self.mass * np.asarray(f))

    def norm(self, f: np.ndarray, order: float) -> float:
        c = self.coefficients(f)
        return float(np.sqrt(np.sum((1.0 + self.eigenvalues) ** order * np.abs(c) ** 2)))

    def fractional_weight(self, f: np.ndarray, order: float) -> np.ndarray:
        """Apply (I + Delta_b)^order to boundary data."""
        c = self.coefficients(f)
        return self.eigenvectors @ ((1.0 + self.eigenvalues) ** order * c)

    def duality_pairing(self, phi: np.ndarray, f: np.ndarray) -> complex:
        """Discrete L^2(boundary) pairing sum(M phi conj(f))."""
        return complex(np.sum(self.mass * np.asarray(phi) * np.conj(np.asarray(f))))


def sobolev_pairing(f, g, scale: SobolevScale, order: float) -> complex:
    """H^{order} inner product of boundary data (order = +1/2 or -1/2)."""
    cf, cg = scale.coefficients(f), scale.coefficients(g)
    return complex(np.sum((1.0 + scale.eigenvalues) ** (2 * order) * cf * np.conj(cg)))


@dataclass
class DNOperator:
    """Dense boundary matrix of the Dirichlet-to-Neumann functional."""

    matrix: np.ndarray
    boundary_idx: np.ndarray
    medium_fingerprint: str
    grid_fingerprint: str

    def pairing(self, f: np.ndarray, g: np.ndarray) -> complex:
        """<Lambda f, conj(g)> = g^T (S f); bilinear in both arguments."""
        return complex(np.asarray(g) @ (self.matrix @ np.asarray(f)))

    def save(self, path, metadata: dict | None = None):
        extra = {key: np.array(str(value)) for key, value in (metadata or {}).items()}
        np.savez_compressed(
            path,
            matrix=self.matrix,
            boundary_idx=self.boundary_idx,
            medium_fingerprint=np.array(self.medium_fingerprint),
            grid_fingerprint=np.array(self.grid_fingerprint),
            **extra,
        )

    @classmethod
    def load(cls, path) -> "DNOperator":
        data = np.load(path, allow_pickle=False)
        return cls(
            matrix=data["matrix"],
            boundary_idx=data["boundary_idx"],
            medium_fingerprint=str(data["medium_fingerprint"]),
            grid_fingerprint=str(data["grid_fingerprint"]),
        )


def assemble_dn(
    medium: OpticalMedium,
    grid: GridDomain | None = None,
    operator: DiscreteOperator | None = None,
    boundary_order: np.ndarray | None = None,
) -> DNOperator:
    """Dirichlet-to-Neumann matrix on the nodal boundary basis.

    One factorization is shared across all columns.  ``boundary_order``
    optionally reindexes the boundary degrees of freedom (a permutation of
    0..Nb-1); the default is ascending flat node order.
    """
    grid = grid or medium.grid
    op = operator if operator is not None else assemble(medium, grid, include_reaction=True)
    A = op.matrix
    A_II, A_IB = op._interior_blocks()
    i_idx, b_idx = op.interior_idx, op.boundary_idx
    if boundary_order is not None:
        boundary_order = np.asarray(boundary_order)
        if sorted(boundary_order.tolist()) != list(range(len(b_idx))):
            raise ValueError("boundary_order must be a permutation of the boundary set")
        b_idx = b_idx[boundary_order]
        A_IB = A_IB[:, boundary_order]

    A_BI = A[b_idx][:, i_idx].tocsr()
    A_BB = A[b_idx][:, b_idx].toarray()
    lu = op.factorization()
    nb = len(b_idx)

    S = np.array(A_BB, dtype=complex)
    for start in range(0, nb, DN_CHUNK):
        sel = slice(start, min(start + DN_CHUNK, nb))
        rhs = -A_IB[:, sel].toarray()
        try:
            U = lu.solve(rhs)
        except RuntimeError as exc:
            raise FactorizationError(
                f"D-N column block starting at {start} failed: {exc}"
            ) from exc
        gap = np.linalg.norm(A_II @ U - rhs)
        rhs_norm = np.linalg.norm(rhs)
        if not gap <= SOLVE_RTOL * rhs_norm:
            raise ResidualError(
                f"D-N column block {start}..{sel.stop - 1}: residual "
                f"{gap / rhs_norm:.3e} exceeds {SOLVE_RTOL:.1e} (grid {grid.m_per_axis}^3)"
            )
        S[:, sel] += A_BI @ U
    return DNOperator(
        matrix=S,
        boundary_idx=b_idx,
        medium_fingerprint=op.medium_fingerprint,
        grid_fingerprint=grid.fingerprint(),
    )


def _whitened(delta: np.ndarray, scale: SobolevScale) -> np.ndarray:
    """(I+D)^{-1/4} V^T Delta V (I+D)^{-1/4}: the matrix whose spectral norm
    realizes the H^{1/2} -> H^{-1/2} operator norm.

    V is real, so the congruence is taken part by part: two real GEMMs cost
    less than one complex GEMM with V promoted to complex."""
    w = (1.0 + scale.eigenvalues) ** -0.25
    V = scale.eigenvectors
    core = V.T @ delta.real @ V + 1j * (V.T @ delta.imag @ V)
    return (w[:, None] * core) * w[None, :]


def sobolev_operator_norm(
    delta: np.ndarray,
    scale: SobolevScale,
    rtol: float = 1e-8,
    max_iterations: int = 50_000,
    seed: int = 1234,
) -> float:
    """Operator norm of a D-N difference from H^{1/2} to its dual.

    Power iteration on T* T where T is the spectrally whitened matrix;
    converges to the largest singular value with relative eigenvalue
    tolerance ``rtol``.
    """
    T = _whitened(np.asarray(delta, dtype=complex), scale)
    if np.linalg.norm(T) == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=T.shape[1]) + 1j * rng.normal(size=T.shape[1])
    v /= np.linalg.norm(v)
    Tc = T.conj().T
    history = []
    for _ in range(max_iterations):
        w = Tc @ (T @ v)
        theta = float(np.real(np.vdot(v, w)))
        if theta == 0.0:
            return 0.0
        # Hermitian eigenvalue residual bound: |theta - sigma_max^2| <= ||w - theta v||
        residual = np.linalg.norm(w - theta * v)
        history.append(theta)
        if residual <= rtol * theta:
            return float(np.sqrt(theta))
        v = w / np.linalg.norm(w)
    raise PowerIterationError(
        f"operator-norm power iteration did not converge in {max_iterations} steps",
        history=history[-20:],
    )


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
    op1 = assemble(medium1, grid)
    op2 = assemble(medium2, grid)
    if dn1 is None:
        dn1 = assemble_dn(medium1, grid, operator=op1)
    if dn2 is None:
        dn2 = assemble_dn(medium2, grid, operator=op2)

    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    lhs = dn1.pairing(f, g) - dn2.pairing(f, g)

    u = solve_dirichlet(op1, f).values
    v = solve_dirichlet(op2, g).values
    grad_u = grid.gradient(u)
    grad_v = grid.gradient(v)
    dK = split_real_imag(medium1).K - split_real_imag(medium2).K
    w = grid.volume_weights
    vol_grad = np.sum(w * np.einsum("pi,pij,pj->p", grad_u, dK, grad_v))
    vol_mass = np.sum(w * (medium1.mu_a - medium2.mu_a) * u * v)

    scale = max(abs(lhs), abs(vol_grad) + abs(vol_mass), 1e-300)
    return float(abs(lhs - vol_grad - vol_mass) / scale)
