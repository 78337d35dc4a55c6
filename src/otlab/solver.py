"""Finite-difference Dirichlet solver for -div(K grad u) + q u = 0 on a cube.

The complex equation is discretized through its energy form: face-averaged
flux terms for the diagonal tensor entries, node-centered products of
centered differences for the cross terms, and trapezoid mass terms.  The
resulting complex matrix A is symmetric (not Hermitian), and strong
ellipticity makes its real part Re A positive definite on the unknowns.
The interior system A_II u = rhs is solved one of two ways, chosen by the
number of solves with one A_II:

- Repeated solves factor A_II once as it stands, in complex arithmetic, and
  reuse the LU for every solve (``DiscreteOperator.factorization``): the
  Schur products of ``dnmap._dn_product`` (``assemble_dn``'s column blocks,
  the Lanczos products of ``otlab dn``) and the extension solves of
  ``dnmap.difference_norm``.  SuperLU orders A_II with minimum degree on
  A^T + A and takes the pivots from the diagonal without row interchanges.
  Such an LU exists under every symmetric permutation, with bounded growth,
  because the Hermitian part of A_II is Re A_II (Golub & Van Loan 1979,
  "Unsymmetric positive definite linear systems").
- A single right-hand side (``solve_dirichlet``) is solved by COCG, the
  conjugate-orthogonal conjugate gradient method for complex symmetric
  systems (van der Vorst & Melissen 1990, IEEE Trans. Magn. 26(2):706-708),
  with a Jacobi preconditioner, which needs no fill: at m=25 the LU stores
  3.3 M entries and its factorization is most of the solve.  COCG is CG
  with the bilinear product x^T y in place of x^H y, so it keeps CG's
  short recurrence and one matrix-vector product per step.

Every solve checks its residual explicitly; that check, not the iteration's
own stopping test, decides whether the answer is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EllipticityError, FactorizationError, MemoryBudgetError, ResidualError
from .grid import GridDomain
from .medium import ComplexTensorField, OpticalMedium, split_real_imag, verify_ellipticity

MAX_POINTS_PER_AXIS = 49
SOLVE_RTOL = 1e-10
# COCG cap for one solve: Jacobi-preconditioned COCG took 49-95 steps (one
# product with A_II each) at m=17, 89-144 at m=25 and 176-287 at m=49
# (isotropic and anisotropic media, with and without reaction, full cube
# and annulus)
SOLVE_MAX_ITERATIONS = 2000


@dataclass
class ComplexField:
    """Complex nodal field over every grid node."""

    grid: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.num_points,):
            raise ValueError("field shape does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass
class DiscreteOperator:
    grid: GridDomain
    matrix: sp.csr_matrix          # full complex symmetric energy matrix
    interior_idx: np.ndarray       # unknown nodes
    boundary_idx: np.ndarray       # Dirichlet nodes (complement, ascending)
    medium_fingerprint: str
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def interior_count(self) -> int:
        return len(self.interior_idx)

    def _interior_blocks(self):
        """(A_II, A_IB): the rows of the unknowns, split by column set."""
        if "blocks" not in self._cache:
            rows = self.matrix[self.interior_idx]
            A_II = rows[:, self.interior_idx].tocsc()
            A_IB = rows[:, self.boundary_idx].tocsc()
            self._cache["blocks"] = (A_II, A_IB)
        return self._cache["blocks"]

    def factorization(self):
        """Sparse LU of A_II, cached, for block solves: minimum degree on
        A^T + A, diagonal pivots (see the module docstring for why they
        suffice).  Single right-hand sides do not use it."""
        if "lu" not in self._cache:
            try:
                self._cache["lu"] = spla.splu(
                    self._interior_blocks()[0],
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise FactorizationError(f"sparse LU failed: {exc}") from exc
        return self._cache["lu"]


def assemble(
    medium: OpticalMedium,
    grid: GridDomain | None = None,
    include_reaction: bool = True,
    interior_mask: np.ndarray | None = None,
    tensor: ComplexTensorField | None = None,
) -> DiscreteOperator:
    """Assemble the discrete operator for a sampled medium.

    ``interior_mask`` selects the unknown set; by default it is the strict
    cube interior, but any subset of it works (annulus problems pass a
    radial mask).  ``tensor`` is ``split_real_imag(medium)`` when the
    caller has already sampled it; it is sampled here otherwise.  Raises
    when the medium violates its ellipticity bounds or the grid exceeds
    ``MAX_POINTS_PER_AXIS``.
    """
    grid = grid or medium.grid
    if grid.m_per_axis > MAX_POINTS_PER_AXIS:
        raise MemoryBudgetError(f"m_per_axis={grid.m_per_axis} exceeds the cap {MAX_POINTS_PER_AXIS}")
    tensor = tensor if tensor is not None else split_real_imag(medium)
    report = verify_ellipticity(tensor, medium.apriori)
    if not report.admissible:
        raise EllipticityError(
            f"medium violates ellipticity bounds at {len(report.violations)} sample(s); "
            f"first: node {report.violations[0][0]} ({report.violations[0][1]})"
        )

    n = medium.apriori.n
    h = grid.h
    N = grid.num_points
    m = grid.m_per_axis
    strides = grid.strides
    midx = grid.multi_index()

    rows, cols, vals = [], [], []
    on_border = (midx == 0) | (midx == m - 1)

    # face-averaged flux terms for the diagonal tensor entries; the
    # transverse trapezoid fraction keeps the boundary energy functional
    # second-order and leaves every interior equation untouched (faces
    # incident to interior unknowns always carry weight one)
    for d in range(3):
        has_next = midx[:, d] < m - 1
        p = np.flatnonzero(has_next)
        q = p + strides[d]
        transverse = [e for e in range(3) if e != d]
        w_t = 0.5 ** on_border[p][:, transverse].sum(axis=1)
        coef = 0.5 * (tensor.K[p, d, d] + tensor.K[q, d, d]) * h * w_t
        rows += [p, q, p, q]
        cols += [p, q, q, p]
        vals += [coef, coef, -coef, -coef]

    # node-centered cross terms (only present for anisotropic B)
    for d in range(3):
        for e in range(d + 1, 3):
            if not np.any(tensor.K[:, d, e]):
                continue
            ok = (
                (midx[:, d] > 0)
                & (midx[:, d] < m - 1)
                & (midx[:, e] > 0)
                & (midx[:, e] < m - 1)
            )
            p = np.flatnonzero(ok)
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

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
        dtype=complex,
    ).tocsr()

    if interior_mask is None:
        interior_idx = grid.interior_indices
    else:
        interior_mask = np.asarray(interior_mask, dtype=bool)
        if interior_mask.shape != (N,):
            raise ValueError("interior mask shape does not match the grid")
        if np.any(interior_mask & grid.boundary_mask):
            raise ValueError("interior mask must avoid the cube surface")
        interior_idx = np.flatnonzero(interior_mask)
    boundary_idx = np.setdiff1d(np.arange(N), interior_idx, assume_unique=True)

    return DiscreteOperator(
        grid=grid,
        matrix=A,
        interior_idx=interior_idx,
        boundary_idx=boundary_idx,
        medium_fingerprint=medium.fingerprint(),
    )


def _boundary_vector(op: DiscreteOperator, g) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.shape == (op.grid.num_points,):
        return g[op.boundary_idx]
    if g.shape == (len(op.boundary_idx),):
        return g
    raise ValueError(
        f"boundary data must have length {op.grid.num_points} (full grid) or "
        f"{len(op.boundary_idx)} (boundary set), got {g.shape}"
    )


def _cocg(A, b: np.ndarray, inv_diag: np.ndarray, atol: float, maxiter: int):
    """Jacobi-preconditioned COCG for the complex symmetric system A x = b, from x = 0.

    CG with the bilinear product x^T y: one product with A per step.  The
    loop stops when the recursively updated residual norm reaches ``atol``,
    after ``maxiter`` steps, or on a breakdown, where the next step would
    divide by an exact zero (r^T D^-1 r = 0 or p^T A p = 0, D = diag A).
    Returns (x, steps, breakdown), ``breakdown`` naming the vanished
    product, or None.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    rho = r @ z
    p = z
    for step in range(maxiter):
        if rho == 0:
            return x, step, "r^T D^-1 r = 0"
        q = A @ p
        mu = p @ q
        if mu == 0:
            return x, step, "p^T A p = 0"
        alpha = rho / mu
        x += alpha * p
        r -= alpha * q
        if np.vdot(r, r).real <= atol * atol:
            return x, step + 1, None
        z = inv_diag * r
        rho, rho_old = r @ z, rho
        p = z + (rho / rho_old) * p
    return x, maxiter, None


def solve_dirichlet(op: DiscreteOperator, g, f=None, rtol: float = SOLVE_RTOL) -> ComplexField:
    """Solve L u = f with Dirichlet data g on the complement of the unknown set.

    ``g`` is indexed by ``op.boundary_idx`` (or given as a full nodal array);
    ``f`` is an interior source given as a full nodal array or an array over
    ``op.interior_idx``.  The interior system is solved by Jacobi-
    preconditioned COCG, stopped at ``1e-3 * rtol``; the relative
    algebraic residual, recomputed from A_II, must then reach
    ``rtol`` (1e-10 by default) or ResidualError is raised, whether the
    iteration hit ``SOLVE_MAX_ITERATIONS``, broke down or converged.
    """
    A_II, A_IB = op._interior_blocks()
    g_b = _boundary_vector(op, g)
    ni = op.interior_count

    rhs = -A_IB @ g_b
    if f is not None:
        f = np.asarray(f, dtype=complex)
        if f.shape == (op.grid.num_points,):
            f_int = f[op.interior_idx]
        elif f.shape == (ni,):
            f_int = f
        else:
            raise ValueError("interior source has the wrong shape")
        rhs = rhs + f_int * op.grid.volume_weights[op.interior_idx]

    values = np.zeros(op.grid.num_points, dtype=complex)
    values[op.boundary_idx] = g_b
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return ComplexField(op.grid, values)

    # the iteration's own residual is updated recursively and can drift from
    # the true one, so it stops well below the residual the check requires
    # A_II is complex symmetric, so its transpose is A_II stored by rows
    # (CSR, no copy), whose products are faster than the stored CSC's
    u, steps, breakdown = _cocg(
        A_II.T, rhs, 1.0 / A_II.diagonal(), 1e-3 * rtol * rhs_norm, SOLVE_MAX_ITERATIONS
    )
    residual = np.linalg.norm(A_II @ u - rhs) / rhs_norm
    if not residual <= rtol:
        broke = f"; COCG broke down ({breakdown})" if breakdown else ""
        raise ResidualError(
            f"solve residual {residual:.3e} exceeds {rtol:.1e} "
            f"after {steps} COCG iterations{broke} (grid {op.grid.m_per_axis}^3)"
        )
    values[op.interior_idx] = u
    return ComplexField(op.grid, values)


def apply_operator(op: DiscreteOperator, u) -> np.ndarray:
    """Pointwise operator application over the unknown set.

    Returns (A u)[interior] / h^3, which approximates (L u)(x_i) to second
    order for smooth u; feeding a discrete solution back reproduces its
    source.  ``u`` is a full nodal array or ComplexField.
    """
    if isinstance(u, ComplexField):
        u = u.values
    u = np.asarray(u, dtype=complex)
    if u.shape != (op.grid.num_points,):
        raise ValueError("field shape does not match the grid")
    return (op.matrix @ u)[op.interior_idx] / op.grid.h**3
