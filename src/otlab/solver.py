"""Finite-difference Dirichlet solver for -div(K grad u) + q u = 0 on a cube.

The complex equation is discretized through its energy form: face-averaged
flux terms for the diagonal tensor entries, node-centered products of
centered differences for the cross terms, and trapezoid mass terms.  The
resulting complex matrix A is symmetric (not Hermitian), and strong
ellipticity makes its real part Re A positive definite on the unknowns.
``assemble`` audits the sampled tensor (``medium.verify_ellipticity``) and
builds A with ``_stencil``, which is linear in (K, q): each coupling is
written once, from (m, m, m) slices of the grid, into the one of at most 19
diagonals it belongs to (the main one, the six face offsets +-s_d and the
twelve cross offsets +-s_d +- s_e).  No triplet list is built or summed: at
m=33 the build takes 1.8 ms where the triplets took 11.6 ms on a variable
isotropic medium, and 4.2 ms against 38 ms with cross terms (2-core Xeon,
one BLAS thread).  ``DiscreteOperator`` owns the partition of A into
unknowns (I) and Dirichlet nodes (B), its four blocks and every solve with
A_II; ``dnmap`` takes both from it.  It keeps A by its diagonals.  On the
whole strict interior, the unknown set of every command but the annulus,
those diagonals restricted to the interior sub-lattice give A_II in one
conversion, A_IB from the couplings the restriction cuts, and the sine
preconditioner's diagonal, couplings and row sums (``_restrict``,
``_scaled_model``); any other unknown set gathers the unknowns' rows of the
full CSR once for A_II and A_IB.  The full CSR is built on demand, for its
readers only: A_BB, ``apply_operator`` and ``dnmap``'s matrix difference.

``DiscreteOperator.solve`` solves A_II u = rhs by COCG, the
conjugate-orthogonal conjugate gradient method for complex symmetric
systems (van der Vorst & Melissen 1990, IEEE Trans. Magn. 26(2):706-708),
one right-hand side at a time: the single solves of ``solve_dirichlet`` as
well as the repeated ones of the harmonic extensions behind
``dnmap._dn_product`` (the Lanczos products of ``otlab dn``) and
``dnmap.difference_norm``.  COCG is CG with the bilinear product x^T y in
place of x^H y, so it keeps CG's short recurrence and one matrix-vector
product per step, and it needs no fill: at m=33 the
LU of A_II stores 13 M entries and takes 1.9-3.8 s.  A_II is stored by rows
(CSR), the one layout its products and residual checks use.  On the whole
strict interior COCG is preconditioned by the exact inverse of a diagonally
scaled constant-coefficient model of A_II, D^{1/2} M^ D^{1/2} with
D = diag(A_II) and M^ fitted to D^{-1/2} A_II D^{-1/2}, applied through the
discrete sine transform (``_sine_inverse``).  The a-priori bounds keep the
coefficients within fixed ratios, so the model is spectrally equivalent to
A_II with constants free of h, and the scaling takes the coefficient's
variation off the constant model (Concus & Golub 1973, SIAM J. Numer. Anal.
10:1103-1120): 1 step on a constant medium and 4-8 on variable and
anisotropic ones, at m=17 as at m=49, where the unscaled model took 8-13 and
Jacobi 72-105 at m=17 and 214-311 at m=49.  Any other unknown set (an
annulus) keeps the Jacobi preconditioner diag(A_II)^-1.  Each operator builds
its preconditioner once, on its first solve.

``DiscreteOperator.factorization`` keeps a sparse LU of A_II for the dense
reference D-N matrix of ``dnmap.assemble_dn`` alone, a solver independent of
the products it checks.  SuperLU orders A_II with minimum degree on A^T + A
and takes the pivots from the diagonal without row interchanges.  Such an LU
exists under every symmetric permutation, with bounded growth, because the
Hermitian part of A_II is Re A_II (Golub & Van Loan 1979, "Unsymmetric
positive definite linear systems").

Every solve checks its residual explicitly; that check, not the iteration's
own stopping test, decides whether the answer is accepted.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EllipticityError, FactorizationError, MemoryBudgetError, ResidualError
from .grid import GridDomain
from .medium import ComplexTensorField, OpticalMedium, split_real_imag, verify_ellipticity

MAX_POINTS_PER_AXIS = 49
SOLVE_RTOL = 1e-10
# COCG cap for one right-hand side (one product with A_II per step), every
# solve alike: on the full cube the scaled sine preconditioner takes 1-8 steps
# at every grid; Jacobi, which the annulus keeps, took 49-95 steps at m=17,
# 89-144 at m=25 and 176-287 at m=49 (isotropic and anisotropic media, with
# and without reaction)
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
    """The energy matrix and its partition into unknowns (I) and Dirichlet
    nodes (B): the blocks, the preconditioner and every solve with A_II.

    ``assemble`` hands over A by its diagonals (``matrix`` None), and the
    full CSR ``matrix`` is built from them on its first read; an operator
    constructed from a ``matrix`` takes its diagonals from it.  The
    diagonals are dropped once their readers, the CSR and, on the whole
    strict interior, the blocks, have read them."""

    grid: GridDomain
    matrix: sp.csr_matrix | None   # full complex symmetric energy matrix; None: built on first read
    interior_idx: np.ndarray       # unknown nodes
    boundary_idx: np.ndarray       # Dirichlet nodes (complement, ascending)
    _diagonals: sp.dia_matrix | None = field(default=None, init=False, repr=False)
    _lu: spla.SuperLU | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.matrix is None:
            del self.matrix  # read through __getattr__ until it is built

    def __getattr__(self, name):
        # reached only for a ``matrix`` not built yet
        if name != "matrix" or self.__dict__.get("_diagonals") is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.matrix = self._diagonals.tocsr()
        if not self._whole_interior or "_partition" in self.__dict__:
            self._diagonals = None
        return self.matrix

    @property
    def interior_count(self) -> int:
        return len(self.interior_idx)

    @property
    def _whole_interior(self) -> bool:
        return self.interior_count == (self.grid.m_per_axis - 2) ** 3

    @cached_property
    def _partition(self) -> tuple:
        """(A_II, A_IB, the sine model or None).  On the whole strict interior
        both blocks and the model (``_scaled_model``) come from A's diagonals
        restricted to the interior (``_restrict``), a restriction no longer
        kept once they are read; any other unknown set gathers the unknowns'
        rows of ``matrix`` once for both blocks."""
        if self._whole_interior:
            A = self._diagonals if self._diagonals is not None else self.matrix.todia()
            inner, A_IB = _restrict(self.grid, A, self.interior_idx, self.boundary_idx)
            blocks = inner.tocsr(), A_IB, _scaled_model(self.grid, A, inner)
            if "matrix" in self.__dict__:
                self._diagonals = None
            return blocks
        rows = self.matrix[self.interior_idx]
        return rows[:, self.interior_idx].tocsr(), rows[:, self.boundary_idx].tocsc(), None

    @cached_property
    def A_II(self) -> sp.csr_matrix:
        """The unknowns' block, stored by rows: COCG's products and the
        residual check use it as it is."""
        return self._partition[0]

    @cached_property
    def A_IB(self) -> sp.csc_matrix:
        return self._partition[1]

    @cached_property
    def A_BI(self) -> sp.csr_matrix:
        """A_IB^T (A is symmetric), stored by rows."""
        return self.A_IB.T.tocsr()

    @cached_property
    def A_BB(self) -> sp.csr_matrix:
        return self.matrix[self.boundary_idx][:, self.boundary_idx].tocsr()

    def factorization(self):
        """Sparse LU of A_II, cached: minimum degree on A^T + A, diagonal
        pivots (see the module docstring for why they suffice).  Only the
        dense reference of ``dnmap.assemble_dn`` uses it; every other solve
        is by COCG."""
        if self._lu is None:
            try:
                self._lu = spla.splu(
                    self.A_II.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise FactorizationError(f"sparse LU failed: {exc}") from exc
        return self._lu

    @cached_property
    def preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """r -> M^-1 r for COCG on A_II: ``_sine_inverse`` when the unknowns
        are the whole strict interior, Jacobi diag(A_II)^-1 otherwise."""
        if self._whole_interior:
            return _sine_inverse(self)
        return partial(np.multiply, 1.0 / self.A_II.diagonal())

    def _check_residual(self, u, rhs, rtol: float, label: str, detail: str = ""):
        """Raise ResidualError unless ||A_II u - rhs|| <= rtol ||rhs||, the one test
        that accepts an interior solve, as "<label> <residual> exceeds <rtol><detail>"."""
        gap, rhs_norm = np.linalg.norm(self.A_II @ u - rhs), np.linalg.norm(rhs)
        if not gap <= rtol * rhs_norm:
            raise ResidualError(
                f"{label} {gap / rhs_norm:.3e} exceeds {rtol:.1e}{detail} "
                f"(grid {self.grid.m_per_axis}^3)"
            )

    def solve(self, rhs: np.ndarray, label: str, rtol: float = SOLVE_RTOL) -> np.ndarray:
        """A_II^{-1} rhs for a vector, or for each column of a block on its own,
        by COCG with ``preconditioner``, from 0, stopped at ``1e-3 * rtol``:
        the iteration's own residual is updated recursively and can drift from
        the true one.  Each answer is accepted by ``_check_residual`` at
        ``rtol`` alone, whether the iteration hit ``SOLVE_MAX_ITERATIONS``,
        broke down or converged; ``label`` opens its error message."""
        if rhs.ndim == 2:
            return np.column_stack([self.solve(column, label, rtol) for column in rhs.T])
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        u, steps, breakdown = _cocg(
            self.A_II, rhs, self.preconditioner,
            1e-3 * rtol * rhs_norm, SOLVE_MAX_ITERATIONS,
        )
        broke = f"; COCG broke down ({breakdown})" if breakdown else ""
        self._check_residual(u, rhs, rtol, label, f" after {steps} COCG iterations{broke}")
        return u


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

    A = _stencil(grid, tensor.K, tensor.q if include_reaction else None)

    if interior_mask is None:
        interior_idx, boundary_idx = grid.interior_indices, grid.boundary_indices
    else:
        interior_mask = np.asarray(interior_mask, dtype=bool)
        if interior_mask.shape != (grid.num_points,):
            raise ValueError("interior mask shape does not match the grid")
        if np.any(interior_mask & grid.boundary_mask):
            raise ValueError("interior mask must avoid the cube surface")
        interior_idx, boundary_idx = np.flatnonzero(interior_mask), np.flatnonzero(~interior_mask)
    op = DiscreteOperator(grid, None, interior_idx, boundary_idx)
    op._diagonals = A
    return op


def _stencil(grid: GridDomain, K: np.ndarray, q: np.ndarray | None) -> sp.dia_matrix:
    """The energy matrix of -div(K grad .) + q on ``grid``, linear in (K, q):
    ``K`` is (N, 3, 3) over every node, ``q`` (N,) or None for no reaction.

    Every coupling is written once, from (m, m, m) slices of the grid, into
    the diagonal of the matrix it belongs to, and the matrix is returned by
    its diagonals.  In ``sp.dia_matrix`` storage entry (j - o, j) sits at
    column j of offset o, with zeros where a line of nodes wraps; only the
    upper offsets are filled, and each lower one is the flat shift of its
    upper mirror (the matrix is symmetric).

    Along axis d the faces between the planes lo = 0:m-1 and hi = 1:m carry
    0.5 (K_dd[lo] + K_dd[hi]) h w_t, w_t the trapezoid fraction across the
    face (faces incident to an unknown always carry weight one, so every
    interior equation is the plain flux difference and the boundary energy
    functional stays second order).  Each face adds its coefficient to the
    diagonal at both ends and minus it at offset strides[d].  The
    node-centred cross terms K_de h tf / 4 of the nodes off the rims of d and
    e (only present for anisotropic B) go to the offsets
    strides[d] +- strides[e], from both of the products of centred
    differences that reach them.  The reaction q times the volume weights
    is added to the diagonal last, after the faces in axis order: the order
    in which the triplet reference ``tests/oracles.py::coo_energy_matrix``
    sums them (the two matrices were bitwise equal on isotropic media).
    """
    m, h, N = grid.m_per_axis, grid.h, grid.num_points
    cube = (m, m, m)
    K = K.reshape(cube + (3, 3))
    tf = grid.trapezoid_fraction.reshape(cube)
    t = np.ones(m)
    t[[0, -1]] = 0.5

    def planes(parts: dict) -> tuple:
        """Cube index with the slice ``parts[a]`` along each axis a it names."""
        return tuple(parts.get(a, slice(None)) for a in range(3))

    def inner(shift: int = 0) -> slice:
        return slice(1 + shift, m - 1 + shift)

    pairs = [(d, e) for d in range(3) for e in range(d + 1, 3) if np.any(K[..., d, e])]
    upper = list(grid.strides)
    upper += [grid.strides[d] + sign * grid.strides[e] for d, e in pairs for sign in (1, -1)]
    data = np.zeros((1 + 2 * len(upper), N), dtype=complex)
    diag = data[0].reshape(cube)
    for d in range(3):
        lo, hi = planes({d: slice(0, m - 1)}), planes({d: slice(1, m)})
        # the trapezoid fraction across the face: 1/2 per transverse rim
        e1, e2 = (t.reshape([m if a == e else 1 for a in range(3)]) for e in range(3) if e != d)
        w_t = e1 * e2
        coef = 0.5 * (K[..., d, d][lo] + K[..., d, d][hi]) * h * w_t
        diag[lo] += coef
        diag[hi] += coef
        np.negative(coef, out=data[1 + d].reshape(cube)[hi])
    for i, (d, e) in enumerate(pairs):
        core = planes({d: inner(), e: inner()})
        coef = K[..., d, e][core] * h * tf[core] / 4.0
        # the node p reaches offset s_d + s_e at the columns p + s_d and
        # p + s_e, and s_d - s_e at p + s_d and p - s_e, with the sign -1 and
        # +1 of the product of its two centred differences
        for sign, row in ((1, 4 + 2 * i), (-1, 5 + 2 * i)):
            out = data[row].reshape(cube)
            out[planes({d: inner(1), e: inner()})] -= sign * coef
            out[planes({d: inner(), e: inner(sign)})] -= sign * coef
    if q is not None:
        data[0] += q * grid.volume_weights
    for j, offset in enumerate(upper):
        data[1 + len(upper) + j, : N - offset] = data[1 + j, offset:]
    offsets = [0] + upper + [-offset for offset in upper]
    return sp.dia_matrix((data, offsets), shape=(N, N))


def _restrict(grid: GridDomain, A: sp.dia_matrix, interior_idx: np.ndarray, boundary_idx: np.ndarray):
    """(A_II by diagonals, A_IB by columns) of the matrix ``A``, given by its
    diagonals, for the unknowns ``interior_idx``, the whole strict interior.

    Each offset o of A is a grid step (d0, d1, d2) in {-1, 0, 1}^3, and the
    interior nodes form the sub-lattice n = m - 2 per axis, C-ordered like
    the grid, on which the same step is the offset d0 n^2 + d1 n + d2.  Its
    diagonal there is A's on the interior (n, n, n) block, column j holding
    entry (j - o, j), zeroed on the faces of the block where the row node
    j - step leaves the interior: those couplings are A_BI = A_IB^T, read
    from O(m^2) face slices, with exact zeros dropped, as the CSR
    conversion drops them from A_II.
    """
    m, n = grid.m_per_axis, grid.m_per_axis - 2
    block = (slice(1, m - 1),) * 3
    steps = _grid_steps(A.offsets, m)
    data = np.empty((len(steps), n**3), dtype=A.data.dtype)
    columns = interior_idx.reshape(n, n, n)
    unknown = np.arange(n**3).reshape(n, n, n)
    values, rows, nodes = [np.zeros(0, dtype=data.dtype)], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for k, step in enumerate(steps):
        inner = data[k].reshape(n, n, n)
        inner[...] = A.data[k].reshape(m, m, m)[block]
        for face in _leaving_faces(step, n):
            values.append(inner[face].flatten())
            rows.append(unknown[face].ravel())
            nodes.append(columns[face].ravel() - A.offsets[k])
            inner[face] = 0.0
    values, rows, nodes = (np.concatenate(part) for part in (values, rows, nodes))
    kept = values != 0
    A_IB = sp.coo_matrix(
        (values[kept], (rows[kept], np.searchsorted(boundary_idx, nodes[kept]))),
        shape=(n**3, len(boundary_idx)),
    ).tocsc()
    inner = sp.dia_matrix((data, steps @ (n * n, n, 1)), shape=(n**3, n**3))
    return inner, A_IB


def _grid_steps(offsets: np.ndarray, m: int) -> np.ndarray:
    """The step (d0, d1, d2) in {-1, 0, 1}^3 of each flat offset
    d0 m^2 + d1 m + d2 on the m^3 grid, shape (len(offsets), 3)."""
    d0 = np.rint(offsets / (m * m)).astype(int)
    rest = offsets - d0 * m * m
    d1 = np.rint(rest / m).astype(int)
    steps = np.stack([d0, d1, rest - d1 * m], axis=1)
    if np.abs(steps).max(initial=0) > 1:
        raise ValueError("the matrix couples nodes that are not grid neighbours")
    return steps


def _leaving_faces(step, n: int) -> list:
    """Disjoint (n, n, n) index slices covering the nodes p of the cube
    [0, n)^3 from which p - ``step`` leaves it: the face p_a = 0 for a step
    +1 along axis a, p_a = n - 1 for -1, each less the faces of the axes
    before it."""
    faces, earlier = [], [slice(None)] * 3
    for a, d in enumerate(step):
        if d:
            at = 0 if d > 0 else n - 1
            faces.append(tuple(earlier[:a]) + (slice(at, at + 1),) + tuple(earlier[a + 1:]))
            earlier[a] = slice(1, n) if d > 0 else slice(0, n - 1)
    return faces


def _restricted(op: DiscreteOperator, values, idx: np.ndarray, what: str, where: str) -> np.ndarray:
    """``values`` on the nodes ``idx``, given over every grid node or over ``idx``."""
    values = np.asarray(values, dtype=complex)
    if values.shape == (op.grid.num_points,):
        return values[idx]
    if values.shape == (len(idx),):
        return values
    raise ValueError(
        f"{what} must have length {op.grid.num_points} (full grid) or "
        f"{len(idx)} ({where}), got {values.shape}"
    )


def _scaled_model(grid: GridDomain, A: sp.dia_matrix, inner: sp.dia_matrix) -> tuple[np.ndarray, list, complex]:
    """(D, [a_0, a_1, a_2], b) of ``_sine_inverse``'s model of A_II on the
    whole strict interior, n = m - 2 per axis, from the diagonals of A and
    of A_II (``inner``, see ``_restrict``).

    D and the couplings are read from A_II's diagonals.  Each row sum adds
    A's diagonals on the interior rows in ascending offset order, the order
    of the row's entries in a CSR product, so the model is the one of the
    CSR's own diagonals and row sums bit for bit.
    """
    m, n = grid.m_per_axis, grid.m_per_axis - 2
    diagonal = dict(zip(inner.offsets.tolist(), inner.data))
    inv_diagonal = 1.0 / diagonal[0]
    s = np.sqrt(inv_diagonal)
    # the unknowns are C-ordered, so axis d couples indices k = n^(2-d)
    # apart; the diagonal at that offset holds zeros where a line of unknowns
    # wraps, and A^ at (i, i + k) is s_i A_II[i, i + k] s_{i+k}, stored at column i + k
    a = [-(s[:-k] * diagonal[k][k:]) @ s[k:] / (n * n * (n - 1)) for k in (n * n, n, 1)]
    # entry (i, i + o) of A sits at column i + o of offset o: on the interior
    # rows, the interior block shifted by the offset's step
    steps = _grid_steps(A.offsets, m)
    row_sums = np.zeros((n, n, n), dtype=complex)
    for k in np.argsort(A.offsets):
        row_sums += A.data[k].reshape(m, m, m)[tuple(slice(1 + d, m - 1 + d) for d in steps[k])]
    return diagonal[0].copy(), a, row_sums.ravel() @ inv_diagonal / n**3


def _sine_inverse(op: DiscreteOperator) -> Callable[[np.ndarray], np.ndarray]:
    """r -> M^-1 r for the diagonally scaled constant-coefficient model
    M = D^{1/2} M^ D^{1/2} of A_II, D = diag(A_II), the unknowns being the
    whole strict interior, n = m - 2 per axis (Concus & Golub 1973).

    M^ = sum_d a_d L_d + b I models A^ = s A_II s, s = D^{-1/2} on the
    principal branch (Re D > 0 by ellipticity), whose diagonal is one: the
    scaling takes the variation of the coefficient off the constant model.
    L_d is the second difference [-1, 2, -1] along axis d with zero Dirichlet
    ends; all three are diagonalised by the orthonormal DST-I matrix S (real,
    symmetric, S^2 = I), so M^-1 = s S3 diag(1 / Lambda) S3 s with
    S3 = S x S x S, which is complex symmetric, as COCG needs.  a_d is minus
    the mean of A^'s couplings along axis d (near 1/6 and nearly real: A^ has
    a unit diagonal, and the scaling takes off most of the couplings' phase)
    and b the mean over the unknowns of the full matrix's row sum times s^2,
    the reaction q h^3 / D (flux and cross terms cancel in each row; zero
    without reaction).  On a constant medium D is constant and M is the
    unscaled model.  S is applied as real n x n products along each axis, on
    the interleaved real and imaginary parts (the last axis by S x I_2).

    The fit is ``_scaled_model``, made with the blocks.
    """
    n = op.grid.m_per_axis - 2
    j = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    S_last = np.kron(S, np.eye(2))
    second_difference = 2.0 - 2.0 * np.cos(np.pi * j / (n + 1))
    diagonal, a, b = op._partition[2]
    inv_eig = 1.0 / (
        a[0] * second_difference[:, None, None]
        + a[1] * second_difference[None, :, None]
        + a[2] * second_difference[None, None, :]
        + b
    )
    s = np.sqrt(1.0 / diagonal).reshape(n, n, n)

    def transform(x):
        # x is C-contiguous complex (n, n, n): as floats, (n, n, 2n) with the
        # real and imaginary parts of the last axis interleaved
        y = S @ x.view(float).reshape(n, 2 * n * n)
        y = S @ y.reshape(n, n, 2 * n)
        return (y.reshape(n * n, 2 * n) @ S_last).view(complex).reshape(n, n, n)

    return lambda r: (s * transform(transform(s * r.reshape(n, n, n)) * inv_eig)).ravel()


def _cocg(
    A, b: np.ndarray, precondition: Callable[[np.ndarray], np.ndarray], atol: float, maxiter: int
):
    """Preconditioned COCG for the complex symmetric system A x = b, from x = 0.

    CG with the bilinear product x^T y: one product with A and one with the
    complex symmetric M^-1 (``precondition``) per step.  The loop stops when
    the recursively updated residual norm reaches ``atol``, after ``maxiter``
    steps, or on a breakdown, where the next step would divide by an exact
    zero (r^T M^-1 r = 0 or p^T A p = 0).  Returns (x, steps, breakdown),
    ``breakdown`` naming the vanished product, or None.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    rho = r @ z
    p = z
    for step in range(maxiter):
        if rho == 0:
            return x, step, "r^T M^-1 r = 0"
        q = A @ p
        mu = p @ q
        if mu == 0:
            return x, step, "p^T A p = 0"
        alpha = rho / mu
        x += alpha * p
        r -= alpha * q
        if np.vdot(r, r).real <= atol * atol:
            return x, step + 1, None
        z = precondition(r)
        rho, rho_old = r @ z, rho
        p = z + (rho / rho_old) * p
    return x, maxiter, None


def solve_dirichlet(op: DiscreteOperator, g, f=None, rtol: float = SOLVE_RTOL) -> ComplexField:
    """Solve L u = f with Dirichlet data g on the complement of the unknown set.

    ``g`` is indexed by ``op.boundary_idx`` (or given as a full nodal array);
    ``f`` is an interior source given as a full nodal array or an array over
    ``op.interior_idx``.  The interior system is solved by
    ``DiscreteOperator.solve``: COCG, preconditioned by ``_sine_inverse`` on
    the whole strict interior and by Jacobi on any other unknown set, whose
    relative algebraic residual, recomputed from A_II, must reach ``rtol``
    (1e-10 by default) or ResidualError is raised.
    """
    g_b = _restricted(op, g, op.boundary_idx, "boundary data", "boundary set")
    rhs = -op.A_IB @ g_b
    if f is not None:
        f_int = _restricted(op, f, op.interior_idx, "interior source", "unknown set")
        rhs = rhs + f_int * op.grid.volume_weights[op.interior_idx]

    values = np.zeros(op.grid.num_points, dtype=complex)
    values[op.boundary_idx] = g_b
    values[op.interior_idx] = op.solve(rhs, "solve residual", rtol)
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


def loglog_fit(x, y) -> tuple[float, float]:
    """(slope, rms) of the least-squares line through (log x, log y), rms the
    root mean square of its residuals in log units: the one fit behind every
    decay exponent and stability slope."""
    coeffs, res = np.polyfit(np.log(x), np.log(y), 1, full=True)[:2]
    return float(coeffs[0]), float(np.sqrt(res[0] / len(x))) if len(res) else 0.0
