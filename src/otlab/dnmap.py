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

S_b and M_b are invariant under the three coordinate reflections
i_a -> m-1-i_a of the cube, so M_b^{-1/2} S_b M_b^{-1/2} commutes with the
reflection group Z_2^3 and is block diagonal in its symmetry-adapted basis.
For each of the eight sign characters chi, Q_chi has one orthonormal column
per orbit of mirror images on which chi is trivial on the stabiliser, with
at most 8 nonzeros; nodes on a mid-plane have smaller orbits and carry
fewer characters, and the column counts sum to Nb.  The eigenbasis is
V = [M_b^{-1/2} Q_chi U_chi] from eight symmetric eigenproblems of about
Nb/8 each, Q_chi^T M_b^{-1/2} S_b M_b^{-1/2} Q_chi = U_chi D_chi U_chi^T,
which costs about 1/64 of one dense Nb x Nb eigh.

Every H^{1/2} -> H^{-1/2} norm is the spectral norm of the whitened
T = W V^T Delta V W, W = (I + D)^{-1/4}, in the M_b-orthonormal eigenbasis
V, D, and is taken one way: a Lanczos iteration on T^H T, which needs T
only as a product.  ``_whitened`` makes x -> T x from any boundary product
z = Delta f, block by block:

    f = V W x                       (sum over chi of B_chi U_chi (W x)_chi)
    T x = W V^T z                   ((V^T z)_chi = U_chi^T B_chi^T z)

with B_chi = M_b^{-1/2} Q_chi, so the dense V is never formed.  ``otlab dn``
takes Delta = S, its assembled D-N matrix, with T^H from S^H and a start
drawn with seed 0 (``sobolev_operator_norm``).

Stability sweeps take Delta = S2 - S1 for two media from the discrete
Alessandrini identity instead of subtracting two assembled matrices.  Write
H = [-A_II^{-1} A_IB; I] for the discrete harmonic extension of boundary
data, so that A H = [0; S] and H^T A H = S.  For energy matrices A1,
A2 = A1 + E, the symmetry of A1 gives H1^T A1 H2 = (A1 H1)^T H2 = S1 (the
boundary block of H2 is the identity), and H1^T A2 H2 = H1^T [0; S2] = S2,
hence S2 - S1 = H1^T E H2, applied as

    u_I = -A2_II^{-1} A2_IB f       (H2 f = [u_I; f])
    y = E H2 f
    z = y_B - A1_BI A1_II^{-1} y_I  (H1^T y, since A1_II is symmetric).

One product costs one solve with A2_II and one with A1_II and forms no
boundary-sized matrix, and the difference comes without the cancellation of
subtracting two O(1) matrices.  T is complex symmetric, so
T^H v = conj(T conj(v)), and a Lanczos step, one product T^H T v, costs four
solves.  Along a sweep's amplitude ladder T(eps) is nearly eps T', so its top
singular vector barely moves: each amplitude's iteration starts from the
previous amplitude's top Ritz vector plus a small seeded random part, and
needs about half the steps of a random start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import FactorizationError, ResidualError
from .grid import GridDomain
from .medium import OpticalMedium
from .solver import SOLVE_RTOL, DiscreteOperator, assemble

DN_CHUNK = 64
# Lanczos operator norms: Ritz residual relative to the Ritz value
LANCZOS_RTOL = 1e-8


def symmetry_bases(grid: GridDomain) -> list[sp.csr_matrix]:
    """Symmetry-adapted orthonormal bases Q_chi of the boundary functions,
    one per sign character chi = (c0, c1, c2) of the reflection group Z_2^3
    (chi flips sign under the reflection of axis a when c_a = 1).

    Each column lives on one orbit of mirror images: entry
    +-|orbit|^{-1/2} on every orbit node, negative when the node lies past
    the mid-plane of an odd number of axes with c_a = 1.  An orbit carries a
    column for chi only if chi is trivial on its stabiliser (c_a = 0 on
    every mid-plane through the orbit), so the column counts sum to Nb.
    Every boundary row holds at most one nonzero of each Q_chi.
    """
    b_idx = grid.boundary_indices
    nb = len(b_idx)
    m = grid.m_per_axis
    half = (m - 1) // 2
    ijk = np.array(np.unravel_index(b_idx, (m, m, m)))
    folded = np.minimum(ijk, m - 1 - ijk)
    _, orbit = np.unique(
        np.ravel_multi_index(folded, (half + 1,) * 3), return_inverse=True
    )
    orbit_size = np.bincount(orbit)
    mirrored, on_mid_plane = ijk > half, ijk == half
    bases = []
    for chi in np.ndindex(2, 2, 2):
        flips = np.array(chi, dtype=bool)[:, None]
        rows = np.flatnonzero(~np.any(on_mid_plane & flips, axis=0))
        kept, col = np.unique(orbit[rows], return_inverse=True)
        sign = 1.0 - 2.0 * (np.sum(mirrored[:, rows] & flips, axis=0) % 2)
        bases.append(
            sp.csr_matrix(
                (sign / np.sqrt(orbit_size[orbit[rows]]), (rows, col)),
                shape=(nb, len(kept)),
            )
        )
    return bases


@dataclass
class SymmetryBlock:
    """One Z_2^3 block of the boundary eigenbasis: V_chi = ``basis`` @
    ``vectors``, whose columns sit at ``positions`` of the ascending
    spectrum."""

    basis: sp.csr_matrix   # (Nb, n_chi) M_b^{-1/2} Q_chi
    vectors: np.ndarray    # (n_chi, n_chi) eigenvectors U_chi of the block
    positions: np.ndarray  # (n_chi,) indices into SobolevScale.eigenvalues


@dataclass
class SobolevScale:
    """Boundary mass, graph Laplacian and eigenbasis backing the H^{±1/2} norms.

    S_b and M_b are invariant under the three coordinate reflections of the
    cube, so M_b^{-1/2} S_b M_b^{-1/2} is block diagonal in the bases Q_chi
    of ``symmetry_bases``; ``blocks`` holds the eight blocks' eigenpairs.
    ``eigenvectors`` is the dense V = [M_b^{-1/2} Q_chi U_chi] in ascending
    eigenvalue order, built on first use only.  otlab itself works block by
    block and never forms it; it is kept for the tests' dense references and
    the benchmark's dense-SVD check.
    """

    grid: GridDomain
    boundary_idx: np.ndarray
    mass: np.ndarray            # (Nb,) trapezoid surface weights
    stiffness: sp.csr_matrix    # (Nb, Nb) SPSD, kernel = constants
    eigenvalues: np.ndarray     # ascending, >= 0
    blocks: tuple               # SymmetryBlock per sign character

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
        # M_b is diagonal and commutes with the reflections, so the block of
        # M_b^{-1/2} S_b M_b^{-1/2} for chi is B^T S_b B with B = M_b^{-1/2} Q_chi,
        # and V_chi = B U_chi satisfies V^T M_b V = I
        d = sp.diags(mass**-0.5)
        bases = [(d @ Q).tocsr() for Q in symmetry_bases(grid)]
        pairs = [
            scipy.linalg.eigh((B.T @ S @ B).toarray(), overwrite_a=True, driver="evd")
            for B in bases
        ]
        lam = np.concatenate([p[0] for p in pairs])
        order = np.argsort(lam, kind="stable")
        rank = np.empty(nb, dtype=int)
        rank[order] = np.arange(nb)
        blocks, start = [], 0
        for B, (block_lam, U) in zip(bases, pairs):
            blocks.append(SymmetryBlock(B, U, rank[start : start + len(block_lam)]))
            start += len(block_lam)
        return cls(grid, b_idx, mass, S, np.maximum(lam[order], 0.0), tuple(blocks))

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Dense V with V^T diag(mass) V = I, columns in ascending eigenvalue order."""
        V = np.empty((len(self.boundary_idx),) * 2)
        for block in self.blocks:
            V[:, block.positions] = block.basis @ block.vectors
        return V


@dataclass
class DNOperator:
    """Dense boundary matrix of the Dirichlet-to-Neumann functional."""

    matrix: np.ndarray
    boundary_idx: np.ndarray
    medium_fingerprint: str
    grid_fingerprint: str

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


def _require_residual(gap: float, rhs_norm: float, label: str, grid: GridDomain):
    """Raise ResidualError unless the residual norm ``gap`` is at most
    SOLVE_RTOL times the right-hand side's norm ``rhs_norm``."""
    if not gap <= SOLVE_RTOL * rhs_norm:
        raise ResidualError(
            f"{label}: residual {gap / rhs_norm:.3e} exceeds {SOLVE_RTOL:.1e} "
            f"(grid {grid.m_per_axis}^3)"
        )


def _solve_checked(lu, A_II, rhs: np.ndarray, label: str, grid: GridDomain) -> np.ndarray:
    """Solve A_II U = rhs with the factor ``lu`` and check the residual."""
    try:
        U = lu.solve(rhs)
    except RuntimeError as exc:
        raise FactorizationError(f"{label} failed: {exc}") from exc
    _require_residual(np.linalg.norm(A_II @ U - rhs), np.linalg.norm(rhs), label, grid)
    return U


def assemble_dn(
    medium: OpticalMedium,
    grid: GridDomain | None = None,
    operator: DiscreteOperator | None = None,
) -> DNOperator:
    """Dirichlet-to-Neumann matrix on the nodal boundary basis, boundary
    nodes in ascending flat order.

    One factorization is shared across all columns.
    """
    grid = grid or medium.grid
    op = operator if operator is not None else assemble(medium, grid, include_reaction=True)
    A = op.matrix
    A_II, A_IB = op._interior_blocks()
    i_idx, b_idx = op.interior_idx, op.boundary_idx

    A_BI = A[b_idx][:, i_idx].tocsr()
    lu = op.factorization()
    nb = len(b_idx)

    # the dense A_BB block is a fresh complex array; the columns accumulate in it
    S = A[b_idx][:, b_idx].toarray()
    for start in range(0, nb, DN_CHUNK):
        sel = slice(start, min(start + DN_CHUNK, nb))
        rhs = -A_IB[:, sel].toarray()
        U = _solve_checked(lu, A_II, rhs, f"D-N column block {start}..{sel.stop - 1}", grid)
        S[:, sel] += A_BI @ U
    return DNOperator(
        matrix=S,
        boundary_idx=b_idx,
        medium_fingerprint=op.medium_fingerprint,
        grid_fingerprint=grid.fingerprint(),
    )


def _difference(base: DiscreteOperator, op: DiscreteOperator) -> sp.csr_matrix:
    """E = op.matrix - base.matrix with its exact zeros dropped."""
    if op.grid != base.grid or not np.array_equal(op.interior_idx, base.interior_idx):
        raise ValueError("operators must share one grid and one unknown set")
    E = (op.matrix - base.matrix).tocsr()
    E.eliminate_zeros()
    return E


def _real_times(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U @ v for a real U and a complex vector v, as one real product on the
    interleaved real and imaginary parts."""
    return (U @ v.view(float).reshape(-1, 2)).view(complex).ravel()


def _whitened(product, scale: SobolevScale):
    """x -> W V^T product(V W x), W = (I + D)^{-1/4}: the whitened matrix whose
    spectral norm is the H^{1/2} -> H^{-1/2} norm of the boundary map
    ``product``, applied block by block over ``scale.blocks`` (module
    docstring), so no Nb x Nb array is formed."""
    w = (1.0 + scale.eigenvalues) ** -0.25
    # transposed once: a sparse transpose per product cost more than the product
    transposed = [block.basis.T.tocsr() for block in scale.blocks]

    def apply(x):
        wx = w * x
        f = sum(
            block.basis @ _real_times(block.vectors, wx[block.positions])
            for block in scale.blocks
        )
        z = product(f)
        out = np.empty_like(wx)
        for block, Bt in zip(scale.blocks, transposed):
            out[block.positions] = _real_times(block.vectors.T, Bt @ z)
        return w * out

    return apply


def _difference_product(base: DiscreteOperator, op: DiscreteOperator, E: sp.csr_matrix):
    """f -> H1^T E H2 f = (S(op) - S(base)) f for E = op.matrix - base.matrix.
    Both interior blocks are factored through ``DiscreteOperator.factorization``
    (once for a base shared by a sweep), and every solve is residual-checked."""
    grid = base.grid
    i_idx, b_idx = base.interior_idx, base.boundary_idx
    A1_II, A1_IB = base._interior_blocks()
    A2_II, A2_IB = op._interior_blocks()
    A1_BI = A1_IB.T.tocsr()
    lu1, lu2 = base.factorization(), op.factorization()
    u = np.empty(grid.num_points, dtype=complex)

    def product(f):
        u[b_idx] = f
        u[i_idx] = _solve_checked(lu2, A2_II, -(A2_IB @ f), "perturbed extension solve", grid)
        y = E @ u
        y_I = _solve_checked(lu1, A1_II, y[i_idx], "base extension solve", grid)
        return y[b_idx] - A1_BI @ y_I

    return product


def difference_norm(
    base: DiscreteOperator,
    op: DiscreteOperator,
    scale: SobolevScale,
    seed: int = 0,
    guess: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """H^{1/2} -> H^{-1/2} norm of S(op) - S(base): the largest singular value
    of T = ``_whitened(_difference_product(...))``, by the Lanczos iteration
    of ``_largest_singular_value`` on T^H T, with its top Ritz vector.

    The iteration starts from ``guess`` (a top Ritz vector of a nearby
    difference, such as the previous amplitude of a sweep) plus a small
    random part drawn with ``seed``, or from the random vector alone when
    ``guess`` is None.  Returns (0.0, guess) without factoring when the two
    matrices are equal."""
    E = _difference(base, op)
    if E.nnz == 0:
        return 0.0, guess
    apply = _whitened(_difference_product(base, op, E), scale)
    # T is complex symmetric, so T^H v = conj(T conj(v))
    return _largest_singular_value(
        lambda v: np.conj(apply(np.conj(apply(v)))),
        len(scale.eigenvalues), rtol=LANCZOS_RTOL, seed=seed, guess=guess,
    )


def _largest_singular_value(
    gram, n: int, rtol: float, seed: int, guess: np.ndarray | None = None
) -> tuple[float, np.ndarray | None]:
    """Largest singular value of T and its right singular vector, by Lanczos
    on the Hermitian G = T* T, given as the product ``gram``: v -> G v on
    vectors of length ``n``.

    The start vector is a random unit vector drawn with ``seed`` or, given a
    unit ``guess``, guess + sqrt(rtol) times that vector, normalised.  The
    random part keeps every eigenvector of G in the start: from a guess
    orthogonal to the top eigenvector alone the iteration could break down
    on a smaller eigenvalue and return it.

    The basis grows by one vector per step and is fully reorthogonalised,
    two classical Gram-Schmidt passes per step.  The top Ritz pair (theta, s)
    of the k x k tridiagonal has the residual ||G y - theta y|| = beta_k |s_k|
    for its Ritz vector y = Q^T s, which bounds |theta - sigma_max^2| as G is
    Hermitian; the loop stops when that is at most ``rtol`` theta, at an
    exact breakdown (beta_k = 0), or at k = n, where the Ritz value is exact,
    and returns (sqrt(theta), y / ||y||).  A zero operator breaks down at the
    first step and returns (0.0, guess)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    if guess is not None:
        v = guess + np.sqrt(rtol) * v
        v /= np.linalg.norm(v)
    basis, alpha, beta = [v], [], []
    while True:
        w = gram(v)
        alpha.append(float(np.real(np.vdot(v, w))))
        Q = np.array(basis)
        for _ in range(2):
            w -= Q.T @ (Q.conj() @ w)
        b = float(np.linalg.norm(w))
        k = len(alpha)
        (theta,), s = scipy.linalg.eigh_tridiagonal(
            alpha, beta, select="i", select_range=(k - 1, k - 1)
        )
        if b * abs(s[-1, 0]) <= rtol * theta or k == n:
            if theta == 0.0:
                return 0.0, guess
            y = Q.T @ s[:, 0]
            return float(np.sqrt(theta)), y / np.linalg.norm(y)
        beta.append(b)
        v = w / b
        basis.append(v)


def sobolev_operator_norm(delta: np.ndarray, scale: SobolevScale) -> float:
    """H^{1/2} -> H^{-1/2} norm of a boundary matrix: the largest singular
    value of T = ``_whitened(delta @ .)`` by ``_largest_singular_value``,
    started with seed 0.  No symmetry is assumed: T^H = W V^T delta^H V W."""
    delta = np.asarray(delta, dtype=complex)
    apply = _whitened(lambda f: delta @ f, scale)
    # delta^H f = conj(conj(f) @ delta), with no conjugated copy of delta
    adjoint = _whitened(lambda f: np.conj(np.conj(f) @ delta), scale)
    sigma, _ = _largest_singular_value(
        lambda v: adjoint(apply(v)), len(scale.eigenvalues), rtol=LANCZOS_RTOL, seed=0
    )
    return sigma
