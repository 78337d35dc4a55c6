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

Stability sweeps need the difference S2 - S1 of two media that differ only
on a small node patch, and take it from the discrete Alessandrini identity
instead of subtracting two assembled matrices.  Write H = [-A_II^{-1} A_IB; I]
for the discrete harmonic extension of boundary data, so that A H = [0; S]
and H^T A H = S.  For two media with energy matrices A1, A2 = A1 + E, the
symmetry of A1 gives H1^T A1 H2 = (A1 H1)^T H2 = S1 (the boundary block of
H2 is the identity), and H1^T A2 H2 = H1^T [0; S2] = S2, hence

    S2 - S1 = H1^T E H2.

E vanishes outside the rows and columns of a node set P (the perturbed
nodes and their stencil neighbours), so only the rows of H1 and H2 on P
enter: P_I = P inside the unknown set, P_B = P on the Dirichlet set, where
H is the identity.  With X = A1_II^{-1} R for the unit vectors R on P_I,
the base blocks are G_PP = R^T X (the P_I block of A1_II^{-1}) and, since
A1_II is symmetric, H1|_{P_I} = -X^T A1_IB.  Restricting
(A1_II + E_II) H2|_I = -(A1_IB + E_IB) to P_I after applying A1_II^{-1}
gives the push-through (Woodbury) form

    (I + G_PP E_II) H2|_{P_I} = H1|_{P_I} - G_PP E_IB,

a dense system of size |P_I|.  The base blocks, computed once for the base
medium, therefore replace the Nb column solves of every perturbed medium.

G_PP and H1|_{P_I} come from the Schur complement of A1_II on P_I, the
elimination step of nested dissection.  Let C be the unknowns off the patch
and split A1_II into the blocks A_PP, A_PC, A_CP, A_CC of P_I and C.  The
columns of A_CP vanish except at the separator, the nodes of P_I with a
stencil neighbour in C, so Y = A_CC^{-1} A_{C,sep} takes one sparse solve
per separator column (not per patch column).  Eliminating C from
A1_II X = R and from A1_II H1|_I = -A1_IB gives

    S = A_PP - A_PC A_CC^{-1} A_CP,   G_PP = S^{-1},
    H1|_{P_I} = -S^{-1} (A_{P_I,B} - A_PC A_CC^{-1} A_{C,B}),

and since A_CC is symmetric, A_PC A_CC^{-1} = Y^T on the separator rows and
zero elsewhere: S differs from A_PP by A_{C,sep}^T Y on the separator block
only.  Re A_CC is a principal submatrix of the positive definite Re A1_II,
so its LU with diagonal pivots exists as A1_II's does (``solver``).  At
m=17 the bundled perturbation has |P_I| = 651, a separator of 237 and
|C| = 2724.

The difference is never formed as an Nb x Nb matrix.  Write J for the unit
rows at P_B and A = [H1|_{P_I}; J], a |P| x Nb matrix fixed for a sweep.
The push-through form says H2|_{P_I} = N A with

    N = M^{-1} [I, -G_PP E_{I,P_B}],   M = I + G_PP E_II,

so H2|_P = [N; 0 I] A and

    S2 - S1 = A^T Z A,   Z = E_{P,I} N + [0, E_{P,P_B}],

with Z of size |P| x |P|: rank(S2 - S1) <= |P|, and the difference comes
without the cancellation of subtracting two O(1) matrices.  Its
H^{1/2} -> H^{-1/2} norm is the spectral norm of the whitened matrix
W V^T (S2 - S1) V W, W = (I + D)^{-1/4}, in the M_b-orthonormal eigenbasis
V, D.  With the QR factorization (A V W)^T = Q R, taken once per sweep,
that matrix is Q (R Z R^T) Q^T; Q has orthonormal columns, so

    ||S2 - S1||_{H^{1/2} -> H^{-1/2}} = ||R Z R^T||_2,

and each amplitude costs |P|-sized dense work plus residual checks linear
in Nb.  R does not depend on the order of the rows of (A V W)^T, so they
are stacked block by block as W_chi U_chi^T (A M_b^{-1/2} Q_chi)^T and the
sweep never forms the dense V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import ztrmm
from scipy.linalg.lapack import zgeqrf, zgeqrf_lwork

from .errors import FactorizationError, PowerIterationError, ResidualError
from .grid import GridDomain
from .medium import OpticalMedium, split_real_imag
from .solver import SOLVE_RTOL, DiscreteOperator, assemble, solve_dirichlet, symmetric_lu

DN_CHUNK = 64
# power iteration for operator norms: relative eigenvalue tolerance, step cap
POWER_RTOL = 1e-8
POWER_MAX_ITERATIONS = 50_000


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
    eigenvalue order, built on first use only: the stability sweep works
    block by block and never forms it.
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


def _support(E: sp.csr_matrix) -> np.ndarray:
    rows, cols = E.nonzero()
    return np.union1d(rows, cols)


def perturbation_nodes(base: DiscreteOperator, op: DiscreteOperator) -> np.ndarray:
    """Ascending nodes on the rows and columns where op.matrix - base.matrix is nonzero."""
    return _support(_difference(base, op))


@dataclass
class PatchGreen:
    """Base-medium blocks that give S2 - S1 = A^T Z A for any medium differing
    from the base only on the node patch P (derivation in the module
    docstring).

    ``interior`` holds the positions of P_I in ``base.interior_idx`` and
    ``boundary`` those of P_B in ``base.boundary_idx``; ``green`` is G_PP and
    ``extension`` is H1 on P_I, shape (|P_I|, Nb).
    """

    base: DiscreteOperator
    nodes: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    green: np.ndarray
    extension: np.ndarray

    @classmethod
    def build(cls, base: DiscreteOperator, nodes) -> "PatchGreen":
        """G_PP and H1|_{P_I} from the Schur complement S of A_II on P_I
        (module docstring): one sparse LU of A_CC, solved for the separator
        columns only, and one dense inverse G_PP = S^{-1}.

        Each sparse block solve is residual-checked, so is S G_PP = I, and
        so is A_II X = R for the implied X = A_II^{-1} R on the unit vectors
        R of P_I, blockwise: its complement rows are -(A_CC Y - A_{C,sep})
        G_sep, its patch rows S G_PP - I."""
        nodes = np.unique(np.asarray(nodes, dtype=int))
        interior = np.flatnonzero(np.isin(base.interior_idx, nodes))
        boundary = np.flatnonzero(np.isin(base.boundary_idx, nodes))
        grid = base.grid
        A_II, A_IB = base._interior_blocks()
        comp = np.setdiff1d(np.arange(base.interior_count), interior, assume_unique=True)
        schur = A_II[interior][:, interior].toarray()
        coupling = A_IB[interior].toarray()
        A_C = A_II[comp]
        A_CP = A_C[:, interior]
        sep = np.flatnonzero(A_CP.getnnz(axis=0))
        A_CC, A_CS = A_C[:, comp], A_CP[:, sep]
        # a patch on every unknown leaves no complement to factor
        lu = symmetric_lu(A_CC) if sep.size else None
        Y = np.empty(A_CS.shape, dtype=complex)
        for start in range(0, sep.size, DN_CHUNK):
            sel = slice(start, min(start + DN_CHUNK, sep.size))
            Y[:, sel] = _solve_checked(
                lu, A_CC, A_CS[:, sel].toarray(),
                f"patch complement block {start}..{sel.stop - 1}", grid,
            )
        # A_CC and A_{sep,C} = A_CS^T are blocks of the symmetric A_II
        schur[np.ix_(sep, sep)] -= A_CS.T @ Y
        coupling[sep] -= (A_IB[comp].T @ Y).T
        green = np.linalg.inv(schur)
        patch_rows = schur @ green
        patch_rows[np.diag_indices_from(patch_rows)] -= 1.0
        patch_gap = np.linalg.norm(patch_rows)
        _require_residual(patch_gap, np.sqrt(len(interior)), "patch Schur complement", grid)
        # ||D G_sep||_F^2 = tr(G_sep^H (D^H D) G_sep) with D = A_CC Y - A_CS,
        # without the |C| x |P_I| product
        D = A_CC @ Y - A_CS.toarray()
        G_sep = green[sep]
        gap = np.sqrt(patch_gap**2 + np.vdot(G_sep, (D.conj().T @ D) @ G_sep).real)
        _require_residual(gap, np.sqrt(len(interior)), "patch Green's block", grid)
        # the coupling A_{P_I B} - Y^T A_{CB} vanishes off the separator and
        # off the nodes next to the Dirichlet set
        rows = np.flatnonzero(coupling.any(axis=1))
        extension = -(green[:, rows] @ coupling[rows])
        return cls(base, nodes, interior, boundary, green, extension)

    def whitening(self, scale: SobolevScale) -> np.ndarray:
        """Upper triangular R of the QR factorization (A V W)^T = Q R,
        A = [H1|_{P_I}; J], padded with zero rows to (|P|, |P|) when
        Nb < |P|; ||R Z R^T||_2 is the H^{1/2} -> H^{-1/2} norm of A^T Z A
        (module docstring).

        (A V W)^T is stacked from the symmetry blocks of ``scale`` as
        W_chi U_chi^T (A B_chi)^T, B_chi = M_b^{-1/2} Q_chi, without the dense
        V; R does not depend on the order of the rows.  U_chi is real, so its
        product with the complex (A B_chi)^T is one real GEMM on the
        interleaved real and imaginary parts.  The QR is LAPACK's blocked
        zgeqrf in place on the Fortran-ordered stack, with its optimal
        workspace."""
        npatch = len(self.interior) + len(self.boundary)
        nb = len(scale.boundary_idx)
        AVWt = np.empty((nb, npatch), dtype=complex, order="F")
        start = 0
        for block in scale.blocks:
            B = block.basis
            ABt = np.hstack([B.T @ self.extension.T, B[self.boundary].T.toarray()])
            stop = start + B.shape[1]
            AVWt[start:stop] = (block.vectors.T @ ABt.view(float)).view(complex)
            AVWt[start:stop] *= ((1.0 + scale.eigenvalues[block.positions]) ** -0.25)[:, None]
            start = stop
        work, info = zgeqrf_lwork(nb, npatch)
        if info != 0:
            raise FactorizationError(f"zgeqrf workspace query failed (info {info})")
        qr, _, _, info = zgeqrf(AVWt, lwork=int(work.real), overwrite_a=1)
        if info != 0:
            raise FactorizationError(f"QR of the whitened patch rows failed (info {info})")
        R = np.triu(qr[: min(nb, npatch)])
        return np.pad(R, ((0, npatch - R.shape[0]), (0, 0)))

    def core(self, op: DiscreteOperator) -> np.ndarray:
        """Z, of shape (|P|, |P|), with S(op) - S(base) = A^T Z A; rows and
        columns are ordered P_I then P_B, as the rows of A.

        Raises ValueError when E reaches a node outside the patch.  Two
        residuals are checked against SOLVE_RTOL: the dense push-through
        solve's own, M N = [I, -G_PP E_{I,P_B}], and that of op's interior
        equations on the patch rows whose stencil stays inside P_I (the only
        equations H2|_P = [N; 0 I] A can be tested against), measured
        against ||A2_IB|| as in a full Dirichlet solve; the latter rejects a
        G_PP or H1 that does not belong to the base medium, and is skipped
        when no such row exists.
        """
        base, grid = self.base, self.base.grid
        E = _difference(base, op)
        outside = np.setdiff1d(_support(E), self.nodes)
        if outside.size:
            raise ValueError(
                f"the perturbation reaches {outside.size} node(s) outside the prepared "
                f"patch of {len(self.nodes)} (first: node {outside[0]})"
            )
        p_int = base.interior_idx[self.interior]
        p_bnd = base.boundary_idx[self.boundary]
        order = np.concatenate([p_int, p_bnd])
        E_PP = E[order][:, order]
        npi = len(p_int)
        E_PI = E_PP[:, :npi]
        G = self.green

        M = np.eye(npi) + G @ E_PI[:npi]
        rhs = np.hstack([np.eye(npi), -(G @ E_PP[:npi, npi:].toarray())])
        N = np.linalg.solve(M, rhs)
        _require_residual(
            np.linalg.norm(M @ N - rhs), np.linalg.norm(rhs), "patch push-through solve", grid
        )

        # op's interior equations on the patch rows whose interior stencil lies in P_I
        off_patch = np.ones(grid.num_points, dtype=bool)
        off_patch[base.boundary_idx] = False
        off_patch[p_int] = False
        A_rows = op.matrix[p_int]
        inner = np.flatnonzero(A_rows[:, off_patch].getnnz(axis=1) == 0)
        if inner.size:
            A_inner = A_rows[inner]
            K = A_inner[:, p_int] @ N
            residual = K[:, :npi] @ self.extension + A_inner[:, base.boundary_idx].toarray()
            residual[:, self.boundary] += K[:, npi:]
            A_IB = op.matrix[op.interior_idx][:, op.boundary_idx]
            _require_residual(
                np.linalg.norm(residual),
                np.linalg.norm(A_IB.data),
                "patch harmonic extension",
                grid,
            )

        Z = E_PI @ N
        Z[:, npi:] += E_PP[:, npi:].toarray()
        return Z

    def operator_norm(self, op: DiscreteOperator, R: np.ndarray, seed: int = 0) -> float:
        """H^{1/2} -> H^{-1/2} norm of S(op) - S(base): ||R Z R^T||_2 for
        R = ``self.whitening(scale)``, by the power iteration and default
        tolerances of ``sobolev_operator_norm``."""
        # R is upper triangular: R Z R^T by two triangular products
        RZ = ztrmm(1.0, R, self.core(op))
        return _largest_singular_value(
            ztrmm(1.0, R, RZ, side=1, trans_a=1, overwrite_b=1),
            rtol=POWER_RTOL,
            max_iterations=POWER_MAX_ITERATIONS,
            seed=seed,
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


def _largest_singular_value(
    T: np.ndarray, rtol: float, max_iterations: int, seed: int
) -> float:
    """Largest singular value of T by power iteration on T* T, from a random
    start vector drawn with ``seed``; stops at relative eigenvalue residual
    ``rtol`` and raises PowerIterationError after ``max_iterations`` steps."""
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


def sobolev_operator_norm(
    delta: np.ndarray,
    scale: SobolevScale,
    rtol: float = POWER_RTOL,
    max_iterations: int = POWER_MAX_ITERATIONS,
    seed: int = 0,
) -> float:
    """Operator norm of a D-N difference from H^{1/2} to its dual: the
    largest singular value of the spectrally whitened matrix."""
    T = _whitened(np.asarray(delta, dtype=complex), scale)
    return _largest_singular_value(T, rtol=rtol, max_iterations=max_iterations, seed=seed)


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
    lhs = dn1.pairing(f, g) - dn2.pairing(f, g)

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
