"""Discrete Dirichlet-to-Neumann operators and boundary Sobolev machinery.

The D-N map is taken through the volume (weak) form: with the full energy
matrix A partitioned into interior/boundary blocks, nodal boundary data f
maps to the boundary rows of A applied to the discrete solution, the Schur
complement product

    S f = A_BB f - A_BI A_II^{-1} A_IB f      (``_dn_product``, one solve).

``assemble_dn`` forms S itself, one column block at a time, from the LU of
A_II, for the dense references of the tests: otlab itself forms no such
matrix, and the reference comes from a solver independent of the products
it checks.
S is complex symmetric (bilinear symmetry <Lf, conj(g)> = <Lg, conj(f)>),
not Hermitian.  The pairing convention is <Lambda f, conj(g)> = g^T S f
with the plain (unconjugated) dot product.  The partition and the solves
with A_II belong to ``solver``: this module takes the blocks A_IB, A_BI and
A_BB of ``DiscreteOperator`` and its ``solve``, which solves by
preconditioned COCG, one right-hand side at a time, and checks every
solve's residual.

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
which costs about 1/64 of one dense Nb x Nb eigh.  The eigenpairs stay in
block order: block chi is one contiguous slice of the spectrum D, ascending
within the block, and nothing re-sorts them.

Every H^{1/2} -> H^{-1/2} norm is the spectral norm of the whitened
T = W V^T Delta V W, W = (I + D)^{-1/4}, in the M_b-orthonormal eigenbasis
V, D, and is taken one way, by ``sobolev_operator_norm``: a Lanczos
iteration on T^H T, which needs T only as a product.  ``_whitened`` makes
x -> T x from a boundary product z = Delta f, block by block:

    f = V W x                       (B c, c_chi = U_chi (W x)_chi)
    T x = W V^T z                   ((V^T z)_chi = U_chi^T (B^T z)_chi)

with B = [B_chi] the eight B_chi = M_b^{-1/2} Q_chi side by side, one sparse
Nb x Nb matrix with at most 8 nonzeros per row (``stacked_transpose`` holds
B^T, built once per ``SobolevScale``), and (.)_chi the slice of block chi:
one sparse product each way and eight dense block products on contiguous
slices, so the dense V is never formed.  Delta is complex symmetric on
every route, so T is too and T^H v = conj(T conj(v)).  ``otlab dn`` takes
Delta = S as the Schur product, with a start drawn with seed 0.

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
subtracting two O(1) matrices.  A Lanczos step, one product T^H T v, costs
four COCG solves and factors nothing.  Along a sweep's amplitude ladder
T(eps) is nearly eps T', so its top singular vector barely moves: each
amplitude's iteration starts from the previous amplitude's top Ritz vector
plus a small seeded random part, and needs about half the steps of a random
start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import FactorizationError
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
    ijk = grid.multi_index[b_idx].T
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
class SobolevScale:
    """Boundary mass, graph Laplacian and eigenbasis backing the H^{±1/2} norms.

    S_b and M_b are invariant under the three coordinate reflections of the
    cube, so M_b^{-1/2} S_b M_b^{-1/2} is block diagonal in the bases Q_chi
    of ``symmetry_bases``.  The eigenpairs are kept in block order: block
    chi, in ``symmetry_bases`` order, holds the contiguous slice
    ``slices[chi]`` of ``eigenvalues`` (ascending within the block) and of
    the rows of ``stacked_transpose``, and ``vectors[chi]`` is its U_chi.
    ``eigenvectors`` is the dense V = [M_b^{-1/2} Q_chi U_chi] in the same
    order, built on first use only.  otlab itself works block by block and
    never forms it; it is kept for the tests' dense references and the
    benchmark's dense-SVD check.
    """

    grid: GridDomain
    boundary_idx: np.ndarray
    mass: np.ndarray                  # (Nb,) trapezoid surface weights
    stiffness: sp.csr_matrix          # (Nb, Nb) SPSD, kernel = constants
    eigenvalues: np.ndarray           # (Nb,) >= 0, block by block
    vectors: tuple                    # (n_chi, n_chi) U_chi per sign character
    stacked_transpose: sp.csr_matrix  # (Nb, Nb) B^T, B = [M_b^{-1/2} Q_chi]

    @classmethod
    def build(cls, grid: GridDomain) -> "SobolevScale":
        b_idx = grid.boundary_indices
        nb = len(b_idx)
        pos = -np.ones(grid.num_points, dtype=int)
        pos[b_idx] = np.arange(nb)
        # the 2-D trapezoid weights of the faces through a node, summed: a
        # node on c faces lies on the rim of each of them c - 1 times
        faces = grid.rim[b_idx].sum(axis=1)
        mass = grid.h * grid.h * faces * 2.0 ** (1 - faces)
        # S_b joins adjacent boundary nodes with unit weight: a rim edge gets
        # half the transverse width from each of the two faces through it
        pairs = []
        for d, stride in enumerate(grid.strides):
            p = b_idx[grid.multi_index[b_idx, d] < grid.m_per_axis - 1]
            p = p[grid.boundary_mask[p + stride]]
            pairs.append((pos[p], pos[p + stride]))
        i, j = (np.concatenate(side) for side in zip(*pairs))
        S = sp.coo_matrix(
            (np.repeat([1.0, 1.0, -1.0, -1.0], len(i)), (np.r_[i, j, i, j], np.r_[i, j, j, i])),
            shape=(nb, nb),
        ).tocsr()
        # M_b is diagonal and commutes with the reflections, so the block of
        # M_b^{-1/2} S_b M_b^{-1/2} for chi is B^T S_b B with B = M_b^{-1/2} Q_chi,
        # and V_chi = B U_chi satisfies V^T M_b V = I
        d = sp.diags(mass**-0.5)
        bases = [(d @ Q).tocsr() for Q in symmetry_bases(grid)]
        lam, vectors = zip(*(
            scipy.linalg.eigh((B.T @ S @ B).toarray(), overwrite_a=True, driver="evd")
            for B in bases
        ))
        Bt = sp.vstack([B.T for B in bases], format="csr")
        return cls(grid, b_idx, mass, S, np.maximum(np.concatenate(lam), 0.0), vectors, Bt)

    @cached_property
    def slices(self) -> tuple:
        """Each block's slice of ``eigenvalues`` and of the rows of
        ``stacked_transpose``, from the block sizes."""
        stops = list(itertools.accumulate(len(U) for U in self.vectors))
        return tuple(slice(a, b) for a, b in zip([0] + stops, stops))

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Dense V with V^T diag(mass) V = I, columns in ``eigenvalues`` order."""
        Bt = self.stacked_transpose
        return np.hstack([Bt[s].T @ U for s, U in zip(self.slices, self.vectors)])


def _dn_product(op: DiscreteOperator):
    """f -> S f = A_BB f - A_BI A_II^{-1} A_IB f for one vector or a block of
    columns f, the D-N map of ``op``, each column solved and residual-checked
    by ``op.solve``."""

    def product(f):
        return op.A_BB @ f + op.A_BI @ op.solve(-(op.A_IB @ f), "D-N extension solve: residual")

    return product


def assemble_dn(
    medium: OpticalMedium,
    grid: GridDomain | None = None,
    operator: DiscreteOperator | None = None,
) -> np.ndarray:
    """Dense Nb x Nb Dirichlet-to-Neumann matrix on the nodal boundary basis,
    boundary nodes in ascending flat order: A_BB - A_BI A_II^{-1} A_IB, solved
    with the LU of ``DiscreteOperator.factorization`` in column blocks of
    ``DN_CHUNK``, each block residual-checked at ``SOLVE_RTOL``.  The tests'
    dense reference, apart from the COCG solves of ``_dn_product``."""
    op = operator if operator is not None else assemble(medium, grid or medium.grid)
    lu = op.factorization()
    nb = len(op.boundary_idx)
    S = np.empty((nb, nb), dtype=complex)
    for start in range(0, nb, DN_CHUNK):
        stop = min(start + DN_CHUNK, nb)
        label = f"D-N column block {start}..{stop - 1}"
        rhs = -op.A_IB[:, start:stop].toarray()
        try:
            U = lu.solve(rhs)
        except RuntimeError as exc:
            raise FactorizationError(f"{label} failed: {exc}") from exc
        op._check_residual(U, rhs, SOLVE_RTOL, f"{label}: residual")
        S[:, start:stop] = op.A_BB[:, start:stop].toarray() + op.A_BI @ U
    return S


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
    ``product``, applied block by block on the contiguous ``scale.slices``
    through the stacked basis of ``scale.stacked_transpose`` (module
    docstring), so no dense Nb x Nb array is formed."""
    w = (1.0 + scale.eigenvalues) ** -0.25
    Bt = scale.stacked_transpose
    B = Bt.T  # stored by columns: a view, no copy
    blocks = list(zip(scale.slices, scale.vectors))

    def apply(x):
        wx = w * x
        coefficients = np.empty_like(wx)
        for s, U in blocks:
            coefficients[s] = _real_times(U, wx[s])
        z = Bt @ product(B @ coefficients)
        out = np.empty_like(wx)
        for s, U in blocks:
            out[s] = _real_times(U.T, z[s])
        return w * out

    return apply


def _difference_product(base: DiscreteOperator, op: DiscreteOperator, E: sp.csr_matrix):
    """f -> H1^T E H2 f = (S(op) - S(base)) f for E = op.matrix - base.matrix,
    from the COCG solves of ``op.solve`` (the extension of f) and
    ``base.solve``.  Each operator builds its preconditioner once, the base
    once for a whole sweep, and every solve is residual-checked."""
    i_idx, b_idx = base.interior_idx, base.boundary_idx
    u = np.empty(base.grid.num_points, dtype=complex)

    def product(f):
        u[b_idx] = f
        u[i_idx] = op.solve(-(op.A_IB @ f), "perturbed extension solve: residual")
        y = E @ u
        return y[b_idx] - base.A_BI @ base.solve(y[i_idx], "base extension solve: residual")

    return product


def difference_norm(
    base: DiscreteOperator,
    op: DiscreteOperator,
    scale: SobolevScale,
    seed: int = 0,
    guess: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """H^{1/2} -> H^{-1/2} norm of S(op) - S(base) and its top Ritz vector:
    ``sobolev_operator_norm`` of ``_difference_product``.  Returns
    (0.0, guess) without a solve when the two matrices are equal."""
    E = _difference(base, op)
    if E.nnz == 0:
        return 0.0, guess
    return sobolev_operator_norm(_difference_product(base, op, E), scale, seed=seed, guess=guess)


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
    # the basis vectors are the rows of a buffer that doubles when full, so
    # a step neither copies nor conjugates the basis: Q^H w = conj(Q conj(w))
    basis = np.empty((min(n, 64), n), dtype=complex)
    basis[0] = v
    alpha, beta = [], []
    while True:
        w = gram(v)
        alpha.append(float(np.real(np.vdot(v, w))))
        k = len(alpha)
        Q = basis[:k]
        for _ in range(2):
            w -= Q.T @ np.conj(Q @ np.conj(w))
        b = float(np.linalg.norm(w))
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
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        basis[k] = v


def sobolev_operator_norm(
    product, scale: SobolevScale, seed: int = 0, guess: np.ndarray | None = None
) -> tuple[float, np.ndarray | None]:
    """H^{1/2} -> H^{-1/2} norm of the complex symmetric boundary map
    ``product`` (f -> Delta f) and its top Ritz vector: the largest singular
    value of T = ``_whitened(product)`` by ``_largest_singular_value``, with
    T^H v = conj(T conj(v)).  The iteration starts from ``guess`` (a top Ritz
    vector of a nearby map, such as the previous amplitude of a sweep) plus
    a small random part drawn with ``seed``, or from that part alone."""
    apply = _whitened(product, scale)
    return _largest_singular_value(
        lambda v: np.conj(apply(np.conj(apply(v)))),
        len(scale.eigenvalues), rtol=LANCZOS_RTOL, seed=seed, guess=guess,
    )


def symmetry_residual(product, n: int) -> float:
    """max |g^T Delta f - f^T Delta g| over four pairs (f, g) of random
    complex unit vectors of length ``n``, drawn with seed 0: the bilinear
    asymmetry of the boundary map ``product``, from one product of 8 columns."""
    rng = np.random.default_rng(0)
    F = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    F /= np.linalg.norm(F, axis=0)
    Z = product(F)
    return float(np.abs(np.sum(F[:, 4:] * Z[:, :4] - F[:, :4] * Z[:, 4:], axis=0)).max())
