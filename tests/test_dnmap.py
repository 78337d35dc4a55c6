import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import otlab.solver

from otlab.dnmap import (
    DNOperator,
    SobolevScale,
    SymmetryBlock,
    LANCZOS_RTOL,
    _difference,
    _difference_product,
    _dn_product,
    _largest_singular_value,
    _whitened,
    assemble_dn,
    difference_norm,
    sobolev_operator_norm,
    symmetry_bases,
    symmetry_residual,
)
from otlab.errors import ResidualError
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium
from otlab.solver import assemble
from otlab.stability import PerturbationSpec

from oracles import alessandrini_residual, dense_operator_norm, dense_whitened


def apriori(**kw):
    base = dict(n=3, p=4.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.2)
    base.update(kw)
    return AprioriData(**base)


def medium_on(grid, mu_a="1", mu_s="1"):
    return OpticalMedium.from_expressions(grid, apriori(), mu_a=mu_a, mu_s=mu_s)


def matrix_norm(delta, scale):
    """``sobolev_operator_norm`` of the product of a complex symmetric matrix."""
    return sobolev_operator_norm(lambda f: delta @ f, scale)[0]


def sobolev_norm(scale, f, order):
    """H^{order} norm of boundary data from its coefficients c in the
    M_b-orthonormal eigenbasis: sqrt(sum (1 + lambda)^order |c|^2)."""
    c = scale.eigenvectors.T @ (scale.mass * np.asarray(f))
    return float(np.sqrt(np.sum((1.0 + scale.eigenvalues) ** order * np.abs(c) ** 2)))


@pytest.fixture(scope="module")
def grid9():
    return GridDomain(extent=1.0, m_per_axis=9)


@pytest.fixture(scope="module")
def scale9(grid9):
    return SobolevScale.build(grid9)


@pytest.fixture(scope="module")
def dn9(grid9):
    return assemble_dn(medium_on(grid9), grid9)


class TestAssembly:
    def test_deterministic_bitwise(self, grid9, dn9):
        again = assemble_dn(medium_on(grid9), grid9)
        assert np.array_equal(dn9.matrix, again.matrix)
        assert dn9.medium_fingerprint == again.medium_fingerprint

    def test_bilinear_symmetry(self, grid9, dn9):
        gap = np.abs(dn9.matrix - dn9.matrix.T).max()
        assert gap <= 1e-9 * np.abs(dn9.matrix).max()
        # the probe pairs of `otlab dn`, through the Schur product and the matrix
        nb = len(dn9.boundary_idx)
        schur = _dn_product(assemble(medium_on(grid9), grid9))
        for product in (schur, lambda f: dn9.matrix @ f):
            assert symmetry_residual(product, nb) <= 1e-12
        skewed = dn9.matrix + np.triu(dn9.matrix, 1)
        assert symmetry_residual(lambda f: skewed @ f, nb) > 1e-3

    def test_save_load_roundtrip(self, dn9, tmp_path):
        path = tmp_path / "dn.npz"
        dn9.save(path)
        back = DNOperator.load(path)
        assert np.array_equal(back.matrix, dn9.matrix)
        assert back.medium_fingerprint == dn9.medium_fingerprint

    def test_foreign_factor_fails_the_residual_check(self, grid9):
        # an LU of another medium solves the wrong system; the D-N column
        # solves must reject it instead of returning its answer
        op = assemble(medium_on(grid9), grid9)
        other = assemble(medium_on(grid9, mu_a="1.4", mu_s="0.8"), grid9)
        op._cache["lu"] = other.factorization()
        with pytest.raises(ResidualError, match=r"D-N column block 0\.\.63"):
            assemble_dn(medium_on(grid9), grid9, operator=op)

    def test_energy_identity(self, grid9, dn9):
        # Re(f^H S f) equals the K_R-weighted gradient energy plus the
        # mu_a-weighted mass of the discrete solution, accumulated
        # independently of the assembled matrix
        from otlab.medium import split_real_imag
        from otlab.solver import solve_dirichlet

        med = medium_on(grid9)
        op = assemble(med, grid9)
        tensor = split_real_imag(med)
        m, h = grid9.m_per_axis, grid9.h
        midx = grid9.multi_index()
        on_border = (midx == 0) | (midx == m - 1)
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = rng.normal(size=len(dn9.boundary_idx)) + 1j * rng.normal(
                size=len(dn9.boundary_idx)
            )
            lhs = np.real(np.conj(f) @ (dn9.matrix @ f))
            u = solve_dirichlet(op, f).values
            rhs = np.sum(grid9.volume_weights * med.mu_a * np.abs(u) ** 2)
            for d in range(3):
                p = np.flatnonzero(midx[:, d] < m - 1)
                q = p + grid9.strides[d]
                transverse = [e for e in range(3) if e != d]
                w_t = 0.5 ** on_border[p][:, transverse].sum(axis=1)
                coef = 0.5 * (tensor.K_R[p, d, d] + tensor.K_R[q, d, d]) * h * w_t
                rhs += np.sum(coef * np.abs(u[q] - u[p]) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_pairing_matches_analytic_energy_for_harmonic_data(self):
        # constant coefficients and no reaction: u = 1/|x - z| (z outside)
        # solves the equation exactly, so the discrete pairing against the
        # trace of x1 must approach kappa * surface integral of u nu_1
        z = np.array([1.2, 0.3, 0.9])
        kappa = (2.0 + 1.0j) / 15.0
        a = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=1.0, alpha=0.2)

        # independent oracle: Gauss-Legendre surface quadrature of u nu_1
        glx, glw = np.polynomial.legendre.leggauss(48)
        glx, glw = glx / 2.0, glw / 2.0  # map to [-1/2, 1/2]
        surf = 0.0
        for axis in range(3):
            for side, nu1 in ((0, -1.0), (1, 1.0)):
                if axis != 0:
                    nu1 = 0.0
                if nu1 == 0.0:
                    continue
                Y, X2 = np.meshgrid(glx, glx, indexing="ij")
                pts = np.zeros((glx.size**2, 3))
                pts[:, axis] = -0.5 if side == 0 else 0.5
                others = [d for d in range(3) if d != axis]
                pts[:, others[0]] = Y.ravel()
                pts[:, others[1]] = X2.ravel()
                w2 = np.outer(glw, glw).ravel()
                vals = 1.0 / np.linalg.norm(pts - z, axis=1)
                surf += nu1 * np.sum(w2 * vals)
        exact = kappa * surf

        errors = []
        for m in (9, 13):
            grid = GridDomain(extent=1.0, m_per_axis=m)
            med = OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")
            op = assemble(med, grid, include_reaction=False)
            dn = assemble_dn(med, grid, operator=op)
            f = 1.0 / np.linalg.norm(grid.points[dn.boundary_idx] - z, axis=1)
            g = grid.points[dn.boundary_idx, 0]
            errors.append(abs(g.astype(complex) @ (dn.matrix @ f.astype(complex)) - exact))
        order = np.log(errors[0] / errors[1]) / np.log((13 - 1) / (9 - 1))
        assert order >= 1.5


class TestSobolevScale:
    def test_stiffness_kernel_is_constants(self, scale9):
        ones = np.ones(len(scale9.boundary_idx))
        assert np.abs(scale9.stiffness @ ones).max() <= 1e-12
        assert scale9.eigenvalues[0] <= 1e-10

    def test_total_mass_is_surface_area(self, scale9, grid9):
        assert scale9.mass.sum() == pytest.approx(6.0 * grid9.extent**2, rel=1e-12)

    @pytest.mark.parametrize("m, extent", [(9, 1.0), (11, 0.7), (9, 3.3)])
    def test_boundary_mass_by_faces(self, m, extent):
        # the face-wise trapezoid weights summed over the faces through a
        # node: h^2 on faces and cube edges, 3/4 h^2 at the corners
        grid = GridDomain(extent=extent, m_per_axis=m)
        scale = SobolevScale.build(grid)
        faces = grid.rim[grid.boundary_indices].sum(axis=1)
        h2 = grid.h * grid.h
        assert np.all(scale.mass[faces <= 2] == h2)
        assert np.all(scale.mass[faces == 3] == 0.75 * h2)
        assert (np.bincount(faces)[1:] == [6 * (m - 2) ** 2, 12 * (m - 2), 8]).all()

    def test_constant_norm_is_total_weight(self, scale9):
        c = 2.5 - 1.0j
        f = np.full(len(scale9.boundary_idx), c)
        expected = scale9.mass.sum() * abs(c) ** 2
        assert sobolev_norm(scale9, f, 0.5) ** 2 == pytest.approx(expected, rel=1e-10)

    def test_cauchy_schwarz_sandwich(self, scale9):
        rng = np.random.default_rng(3)
        nb = len(scale9.boundary_idx)
        for _ in range(100):
            phi = rng.normal(size=nb)
            f = rng.normal(size=nb)
            lhs = abs(np.sum(scale9.mass * phi * np.conj(f)))  # the L^2 duality pairing
            bound = sobolev_norm(scale9, phi, -0.5) * sobolev_norm(scale9, f, 0.5)
            assert lhs <= bound * (1 + 1e-12)

    def test_matches_the_generalized_eigenproblem(self, grid9, scale9, dn9):
        # the basis comes from the symmetric M^{-1/2} S M^{-1/2}; the
        # generalized problem S v = lambda M v is the reference
        lam, V = scipy.linalg.eigh(scale9.stiffness.toarray(), np.diag(scale9.mass))
        lam = np.maximum(lam, 0.0)
        np.testing.assert_allclose(scale9.eigenvalues, lam, rtol=1e-12, atol=1e-12 * lam.max())
        W = scale9.eigenvectors
        gram = W.T @ (scale9.mass[:, None] * W)
        assert np.abs(gram - np.eye(len(lam))).max() <= 1e-12
        # the reference scale is one block holding the generalized basis
        nb = len(lam)
        whole = SymmetryBlock(sp.identity(nb, format="csr"), V, np.arange(nb))
        reference = dataclasses.replace(scale9, eigenvalues=lam, blocks=(whole,))
        other = assemble_dn(medium_on(grid9, mu_a="1 + 0.15*cos(x2)"), grid9)
        delta = other.matrix - dn9.matrix
        assert matrix_norm(delta, scale9) == pytest.approx(matrix_norm(delta, reference), rel=1e-12)


def boundary_reflections(grid: GridDomain) -> np.ndarray:
    """Row a maps boundary position j (in ``grid.boundary_indices`` order) to
    the position of its mirror image under i_a -> m-1-i_a, shape (3, Nb)."""
    b_idx = grid.boundary_indices
    shape = (grid.m_per_axis,) * 3
    pos = np.empty(grid.num_points, dtype=int)
    pos[b_idx] = np.arange(len(b_idx))
    ijk = np.array(np.unravel_index(b_idx, shape))
    out = np.empty((3, len(b_idx)), dtype=int)
    for axis in range(3):
        image = ijk.copy()
        image[axis] = grid.m_per_axis - 1 - image[axis]
        out[axis] = pos[np.ravel_multi_index(image, shape)]
    return out


@pytest.fixture(scope="module", params=[9, 17], ids=["m9", "m17"])
def dense_oracle(request):
    """A scale and the dense generalized eigenpairs of S_b v = lambda M_b v."""
    scale = SobolevScale.build(GridDomain(extent=1.0, m_per_axis=request.param))
    lam, V = scipy.linalg.eigh(scale.stiffness.toarray(), np.diag(scale.mass))
    return scale, np.maximum(lam, 0.0), V


class TestSymmetryBlocks:
    """The Z_2^3 block eigenbasis against the dense generalized eigh."""

    def test_operators_are_invariant_under_each_reflection(self, dense_oracle):
        scale, _, _ = dense_oracle
        nb = len(scale.boundary_idx)
        for image in boundary_reflections(scale.grid):
            assert np.array_equal(image[image], np.arange(nb))
            assert not np.array_equal(image, np.arange(nb))
            assert np.array_equal(scale.mass[image], scale.mass)
            assert (scale.stiffness[image][:, image] != scale.stiffness).nnz == 0

    def test_bases_are_orthonormal_and_symmetry_adapted(self, dense_oracle):
        scale, _, _ = dense_oracle
        bases = symmetry_bases(scale.grid)
        reflections = boundary_reflections(scale.grid)
        for chi, Q in zip(np.ndindex(2, 2, 2), bases):
            for axis, image in enumerate(reflections):
                assert abs(Q[image] - (-1) ** chi[axis] * Q).max() == 0.0
        Q = sp.hstack(bases).tocsc()
        nb = len(scale.boundary_idx)
        assert Q.shape == (nb, nb)
        assert Q.getnnz(axis=0).max() <= 8
        assert np.abs((Q.T @ Q).toarray() - np.eye(nb)).max() <= 1e-15

    def test_block_sizes_sum_to_nb(self, dense_oracle):
        scale, _, _ = dense_oracle
        nb = len(scale.boundary_idx)
        assert len(scale.blocks) == 8
        assert sum(block.basis.shape[1] for block in scale.blocks) == nb
        positions = np.concatenate([block.positions for block in scale.blocks])
        assert np.array_equal(np.sort(positions), np.arange(nb))

    def test_eigenvalues_match_the_dense_problem(self, dense_oracle):
        scale, lam, _ = dense_oracle
        assert np.all(np.diff(scale.eigenvalues) >= 0.0)
        assert np.abs(scale.eigenvalues - lam).max() <= 1e-12 * lam.max()

    def test_eigenvectors_are_mass_orthonormal(self, dense_oracle):
        scale, _, _ = dense_oracle
        V = scale.eigenvectors
        gram = V.T @ (scale.mass[:, None] * V)
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12

    def test_fractional_kernel_matches_the_dense_problem(self, dense_oracle):
        # K_s = V (I+D)^{-1/2} V^T does not depend on the basis chosen inside
        # a degenerate eigenspace
        scale, lam, V = dense_oracle
        W = scale.eigenvectors
        K = (W * (1.0 + scale.eigenvalues) ** -0.5) @ W.T
        reference = (V * (1.0 + lam) ** -0.5) @ V.T
        assert np.abs(K - reference).max() <= 1e-12 * np.abs(reference).max()


class TestOperatorNorm:
    def test_zero_difference(self, scale9):
        nb = len(scale9.boundary_idx)
        assert sobolev_operator_norm(lambda f: np.zeros(nb, dtype=complex), scale9) == (0.0, None)

    def test_homogeneity(self, grid9, scale9, dn9):
        other = assemble_dn(medium_on(grid9, mu_a="1 + 0.1*sin(2*x1)"), grid9)
        delta = other.matrix - dn9.matrix
        base = matrix_norm(delta, scale9)
        for c in (2.0, -3.5, 1.0 + 2.0j, 0.3j):
            assert matrix_norm(c * delta, scale9) == pytest.approx(
                abs(c) * base, rel=1e-6
            )

    def test_whitening_matches_the_complex_product(self, scale9):
        # the block-wise whitening, column by column, and the dense oracle's
        # real products against one complex product with the dense basis
        rng = np.random.default_rng(5)
        nb = len(scale9.boundary_idx)
        delta = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
        w = (1.0 + scale9.eigenvalues) ** -0.25
        V = scale9.eigenvectors
        reference = (w[:, None] * (V.T @ delta @ V)) * w[None, :]
        apply = _whitened(lambda f: delta @ f, scale9)
        blockwise = np.column_stack([apply(x) for x in np.eye(nb, dtype=complex)])
        for whitened in (blockwise, dense_whitened(delta, scale9)):
            gap = np.linalg.norm(whitened - reference) / np.linalg.norm(reference)
            assert gap <= 1e-13

    def test_matches_dense_svd(self, grid9, scale9, dn9):
        other = assemble_dn(medium_on(grid9, mu_a="1 + 0.15*cos(x2)"), grid9)
        delta = other.matrix - dn9.matrix
        lanczos = matrix_norm(delta, scale9)
        assert lanczos == pytest.approx(dense_operator_norm(delta, scale9), rel=1e-6)

    def test_frechet_probe_slope_one(self, grid9, scale9, dn9):
        base = medium_on(grid9)
        psi = np.cos(2 * grid9.points[:, 0]) * np.exp(-grid9.points[:, 1])
        eps = np.array([0.04, 0.02, 0.01, 0.005])
        norms = []
        for e in eps:
            med = base.with_absorption(base.mu_a + e * 0.5 * psi)
            dn = assemble_dn(med, grid9)
            norms.append(matrix_norm(dn.matrix - dn9.matrix, scale9))
        slope = np.polyfit(np.log(eps), np.log(norms), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)


def gram_of(singular_values, seed=0):
    """G = T^H T for a complex T = U diag(sigma) W^H with random unitary U, W,
    and a counter of its products."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)

    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q

    T = unitary() @ np.diag(singular_values) @ unitary().conj().T
    G = T.conj().T @ T
    calls = []

    def gram(v):
        calls.append(len(calls))
        return G @ v

    return T, gram, calls


class TestLargestSingularValue:
    """Lanczos on T^H T against dense SVDs of small T of known spectrum."""

    def test_near_degenerate_top_pair(self):
        sigma = np.concatenate([[1.0, 0.999], np.linspace(0.9, 0.01, 58)])
        T, gram, _ = gram_of(sigma)
        value, _ = _largest_singular_value(gram, len(sigma), rtol=LANCZOS_RTOL, seed=0)
        dense = np.linalg.svd(T, compute_uv=False)[0]
        assert value == pytest.approx(dense, rel=1e-12)

    def test_repeated_top_singular_value_terminates(self):
        sigma = np.concatenate([[2.0, 2.0, 2.0], np.linspace(1.9, 0.1, 37)])
        T, gram, calls = gram_of(sigma, seed=1)
        value, _ = _largest_singular_value(gram, len(sigma), rtol=LANCZOS_RTOL, seed=3)
        assert value == pytest.approx(2.0, rel=1e-12)
        assert len(calls) <= len(sigma)

    def test_rank_one(self):
        sigma = np.zeros(30)
        sigma[0] = 0.7
        _, gram, calls = gram_of(sigma, seed=2)
        value, _ = _largest_singular_value(gram, len(sigma), rtol=LANCZOS_RTOL, seed=4)
        assert value == pytest.approx(0.7, rel=1e-12)
        assert len(calls) <= 3

    def test_zero_operator(self):
        calls = []

        def gram(v):
            calls.append(len(calls))
            return np.zeros_like(v)

        assert _largest_singular_value(gram, 12, rtol=LANCZOS_RTOL, seed=0) == (0.0, None)
        assert len(calls) == 1

    @pytest.mark.parametrize("second", [0.999, 0.9, 0.5])
    def test_guess_on_the_second_singular_vector(self, second):
        # a start on the second eigenvector of T^H T alone breaks down at the
        # first step and returns sigma_2; the seeded part of the start keeps
        # the top eigenvector in the Krylov space
        sigma = np.concatenate([[1.0, second], np.linspace(0.9 * second, 0.01, 58)])
        T, gram, _ = gram_of(sigma, seed=5)
        _, _, vh = np.linalg.svd(T)
        value, y = _largest_singular_value(
            gram, len(sigma), rtol=LANCZOS_RTOL, seed=0, guess=vh[1].conj()
        )
        assert value == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.vdot(vh[0].conj(), y)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_operator_returns_the_guess(self):
        guess = np.full(12, 12**-0.5, dtype=complex)
        value, y = _largest_singular_value(
            lambda v: np.zeros_like(v), 12, rtol=LANCZOS_RTOL, seed=0, guess=guess
        )
        assert value == 0.0 and y is guess


class TestAlessandrini:
    def test_identical_media_residual_vanishes(self, grid9):
        med = medium_on(grid9)
        nb = len(grid9.boundary_indices)
        rng = np.random.default_rng(6)
        f = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        g = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        assert alessandrini_residual(med, med, f, g) <= 1e-9

    def test_residual_shrinks_under_refinement(self):
        residuals = []
        for m in (9, 13):
            grid = GridDomain(extent=1.0, m_per_axis=m)
            med1 = medium_on(grid)
            med2 = OpticalMedium.from_expressions(
                grid, apriori(), mu_a="1 + 0.2*sin(2*x1)*cos(x2)", mu_s="1"
            )
            pts = grid.points[grid.boundary_indices]
            f = np.exp(pts[:, 0]) * np.cos(pts[:, 1])
            g = pts[:, 2] ** 2 + 0.5
            residuals.append(
                alessandrini_residual(med1, med2, f.astype(complex), g.astype(complex))
            )
        assert residuals[1] < residuals[0]


def interior_anisotropic_B(grid):
    """A constant anisotropic B tapered to zero on the boundary layer."""
    B0 = np.array([[0.1, 0.05, -0.04], [0.05, -0.05, 0.03], [-0.04, 0.03, 0.0]])
    taper = np.prod(np.cos(np.pi * grid.points), axis=1) * grid.interior_mask
    return B0[None] * taper[:, None, None]


def dense_difference(base, op2):
    """H1^T E H2 = S2 - S1 from dense solves with the two interior blocks."""
    def extension(op):
        A_II, A_IB = op._interior_blocks()
        return np.vstack([-np.linalg.solve(A_II.toarray(), A_IB.toarray()),
                          np.eye(A_IB.shape[1])])

    order = np.concatenate([base.interior_idx, base.boundary_idx])
    E = (op2.matrix - base.matrix)[order][:, order].toarray()
    return extension(base).T @ E @ extension(op2)


def medium_with_B(grid, anisotropic):
    B = interior_anisotropic_B(grid) if anisotropic else None
    return OpticalMedium.from_expressions(grid, apriori(), mu_a="1", mu_s="1", B=B)


class TestPatchGreen:
    """The discrete Alessandrini identity S2 - S1 = H1^T E H2, applied as the
    whitened product of difference_norm."""

    @pytest.mark.parametrize("anisotropic", [False, True])
    def test_matches_subtraction_of_assembled_maps(self, grid9, scale9, anisotropic):
        med = medium_with_B(grid9, anisotropic)
        assert med.admissibility_violations() == []
        med2 = PerturbationSpec(med, profile_order=0).perturbed(0.2)
        base, op2 = assemble(med, grid9), assemble(med2, grid9)
        E = _difference(base, op2)
        # the cross terms widen E's rows beyond the 7-point stencil
        assert (E.getnnz(axis=1).max() > 7) == anisotropic
        apply = _whitened(_difference_product(base, op2, E), scale9)
        columns = np.eye(len(scale9.boundary_idx), dtype=complex)
        T = np.column_stack([apply(x) for x in columns])
        reference = dense_whitened(
            assemble_dn(med2, grid9).matrix - assemble_dn(med, grid9).matrix, scale9
        )
        gap = np.linalg.norm(T - reference) / np.linalg.norm(reference)
        assert gap <= 1e-12


class TestPatchOperatorNorm:
    """difference_norm of a boundary patch perturbation against dense SVDs of
    the whitened Nb x Nb difference."""

    @pytest.fixture(scope="class", params=[False, True], ids=["isotropic", "anisotropic"])
    def route9(self, request, grid9):
        spec = PerturbationSpec(medium_with_B(grid9, request.param), profile_order=0)
        return spec, assemble(spec.base, grid9)

    def test_matches_dense_svd_of_subtracted_maps(self, grid9, scale9, route9):
        spec, base = route9
        med2 = spec.perturbed(0.2)
        op2 = assemble(med2, grid9)
        delta = assemble_dn(med2, grid9).matrix - assemble_dn(spec.base, grid9).matrix
        dense = dense_operator_norm(delta, scale9)
        assert difference_norm(base, op2, scale9)[0] == pytest.approx(dense, rel=1e-12)

    def test_small_amplitude_matches_dense_svd_of_the_factors(self, grid9, scale9, route9):
        # at eps = 2e-8 subtracting two assembled maps leaves ~1e-8 relative
        # accuracy, so the reference whitens H1^T E H2 from dense solves
        spec, base = route9
        op2 = assemble(spec.perturbed(2e-8), grid9)
        dense = dense_operator_norm(dense_difference(base, op2), scale9)
        assert difference_norm(base, op2, scale9)[0] == pytest.approx(dense, rel=1e-12)

    def test_patch_larger_than_the_boundary(self, grid9, scale9):
        # a perturbation through the whole cube touches more nodes than the
        # boundary holds; the product form does not depend on its support
        spec = PerturbationSpec(medium_with_B(grid9, False), profile_order=0,
                                width=0.45, depth=1.0)
        base = assemble(spec.base, grid9)
        op2 = assemble(spec.perturbed(0.1), grid9)
        rows, cols = (op2.matrix - base.matrix).nonzero()
        assert len(np.union1d(rows, cols)) > len(scale9.boundary_idx)
        dense = dense_operator_norm(dense_difference(base, op2), scale9)
        assert difference_norm(base, op2, scale9)[0] == pytest.approx(dense, rel=1e-12)

    def test_lanczos_matches_dense_svd(self, grid9, scale9, route9):
        spec, base = route9
        op2 = assemble(spec.perturbed(0.1), grid9)
        dense = dense_operator_norm(dense_difference(base, op2), scale9)
        assert difference_norm(base, op2, scale9)[0] == pytest.approx(dense, rel=1e-12)

    def test_equal_operators_factor_nothing(self, grid9, scale9, monkeypatch):
        def no_factor(self):
            raise AssertionError("an operator was factored")

        monkeypatch.setattr(otlab.solver.DiscreteOperator, "factorization", no_factor)
        med = medium_on(grid9)
        assert difference_norm(assemble(med, grid9), assemble(med, grid9), scale9) == (0.0, None)
        guess = np.ones(len(scale9.boundary_idx), dtype=complex)
        same = difference_norm(assemble(med, grid9), assemble(med, grid9), scale9, guess=guess)
        assert same[0] == 0.0 and same[1] is guess

    @pytest.mark.parametrize("which", ["base", "perturbed"])
    @pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-6], ids=["doubled", "corrupted"])
    def test_foreign_factor_fails_the_residual_check(self, grid9, scale9, which, factor):
        # an LU of c A_II in place of A_II solves the wrong system; the
        # extension solves must reject it instead of returning its answer
        spec = PerturbationSpec(medium_on(grid9), profile_order=0)
        ops = {"base": assemble(spec.base, grid9),
               "perturbed": assemble(spec.perturbed(0.2), grid9)}
        op = ops[which]
        scaled = dataclasses.replace(op, matrix=factor * op.matrix, _cache={})
        op._cache["lu"] = scaled.factorization()
        with pytest.raises(ResidualError, match=f"{which} extension solve: residual"):
            difference_norm(ops["base"], ops["perturbed"], scale9)
