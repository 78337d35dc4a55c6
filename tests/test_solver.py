import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import otlab.solver
from otlab.errors import EllipticityError, MemoryBudgetError, ResidualError
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium, split_real_imag
from otlab.solver import ComplexField, DiscreteOperator, apply_operator, assemble, solve_dirichlet

from oracles import coo_energy_matrix, csr_sine_model, sliced_blocks


def apriori(**kw):
    base = dict(n=3, p=4.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.2)
    base.update(kw)
    return AprioriData(**base)


# from_expressions arguments of two non-constant media, one with cross terms
VARIABLE_MEDIA = {
    "variable": dict(mu_a="1 + 0.2*x1", mu_s="1 - 0.2*x2"),
    "anisotropic": dict(
        mu_a="1 + 0.1*sin(x1 + x2)",
        mu_s="1",
        B=np.array([[0.1, 0.05, -0.04], [0.05, -0.05, 0.03], [-0.04, 0.03, 0.0]]),
        supp_B_interior=False,
    ),
}


def constant_medium(grid, k=1.0):
    a = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=k, alpha=0.2)
    return OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")


def real_block(op):
    """The real block form [[Re A_II, -Im A_II], [Im A_II, Re A_II]] of the
    interior system, shape (2 Ni, 2 Ni): the 2n x 2n energy form of u_R, u_I."""
    re, im = op.A_II.real, op.A_II.imag
    return sp.bmat([[re, -im], [im, re]], format="csc")


def manufactured(points):
    """u* = exp(x1 + x2) (1 + i cos x3) and its Laplacian."""
    e = np.exp(points[:, 0] + points[:, 1])
    u = e * (1.0 + 1j * np.cos(points[:, 2]))
    lap = e * (2.0 + 1j * np.cos(points[:, 2]))
    return u, lap


def mms_error(m_per_axis, k=1.0):
    grid = GridDomain(extent=1.0, m_per_axis=m_per_axis)
    med = constant_medium(grid, k=k)
    op = assemble(med, grid)
    kappa = (2.0 + 1.0j) / 15.0 if k == 1.0 else None
    assert kappa is not None
    u_exact, lap = manufactured(grid.points)
    q = 1.0 - 1j * k
    f = -kappa * lap + q * u_exact
    sol = solve_dirichlet(op, u_exact, f)
    err = np.abs(sol.values - u_exact)[grid.interior_indices]
    return grid.h, float(err.max())


class TestBasicSolves:
    def test_zero_data_gives_zero(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        op = assemble(constant_medium(grid), grid)
        sol = solve_dirichlet(op, np.zeros(grid.num_points))
        assert np.all(sol.values == 0)

    def test_manufactured_solution_convergence(self):
        hs, errs = [], []
        for m in (9, 13, 17):
            h, e = mms_error(m)
            hs.append(h)
            errs.append(e)
        assert np.all(np.diff(errs) < 0)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_variable_coefficient_convergence(self):
        k = 0.12
        errs, hs = [], []
        for m in (9, 13, 17):
            grid = GridDomain(extent=1.0, m_per_axis=m)
            med = OpticalMedium.from_expressions(
                grid, apriori(), mu_a="1 + 0.2*sin(x1)", mu_s="1"
            )
            op = assemble(med, grid)
            pts = grid.points
            u_exact, lap = manufactured(pts)
            c = med.mu_a + 1.0 - 1j * k
            kappa = 1.0 / (3.0 * c)
            dkappa = -0.2 * np.cos(pts[:, 0]) / (3.0 * c**2)
            du0 = u_exact  # d/dx1 of exp(x1+x2)(...) equals the function itself
            f = -kappa * lap - dkappa * du0 + (med.mu_a - 1j * k) * u_exact
            sol = solve_dirichlet(op, u_exact, f)
            errs.append(np.abs(sol.values - u_exact)[grid.interior_indices].max())
            hs.append(grid.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestOperatorStructure:
    def test_constant_coefficient_stencil_is_seven_point(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = constant_medium(grid)
        op = assemble(med, grid, include_reaction=False)
        kappa = (2.0 + 1.0j) / 15.0
        center = grid.num_points // 2  # odd m: exact center node
        row = op.matrix[center].toarray().ravel()
        assert row[center] == pytest.approx(6 * kappa * grid.h, rel=1e-14)
        for stride in grid.strides:
            assert row[center + stride] == pytest.approx(-kappa * grid.h, rel=1e-14)
            assert row[center - stride] == pytest.approx(-kappa * grid.h, rel=1e-14)
        assert np.count_nonzero(row) == 7

    def test_assembled_matrix_is_complex_symmetric(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(
            grid,
            apriori(),
            mu_a="1 + 0.1*sin(x1 + x2)",
            mu_s="1 + 0.1*x3",
        )
        op = assemble(med, grid)
        gap = np.abs((op.matrix - op.matrix.T).toarray()).max()
        assert gap <= 1e-15

    def test_real_block_structure(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        op = assemble(constant_medium(grid), grid)
        ni = op.interior_count
        block = real_block(op).toarray()
        P, Q = block[:ni, :ni], block[ni:, :ni]
        np.testing.assert_allclose(P, P.T, atol=1e-15)
        np.testing.assert_allclose(Q, Q.T, atol=1e-15)
        np.testing.assert_allclose(block[:ni, ni:], -Q, atol=1e-15)
        np.testing.assert_allclose(block[ni:, ni:], P, atol=1e-15)

    def test_row_sums_vanish_without_reaction(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        op = assemble(constant_medium(grid), grid, include_reaction=False)
        res = apply_operator(op, np.ones(grid.num_points, dtype=complex))
        assert np.abs(res).max() <= 1e-12

    def test_quadratic_form_positivity_with_reaction(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        op = assemble(constant_medium(grid), grid)
        block = real_block(op)
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rng.normal(size=block.shape[0])
            assert v @ (block @ v) > 0

    def test_discrete_form_satisfies_the_coefficient_sandwich(self):
        # the form with the true coefficients, divided by the same form with
        # unit coefficients, stays inside the strong-ellipticity constants
        from otlab.medium import verify_ellipticity

        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(
            grid, apriori(), mu_a="1 + 0.2*sin(3*x1)", mu_s="1 - 0.1*x2"
        )
        op = assemble(med, grid)
        c2 = verify_ellipticity(split_real_imag(med), med.apriori).strong_ellipticity_constant

        unit = OpticalMedium.from_expressions(
            grid,
            AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=med.apriori.k, alpha=0.2),
            mu_a="1",
            mu_s="1",
        )
        # reference form: unit diffusion tensor and unit reaction
        ref_rows, ref_cols, ref_vals = [], [], []
        m, h = grid.m_per_axis, grid.h
        midx = grid.multi_index
        for d in range(3):
            p = np.flatnonzero(midx[:, d] < m - 1)
            q = p + grid.strides[d]
            ref_rows += [p, q, p, q]
            ref_cols += [p, q, q, p]
            ref_vals += [np.full(len(p), h), np.full(len(p), h), -np.full(len(p), h), -np.full(len(p), h)]
        ref = sp.coo_matrix(
            (np.concatenate(ref_vals), (np.concatenate(ref_rows), np.concatenate(ref_cols))),
            shape=(grid.num_points, grid.num_points),
        ).tocsr()
        ref = ref + sp.diags(grid.volume_weights)

        rng = np.random.default_rng(4)
        ii = op.interior_idx
        block = real_block(op)
        ref_ii = ref[ii][:, ii]
        for _ in range(100):
            v1 = rng.normal(size=len(ii))
            v2 = rng.normal(size=len(ii))
            energy = np.concatenate([v1, v2]) @ (block @ np.concatenate([v1, v2]))
            ref_energy = v1 @ (ref_ii @ v1) + v2 @ (ref_ii @ v2)
            ratio = energy / ref_energy
            assert 1.0 / c2 <= ratio <= c2


class TestStencilOracle:
    """The diagonal-by-diagonal stencil of ``assemble`` against the COO
    triplet build of ``tests/oracles.py``: the same sparsity pattern once the
    triplets' exact zeros are dropped, and the same entries up to the order
    in which the diagonal's terms are summed."""

    @pytest.mark.parametrize(
        "medium, annulus, include_reaction",
        [("variable", False, True), ("anisotropic", False, True),
         ("anisotropic", True, True), ("variable", False, False)],
        ids=["variable", "cross-terms", "annulus", "no-reaction"],
    )
    def test_matches_the_triplet_build(self, medium, annulus, include_reaction):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(grid, apriori(), **VARIABLE_MEDIA[medium])
        mask = grid.annulus_interior_mask(np.zeros(3), 0.15, 0.45) if annulus else None
        op = assemble(med, grid, include_reaction=include_reaction, interior_mask=mask)
        ref = coo_energy_matrix(grid, split_real_imag(med), include_reaction)
        ref.eliminate_zeros()
        ref.sort_indices()
        tol = 1e-15 * np.abs(ref.data).max()
        ii, bb = op.interior_idx, op.boundary_idx
        blocks = [(op.matrix, ref), (op.A_II, ref[ii][:, ii]), (op.A_IB, ref[ii][:, bb]),
                  (op.A_BI, ref[bb][:, ii]), (op.A_BB, ref[bb][:, bb])]
        for found, expected in blocks:
            found, expected = found.tocsr(), expected.tocsr()
            found.sort_indices()
            expected.sort_indices()
            assert np.array_equal(found.indptr, expected.indptr)
            assert np.array_equal(found.indices, expected.indices)
            assert np.abs(found.data - expected.data).max() <= tol
        # every row of the anisotropic medium reaches its 12 cross-term offsets
        assert (np.diff(op.matrix.indptr).max() == 19) == (medium == "anisotropic")


class TestDiagonalPartition:
    """The blocks and the sine model read from the stencil's diagonals
    against the full CSR's slices, diagonals and row sums: the same bits."""

    @pytest.mark.parametrize("annulus", [False, True], ids=["strict-interior", "annulus"])
    @pytest.mark.parametrize("m", [9, 17])
    @pytest.mark.parametrize("medium", ["isotropic", "variable", "anisotropic"])
    def test_blocks_and_model_equal_the_csr_route(self, medium, m, annulus):
        grid = GridDomain(extent=1.0, m_per_axis=m)
        spec = VARIABLE_MEDIA.get(medium, dict(mu_a="1", mu_s="1"))
        med = OpticalMedium.from_expressions(grid, apriori(), **spec)
        mask = grid.annulus_interior_mask(np.zeros(3), 0.15, 0.45) if annulus else None
        op = assemble(med, grid, interior_mask=mask)
        found = [op.A_II, op.A_IB, op.A_BI, op.A_BB]
        for block, expected in zip(found, sliced_blocks(op)):
            assert block.format == expected.format
            for part in ("indptr", "indices", "data"):
                assert getattr(block, part).tobytes() == getattr(expected, part).tobytes()
        if not annulus:
            D, a, b = op._partition[2]
            D_ref, a_ref, b_ref = csr_sine_model(op)
            assert D.tobytes() == D_ref.tobytes()
            assert np.array(a + [b]).tobytes() == np.array(a_ref + [b_ref]).tobytes()

    def test_strict_interior_solve_builds_no_full_matrix(self, monkeypatch):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(grid, apriori(), **VARIABLE_MEDIA["anisotropic"])
        shapes, real = [], sp.dia_matrix.tocsr

        def recording(self, *args, **kwargs):
            shapes.append(self.shape)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(sp.dia_matrix, "tocsr", recording)
        op = assemble(med, grid)
        solve_dirichlet(op, np.cos(grid.points[:, 0]), np.ones(grid.num_points))
        assert shapes == [(7**3, 7**3)]
        assert "matrix" not in vars(op)
        # the full matrix is still there for its readers, built on first read
        assert op.matrix.shape == (grid.num_points, grid.num_points)
        assert shapes[-1] == (grid.num_points, grid.num_points)

    def test_an_operator_given_its_matrix_takes_its_diagonals_from_it(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(grid, apriori(), **VARIABLE_MEDIA["anisotropic"])
        op = assemble(med, grid)
        given = DiscreteOperator(grid, op.matrix, op.interior_idx, op.boundary_idx)
        for found, expected in ((given.A_II, op.A_II), (given.A_IB, op.A_IB)):
            assert (found != expected).nnz == 0
        rng = np.random.default_rng(3)
        r = rng.normal(size=op.interior_count) + 1j * rng.normal(size=op.interior_count)
        assert given.preconditioner(r).tobytes() == op.preconditioner(r).tobytes()


class TestComplexFactor:
    @pytest.mark.parametrize(
        "annulus, include_reaction",
        [(False, True), (True, True), (False, False), (True, False)],
        ids=["False", "True", "False-no-reaction", "True-no-reaction"],
    )
    def test_matches_dense_solve_with_cross_terms(self, annulus, include_reaction):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(grid, apriori(), **VARIABLE_MEDIA["anisotropic"])
        mask = grid.annulus_interior_mask(np.zeros(3), 0.15, 0.45) if annulus else None
        op = assemble(med, grid, include_reaction=include_reaction, interior_mask=mask)
        ii, bb = op.interior_idx, op.boundary_idx
        A = op.matrix.toarray()
        assert np.count_nonzero(A[ii[len(ii) // 2]]) > 7  # cross terms present
        rng = np.random.default_rng(11)
        g = rng.normal(size=len(bb)) + 1j * rng.normal(size=len(bb))
        f = rng.normal(size=len(ii)) + 1j * rng.normal(size=len(ii))
        sol = solve_dirichlet(op, g, f)
        rhs = f * grid.volume_weights[ii] - A[np.ix_(ii, bb)] @ g
        dense = np.linalg.solve(A[np.ix_(ii, ii)], rhs)
        gap = np.linalg.norm(sol.values[ii] - dense) / np.linalg.norm(dense)
        assert gap <= 1e-12
        assert np.array_equal(sol.values[bb], g)


class TestApplyOperator:
    def test_solution_reproduces_source(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = constant_medium(grid)
        op = assemble(med, grid)
        rng = np.random.default_rng(8)
        f = rng.normal(size=grid.num_points) + 1j * rng.normal(size=grid.num_points)
        g = rng.normal(size=len(op.boundary_idx)) + 1j * rng.normal(size=len(op.boundary_idx))
        sol = solve_dirichlet(op, g, f)
        res = apply_operator(op, sol)
        gap = np.abs(res - f[op.interior_idx]).max() / np.abs(f).max()
        assert gap <= 1e-9

    def test_linearity(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        op = assemble(constant_medium(grid), grid)
        rng = np.random.default_rng(9)
        u = rng.normal(size=grid.num_points) + 1j * rng.normal(size=grid.num_points)
        v = rng.normal(size=grid.num_points) + 1j * rng.normal(size=grid.num_points)
        a, b = 1.3 - 0.5j, -0.2 + 2.0j
        lhs = apply_operator(op, a * u + b * v)
        rhs = a * apply_operator(op, u) + b * apply_operator(op, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


def record_cocg_steps(monkeypatch):
    """The list that every later ``solver._cocg`` call appends its step count to."""
    steps, real = [], otlab.solver._cocg

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        steps.append(result[1])
        return result

    monkeypatch.setattr(otlab.solver, "_cocg", recording)
    return steps


class TestSinePreconditioner:
    @pytest.mark.parametrize("include_reaction", [True, False], ids=["reaction", "no-reaction"])
    def test_is_the_dense_inverse_of_the_constant_coefficient_model(self, include_reaction):
        # M = D^{1/2} M^ D^{1/2}, D = diag(A_II), built densely from its
        # definition: M^ = sum_d a_d L_d + b I fitted to A^ = D^{-1/2} A_II
        # D^{-1/2}, a_d minus the mean coupling of A^ along axis d, b the mean
        # over the unknowns of the full matrix's row sum divided by D
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = OpticalMedium.from_expressions(grid, apriori(), **VARIABLE_MEDIA["anisotropic"])
        op = assemble(med, grid, include_reaction=include_reaction)
        ii, n = op.interior_idx, grid.m_per_axis - 2
        A = op.matrix.toarray()
        D = np.diag(A)[ii]
        pos = np.full(grid.num_points, -1)
        pos[ii] = np.arange(len(ii))
        scaled = A[np.ix_(ii, ii)] / np.sqrt(np.outer(D, D))
        eye = np.eye(n)
        L = 2.0 * eye - np.eye(n, k=1) - np.eye(n, k=-1)
        M_hat = np.zeros((n**3, n**3), dtype=complex)
        for d, stride in enumerate(grid.strides):
            p = ii[grid.interior_mask[ii + stride]]
            a_d = -np.mean(scaled[pos[p], pos[p + stride]])
            factors = [L if e == d else eye for e in range(3)]
            M_hat += a_d * np.kron(np.kron(factors[0], factors[1]), factors[2])
        M_hat += np.mean(A[ii].sum(axis=1) / D) * np.eye(n**3)
        M = np.sqrt(D)[:, None] * M_hat * np.sqrt(D)[None, :]

        apply = otlab.solver._sine_inverse(op)
        M_inv = np.column_stack([apply(column) for column in np.eye(n**3, dtype=complex)])
        scale = np.abs(M_inv).max()
        assert np.abs(M_inv - np.linalg.inv(M)).max() <= 1e-12 * scale
        assert np.abs(M_inv - M_inv.T).max() <= 1e-12 * scale

    @pytest.mark.parametrize("include_reaction", [True, False], ids=["reaction", "no-reaction"])
    @pytest.mark.parametrize("medium", sorted(VARIABLE_MEDIA))
    def test_step_count_does_not_grow_with_the_grid(self, monkeypatch, medium, include_reaction):
        # the reference is the exact solution u* of the discrete system: data
        # g = u* on the surface and f = (A u*) / h^3 on the unknowns
        steps = record_cocg_steps(monkeypatch)
        for m in (17, 25, 33):
            grid = GridDomain(extent=1.0, m_per_axis=m)
            med = OpticalMedium.from_expressions(grid, apriori(), **VARIABLE_MEDIA[medium])
            op = assemble(med, grid, include_reaction=include_reaction)
            exact, _ = manufactured(grid.points)
            sol = solve_dirichlet(op, exact, apply_operator(op, exact))
            gap = np.linalg.norm(sol.values - exact) / np.linalg.norm(exact)
            assert gap <= 1e-10
        assert max(steps) <= 8
        assert all(abs(count - steps[0]) <= 2 for count in steps), steps

    def test_constant_medium_converges_in_one_step(self, monkeypatch):
        steps = record_cocg_steps(monkeypatch)
        grid = GridDomain(extent=1.0, m_per_axis=17)
        op = assemble(constant_medium(grid), grid)
        solve_dirichlet(op, np.cos(grid.points[:, 0]))
        assert steps == [1]

    def test_annulus_keeps_jacobi(self, monkeypatch):
        # a masked unknown set has no sine basis: Jacobi's step count is unchanged
        steps = record_cocg_steps(monkeypatch)
        grid = GridDomain(extent=1.0, m_per_axis=17)
        med = OpticalMedium.from_expressions(grid, apriori(), mu_a="1 + 0.1*sin(x1 + x2)", mu_s="1")
        mask = grid.annulus_interior_mask(np.zeros(3), 0.15, 0.45)
        op = assemble(med, grid, interior_mask=mask)
        solve_dirichlet(op, np.cos(grid.points[op.boundary_idx, 0]))
        assert steps == [57]


class TestCocgBreakdown:
    @pytest.mark.parametrize(
        "coupling, b, product",
        [(0.0, [1.0, 1.0j], "r^T M^-1 r = 0"), (1.0, [1.0, -1.0], "p^T A p = 0")],
        ids=["rho", "pAp"],
    )
    def test_vanishing_bilinear_product_fails_the_residual_check(self, coupling, b, product):
        # A_II = [[1, c], [c, 1]] on two unknowns: b = (1, i) gives b^T b = 0
        # at c = 0, b = (1, -1) gives b^T A b = 0 at c = 1, so COCG's first
        # step would divide by zero; the loop stops and the residual check
        # names the breakdown, with no NaN and no warning on the way
        grid = GridDomain(extent=1.0, m_per_axis=9)
        i, j = interior = grid.interior_indices[:2]
        matrix = sp.identity(grid.num_points, dtype=complex, format="lil")
        matrix[i, j] = matrix[j, i] = coupling
        op = DiscreteOperator(
            grid=grid,
            matrix=matrix.tocsr(),
            interior_idx=interior,
            boundary_idx=np.setdiff1d(np.arange(grid.num_points), interior),
        )
        f = np.array(b) / grid.volume_weights[interior]
        expected = "after 0 COCG iterations; COCG broke down " + re.escape(f"({product})")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResidualError, match=expected):
                solve_dirichlet(op, np.zeros(len(op.boundary_idx)), f)


class TestGuards:
    def test_memory_budget(self):
        grid = GridDomain(extent=1.0, m_per_axis=51)
        med = constant_medium(grid)
        with pytest.raises(MemoryBudgetError):
            assemble(med, grid)

    def test_ellipticity_violation_rejected(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = constant_medium(grid)
        bad = med.mu_a.copy()
        bad[100] = 25.0
        with pytest.raises(EllipticityError):
            assemble(med.with_absorption(bad), grid)

    def test_complex_field_validation(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        with pytest.raises(ValueError):
            ComplexField(grid, np.zeros(5))
        bad = np.zeros(grid.num_points)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            ComplexField(grid, bad)
