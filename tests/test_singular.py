import math

import numpy as np
import pytest

from otlab.errors import SingularityError
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium
from otlab.singular import (
    BranchCutWarning,
    SingularityPoint,
    SingularSolutionSpec,
    leading_term,
    principal_branch_power,
)
from otlab.solver import apply_operator, assemble

from oracles import (
    bracket_grid_minimum,
    gradient_lower_bracket,
    leading_term_gradient,
    leading_term_isotropic,
    truncated_laplace_kernel,
    um_via_induction,
)

# frozen principal-branch values (40-digit evaluation)
SQRT_I = 0.7071067811865475 + 0.7071067811865475j
INV_SQRT_2_MINUS_I = 0.6508508260346444 + 0.1536450381560660j
INV_SQRT_3X_2_MINUS_I = 0.3757688996133922 + 0.0887070041390550j


def random_admissible_point(rng, n=3, z=None):
    mu_a = rng.uniform(0.6, 1.6)
    mu_s = rng.uniform(0.6, 1.6)
    k = rng.uniform(0.2, 3.0)
    W = rng.normal(size=(n, n))
    B = W + W.T
    B *= 0.2 / max(np.abs(np.linalg.eigvalsh(B)).max(), 1e-12)
    if z is None:
        z = rng.normal(size=n)
    return SingularityPoint.from_coefficients(z, mu_a, mu_s, B, k, n)


class TestPrincipalBranch:
    def test_positive_real(self):
        assert principal_branch_power(4.0, 0.5) == pytest.approx(2.0)

    def test_sqrt_of_i(self):
        assert principal_branch_power(1j, 0.5) == pytest.approx(SQRT_I, abs=1e-14)

    def test_inverse_sqrt_in_lower_half_plane(self):
        val = principal_branch_power(2.0 - 1.0j, -0.5)
        assert val == pytest.approx(INV_SQRT_2_MINUS_I, abs=1e-14)
        assert val.imag > 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            principal_branch_power(0.0, 0.5)

    def test_cut_proximity_warns(self):
        with pytest.warns(BranchCutWarning):
            principal_branch_power(-1.0 + 1e-12j, 0.5)

    def test_reciprocal_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = complex(rng.normal(), rng.normal())
            if abs(w) < 1e-3 or abs(np.angle(w)) > math.pi - 1e-6:
                continue
            e = rng.uniform(-2, 2)
            prod = principal_branch_power(w, e) * principal_branch_power(w, -e)
            assert prod == pytest.approx(1.0, rel=1e-12)


class TestFundamentalSolution:
    def test_isotropic_unit_distance(self):
        c = 3.0 * (2.0 - 1.0j)
        at = SingularityPoint(np.zeros(3), c * np.eye(3))
        val = leading_term(SingularSolutionSpec(0, at), np.array([1.0, 0.0, 0.0]))
        assert val == pytest.approx(INV_SQRT_3X_2_MINUS_I, abs=1e-14)

    def test_homogeneity_degree(self):
        rng = np.random.default_rng(1)
        at = random_admissible_point(rng)
        d = rng.normal(size=3)
        spec = SingularSolutionSpec(0, at)
        ratio = leading_term(spec, at.z + 2 * d) / leading_term(spec, at.z + d)
        assert ratio == pytest.approx(2.0 ** (2 - 3), rel=1e-12)

    def test_singularity_error(self):
        at = random_admissible_point(np.random.default_rng(2))
        with pytest.raises(SingularityError):
            leading_term(SingularSolutionSpec(0, at), at.z)


class TestLeadingTerm:
    def test_order_zero_reduces_to_fundamental_solution(self):
        rng = np.random.default_rng(3)
        at = random_admissible_point(rng)
        spec = SingularSolutionSpec(0, at)
        x = at.z + rng.normal(size=3)
        v = x - at.z
        # the fundamental solution (K^{-1}(z) v . v)^{(2-n)/2}, n = 3
        expected = principal_branch_power(v @ at.K_inv @ v, -0.5)
        assert leading_term(spec, x) == pytest.approx(expected, rel=1e-14)

    def test_order_one_isotropic_hand_derivative(self):
        # d/dy_n (c (x-y).(x-y))^{-1/2} at y = z equals c^{-1/2} v_n |v|^{-3}
        c = 3.0 * (2.0 - 1.0j)
        at = SingularityPoint(np.zeros(3), c * np.eye(3))
        spec = SingularSolutionSpec(1, at)
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=3)
            expected = principal_branch_power(c, -0.5) * v[2] / np.linalg.norm(v) ** 3
            assert leading_term(spec, v) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for m in (0, 1, 2, 3, 4):
            at = random_admissible_point(rng)
            spec = SingularSolutionSpec(m, at)
            for _ in range(20):
                d = rng.normal(size=3)
                ratio = leading_term(spec, at.z + 2 * d) / leading_term(spec, at.z + d)
                assert ratio == pytest.approx(2.0 ** (2 - 3 - m), rel=1e-10)

    def test_vectorized_evaluation(self):
        rng = np.random.default_rng(6)
        at = random_admissible_point(rng)
        spec = SingularSolutionSpec(2, at)
        xs = at.z + rng.normal(size=(7, 3))
        batch = leading_term(spec, xs)
        for xi, vi in zip(xs, batch):
            assert vi == pytest.approx(leading_term(spec, xi), rel=1e-13)

    def test_conjugating_the_tensor_conjugates_the_solution(self):
        # flipping the sign of the wave number conjugates K^{-1}(z); the
        # polynomial coefficients are real, so u_m conjugates with it
        rng = np.random.default_rng(60)
        for m in (0, 1, 3):
            at = random_admissible_point(rng)
            mirrored = SingularityPoint(at.z, np.conj(at.K_inv))
            x = at.z + rng.normal(size=3)
            a = leading_term(SingularSolutionSpec(m, at), x)
            b = leading_term(SingularSolutionSpec(m, mirrored), x)
            assert b == pytest.approx(np.conj(a), rel=1e-12)


class TestInductionOracle:
    def test_order_zero(self):
        rng = np.random.default_rng(7)
        at = random_admissible_point(rng)
        spec = SingularSolutionSpec(0, at)
        x = at.z + rng.normal(size=3)
        assert um_via_induction(spec, x) == pytest.approx(leading_term(spec, x), rel=1e-13)

    def test_order_one_matches_hand_derivative(self):
        c = 3.0 * (2.0 - 1.0j)
        at = SingularityPoint(np.zeros(3), c * np.eye(3))
        spec = SingularSolutionSpec(1, at)
        v = np.array([0.3, -0.7, 0.9])
        expected = principal_branch_power(c, -0.5) * v[2] / np.linalg.norm(v) ** 3
        assert um_via_induction(spec, v) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_agreement_over_random_tensors(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(50):
            at = random_admissible_point(rng)
            m = int(rng.integers(2, 6))
            spec = SingularSolutionSpec(m, at)
            x = at.z + rng.normal(size=3) * rng.uniform(0.5, 2.0)
            a = leading_term(spec, x)
            b = um_via_induction(spec, x)
            worst = max(worst, abs(a - b) / abs(a))
        assert worst <= 1e-9

    def test_cost_cap(self):
        at = random_admissible_point(np.random.default_rng(9))
        with pytest.raises(ValueError):
            um_via_induction(SingularSolutionSpec(9, at), at.z + 1.0)


class TestIsotropicForm:
    def test_order_zero_unit_distance(self):
        # mu_a + mu_s - ik = 2 - i at unit distance
        at = SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, 1.0, 3)
        spec = SingularSolutionSpec(0, at)
        val = leading_term_isotropic(spec, np.array([0.0, 1.0, 0.0]))
        assert val == pytest.approx(INV_SQRT_2_MINUS_I, abs=1e-13)

    def test_axis_argument_hits_endpoints(self):
        at = SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, 1.0, 3)
        for m in range(5):
            spec = SingularSolutionSpec(m, at)
            up = leading_term_isotropic(spec, np.array([0.0, 0.0, 0.7]))
            down = leading_term_isotropic(spec, np.array([0.0, 0.0, -0.7]))
            assert abs(up) > 0 and abs(down) > 0

    def test_constant_ratio_to_anisotropic_form(self):
        at = SingularityPoint.from_coefficients(np.zeros(3), 1.1, 0.9, None, 0.8, 3)
        rng = np.random.default_rng(10)
        for m in (0, 1, 3):
            spec = SingularSolutionSpec(m, at)
            ratios = []
            for _ in range(100):
                x = rng.normal(size=3)
                ratios.append(leading_term_isotropic(spec, x) / leading_term(spec, x))
            ratios = np.asarray(ratios)
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
            # constant conventions differ by exactly n^{(n-2)/2}
            assert ratios[0] == pytest.approx(3.0 ** 0.5, rel=1e-10)

    def test_rejects_anisotropic_tensor(self):
        rng = np.random.default_rng(11)
        at = random_admissible_point(rng)
        with pytest.raises(ValueError):
            leading_term_isotropic(SingularSolutionSpec(1, at), at.z + 1.0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        delta = 1e-6
        for m in (0, 1, 2, 4):
            at = random_admissible_point(rng)
            spec = SingularSolutionSpec(m, at)
            x = at.z + rng.normal(size=3)
            grad = leading_term_gradient(spec, x)
            for d in range(3):
                step = np.zeros(3)
                step[d] = delta
                fd = (leading_term(spec, x + step) - leading_term(spec, x - step)) / (2 * delta)
                assert grad[d] == pytest.approx(fd, rel=2e-6, abs=1e-9 * abs(fd))

    def test_gradient_lower_bound_from_bracket(self):
        # |grad u_m| >= |const| sqrt(min bracket) |x-z|^{1-(n+m)} on the
        # isotropic family
        rng = np.random.default_rng(13)
        at = SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, 1.0, 3)
        c = at.last_entry / 3.0
        for m in (0, 1, 2, 5):
            spec = SingularSolutionSpec(m, at)
            const = abs(math.factorial(m) * principal_branch_power(c, (2 - 3) / 2.0))
            floor = const * math.sqrt(bracket_grid_minimum(m, 3))
            xs = rng.normal(size=(1000, 3))
            r = np.linalg.norm(xs, axis=1)
            # isotropic convention: rescale the anisotropic gradient by the
            # constant ratio between the two forms
            grads = leading_term_gradient(spec, xs) * 3.0 ** 0.5
            mags = np.linalg.norm(np.abs(grads), axis=1)
            assert np.all(mags >= floor * r ** (1 - 3 - m) * (1 - 1e-9))


class TestBracket:
    def test_order_zero_is_constant(self):
        for n in (3, 4, 5):
            vals = gradient_lower_bracket(0, n, np.linspace(-1, 1, 7))
            np.testing.assert_allclose(vals, (2 - n) ** 2, rtol=1e-14)

    def test_order_one_midpoint(self):
        assert gradient_lower_bracket(1, 3, 0.0) == pytest.approx(1.0)

    def test_grid_minimum_positive(self):
        for n in (3, 4, 5):
            for m in range(9):
                assert bracket_grid_minimum(m, n) > 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            gradient_lower_bracket(1, 3, 1.5)


class TestFrozenOperatorResidual:
    def test_leading_terms_in_frozen_kernel(self):
        # constant-coefficient operator without reaction annihilates u_m up
        # to the scheme's truncation order
        a = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=1.0, alpha=0.2)
        z = np.array([0.95, 0.2, 0.1])
        at = SingularityPoint.from_coefficients(z, 1.0, 1.0, None, 1.0, 3)
        for m in (0, 1, 3):
            spec = SingularSolutionSpec(m, at)
            residuals, hs = [], []
            for mesh in (9, 13, 17):
                grid = GridDomain(extent=1.0, m_per_axis=mesh)
                med = OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")
                op = assemble(med, grid, include_reaction=False)
                vals = leading_term(spec, grid.points)
                res = np.abs(apply_operator(op, vals))
                # measure at probe points common to every grid (multiples of
                # 1/4), otherwise the maximizer drifts with h and corrupts
                # the observed order
                pts = grid.points[op.interior_idx]
                probes = np.all(np.abs(pts * 4 - np.round(pts * 4)) < 1e-12, axis=1)
                residuals.append(res[probes].max())
                hs.append(grid.h)
            order = np.polyfit(np.log(hs), np.log(residuals), 1)[0]
            assert order >= 1.8


class TestLeadingTermAsBoundaryData:
    def test_dirichlet_solve_recovers_the_analytic_solution(self):
        # constant coefficients, reaction off: u_m solves the equation, so
        # the discrete solution with its trace converges at second order
        a = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=1.0, alpha=0.2)
        z = np.array([1.1, 0.3, -0.2])
        at = SingularityPoint.from_coefficients(z, 1.0, 1.0, None, 1.0, 3)
        spec = SingularSolutionSpec(1, at)
        errors, hs = [], []
        for mesh in (9, 13, 17):
            grid = GridDomain(extent=1.0, m_per_axis=mesh)
            med = OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")
            op = assemble(med, grid, include_reaction=False)
            exact = leading_term(spec, grid.points)
            from otlab.solver import solve_dirichlet

            sol = solve_dirichlet(op, exact[op.boundary_idx])
            errors.append(np.abs(sol.values - exact)[op.interior_idx].max())
            hs.append(grid.h)
        order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert order >= 1.7


class TestTruncatedKernel:
    def test_order_minus_one_is_plain_newtonian(self):
        x, y = np.array([0.5, 0.2, -0.1]), np.array([0.1, -0.3, 0.4])
        val = truncated_laplace_kernel(x, y, -1)
        expected = -1.0 / (4 * math.pi * np.linalg.norm(x - y))
        assert val == pytest.approx(expected, rel=1e-14)

    def test_pole_at_origin_cancels_exactly(self):
        x = np.array([0.3, 0.4, 0.5])
        for nu in (0, 1, 3):
            assert truncated_laplace_kernel(x, np.zeros(3), nu) == pytest.approx(0.0, abs=1e-18)

    def test_tail_bound(self):
        rng = np.random.default_rng(14)
        for nu in (0, 1, 2):
            for _ in range(50):
                x = rng.normal(size=3)
                x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
                y = rng.normal(size=3)
                y *= rng.uniform(0.05, 0.5) * np.linalg.norm(x) / np.linalg.norm(y)
                t = np.linalg.norm(y) / np.linalg.norm(x)
                bound = (
                    t ** (nu + 1)
                    / (4 * math.pi * np.linalg.norm(x) * (1.0 - t))
                )
                assert abs(truncated_laplace_kernel(x, y, nu)) <= bound * (1 + 1e-10)

    def test_definition_matches_tail_series(self):
        # two independent evaluation routes of the same kernel: the direct
        # definition and the tabulated tail series of the potential quadrature
        from otlab.singular import _sphere_constant, _zonal_series

        rng = np.random.default_rng(15)
        x = np.array([0.8, -0.1, 0.4])
        ys = rng.normal(size=(40, 3))
        ys *= (rng.uniform(0.02, 0.45, size=40) * np.linalg.norm(x))[:, None] / np.linalg.norm(
            ys, axis=1
        )[:, None]
        ry = np.linalg.norm(ys, axis=1)
        for nu in (-1, 0, 2):
            direct = truncated_laplace_kernel(x, ys, nu)
            # radii x directions table; point i pairs radius i with direction i
            rx = np.linalg.norm(x)
            tail = _zonal_series((ys / ry[:, None]) @ (x / rx), range(nu + 1, nu + 201))
            series = -_sphere_constant(3) / rx * np.diag(tail(ry / rx))
            np.testing.assert_allclose(direct, series, rtol=1e-12, atol=1e-16)

    def test_harmonic_in_x_away_from_origin(self):
        y = np.array([0.05, 0.1, -0.02])
        x0 = np.array([0.6, 0.3, -0.2])
        h = 1e-3
        for nu in (0, 2):
            lap = 0.0
            for d in range(3):
                step = np.zeros(3)
                step[d] = h
                lap += (
                    truncated_laplace_kernel(x0 + step, y, nu)
                    - 2 * truncated_laplace_kernel(x0, y, nu)
                    + truncated_laplace_kernel(x0 - step, y, nu)
                ) / h**2
            assert abs(lap) <= 1e-5

    def test_singularity_and_validation(self):
        x = np.array([0.5, 0.0, 0.0])
        with pytest.raises(SingularityError):
            truncated_laplace_kernel(x, x, 0)
        with pytest.raises(ValueError):
            truncated_laplace_kernel(x, np.zeros(3), -2)
