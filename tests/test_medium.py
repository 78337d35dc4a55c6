from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab.errors import EllipticityError
from otlab.grid import GridDomain
from otlab.medium import (
    AprioriData,
    OpticalMedium,
    base_matrix,
    is_wave_number_admissible,
    k_admissible_ranges,
    split_real_imag,
    verify_ellipticity,
)
from otlab.singular import SingularityPoint
from otlab.solver import assemble

from oracles import adjugate_diffusion_tensor, direct_diffusion_tensor as diffusion_tensor, sampled_spectra

# frozen from a 40-digit evaluation of the closed forms (k0 = 4 - 2 sqrt(3)
# and k0_tilde = 4 + 2 sqrt(3) exactly for lam = cal_e = 1, n = 3)
K0_N3 = 0.5358983848622454
K0T_N3 = 7.4641016151377546
K0_N4 = 0.3978247347593160
K0T_N4 = 10.0546789842516962


def small_grid():
    return GridDomain(extent=1.0, m_per_axis=9)


def default_apriori(**kw):
    base = dict(n=3, p=4.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.2)
    base.update(kw)
    return AprioriData(**base)


def sampled_point(mu_a, mu_s, B, k):
    """(K_R, K_I) of split_real_imag for a medium holding one sample at every node."""
    med = OpticalMedium.from_expressions(
        small_grid(),
        default_apriori(k=k),
        mu_a=mu_a,
        mu_s=mu_s,
        B=np.zeros((3, 3)) if B is None else B,
        supp_B_interior=False,
    )
    field = split_real_imag(med)
    return field.K.real[0], field.K.imag[0]


def real_block(K_R, K_I):
    """The real 2n x 2n block coefficient [[K_R, -K_I], [K_I, K_R]]."""
    return np.block([[K_R, -K_I], [K_I, K_R]])


def reaction_block(mu_a, k):
    """The real 2 x 2 reaction coefficient [[mu_a, k], [-k, mu_a]]."""
    return np.array([[mu_a, k], [-k, mu_a]])


class TestWaveNumberRanges:
    def test_reference_values_n3(self):
        k0, k0t = k_admissible_ranges(1.0, 1.0, 3)
        assert k0 == pytest.approx(K0_N3, abs=1e-12)
        assert k0t == pytest.approx(K0T_N3, abs=1e-12)

    def test_reference_values_n4(self):
        k0, k0t = k_admissible_ranges(1.0, 1.0, 4)
        assert k0 == pytest.approx(K0_N4, abs=1e-12)
        assert k0t == pytest.approx(K0T_N4, abs=1e-12)

    def test_interval_endpoints_are_admissible(self):
        k0, k0t = k_admissible_ranges(1.0, 1.0, 3)
        assert is_wave_number_admissible(k0, 1.0, 1.0, 3)
        assert is_wave_number_admissible(k0t, 1.0, 1.0, 3)
        assert not is_wave_number_admissible(0.5 * (k0 + k0t), 1.0, 1.0, 3)
        assert not is_wave_number_admissible(0.0, 1.0, 1.0, 3)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            k_admissible_ranges(1.0, 1.0, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        log_lam=st.floats(min_value=0, max_value=3),
        log_e=st.floats(min_value=0, max_value=3),
        n=st.integers(min_value=3, max_value=8),
    )
    def test_gap_between_ranges(self, log_lam, log_e, n):
        # lam, cal_e >= 1 is forced by the two-sided a-priori bounds
        k0, k0t = k_admissible_ranges(10.0**log_lam, 10.0**log_e, n)
        assert 0 < k0 < k0t


class TestDiffusionTensor:
    def test_isotropic_unit_point(self):
        K = diffusion_tensor(1.0, 1.0, None, 1.0)
        expected = (2.0 + 1.0j) / 15.0 * np.eye(3)
        np.testing.assert_allclose(K, expected, atol=1e-15)

    def test_static_case_allowed_for_algebra(self):
        K = diffusion_tensor(1.0, 1.0, None, 0.0)
        np.testing.assert_allclose(K, np.eye(3) / 6.0, atol=1e-15)

    def test_anisotropic_static_point(self):
        B = np.diag([0.5, 0.0, 0.0])
        K = diffusion_tensor(1.0, 2.0, B, 0.0)
        np.testing.assert_allclose(K, np.diag([1 / 6, 1 / 9, 1 / 9]), atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 3))
        B = 0.05 * (W + W.T)
        K = diffusion_tensor(1.2, 0.9, B, 2.0)
        np.testing.assert_allclose(K, K.T, atol=1e-15)

    def test_singular_base_matrix_reported(self):
        # mu_a = -mu_s with B = 0 makes M vanish, so K_R = 0 at every node;
        # assembly reports the degenerate tensor instead of solving with it
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a="-1", mu_s="1")
        assert not base_matrix(med.mu_a, med.mu_s, med.B).any()
        with pytest.raises(EllipticityError, match="K_R lower bound"):
            assemble(med, grid)


class TestRealImagSplit:
    def test_isotropic_point_closed_forms(self):
        K_R, K_I = sampled_point(1.0, 1.0, None, 1.0)
        np.testing.assert_allclose(K_R, 2.0 / 15.0 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(K_I, 1.0 / 15.0 * np.eye(3), atol=1e-15)

    def test_imaginary_part_structure_at_any_k(self):
        # K_I * n / k equals (M^2 + k^2 I)^{-1} identically
        mu_a, mu_s, k, n = 0.8, 1.3, 50.0, 3
        B = np.diag([0.2, -0.1, 0.0])
        _, K_I = sampled_point(mu_a, mu_s, B, k)
        M = mu_a * np.eye(n) + (np.eye(n) - B) * mu_s
        expected = np.linalg.inv(M @ M + k * k * np.eye(n))
        np.testing.assert_allclose(K_I * n / k, expected, rtol=1e-13)

    def test_inverse_closed_forms(self):
        grid = small_grid()
        med = OpticalMedium.from_expressions(
            grid, default_apriori(), mu_a="1 + 0.1*x1", mu_s="1 - 0.1*x2"
        )
        a = med.apriori
        field = split_real_imag(med)
        K_inv = np.linalg.inv(field.K)
        eye = np.eye(3)
        M = med.mu_a[:, None, None] * eye + (eye[None] - med.B) * med.mu_s[:, None, None]
        np.testing.assert_allclose(K_inv.real, a.n * M, rtol=1e-12)
        np.testing.assert_allclose(
            K_inv.imag, -a.n * a.k * np.broadcast_to(eye, K_inv.shape), rtol=1e-12, atol=1e-12
        )


def random_anisotropic_medium(seed, k):
    """An m=9 medium with random absorption, scattering and symmetric B at every node."""
    grid = small_grid()
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(grid.num_points, 3, 3))
    return OpticalMedium.from_expressions(
        grid,
        default_apriori(k=k),
        mu_a=rng.uniform(0.7, 1.4, grid.num_points),
        mu_s=rng.uniform(0.7, 1.4, grid.num_points),
        B=0.15 * (W + W.transpose(0, 2, 1)),
        supp_B_interior=False,
    )


def mixed_support_medium(seed, k):
    """``random_anisotropic_medium`` with B cut to the ball of radius 0.3 about
    the centre (57 of the 729 nodes) and exactly zero outside it."""
    med = random_anisotropic_medium(seed, k)
    bump = np.maximum(0.09 - (med.grid.points**2).sum(axis=1), 0.0) / 0.09
    return replace(med, B=med.B * bump[:, None, None])


# (k, medium) pairs; the random medium's cases keep the bare k as their id
MEDIA_AND_K = [pytest.param(k, medium, id=f"{prefix}{k}")
               for prefix, medium in (("", random_anisotropic_medium), ("mixed-", mixed_support_medium))
               for k in (1e-3, 0.12, 1.0, 50.0)]


class TestClosedForms:
    """The adjugate inverse of ``split_real_imag`` and the eigenvalue map of
    ``verify_ellipticity`` against numpy's inverse and eigen-solver."""

    @staticmethod
    def relative_gap(found, expected):
        scale = np.abs(expected).max(axis=(1, 2))
        return (np.abs(found - expected).max(axis=(1, 2)) / scale).max()

    @pytest.mark.parametrize("k, medium", MEDIA_AND_K)
    def test_tensor_matches_the_direct_inverse(self, k, medium):
        med = medium(7, k)
        field = split_real_imag(med)
        expected = diffusion_tensor(med.mu_a, med.mu_s, med.B, k)
        assert self.relative_gap(field.K, expected) <= 1e-14
        assert self.relative_gap(field.K.real, expected.real) <= 1e-14
        assert self.relative_gap(field.K.imag, expected.imag) <= 1e-14

    @pytest.mark.parametrize("k", [1e-3, 0.12, 50.0])
    @pytest.mark.parametrize("kind", ["mixed", "isotropic"])
    def test_tensor_equals_the_whole_grid_adjugate(self, kind, k):
        # kappa I where B is zero is the adjugate's own value there; the
        # isotropic grid has 27^3 nodes, past the size at which numpy starts
        # to reuse temporaries, which can change how a product rounds
        if kind == "mixed":
            med = mixed_support_medium(5, k)
        else:
            med = OpticalMedium.from_expressions(
                GridDomain(extent=1.0, m_per_axis=27), default_apriori(k=k),
                mu_a="1 + 0.2*sin(3*x1)", mu_s="1.1 - 0.1*x2",
            )
        assert np.array_equal(split_real_imag(med).K, adjugate_diffusion_tensor(med))

    @pytest.mark.parametrize("k, medium", MEDIA_AND_K)
    def test_audit_spectra_match_eigvalsh(self, k, medium):
        med = medium(8, k)
        field = split_real_imag(med)
        report = verify_ellipticity(field, med.apriori)
        min_R, min_I, norm_sq = sampled_spectra(field)
        np.testing.assert_allclose(report.min_eig_K_R, min_R, rtol=0, atol=1e-14 * np.abs(min_R).max())
        np.testing.assert_allclose(report.min_eig_K_I, min_I, rtol=0, atol=1e-14 * np.abs(min_I).max())
        np.testing.assert_allclose(report.norm_sq_sum, norm_sq, rtol=1e-14)

    def test_only_a_3x3_tensor_is_split(self):
        apriori = AprioriData(n=4, p=5.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.1)
        med = OpticalMedium.from_expressions(small_grid(), apriori, mu_a="1", mu_s="1")
        with pytest.raises(ValueError, match="must be 3 x 3"):
            split_real_imag(med)

    def test_only_a_symmetric_B_is_split(self):
        # the adjugate reads one triangle of M, so an asymmetric B would be
        # split as a symmetric one it is not
        grid = small_grid()
        B = np.zeros((grid.num_points, 3, 3))
        B[:, 0, 1] = 0.1 * grid.points[:, 0] * grid.points[:, 1]
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a="1", mu_s="1", B=B)
        assert med.b_asymmetry() > 1e-12
        with pytest.raises(ValueError, match=r"B must be symmetric, got max \|B - B\^T\| = 2\.500e-02"):
            split_real_imag(med)
        B[:, 1, 0] = B[:, 0, 1]
        split_real_imag(OpticalMedium.from_expressions(grid, default_apriori(), mu_a="1", mu_s="1", B=B))

    def test_the_medium_keeps_its_own_copy_of_raw_arrays(self):
        # a medium that passed its checks cannot change through the caller's arrays
        grid = small_grid()
        mu_a = np.ones(grid.num_points)
        mu_s = np.ones(grid.num_points)
        B = np.zeros((grid.num_points, 3, 3))
        med = OpticalMedium.from_expressions(
            grid, default_apriori(), mu_a=mu_a, mu_s=mu_s, B=B, supp_B_interior=False
        )
        fingerprint = med.fingerprint()
        assert med.admissibility_violations() == []
        mu_a[:] = 100.0
        mu_s[3] = -1.0
        B[:, 0, 1] = 0.9
        np.testing.assert_array_equal(med.B, 0.0)
        np.testing.assert_array_equal(med.mu_a, 1.0)
        np.testing.assert_array_equal(med.mu_s, 1.0)
        assert med.admissibility_violations() == []
        assert med.fingerprint() == fingerprint

    def test_a_perturbed_medium_keeps_its_own_absorption(self):
        grid = small_grid()
        mu_a = np.ones(grid.num_points)
        med = OpticalMedium.from_expressions(grid, default_apriori()).with_absorption(mu_a)
        fingerprint = med.fingerprint()
        mu_a[:] = 100.0
        np.testing.assert_array_equal(med.mu_a, 1.0)
        assert med.admissibility_violations() == []
        assert med.fingerprint() == fingerprint

    def test_asymmetry_on_a_few_rows_is_found(self):
        # B is zero on all but three nodes, where B01 != B10
        grid = small_grid()
        B = np.zeros((grid.num_points, 3, 3))
        B[[100, 364, 500], 0, 1] = [0.1, -0.2, 0.05]
        med = OpticalMedium.from_expressions(grid, default_apriori(), B=B)
        with pytest.raises(ValueError, match=r"B must be symmetric, got max \|B - B\^T\| = 2\.000e-01"):
            split_real_imag(med)
        assert med.admissibility_violations() == ["B not symmetric (max asymmetry 2.000e-01)"]

    def test_eigenvalues_of_M_stay_ascending_where_mu_s_is_negative(self):
        # mu_s < 0 reverses the order of mu_a + mu_s eig(I - B)
        med = mixed_support_medium(4, 0.12)
        med = replace(med, mu_s=-med.mu_s)
        eig_M = split_real_imag(med).eig_M
        assert np.all(np.diff(eig_M, axis=1) >= 0)
        expected = np.linalg.eigvalsh(base_matrix(med.mu_a, med.mu_s, med.B))
        np.testing.assert_allclose(eig_M, expected, rtol=0, atol=1e-14 * np.abs(expected).max())

    def test_tensor_and_eigenvalues_are_coefficient_major(self):
        # K and eig_M are views of arrays that hold one row per coefficient:
        # the audit reads eig_M's rows with no copy, the stencil K's entries
        med = mixed_support_medium(3, 0.12)
        field = split_real_imag(med)
        N = med.grid.num_points
        for view, shape in ((field.K, (3, 3, N)), (field.eig_M, (3, N))):
            assert view.base is not None and view.base.shape == shape
            assert view.base.flags.c_contiguous
            assert np.array_equal(np.moveaxis(view.base, -1, 0), view)

    def test_eigen_solves_run_on_the_anisotropic_rows_only(self, monkeypatch):
        # eig(M) = mu_a + mu_s eig(I - B) is mu_a + mu_s where B = 0: the
        # tensor pass and the audit each solve on the 57 nodes of the bump
        med = mixed_support_medium(3, 0.12)
        eigvalsh, solved = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        split_real_imag(med)
        med.admissibility_violations()
        assert solved == [57, 57]


class TestAuditColumns:
    """``verify_ellipticity`` picks its extremes from the three ascending
    columns of eig_M elementwise; the fields equal the reductions along
    axis 1 of the (N, 3) eigenvalue arrays bitwise."""

    def test_fields_equal_the_row_reductions(self):
        # k lies between the smallest and largest eigenvalue of M, where
        # m -> m / (n (m^2 + k^2)) peaks, so at many nodes the largest
        # eigenvalue of K_R comes from the middle column
        med = random_anisotropic_medium(9, 1.9)
        mu_a = med.mu_a.copy()
        mu_a[40] = 3.0
        med = med.with_absorption(mu_a)
        field = split_real_imag(med)
        a = med.apriori
        denom = a.n * (field.eig_M**2 + a.k**2)
        eigs_R, eigs_I = field.eig_M / denom, a.k / denom
        assert np.count_nonzero(np.abs(eigs_R).argmax(axis=1) == 1) > 0
        report = verify_ellipticity(field, a)
        assert report.min_eig_K_R.tobytes() == eigs_R.min(axis=1).tobytes()
        assert report.min_eig_K_I.tobytes() == eigs_I.min(axis=1).tobytes()
        norm_sq = np.abs(eigs_R).max(axis=1) ** 2 + eigs_I.max(axis=1) ** 2
        assert report.norm_sq_sum.tobytes() == norm_sq.tobytes()
        at_40 = {v[1]: v[2] for v in report.violations if v[0] == 40}
        assert at_40["K_R lower bound"] == eigs_R[40].min()
        assert at_40["reaction upper bound"] == 3.0


class TestOneFormula:
    """split_real_imag (assembly) and SingularityPoint.from_coefficients
    (``otlab singular``) both start from base_matrix; their tensors must be
    inverse to each other at every node."""

    @pytest.fixture(scope="class")
    def anisotropic(self):
        grid = small_grid()
        B = [
            ["0.1*x1", "0.05*x2*x3", "0.02"],
            ["0.05*x2*x3", "-0.08*cos(x2)", "0.03*x1"],
            ["0.02", "0.03*x1", "0.06*sin(2*x3)"],
        ]
        return OpticalMedium.from_expressions(
            grid,
            default_apriori(),
            mu_a="1 + 0.2*sin(3*x1)*cos(x2)",
            mu_s="1 + 0.1*x3",
            B=B,
            supp_B_interior=False,
        )

    def test_frozen_inverse_inverts_the_sampled_tensor(self, anisotropic):
        med = anisotropic
        a = med.apriori
        K = split_real_imag(med).K
        assert np.abs(med.B[:, 0, 1]).max() > 0
        worst = 0.0
        for i in range(med.grid.num_points):
            at = SingularityPoint.from_coefficients(
                med.grid.points[i], float(med.mu_a[i]), float(med.mu_s[i]), med.B[i], a.k, a.n
            )
            worst = max(worst, np.abs(at.K_inv @ K[i] - np.eye(a.n)).max())
        assert worst <= 1e-13

    def test_one_sample_equals_the_batched_row(self, anisotropic):
        med = anisotropic
        batched = base_matrix(med.mu_a, med.mu_s, med.B)
        for i in range(med.grid.num_points):
            one = base_matrix(float(med.mu_a[i]), float(med.mu_s[i]), med.B[i])
            assert one.tobytes() == batched[i].tobytes()


class TestEllipticity:
    def test_admissible_medium_has_no_violations(self):
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a="1", mu_s="1")
        report = verify_ellipticity(split_real_imag(med), med.apriori)
        assert report.admissible
        assert med.admissibility_violations() == []

    def test_out_of_bounds_absorption_is_flagged(self):
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a="1", mu_s="1")
        bad = med.mu_a.copy()
        bad[5] = 0.1  # below 1/lam
        med2 = med.with_absorption(bad)
        assert any("mu_a" in v for v in med2.admissibility_violations())
        report = verify_ellipticity(split_real_imag(med2), med2.apriori)
        assert not report.admissible
        assert any(v[0] == 5 and "reaction" in v[1] for v in report.violations)

    def test_I_minus_B_range_counts_the_isotropic_nodes(self):
        # I - B has the eigenvalue 1 wherever B = 0, so a bump whose own
        # eigenvalues lie below 1 reports the range [0.1, 1]; where B is
        # nonzero at every node, 1 is not in the range
        grid = small_grid()
        bump = np.maximum(0.09 - (grid.points**2).sum(axis=1), 0.0) / 0.09
        B = np.zeros((grid.num_points, 3, 3))
        B[:, 0, 0] = 0.9 * bump
        med = OpticalMedium.from_expressions(grid, default_apriori(), B=B)
        assert med.admissibility_violations() == [
            "I - B eigenvalues [0.1, 1] escape [1/cal_e, cal_e] = [0.833333, 1.2]"
        ]
        med = OpticalMedium.from_expressions(grid, default_apriori(), B=0.5 * np.eye(3), supp_B_interior=False)
        assert med.admissibility_violations() == [
            "I - B eigenvalues [0.5, 0.5] escape [1/cal_e, cal_e] = [0.833333, 1.2]"
        ]

    def test_violation_names_the_node_outside_the_tolerance(self):
        # node 3 is below 1/lam by less than the 1e-12 tolerance, so the
        # message must name node 10, the one that violates the bound
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, default_apriori(lam=2.0), mu_a="1", mu_s="1")
        bad = med.mu_a.copy()
        bad[3] = 0.5 - 1e-13
        bad[10] = 0.4
        (message,) = med.with_absorption(bad).admissibility_violations()
        assert message.endswith("at node 10 (value 0.4)")

    def test_lower_bound_is_attained_at_constant_coefficients(self):
        # mu_a = mu_s = lam = cal_e = 1, k = 1: min eig K_R = 2/15 equals the bound
        apriori = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=1.0, alpha=0.2)
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
        report = verify_ellipticity(split_real_imag(med), apriori)
        assert report.lower_bound_K_R == pytest.approx(2.0 / 15.0, rel=1e-14)
        assert report.min_eig_K_R.min() == pytest.approx(2.0 / 15.0, rel=1e-12)
        assert report.admissible

    def test_norm_bound_tight_in_the_isotropic_constant_case(self):
        apriori = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=1.0, alpha=0.2)
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
        report = verify_ellipticity(split_real_imag(med), apriori)
        assert report.norm_sq_sum.max() == pytest.approx(report.upper_bound_norm_sq, rel=1e-12)


class TestRealBlock:
    def test_isotropic_block_pattern(self):
        K_R, K_I = sampled_point(1.0, 1.0, None, 1.0)
        C = real_block(K_R, K_I)
        assert C.shape == (6, 6)
        np.testing.assert_allclose(C[:3, :3], 2 / 15 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(C[:3, 3:], -1 / 15 * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(C[3:, :3], 1 / 15 * np.eye(3), atol=1e-15)

    def test_quadratic_form_only_sees_real_part(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(3, 3))
        B = 0.08 * (W + W.T)
        K_R, K_I = sampled_point(0.9, 1.1, B, 0.7)
        C = real_block(K_R, K_I)
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert e1 @ C @ e1 == pytest.approx(K_R[0, 0], rel=1e-14)
        for _ in range(20):
            xi = rng.normal(size=6)
            expected = xi[:3] @ K_R @ xi[:3] + xi[3:] @ K_R @ xi[3:]
            assert xi @ C @ xi == pytest.approx(expected, rel=1e-13, abs=1e-14)


class TestReactionBlock:
    def test_entries(self):
        np.testing.assert_allclose(reaction_block(1.0, 1.0), [[1, 1], [-1, 1]])

    def test_quadratic_form_is_absorption_times_identity(self):
        q = reaction_block(0.7, 5.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi = rng.normal(size=2)
            assert xi @ q @ xi == pytest.approx(0.7 * xi @ xi, rel=1e-14)

    def test_minimum_at_lower_bound(self):
        lam = 1.5
        q = reaction_block(1 / lam, 3.0)
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(200):
            xi = rng.normal(size=2)
            vals.append((xi @ q @ xi) / (xi @ xi))
        assert min(vals) == pytest.approx(1 / lam, rel=1e-12)


class TestSensitivity:
    def test_isotropic_closed_form(self):
        K = diffusion_tensor(1.0, 1.0, None, 1.0)
        S = -3 * (K @ K)
        np.testing.assert_allclose(S, -(3.0 + 4.0j) / 75.0 * np.eye(3), atol=1e-15)

    def test_matches_central_differences(self):
        delta = 1e-5
        K = diffusion_tensor(1.1, 0.9, None, 2.0)
        S = -3 * (K @ K)
        Kp = diffusion_tensor(1.1 + delta, 0.9, None, 2.0)
        Km = diffusion_tensor(1.1 - delta, 0.9, None, 2.0)
        fd = (Kp - Km) / (2 * delta)
        np.testing.assert_allclose(S, fd, rtol=1e-8)

    def test_static_isotropic_real(self):
        K = diffusion_tensor(1.0, 2.0, None, 0.0)
        S = -3 * (K @ K)
        np.testing.assert_allclose(S, -3.0 / (3.0 * 3.0) ** 2 * np.eye(3), atol=1e-15)
        assert np.max(np.abs(S.imag)) == 0.0

    def test_random_admissible_points(self):
        rng = np.random.default_rng(12)
        delta = 1e-4
        for _ in range(100):
            mu_a = rng.uniform(0.7, 1.4)
            mu_s = rng.uniform(0.7, 1.4)
            k = rng.uniform(0.1, 5.0)
            W = rng.normal(size=(3, 3))
            B = 0.1 * (W + W.T)
            K = diffusion_tensor(mu_a, mu_s, B, k)
            S = -3 * (K @ K)
            fd = (
                diffusion_tensor(mu_a + delta, mu_s, B, k)
                - diffusion_tensor(mu_a - delta, mu_s, B, k)
            ) / (2 * delta)
            assert np.max(np.abs(S - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-30)


class TestAprioriValidation:
    def test_accepts_valid(self):
        default_apriori()

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            default_apriori(alpha=0.5)  # 1 - n/p = 0.25

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            default_apriori(p=2.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_apriori(lam=0.0)


class TestSampledMedium:
    def test_sobolev_estimate_of_constant(self):
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a="1", mu_s="1")
        # |Omega| = 1, so the W^{1,p} estimate of the constant 1 is 1
        assert med.sobolev_norm_estimate("mu_a") == pytest.approx(1.0, rel=1e-12)

    def test_fingerprint_changes_with_field(self):
        grid = small_grid()
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a="1", mu_s="1")
        other = med.with_absorption(med.mu_a + 0.01)
        assert med.fingerprint() != other.fingerprint()
        assert med.fingerprint() == med.fingerprint()

    def test_raw_sample_arrays_accepted(self):
        grid = small_grid()
        rng = np.random.default_rng(20)
        mu_a = 1.0 + 0.1 * rng.uniform(-1, 1, size=grid.num_points)
        med = OpticalMedium.from_expressions(grid, default_apriori(), mu_a=mu_a, mu_s=1.2)
        np.testing.assert_array_equal(med.mu_a, mu_a)
        np.testing.assert_array_equal(med.mu_s, np.full(grid.num_points, 1.2))
        assert med.admissibility_violations() == []
        with pytest.raises(ValueError):
            OpticalMedium.from_expressions(grid, default_apriori(), mu_a=mu_a[:-1])

    def test_constant_anisotropy_matrix_accepted(self):
        grid = small_grid()
        B = np.diag([0.1, -0.05, 0.0])
        med = OpticalMedium.from_expressions(
            grid, default_apriori(), mu_a="1", mu_s="1", B=B, supp_B_interior=False
        )
        np.testing.assert_array_equal(med.B[0], B)
        assert med.admissibility_violations() == []
