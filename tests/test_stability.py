import copy

import numpy as np
import pytest

import otlab.dnmap
from otlab.config import RunConfig
from otlab.dnmap import SobolevScale, difference_norm
from otlab.errors import InadmissibleAmplitudeError, InadmissibleWaveNumberError
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium, split_real_imag
from otlab.solver import assemble
from otlab.stability import (
    PROFILE_SMOOTHNESS,
    PerturbationSpec,
    build_nu_tilde,
    finite_difference_weights,
    holder_exponent,
    normal_derivative_sup,
    run_stability_experiment,
    tensor_derivative_gap,
)

from oracles import tensor_derivative_gap_direct
from test_solver import record_cocg_steps


def apriori(**kw):
    base = dict(n=3, p=4.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.2)
    base.update(kw)
    return AprioriData(**base)


def base_medium(grid, **kw):
    return OpticalMedium.from_expressions(grid, apriori(**kw), mu_a="1", mu_s="1")


def sampled_gap(medium1, medium2, h):
    """tensor_derivative_gap of two media, each tensor sampled here."""
    return tensor_derivative_gap(
        medium1, split_real_imag(medium1).K, medium2, split_real_imag(medium2).K, h
    )


class TestHolderExponent:
    def test_reference_values(self):
        assert holder_exponent(0.37, 0) == pytest.approx(1.0)
        assert holder_exponent(0.5, 1) == pytest.approx(1.0 / 3.0)
        assert holder_exponent(0.5, 2) == pytest.approx(1.0 / 15.0)

    def test_monotone_in_order_and_alpha(self):
        for alpha in (0.1, 0.3, 0.6, 0.9):
            vals = [holder_exponent(alpha, h) for h in range(6)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for h in range(1, 4):  # at h = 0 the exponent is identically 1
            vals = [holder_exponent(a, h) for a in (0.1, 0.3, 0.6, 0.9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            holder_exponent(0.0, 1)
        with pytest.raises(ValueError):
            holder_exponent(0.5, -1)


class TestFiniteDifferenceWeights:
    def test_exact_on_polynomials(self):
        rng = np.random.default_rng(0)
        offsets = -0.1 * np.arange(5)
        for order in (0, 1, 2):
            w = finite_difference_weights(offsets, order)
            for deg in range(5):
                coeffs = rng.normal(size=deg + 1)
                poly = np.polynomial.Polynomial(coeffs)
                exact = poly.deriv(order)(0.0) if order else poly(0.0)
                assert np.dot(w, poly(offsets)) == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_classic_one_sided_first_derivative(self):
        w = finite_difference_weights([0.0, -1.0, -2.0], 1)
        np.testing.assert_allclose(w, [1.5, -2.0, 0.5], atol=1e-12)


class TestNonTangentialField:
    def test_face_centers_get_axis_normals(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        fld = build_nu_tilde(grid)
        for axis in range(3):
            for side in (-1.0, 1.0):
                target = np.zeros(3)
                target[axis] = side * 0.5
                i = np.argmin(np.linalg.norm(fld.points - target, axis=1))
                expected = np.zeros(3)
                expected[axis] = side
                np.testing.assert_allclose(fld.directions[i], expected, atol=1e-14)

    def test_edge_midpoint_blend(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        fld = build_nu_tilde(grid)
        i = np.argmin(np.linalg.norm(fld.points - np.array([0.5, 0.5, 0.0]), axis=1))
        np.testing.assert_allclose(
            fld.directions[i], [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-14
        )

    def test_unit_length_and_comparability(self):
        grid = GridDomain(extent=1.0, m_per_axis=13)
        fld = build_nu_tilde(grid)
        np.testing.assert_allclose(np.linalg.norm(fld.directions, axis=1), 1.0, atol=1e-14)
        assert fld.comparability >= 1 / np.sqrt(3) - 1e-12
        assert fld.tau0 == pytest.approx(4 * grid.h)


class TestNormalDerivativeSup:
    def test_constant_field_order_zero(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        fld = build_nu_tilde(grid)
        sup, _ = normal_derivative_sup(lambda p: np.full(len(p), -2.5), fld, 0)
        assert sup == pytest.approx(2.5, rel=1e-12)

    def test_distance_field_first_derivative(self):
        grid = GridDomain(extent=1.0, m_per_axis=17)
        fld = build_nu_tilde(grid)
        sup, _ = normal_derivative_sup(lambda p: grid.distance_to_boundary(p), fld, 1)
        assert sup == pytest.approx(1.0, abs=0.15)

    def test_squared_distance_first_derivative_vanishes(self):
        grid = GridDomain(extent=1.0, m_per_axis=17)
        fld = build_nu_tilde(grid)
        sup, _ = normal_derivative_sup(lambda p: grid.distance_to_boundary(p) ** 2, fld, 1)
        assert sup <= 0.12


class TestPerturbationSpec:
    def test_order_zero_trace_peaks_at_face_center(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        center = np.array([0.0, 0.0, 0.5])
        assert spec.profile(center)[0] == pytest.approx(1.0)
        off_face = np.array([0.0, 0.0, -0.5])
        assert spec.profile(off_face)[0] == 0.0

    def test_order_one_has_zero_trace_and_unit_scaled_slope(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=1, depth=0.4)
        face = np.array([[0.0, 0.0, 0.5], [0.1, -0.2, 0.5]])
        np.testing.assert_allclose(spec.profile(face), 0.0, atol=1e-15)
        d = 1e-6
        inward = np.array([0.0, 0.0, 0.5 - d])
        slope = spec.profile(inward)[0] / d
        assert slope == pytest.approx(1.0 / 0.4, rel=1e-4)

    def test_amplitude_admissibility(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        assert spec.perturbed(0.25).admissibility_violations() == []
        assert spec.perturbed(0.8).admissibility_violations()  # exceeds lam = 1.5

    def test_profile_without_grid_support_rejected(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        with pytest.raises(ValueError, match="vanishes at every node"):
            PerturbationSpec(base_medium(grid), profile_order=1, depth=0.05)

    def test_order_beyond_smoothness_rejected(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        with pytest.raises(ValueError):
            PerturbationSpec(base_medium(grid), profile_order=4)


class TestTensorDerivativeGap:
    def test_identical_media_vanish(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = base_medium(grid)
        assert sampled_gap(med, med, 0) == 0.0
        assert sampled_gap(med, med, 1) == 0.0

    def test_order_zero_lagrange_bound(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med1 = base_medium(grid)
        spec = PerturbationSpec(med1, profile_order=0)
        med2 = spec.perturbed(0.2)
        gap = sampled_gap(med1, med2, 0)
        K1 = split_real_imag(med1).K
        K2 = split_real_imag(med2).K
        b = grid.boundary_indices
        kmax = max(
            np.linalg.norm(K1[b], axis=(1, 2)).max(), np.linalg.norm(K2[b], axis=(1, 2)).max()
        )
        dmu = np.abs(med1.mu_a - med2.mu_a)[b].max()
        assert gap <= 3.0 * kmax**2 * dmu * 1.05

    def test_chain_rule_matches_direct_differencing(self):
        grid = GridDomain(extent=1.0, m_per_axis=13)
        med1 = OpticalMedium.from_expressions(
            grid, apriori(), mu_a="1 + 0.1*sin(2*x1)", mu_s="1 + 0.05*x2"
        )
        med2 = OpticalMedium.from_expressions(
            grid, apriori(), mu_a="1 + 0.1*sin(2*x1) + 0.1*cos(x3)", mu_s="1 + 0.05*x2"
        )
        chain = sampled_gap(med1, med2, 1)
        direct = tensor_derivative_gap_direct(med1, med2, 1)
        assert abs(chain - direct) / direct <= 5 * grid.h

    def test_chain_rule_matches_direct_differencing_with_anisotropy(self):
        # B varies in space and differs between the media, so the dB mu_s
        # part of dM carries part of the gap; both routes are second-order
        # differences, and a flipped sign of that part is off by about 4%
        grid = GridDomain(extent=1.0, m_per_axis=13)

        def medium(scale, mu_a):
            b = [
                [f"{0.3 * scale}*sin(2*x2)", f"{0.2 * scale}*x3", "0"],
                [f"{0.2 * scale}*x3", f"{-0.2 * scale}*cos(x1)", "0"],
                ["0", "0", f"{0.3 * scale}*x1*x2"],
            ]
            return OpticalMedium.from_expressions(
                grid, apriori(), mu_a=mu_a, mu_s="1 + 0.05*x2", B=b, supp_B_interior=False
            )

        med1 = medium(1.0, "1 + 0.1*sin(2*x1)")
        med2 = medium(1.5, "1 + 0.1*sin(2*x1) + 0.05*cos(x3)")
        chain = sampled_gap(med1, med2, 1)
        direct = tensor_derivative_gap_direct(med1, med2, 1)
        assert abs(chain - direct) / direct <= grid.h**2

    def test_unsupported_order(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = base_medium(grid)
        with pytest.raises(ValueError):
            sampled_gap(med, med, 2)


@pytest.fixture(scope="module")
def small_experiment():
    grid = GridDomain(extent=1.0, m_per_axis=9)
    med = base_medium(grid)
    spec = PerturbationSpec(med, profile_order=0)
    eps = [0.2 / 2**i for i in range(4)]
    return run_stability_experiment(spec, 0, eps)


class TestStabilityExperiment:
    def test_boundary_value_slope_is_linear_response(self, small_experiment):
        rep = small_experiment
        assert rep.observed_slopes["boundary_values"] == pytest.approx(1.0, abs=0.15)
        assert np.isfinite(rep.inequality_constants["boundary_values"])
        assert rep.violations == []

    def test_rows_are_monotone(self, small_experiment):
        rows = small_experiment.rows
        gaps = [r.dn_gap for r in rows]
        sups = [r.sup_mu_boundary for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_order_separation_for_trace_free_profile(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = base_medium(grid)
        spec = PerturbationSpec(med, profile_order=1)
        rep = run_stability_experiment(spec, 1, [0.2, 0.1, 0.05])
        for row in rep.rows:
            assert row.sup_mu_boundary == 0.0
            assert row.sup_normal_derivatives[1] > 0.0
            assert row.dn_gap > 0.0
        assert np.isfinite(rep.inequality_constants["order_1"])
        assert rep.predicted_exponents[1] == pytest.approx(
            holder_exponent(med.apriori.alpha, 1)
        )

    def test_inadmissible_wave_number_rejected(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = base_medium(grid, k=1.0)  # inside the excluded middle interval
        spec = PerturbationSpec(med, profile_order=0)
        with pytest.raises(InadmissibleWaveNumberError):
            run_stability_experiment(spec, 0, [0.1, 0.05])

    def test_admissibility_breaking_amplitudes_dropped(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = base_medium(grid)
        spec = PerturbationSpec(med, profile_order=0)
        with pytest.warns(UserWarning):
            rep = run_stability_experiment(spec, 0, [0.8, 0.1, 0.05, 0.025])
        assert rep.dropped_amplitudes == [0.8]
        assert len(rep.rows) == 3

    def test_ladder_without_admissible_amplitude_rejected(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="no nonzero admissible"):
            run_stability_experiment(spec, 0, [5.0, 2.5, 0.0])

    @pytest.mark.parametrize("order", [-1, PROFILE_SMOOTHNESS + 1])
    def test_derivative_order_outside_the_smoothness_rejected_before_any_work(
        self, order, monkeypatch
    ):
        def no_build(grid):
            raise AssertionError("the boundary eigenbasis was built")

        monkeypatch.setattr(SobolevScale, "build", staticmethod(no_build))
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        with pytest.raises(ValueError, match=f"derivative order must lie in 0..{PROFILE_SMOOTHNESS}"):
            run_stability_experiment(spec, order, [0.2, 0.1, 0.05])

    @pytest.mark.parametrize("eps", [[], [0.0]], ids=["empty", "zero"])
    def test_ladder_without_nonzero_amplitude_rejected(self, eps):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        with pytest.raises(ValueError, match="holds no nonzero amplitude") as info:
            run_stability_experiment(spec, 0, eps)
        assert not isinstance(info.value, InadmissibleAmplitudeError)

    def test_determinism(self, small_experiment):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        med = base_medium(grid)
        spec = PerturbationSpec(med, profile_order=0)
        rep = run_stability_experiment(spec, 0, [0.2 / 2**i for i in range(4)])
        for a, b in zip(rep.rows, small_experiment.rows):
            assert a.eps == b.eps
            assert a.dn_gap == b.dn_gap
            assert a.tensor_gap == b.tensor_gap

    def test_table_columns(self, small_experiment):
        cols = small_experiment.table()
        assert set(cols) >= {"eps", "dn_gap", "sup_mu_boundary", "tensor_gap"}
        assert len(cols["eps"]) == len(small_experiment.rows)

    def test_small_amplitudes_keep_the_linear_response(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        rep = run_stability_experiment(spec, 0, [0.2 * 10.0**-i for i in range(8)])
        gaps = [r.dn_gap for r in rep.rows]
        assert rep.rows[-1].eps == pytest.approx(2e-8)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert rep.observed_slopes["boundary_values"] == pytest.approx(1.0, abs=0.15)

    def test_mixed_sign_amplitudes_rejected(self):
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        with pytest.raises(ValueError, match="one sign"):
            run_stability_experiment(spec, 0, [0.2, 0.1, -0.05])

    def test_negative_amplitudes_keep_the_linear_response(self):
        # the boundary sups are sizes |eps| sup|profile|, so a negative ladder
        # fits like a positive one
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        rep = run_stability_experiment(spec, 0, [-0.05, -0.2, -0.1])
        assert [r.eps for r in rep.rows] == [-0.2, -0.1, -0.05]
        assert all(r.sup_mu_boundary > 0.0 for r in rep.rows)
        assert rep.observed_slopes["boundary_values"] == pytest.approx(1.0, abs=0.15)

    def test_amplitude_below_resolution_gives_zero_gap(self):
        # mu_a + 1e-300 * profile rounds to mu_a: the gap is exactly zero and
        # stays out of the power-law fits
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        rep = run_stability_experiment(spec, 0, [0.2, 0.1, 1e-300])
        assert rep.rows[-1].dn_gap == 0.0
        assert [r.linear_regime for r in rep.rows] == [True, True, False]
        assert np.isfinite(rep.observed_slopes["boundary_values"])

    def test_sweep_leaves_the_dense_eigenbasis_unbuilt(self, monkeypatch):
        real = SobolevScale.build
        scales = []

        def recording(grid):
            scales.append(real(grid))
            return scales[-1]

        monkeypatch.setattr(SobolevScale, "build", staticmethod(recording))
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        rep = run_stability_experiment(spec, 0, [0.2, 0.1, 0.05])
        assert all(r.dn_gap > 0.0 for r in rep.rows)
        assert len(scales) == 1
        assert "eigenvectors" not in vars(scales[0])

    def test_each_medium_is_sampled_once(self, monkeypatch):
        # one split_real_imag per medium: the base and each amplitude, shared
        # by the assembly and the tensor gap
        import otlab.solver
        import otlab.stability

        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        sampled = []

        def counting(medium):
            sampled.append(medium)
            return split_real_imag(medium)

        monkeypatch.setattr(otlab.stability, "split_real_imag", counting)
        monkeypatch.setattr(otlab.solver, "split_real_imag", counting)
        rep = run_stability_experiment(spec, 0, [0.2, 0.1, 0.05])
        assert len(sampled) == 4
        assert len({id(m) for m in sampled}) == 4
        for row in rep.rows:
            assert row.tensor_gap == sampled_gap(spec.base, spec.perturbed(row.eps), 0)

    def test_ladder_starts_each_amplitude_from_the_last_ritz_vector(self, monkeypatch):
        # the top singular vector of T(eps) ~ eps T' barely moves along the
        # ladder, so warm starts take fewer Gram products than a random start
        # per amplitude and give the gaps of cold starts
        lanczos = otlab.dnmap._largest_singular_value
        products = []

        def counted(gram, *args, **kwargs):
            products.append(0)

            def step(v):
                products[-1] += 1
                return gram(v)

            return lanczos(step, *args, **kwargs)

        monkeypatch.setattr(otlab.dnmap, "_largest_singular_value", counted)
        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        rep = run_stability_experiment(spec, 0, [0.2 / 2**i for i in range(4)])
        assert len(products) == 4
        assert sum(products) < 0.8 * 4 * products[0]
        scale = SobolevScale.build(grid)
        base = assemble(spec.base, grid)
        for row in rep.rows:
            cold, _ = difference_norm(base, assemble(spec.perturbed(row.eps), grid), scale)
            assert row.dn_gap == pytest.approx(cold, rel=1e-12)

    def test_sweep_builds_each_preconditioner_once(self, monkeypatch):
        # every solve is by COCG: the base preconditioner is cached on the
        # base operator for the whole sweep, each amplitude builds its own once
        import otlab.solver

        def no_factor(op):
            raise AssertionError("an operator was factored")

        grid = GridDomain(extent=1.0, m_per_axis=9)
        spec = PerturbationSpec(base_medium(grid), profile_order=0)
        real = otlab.solver._sine_inverse
        built = []

        def recording(op):
            built.append(op)
            return real(op)

        monkeypatch.setattr(otlab.solver.DiscreteOperator, "factorization", no_factor)
        monkeypatch.setattr(otlab.solver, "_sine_inverse", recording)
        run_stability_experiment(spec, 0, [0.2, 0.1, 0.05])
        assert len(built) == 4
        assert len({id(op) for op in built}) == 4
        base = assemble(spec.base, grid).matrix.toarray().tobytes()
        assert sum(op.matrix.toarray().tobytes() == base for op in built) == 1

    def test_sweep_solves_take_few_cocg_steps(self, monkeypatch):
        # a three-amplitude m=17 sweep on a smooth variable background, the
        # benchmark's sweep: the diagonally scaled sine preconditioner takes
        # about 4.6 COCG steps per solve there, the unscaled model 6.3
        steps = record_cocg_steps(monkeypatch)
        grid = GridDomain(extent=1.0, m_per_axis=17)
        background = OpticalMedium.from_expressions(
            grid, apriori(), mu_a="1 + 0.054798*sin(0.519584*x1 + 1.175488*x2 + 5.407219)", mu_s="1"
        )
        rep = run_stability_experiment(PerturbationSpec(background, profile_order=0), 0, [0.2, 0.1, 0.05])
        assert all(r.dn_gap > 0.0 for r in rep.rows)
        assert len(steps) >= 60
        assert sum(steps) / len(steps) <= 5.0, (sum(steps), len(steps))


class TestBoundaryLimit:
    """The high-frequency limit behind the stability of boundary values, on
    the bundled config's first amplitude (eps = 0.2, profile order 0).

    A checkerboard on one face of the 7-point stencil decays by 5 - sqrt(24)
    per layer, and whitened, its boundary row tends to sqrt(3) kappa, where
    the continuum symbol gives kappa.  So the D-N gap tends to
    sqrt(3) sup |kappa(mu_a + eps p) - kappa(mu_a)| on the boundary, which for
    an isotropic K is the Frobenius norm of the tensor difference: the
    order-0 ``tensor_gap`` of the same row.  The gap approaches it at first
    order in h, gap = tensor_gap (1 - c h); c measured 3.59-3.63 from m = 17
    to m = 49."""

    @pytest.mark.parametrize("m", [17, 25])
    def test_the_gap_approaches_the_tensor_gap_at_first_order_in_h(self, m):
        raw = copy.deepcopy(RunConfig.default().raw)
        raw["grid"]["m_per_axis"] = m
        config = RunConfig.from_dict(raw)
        section = config.experiment("stability")
        grid = config.grid()
        pspec = PerturbationSpec(
            config.medium(grid), section["profile_order"], section["width"], section["depth"]
        )
        assert (pspec.profile_order, section["eps_start"]) == (0, 0.2)
        report = run_stability_experiment(pspec, 0, [section["eps_start"]], seed=config.seed)
        row = report.rows[0]
        assert 3.4 <= (1.0 - row.dn_gap / row.tensor_gap) / grid.h <= 3.8
