"""Truncated Newtonian potential quadrature and the annulus correction solve."""

import math
import warnings

import numpy as np
import pytest

from otlab.errors import QuadratureBudgetError
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium
from otlab.singular import (
    PotentialRule,
    SingularityPoint,
    SingularSolutionSpec,
    _gauss_legendre,
    _radial_nodes,
    _sphere_constant,
    _sphere_nodes,
    _zonal_series,
    _potential,
    correction_w,
    potential_decay_fit,
)

from oracles import truncated_laplace_kernel

CHEAP = PotentialRule(outer_theta=24, outer_phi=48, inner_theta=12, inner_phi=24)


def newtonian_potential_truncated(f, nu, x, radius, rule=None, full_output=False):
    """One probe u(x) = int_{B_radius} Gamma_nu(x, y) f(y) dy of the quadrature
    behind ``potential_decay_fit``, without a fit's block memo; (u, PotentialInfo)
    with ``full_output``."""
    total, info = _potential(f, nu, x, radius, rule or PotentialRule(), None)
    return (total, info) if full_output else total


def harmonic_source(s, l=1):
    """f(y) = |y|^{-s} P_l(y_3/|y|), the zonal spherical harmonic Y_l of degree l."""
    legendre = np.polynomial.legendre.Legendre.basis(l)

    def f(pts):
        r = np.linalg.norm(pts, axis=1)
        return r ** (-s) * legendre(pts[:, 2] / r)

    return f


def mixed_source(pts):
    # unlike Y_1 alone, the cubic part is not orthogonal to the inner
    # tail terms, so every inner shell adds more than rounding noise
    r = np.linalg.norm(pts, axis=1)
    return r**-4.5 * (pts[:, 2] / r + 0.5 * (pts[:, 0] / r) ** 3)


def oracle_radial_factor(r, s, l, nu, R=1.0):
    """Closed-form radial factor of the potential of |y|^{-s} Y_l.

    Funk-Hecke reduces each zonal kernel term to a power integral: only the
    degree-l term of each expansion survives the angular integration.
    """
    out = 0.0
    if l > nu:
        out -= r ** (2.0 - s) / (l + 3.0 - s)
    out -= r**l * (R ** (2.0 - l - s) - r ** (2.0 - l - s)) / (2.0 - l - s)
    if l <= nu:
        out += (R ** (l + 3.0 - s) - r ** (l + 3.0 - s)) / ((l + 3.0 - s) * r ** (l + 1.0))
    return out / (2.0 * l + 1.0)


class TestPotentialQuadrature:
    def test_zero_source(self):
        val = newtonian_potential_truncated(
            lambda pts: np.zeros(len(pts)), 1, np.array([0.2, 0.0, 0.1]), 1.0, rule=CHEAP
        )
        assert val == 0.0

    def test_linearity(self):
        x = np.array([0.21, -0.05, 0.3])

        def f1(pts):
            return np.exp(-np.sum(pts**2, axis=1)) * (1.0 + pts[:, 0])

        def f2(pts):
            return np.cos(2 * pts[:, 1]) + 0.5j * pts[:, 2]

        a, b = 1.7 - 0.4j, -0.9 + 2.1j
        lhs = newtonian_potential_truncated(
            lambda p: a * f1(p) + b * f2(p), 0, x, 1.0, rule=CHEAP
        )
        rhs = a * newtonian_potential_truncated(f1, 0, x, 1.0, rule=CHEAP) + (
            b * newtonian_potential_truncated(f2, 0, x, 1.0, rule=CHEAP)
        )
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize(
        "s, l",
        [
            pytest.param(4.5, 1, id="4.5"),
            pytest.param(5.25, 1, id="5.25"),
            # Y_2 is not orthogonal to the j = 2 tail term, so its inner
            # shells carry value down the whole ladder, unlike Y_1's
            pytest.param(4.5, 2, id="4.5-Y2"),
        ],
    )
    def test_matches_closed_form_oracle(self, s, l):
        nu = math.floor(s) - 3
        f = harmonic_source(s, l)
        direction = np.array([0.36, 0.48, 0.8])
        angular = np.polynomial.legendre.Legendre.basis(l)(direction[2])
        for r in (0.3, 0.05, 0.01):
            x = r * direction
            val, info = newtonian_potential_truncated(f, nu, x, 1.0, full_output=True)
            exact = angular * oracle_radial_factor(r, s, l, nu)
            assert abs(val - exact) <= 1e-7 * abs(exact)
            # the reported tolerance must dominate the actual error
            assert info.tolerance_estimate >= abs(val - exact)

    def test_ladder_stops_at_the_rounding_floor_only_on_noise(self):
        # Y_1 with nu >= 1 is orthogonal to every tail term: its shells are
        # rounding noise and the ladder stops at the first chance (3 shells)
        direction = np.array([0.36, 0.48, 0.8])
        for s in (4.5, 5.25):
            for r in (2.0**-5, 2.0**-10, 0.3):
                _, info = newtonian_potential_truncated(
                    harmonic_source(s), math.floor(s) - 3, r * direction, 1.0, full_output=True
                )
                assert info.inner_shells <= 5
        # sources with real tail terms keep the ladders of the shell_rtol rule
        for f, shells in ((mixed_source, 31), (harmonic_source(4.5, l=2), 85)):
            x = 2.0**-7 * direction
            _, info = newtonian_potential_truncated(f, 1, x, 1.0, full_output=True)
            assert info.inner_shells == shells

    def test_tolerance_bounds_the_skipped_shells(self):
        # the mixed source's shells shrink by about 2^-1/2 each, so a ladder
        # stopped at shell_rtol = 1e-3 skips more than the outer passes
        # differ by; the geometric tail of the tolerance estimate covers it
        x = 2.0**-7 * np.array([0.36, 0.48, 0.8])
        exact = newtonian_potential_truncated(mixed_source, 1, x, 1.0)
        rule = PotentialRule(shell_rtol=1e-3)
        early, info = newtonian_potential_truncated(mixed_source, 1, x, 1.0, rule, True)
        assert info.inner_shells < 31
        assert abs(early - exact) <= info.tolerance_estimate

    def test_non_finite_shell_names_the_shell(self):
        # inside the band of nu = 1, but r^-4.9 overflows on shells near 1e-63
        # before the slowly decaying Y_2 tail settles
        f = harmonic_source(4.9, l=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureBudgetError, match=r"inner shell \[") as info:
                newtonian_potential_truncated(f, 1, np.array([0.0, 0.0, 0.25]), 1.0)
        assert math.isfinite(info.value.achieved) and info.value.achieved > 0
        assert "nan" not in str(info.value)

    def test_decay_exponent_smoke(self):
        s = 4.5
        fit = potential_decay_fit(
            harmonic_source(s),
            1,
            [2.0**-k for k in range(6, 10)],
            1.0,
            direction=(0.36, 0.48, 0.8),
        )
        assert fit.exponent == pytest.approx(2.0 - s, abs=0.1)

    def test_budget_error_reports_achieved(self):
        # a source with real tail terms off the pole axis (on it the cubic
        # part is orthogonal to them too); Y_1 alone settles in three shells
        rule = PotentialRule(max_inner_shells=3)
        x = 0.25 * np.array([0.36, 0.48, 0.8])
        with pytest.raises(QuadratureBudgetError) as info:
            newtonian_potential_truncated(mixed_source, 1, x, 1.0, rule=rule)
        assert info.value.achieved > 0

    def test_probe_validation(self):
        f = harmonic_source(4.5)
        with pytest.raises(ValueError):
            newtonian_potential_truncated(f, 1, np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            newtonian_potential_truncated(f, 1, np.array([0.9, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            newtonian_potential_truncated(f, -2, np.array([0.2, 0.0, 0.0]), 1.0)

    def test_source_exponent_estimate(self):
        from otlab.singular import shell_source_exponent

        for s in (4.5, 5.25):
            est = shell_source_exponent(harmonic_source(s), 1.0)
            assert est == pytest.approx(s, abs=0.05)

    def test_incompatible_truncation_order_warns_then_diverges(self):
        # a rate-4.5 source needs nu = 1; with nu = 0 the inner integral is
        # genuinely divergent, so the flag fires and the ladder gives up
        with pytest.warns(UserWarning, match="outside the band"):
            with pytest.raises(QuadratureBudgetError):
                potential_decay_fit(
                    harmonic_source(4.5),
                    0,
                    [2.0**-6, 2.0**-7],
                    1.0,
                    direction=(0.36, 0.48, 0.8),
                    rule=CHEAP,
                )


class TestTabulatedKernels:
    """The tabulated kernels against the direct truncated kernel, on the nodes
    the default rule uses for the decay probes (|x| = 2^-5 .. 2^-10 along
    the scripts' ray, delta = |x|/4)."""

    RULE = PotentialRule()
    DIRECTION = np.array([0.36, 0.48, 0.8])

    @staticmethod
    def _points(rad, dirs):
        return (rad[:, None, None] * dirs[None, :, :]).reshape(-1, 3)

    @staticmethod
    def _max_relative(approx, exact):
        return np.abs(approx - exact).max() / np.abs(exact).max()

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("r", [2.0**-5, 2.0**-10])
    def test_inner_tail_matches_direct_kernel(self, r, nu):
        # the first two shells of the ladder; deeper shells lose the direct
        # route to cancellation (-C_3/|x-y| against its own moments)
        x = r * self.DIRECTION
        dirs, _ = _sphere_nodes(self.RULE.inner_theta, self.RULE.inner_phi)
        orders = range(nu + 1, nu + 1 + self.RULE.series_terms)
        tail = _zonal_series(r, dirs @ self.DIRECTION, orders)
        for lo, hi in ((r / 4, r / 2), (r / 8, r / 4)):
            rad, _ = _radial_nodes(lo, hi, self.RULE.inner_radial)
            direct = truncated_laplace_kernel(x, self._points(rad, dirs), nu)
            assert self._max_relative(-tail(rad).ravel(), direct) <= 1e-12

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("r", [2.0**-5, 2.0**-10])
    def test_outer_moments_match_direct_kernel(self, r, nu):
        x = r * self.DIRECTION
        cn = _sphere_constant(3)
        for n_theta, n_phi in ((40, 80), (32, 64)):  # full and low resolution
            dirs, _ = _sphere_nodes(n_theta, n_phi)
            moments = _zonal_series(r, dirs @ self.DIRECTION, range(nu + 1))
            # the first segments of the breakpoint ladder and the last one
            segments = [(r / 2, 0.75 * r), (0.75 * r, r), (r, 1.25 * r), (1.25 * r, 2.5 * r)]
            for lo, hi in segments + [(0.5, 1.0)]:
                rad, _ = _radial_nodes(lo, hi, self.RULE.outer_radial)
                pts = self._points(rad, dirs)
                rho = np.linalg.norm(pts - x, axis=1)
                direct = truncated_laplace_kernel(x, pts, nu) + cn / rho
                assert self._max_relative(moments(rad).ravel(), direct) <= 1e-12

    def test_cached_nodes_are_read_only(self):
        dirs, w = _sphere_nodes(self.RULE.inner_theta, self.RULE.inner_phi)
        xg, wg = _gauss_legendre(self.RULE.inner_radial)
        for arr in (dirs, w, xg, wg):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert _sphere_nodes(self.RULE.inner_theta, self.RULE.inner_phi)[0] is dirs


class TestSharedSourceBlocks:
    """A decay fit evaluates f once per quadrature block its probes share."""

    DIRECTION = np.array([0.36, 0.48, 0.8])
    DYADIC = [2.0**-j for j in range(5, 11)]

    @staticmethod
    def _counting(f):
        seen = []

        def counted(pts):
            seen.append(len(pts))
            return f(pts)

        return counted, seen

    def test_ball_patch_is_evaluated_once_per_probe(self):
        # the patch does not depend on the outer angular resolution
        rule = PotentialRule()
        f, seen = self._counting(mixed_source)
        newtonian_potential_truncated(f, 1, 2.0**-7 * self.DIRECTION, 1.0, rule)
        assert seen.count(rule.patch_radial * rule.patch_theta * rule.patch_phi) == 1


    @pytest.mark.parametrize("radii", [DYADIC, [0.03, 0.017, 0.009]], ids=["dyadic", "non-dyadic"])
    def test_fit_values_equal_separate_calls(self, radii):
        f = mixed_source
        fit = potential_decay_fit(f, 1, radii, 1.0, direction=self.DIRECTION, verify_source=False)
        x_hat = self.DIRECTION / np.linalg.norm(self.DIRECTION)
        separate = [
            newtonian_potential_truncated(f, 1, r * x_hat, 1.0) for r in sorted(radii, reverse=True)
        ]
        assert fit.values.tolist() == separate

    def test_fit_passes_f_under_half_the_points(self):
        # the mixed source walks the whole ladder, so the shared inner
        # shells count; Y_1 settles in three shells per probe
        f, fit_points = self._counting(mixed_source)
        potential_decay_fit(f, 1, self.DYADIC, 1.0, direction=self.DIRECTION, verify_source=False)
        f, separate_points = self._counting(mixed_source)
        x_hat = self.DIRECTION / np.linalg.norm(self.DIRECTION)
        for r in self.DYADIC:
            newtonian_potential_truncated(f, 1, r * x_hat, 1.0)
        assert sum(fit_points) <= 0.45 * sum(separate_points)

    def test_memo_stays_under_ten_megabytes(self, monkeypatch):
        import otlab.singular

        real = otlab.singular._block_source
        held = [0]

        def recording(f, memo, key, rad, dirs, keep):
            values = real(f, memo, key, rad, dirs, keep)
            held[0] = max(held[0], sum(v.nbytes for v in memo.values()))
            return values

        monkeypatch.setattr(otlab.singular, "_block_source", recording)
        potential_decay_fit(
            harmonic_source(5.25), 2, self.DYADIC, 1.0, direction=self.DIRECTION,
            verify_source=False,
        )
        assert 0 < held[0] <= 10 * 2**20


class TestDecayFitValidation:
    f = staticmethod(harmonic_source(4.5))

    def test_single_radius_rejected(self):
        with pytest.raises(ValueError, match="at least two probe radii"):
            potential_decay_fit(self.f, 1, [2.0**-6], 1.0)

    def test_repeated_radius_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            potential_decay_fit(self.f, 1, [2.0**-6, 2.0**-7, 2.0**-6], 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            potential_decay_fit(self.f, 1, [2.0**-6, -(2.0**-7)], 1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be a finite nonzero"):
            potential_decay_fit(self.f, 1, [2.0**-6, 2.0**-7], 1.0, direction=(0.0, 0.0, 0.0))

    def test_nan_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be a finite nonzero"):
            potential_decay_fit(self.f, 1, [2.0**-6, 2.0**-7], 1.0, direction=(0.0, np.nan, 1.0))

    def test_nodal_ray_is_not_fitted(self):
        # on the equator of Y_1 the potential vanishes: values of 1e-14..1e-10
        # are quadrature noise, and their fit once read -2.625 against -2.5
        radii = [2.0**-j for j in range(5, 11)]
        with pytest.raises(QuadratureBudgetError, match="probe at radius 0.03125"):
            potential_decay_fit(self.f, 1, radii, 1.0, direction=(1.0, 0.0, 0.0))

    def test_zero_source_is_not_fitted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureBudgetError, match="probe at radius"):
                potential_decay_fit(
                    lambda pts: np.zeros(len(pts)), 1, [2.0**-6, 2.0**-7], 1.0,
                    rule=CHEAP, verify_source=False,
                )


class TestLaplacianConsistency:
    W6 =np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])

    def _fd_laplacian(self, f, nu, x, h):
        lap = 0.0 + 0.0j
        center, info = newtonian_potential_truncated(f, nu, x, 1.0, rule=CHEAP, full_output=True)
        for d in range(3):
            vals = []
            for o in range(-3, 4):
                if o == 0:
                    vals.append(center)
                    continue
                xp = x.copy()
                xp[d] += o * h
                vals.append(newtonian_potential_truncated(f, nu, xp, 1.0, rule=CHEAP))
            lap += np.dot(self.W6, vals) / h**2
        return lap, info

    def test_laplacian_reproduces_smooth_source(self):
        # the subtracted kernel terms are harmonic in x, so Delta u = f holds
        # for every truncation order; probes keep the stencil away from the
        # origin where the subtraction terms blow up
        def f(pts):
            return np.exp(-4 * np.sum(pts**2, axis=1)) * (1.0 + pts[:, 0] + 0.5j * pts[:, 1])

        h = 0.02
        amplification = 3 * np.abs(self.W6).sum() / h**2
        rng = np.random.default_rng(21)
        for _ in range(6):
            x = rng.normal(size=3)
            x *= rng.uniform(0.35, 0.5) / np.linalg.norm(x)
            lap, info = self._fd_laplacian(f, 0, x, h)
            fval = complex(f(x[None, :])[0])
            budget = 10 * info.tolerance_estimate * amplification
            assert abs(lap - fval) <= max(budget, 1e-3 * abs(fval))

    def test_laplacian_reproduces_singular_source(self):
        s = 4.5
        f = harmonic_source(s)
        h = 0.02
        amplification = 3 * np.abs(self.W6).sum() / h**2
        rng = np.random.default_rng(22)
        for _ in range(3):
            x = rng.normal(size=3)
            x *= rng.uniform(0.38, 0.5) / np.linalg.norm(x)
            lap, info = self._fd_laplacian(f, 1, x, h)
            fval = complex(f(x[None, :])[0])
            budget = 10 * info.tolerance_estimate * amplification
            assert abs(lap - fval) <= max(budget, 1e-3 * abs(fval))


@pytest.fixture(scope="module")
def annulus_setup():
    a = AprioriData(n=3, p=5.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.25)
    grid = GridDomain(extent=1.0, m_per_axis=25)
    med = OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")
    at = SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, a.k, 3)
    return grid, med, at


class TestCorrectionSolve:
    def test_frozen_operator_without_reaction_gives_tiny_w(self, annulus_setup):
        grid, med, at = annulus_setup
        spec = SingularSolutionSpec(0, at)
        res = correction_w(med, spec, 4 * grid.h, 0.45, include_reaction=False)
        # L_{K(z)} u_m = 0 exactly: only the scheme's truncation error remains
        u_scale = 1.0 / (4 * grid.h)  # |u_0| ~ 1/r at the inner radius
        assert res.sup_w.max() <= 50 * grid.h**2 * u_scale

    @pytest.mark.parametrize("m", [0, 1])
    def test_decay_exponent_with_reaction(self, annulus_setup, m):
        grid, med, at = annulus_setup
        res = correction_w(med, SingularSolutionSpec(m, at), 4 * grid.h, 0.45)
        threshold = res.candidate_exponents["with_order"] - 0.15
        assert res.exponent_w >= threshold
        assert not res.flagged
        assert res.candidate_exponents["without_order"] == pytest.approx(-0.75)

    def test_variable_absorption_bump(self, annulus_setup):
        grid, _, at = annulus_setup
        a = AprioriData(n=3, p=5.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.25)
        med = OpticalMedium.from_expressions(
            grid, a, mu_a="1 + 0.3*exp(-20*((x1-0.2)**2 + x2**2 + x3**2))", mu_s="1"
        )
        res = correction_w(med, SingularSolutionSpec(1, at), 4 * grid.h, 0.45)
        assert res.exponent_w >= res.candidate_exponents["with_order"] - 0.15

    def test_validation(self, annulus_setup):
        grid, med, at = annulus_setup
        spec = SingularSolutionSpec(0, at)
        with pytest.raises(ValueError):
            correction_w(med, spec, 0.4, 0.41)  # too thin
        off_center = SingularityPoint(np.array([0.49, 0.0, 0.0]), at.K_inv)
        with pytest.raises(ValueError):
            correction_w(med, SingularSolutionSpec(0, off_center), 4 * grid.h, 0.45)
