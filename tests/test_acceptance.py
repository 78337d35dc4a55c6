"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (plain ``pytest`` captures the lines; they still show
with ``-rA``).  The slowest pieces are the two 17^3 stability sweeps,
then the 33^3 solve of the convergence study.
"""

import json
import math

import numpy as np
import pytest

from otlab import dnmap
from otlab.dnmap import SobolevScale, assemble_dn, difference_norm
from otlab.gegenbauer import GegenbauerSpec, endpoint_values, gegenbauer_eval
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium, k_admissible_ranges
from otlab.singular import (
    SingularityPoint,
    SingularSolutionSpec,
    correction_w,
    leading_term,
    potential_decay_fit,
)
from otlab.solver import apply_operator, assemble, solve_dirichlet
from otlab.stability import PerturbationSpec, run_stability_experiment

from oracles import (
    alessandrini_residual,
    bracket_grid_minimum,
    dense_operator_norm,
    gegenbauer_derivative,
    ode_residual,
    um_via_induction,
)


def report(number: int, description: str, passed: bool, detail: str = ""):
    line = f"[ACCEPTANCE] criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {description}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    assert passed, line


def constant_medium(grid, k=1.0):
    a = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=k, alpha=0.2)
    return OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")


def default_medium(grid, **kw):
    base = dict(n=3, p=4.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.2)
    base.update(kw)
    a = AprioriData(**base)
    return OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")


def test_criterion_01_wave_number_ranges():
    import mpmath as mp

    mp.mp.dps = 40
    t = mp.tan(mp.pi / 6)
    hi = mp.mpf(2)  # lam (1 + calE) with lam = calE = 1
    lo = mp.mpf(2)
    exact_k0 = (mp.sqrt(hi**2 + lo**2 * t**2) - hi) / t
    exact_k0t = (1 + mp.sqrt(1 + t**2)) / t * hi
    k0, k0t = k_admissible_ranges(1.0, 1.0, 3)
    err = max(abs(k0 - float(exact_k0)), abs(k0t - float(exact_k0t)))
    ok = err <= 1e-6 and abs(k0 - 0.535898) < 1e-6 and abs(k0t - 7.464102) < 1e-6
    report(1, "wave-number ranges match the 40-digit closed forms", ok, f"max err {err:.2e}")


def test_criterion_02_gegenbauer_suite():
    rng = np.random.default_rng(100)
    worst_ode = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 9))
        n = int(rng.integers(3, 7))
        t = float(rng.uniform(-1, 1))
        res = ode_residual(GegenbauerSpec(m, n), t)
        worst_ode = max(worst_ode, abs(res.standard) / max(res.scale, 1.0))
    worst_endpoint = 0.0
    for n in (3, 4, 5, 6):
        for m in range(9):
            plus, _ = endpoint_values(GegenbauerSpec(m, n))
            val = float(gegenbauer_eval(GegenbauerSpec(m, n), 1.0))
            worst_endpoint = max(worst_endpoint, abs(val - plus) / abs(plus))
    worst_fd = 0.0
    delta = 1e-6
    for _ in range(60):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(3, 7))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        spec = GegenbauerSpec(m, n)
        fd = (
            complex(gegenbauer_eval(spec, z + delta)) - complex(gegenbauer_eval(spec, z - delta))
        ) / (2 * delta)
        exact = complex(gegenbauer_derivative(spec, z))
        worst_fd = max(worst_fd, abs(exact - fd) / max(abs(fd), 1e-12))
    ok = worst_ode <= 1e-9 and worst_endpoint <= 1e-12 and worst_fd <= 1e-6
    report(
        2,
        "Gegenbauer ODE/endpoint/derivative suite at stated tolerances",
        ok,
        f"ode {worst_ode:.1e}, endpoint {worst_endpoint:.1e}, fd {worst_fd:.1e}",
    )


def test_criterion_03_singular_solution_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        mu_a = rng.uniform(0.6, 1.6)
        mu_s = rng.uniform(0.6, 1.6)
        k = rng.uniform(0.2, 3.0)
        W = rng.normal(size=(3, 3))
        B = W + W.T
        B *= 0.2 / max(np.abs(np.linalg.eigvalsh(B)).max(), 1e-12)
        at = SingularityPoint.from_coefficients(rng.normal(size=3), mu_a, mu_s, B, k, 3)
        m = int(rng.integers(0, 6))
        spec = SingularSolutionSpec(m, at)
        x = at.z + rng.normal(size=3) * rng.uniform(0.5, 2.0)
        a = leading_term(spec, x)
        b = um_via_induction(spec, x)
        worst = max(worst, abs(a - b) / abs(a))

    z = np.array([0.95, 0.2, 0.1])
    at = SingularityPoint.from_coefficients(z, 1.0, 1.0, None, 1.0, 3)
    orders = []
    for m in (0, 2):
        spec = SingularSolutionSpec(m, at)
        residuals, hs = [], []
        for mesh in (9, 13, 17):
            grid = GridDomain(extent=1.0, m_per_axis=mesh)
            med = constant_medium(grid)
            op = assemble(med, grid, include_reaction=False)
            res = np.abs(apply_operator(op, leading_term(spec, grid.points)))
            pts = grid.points[op.interior_idx]
            probes = np.all(np.abs(pts * 4 - np.round(pts * 4)) < 1e-12, axis=1)
            residuals.append(res[probes].max())
            hs.append(grid.h)
        orders.append(np.polyfit(np.log(hs), np.log(residuals), 1)[0])
    ok = worst <= 1e-9 and min(orders) >= 1.8
    report(
        3,
        "closed form vs induction oracle and frozen-kernel residual order",
        ok,
        f"worst gap {worst:.1e}, orders {[f'{o:.2f}' for o in orders]}",
    )


def test_criterion_04_gradient_bracket():
    minima = [bracket_grid_minimum(m, n) for n in (3, 4, 5) for m in range(9)]
    ok = all(v > 0 for v in minima)
    report(4, "gradient lower bracket positive on the t-grid", ok, f"min {min(minima):.3e}")


def test_criterion_05_potential_decay():
    gaps = []
    for s in (4.5, 5.25):
        nu = math.floor(s) - 3

        def f(pts, s=s):
            r = np.linalg.norm(pts, axis=1)
            return r ** (-s) * pts[:, 2] / r

        fit = potential_decay_fit(
            f, nu, [2.0**-j for j in range(5, 11)], 1.0, direction=(0.36, 0.48, 0.8)
        )
        gaps.append(abs(fit.exponent - (2.0 - s)))
    ok = max(gaps) <= 0.1
    report(5, "truncated-potential decay exponents within 0.1 of 2-s", ok, f"gaps {gaps}")


def test_criterion_06_solver_convergence():
    errs, hs = [], []
    for m in (17, 25, 33):
        grid = GridDomain(extent=1.0, m_per_axis=m)
        med = constant_medium(grid)
        op = assemble(med, grid)
        pts = grid.points
        e = np.exp(pts[:, 0] + pts[:, 1])
        u_exact = e * (1.0 + 1j * np.cos(pts[:, 2]))
        lap = e * (2.0 + 1j * np.cos(pts[:, 2]))
        f = -(2.0 + 1.0j) / 15.0 * lap + (1.0 - 1.0j) * u_exact
        sol = solve_dirichlet(op, u_exact, f)
        errs.append(np.abs(sol.values - u_exact)[grid.interior_indices].max())
        hs.append(grid.h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = abs(slope - 2.0) <= 0.2
    report(6, "manufactured-solution order over 17/25/33 grids", ok, f"order {slope:.3f}")


def test_criterion_07_alessandrini():
    residuals, hs = [], []
    for m in (9, 13, 17):
        grid = GridDomain(extent=1.0, m_per_axis=m)
        med1 = default_medium(grid)
        a = med1.apriori
        med2 = OpticalMedium.from_expressions(
            grid, a, mu_a="1 + 0.2*sin(2*x1)*cos(x2)", mu_s="1"
        )
        pts = grid.points[grid.boundary_indices]
        f = (np.exp(pts[:, 0]) * np.cos(pts[:, 1])).astype(complex)
        g = (pts[:, 2] ** 2 + 0.5).astype(complex)
        residuals.append(alessandrini_residual(med1, med2, f, g))
        hs.append(grid.h)
    order = float(np.polyfit(np.log(hs), np.log(residuals), 1)[0])

    grid = GridDomain(extent=1.0, m_per_axis=9)
    med = default_medium(grid)
    rng = np.random.default_rng(7)
    nb = len(grid.boundary_indices)
    same = alessandrini_residual(
        med,
        med,
        rng.normal(size=nb) + 1j * rng.normal(size=nb),
        rng.normal(size=nb) + 1j * rng.normal(size=nb),
    )
    ok = order >= 1.0 and same <= 1e-9
    report(
        7,
        "Alessandrini identity: refinement order >= 1, exact when media coincide",
        ok,
        f"order {order:.2f}, identical-media residual {same:.1e}",
    )


def test_criterion_08_dn_structure(monkeypatch):
    # the two media differ on the whole cube, so the top singular values of
    # their whitened D-N difference nearly coincide (sigma_2/sigma_1 = 0.9989):
    # Lanczos needs 65 steps, an iteration converging at the rate
    # (sigma_2/sigma_1)^2 needs thousands
    lanczos = dnmap._largest_singular_value
    steps = []

    def counted(gram, *args, **kwargs):
        def step(v):
            steps.append(len(steps))
            return gram(v)

        return lanczos(step, *args, **kwargs)

    monkeypatch.setattr(dnmap, "_largest_singular_value", counted)
    grid = GridDomain(extent=1.0, m_per_axis=9)
    med = default_medium(grid)
    dn = assemble_dn(med, grid)
    sym = float(np.abs(dn.matrix - dn.matrix.T).max() / np.abs(dn.matrix).max())
    scale = SobolevScale.build(grid)
    other = OpticalMedium.from_expressions(
        grid, med.apriori, mu_a="1 + 0.15*cos(x2)", mu_s="1"
    )
    delta = assemble_dn(other, grid).matrix - dn.matrix
    krylov, _ = difference_norm(assemble(med, grid), assemble(other, grid), scale)
    dense = dense_operator_norm(delta, scale)
    gap = abs(krylov - dense) / dense
    ok = sym <= 1e-9 and gap <= 1e-6 and len(steps) <= 200
    report(
        8,
        "D-N bilinear symmetry and Lanczos norm vs dense SVD in at most 200 steps",
        ok,
        f"symmetry {sym:.1e}, norm gap {gap:.1e}, {len(steps)} Lanczos steps",
    )


def test_criterion_09_lipschitz_experiment():
    grid = GridDomain(extent=1.0, m_per_axis=17)
    med = default_medium(grid)
    spec = PerturbationSpec(med, profile_order=0)
    eps = [0.2 / 2**i for i in range(6)]
    rep = run_stability_experiment(spec, 0, eps)
    slope = rep.observed_slopes["boundary_values"]
    ratios = np.array([r.sup_mu_boundary / r.dn_gap for r in rep.rows])
    bounded = np.all(np.isfinite(ratios)) and ratios[-1] <= 2.0 * ratios[0]
    ok = bounded and abs(slope - 1.0) <= 0.15
    report(
        9,
        "boundary-value stability sweep: bounded ratio, slope 1 +/- 0.15",
        ok,
        f"slope {slope:.3f}, ratio range [{ratios.min():.3g}, {ratios.max():.3g}]",
    )


def test_criterion_10_derivative_experiment():
    grid = GridDomain(extent=1.0, m_per_axis=17)
    med = default_medium(grid, p=8.0, alpha=0.5)
    spec = PerturbationSpec(med, profile_order=1)
    eps = [0.2 / 2**i for i in range(6)]
    rep = run_stability_experiment(spec, 1, eps)
    delta1 = rep.predicted_exponents[1]
    constant = rep.inequality_constants["order_1"]
    gaps = np.array([r.dn_gap for r in rep.rows])
    sups = np.array([r.sup_normal_derivatives[1] for r in rep.rows])
    holds = np.all(sups <= constant * gaps**delta1 * (1 + 1e-9))
    ok = (
        abs(delta1 - 1.0 / 3.0) <= 1e-12
        and np.isfinite(constant)
        and holds
        and not rep.violations
    )
    report(
        10,
        "derivative stability sweep: one-sided Hoelder inequality with delta_1 = 1/3",
        ok,
        f"fitted C {constant:.3g}, violations {rep.violations}",
    )


def test_criterion_11_remainder_decay():
    a = AprioriData(n=3, p=5.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=0.25)
    grid = GridDomain(extent=1.0, m_per_axis=25)
    med = OpticalMedium.from_expressions(grid, a, mu_a="1", mu_s="1")
    at = SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, a.k, 3)
    details, ok = [], True
    for m in (0, 1):
        res = correction_w(med, SingularSolutionSpec(m, at), 4 * grid.h, 0.45)
        threshold = res.candidate_exponents["with_order"] - 0.15
        ok = ok and res.exponent_w >= threshold
        details.append(
            f"m={m}: fit {res.exponent_w:.2f} >= {threshold:.2f} "
            f"(candidates {res.candidate_exponents['with_order']:.2f}/"
            f"{res.candidate_exponents['without_order']:.2f})"
        )
    report(11, "annulus remainder decay against both candidate exponents", ok, "; ".join(details))


def test_criterion_12_determinism(tmp_path):
    from otlab.cli import main

    cfg = {
        "seed": 7,
        "threads": 1,
        "grid": {"extent": 1.0, "m_per_axis": 9},
        "apriori": {
            "n": 3, "p": 4.0, "lambda": 1.5, "E": 10.0, "calE": 1.2,
            "k": 0.12, "r0": 1.0, "L": 1.0, "diam": 2.0, "alpha": 0.2,
        },
        "medium": {"mu_a": "1", "mu_s": "1", "B": None, "supp_B_interior": True},
        "experiments": {
            "stability": {
                "profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 3,
                "width": 0.3, "depth": 0.4,
            },
            "gegenbauer_table": {"max_m": 6, "n": 3},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert main(["check", "--config", str(path), "--out", str(out)]) == 0
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        assert main(["gegenbauer-table", "--config", str(path), "--out", str(out)]) == 0
    names = [
        "check_report.json",
        "stability_report.json",
        "stability_rows.csv",
        "gegenbauer_coefficients.csv",
        "gegenbauer_endpoints.csv",
    ]
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    report(12, "byte-identical JSON/CSV outputs for identical config and seed", identical)
