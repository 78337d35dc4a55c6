#!/usr/bin/env python3
"""Boundary-stability sweep: D-N gaps against boundary norms.

Runs the amplitude ladder for a chosen perturbation profile order and
prints the per-amplitude table plus fitted slopes and inequality
constants.  Equivalent to `otlab stability` but handy for interactive
parameter exploration.
"""

import argparse

from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium
from otlab.stability import PerturbationSpec, run_stability_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=17)
    parser.add_argument("--profile-order", type=int, default=0)
    parser.add_argument("--h", type=int, default=0, help="highest derivative order")
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--p", type=float, default=4.0)
    parser.add_argument("--k", type=float, default=0.12)
    parser.add_argument("--eps-start", type=float, default=0.2)
    parser.add_argument("--eps-count", type=int, default=6)
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the Lanczos start vectors"
    )
    args = parser.parse_args(argv)

    apriori = AprioriData(
        n=3, p=args.p, lam=1.5, E=10.0, cal_e=1.2, k=args.k, alpha=args.alpha
    )
    grid = GridDomain(extent=1.0, m_per_axis=args.grid)
    medium = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
    pspec = PerturbationSpec(medium, profile_order=args.profile_order)
    eps = [args.eps_start / 2**i for i in range(args.eps_count)]
    report = run_stability_experiment(pspec, args.h, eps, seed=args.seed)

    header = ["eps", "dn_gap", "sup_mu"] + [f"sup_d{j}" for j in range(args.h + 1)]
    print("  ".join(f"{name:>12s}" for name in header))
    for row in report.rows:
        cells = [row.eps, row.dn_gap, row.sup_mu_boundary] + row.sup_normal_derivatives
        print("  ".join(f"{c:12.5e}" for c in cells))
    print(f"observed slopes: {report.observed_slopes}")
    print(f"predicted exponents: {report.predicted_exponents}")
    print(f"inequality constants: {report.inequality_constants}")
    if report.violations:
        print(f"VIOLATION FLAGS: {report.violations}")


if __name__ == "__main__":
    main()
