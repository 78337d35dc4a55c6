#!/usr/bin/env python3
"""Manufactured-solution convergence study for the Dirichlet solver.

Solves -div(K grad u) + q u = f with constant coefficients against
u* = exp(x1 + x2)(1 + i cos x3) over a ladder of grids and prints the
observed orders.
"""

import argparse

import numpy as np

from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium
from otlab.solver import assemble, solve_dirichlet


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", type=int, nargs="+", default=[17, 25, 33])
    parser.add_argument("--k", type=float, default=1.0)
    args = parser.parse_args(argv)

    apriori = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=args.k, alpha=0.2)
    kappa = 1.0 / (3.0 * (2.0 - 1j * args.k))
    rows = []
    for m in args.grids:
        grid = GridDomain(extent=1.0, m_per_axis=m)
        med = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
        op = assemble(med, grid)
        pts = grid.points
        e = np.exp(pts[:, 0] + pts[:, 1])
        u = e * (1.0 + 1j * np.cos(pts[:, 2]))
        lap = e * (2.0 + 1j * np.cos(pts[:, 2]))
        f = -kappa * lap + (1.0 - 1j * args.k) * u
        sol = solve_dirichlet(op, u, f)
        err = float(np.abs(sol.values - u)[grid.interior_indices].max())
        rows.append((m, grid.h, err))
        print(f"m={m:3d}  h={grid.h:.5f}  sup error={err:.6e}")

    hs = np.log([r[1] for r in rows])
    es = np.log([r[2] for r in rows])
    print(f"least-squares order: {np.polyfit(hs, es, 1)[0]:.3f}")


if __name__ == "__main__":
    main()
