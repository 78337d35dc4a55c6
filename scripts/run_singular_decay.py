#!/usr/bin/env python3
"""Decay studies around the singular solutions.

Part 1: radial decay of the annulus remainder w (both candidate exponents
reported).  Part 2: decay of the truncated Newtonian potential for a
spherical-harmonic source |y|^{-s} Y_1, fitted against 2 - s.
"""

import argparse
import math

import numpy as np

from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium
from otlab.singular import (
    SingularityPoint,
    SingularSolutionSpec,
    correction_w,
    potential_decay_fit,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=25)
    parser.add_argument("--orders", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--alpha", type=float, default=0.25)
    parser.add_argument("--s", type=float, nargs="+", default=[4.5, 5.25])
    args = parser.parse_args(argv)

    apriori = AprioriData(n=3, p=5.0, lam=1.5, E=10.0, cal_e=1.2, k=0.12, alpha=args.alpha)
    grid = GridDomain(extent=1.0, m_per_axis=args.grid)
    medium = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
    at = SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, apriori.k, 3)

    print("== annulus remainder decay ==")
    r_min = min(4 * grid.h, 0.45 - 4.5 * grid.h)  # keep the annulus resolvable
    for m in args.orders:
        res = correction_w(medium, SingularSolutionSpec(m, at), r_min, 0.45)
        print(
            f"m={m}: fitted |w| exponent {res.exponent_w:+.3f}, r|Dw| {res.exponent_r_dw:+.3f}, "
            f"candidates 2-n-m+alpha={res.candidate_exponents['with_order']:+.3f}, "
            f"2-n+alpha={res.candidate_exponents['without_order']:+.3f}"
            f"{' [fit flagged]' if res.flagged else ''}"
        )

    print("== truncated-potential decay ==")
    for s in args.s:
        nu = math.floor(s) - 3

        def source(pts, s=s):
            r = np.linalg.norm(pts, axis=1)
            return r ** (-s) * pts[:, 2] / r

        fit = potential_decay_fit(
            source, nu, [2.0**-j for j in range(5, 11)], 1.0, direction=(0.36, 0.48, 0.8)
        )
        print(f"s={s}: fitted exponent {fit.exponent:+.4f} (expected {2 - s:+.4f})")


if __name__ == "__main__":
    main()
