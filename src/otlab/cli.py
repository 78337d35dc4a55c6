"""Command-line driver: check | solve | dn | singular | stability | gegenbauer-table.

Every run reads one JSON config (a bundled default is used when none is
given), writes its artifacts into the output directory, and embeds the
config fingerprint and module versions into every file it produces.
Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ConfigError, OtlabError
from .dnmap import DNOperator, SobolevScale, assemble_dn, sobolev_operator_norm
from .expressions import Expression
from .gegenbauer import GegenbauerSpec, coefficient_table, endpoint_values
from .medium import k_admissible_ranges, is_wave_number_admissible, split_real_imag, verify_ellipticity
from .singular import SingularityPoint, SingularSolutionSpec, correction_w, leading_term
from .solver import apply_operator, assemble, solve_dirichlet
from .stability import PerturbationSpec, holder_exponent, run_stability_experiment
from .svgplot import loglog_svg


def _load_config(path: str | None) -> RunConfig:
    return RunConfig.default() if path is None else RunConfig.from_file(path)


def _stamp(config: RunConfig) -> dict:
    return {
        "config_fingerprint": config.fingerprint(),
        "module_versions": {"otlab": __version__},
    }


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, comments: list, columns: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    length = len(columns[names[0]])
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for i in range(length):
            cells = []
            for name in names:
                value = columns[name][i]
                cells.append(f"{value:.17g}" if isinstance(value, float) else str(value))
            fh.write(",".join(cells) + "\n")


def _comments(config: RunConfig) -> list:
    return [f"config_fingerprint={config.fingerprint()}", f"otlab_version={__version__}"]


def cmd_check(config: RunConfig, out: Path, args) -> int:
    apriori = config.apriori()
    grid = config.grid()
    medium = config.medium(grid, apriori)
    k0, k0t = k_admissible_ranges(apriori.lam, apriori.cal_e, apriori.n)
    tensor = split_real_imag(medium)
    report = verify_ellipticity(tensor, apriori)
    payload = {
        **_stamp(config),
        "admissibility_violations": medium.admissibility_violations(),
        "ellipticity_violations": [list(v) for v in report.violations],
        "k": apriori.k,
        "k_admissible": is_wave_number_admissible(apriori.k, apriori.lam, apriori.cal_e, apriori.n),
        "k_ranges": {"k0": k0, "k0_tilde": k0t},
        "min_eig_K_R": float(report.min_eig_K_R.min()),
        "min_eig_K_I": float(report.min_eig_K_I.min()),
        "lower_bound_K_R": report.lower_bound_K_R,
        "lower_bound_K_I": report.lower_bound_K_I,
        "strong_ellipticity_constant": report.strong_ellipticity_constant,
        "sobolev_norm_estimates": {
            "mu_a": medium.sobolev_norm_estimate("mu_a"),
            "mu_s": medium.sobolev_norm_estimate("mu_s"),
            "bound_E": apriori.E,
            "note": "grid approximation of the W^{1,p} norm",
        },
    }
    _write_json(out / "check_report.json", payload)
    ok = not medium.admissibility_violations() and report.admissible
    print(f"check: {'admissible' if ok else 'VIOLATIONS FOUND'}; k0={k0:.6g}, k0_tilde={k0t:.6g}")
    return 0 if ok else 3


def cmd_solve(config: RunConfig, out: Path, args) -> int:
    section = dict(config.experiment("solve"))
    if args.no_reaction:
        section["no_reaction"] = True
    grid = config.grid(m_per_axis=args.grid)
    medium = config.medium(grid)
    op = assemble(medium, grid, include_reaction=not section.get("no_reaction", False))
    g_expr = Expression(str(section.get("boundary_data", "1")), dimension=3)
    g = g_expr(grid.points[op.boundary_idx]).astype(complex)
    sol = solve_dirichlet(op, g, rtol=config.rtol)
    residual = float(np.abs(apply_operator(op, sol)).max())
    payload = {
        **_stamp(config),
        "grid_m_per_axis": grid.m_per_axis,
        "include_reaction": not section.get("no_reaction", False),
        "interior_residual_sup": residual,
        "solution_sup": float(np.abs(sol.values).max()),
        "solution_l2": float(np.sqrt(np.sum(grid.volume_weights * np.abs(sol.values) ** 2))),
    }
    _write_json(out / "solve_report.json", payload)

    slice_spec = args.dump_slice or section.get("dump_slice")
    if slice_spec:
        axis_name, _, value = str(slice_spec).partition("=")
        axis = {"x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}.get(axis_name.strip())
        if axis is None:
            raise ConfigError("/experiments/solve/dump_slice", f"bad slice {slice_spec!r}")
        target = float(value)
        plane = int(np.argmin(np.abs(grid.axis - target)))
        ids = np.take(np.arange(grid.num_points).reshape((grid.m_per_axis,) * 3), plane, axis=axis)
        pts = grid.points[ids.ravel()]
        vals = sol.values[ids.ravel()]
        others = [d for d in range(3) if d != axis]
        _write_csv(
            out / "solve_slice.csv",
            _comments(config) + [f"slice axis={axis} value={grid.axis[plane]!r}"],
            {
                "u": pts[:, others[0]].tolist(),
                "v": pts[:, others[1]].tolist(),
                "re": vals.real.tolist(),
                "im": vals.imag.tolist(),
            },
        )
    print(f"solve: grid {grid.m_per_axis}^3, residual sup {residual:.3e}")
    return 0


def cmd_dn(config: RunConfig, out: Path, args) -> int:
    grid = config.grid()
    if args.load:
        dn = DNOperator.load(args.load)
        for pointer, found, wanted in (
            ("/grid", dn.grid_fingerprint, grid.fingerprint()),
            ("/medium", dn.medium_fingerprint, config.medium(grid).fingerprint()),
        ):
            if found != wanted:
                raise ConfigError(
                    pointer,
                    f"{args.load} holds a D-N map for {pointer[1:]} fingerprint {found}, "
                    f"but this config gives {wanted}",
                )
        src = f"loaded from {args.load}"
    else:
        dn = assemble_dn(config.medium(grid), grid)
        src = "assembled"
        if args.save:
            dn.save(args.save, metadata=_stamp(config))
    sym = float(np.abs(dn.matrix - dn.matrix.T).max())
    norm = sobolev_operator_norm(dn.matrix, SobolevScale.build(grid))
    payload = {
        **_stamp(config),
        "source": src,
        "boundary_dof": int(len(dn.boundary_idx)),
        "bilinear_symmetry_residual": sym,
        "operator_norm": norm,
        "medium_fingerprint": dn.medium_fingerprint,
        "grid_fingerprint": dn.grid_fingerprint,
    }
    _write_json(out / "dn_report.json", payload)
    print(f"dn: {src}, {len(dn.boundary_idx)} boundary dof, symmetry residual {sym:.3e}")
    return 0


def cmd_singular(config: RunConfig, out: Path, args) -> int:
    section = config.experiment("singular")
    m = args.m if args.m is not None else int(section.get("m", 1))
    grid = config.grid()
    r_min = float(section.get("r_min_cells", 4)) * grid.h
    r_max = float(section.get("r_max", 0.45))
    if m < 0:
        raise ConfigError("/experiments/singular", f"m must be at least 0, got {m}")
    if not r_max - r_min >= 4 * grid.h:
        raise ConfigError("/experiments/singular", f"r_max {r_max} must exceed r_min {r_min:.4g} by 4 cells")
    apriori = config.apriori()
    medium = config.medium(grid, apriori)
    center = np.zeros(3)
    idx_center = int(np.argmin(np.linalg.norm(grid.points - center, axis=1)))
    at = SingularityPoint.from_coefficients(
        center,
        float(medium.mu_a[idx_center]),
        float(medium.mu_s[idx_center]),
        medium.B[idx_center],
        apriori.k,
        apriori.n,
    )
    spec = SingularSolutionSpec(m, at)
    result = correction_w(medium, spec, r_min, r_max)

    dist = np.linalg.norm(grid.points - center, axis=1)
    sup_um = []
    for radius in result.shell_radii:
        shell = (dist >= radius / 1.3) & (dist <= radius * 1.3) & grid.interior_mask
        sup_um.append(float(np.abs(leading_term(spec, grid.points[shell])).max()))
    columns = {
        "radius": result.shell_radii.tolist(),
        "sup_um": sup_um,
        "sup_w": result.sup_w.tolist(),
        "sup_dw": result.sup_dw.tolist(),
        "sup_r_dw": result.sup_r_dw.tolist(),
    }
    comments = _comments(config) + [
        f"exponent_w={result.exponent_w:.17g}",
        f"exponent_r_dw={result.exponent_r_dw:.17g}",
        f"candidate_with_order={result.candidate_exponents['with_order']:.17g}",
        f"candidate_without_order={result.candidate_exponents['without_order']:.17g}",
    ]
    _write_csv(out / "singular_decay.csv", comments, columns)
    payload = {
        **_stamp(config),
        "order": m,
        "annulus": [r_min, r_max],
        "exponent_w": result.exponent_w,
        "exponent_r_dw": result.exponent_r_dw,
        "fit_residual": result.fit_residual,
        "flagged": result.flagged,
        "candidate_exponents": result.candidate_exponents,
    }
    _write_json(out / "singular_report.json", payload)
    svg = loglog_svg(
        [
            ("sup |u_m|", columns["radius"], columns["sup_um"]),
            ("sup |w|", columns["radius"], columns["sup_w"]),
            ("sup r|Dw|", columns["radius"], columns["sup_r_dw"]),
        ],
        title=f"singular order {m}: radial decay",
        xlabel="radius",
        ylabel="shell sup",
        guides=[
            (
                result.candidate_exponents["with_order"],
                float(result.shell_radii[0]),
                float(result.sup_w[0]),
                "2-n-m+alpha",
            )
        ],
        comments=_comments(config),
    )
    (out / "singular_decay.svg").write_text(svg)
    print(
        f"singular: m={m}, fitted |w| exponent {result.exponent_w:.3f} "
        f"(candidates {result.candidate_exponents})"
    )
    return 0


def cmd_stability(config: RunConfig, out: Path, args) -> int:
    section = dict(config.experiment("stability"))
    if args.profile_order is not None:
        section["profile_order"] = args.profile_order
    if args.derivatives is not None:
        section["h"] = args.derivatives
    if args.eps_start is not None:
        section["eps_start"] = args.eps_start
    if args.eps_count is not None:
        section["eps_count"] = args.eps_count
    h_order = int(section.get("h", 0))
    eps0 = float(section.get("eps_start", 0.2))
    count = int(section.get("eps_count", 6))
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ConfigError(
            "/experiments/stability", f"eps_start must be positive and finite, got {eps0}"
        )
    if count < 1:
        raise ConfigError("/experiments/stability", f"eps_count must be at least 1, got {count}")
    if not 0 <= h_order <= PerturbationSpec.smoothness:
        raise ConfigError(
            "/experiments/stability",
            f"h must lie in 0..{PerturbationSpec.smoothness} (the smoothness of the "
            f"perturbation family), got {h_order}",
        )
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.k is not None:
        overrides["k"] = args.k
    apriori = config.apriori(**overrides)
    grid = config.grid()
    medium = config.medium(grid, apriori)
    try:
        pspec = PerturbationSpec(
            medium,
            profile_order=int(section.get("profile_order", 0)),
            width=float(section.get("width", 0.3)),
            depth=float(section.get("depth", 0.4)),
        )
    except ValueError as exc:
        raise ConfigError("/experiments/stability", str(exc)) from exc
    eps = [eps0 / 2**i for i in range(count)]
    violations = [pspec.violations(e) for e in eps]
    if all(violations):
        raise ConfigError(
            "/experiments/stability",
            f"every amplitude {eps} breaks admissibility, none is left to sweep "
            f"(at eps={eps[-1]:g}: {violations[-1][0]})",
        )
    report = run_stability_experiment(pspec, h_order, eps, seed=config.seed)

    columns = report.table()
    _write_csv(out / "stability_rows.csv", _comments(config), columns)
    payload = {
        **_stamp(config),
        "alpha": report.alpha,
        "derivative_order": report.derivative_order,
        "tensor_gap_order": report.tensor_gap_order,
        "predicted_exponents": report.predicted_exponents,
        "observed_slopes": report.observed_slopes,
        "inequality_constants": report.inequality_constants,
        "violations": report.violations,
        "dropped_amplitudes": report.dropped_amplitudes,
        "skipped_boundary_samples": report.skipped_boundary_samples,
        "comparability_constant": report.comparability,
        "tau0": report.tau0,
        "base_fingerprint": report.base_fingerprint,
        "grid_fingerprint": report.grid_fingerprint,
        "seed": config.seed,
    }
    _write_json(out / "stability_report.json", payload)

    gaps = columns["dn_gap"]
    series = [("sup |mu1-mu2| on boundary", gaps, columns["sup_mu_boundary"])]
    for j in range(1, report.derivative_order + 1):
        series.append((f"sup d^{j} along nu", gaps, columns[f"sup_normal_derivative_{j}"]))
    guides = [(1.0, gaps[0], columns["sup_mu_boundary"][0], "slope 1")]
    for j in range(1, report.derivative_order + 1):
        dj = holder_exponent(report.alpha, j)
        guides.append(
            (dj, gaps[0], columns[f"sup_normal_derivative_{j}"][0], f"slope delta_{j}={dj:.3g}")
        )
    svg = loglog_svg(
        series,
        title="boundary norms against the D-N gap",
        xlabel="||L1 - L2||_*",
        ylabel="boundary sup norms",
        guides=guides,
        comments=_comments(config),
    )
    (out / "stability_loglog.svg").write_text(svg)
    slopes = ", ".join(f"{k}={v:.3f}" for k, v in report.observed_slopes.items())
    print(f"stability: {len(report.rows)} amplitudes, slopes {slopes}")
    return 0


def cmd_gegenbauer_table(config: RunConfig, out: Path, args) -> int:
    section = config.experiment("gegenbauer_table")
    max_m = args.max_m if args.max_m is not None else int(section.get("max_m", 8))
    n = args.n if args.n is not None else int(section.get("n", 3))
    try:
        GegenbauerSpec(max_m, n)
    except ValueError as exc:
        raise ConfigError("/experiments/gegenbauer_table", str(exc)) from None
    rows = coefficient_table(max_m, n)
    endpoint = [float(endpoint_values(GegenbauerSpec(m, n))[0]) for m in range(max_m + 1)]
    _write_csv(
        out / "gegenbauer_coefficients.csv",
        _comments(config) + [f"order=(n-2)/2 with n={n}"],
        {
            "degree": [r[0] for r in rows],
            "power_of_2z": [r[1] for r in rows],
            "coefficient": [r[2] for r in rows],
        },
    )
    _write_csv(
        out / "gegenbauer_endpoints.csv",
        _comments(config),
        {"degree": list(range(max_m + 1)), "value_at_one": endpoint},
    )
    print(f"gegenbauer-table: degrees 0..{max_m}, dimension {n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration (bundled default if omitted)")
    common.add_argument("--out", default="otlab_out", help="output directory")
    common.add_argument("--seed", type=int, help="override the config seed")
    parser = argparse.ArgumentParser(
        prog="otlab",
        description="Numerical laboratory for time-harmonic diffuse optical tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common], help="admissibility and ellipticity audit")

    p_solve = sub.add_parser("solve", parents=[common], help="one Dirichlet solve")
    p_solve.add_argument("--grid", type=int, help="points per axis override")
    p_solve.add_argument("--no-reaction", action="store_true")
    p_solve.add_argument("--dump-slice", help="plane dump, e.g. z=0.0")

    p_dn = sub.add_parser("dn", parents=[common], help="assemble the Dirichlet-to-Neumann matrix")
    p_dn.add_argument("--save", help="write the operator to this .npz container")
    p_dn.add_argument("--load", help="load an operator instead of assembling")

    p_sing = sub.add_parser("singular", parents=[common], help="annulus correction decay study")
    p_sing.add_argument("--m", type=int, help="singularity order")

    p_stab = sub.add_parser("stability", parents=[common], help="boundary stability sweep")
    p_stab.add_argument("--profile-order", type=int, dest="profile_order")
    p_stab.add_argument("--h", type=int, dest="derivatives", help="highest derivative order")
    p_stab.add_argument("--alpha", type=float)
    p_stab.add_argument("--eps-start", type=float, dest="eps_start")
    p_stab.add_argument("--eps-count", type=int, dest="eps_count")
    p_stab.add_argument("--k", type=float)

    p_geg = sub.add_parser(
        "gegenbauer-table", parents=[common], help="dump polynomial coefficient tables"
    )
    p_geg.add_argument("--max-m", type=int, dest="max_m")
    p_geg.add_argument("--n", type=int)
    return parser


COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "dn": cmd_dn,
    "singular": cmd_singular,
    "stability": cmd_stability,
    "gegenbauer-table": cmd_gegenbauer_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config.raw["seed"] = args.seed
            config.seed = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OtlabError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
