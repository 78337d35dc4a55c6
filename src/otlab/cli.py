"""Command-line driver: check | solve | dn | singular | stability | gegenbauer-table.

Every run reads one JSON config (a bundled default is used when none is
given), writes its artifacts into the output directory, and embeds the
config fingerprint and module versions into every file it produces.
User input is typed in ``otlab.config`` (``RunConfig.experiment`` takes the
CLI flags as overrides, ``RunConfig.load_dn`` reads ``--load`` files).
Exit codes: 0 success; 2 a ``ConfigError``: a bad config, flag or ``--load``
file, found before any work and named by a JSON pointer (or ``--load``);
3 a numerical or internal failure, or a ``check`` that finds violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ConfigError, OtlabError
from .dnmap import SobolevScale, _dn_product, assemble_dn, sobolev_operator_norm, symmetry_residual
from .expressions import Expression, ExpressionError
from .gegenbauer import MAX_DEGREE, GegenbauerSpec, coefficient_table, endpoint_values
from .medium import k_admissible_ranges, is_wave_number_admissible, split_real_imag, verify_ellipticity
from .singular import (
    SingularityPoint, SingularSolutionSpec, b_vanishes_near_pole, correction_w, leading_term
)
from .solver import apply_operator, assemble, solve_dirichlet
from .stability import PerturbationSpec, run_stability_experiment
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
    ok = not payload["admissibility_violations"] and report.admissible
    print(f"check: {'admissible' if ok else 'VIOLATIONS FOUND'}; k0={k0:.6g}, k0_tilde={k0t:.6g}")
    return 0 if ok else 3


def cmd_solve(config: RunConfig, out: Path, args) -> int:
    section = config.experiment("solve", no_reaction=args.no_reaction, dump_slice=args.dump_slice)
    try:
        g_expr = Expression(section["boundary_data"])
    except ExpressionError as exc:
        raise ConfigError("/experiments/solve/boundary_data", str(exc)) from exc
    grid = config.grid(m_per_axis=args.grid)
    slice_spec = section["dump_slice"]
    if slice_spec:
        axis_name, _, value = slice_spec.partition("=")
        axis = {"x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}.get(axis_name.strip())
        try:
            target = float(value)
        except ValueError:
            axis = None
        if axis is None:
            raise ConfigError("/experiments/solve/dump_slice", f"bad slice {slice_spec!r}")
        half = grid.extent / 2
        if not -half <= target <= half:  # also rejects nan and inf
            raise ConfigError(
                "/experiments/solve/dump_slice",
                f"slice value must lie in the cube's [-{half:g}, {half:g}], got {value.strip()}",
            )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = g_expr(grid.points[grid.boundary_indices]).astype(complex)
    if not np.isfinite(g).all():
        raise ConfigError("/experiments/solve/boundary_data", "not finite on the boundary")
    medium = config.medium(grid)
    op = assemble(medium, grid, include_reaction=not section["no_reaction"])
    sol = solve_dirichlet(op, g, rtol=config.rtol)
    residual = float(np.abs(apply_operator(op, sol)).max())
    payload = {
        **_stamp(config),
        "grid_m_per_axis": grid.m_per_axis,
        "include_reaction": not section["no_reaction"],
        "interior_residual_sup": residual,
        "solution_sup": float(np.abs(sol.values).max()),
        "solution_l2": float(np.sqrt(np.sum(grid.volume_weights * np.abs(sol.values) ** 2))),
    }
    _write_json(out / "solve_report.json", payload)

    if slice_spec:
        plane = int(np.argmin(np.abs(grid.axis - target)))
        ids = np.take(np.arange(grid.num_points).reshape((grid.m_per_axis,) * 3), plane, axis=axis)
        pts = grid.points[ids.ravel()]
        vals = sol.values[ids.ravel()]
        others = [d for d in range(3) if d != axis]
        _write_csv(
            out / "solve_slice.csv",
            _comments(config) + [f"slice axis={axis} value={float(grid.axis[plane])!r}"],
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
    medium = config.medium(grid)
    if args.load:
        matrix = config.load_dn(args.load).matrix
        product, src = (lambda f: matrix @ f), f"loaded from {args.load}"
    else:
        op = assemble(medium, grid)
        product, src = _dn_product(op), "assembled"
        if args.save:
            assemble_dn(medium, grid, operator=op).save(args.save, metadata=_stamp(config))
    nb = len(grid.boundary_indices)
    sym = symmetry_residual(product, nb)
    norm, _ = sobolev_operator_norm(product, SobolevScale.build(grid))
    payload = {
        **_stamp(config),
        "source": src,
        "boundary_dof": nb,
        "bilinear_symmetry_residual": sym,
        "operator_norm": norm,
        "medium_fingerprint": medium.fingerprint(),
        "grid_fingerprint": grid.fingerprint(),
    }
    _write_json(out / "dn_report.json", payload)
    print(f"dn: {src}, {nb} boundary dof, symmetry residual {sym:.3e}")
    return 0


def cmd_singular(config: RunConfig, out: Path, args) -> int:
    section = config.experiment("singular", m=args.m)
    m, r_max = section["m"], section["r_max"]
    grid = config.grid()
    r_min = section["r_min_cells"] * grid.h
    where = "/experiments/singular"
    if not 0 <= m <= MAX_DEGREE:
        raise ConfigError(where, f"m must be at least 0 and at most {MAX_DEGREE}, got {m}")
    if r_min <= 0:
        raise ConfigError(where, f"r_min_cells must be positive, got {section['r_min_cells']}")
    if r_max > grid.extent / 2:
        raise ConfigError(where, f"r_max {r_max} exceeds the cube's half extent {grid.extent / 2}")
    if r_max - r_min < 4 * grid.h:
        raise ConfigError(where, f"r_max {r_max} must exceed r_min {r_min:.4g} by 4 cells")
    apriori = config.apriori()
    medium = config.medium(grid, apriori)
    center = np.zeros(3)
    if not b_vanishes_near_pole(medium, center, r_min):
        raise ConfigError("/medium/B", f"B must vanish within {r_min + 2 * grid.h:.4g} of the pole")
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
    section = config.experiment(
        "stability",
        profile_order=args.profile_order, h=args.h, eps_start=args.eps_start, eps_count=args.eps_count,
    )
    h_order, eps0, count = section["h"], section["eps_start"], section["eps_count"]
    if eps0 <= 0.0:
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
    apriori = config.apriori(alpha=args.alpha, k=args.k)
    grid = config.grid()
    medium = config.medium(grid, apriori)
    if h_order >= 1 and not medium.supp_B_interior:
        raise ConfigError("/medium/supp_B_interior", f"h = {h_order} needs supp(B) interior to the domain")
    try:
        pspec = PerturbationSpec(
            medium, profile_order=section["profile_order"], width=section["width"], depth=section["depth"]
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
    guides = [(1.0, gaps[0], columns["sup_mu_boundary"][0], "slope 1")]
    for j, dj in enumerate(report.predicted_exponents[1:], start=1):
        sups = columns[f"sup_normal_derivative_{j}"]
        series.append((f"sup d^{j} along nu", gaps, sups))
        guides.append((dj, gaps[0], sups[0], f"slope delta_{j}={dj:.3g}"))
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
    section = config.experiment("gegenbauer_table", max_m=args.max_m, n=args.n)
    max_m, n = section["max_m"], section["n"]
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
    p_solve.add_argument("--no-reaction", action="store_true", default=None)
    p_solve.add_argument("--dump-slice", help="plane dump, e.g. z=0.0")

    p_dn = sub.add_parser("dn", parents=[common], help="norm and symmetry of the Dirichlet-to-Neumann map")
    p_dn.add_argument("--save", help="write the operator to this .npz container")
    p_dn.add_argument("--load", help="load an operator instead of assembling")

    p_sing = sub.add_parser("singular", parents=[common], help="annulus correction decay study")
    p_sing.add_argument("--m", type=int, help="singularity order")

    p_stab = sub.add_parser("stability", parents=[common], help="boundary stability sweep")
    p_stab.add_argument("--profile-order", type=int, dest="profile_order")
    p_stab.add_argument("--h", type=int, help="highest derivative order")
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
    except (OtlabError, ValueError) as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
