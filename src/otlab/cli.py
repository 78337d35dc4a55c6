"""Command-line driver: check | solve | dn | singular | stability | gegenbauer-table.

Every run reads one JSON config (a bundled default is used when none is
given), writes its artifacts into the output directory, and embeds the
config fingerprint and module versions into every file it produces.
Each CLI flag writes the config key at the JSON pointer that is its argparse
``dest``, so ``otlab.config`` validates and fingerprints it like the file.
Exit codes: 0 success; 2 a ``ConfigError``: a bad config or flag, found
before any work and named by a JSON pointer; 3 a numerical or internal
failure, a failed allocation (``MemoryError``), or a ``check`` that finds
violations.  Every warning, such as a dropped sweep amplitude, goes to
stderr as the one line ``warning: <message>``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ConfigError, InadmissibleAmplitudeError, InadmissibleWaveNumberError, OtlabError
from .dnmap import SobolevScale, _dn_product, sobolev_operator_norm, symmetry_residual
from .expressions import Expression, ExpressionError
from .gegenbauer import MAX_DEGREE, GegenbauerSpec, coefficient_table, endpoint_values
from .medium import k_admissible_ranges, is_wave_number_admissible, split_real_imag, verify_ellipticity
from .singular import (
    POTENTIAL_DECAY_RATES,
    SingularityPoint,
    SingularSolutionSpec,
    b_vanishes_near_pole,
    correction_w,
    potential_decay_fit,
)
from .solver import apply_operator, assemble, solve_dirichlet
from .stability import PROFILE_SMOOTHNESS, PerturbationSpec, run_stability_experiment
from .svgplot import loglog_svg


def _load_config(args) -> RunConfig:
    """The validated config with each given flag written at its ``dest`` pointer, revalidated."""
    config = RunConfig.default() if args.config is None else RunConfig.from_file(args.config)
    raw = copy.deepcopy(config.raw)
    for pointer, value in vars(args).items():
        if pointer.startswith("/") and value is not None:
            *parents, key = pointer[1:].split("/")
            node = raw
            for name in parents:
                node = node.get(name) if isinstance(node, dict) else None
            if isinstance(node, dict):
                node[key] = value
    return RunConfig.from_dict(raw)


def _stamp(config: RunConfig) -> dict:
    return {
        "config_fingerprint": config.fingerprint(),
        "module_versions": {"otlab": __version__},
    }


def _write_json(path: Path, payload: dict):
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def _fitted(value: float) -> float | None:
    """A fitted number for a report: null where its series had too few
    positive points to fit (NaN)."""
    return value if math.isfinite(value) else None


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


def cmd_check(config: RunConfig, out: Path) -> int:
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
    # a failed check leaves --out as it was, so its findings go to stderr
    for line in payload["admissibility_violations"]:
        print(f"violation: {line}", file=sys.stderr)
    if report.violations:
        node, bound_name, value, bound = report.violations[0]
        print(
            f"violation: {len(report.violations)} ellipticity violations, the first "
            f"{bound_name} at node {node} ({value:.6g} against {bound:.6g})",
            file=sys.stderr,
        )
    return 0 if ok else 3


def cmd_solve(config: RunConfig, out: Path) -> int:
    section = config.experiment("solve")
    try:
        g_expr = Expression(section["boundary_data"])
    except ExpressionError as exc:
        raise ConfigError("/experiments/solve/boundary_data", str(exc)) from exc
    grid = config.grid()
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


def cmd_dn(config: RunConfig, out: Path) -> int:
    grid = config.grid()
    medium = config.medium(grid)
    product = _dn_product(assemble(medium, grid))
    nb = len(grid.boundary_indices)
    sym = symmetry_residual(product, nb)
    norm, _ = sobolev_operator_norm(product, SobolevScale.build(grid))
    payload = {
        **_stamp(config),
        "source": "assembled",
        "boundary_dof": nb,
        "bilinear_symmetry_residual": sym,
        "operator_norm": norm,
        "medium_fingerprint": medium.fingerprint(),
        "grid_fingerprint": grid.fingerprint(),
    }
    _write_json(out / "dn_report.json", payload)
    print(f"dn: assembled, {nb} boundary dof, symmetry residual {sym:.3e}")
    return 0


def _potential_decay() -> list:
    """The truncated-potential decay fit of each source |y|^-s Y_1 with s in
    ``POTENTIAL_DECAY_RATES`` and truncation order floor(s) - 3, against the
    lemma's exponent 2 - s."""
    entries = []
    for s in POTENTIAL_DECAY_RATES:
        nu = math.floor(s) - 3

        def source(pts, s=s):
            r = np.linalg.norm(pts, axis=1)
            return r ** (-s) * pts[:, 2] / r

        fit = potential_decay_fit(
            source, nu, [2.0**-j for j in range(5, 11)], 1.0, direction=(0.36, 0.48, 0.8)
        )
        entries.append({
            "s": s,
            "nu": nu,
            "exponent": float(fit.exponent),
            "expected": 2.0 - s,
            "fit_residual": float(fit.fit_residual),
            "source_exponent": float(fit.source_exponent),
        })
    return entries


def cmd_singular(config: RunConfig, out: Path) -> int:
    section = config.experiment("singular")
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
    potential = _potential_decay()
    columns = {
        "radius": result.shell_radii.tolist(),
        "sup_um": result.sup_um.tolist(),
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
        "exponent_r_dw": _fitted(result.exponent_r_dw),
        "fit_residual": result.fit_residual,
        "flagged": result.flagged,
        "candidate_exponents": result.candidate_exponents,
        "potential_decay": potential,
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
    fits = ", ".join(f"s={e['s']:g}: {e['exponent']:.3f} (2-s={e['expected']:g})" for e in potential)
    print(f"singular: potential decay exponents {fits}")
    return 0


def cmd_stability(config: RunConfig, out: Path) -> int:
    section = config.experiment("stability")
    h_order, eps0, count = section["h"], section["eps_start"], section["eps_count"]
    if eps0 <= 0.0:
        raise ConfigError(
            "/experiments/stability", f"eps_start must be positive and finite, got {eps0}"
        )
    if count < 1:
        raise ConfigError("/experiments/stability", f"eps_count must be at least 1, got {count}")
    # halving is exact down to the smallest normal float, so each amplitude is eps0 / 2**i
    if math.ldexp(eps0, 1 - count) < sys.float_info.min:
        raise ConfigError(
            "/experiments/stability",
            f"eps_count {count} halves eps_start {eps0} below the smallest normal float",
        )
    if not 0 <= h_order <= PROFILE_SMOOTHNESS:
        raise ConfigError(
            "/experiments/stability",
            f"h must lie in 0..{PROFILE_SMOOTHNESS} (the smoothness of the "
            f"perturbation family), got {h_order}",
        )
    grid = config.grid()
    medium = config.medium(grid)
    if h_order >= 1 and not medium.supp_B_interior:
        raise ConfigError("/medium/supp_B_interior", f"h = {h_order} needs supp(B) interior to the domain")
    try:
        pspec = PerturbationSpec(
            medium, profile_order=section["profile_order"], width=section["width"], depth=section["depth"]
        )
    except ValueError as exc:
        raise ConfigError("/experiments/stability", str(exc)) from exc
    if h_order < pspec.profile_order:
        raise ConfigError(
            "/experiments/stability/h",
            f"h = {h_order} is below profile_order = {pspec.profile_order}: the profile "
            f"vanishes on the boundary to order {pspec.profile_order}, so every boundary "
            f"sup up to order h is zero",
        )
    eps = [math.ldexp(eps0, -i) for i in range(count)]
    try:
        report = run_stability_experiment(pspec, h_order, eps, seed=config.seed)
    except InadmissibleAmplitudeError as exc:
        raise ConfigError("/experiments/stability", str(exc)) from exc
    except InadmissibleWaveNumberError as exc:
        raise ConfigError("/apriori/k", str(exc)) from exc

    columns = report.table()
    _write_csv(out / "stability_rows.csv", _comments(config), columns)
    fields = {name: value for name, value in vars(report).items() if name != "rows"}
    for name in ("observed_slopes", "inequality_constants"):
        fields[name] = {key: _fitted(value) for key, value in fields[name].items()}
    payload = {**_stamp(config), **fields, "seed": config.seed}
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


def cmd_gegenbauer_table(config: RunConfig, out: Path) -> int:
    section = config.experiment("gegenbauer_table")
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


class _FlagHelp(argparse.HelpFormatter):
    """Shows each flag with the config key it writes: ``--k K -> /apriori/k``."""

    def _get_default_metavar_for_optional(self, action):
        return action.dest.rsplit("/", 1)[-1].upper()

    def _format_action_invocation(self, action):
        text = super()._format_action_invocation(action)
        return f"{text} -> {action.dest}" if action.dest.startswith("/") else text


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration (bundled default if omitted)")
    common.add_argument("--out", default="otlab_out", help="output directory")
    common.add_argument("--seed", type=int, dest="/seed", help="override the config seed")
    parser = argparse.ArgumentParser(
        prog="otlab",
        description="Numerical laboratory for time-harmonic diffuse optical tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, parents=[common], formatter_class=_FlagHelp)

    command("check", help="admissibility and ellipticity audit")

    p_solve = command("solve", help="one Dirichlet solve")
    p_solve.add_argument("--grid", type=int, dest="/grid/m_per_axis", help="points per axis override")
    p_solve.add_argument(
        "--no-reaction", action="store_true", default=None, dest="/experiments/solve/no_reaction"
    )
    p_solve.add_argument("--dump-slice", dest="/experiments/solve/dump_slice", help="plane dump, e.g. z=0.0")

    command("dn", help="norm and symmetry of the Dirichlet-to-Neumann map")

    p_sing = command("singular", help="annulus correction and truncated-potential decay studies")
    p_sing.add_argument("--m", type=int, dest="/experiments/singular/m", help="singularity order")

    p_stab = command("stability", help="boundary stability sweep")
    p_stab.add_argument("--profile-order", type=int, dest="/experiments/stability/profile_order")
    p_stab.add_argument("--h", type=int, dest="/experiments/stability/h", help="highest derivative order")
    p_stab.add_argument("--alpha", type=float, dest="/apriori/alpha")
    p_stab.add_argument("--eps-start", type=float, dest="/experiments/stability/eps_start")
    p_stab.add_argument("--eps-count", type=int, dest="/experiments/stability/eps_count")
    p_stab.add_argument("--k", type=float, dest="/apriori/k")

    p_geg = command("gegenbauer-table", help="dump polynomial coefficient tables")
    p_geg.add_argument("--max-m", type=int, dest="/experiments/gegenbauer_table/max_m")
    p_geg.add_argument("--n", type=int, dest="/experiments/gegenbauer_table/n")
    return parser


COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "dn": cmd_dn,
    "singular": cmd_singular,
    "stability": cmd_stability,
    "gegenbauer-table": cmd_gegenbauer_table,
}


def _run_into(command, config: RunConfig, out: Path) -> int:
    """Run ``command`` into a temporary directory beside ``out`` and move its
    files into ``out`` only when it exits 0: a run that exits 2 or 3, or
    raises, leaves ``out`` as it was."""
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out.name}-", dir=out.parent) as tmp:
        code = command(config, Path(tmp))
        if code == 0:
            out.mkdir(exist_ok=True)
            for path in sorted(Path(tmp).iterdir()):
                path.replace(out / path.name)
        return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}", file=sys.stderr)
        try:
            config = _load_config(args)
            return _run_into(COMMANDS[args.command], config, Path(args.out))
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except (OtlabError, ValueError, ArithmeticError) as exc:
            print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:
            print(f"out of memory (MemoryError): {str(exc) or 'an allocation failed'}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
