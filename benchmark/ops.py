"""One benchmark operation in a fresh interpreter.

    python3 benchmark/ops.py SPEC.json

SPEC is written by ``run.py``.  It names the operation kind (a workload,
``setup`` to stop where an operation would start, or ``svd_gap``), the inputs
generated from the seed, an output directory, whether to trace, and the
file the result goes to.  The result holds the perf_counter time at which
the operation started (so the parent can measure set-up from launch), the
operation's wall time, the process's peak RSS at the end of the operation,
the outputs the parent checks and, when traced, the spans.  For reading the
noise of a run it also records the operation's CPU time and the machine's
CPU steal time during the operation; neither is a reported metric.

Everything after the timed call (error norms, writing the result) happens
after the peak RSS is read, so it changes no reported figure.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

import otlab.cli
from otlab import dnmap, stability
from otlab.grid import GridDomain
from otlab.medium import AprioriData, OpticalMedium

import tracer


def _steal_s() -> float | None:
    """Machine-wide CPU steal time so far, from /proc/stat (None where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# --- the operations -------------------------------------------------------


def op_sweep(inputs: dict, out: Path):
    """`otlab stability` on the generated config, as the console script runs it."""
    return otlab.cli.main(["stability", "--config", str(out / "config.json"), "--out", str(out)])


def op_convergence(inputs: dict, out: Path):
    """The manufactured-solution ladder of scripts/run_convergence_study.py."""
    k = inputs["k"]
    apriori = AprioriData(n=3, p=4.0, lam=1.0, E=10.0, cal_e=1.0, k=k, alpha=0.2)
    kappa = 1.0 / (3.0 * (2.0 - 1j * k))
    solutions = []
    for m in inputs["grids"]:
        grid = GridDomain(extent=1.0, m_per_axis=m)
        med = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
        op = otlab.solver.assemble(med, grid)
        pts = grid.points
        e = np.exp(pts[:, 0] + pts[:, 1])
        u = e * (1.0 + 1j * np.cos(pts[:, 2]))
        lap = e * (2.0 + 1j * np.cos(pts[:, 2]))
        f = -kappa * lap + (1.0 - 1j * k) * u
        solutions.append((grid, otlab.solver.solve_dirichlet(op, u, f).values))
    return solutions


def _potential_source(s: float):
    def source(pts):
        r = np.linalg.norm(pts, axis=1)
        return r ** (-s) * pts[:, 2] / r

    return source


def op_singular(inputs: dict, out: Path):
    """The annulus and truncated-potential decay fits of scripts/run_singular_decay.py."""
    singular = otlab.singular
    apriori = AprioriData(n=3, p=5.0, lam=1.5, E=10.0, cal_e=1.2, k=inputs["k"], alpha=0.25)
    grid = GridDomain(extent=1.0, m_per_axis=inputs["grid"])
    medium = OpticalMedium.from_expressions(grid, apriori, mu_a="1", mu_s="1")
    at = singular.SingularityPoint.from_coefficients(np.zeros(3), 1.0, 1.0, None, apriori.k, 3)
    r_min = min(4 * grid.h, 0.45 - 4.5 * grid.h)
    annulus = []
    for m in inputs["orders"]:
        res = singular.correction_w(medium, singular.SingularSolutionSpec(m, at), r_min, 0.45)
        annulus.append((m, res.exponent_w, res.candidate_exponents["with_order"]))
    potential = []
    for s in inputs["s"]:
        fit = singular.potential_decay_fit(
            _potential_source(s),
            math.floor(s) - 3,
            [2.0**-j for j in range(5, 11)],
            1.0,
            direction=inputs["direction"],
        )
        potential.append((s, fit.exponent))
    return annulus, potential


# --- outputs for the checks, taken after the timed region -------------------


def outputs_sweep(result, inputs, out):
    return {"exit_code": result}


def outputs_convergence(result, inputs, out):
    h, sup_error = [], []
    for grid, values in result:
        pts = grid.points
        exact = np.exp(pts[:, 0] + pts[:, 1]) * (1.0 + 1j * np.cos(pts[:, 2]))
        h.append(grid.h)
        sup_error.append(float(np.abs(values - exact)[grid.interior_indices].max()))
    return {"h": h, "sup_error": sup_error}


def outputs_singular(result, inputs, out):
    annulus, potential = result
    return {
        "annulus": [{"order": m, "exponent": e, "with_order": c} for m, e, c in annulus],
        "potential": [{"s": s, "exponent": e} for s, e in potential],
    }


OPERATIONS = {
    "sweep_m17": (op_sweep, outputs_sweep),
    "convergence_m25": (op_convergence, outputs_convergence),
    "singular_m25": (op_singular, outputs_singular),
}


def _dn_matrix(medium, grid) -> np.ndarray:
    """S = A_BB - A_BI A_II^{-1} A_IB with scipy's complex LU, apart from dnmap."""
    op = otlab.solver.assemble(medium, grid)
    A, i_idx, b_idx = op.matrix, op.interior_idx, op.boundary_idx
    lu = scipy.sparse.linalg.splu(A[i_idx][:, i_idx].tocsc(), permc_spec="MMD_AT_PLUS_A")
    X = lu.solve(A[i_idx][:, b_idx].toarray())
    return A[b_idx][:, b_idx].toarray() - A[b_idx][:, i_idx] @ X


def svd_gap(inputs: dict) -> dict:
    """The largest amplitude's D-N gap from numpy's dense SVD.

    Builds both D-N matrices with a complex LU of its own, whitens their
    difference in the boundary eigenbasis with numpy and takes the largest
    singular value; the parent compares it with the power-iteration value
    in the report.
    """
    config = otlab.config.RunConfig.from_dict(inputs["config"])
    section = config.experiment("stability")
    grid = config.grid()
    base = config.medium(grid, config.apriori())
    pspec = stability.PerturbationSpec(
        base,
        profile_order=int(section["profile_order"]),
        width=float(section["width"]),
        depth=float(section["depth"]),
    )
    eps = float(section["eps_start"])
    delta = _dn_matrix(pspec.perturbed(eps), grid) - _dn_matrix(base, grid)
    scale = dnmap.SobolevScale.build(grid)
    w = (1.0 + scale.eigenvalues) ** -0.25
    V = scale.eigenvectors
    whitened = w[:, None] * (V.T @ delta @ V) * w[None, :]
    return {"eps": eps, "svd_gap": float(np.linalg.svd(whitened, compute_uv=False)[0])}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    inputs = spec["inputs"]
    kind = spec["kind"]
    if "config" in inputs:
        (out / "config.json").write_text(json.dumps(inputs["config"], indent=2, sort_keys=True))
    result = {}
    if kind == "svd_gap":
        result["outputs"] = svd_gap(inputs)
    elif kind == "setup":
        result["t_start"] = time.perf_counter()
    else:
        run, outputs = OPERATIONS[kind]
        trace = tracer.Tracer() if spec["trace"] else None
        if trace is not None:
            trace.install()
        steal0, cpu0 = _steal_s(), time.process_time()
        t0 = time.perf_counter()
        value = run(inputs, out)
        t1 = time.perf_counter()
        steal1, cpu1 = _steal_s(), time.process_time()
        result = {
            "t_start": t0,
            "op_s": t1 - t0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_cpu_s": cpu1 - cpu0,
            "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
            "outputs": outputs(value, inputs, out),
        }
        if trace is not None:
            result["spans"] = trace.spans
            result["counts"] = trace.counts
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
