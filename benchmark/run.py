#!/usr/bin/env python3
"""otlab benchmark: three workloads, each operation in a fresh interpreter.

    python3 benchmark/run.py --workload sweep_m17 --seed 0 --seconds 12 --trace 0

Run from the repository root.  The run generates the workload's inputs from
the seed, starts one set-up-only interpreter to warm the bytecode and page
caches and five more to time set-up, then runs whole rounds of operations
until ``--seconds`` have passed (at least one round).  Each operation is a
child process (``ops.py``) that imports otlab, times its call into otlab
and reports its set-up time, wall time and peak RSS; every operation's
outputs are checked here.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
operations with ``--trace 1``.  Result and trace files go to
``.bench_out/`` under the repository root.  See README.md in this directory
for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
# set-up-only launches per run, on top of the operations: set-up is under a
# second and dominated by imports, so it needs many samples for a steady median
SETUP_PROBES = 5

# Every child gets one BLAS thread: with OpenBLAS's default of two threads
# the sweep spends about twice its wall time as CPU time for no wall-time
# gain, and one thread keeps runs on a shared 2-core machine steady.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# --- inputs from the seed ---------------------------------------------------


def sweep_inputs(rng: random.Random) -> dict:
    """The bundled config with three amplitudes and a seeded smooth background.

    The background absorption 1 + a sin(w1 x1 + w2 x2 + phase) keeps the
    grid, the patch and every solve the same size for every seed.
    """
    config = json.loads((SRC / "otlab" / "data" / "default_config.json").read_text())
    a, w1, w2 = rng.uniform(0.02, 0.1), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    config["medium"]["mu_a"] = f"1 + {a:.6f}*sin({w1:.6f}*x1 + {w2:.6f}*x2 + {phase:.6f})"
    config["experiments"]["stability"].update(eps_start=0.2, eps_count=3, profile_order=0, h=0)
    config["threads"] = 1
    return {"config": config}


def convergence_inputs(rng: random.Random) -> dict:
    return {"grids": [17, 21, 25], "k": rng.uniform(0.5, 1.5)}


def singular_inputs(rng: random.Random) -> dict:
    """Seeded wave number and probe ray; the ray keeps |cos| >= 0.6 to the pole
    axis of the Y_1 source, so the potential never nears a nodal plane."""
    z = rng.uniform(0.6, 0.9)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rho = math.sqrt(1.0 - z * z)
    return {
        "grid": 25,
        "orders": [0, 1],
        "s": [4.5, 5.25],
        "k": rng.uniform(0.06, 0.18),
        "direction": [rho * math.cos(phi), rho * math.sin(phi), z],
    }


# --- output checks ------------------------------------------------------------


def _read_rows(out: Path) -> dict:
    with open(out / "stability_rows.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {key: [float(r[key]) for r in rows] for key in ("eps", "dn_gap", "sup_mu_boundary")}


def check_sweep(outputs: dict, out: Path) -> list:
    if outputs["exit_code"] != 0:
        return [f"otlab stability exited {outputs['exit_code']}"]
    rows = _read_rows(out)
    report = json.loads((out / "stability_report.json").read_text())
    eps, gap, sup_mu = rows["eps"], rows["dn_gap"], rows["sup_mu_boundary"]
    problems = []
    if eps != sorted(eps, reverse=True) or len(eps) != 3:
        problems.append(f"expected three descending amplitudes, got {eps}")
    if not all(a > b for a, b in zip(gap, gap[1:])):
        problems.append(f"D-N gaps do not strictly decrease with eps: {gap}")
    slope = report["observed_slopes"]["boundary_values"]
    if not abs(slope - 1.0) <= 0.15:
        problems.append(f"boundary-value slope {slope} outside 1 +- 0.15")
    if not sup_mu[-1] / gap[-1] <= 2.0 * sup_mu[0] / gap[0]:
        problems.append("sup|mu1-mu2| / gap at the smallest amplitude exceeds twice the largest")
    return problems


def check_convergence(outputs: dict, out: Path) -> list:
    logs_h = [math.log(h) for h in outputs["h"]]
    logs_e = [math.log(e) for e in outputs["sup_error"]]
    order = statistics.linear_regression(logs_h, logs_e).slope
    if not abs(order - 2.0) <= 0.2:
        return [f"observed order {order} outside 2 +- 0.2 (errors {outputs['sup_error']})"]
    return []


def check_singular(outputs: dict, out: Path) -> list:
    problems = []
    for fit in outputs["potential"]:
        if not abs(fit["exponent"] - (2.0 - fit["s"])) <= 0.1:
            problems.append(f"potential exponent {fit['exponent']} at s={fit['s']} not within 0.1 of 2-s")
    for fit in outputs["annulus"]:
        if not fit["exponent"] >= fit["with_order"] - 0.15:
            problems.append(
                f"annulus exponent {fit['exponent']} at order {fit['order']} below "
                f"{fit['with_order']} - 0.15"
            )
    return problems


SWEEP_FILES = ("stability_rows.csv", "stability_report.json", "stability_loglog.svg")


def compare_reports(round_ops: list):
    """The sweep reports of every operation in a round match the first's byte for byte."""
    first = round_ops[0]
    for op in round_ops[1:]:
        if first["problems"] or op["problems"]:
            continue
        for name in SWEEP_FILES:
            if (first["out"] / name).read_bytes() != (op["out"] / name).read_bytes():
                op["problems"].append(f"{name} differs between two operations")


def check_svd_gap(op: dict, svd: dict | None):
    """The operation's largest-amplitude gap matches the dense-SVD value to 1e-6."""
    if svd is None:
        op["problems"].append("dense SVD cross-check exited with an error")
        return
    gap = _read_rows(op["out"])["dn_gap"][0]
    ref = svd["outputs"]["svd_gap"]
    if not abs(gap - ref) <= 1e-6 * ref:
        op["problems"].append(f"power-iteration gap {gap} vs dense SVD {ref}")

# name -> (inputs, check, operations per untraced round)
WORKLOADS = {
    "sweep_m17": (sweep_inputs, check_sweep, 2),
    "convergence_m25": (convergence_inputs, check_convergence, 1),
    "singular_m25": (singular_inputs, check_singular, 1),
}


# --- child processes --------------------------------------------------------


class Runner:
    """Starts the children of one run, each with its own output directory,
    one BLAS thread and the checkout's ``src/`` on the path."""

    def __init__(self, run_dir: Path, inputs: dict, deadline: float):
        self.run_dir = run_dir
        self.inputs = inputs
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "OTLAB_THREADS"}
        self.env.update(THREAD_ENV, PYTHONPATH=str(SRC))

    def launch(self, kind: str, trace: bool = False) -> tuple[dict | None, Path, float]:
        """Run ops.py once; returns (result or None on failure, output dir, launch time)."""
        self.count += 1
        out = self.run_dir / f"{self.count:03d}-{kind}"
        spec = {
            "kind": kind,
            "inputs": self.inputs,
            "out": str(out),
            "trace": trace,
            "result": str(out / "result.json"),
        }
        out.mkdir(parents=True)
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        launched = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "ops.py"), str(spec_path)],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        (out / "stdout.txt").write_text(proc.stdout)
        (out / "stderr.txt").write_text(proc.stderr)
        if proc.returncode != 0:
            return None, out, launched
        return json.loads((out / "result.json").read_text()), out, launched


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    make_inputs, check, per_round = WORKLOADS[workload]
    inputs = make_inputs(random.Random(f"{workload}:{seed}"))
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(run_dir, inputs, time.perf_counter() + DEADLINE_S)

    # the first launch fills the bytecode and page caches and is not timed
    if runner.launch("setup")[0] is None:
        raise RuntimeError(f"could not start otlab; see {run_dir}")
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        result, _, launched = runner.launch("setup")
        if result is not None:
            setups.append(result["t_start"] - launched)

    ops = []  # dicts: result, out, launched, traced, problems
    begin = time.perf_counter()
    while True:
        # a traced round pairs one untraced and one traced operation, so the
        # tracing overhead comes from the same run
        plan = [False, True] if trace else [False] * per_round
        round_ops = []
        for traced in plan:
            result, out, launched = runner.launch(workload, trace=traced)
            op = {"result": result, "out": out, "launched": launched, "traced": traced}
            if result is None:
                op["problems"] = ["operation exited with an error"]
            else:
                op["problems"] = check(result["outputs"], out)
            round_ops.append(op)
        if workload == "sweep_m17":
            compare_reports(round_ops)
        ops.extend(round_ops)
        if time.perf_counter() - begin >= seconds:
            break

    if workload == "sweep_m17" and not ops[0]["problems"]:
        check_svd_gap(ops[0], runner.launch("svd_gap")[0])

    done = [op for op in ops if op["result"] is not None]
    failed = sum(1 for op in ops if op["problems"])
    correct = not any(op["problems"] for op in done)
    untraced = [op for op in done if not op["traced"]]
    if not untraced:
        raise RuntimeError(f"no operation completed; see {run_dir}")
    op_s = statistics.median(op["result"]["op_s"] for op in untraced)
    setups += [op["result"]["t_start"] - op["launched"] for op in untraced]

    if not trace:
        metrics = {
            "op_s.p50": (op_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(op["result"]["peak_rss_mb"] for op in untraced), "MB"),
        }
    else:
        traced = [op for op in done if op["traced"]]
        if not traced:
            raise RuntimeError(f"no traced operation completed; see {run_dir}")
        per_op = [
            tracer.layer_metrics(op["result"]["spans"], op["result"]["counts"], op["result"]["op_s"])
            for op in traced
        ]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_op), unit)
            for name, (_, unit) in per_op[0].items()
        }
        traced_s = statistics.median(op["result"]["op_s"] for op in traced)
        metrics["trace.overhead_s"] = (traced_s - op_s, "s")
        (run_dir / "trace.json").write_text(
            json.dumps(
                [{"op_s": op["result"]["op_s"], "spans": op["result"]["spans"]} for op in traced],
                indent=1,
            )
        )

    summary = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    problems = {op["out"].name: op["problems"] for op in ops if op["problems"]}
    samples = {"setup_s": setups, "op_s": [op["result"]["op_s"] for op in untraced]}
    (run_dir / "result.json").write_text(
        json.dumps({**summary, "problems": problems, "samples": samples}, indent=1)
    )
    for name, found in problems.items():
        print(f"{name}: {'; '.join(found)}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "otlab" / "__init__.py").is_file():
        print(f"otlab sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
