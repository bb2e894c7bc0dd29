#!/usr/bin/env python3
"""Benchmark of the djcm package: three seeded closed-loop workloads.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload trajectory --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke              # every workload, one traced pass

With --trace 0 the last line of standard output is the end-to-end result,
with --trace 1 the per-layer result; both are one JSON object with keys
correct, attempted, failed and metrics. The line before it names the
chosen inputs and the details file under perfbench/out/. Workloads,
metrics and their meaning are described in perfbench/README.md.

Standard library only; the measured process needs numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

WORKLOADS = ("trajectory", "purity_sweep", "validate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # each workload runs single-threaded; nproc is recorded alongside
SETUP_RUNS = 5  # setup_s is the median over this many fresh processes (the last one runs the jobs)
RUN_DEADLINE_S = 170.0  # the whole run, set-up processes included
WARMUP_POLICY = "one untimed, gated run of the workload's first job after set-up; its time is reported as warmup_s"

# (metric, unit): every name here is also in BENCHMARK.json's per_layer list
CALL_METRICS = (
    "propagator.coefficients",
    "evolution.propagate_pair",
    "evolution.min_eigenvalue",
    "states.initial_state",
    "states.reduce_all",
    "states.reduce",
    "entanglement.concurrence",
)
SELF_S_METRICS = (
    "integrate.integrate_pair",
    "integrate.integrate_single",
    "scenarios.evolve_concurrences",
    "scenarios.write_csv",
    "scenarios.transient_entanglement_threshold",
    "scenarios.validation_report",
    "cli.main",
)
RATES = (
    "propagator.decay_rate_minus",
    "propagator.decay_rate_plus",
    "propagator.integrated_rate_minus",
    "propagator.integrated_rate_plus",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child imports djcm from ./src only
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def _spawn(workload: str, seed: int, mode: str, seconds: float, trace: int, timeout: float):
    """Run child.py once; return (its JSON report, the monotonic time it was spawned)."""
    cmd = [
        sys.executable, str(CHILD), "--root", str(ROOT), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} process for {workload} printed nothing")
    return json.loads(lines[-1]), spawned


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


# -- metrics --------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 jobs beyond it: (value, percentile, jobs beyond).

    With 10 jobs or fewer no such percentile exists; the maximum is
    reported, with 0 jobs beyond it.
    """
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _medians(jobs: list[dict], traced: bool, scale: float = 1.0) -> dict[str, float]:
    by_job: dict[str, list[float]] = {}
    for rec in jobs:
        if rec["traced"] == traced:
            by_job.setdefault(rec["job"], []).append(rec["seconds"] * scale)
    return {name: statistics.median(v) for name, v in by_job.items()}


def end_to_end(report: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run; `setup` holds wall set-up times.

    Every time is in seconds at the nominal host speed: wall times are
    scaled by the run's median reference probe (reference.py). The
    set-up processes ran in the seconds just before the timed loop.
    """
    scale = report["nominal_s"] / report["run_probe_p50_s"]
    times = [rec["seconds"] * scale for rec in report["jobs"]]
    medians = _medians(report["jobs"], traced=False, scale=scale)
    order = report["job_order"]
    # one pass over the job list at each job's median time
    pass_s = sum(medians[name] for name in order)
    samples = sum(report["samples"][name] for name in order)
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "samples_per_s": (samples / pass_s, "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    details = {
        "jobs_timed": len(times),
        "job_tail_percentile": tail_pct,
        "job_tail_jobs_beyond": beyond,
        "job_median_s": medians,
        "samples_per_pass": samples,
        "wall_job_p50_s": statistics.median(rec["seconds"] for rec in report["jobs"]),
        "probes": report["run_probes"],
        "probe_p50_s": report["run_probe_p50_s"],
        "nominal_probe_s": report["nominal_s"],
        "speed_scale": scale,
    }
    return metrics, details


def per_layer(report: dict) -> dict:
    """Per-layer metrics of a traced run, per traced pass over the job list."""
    stats = report["trace"]["stats"]
    counters = report["trace"]["counters"]
    passes = report["traced_passes"]

    def get(name):
        return stats.get(name, [0, 0.0, 0.0])

    def per_call_us(self_s, calls):
        return 1e6 * self_s / calls if calls else 0.0

    metrics = {}
    for name in CALL_METRICS:
        calls, self_s, _ = get(name)
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_us"] = (per_call_us(self_s, calls), "us")
    rate_calls = sum(get(name)[0] for name in RATES)
    metrics["propagator.rates.calls"] = (rate_calls / passes, "count")
    metrics["propagator.rates.self_s"] = (sum(get(name)[1] for name in RATES) / passes, "s")
    for name in SELF_S_METRICS:
        metrics[f"{name}.self_s"] = (get(name)[1] / passes, "s")
    calls, self_s, _ = get("integrate.rate_from_spectral_density")
    metrics["integrate.rate_from_spectral_density.calls"] = (calls / passes, "count")
    metrics["integrate.rate_from_spectral_density.self_s"] = (self_s / passes, "s")

    points = counters["evolution.distinct_points"]
    pair_calls = get("evolution.propagate_pair")[0]
    metrics["evolution.propagations_per_sample"] = (pair_calls / points if points else 0.0, "ratio")
    steps = counters["integrate.rk4_steps"]
    rk4_s = get("integrate.integrate_pair")[2] + get("integrate.integrate_single")[2]
    metrics["integrate.rk4_steps"] = (steps / passes, "count")
    metrics["integrate.us_per_rk4_step"] = (per_call_us(rk4_s, steps), "us")
    metrics["scenarios.write_csv.bytes"] = (counters["scenarios.write_csv.bytes"] / passes, "bytes")

    traced = _medians(report["jobs"], traced=True)
    untraced = _medians(report["jobs"], traced=False)
    if traced and untraced:
        order = report["job_order"]
        ratio = sum(traced[n] for n in order) / sum(untraced[n] for n in order)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def _result(report: dict, metrics: dict) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# -- modes ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = []
    for i in range(SETUP_RUNS):
        mode = "run" if i == SETUP_RUNS - 1 else "setup"
        report, spawned = _spawn(workload, seed, mode, seconds, trace, deadline - time.monotonic())
        setup.append(report["ready"] - spawned)

    if trace:
        metrics, details = per_layer(report), {}
    else:
        metrics, details = end_to_end(report, setup)
    result = _result(report, metrics)
    OUT.mkdir(exist_ok=True)
    details_path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": report["inputs"],
        "result": result,
        "details": details,
        "setup_wall_s": setup,
        "warmup_s": report["warmup_s"],
        "jobs": report["jobs"],
        "failures": report["failures"],
        "env": {
            **report["env"], **_git_state(), "warmup_policy": WARMUP_POLICY, "setup_runs": SETUP_RUNS,
        },
        "spans_file": report.get("spans_file"),
    }
    details_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in report["failures"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "inputs": report["inputs"],
                      "details": str(details_path.relative_to(ROOT))}))
    return result


def smoke(workloads: tuple[str, ...], seed: int) -> dict:
    """One traced pass per workload: every job runs once and is gated."""
    attempted = failed = 0
    for workload in workloads:
        report, _ = _spawn(workload, seed, "smoke", 0, 1, RUN_DEADLINE_S)
        result = _result(report, per_layer(report))
        attempted += result["attempted"]
        failed += result["failed"]
        for problem in report["failures"]:
            print(f"gate: {problem}", file=sys.stderr)
        print(json.dumps({"workload": workload, **result}))
    fail_ratio = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"fail_ratio": {"value": fail_ratio, "unit": "ratio"}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one traced pass of every workload (or of --workload)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "djcm" / "__init__.py").is_file():
        print(f"error: no djcm sources under {ROOT / 'src'}; run from a djcm checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            result = smoke((args.workload,) if args.workload else WORKLOADS, args.seed)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        elif args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        else:
            result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
