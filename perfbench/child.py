"""One benchmark process: set up a workload, warm up, run its jobs, report.

`run.py` starts this file in a fresh single-threaded interpreter and reads
the JSON object it prints as its last line. Modes:

    setup   import djcm, build the job list and its config files, report
            the moment that finished (`ready`, on the monotonic clock), exit
    run     setup, one untimed warm-up job, then the closed loop for
            --seconds under a host-speed sampler (reference.py); with
            --trace 1 whole passes over the job list alternate between
            untraced and traced, and no sampler runs
    smoke   setup and exactly one traced pass, no warm-up
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import djcm
    import djcm.cli  # noqa: F401  (the CLI is a traced layer; load it before patching)

    where = Path(djcm.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"djcm was imported from {where}, not from {src}")
    return djcm


def _environment(djcm) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "djcm": djcm.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Runner:
    """Runs jobs, times them, gates their output and keeps the records."""

    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer
        self.sampler = None  # a reference.Sampler while one runs
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def job(self, job, *, traced: bool, pass_index: int, timed: bool = True) -> float:
        fn = self.work.runner(job)
        index = len(self.records)
        if traced:
            self.tracer.install()
        busy = self.sampler.busy_s if self.sampler else 0.0
        start = time.perf_counter()
        try:
            result = self.tracer.run_job(index, job.name, fn) if traced else fn()
            error = None
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            result, error = None, f"{job.name}: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if self.sampler:
            seconds -= self.sampler.busy_s - busy  # probes that ran inside the job
        if traced:
            self.tracer.uninstall()
        if error is None:
            try:
                problems = self.work.check(job, result)
            except Exception as exc:
                problems = [f"{job.name}: gate raised {type(exc).__name__}: {exc}"]
                traceback.print_exc()
        else:
            problems = [error]
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += problems
        if timed:
            self.records.append(
                {"job": job.name, "seconds": seconds, "traced": traced, "pass": pass_index, "ok": not problems}
            )
        return seconds


def _closed_loop(runner: Runner, jobs, seconds: float) -> None:
    """Untraced jobs round-robin until the next one would overrun `seconds`.

    The first pass over the job list always completes, so every job has
    at least one timing.
    """
    last: dict[str, float] = {}
    start = time.perf_counter()
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        expected = last.get(job.name, statistics.fmean(last.values()) if last else 0.0)
        if i >= len(jobs) and time.perf_counter() - start + expected > seconds:
            return
        last[job.name] = runner.job(job, traced=False, pass_index=i // len(jobs))
        i += 1


def _traced_passes(runner: Runner, jobs, seconds: float) -> int:
    """Whole passes alternating untraced/traced; at least one of each."""
    start = time.perf_counter()
    pass_time = {False: 0.0, True: 0.0}
    p = traced_passes = 0
    while True:
        traced = p % 2 == 1
        if p >= 2 and time.perf_counter() - start + pass_time[traced] > seconds:
            return traced_passes
        pass_time[traced] = sum(runner.job(job, traced=traced, pass_index=p) for job in jobs)
        if traced:
            runner.tracer.end_pass()
            traced_passes += 1
        p += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "smoke"), required=True)
    args = parser.parse_args(argv)

    djcm = _import_program(args.root)
    import tracing
    import workloads

    workdir = args.root / "perfbench" / "out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work = workloads.Workload(args.workload, args.seed, workdir)
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        import reference  # after `ready`: its import runs the kernel once as a warm-up

        tracer = tracing.Tracer()
        runner = Runner(work, tracer)
        jobs = work.jobs
        warmup_s = None
        traced_passes = 0
        probes: list[float] = []
        if args.mode == "smoke":
            for job in jobs:
                runner.job(job, traced=True, pass_index=0)
            tracer.end_pass()
            traced_passes = 1
        else:
            warmup_s = runner.job(jobs[0], traced=False, pass_index=-1, timed=False)
            if args.trace:
                traced_passes = _traced_passes(runner, jobs, args.seconds)
            else:
                with reference.Sampler() as runner.sampler:
                    _closed_loop(runner, jobs, args.seconds)
                probes, runner.sampler = runner.sampler.samples, None

        report = {
            "ready": ready,
            "nominal_s": reference.NOMINAL_S,
            "run_probes": len(probes),
            "run_probe_p50_s": statistics.median(probes) if probes else None,
            "warmup_s": warmup_s,
            "jobs": runner.records,
            "samples": {job.name: job.samples for job in jobs},
            "job_order": [job.name for job in jobs],
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "inputs": workloads.describe(jobs),
            "env": _environment(djcm),
        }
        if traced_passes:
            report["traced_passes"] = traced_passes
            report["trace"] = tracer.summary()
            spans = args.root / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write_spans(spans)
            report["spans_file"] = str(spans.relative_to(args.root))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
