"""Tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py          # about a minute

Checks that traced call counts at seed 0 repeat exactly and equal what
the job lists imply, that the smoke mode gates every job with no
failure, that seeds give reproducible inputs with seed 0 equal to the
presets, that the gates reject broken output, that the host-speed
sampler probes in the middle of running code, that the reported metric
names are exactly those in BENCHMARK.json, and that the benchmark fails
cleanly in a directory without the djcm sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from djcm.scenarios import ScenarioConfig, config_to_dict, preset_config  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke() -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"smoke run exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1]["metrics"]["fail_ratio"]["value"] == 0.0, lines[-1]
    return {line["workload"]: line for line in lines[:-1]}


class SmokeCounts(unittest.TestCase):
    """Two smoke runs at seed 0: every job passes and the counts repeat exactly."""

    @classmethod
    def setUpClass(cls):
        cls.first = smoke()
        cls.second = smoke()

    def counts(self, runs, workload):
        metrics = runs[workload]["metrics"]
        return {
            name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls", ".bytes", "rk4_steps", "per_sample"))
        }

    def test_every_workload_passes(self):
        self.assertEqual(set(self.first), set(workloads.WORKLOADS))
        for runs in (self.first, self.second):
            for workload, line in runs.items():
                self.assertTrue(line["correct"], workload)
                self.assertEqual(line["failed"], 0, workload)
                self.assertEqual(line["attempted"], len(workloads.build_jobs(workload, 0)), workload)

    def test_counts_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(self.counts(self.first, workload), self.counts(self.second, workload), workload)

    def test_counts_match_job_lists(self):
        samples = sum(job.samples for job in workloads.build_jobs("trajectory", 0))
        trajectory = self.counts(self.first, "trajectory")
        self.assertEqual(trajectory["evolution.propagate_pair.calls"], samples)
        self.assertEqual(trajectory["entanglement.concurrence.calls"], 6 * samples)
        self.assertEqual(trajectory["evolution.propagations_per_sample"], 1.0)
        self.assertEqual(trajectory["integrate.rk4_steps"], 0)
        validate = self.counts(self.first, "validate")
        self.assertEqual(validate["integrate.rk4_steps"], 24_000)
        self.assertEqual(validate["states.reduce_all.calls"], 0)
        sweep = self.counts(self.first, "purity_sweep")
        self.assertGreater(sweep["evolution.propagations_per_sample"], 5.0)
        self.assertGreater(sweep["states.reduce.calls"], 0)

    def test_per_layer_names_match_benchmark_json(self):
        declared = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload, line in self.first.items():
            reported = set(line["metrics"]) | {"trace.overhead_ratio"}  # smoke has no untraced pass
            self.assertEqual(reported, declared, workload)


class Inputs(unittest.TestCase):
    def test_seed0_is_the_presets(self):
        trajectory = workloads.build_jobs("trajectory", 0)
        for job, preset in zip(trajectory, workloads.TRAJECTORY_PRESETS):
            self.assertEqual(config_to_dict(job.cfg), config_to_dict(preset_config(preset)))
        sweep = [j for j in workloads.build_jobs("purity_sweep", 0) if j.kind == "evolve"]
        for job, r in zip(sweep, (0.0, 0.2, 0.38, 0.5703, 0.8, 1.0)):
            self.assertEqual(config_to_dict(job.cfg), config_to_dict(preset_config("fig4", purity=r)))
        (validate,) = workloads.build_jobs("validate", 0)
        self.assertEqual(config_to_dict(validate.cfg), config_to_dict(preset_config("fig2a")))

    def test_other_seeds_are_reproducible_jitter(self):
        for workload in workloads.WORKLOADS:
            a = workloads.describe(workloads.build_jobs(workload, 7))
            self.assertEqual(a, workloads.describe(workloads.build_jobs(workload, 7)))
            self.assertNotEqual(a, workloads.describe(workloads.build_jobs(workload, 8)))
            for job in workloads.build_jobs(workload, 7):
                preset = preset_config(job.name.split("-")[1]).params_a
                self.assertLessEqual(abs(job.cfg.params_a.omega / preset.omega - 1.0), 0.1)
                self.assertLessEqual(abs(job.cfg.params_a.lam / preset.lam - 1.0), 0.1)


class Gates(unittest.TestCase):
    def setUp(self):
        self.dir = HERE / "out" / "selftest"
        self.work = workloads.Workload("trajectory", 0, self.dir)
        base = preset_config("fig2a")
        cfg = ScenarioConfig(params_a=base.params_a, params_b=base.params_b, purity=0.9, t_max=5.0, samples=41)
        self.job = workloads.Job("evolve-small", "evolve", cfg, samples=41, rho0=workloads.initial_state(0.9))
        self.job.config_path = self.dir / "small.json"
        self.job.config_path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        self.job.out_path = self.dir / "small.csv"
        self.assertEqual(self.work.runner(self.job)(), 0)
        self.text = self.job.out_path.read_text(encoding="utf-8")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def gate(self, text):
        return workloads._check_csv(self.job, text)

    def test_good_output_passes(self):
        self.assertEqual(self.gate(self.text), [])

    def test_broken_output_fails(self):
        lines = self.text.splitlines(keepends=True)
        cells = lines[1].rstrip("\n").split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)  # C_ab at t=0
        self.assertTrue(self.gate("".join([lines[0], ",".join(cells) + "\n", *lines[2:]])))
        self.assertTrue(self.gate(self.text.replace("C_AB", "C_BA", 1)))
        self.assertTrue(self.gate("".join(lines[:-1])))
        row = lines[-1].rstrip("\n").split(",")
        row[3] = repr(float(row[3]) + 1e-3)  # C_Aa no longer equals C_Bb
        self.assertTrue(self.gate("".join([*lines[:-1], ",".join(row) + "\n"])))

    def test_repeat_must_be_byte_identical(self):
        self.assertEqual(self.work.check(self.job, 0), [])
        self.job.out_path.write_text(self.text + "\n", encoding="utf-8")
        self.assertTrue(self.work.check(self.job, 0))


class Reference(unittest.TestCase):
    def test_sampler_probes_during_work(self):
        with reference.Sampler(interval=0.05) as sampler:
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.samples), 5)
        self.assertAlmostEqual(sampler.busy_s, sum(sampler.samples))
        self.assertTrue(all(s > 0.0 for s in sampler.samples))


class Contract(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        report = {
            "jobs": [{"job": "j", "seconds": s, "traced": False} for s in (1.0, 2.0, 3.0)],
            "job_order": ["j"], "samples": {"j": 10}, "peak_rss_mb": 50.0,
            "nominal_s": 0.004, "run_probe_p50_s": 0.008, "run_probes": 100,
        }
        metrics, _ = run.end_to_end(report, [0.2, 0.3])
        self.assertEqual(metrics["job_p50_s"][0], 1.0)  # 2 s measured while the host ran at half speed
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({name: unit for name, (_, unit) in metrics.items()}, declared)
        self.assertEqual(BENCHMARK["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)

    def test_tail_has_ten_jobs_beyond_it(self):
        self.assertEqual(run.tail([float(i) for i in range(1, 21)]), (10.0, 50.0, 10))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))

    def test_fails_without_the_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "trajectory", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
