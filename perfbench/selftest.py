"""Smoke self-test of the benchmark at a tiny input size.

Run from the root of a checkout (about a minute on 2 CPUs):

    python3 perfbench/selftest.py

It checks that every end-to-end and per-layer metric is emitted with its
unit, that the details carry the figures reported beside the metrics, and
that the benchmark refuses to run without the program's sources. It does
not judge correctness: a model trained for seconds on a 30 min cohort is
not held to the accuracy floor.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, SINGLE_WORKLOAD  # noqa: E402
from run import END_TO_END  # noqa: E402
from worker import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENVIRONMENT_KEYS = {"python", "numpy", "scipy", "blas", "blas_threads",
                    "thread_env", "nproc", "cpu_model", "git_commit",
                    "seed"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """The benchmark as the command in BENCHMARK.json runs it."""
    return subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    done = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


class TinyRuns(unittest.TestCase):
    def check_result(self, result: dict) -> None:
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], float)

    def test_end_to_end(self):
        for workload in ("crossval", "infer-3h"):
            with self.subTest(workload=workload):
                details, result = run_tiny(workload, 0)
                self.check_result(result)
                self.assertEqual(units(result["metrics"]), END_TO_END)
                self.assertLessEqual(ENVIRONMENT_KEYS,
                                     set(details["environment"]))
                self.assertIn("error_rate", details)
                self.assertEqual(set(details["wall_s.tail"]),
                                 {"percentile", "samples"})
        self.assertEqual(details["infer_ms.p50"]["unit"], "ms")
        self.assertEqual(details["infer_ms.tail"]["unit"], "ms")

    def test_per_layer(self):
        measured = set()
        for workload in ("crossval", "infer-3h"):
            with self.subTest(workload=workload):
                details, result = run_tiny(workload, 1)
                self.check_result(result)
                self.assertEqual(units(result["metrics"]), PER_LAYER)
                layer = details["layer_details"]
                self.assertEqual(
                    {k: layer[k]["unit"] for k in SINGLE_WORKLOAD},
                    SINGLE_WORKLOAD)
                measured |= {k for k in SINGLE_WORKLOAD
                             if layer[k]["value"] is not None}
                self.assertIn("overhead_s", details["trace_overhead"])
        # a figure measured on neither workload belongs nowhere
        self.assertEqual(measured, set(SINGLE_WORKLOAD))
        kernels = layer["kernels"]
        self.assertEqual(kernels["conv_fwd_mflop_per_sample"],
                         {"0": 0.18432, "4": 2.70336, "8": 1.65888})
        self.assertAlmostEqual(
            kernels["conv_fwd_mflop_per_sample_total"], 4.54656)

    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = bench("--workload", "crossval", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_benchmark_json_matches(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         PER_LAYER)
        self.assertLessEqual({w["name"] for w in doc["workloads"]},
                             set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
