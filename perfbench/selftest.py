"""Self-tests of the benchmark, at the tiny size (about a minute).

    python3 perfbench/selftest.py

They check that every metric named in ``BENCHMARK.json`` prints with its
unit on every workload, that the gate counts a perturbed result and a
raising operation as failed, that tracing leaves the simulation and the
patched classes as they were, and that the command refuses to run
without the package source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import traffic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


class MetricsPrint(unittest.TestCase):
    def check(self, trace: int, wanted):
        for workload in traffic.WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                done = command("--workload", workload, "--seed", "1",
                               "--seconds", "0", "--trace", str(trace),
                               "--size", "tiny")
                self.assertEqual(done.returncode, 0, done.stderr)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"] for name, m in
                         result["metrics"].items()}
                self.assertEqual(units, wanted)
                for name, unit in wanted.items():
                    self.assertTrue(any(line.startswith(f"{name} ") and
                                        line.endswith(f" {unit}")
                                        for line in lines), name)
                self.assertTrue(any(line.startswith("failed_frac 0 ")
                                    for line in lines))

    def test_end_to_end_metrics(self):
        self.check(0, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})

    def test_per_layer_metrics(self):
        self.check(1, {m["name"]: m["unit"] for m in SPEC["per_layer"]})


class Gate(unittest.TestCase):
    """In-process traced runs: pass 0 untraced, pass 1 traced."""

    def run_tampered(self, tamper):
        return run.run_workload("mpki", seed=1, seconds=0, trace=True,
                                size="tiny", tamper=tamper)

    def test_clean_run_passes(self):
        report = self.run_tampered(None)
        self.assertEqual(report["failed"], 0, report["gate"].reasons)
        self.assertEqual(report["attempted"], 2 * len(
            traffic.mpki_ops("tiny", 1)))

    def test_one_mispredict_off_fails(self):
        def tamper(pass_index, op_index, results):
            if (pass_index, op_index) == (1, 0):
                results[0].predictors["tournament"].regular_mispredicts += 1

        report = self.run_tampered(tamper)
        self.assertEqual(report["gate"].failed, {(1, 0)})
        self.assertEqual(report["failed"], 1)

    def test_perturbed_output_fails_reference(self):
        def tamper(pass_index, op_index, results):
            if (pass_index, op_index) == (1, 0):
                outputs = results[0].outputs
                key = sorted(outputs)[0]
                outputs[key] = outputs[key] + 1

        report = self.run_tampered(tamper)
        self.assertIn((1, 0), report["gate"].failed)
        self.assertTrue(any("Workload.reference" in reason
                            for reason in report["gate"].reasons))

    def test_raising_operation_fails(self):
        def tamper(pass_index, op_index, results):
            if (pass_index, op_index) == (1, 2):
                raise RuntimeError("injected")

        report = self.run_tampered(tamper)
        self.assertEqual(report["gate"].failed, {(1, 2)})
        self.assertEqual(report["failed"], 1)

    def test_tracer_restores_classes(self):
        from repro.branch import PredictorHarness
        from repro.core import PBSEngine
        from repro.sim import executors

        before = (PBSEngine.transact, PredictorHarness.consume_batch,
                  executors._execute_indexed)
        self.run_tampered(None)
        self.assertEqual(before, (PBSEngine.transact,
                                  PredictorHarness.consume_batch,
                                  executors._execute_indexed))


class Refusal(unittest.TestCase):
    def test_fails_without_source(self):
        scratch = ROOT / ".perfbench-work"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = command("--workload", "mpki", "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
