#!/usr/bin/env python3
"""Self-test of the host benchmark, on tiny problem sizes.

    python3 hostbench/tests/test_hostbench.py

Builds the benchmark through hostbench/run.py (the same path a
measurement takes) and checks that:
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) of BENCHMARK.json, with its unit, and
    passes its correctness checks;
  * a wrong reference checksum fails every app call (fail_frac = 1);
  * a traced call whose trace buffer is too small counts as failed;
  * without the program's sources the benchmark exits non-zero and
    prints no result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "hostbench" / "run.py"),
         "--seed", "7", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def printed_metrics(stdout):
    """{name: unit} of the human-readable 'metric NAME = VALUE UNIT' lines."""
    out = {}
    for m in re.finditer(r"^metric (\S+) = (\S+) (\S+)", stdout, re.M):
        out[m.group(1)] = m.group(3)
    return out


class EveryWorkload(unittest.TestCase):
    def check(self, workload, trace, spec_key):
        proc, res = run("--workload", workload, "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(res, proc.stdout[-2000:])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         want)
        for k, v in res["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        self.assertEqual(printed_metrics(proc.stdout), want)
        self.assertIn("fail_frac = 0 ", proc.stdout)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, "per_layer")


class FailureAccounting(unittest.TestCase):
    def test_wrong_reference_fails_every_call(self):
        proc, res = run("--workload", "mgcfd-colored", "--trace", "0",
                        "--corrupt-reference")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("fail_frac = 1 ", proc.stdout)

    def test_undersized_trace_buffer_fails_traced_calls(self):
        # clover2d-observed traces every call: all of them must fail.
        proc, res = run("--workload", "clover2d-observed", "--trace", "0",
                        "--trace-buffer", "16")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        # Elsewhere only the separate traced run is traced.
        proc, res = run("--workload", "clover2d-mpi4", "--trace", "1",
                        "--trace-buffer", "16")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["failed"], res["attempted"])


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p)
            proc = subprocess.run(
                [sys.executable, "hostbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    unittest.main()
