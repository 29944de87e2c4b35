#!/usr/bin/env python3
"""Tests of the benchmark's own code (not part of `dune runtest`):

    python3 perfbench/test_perfbench.py

They check the sampler's attribution; that every simulated figure, count
and alloc_mwords repeats exactly across two runs of one seed; that neither
the host-speed gauges nor the sampler change a run's simulated figures;
that a digest mismatch fails every op of the run; and that the printed
metrics are the ones BENCHMARK.json declares. About a minute on two cores.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 5


def bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(*args):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Sampler(unittest.TestCase):
    def test_attribution(self):
        proc = subprocess.run([run.EXE, "selftest"], cwd=run.ROOT, env=run.worker_env(), capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class Repeat(unittest.TestCase):
    def measure(self, workload):
        return run.worker("measure", workload, SEED, "--setups", "0", "--expect-digest",
                          run.reference_digest(workload, SEED))

    def test_same_seed_repeats_exactly(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = self.measure(w), self.measure(w)
                self.assertEqual(a["failures"], [])
                self.assertEqual(a["sim"], b["sim"])
                self.assertEqual(a["host"], b["host"])

    def test_gauges_leave_the_run_alone(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                plain = self.measure(w)
                gauged = run.worker("measure", w, SEED, "--setups", "0", "--probe", "--expect-digest",
                                    run.reference_digest(w, SEED))
                self.assertEqual(gauged["failures"], [])
                self.assertEqual(plain["sim"], gauged["sim"])
                self.assertEqual((len(gauged["probe_before_s"]), len(gauged["probe_after_s"])), (2, 2))
                self.assertGreaterEqual(len(gauged["slice_s"]), 10)
                # The probes leave a compacted heap behind, so the GC promotes
                # a little differently; measured, under 0.05%.
                self.assertAlmostEqual(plain["host"]["alloc_mwords"], gauged["host"]["alloc_mwords"],
                                       delta=1e-3 * plain["host"]["alloc_mwords"])

    def test_traced_equals_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                untraced = self.measure(w)
                traced = run.worker("traced", w, SEED, "--expect-digest", run.reference_digest(w, SEED))
                self.assertEqual(traced["failures"], [])
                self.assertEqual(untraced["digest"], traced["digest"])
                self.assertEqual(untraced["sim"], traced["sim"])
                total = sum(traced["samples"].values())
                self.assertGreater(total, 100)
                self.assertLessEqual(traced["samples"]["other"], 0.1 * total)


class Driver(unittest.TestCase):
    def test_metrics_are_the_declared_ones(self):
        bench = bench_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                out = invoke("--workload", "kv-read", "--seed", str(SEED), "--seconds", "1", "--trace", str(trace))
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                declared = {m["name"]: m["unit"] for m in bench[key]}
                self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, declared)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertIn(m["better"], ("lower", "higher"))

    def test_digest_mismatch_fails_every_op(self):
        seed = SEED + 1000
        path = os.path.join(run.OUT, "reference-kv-read-%d.json" % seed)
        os.makedirs(run.OUT, exist_ok=True)
        run.write_json(path, {"digest": "0000000000000000"})
        try:
            out = invoke("--workload", "kv-read", "--seed", str(seed), "--seconds", "1", "--trace", "0")
        finally:
            os.remove(path)
        self.assertFalse(out["correct"])
        self.assertGreater(out["attempted"], 0)
        self.assertEqual(out["failed"], out["attempted"])
        self.assertEqual(out["attempted"] % 600_000, 0)


if __name__ == "__main__":
    run.build()
    os.makedirs(run.OUT, exist_ok=True)
    unittest.main()
