#!/usr/bin/env python3
"""Tests of the benchmark driver itself.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py's build step (into .bench_build at the
checkout root) and runs short passes of every workload.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["phy_link", "campaign_steady", "campaign_probed", "multi_bss"]

# Top-level spans of each workload's traced pass: with trace.remainder_s
# they must add up to trace.wall_s.
TOP_LEVEL = {
    "phy_link": ["carpool.tx_build_s", "channel.transmit_s",
                 "carpool.rx_s", "phy.frontend_s"],
    "campaign_steady": ["chaos.campaign_s"],
    "campaign_probed": ["chaos.campaign_s"],
    "multi_bss": ["sim.run_s"],
}

DRIVER = None


def setUpModule():
    global DRIVER
    DRIVER = run.build(os.path.join(run.ROOT, ".bench_build"))
    if DRIVER is None:
        raise RuntimeError("perfbench build failed")


def drive(*args):
    proc = subprocess.run([DRIVER] + list(args), cwd=run.ROOT,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    digest = [l for l in lines if l.startswith("digest:")]
    return json.loads(lines[-1]), digest[0] if digest else None


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class ShortRuns(unittest.TestCase):
    def test_untraced_metrics_are_the_declared_end_to_end_set(self):
        proc = drive("--workload", "campaign_steady", "--seconds", "0.01",
                     "--min-items", "100")
        metrics = result(proc)[0]["metrics"]
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         declared("end_to_end"))

    def test_same_digest_twice(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = []
                for _ in range(2):
                    proc = drive("--workload", w, "--seed", "7",
                                 "--seconds", "0.01", "--min-items", "3")
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    res, digest = result(proc)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 3)
                    runs.append(digest)
                self.assertIsNotNone(runs[0])
                self.assertEqual(runs[0], runs[1])

    def test_seed_changes_digest(self):
        digests = set()
        for seed in ("1", "2"):
            proc = drive("--workload", "campaign_steady", "--seed", seed,
                         "--seconds", "0.01", "--min-items", "2")
            digests.add(result(proc)[1])
        self.assertEqual(len(digests), 2)

    def test_p90_withheld_below_ten_samples_beyond(self):
        proc = drive("--workload", "campaign_steady", "--seconds", "0.01",
                     "--min-items", "20")
        metrics = result(proc)[0]["metrics"]
        self.assertIn("frame_p50_ms", metrics)
        self.assertNotIn("frame_p90_ms", metrics)
        self.assertIn("frame_p90_ms withheld", proc.stdout)

    def test_p90_reported_with_ten_samples_beyond(self):
        proc = drive("--workload", "campaign_steady", "--seconds", "0.01",
                     "--min-items", "100")
        metrics = result(proc)[0]["metrics"]
        self.assertGreater(metrics["frame_p90_ms"]["value"], 0.0)
        self.assertGreaterEqual(metrics["frame_p90_ms"]["value"],
                                metrics["frame_p50_ms"]["value"])


class TracedRuns(unittest.TestCase):
    def test_attribution_adds_up(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = drive("--workload", w, "--seconds", "0.01",
                             "--min-items", "3", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stdout)
                res, _ = result(proc)
                self.assertTrue(res["correct"])
                m = {k: v["value"] for k, v in res["metrics"].items()}
                # Every traced workload reports every declared per-layer
                # metric; layers a workload does not run read 0.
                self.assertEqual(
                    {k: v["unit"] for k, v in res["metrics"].items()},
                    declared("per_layer"))
                wall = m["trace.wall_s"]
                remainder = m["trace.remainder_s"]
                attributed = sum(m[n] for n in TOP_LEVEL[w])
                self.assertGreater(wall, 0.0)
                self.assertGreaterEqual(remainder, 0.0)
                self.assertAlmostEqual(attributed + remainder, wall,
                                       delta=1e-9 * wall)
                self.assertIn("obs.trace_overhead", m)


class StrictFlags(unittest.TestCase):
    def test_bad_flags_exit_2(self):
        bad = [
            ["--workload", "phy_link", "--bogus", "1"],
            ["--workload", "nope"],
            ["--workload", "phy_link", "--seed", "12x"],
            ["--workload", "phy_link", "--seconds", "-1"],
            ["--workload", "phy_link", "--trace", "2"],
            ["--workload", "phy_link", "--kernel", "garbage"],
            ["--workload", "phy_link", "--seed"],
            ["--seed", "1"],
        ]
        for args in bad:
            with self.subTest(args=args):
                proc = drive(*args)
                self.assertEqual(proc.returncode, 2)
                self.assertIn("usage:", proc.stderr)
                self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
