#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_bench.py

- seed discipline: a second seed generates different tables and every
  answer check still passes;
- exact repeat: the deterministic single-client solver counts of
  paql_sketch (B&B nodes, simplex pivots, partitions, refine steps)
  are identical across two traced runs of the same seed;
- bare directory: with only BENCHMARK.json and perfbench/ present the
  command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def bench(workload, seed, trace, seconds=2, cwd=ROOT):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    record = next((json.loads(l[len("record "):]) for l in lines if l.startswith("record ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, record, result, out.stderr


class SeedDiscipline(unittest.TestCase):
    def test_second_seed_changes_data_and_still_checks(self):
        fingerprints = []
        for seed in (1, 2):
            code, record, result, err = bench("interactive_mix", seed, 0)
            self.assertEqual(code, 0, err)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            fingerprints.append(record["data_fingerprint"])
        self.assertNotEqual(fingerprints[0], fingerprints[1])


class ExactRepeat(unittest.TestCase):
    COUNTS = ("lp.bb_nodes", "lp.pivots", "core.partitions", "core.refine_steps")

    def test_paql_sketch_counts_repeat(self):
        runs = []
        for _ in range(2):
            code, _, result, err = bench("paql_sketch", 7, 1)
            self.assertEqual(code, 0, err)
            self.assertTrue(result["correct"])
            runs.append({k: result["metrics"][k]["value"] for k in self.COUNTS})
        for k in self.COUNTS:
            self.assertGreater(runs[0][k], 0, k)
        self.assertEqual(runs[0], runs[1])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        bare = tempfile.mkdtemp(dir=base)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _, result, _ = bench("interactive_mix", 1, 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
