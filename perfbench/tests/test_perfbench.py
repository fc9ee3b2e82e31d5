#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark if needed, then checks the reporting rules (C++
`perfbench selftest`), the metric names, that the result line parses, that
traced and untraced runs agree on a tiny seed, and that the benchmark
refuses to report without the program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(out):
    return json.loads(out.stdout.splitlines()[-1])


class PerfbenchTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        run.prepare()

    def test_reporting_rules(self):
        # Percentile rule and its sample counts, the name rule and the
        # JSON writer, checked in the binary that applies them.
        out = subprocess.run([str(run.BINARY), "selftest"],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_metric_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seen = set()
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertNotIn(metric["name"], seen)
                seen.add(metric["name"])

    def test_result_line_parses(self):
        out = bench("--workload", "acas", "--seed", "3", "--seconds", "0.2",
                    "--trace", "0", "--count", "12")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = result_of(out)
        self.assertEqual(set(result), KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertIsInstance(metric["value"], (int, float))
        # The table above the result states each timing's sample count.
        self.assertIn("12 properties x 3 passes", out.stdout)

    def test_traced_agrees_with_untraced(self):
        # The traced run re-decides each property with Verifier::verify and
        # fails on any verdict or node-count difference; its note line
        # states both node totals.
        for workload, count in (("acas", 8), ("image", 8), ("serve", 16)):
            with self.subTest(workload=workload):
                out = bench("--workload", workload, "--seed", "5",
                            "--seconds", "0.2", "--trace", "1", "--count",
                            str(count))
                self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
                result = result_of(out)
                self.assertTrue(result["correct"])
                match = re.search(r"nodes: traced (\d+), untraced (\d+)",
                                  out.stdout)
                self.assertIsNotNone(match, out.stdout)
                self.assertEqual(match.group(1), match.group(2))
                self.assertEqual(
                    result["metrics"]["search.nodes"]["value"],
                    int(match.group(1)))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            out = bench("--workload", "image", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=tmp,
                        script=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(out.returncode, 0)
            self.assertFalse(out.stdout.strip().startswith("{"))


if __name__ == "__main__":
    unittest.main()
