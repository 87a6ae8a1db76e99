"""Self-tests of the benchmark itself (not part of the repository suite).

Run from the root of a checkout::

    python3 perfbench/selftest.py

* the oracle accepts a reordered or re-summed answer and rejects a
  corrupted one;
* every workload runs end to end at a tiny size, untraced and traced,
  with nothing failed and every metric named in ``BENCHMARK.json``;
* without the program's source the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class OracleTest(unittest.TestCase):
    def setUp(self):
        values = np.arange(1.0, 7.0).reshape(2, 3)
        self.expected = oracle.dense_cells(("x", "y"), {"v": values})
        lines = [f"{{{x},{y}}} {float(values[x - 1, y - 1])!r}"
                 for x in (1, 2) for y in (1, 2, 3)]
        self.lines = lines

    def body(self, lines):
        return "{x,y} v\n" + "\n".join(lines) + "\n"

    def test_accepts_the_answer_in_any_order(self):
        self.assertIsNone(oracle.mismatch(self.body(self.lines), self.expected))
        self.assertIsNone(
            oracle.mismatch(self.body(self.lines[::-1]), self.expected))

    def test_accepts_a_different_summation_order(self):
        lines = list(self.lines)
        lines[0] = "{1,1} " + repr(1.0 + 1e-13)
        self.assertIsNone(oracle.mismatch(self.body(lines), self.expected))

    def test_rejects_a_corrupted_value(self):
        lines = list(self.lines)
        lines[4] = "{2,2} " + repr(5.0 * (1 + 1e-6))
        self.assertIn("cell (2, 2)", oracle.mismatch(self.body(lines), self.expected))

    def test_rejects_a_missing_or_repeated_cell(self):
        self.assertIsNotNone(
            oracle.mismatch(self.body(self.lines[:-1]), self.expected))
        self.assertIsNotNone(
            oracle.mismatch(self.body(self.lines + self.lines[:1]), self.expected))

    def test_rejects_a_wrong_schema(self):
        body = "{x,y} w\n" + "\n".join(self.lines) + "\n"
        self.assertIsNotNone(oracle.mismatch(body, self.expected))


class TinyWorkloadTest(unittest.TestCase):
    """Each workload end to end at a tiny size."""

    TINY = {
        "PORTAL_SETUPS_PER_SLICE": 1,
        "GRID_SETUPS": 2,
        "SCAN_SIDE": 32,
        "GRID_SIDE": 16,
        "GRID_SETUP_EPOCHS": 1,
    }

    def setUp(self):
        self.saved = {k: getattr(workloads, k) for k in self.TINY}
        for key, value in self.TINY.items():
            setattr(workloads, key, value)

    def tearDown(self):
        for key, value in self.saved.items():
            setattr(workloads, key, value)

    def run_once(self, workload: str, trace: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def check(self, workload: str) -> None:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                result = self.run_once(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    set(result["metrics"]), {m["name"] for m in SPEC[key]})
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                if trace == 0:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_portal(self):
        self.check("portal")

    def test_scan(self):
        self.check("scan")

    def test_grid_ingest(self):
        self.check("grid_ingest")


class MissingProgramTest(unittest.TestCase):
    def test_fails_without_the_program_source(self):
        bare = HERE / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        try:
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "portal", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
