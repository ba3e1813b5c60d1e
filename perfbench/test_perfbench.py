"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench

They run every workload at the tiny scale, traced and untraced, and make
sure a wrong output is counted as a failed operation rather than a pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from unittest import mock

import gates
import inputs
import run


class TinyRuns(unittest.TestCase):
    def check(self, workload: str, trace: bool) -> dict:
        result, _ = run.run(workload, seed=3, seconds=0.2, trace=trace, scale=inputs.TINY)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]), {spec["name"] for spec in run.declared(kind)})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return {name: metric["value"] for name, metric in result["metrics"].items()}

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check(workload, trace=False)
                self.assertTrue(all(value > 0 for value in values.values()), values)

    def test_traced_audit_times_every_tag(self):
        values = self.check("audit_serial", trace=True)
        tags = [name for name in values if name.startswith("checks.") and name.endswith(".s")]
        self.assertEqual(len(tags), 48)
        self.assertEqual([tag for tag in tags if values[tag] <= 0], [])
        self.assertLessEqual(sum(values[tag] for tag in tags), values["audit.audit_grid.s"])

    def test_traced_parallel_audit_and_requests(self):
        values = self.check("audit_jobs2", trace=True)
        self.assertGreater(values["audit.worker_cpu_s"], 0)
        values = self.check("requests", trace=True)
        self.assertGreater(values["exactalg.series_exp.calls"], 0)
        self.assertGreater(values["cli.parse_poly_expr.s"], 0)


class FailuresCount(unittest.TestCase):
    def test_tampered_digest_is_a_failed_operation(self):
        real = run.load_digests

        def tampered(grid):
            table = dict(real(grid))
            table["digests"] = ["0" * 64] * len(table["digests"])
            return table

        with mock.patch.object(run, "load_digests", tampered):
            result, notes = run.run("audit_serial", seed=3, seconds=0.2, trace=False, scale=inputs.TINY)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(notes["failed_frac"], 1.0)

    def test_strategies_that_differ_fail_the_compute_gate(self):
        argv = ["compute", "--p", "2", "--q", "1", "--n", "3", "--m", "2",
                "--strategy", "all", "--format", "json"]
        out = subprocess.run(
            [sys.executable, "-m", "gouldhopper.cli", *argv], cwd=run.ROOT, check=True,
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")),
        ).stdout
        self.assertEqual(gates.compute_problems(out, 0, 3, 2), [])
        doc = json.loads(out)
        doc["results"][4]["terms"][-1]["num"] = "12345"
        self.assertNotEqual(gates.compute_problems(json.dumps(doc), 0, 3, 2), [])

    def test_a_request_with_problems_counts_as_failed(self):
        meta = {"ready": 0.0, "setup_s": 0.1, "setup_factor": 1.0, "maxrss_kb": 1024,
                "genseries_reuse_share": 0.0,
                "latencies": [["compute", 0.01, "", 1.0], ["compute", 0.01, "genfun differs from explicit", 1.0]]}
        with mock.patch.object(run, "spawn", return_value=(meta, b"")):
            result, notes = run.run("requests", seed=3, seconds=0, trace=False, scale=inputs.TINY)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertFalse(result["correct"])
        self.assertEqual(notes["failed_frac"], 0.5)


if __name__ == "__main__":
    unittest.main()
