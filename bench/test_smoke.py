"""Smoke test of the benchmark itself, on tiny inputs.

It runs one built-in scenario, the smallest ladder rung and a tiny generated
scenario file, and checks outputs and metric names only, never timings.
Run it with ``python3 -m pytest bench/test_smoke.py`` or
``python3 bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _traced(pass_fn):
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_pass()
        out = pass_fn(tracer)
        return out, tracer.end_pass()
    finally:
        spans.uninstall(undo)


class BenchSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = workloads.import_fanocalc()
        cls.tmp = Path(tempfile.mkdtemp(prefix="fanocalc-bench-smoke-"))
        run.WORKDIR = cls.tmp

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_one_scenario_traced_and_untraced(self):
        argv = ["run", "w22-line-link", "--format", "json"]
        plain = workloads._cli_pass(self.cli, argv)
        traced, summary = _traced(lambda tracer: workloads._cli_pass(self.cli, argv))
        self.assertEqual(traced, plain)
        checks = workloads.Checks()
        workloads._check_report(traced, {"w22-line-link": 4}, checks, "smoke")
        self.assertEqual((checks.failed, checks.problems), (0, []))
        values = spans.pass_metrics(summary)
        self.assertEqual(values["scenarios.assertions.total"], 4)
        self.assertEqual(values["scenarios.assertions.failed"], 0)
        self.assertEqual(spans.cache_mismatches(summary), [])
        self.assertFalse(hasattr(self.cli.main, "__fanocalc_traced__"))

    def test_smallest_rung(self):
        ladder = workloads.GrassLadder(tensor_rungs=((2, 5),), product_rungs=((2, 4),))
        out, summary = _traced(ladder.warm_pass)
        self.assertEqual(out, ladder.warm_pass())
        rungs = json.loads(out)["rungs"]
        self.assertEqual(rungs[0]["c_top"], 10)
        self.assertEqual(rungs[0]["sigma1_degree"], 5)
        checks = workloads.Checks()
        ladder.check(out, checks, "smoke")
        self.assertEqual((checks.failed, checks.problems), (0, []))
        self.assertEqual(spans.pass_metrics(summary)["chern.tensor_chern.calls"], 1)
        self.assertIn(spans.tensor_span(2, 5), summary["layers"])

    def test_tiny_generated_file(self):
        work = workloads.ScenarioFiles(self.cli, 7, self.tmp / "files", files=1, per_scenario=2)
        self.assertEqual(sum(len(v) for v in work.expected.values()), 12)
        checks = workloads.Checks()
        work.check(work.warm_pass(), checks, "smoke")
        self.assertEqual((checks.failed, checks.problems), (0, []))
        again = workloads.generate_scenarios(7, files=1, per_scenario=2)
        self.assertEqual(again[1], work.expected)

    def test_metric_names_match_benchmark_json(self):
        declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        work = workloads.ScenarioFiles(self.cli, 3, self.tmp / "names", files=1, per_scenario=1)
        args = SimpleNamespace(seconds=1)
        checks = workloads.Checks()
        end_to_end, _ = run.measure(work, args, checks)
        per_layer, _ = run.trace(work, args, checks)
        self.assertEqual((checks.failed, checks.problems), (0, []))
        self.assertEqual(sorted(end_to_end), sorted(m["name"] for m in declared["end_to_end"]))
        self.assertEqual(sorted(per_layer), sorted(m["name"] for m in declared["per_layer"]))
        units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
        for name, (_, unit) in {**end_to_end, **per_layer}.items():
            self.assertEqual(unit, units[name], name)

    def test_refuses_to_run_without_sources(self):
        bare = self.tmp / "bare"
        shutil.copytree(Path(__file__).resolve().parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
