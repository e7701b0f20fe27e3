"""Tests of the benchmark's own logic. From the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build the benchmark as run.py does, then check: relkit_perfbench's selftest
(median and the supported tail percentile on known inputs, open-loop lag
accounting under an injected stall, one seed giving one set of inputs,
metric names and units against BENCHMARK.json); that a wrong reference
makes a run fail (run.py returns the program's exit code); and that a
directory holding only the benchmark fails without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(len(os.sched_getaffinity(0))):
            raise RuntimeError("benchmark build failed")
        cls.scratch = tempfile.mkdtemp(dir=run.BUILD)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    @staticmethod
    def perfbench(command, references, *flags):
        return [os.path.join(run.BUILD, "relkit_perfbench"), command,
                "--tools", os.path.join(run.BUILD, "relkit_tools"),
                "--models", os.path.join(ROOT, "examples", "models"),
                "--references", references, *flags]

    def test_selftest(self):
        result = subprocess.run(
            self.perfbench("selftest", os.path.join(HERE, "references.json"),
                           "--benchmark-json",
                           os.path.join(ROOT, "BENCHMARK.json")),
            capture_output=True, text=True, timeout=120)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_metric_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        names = [m["name"] for m in benchmark["end_to_end"] +
                 benchmark["per_layer"] + benchmark["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))

    def test_wrong_reference_fails_the_run(self):
        with open(os.path.join(HERE, "references.json")) as f:
            references = json.load(f)
        references["srn_pools"]["availability"] += 1e-6
        wrong = os.path.join(self.scratch, "wrong_references.json")
        with open(wrong, "w") as f:
            json.dump(references, f)
        result = subprocess.run(
            self.perfbench("run", wrong, "--workload", "srn_pools",
                           "--seed", "1", "--seconds", "1", "--trace", "0",
                           "--jobs", str(len(os.sched_getaffinity(0)))),
            capture_output=True, text=True, timeout=180)
        self.assertNotEqual(result.returncode, 0)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertFalse(last["correct"])
        self.assertGreater(last["failed"], 0)
        self.assertTrue(re.search(r"FAILED: pools availability", result.stdout))

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(self.scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ctmc_grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
