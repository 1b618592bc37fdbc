"""Self-tests of the benchmark harness on tiny inputs.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)

They check that a tiny run of every workload emits every metric that
BENCHMARK.json declares, with its unit, and no failures; that a wrong
expectation is counted as a failure; and that the benchmark refuses to
run without the library's source next to it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import run_rounds  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "k2n-pipeline": workloads.K2nSizes(n_lo=2, n_hi=7, per_round=3, warmup_n=2),
    "verify-reject": workloads.VerifySizes(
        n_lo=3,
        n_hi=8,
        mix=tuple((kind, 2) for kind, _ in workloads.VerifySizes.mix),
        inflated_spans=(50,),
        inflated_vertices=(60,),
    ),
    "search-exact": workloads.SearchSizes(
        named=workloads.NAMED_INSTANCES[:5]
        + ((7, 10, 500, frozenset({"budget-exceeded", "exhausted-no-solution"})),),
        max_graphs=6,
        max_budget=300,
        v_lo=5,
        v_hi=6,
    ),
}


def tiny_run(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0, trace=trace, sizes=TINY[name], reference_n=4)


class TinyRunTest(unittest.TestCase):
    def check_declared(self, result: dict, section: str) -> None:
        self.assertEqual(result["failures"], [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, declared)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_workload_emits_every_metric_without_failures(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name, trace=0):
                result = tiny_run(name, trace=False)
                self.check_declared(result, "end_to_end")
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)
            with self.subTest(workload=name, trace=1):
                self.check_declared(tiny_run(name, trace=True), "per_layer")

    def test_declared_workloads_exist(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(workloads.WORKLOADS))


class WrongExpectationTest(unittest.TestCase):
    def prepared(self, name: str):
        lib = harness.load_library()
        workdir = run.OUT_DIR / f"selftest-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, workdir, True)
        return lib, workloads.WORKLOADS[name](lib, 3, workdir, TINY[name])

    def test_wrong_exit_code_is_a_failure(self):
        _, prepared = self.prepared("verify-reject")
        op = prepared.ops[0]
        wrong = workloads.VerifyExpect(code=7)
        prepared.ops[0] = dataclasses.replace(op, check=partial(workloads._verify_check, wrong))
        loop = run_rounds(prepared.ops, 0)
        self.assertEqual(len(loop.failures), 1)
        metrics, _ = run.end_to_end(loop, setup_s=1.0)
        self.assertLess(metrics["ok_ratio"], 1.0)

    def test_wrong_digest_is_a_failure(self):
        lib, _ = self.prepared("k2n-pipeline")
        op = workloads._k2n_op(lib, 3, {3: "0" * 64})
        loop = run_rounds([op], 0)
        self.assertEqual(len(loop.failures), 1)
        self.assertIn("digest", loop.failures[0])

    def test_budget_stop_is_never_a_proof(self):
        lib, _ = self.prepared("search-exact")
        exhausted_only = frozenset({"exhausted-no-solution"})
        op = workloads._named_op(lib, 6, 8, 100, exhausted_only)
        loop = run_rounds([op], 0)
        self.assertEqual(len(loop.failures), 1)
        self.assertIn("budget-exceeded", loop.failures[0])
        self.assertEqual(loop.records[0].counts["search.budget_stops"], 1)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_to_run_without_the_source(self):
        bare = run.OUT_DIR / f"bare-{os.getpid()}"
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.REPO_ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", "search-exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
