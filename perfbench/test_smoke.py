"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 perfbench/test_smoke.py
(about a minute; the staircase, which must fail, keeps its full size).
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

import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def setUpModule():
    run.OUT.mkdir(exist_ok=True)


def bench_quietly(work: workloads.Workload, trace: bool) -> tuple[dict, str]:
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        result = run.bench(work, 1, 1, trace)
    return result, report.getvalue()


def table_text(max_i: int) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "tricatalan", "table", "--max-i", str(max_i), "--format", "json"],
        env=run.child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout


def scan(text: str, max_i: int, chunk: int = 7) -> str | None:
    scanner = oracle.TableScanner(max_i)
    for k in range(0, len(text), chunk):
        scanner.feed(text[k : k + chunk])
    return scanner.finish()


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result, report = bench_quietly(workloads.build(name, 1, "tiny"), trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for metric, unit in wanted.items():
                        self.assertRegex(report, rf"(?m)^{metric}\s+\S+\s+{unit}\s+\(")
                    self.assertTrue(result["correct"])
                    self.assertIn("fail_frac", report)

    def test_layer_self_times_cover_the_traced_process(self):
        work = workloads.build("verify-n5", 1, "tiny")
        traced = run.run_child(work, spans_path=str(run.OUT / "spans-smoke.bin"))
        names, arrays = run.tracing.load_spans(str(run.OUT / "spans-smoke.bin"))
        summary = run.tracing.summarize(names, arrays)
        self.assertAlmostEqual(sum(summary["layers"].values()), summary["root_s"], places=6)
        self.assertGreaterEqual(traced.layers["trace.unattributed_s"], 0)
        self.assertLess(summary["root_s"], traced.wall)
        self.assertGreater(traced.layers["matching.contains_pattern.calls"], 0)


class GateTest(unittest.TestCase):
    def test_flipped_coefficient_fails_the_table_scan(self):
        text = table_text(16)
        self.assertIsNone(scan(text, 16))
        corner = text.index("[16,8,[") + len("[16,8,[")
        flipped = text[:corner] + str(int(text[corner]) + 1) + text[corner + 1 :]
        self.assertIn("closed form", scan(flipped, 16))
        odd = text.index("[15,3,[") + len("[15,3,[")
        flipped = text[:odd] + str(int(text[odd]) + 1) + text[odd + 1 :]
        self.assertIn("does not sum", scan(flipped, 16))
        self.assertIn("ends before", scan(text[:-5], 16))

    def test_wrong_outputs_are_counted_and_make_the_run_incorrect(self):
        work = workloads.build("map-long", 1, "tiny")
        tree_to_path = next(k for k, op in enumerate(work.ops) if op.argv[1] == "tree-to-path")
        right = work.ops[tree_to_path].check[1]
        work.ops[tree_to_path].check = ("path", right + "E")
        table = workloads.build("table-400", 1, "tiny")
        table.ops[0].check = ("table", 400)  # the output of --max-i 16 cannot match
        for bad in (work, table):
            with self.subTest(workload=bad.name):
                result, report = bench_quietly(bad, False)
                self.assertFalse(result["correct"])
                self.assertIn("[wrong]", report)
                clean, _ = bench_quietly(workloads.build(bad.name, 1, "tiny"), False)
                self.assertGreater(result["failed"] / result["attempted"],
                                   clean["failed"] / clean["attempted"])

    def test_staircase_failure_is_counted(self):
        work = workloads.build("map-long", 1, "tiny")
        result = run.run_child(work)
        staircase = [k for k, op in enumerate(work.ops) if op.check[1] == "E" * 1200 + "N" * 600]
        self.assertEqual([result.statuses[k] for k in staircase], ["ok", "error", "dependent"])
        self.assertIn("RecursionError", result.ops[staircase[1]]["why"])
        self.assertEqual(result.recursion_limit, sys.getrecursionlimit())


class TraceDepthTest(unittest.TestCase):
    def staircase_fails(self, n: int, traced: bool) -> bool:
        path = "E" * (2 * n) + "N" * n
        op = workloads.Op(["map", "path-to-tree", path], ("tree", path), len(path))
        work = workloads.Workload("staircase", [op], True, {}, "path steps")
        spans = str(run.OUT / "spans-depth.bin") if traced else None
        return run.run_child(work, spans_path=spans).statuses[0] != "ok"

    def test_traced_run_fails_exactly_where_the_untraced_run_fails(self):
        lo, hi = 100, 600  # succeeds at lo, fails at hi
        self.assertFalse(self.staircase_fails(lo, False))
        self.assertTrue(self.staircase_fails(hi, False))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if self.staircase_fails(mid, False) else (mid, hi)
        self.assertFalse(self.staircase_fails(lo, True))
        self.assertTrue(self.staircase_fails(hi, True))


class CommandTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a, b = (workloads.build("map-long", 7) for _ in range(2))
        self.assertEqual([op.argv for op in a.ops], [op.argv for op in b.ops])
        c = workloads.build("map-long", 8)
        self.assertNotEqual([op.argv for op in a.ops], [op.argv for op in c.ops])

    def test_fails_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        done = subprocess.run(
            SPEC["command"] + ["--workload", "map-long", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
