"""Benchmark for the tricatalan CLI: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-n5 --seed 1 --seconds 55 --trace 0

Workloads are described in workloads.py.  Every timed run is one fresh
interpreter (child.py) that runs a workload's batch of CLI calls, so the
package's unbounded caches start cold, as they do for every CLI user.  Runs
repeat, one after another, while the next one is expected to end within
--seconds (there is always at least one).  Every output is checked by a
route that shares no code with the package (oracle.py).  The report lists
each metric with its unit and sample count and the run context; the last
line is one JSON object with "correct", "attempted", "failed" and
"metrics".

--trace 0 reports the end-to-end metrics.  The host is a few CPUs of a
shared machine whose speed drifted by up to a third from minute to minute,
which moved every timing in seconds by more than any useful bound.  So
timings are given in "ref": one ref is the time that a fixed reference
computation of the kind of work the workload's time goes to (REFERENCES:
interpreter bytecode, or fresh memory and bulk copies) takes on the same
CPU, measured in this process just before and just after each run, while the
run's own process is not alive.  The benchmark and all its processes are
pinned to one CPU for this.  A program twice as fast reads half the refs; a
host twice as fast reads about the same.  The report also prints the raw
seconds, but only the ref figures are steady enough to compare.
  setup_s       interpreter start plus `import tricatalan`, median of
                SETUP_REPS processes, in seconds
  wall_ref      one run, process start to exit
  first_byte_ref  process start to the first stdout byte (process exit
                when nothing was printed)
  peak_rss_mb   peak resident memory of the run's process
  op_p50_ref    median latency of one CLI call, inside the process
  op_tail_ref   the highest percentile of call latency with at least ten
                calls beyond it (the maximum below eleven calls)
  steps_per_ref work units of calls that succeeded per ref of call time
Call latencies and steps_per_ref are taken over each run's batch of calls;
every metric but setup_s is the median over the runs.

--trace 1 alternates untraced and traced runs and reports per-layer
metrics from the traced ones (tracer.py): self time per layer, self time,
calls and ratios for selected functions, and the tracing overhead as
traced wall_s over untraced wall_s.  A traced run must fail exactly the
calls the untraced run failed.

A call fails when it raises, exits with another code than 0, prints a
wrong output, or needs the output of a call that failed; "failed" counts
them and the report prints fail_frac = failed / attempted.  "correct" is
false only when a call that exited 0 printed a wrong output, the full table
scan fails, or traced and untraced runs fail different calls: a crash or a
refusal is a failure to count, not a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 15
NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu()
CHILD_TIMEOUT_S = 150
clock = time.perf_counter

REF_REPS = 5
E2E_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "first_byte_ref": "ref",
    "peak_rss_mb": "MB",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "steps_per_ref": "1/ref",
}
# Per-layer metrics: (metric, unit).  "<layer>.self_s" for every layer.
LAYER_METRICS = [(f"{layer}.self_s", "s") for layer in ("bench",) + tracing.LAYERS] + [
    ("matching.contains_pattern.self_s", "s"),
    ("matching.contains_pattern.calls", "count"),
    ("matching.contains_pattern.hit_frac", "ratio"),
    ("matching.enumerate_matchings.self_s", "s"),
    ("matching.enumerate_matchings.kept_frac", "ratio"),
    ("matching.path_to_matching.self_s", "s"),
    ("matching.matching_to_path.self_s", "s"),
    ("matching.PartialMatching.self_s", "s"),
    ("matching.PartialMatching.calls", "count"),
    ("eventree.EvenTree.self_s", "s"),
    ("eventree.EvenTree.calls", "count"),
    ("eventree.path_to_tree.self_s", "s"),
    ("eventree.tree_to_path.self_s", "s"),
    ("eventree.enumerate_even_trees.self_s", "s"),
    ("lattice.lattice_table.self_s", "s"),
    ("poly.Poly.self_s", "s"),
    ("poly.Poly.calls", "count"),
    ("poly.add.self_s", "s"),
    ("poly.add.calls", "count"),
    ("lattice.enumerate_paths.self_s", "s"),
    ("lattice.enumerate_paths.items", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


@dataclass
class Run:
    wall: float
    first_byte: float
    maxrss_mb: float
    recursion_limit: int
    ops: list[dict]
    statuses: list[str] = field(default_factory=list)  # ok | error | wrong | dependent
    ref: float = 0.0  # seconds of the workload's reference around the run (untraced)
    layers: dict | None = None  # per-layer metrics of a traced run


def child_env() -> dict:
    """The caller's environment, with the package importable, a fixed hash
    seed, and bytecode caching on, as it is for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def interpreter_reference() -> int:
    """Plain bytecode on small ints, a small dict and short tuples, like the
    package's inner loops: about 30 ms with Python 3.11 on an Intel Xeon."""
    total, seen = 0, {}
    for k in range(120_000):
        pair = (k & 1023, k % 7)
        total += pair[0] * pair[1]
        seen[pair[0]] = total
    return total + len(seen)


def memory_reference() -> int:
    """Fresh pages and bulk copies, like building a large output: a 48 MiB
    buffer written once a page, then copied; about 80 ms on the same host."""
    buf = bytearray(48 << 20)
    buf[::4096] = b"\1" * (len(buf) // 4096)
    return len(bytes(buf))


# The fixed computations that timings are given in, by the kind of work a
# workload's time goes to.  Changing one changes every ref figure measured
# with it, so they must stay as they are.
REFERENCES = {"interpreter": interpreter_reference, "memory": memory_reference}


def ref_seconds(reference) -> float:
    """Median time of REF_REPS calls of reference, on this process's CPU."""
    samples = []
    for _ in range(REF_REPS):
        start = clock()
        reference()
        samples.append(clock() - start)
    return statistics.median(samples)


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    reference computation runs where the program runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup() -> list[float]:
    """Interpreter start plus `import tricatalan`, once to warm, then SETUP_REPS times."""
    cmd = [sys.executable, "-c", "import tricatalan"]
    samples = []
    for rep in range(SETUP_REPS + 1):
        start = clock()
        done = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=60)
        elapsed = clock() - start
        if done.returncode != 0:
            raise BenchError(f"import tricatalan failed: {done.stderr.decode()[-500:]}")
        if rep:
            samples.append(elapsed)
    return samples


def run_child(work: workloads.Workload, spans_path: str | None = None,
              scan: bool = False) -> Run:
    spawn = clock()
    request = {
        "ops": [{"argv": op.argv, "input_from": op.input_from} for op in work.ops],
        "keep": work.keep,
        "scan_max_i": work.scan_max_i if scan else None,
        "spawn": spawn,
        "spans_path": spans_path,
    }
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        out, err = proc.communicate(json.dumps(request).encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {work.name} run took over {CHILD_TIMEOUT_S} s")
    wall = clock() - spawn
    if proc.returncode != 0:
        raise BenchError(f"benchmark child exited {proc.returncode}: {err.decode()[-2000:]}")
    reply = json.loads(out)
    first = reply["first_byte"]
    run = Run(
        wall=wall,
        first_byte=(first - spawn) if first is not None else wall,
        maxrss_mb=reply["maxrss_kb"] / 1024,
        recursion_limit=reply["recursion_limit"],
        ops=reply["ops"],
    )
    for op, rec in zip(work.ops, run.ops):
        run.statuses.append(status_of(op, rec, run.statuses))
    if scan and reply.get("scan_error"):
        run.statuses[-1] = "wrong"
        run.ops[-1]["why"] = f"table scan: {reply['scan_error']}"
    if spans_path is not None:
        run.layers = layer_metrics(*tracing.load_spans(spans_path), wall)
    return run


def status_of(op: workloads.Op, rec: dict, earlier: list[str]) -> str:
    if rec.get("skipped") or (op.input_from is not None and earlier[op.input_from] != "ok"):
        rec["why"] = "needs the output of a call that failed"
        return "dependent"
    if rec["error"] is not None:
        rec["why"] = rec["error"]
        return "error"
    if rec["rc"] != 0:
        rec["why"] = f"exit code {rec['rc']}: {rec['stderr'].strip()[-200:]}"
        return "wrong" if op.check[0] == "verify" else "error"
    why = workloads.check_output(op, rec.get("text"), rec["sha256"])
    if why is not None:
        rec["why"] = why
        return "wrong"
    return "ok"


def layer_metrics(names: list[str], arrays: dict, wall: float) -> dict:
    s = tracing.summarize(names, arrays)
    per = s["names"]

    def get(name: str, key: str) -> float:
        return per[name][key] if name in per else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {f"{layer}.self_s": t for layer, t in s["layers"].items()}
    for metric, _unit in LAYER_METRICS:
        if metric in values or metric.startswith("trace."):
            continue
        span, _, key = metric.rpartition(".")
        if key in ("self_s", "calls"):
            values[metric] = get(span, key)
    values["matching.contains_pattern.hit_frac"] = ratio(
        get("matching.contains_pattern", "value"), get("matching.contains_pattern", "calls"))
    values["matching.enumerate_matchings.kept_frac"] = ratio(
        get("matching.enumerate_matchings", "value"), s["checked_in"])
    values["lattice.enumerate_paths.items"] = get("lattice.enumerate_paths", "value")
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - sum(s["layers"].values())
    return values


def tail_rank(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    return n - 11 if n >= 11 else n - 1


def e2e_metrics(work: workloads.Workload, runs: list[Run], setup: list[float]) -> dict:
    """Each metric as (value, samples description).

    Call latencies and throughput are taken per run, over that run's batch
    of calls, and then the median over runs is reported, so the statistic
    does not depend on how many runs fitted in the time.
    """
    p50, tail, rate = [], [], []
    for run in runs:
        timed = [(op, rec, status) for op, rec, status in zip(work.ops, run.ops, run.statuses)
                 if not rec.get("skipped")]
        refs = sorted(rec["seconds"] / run.ref for _op, rec, _s in timed)
        p50.append(statistics.median(refs))
        tail.append(refs[tail_rank(len(refs))])
        steps = sum(op.steps for op, _rec, status in timed if status == "ok")
        rate.append(steps / sum(refs))
    n, calls = len(runs), len(refs)
    if calls >= 11:
        tail_label = f"{100 * (tail_rank(calls) + 1) / calls:.1f}th percentile of {calls} calls"
    else:
        tail_label = f"maximum of {calls} calls"

    def median(values) -> float:
        return statistics.median(values)

    return {
        "setup_s": (median(setup), f"median of {len(setup)} processes"),
        "wall_ref": (median(r.wall / r.ref for r in runs), f"median of {n} runs"),
        "first_byte_ref": (median(r.first_byte / r.ref for r in runs), f"median of {n} runs"),
        "peak_rss_mb": (median(r.maxrss_mb for r in runs), f"median of {n} runs"),
        "op_p50_ref": (median(p50), f"median over {n} runs of the median of {calls} calls"),
        "op_tail_ref": (median(tail), f"median over {n} runs of the {tail_label}"),
        "steps_per_ref": (median(rate), f"median of {n} runs; {work.step} per ref of call time"),
    }


def raw_seconds(runs: list[Run]) -> dict:
    """Seconds behind the ref metrics: printed for reading, not compared."""
    return {
        "ref_s": statistics.median(r.ref for r in runs),
        "wall_s": statistics.median(r.wall for r in runs),
        "first_byte_s": statistics.median(r.first_byte for r in runs),
    }


def traced_metrics(untraced: list[Run], traced: list[Run]) -> dict:
    out = {}
    for metric, _unit in LAYER_METRICS:
        if metric in ("trace.untraced_wall_s", "trace.overhead"):
            continue
        out[metric] = (statistics.median(r.layers[metric] for r in traced),
                       f"median of {len(traced)} traced")
    plain = statistics.median(r.wall for r in untraced)
    out["trace.untraced_wall_s"] = (plain, f"median of {len(untraced)} untraced")
    out["trace.overhead"] = (out["trace.wall_s"][0] / plain, "traced / untraced wall_s")
    return out


def failed_calls(run: Run) -> set[int]:
    return {k for k, status in enumerate(run.statuses) if status != "ok"}


def context(work: workloads.Workload, seed: int, seconds: int, trace: int, limit: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "workload": work.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": work.sizes,
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu": cpu,
        "recursion_limit": limit,
        "reference": work.reference,
        "commit": commit,
    }


def measure(work: workloads.Workload, seconds: int, trace: bool) -> tuple[list, list, bool]:
    """Timed runs until the next one would end past `seconds`.

    Returns (untraced runs, traced runs, whether their failed calls agree).
    """
    untraced: list[Run] = []
    traced: list[Run] = []
    agree = True
    start = clock()
    reference = REFERENCES[work.reference]
    ref_before = ref_seconds(reference)
    while True:
        untraced.append(run_child(work))
        ref_after = ref_seconds(reference)
        untraced[-1].ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        if trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{work.name}-{len(traced)}.bin"
            traced.append(run_child(work, spans_path=str(spans)))
            agree &= failed_calls(traced[-1]) == failed_calls(untraced[-1])
            step = statistics.median(a.wall + b.wall for a, b in zip(untraced, traced))
        else:
            step = statistics.median(r.wall for r in untraced)
        if clock() - start + step > seconds:
            return untraced, traced, agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tricatalan" / "cli.py").is_file():
        print(f"perfbench: no tricatalan sources at {SRC}", file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed)
    pin_to_one_cpu()
    try:
        result = bench(work, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def bench(work: workloads.Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload, print the report, and return the result object."""
    setup = [] if trace else measure_setup()
    untraced, traced, agree = measure(work, seconds, trace)
    runs = untraced + traced
    if work.scan_max_i is not None:
        runs.append(run_child(work, scan=True))
    if trace:
        metrics, units = traced_metrics(untraced, traced), dict(LAYER_METRICS)
    else:
        metrics, units = e2e_metrics(work, untraced, setup), E2E_UNITS
    ctx = context(work, seed, seconds, int(trace), untraced[0].recursion_limit)
    attempted = sum(len(r.statuses) for r in runs)
    failures = report(work, runs, metrics, units, ctx, attempted)
    if not trace:
        print("raw seconds, medians of runs: " +
              ", ".join(f"{k} {v:.6f}" for k, v in raw_seconds(untraced).items()))
    if not agree:
        print("traced and untraced runs failed different calls")
    wrong = sum(count for (status, _c, _w), count in failures.items() if status == "wrong")
    return {
        "correct": not wrong and agree,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _s) in metrics.items()},
    }


def report(work: workloads.Workload, runs: list[Run], metrics: dict, units: dict,
           ctx: dict, attempted: int) -> dict:
    """Print context, metrics and failures; return failure counts by (status, call, why)."""
    print(f"context {json.dumps(ctx)}")
    for name, (value, samples) in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]:6s} ({samples})")
    failures: dict[tuple, int] = {}
    for r in runs:
        for k in failed_calls(r):
            key = (r.statuses[k], " ".join(work.ops[k].argv[:2]), r.ops[k]["why"])
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    print(f"{'fail_frac':40s} {failed / attempted:16.6f} {'ratio':6s} "
          f"({failed} of {attempted} calls)")
    for (status, call, why), count in sorted(failures.items()):
        print(f"failed x{count}: {call} [{status}] {why}")
    if "trace.wall_s" in metrics:
        layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in ("bench",) + tracing.LAYERS)
        wall, plain = metrics["trace.wall_s"][0], metrics["trace.untraced_wall_s"][0]
        print(f"layer self times sum to {layer_sum:.3f} s of traced wall_s {wall:.3f} s;"
              f" tracing overhead {wall - plain:.3f} s")
    return failures


if __name__ == "__main__":
    sys.exit(main())
