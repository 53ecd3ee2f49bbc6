"""Plumbing self-test of the benchmark, at minimal size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py at `--size tiny`
(seed 1) and checks that:

- an untraced run emits every end-to-end metric with its unit, all
  positive, with no failed operation;
- two traced runs emit every per-layer metric with its unit, produce
  nested spans with non-negative self times, and repeat every count and
  the behaviour fingerprint exactly (the untraced fingerprint too);
- a run with an injected failure (an unmeetable FPGA budget) still exits 0
  and prints a result, counting the failure as a failed operation;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise, listing what broke.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_runs")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def parse(lines):
    result = json.loads(lines[-1])
    fingerprint = next(line.split(": ", 1)[1] for line in lines
                       if line.startswith("fingerprint "))
    return result, fingerprint


def check_metrics(problems, where, result, wanted):
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    got = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in wanted}
    if set(got) != set(names):
        problems.append(f"{where}: missing {sorted(set(names) - set(got))}, "
                        f"extra {sorted(set(got) - set(names))}")
    for name, unit in names.items():
        entry = got.get(name)
        if entry is not None and entry.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {entry.get('unit')}, "
                            f"BENCHMARK.json says {unit}")


def check_spans(problems, where, path):
    """Nesting and self times, recomputed from the written spans."""
    spans = []
    with open(path) as fh:
        for line in fh:
            spans.append(json.loads(line))
    child = [0.0] * len(spans)
    depth = [0] * len(spans)
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            depth[idx] = depth[parent] + 1
            child[parent] += end - start
    if not spans or max(depth) < 2:
        problems.append(f"{where}: spans are not nested "
                        f"({len(spans)} spans)")
    bad = [s[0] for s, c in zip(spans, child) if s[2] - s[1] - c < -1e-9]
    if bad:
        problems.append(f"{where}: {len(bad)} spans with negative self time, "
                        f"first {bad[0]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        code, lines = run_bench(ROOT, workload, 0)
        if code != 0:
            problems.append(f"{workload}: untraced run exited {code}")
            continue
        result, plain_fp = parse(lines)
        check_metrics(problems, f"{workload} trace 0", result,
                      spec["end_to_end"])
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} trace 0: {result['failed']} failed "
                            f"operations: {lines[-2]}")
        if not all(m["value"] > 0 for m in result["metrics"].values()):
            problems.append(f"{workload} trace 0: a metric is not positive")

        counts = []
        for attempt in (1, 2):
            code, lines = run_bench(ROOT, workload, 1)
            if code != 0:
                problems.append(f"{workload}: traced run {attempt} exited "
                                f"{code}")
                break
            result, fp = parse(lines)
            where = f"{workload} trace 1 #{attempt}"
            check_metrics(problems, where, result, spec["per_layer"])
            if fp != plain_fp:
                problems.append(f"{where}: fingerprint {fp} differs from the "
                                f"untraced {plain_fp}")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
            with open(os.path.join(RUN_DIR,
                                   f"{workload}-seed1-trace1.json")) as fh:
                record = json.load(fh)
            problems.extend(f"{where}: {p}" for p in record["span_problems"])
            check_spans(problems, where, os.path.join(ROOT,
                                                      record["spans_file"]))
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append(f"{workload}: counts differ between traced runs: "
                            f"{diff}")

        code, lines = run_bench(ROOT, workload, 0, "--inject-failure")
        if code != 0:
            problems.append(f"{workload}: injected failure made the run exit "
                            f"{code}")
        else:
            result, _ = parse(lines)
            if result["correct"] or result["failed"] < 1:
                problems.append(f"{workload}: injected failure not counted: "
                                f"{lines[-1]}")
        print(f"{workload}: checked", flush=True)

    bare = os.path.join(RUN_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(bare, spec["workloads"][0]["name"], 0)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without sources run.py exited {code} with "
                        f"{lines[-1:]}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
