"""Benchmark of cosearch: one run of one workload.

    python3 perfbench/run.py --workload desk_search --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; `src/cosearch` is imported from there.
Each run starts its work in fresh processes (`worker.py`), one at a time,
with the BLAS/OpenMP thread pools pinned to one thread.  With `--trace 0`
it first starts a few processes that only set up and stop at the first
unit of work, for the median set-up time, then one process that does the
measured work; the last stdout line is the JSON result with the
end-to-end metrics.  With `--trace 1` the one process runs with every
layer wrapped by `layertrace.py` and the result carries the per-layer
metrics instead.  Details, records and spans go to `.perfbench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("desk_search", "wide_space", "oracle_recovery")

# One round of each workload's fixed work takes about this long on a
# 2-core x86 box; a run does round(seconds / ROUND_SECONDS) rounds, at least 1.
ROUND_SECONDS = 30
SETUP_PROBES = 2
DEADLINE_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
END_TO_END = {"setup_s": "s", "total_s": "s", "search_s": "s",
              "step_ms.p50": "ms", "step_ms.p90": "ms", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def start_worker(args, result_path, deadline, probe=False, rounds=1):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--rounds", str(rounds),
           "--result", result_path]
    if args.trace and not probe:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    if args.inject_failure:
        cmd.append("--inject-failure")
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if os.path.exists(result_path):
        os.remove(result_path)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    t0 = time.time()
    try:
        # the worker's own output goes to stderr; stdout ends with our result
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=sys.stderr.fileno(), timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker still running after {remaining:.0f} s; "
                        f"killed") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def commit_of(root):
    """The checked-out commit, read without running git; None outside git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest(src):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal work, for selftest.py only")
    p.add_argument("--inject-failure", action="store_true",
                   help="give FPGA devices an unmeetable budget "
                        "(selftest.py only)")
    args = p.parse_args(argv)
    # as an exception, a TERM makes subprocess.run kill and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(ROOT, "src", "cosearch")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"perfbench: no cosearch sources at {src}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        p.error("--seconds must be positive")
    rounds = max(1, round(args.seconds / ROUND_SECONDS)) \
        if args.size == "full" else 1
    os.makedirs(RUN_DIR, exist_ok=True)
    stem = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")

    load_before = os.getloadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = start_worker(args, stem + ".probe.json", deadline,
                                     probe=True)
                setups.append(probe["setup_s"])
        result = start_worker(args, stem + ".json", deadline, rounds=rounds)
    except (RunFailed, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    setups.append(result["setup_s"])

    if args.trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in result["layers"].items()}
        metrics["trace.total_s"] = {"value": result["total_s"], "unit": "s"}
        metrics["trace.search_s"] = {"value": result["search_s"], "unit": "s"}
    else:
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = result["failed"]
    out = {"correct": failed == 0 and not result.get("span_problems"),
           "attempted": result["attempted"], "failed": failed,
           "metrics": metrics}
    nproc = os.cpu_count()
    # one core is this run's own; more than half a core of other work
    # during the run makes its timings suspect
    noisy = max(load_before[0], load_after[0]) > 1.5
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": result["numpy"], "blas": result["blas"],
           "commit": commit_of(ROOT), "src_sha256": source_digest(src),
           "loadavg_before": load_before, "loadavg_after": load_after,
           "noisy": noisy, "seconds": args.seconds, "rounds": rounds,
           "size": args.size, "setup_samples": setups}
    record = dict(result, env=env, output=out)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out['attempted']} operations, {failed} failed, "
          f"{result['steps']} search steps")
    print(f"fingerprint {args.workload} seed {args.seed}: "
          f"{result['fingerprint']}")
    print("env " + json.dumps(env, sort_keys=True))
    if noisy:
        print(f"note: load average {load_before[0]:.2f} before and "
              f"{load_after[0]:.2f} after the run on {nproc} cores: other "
              f"work shared the machine, timings may be inflated")
    for label, problem in result["problems"]:
        print(f"failed: {label}: {problem}")
    for problem in result.get("span_problems", []):
        print(f"span problem: {problem}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
