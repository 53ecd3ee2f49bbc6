"""One benchmark run of one workload, in a fresh process.

`run.py` starts this file with the thread pools pinned to one thread and
reads the JSON result it writes.  It only calls the public entry points of
`cosearch` (`cli.main` for the desk loop, `run_search` and `rank_configs`
for the library workloads); the timers it needs are wrapped around those
from outside.  Every config key is spelled out here, so a change of a
library or CLI default cannot change what the benchmark measures.

    python3 perfbench/worker.py --workload desk_search --seed 1 \
        --size full --rounds 1 --t0 <time.time() at spawn> --result out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import cosearch  # noqa: E402
from cosearch import cli, costmodel, data, oracle, search, supernet  # noqa: E402
from cosearch import tensorcore  # noqa: E402

import layertrace  # noqa: E402

WORKLOADS = ("desk_search", "wide_space", "oracle_recovery")

# An operation's output checks (besides "it did not raise").
EVAL_MIN_TEST_ACCURACY = 0.90

# The design the desk loop evaluates.  Retraining cost follows the design,
# so evaluating whatever the search found made eval time swing with the
# seed (total_s spread 20% over five seeds); a pinned design keeps the work
# fixed.  Searched desk designs are all 4-bit, and a 4-bit design missed
# the accuracy check on 2 of 10 retrain seeds; at 8 bits it passed 10 of
# 10 (but see EVAL_SEED).
EVAL_DESIGN = dict(ops=[0, 2, 0, 2], bits=[8, 8, 8, 8], pfs=[6, 6, 6, 6])

# The eval retrains from criterion 7's seed, not the workload seed (the
# search gets the workload seed by `--seed`).  Retraining this design at
# lr 0.05 / momentum 0.9 stalls or collapses at 0.5-0.75 test accuracy on
# about 3 in 100 seeds (e.g. 971525788, 2132787083, 1291695972), and more
# epochs do not cure it (2-3 in 100 at every epoch from 16 to 26), so a
# seeded eval would fail the accuracy check by chance.  Seed 1 holds 1.0
# from epoch 4 to 30.  The eval is then the same work in every run.
EVAL_SEED = 1

# The recovery searches placed in the oracle ranking use criterion 4's
# first three search seeds; the workload seed is the oracle's protocol seed.
# Their work then does not change with the workload seed, which would
# otherwise move the step percentiles with whichever design each seed
# finds, and three of them (192 steps) average over more machine drift.
RECOVERY_SEEDS = (1, 2, 3)

# Work per run.  "full" is what the benchmark measures; "tiny" only
# exercises the plumbing (see selftest.py).
SIZES = {
    "full": {
        "desk": dict(epochs=12, steps=12, batch=32, samples=256, retune=400,
                     retrain_epochs=15),
        "wide": dict(epochs=12, steps=12, batch=8, samples=96, retune=400),
        "oracle": dict(epochs=8, steps=8, batch=24, samples=192, retune=400,
                       train_steps=12),
    },
    "tiny": {
        "desk": dict(epochs=3, steps=3, batch=16, samples=96, retune=20,
                     retrain_epochs=10),
        "wide": dict(epochs=4, steps=4, batch=8, samples=32, retune=20),
        "oracle": dict(epochs=2, steps=3, batch=24, samples=48, retune=20,
                       train_steps=2),
    },
}


class SetupReached(BaseException):
    """Raised at the first unit of work when only set-up is being timed.

    A BaseException, so that no `except Exception` on the way out (the
    benchmark's own operation guard included) mistakes it for a failure."""


def pinned(cls, **values):
    """`cls(**values)`, refusing to leave any dataclass field to its default."""
    names = {f.name for f in dataclasses.fields(cls)}
    missing, unknown = names - values.keys(), values.keys() - names
    if missing or unknown:
        raise TypeError(f"{cls.__name__}: benchmark pins {sorted(values)}; "
                        f"unpinned {sorted(missing)}, unknown {sorted(unknown)}")
    return cls(**values)


# -- end-to-end timers ------------------------------------------------------------

class Timers:
    """The timer pairs behind the end-to-end metrics, around public calls."""

    def __init__(self, t0, probe):
        self.t0 = t0
        self.probe = probe
        self.setup_s = None
        self.step_ms = []  # one list per search
        self.search_s = 0.0
        self._undo = []

    def first_unit(self):
        if self.setup_s is None:
            self.setup_s = time.time() - self.t0
            if self.probe:
                raise SetupReached

    def step_percentiles(self):
        """Each search's median and 90th-percentile step latency, averaged
        over the run's searches.  Pooling the steps of different devices
        put the median on the boundary between their step times."""
        per = [statistics.quantiles(s, n=10) for s in self.step_ms if len(s) > 1]
        if not per:
            return 0.0, 0.0
        return (statistics.fmean(q[4] for q in per),
                statistics.fmean(q[8] for q in per))

    def install(self, modules):
        clock = time.perf_counter

        def step(fn):
            def timed_step(*args, **kwargs):
                self.first_unit()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.step_ms[-1].append((clock() - start) * 1e3)
            return timed_step

        def run(fn):
            def timed_search(*args, **kwargs):
                self.step_ms.append([])
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.search_s += clock() - start
            return timed_search

        def config(fn):
            def first_config(*args, **kwargs):
                self.first_unit()
                return fn(*args, **kwargs)
            return first_config

        for owner, attr, make in ((search, "bilevel_step", step),
                                  (search, "run_search", run),
                                  (oracle, "evaluate_config_exact", config)):
            layertrace.patch_function(modules, owner, attr, make, self._undo)


# -- operations --------------------------------------------------------------------

class Ledger:
    """Operations attempted, their failures, and their wall time.

    A failed check is recorded and the run goes on; it never stops it."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.problems = []  # (label, problem), one per failed operation
        self.total_s = 0.0
        self.fingerprint = []
        self.splits = {}

    def run(self, label, count, fn):
        """Run `fn` as `count` operations; it returns a list of
        (failed operations, problem)."""
        before = self.tracer.self_seconds() if self.tracer else None
        start = time.perf_counter()
        try:
            failures = fn()
        except Exception as exc:  # any raise fails the whole unit
            failures = [(count, f"raised {type(exc).__name__}: {exc}")]
        seconds = time.perf_counter() - start
        self.total_s += seconds
        self.attempted += count
        for n, problem in failures:
            self.problems.extend([(label, problem)] * n)
        if self.tracer:
            after = self.tracer.self_seconds()
            delta = {k: v - before.get(k, 0.0) for k, v in after.items()}
            self.splits[label] = split_summary(seconds, delta)

    def note(self, *items):
        self.fingerprint.append("|".join(str(i) for i in items))


def split_summary(seconds, self_s):
    """Self seconds of one operation by layer, and of its main primitives."""
    out = {"seconds": seconds}
    for layer in layertrace.LAYERS:
        out[layer] = sum(v for k, v in self_s.items()
                         if k.startswith(layer + "."))
    for op in layertrace.PRIMITIVES:
        out["tc." + op] = (self_s.get(f"tensorcore.{op}", 0.0)
                           + self_s.get(f"tensorcore.{op}.bwd", 0.0))
    return out


def blas_name():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def g17(x):
    return format(float(x), ".17g")


def search_problems(summary, device_kind, bound):
    """Output checks of one search, from a summary that both the CLI's
    files and the library's report reduce to."""
    if summary["aborted"] is not None:
        return [f"numerical abort: {summary['aborted']}"]
    problems = []
    if not summary["last_loss"] < summary["first_loss"]:
        problems.append(f"total_loss did not fall: first "
                        f"{summary['first_loss']}, last {summary['last_loss']}")
    if device_kind == "gpu_table":
        if len(set(summary["bits"])) != 1 or summary["pfs"] is not None:
            problems.append(f"gpu design is not one global bit-width without "
                            f"parallel factors: bits {summary['bits']}, "
                            f"pf {summary['pfs']}")
    elif not summary["resource"] <= bound:
        problems.append(f"design resource {summary['resource']} exceeds "
                        f"bound {bound}")
    return problems


def library_summary(report):
    design = report.design
    return {
        "aborted": report.aborted,
        "first_loss": report.epochs[0]["total_loss"] if report.epochs else None,
        "last_loss": report.epochs[-1]["total_loss"] if report.epochs else None,
        "ops": None if design is None else design.op_indices,
        "bits": None if design is None else design.bit_widths,
        "pfs": None if design is None else design.parallel_factors,
        "resource": None if design is None else design.predicted["resource"],
    }


# -- desk_search: the CLI loop (search, then eval of a pinned design) --------------

def desk_config_doc(seed, size, out_dir, res_ub):
    s = SIZES[size]["desk"]
    return {
        "search": {
            "epochs": s["epochs"], "steps_per_epoch": s["steps"],
            "batch_size": s["batch"], "lr_weights": 0.05, "momentum": 0.9,
            "lr_arch": 0.05, "lr_pf": 0.05, "tau_start": 5.0, "tau_end": 0.5,
            "seed": seed, "alpha": 1.0, "beta": 1.0,
            "penalty_base": math.e, "penalty_res_norm": 900.0,
            "retune_steps": s["retune"], "retune_lr": 0.03,
            "retrain_epochs": s["retrain_epochs"],
        },
        "space": {
            "blocks": 4, "kernel_sizes": [3, 5], "expansion_ratios": [2, 4],
            "bit_widths": [4, 8, 16], "input_hw": [16, 16],
            "input_channels": 3, "stem_channels": 8,
            "channel_plan": [8, 16, 16, 32], "downsample_blocks": [2, 4],
            "num_classes": 4,
        },
        "device": {
            "kind": "fpga_recursive", "resource_bound": res_ub,
            "pf_max": math.log2(900.0), "gpu_table_path": None,
        },
        "data": {
            "classes": 4, "samples_per_class": s["samples"], "height": 16,
            "width": 16, "channels": 3, "seed": 7, "noise_std": 0.25,
            "fractions": [0.4, 0.4, 0.2],
        },
        "output": {"directory": out_dir, "formats": ["json", "csv"]},
    }


def check_all_keys_pinned(doc):
    defaults = cli.default_config()
    for section, keys in defaults.items():
        missing = set(keys) - set(doc.get(section, {}))
        if missing:
            raise TypeError(f"benchmark config leaves {section}.{sorted(missing)} "
                            f"to the CLI default")


def desk_search(ledger, seed, size, inject_failure, run_dir):
    res_ub = 1.0 if inject_failure else 900.0
    out_dir = os.path.join(run_dir, f"desk_search-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    doc = desk_config_doc(EVAL_SEED, size, out_dir, res_ub)
    check_all_keys_pinned(doc)
    cfg_path = os.path.join(out_dir, "run.yaml")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)  # JSON is YAML; floats keep all their digits
    design_path = os.path.join(out_dir, "eval_design.json")
    report_path = os.path.join(out_dir, f"seed{seed}_report.json")
    common = ["-c", cfg_path, "--device", "fpga_recursive",
              "--output", out_dir]
    for stale in (report_path, os.path.join(out_dir, "eval.json")):
        if os.path.exists(stale):
            os.remove(stale)
    config = cli.build_search_config(doc)
    design = search.DerivedDesign(
        device_kind="fpga_recursive", op_indices=EVAL_DESIGN["ops"],
        bit_widths=EVAL_DESIGN["bits"], parallel_factors=EVAL_DESIGN["pfs"],
        shared_precision=False)
    design.predicted = search.predict_discrete(
        config.space, config.device, design.op_indices, design.bit_widths,
        design.parallel_factors)
    cli.write_json(design_path, cli.design_document(
        design, config.space, search.config_hash(config)))

    def do_search():
        code = cli.main(["search", *common, "--seed", str(seed),
                         "--workers", "1"])
        if code != 0:
            return [(1, f"cosearch search exited {code}")]
        report = cli.read_json(report_path)
        epochs, design = report["epochs"], report["design"]
        blocks = design["blocks"] if design else []
        summary = {
            "aborted": report["aborted"],
            "first_loss": epochs[0]["total_loss"] if epochs else None,
            "last_loss": epochs[-1]["total_loss"] if epochs else None,
            "ops": [b["op_index"] for b in blocks],
            "bits": [b["bit_width"] for b in blocks],
            "pfs": [b["parallel_factor"] for b in blocks],
            "resource": design["predicted"]["resource"] if design else None,
        }
        ledger.note("search", seed, summary["ops"], summary["bits"],
                    summary["pfs"], g17(summary["last_loss"] or 0.0))
        problems = search_problems(summary, "fpga_recursive", res_ub)
        return [(1, "; ".join(problems))] if problems else []

    def do_eval():
        code = cli.main(["eval", *common, design_path, "--retrain-epochs",
                         str(SIZES[size]["desk"]["retrain_epochs"])])
        if code != 0:
            return [(1, f"cosearch eval exited {code}")]
        result = cli.read_json(os.path.join(out_dir, "eval.json"))
        ledger.note("eval", g17(result["test_accuracy"]),
                    g17(result["val_loss"]))
        if result["test_accuracy"] < EVAL_MIN_TEST_ACCURACY:
            return [(1, f"test accuracy {result['test_accuracy']} < "
                        f"{EVAL_MIN_TEST_ACCURACY}")]
        return []

    ledger.run(f"search seed {seed}", 1, do_search)
    ledger.run(f"eval seed {seed}", 1, do_eval)


# -- wide_space: one library search per device kind ------------------------------

def wide_space_space():
    return pinned(
        supernet.SearchSpace, num_blocks=6, kernel_sizes=(3, 5, 7),
        expansion_ratios=(1, 2, 3, 4),
        quant=pinned(supernet.QuantLevels, bit_widths=(4, 8, 16)),
        input_hw=(8, 8), input_channels=3, stem_channels=8,
        channel_plan=(8,) * 6, downsample_blocks=(2, 4), num_classes=4)


def search_config(space, device, dataset_spec, seed, s):
    res_norm = device.res_ub if device.kind != "gpu_table" else 1.0
    return pinned(
        search.SearchConfig, space=space, device=device,
        hyper=pinned(costmodel.CostHyperparams, alpha=1.0, beta=1.0,
                     base=math.e, res_norm=res_norm),
        data=dataset_spec, fractions=(0.4, 0.4, 0.2), epochs=s["epochs"],
        steps_per_epoch=s["steps"], batch_size=s["batch"], lr_weights=0.05,
        momentum=0.9, lr_arch=0.05, lr_pf=0.05, tau_start=5.0, tau_end=0.5,
        seed=seed, retune_steps=s["retune"], retune_lr=0.03,
        retrain_epochs=15)


def fpga(kind, res_ub):
    return pinned(costmodel.DeviceModel, kind=kind, res_ub=res_ub, table=None,
                  pf_max=math.log2(res_ub))


def library_search(ledger, label, config):
    """One run_search as one operation; returns its summary, or None if it
    raised."""
    summary = None

    def do_search():
        nonlocal summary
        summary = library_summary(search.run_search(config))
        ledger.note(label, config.seed, summary["ops"], summary["bits"],
                    summary["pfs"], g17(summary["last_loss"] or 0.0))
        problems = search_problems(summary, config.device.kind,
                                   config.device.res_ub)
        return [(1, "; ".join(problems))] if problems else []
    ledger.run(f"{label} seed {config.seed}", 1, do_search)
    return summary


def wide_space(ledger, seed, size, inject_failure, run_dir):
    s = SIZES[size]["wide"]
    space = wide_space_space()
    spec = pinned(data.DatasetSpec, num_classes=4, samples_per_class=s["samples"],
                  height=8, width=8, channels=3, seed=7, noise_std=0.25,
                  label_noise=0.0)
    gpu = pinned(costmodel.DeviceModel, kind="gpu_table", res_ub=0.0,
                 table=costmodel.reference_gpu_table(space), pf_max=None)
    budgets = (1.0, 1.0) if inject_failure else (900.0, 4000.0)
    for device in (fpga("fpga_recursive", budgets[0]),
                   fpga("fpga_pipelined", budgets[1]), gpu):
        library_search(ledger, f"search {device.kind}",
                       search_config(space, device, spec, seed, s))


# -- oracle_recovery: criterion-4 ranking, then a search to place in it ------------

def recovery_config(seed, size, res_ub):
    s = SIZES[size]["oracle"]
    space = pinned(
        supernet.SearchSpace, num_blocks=2, kernel_sizes=(3, 5, 7),
        expansion_ratios=(2,),
        quant=pinned(supernet.QuantLevels, bit_widths=(4, 8)),
        input_hw=(12, 12), input_channels=3, stem_channels=8,
        channel_plan=(8, 16), downsample_blocks=(2,), num_classes=4)
    spec = pinned(data.DatasetSpec, num_classes=4,
                  samples_per_class=s["samples"], height=12, width=12,
                  channels=3, seed=7, noise_std=0.25, label_noise=0.25)
    return search_config(space, fpga("fpga_recursive", res_ub), spec, seed, s)


def oracle_recovery(ledger, seed, size, inject_failure, run_dir):
    s = SIZES[size]["oracle"]
    config = recovery_config(seed, size, 1.0 if inject_failure else 96.0)
    space = config.space
    expected = (space.num_ops * len(space.quant)) ** space.num_blocks
    protocol = pinned(oracle.OracleProtocol, train_steps=s["train_steps"],
                      batch_size=24, lr=0.03, momentum=0.9, seed=seed,
                      cap=4096, workers=1, retune_steps=s["retune"],
                      retune_lr=0.03)
    ranking = None

    def do_rank():
        nonlocal ranking
        ranking = oracle.rank_configs(config, protocol)
        totals = [e.total_loss for e in ranking.entries]
        for e in ranking.entries[:2]:
            ledger.note("oracle", list(e.config.op_indices),
                        list(e.config.bit_widths),
                        list(e.config.parallel_factors or ()),
                        g17(e.total_loss))
        if any(b < a for a, b in zip(totals, totals[1:])):
            return [(expected, "ranking is not sorted ascending")]
        failures = [(1, f"excluded {list(c.op_indices)}/{list(c.bit_widths)}: "
                        f"{reason}") for c, reason in ranking.excluded]
        missing = expected - len(ranking.entries) - len(ranking.excluded)
        if missing:
            failures.append((missing, f"{len(ranking.entries)} of {expected} "
                                      f"configs ranked"))
        return failures

    ledger.run(f"oracle seed {seed}", expected, do_rank)
    for search_seed in RECOVERY_SEEDS:
        found = library_search(ledger, "recovery search",
                               dataclasses.replace(config, seed=search_seed))
        if ranking is not None and found is not None and found["ops"]:
            try:
                rank = ranking.rank_of(found["ops"], found["bits"])
            except oracle.OracleError:
                rank = None  # excluded, and already counted as failed there
            ledger.note("rank", search_seed, rank)


RUNNERS = {"desk_search": desk_search, "wide_space": wide_space,
           "oracle_recovery": oracle_recovery}


def run_workload(name, seed, size, rounds, inject_failure, ledger, run_dir):
    """`rounds` repeats of the workload's fixed work, on seeds seed,
    seed + 1, ...; an injected failure gives every FPGA device a budget of
    one DSP, which no design can meet."""
    for r in range(rounds):
        RUNNERS[name](ledger, seed + r, size, inject_failure, run_dir)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--t0", type=float, required=True,
                   help="time.time() just before this process was started")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true",
                   help="stop at the first unit of work; time set-up only")
    p.add_argument("--inject-failure", action="store_true")
    args = p.parse_args(argv)

    if not os.path.abspath(cosearch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cosearch imported from {cosearch.__file__}, "
                         f"not from {SRC}")
    modules = {"tensorcore": tensorcore, "supernet": supernet,
               "costmodel": costmodel, "search": search, "oracle": oracle,
               "data": data, "cli": cli}
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install(modules)
    timers = Timers(args.t0, args.probe)
    timers.install(list(modules.values()))
    run_dir = os.path.dirname(os.path.abspath(args.result))
    ledger = Ledger(tracer)

    try:
        run_workload(args.workload, args.seed, args.size, args.rounds,
                     args.inject_failure, ledger, run_dir)
    except SetupReached:
        pass
    if timers.setup_s is None:
        # no unit of work started (every operation failed before one)
        timers.setup_s = time.time() - args.t0
    result = {"setup_s": timers.setup_s}
    if not args.probe:
        p50, p90 = timers.step_percentiles()
        result.update({
            "attempted": ledger.attempted,
            "failed": len(ledger.problems),
            "problems": ledger.problems,
            "total_s": ledger.total_s,
            "search_s": timers.search_s,
            "steps": sum(len(s) for s in timers.step_ms),
            "step_ms.p50": p50,
            "step_ms.p90": p90,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fingerprint": hashlib.sha256(
                "\n".join(ledger.fingerprint).encode()).hexdigest(),
            "numpy": np.__version__,
            "blas": blas_name(),
        })
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = {k: list(v)
                                for k, v in tracer.layer_metrics().items()}
            result["span_problems"] = tracer.check_spans()[:20]
            result["spans"] = len(tracer.columns[1])
            result["splits"] = ledger.splits
            spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
            tracer.write_spans(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
