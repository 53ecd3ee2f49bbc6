"""Command-line front end.

Subcommands: search, enumerate, eval, compare, template.  Config files are
commented YAML validated against the schema below; every emitted artifact
is JSON with floats at 17 significant digits so identical runs produce
identical bytes.

Exit codes: 0 success, 1 usage/config error, 2 infeasibility, 3 numerical
abort, 4 comparison threshold exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import sys

import numpy as np
import yaml

from . import data as datamod
from . import oracle as oraclemod
from .costmodel import (CostError, CostHyperparams, DeviceModel,
                        GpuLatencyTable)
from .search import (DerivedDesign, InfeasibleError, SearchConfig, SearchError,
                     config_hash, map_workers, predict_discrete,
                     retrain_design, run_search)
from .supernet import QuantLevels, SearchSpace, SpaceError

ENV_OUTPUT_DIR = "COSEARCH_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4


class ConfigFileError(Exception):
    pass


# -- schema: section -> key -> (type, default, comment) ---------------------------
# A default that sets a library field is read from that field; the literals
# are the CLI's own settings.

_SC, _SS = SearchConfig, SearchSpace
_HP, _DS = CostHyperparams, datamod.DatasetSpec

_SCHEMA = {
    "search": {
        "epochs": (int, _SC.epochs, "bilevel epochs of the co-search"),
        "steps_per_epoch": (int, _SC.steps_per_epoch,
                            "alternating steps per epoch"),
        "batch_size": (int, _SC.batch_size, "minibatch size for both phases"),
        "lr_weights": (float, _SC.lr_weights, "SGD step for network weights"),
        "momentum": (float, _SC.momentum, "SGD momentum for network weights"),
        "lr_arch": (float, _SC.lr_arch, "Adam step for op/bit-width logits"),
        "lr_pf": (float, _SC.lr_pf, "Adam step for parallel factors"),
        "tau_start": (float, _SC.tau_start, "initial sampling temperature"),
        "tau_end": (float, _SC.tau_end,
                    "final sampling temperature (exponential anneal)"),
        "seed": (int, _SC.seed, "run seed; overridable with --seed"),
        "alpha": (float, _HP.alpha, "performance-loss scale"),
        "beta": (float, _HP.beta, "resource-penalty weight"),
        "penalty_base": (float, _HP.base, "resource-penalty base (> 1)"),
        "penalty_res_norm": (
            "optional_float", None,
            "divisor of the penalty exponent; default: the resource bound"),
        "retune_steps": (int, _SC.retune_steps,
                         "descent steps for post-search pf re-tuning"),
        "retune_lr": (float, _SC.retune_lr, "step size for pf re-tuning"),
        "retrain_epochs": (int, _SC.retrain_epochs,
                           "epochs when retraining a derived design"),
    },
    "space": {
        "blocks": (int, _SS.num_blocks, "number of sequential searchable blocks"),
        "kernel_sizes": ("int_list", list(_SS.kernel_sizes),
                         "depthwise kernel menu (odd)"),
        "expansion_ratios": ("int_list", list(_SS.expansion_ratios),
                             "channel expansion menu"),
        "bit_widths": ("int_list", list(_SS.quant.bit_widths),
                       "weight bit-width menu, increasing"),
        "input_hw": ("int_list", list(_SS.input_hw), "input height and width"),
        "input_channels": (int, _SS.input_channels, "input channels"),
        "stem_channels": (int, _SS.stem_channels, "channels out of the stem conv"),
        "channel_plan": ("int_list", list(_SS.channel_plan),
                         "output channels per block"),
        "downsample_blocks": ("int_list", list(_SS.downsample_blocks),
                              "1-indexed blocks that stride by 2"),
        "num_classes": (int, _SS.num_classes,
                        "classifier classes (match data.classes)"),
    },
    "device": {
        "kind": (str, "fpga_recursive",
                 "fpga_recursive | fpga_pipelined | gpu_table"),
        "resource_bound": ("optional_float", 900.0,
                           "DSP budget (FPGA kinds only)"),
        "pf_max": ("optional_float", DeviceModel.pf_max,
                   "parallel-factor clamp; default log2(resource_bound)"),
        "gpu_table_path": ("optional_str", None,
                           "YAML latency table, required for gpu_table"),
    },
    "data": {
        "classes": (int, _DS.num_classes, "number of texture classes"),
        "samples_per_class": (int, _DS.samples_per_class,
                              "samples generated per class"),
        "height": (int, _DS.height, "image height"),
        "width": (int, _DS.width, "image width"),
        "channels": (int, _DS.channels, "image channels"),
        "seed": (int, _DS.seed, "generator seed"),
        "noise_std": (float, _DS.noise_std, "additive noise level"),
        "fractions": ("float_list", list(_SC.fractions),
                      "train/validation/test fractions (sum to 1)"),
    },
    "output": {
        "directory": (str, "runs", "where reports/designs/rankings go"),
        "formats": ("str_list", ["json", "csv"],
                    "emit json (always canonical) and/or csv curves"),
    },
}


def default_config() -> dict:
    return {sec: {k: (list(v[1]) if isinstance(v[1], list) else v[1])
                  for k, v in keys.items()}
            for sec, keys in _SCHEMA.items()}


def template_text() -> str:
    lines = ["# cosearch run configuration",
             "# every key is optional; these are the defaults", ""]
    for sec, keys in _SCHEMA.items():
        lines.append(f"{sec}:")
        for key, (_, default, comment) in keys.items():
            if default is None:
                rendered = "null"
            elif isinstance(default, list):
                rendered = "[" + ", ".join(str(v) for v in default) + "]"
            else:
                rendered = str(default)
            lines.append(f"  {key}: {rendered}  # {comment}")
        lines.append("")
    return "\n".join(lines)


def _check_type(path, value, kind):
    def fail(expected):
        raise ConfigFileError(f"{path}: expected {expected}, got {value!r}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer")
        return value
    if value is None and kind in ("optional_float", "optional_str"):
        return None
    if kind in (float, "optional_float"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail("a number")
        # an optional float's owner checks its range, if a float can hold it
        if not abs(value) <= sys.float_info.max and (
                kind is float or isinstance(value, int)):
            fail("a finite number")
        return float(value)
    if kind in (str, "optional_str"):
        if not isinstance(value, str):
            fail("a string")
        return value
    if kind == "int_list":
        if not isinstance(value, list) or not value:
            fail("a non-empty list of integers")
        return [_check_type(f"{path}[{i}]", v, int) for i, v in enumerate(value)]
    if kind == "float_list":
        if not isinstance(value, list) or not value:
            fail("a non-empty list of numbers")
        return [_check_type(f"{path}[{i}]", v, float) for i, v in enumerate(value)]
    if kind == "str_list":
        if not isinstance(value, list):
            fail("a list of strings")
        return [_check_type(f"{path}[{i}]", v, str) for i, v in enumerate(value)]
    raise AssertionError(kind)


def validate_config(raw) -> dict:
    """Schema-check a parsed YAML document; unknown keys are rejected with
    the path to the offending key."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigFileError("config root must be a mapping of sections")
    merged = default_config()
    for sec, content in raw.items():
        if sec not in _SCHEMA:
            raise ConfigFileError(f"unknown section '{sec}'")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigFileError(f"{sec}: expected a mapping")
        for key, value in content.items():
            if key not in _SCHEMA[sec]:
                raise ConfigFileError(f"unknown key '{sec}.{key}'")
            kind = _SCHEMA[sec][key][0]
            merged[sec][key] = _check_type(f"{sec}.{key}", value, kind)
    return merged


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigFileError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigFileError(f"{path}: not valid YAML: {exc}") from None
    return validate_config(raw)


def build_search_config(doc, seed=None, device_kind=None) -> SearchConfig:
    """Turn a validated config document into runnable objects."""
    sp, dv, se, da = doc["space"], doc["device"], doc["search"], doc["data"]
    try:
        space = SearchSpace(
            num_blocks=sp["blocks"],
            kernel_sizes=tuple(sp["kernel_sizes"]),
            expansion_ratios=tuple(sp["expansion_ratios"]),
            quant=QuantLevels(tuple(sp["bit_widths"])),
            input_hw=tuple(sp["input_hw"]),
            input_channels=sp["input_channels"],
            stem_channels=sp["stem_channels"],
            channel_plan=tuple(sp["channel_plan"]),
            downsample_blocks=tuple(sp["downsample_blocks"]),
            num_classes=sp["num_classes"],
        )
    except SpaceError as exc:
        raise ConfigFileError(f"space: {exc}") from None
    kind = device_kind or dv["kind"]
    try:
        if kind == "gpu_table":
            if not dv["gpu_table_path"]:
                raise ConfigFileError(
                    "device.gpu_table_path is required for kind gpu_table")
            table = GpuLatencyTable.from_file(dv["gpu_table_path"])
            device = DeviceModel.gpu(table)
        elif kind in ("fpga_recursive", "fpga_pipelined"):
            if dv["resource_bound"] is None:
                raise ConfigFileError(
                    "device.resource_bound is required for FPGA kinds")
            device = DeviceModel(kind=kind, res_ub=dv["resource_bound"],
                                 pf_max=dv["pf_max"])
        else:
            raise ConfigFileError(f"device.kind: unknown kind '{kind}'")
    except CostError as exc:
        raise ConfigFileError(f"device: {exc}") from None
    res_norm = se["penalty_res_norm"]
    if res_norm is None:
        res_norm = device.default_res_norm
    try:
        hyper = CostHyperparams(alpha=se["alpha"], beta=se["beta"],
                                base=se["penalty_base"], res_norm=res_norm)
        spec = datamod.DatasetSpec(
            num_classes=da["classes"],
            samples_per_class=da["samples_per_class"],
            height=da["height"], width=da["width"], channels=da["channels"],
            seed=da["seed"], noise_std=da["noise_std"])
        return SearchConfig(
            space=space, device=device, hyper=hyper, data=spec,
            fractions=tuple(da["fractions"]),
            epochs=se["epochs"], steps_per_epoch=se["steps_per_epoch"],
            batch_size=se["batch_size"], lr_weights=se["lr_weights"],
            momentum=se["momentum"], lr_arch=se["lr_arch"], lr_pf=se["lr_pf"],
            tau_start=se["tau_start"], tau_end=se["tau_end"],
            seed=se["seed"] if seed is None else int(seed),
            retune_steps=se["retune_steps"], retune_lr=se["retune_lr"],
            retrain_epochs=se["retrain_epochs"],
        )
    except (CostError, SearchError, datamod.DataError, SpaceError) as exc:
        raise ConfigFileError(str(exc)) from None


# -- canonical JSON (bytewise reproducible) ----------------------------------------

def to_json(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + to_json(v, indent + 1)
                           for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + to_json(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(to_json(doc) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- documents ----------------------------------------------------------------------

def design_document(design: DerivedDesign, space: SearchSpace, chash) -> dict:
    blocks = []
    for i in range(space.num_blocks):
        spec = space.op_spec(i, design.op_indices[i])
        blocks.append({
            "index": i,
            "op_index": design.op_indices[i],
            "kernel_size": spec.kernel_size,
            "expansion_ratio": spec.expansion_ratio,
            "stride": spec.stride,
            "in_channels": spec.in_channels,
            "out_channels": spec.out_channels,
            "bit_width": design.bit_widths[i],
            "parallel_factor": (None if design.parallel_factors is None
                                else design.parallel_factors[i]),
            "latency": design.predicted["block_latencies"][i],
        })
    return {
        "schema": "cosearch-design-v1",
        "config_hash": chash,
        "device": design.device_kind,
        "shared_precision": design.shared_precision,
        "global_bit_width": design.global_bit_width,
        "blocks": blocks,
        "predicted": design.predicted,
    }


def design_from_document(doc) -> DerivedDesign:
    blocks = doc["blocks"]
    pfs = [b["parallel_factor"] for b in blocks]
    return DerivedDesign(
        device_kind=doc["device"],
        op_indices=[b["op_index"] for b in blocks],
        bit_widths=[b["bit_width"] for b in blocks],
        parallel_factors=None if any(p is None for p in pfs) else pfs,
        shared_precision=doc["shared_precision"],
        predicted=dict(doc["predicted"]),
    )


def report_document(report) -> dict:
    doc = {
        "schema": "cosearch-report-v1",
        "config_hash": report.config_hash,
        "seed": report.seed,
        "config": report.config,
        "epochs": report.epochs,
        "design": None,
        "aborted": report.aborted,
    }
    return doc


def ranking_document(ranking) -> dict:
    entries = []
    for pos, e in enumerate(ranking.entries):
        entries.append({
            "rank": pos + 1,
            "op_indices": list(e.config.op_indices),
            "bit_widths": list(e.config.bit_widths),
            "parallel_factors": (None if e.config.parallel_factors is None
                                 else list(e.config.parallel_factors)),
            "acc_loss": e.acc_loss,
            "perf_loss": e.perf_loss,
            "resource": e.resource,
            "total_loss": e.total_loss,
        })
    return {
        "schema": "cosearch-ranking-v1",
        "config_hash": ranking.config_hash,
        "perf_norm": ranking.perf_norm,
        "excluded": [{"op_indices": list(c.op_indices),
                      "bit_widths": list(c.bit_widths),
                      "reason": reason} for c, reason in ranking.excluded],
        "entries": entries,
    }


def curves_csv(report) -> str:
    cols = ["epoch", "tau", "train_acc_loss", "val_acc_loss", "perf_loss",
            "resource", "total_loss"]
    lines = [",".join(cols)]
    for row in report.epochs:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(str(v) if isinstance(v, int)
                         else format(float(v), ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- commands -----------------------------------------------------------------------

def _out_dir(doc, override):
    path = override or os.environ.get(ENV_OUTPUT_DIR) or doc["output"]["directory"]
    os.makedirs(path, exist_ok=True)
    return path


def _parse_seeds(args):
    if args.seeds:
        lo, _, hi = args.seeds.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ConfigFileError(
                f"--seeds wants LO..HI, got '{args.seeds}'") from None
        if hi_i < lo_i:
            raise ConfigFileError(f"--seeds range is empty: {args.seeds}")
        return list(range(lo_i, hi_i + 1))
    if args.seed is not None:
        return [int(args.seed)]
    return [None]


def cmd_search(args) -> int:
    doc = load_config_file(args.config)
    seeds = _parse_seeds(args)
    if args.workers < 1:
        raise ConfigFileError(f"--workers must be >= 1, got {args.workers}")
    configs = [build_search_config(doc, seed=s, device_kind=args.device)
               for s in seeds]
    dataset = datamod.generate_dataset(configs[0].data)

    reports = map_workers(lambda c: run_search(c, dataset=dataset), configs,
                          args.workers)

    # only now: a config error or an infeasible budget leaves no directory
    out = _out_dir(doc, args.output)
    status = EXIT_OK
    summary = []
    for config, report in zip(configs, reports):
        stem = os.path.join(out, f"seed{config.seed}")
        rep_doc = report_document(report)
        if report.design is not None:
            ddoc = design_document(report.design, config.space,
                                   report.config_hash)
            rep_doc["design"] = ddoc
            write_json(f"{stem}_design.json", ddoc)
        write_json(f"{stem}_report.json", rep_doc)
        if "csv" in doc["output"]["formats"]:
            with open(f"{stem}_curves.csv", "w") as fh:
                fh.write(curves_csv(report))
        usage = resource.getrusage(resource.RUSAGE_SELF)  # process-wide so far
        with open(f"{stem}_report.meta.txt", "w") as fh:
            fh.write(f"wall_clock_seconds={report.wall_clock_seconds:.3f}\n"
                     f"peak_rss_mb={usage.ru_maxrss / 1024:.2f}\n"
                     f"minor_faults={usage.ru_minflt}\n")
        if report.aborted is not None:
            print(f"seed {config.seed}: numerical abort at epoch "
                  f"{report.aborted['epoch']}: {report.aborted['reason']}")
            status = EXIT_NUMERICAL
        else:
            final = report.epochs[-1]["total_loss"]
            res = report.design.predicted["resource"]
            print(f"seed {config.seed}: final loss {final:.4f}, "
                  f"design resource {res:g} "
                  f"({report.wall_clock_seconds:.1f}s)")
            summary.append({"seed": config.seed, "final_total_loss": final,
                            "design_resource": res})
    if len(seeds) > 1:
        write_json(os.path.join(out, "summary.json"),
                   {"schema": "cosearch-summary-v1",
                    "config_hash": reports[0].config_hash,
                    "runs": sorted(summary, key=lambda r: r["seed"])})
    return status


def cmd_enumerate(args) -> int:
    doc = load_config_file(args.config)
    config = build_search_config(doc, device_kind=args.device)
    protocol = oraclemod.OracleProtocol(
        train_steps=args.train_steps, seed=args.protocol_seed, cap=args.cap,
        workers=args.workers, retune_steps=config.retune_steps,
        retune_lr=config.retune_lr)
    ranking = oraclemod.rank_configs(config, protocol)
    path = os.path.join(_out_dir(doc, args.output), "ranking.json")
    write_json(path, ranking_document(ranking))
    print(f"{len(ranking.entries)} configurations ranked -> {path}")
    for e in ranking.entries[:5]:
        print(f"  L={e.total_loss:.5f} ops={list(e.config.op_indices)} "
              f"bits={list(e.config.bit_widths)} acc={e.acc_loss:.4f} "
              f"perf={e.perf_loss:.4f} res={e.resource:.1f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    doc = load_config_file(args.config)
    config = build_search_config(doc, device_kind=args.device)
    ddoc = read_json(args.design)
    design = design_from_document(ddoc)
    if design.device_kind != config.device.kind:
        raise ConfigFileError(f"design is for device {design.device_kind}, "
                              f"not {config.device.kind}")
    if config.device.kind != "gpu_table" and design.parallel_factors is None:
        raise ConfigFileError("design: parallel_factor missing for an FPGA "
                              "device")
    # metrics are recomputed from the design fields, never echoed from the file
    design.predicted = predict_discrete(config.space, config.device,
                                        design.op_indices, design.bit_widths,
                                        design.parallel_factors)
    _, metrics = retrain_design(design, config, epochs=args.retrain_epochs)
    result = {
        "schema": "cosearch-eval-v1",
        "config_hash": config_hash(config),
        "val_accuracy": metrics["val_accuracy"],
        "test_accuracy": metrics["test_accuracy"],
        "val_loss": metrics["val_loss"],
        "predicted": design.predicted,
    }
    out = _out_dir(doc, args.output)
    path = os.path.join(out, "eval.json")
    write_json(path, result)
    print(f"val accuracy  {metrics['val_accuracy']:.4f}")
    print(f"test accuracy {metrics['test_accuracy']:.4f}")
    print(f"latency total {design.predicted['latency_total']:g}, "
          f"bottleneck {design.predicted['latency_bottleneck']:g}, "
          f"resource {design.predicted['resource']}")
    return EXIT_OK


def cmd_compare(args) -> int:
    rep = read_json(args.report)
    rank = read_json(args.ranking)
    if rep["config_hash"] != rank["config_hash"]:
        raise ConfigFileError(
            f"config hash mismatch: report {rep['config_hash'][:12]} vs "
            f"ranking {rank['config_hash'][:12]}; refusing to compare")
    if rep.get("design") is None:
        raise ConfigFileError("report has no design (aborted run?)")
    key = [[b["op_index"] for b in rep["design"]["blocks"]],
           [b["bit_width"] for b in rep["design"]["blocks"]]]
    position = None
    for e in rank["entries"]:
        if [e["op_indices"], e["bit_widths"]] == key:
            position = e["rank"]
            gap = e["total_loss"] - rank["entries"][0]["total_loss"]
            break
    if position is None:
        raise ConfigFileError("design not found in ranking (different space?)")
    print(f"design rank {position} of {len(rank['entries'])}, "
          f"loss gap to best {gap:.6f}")
    if args.max_rank is not None and position > args.max_rank:
        print(f"rank {position} exceeds --max-rank {args.max_rank}")
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_template(args) -> int:
    text = template_text()
    if args.output_file:
        with open(args.output_file, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output_file}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cosearch",
        description="joint differentiable DNN/hardware-implementation search")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", required=True, help="YAML config file")
        p.add_argument("--device", default=None,
                       help="override device.kind from the config")
        p.add_argument("--output", default=None,
                       help=f"output directory (or ${ENV_OUTPUT_DIR})")

    p = sub.add_parser("search", help="run the co-search")
    common(p)
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None,
                       help="override search.seed")
    seeds.add_argument("--seeds", default=None,
                       help="run a seed range, e.g. 1..10")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel runs for --seeds")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="brute-force rank the whole space")
    common(p)
    protocol = oraclemod.OracleProtocol
    p.add_argument("--cap", type=int, default=protocol.cap,
                   help="refuse spaces larger than this")
    p.add_argument("--train-steps", type=int, default=protocol.train_steps,
                   help="accuracy-protocol training steps per config")
    p.add_argument("--protocol-seed", type=int, default=protocol.seed,
                   help="shared seed of the accuracy protocol")
    p.add_argument("--workers", type=int, default=protocol.workers)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("eval", help="retrain and measure a derived design")
    common(p)
    p.add_argument("design", help="design JSON file")
    p.add_argument("--retrain-epochs", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare",
                       help="rank a search report inside an oracle ranking")
    p.add_argument("report", help="report JSON file")
    p.add_argument("ranking", help="ranking JSON file")
    p.add_argument("--max-rank", type=int, default=None,
                   help="nonzero exit if the design ranks worse than this")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("template", help="print a fully commented config")
    p.add_argument("-o", "--output-file", default=None)
    p.set_defaults(func=cmd_template)
    return parser


def _join_seed_values(argv):
    """`--seeds -2..1` as `--seeds=-2..1`: argparse takes a value that starts
    with '-' and a digit for an option, so the seed check never saw it."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--seed", "--seeds") and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_seed_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigFileError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CostError, SpaceError, SearchError, oraclemod.OracleError,
            datamod.DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
