"""Command-line front end.

Subcommands: search, enumerate, eval, compare, template.  Config files are
commented YAML validated against the schema below.  Artifacts are JSON and
CSV with each float in Python's shortest repr, so it reads back as the same
float and identical runs produce identical bytes.

Exit codes: 0 success, 1 usage/config error, 2 infeasibility, 3 numerical
abort, 4 comparison threshold exceeded.
"""

from __future__ import annotations

import argparse
import functools
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


# -- schema: section -> key -> (type, field or default, comment) ------------------
# A tuple names the library field the key sets, by its path from SearchConfig,
# and its default is read there; any other value is a CLI setting's default.

_LIBRARY = SearchConfig(SearchSpace(), None, CostHyperparams(), datamod.DatasetSpec())

_SCHEMA = {
    "search": {
        "epochs": (int, ("epochs",), "bilevel epochs of the co-search"),
        "steps_per_epoch": (int, ("steps_per_epoch",),
                            "alternating steps per epoch"),
        "batch_size": (int, ("batch_size",), "minibatch size for both phases"),
        "lr_weights": (float, ("lr_weights",), "SGD step for network weights"),
        "momentum": (float, ("momentum",), "SGD momentum for network weights"),
        "lr_arch": (float, ("lr_arch",), "Adam step for op/bit-width logits"),
        "lr_pf": (float, ("lr_pf",), "Adam step for parallel factors"),
        "tau_start": (float, ("tau_start",), "initial sampling temperature"),
        "tau_end": (float, ("tau_end",),
                    "final sampling temperature (exponential anneal)"),
        "seed": (int, ("seed",), "run seed; overridable with --seed"),
        "alpha": (float, ("hyper", "alpha"), "performance-loss scale"),
        "beta": (float, ("hyper", "beta"), "resource-penalty weight"),
        "penalty_base": (float, ("hyper", "base"), "resource-penalty base (> 1)"),
        "penalty_res_norm": (
            "optional_float", None,
            "divisor of the penalty exponent; default: the resource bound"),
        "retune_steps": (int, ("retune_steps",),
                         "descent steps for post-search pf re-tuning"),
        "retune_lr": (float, ("retune_lr",), "step size for pf re-tuning"),
        "retrain_epochs": (int, ("retrain_epochs",),
                           "epochs when retraining a derived design"),
    },
    "space": {
        "blocks": (int, ("space", "num_blocks"),
                   "number of sequential searchable blocks"),
        "kernel_sizes": ("int_list", ("space", "kernel_sizes"),
                         "depthwise kernel menu (odd)"),
        "expansion_ratios": ("int_list", ("space", "expansion_ratios"),
                             "channel expansion menu"),
        "bit_widths": ("int_list", ("space", "quant", "bit_widths"),
                       "weight bit-width menu, increasing"),
        "input_hw": ("int_list", ("space", "input_hw"), "input height and width"),
        "input_channels": (int, ("space", "input_channels"), "input channels"),
        "stem_channels": (int, ("space", "stem_channels"),
                          "channels out of the stem conv"),
        "channel_plan": ("int_list", ("space", "channel_plan"),
                         "output channels per block"),
        "downsample_blocks": ("int_list", ("space", "downsample_blocks"),
                              "1-indexed blocks that stride by 2"),
        "num_classes": (int, ("space", "num_classes"),
                        "classifier classes (match data.classes)"),
    },
    "device": {
        "kind": (str, "fpga_recursive",
                 "fpga_recursive | fpga_pipelined | gpu_table"),
        "resource_bound": ("optional_float", 900.0,
                           "DSP budget (FPGA kinds only)"),
        "pf_max": ("optional_float", None,
                   "parallel-factor clamp; default log2(resource_bound)"),
        "gpu_table_path": ("optional_str", None,
                           "YAML latency table, required for gpu_table"),
    },
    "data": {
        "classes": (int, ("data", "num_classes"), "number of texture classes"),
        "samples_per_class": (int, ("data", "samples_per_class"),
                              "samples generated per class"),
        "height": (int, ("data", "height"), "image height"),
        "width": (int, ("data", "width"), "image width"),
        "channels": (int, ("data", "channels"), "image channels"),
        "seed": (int, ("data", "seed"), "generator seed"),
        "noise_std": (float, ("data", "noise_std"), "additive noise level"),
        "fractions": ("float_list", ("fractions",),
                      "train/validation/test fractions (sum to 1)"),
    },
    "output": {
        "directory": (str, "runs", "where reports/designs/rankings go"),
        "formats": (("json", "csv"), ["json", "csv"],
                    "emit json (always canonical) and/or csv curves"),
    },
}


def default_config() -> dict:
    doc = {sec: {} for sec in _SCHEMA}
    for sec, keys in _SCHEMA.items():
        for key, (_, value, _) in keys.items():
            if isinstance(value, tuple):
                value = functools.reduce(getattr, value, _LIBRARY)
            doc[sec][key] = list(value) if isinstance(value, (list, tuple)) else value
    return doc


def template_text() -> str:
    lines = ["# cosearch run configuration",
             "# every key is optional; these are the defaults", ""]
    defaults = default_config()
    for sec, keys in _SCHEMA.items():
        lines.append(f"{sec}:")
        for key, (_, _, comment) in keys.items():
            default = defaults[sec][key]
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
    if isinstance(kind, tuple):  # a list of names from this menu
        if not isinstance(value, list):
            fail(f"a list of {' or '.join(kind)}")
        for i, v in enumerate(value):
            if v not in kind:
                raise ConfigFileError(f"{path}[{i}]: expected one of "
                                      f"{', '.join(kind)}, got {v!r}")
        return value
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


def _read_yaml(path, what):
    """The YAML at `path`, or one line of ConfigFileError naming the file."""
    try:
        with open(path, "rb") as fh:  # YAML decodes, so bad UTF-8 is a YAMLError
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read {what} {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigFileError(
            f"{what} {path}: not valid YAML: {' '.join(str(exc).split())}") from None


def load_config_file(path) -> dict:
    return validate_config(_read_yaml(path, "config file"))


def build_search_config(doc, seed=None, device_kind=None) -> SearchConfig:
    """Turn a validated config document into runnable objects."""
    dv = doc["device"]
    parts = {}  # part name ("" for SearchConfig) -> field -> value
    for sec, keys in _SCHEMA.items():
        for key, (_, path, _) in keys.items():
            if isinstance(path, tuple):
                value = doc[sec][key]
                parts.setdefault(path[-2] if len(path) > 1 else "", {})[path[-1]] = (
                    tuple(value) if isinstance(value, list) else value)
    try:
        space = SearchSpace(quant=QuantLevels(**parts["quant"]), **parts["space"])
    except SpaceError as exc:
        raise ConfigFileError(f"space: {exc}") from None
    kind = device_kind or dv["kind"]
    try:
        if kind == "gpu_table":
            path = dv["gpu_table_path"]
            if not path:
                raise ConfigFileError(
                    "device.gpu_table_path is required for kind gpu_table")
            try:
                device = DeviceModel.gpu(GpuLatencyTable.from_mapping(
                    _read_yaml(path, "latency table")))
            except CostError as exc:
                raise ConfigFileError(f"latency table {path}: {exc}") from None
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
    res_norm = doc["search"]["penalty_res_norm"]
    if res_norm is None:
        res_norm = device.default_res_norm
    if seed is not None:
        parts[""]["seed"] = int(seed)
    try:
        return SearchConfig(
            space=space, device=device,
            hyper=CostHyperparams(res_norm=res_norm, **parts["hyper"]),
            data=datamod.DatasetSpec(**parts["data"]), **parts[""])
    except (CostError, SearchError, datamod.DataError, SpaceError) as exc:
        raise ConfigFileError(str(exc)) from None


# -- JSON artifacts -----------------------------------------------------------------

def _number(value):
    """A numpy scalar as the Python number it holds."""
    if not isinstance(value, np.generic):
        raise TypeError(f"cannot serialize {type(value)!r}")
    return value.item()


def to_json(doc) -> str:
    return json.dumps(doc, indent=2, default=_number)


def write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(to_json(doc) + "\n")


def read_json(path, parse=None):
    """The JSON document at `path`, or `parse(document)`.  A file that
    cannot be read or is not JSON, and a document that lacks a key or has a
    layout `parse` does not expect, raise ConfigFileError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # invalid JSON or text encoding
        raise ConfigFileError(f"{path}: not valid JSON: {exc}") from None
    if parse is None:
        return doc
    if not isinstance(doc, dict):
        raise ConfigFileError(f"{path}: expected a JSON object")
    try:
        return parse(doc)
    except KeyError as exc:
        raise ConfigFileError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigFileError(f"{path}: unexpected layout: {exc}") from None


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
    fields = {"parallel_factor": [], "op_index": [], "bit_width": []}
    for i, block in enumerate(doc["blocks"]):
        for key, values in fields.items():
            value = block[key]
            # a bool is an int, and a float would index or price as one
            if type(value) is not int and not (
                    value is None and key == "parallel_factor"):
                raise TypeError(f"block {i}: {key} must be an integer, "
                                f"got {value!r}")
            values.append(value)
    pfs, bits = fields["parallel_factor"], fields["bit_width"]
    shared = doc["device"] == "gpu_table"  # the one kind with one bit-width
    if doc["shared_precision"] is not shared:
        raise ValueError(f"shared_precision must be {json.dumps(shared)} for "
                         f"device {doc['device']}, got "
                         f"{json.dumps(doc['shared_precision'])}")
    got = doc["global_bit_width"]
    want = bits[0] if shared and bits else None  # no blocks: eval refuses
    if type(got) is not type(want) or got != want:  # refuses true for 1
        raise ValueError(f"global_bit_width must be {json.dumps(want)} with "
                         f"shared_precision {json.dumps(shared)}, got "
                         f"{json.dumps(got)}")
    return DerivedDesign(
        device_kind=doc["device"],
        op_indices=fields["op_index"],
        bit_widths=bits,
        parallel_factors=None if pfs.count(None) == len(pfs) else pfs,
        shared_precision=shared,
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
    lines += [",".join(str(row[c]) for c in cols) for row in report.epochs]
    return "\n".join(lines) + "\n"


# -- commands -----------------------------------------------------------------------

def _out_dir(doc, override):
    """The output directory, checked before the work; made when written."""
    path = override or os.environ.get(ENV_OUTPUT_DIR) or doc["output"]["directory"]
    if not path:  # an empty flag or variable falls through to the config
        raise ConfigFileError("output.directory: expected a non-empty path, got ''")
    head = path  # the nearest part of it that exists
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigFileError(f"output directory {path}: {head} is not a directory")
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
    out = _out_dir(doc, args.output)
    dataset = datamod.generate_dataset(configs[0].data)

    reports = map_workers(lambda c: run_search(c, dataset=dataset), configs,
                          args.workers)

    # only now: a config error or an infeasible budget leaves no directory
    os.makedirs(out, exist_ok=True)
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
    out = _out_dir(doc, args.output)
    protocol = oraclemod.OracleProtocol(
        train_steps=args.train_steps, seed=args.protocol_seed, cap=args.cap,
        workers=args.workers, retune_steps=config.retune_steps,
        retune_lr=config.retune_lr)
    ranking = oraclemod.rank_configs(config, protocol)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "ranking.json")
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
    design = read_json(args.design, design_from_document)
    out = _out_dir(doc, args.output)
    if design.device_kind != config.device.kind:
        raise ConfigFileError(f"{args.design}: design is for device "
                              f"{design.device_kind}, not {config.device.kind}")
    # metrics are recomputed from the design fields, never echoed from the file
    try:
        design.predicted = predict_discrete(
            config.space, config.device, design.op_indices, design.bit_widths,
            design.parallel_factors)
    except (CostError, SpaceError) as exc:
        raise ConfigFileError(f"{args.design}: {exc}") from None
    _, metrics = retrain_design(design, config, epochs=args.retrain_epochs)
    result = {
        "schema": "cosearch-eval-v1",
        "config_hash": config_hash(config),
        "val_accuracy": metrics["val_accuracy"],
        "test_accuracy": metrics["test_accuracy"],
        "val_loss": metrics["val_loss"],
        "predicted": design.predicted,
    }
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "eval.json")
    write_json(path, result)
    print(f"val accuracy  {metrics['val_accuracy']:.4f}")
    print(f"test accuracy {metrics['test_accuracy']:.4f}")
    print(f"latency total {design.predicted['latency_total']:g}, "
          f"bottleneck {design.predicted['latency_bottleneck']:g}, "
          f"resource {design.predicted['resource']}")
    return EXIT_OK


def _report_key(rep):
    """(config hash, [op indices, bit widths]) of a report document; the
    key is None for a run that wrote no design."""
    if rep.get("design") is None:
        return rep["config_hash"], None
    blocks = rep["design"]["blocks"]
    return rep["config_hash"], [[b["op_index"] for b in blocks],
                                [b["bit_width"] for b in blocks]]


def _ranking_rows(rank):
    """(config hash, [(design key, rank, total loss)]) of a ranking."""
    return rank["config_hash"], [
        ([e["op_indices"], e["bit_widths"]], e["rank"], e["total_loss"])
        for e in rank["entries"]]


def cmd_compare(args) -> int:
    rep_hash, key = read_json(args.report, _report_key)
    rank_hash, rows = read_json(args.ranking, _ranking_rows)
    if rep_hash != rank_hash:
        raise ConfigFileError(
            f"config hash mismatch: report {rep_hash[:12]} vs "
            f"ranking {rank_hash[:12]}; refusing to compare")
    if key is None:
        raise ConfigFileError("report has no design (aborted run?)")
    for row_key, position, loss in rows:
        if row_key == key:
            gap = loss - rows[0][2]
            break
    else:
        raise ConfigFileError("design not found in ranking (different space?)")
    print(f"design rank {position} of {len(rows)}, "
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
