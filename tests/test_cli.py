import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from cosearch import cli
from cosearch import data as datamod
from cosearch.costmodel import DeviceModel, reference_gpu_table
from cosearch.oracle import OracleProtocol
from cosearch.search import SearchConfig
from cosearch.supernet import QuantLevels, SearchSpace


SMALL_YAML = """
search:
  epochs: 2
  steps_per_epoch: 2
  batch_size: 8
  seed: 1
  retune_steps: 120
  retune_lr: 0.03
  retrain_epochs: 2
space:
  blocks: 2
  kernel_sizes: [3, 5]
  expansion_ratios: [2]
  bit_widths: [4, 8]
  input_hw: [8, 8]
  channel_plan: [8, 8]
  downsample_blocks: [2]
data:
  samples_per_class: 24
  height: 8
  width: 8
device:
  kind: fpga_recursive
  resource_bound: 64
output:
  directory: {out}
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(SMALL_YAML.format(out=tmp_path / "out"))
    return str(path)


class TestConfigSchema:
    def test_template_parses_and_validates(self, tmp_path):
        text = cli.template_text()
        doc = cli.validate_config(yaml.safe_load(text))
        assert doc == cli.default_config()
        assert "#" in text  # commented

    def test_template_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "t.yaml"
        assert cli.main(["template", "-o", str(out)]) == 0
        assert cli.validate_config(yaml.safe_load(out.read_text()))

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(cli.ConfigFileError, match="search.lr_wights"):
            cli.validate_config({"search": {"lr_wights": 0.1}})
        with pytest.raises(cli.ConfigFileError, match="unknown section"):
            cli.validate_config({"blah": {}})

    def test_type_errors_name_path(self):
        with pytest.raises(cli.ConfigFileError, match="search.epochs"):
            cli.validate_config({"search": {"epochs": "ten"}})
        with pytest.raises(cli.ConfigFileError, match=r"space.kernel_sizes\[1\]"):
            cli.validate_config({"space": {"kernel_sizes": [3, "five"]}})

    def test_gpu_without_table_is_config_error(self, small_cfg):
        assert cli.main(["search", "-c", small_cfg, "--device", "gpu_table"]) == 1

    def test_class_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path) +
                        "\n")
        doc = cli.load_config_file(str(path))
        doc["data"]["classes"] = 7
        with pytest.raises(cli.ConfigFileError, match="classes"):
            cli.build_search_config(doc)

    def test_missing_file(self):
        assert cli.main(["search", "-c", "/nonexistent.yaml"]) == 1

    def test_defaults_are_the_library_defaults(self):
        # the CLI's own choices: device kind fpga_recursive at 900 DSPs
        library = SearchConfig(space=SearchSpace(),
                               device=DeviceModel.fpga_recursive(900.0))
        assert cli.build_search_config(cli.default_config()) == library
        args = cli.build_parser().parse_args(["enumerate", "-c", "run.yaml"])
        protocol = OracleProtocol()
        assert (args.train_steps, args.protocol_seed, args.cap, args.workers) \
            == (protocol.train_steps, protocol.seed, protocol.cap,
                protocol.workers)


class TestJsonSerialization:
    def test_roundtrip_equality(self):
        doc = {"a": 1, "b": [0.1, 2.0, 3], "c": {"d": math.pi, "e": None,
                                                 "f": True, "g": "text"},
               "h": []}
        text = cli.to_json(doc)
        assert json.loads(text) == doc

    def test_17_sig_digits(self):
        text = cli.to_json({"x": 0.1})
        assert "0.1000000000000000" in text
        assert json.loads(text)["x"] == 0.1

    def test_numpy_scalars_serialized(self):
        text = cli.to_json({"a": np.float64(0.5), "b": np.int64(3)})
        assert json.loads(text) == {"a": 0.5, "b": 3}


class TestSearchCommand:
    def test_writes_report_design_curves(self, small_cfg, tmp_path):
        assert cli.main(["search", "-c", small_cfg]) == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert {"seed1_report.json", "seed1_design.json",
                "seed1_curves.csv", "seed1_report.meta.txt"} <= names
        report = json.loads((out / "seed1_report.json").read_text())
        assert report["schema"] == "cosearch-report-v1"
        assert len(report["epochs"]) == 2
        design = json.loads((out / "seed1_design.json").read_text())
        assert len(design["blocks"]) == 2
        meta = dict(line.split("=") for line in
                    (out / "seed1_report.meta.txt").read_text().splitlines())
        assert list(meta) == ["wall_clock_seconds", "peak_rss_mb",
                              "minor_faults"]
        assert float(meta["peak_rss_mb"]) > 0 and int(meta["minor_faults"]) > 0
        for block in design["blocks"]:
            assert {"kernel_size", "expansion_ratio", "bit_width", "stride",
                    "in_channels", "out_channels"} <= set(block)

    def test_bytewise_determinism(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        cli.main(["search", "-c", small_cfg])
        first_rep = (out / "seed1_report.json").read_bytes()
        first_des = (out / "seed1_design.json").read_bytes()
        first_csv = (out / "seed1_curves.csv").read_bytes()
        cli.main(["search", "-c", small_cfg])
        assert (out / "seed1_report.json").read_bytes() == first_rep
        assert (out / "seed1_design.json").read_bytes() == first_des
        assert (out / "seed1_curves.csv").read_bytes() == first_csv

    def test_seed_override_and_fanout(self, small_cfg, tmp_path):
        assert cli.main(["search", "-c", small_cfg, "--seed", "5"]) == 0
        assert (tmp_path / "out" / "seed5_report.json").exists()
        assert cli.main(["search", "-c", small_cfg, "--seeds", "2..3"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [r["seed"] for r in summary["runs"]] == [2, 3]

    def test_workers_write_the_same_bytes(self, small_cfg, tmp_path):
        # each seed owns its state and generators, so threads change nothing
        for workers in ("1", "2"):
            assert cli.main(["search", "-c", small_cfg, "--seeds", "1..3",
                             "--workers", workers,
                             "--output", str(tmp_path / workers)]) == 0
        names = sorted(p.name for p in (tmp_path / "1").iterdir()
                       if not p.name.endswith(".meta.txt"))  # wall clock
        assert len(names) == 10  # 3 x (report, design, curves) + summary
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_env_var_output_dir(self, small_cfg, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(env_dir))
        assert cli.main(["search", "-c", small_cfg]) == 0
        assert (env_dir / "seed1_report.json").exists()

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "o")
                        .replace("resource_bound: 64", "resource_bound: 1.5"))
        assert cli.main(["search", "-c", str(path)]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, named", [
        ("resource_bound: .inf", "resource bound"),
        ("resource_bound: .nan", "resource bound"),
        ("resource_bound: 64\n  pf_max: -1.0", "pf_max"),
    ])
    def test_bad_device_bound_is_a_config_error(self, tmp_path, capsys, line,
                                                named):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "o")
                        .replace("resource_bound: 64", line))
        assert cli.main(["search", "-c", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: device: ") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bound, flags, code, generated", [
        (64, ["--cap", "10"], cli.EXIT_CONFIG, 0),
        (1.5, [], cli.EXIT_INFEASIBLE, 0),
    ])
    def test_refused_enumeration_leaves_no_output(self, tmp_path, capsys,
                                                  monkeypatch, bound, flags,
                                                  code, generated):
        calls = []
        real = datamod.generate_dataset
        monkeypatch.setattr(datamod, "generate_dataset",
                            lambda spec: calls.append(spec) or real(spec))
        path = tmp_path / "run.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "o")
                        .replace("resource_bound: 64",
                                 f"resource_bound: {bound}"))
        assert cli.main(["enumerate", "-c", str(path), *flags]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # a refused cap or budget is refused before any data is generated
        assert len(calls) == generated

    @pytest.mark.parametrize("key, value", [
        ("steps_per_epoch", 0), ("batch_size", 0), ("retrain_epochs", 0),
        ("retune_steps", -1), ("retune_lr", -0.03), ("retune_lr", 0.0),
    ])
    def test_bad_run_count_is_a_config_error(self, tmp_path, capsys, key,
                                             value):
        path = tmp_path / "bad.yaml"
        text = SMALL_YAML.format(out=tmp_path / "o")
        path.write_text(re.sub(rf"{key}: [\d.]+\n", f"{key}: {value}\n", text))
        assert path.read_text() != text
        assert cli.main(["search", "-c", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags, named", [
        ("search", ["--workers", "0"], "--workers"),
        ("search", ["--seeds", "1..2", "--workers", "-2"], "--workers"),
        ("enumerate", ["--workers", "0"], "workers"),
        ("enumerate", ["--train-steps", "0"], "train_steps"),
    ])
    def test_bad_worker_or_step_flag_is_a_config_error(self, tmp_path, capsys,
                                                       command, flags, named):
        path = tmp_path / "run.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "o"))
        assert cli.main([command, "-c", str(path), *flags]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, named", [
        (["search"], "-c/--config"),
        (["search", "-c", "{cfg}", "--bogus"], "--bogus"),
        (["search", "-c", "{cfg}", "--seed", "3", "--seeds", "1..2"],
         "not allowed with argument"),
        (["frobnicate"], "invalid choice"),
    ], ids=["no-config", "unknown-flag", "seed-and-seeds", "unknown-command"])
    def test_usage_error_is_a_config_error(self, small_cfg, tmp_path, capsys,
                                           argv, named):
        argv = [a.format(cfg=small_cfg) for a in argv]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]],
                             ids=["top", "search"])
    def test_help_exits_zero(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_OK
        assert "usage: cosearch" in capsys.readouterr().out

    def test_numerical_abort_exit_code_and_partial_report(self, tmp_path):
        path = tmp_path / "explode.yaml"
        doc = SMALL_YAML.format(out=tmp_path / "o").replace(
            "epochs: 2", "epochs: 3\n  lr_weights: 1.0e+80")
        path.write_text(doc)
        assert cli.main(["search", "-c", str(path)]) == 3
        report = json.loads((tmp_path / "o" / "seed1_report.json").read_text())
        assert report["aborted"] is not None
        assert report["design"] is None


class TestRefusedInput:
    """Inputs that once ended in a traceback or a numerical abort, or ran a
    network the cost model does not price: each exits 1 with a one-line
    error and writes nothing."""

    CASES = [
        ("search", ["--seed", "-1"], {}),
        ("search", ["--seeds=-2..1"], {}),
        ("search", ["--seeds", "-2..1"], {}),
        ("search", [], {"search.momentum": 1.5}),
        ("search", [], {"search.momentum": -2.0}),
        ("search", [], {"search.seed": -3}),
        ("search", [], {"data.seed": -2}),
        ("enumerate", ["--protocol-seed", "-1"], {}),
        ("search", [], {"search.alpha": math.nan}),
        ("search", [], {"search.beta": math.nan}),
        ("search", [], {"search.penalty_base": math.inf}),
        ("search", [], {"search.penalty_res_norm": math.nan}),
        ("search", [], {"search.lr_weights": math.inf}),
        ("search", [], {"data.noise_std": math.nan}),
        ("search", [], {"search.alpha": 10 ** 400}),
        ("search", [], {"device.resource_bound": 10 ** 400}),
        ("search", [], {"space.input_hw": [8]}),
        ("search", [], {"space.input_hw": [8, 8, 8]}),
        ("search", [], {"space.stem_channels": 0}),
        ("search", [], {"space.input_channels": 0}),
        ("search", [], {"space.channel_plan": [0, 8]}),
        ("search", [], {"data.fractions": [0.5, 0.5]}),
        ("search", [], {"data.fractions": [0.4, 0.3, 0.2, 0.1]}),
        ("search", [], {"data.channels": 1}),
        ("search", [], {"data.height": 12}),
    ]

    @pytest.mark.parametrize("command, flags, edits", CASES, ids=[
        " ".join([c, *f, *(f"{k}={str(v)[:12]}" for k, v in e.items())])
        for c, f, e in CASES])
    def test_exits_1_without_traceback(self, tmp_path, capsys, command,
                                       flags, edits):
        doc = yaml.safe_load(SMALL_YAML.format(out=tmp_path / "o"))
        for path, value in edits.items():
            section, key = path.split(".")
            doc[section][key] = value
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc))  # nan and inf as .nan and .inf
        assert cli.main([command, "-c", str(cfg), *flags]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "error: ")), err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, edits, message", [
        (["--seeds", "-2..1"], {}, "seed must be >= 0, got -2"),
        (["--seed", "-2"], {}, "seed must be >= 0, got -2"),
        ([], {"search.momentum": 1.5}, "momentum must be in [0, 1), got 1.5"),
    ])
    def test_names_the_problem(self, tmp_path, capsys, flags, edits, message):
        doc = yaml.safe_load(SMALL_YAML.format(out=tmp_path / "o"))
        for path, value in edits.items():
            section, key = path.split(".")
            doc[section][key] = value
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert cli.main(["search", "-c", str(cfg), *flags]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestGpuFlow:
    def test_gpu_search_with_table(self, tmp_path):
        space = SearchSpace(num_blocks=2, kernel_sizes=(3, 5),
                            expansion_ratios=(2,), quant=QuantLevels((8, 16)),
                            input_hw=(8, 8), channel_plan=(8, 8),
                            downsample_blocks=(2,), num_classes=4)
        table = reference_gpu_table(space)
        tpath = tmp_path / "table.yaml"
        with open(tpath, "w") as fh:
            yaml.safe_dump(table.to_mapping(), fh)
        cfg = tmp_path / "gpu.yaml"
        cfg.write_text(SMALL_YAML.format(out=tmp_path / "out").replace(
            "kind: fpga_recursive",
            f"kind: gpu_table\n  gpu_table_path: {tpath}").replace(
            "bit_widths: [4, 8]", "bit_widths: [8, 16]"))
        assert cli.main(["search", "-c", str(cfg)]) == 0
        design = json.loads((tmp_path / "out" / "seed1_design.json").read_text())
        assert design["global_bit_width"] in (8, 16)
        assert all(b["parallel_factor"] is None for b in design["blocks"])


class TestEnumerateEvalCompare:
    @pytest.fixture
    def artifacts(self, small_cfg, tmp_path):
        assert cli.main(["search", "-c", small_cfg]) == 0
        assert cli.main(["enumerate", "-c", small_cfg,
                         "--train-steps", "4"]) == 0
        out = tmp_path / "out"
        return (str(out / "seed1_report.json"), str(out / "ranking.json"),
                str(out / "seed1_design.json"), out)

    def test_ranking_file_sorted_and_deterministic(self, small_cfg, artifacts):
        _, ranking_path, _, out = artifacts
        doc = cli.read_json(ranking_path)
        losses = [e["total_loss"] for e in doc["entries"]]
        assert losses == sorted(losses)
        assert len(doc["entries"]) == 16  # (2 ops * 2 widths)^2
        first = Path(ranking_path).read_bytes()
        assert cli.main(["enumerate", "-c", small_cfg,
                         "--train-steps", "4"]) == 0
        assert Path(ranking_path).read_bytes() == first

    def test_enumerate_retunes_with_the_config_settings(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "zero.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "z").replace(
            "retune_steps: 120", "retune_steps: 0").replace(
            "retune_lr: 0.03", "retune_lr: 0.07"))
        seen = []
        real = cli.oraclemod.rank_configs
        monkeypatch.setattr(cli.oraclemod, "rank_configs",
                            lambda config, protocol: seen.append(protocol)
                            or real(config, protocol))
        assert cli.main(["enumerate", "-c", str(path),
                         "--train-steps", "2"]) == 0
        assert [(p.retune_steps, p.retune_lr) for p in seen] == [(0, 0.07)]
        config = cli.build_search_config(cli.load_config_file(str(path)))
        want = real(config, OracleProtocol(train_steps=2, retune_steps=0,
                                           retune_lr=0.07))
        doc = cli.read_json(str(tmp_path / "z" / "ranking.json"))
        assert doc == json.loads(cli.to_json(cli.ranking_document(want)))

    def test_compare_rank_and_threshold(self, artifacts):
        report, ranking, _, _ = artifacts
        assert cli.main(["compare", report, ranking]) == 0
        assert cli.main(["compare", report, ranking, "--max-rank", "16"]) == 0
        # --max-rank 0 is below any possible rank
        assert cli.main(["compare", report, ranking, "--max-rank", "0"]) == 4

    def test_compare_hash_mismatch_refused(self, artifacts, tmp_path):
        report, ranking, _, _ = artifacts
        doc = cli.read_json(ranking)
        doc["config_hash"] = "0" * 40
        other = tmp_path / "other_ranking.json"
        cli.write_json(str(other), doc)
        assert cli.main(["compare", report, str(other)]) == 1

    def test_eval_reports_exact_metrics(self, small_cfg, artifacts):
        _, _, design_path, out = artifacts
        assert cli.main(["eval", "-c", small_cfg, design_path,
                         "--retrain-epochs", "1"]) == 0
        result = json.loads((out / "eval.json").read_text())
        design = cli.read_json(design_path)
        # resource check: sum over used IPs of dsp-scale * 2^pf
        psi = {4: 0.0, 8: 0.5, 16: 1.0}
        by_ip = {}
        for block in design["blocks"]:
            m = block["op_index"]
            by_ip.setdefault(m, []).append(block)
        want = sum(max(psi[b["bit_width"]] for b in blocks)
                   * 2.0 ** blocks[0]["parallel_factor"]
                   for m, blocks in by_ip.items())
        assert result["predicted"]["resource"] == want
        assert 0.0 <= result["test_accuracy"] <= 1.0

    def test_eval_q4_design_reports_zero_resource(self, small_cfg, tmp_path,
                                                  artifacts):
        _, _, design_path, out = artifacts
        doc = cli.read_json(design_path)
        for block in doc["blocks"]:
            block["bit_width"] = 4
        doc["predicted"]["resource"] = 999.0  # stale value must be recomputed
        q4 = tmp_path / "q4_design.json"
        cli.write_json(str(q4), doc)
        assert cli.main(["eval", "-c", small_cfg, str(q4),
                         "--retrain-epochs", "1"]) == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["predicted"]["resource"] == 0.0

    def test_eval_recomputes_for_wider_bits(self, small_cfg, tmp_path,
                                            artifacts):
        _, _, design_path, out = artifacts
        doc = cli.read_json(design_path)
        for block in doc["blocks"]:
            block["bit_width"] = 8
        doc["predicted"]["resource"] = -1.0  # stale value must be recomputed
        w8 = tmp_path / "w8_design.json"
        cli.write_json(str(w8), doc)
        assert cli.main(["eval", "-c", small_cfg, str(w8),
                         "--retrain-epochs", "1"]) == 0
        result = json.loads((out / "eval.json").read_text())
        by_ip = {}
        for block in doc["blocks"]:
            by_ip.setdefault(block["op_index"], block["parallel_factor"])
        want = sum(0.5 * 2.0 ** pf for pf in by_ip.values())
        assert result["predicted"]["resource"] == want
        assert want > 0

    def test_eval_incompatible_design_names_block(self, small_cfg, artifacts,
                                                  tmp_path):
        _, _, design_path, _ = artifacts
        doc = cli.read_json(design_path)
        doc["blocks"][1]["op_index"] = 9
        bad = tmp_path / "bad_design.json"
        cli.write_json(str(bad), doc)
        assert cli.main(["eval", "-c", small_cfg, str(bad)]) == 1

    def test_eval_bit_width_outside_space_names_block(self, small_cfg,
                                                      artifacts, tmp_path,
                                                      capsys):
        _, _, design_path, _ = artifacts
        doc = cli.read_json(design_path)
        doc["blocks"][1]["bit_width"] = 16
        bad = tmp_path / "wide_bits_design.json"
        cli.write_json(str(bad), doc)
        assert cli.main(["eval", "-c", small_cfg, str(bad)]) == 1
        assert "block 1: bit_width 16" in capsys.readouterr().err

    def test_eval_conflicting_shared_ip_factors_names_block(
            self, small_cfg, artifacts, tmp_path, capsys):
        # recursive: both blocks run op 0, so they share one IP
        _, _, design_path, _ = artifacts
        doc = cli.read_json(design_path)
        for block, pf in zip(doc["blocks"], (3, 5)):
            block["op_index"], block["parallel_factor"] = 0, pf
        bad = tmp_path / "conflict_design.json"
        cli.write_json(str(bad), doc)
        assert cli.main(["eval", "-c", small_cfg, str(bad)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: block 0: parallel factor 3 ")
        assert "Traceback" not in err

    def test_eval_refuses_a_design_of_another_device(self, small_cfg,
                                                     tmp_path, capsys):
        assert cli.main(["search", "-c", small_cfg]) == 0  # fpga_recursive
        design_path = str(tmp_path / "out" / "seed1_design.json")
        assert cli.main(["eval", "-c", small_cfg, design_path, "--device",
                         "fpga_pipelined", "--retrain-epochs", "1"]) == \
            cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fpga_recursive" in err and "fpga_pipelined" in err
        assert not (tmp_path / "out" / "eval.json").exists()


class TestDesignDocument:
    def test_roundtrip(self, small_cfg, tmp_path):
        cli.main(["search", "-c", small_cfg])
        path = tmp_path / "out" / "seed1_design.json"
        doc = json.loads(path.read_text())
        design = cli.design_from_document(doc)
        assert design.op_indices == [b["op_index"] for b in doc["blocks"]]
        assert design.predicted == doc["predicted"]
