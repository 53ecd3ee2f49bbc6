"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Criteria 4, 5 and 7 are marked `slow` (minutes, not
seconds); `pytest -m "not slow"` leaves them out while iterating.
"""

import math
import time
from unittest import mock

import numpy as np
import pytest

from cosearch import cli
from cosearch import data as datamod
from cosearch import oracle as om
from cosearch import search
from cosearch import tensorcore as tc
from cosearch.costmodel import (CostHyperparams, CostModel, DeviceModel,
                                LayerGeom, psi, phi_cal, reference_gpu_table)
from cosearch.search import SearchConfig, retrain_design, run_search
from cosearch.supernet import QuantLevels, SearchSpace, Supernet
from cosearch.tensorcore import Parameter, Tape, Tensor
from reference_ops import (baseline_convnet_accuracy, finite_diff_check,
                           forward_soft)


def desk_config(seed):
    """The default desk-scale configuration (N=4, M=4, Q=3)."""
    return SearchConfig(space=SearchSpace(),
                        device=DeviceModel.fpga_recursive(900.0), seed=seed)


def recovery_space():
    """N=2, M=3, Q=2 recursive-FPGA space for oracle recovery."""
    return SearchSpace(num_blocks=2, kernel_sizes=(3, 5, 7),
                       expansion_ratios=(2,), quant=QuantLevels((4, 8)),
                       input_hw=(12, 12), channel_plan=(8, 16),
                       downsample_blocks=(2,), num_classes=4)


def recovery_config(seed):
    # label noise keeps the converged cross-entropy on a stable plateau, so
    # loss differences between configs come from the cost side
    data = datamod.DatasetSpec(samples_per_class=192, height=12, width=12,
                               noise_std=0.25, label_noise=0.25, seed=7)
    return SearchConfig(space=recovery_space(),
                        device=DeviceModel.fpga_recursive(96.0), data=data,
                        epochs=8, steps_per_epoch=8, batch_size=24, seed=seed)


@pytest.fixture(scope="module")
def desk_reports():
    dataset = datamod.generate_dataset(desk_config(1).data)
    return [run_search(desk_config(seed), dataset=dataset)
            for seed in range(1, 11)]


def _report(line, started):
    print(f"\n[PASS] {line} ({time.time() - started:.1f}s)")


class TestCriterion1GradientFidelity:
    """Full fused-objective assembly passes central finite differences on
    the op logits, bit-width logits and parallel factors for all three
    device models; 20 random configurations each, max rel err < 1e-4."""

    @staticmethod
    def _check_device(kind):
        space = SearchSpace(
            num_blocks=2, kernel_sizes=(3, 5), expansion_ratios=(2,),
            quant=QuantLevels((8, 16) if kind == "gpu_table" else (4, 8)),
            input_hw=(8, 8), channel_plan=(8, 8), downsample_blocks=(2,),
            num_classes=4)
        if kind == "gpu_table":
            device = DeviceModel.gpu(reference_gpu_table(space))
        elif kind == "fpga_recursive":
            device = DeviceModel.fpga_recursive(64.0)
        else:
            device = DeviceModel.fpga_pipelined(64.0)
        hyper = CostHyperparams(res_norm=64.0 if kind != "gpu_table" else 1.0)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = Supernet(space, seed=seed,
                           shared_precision=device.shared_precision)
            cm = CostModel(space, device, hyper)
            pf0 = cm.initial_pf()
            cm.initial_perf_norm()
            net.theta.assign(rng.normal(0, 1.0, net.theta.values.shape))
            p = net.phi
            p.assign(rng.normal(0, 1.0, p.values.shape))
            pf = (Parameter(rng.uniform(1, 5, pf0.shape))
                  if pf0 is not None else None)
            images = rng.normal(size=(2, 3, 8, 8))
            labels = rng.integers(0, 4, 2)
            tau = float(rng.uniform(0.7, 2.0))

            def loss():
                acc = forward_soft(net, images, labels, tau)
                out = cm.assemble(net.theta, net.phi, pf, tau)
                return cm.total_loss(acc, out.perf_loss, out.resource)

            params = [net.theta, net.phi] + ([pf] if pf is not None else [])
            worst = max(worst, finite_diff_check(loss, params))
        return worst

    def test_criterion_1(self):
        started = time.time()
        worsts = {kind: self._check_device(kind)
                  for kind in ("fpga_recursive", "fpga_pipelined", "gpu_table")}
        for kind, err in worsts.items():
            assert err < 1e-4, f"{kind}: max rel err {err}"
        assert time.time() - started < 120.0
        _report("criterion 1: gradient fidelity "
                + ", ".join(f"{k}={v:.2e}" for k, v in worsts.items()), started)


class TestCriterion2CostModelExactness:
    def test_criterion_2(self):
        started = time.time()
        conv = phi_cal(8) * LayerGeom("conv", 1, 8, 8, 16, 32).factor() * 2.0 ** -4
        dw = phi_cal(8) * LayerGeom("dwconv", 3, 8, 8, 16, 16).factor() * 2.0 ** -4
        elem = phi_cal(8) * LayerGeom("elementwise", 1, 8, 8, 16, 16).factor() \
            * 2.0 ** -4
        assert (conv, dw, elem) == (16384.0, 4608.0, 512.0)
        space = SearchSpace()
        cm = CostModel(space, DeviceModel.fpga_recursive(900.0))

        def dsps(pf, q):  # one shared IP, every block on it at q bits
            ops, bits = [0] * space.num_blocks, [q] * space.num_blocks
            theta_w, phi_w = cm.vertex_weights(ops, bits)
            pfs = Tensor(cm.layout_pfs(ops, [pf] * space.num_blocks))
            return cm.apply_pf(theta_w, cm.terms(theta_w, phi_w),
                               pfs).resource.item()
        assert dsps(6.0, 16) == 64.0
        assert dsps(4.0, 8) == 8.0
        assert dsps(9.0, 4) == 0.0
        assert [psi(q) for q in (3, 4, 5, 8, 9, 16)] == [0, 0, 0.5, 0.5, 1, 1]
        assert time.time() - started < 1.0
        _report("criterion 2: cost-model exactness (16384/4608/512 cycles, "
                "64/8/0 DSPs, psi table)", started)


class TestCriterion3VertexConsistency:
    def test_criterion_3(self):
        started = time.time()
        space = recovery_space()
        device = DeviceModel.fpga_recursive(96.0)
        hyper = CostHyperparams(res_norm=96.0)
        cm = CostModel(space, device, hyper)
        perf_norm = cm.initial_perf_norm()
        bits = space.quant.bit_widths
        rng = np.random.default_rng(0)
        worst = 0.0
        for cfg in om.enumerate_configs(space, device):
            pf_vals = rng.uniform(1, 5, 3)
            theta = Parameter(np.array(
                [[30.0 if m == cfg.op_indices[i] else -30.0 for m in range(3)]
                 for i in range(2)]))
            sat = np.full((2, 3, 2), -30.0)
            for i in range(2):
                sat[i, :, bits.index(cfg.bit_widths[i])] = 30.0
            phi = Parameter(sat)
            out = cm.assemble(theta, phi, Parameter(pf_vals), tau=1.0)
            relaxed_L = cm.total_loss(Tensor(1.0), out.perf_loss,
                                      out.resource).item()
            perf_o, res_o, pen_o = om.exact_vertex_costs(
                space, device, hyper, perf_norm, cfg.op_indices,
                cfg.bit_widths, pf_vals)
            exact_L = 1.0 * perf_o + pen_o
            scale = max(1.0, abs(exact_L), abs(res_o))
            worst = max(worst,
                        abs(out.perf_loss.item() - perf_o),
                        abs(out.resource.item() - res_o) / scale,
                        abs(relaxed_L - exact_L) / scale)
        assert worst < 1e-9
        assert time.time() - started < 60.0
        _report(f"criterion 3: vertex consistency over 36 corners, worst "
                f"deviation {worst:.2e}", started)


@pytest.mark.slow
class TestCriterion4OracleRecovery:
    def test_criterion_4(self):
        started = time.time()
        protocol = om.OracleProtocol(train_steps=120, batch_size=24, lr=0.03)
        ranking = om.rank_configs(recovery_config(0), protocol)
        assert len(ranking.entries) == 36
        hits = 0
        ranks = []
        for seed in range(1, 11):
            report = run_search(recovery_config(seed))
            design = report.design
            try:
                rank = ranking.rank_of(design.op_indices, design.bit_widths)
            except om.OracleError:
                rank = None
            ranks.append(rank)
            hits += int(rank is not None and rank <= 2)
        assert hits >= 8, f"only {hits}/10 seeds in oracle top-2: {ranks}"
        assert time.time() - started < 3600.0
        _report(f"criterion 4: oracle recovery {hits}/10 seeds in top-2 "
                f"(ranks {ranks})", started)


@pytest.mark.slow
class TestCriterion5SearchProgress:
    def test_criterion_5(self, desk_reports):
        started = time.time()
        per_seed = time.time()
        for report in desk_reports:
            assert report.aborted is None
            assert report.epochs[-1]["total_loss"] < report.epochs[0]["total_loss"]
            assert report.design.predicted["resource"] <= 900.0
        assert (time.time() - per_seed) < 1800.0 * 10
        _report("criterion 5: loss decreased and retuned design feasible in "
                "10/10 seeds", started)


class TestCriterion6DeviceContracts:
    def test_criterion_6_gpu(self):
        started = time.time()
        space = SearchSpace(num_blocks=2, kernel_sizes=(3, 5),
                            expansion_ratios=(2,), quant=QuantLevels((8, 16)),
                            input_hw=(8, 8), channel_plan=(8, 8),
                            downsample_blocks=(2,), num_classes=4)
        device = DeviceModel.gpu(reference_gpu_table(space))
        cm = CostModel(space, device, CostHyperparams())
        cm.initial_perf_norm()
        theta = Parameter(np.random.default_rng(0).normal(size=(2, 2)))
        phi = Parameter(np.zeros(2))  # the shared Q-vector
        stray_pf = Parameter(np.ones(2))
        stray_pf.grad[...] = 0.0
        with Tape() as tape:
            out = cm.assemble(theta, phi, None, tau=1.0)
            tape.backward(cm.total_loss(Tensor(1.0), out.perf_loss,
                                        out.resource))
        assert np.all(stray_pf.grad == 0)

        config = SearchConfig(
            space=space, device=device,
            data=datamod.DatasetSpec(samples_per_class=24, height=8, width=8,
                                     seed=3),
            epochs=3, steps_per_epoch=3, batch_size=8, seed=2)
        design = run_search(config).design
        assert design.parallel_factors is None
        assert len(set(design.bit_widths)) == 1
        assert design.global_bit_width == design.bit_widths[0]
        _report("criterion 6a: gpu mode has zero pf gradient and one global "
                "bit-width", started)

    def test_criterion_6_pipelined_lse_bounds(self):
        started = time.time()
        config = SearchConfig(
            space=SearchSpace(num_blocks=2, kernel_sizes=(3, 5),
                              expansion_ratios=(2,), quant=QuantLevels((4, 8)),
                              input_hw=(8, 8), channel_plan=(8, 8),
                              downsample_blocks=(2,), num_classes=4),
            device=DeviceModel.fpga_pipelined(64.0),
            data=datamod.DatasetSpec(samples_per_class=24, height=8, width=8,
                                     seed=3),
            epochs=4, steps_per_epoch=3, batch_size=8, seed=3)
        checked = []

        def checked_step(state, train_batch, val_batch, tau):
            metrics = real_step(state, train_batch, val_batch, tau)
            quiet = state.costmodel.assemble(state.supernet.theta,
                                             state.supernet.phi, state.pf, tau)
            perfs = quiet.block_perfs_norm
            lse_over_alpha = quiet.perf_loss.item() / config.hyper.alpha
            assert max(perfs) <= lse_over_alpha + 1e-12
            assert lse_over_alpha <= max(perfs) + math.log(len(perfs)) + 1e-12
            checked.append(tau)
            return metrics

        real_step = search.bilevel_step
        with mock.patch.object(search, "bilevel_step", checked_step):
            report = run_search(config)
        # after every step, so at the end of every epoch
        assert checked == [row["tau"] for row in report.epochs for _ in range(3)]
        _report("criterion 6b: pipelined perf loss within LSE bounds on every "
                "epoch", started)

    def test_criterion_6_recursive_shared_bound(self):
        started = time.time()
        space = SearchSpace(num_blocks=3, kernel_sizes=(3, 5),
                            expansion_ratios=(2,), quant=QuantLevels((4, 8, 16)),
                            input_hw=(8, 8), channel_plan=(8, 8, 8),
                            downsample_blocks=(2,), num_classes=4)
        cm = CostModel(space, DeviceModel.fpga_recursive(900.0),
                       CostHyperparams(res_norm=900.0))
        piped = CostModel(space, DeviceModel.fpga_pipelined(900.0))
        rng = np.random.default_rng(1)
        for _ in range(200):
            theta = Parameter(rng.normal(0, 3, (3, 2)))
            phi = Parameter(rng.normal(0, 3, (3, 2, 3)))
            pf = Parameter(rng.uniform(0, 8, 2))
            out = cm.assemble(theta, phi, pf, tau=1.0)
            tw = tc.gumbel_softmax_rows(theta, 1.0)
            _, r = piped.terms(tw, tc.gumbel_softmax_rows(phi, 1.0))
            unshared = float((tw.values * r.values * 2.0 ** pf.values).sum())
            assert out.resource.item() <= unshared + 1e-9
        _report("criterion 6c: recursive shared resource never exceeds the "
                "unshared sum (200 states)", started)


@pytest.mark.slow
class TestCriterion7EndToEndQuality:
    def test_criterion_7(self, desk_reports):
        started = time.time()
        config = desk_config(1)
        dataset = datamod.generate_dataset(config.data)
        train, val, _ = datamod.split(dataset, config.fractions,
                                      config.data.seed)
        baseline = baseline_convnet_accuracy(train, val)
        assert baseline >= 0.90, f"dataset calibration broke: {baseline}"
        design = desk_reports[0].design
        _, metrics = retrain_design(design, config, dataset=dataset)
        assert metrics["test_accuracy"] >= 0.90, metrics
        _report(f"criterion 7: retrained design test accuracy "
                f"{metrics['test_accuracy']:.3f} (baseline {baseline:.3f})",
                started)


class TestCriterion8Determinism:
    def test_criterion_8(self, tmp_path):
        started = time.time()
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "search: {epochs: 4, steps_per_epoch: 6, seed: 1}\n"
            f"output: {{directory: {tmp_path / 'out'}}}\n")
        assert cli.main(["search", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        report1 = (out / "seed1_report.json").read_bytes()
        design1 = (out / "seed1_design.json").read_bytes()
        assert cli.main(["search", "-c", str(cfg)]) == 0
        assert (out / "seed1_report.json").read_bytes() == report1
        assert (out / "seed1_design.json").read_bytes() == design1
        _report("criterion 8: identical config+seed reproduce report and "
                "design bytes", started)
