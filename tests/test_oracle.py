
from unittest import mock

import numpy as np
import pytest

from cosearch import data as datamod
from cosearch import oracle as om
from cosearch.costmodel import (CostHyperparams, CostModel, DeviceModel,
                                reference_gpu_table)
from cosearch import search
from cosearch.search import DerivedDesign, SearchConfig
from cosearch.supernet import PhiArray, QuantLevels, SearchSpace
from cosearch.tensorcore import Parameter, Tensor


def acceptance_space():
    return SearchSpace(num_blocks=2, kernel_sizes=(3, 5, 7),
                       expansion_ratios=(2,), quant=QuantLevels((4, 8)),
                       input_hw=(12, 12), channel_plan=(8, 16),
                       downsample_blocks=(2,), num_classes=4)


def tiny_config(**kw):
    space = SearchSpace(num_blocks=1, kernel_sizes=(3, 5),
                        expansion_ratios=(2,), quant=QuantLevels((4, 8)),
                        input_hw=(8, 8), channel_plan=(8,),
                        downsample_blocks=(), num_classes=4)
    defaults = dict(space=space, device=DeviceModel.fpga_recursive(64.0),
                    data=datamod.DatasetSpec(samples_per_class=24, height=8,
                                             width=8, seed=3),
                    epochs=2, steps_per_epoch=2, batch_size=8, seed=0)
    defaults.update(kw)
    return SearchConfig(**defaults)


class TestEnumerate:
    def test_per_block_quant_count(self):
        space = acceptance_space()
        configs = om.enumerate_configs(space, DeviceModel.fpga_recursive(96.0))
        assert len(configs) == 36  # (3*2)^2
        assert len({(c.op_indices, c.bit_widths) for c in configs}) == 36

    def test_shared_precision_count(self):
        space = acceptance_space()
        table = reference_gpu_table(
            SearchSpace(num_blocks=2, kernel_sizes=(3, 5, 7),
                        expansion_ratios=(2,), quant=QuantLevels((4, 8)),
                        input_hw=(12, 12), channel_plan=(8, 16),
                        downsample_blocks=(2,), num_classes=4))
        configs = om.enumerate_configs(space, DeviceModel.gpu(table))
        assert len(configs) == 18  # 3^2 * 2
        for c in configs:
            assert len(set(c.bit_widths)) == 1

    def test_degenerate_single(self):
        space = SearchSpace(num_blocks=1, kernel_sizes=(3,),
                            expansion_ratios=(2,), quant=QuantLevels((8,)),
                            input_hw=(8, 8), channel_plan=(8,),
                            downsample_blocks=(), num_classes=4)
        configs = om.enumerate_configs(space, DeviceModel.fpga_recursive(64.0))
        assert len(configs) == 1

    def test_cap_exceeded_advises(self):
        space = acceptance_space()
        with pytest.raises(om.OracleError, match="36"):
            om.enumerate_configs(space, DeviceModel.fpga_recursive(96.0), cap=35)


class TestVertexConsistency:
    """The independent arithmetic here must agree with the tape-based cost
    model at every one-hot corner of the space."""

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined"])
    def test_all_vertices_match(self, kind):
        space = acceptance_space()
        if kind == "fpga_recursive":
            device = DeviceModel.fpga_recursive(96.0)
        else:
            device = DeviceModel.fpga_pipelined(96.0)
        hyper = CostHyperparams(res_norm=96.0)
        cm = CostModel(space, device, hyper)
        perf_norm = cm.initial_perf_norm()
        rng = np.random.default_rng(0)
        bits = space.quant.bit_widths
        for cfg in om.enumerate_configs(space, device):
            pf_vals = (rng.uniform(1, 5, 3) if kind == "fpga_recursive"
                       else rng.uniform(1, 5, (2, 3)))
            theta = Parameter(np.array(
                [[30.0 if m == cfg.op_indices[i] else -30.0 for m in range(3)]
                 for i in range(2)]))
            phi = PhiArray(2, 3, 2)
            sat = np.full((2, 3, 2), -30.0)
            for i in range(2):
                qi = bits.index(cfg.bit_widths[i])
                sat[i, :, qi] = 30.0
            phi.parameters()[0].assign(sat)
            pf = Parameter(pf_vals)
            out = cm.assemble(theta, phi, pf, tau=1.0)
            relaxed_L = cm.total_loss(Tensor(1.0), out.perf_loss,
                                      out.resource).item()
            perf_o, res_o, pen_o = om.exact_vertex_costs(
                space, device, hyper, perf_norm, cfg.op_indices,
                cfg.bit_widths, pf_vals)
            assert out.perf_loss.item() == pytest.approx(perf_o, abs=1e-9,
                                                         rel=1e-9)
            assert out.resource.item() == pytest.approx(res_o, abs=1e-9,
                                                        rel=1e-9)
            assert relaxed_L == pytest.approx(1.0 * perf_o + pen_o, rel=1e-9)

    def test_single_block_exact_to_1e12(self):
        config = tiny_config()
        space, device, hyper = config.space, config.device, config.hyper
        cm = CostModel(space, device, hyper)
        perf_norm = cm.initial_perf_norm()
        theta = Parameter(np.array([[30.0, -30.0]]))
        phi = PhiArray(1, 2, 2)
        sat = np.full((1, 2, 2), -30.0)
        sat[0, :, 0] = 30.0
        phi.parameters()[0].assign(sat)
        pf = Parameter(np.array([2.0, 2.0]))
        out = cm.assemble(theta, phi, pf, tau=1.0)
        relaxed = cm.total_loss(Tensor(1.2), out.perf_loss, out.resource).item()
        perf_o, res_o, pen_o = om.exact_vertex_costs(
            space, device, hyper, perf_norm, (0,), (4,), np.array([2.0, 2.0]))
        assert relaxed == pytest.approx(1.2 * perf_o + pen_o, rel=1e-12)

    def test_lower_bit_width_is_faster_at_vertex(self):
        # same op, only q differs: latency calibration is proportional to q
        config = tiny_config()
        space, device, hyper = config.space, config.device, config.hyper
        cm = CostModel(space, device, hyper)
        perf_norm = cm.initial_perf_norm()
        pf = np.array([3.0, 3.0])
        p4, _, _ = om.exact_vertex_costs(space, device, hyper, perf_norm,
                                         (0,), (4,), pf)
        p8, _, _ = om.exact_vertex_costs(space, device, hyper, perf_norm,
                                         (0,), (8,), pf)
        assert p4 < p8

    def test_vertex_perf_is_selected_op_latency(self):
        config = tiny_config()
        space, device, hyper = config.space, config.device, config.hyper
        cm = CostModel(space, device, hyper)
        perf_norm = cm.initial_perf_norm()
        pf = np.array([3.0, 3.0])
        perf_o, _, _ = om.exact_vertex_costs(space, device, hyper, perf_norm,
                                             (1,), (8,), pf)
        lat_8bit, _ = cm.terms(Tensor([[0.0, 1.0]]), Tensor([0.0, 1.0]))
        direct = lat_8bit[(0, 1)].item() * 2.0 ** -3 / perf_norm
        assert perf_o == pytest.approx(hyper.alpha * direct, rel=1e-12)


class TestProtocol:
    @pytest.mark.parametrize("field, value", [
        ("train_steps", 0), ("batch_size", 0), ("workers", 0),
        ("workers", -2), ("lr", 0.0), ("lr", -0.05), ("retune_lr", -0.03),
        ("retune_lr", 0.0),
    ])
    def test_counts_validated(self, field, value):
        with pytest.raises(om.OracleError, match=field):
            om.OracleProtocol(**{field: value})


class TestRanking:
    def test_ranking_is_permutation_and_sorted(self):
        config = tiny_config()
        protocol = om.OracleProtocol(train_steps=6, batch_size=8)
        ranking = om.rank_configs(config, protocol)
        assert len(ranking.entries) == 4
        losses = [e.total_loss for e in ranking.entries]
        assert losses == sorted(losses)
        keys = {(e.config.op_indices, e.config.bit_widths)
                for e in ranking.entries}
        want = {(c.op_indices, c.bit_widths)
                for c in om.enumerate_configs(config.space, config.device)}
        assert keys == want

    def test_beta_zero_orders_by_product(self):
        config = tiny_config(hyper=CostHyperparams(beta=0.0, res_norm=64.0))
        protocol = om.OracleProtocol(train_steps=6, batch_size=8)
        ranking = om.rank_configs(config, protocol)
        products = [e.acc_loss * e.perf_loss for e in ranking.entries]
        assert products == sorted(products)

    def test_rank_of_missing_design(self):
        config = tiny_config()
        protocol = om.OracleProtocol(train_steps=4, batch_size=8)
        ranking = om.rank_configs(config, protocol)
        assert ranking.rank_of((0,), (4,)) in (1, 2, 3, 4)
        with pytest.raises(om.OracleError):
            ranking.rank_of((9,), (4,))

    def test_worker_pool_matches_serial(self):
        config = tiny_config()
        serial = om.rank_configs(config, om.OracleProtocol(train_steps=4,
                                                           batch_size=8))
        pooled = om.rank_configs(config, om.OracleProtocol(train_steps=4,
                                                           batch_size=8,
                                                           workers=4))
        # the configs' retunes share the ranking's one CostModel
        assert serial.entries == pooled.entries
        assert all(e.config.parallel_factors for e in serial.entries)
        assert serial.excluded == pooled.excluded == []
        assert serial.perf_norm == pooled.perf_norm

    def test_scale_invariance_of_order(self):
        # multiplying block perfs by c while dividing alpha by c leaves the
        # sum-mode objective unchanged, so the order cannot move
        space = acceptance_space()
        device = DeviceModel.fpga_recursive(96.0)
        configs = om.enumerate_configs(space, device)
        rng = np.random.default_rng(4)
        accs = {(c.op_indices, c.bit_widths): float(rng.uniform(0.5, 1.5))
                for c in configs}
        pf = np.full(3, 4.0)

        def losses(alpha, perf_norm):
            hyper = CostHyperparams(alpha=alpha, res_norm=96.0)
            out = []
            for c in configs:
                perf, res, pen = om.exact_vertex_costs(
                    space, device, hyper, perf_norm, c.op_indices,
                    c.bit_widths, pf)
                out.append(accs[c.op_indices, c.bit_widths] * perf + pen)
            return out

        base = losses(1.0, 1000.0)
        scaled = losses(0.25, 250.0)  # perfs x4, alpha /4
        assert np.allclose(base, scaled, rtol=1e-12)
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()

    def test_diverged_config_excluded_with_notice(self):
        # a pathological protocol learning rate blows training up; the config
        # must be flagged and excluded, not crash the ranking
        config = tiny_config()
        protocol = om.OracleProtocol(train_steps=30, batch_size=8, lr=1e80)
        ranking = om.rank_configs(config, protocol)
        assert len(ranking.entries) + len(ranking.excluded) == 4
        assert ranking.excluded, "expected at least one diverged config"
        for cfg, reason in ranking.excluded:
            assert "diverged" in reason

    def test_protocol_repeatability(self):
        # identical protocol seed reproduces the accuracy measurement exactly;
        # a different seed stays within the measured variance envelope
        config = tiny_config()
        ds = datamod.generate_dataset(config.data)
        train, val, _ = datamod.split(ds, config.fractions, config.data.seed)
        design = DerivedDesign("fpga_recursive", (0,), (8,), None, False)
        p0 = om.OracleProtocol(train_steps=40, batch_size=8)
        a = om._train_acc_loss(config, p0, design, train, val)
        b = om._train_acc_loss(config, p0, design, train, val)
        assert a == b
        p1 = om.OracleProtocol(train_steps=40, batch_size=8, seed=1)
        c = om._train_acc_loss(config, p1, design, train, val)
        assert abs(a - c) < 0.5  # same regime, different draw

    def test_gpu_ranking_no_pf(self):
        space = SearchSpace(num_blocks=1, kernel_sizes=(3, 5),
                            expansion_ratios=(2,), quant=QuantLevels((8, 16)),
                            input_hw=(8, 8), channel_plan=(8,),
                            downsample_blocks=(), num_classes=4)
        device = DeviceModel.gpu(reference_gpu_table(space))
        config = tiny_config(space=space, device=device)
        ranking = om.rank_configs(config, om.OracleProtocol(train_steps=4,
                                                            batch_size=8))
        assert len(ranking.entries) == 4  # 2 ops x 2 shared widths
        for e in ranking.entries:
            assert e.config.parallel_factors is None
            assert e.resource == 0.0


class TestCostRanking:
    """The cost half re-ranks an accuracy table without training."""

    @staticmethod
    def forbid_training(monkeypatch):
        def train_path(*args, **kwargs):
            raise AssertionError("the cost ranking trained a network")
        monkeypatch.setattr(om, "train_path", train_path)

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined"])
    def test_new_budget_equals_full_ranking(self, monkeypatch, kind):
        protocol = om.OracleProtocol(train_steps=4, batch_size=8,
                                     retune_steps=40)
        table = om.accuracy_table(tiny_config(), protocol)
        moved = tiny_config(device=DeviceModel(kind=kind, res_ub=24.0))
        want = om.rank_configs(moved, protocol)
        self.forbid_training(monkeypatch)
        got = om.rank_by_cost(moved, table, protocol)
        assert got == want
        assert len(got.entries) == 4
        assert {e.config.device_kind for e in got.entries} == {kind}

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined",
                                      "gpu_table"])
    def test_ranking_prices_no_design(self, kind):
        space = tiny_config().space
        device = (DeviceModel.gpu(reference_gpu_table(space))
                  if kind == "gpu_table" else DeviceModel(kind=kind,
                                                          res_ub=24.0))
        protocol = om.OracleProtocol(train_steps=2, batch_size=8,
                                     retune_steps=5)
        table = om.accuracy_table(tiny_config(device=device), protocol)
        with mock.patch.object(search, "predict_discrete",
                               wraps=search.predict_discrete) as priced:
            ranking = om.rank_by_cost(tiny_config(device=device), table,
                                      protocol)
        assert priced.call_count == 0
        assert len(ranking.entries) == 4
        for e in ranking.entries:
            assert e.config.device_kind == kind
            assert isinstance(e.config.op_indices, tuple)
            assert (e.config.parallel_factors is None) == (kind == "gpu_table")

    def test_excluded_configs_carry_over(self, monkeypatch):
        protocol = om.OracleProtocol(train_steps=30, batch_size=8, lr=1e80)
        table = om.accuracy_table(tiny_config(), protocol)
        assert table.excluded
        self.forbid_training(monkeypatch)
        ranking = om.rank_by_cost(tiny_config(), table, protocol)
        assert ranking.excluded == table.excluded
        assert len(ranking.entries) == len(table.scores)
        # ranked for another device, they carry that device's kind
        moved = tiny_config(device=DeviceModel(kind="fpga_pipelined",
                                               res_ub=24.0))
        ranking = om.rank_by_cost(moved, table, protocol)
        assert [(d.device_kind, d.op_indices, d.bit_widths, reason)
                for d, reason in ranking.excluded] == \
            [("fpga_pipelined", d.op_indices, d.bit_widths, reason)
             for d, reason in table.excluded]

    def test_precision_sharing_must_match(self):
        protocol = om.OracleProtocol(train_steps=2, batch_size=8)
        table = om.accuracy_table(tiny_config(), protocol)
        space = tiny_config().space
        gpu = tiny_config(device=DeviceModel.gpu(reference_gpu_table(space)))
        with pytest.raises(om.OracleError, match="shared_precision"):
            om.rank_by_cost(gpu, table, protocol)

