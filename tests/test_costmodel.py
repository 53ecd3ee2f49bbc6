import math

import numpy as np
import pytest

from cosearch import tensorcore as tc
from cosearch.costmodel import (CostError, CostHyperparams, CostModel,
                                DeviceModel, GpuLatencyTable, LayerGeom,
                                MissingEntryError, mbconv_layers, op_work,
                                phi_cal, psi, reference_gpu_table)
from cosearch.supernet import PhiArray, QuantLevels, SearchSpace
from cosearch.tensorcore import Parameter, Tape, Tensor


def fpga_space(**kw):
    defaults = dict(num_blocks=2, kernel_sizes=(3, 5), expansion_ratios=(2,),
                    quant=QuantLevels((4, 8)), input_hw=(8, 8),
                    channel_plan=(8, 8), downsample_blocks=(2,),
                    stem_channels=8, num_classes=4)
    defaults.update(kw)
    return SearchSpace(**defaults)


def at_bits(cm, i, m, pf, q):
    """(latency, resource) of op (i, m) at one-hot q-bit weights."""
    weights = Tensor([float(b == q) for b in cm.space.quant.bit_widths])
    perf, res = cm.expected_op_cost(i, m, weights, pf=pf)
    return perf.item(), res.item()


class TestCalibration:
    def test_psi_piecewise_table(self):
        assert [psi(q) for q in (3, 4, 5, 8, 9, 16)] == [0, 0, 0.5, 0.5, 1, 1]

    def test_psi_undefined_above_16(self):
        with pytest.raises(CostError):
            psi(17)

    def test_phi_cal_is_identity(self):
        for q in (4, 8, 16):
            assert phi_cal(q) == q


class TestLayerLatency:
    """Hand-computed single-layer values; bit-exact."""

    def setup_method(self):
        space = fpga_space(quant=QuantLevels((4, 8, 16)))
        self.cm = CostModel(space, DeviceModel.fpga_recursive(900))

    def test_conv_layer(self):
        layer = LayerGeom("conv", 1, 8, 8, 16, 32)
        lat = phi_cal(8) * layer.factor() * tc.pow2(Tensor(-4.0)).item()
        assert lat == 16384.0

    def test_dwconv_layer(self):
        layer = LayerGeom("dwconv", 3, 8, 8, 16, 16)
        lat = phi_cal(8) * layer.factor() * tc.pow2(Tensor(-4.0)).item()
        assert lat == 4608.0

    def test_elementwise_layer(self):
        layer = LayerGeom("elementwise", 1, 8, 8, 16, 16)
        lat = phi_cal(8) * layer.factor() * tc.pow2(Tensor(-4.0)).item()
        assert lat == 512.0

    def test_resource_values(self):
        cm = self.cm
        assert at_bits(cm, 0, 0, 6.0, 16)[1] == 64.0
        assert at_bits(cm, 0, 0, 4.0, 8)[1] == 8.0
        assert at_bits(cm, 0, 0, 11.0, 4)[1] == 0.0

    def test_op_latency_sums_layers(self):
        space = fpga_space()
        cm = CostModel(space, DeviceModel.fpga_recursive(900))
        expect = sum(layer.factor() for layer in mbconv_layers(space.op_spec(0, 0)))
        got = at_bits(cm, 0, 0, 0.0, 4)[0]
        assert got == 4.0 * expect

    def test_latency_monotone_decreasing_in_pf(self):
        cm = self.cm
        lats = [at_bits(cm, 0, 0, pf, 8)[0] for pf in (0, 1, 2, 5.5)]
        assert all(a > b for a, b in zip(lats, lats[1:]))

    def test_resource_monotone_increasing_in_pf(self):
        cm = self.cm
        ress = [at_bits(cm, 0, 0, pf, 8)[1] for pf in (0, 1, 2, 5.5)]
        assert all(a < b for a, b in zip(ress, ress[1:]))


class TestMbconvLayers:
    def test_layer_walk(self):
        space = fpga_space()
        layers = mbconv_layers(space.op_spec(1, 1))  # block 2, k=5, stride 2
        kinds = [l.kind for l in layers]
        assert kinds == ["conv", "elementwise", "dwconv", "elementwise",
                         "conv", "elementwise"]
        assert layers[2].k == 5
        assert (layers[0].h, layers[2].h) == (8, 4)  # stride drops after dw


class TestExpectations:
    def setup_method(self):
        self.space = fpga_space()
        self.cm = CostModel(self.space, DeviceModel.fpga_recursive(900))

    def test_one_hot_selects_single_level(self):
        perf, res = self.cm.expected_op_cost(0, 0, Tensor([1.0, 0.0]), pf=3.0)
        assert perf.item() == phi_cal(4) * op_work(self.space, 0, 0) * 2.0 ** -3
        assert res.item() == psi(4) * 2.0 ** 3

    def test_uniform_weights_average(self):
        perf, _ = self.cm.expected_op_cost(0, 0, Tensor([0.5, 0.5]), pf=0.0)
        a = at_bits(self.cm, 0, 0, 0.0, 4)[0]
        b = at_bits(self.cm, 0, 0, 0.0, 8)[0]
        assert perf.item() == pytest.approx((a + b) / 2, rel=1e-15)

    def test_uniform_mean_of_100_200(self):
        # averaging per-level costs {100, 200} -> 150
        weights = Tensor([0.5, 0.5])
        costs = Tensor([100.0, 200.0])
        assert (weights * costs).sum().item() == 150.0

    def test_phi_gradient_matches_finite_difference(self):
        phi = Parameter([0.3, -0.4])
        def loss():
            w = tc.softmax(phi)
            perf, res = self.cm.expected_op_cost(0, 1, w, pf=2.0)
            return perf * Tensor(1e-4) + res
        assert tc.finite_diff_check(loss, [phi]) < 1e-4

    def test_block_cost_one_hot_and_degenerate(self):
        perfs = [Tensor(10.0), Tensor(20.0)]
        ress = [Tensor(1.0), Tensor(2.0)]
        p, r = CostModel.block_cost(Tensor([0.0, 1.0]), perfs, ress)
        assert (p.item(), r.item()) == (20.0, 2.0)
        p, r = CostModel.block_cost(Tensor([1.0]), [Tensor(7.0)], [Tensor(3.0)])
        assert (p.item(), r.item()) == (7.0, 3.0)

    def test_uniform_theta_identical_ops(self):
        perfs = [Tensor(10.0), Tensor(10.0)]
        ress = [Tensor(1.0), Tensor(1.0)]
        p, r = CostModel.block_cost(Tensor([0.5, 0.5]), perfs, ress)
        assert p.item() == 10.0 and r.item() == 1.0


class TestPerfLoss:
    def test_sum_mode(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_recursive(900))
        out = cm.perf_loss([Tensor(1.0), Tensor(2.0), Tensor(3.0)])
        assert out.item() == 6.0

    def test_lse_mode(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_pipelined(900))
        out = cm.perf_loss([Tensor(0.0), Tensor(0.0)])
        assert out.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_lse_bounds(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_pipelined(900))
        rng = np.random.default_rng(5)
        for _ in range(100):
            vals = rng.normal(0, 3, 4)
            out = cm.perf_loss([Tensor(v) for v in vals]).item()
            assert vals.max() <= out <= vals.max() + math.log(len(vals)) + 1e-12


class TestTotalResource:
    def setup_method(self):
        self.space = fpga_space()

    def test_shared_unused_op_contributes_zero(self):
        cm = CostModel(self.space, DeviceModel.fpga_recursive(900))
        theta_ws = [Tensor([1.0, 0.0]), Tensor([1.0, 0.0])]
        phi_ws = [[Tensor([0.0, 1.0])] * 2 for _ in range(2)]
        pf = Parameter([3.0, 3.0])
        res = cm.shared_total_resource(theta_ws, phi_ws, pf)
        # op 1 unused: tanh(0) = 0; op 0 used twice: tanh(2) * psi(8) * 8
        assert res.item() == pytest.approx(math.tanh(2.0) * 0.5 * 8.0, rel=1e-12)

    def test_shared_weight_one_gives_tanh_one(self):
        cm = CostModel(self.space, DeviceModel.fpga_recursive(900))
        theta_ws = [Tensor([1.0, 0.0]), Tensor([0.0, 1.0])]
        phi_ws = [[Tensor([0.0, 1.0])] * 2 for _ in range(2)]
        pf = Parameter([3.0, 3.0])
        res = cm.shared_total_resource(theta_ws, phi_ws, pf)
        want = 2 * math.tanh(1.0) * 0.5 * 8.0
        assert res.item() == pytest.approx(want, rel=1e-12)
        assert math.tanh(1.0) == pytest.approx(0.7616, abs=5e-5)

    def test_unshared_sums_identical_blocks(self):
        res = CostModel.unshared_total_resource([Tensor(5.0), Tensor(5.0)])
        assert res.item() == 10.0

    def test_shared_never_exceeds_unshared_sum(self):
        # tanh(u)/u <= 1, so the gated shared total is bounded by the plain
        # unshared block sum on the same state
        space = fpga_space()
        rng = np.random.default_rng(7)
        cm = CostModel(space, DeviceModel.fpga_recursive(900))
        for _ in range(100):
            theta = Parameter(rng.normal(0, 3, (2, 2)))
            phi = PhiArray(2, 2, 2)
            phi.parameters()[0].assign(rng.normal(0, 3, (2, 2, 2)))
            pf = Parameter(rng.uniform(0, 6, 2))
            out = cm.assemble(theta, phi, pf, tau=1.0)
            theta_ws = [tc.gumbel_softmax(theta[i], 1.0) for i in range(2)]
            unshared = 0.0
            for i in range(2):
                for m in range(2):
                    w = tc.gumbel_softmax(phi.logits(i, m), 1.0)
                    _, r = cm.expected_op_cost(i, m, w, pf=pf[m])
                    unshared += theta_ws[i].values[m] * r.item()
            assert out.resource.item() <= unshared + 1e-9

    def test_shared_needs_per_op_layout(self):
        cm = CostModel(self.space, DeviceModel.fpga_recursive(900))
        theta = Parameter(np.zeros((2, 2)))
        phi = PhiArray(2, 2, 2)
        bad_pf = Parameter(np.zeros((2, 2)))  # per-(block,op) layout
        with pytest.raises(CostError, match="pf"):
            cm.assemble(theta, phi, bad_pf, tau=1.0)


class TestTotalLoss:
    def setup_method(self):
        self.cm = CostModel(fpga_space(),
                            DeviceModel.fpga_recursive(10.0),
                            CostHyperparams(beta=1.0, base=math.e, res_norm=1.0))

    def test_arithmetic(self):
        cm = self.cm
        out = cm.total_loss(Tensor(2.0), Tensor(1.5), Tensor(10.0 + math.log(0.1)))
        assert out.item() == pytest.approx(2.0 * 1.5 + 0.1, rel=1e-12)

    def test_penalty_at_bound_equals_beta(self):
        assert self.cm.penalty(Tensor(10.0)).item() == pytest.approx(1.0, rel=1e-15)

    def test_penalty_two_over_is_e_squared(self):
        # raw exponent form: res_norm = 1
        assert self.cm.penalty(Tensor(12.0)).item() == pytest.approx(
            math.e ** 2, rel=1e-12)
        assert math.e ** 2 == pytest.approx(7.389, abs=5e-4)

    def test_penalty_monotone_in_resource(self):
        vals = [self.cm.penalty(Tensor(v)).item() for v in (8.0, 9.0, 10.0, 11.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_fixed_mode_penalty_disabled(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        cm = CostModel(space, DeviceModel.gpu(reference_gpu_table(space)))
        assert cm.penalty(Tensor(1e9)).item() == 0.0

    def test_beta_zero_kills_penalty(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_recursive(10.0),
                       CostHyperparams(beta=0.0, res_norm=10.0))
        for res in (0.0, 10.0, 50.0):
            assert cm.penalty(Tensor(res)).item() == 0.0


class TestGpuTable:
    def make_table(self, space):
        return reference_gpu_table(space)

    def test_lookup(self):
        table = GpuLatencyTable({(0, 16): 1.0})
        assert table.lookup(0, 16) == 1.0

    def test_missing_entry_names_pair(self):
        table = GpuLatencyTable({(0, 16): 1.0})
        with pytest.raises(MissingEntryError, match=r"op 5.*8-bit"):
            table.lookup(5, 8)

    def test_monotone_in_bit_width_required(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        bad = GpuLatencyTable({(m, q): 1.0 for m in range(2) for q in (8, 16)})
        with pytest.raises(CostError, match="increase"):
            bad.validate(space.num_ops, space.quant.bit_widths)

    def test_reference_table_valid_and_monotone(self):
        space = fpga_space(quant=QuantLevels((8, 16, 32)))
        table = self.make_table(space)
        table.validate(space.num_ops, space.quant.bit_widths)
        assert table.lookup(0, 32) > table.lookup(0, 8)

    def test_positive_required(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        bad = GpuLatencyTable({(m, q): (0.0 if (m, q) == (0, 8) else q)
                               for m in range(2) for q in (8, 16)})
        with pytest.raises(CostError, match="positive"):
            bad.validate(2, (8, 16))

    def test_mapping_roundtrip(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        table = self.make_table(space)
        again = GpuLatencyTable.from_mapping(table.to_mapping())
        assert again.entries == table.entries

    def test_fpga_quant_above_16_rejected(self):
        space = fpga_space(quant=QuantLevels((8, 32)))
        with pytest.raises(CostError, match="16"):
            CostModel(space, DeviceModel.fpga_recursive(900))


class TestAssembleGradients:
    """Everything composed into the fused objective passes gradient checks
    (noise-free weights) for all three device models."""

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined",
                                      "gpu_table"])
    def test_finite_difference_20_configs(self, kind):
        space = fpga_space(quant=QuantLevels((8, 16)) if kind == "gpu_table"
                           else QuantLevels((4, 8)))
        if kind == "gpu_table":
            device = DeviceModel.gpu(reference_gpu_table(space))
        elif kind == "fpga_recursive":
            device = DeviceModel.fpga_recursive(64.0)
        else:
            device = DeviceModel.fpga_pipelined(64.0)
        hyper = CostHyperparams(res_norm=64.0 if kind != "gpu_table" else 1.0)
        cm = CostModel(space, device, hyper)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            theta = Parameter(rng.normal(0, 1.5, (2, 2)))
            shared = device.shared_precision
            phi = PhiArray(2, 2, 2, shared_precision=shared)
            phi.parameters()[0].assign(
                rng.normal(0, 1.5, phi.parameters()[0].values.shape))
            if kind == "fpga_recursive":
                pf = Parameter(rng.uniform(1, 5, 2))
            elif kind == "fpga_pipelined":
                pf = Parameter(rng.uniform(1, 5, (2, 2)))
            else:
                pf = None
            cm.initial_perf_norm(None if pf is None else pf.values)
            tau = float(rng.uniform(0.5, 3.0))
            acc = float(rng.uniform(0.5, 2.0))

            def loss():
                out = cm.assemble(theta, phi, pf, tau)
                return cm.total_loss(Tensor(acc), out.perf_loss, out.resource)
            params = [theta] + phi.parameters() + ([pf] if pf is not None else [])
            worst = max(worst, tc.finite_diff_check(loss, params))
        assert worst < 1e-4, f"{kind}: {worst}"

    def test_gpu_pf_gradient_identically_zero(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        cm = CostModel(space, DeviceModel.gpu(reference_gpu_table(space)))
        cm.initial_perf_norm(None)
        theta = Parameter(np.random.default_rng(0).normal(size=(2, 2)))
        phi = PhiArray(2, 2, 2, shared_precision=True)
        stray_pf = Parameter(np.ones(2))  # not wired into the gpu model
        stray_pf.zero_grad()
        theta.zero_grad()
        with Tape() as tape:
            out = cm.assemble(theta, phi, None, tau=1.0)
            loss = cm.total_loss(Tensor(1.0), out.perf_loss, out.resource)
            tape.backward(loss)
        assert np.all(stray_pf.grad == 0)
        assert np.any(theta.grad != 0)

    def test_gpu_quant_weights_equal_across_blocks(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        phi = PhiArray(2, 2, 2, shared_precision=True)
        phi.parameters()[0].assign(np.array([0.7, -0.1]))
        a = tc.gumbel_softmax(phi.logits(0, 0), 1.0)
        b = tc.gumbel_softmax(phi.logits(1, 1), 1.0)
        assert np.array_equal(a.values, b.values)
