import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosearch import oracle as om
from cosearch import tensorcore as tc
from cosearch.costmodel import (DEVICE_KINDS, CostError, CostHyperparams,
                                CostModel, DeviceModel, GpuLatencyTable,
                                InfeasibleError, LayerGeom, MissingEntryError,
                                mbconv_layers, op_work, phi_cal, psi,
                                reference_gpu_table)
from cosearch.search import predict_discrete
from cosearch.supernet import QuantLevels, SearchSpace
from cosearch.tensorcore import Parameter, Tape, Tensor

from reference_ops import finite_diff_check, initial_parallel_factors, stack


def fpga_space(**kw):
    defaults = dict(num_blocks=2, kernel_sizes=(3, 5), expansion_ratios=(2,),
                    quant=QuantLevels((4, 8)), input_hw=(8, 8),
                    channel_plan=(8, 8), downsample_blocks=(2,),
                    stem_channels=8, num_classes=4)
    defaults.update(kw)
    return SearchSpace(**defaults)


def at_bits(cm, i, m, pf, q):
    """(latency of block i, resource) with every block on op m at q bits
    and parallel factor pf (perf_norm 1)."""
    n = cm.space.num_blocks
    ops = [m] * n
    theta_w, phi_w = cm.vertex_weights(ops, [q] * n)
    out = cm.apply_pf(theta_w, cm.terms(theta_w, phi_w),
                      Tensor(cm.layout_pfs(ops, [pf] * n)))
    return out.block_perfs_norm[i], out.resource.item()


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
        perf, res = at_bits(self.cm, 0, 0, 3.0, 4)
        assert perf == phi_cal(4) * op_work(self.space, 0, 0) * 2.0 ** -3
        assert res == psi(4) * 2.0 ** 3

    def test_uniform_weights_average(self):
        perf, _ = self.cm.terms(Tensor(np.eye(2)), Tensor([0.5, 0.5]))
        a = at_bits(self.cm, 0, 0, 0.0, 4)[0]
        b = at_bits(self.cm, 0, 0, 0.0, 8)[0]
        assert perf[(0, 0)].item() == pytest.approx((a + b) / 2, rel=1e-15)

    def test_uniform_mean_of_100_200(self):
        # averaging per-level costs {100, 200} -> 150
        weights = Tensor([0.5, 0.5])
        costs = Tensor([100.0, 200.0])
        assert (weights * costs).sum().item() == 150.0

    def test_phi_gradient_matches_finite_difference(self):
        phi = Parameter([0.3, -0.4])
        theta_w = Tensor([[0.0, 1.0], [0.0, 1.0]])
        def loss():
            terms = self.cm.terms(theta_w, tc.softmax(phi))
            out = self.cm.apply_pf(theta_w, terms, Tensor([2.0, 2.0]))
            return out.perf_loss * Tensor(1e-4) + out.resource
        assert finite_diff_check(loss, [phi]) < 1e-4

    def test_block_cost_one_hot_and_degenerate(self):
        perfs = Tensor([[10.0, 20.0]])
        ress = Tensor([[1.0, 2.0]])
        p = CostModel.block_costs(Tensor([[0.0, 1.0]]), perfs)
        r = CostModel.block_costs(Tensor([[0.0, 1.0]]), ress)
        assert (p.values.tolist(), r.values.tolist()) == ([20.0], [2.0])
        p = CostModel.block_costs(Tensor([[1.0]]), Tensor([[7.0]]))
        r = CostModel.block_costs(Tensor([[1.0]]), Tensor([[3.0]]))
        assert (p.values.tolist(), r.values.tolist()) == ([7.0], [3.0])

    def test_uniform_theta_identical_ops(self):
        perfs = Tensor([[10.0, 10.0]])
        ress = Tensor([[1.0, 1.0]])
        p = CostModel.block_costs(Tensor([[0.5, 0.5]]), perfs)
        r = CostModel.block_costs(Tensor([[0.5, 0.5]]), ress)
        assert p.values.tolist() == [10.0] and r.values.tolist() == [1.0]


class TestPerfLoss:
    def test_sum_mode(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_recursive(900))
        out = cm.perf_loss(Tensor([1.0, 2.0, 3.0]))
        assert out.item() == 6.0

    def test_lse_mode(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_pipelined(900))
        out = cm.perf_loss(Tensor([0.0, 0.0]))
        assert out.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_lse_bounds(self):
        cm = CostModel(fpga_space(), DeviceModel.fpga_pipelined(900))
        rng = np.random.default_rng(5)
        for _ in range(100):
            vals = rng.normal(0, 3, 4)
            out = cm.perf_loss(Tensor(vals)).item()
            assert vals.max() <= out <= vals.max() + math.log(len(vals)) + 1e-12


class TestTotalResource:
    def setup_method(self):
        self.space = fpga_space()

    @staticmethod
    def resource(cm, theta_ws, phi_ws, pf):
        return cm.apply_pf(theta_ws, cm.terms(theta_ws, phi_ws), pf).resource

    def test_shared_unused_op_contributes_zero(self):
        cm = CostModel(self.space, DeviceModel.fpga_recursive(900))
        theta_ws = Tensor([[1.0, 0.0], [1.0, 0.0]])
        phi_ws = Tensor(np.tile([0.0, 1.0], (2, 2, 1)))
        res = self.resource(cm, theta_ws, phi_ws, Parameter([3.0, 3.0]))
        # op 1 unused: 0; op 0 used twice: one IP, psi(8) * 2^3
        assert res.item() == 0.5 * 8.0

    def test_shared_single_users_cost_their_own_ips(self):
        cm = CostModel(self.space, DeviceModel.fpga_recursive(900))
        theta_ws = Tensor([[1.0, 0.0], [0.0, 1.0]])
        phi_ws = Tensor(np.tile([0.0, 1.0], (2, 2, 1)))
        res = self.resource(cm, theta_ws, phi_ws, Parameter([3.0, 3.0]))
        assert res.item() == 2 * 0.5 * 8.0

    def test_shared_ip_sized_for_widest_user(self):
        space = fpga_space(quant=QuantLevels((4, 8, 16)))
        cm = CostModel(space, DeviceModel.fpga_recursive(900))
        theta_ws = Tensor([[1.0, 0.0], [1.0, 0.0]])
        for bits, dsps in (((16, 4), 1.0), ((8, 16), 1.0), ((4, 8), 0.5),
                           ((4, 4), 0.0)):
            _, phi_ws = cm.vertex_weights([0, 0], bits)
            res = self.resource(cm, theta_ws, phi_ws, Parameter([6.0, 2.0]))
            assert res.item() == dsps * 64.0

    def test_unshared_sums_identical_blocks(self):
        cm = CostModel(self.space, DeviceModel.fpga_pipelined(900))
        terms = (Tensor([[0.0], [0.0]]), Tensor([[5.0], [5.0]]))
        out = cm.apply_pf(Tensor([[1.0], [1.0]]), terms, Tensor([[0.0], [0.0]]))
        assert out.resource.item() == 10.0

    def test_shared_never_exceeds_unshared_sum(self):
        # psi grows with the bit-width, so by the union bound the widest-user
        # total is bounded by the plain unshared block sum on the same state
        space = fpga_space()
        rng = np.random.default_rng(7)
        cm = CostModel(space, DeviceModel.fpga_recursive(900))
        piped = CostModel(space, DeviceModel.fpga_pipelined(900))
        for _ in range(100):
            theta = Parameter(rng.normal(0, 3, (2, 2)))
            phi = Parameter(rng.normal(0, 3, (2, 2, 2)))
            pf = Parameter(rng.uniform(0, 6, 2))
            out = cm.assemble(theta, phi, pf, tau=1.0)
            theta_ws = tc.gumbel_softmax_rows(theta, 1.0)
            _, r = piped.terms(theta_ws, tc.gumbel_softmax_rows(phi, 1.0))
            unshared = float((theta_ws.values * r.values
                              * 2.0 ** pf.values).sum())
            assert out.resource.item() <= unshared + 1e-9

    def test_shared_needs_per_op_layout(self):
        cm = CostModel(self.space, DeviceModel.fpga_recursive(900))
        theta = Parameter(np.zeros((2, 2)))
        phi = Parameter(np.zeros((2, 2, 2)))
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

    @pytest.mark.parametrize("kw, named", [
        (dict(res_ub=math.inf), "res_ub"), (dict(res_ub=math.nan), "res_ub"),
        (dict(res_ub=0.0), "res_ub"), (dict(res_ub=64.0, pf_max=-1.0), "pf_max"),
        (dict(res_ub=64.0, pf_max=math.inf), "pf_max")])
    def test_device_bounds_must_be_finite(self, kw, named):
        for kind in ("fpga_recursive", "fpga_pipelined"):
            with pytest.raises(CostError, match=named):
                DeviceModel(kind=kind, **kw)

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
            phi = Parameter(rng.normal(0, 1.5, (2,) if shared else (2, 2, 2)))
            if kind == "fpga_recursive":
                pf = Parameter(rng.uniform(1, 5, 2))
            elif kind == "fpga_pipelined":
                pf = Parameter(rng.uniform(1, 5, (2, 2)))
            else:
                pf = None
            cm.initial_perf_norm()
            tau = float(rng.uniform(0.5, 3.0))
            acc = float(rng.uniform(0.5, 2.0))

            def loss():
                out = cm.assemble(theta, phi, pf, tau)
                return cm.total_loss(Tensor(acc), out.perf_loss, out.resource)
            params = [theta, phi] + ([pf] if pf is not None else [])
            worst = max(worst, finite_diff_check(loss, params))
        assert worst < 1e-4, f"{kind}: {worst}"

    def test_gpu_pf_gradient_identically_zero(self):
        space = fpga_space(quant=QuantLevels((8, 16)))
        cm = CostModel(space, DeviceModel.gpu(reference_gpu_table(space)))
        cm.initial_perf_norm()
        theta = Parameter(np.random.default_rng(0).normal(size=(2, 2)))
        phi = Parameter(np.zeros(2))  # the shared Q-vector
        stray_pf = Parameter(np.ones(2))  # not wired into the gpu model
        stray_pf.grad[...] = 0.0
        theta.grad[...] = 0.0
        with Tape() as tape:
            out = cm.assemble(theta, phi, None, tau=1.0)
            loss = cm.total_loss(Tensor(1.0), out.perf_loss, out.resource)
            tape.backward(loss)
        assert np.all(stray_pf.grad == 0)
        assert np.any(theta.grad != 0)

    def test_gpu_quant_weights_equal_across_blocks(self):
        # the shared Q-vector weighs every (block, op) alike: its latency
        # terms are those of its N x M x Q broadcast
        space = fpga_space(quant=QuantLevels((8, 16)))
        cm = CostModel(space, DeviceModel.gpu(reference_gpu_table(space)))
        theta_w = Tensor(np.full((2, 2), 0.5))
        shared = tc.gumbel_softmax(Parameter(np.array([0.7, -0.1])), 1.0)
        a, _ = cm.terms(theta_w, shared)
        b, _ = cm.terms(theta_w, Tensor(np.broadcast_to(shared.values,
                                                        (2, 2, 2))))
        assert np.array_equal(a.values, b.values)


# -- the array form against the per-(block, op) scalar loop it replaced ---------

def reference_assemble(cm, theta, phi, pf, tau, rng=None):
    """CostModel.assemble as one scalar expression per (block, op): every
    weight vector is its own gumbel_softmax call, in the same noise order.
    Returns (perf_loss, resource, block_perfs_norm)."""
    space, device = cm.space, cm.device
    n, m_count = space.num_blocks, space.num_ops
    bits = space.quant.bit_widths
    res_vec = Tensor([psi(q) for q in bits])
    shared_w = None
    if device.shared_precision:
        shared_w = tc.gumbel_softmax(phi, tau, rng=rng)
    theta_ws, phi_ws = [], []
    for i in range(n):
        theta_ws.append(tc.gumbel_softmax(theta[i], tau, rng=rng))
        phi_ws.append([shared_w if shared_w is not None
                       else tc.gumbel_softmax(phi[(i, m)], tau, rng=rng)
                       for m in range(m_count)])

    block_perfs, block_ress = [], []
    for i in range(n):
        perfs, ress = [], []
        for m in range(m_count):
            w = phi_ws[i][m]
            if device.kind == "gpu_table":
                lat = Tensor([device.table.lookup(m, q) for q in bits])
                perfs.append((w * lat).sum())
                ress.append(Tensor(0.0))
                continue
            p = pf[m] if device.kind == "fpga_recursive" else pf[(i, m)]
            lat = Tensor([phi_cal(q) * op_work(space, i, m) for q in bits])
            perfs.append((w * lat).sum() * tc.pow2(-p))
            ress.append((w * res_vec).sum() * tc.pow2(p))
        block_perfs.append((theta_ws[i] * stack(perfs)).sum())
        block_ress.append((theta_ws[i] * stack(ress)).sum())

    norm = Tensor(cm.perf_norm)
    block_perfs_n = [p / norm for p in block_perfs]
    vec = stack(block_perfs_n)
    agg = tc.log_sum_exp(vec) if device.perf_aggregation == "lse" else vec.sum()
    perf_loss = agg * Tensor(cm.hyper.alpha)

    resource = None
    if device.resource_mode == "fixed":
        resource = Tensor(0.0)
    elif device.resource_mode == "shared":
        # IP m needs psi step k unless every block leaves it below q_k
        levels = [psi(q) for q in bits]
        steps = [b - a for a, b in zip([0.0] + levels, levels)]
        for m in range(m_count):
            need = None
            for k, step in enumerate(steps):
                idle = None
                for i in range(n):
                    free = Tensor(1.0) - theta_ws[i][m] * phi_ws[i][m][k:].sum()
                    idle = free if idle is None else idle * free
                term = (Tensor(1.0) - idle) * Tensor(step)
                need = term if need is None else need + term
            term = need * tc.pow2(pf[m])
            resource = term if resource is None else resource + term
    else:
        for r in block_ress:
            resource = r if resource is None else resource + r
    return perf_loss, resource, [float(p.values) for p in block_perfs_n]


def random_cost_model(data, kind, n, m, q):
    """A CostModel over a random n-block, m-op, q-level space."""
    draw = data.draw
    hw = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    down, h, w = [], *hw
    for i in range(n):
        if h >= 2 and w >= 2 and draw(st.booleans()):
            down.append(i + 1)
            h, w = (h + 1) // 2, (w + 1) // 2
    bits = sorted(draw(st.sets(st.integers(2, 16), min_size=q, max_size=q)))
    space = SearchSpace(
        num_blocks=n, kernel_sizes=tuple(range(1, 2 * m, 2)),
        expansion_ratios=(draw(st.integers(1, 4)),),
        quant=QuantLevels(tuple(bits)), input_hw=hw,
        stem_channels=draw(st.integers(1, 16)),
        channel_plan=tuple(draw(st.integers(1, 16)) for _ in range(n)),
        downsample_blocks=tuple(down), num_classes=4)
    if kind == "gpu_table":
        device = DeviceModel.gpu(reference_gpu_table(space))
    else:
        device = DeviceModel(kind=kind, res_ub=draw(st.floats(16.0, 4096.0)))
    return CostModel(space, device,
                     CostHyperparams(res_norm=device.default_res_norm))


def random_state(cm, seed):
    """Random theta, phi and pf logits for cm's space and device."""
    space, device = cm.space, cm.device
    n, m, q = space.num_blocks, space.num_ops, len(space.quant)
    rng = np.random.default_rng(seed)
    theta = Parameter(rng.normal(0, 3, (n, m)))
    phi = Parameter(rng.normal(0, 3, (q,) if device.shared_precision
                               else (n, m, q)))
    pf = None
    if device.kind == "fpga_recursive":
        pf = Parameter(rng.uniform(0, 10, m))
    elif device.kind == "fpga_pipelined":
        pf = Parameter(rng.uniform(0, 10, (n, m)))
    params = [theta, phi] + ([pf] if pf is not None else [])
    return theta, phi, pf, params, float(rng.uniform(0.1, 5.0))


class TestInitialPf:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("fpga_recursive",
                                                 "fpga_pipelined")),
           n=st.integers(1, 9), m=st.integers(1, 12), q=st.integers(1, 4))
    def test_equals_the_per_kind_formula(self, data, kind, n, m, q):
        cm = random_cost_model(data, kind, n, m, q)
        ips = m if kind == "fpga_recursive" else n * m
        # half the draws sit at or below one DSP per IP, where no start exists
        res_ub = data.draw(st.one_of(st.floats(0.5, float(ips)),
                                     st.floats(float(ips), 4096.0)))
        if data.draw(st.booleans(), label="exactly one DSP per IP"):
            res_ub = float(ips)
        cm = CostModel(cm.space, DeviceModel(kind=kind, res_ub=res_ub))
        try:
            want = initial_parallel_factors(cm.device, cm.space)
        except InfeasibleError:
            with pytest.raises(InfeasibleError, match=f"<= {ips} IPs"):
                cm.initial_pf()
            return
        got = cm.initial_pf()
        assert got.shape == want.shape and np.array_equal(got, want)


class TestArrayAssembleMatchesScalarLoop:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(DEVICE_KINDS),
           n=st.integers(1, 9), m=st.integers(1, 12), q=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), noisy=st.booleans())
    def test_values_gradients_and_noise(self, data, kind, n, m, q, seed, noisy):
        cm = random_cost_model(data, kind, n, m, q)
        theta, phi, pf, params, tau = random_state(cm, seed)
        cm.perf_norm = data.draw(st.floats(1.0, 1e6))

        def run(fn, output):
            """(outputs, gradients of `output`, next draw) of one call."""
            rng = np.random.default_rng(seed) if noisy else None
            for p in params:
                p.grad[...] = 0.0
            with Tape() as tape:
                outs = fn(cm, theta, phi, pf, tau, rng=rng)
                tape.backward(outs[output])
            return (outs, [p.grad.copy() for p in params],
                    None if rng is None else rng.random())

        def array_fn(*args, **kw):
            out = CostModel.assemble(*args, **kw)
            return out.perf_loss, out.resource, out.block_perfs_norm

        for output in (0, 1):
            (perf, res, norms), grads, after = run(array_fn, output)
            (perf_r, res_r, norms_r), grads_r, after_r = run(
                reference_assemble, output)
            assert perf.item() == perf_r.item()
            assert norms == norms_r
            assert res.item() == pytest.approx(res_r.item(), rel=1e-14, abs=0)
            assert after == after_r
            # gradients accumulate in another order: compare at the scale of
            # the largest entry, since entries whose true value is zero carry
            # different rounding noise
            scale = max(np.abs(g_r).max() for g_r in grads_r)
            for g, g_r in zip(grads, grads_r):
                assert np.abs(g - g_r).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", DEVICE_KINDS)
    @pytest.mark.parametrize("noisy", [False, True])
    def test_tape_length_independent_of_space_size(self, kind, noisy):
        lengths = []
        for n, m in ((1, 1), (9, 12)):
            space = SearchSpace(
                num_blocks=n, kernel_sizes=tuple(range(1, 2 * m, 2)),
                expansion_ratios=(2,), quant=QuantLevels((4, 8, 16)),
                input_hw=(8, 8), channel_plan=(8,) * n, downsample_blocks=(),
                num_classes=4)
            device = (DeviceModel.gpu(reference_gpu_table(space))
                      if kind == "gpu_table" else DeviceModel(kind, res_ub=900.0))
            cm = CostModel(space, device)
            theta, phi, pf, _, tau = random_state(cm, 0)
            with Tape() as tape:
                cm.assemble(theta, phi, pf, tau,
                            rng=np.random.default_rng(0) if noisy else None)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1] <= 28


# -- one cost at every vertex: relaxed objective, reported design, oracle ---------

class TestApplyPfLanes:
    """apply_pf over a leading lane axis gives each lane the bits, values
    and pf gradients, of apply_pf on that lane's design alone."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("fpga_recursive",
                                                 "fpga_pipelined")),
           n=st.integers(1, 5), m=st.integers(1, 10), q=st.integers(1, 3),
           lanes=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_lanes_equal_designs_alone(self, data, kind, n, m, q, lanes, seed):
        cm = random_cost_model(data, kind, n, m, q)
        cm.perf_norm = data.draw(st.floats(1.0, 1e6))
        rng = np.random.default_rng(seed)
        alone = []
        for _ in range(lanes):
            theta_w = Tensor(tc.softmax(Tensor(rng.normal(0, 3, (n, m)))).values)
            phi_w = Tensor(tc.softmax(Tensor(rng.normal(0, 3, (n, m, q)))).values)
            pf = Parameter(rng.uniform(0, 10, m if kind == "fpga_recursive"
                                       else (n, m)))
            with Tape() as tape:
                out = cm.apply_pf(theta_w, cm.terms(theta_w, phi_w), pf)
                tape.backward(out.perf_loss + cm.penalty(out.resource))
            alone.append((theta_w, cm.terms(theta_w, phi_w), pf, out))

        def stacked(arrays):
            return Tensor(np.reshape(arrays, (lanes, -1, m)))

        theta_l = stacked([a[0].values for a in alone])
        terms_l = (stacked([a[1][0].values for a in alone]),
                   stacked([a[1][1].values for a in alone]))
        pf_l = Parameter(np.reshape([a[2].values for a in alone],
                                    (lanes, -1, m)))
        with Tape() as tape:
            out = cm.apply_pf(theta_l, terms_l, pf_l)
            tape.backward((out.perf_loss + cm.penalty(out.resource)).sum())
        for k, (_, _, pf, one) in enumerate(alone):
            assert out.perf_loss.values[k] == one.perf_loss.item()
            assert out.resource.values[k] == one.resource.item()
            assert out.block_perfs_norm[k] == one.block_perfs_norm
            assert np.array_equal(pf_l.grad[k].reshape(pf.grad.shape), pf.grad)


def reference_predict_discrete(space, device, ops, bits, pfs):
    """predict_discrete as a scalar loop per block; a shared IP is sized
    for its widest user, at its first user's parallel factor."""
    n = space.num_blocks
    if device.kind == "gpu_table":
        lats = [device.table.lookup(ops[i], bits[i]) for i in range(n)]
        return {
            "block_latencies": lats,
            "latency_total": float(sum(lats)),
            "latency_bottleneck": float(max(lats)),
            "resource": 0.0,
            "resource_bound": None,
        }
    lats = [phi_cal(bits[i]) * op_work(space, i, ops[i]) * 2.0 ** -pfs[i]
            for i in range(n)]
    if device.kind == "fpga_recursive":
        res = 0.0
        for m in sorted(set(ops)):
            users = [i for i in range(n) if ops[i] == m]
            res += max(psi(bits[i]) for i in users) * 2.0 ** pfs[users[0]]
    else:
        res = sum(psi(bits[i]) * 2.0 ** pfs[i] for i in range(n))
    out = {
        "block_latencies": lats,
        "latency_total": float(sum(lats)),
        "latency_bottleneck": float(max(lats)),
        "resource": float(res),
        "resource_bound": float(device.res_ub),
    }
    if device.kind == "fpga_pipelined":
        out["throughput"] = 1.0 / float(max(lats))
    return out


class TestVertexAgreement:
    """At every discrete design, assemble (at saturated logits), the
    reported design and the oracle's long-hand arithmetic give one latency
    and one resource."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(DEVICE_KINDS),
           n=st.integers(1, 4), m=st.integers(1, 4), q=st.integers(1, 3))
    def test_assemble_predict_and_oracle_agree(self, data, kind, n, m, q):
        draw = data.draw
        cm = random_cost_model(data, kind, n, m, q)
        space, device = cm.space, cm.device
        cm.perf_norm = draw(st.floats(1.0, 1e6))
        levels = space.quant.bit_widths
        ops = [draw(st.integers(0, m - 1)) for _ in range(n)]
        bits = [draw(st.sampled_from(levels))
                for _ in range(1 if device.shared_precision else n)]
        bits = bits * (n // len(bits))
        pfs = None
        if device.kind != "gpu_table":
            top = int(device.pf_max)
            per_op = [draw(st.integers(0, top)) for _ in range(m)]
            pfs = ([per_op[o] for o in ops] if kind == "fpga_recursive"
                   else [draw(st.integers(0, top)) for _ in range(n)])

        theta = Parameter(np.where(np.eye(m)[ops] > 0, 30.0, -30.0))
        sat = np.where(np.eye(len(levels))[[levels.index(b) for b in bits]] > 0,
                       30.0, -30.0)
        phi = Parameter(sat[0] if device.shared_precision
                        else np.repeat(sat[:, None], m, axis=1))
        layout = cm.layout_pfs(ops, pfs)
        out = cm.assemble(theta, phi, None if layout is None
                          else Parameter(layout), tau=1.0)
        want = predict_discrete(space, device, ops, bits, pfs)
        perf_o, res_o, _ = om.exact_vertex_costs(
            space, device, cm.hyper, cm.perf_norm, ops, bits, layout)

        def close(value):
            return pytest.approx(value, rel=1e-9, abs=1e-12)
        assert out.resource.item() == close(want["resource"])
        assert res_o == close(want["resource"])
        lats = [p * cm.perf_norm for p in out.block_perfs_norm]
        assert lats == close(want["block_latencies"])
        assert out.perf_loss.item() == close(perf_o)
        # the users of each shared IP agree on its factor: the scalar loop
        # gives the same bits
        assert want == reference_predict_discrete(space, device, ops, bits, pfs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5), m=st.integers(1, 3))
    def test_conflicting_shared_factors_name_the_block(self, data, n, m):
        draw = data.draw
        space = fpga_space(num_blocks=n, channel_plan=(8,) * n,
                           downsample_blocks=(), kernel_sizes=(1, 3, 5)[:m])
        device = DeviceModel.fpga_recursive(900)
        ops = [draw(st.integers(0, m - 1)) for _ in range(n)]
        pfs = [draw(st.integers(0, 9)) for _ in range(n)]
        # the last user of an op sets its factor; the first block that
        # disagrees with it is named
        last = {o: pf for o, pf in zip(ops, pfs)}
        bad = [i for i in range(n) if pfs[i] != last[ops[i]]]
        if not bad:
            assert predict_discrete(space, device, ops, [8] * n, pfs) == \
                reference_predict_discrete(space, device, ops, [8] * n, pfs)
            return
        with pytest.raises(CostError, match=f"^block {bad[0]}: parallel "
                                            f"factor {pfs[bad[0]]} "):
            predict_discrete(space, device, ops, [8] * n, pfs)
