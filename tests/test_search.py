import copy
import dataclasses
import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosearch import data as datamod
from cosearch import search
from cosearch import tensorcore as tc
from cosearch.costmodel import (CostHyperparams, CostModel, DeviceModel,
                                GpuLatencyTable, op_work, phi_cal, psi,
                                reference_gpu_table)
from cosearch.search import (DerivedDesign, InfeasibleError, SearchAbort,
                             SearchConfig, SearchError, bilevel_step,
                             config_hash, derive_architecture, initialize,
                             predict_discrete, retune_parallel_factors,
                             run_search)
from cosearch.supernet import QuantLevels, SearchSpace, SpaceError, Supernet
from cosearch.tensorcore import NonFiniteError, Parameter, Tape, Tensor

from reference_ops import ReferenceTape, stack


def small_space(**kw):
    defaults = dict(num_blocks=2, kernel_sizes=(3, 5), expansion_ratios=(2,),
                    quant=QuantLevels((4, 8)), input_hw=(8, 8),
                    channel_plan=(8, 8), downsample_blocks=(2,),
                    stem_channels=8, num_classes=4)
    defaults.update(kw)
    return SearchSpace(**defaults)


def small_data(**kw):
    defaults = dict(samples_per_class=24, height=8, width=8, seed=3)
    defaults.update(kw)
    return datamod.DatasetSpec(**defaults)


def small_config(**kw):
    defaults = dict(space=small_space(), device=DeviceModel.fpga_recursive(64.0),
                    data=small_data(), epochs=3, steps_per_epoch=3,
                    batch_size=8, seed=1)
    defaults.update(kw)
    return SearchConfig(**defaults)


class TestInitialization:
    def test_recursive_pf0(self):
        space = SearchSpace(kernel_sizes=(3, 5, 7), expansion_ratios=(4, 5, 6),
                            channel_plan=(8, 16, 16, 32))
        pf0 = CostModel(space, DeviceModel.fpga_recursive(900)).initial_pf()
        assert pf0.shape == (9,)
        assert pf0[0] == pytest.approx(math.log2(100), abs=1e-12)
        assert pf0[0] == pytest.approx(6.644, abs=5e-4)

    def test_pipelined_pf0(self):
        space = SearchSpace(
            num_blocks=20, kernel_sizes=(3, 5, 7), expansion_ratios=(4, 5, 6),
            channel_plan=(8,) * 20, downsample_blocks=())
        pf0 = CostModel(space, DeviceModel.fpga_pipelined(900)).initial_pf()
        assert pf0.shape == (20, 9)
        assert pf0[0, 0] == pytest.approx(math.log2(5), abs=1e-12)

    def test_gpu_allocates_no_pf(self):
        space = small_space(quant=QuantLevels((8, 16)))
        device = DeviceModel.gpu(reference_gpu_table(space))
        assert CostModel(space, device).initial_pf() is None

    def test_infeasible_bound_rejected(self):
        space = small_space()  # M=2
        with pytest.raises(InfeasibleError):
            CostModel(space, DeviceModel.fpga_recursive(2.0)).initial_pf()
        with pytest.raises(InfeasibleError):
            CostModel(space, DeviceModel.fpga_pipelined(4.0)).initial_pf()

    def test_zero_init_uniform_weights(self):
        state = initialize(small_config())
        assert np.all(state.supernet.theta.values == 0)
        out = state.costmodel.assemble(state.supernet.theta, state.supernet.phi,
                                       state.pf, tau=1.0)
        # uniform 1/M, 1/Q at start: normalized perf sums to ~1 in sum mode
        assert out.perf_loss.item() == pytest.approx(1.0, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(SearchError):
            small_config(epochs=0)
        with pytest.raises(SearchError):
            small_config(lr_arch=0.0)
        with pytest.raises(SearchError):
            small_config(tau_start=0.1, tau_end=0.5)

    @pytest.mark.parametrize("field, value", [
        ("steps_per_epoch", 0), ("batch_size", 0), ("batch_size", -8),
        ("retrain_epochs", 0), ("retune_steps", -1), ("retune_lr", 0.0),
        ("retune_lr", -0.03), ("retune_lr", math.nan), ("momentum", 1.0),
        ("momentum", 1.5), ("momentum", -2.0), ("momentum", math.nan),
    ])
    def test_run_counts_validated(self, field, value):
        with pytest.raises(SearchError, match=field):
            small_config(**{field: value})

    def test_zero_retune_steps_allowed(self):
        assert small_config(retune_steps=0).retune_steps == 0

    def test_retrain_needs_an_epoch(self):
        design = DerivedDesign("fpga_recursive", [0, 0], [4, 4], [3, 3], False)
        with pytest.raises(SearchError, match="retrain epochs"):
            search.retrain_design(design, small_config(), epochs=0)


def reference_sgd_step(params, vels, lr, momentum, clip_norm):
    """SGD.step one parameter at a time: the clip norm from one dot over
    all gradients laid end to end, then one update per parameter."""
    scale = 1.0
    if clip_norm is not None:
        flat = np.concatenate([p.grad.ravel() for p in params])
        total = math.sqrt(float(np.dot(flat, flat)))
        if total > clip_norm:
            scale = clip_norm / total
    for p, v in zip(params, vels):
        v *= momentum
        v += scale * p.grad
        p.assign(p.values - lr * v)


# gradient norm / clip_norm: well below, a hair either side, on it, far above
NORM_RATIOS = (0.1, 1 - 1e-12, 1.0, 1 + 1e-12, 100.0)


class TestFlatSGD:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           shapes=st.lists(st.lists(st.integers(1, 4), max_size=3),
                           min_size=1, max_size=8),
           momentum=st.sampled_from((0.0, 0.9)),
           clip_norm=st.sampled_from((None, 5.0)),
           lr=st.sampled_from((0.05, 1.0)))
    def test_bitwise_equal_to_per_parameter_step(self, data, shapes, momentum,
                                                 clip_norm, lr):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        start = [rng.normal(size=s) for s in shapes]
        params = [Parameter(v) for v in start]
        ref = [Parameter(v) for v in start]
        ref_vels = [np.zeros(s) for s in shapes]
        opt = search.SGD(params, lr=lr, momentum=momentum, clip_norm=clip_norm)
        for _ in range(data.draw(st.integers(1, 4))):
            grads = [rng.normal(size=s) for s in shapes]
            if data.draw(st.booleans(), label="norm exactly on the clip"):
                for g in grads:
                    g[...] = 0.0
                grads[data.draw(st.integers(0, len(grads) - 1))].flat[0] = 5.0
            else:
                norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads))
                ratio = data.draw(st.sampled_from(NORM_RATIOS))
                grads = [g * (5.0 * ratio / norm) for g in grads]
            opt.zero_grad()
            for p, r, g in zip(params, ref, grads):
                p.grad += g
                r.grad[...] = g
            opt.step()
            reference_sgd_step(ref, ref_vels, lr, momentum, clip_norm)
            for p, r in zip(params, ref):
                assert np.array_equal(p.values, r.values)
            assert np.array_equal(
                opt._vel, np.concatenate([v.ravel() for v in ref_vels]))

    def test_non_finite_update_writes_nothing(self):
        params = [Parameter(np.ones((2, 3))), Parameter(np.arange(4.0)),
                  Parameter(2.0)]
        opt = search.SGD(params, lr=0.1, momentum=0.9)
        before = [p.values.copy() for p in params]
        params[0].grad[...] = 1.0
        params[1].grad[2] = np.nan
        with pytest.raises(NonFiniteError, match="'SGD.step'"):
            opt.step()
        for b, p in zip(before, params):
            assert np.array_equal(b, p.values)

    @pytest.mark.parametrize("clip_norm", [5.0, None])
    def test_inf_gradient_raises_before_arithmetic(self, clip_norm):
        # with the clip, scale 5/inf = 0 times inf would warn first
        params = [Parameter(np.ones(3)), Parameter(np.zeros(2))]
        opt = search.SGD(params, lr=0.1, momentum=0.9, clip_norm=clip_norm)
        before = [p.values.copy() for p in params] + [opt._vel.copy()]
        params[1].grad[0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="'SGD.step'"):
                opt.step()
        after = [p.values for p in params] + [opt._vel]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))

    def test_step_updates_what_assign_wrote(self):
        params = [Parameter(np.zeros((2, 2))), Parameter(np.zeros(3))]
        opt = search.SGD(params, lr=0.5, clip_norm=None)
        params[1].assign([1.0, 2.0, 3.0])
        params[1].grad[...] = 2.0
        opt.step()
        assert params[1].values.tolist() == [0.0, 1.0, 2.0]
        assert params[0].values.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_weights_join_one_optimizer(self):
        net = initialize(small_config()).supernet  # its SGD packed the weights
        with pytest.raises(tc.TensorError, match="already in a flat buffer"):
            search.SGD(net.weight_parameters(), lr=0.1)
        p = Parameter(np.zeros(2))
        with pytest.raises(tc.TensorError):
            search.SGD([p, p], lr=0.1)

    def test_no_parameters(self):
        opt = search.SGD([], lr=0.1, momentum=0.9)
        opt.zero_grad()
        opt.step()


def reference_adam_step(params, ms, vs, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam.step as it ran before the flat buffer: one update per
    parameter, each with its own moment arrays; `t` is the new step count."""
    for p, m, v in zip(params, ms, vs):
        m *= b1
        m += (1 - b1) * p.grad
        v *= b2
        v += (1 - b2) * p.grad ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.assign(p.values - lr * m_hat / (np.sqrt(v_hat) + eps))


class TestFlatAdam:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           shapes=st.lists(st.lists(st.integers(1, 4), max_size=3),
                           min_size=1, max_size=8),
           lr=st.sampled_from((0.03, 0.05, 1.0)),
           scale=st.sampled_from((1e-12, 1.0, 1e6)))
    def test_bitwise_equal_to_per_parameter_step(self, data, shapes, lr, scale):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        start = [rng.normal(size=s) for s in shapes]
        params = [Parameter(v) for v in start]
        ref = [Parameter(v) for v in start]
        ms, vs = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        opt = search.Adam(params, lr=lr)
        steps = data.draw(st.integers(1, 5))
        for t in range(1, steps + 1):
            grads = [np.asarray(rng.normal(size=s) * scale) for s in shapes]
            if data.draw(st.booleans(), label="a zero gradient"):
                grads[data.draw(st.integers(0, len(grads) - 1))][...] = 0.0
            opt.zero_grad()
            for p, r, g in zip(params, ref, grads):
                p.grad += g
                r.grad[...] = g
            opt.step()
            reference_adam_step(ref, ms, vs, t, lr)
            for p, r in zip(params, ref):
                assert np.array_equal(p.values, r.values)
            assert np.array_equal(opt._m, np.concatenate([m.ravel() for m in ms]))
            assert np.array_equal(opt._v, np.concatenate([v.ravel() for v in vs]))

    def test_non_finite_update_writes_nothing(self):
        params = [Parameter(np.ones((2, 3))), Parameter(np.arange(4.0))]
        opt = search.Adam(params, lr=0.1)
        before = [p.values.copy() for p in params]
        params[0].grad[...] = 1.0
        params[1].grad[2] = np.nan
        with pytest.raises(NonFiniteError, match="'Adam.step'"):
            opt.step()
        for b, p in zip(before, params):
            assert np.array_equal(b, p.values)


    def test_inf_gradient_raises_before_arithmetic(self):
        # inf / (sqrt(inf) + eps) would warn first
        params = [Parameter(np.ones(3)), Parameter(np.zeros(2))]
        opt = search.Adam(params, lr=0.1)
        params[0].grad[...] = 1.0
        opt.step()
        before = [p.values.copy() for p in params] + [opt._m.copy(),
                                                     opt._v.copy()]
        params[1].grad[1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="'Adam.step'"):
                opt.step()
        after = [p.values for p in params] + [opt._m, opt._v]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        assert opt._t == 1


class TestBilevelStep:
    def _batches(self, config):
        ds = datamod.generate_dataset(config.data)
        train, val, _ = datamod.split(ds, config.fractions, config.data.seed)
        return ((train.images[:8], train.labels[:8]),
                (val.images[:8], val.labels[:8]))

    def test_phase_separation_bitwise(self):
        config = small_config()
        state = initialize(config)
        tb, vb = self._batches(config)
        arch_before = [p.values.copy()
                       for p in state.supernet.arch_parameters() + [state.pf]]
        w_sample = state.supernet.stem_w.values.copy()

        # phase 1 only: weights move, arch unchanged
        from cosearch.tensorcore import Tape
        state.weight_opt.zero_grad()
        with Tape() as tape:
            loss = state.supernet.forward_train(tb[0], tb[1], 1.0, state.rng)
            tape.backward(loss)
        state.weight_opt.step()
        for before, p in zip(arch_before,
                             state.supernet.arch_parameters() + [state.pf]):
            assert np.array_equal(before, p.values)
        assert not np.array_equal(w_sample, state.supernet.stem_w.values)

        # phase 2 only: arch moves, weights unchanged
        w_after_p1 = [p.values.copy() for p in state.supernet.weight_parameters()]
        state.arch_opt.zero_grad()
        state.pf_opt.zero_grad()
        with Tape() as tape:
            val_acc = state.supernet.forward_train(vb[0], vb[1], 1.0, state.rng)
            out = state.costmodel.assemble(state.supernet.theta,
                                           state.supernet.phi, state.pf, 1.0,
                                           rng=state.rng)
            total = state.costmodel.total_loss(val_acc, out.perf_loss,
                                               out.resource)
            tape.backward(total)
        state.arch_opt.step()
        state.pf_opt.step()
        for before, p in zip(w_after_p1, state.supernet.weight_parameters()):
            assert np.array_equal(before, p.values)
        assert not np.array_equal(arch_before[0], state.supernet.theta.values)

    @pytest.mark.parametrize("phase", [1, 2])
    def test_abort_in_phase_leaves_nothing_frozen(self, phase):
        config = small_config()
        state = initialize(config)
        net = state.supernet
        tb, vb = self._batches(config)
        updated = {1: net.weight_parameters(),
                   2: net.arch_parameters() + [state.pf]}[phase]
        frozen = {1: net.arch_parameters(), 2: net.weight_parameters()}[phase]
        real_forward = net.forward_train
        calls = []

        def failing_forward(*args):
            loss = real_forward(*args)
            calls.append([p.requires_grad for p in frozen + updated])
            if len(calls) == phase:
                raise NonFiniteError("non-finite values produced by 'injected'")
            return loss

        net.forward_train = failing_forward
        with pytest.raises(SearchAbort, match="injected"):
            bilevel_step(state, tb, vb, tau=1.0)
        # frozen inside the failing phase, thawed after it
        assert calls[-1] == [False] * len(frozen) + [True] * len(updated)
        assert all(p.requires_grad for p in frozen + updated)
        assert tc.active_tape() is None

    def test_step_metrics_finite(self):
        config = small_config()
        state = initialize(config)
        tb, vb = self._batches(config)
        m = bilevel_step(state, tb, vb, tau=1.0)
        for v in (m.train_acc_loss, m.val_acc_loss, m.perf_loss, m.resource,
                  m.total_loss):
            assert math.isfinite(v)

    def test_penalty_pressure_decreases_pf(self):
        # contrived: every op wildly violates the bound -> 50 strict decreases
        device = DeviceModel(kind="fpga_recursive", res_ub=16.0, pf_max=12.0)
        config = small_config(device=device, lr_pf=0.01)
        state = initialize(config)
        state.pf.assign(np.array([8.0, 8.0]))  # resource far above 16
        tb, vb = self._batches(config)
        out = state.costmodel.assemble(state.supernet.theta, state.supernet.phi,
                                       state.pf, tau=1.0)
        assert out.resource.item() > 16.0
        prev = state.pf.values.copy()
        for _ in range(50):
            bilevel_step(state, tb, vb, tau=1.0)
            now = state.pf.values
            assert np.all(now < prev)
            prev = now.copy()

    def test_preference_for_cheaper_op(self):
        # identical ops, one made 3x slower via the measured table: theta must
        # learn to rank the cheap one above in >= 9/10 seeds
        space = SearchSpace(num_blocks=1, kernel_sizes=(3, 3),
                            expansion_ratios=(2,), quant=QuantLevels((8, 16)),
                            input_hw=(8, 8), channel_plan=(8,),
                            downsample_blocks=(), num_classes=4)
        mapping = {0: {8: 1.0, 16: 2.0}, 1: {8: 3.0, 16: 6.0}}
        from cosearch.costmodel import GpuLatencyTable
        device = DeviceModel.gpu(GpuLatencyTable.from_mapping(mapping))
        wins = 0
        for seed in range(10):
            config = SearchConfig(space=space, device=device, data=small_data(),
                                  epochs=4, steps_per_epoch=4, batch_size=8,
                                  seed=seed, lr_weights=1e-9)
            state = initialize(config)
            ds = datamod.generate_dataset(config.data)
            train, val, _ = datamod.split(ds, config.fractions, config.data.seed)
            for _ in range(16):
                bilevel_step(state, (train.images[:8], train.labels[:8]),
                             (val.images[:8], val.labels[:8]), tau=1.0)
            theta = state.supernet.theta.values[0]
            wins += int(theta[0] > theta[1])
        assert wins >= 9


class TestSpaceErrorGeometry:
    def test_duplicate_kernel_menu_allowed(self):
        space = SearchSpace(num_blocks=1, kernel_sizes=(3, 3),
                            expansion_ratios=(2,), channel_plan=(8,),
                            downsample_blocks=(), num_classes=4)
        assert space.num_ops == 2


class TestDerive:
    def test_saturated_logits_round_trip(self):
        config = small_config()
        state = initialize(config)
        state.supernet.theta.assign(np.array([[5.0, -5.0], [-5.0, 5.0]]))
        phi = state.supernet.phi
        sat = np.zeros_like(phi.values)
        sat[:, :, 1] = 4.0
        phi.assign(sat)
        design = derive_architecture(state)
        assert design.op_indices == [0, 1]
        assert design.bit_widths == [8, 8]

    def test_tie_breaks_to_lower_index(self):
        config = small_config()
        state = initialize(config)  # all logits zero: full tie
        design = derive_architecture(state)
        assert design.op_indices == [0, 0]
        assert design.bit_widths == [4, 4]

    def test_pure_function_of_state(self):
        config = small_config()
        state = initialize(config)
        a = derive_architecture(state)
        b = derive_architecture(state)
        assert a == b

    def test_predicted_resource_counts_shared_ip_once(self):
        config = small_config()
        state = initialize(config)
        state.supernet.theta.assign(np.array([[5.0, -5.0], [5.0, -5.0]]))
        phi = state.supernet.phi
        sat = np.zeros_like(phi.values)
        sat[:, :, 1] = 4.0  # 8-bit everywhere
        phi.assign(sat)
        state.pf.assign(np.array([3.0, 3.0]))
        design = derive_architecture(state)
        predicted = predict_discrete(config.space, config.device,
                                     design.op_indices, design.bit_widths,
                                     design.parallel_factors)
        # one shared IP at 8-bit: psi=0.5, 2^3 = 8 -> 4 DSPs, counted once
        assert predicted["resource"] == 4.0


def priced(space, device, design, pfs):
    """The exact metrics of `design` at retuned parallel factors `pfs`."""
    return predict_discrete(space, device, design.op_indices,
                            design.bit_widths, pfs)


class TestRetune:
    def test_invert_resource_formula(self):
        # single op, budget exactly psi(16) * 2^5: continuous descent + repair
        # must land on pf = 5
        space = SearchSpace(num_blocks=1, kernel_sizes=(3,),
                            expansion_ratios=(2,), quant=QuantLevels((16,)),
                            input_hw=(8, 8), channel_plan=(8,),
                            downsample_blocks=(), num_classes=4)
        device = DeviceModel.fpga_recursive(32.0)
        hyper = CostHyperparams(res_norm=32.0)
        cm = CostModel(space, device, hyper)
        pf0 = cm.initial_pf()
        cm.initial_perf_norm()
        design = DerivedDesign("fpga_recursive", [0], [16],
                               [int(round(pf0[0]))], False)
        (pfs,) = retune_parallel_factors([design], cm)
        assert pfs == [5]
        assert priced(space, device, design, pfs)["resource"] == 32.0

    def test_doubling_budget_never_hurts(self):
        space = small_space(quant=QuantLevels((4, 8, 16)))
        design = DerivedDesign("fpga_recursive", [0, 1], [8, 16], [3, 3], False)
        lat = {}
        for bound in (32.0, 64.0):
            device = DeviceModel.fpga_recursive(bound)
            cm = CostModel(space, device, CostHyperparams(res_norm=bound))
            cm.initial_perf_norm()
            (pfs,) = retune_parallel_factors([design], cm)
            lat[bound] = priced(space, device, design, pfs)["latency_total"]
        assert lat[64.0] <= lat[32.0]

    def test_resource_free_bits_cap_at_pf_max(self):
        space = small_space(quant=QuantLevels((4,)))
        device = DeviceModel(kind="fpga_recursive", res_ub=64.0, pf_max=5.0)
        hyper = CostHyperparams(res_norm=64.0)
        cm = CostModel(space, device, hyper)
        cm.initial_perf_norm()
        design = DerivedDesign("fpga_recursive", [0, 0], [4, 4], [3, 3], False)
        (pfs,) = retune_parallel_factors([design], cm)
        assert pfs == [5, 5]
        assert priced(space, device, design, pfs)["resource"] == 0.0

    def test_infeasible_budget_reported(self):
        space = small_space(quant=QuantLevels((4, 8, 16)))
        device = DeviceModel.fpga_pipelined(0.6)  # < sum of psi at 8-bit
        cm = CostModel(space, device, CostHyperparams(res_norm=1.0))
        design = DerivedDesign("fpga_pipelined", [0, 0], [16, 16], [0, 0], False)
        with pytest.raises(InfeasibleError):
            retune_parallel_factors([design], cm)

    def test_gpu_mode_rejected(self):
        space = small_space(quant=QuantLevels((8, 16)))
        device = DeviceModel.gpu(reference_gpu_table(space))
        design = DerivedDesign("gpu_table", [0, 0], [8, 8], None, True)
        with pytest.raises(SearchError):
            retune_parallel_factors([design], CostModel(space, device))

    def test_repair_enforces_budget(self):
        space = small_space(quant=QuantLevels((4, 8, 16)))
        device = DeviceModel.fpga_pipelined(12.0)
        cm = CostModel(space, device, CostHyperparams(res_norm=12.0))
        cm.initial_perf_norm()
        design = DerivedDesign("fpga_pipelined", [0, 1], [16, 16], [5, 5], False)
        (pfs,) = retune_parallel_factors([design], cm)
        assert priced(space, device, design, pfs)["resource"] <= 12.0

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined"])
    def test_leaves_the_callers_model_unchanged(self, kind):
        space = small_space(quant=QuantLevels((4, 8, 16)))
        cm = CostModel(space, DeviceModel(kind=kind, res_ub=12.0),
                       CostHyperparams(res_norm=12.0))
        cm.initial_perf_norm()
        consts = ("_lat", "_psi", "_psi_steps", "_at_least")
        before = ({c: getattr(cm, c).values.copy() for c in consts},
                  cm.perf_norm, dataclasses.replace(cm.hyper))
        design = DerivedDesign(kind, [0, 1], [8, 16], [5, 5], False)
        retune_parallel_factors([design], cm, steps=50)
        assert cm.perf_norm == before[1] and cm.hyper == before[2]
        for c in consts:
            assert np.array_equal(getattr(cm, c).values, before[0][c])
            assert not getattr(cm, c).requires_grad

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined"])
    def test_bit_width_off_the_menu_names_the_block(self, kind):
        space = small_space()  # bit widths (4, 8)
        device = DeviceModel(kind=kind, res_ub=64.0)
        design = DerivedDesign(kind, [0, 1], [8, 16], [3, 3], False)
        with pytest.raises(SpaceError, match=r"^block 1: bit_width 16 "):
            predict_discrete(space, device, design.op_indices,
                             design.bit_widths, design.parallel_factors)
        with pytest.raises(SpaceError, match=r"^block 1: bit_width 16 "):
            retune_parallel_factors([design], CostModel(space, device))


def reference_retune(design, space, device, hyper, perf_norm, steps, lr):
    """retune_parallel_factors with its objective built one scalar per block
    and per IP; returns the tuned integer parallel factors per block."""
    n = space.num_blocks
    ops, bits = design.op_indices, design.bit_widths
    if device.kind == "fpga_recursive":
        var_ops = sorted(set(ops))
        var_of_block = [var_ops.index(m) for m in ops]
        var_psi = [max(psi(bits[i]) for i in range(n) if ops[i] == m)
                   for m in var_ops]
        start = [float(design.parallel_factors[ops.index(m)]) for m in var_ops]
    else:
        var_of_block = list(range(n))
        var_psi = [psi(bits[i]) for i in range(n)]
        start = [float(p) for p in design.parallel_factors]
    lat_consts = [phi_cal(bits[i]) * op_work(space, i, ops[i]) / perf_norm
                  for i in range(n)]
    cm = CostModel(space, device, hyper)
    pf = Parameter(np.asarray(start))
    opt = search.Adam([pf], lr=lr)
    for _ in range(steps):
        opt.zero_grad()
        with Tape() as tape:
            vec = stack([Tensor(lat_consts[i]) * tc.pow2(-pf[var_of_block[i]])
                            for i in range(n)])
            agg = (tc.log_sum_exp(vec) if device.perf_aggregation == "lse"
                   else vec.sum())
            res = None
            for v, p_v in enumerate(var_psi):
                term = Tensor(p_v) * tc.pow2(pf[v])
                res = term if res is None else res + term
            tape.backward(agg * Tensor(hyper.alpha) + cm.penalty(res))
        opt.step()
        pf.assign(np.clip(pf.values, 0.0, device.pf_max))

    ints = np.clip(np.round(pf.values).astype(int), 0,
                   int(math.floor(device.pf_max)))

    def resource_of(vals):
        return sum(var_psi[v] * 2.0 ** vals[v] for v in range(len(vals)))

    def aggregate(vals):
        lats = [lat_consts[i] * perf_norm * 2.0 ** -vals[var_of_block[i]]
                for i in range(n)]
        return max(lats) if device.perf_aggregation == "lse" else sum(lats)

    if sum(var_psi) > device.res_ub:
        raise InfeasibleError("no feasible parallel factors")
    while resource_of(ints) > device.res_ub:
        best = None
        for v in range(len(ints)):
            if ints[v] <= 0 or var_psi[v] == 0.0:
                continue
            trial = ints.copy()
            trial[v] -= 1
            regret = aggregate(trial) - aggregate(ints)
            if best is None or regret < best[0] - 1e-15:
                best = (regret, v)
        if best is None:
            raise InfeasibleError("cannot repair parallel factors")
        ints[best[1]] -= 1
    return [int(ints[var_of_block[i]]) for i in range(n)]


class TestRetuneMatchesScalarObjective:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("fpga_recursive",
                                                 "fpga_pipelined")),
           n=st.integers(1, 9), m=st.integers(1, 6))
    def test_same_integer_parallel_factors(self, data, kind, n, m):
        draw = data.draw
        bits = sorted(draw(st.sets(st.integers(2, 16), min_size=1, max_size=4)))
        space = small_space(num_blocks=n, kernel_sizes=tuple(range(1, 2 * m, 2)),
                            quant=QuantLevels(tuple(bits)),
                            channel_plan=(8,) * n, downsample_blocks=())
        res_ub = draw(st.floats(1.0, 4096.0))
        device = DeviceModel(kind=kind, res_ub=res_ub)
        hyper = CostHyperparams(res_norm=res_ub)
        ops = [draw(st.integers(0, m - 1)) for _ in range(n)]
        design = DerivedDesign(
            kind, ops, [draw(st.sampled_from(bits)) for _ in range(n)],
            [draw(st.integers(0, int(device.pf_max))) for _ in range(n)], False)
        if kind == "fpga_recursive":  # one pf per shared IP
            design.parallel_factors = [design.parallel_factors[ops.index(o)]
                                       for o in ops]
        perf_norm = draw(st.floats(1.0, 1e6))
        steps, lr = draw(st.integers(1, 150)), draw(st.floats(0.005, 0.2))
        cm = CostModel(space, device, hyper)
        cm.perf_norm = perf_norm
        try:
            want = reference_retune(design, space, device, hyper, perf_norm,
                                    steps, lr)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                retune_parallel_factors([design], cm, steps=steps, lr=lr)
            return
        (pfs,) = retune_parallel_factors([design], cm, steps=steps, lr=lr)
        assert pfs == want


class TestRetuneLanes:
    """A batched retune descends every design in a lane of its own: each
    lane gives the bits that retuning its design alone gives."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("fpga_recursive",
                                                 "fpga_pipelined")),
           n=st.integers(1, 5), m=st.integers(1, 4), lanes=st.integers(2, 6))
    def test_lanes_equal_one_design_retunes(self, data, kind, n, m, lanes):
        draw = data.draw
        bits = sorted(draw(st.sets(st.integers(2, 16), min_size=1, max_size=3)))
        space = small_space(num_blocks=n, kernel_sizes=tuple(range(1, 2 * m, 2)),
                            quant=QuantLevels(tuple(bits)),
                            channel_plan=(8,) * n, downsample_blocks=())
        res_ub = draw(st.floats(4.0, 4096.0))
        device = DeviceModel(kind=kind, res_ub=res_ub)
        cm = CostModel(space, device, CostHyperparams(res_norm=res_ub))
        cm.perf_norm = draw(st.floats(1.0, 1e6))
        top = int(device.pf_max)
        designs = []
        for _ in range(lanes):
            ops = [draw(st.integers(0, m - 1)) for _ in range(n)]
            per_op = [draw(st.integers(0, top)) for _ in range(m)]
            # high starts and few steps leave lanes over budget to repair
            designs.append(DerivedDesign(
                kind, ops, [draw(st.sampled_from(bits)) for _ in range(n)],
                [per_op[o] if kind == "fpga_recursive"
                 else draw(st.integers(0, top)) for o in ops], False))
        steps, lr = draw(st.integers(0, 30)), draw(st.floats(0.005, 0.2))
        alone = []
        for design in designs:
            try:
                alone.append(retune_parallel_factors([design], cm, steps=steps,
                                                     lr=lr)[0])
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    retune_parallel_factors(designs, cm, steps=steps, lr=lr)
                return
        together = retune_parallel_factors(designs, cm, steps=steps, lr=lr)
        assert together == alone

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined"])
    def test_repaired_lanes_equal_one_design_retunes(self, kind):
        space = small_space(quant=QuantLevels((4, 8, 16)))
        device = DeviceModel(kind=kind, res_ub=20.0)
        cm = CostModel(space, device, CostHyperparams(res_norm=20.0))
        cm.initial_perf_norm()
        top = int(device.pf_max)
        designs = [DerivedDesign(kind, [0, 1], [16, 8], [top, top], False),
                   DerivedDesign(kind, [1, 1], [16, 16], [top, top], False),
                   DerivedDesign(kind, [0, 0], [4, 4], [0, 0], False)]
        together = retune_parallel_factors(designs, cm, steps=0)
        for design, pfs in zip(designs, together):
            assert [pfs] == retune_parallel_factors([design], cm, steps=0)
            assert priced(space, device, design, pfs)["resource"] <= 20.0
        # lane 0 rounds to 24 DSPs at its start: the repair lowered it
        assert together[0] != [top, top]

    def test_infeasible_lane_named(self):
        space = small_space(quant=QuantLevels((4, 8, 16)))
        cm = CostModel(space, DeviceModel.fpga_pipelined(1.2),
                       CostHyperparams(res_norm=1.2))
        designs = [DerivedDesign("fpga_pipelined", [0, 1], [4, 8], [0, 0], False),
                   DerivedDesign("fpga_pipelined", [1, 0], [16, 8], [0, 0],
                                 False)]
        with pytest.raises(InfeasibleError,
                           match=r"^ops \[1, 0\] bits \[16, 8\]: no feasible"):
            retune_parallel_factors(designs, cm)

    def test_no_designs(self):
        cm = CostModel(small_space(), DeviceModel.fpga_recursive(64.0))
        assert retune_parallel_factors([], cm) == []


@st.composite
def phase_cases(draw):
    """A random small space, a device of each kind, and fixed batches."""
    def subset(values):
        return tuple(sorted(draw(st.lists(st.sampled_from(values), min_size=1,
                                          max_size=2, unique=True))))

    n = draw(st.integers(1, 3))
    hw = draw(st.sampled_from((6, 8)))
    space = SearchSpace(
        num_blocks=n, kernel_sizes=subset((1, 3, 5)),
        expansion_ratios=subset((1, 2, 3)),
        quant=QuantLevels(subset((4, 8, 16))), input_hw=(hw, hw),
        stem_channels=4,
        channel_plan=tuple(draw(st.sampled_from((4, 8))) for _ in range(n)),
        downsample_blocks=tuple(i for i in range(1, n + 1)
                                if draw(st.booleans())),
        num_classes=3)
    kind = draw(st.sampled_from(("fpga_recursive", "fpga_pipelined",
                                 "gpu_table")))
    device = (DeviceModel.gpu(reference_gpu_table(space))
              if kind == "gpu_table" else DeviceModel(kind=kind, res_ub=900.0))
    config = SearchConfig(space=space, device=device, seed=draw(
        st.integers(0, 2 ** 16)))
    rng = np.random.default_rng(7)
    batches = [(rng.normal(size=(4, 3, hw, hw)), rng.integers(0, 3, 4))
               for _ in range(2)]
    return config, batches


class _FullTape(tc.Tape):
    """A tape that differentiates everything, frozen or not."""

    def __init__(self, frozen=()):
        super().__init__()


class TestPhaseFreezing:
    """Each bilevel phase differentiates only the variables it updates."""

    @staticmethod
    def _step(config, batches):
        """One bilevel_step.  Returns, per phase, every parameter's gradient
        at the optimizer step (all zeroed at the phase start) and the tape
        nodes that the stem and block 0's op recorded."""
        state = initialize(config)
        net = state.supernet
        params = net.weight_parameters() + net.arch_parameters()
        if state.pf is not None:
            params.append(state.pf)
        grads, early_nodes, phase = {}, {}, []

        def hook(opt, name):
            real_step = opt.step

            def zero_grad():
                phase.append(name)
                early_nodes[name] = 0
                for p in params:
                    p.grad[...] = 0.0

            def step():
                grads[name] = [p.grad.copy() for p in params]
                real_step()
            opt.zero_grad, opt.step = zero_grad, step

        def count_early(fn, is_early):
            def run(*args):
                tape = tc.active_tape()
                before = len(tape)
                out = fn(*args)
                if is_early(args):
                    early_nodes[phase[-1]] += len(tape) - before
                return out
            return run

        hook(state.weight_opt, "weight")
        hook(state.arch_opt, "arch")
        net._stem = count_early(net._stem, lambda args: True)
        net._run_op = count_early(net._run_op, lambda args: args[1] == 0)
        bilevel_step(state, *batches, tau=1.0)
        assert all(p.requires_grad for p in params)
        n_weights = len(net.weight_parameters())
        updated = {"weight": range(n_weights),
                   "arch": range(n_weights, len(params))}
        return grads, early_nodes, updated

    @settings(max_examples=25, deadline=None)
    @given(phase_cases())
    def test_phases_keep_full_tape_gradients(self, case):
        config, batches = case
        with mock.patch.object(search, "Tape", _FullTape):
            full, full_early, _ = self._step(config, batches)
        kept, kept_early, updated = self._step(config, batches)
        for name, mine in updated.items():
            for i, (g_kept, g_full) in enumerate(zip(kept[name], full[name])):
                if i in mine:
                    assert np.array_equal(g_kept, g_full)
                else:
                    assert not np.any(g_kept)
        assert kept_early == {"weight": full_early["weight"], "arch": 0}
        assert full_early["arch"] > 0

    @settings(max_examples=10, deadline=None)
    @given(phase_cases())
    def test_step_bitwise_equals_the_reference_tape(self, case):
        config, batches = case

        def step():
            state = initialize(config)
            bilevel_step(state, *batches, tau=1.0)
            net = state.supernet
            params = net.weight_parameters() + net.arch_parameters()
            if state.pf is not None:
                params.append(state.pf)
            return [p.values.tobytes() for p in params]

        with mock.patch.object(search, "Tape", ReferenceTape):
            want = step()
        assert step() == want


HELDOUT_DESIGN = DerivedDesign("fpga_recursive", [1, 0], [4, 8], None, False)


class TestHeldout:
    @pytest.mark.parametrize("b", [1, 2, 24, 32])
    def test_bitwise_the_whole_set_in_one_forward(self, b):
        # at 6x6 most conv GEMMs end in a ragged block of columns
        for hw in (8, 6):
            net = Supernet(small_space(input_hw=(hw, hw)), seed=5)
            data = datamod.generate_dataset(  # 96 rows
                small_data(height=hw, width=hw))
            for n in sorted({1, 2, b - 1, b, b + 1, 2 * b + 1} - {0}):
                images, labels = data.images[:n], data.labels[:n]
                acc, loss = search.heldout(net, HELDOUT_DESIGN,
                                           datamod.Dataset(images, labels), b)
                whole = net.infer_loss(HELDOUT_DESIGN, images, labels).item()
                assert loss.hex() == whole.hex(), (hw, n, b)
                logits = net.forward_infer(HELDOUT_DESIGN, images).values
                assert acc == (np.argmax(logits, axis=1) == labels).sum() / n


def traced_bytes(fn):
    """(fn(), memory held when it returns, peak while it ran), in bytes
    above what was allocated before, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - base, peak - base


class TestMemoryGuard:
    def test_heldout_peaks_at_one_batch(self):
        net = Supernet(small_space(), seed=5)
        data = datamod.generate_dataset(small_data(samples_per_class=40))
        b = len(data) // 10
        one = datamod.Dataset(data.images[:b], data.labels[:b])
        _, _, one_peak = traced_bytes(
            lambda: search.heldout(net, HELDOUT_DESIGN, one, b))
        _, _, ten_peak = traced_bytes(
            lambda: search.heldout(net, HELDOUT_DESIGN, data, b))
        assert ten_peak <= 2 * one_peak

    def test_arch_phase_tape_holds_half_the_weight_phase(self):
        # no downsampling, so most activations are past block 0, where the
        # architecture phase records too
        space = small_space(num_blocks=3, channel_plan=(8, 8, 8),
                            downsample_blocks=())
        net = Supernet(space, seed=1)
        data = datamod.generate_dataset(small_data())
        images, labels = data.images[:16], data.labels[:16]

        def tape_bytes(frozen):
            with Tape(frozen=frozen) as tape:
                loss, held, _ = traced_bytes(lambda: net.forward_train(
                    images, labels, 1.0, np.random.default_rng(0)))
                tape.backward(loss)
            return held

        weight_phase = tape_bytes(net.arch_parameters())
        arch_phase = tape_bytes(net.weight_parameters())
        assert arch_phase <= weight_phase / 2


def leaf_paths(obj, prefix=()):
    """Field paths of a config tree down to its non-dataclass values."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_paths(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def with_leaf(obj, path, value):
    """Copy of a config tree with one leaf replaced, validation skipped."""
    if not path:
        return value
    clone = copy.copy(obj)
    object.__setattr__(clone, path[0],
                       with_leaf(getattr(obj, path[0]), path[1:], value))
    return clone


def changed(value):
    if isinstance(value, GpuLatencyTable):
        key = min(value.entries)
        return GpuLatencyTable({**value.entries, key: value.entries[key] + 1})
    if isinstance(value, tuple):
        return value + value[-1:]
    if isinstance(value, str):
        return value + "x"
    return 1.0 if value is None else value + 1


class TestRunSearch:
    def test_loss_decreases_and_design_feasible(self):
        config = small_config(epochs=6, steps_per_epoch=5)
        report = run_search(config)
        assert report.epochs[-1]["total_loss"] < report.epochs[0]["total_loss"]
        assert report.design.predicted["resource"] <= 64.0
        assert report.aborted is None

    def test_determinism_same_seed(self):
        config = small_config()
        a = run_search(config)
        b = run_search(config)
        assert a.epochs == b.epochs
        assert a.design == b.design
        assert a.config_hash == b.config_hash

    @pytest.mark.parametrize("kind", ["fpga_recursive", "fpga_pipelined",
                                      "gpu_table"])
    def test_design_priced_once(self, kind):
        space = small_space(quant=QuantLevels((8, 16)))
        device = (DeviceModel.gpu(reference_gpu_table(space))
                  if kind == "gpu_table" else DeviceModel(kind=kind, res_ub=64.0))
        config = small_config(space=space, device=device, epochs=1,
                              retune_steps=5)
        with mock.patch.object(search, "predict_discrete",
                               wraps=search.predict_discrete) as priced:
            report = run_search(config)
        assert priced.call_count == 1
        assert report.design.predicted == predict_discrete(
            space, device, report.design.op_indices, report.design.bit_widths,
            report.design.parallel_factors)

    def test_gpu_run_shares_bit_width(self):
        space = small_space(quant=QuantLevels((8, 16)))
        device = DeviceModel.gpu(reference_gpu_table(space))
        config = small_config(space=space, device=device)
        report = run_search(config)
        d = report.design
        assert d.parallel_factors is None
        assert len(set(d.bit_widths)) == 1
        assert d.global_bit_width == d.bit_widths[0]

    def test_on_epoch_lse_bounds(self):
        config = small_config(device=DeviceModel.fpga_pipelined(64.0))
        seen = []

        def check(state, train_batch, val_batch, tau):
            metrics = real_step(state, train_batch, val_batch, tau)
            quiet = state.costmodel.assemble(state.supernet.theta,
                                             state.supernet.phi, state.pf, tau)
            perfs = quiet.block_perfs_norm
            lse = quiet.perf_loss.item()
            assert max(perfs) <= lse <= max(perfs) + math.log(len(perfs)) + 1e-9
            seen.append(tau)
            return metrics

        real_step = search.bilevel_step
        with mock.patch.object(search, "bilevel_step", check):
            report = run_search(config)
        # after every step, so at the end of every epoch
        assert seen == [row["tau"] for row in report.epochs for _ in range(3)]

    def test_hash_excludes_seed(self):
        a = config_hash(small_config(seed=1))
        b = config_hash(small_config(seed=2))
        c = config_hash(small_config(seed=1, epochs=9))
        assert a == b
        assert a != c

    def test_every_leaf_field_changes_hash(self):
        space = small_space(quant=QuantLevels((8, 16)))
        gpu = small_config(space=space,
                           device=DeviceModel.gpu(reference_gpu_table(space)))
        for config in (small_config(), gpu):
            base = config_hash(config)
            paths = list(leaf_paths(config))
            assert ("space", "quant", "bit_widths") in paths
            for path in paths:
                value = functools.reduce(getattr, path, config)
                other = config_hash(with_leaf(config, path, changed(value)))
                if path == ("seed",):
                    assert other == base
                else:
                    assert other != base, path

    def test_degenerate_gpu_space_has_no_free_choice(self):
        # M=1, Q=1 on the gpu model: phase 2 cannot move the argmax
        space = SearchSpace(num_blocks=2, kernel_sizes=(3,),
                            expansion_ratios=(2,), quant=QuantLevels((8,)),
                            input_hw=(8, 8), channel_plan=(8, 8),
                            downsample_blocks=(2,), num_classes=4)
        device = DeviceModel.gpu(reference_gpu_table(space))
        config = small_config(space=space, device=device, epochs=2,
                              steps_per_epoch=2)
        report = run_search(config)
        assert report.design.op_indices == [0, 0]
        assert report.design.bit_widths == [8, 8]

    def test_numerical_abort_warns_nothing_and_names_op(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_search(small_config(lr_weights=1e80, epochs=4))
        assert "non-finite values produced by '" in report.aborted["reason"]

    def test_numerical_abort_preserves_partial_trajectory(self):
        config = small_config(lr_weights=1e80, epochs=4)
        report = run_search(config)
        assert report.aborted is not None
        assert report.design is None
        assert "snapshot" in report.aborted
