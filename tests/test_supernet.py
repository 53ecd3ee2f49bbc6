import numpy as np
import pytest

from cosearch import tensorcore as tc
from cosearch.supernet import (QuantLevels, SearchSpace, SpaceError, Supernet,
                               fake_quantize)
from cosearch.tensorcore import Parameter, Tape, Tensor


def small_space(**kw):
    defaults = dict(num_blocks=2, kernel_sizes=(3, 5), expansion_ratios=(2,),
                    quant=QuantLevels((4, 8)), input_hw=(8, 8),
                    channel_plan=(8, 8), downsample_blocks=(2,),
                    stem_channels=8, num_classes=4)
    defaults.update(kw)
    return SearchSpace(**defaults)


def batch(space, n=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(n, space.input_channels, *space.input_hw))
    labels = rng.integers(0, space.num_classes, n)
    return images, labels


class TestSearchSpace:
    def test_default_shapes(self):
        space = SearchSpace()  # N=4, k {3,5} x ch {2,4}, Q=3
        net = Supernet(space)
        assert net.theta.values.shape == (4, 4)
        assert net.phi.values.shape == (4, 4, 3)

    def test_three_by_three_menu(self):
        space = SearchSpace(kernel_sizes=(3, 5, 7), expansion_ratios=(4, 5, 6),
                            channel_plan=(8, 16, 16, 32))
        assert space.num_ops == 9

    def test_menu_order_small_first(self):
        space = SearchSpace()
        assert space.op_menu == [(3, 2), (3, 4), (5, 2), (5, 4)]

    def test_degenerate_single_choice(self):
        space = small_space(kernel_sizes=(3,), quant=QuantLevels((8,)))
        net = Supernet(space)
        assert net.theta.values.shape == (2, 1)
        assert net.phi.values.shape == (2, 1, 1)

    def test_bad_plan_names_block(self):
        with pytest.raises(SpaceError, match="channel_plan"):
            SearchSpace(num_blocks=3, channel_plan=(8, 16))
        with pytest.raises(SpaceError, match="block 5"):
            SearchSpace(downsample_blocks=(5,))
        with pytest.raises(SpaceError, match="block"):
            SearchSpace(input_hw=(2, 2), downsample_blocks=(1, 2, 3),
                        num_blocks=3, channel_plan=(8, 8, 8))

    def test_quant_levels_validation(self):
        with pytest.raises(SpaceError):
            QuantLevels((8, 4))
        with pytest.raises(SpaceError):
            QuantLevels((1, 4))
        with pytest.raises(SpaceError):
            QuantLevels(())

    def test_geometry_walk(self):
        space = SearchSpace()
        spec = space.op_spec(1, 0)  # block 2 downsamples
        assert (spec.h_in, spec.h_out, spec.stride) == (16, 8, 2)
        assert spec.in_channels == 8 and spec.out_channels == 16


class TestFakeQuantize:
    def test_extremes_are_grid_points(self):
        w = Tensor([-1.0, 0.0, 1.0])
        out = fake_quantize(w, 8)
        assert out.values.tolist() == [-1.0, 0.0, 1.0]

    def test_two_bit_single_level(self):
        out = fake_quantize(Tensor([0.3]), 2)
        assert out.values.tolist() == [0.3]

    def test_straight_through_gradient(self):
        w = Parameter(np.linspace(-1, 1, 7))
        with Tape() as tape:
            loss = fake_quantize(w, 4).sum()
            tape.backward(loss)
        assert np.array_equal(w.grad, np.ones(7))

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            w = Tensor(rng.normal(size=9) * 10 ** rng.uniform(-4, 4))
            for q in (2, 3, 4, 8, 16, 32):
                once = fake_quantize(w, q)
                twice = fake_quantize(once, q)
                assert np.array_equal(once.values, twice.values)

    def test_all_zero_identity(self):
        w = Tensor(np.zeros(4))
        assert fake_quantize(w, 8) is w

    def test_min_bits(self):
        with pytest.raises(ValueError):
            fake_quantize(Tensor([1.0]), 1)

    def test_level_count(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=1000))
        out = fake_quantize(w, 3)
        # 2^(3-1)-1 = 3 magnitude levels plus sign and zero
        assert len(np.unique(out.values)) <= 7


class TestForwardTrain:
    def test_one_op_per_block(self):
        space = small_space()
        net = Supernet(space, seed=1)
        rng = np.random.default_rng(0)
        x, y = batch(space)
        steps = 6
        for _ in range(steps):
            net.forward_train(x, y, tau=1.0, rng=rng)
        assert net.exec_counts.sum() == steps * space.num_blocks
        assert net.quant_counts.sum() == steps * space.num_blocks

    def test_saturated_theta_always_picks_op(self):
        space = small_space()
        net = Supernet(space, seed=1)
        net.theta.assign(np.array([[-50.0, 50.0], [50.0, -50.0]]))
        rng = np.random.default_rng(0)
        x, y = batch(space)
        for _ in range(5):
            net.forward_train(x, y, tau=1.0, rng=rng)
        assert net.exec_counts[0, 1] == 5 and net.exec_counts[0, 0] == 0
        assert net.exec_counts[1, 0] == 5 and net.exec_counts[1, 1] == 0

    def test_gradients_reach_arch_params(self):
        space = small_space()
        net = Supernet(space, seed=1)
        rng = np.random.default_rng(0)
        x, y = batch(space)
        for p in net.arch_parameters():
            p.grad[...] = 0.0
        with Tape() as tape:
            loss = net.forward_train(x, y, tau=1.0, rng=rng)
            tape.backward(loss)
        assert np.any(net.theta.grad != 0)
        assert np.any(net.phi.grad != 0)

    def test_single_quant_path_zero_phi_grad(self):
        space = small_space(quant=QuantLevels((8,)))
        net = Supernet(space, seed=1)
        rng = np.random.default_rng(0)
        x, y = batch(space)
        for p in net.arch_parameters():
            p.grad[...] = 0.0
        with Tape() as tape:
            loss = net.forward_train(x, y, tau=1.0, rng=rng)
            tape.backward(loss)
        assert np.all(net.phi.grad == 0)

    def test_same_seed_same_loss(self):
        space = small_space()
        x, y = batch(space)
        def run():
            net = Supernet(space, seed=5)
            return net.forward_train(x, y, 1.0, np.random.default_rng(9)).item()
        assert run() == run()


class TestSharedPrecision:
    def test_one_bit_width_for_all_blocks(self):
        space = small_space()
        net = Supernet(space, seed=1, shared_precision=True)
        rng = np.random.default_rng(0)
        x, y = batch(space)
        for _ in range(8):
            net.forward_train(x, y, tau=1.0, rng=rng)
        per_step = net.quant_counts.sum(axis=1)  # (N, Q)
        # every step both blocks sampled the same bit-width index
        assert np.array_equal(per_step[0], per_step[1])

    def test_view_never_diverges(self):
        space = small_space()
        net = Supernet(space, seed=1, shared_precision=True)
        rng = np.random.default_rng(0)
        x, y = batch(space)
        for p in net.arch_parameters():
            p.grad[...] = 0.0
        with Tape() as tape:
            loss = net.forward_train(x, y, 1.0, rng)
            tape.backward(loss)
        # one Q-vector of logits, so no (block, op) copy can drift apart
        assert net.phi.values.shape == (len(space.quant),) == (2,)
        assert net.phi.grad.shape == (2,) and np.any(net.phi.grad != 0)
        assert net.arch_parameters() == [net.theta, net.phi]

    def test_shared_phi_gets_gradient_from_every_block(self, monkeypatch):
        # every block reads its bit-width scalar from the one shared sample,
        # and each of those reads passes a gradient back towards phi
        space = small_space(num_blocks=3, channel_plan=(8, 8, 8))
        net = Supernet(space, seed=1, shared_precision=True)
        x, y = batch(space)
        reads = []  # (input, input gradient) of every take node run backward
        record = Tape.record

        def spy(tape, out, inputs, grad_fn):
            def traced(g):
                grads = grad_fn(g)
                reads.append((inputs[0], grads[0]))
                return grads
            is_take = grad_fn.__qualname__.startswith("take.")
            record(tape, out, inputs, traced if is_take else grad_fn)
        monkeypatch.setattr(Tape, "record", spy)
        with Tape() as tape:
            tape.backward(net.forward_train(x, y, 1.0,
                                            np.random.default_rng(0)))
        # theta is read once per block too; the one other such input is
        # the shared bit-width sample
        shared = [g for inp, g in reads if inp is not net.theta
                  and sum(other is inp for other, _ in reads) == 3]
        assert len(shared) == 3
        assert all(np.any(g != 0) for g in shared)
        assert np.any(net.phi.grad != 0)


class TestForwardInfer:
    class _Design:
        def __init__(self, ops, bits):
            self.op_indices = ops
            self.bit_widths = bits

    def test_matches_saturated_train_path(self):
        space = small_space()
        net = Supernet(space, seed=2)
        net.theta.assign(np.array([[50.0, -50.0], [-50.0, 50.0]]))
        phi = net.phi
        sat = np.zeros_like(phi.values)
        sat[:, :, 0] = 50.0
        sat[:, :, 1] = -50.0
        phi.assign(sat)
        x, y = batch(space)
        train_loss = net.forward_train(x, y, 1.0, np.random.default_rng(0))
        infer_logits = net.forward_infer(self._Design([0, 1], [4, 4]), x)
        infer_loss = tc.softmax_cross_entropy(infer_logits, y)
        assert train_loss.item() == pytest.approx(infer_loss.item(), abs=1e-12)

    def test_design_decouples_from_logits(self):
        space = small_space()
        net = Supernet(space, seed=2)
        x, _ = batch(space)
        design = self._Design([1, 0], [8, 8])
        a = net.forward_infer(design, x).values
        net.theta.assign(np.random.default_rng(3).normal(size=(2, 2)))
        b = net.forward_infer(design, x).values
        assert np.array_equal(a, b)

    def test_out_of_range_design_rejected(self):
        space = small_space()
        net = Supernet(space, seed=2)
        x, _ = batch(space)
        with pytest.raises(SpaceError, match="block 1"):
            net.forward_infer(self._Design([0, 5], [4, 4]), x)
        with pytest.raises(SpaceError, match="bit_width"):
            net.forward_infer(self._Design([0, 1], [4, 7]), x)
        with pytest.raises(SpaceError, match="blocks"):
            net.forward_infer(self._Design([0], [4]), x)
