import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cosearch import tensorcore as tc
from cosearch.tensorcore import (NonFiniteError, Parameter, ShapeError, Tape,
                                 Tensor)

from reference_ops import (ReferenceTape, channel_affine, finite_diff_check,
                           gumbel_softmax, log, relu, stack, tanh)


def backward(loss_fn, params):
    for p in params:
        p.grad[...] = 0.0
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    return loss


class TestForwardValues:
    def test_matmul_hand_value(self):
        out = tc.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        assert out.values.tolist() == [[3], [7]]

    def test_relu(self):
        def unit(x):  # x * 1 + -0.0 is x, -0.0 included
            c = x.shape[0]
            return tc.affine_relu(Tensor(x), Tensor(np.ones(c)),
                                  Tensor(np.full(c, -0.0))).values

        assert unit(np.array([-1.0, 0, 2]).reshape(1, 1, 1, 3)).ravel(
        ).tolist() == [0, 0, 2]
        tiny = np.finfo(np.float64).smallest_subnormal
        base = np.array([[-0.0, 0.0, tiny, -tiny, 3 * tiny, -1.5, 2.5, -0.0],
                         [1e-310, -1e-310, 0.0, -0.0, 7.0, -7.0, tiny, 1.0]])
        for a in (base, base[:, ::3], base.T[::2]):
            a4 = a[None, None]
            got = unit(a4)
            want = np.where(a4 > 0, a4, 0.0)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_xent_uniform_logits(self):
        loss = tc.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_xent_rows_mean_is_the_mean_loss(self):
        rng = np.random.default_rng(0)
        logits, labels = Tensor(rng.normal(size=(7, 4))), rng.integers(0, 4, 7)
        rows = tc.cross_entropy_rows(logits, labels).values
        assert rows.shape == (7,)
        assert rows.mean() == tc.softmax_cross_entropy(logits, labels).item()

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match="matmul"):
            tc.matmul(Tensor([[1, 2]]), Tensor([[1, 2]]))

    def test_nonfinite_rejected_at_creation(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NonFiniteError, match="log"):
            log(Tensor([0.0]))


class TestBackward:
    def test_square_grad(self):
        x = Parameter(3.0)
        backward(lambda: x * x, [x])
        assert x.grad == pytest.approx(6.0)

    def test_tanh_sum_grad_at_zero(self):
        x = Parameter(np.zeros(5))
        backward(lambda: tanh(x).sum(), [x])
        assert np.allclose(x.grad, 1.0)

    def test_lse_symmetric_grad(self):
        x = Parameter([0.0, 0.0])
        backward(lambda: tc.log_sum_exp(x), [x])
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_reused_node_accumulates(self):
        x = Parameter(2.0)
        backward(lambda: x * x + x, [x])
        assert x.grad == pytest.approx(5.0)

    def test_shared_gradient_array_accumulates_per_parameter(self):
        # add hands one gradient array to both its inputs and
        # straight_through passes it on, so y and x first store the same
        # array; x then accumulates its second use into it
        x, y = Parameter([1.0, 2.0]), Parameter([3.0, 4.0])

        def loss():
            return ((x * Tensor([1.0, 3.0])).sum()
                    + ((tc.straight_through(x, [0.0, 0.0]) + y)
                       * Tensor([2.0, 5.0])).sum())
        backward(loss, [x, y])
        with Tape() as tape:
            tape.backward(loss())
        assert x.grad.tolist() == [6.0, 16.0]
        assert y.grad.tolist() == [4.0, 10.0]
        assert not np.shares_memory(x.grad, y.grad)

    def test_conv_input_gradient_only_through_1x1(self):
        x = Parameter(np.ones((2, 4, 4, 1)))
        w3 = Tensor(np.ones((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match="no input gradient through a 3x3"):
            tc.conv2d(x, w3)
        # a constant input through 3x3, and a grad-requiring one through 1x1
        assert tc.conv2d(Tensor(x.values), w3).shape == (3, 4, 4, 1)
        assert tc.conv2d(x, Tensor(np.ones((3, 2, 1, 1)))).shape == (3, 4, 4, 1)

    def test_non_scalar_loss_rejected(self):
        x = Parameter([1.0, 2.0])
        with Tape() as tape:
            y = x * x
            with pytest.raises(ShapeError, match="scalar"):
                tape.backward(y)


class TestLogSumExp:
    def test_two_zeros(self):
        assert tc.log_sum_exp(Tensor([0.0, 0.0])).item() == pytest.approx(math.log(2))

    def test_ten_zero(self):
        # independent check: direct evaluation 10 + log(1 + e^-10)
        want = 10 + math.log(1 + math.exp(-10))
        assert tc.log_sum_exp(Tensor([10.0, 0.0])).item() == pytest.approx(
            want, abs=1e-12)
        assert want == pytest.approx(10.0000454, abs=1e-7)

    def test_no_overflow(self):
        out = tc.log_sum_exp(Tensor([1000.0, 1000.0]))
        assert out.item() == pytest.approx(1000 + math.log(2), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            tc.log_sum_exp(Tensor(np.zeros(0)))

    def test_lanes_equal_rows_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rows = rng.normal(0, 10, (int(rng.integers(1, 6)),
                                      int(rng.integers(1, 12))))
            lanes = Parameter(rows)
            weights = rng.normal(size=len(rows))
            with Tape() as tape:
                out = tc.log_sum_exp(lanes)
                tape.backward((out * Tensor(weights)).sum())
            for row, w, value, grad in zip(rows, weights, out.values,
                                           lanes.grad):
                alone = Parameter(row)
                with Tape() as tape:
                    one = tc.log_sum_exp(alone)
                    tape.backward(one * Tensor(w))
                assert value == one.item()
                assert np.array_equal(grad, alone.grad)
        with pytest.raises(ShapeError):
            tc.log_sum_exp(Tensor(np.zeros((2, 2, 2))))

    def test_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(0, 10, rng.integers(1, 9))
            out = tc.log_sum_exp(Tensor(v)).item()
            assert v.max() <= out + 1e-12
            assert out <= v.max() + math.log(len(v)) + 1e-12


class TestProd:
    def test_gradient_at_exact_zero_is_product_of_the_others(self):
        # dyadic entries: every partial product is exact in any order
        values = np.array([[0.5, -1.25, 0.0, 3.0], [2.0, 0.0, 0.0, -0.75]])
        upstream = np.array([1.5, -2.0])
        x = Parameter(values)
        out = backward(lambda: (tc.prod(x, axis=1) * Tensor(upstream)).sum(),
                       [x])
        assert out.item() == 0.0
        want = [[upstream[r] * np.prod(np.delete(values[r], j))
                 for j in range(4)] for r in range(2)]
        assert np.array_equal(x.grad, want)
        assert x.grad[0, 2] == 1.5 * (0.5 * -1.25 * 3.0)
        assert not np.any(x.grad[1])  # two zeros: each sees the other

    def test_single_entry_axis(self):
        x = Parameter([[2.0, -3.0]])
        out = backward(lambda: (tc.prod(x, axis=0) * Tensor([1.0, 4.0])).sum(),
                       [x])
        assert out.item() == -10.0
        assert x.grad.tolist() == [[1.0, 4.0]]


class TestGumbelSoftmax:
    def test_uniform_when_noise_off(self):
        out = tc.gumbel_softmax_rows(Tensor(np.zeros((2, 4))), tau=1.0)
        assert np.allclose(out.values, 0.25)

    def test_hard_is_one_hot(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = Tensor(rng.normal(size=(3, 5)))
            out = tc.gumbel_hard_rows(logits, 0.7, rng.random((3, 5)))
            assert np.all(out.values.max(axis=1) == 1.0)
            assert np.all(np.count_nonzero(out.values, axis=1) == 1)

    def test_probability_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            logits = Tensor(rng.normal(0, 5, (2, 6)))
            out = tc.gumbel_softmax_rows(logits, float(rng.uniform(0.1, 5)),
                                         rng.random((2, 6)))
            assert np.all(out.values >= 0)
            assert np.all(np.abs(out.values.sum(axis=1) - 1.0) <= 1e-12)

    def test_selection_frequency_matches_gumbel_argmax(self):
        # closed form: P(pick 0) = e^10 / (e^10 + 1)
        rng = np.random.default_rng(123)
        n = 100_000
        logits = Tensor(np.tile([10.0, 0.0], (n, 1)))
        out = tc.gumbel_hard_rows(logits, 1.0, rng.random((n, 2)))
        want = math.exp(10) / (math.exp(10) + 1)
        assert np.mean(out.values[:, 0] == 1.0) == pytest.approx(want, abs=0.01)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="tau"):
            tc.gumbel_hard_rows(Tensor([0.0, 1.0]), 0.0, np.full(2, 0.5))

    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), noisy=st.booleans(),
           hard=st.booleans())
    def test_rows_equal_per_row_vector_calls(self, shape, seed, noisy, hard):
        # one draw of all uniforms equals one draw per row, in row order
        assume(noisy or not hard)
        values = np.random.default_rng(seed).normal(0, 3, shape)
        coeff = np.random.default_rng(seed + 1).normal(size=shape)
        tau = float(np.random.default_rng(seed + 2).uniform(0.1, 5.0))
        u = np.random.default_rng(seed).random(shape) if noisy else None
        logits = Parameter(values)
        with Tape() as tape:
            helper = tc.gumbel_hard_rows if hard else tc.gumbel_softmax_rows
            out = helper(logits, tau, u)
            tape.backward((out * Tensor(coeff)).sum())
        rng = np.random.default_rng(seed) if noisy else None
        for row in np.ndindex(*shape[:-1]):
            vec = Parameter(values[row])
            with Tape() as tape:
                got = gumbel_softmax(vec, tau, rng=rng, hard=hard)
                tape.backward((got * Tensor(coeff[row])).sum())
            assert np.array_equal(got.values, out.values[row])
            assert np.array_equal(vec.grad, logits.grad[row])

    def test_straight_through_gradient_flows(self):
        logits = Parameter([[0.3, -0.2, 0.9]])
        u = np.random.default_rng(3).random((1, 3))
        coeff = Tensor([[1.0, 2.0, 3.0]])
        backward(lambda: (tc.gumbel_hard_rows(logits, 1.0, u) * coeff).sum(),
                 [logits])
        assert np.any(logits.grad != 0)


class TestAffineRelu:
    """The fused node against the two nodes it replaced."""

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 5, 5, 3))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        # pre-activations at exactly +-0.0, and -0.0 inputs and gradients
        x[:, 0, 0, 0] = -beta / gamma
        x[0, ..., 1] = -0.0
        beta[1] = -0.0
        g = rng.normal(size=x.shape)
        g[:, 1, :, 2] = -0.0
        return x, gamma, beta, g

    @staticmethod
    def closure_grads(fn, frozen, x, gamma, beta, g):
        """Forward values and the input gradients the recorded closures
        return for the output gradient g, chained by hand."""
        args = [Tensor(v) if i in frozen else Parameter(v)
                for i, v in enumerate((x, gamma, beta))]
        with Tape() as tape:
            out = fn(*args)
            grads = (g,)
            for _, _, grad_fn in reversed(tape._entries):
                grads = grad_fn(grads[0])
        if len(frozen) == 3:
            assert len(tape) == 0
            grads = (None, None, None)
        return out.values, grads

    @pytest.mark.parametrize("frozen", [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    def test_bitwise_equal_to_reference(self, frozen):
        def reference(x, gamma, beta):
            return relu(channel_affine(x, gamma, beta))

        for seed in range(5):
            data = self.inputs(seed)
            want_out, want = self.closure_grads(reference, frozen, *data)
            got_out, got = self.closure_grads(tc.affine_relu, frozen, *data)
            for a, b in zip((got_out,) + got, (want_out,) + want):
                if b is None:
                    assert a is None
                    continue
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_negative_overflow_is_refused_before_the_clip(self):
        x = Tensor(np.full((2, 2, 2, 1), 1e308))
        with Tape(), pytest.raises(NonFiniteError, match="affine_relu"):
            tc.affine_relu(x, Parameter([-10.0, 1.0]), Parameter([0.0, 0.0]))

    def test_shape_error_names_the_op(self):
        with pytest.raises(ShapeError, match="affine_relu"):
            tc.affine_relu(Tensor(np.ones((2, 3, 3, 1))), Tensor(np.ones(3)),
                           Tensor(np.zeros(2)))


class TestFiniteDiff:
    def test_bilinear(self):
        x, y = Parameter(2.0), Parameter(3.0)
        err = finite_diff_check(lambda: x * y, [x, y], eps=1e-5)
        assert err < 1e-6

    def test_constant_loss(self):
        x = Parameter([1.0, 2.0])
        err = finite_diff_check(lambda: (x * Tensor([0.0, 0.0])).sum() + Tensor(5.0),
                                   [x])
        assert err == 0.0

    # primitive, input shapes, the input slots held constant
    CONSTANT_INPUT = {
        "conv_const_x": (tc.conv2d, ((3, 5, 5, 2), (4, 3, 3, 3)), (0,)),
        "conv1x1_const_x": (tc.conv2d, ((3, 5, 5, 2), (4, 3, 1, 1)), (0,)),
        "dwconv_const_w": (tc.depthwise_conv2d, ((3, 5, 5, 2), (3, 3, 3)),
                           (1,)),
        "affine_const_gb": (channel_affine, ((3, 4, 4, 2), (3,), (3,)),
                            (1, 2)),
        "mul_const_b": (tc.mul, ((2, 3), (2, 3)), (1,)),
        "sub_const_a": (tc.sub, ((2, 3), (2, 3)), (0,)),
        "sub_const_b": (tc.sub, ((2, 3), (3,)), (1,)),
        # a broadcast constant divisor, as a Gumbel sample's tau
        "div_const_b": (tc.div, ((2, 3), ()), (1,)),
        "div_const_a": (tc.div, ((2, 3), (2, 3)), (0,)),
    }

    PRIMITIVES = ["add", "sub", "mul", "div", "exp", "log", "tanh", "relu",
                  "pow2", "matmul", "conv", "dwconv", "affine", "affine_relu",
                  "gap",
                  "xent", "xent_rows", "softmax", "lse", "take", "stack",
                  "sum_axis", "prod"] \
        + list(CONSTANT_INPUT)

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_every_primitive_gradient(self, name):
        # 100 seeds per primitive, max relative error < 1e-4
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            worst = max(worst, self._check_one(name, rng))
        assert worst < 1e-4, f"{name}: {worst}"

    @pytest.mark.parametrize("name", list(CONSTANT_INPUT))
    def test_constant_input_gets_no_gradient(self, name):
        # the constant slot is None; the others match the all-variable
        # closure bitwise
        fn, shapes, constant = self.CONSTANT_INPUT[name]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            values = [rng.normal(size=shape) for shape in shapes]

            def closure_grads(held):
                with Tape() as tape:
                    out = fn(*[Tensor(v) if i in held else Parameter(v)
                               for i, v in enumerate(values)])
                (_, _, grad_fn), = tape._entries
                return grad_fn(np.random.default_rng(seed).normal(
                    size=out.values.shape))

            if name == "conv_const_x":
                # a k>1 conv refuses a grad-requiring input, so its closure
                # has nothing to compare against but its own rerun
                with pytest.raises(ShapeError, match="no input gradient"):
                    closure_grads(())
                full = closure_grads(constant)
            else:
                full = closure_grads(())
            kept = closure_grads(constant)
            for i, (g_kept, g_full) in enumerate(zip(kept, full)):
                if i in constant:
                    assert g_kept is None
                else:
                    assert np.array_equal(g_kept, g_full)

    @staticmethod
    def _check_one(name, rng):
        if name in TestFiniteDiff.CONSTANT_INPUT:
            fn, shapes, constant = TestFiniteDiff.CONSTANT_INPUT[name]
            inputs = [Tensor(rng.normal(size=shape)) if i in constant
                      else Parameter(rng.normal(size=shape))
                      for i, shape in enumerate(shapes)]
            m2 = Tensor(rng.normal(size=fn(*inputs).values.shape))
            return finite_diff_check(
                lambda: (fn(*inputs) * m2).sum(),
                [t for t in inputs if isinstance(t, Parameter)])
        a = Parameter(rng.normal(size=(2, 3)))
        b = Parameter(rng.normal(size=(2, 3)) + 3.0)  # positive-ish for log/div
        mix = Tensor(rng.normal(size=(2, 3)))
        if name == "add":
            return finite_diff_check(lambda: ((a + b) * mix).sum(), [a, b])
        if name == "sub":
            return finite_diff_check(lambda: ((a - b) * mix).sum(), [a, b])
        if name == "mul":
            return finite_diff_check(lambda: ((a * b) * mix).sum(), [a, b])
        if name == "div":
            return finite_diff_check(lambda: ((a / b) * mix).sum(), [a, b])
        if name == "exp":
            return finite_diff_check(lambda: (tc.exp(a) * mix).sum(), [a])
        if name == "log":
            return finite_diff_check(lambda: (log(b) * mix).sum(), [b])
        if name == "tanh":
            return finite_diff_check(lambda: (tanh(a) * mix).sum(), [a])
        if name == "sum_axis":
            x = Parameter(rng.normal(size=(2, 3, 4)))
            axis = int(rng.integers(-3, 3))
            m2 = Tensor(rng.normal(size=np.delete((2, 3, 4), axis)))
            return finite_diff_check(lambda: (x.sum(axis) * m2).sum(), [x])
        if name == "prod":
            x = Parameter(rng.normal(size=(2, 3, 4)))
            axis = int(rng.integers(-3, 3))
            m2 = Tensor(rng.normal(size=np.delete((2, 3, 4), axis)))
            return finite_diff_check(lambda: (tc.prod(x, axis) * m2).sum(),
                                        [x])
        if name == "relu":
            # keep values away from the kink
            shift = Tensor(np.where(np.abs(a.values) < 0.05, 0.2, 0.0))
            return finite_diff_check(
                lambda: (relu(a + shift) * mix).sum(), [a])
        if name == "pow2":
            return finite_diff_check(lambda: (tc.pow2(a) * mix).sum(), [a])
        if name == "matmul":
            w = Parameter(rng.normal(size=(3, 4)))
            m2 = Tensor(rng.normal(size=(2, 4)))
            return finite_diff_check(lambda: (tc.matmul(a, w) * m2).sum(), [a, w])
        if name == "conv":  # x and w gradients; x only through a 1x1 kernel
            x = Parameter(rng.normal(size=(3, 5, 5, 2)))
            w = Parameter(rng.normal(size=(4, 3, 1, 1)))
            m2 = Tensor(rng.normal(size=(4, 5, 5, 2)))
            return finite_diff_check(
                lambda: (tc.conv2d(x, w) * m2).sum(), [x, w])
        if name == "dwconv":
            x = Parameter(rng.normal(size=(3, 5, 5, 2)))
            w = Parameter(rng.normal(size=(3, 3, 3)))
            m2 = Tensor(rng.normal(size=(3, 5, 5, 2)))
            return finite_diff_check(
                lambda: (tc.depthwise_conv2d(x, w) * m2).sum(), [x, w])
        if name == "affine":
            x = Parameter(rng.normal(size=(3, 4, 4, 2)))
            g = Parameter(rng.normal(size=3))
            be = Parameter(rng.normal(size=3))
            m2 = Tensor(rng.normal(size=(3, 4, 4, 2)))
            return finite_diff_check(
                lambda: (channel_affine(x, g, be) * m2).sum(), [x, g, be])
        if name == "affine_relu":
            x = Parameter(rng.normal(size=(3, 4, 4, 2)))
            g = Parameter(rng.choice([-1, 1], 3) * rng.uniform(0.5, 1.5, 3))
            be = Parameter(rng.normal(size=3))
            # keep pre-activations away from the kink
            gam = g.values[:, None, None, None]
            pre = x.values * gam + be.values[:, None, None, None]
            shift = Tensor(np.where(np.abs(pre) < 0.05, 0.2 / gam, 0.0))
            m2 = Tensor(rng.normal(size=(3, 4, 4, 2)))
            return finite_diff_check(
                lambda: (tc.affine_relu(x + shift, g, be) * m2).sum(),
                [x, g, be])
        if name == "gap":
            x = Parameter(rng.normal(size=(3, 4, 4, 2)))
            m2 = Tensor(rng.normal(size=(2, 3)))
            return finite_diff_check(
                lambda: (tc.global_avg_pool(x) * m2).sum(), [x])
        if name == "xent":
            x = Parameter(rng.normal(size=(4, 3)))
            labels = rng.integers(0, 3, 4)
            return finite_diff_check(
                lambda: tc.softmax_cross_entropy(x, labels), [x])
        if name == "xent_rows":
            x = Parameter(rng.normal(size=(4, 3)))
            labels = rng.integers(0, 3, 4)
            m2 = Tensor(rng.normal(size=4))
            return finite_diff_check(
                lambda: (tc.cross_entropy_rows(x, labels) * m2).sum(), [x])
        if name == "softmax":
            v = Parameter(rng.normal(size=5))
            m2 = Tensor(rng.normal(size=5))
            return finite_diff_check(lambda: (tc.softmax(v) * m2).sum(), [v])
        if name == "lse":
            v = Parameter(rng.normal(size=5))
            return finite_diff_check(lambda: tc.log_sum_exp(v), [v])
        if name == "take":
            v = Parameter(rng.normal(size=(3, 4)))
            return finite_diff_check(lambda: (v[1] * Tensor([1., 2, 3, 4])).sum()
                                        + v[(0, 2)], [v])
        if name == "stack":
            v = Parameter(rng.normal(size=4))
            return finite_diff_check(
                lambda: tc.log_sum_exp(stack([v[0] * v[1], v[2], v[3] * v[0]])),
                [v])
        raise AssertionError(name)


def reference_depthwise(x, weight, stride, g):
    """The plain per-tap depthwise conv on (C, H, W, B): output, d/dx and
    d/dweight for the output gradient g, over the whole batch at once."""
    c, k, _ = weight.shape
    pad = k // 2
    _, h, w, _ = x.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros(g.shape)
    dxp = np.zeros_like(xp)
    dw = np.empty_like(weight)
    for di in range(k):
        for dj in range(k):
            win = (slice(None), slice(di, di + stride * ho, stride),
                   slice(dj, dj + stride * wo, stride))
            tap = weight[:, di, dj][:, None, None, None]
            out += tap * xp[win]
            # each channel's (ho, wo, B) product as one run
            dw[:, di, dj] = (xp[win] * g).reshape(c, -1).sum(axis=1)
            dxp[win] += tap * g
    return out, dxp[:, pad:pad + h, pad:pad + w], dw


def einsum_weight_gradient(x, k, stride, g):
    """d/dweight as depthwise_conv2d defines it: one einsum over the tap
    windows (built here with sliding_window_view) of the input,
    zero-padded to (C, H, W, max(B, 2)), against g padded the same way."""
    pad, b = k // 2, x.shape[3]
    sizes = ((0, 0), (pad, pad), (pad, pad), (0, max(b, 2) - b))
    xt, gt = np.pad(x, sizes), np.pad(g, sizes)
    win = np.lib.stride_tricks.sliding_window_view(xt, (k, k), axis=(1, 2))
    taps = win[:, ::stride, ::stride].transpose(0, 4, 5, 1, 2, 3)
    return np.einsum("cijhwb,chwb->cij", taps,
                     gt[:, pad:pad + g.shape[1], pad:pad + g.shape[2]])


@st.composite
def depthwise_cases(draw):
    # b = 1 is its own case: numpy's iterator drops a size-1 batch axis
    b, c = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    h, w = draw(st.integers(1, 18)), draw(st.integers(1, 18))
    k = draw(st.sampled_from((1, 3, 5, 7)))
    stride = draw(st.sampled_from((1, 2)))
    held = draw(st.sampled_from(((), (0,), (1,))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return (b, c, h, w, k, stride), held, rng


def assert_same_bits(got, want):
    # array_equal alone takes -0.0 for 0.0
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def depthwise_pass(x, weight, stride, g, held=()):
    """depthwise_conv2d's output and its two gradients for the output
    gradient g; None for the held (constant) inputs."""
    with Tape() as tape:
        out = tc.depthwise_conv2d(
            *[Tensor(v) if i in held else Parameter(v)
              for i, v in enumerate((x, weight))], stride=stride)
    (_, _, grad_fn), = tape._entries
    return (out.values, *grad_fn(g))


def depthwise_inputs(shape, rng):
    b, c, h, w, k, stride = shape
    x, weight = rng.normal(size=(c, h, w, b)), rng.normal(size=(c, k, k))
    x[rng.random(x.shape) < 0.1] = -0.0
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    return x, weight, rng.normal(size=(c, ho, wo, b))


def at_offset(shape, offset):
    """Empty float64 array whose data starts `offset` bytes past a 64-byte
    cache line."""
    n = math.prod(shape)
    raw = np.empty(n + 16)
    lo = (-raw.ctypes.data % 64 + offset) // 8
    return raw[lo:lo + n].reshape(shape)


class TestDepthwiseReference:
    def check(self, shape, held, rng):
        b, c, h, w, k, stride = shape
        x, weight, g = depthwise_inputs(shape, rng)
        pad = k // 2
        assert np.array_equal(tc._padded(x, pad, max(b, 2)), np.pad(
            x, ((0, 0), (pad, pad), (pad, pad), (0, max(b, 2) - b))))
        want = reference_depthwise(x, weight, stride, g)
        out, dx, dw = depthwise_pass(x, weight, stride, g, held)
        assert_same_bits(out, want[0])
        if 0 in held:
            assert dx is None
        else:
            assert_same_bits(dx, want[1])
        if 1 in held:
            assert dw is None
        else:
            # einsum's own order, not the per-tap pairwise sums: close to
            # them relative to the sum of the products' magnitudes
            assert_same_bits(dw, einsum_weight_gradient(x, k, stride, g))
            scale = einsum_weight_gradient(abs(x), k, stride, abs(g))
            assert np.all(abs(dw - want[2]) <= 1e-12 * scale)

    @settings(max_examples=300, deadline=None)
    @given(depthwise_cases())
    def test_bitwise_equal_to_per_tap_loop(self, case):
        self.check(*case)

    # runs of thousands of values and a lone channel
    @pytest.mark.parametrize("shape", [
        (32, 6, 12, 12, 3, 1),
        (32, 8, 16, 16, 5, 1),
        (32, 8, 16, 16, 5, 2),
        (24, 1, 16, 16, 3, 1),
        (9, 2, 18, 17, 7, 1),
        (1, 3, 16, 16, 5, 2),
    ])
    def test_bitwise_equal_at_large_windows(self, shape):
        self.check(shape, (), np.random.default_rng(sum(shape)))

    @pytest.mark.parametrize("shape", [
        (32, 8, 16, 16, 5, 1), (32, 8, 16, 16, 3, 2), (1, 4, 9, 9, 3, 1)])
    def test_same_bits_wherever_the_buffers_start(self, shape):
        """einsum's order follows the shapes alone: every result keeps its
        bits on a repeated call and with x, g and the kernel's own padded
        buffers 8..56 bytes past a cache line."""
        x, weight, g = depthwise_inputs(shape, np.random.default_rng(3))
        want = depthwise_pass(x, weight, shape[-1], g)
        assert_same_bits(depthwise_pass(x, weight, shape[-1], g)[2], want[2])

        def zeros_at(offset):
            def zeros(shape):
                a = at_offset(shape, offset)
                a.fill(0.0)
                return a
            return zeros

        for offset in range(8, 64, 8):
            xo, go = at_offset(x.shape, offset), at_offset(g.shape, offset)
            xo[...], go[...] = x, g
            with mock.patch.object(tc.np, "zeros", zeros_at(offset)):
                got = depthwise_pass(xo, weight, shape[-1], go)
            for a, b in zip(got, want):
                assert_same_bits(a, b)


def batch_primitive(name, c, rng):
    """(primitive of a (C, H, W, B) input x, whether x gets a gradient, the
    output's batch axis) for one (C, H, W, B) primitive, its other inputs
    drawn from rng."""
    if name in ("conv1x1", "stem3x3"):
        k = 1 if name == "conv1x1" else 3
        weight = Tensor(rng.normal(size=(int(rng.integers(1, 40)), c, k, k)))
        return (lambda x: tc.conv2d(x, weight)), k == 1, 3
    if name.startswith("depthwise"):
        k = int(rng.choice([1, 3, 5]))
        weight, stride = Tensor(rng.normal(size=(c, k, k))), int(name[-1])
        return (lambda x: tc.depthwise_conv2d(x, weight, stride)), True, 3
    if name == "affine_relu":
        gamma, beta = Tensor(rng.normal(size=c)), Tensor(rng.normal(size=c))
        return (lambda x: tc.affine_relu(x, gamma, beta)), True, 3
    assert name == "pool"
    return tc.global_avg_pool, True, 0


class TestSamplesDoNotMix:
    """Each (C, H, W, B) primitive gives every sample of a batch, forward
    and input gradient, the bits that sample alone gets.  `heldout` relies
    on it: its chunks must score as the whole set does."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["conv1x1", "stem3x3", "depthwise1",
                                 "depthwise2", "affine_relu", "pool"]),
           b=st.integers(2, 12), c=st.integers(1, 24), h=st.integers(1, 12),
           w=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    def test_each_sample_as_if_alone(self, name, b, c, h, w, seed):
        rng = np.random.default_rng(seed)
        fn, needs_grad, axis = batch_primitive(name, c, rng)
        x = rng.normal(size=(c, h, w, b))
        x[rng.random(x.shape) < 0.1] = -0.0
        g = rng.normal(size=fn(Tensor(x)).values.shape)

        def run(xs, gs):
            """Output and input gradient (None if x gets none)."""
            with Tape() as tape:
                out = fn(Parameter(xs) if needs_grad else Tensor(xs))
            if not needs_grad:
                return out.values, None
            (_, _, grad_fn), = tape._entries
            return out.values, grad_fn(gs)[0]

        out, dx = run(x, g)
        for i in range(b):
            alone = run(np.ascontiguousarray(x[..., i:i + 1]),
                        np.take(g, [i], axis))
            assert_same_bits(alone[0], np.take(out, [i], axis))
            if needs_grad:
                assert_same_bits(alone[1], dx[..., i:i + 1])


# Ops of the random graphs below: each maps two (2, 3) tensors to one.
GRAPH_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "square": lambda a, b: a * a,
    "div": lambda a, b: a / tc.pow2(b),
    "relu": lambda a, b: relu(a),
    "softmax": lambda a, b: tc.softmax(a),
    "row": lambda a, b: a[1] + b,
    "colsum": lambda a, b: a.sum(axis=0) * b,
    "prod": lambda a, b: tc.prod(a, 0) - b,
    "matmul": lambda a, b: tc.matmul(a, Tensor(np.eye(3))) * b,
}


@st.composite
def small_graphs(draw):
    """Parameters, constants, a random program of GRAPH_OPS over them, and
    the parameters a tape freezes."""
    n_params = draw(st.integers(1, 3))
    program = draw(st.lists(st.tuples(st.sampled_from(sorted(GRAPH_OPS)),
                                      st.integers(0, 20), st.integers(0, 20)),
                            min_size=1, max_size=10))
    frozen = draw(st.sets(st.integers(0, n_params - 1), max_size=1))
    return n_params, program, frozen, draw(st.integers(0, 2 ** 16))


class TestTape:
    def test_activation_no_gradient_reads_is_freed(self):
        rng = np.random.default_rng(0)
        x = Parameter(rng.normal(size=(3, 4, 4, 2)))
        gamma, beta = Parameter(np.ones(3)), Parameter(rng.normal(size=3))
        with Tape(frozen=[gamma]) as tape:
            h = x * Tensor(2.0)  # mul keeps the constant, not x
            freed = weakref.ref(h.values)
            out = tc.affine_relu(h, gamma, beta)  # gamma frozen: h unread
            del h
            assert freed() is None
            freed = weakref.ref(out.values)
            loss = out.sum()  # a mask is kept, not the output
            del out
            assert freed() is None
            tape.backward(loss)
        assert np.array_equal(x.grad, 2.0 * (2.0 * x.values
                                             + beta.values[:, None, None, None]
                                             > 0))

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_gradients_bitwise_equal_the_reference_tape(self, graph):
        n_params, program, frozen, seed = graph

        def grads(tape_cls):
            rng = np.random.default_rng(seed)
            params = [Parameter(rng.normal(size=(2, 3)))
                      for _ in range(n_params)]
            pool = params + [Tensor(rng.normal(size=(2, 3)))]
            weights = rng.normal(size=(len(program) + len(pool), 2, 3))
            with tape_cls(frozen=[params[i] for i in frozen]) as tape:
                for op, i, j in program:
                    pool.append(GRAPH_OPS[op](pool[i % len(pool)],
                                              pool[j % len(pool)]))
                loss = Tensor(0.0)
                for t, wt in zip(pool, weights):
                    loss = loss + (t * Tensor(wt)).sum()
                tape.backward(loss)
            return [p.grad.tobytes() for p in params]

        try:
            want = grads(ReferenceTape)
        except NonFiniteError:
            assume(False)
        assert grads(Tape) == want


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run():
            rng = np.random.default_rng(42)
            p = Parameter(np.linspace(-1, 1, 6))
            out = []
            for _ in range(20):
                p.grad[...] = 0.0
                with Tape() as tape:
                    gs = tc.gumbel_hard_rows(p, 0.9, rng.random(6))
                    loss = (gs * Tensor([1., 2, 3, 4, 5, 6])).sum() + (p * p).sum()
                    tape.backward(loss)
                p.assign(p.values - 0.05 * p.grad)
                out.append(loss.item())
            return out
        a, b = run(), run()
        assert a == b  # bit-identical


class TestParameterStorage:
    def test_parameter_copies_its_input(self):
        start = np.zeros((2, 2))
        p = Parameter(start)
        p.assign(np.ones((2, 2)))
        assert np.array_equal(start, np.zeros((2, 2)))

    def test_assign_writes_in_place(self):
        p = Parameter(np.zeros(3))
        view = p.values
        p.assign([1.0, 2.0, 3.0])
        assert p.values is view and view.tolist() == [1.0, 2.0, 3.0]

    def test_flat_buffer_views(self):
        a, b = Parameter(np.arange(6.0).reshape(2, 3)), Parameter(7.0)
        a.grad[...] = 1.0
        flat = tc.FlatParameters([a, b])
        assert flat.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert flat.grad.tolist() == [1.0] * 6 + [0.0]
        assert a.values.shape == (2, 3) and b.values.shape == ()
        b.assign(8.0)
        flat.values[0] = -1.0
        assert flat.values[-1] == 8.0 and a.values[0, 0] == -1.0
        with pytest.raises(tc.TensorError):
            tc.FlatParameters([b])


class TestStraightThrough:
    def test_forward_replaced_grad_identity(self):
        x = Parameter([1.0, 2.0, 3.0])
        out = tc.straight_through(x, [10.0, 20.0, 30.0])
        assert out.values.tolist() == [10.0, 20.0, 30.0]
        backward(lambda: (tc.straight_through(x, [10., 20., 30.])
                          * Tensor([1., 2, 3])).sum(), [x])
        assert x.grad.tolist() == [1.0, 2.0, 3.0]
