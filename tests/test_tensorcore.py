import math

import numpy as np
import pytest

from cosearch import tensorcore as tc
from cosearch.tensorcore import (NonFiniteError, Parameter, ShapeError, Tape,
                                 Tensor)


def backward(loss_fn, params):
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    return loss


class TestForwardValues:
    def test_matmul_hand_value(self):
        out = tc.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        assert out.values.tolist() == [[3], [7]]

    def test_relu(self):
        assert tc.relu(Tensor([-1, 0, 2])).values.tolist() == [0, 0, 2]

    def test_xent_uniform_logits(self):
        loss = tc.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match="matmul"):
            tc.matmul(Tensor([[1, 2]]), Tensor([[1, 2]]))

    def test_nonfinite_rejected_at_creation(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NonFiniteError, match="log"):
            tc.log(Tensor([0.0]))


class TestBackward:
    def test_square_grad(self):
        x = Parameter(3.0)
        backward(lambda: x * x, [x])
        assert x.grad == pytest.approx(6.0)

    def test_tanh_sum_grad_at_zero(self):
        x = Parameter(np.zeros(5))
        backward(lambda: tc.tanh(x).sum(), [x])
        assert np.allclose(x.grad, 1.0)

    def test_lse_symmetric_grad(self):
        x = Parameter([0.0, 0.0])
        backward(lambda: tc.log_sum_exp(x), [x])
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_reused_node_accumulates(self):
        x = Parameter(2.0)
        backward(lambda: x * x + x, [x])
        assert x.grad == pytest.approx(5.0)

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

    def test_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(0, 10, rng.integers(1, 9))
            out = tc.log_sum_exp(Tensor(v)).item()
            assert v.max() <= out + 1e-12
            assert out <= v.max() + math.log(len(v)) + 1e-12


class TestGumbelSoftmax:
    def test_uniform_when_noise_off(self):
        out = tc.gumbel_softmax(Tensor(np.zeros(4)), tau=1.0)
        assert np.allclose(out.values, 0.25)

    def test_hard_is_one_hot(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = Tensor(rng.normal(size=5))
            out = tc.gumbel_softmax(logits, tau=0.7, rng=rng, hard=True)
            assert sorted(out.values.tolist())[-1] == 1.0
            assert np.count_nonzero(out.values) == 1

    def test_probability_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            logits = Tensor(rng.normal(0, 5, 6))
            out = tc.gumbel_softmax(logits, tau=float(rng.uniform(0.1, 5)), rng=rng)
            assert np.all(out.values >= 0)
            assert abs(out.values.sum() - 1.0) <= 1e-12

    def test_selection_frequency_matches_gumbel_argmax(self):
        # closed form: P(pick 0) = e^10 / (e^10 + 1)
        rng = np.random.default_rng(123)
        logits = Tensor([10.0, 0.0])
        n = 100_000
        picks = 0
        for _ in range(n):
            out = tc.gumbel_softmax(logits, tau=1.0, rng=rng, hard=True)
            picks += int(out.values[0] == 1.0)
        want = math.exp(10) / (math.exp(10) + 1)
        assert picks / n == pytest.approx(want, abs=0.01)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="tau"):
            tc.gumbel_softmax(Tensor([0.0, 1.0]), tau=0.0)

    def test_straight_through_gradient_flows(self):
        logits = Parameter([0.3, -0.2, 0.9])
        rng = np.random.default_rng(3)
        coeff = Tensor([1.0, 2.0, 3.0])
        backward(lambda: (tc.gumbel_softmax(logits, 1.0, rng=np.random.default_rng(3),
                                            hard=True) * coeff).sum(), [logits])
        assert np.any(logits.grad != 0)


class TestFiniteDiff:
    def test_bilinear(self):
        x, y = Parameter(2.0), Parameter(3.0)
        err = tc.finite_diff_check(lambda: x * y, [x, y], eps=1e-5)
        assert err < 1e-6

    def test_constant_loss(self):
        x = Parameter([1.0, 2.0])
        err = tc.finite_diff_check(lambda: (x * Tensor([0.0, 0.0])).sum() + Tensor(5.0),
                                   [x])
        assert err == 0.0

    # primitive, input shapes, the input slots held constant
    CONSTANT_INPUT = {
        "conv_const_x": (lambda x, w: tc.conv2d(x, w, stride=2),
                         ((2, 3, 5, 5), (4, 3, 3, 3)), (0,)),
        "dwconv_const_w": (tc.depthwise_conv2d, ((2, 3, 5, 5), (3, 3, 3)),
                           (1,)),
        "affine_const_gb": (tc.channel_affine, ((2, 3, 4, 4), (3,), (3,)),
                            (1, 2)),
        "mul_const_b": (tc.mul, ((2, 3), (2, 3)), (1,)),
    }

    PRIMITIVES = ["add", "sub", "mul", "div", "exp", "log", "tanh", "relu",
                  "pow2", "matmul", "conv", "dwconv", "affine", "gap",
                  "xent", "softmax", "lse", "take", "stack"] \
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

            full, kept = closure_grads(()), closure_grads(constant)
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
            return tc.finite_diff_check(
                lambda: (fn(*inputs) * m2).sum(),
                [t for t in inputs if isinstance(t, Parameter)])
        a = Parameter(rng.normal(size=(2, 3)))
        b = Parameter(rng.normal(size=(2, 3)) + 3.0)  # positive-ish for log/div
        mix = Tensor(rng.normal(size=(2, 3)))
        if name == "add":
            return tc.finite_diff_check(lambda: ((a + b) * mix).sum(), [a, b])
        if name == "sub":
            return tc.finite_diff_check(lambda: ((a - b) * mix).sum(), [a, b])
        if name == "mul":
            return tc.finite_diff_check(lambda: ((a * b) * mix).sum(), [a, b])
        if name == "div":
            return tc.finite_diff_check(lambda: ((a / b) * mix).sum(), [a, b])
        if name == "exp":
            return tc.finite_diff_check(lambda: (tc.exp(a) * mix).sum(), [a])
        if name == "log":
            return tc.finite_diff_check(lambda: (tc.log(b) * mix).sum(), [b])
        if name == "tanh":
            return tc.finite_diff_check(lambda: (tc.tanh(a) * mix).sum(), [a])
        if name == "relu":
            # keep values away from the kink
            shift = Tensor(np.where(np.abs(a.values) < 0.05, 0.2, 0.0))
            return tc.finite_diff_check(
                lambda: (tc.relu(a + shift) * mix).sum(), [a])
        if name == "pow2":
            return tc.finite_diff_check(lambda: (tc.pow2(a) * mix).sum(), [a])
        if name == "matmul":
            w = Parameter(rng.normal(size=(3, 4)))
            m2 = Tensor(rng.normal(size=(2, 4)))
            return tc.finite_diff_check(lambda: (tc.matmul(a, w) * m2).sum(), [a, w])
        if name == "conv":
            x = Parameter(rng.normal(size=(2, 3, 5, 5)))
            w = Parameter(rng.normal(size=(4, 3, 3, 3)))
            m2 = Tensor(rng.normal(size=(2, 4, 3, 3)))
            return tc.finite_diff_check(
                lambda: (tc.conv2d(x, w, stride=2) * m2).sum(), [x, w])
        if name == "dwconv":
            x = Parameter(rng.normal(size=(2, 3, 5, 5)))
            w = Parameter(rng.normal(size=(3, 3, 3)))
            m2 = Tensor(rng.normal(size=(2, 3, 5, 5)))
            return tc.finite_diff_check(
                lambda: (tc.depthwise_conv2d(x, w) * m2).sum(), [x, w])
        if name == "affine":
            x = Parameter(rng.normal(size=(2, 3, 4, 4)))
            g = Parameter(rng.normal(size=3))
            be = Parameter(rng.normal(size=3))
            m2 = Tensor(rng.normal(size=(2, 3, 4, 4)))
            return tc.finite_diff_check(
                lambda: (tc.channel_affine(x, g, be) * m2).sum(), [x, g, be])
        if name == "gap":
            x = Parameter(rng.normal(size=(2, 3, 4, 4)))
            m2 = Tensor(rng.normal(size=(2, 3)))
            return tc.finite_diff_check(
                lambda: (tc.global_avg_pool(x) * m2).sum(), [x])
        if name == "xent":
            x = Parameter(rng.normal(size=(4, 3)))
            labels = rng.integers(0, 3, 4)
            return tc.finite_diff_check(
                lambda: tc.softmax_cross_entropy(x, labels), [x])
        if name == "softmax":
            v = Parameter(rng.normal(size=5))
            m2 = Tensor(rng.normal(size=5))
            return tc.finite_diff_check(lambda: (tc.softmax(v) * m2).sum(), [v])
        if name == "lse":
            v = Parameter(rng.normal(size=5))
            return tc.finite_diff_check(lambda: tc.log_sum_exp(v), [v])
        if name == "take":
            v = Parameter(rng.normal(size=(3, 4)))
            return tc.finite_diff_check(lambda: (v[1] * Tensor([1., 2, 3, 4])).sum()
                                        + v[(0, 2)], [v])
        if name == "stack":
            v = Parameter(rng.normal(size=4))
            return tc.finite_diff_check(
                lambda: tc.log_sum_exp(tc.stack([v[0] * v[1], v[2], v[3] * v[0]])),
                [v])
        raise AssertionError(name)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run():
            rng = np.random.default_rng(42)
            p = Parameter(np.linspace(-1, 1, 6))
            out = []
            for _ in range(20):
                p.zero_grad()
                with Tape() as tape:
                    gs = tc.gumbel_softmax(p, 0.9, rng=rng, hard=True)
                    loss = (gs * Tensor([1., 2, 3, 4, 5, 6])).sum() + (p * p).sum()
                    tape.backward(loss)
                p.assign(p.values - 0.05 * p.grad)
                out.append(loss.item())
            return out
        a, b = run(), run()
        assert a == b  # bit-identical


class TestStraightThrough:
    def test_forward_replaced_grad_identity(self):
        x = Parameter([1.0, 2.0, 3.0])
        out = tc.straight_through(x, [10.0, 20.0, 30.0])
        assert out.values.tolist() == [10.0, 20.0, 30.0]
        backward(lambda: (tc.straight_through(x, [10., 20., 30.])
                          * Tensor([1., 2, 3])).sum(), [x])
        assert x.grad.tolist() == [1.0, 2.0, 3.0]
