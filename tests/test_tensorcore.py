import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cosearch import tensorcore as tc
from cosearch.tensorcore import (NonFiniteError, Parameter, ShapeError, Tape,
                                 Tensor)

from reference_ops import ReferenceTape, finite_diff_check, log, stack, tanh


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
        assert tc.relu(Tensor([-1, 0, 2])).values.tolist() == [0, 0, 2]
        tiny = np.finfo(np.float64).smallest_subnormal
        base = np.array([[-0.0, 0.0, tiny, -tiny, 3 * tiny, -1.5, 2.5, -0.0],
                         [1e-310, -1e-310, 0.0, -0.0, 7.0, -7.0, tiny, 1.0]])
        for a in (base, base[:, ::3], base.T[::2]):
            got = tc.relu(Tensor(a)).values
            want = np.where(a > 0, a, 0.0)
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
        x = Parameter(np.ones((1, 2, 4, 4)))
        w3 = Tensor(np.ones((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match="no input gradient through a 3x3"):
            tc.conv2d(x, w3)
        # a constant input through 3x3, and a grad-requiring one through 1x1
        assert tc.conv2d(Tensor(x.values), w3).shape == (1, 3, 4, 4)
        assert tc.conv2d(x, Tensor(np.ones((3, 2, 1, 1)))).shape == (1, 3, 4, 4)

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

    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), noisy=st.booleans())
    def test_rows_equal_per_row_vector_calls(self, shape, seed, noisy):
        # one draw of all uniforms equals one draw per row, in row order
        values = np.random.default_rng(seed).normal(0, 3, shape)
        coeff = np.random.default_rng(seed + 1).normal(size=shape)
        tau = float(np.random.default_rng(seed + 2).uniform(0.1, 5.0))
        u = np.random.default_rng(seed).random(shape) if noisy else None
        logits = Parameter(values)
        with Tape() as tape:
            out = tc.gumbel_softmax_rows(logits, tau, u)
            tape.backward((out * Tensor(coeff)).sum())
        rng = np.random.default_rng(seed) if noisy else None
        for row in np.ndindex(*shape[:-1]):
            vec = Parameter(values[row])
            with Tape() as tape:
                got = tc.gumbel_softmax(vec, tau, rng=rng)
                tape.backward((got * Tensor(coeff[row])).sum())
            assert np.array_equal(got.values, out.values[row])
            assert np.array_equal(vec.grad, logits.grad[row])

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
        err = finite_diff_check(lambda: x * y, [x, y], eps=1e-5)
        assert err < 1e-6

    def test_constant_loss(self):
        x = Parameter([1.0, 2.0])
        err = finite_diff_check(lambda: (x * Tensor([0.0, 0.0])).sum() + Tensor(5.0),
                                   [x])
        assert err == 0.0

    # primitive, input shapes, the input slots held constant
    CONSTANT_INPUT = {
        "conv_const_x": (tc.conv2d, ((2, 3, 5, 5), (4, 3, 3, 3)), (0,)),
        "conv1x1_const_x": (tc.conv2d, ((2, 3, 5, 5), (4, 3, 1, 1)), (0,)),
        "dwconv_const_w": (tc.depthwise_conv2d, ((2, 3, 5, 5), (3, 3, 3)),
                           (1,)),
        "affine_const_gb": (tc.channel_affine, ((2, 3, 4, 4), (3,), (3,)),
                            (1, 2)),
        "mul_const_b": (tc.mul, ((2, 3), (2, 3)), (1,)),
    }

    PRIMITIVES = ["add", "sub", "mul", "div", "exp", "log", "tanh", "relu",
                  "pow2", "matmul", "conv", "dwconv", "affine", "gap",
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
                lambda: (tc.relu(a + shift) * mix).sum(), [a])
        if name == "pow2":
            return finite_diff_check(lambda: (tc.pow2(a) * mix).sum(), [a])
        if name == "matmul":
            w = Parameter(rng.normal(size=(3, 4)))
            m2 = Tensor(rng.normal(size=(2, 4)))
            return finite_diff_check(lambda: (tc.matmul(a, w) * m2).sum(), [a, w])
        if name == "conv":  # x and w gradients; x only through a 1x1 kernel
            x = Parameter(rng.normal(size=(2, 3, 5, 5)))
            w = Parameter(rng.normal(size=(4, 3, 1, 1)))
            m2 = Tensor(rng.normal(size=(2, 4, 5, 5)))
            return finite_diff_check(
                lambda: (tc.conv2d(x, w) * m2).sum(), [x, w])
        if name == "dwconv":
            x = Parameter(rng.normal(size=(2, 3, 5, 5)))
            w = Parameter(rng.normal(size=(3, 3, 3)))
            m2 = Tensor(rng.normal(size=(2, 3, 5, 5)))
            return finite_diff_check(
                lambda: (tc.depthwise_conv2d(x, w) * m2).sum(), [x, w])
        if name == "affine":
            x = Parameter(rng.normal(size=(2, 3, 4, 4)))
            g = Parameter(rng.normal(size=3))
            be = Parameter(rng.normal(size=3))
            m2 = Tensor(rng.normal(size=(2, 3, 4, 4)))
            return finite_diff_check(
                lambda: (tc.channel_affine(x, g, be) * m2).sum(), [x, g, be])
        if name == "gap":
            x = Parameter(rng.normal(size=(2, 3, 4, 4)))
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
    """The plain per-tap depthwise conv: output, d/dx and d/dweight for the
    output gradient g, over the whole batch at once."""
    c, k, _ = weight.shape
    pad = k // 2
    _, _, h, w = x.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((x.shape[0], c, ho, wo))
    dxp = np.zeros_like(xp)
    dw = np.empty_like(weight)
    for di in range(k):
        for dj in range(k):
            win = (slice(None), slice(None),
                   slice(di, di + stride * ho, stride),
                   slice(dj, dj + stride * wo, stride))
            out += weight[:, di, dj][None, :, None, None] * xp[win]
            dw[:, di, dj] = (xp[win] * g).sum(axis=(0, 2, 3))
            dxp[win] += weight[:, di, dj][None, :, None, None] * g
    return out, dxp[:, :, pad:pad + h, pad:pad + w], dw


@st.composite
def depthwise_cases(draw):
    b, c = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.sampled_from((1, 3, 5, 7)))
    stride = draw(st.sampled_from((1, 2)))
    held = draw(st.sampled_from(((), (0,), (1,))))
    # samples per batch slice: one, a remainder slice, or the whole batch
    per_slice = draw(st.integers(1, b))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, weight = rng.normal(size=(b, c, h, w)), rng.normal(size=(c, k, k))
    x[rng.random(x.shape) < 0.1] = -0.0
    return x, weight, stride, held, per_slice, rng


class TestDepthwiseReference:
    @settings(max_examples=300, deadline=None)
    @given(depthwise_cases())
    def test_bitwise_equal_to_per_tap_loop(self, case):
        x, weight, stride, held, per_slice, rng = case
        (b, c, h, w), k = x.shape, weight.shape[1]
        pad = k // 2
        assert np.array_equal(tc._pad_hw(x, pad), np.pad(
            x, ((0, 0), (0, 0), (pad, pad), (pad, pad))))
        ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
        g = rng.normal(size=(b, c, ho, wo))
        want = reference_depthwise(x, weight, stride, g)
        # the byte budget of `per_slice` samples: padded input, output and
        # product buffer
        sample_bytes = 8 * c * ((h + 2 * pad) * (w + 2 * pad) + 2 * ho * wo)
        with mock.patch.object(tc, "_DW_SLICE_BYTES", per_slice * sample_bytes):
            with Tape() as tape:
                out = tc.depthwise_conv2d(
                    *[Tensor(v) if i in held else Parameter(v)
                      for i, v in enumerate((x, weight))], stride=stride)
            (_, _, grad_fn), = tape._entries
            grads = grad_fn(g)
        assert np.array_equal(out.values, want[0])
        for i, got in enumerate(grads):
            if i in held:
                assert got is None
            else:
                assert np.array_equal(got, want[i + 1])


# Ops of the random graphs below: each maps two (2, 3) tensors to one.
GRAPH_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "square": lambda a, b: a * a,
    "div": lambda a, b: a / tc.pow2(b),
    "relu": lambda a, b: tc.relu(a),
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
        x = Parameter(rng.normal(size=(2, 3, 4, 4)))
        gamma, beta = Parameter(np.ones(3)), Parameter(rng.normal(size=3))
        with Tape(frozen=[gamma]) as tape:
            h = tc.channel_affine(x, gamma, beta)  # gamma frozen: x unread
            freed = weakref.ref(h.values)
            loss = tc.relu(h).sum()  # relu keeps a mask, not its input
            del h
            assert freed() is None
            tape.backward(loss)
        assert np.array_equal(x.grad, (x.values + beta.values[:, None, None]
                                       > 0).astype(float))

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
                    gs = tc.gumbel_softmax(p, 0.9, rng=rng, hard=True)
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
