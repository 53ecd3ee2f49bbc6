"""The searchable network: N sequential blocks of M candidate inverted-
bottleneck ops, each with Q weight bit-width paths.

A training forward pass hard-samples one op and one bit-width per block
(straight-through, so the sampling logits still receive gradients); an
inference pass runs a fixed derived path with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc
from .tensorcore import Parameter, Tensor


class SpaceError(Exception):
    pass


@dataclass(frozen=True)
class QuantLevels:
    bit_widths: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bit_widths)
        object.__setattr__(self, "bit_widths", bits)
        if len(bits) < 1:
            raise SpaceError("need at least one bit-width")
        if any(b < 2 for b in bits):
            raise SpaceError(f"bit-widths must be >= 2, got {bits}")
        if list(bits) != sorted(set(bits)):
            raise SpaceError(f"bit-widths must be strictly increasing, got {bits}")

    def __len__(self):
        return len(self.bit_widths)


@dataclass(frozen=True)
class OpSpec:
    kernel_size: int
    expansion_ratio: int
    in_channels: int
    out_channels: int
    h_in: int
    w_in: int
    h_out: int
    w_out: int
    stride: int

    @property
    def mid_channels(self):
        return self.in_channels * self.expansion_ratio


@dataclass(frozen=True)
class SearchSpace:
    """Geometry of the whole search space; owns no trainable state."""

    num_blocks: int = 4
    kernel_sizes: tuple = (3, 5)
    expansion_ratios: tuple = (2, 4)
    quant: QuantLevels = QuantLevels((4, 8, 16))
    input_hw: tuple = (16, 16)
    input_channels: int = 3
    stem_channels: int = 8
    channel_plan: tuple = (8, 16, 16, 32)
    downsample_blocks: tuple = (2, 4)  # 1-indexed blocks with stride 2
    num_classes: int = 4

    def __post_init__(self):
        for name in ("kernel_sizes", "expansion_ratios", "channel_plan",
                     "downsample_blocks", "input_hw"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        if self.num_blocks < 1:
            raise SpaceError("num_blocks must be >= 1")
        if len(self.channel_plan) != self.num_blocks:
            raise SpaceError(
                f"channel_plan has {len(self.channel_plan)} entries for "
                f"{self.num_blocks} blocks")
        if any(k % 2 == 0 or k < 1 for k in self.kernel_sizes):
            raise SpaceError(f"kernel sizes must be odd, got {self.kernel_sizes}")
        if any(e < 1 for e in self.expansion_ratios):
            raise SpaceError(f"expansion ratios must be positive, got "
                             f"{self.expansion_ratios}")
        bad = [b for b in self.downsample_blocks
               if b < 1 or b > self.num_blocks]
        if bad:
            raise SpaceError(f"downsample block {bad[0]} out of range "
                             f"1..{self.num_blocks}")
        if len(self.input_hw) != 2:
            raise SpaceError(f"input_hw needs (height, width), got "
                             f"{list(self.input_hw)}")
        if min((self.input_channels, self.stem_channels) + self.channel_plan) < 1:
            raise SpaceError(
                f"channel counts must be >= 1, got input {self.input_channels}, "
                f"stem {self.stem_channels}, plan {list(self.channel_plan)}")
        # walk the geometry once so a bad plan fails here, naming the block
        h, w = self.input_hw
        if h < 1 or w < 1:
            raise SpaceError(f"input size {h}x{w} is not positive")
        for i in range(self.num_blocks):
            if (i + 1) in self.downsample_blocks:
                if h < 2 or w < 2:
                    raise SpaceError(
                        f"block {i + 1}: cannot downsample a {h}x{w} input")
                h, w = (h + 1) // 2, (w + 1) // 2

    @property
    def op_menu(self):
        """(kernel, expansion) pairs; smaller kernel/expansion first."""
        return [(k, e) for k in self.kernel_sizes for e in self.expansion_ratios]

    @property
    def num_ops(self):
        return len(self.op_menu)

    def block_geometry(self, i):
        """(c_in, c_out, h_in, w_in, h_out, w_out, stride) of block i."""
        c_in = self.stem_channels if i == 0 else self.channel_plan[i - 1]
        c_out = self.channel_plan[i]
        h, w = self.input_hw
        for j in range(i):
            if (j + 1) in self.downsample_blocks:
                h, w = (h + 1) // 2, (w + 1) // 2
        stride = 2 if (i + 1) in self.downsample_blocks else 1
        h_out = (h + 1) // 2 if stride == 2 else h
        w_out = (w + 1) // 2 if stride == 2 else w
        return c_in, c_out, h, w, h_out, w_out, stride

    def check_design(self, ops, bits):
        """Raise SpaceError naming the first block of a discrete design
        whose op index or bit-width is outside this space."""
        ops, bits = list(ops), list(bits)
        n, m_max = self.num_blocks, self.num_ops
        if len(ops) != n or len(bits) != n:
            raise SpaceError(f"design has {len(ops)} blocks, space has {n}")
        for i, (m, b) in enumerate(zip(ops, bits)):
            if not 0 <= m < m_max:
                raise SpaceError(f"block {i}: op_index {m} out of range 0..{m_max - 1}")
            if b not in self.quant.bit_widths:
                raise SpaceError(f"block {i}: bit_width {b} not in "
                                 f"{self.quant.bit_widths}")

    def op_spec(self, i, m) -> OpSpec:
        k, e = self.op_menu[m]
        c_in, c_out, h, w, h_out, w_out, stride = self.block_geometry(i)
        return OpSpec(kernel_size=k, expansion_ratio=e, in_channels=c_in,
                      out_channels=c_out, h_in=h, w_in=w, h_out=h_out,
                      w_out=w_out, stride=stride)


def fake_quantize(weights: Tensor, q: int) -> Tensor:
    """Symmetric uniform q-bit rounding with a straight-through gradient.

    The scale is max|w| / (2^(q-1)-1); computed via the normalized grid so
    that re-quantizing an already quantized tensor is a bitwise no-op.
    """
    if q < 2:
        raise ValueError(f"fake_quantize: bit-width must be >= 2, got {q}")
    m = float(np.abs(weights.values).max())
    if m == 0.0:
        return weights
    levels = float(2 ** (q - 1) - 1)
    snapped = np.round(weights.values / m * levels) / levels * m
    return tc.straight_through(weights, snapped)


@dataclass
class _OpWeights:
    expand: Parameter
    gamma1: Parameter
    beta1: Parameter
    dw: Parameter
    gamma2: Parameter
    beta2: Parameter
    project: Parameter
    gamma3: Parameter
    beta3: Parameter

    def all(self):
        return [self.expand, self.gamma1, self.beta1, self.dw, self.gamma2,
                self.beta2, self.project, self.gamma3, self.beta3]


class Supernet:
    """Stem conv + N blocks x M candidate ops + pooled linear classifier."""

    def __init__(self, space: SearchSpace, seed: int = 0,
                 shared_precision: bool = False):
        self.space = space
        self.shared_precision = shared_precision
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5eed]))
        c0 = space.input_channels
        self.stem_w = Parameter(self._conv_init(rng, space.stem_channels, c0, 3))
        self.stem_gamma = Parameter(np.ones(space.stem_channels))
        self.stem_beta = Parameter(np.zeros(space.stem_channels))
        self.blocks = []
        for i in range(space.num_blocks):
            ops = []
            for m in range(space.num_ops):
                spec = space.op_spec(i, m)
                mid = spec.mid_channels
                ops.append(_OpWeights(
                    expand=Parameter(self._conv_init(rng, mid, spec.in_channels, 1)),
                    gamma1=Parameter(np.ones(mid)),
                    beta1=Parameter(np.zeros(mid)),
                    dw=Parameter(rng.normal(
                        0.0, np.sqrt(2.0 / spec.kernel_size ** 2),
                        (mid, spec.kernel_size, spec.kernel_size))),
                    gamma2=Parameter(np.ones(mid)),
                    beta2=Parameter(np.zeros(mid)),
                    project=Parameter(self._conv_init(rng, spec.out_channels, mid, 1)),
                    gamma3=Parameter(np.ones(spec.out_channels)),
                    beta3=Parameter(np.zeros(spec.out_channels)),
                ))
            self.blocks.append(ops)
        c_last = space.channel_plan[-1]
        self.head_w = Parameter(rng.normal(0.0, np.sqrt(1.0 / c_last),
                                           (c_last, space.num_classes)))
        self.head_b = Parameter(np.zeros(space.num_classes))
        self.theta = Parameter(np.zeros((space.num_blocks, space.num_ops)))
        # bit-width logits: one shared Q-vector (GPU), else N x M x Q
        q = len(space.quant)
        self.phi = Parameter(np.zeros(q) if shared_precision
                             else np.zeros((space.num_blocks, space.num_ops, q)))
        self.exec_counts = np.zeros((space.num_blocks, space.num_ops), dtype=np.int64)
        self.quant_counts = np.zeros(
            (space.num_blocks, space.num_ops, len(space.quant)), dtype=np.int64)

    @staticmethod
    def _conv_init(rng, c_out, c_in, k):
        fan_in = c_in * k * k
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), (c_out, c_in, k, k))

    # -- parameter groups ----------------------------------------------------

    def weight_parameters(self):
        params = [self.stem_w, self.stem_gamma, self.stem_beta]
        for ops in self.blocks:
            for op in ops:
                params.extend(op.all())
        params.extend([self.head_w, self.head_b])
        return params

    def arch_parameters(self):
        return [self.theta, self.phi]

    # -- forward passes --------------------------------------------------------

    def _stem(self, images):
        # (S, C, H, W) images to the (C, H, W, B) activations of every layer
        x = tc.conv2d(Tensor(images.transpose(1, 2, 3, 0)), self.stem_w)
        return tc.affine_relu(x, self.stem_gamma, self.stem_beta)

    def _head(self, x):
        pooled = tc.global_avg_pool(x)
        return tc.matmul(pooled, self.head_w) + self.head_b

    def _run_op(self, x, i, m, q):
        op = self.blocks[i][m]
        spec = self.space.op_spec(i, m)
        h = tc.conv2d(x, fake_quantize(op.expand, q))
        h = tc.affine_relu(h, op.gamma1, op.beta1)
        h = tc.depthwise_conv2d(h, fake_quantize(op.dw, q), stride=spec.stride)
        h = tc.affine_relu(h, op.gamma2, op.beta2)
        h = tc.conv2d(h, fake_quantize(op.project, q))
        return tc.affine_relu(h, op.gamma3, op.beta3)

    def forward_train(self, images, labels, tau, rng):
        """Hard-sampled training pass; returns the cross-entropy loss.

        One op and one bit-width execute per block; their straight-through
        sampling scalars multiply the block output so gradients reach theta
        and phi.  One draw samples all blocks: per block, M op uniforms then
        Q bit-width uniforms (the op picked changes neither); shared Q first.
        """
        bits = self.space.quant.bit_widths
        (n, n_ops), q = self.theta.values.shape, len(bits)
        if self.shared_precision:
            u = rng.random(q + n * n_ops)
            u_theta, u_phi = u[q:].reshape(n, n_ops), u[:q]
        else:
            u = rng.random((n, n_ops + q))
            u_theta, u_phi = u[:, :n_ops], u[:, n_ops:]
        theta_st = tc.gumbel_hard_rows(self.theta, tau, u_theta)
        ops = theta_st.values.argmax(axis=-1)
        phi = self.phi if self.shared_precision \
            else self.phi[(np.arange(n), ops)]
        phi_st = tc.gumbel_hard_rows(phi, tau, u_phi)
        qs = np.broadcast_to(phi_st.values.argmax(axis=-1), n)
        x = self._stem(images)
        for i, (m, qi) in enumerate(zip(ops.tolist(), qs.tolist())):
            self.exec_counts[i, m] += 1
            self.quant_counts[i, m, qi] += 1
            # a take per block: the shared sample's gradient adds in tape order
            phi_i = phi_st[qi] if self.shared_precision else phi_st[(i, qi)]
            x = self._run_op(x, i, m, bits[qi]) * theta_st[(i, m)] * phi_i
        return tc.softmax_cross_entropy(self._head(x), labels)

    def forward_infer(self, design, images):
        """Deterministic single-path logits for a derived design."""
        self.space.check_design(design.op_indices, design.bit_widths)
        x = self._stem(images)
        for i in range(self.space.num_blocks):
            x = self._run_op(x, i, design.op_indices[i], design.bit_widths[i])
        return self._head(x)

    def infer_loss(self, design, images, labels):
        return tc.softmax_cross_entropy(self.forward_infer(design, images), labels)
