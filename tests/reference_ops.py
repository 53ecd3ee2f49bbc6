"""Helpers that only the tests use, kept out of the package:

- tape primitives: `stack`, on which the scalar reference models build,
  and `tanh` and `log`, kept as more primitives for the gradient checks;
  `channel_affine` and `relu`, the two nodes that `tc.affine_relu` fuses;
  and the vector `gumbel_softmax`, one block's sample as the supernet drew
  it before it drew all blocks at once.  They record onto the tape like
  the ones in `cosearch.tensorcore`;
- `reference_forward_train`, the supernet's training pass as it was before
  one draw per forward: one draw per block, on the vector helper, and the
  unfused affine and relu;
- `finite_diff_check`, the central-difference gradient checker;
- `forward_soft`, the noise-free fully-soft supernet pass of the
  gradient-fidelity harness (criterion 1);
- `baseline_convnet_accuracy` and `linear_probe_accuracy`, the dataset
  calibration baselines;
- `initial_parallel_factors`, the starting parallel factors written out
  per device kind, as the search worked them out before `CostModel`
  owned them;
- `ReferenceTape`, the tape as it was before it kept node serials: the
  bitwise reference for `Tape.backward`.
"""

import math

import numpy as np

from cosearch import data as datamod
from cosearch import tensorcore as tc
from cosearch.costmodel import InfeasibleError
from cosearch.search import SGD, Adam
from cosearch.supernet import fake_quantize


def tanh(a):
    out_vals = np.tanh(a.values)

    def grad_fn(g):
        return (g * (1.0 - out_vals ** 2),)
    return tc._make(out_vals, (a,), grad_fn, "tanh")


def log(a):
    def grad_fn(g):
        return (g / a.values,)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(a.values)
    return tc._make(vals, (a,), grad_fn, "log")


def stack(tensors):
    tensors = list(tensors)
    if not tensors:
        raise tc.ShapeError("stack: empty input")

    def grad_fn(g):
        return tuple(g[i] for i in range(len(tensors)))
    return tc._make(np.stack([t.values for t in tensors]), tuple(tensors),
                    grad_fn, "stack")


def relu(a):
    # maximum(-0.0, 0.0) is +0.0, as where(a > 0, a, 0.0) gives
    out_vals = np.maximum(a.values, 0.0)
    # out > 0 exactly where a > 0: a bool mask of the output, so the input
    # is not kept
    mask = out_vals > 0 if a.requires_grad else None

    def grad_fn(g):
        return (g * mask,)
    return tc._make(out_vals, (a,), grad_fn, "relu")


def channel_affine(x, gamma, beta):
    """Per-channel scale+shift on (C,H,W,B); the fixed-stats norm stand-in."""
    c = x.values.shape[0]
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise tc.ShapeError(
            f"channel_affine: need per-channel params of shape ({c},), got "
            f"{gamma.values.shape} and {beta.values.shape}")
    gam = gamma.values.reshape(c, 1, 1, 1)
    out = x.values * gam
    out += beta.values.reshape(c, 1, 1, 1)

    need_x, need_beta = x.requires_grad, beta.requires_grad
    x_vals = x.values if gamma.requires_grad else None  # only dgamma reads it

    def grad_fn(g):
        return (g * gam if need_x else None,
                None if x_vals is None else (g * x_vals).sum(axis=(1, 2, 3)),
                g.sum(axis=(1, 2, 3)) if need_beta else None)
    return tc._make(out, (x, gamma, beta), grad_fn, "channel_affine")


def gumbel_softmax(logits, tau, rng=None, hard=False):
    """Concrete-relaxation sample over a logit vector.

    rng=None disables noise (plain tempered softmax); with `hard` the forward
    value is one-hot at the argmax while gradients follow the soft weights
    (straight-through).
    """
    if logits.values.ndim != 1:
        raise tc.ShapeError(f"gumbel_softmax expects a logit vector, got shape "
                            f"{logits.values.shape}")
    u = None if rng is None else rng.random(logits.values.shape)
    soft = tc.gumbel_softmax_rows(logits, tau, u)
    if not hard:
        return soft
    one_hot = np.zeros_like(soft.values)
    one_hot[int(np.argmax(soft.values))] = 1.0
    return tc.straight_through(soft, one_hot)


def _reference_run_op(net, x, i, m, q):
    op = net.blocks[i][m]
    spec = net.space.op_spec(i, m)
    h = tc.conv2d(x, fake_quantize(op.expand, q))
    h = relu(channel_affine(h, op.gamma1, op.beta1))
    h = tc.depthwise_conv2d(h, fake_quantize(op.dw, q), stride=spec.stride)
    h = relu(channel_affine(h, op.gamma2, op.beta2))
    h = tc.conv2d(h, fake_quantize(op.project, q))
    return relu(channel_affine(h, op.gamma3, op.beta3))


def reference_forward_train(net, images, labels, tau, rng):
    """`Supernet.forward_train` sampling block by block: the stem, then per
    block one vector draw for its op and one for its bit-width (one shared
    draw, first, with shared precision)."""
    bits = net.space.quant.bit_widths
    x = tc.conv2d(tc.Tensor(images.transpose(1, 2, 3, 0)), net.stem_w)
    x = relu(channel_affine(x, net.stem_gamma, net.stem_beta))
    if net.shared_precision:
        phi_gs = gumbel_softmax(net.phi, tau, rng=rng, hard=True)
    for i in range(net.space.num_blocks):
        theta_gs = gumbel_softmax(net.theta[i], tau, rng=rng, hard=True)
        m = int(np.argmax(theta_gs.values))
        if not net.shared_precision:
            phi_gs = gumbel_softmax(net.phi[(i, m)], tau, rng=rng, hard=True)
        qi = int(np.argmax(phi_gs.values))
        net.exec_counts[i, m] += 1
        net.quant_counts[i, m, qi] += 1
        x = _reference_run_op(net, x, i, m, bits[qi]) * theta_gs[m] * phi_gs[qi]
    return tc.softmax_cross_entropy(net._head(x), labels)


def finite_diff_check(loss_fn, params, eps=1e-5):
    """Max relative error between tape gradients and central differences.

    `loss_fn` must rebuild the loss from the current parameter values each
    call; perturbations are applied in place and restored.
    """
    if eps <= 0:
        raise ValueError(f"finite_diff_check: eps must be positive, got {eps}")
    for p in params:
        p.grad[...] = 0.0
    with tc.Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    worst = 0.0
    for p in params:
        g_ad = p.grad.copy()
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn().item()
            flat[i] = orig - eps
            down = loss_fn().item()
            flat[i] = orig
            g_fd = (up - down) / (2 * eps)
            err = abs(g_ad.reshape(-1)[i] - g_fd) / max(1.0, abs(g_fd))
            worst = max(worst, err)
    return worst


def forward_soft(net, images, labels, tau):
    """Noise-free fully-soft pass of a `Supernet`: every op/bit-width path
    runs, weighted by tempered softmax of the logits.  Differentiable in
    theta and phi."""
    bits = net.space.quant.bit_widths
    x = net._stem(images)
    shared_w = None
    if net.shared_precision:
        shared_w = gumbel_softmax(net.phi, tau)
    for i in range(net.space.num_blocks):
        theta_w = gumbel_softmax(net.theta[i], tau)
        acc = None
        for m in range(net.space.num_ops):
            phi_w = shared_w if shared_w is not None \
                else gumbel_softmax(net.phi[(i, m)], tau)
            op_out = None
            for qi, q in enumerate(bits):
                term = net._run_op(x, i, m, q) * phi_w[qi]
                op_out = term if op_out is None else op_out + term
            term = op_out * theta_w[m]
            acc = term if acc is None else acc + term
        x = acc
    return tc.softmax_cross_entropy(net._head(x), labels)


def baseline_convnet_accuracy(train, heldout, epochs=20, channels=12, lr=0.1,
                              seed=0) -> float:
    """Two-layer reference model (3x3 conv + pooled linear readout); the
    generator is tuned so this clears 0.90 held-out accuracy."""
    rng = np.random.default_rng(seed)
    c_in = train.images.shape[1]
    classes = int(train.labels.max()) + 1
    w1 = tc.Parameter(rng.normal(0, np.sqrt(2.0 / (9 * c_in)),
                                 (channels, c_in, 3, 3)))
    g1 = tc.Parameter(np.ones(channels))
    b1 = tc.Parameter(np.zeros(channels))
    w2 = tc.Parameter(rng.normal(0, np.sqrt(1.0 / channels),
                                 (channels, classes)))
    b2 = tc.Parameter(np.zeros(classes))
    opt = SGD([w1, g1, b1, w2, b2], lr=lr, momentum=0.9)
    brng = np.random.default_rng(seed + 1)

    def logits_of(images):
        x = tc.Tensor(images.transpose(1, 2, 3, 0))  # (C, H, W, B)
        h = relu(channel_affine(tc.conv2d(x, w1), g1, b1))
        return tc.matmul(tc.global_avg_pool(h), w2) + b2

    for _ in range(epochs):
        for x, y in datamod.batches(train, 32, brng):
            opt.zero_grad()
            with tc.Tape() as tape:
                tape.backward(tc.softmax_cross_entropy(logits_of(x), y))
            opt.step()
    pred = np.argmax(logits_of(heldout.images).values, axis=1)
    return float((pred == heldout.labels).mean())


def linear_probe_accuracy(train, heldout, epochs=30, lr=0.01, seed=0) -> float:
    """Logistic regression on raw pixels; random texture phase keeps this
    weak on held-out data."""
    rng = np.random.default_rng(seed)
    feat = train.images[0].size
    classes = int(train.labels.max()) + 1
    w = tc.Parameter(rng.normal(0, 0.01, (feat, classes)))
    b = tc.Parameter(np.zeros(classes))
    opt = Adam([w, b], lr=lr)
    brng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        for x, y in datamod.batches(train, 64, brng):
            opt.zero_grad()
            with tc.Tape() as tape:
                logits = tc.matmul(tc.Tensor(x.reshape(len(x), -1)), w) + b
                tape.backward(tc.softmax_cross_entropy(logits, y))
            opt.step()
    pred = np.argmax(heldout.images.reshape(len(heldout), -1) @ w.values
                     + b.values, axis=1)
    return float((pred == heldout.labels).mean())


def initial_parallel_factors(device, space):
    """log2(budget / #IPs): every IP starts with an equal resource slice."""
    if device.kind == "gpu_table":
        return None
    m = space.num_ops
    if device.kind == "fpga_recursive":
        if device.res_ub <= m:
            raise InfeasibleError(
                f"resource bound {device.res_ub} <= {m} ops: initial parallel "
                f"factor would not be positive")
        return np.full(m, math.log2(device.res_ub / m))
    n = space.num_blocks
    if device.res_ub <= m * n:
        raise InfeasibleError(
            f"resource bound {device.res_ub} <= {m * n} per-block IPs: initial "
            f"parallel factor would not be positive")
    return np.full((n, m), math.log2(device.res_ub / (m * n)))


class ReferenceTape(tc.Tape):
    """A tape whose entries hold the tensors themselves, keyed by id(), so
    every recorded tensor lives as long as the tape; entries stay after
    backward.  Records the primitives' own gradient closures."""

    def record(self, out, inputs, grad_fn):
        self._entries.append((out, inputs, grad_fn))

    def backward(self, loss):
        if loss.values.shape != ():
            raise tc.ShapeError(
                f"backward needs a scalar loss, got shape {loss.values.shape}")
        grads = {id(loss): np.ones((), dtype=np.float64)}
        for out, inputs, grad_fn in reversed(self._entries):
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for inp, g in zip(inputs, grad_fn(g_out)):
                if g is None or not inp.requires_grad:
                    continue
                key = id(inp)
                grads[key] = grads[key] + g if key in grads else g
            del g_out
        for _, inputs, _ in self._entries:
            for inp in inputs:
                g = grads.pop(id(inp), None)
                if g is not None and isinstance(inp, tc.Parameter):
                    inp.grad += g
