"""Dense-tensor reverse-mode autodiff on a flat tape.

Everything downstream (the searchable network and the device cost models)
runs on the primitives in this module.  Values are float64 numpy arrays;
records go onto the innermost active :class:`Tape`, which replays them in
reverse for gradients.  No graph is kept beyond the tape, so a fresh tape
per training step keeps memory flat.
"""

from __future__ import annotations

import math
import threading

import numpy as np

LN2 = math.log(2.0)

# Bytes of one depthwise batch slice (padded input, output and product
# buffer): small enough that a slice stays in cache across all k*k taps.
_DW_SLICE_BYTES = 512 * 1024


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "tapes", None)
    if stack is None:
        stack = []
        _tls.tapes = stack
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed primitives; replayed once, in reverse.

    Parameters in `frozen` count as constants while the tape is live: their
    requires_grad is cleared on enter and restored on exit (aborts
    included), so nodes that depend on nothing else are never recorded and
    no gradient is computed for them.

    numpy's overflow/invalid warnings are off while the tape is live: every
    node is checked for finiteness anyway, and that NonFiniteError names
    the op.

    backward stores gradient arrays without copying them. That is safe
    because no gradient closure writes to its incoming gradient or to an
    array it has returned, and gradients are accumulated out of place; so
    one array may be shared between nodes, or be a read-only view.
    """

    def __init__(self, frozen=()):
        self._entries = []
        self._frozen = [p for p in frozen if p.requires_grad]
        self._errstate = np.errstate(over="ignore", invalid="ignore")

    def __enter__(self):
        for p in self._frozen:
            p.requires_grad = False
        self._errstate.__enter__()
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        for p in self._frozen:
            p.requires_grad = True
        self._errstate.__exit__(*exc)
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._entries)

    def record(self, out, inputs, grad_fn):
        # grad_fn(g_out) -> tuple of gradient arrays aligned with `inputs`
        # (None for inputs that need no gradient).
        self._entries.append((out, inputs, grad_fn))

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf."""
        if loss.values.shape != ():
            raise ShapeError(
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
                if g is not None and isinstance(inp, Parameter):
                    inp.grad += g


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class Tensor:
    """Immutable-by-convention dense array node.

    Non-finite values are rejected at creation so a diverging run fails at
    the op that produced the NaN/Inf instead of ten steps later.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad=False, _op="tensor"):
        arr = np.asarray(values, dtype=np.float64)
        _check_finite(arr, _op)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None):
        return total_sum(self, axis)


class Parameter(Tensor):
    """Trainable leaf; .grad is a dense array accumulated by Tape.backward.

    A parameter owns its storage: it copies its initial values, and assign
    writes into them in place, so .values and .grad may be views into the
    flat buffers of a FlatParameters.
    """

    __slots__ = ("packed",)

    def __init__(self, values):
        super().__init__(np.array(values, dtype=np.float64),
                         requires_grad=True, _op="parameter")
        self.grad = np.zeros_like(self.values)
        self.packed = False

    def assign(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.values.shape:
            raise ShapeError(
                f"assign: shape {arr.shape} != parameter shape {self.values.shape}")
        _check_finite(arr, "assign")
        self.values[...] = arr


class FlatParameters:
    """One flat value buffer and one flat gradient buffer behind a list of
    parameters, whose .values and .grad become reshaped views into them.
    A parameter joins one buffer only."""

    def __init__(self, params):
        if any(p.packed for p in params) or len(set(map(id, params))) < len(params):
            raise TensorError("a parameter is already in a flat buffer")
        self.values = np.empty(sum(p.values.size for p in params))
        self.grad = np.empty_like(self.values)
        start = 0
        for p in params:
            stop = start + p.values.size
            self.values[start:stop] = p.values.ravel()
            self.grad[start:stop] = p.grad.ravel()
            p.values = self.values[start:stop].reshape(p.values.shape)
            p.grad = self.grad[start:stop].reshape(p.grad.shape)
            p.packed = True
            start = stop

    def assign(self, values):
        """Write every parameter at once; nothing is written unless all of
        `values` is finite."""
        _check_finite(values, "assign")
        self.values[...] = values


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(values, inputs, grad_fn, op):
    """Build the output node and record it if a tape is live and needed."""
    req = any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=req, _op=op)
    tape = active_tape()
    if tape is not None and req:
        tape.record(out, inputs, grad_fn)
    return out


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic --------------------------------------------------

def add(a, b):
    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)
    return _make(a.values + b.values, (a, b), grad_fn, "add")


def sub(a, b):
    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), -_unbroadcast(g, b.values.shape)
    return _make(a.values - b.values, (a, b), grad_fn, "sub")


def mul(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g * b.values, a.values.shape) if need_a else None,
                _unbroadcast(g * a.values, b.values.shape) if need_b else None)
    return _make(a.values * b.values, (a, b), grad_fn, "mul")


def div(a, b):
    def grad_fn(g):
        return (_unbroadcast(g / b.values, a.values.shape),
                _unbroadcast(-g * a.values / (b.values ** 2), b.values.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = a.values / b.values
    return _make(vals, (a, b), grad_fn, "div")


def exp(a):
    out_vals = np.exp(a.values)

    def grad_fn(g):
        return (g * out_vals,)
    return _make(out_vals, (a,), grad_fn, "exp")


def relu(a):
    def grad_fn(g):
        return (g * (a.values > 0),)
    # maximum(-0.0, 0.0) is +0.0, as where(a > 0, a, 0.0) gives
    return _make(np.maximum(a.values, 0.0), (a,), grad_fn, "relu")


def pow2(a):
    """2**a, the parallelism curve; differentiable in a.

    Uses exp2 so integer exponents come out bit-exact.
    """
    out_vals = np.exp2(a.values)

    def grad_fn(g):
        return (g * out_vals * LN2,)
    return _make(out_vals, (a,), grad_fn, "pow2")


# -- shape / reduction -------------------------------------------------------

def take(a, idx):
    def grad_fn(g):
        full = np.zeros_like(a.values)
        np.add.at(full, idx, g)
        return (full,)
    return _make(a.values[idx], (a,), grad_fn, "take")


def total_sum(a, axis=None):
    """Sum of all entries, or over one axis or a tuple of axes."""
    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.values.shape),)
    return _make(a.values.sum(axis=axis), (a,), grad_fn, "sum")


def prod(a, axis):
    """Product over one axis.  Each entry's gradient is the product of
    the others, from exclusive prefix and suffix products (no division), so
    it stays exact where entries are 0."""
    def grad_fn(g):
        x = np.moveaxis(a.values, axis, 0)
        before, after = np.ones_like(x), np.ones_like(x)
        np.cumprod(x[:-1], axis=0, out=before[1:])
        after[:-1] = np.cumprod(x[:0:-1], axis=0)[::-1]
        return (np.expand_dims(g, axis) * np.moveaxis(before * after, 0, axis),)
    return _make(a.values.prod(axis=axis), (a,), grad_fn, "prod")


def matmul(a, b):
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.values.shape} @ {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: inner dims differ, {a.values.shape} @ {b.values.shape}")

    def grad_fn(g):
        return g @ b.values.T, a.values.T @ g
    return _make(a.values @ b.values, (a, b), grad_fn, "matmul")


# -- neural-net primitives ---------------------------------------------------

def _pad_hw(x, pad):
    """Copy of (B,C,H,W) x with `pad` zeros on each side of H and W."""
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(x, k, stride):
    """(B,C,H,W) -> patches (B,C,k,k,Ho,Wo) with same padding (k odd)."""
    pad = k // 2
    b, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    xp = _pad_hw(x, pad)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    # win: (B, C, Hp-k+1, Wp-k+1, k, k) -> strided then to (B,C,k,k,Ho,Wo)
    win = win[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)), ho, wo


def _col2im(cols, x_shape, k, stride):
    """Scatter-add of _im2col: cols (B,C,k,k,Ho,Wo) -> (B,C,H,W)."""
    pad = k // 2
    b, c, h, w = x_shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    ho, wo = cols.shape[4], cols.shape[5]
    for di in range(k):
        for dj in range(k):
            xp[:, :, di:di + stride * ho:stride,
               dj:dj + stride * wo:stride] += cols[:, :, di, dj]
    return xp[:, :, pad:pad + h, pad:pad + w]


def conv2d(x, weight, stride=1):
    """Same-padding 2-D convolution; x (B,C,H,W), weight (Co,C,k,k)."""
    if x.values.ndim != 4 or weight.values.ndim != 4:
        raise ShapeError(
            f"conv2d expects 4-D input/weight, got {x.values.shape} and "
            f"{weight.values.shape}")
    co, ci, k, k2 = weight.values.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"conv2d: kernel must be square and odd, got {k}x{k2}")
    if x.values.shape[1] != ci:
        raise ShapeError(
            f"conv2d: input has {x.values.shape[1]} channels, weight expects {ci}")
    b, _, h, w = x.values.shape
    if k == 1 and stride == 1:
        ho, wo = h, w
        cols_mat = x.values.reshape(b, ci, h * w)
    else:
        cols, ho, wo = _im2col(x.values, k, stride)
        cols_mat = cols.reshape(b, ci * k * k, ho * wo)
    w_mat = weight.values.reshape(co, ci * k * k)
    out = (w_mat @ cols_mat).reshape(b, co, ho, wo)
    need_x, need_w = x.requires_grad, weight.requires_grad

    def grad_fn(g):
        g_mat = g.reshape(b, co, ho * wo)
        dx = dw = None
        if need_w:
            # fold the batch into the contraction: one GEMM
            g2 = g_mat.transpose(1, 0, 2).reshape(co, b * ho * wo)
            c2 = cols_mat.transpose(1, 0, 2).reshape(ci * k * k, b * ho * wo)
            dw = (g2 @ c2.T).reshape(weight.values.shape)
        if need_x:
            dcols = np.matmul(w_mat.T[None], g_mat)
            if k == 1 and stride == 1:
                dx = dcols.reshape(x.values.shape)
            else:
                dx = _col2im(dcols.reshape(b, ci, k, k, ho, wo),
                             x.values.shape, k, stride)
        return dx, dw
    return _make(out, (x, weight), grad_fn, "conv2d")


def depthwise_conv2d(x, weight, stride=1):
    """Same-padding depthwise conv; x (B,C,H,W), weight (C,k,k)."""
    if x.values.ndim != 4 or weight.values.ndim != 3:
        raise ShapeError(
            f"depthwise_conv2d expects 4-D input and 3-D weight, got "
            f"{x.values.shape} and {weight.values.shape}")
    c, k, k2 = weight.values.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"depthwise_conv2d: kernel must be square and odd, got {k}x{k2}")
    if x.values.shape[1] != c:
        raise ShapeError(
            f"depthwise_conv2d: input has {x.values.shape[1]} channels, weight has {c}")
    pad = k // 2
    b, _, h, w = x.values.shape
    ho = (h - 1) // stride + 1
    wo = (w - 1) // stride + 1
    xp = _pad_hw(x.values, pad)
    # (di, dj, weight column, output-window rows, columns) per tap
    taps = [(di, dj, weight.values[:, di, dj][None, :, None, None],
             slice(di, di + stride * ho, stride),
             slice(dj, dj + stride * wo, stride))
            for di in range(k) for dj in range(k)]
    # Per-tap accumulation avoids materializing the k^2-expanded patch
    # array. Batch slices sized to _DW_SLICE_BYTES keep a slice's input,
    # output and product buffer in cache across all taps; every element
    # still sums its taps in (di, dj) order, so the slicing changes no bits.
    step = max(1, _DW_SLICE_BYTES // (8 * c * (xp[0, 0].size + 2 * ho * wo)))
    out = np.zeros((b, c, ho, wo))
    for lo in range(0, b, step):
        o = out[lo:lo + step]
        buf = np.empty(o.shape)
        for _, _, w_tap, rows, cols in taps:
            o += np.multiply(w_tap, xp[lo:lo + step, :, rows, cols], out=buf)

    need_x, need_w = x.requires_grad, weight.requires_grad

    def grad_fn(g):
        dx = dw = None
        if need_w:
            # Full batch, not sliced: numpy's sum over axes (0, 2, 3) adds in
            # an order that summing per slice does not reproduce bit for bit.
            dw = np.empty_like(weight.values)
            for di, dj, _, rows, cols in taps:
                dw[:, di, dj] = (xp[:, :, rows, cols] * g).sum(axis=(0, 2, 3))
        if need_x:
            dxp = np.zeros_like(xp)
            for lo in range(0, b, step):
                d, gs = dxp[lo:lo + step], g[lo:lo + step]
                buf = np.empty(gs.shape)
                for _, _, w_tap, rows, cols in taps:
                    d[:, :, rows, cols] += np.multiply(w_tap, gs, out=buf)
            dx = dxp[:, :, pad:pad + h, pad:pad + w]
        return dx, dw
    return _make(out, (x, weight), grad_fn, "depthwise_conv2d")


def channel_affine(x, gamma, beta):
    """Per-channel scale+shift on (B,C,H,W); the fixed-stats norm stand-in."""
    c = x.values.shape[1]
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise ShapeError(
            f"channel_affine: need per-channel params of shape ({c},), got "
            f"{gamma.values.shape} and {beta.values.shape}")
    gam = gamma.values.reshape(1, c, 1, 1)
    out = x.values * gam
    out += beta.values.reshape(1, c, 1, 1)

    need_x, need_gamma, need_beta = (x.requires_grad, gamma.requires_grad,
                                     beta.requires_grad)

    def grad_fn(g):
        return (g * gam if need_x else None,
                (g * x.values).sum(axis=(0, 2, 3)) if need_gamma else None,
                g.sum(axis=(0, 2, 3)) if need_beta else None)
    return _make(out, (x, gamma, beta), grad_fn, "channel_affine")


def global_avg_pool(x):
    if x.values.ndim != 4:
        raise ShapeError(f"global_avg_pool expects (B,C,H,W), got {x.values.shape}")
    b, c, h, w = x.values.shape

    def grad_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), x.values.shape),)
    return _make(x.values.mean(axis=(2, 3)), (x,), grad_fn, "global_avg_pool")


def softmax(a):
    """Softmax over the last axis."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)
    return _make(s, (a,), grad_fn, "softmax")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy; logits (B,K), labels int array (B,)."""
    if logits.values.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (B,K) logits, got "
                         f"{logits.values.shape}")
    labels = np.asarray(labels)
    b, k = logits.values.shape
    if labels.shape != (b,):
        raise ShapeError(
            f"softmax_cross_entropy: labels shape {labels.shape} != ({b},)")
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    losses = log_z - shifted[np.arange(b), labels]
    probs = np.exp(shifted - log_z[:, None])

    def grad_fn(g):
        d = probs.copy()
        d[np.arange(b), labels] -= 1.0
        return (g * d / b,)
    return _make(losses.mean(), (logits,), grad_fn, "softmax_cross_entropy")


def log_sum_exp(v):
    """Smooth maximum log(sum(exp(v))) over the last axis, max-shifted: of
    a vector, or of each row under a leading lane axis."""
    if v.values.ndim not in (1, 2) or v.values.shape[-1] == 0:
        raise ShapeError(f"log_sum_exp expects non-empty vectors, got shape "
                         f"{v.values.shape}")
    m = v.values.max(axis=-1)
    e = np.exp(v.values - m[..., None])
    z = e.sum(axis=-1)

    def grad_fn(g):
        return (np.expand_dims(g, -1) * e / z[..., None],)
    return _make(m + np.log(z), (v,), grad_fn, "log_sum_exp")


def gumbel_softmax_rows(logits, tau, u=None):
    """Concrete relaxation over the last axis of `logits`.

    `u` holds one uniform per logit (the Gumbel noise source); u=None gives
    the plain tempered softmax.  Each row comes out exactly as a separate
    vector call with that row's uniforms would.
    """
    if tau <= 0:
        raise ValueError(f"gumbel_softmax: tau must be positive, got {tau}")
    z = logits
    if u is not None:
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        z = z + Tensor(-np.log(-np.log(u)))
    return softmax(z / Tensor(float(tau)))


def gumbel_softmax(logits, tau, rng=None, hard=False):
    """Concrete-relaxation sample over a logit vector.

    rng=None disables noise (plain tempered softmax); with `hard` the forward
    value is one-hot at the argmax while gradients follow the soft weights
    (straight-through).
    """
    if logits.values.ndim != 1:
        raise ShapeError(f"gumbel_softmax expects a logit vector, got shape "
                         f"{logits.values.shape}")
    u = None if rng is None else rng.random(logits.values.shape)
    soft = gumbel_softmax_rows(logits, tau, u)
    if not hard:
        return soft
    one_hot = np.zeros_like(soft.values)
    one_hot[int(np.argmax(soft.values))] = 1.0
    return straight_through(soft, one_hot)


def straight_through(x, forward_values):
    """Tensor whose forward value is `forward_values` but whose gradient
    passes to x unchanged."""
    forward_values = np.asarray(forward_values, dtype=np.float64)
    if forward_values.shape != x.values.shape:
        raise ShapeError(
            f"straight_through: forward shape {forward_values.shape} != "
            f"{x.values.shape}")
    return x + Tensor(forward_values - x.values)
