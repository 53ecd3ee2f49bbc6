"""Dense-tensor reverse-mode autodiff on a flat tape.

Everything downstream (the searchable network and the device cost models)
runs on the primitives in this module.  Values are float64 numpy arrays;
records go onto the innermost active :class:`Tape`, which replays them in
reverse for gradients.  The tape keeps node serials, not tensors: an
activation outlives the forward only where a gradient closure captured
what that gradient reads, so a fresh tape per training step holds one
batch's gradient inputs and no more.
"""

from __future__ import annotations

import itertools
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


class _ThreadTapes(threading.local):
    def __init__(self):
        self.stack = []  # this thread's live tapes, innermost last


_tapes = _ThreadTapes()
_serials = itertools.count()  # Tensor.node; next() is atomic under the GIL


def active_tape():
    return _tapes.stack[-1] if _tapes.stack else None


class Tape:
    """Ordered record of executed primitives; replayed once, in reverse.

    Parameters in `frozen` count as constants while the tape is live: their
    requires_grad is cleared on enter and restored on exit (aborts
    included), so nodes that depend on nothing else are never recorded and
    no gradient is computed for them.

    numpy's overflow/invalid warnings are off while the tape is live: every
    node is checked for finiteness anyway, and that NonFiniteError names
    the op.

    An entry holds the output's node serial, the input serials (None for
    an input that needs no gradient) and the gradient closure; parameters
    are held apart for the final `.grad +=`.  So the tape pins no tensor:
    an activation lives on only in a closure whose gradient reads it.
    Entries live as long as the tape.  Dropping each as backward passed it
    freed the heap top mid-phase, which glibc returned to the system and
    faulted in again the next step (a benchmark desk search on a 2-core
    x86 box: 1.7M minor faults instead of 0.18M).

    backward stores gradient arrays without copying them. That is safe
    because no gradient closure writes to its incoming gradient or to an
    array it has returned, and gradients are accumulated out of place; so
    one array may be shared between nodes, or be a read-only view.
    """

    def __init__(self, frozen=()):
        self._entries = []
        self._params = {}  # node -> Parameter input needing a gradient
        self._frozen = [p for p in frozen if p.requires_grad]
        self._errstate = np.errstate(over="ignore", invalid="ignore")

    def __enter__(self):
        for p in self._frozen:
            p.requires_grad = False
        self._errstate.__enter__()
        _tapes.stack.append(self)
        return self

    def __exit__(self, *exc):
        for p in self._frozen:
            p.requires_grad = True
        self._errstate.__exit__(*exc)
        popped = _tapes.stack.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._entries)

    def record(self, out, inputs, grad_fn):
        # grad_fn(g_out) -> tuple of gradient arrays aligned with `inputs`
        # (None for inputs that need no gradient).
        keys = []
        for t in inputs:
            if t.requires_grad:
                keys.append(t.node)
                if isinstance(t, Parameter):
                    self._params[t.node] = t
            else:
                keys.append(None)
        self._entries.append((out.node, keys, grad_fn))

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf."""
        if loss.values.shape != ():
            raise ShapeError(
                f"backward needs a scalar loss, got shape {loss.values.shape}")
        grads = {loss.node: np.ones((), dtype=np.float64)}
        for out, keys, grad_fn in reversed(self._entries):
            g_out = grads.pop(out, None)
            if g_out is None:
                continue
            for key, g in zip(keys, grad_fn(g_out)):
                if g is None or key is None:
                    continue
                grads[key] = grads[key] + g if key in grads else g
        # each parameter's total lands once, in its own slice of memory, so
        # the order of the += changes no bits
        for key, param in self._params.items():
            g = grads.get(key)
            if g is not None:
                param.grad += g


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class Tensor:
    """Immutable-by-convention dense array node.

    Non-finite values are rejected at creation so a diverging run fails at
    the op that produced the NaN/Inf instead of ten steps later.  `node` is
    a process-wide serial that names the tensor on a tape.
    """

    __slots__ = ("values", "requires_grad", "grad", "node")

    def __init__(self, values, requires_grad=False, _op="tensor"):
        arr = np.asarray(values, dtype=np.float64)
        _check_finite(arr, _op)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = next(_serials)

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
    req = False
    for t in inputs:  # a loop: any() over a generator costs more per op
        if t.requires_grad:
            req = True
            break
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

# Each gradient closure captures only the arrays and shapes its gradient
# reads, never the input tensors: what it does not capture is freed once
# the forward no longer uses it.

def add(a, b):
    a_shape, b_shape = a.values.shape, b.values.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)
    return _make(a.values + b.values, (a, b), grad_fn, "add")


def sub(a, b):
    a_shape, b_shape = a.values.shape, b.values.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), -_unbroadcast(g, b_shape)
    return _make(a.values - b.values, (a, b), grad_fn, "sub")


def mul(a, b):
    a_shape, b_shape = a.values.shape, b.values.shape
    # each operand is kept only for the other's gradient
    a_vals = a.values if b.requires_grad else None
    b_vals = b.values if a.requires_grad else None

    def grad_fn(g):
        return (None if b_vals is None else _unbroadcast(g * b_vals, a_shape),
                None if a_vals is None else _unbroadcast(g * a_vals, b_shape))
    return _make(a.values * b.values, (a, b), grad_fn, "mul")


def div(a, b):
    a_vals, b_vals = a.values, b.values

    def grad_fn(g):
        return (_unbroadcast(g / b_vals, a_vals.shape),
                _unbroadcast(-g * a_vals / (b_vals ** 2), b_vals.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = a_vals / b_vals
    return _make(vals, (a, b), grad_fn, "div")


def exp(a):
    out_vals = np.exp(a.values)

    def grad_fn(g):
        return (g * out_vals,)
    return _make(out_vals, (a,), grad_fn, "exp")


def relu(a):
    # maximum(-0.0, 0.0) is +0.0, as where(a > 0, a, 0.0) gives
    out_vals = np.maximum(a.values, 0.0)
    # out > 0 exactly where a > 0: a bool mask of the output, so the input
    # is not kept
    mask = out_vals > 0 if a.requires_grad else None

    def grad_fn(g):
        return (g * mask,)
    return _make(out_vals, (a,), grad_fn, "relu")


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
    shape = a.values.shape

    def grad_fn(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)
    return _make(a.values[idx], (a,), grad_fn, "take")


def total_sum(a, axis=None):
    """Sum of all entries, or over one axis or a tuple of axes."""
    shape = a.values.shape

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)
    return _make(a.values.sum(axis=axis), (a,), grad_fn, "sum")


def prod(a, axis):
    """Product over one axis.  Each entry's gradient is the product of
    the others, from exclusive prefix and suffix products (no division), so
    it stays exact where entries are 0."""
    a_vals = a.values

    def grad_fn(g):
        x = np.moveaxis(a_vals, axis, 0)
        before, after = np.ones_like(x), np.ones_like(x)
        np.cumprod(x[:-1], axis=0, out=before[1:])
        after[:-1] = np.cumprod(x[:0:-1], axis=0)[::-1]
        return (np.expand_dims(g, axis) * np.moveaxis(before * after, 0, axis),)
    return _make(a_vals.prod(axis=axis), (a,), grad_fn, "prod")


def matmul(a, b):
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.values.shape} @ {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: inner dims differ, {a.values.shape} @ {b.values.shape}")

    a_vals, b_vals = a.values, b.values

    def grad_fn(g):
        return g @ b_vals.T, a_vals.T @ g
    return _make(a_vals @ b_vals, (a, b), grad_fn, "matmul")


# -- neural-net primitives ---------------------------------------------------

def _pad_hw(x, pad):
    """Copy of (B,C,H,W) x with `pad` zeros on each side of H and W."""
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(x, k):
    """(B,C,H,W) -> patches (B,C,k,k,H,W) with same padding (k odd)."""
    win = np.lib.stride_tricks.sliding_window_view(_pad_hw(x, k // 2), (k, k),
                                                   axis=(2, 3))
    # win: (B, C, H, W, k, k) -> (B, C, k, k, H, W)
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))


def conv2d(x, weight):
    """Same-padding stride-1 2-D convolution; x (B,C,H,W), weight
    (Co,C,k,k).  The input gradient exists through a 1x1 kernel only: the
    one k>1 conv is the stem, whose input is the images."""
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
    if k > 1 and x.requires_grad:
        raise ShapeError(f"conv2d: no input gradient through a {k}x{k} kernel")
    b, _, h, w = x.values.shape
    cols = x.values if k == 1 else _im2col(x.values, k)
    cols_mat = cols.reshape(b, ci * k * k, h * w)
    w_mat = weight.values.reshape(co, ci * k * k)
    out = (w_mat @ cols_mat).reshape(b, co, h, w)
    need_x = x.requires_grad
    x_shape, w_shape = x.values.shape, weight.values.shape
    kept_cols = cols_mat if weight.requires_grad else None  # only dw reads it

    def grad_fn(g):
        g_mat = g.reshape(b, co, h * w)
        dx = dw = None
        if kept_cols is not None:
            # fold the batch into the contraction: one GEMM
            g2 = g_mat.transpose(1, 0, 2).reshape(co, b * h * w)
            c2 = kept_cols.transpose(1, 0, 2).reshape(ci * k * k, b * h * w)
            dw = (g2 @ c2.T).reshape(w_shape)
        if need_x:
            dx = np.matmul(w_mat.T[None], g_mat).reshape(x_shape)
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

    need_x = x.requires_grad
    w_shape, xp_shape = weight.values.shape, xp.shape
    kept_xp = xp if weight.requires_grad else None  # only dw reads it

    def grad_fn(g):
        dx = dw = None
        if kept_xp is not None:
            # Full batch, not sliced: numpy's sum over axes (0, 2, 3) adds in
            # an order that summing per slice does not reproduce bit for bit.
            # Each tap's product goes into one reused buffer.
            dw = np.empty(w_shape)
            buf = np.empty(g.shape)
            for di, dj, _, rows, cols in taps:
                dw[:, di, dj] = np.multiply(kept_xp[:, :, rows, cols], g,
                                            out=buf).sum(axis=(0, 2, 3))
        if need_x:
            dxp = np.zeros(xp_shape)
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

    need_x, need_beta = x.requires_grad, beta.requires_grad
    x_vals = x.values if gamma.requires_grad else None  # only dgamma reads it

    def grad_fn(g):
        return (g * gam if need_x else None,
                None if x_vals is None else (g * x_vals).sum(axis=(0, 2, 3)),
                g.sum(axis=(0, 2, 3)) if need_beta else None)
    return _make(out, (x, gamma, beta), grad_fn, "channel_affine")


def global_avg_pool(x):
    if x.values.ndim != 4:
        raise ShapeError(f"global_avg_pool expects (B,C,H,W), got {x.values.shape}")
    shape = x.values.shape
    h, w = shape[2:]

    def grad_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), shape),)
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


def _cross_entropy(logits, labels, op):
    """Each row's cross-entropy of logits (B,K) against int labels (B,),
    and its gradient in the logits: softmax minus one-hot.  Rows do not mix,
    so a row comes out the same in any batch."""
    if logits.values.ndim != 2:
        raise ShapeError(f"{op} expects (B,K) logits, got {logits.values.shape}")
    labels = np.asarray(labels)
    b = logits.values.shape[0]
    if labels.shape != (b,):
        raise ShapeError(f"{op}: labels shape {labels.shape} != ({b},)")
    rows = np.arange(b)
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    d = np.exp(shifted - log_z[:, None])
    d[rows, labels] -= 1.0
    return log_z - shifted[rows, labels], d


def cross_entropy_rows(logits, labels):
    """Per-row cross-entropy (B,); logits (B,K), labels int array (B,)."""
    losses, d = _cross_entropy(logits, labels, "cross_entropy_rows")

    def grad_fn(g):
        return (g[:, None] * d,)
    return _make(losses, (logits,), grad_fn, "cross_entropy_rows")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy; logits (B,K), labels int array (B,)."""
    losses, d = _cross_entropy(logits, labels, "softmax_cross_entropy")
    b = losses.shape[0]

    def grad_fn(g):
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
