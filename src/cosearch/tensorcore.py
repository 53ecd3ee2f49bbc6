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

    Non-finite values are rejected at creation (`_op=None`: the primitive
    checked them) so a diverging run fails at the op that produced the
    NaN/Inf, not ten steps later.  `node` names the tensor on a tape.
    """

    __slots__ = ("values", "requires_grad", "grad", "node")

    def __init__(self, values, requires_grad=False, _op="tensor"):
        arr = np.asarray(values, dtype=np.float64)
        if _op is not None:
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
    a_shape = a.values.shape if a.requires_grad else None
    b_shape = b.values.shape if b.requires_grad else None

    def grad_fn(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else -_unbroadcast(g, b_shape))
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
    b_vals = b.values
    a_shape = a.values.shape if a.requires_grad else None
    a_vals = a.values if b.requires_grad else None  # only b's gradient reads it

    def grad_fn(g):
        return (None if a_shape is None else _unbroadcast(g / b_vals, a_shape),
                None if a_vals is None
                else _unbroadcast(-g * a_vals / (b_vals ** 2), b_vals.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = a.values / b_vals
    return _make(vals, (a, b), grad_fn, "div")


def exp(a):
    out_vals = np.exp(a.values)

    def grad_fn(g):
        return (g * out_vals,)
    return _make(out_vals, (a,), grad_fn, "exp")


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


# -- neural-net primitives on (C, H, W, B) activations, batch innermost -----

def _padded(a, pad, b):
    """Zeros (C, H + 2*pad, W + 2*pad, b) holding the (C, H, W, B <= b)
    array a: `pad` zeros around each image, then b - B zero samples."""
    c, h, w, n = a.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad, b))
    out[:, pad:pad + h, pad:pad + w, :n] = a
    return out


def _taps(a, top, left, rows, cols, kh, kw, stride, step):
    """Read-only (C, kh, kw, rows, cols, B) view of the tap windows of a
    contiguous (C, H, W, B) array a: [c, i, j, y, x] reads
    a[c, top + stride*y + step*i, left + stride*x + step*j].  numpy refuses
    a view that reaches outside a's buffer.  (With as_strided instead, a
    wide-space search ended holding about 0.9 MB more heap.)"""
    sc, sh, sw, sb = a.strides
    v = np.ndarray((a.shape[0], kh, kw, rows, cols, a.shape[3]), a.dtype, a,
                   top * sh + left * sw,
                   (sc, step * sh, step * sw, stride * sh, stride * sw, sb))
    v.flags.writeable = False
    return v


def _gemm(a, m):
    """a @ m on m's columns zero-padded to a multiple of 16.  BLAS sums a
    ragged last block of columns in another order (OpenBLAS on x86: one to
    four), so a sample's bits would otherwise follow the batch size."""
    n = m.shape[1]
    if n % 16:
        m = np.concatenate((m, np.zeros((m.shape[0], -n % 16))), axis=1)
    return (a @ m)[:, :n]


def conv2d(x, weight):
    """Same-padding stride-1 2-D convolution; x (C,H,W,B), weight
    (Co,C,k,k), as one GEMM over the whole batch.  The input gradient
    exists through a 1x1 kernel only: the one k>1 conv is the stem, whose
    input is the images."""
    if x.values.ndim != 4 or weight.values.ndim != 4:
        raise ShapeError(
            f"conv2d expects 4-D input/weight, got {x.values.shape} and "
            f"{weight.values.shape}")
    co, ci, k, k2 = weight.values.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"conv2d: kernel must be square and odd, got {k}x{k2}")
    if x.values.shape[0] != ci:
        raise ShapeError(
            f"conv2d: input has {x.values.shape[0]} channels, weight expects {ci}")
    if k > 1 and x.requires_grad:
        raise ShapeError(f"conv2d: no input gradient through a {k}x{k} kernel")
    _, h, w, b = x.values.shape
    cols = (x.values if k == 1 else  # the stem's (C, k, k, H, W, B) patches
            _taps(_padded(x.values, k // 2, b), 0, 0, h, w, k, k, 1, 1)
            ).reshape(ci * k * k, -1)
    w_mat = weight.values.reshape(co, -1)
    need_x = x.requires_grad
    kept_cols = cols if weight.requires_grad else None  # only dw reads it

    def grad_fn(g):
        g_mat = g.reshape(co, -1)
        return (_gemm(w_mat.T, g_mat).reshape(ci, h, w, b) if need_x else None,
                None if kept_cols is None
                else (g_mat @ kept_cols.T).reshape(co, ci, k, k))
    return _make(_gemm(w_mat, cols).reshape(co, h, w, b), (x, weight), grad_fn,
                 "conv2d")


def _tap_sum(a, top, left, wv, rows, cols, stride, step):
    """(C, rows, cols, B): the windows of _taps(a, ...) times their weight
    taps wv (C, kh, kw), each element adding its taps in (i, j) order from
    0.0."""
    v = _taps(a, top, left, rows, cols, wv.shape[1], wv.shape[2], stride, step)
    if stride == 1:
        # a tap's row is then one run of cols*B values, which einsum takes
        # as one inner loop: about 3x faster than B values at a time
        v = v.reshape(v.shape[:4] + (cols * a.shape[3],))
    return np.einsum("cij...,cij->c...", v, wv).reshape(
        a.shape[0], rows, cols, a.shape[3])


def depthwise_conv2d(x, weight, stride=1):
    """Same-padding depthwise conv; x (C,H,W,B), weight (C,k,k).

    Each pass is one np.einsum over a strided tap view of a zero-padded
    copy of its input.  einsum adds each output and input-gradient
    element's taps in (di, dj) order from 0.0, like a per-tap loop: the
    input gradient reads a padded g through negative tap strides, one
    einsum per output parity class at stride 2, and its padding adds only
    +-0.0.  With one sample, numpy's iterator drops the batch axis and sums
    the taps in another order, so those two passes run on a zero second
    sample.  The weight gradient is einsum's own sum over (ho, wo, B) of
    the same padded x and g, an order fixed by the shapes.
    """
    if x.values.ndim != 4 or weight.values.ndim != 3:
        raise ShapeError(
            f"depthwise_conv2d expects 4-D input and 3-D weight, got "
            f"{x.values.shape} and {weight.values.shape}")
    c, k, k2 = weight.values.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"depthwise_conv2d: kernel must be square and odd, got {k}x{k2}")
    if x.values.shape[0] != c:
        raise ShapeError(
            f"depthwise_conv2d: input has {x.values.shape[0]} channels, weight has {c}")
    pad = k // 2
    _, h, w, b = x.values.shape
    bq = max(b, 2)
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    wv = weight.values
    xt = _padded(x.values, pad, bq)
    out = _tap_sum(xt, 0, 0, wv, ho, wo, stride, 1)[..., :b]
    need_x = x.requires_grad
    kept_xt = xt if weight.requires_grad else None  # only dw reads it

    def grad_fn(g):
        gp = _padded(g, pad, bq)
        # taps di = d0, d0 + stride, ... reach rows py, py + stride, ...; at
        # stride 1 the one parity class is all of dx
        dx = np.empty((c, h, w, bq)) if need_x and stride > 1 else None
        for py in range(stride if need_x else 0):
            d0 = (py + pad) % stride
            for px in range(stride):
                e0 = (px + pad) % stride
                d = _tap_sum(gp, (py + pad - d0) // stride + pad,
                             (px + pad - e0) // stride + pad,
                             wv[:, d0::stride, e0::stride],
                             len(range(py, h, stride)),
                             len(range(px, w, stride)), 1, -1)
                if stride == 1:
                    dx = d
                else:
                    dx[:, py::stride, px::stride] = d
        dw = None if kept_xt is None else np.einsum(
            "cijhwb,chwb->cij", _taps(kept_xt, 0, 0, ho, wo, k, k, stride, 1),
            gp[:, pad:pad + ho, pad:pad + wo])
        return None if dx is None else dx[..., :b], dw
    return _make(out, (x, weight), grad_fn, "depthwise_conv2d")


def affine_relu(x, gamma, beta):
    """relu(x * gamma + beta) with per-channel gamma and beta on (C,H,W,B):
    the fixed-stats norm stand-in and its activation as one node."""
    c = x.values.shape[0]
    if gamma.values.shape != (c,) or beta.values.shape != (c,):
        raise ShapeError(
            f"affine_relu: need per-channel params of shape ({c},), got "
            f"{gamma.values.shape} and {beta.values.shape}")
    gam = gamma.values.reshape(c, 1, 1, 1)
    out = x.values * gam
    out += beta.values.reshape(c, 1, 1, 1)
    # checked before the relu would clip a -inf; the output, max(finite,
    # 0), needs no second check.  maximum(-0.0, 0.0) is +0.0.
    _check_finite(out, "affine_relu")
    np.maximum(out, 0.0, out=out)
    need_x, need_beta = x.requires_grad, beta.requires_grad
    x_vals = x.values if gamma.requires_grad else None  # only dgamma reads it
    # out > 0 exactly where x * gamma + beta > 0; built for a tape only
    mask = out > 0 if active_tape() is not None and (
        need_x or need_beta or x_vals is not None) else None

    def grad_fn(g):
        gm = g * mask
        return (gm * gam if need_x else None,
                None if x_vals is None else (gm * x_vals).sum(axis=(1, 2, 3)),
                gm.sum(axis=(1, 2, 3)) if need_beta else None)
    return _make(out, (x, gamma, beta), grad_fn, None)


def global_avg_pool(x):
    """(C,H,W,B) -> (B,C): each mean adds its H*W terms in row order.  With
    one sample numpy's iterator drops the batch axis and sums pairwise, so
    that case runs on a zero second sample."""
    if x.values.ndim != 4:
        raise ShapeError(f"global_avg_pool expects (C,H,W,B), got {x.values.shape}")
    c, h, w, b = x.values.shape
    xs = x.values if b > 1 else _padded(x.values, 0, 2)

    def grad_fn(g):
        return (np.broadcast_to(g.T[:, None, None] / (h * w), (c, h, w, b)),)
    return _make(xs.mean(axis=(1, 2))[:, :b].T, (x,), grad_fn, "global_avg_pool")


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
    the plain tempered softmax.  Each row comes out exactly as that row
    alone, with its uniforms, would.
    """
    if tau <= 0:
        raise ValueError(f"gumbel_softmax: tau must be positive, got {tau}")
    z = logits
    if u is not None:
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        z = z + Tensor(-np.log(-np.log(u)))
    return softmax(z / Tensor(float(tau)))


def gumbel_hard_rows(logits, tau, u):
    """Hard sample of each row of `logits` from the uniforms `u`: one-hot
    at the row's argmax forward, while gradients follow the soft weights
    (straight-through)."""
    soft = gumbel_softmax_rows(logits, tau, u)
    picks = soft.values.argmax(axis=-1)[..., None]
    return straight_through(soft, np.arange(soft.values.shape[-1]) == picks)


def straight_through(x, forward_values):
    """Tensor whose forward value is `forward_values` but whose gradient
    passes to x unchanged."""
    forward_values = np.asarray(forward_values, dtype=np.float64)
    if forward_values.shape != x.values.shape:
        raise ShapeError(
            f"straight_through: forward shape {forward_values.shape} != "
            f"{x.values.shape}")
    return x + Tensor(forward_values - x.values)
