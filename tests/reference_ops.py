"""Tape primitives that only the tests use: the scalar reference models
build on `stack`, and `tanh` is kept as one more primitive for the
gradient checks.  They record onto the tape like the ones in
`cosearch.tensorcore`."""

import numpy as np

from cosearch import tensorcore as tc


def tanh(a):
    out_vals = np.tanh(a.values)

    def grad_fn(g):
        return (g * (1.0 - out_vals ** 2),)
    return tc._make(out_vals, (a,), grad_fn, "tanh")


def stack(tensors):
    tensors = list(tensors)
    if not tensors:
        raise tc.ShapeError("stack: empty input")

    def grad_fn(g):
        return tuple(g[i] for i in range(len(tensors)))
    return tc._make(np.stack([t.values for t in tensors]), tuple(tensors),
                    grad_fn, "stack")
