"""Outside-in tracing of the cosearch modules, without touching their code.

Every layer is a module of the package.  `Tracer.install` replaces the
public functions and methods of each module with timing wrappers by
monkeypatching module and class attributes, and `patch_function` replaces
a function under every name the package imports it by (``oracle`` imports
``retune_parallel_factors`` from ``search``, ``cli`` imports ``run_search``,
and so on), so a call is caught whichever module makes it.

Each wrapped call opens a frame on one stack; when it closes, its duration
minus the time of the frames nested in it is its self time.  Calls of the
``tensorcore`` primitives run by the hundred thousand, so they are kept only
as per-name totals; every other call is also kept as a span (name, start,
end, parent, tape nodes recorded inside) in memory and written out when the
run ends.  The gradient closure a primitive records on the tape is wrapped
too, so backward time is charged to the primitive that recorded it.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from array import array

LAYERS = ("tensorcore", "supernet", "costmodel", "search", "oracle", "data",
          "cli")

# Private helpers that a per-layer metric needs as a span of its own.
PRIVATE_SPANS = {"oracle": ("_train_acc_loss",)}

# Tape plumbing and a test helper rather than primitives; Tape and Tensor get
# their own hooks below.
TC_SKIP = {"active_tape", "finite_diff_check", "Tape", "Tensor"}

# The primitives whose calls, self times and output sizes are reported.
PRIMITIVES = ("depthwise_conv2d", "conv2d", "channel_affine", "relu", "mul",
              "add", "take", "total_sum", "div", "softmax", "pow2",
              "softmax_cross_entropy")

# metric -> span whose inclusive seconds it reports
INCLUSIVE = {
    "supernet.forward_train_s": "supernet.Supernet.forward_train",
    "supernet.infer_loss_s": "supernet.Supernet.infer_loss",
    "supernet.fake_quantize_s": "supernet.fake_quantize",
    "supernet.init_s": "supernet.Supernet.__init__",
    "costmodel.assemble_s": "costmodel.CostModel.assemble",
    "search.sgd_step_s": "search.SGD.step",
    "search.adam_step_s": "search.Adam.step",
    "search.retune_s": "search.retune_impl",
    "search.retrain_s": "search.retrain_design",
    "oracle.train_acc_s": "oracle._train_acc_loss",
    "oracle.exact_costs_s": "oracle.exact_vertex_costs",
    "data.generate_s": "data.generate_dataset",
    "data.split_s": "data.split",
    "data.batches_s": "data.batches",
    "cli.load_config_s": "cli.load_config_file",
    "cli.write_json_s": "cli.write_json",
}


def patch_function(modules, owner, attr, make_wrapper, undo):
    """Replace `owner.attr` under every name that `modules` bind it to."""
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, name, value))
                setattr(mod, name, wrapper)
    return wrapper


def _defined_in(fn, mod):
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == mod.__file__


class Tracer:
    """Exclusive-time accounting: whenever a wrapped call starts or ends,
    the time since the last such switch is charged to the innermost open
    call, so each name's total is its self time."""

    def __init__(self):
        # per name: [calls, self seconds, output elements, backward slot]
        self.stats = {}
        root = [0, 0.0, 0, None]
        self.stack = [root]  # stats of the open calls, innermost last
        self.span_stack = [-1]  # indices of the open spans
        # Spans as columns: name index, start, end, parent span, tape nodes
        # recorded inside.  Flat arrays hold no Python objects, so the
        # cyclic garbage collector never walks them; a list of per-span
        # lists made every full collection slower as the run went on.
        self.span_names = []
        self.columns = (array("i"), array("d"), array("d"), array("q"),
                        array("q"))
        self.counts = [0, 0]  # tape nodes recorded, tensors constructed
        self.mark = [time.perf_counter()]
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name, primitive=False):
        stat = self.stats.get(name)
        if stat is None:
            bwd = self._stat(name + ".bwd") if primitive else None
            stat = self.stats[name] = [0, 0.0, 0, bwd]
        return stat

    def _frame(self, stat, fn, primitive=False):
        """`fn` as a call charged to `stat`, without a span: the tensorcore
        primitives, `Tape.backward` and the recorded gradient closures."""
        stack, mark, clock = self.stack, self.mark, time.perf_counter

        def timed(*args, **kwargs):
            now = clock()
            stack[-1][1] += now - mark[0]
            stack.append(stat)
            mark[0] = now
            try:
                out = fn(*args, **kwargs)
            finally:
                now = clock()
                stat[1] += now - mark[0]
                stat[0] += 1
                stack.pop()
                mark[0] = now
            if primitive:
                stat[2] += out.values.size
            return out
        return timed

    def _span(self, name, fn):
        """`fn` as a call charged to `name` that is also kept as a span."""
        stack, span_stack = self.stack, self.span_stack
        mark, counts, clock = self.mark, self.counts, time.perf_counter
        names, starts, ends, parents, nodes = self.columns
        stat = self._stat(name)
        name_id = len(self.span_names)
        self.span_names.append(name)

        def enter():
            now = clock()
            stack[-1][1] += now - mark[0]
            stack.append(stat)
            mark[0] = now
            span_stack.append(len(starts))
            names.append(name_id)
            starts.append(now)
            ends.append(0.0)
            parents.append(span_stack[-2])
            nodes.append(counts[0])

        def leave():
            now = clock()
            stat[1] += now - mark[0]
            stat[0] += 1
            stack.pop()
            mark[0] = now
            idx = span_stack.pop()
            ends[idx] = now
            nodes[idx] = counts[0] - nodes[idx]

        if inspect.isgeneratorfunction(fn):
            # each resumption is one call; time between yields is the caller's
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    yield item
        else:
            def wrapper(*args, **kwargs):
                enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_class(self, layer, cls, mod):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif isinstance(raw, types.FunctionType):
                fn, rewrap = raw, None
            else:
                continue  # properties and plain class attributes
            if not _defined_in(fn, mod):
                continue  # e.g. a dataclass-generated __init__
            wrapped = self._span(f"{layer}.{cls.__name__}.{attr}", fn)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, rewrap(wrapped) if rewrap else wrapped)

    def install(self, package_modules):
        """Wrap every layer; `package_modules` maps layer name -> module."""
        mods = list(package_modules.values())
        for layer, mod in package_modules.items():
            private = PRIVATE_SPANS.get(layer, ())
            primitive = layer == "tensorcore"
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    # tensorcore's classes are the tape machinery, hooked
                    # below only where a metric needs them
                    if not primitive:
                        self._wrap_class(layer, obj, mod)
                    continue
                if not isinstance(obj, types.FunctionType) \
                        or not _defined_in(obj, mod):
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                if primitive and attr in TC_SKIP:
                    continue
                name = f"{layer}.{attr}"
                if primitive:
                    make = (lambda fn, name=name: self._frame(
                        self._stat(name, primitive=True), fn, primitive=True))
                else:
                    make = lambda fn, name=name: self._span(name, fn)
                patch_function(mods, mod, attr, make, self._undo)
        self._hook_tape(package_modules["tensorcore"])

    def _hook_tape(self, tc):
        stack, counts, frame = self.stack, self.counts, self._frame
        orig_record, orig_init = tc.Tape.record, tc.Tensor.__init__

        def record(tape, out, inputs, grad_fn):
            counts[0] += 1
            bwd = stack[-1][3]  # set when a primitive is the innermost call
            if bwd is not None:
                grad_fn = frame(bwd, grad_fn)
            return orig_record(tape, out, inputs, grad_fn)

        def init(obj, values, requires_grad=False, _op="tensor"):
            counts[1] += 1
            orig_init(obj, values, requires_grad, _op)

        backward = frame(self._stat("tensorcore.backward"), tc.Tape.backward)
        for cls, attr, new in ((tc.Tape, "record", record),
                               (tc.Tape, "backward", backward),
                               (tc.Tensor, "__init__", init)):
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, new)

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    @property
    def spans(self):
        """The spans as (name, start, end, parent, tape nodes) tuples."""
        names, starts, ends, parents, nodes = self.columns
        return [(self.span_names[n], s, e, p, k)
                for n, s, e, p, k in zip(names, starts, ends, parents, nodes)]

    def self_seconds(self):
        """name -> self seconds so far (for per-operation deltas)."""
        return {name: st[1] for name, st in self.stats.items()}

    def layer_metrics(self):
        """The per-layer metrics of the run, as name -> (value, unit)."""
        out = {}
        for op in PRIMITIVES:
            name = f"tensorcore.{op}"
            calls, fwd, elems, _ = self.stats.get(name, (0, 0.0, 0, None))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.fwd_s"] = (fwd, "s")
            out[f"{name}.bwd_s"] = (
                self.stats.get(name + ".bwd", (0, 0.0))[1], "s")
            out[f"{name}.out_elems"] = (elems, "count")
        out["tensorcore.tape_nodes"] = (self.counts[0], "count")
        out["tensorcore.tensors"] = (self.counts[1], "count")
        out["tensorcore.backward_self_s"] = (
            self.stats.get("tensorcore.backward", (0, 0.0))[1], "s")
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = (
                sum(st[1] for n, st in self.stats.items()
                    if n.startswith(prefix)), "s")

        spans = self.spans
        incl = {}
        nodes = {}
        for name, start, end, _, n in spans:
            incl[name] = incl.get(name, 0.0) + (end - start)
            nodes[name] = nodes.get(name, 0) + n
        for metric, span in INCLUSIVE.items():
            out[metric] = (incl.get(span, 0.0), "s")
        calls = self.stats.get("costmodel.CostModel.assemble", (0, 0.0))[0]
        per_call = nodes.get("costmodel.CostModel.assemble", 0) / calls \
            if calls else 0
        out["costmodel.assemble_nodes"] = (per_call, "count")

        weight = arch = retune = 0.0
        sgd_end = {}
        for name, start, end, parent, _ in spans:
            if name == "search.SGD.step" and parent >= 0 \
                    and spans[parent][0] == "search.bilevel_step":
                sgd_end[parent] = end
            elif name == "search.retune_parallel_factors" and parent >= 0 \
                    and spans[parent][0] == "oracle.evaluate_config_exact":
                retune += end - start
        for idx, end in sgd_end.items():
            _, start, stop, _, _ = spans[idx]
            weight += end - start
            arch += stop - end
        out["search.weight_phase_s"] = (weight, "s")
        out["search.arch_phase_s"] = (arch, "s")
        out["oracle.retune_s"] = (retune, "s")
        return out

    def check_spans(self):
        """Problems with the recorded spans: unclosed, badly nested, or a
        negative self time."""
        problems = []
        spans = self.spans
        child_sum = [0.0] * len(spans)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            if end < start:
                problems.append(f"span {idx} {name} ends before it starts")
            if parent >= 0:
                p = spans[parent]
                if not (p[1] <= start and end <= p[2]):
                    problems.append(f"span {idx} {name} is outside its "
                                    f"parent {p[0]}")
                child_sum[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(spans):
            if (end - start) - child_sum[idx] < -1e-9:
                problems.append(f"span {idx} {name} has negative self time")
        for name, (_, self_s, _, _) in self.stats.items():
            if self_s < -1e-9:
                problems.append(f"{name} has negative self time {self_s}")
        return problems

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, n in self.spans:
                fh.write(json.dumps([name, start, end, parent, n]) + "\n")

