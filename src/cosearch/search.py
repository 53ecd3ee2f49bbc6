"""The co-search driver.

Alternating descent: weight steps on the training half, then steps on the
fused objective (accuracy x performance + resource penalty) over the op
logits, bit-width logits and parallel factors on the validation half.
Afterwards the relaxed state is collapsed to a discrete design whose
parallel factors are re-tuned against the resource budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import data as datamod
from . import tensorcore as tc
from .costmodel import (CostError, CostHyperparams, CostModel, DeviceModel,
                        GpuLatencyTable, InfeasibleError)
from .supernet import SearchSpace, Supernet
from .tensorcore import NonFiniteError, Parameter, Tape, Tensor


class SearchError(Exception):
    pass


class SearchAbort(SearchError):
    def __init__(self, message, snapshot):
        super().__init__(message)
        self.snapshot = snapshot


# -- optimizers -----------------------------------------------------------------

def _grad_norm2(grad, owner):
    """Squared norm of a flat gradient, as one dot.  A NaN or inf in it
    raises, naming the optimizer, before any update arithmetic could warn;
    only a non-finite norm (which huge finite entries also give) pays for
    the entry-by-entry check."""
    with np.errstate(over="ignore"):
        norm2 = float(np.dot(grad, grad))
    if not math.isfinite(norm2) and not np.isfinite(grad).all():
        raise NonFiniteError(f"non-finite gradient reached '{owner}.step'")
    return norm2


class SGD:
    """Momentum SGD with global-norm clipping over one flat buffer of all
    its parameters (see tc.FlatParameters): one update per step.  The clip
    reads the norm of that buffer, one dot over every gradient entry."""

    def __init__(self, params, lr, momentum=0.0, clip_norm=5.0):
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._flat = tc.FlatParameters(list(params))
        self._vel = np.zeros_like(self._flat.values)

    def zero_grad(self):
        self._flat.grad[...] = 0.0

    def step(self):
        scale = 1.0
        grad = self._flat.grad
        norm = math.sqrt(_grad_norm2(grad, "SGD"))
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
        # A new velocity each step, not an in-place update: allocated while
        # the activations are live, it holds the heap top, so glibc does not
        # hand their memory back after every phase and fault it in again
        # (2.2M -> 0.13M page faults on a desk search).  Same bits either way.
        self._vel = self._vel * self.momentum + scale * grad
        self._flat.assign(self._flat.values - self.lr * self._vel)


class Adam:
    """Adam over one flat buffer of all its parameters; elementwise, so one
    update per step gives the bits of one update per parameter."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._flat = tc.FlatParameters(list(params))
        self._m = np.zeros_like(self._flat.values)
        self._v = np.zeros_like(self._flat.values)
        self._t = 0

    def zero_grad(self):
        self._flat.grad[...] = 0.0

    def step(self):
        b1, b2, grad = self.beta1, self.beta2, self._flat.grad
        _grad_norm2(grad, "Adam")
        self._t += 1
        self._m *= b1
        self._m += (1 - b1) * grad
        self._v *= b2
        self._v += (1 - b2) * grad ** 2
        m_hat = self._m / (1 - b1 ** self._t)
        v_hat = self._v / (1 - b2 ** self._t)
        self._flat.assign(self._flat.values
                          - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


# -- configuration ----------------------------------------------------------------

@dataclass
class SearchConfig:
    space: SearchSpace
    device: DeviceModel
    hyper: CostHyperparams = None
    data: datamod.DatasetSpec = None
    fractions: tuple = (0.4, 0.4, 0.2)
    epochs: int = 12
    steps_per_epoch: int = 12
    batch_size: int = 32
    lr_weights: float = 0.05
    momentum: float = 0.9
    lr_arch: float = 0.05
    lr_pf: float = 0.05
    tau_start: float = 5.0
    tau_end: float = 0.5
    seed: int = 1
    retune_steps: int = 400
    retune_lr: float = 0.03
    retrain_epochs: int = 15

    def __post_init__(self):
        if self.hyper is None:
            self.hyper = CostHyperparams(res_norm=self.device.default_res_norm)
        # the data the space is built for: its classes, image size, channels
        sp = self.space
        geometry = dict(num_classes=sp.num_classes, height=sp.input_hw[0],
                        width=sp.input_hw[1], channels=sp.input_channels)
        if self.data is None:
            self.data = datamod.DatasetSpec(**geometry)
        for name, want in geometry.items():
            if getattr(self.data, name) != want:
                raise SearchError(f"data.{name} is {getattr(self.data, name)}, "
                                  f"but the space expects {want}")
        if len(self.fractions) != 3:
            raise SearchError(f"fractions needs train, validation and test "
                              f"entries, got {list(self.fractions)}")
        datamod.check_fractions(self.fractions)
        for name, least in (("epochs", 1), ("steps_per_epoch", 1),
                            ("batch_size", 1), ("retrain_epochs", 1),
                            ("retune_steps", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise SearchError(f"{name} must be >= {least}, got {value}")
        for name in ("lr_weights", "lr_arch", "lr_pf", "retune_lr"):
            value = getattr(self, name)
            if not value > 0:
                raise SearchError(f"{name} must be > 0, got {value}")
        if not 0 <= self.momentum < 1:
            # outside [0, 1) the weights diverge to huge finite values
            raise SearchError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (self.tau_start >= self.tau_end > 0):
            raise SearchError(
                f"need tau_start >= tau_end > 0, got {self.tau_start}, {self.tau_end}")

    def tau_at(self, epoch) -> float:
        """Exponential anneal from tau_start to tau_end across the run."""
        if self.epochs == 1:
            return self.tau_start
        frac = epoch / (self.epochs - 1)
        return self.tau_start * (self.tau_end / self.tau_start) ** frac


@dataclass
class SearchState:
    config: SearchConfig
    supernet: Supernet
    costmodel: CostModel
    pf: Parameter  # None in gpu mode
    weight_opt: SGD
    arch_opt: Adam
    pf_opt: Adam  # None in gpu mode
    rng: np.random.Generator


def initialize(config: SearchConfig) -> SearchState:
    device = config.device
    net = Supernet(config.space, seed=config.seed,
                   shared_precision=device.shared_precision)
    cm = CostModel(config.space, device, config.hyper)
    pf0 = cm.initial_pf()
    pf = Parameter(pf0) if pf0 is not None else None
    cm.initial_perf_norm()
    arch_params = net.arch_parameters()
    return SearchState(
        config=config,
        supernet=net,
        costmodel=cm,
        pf=pf,
        weight_opt=SGD(net.weight_parameters(), lr=config.lr_weights,
                       momentum=config.momentum),
        arch_opt=Adam(arch_params, lr=config.lr_arch),
        pf_opt=Adam([pf], lr=config.lr_pf) if pf is not None else None,
        rng=np.random.default_rng(np.random.SeedSequence([config.seed, 0xb11e])),
    )


@dataclass
class StepMetrics:
    train_acc_loss: float
    val_acc_loss: float
    perf_loss: float
    resource: float
    total_loss: float


def bilevel_step(state: SearchState, train_batch, val_batch, tau) -> StepMetrics:
    """One alternation: weights on the training batch, then architecture and
    implementation variables on the fused validation objective."""
    net, cm, cfg = state.supernet, state.costmodel, state.config
    tr_x, tr_y = train_batch
    va_x, va_y = val_batch
    # Each phase freezes what it does not update.  Thread-safe under
    # `cosearch search --workers`: each seed owns its own Supernet.
    try:
        state.weight_opt.zero_grad()
        with Tape(frozen=net.arch_parameters()) as tape:
            train_loss = net.forward_train(tr_x, tr_y, tau, state.rng)
            tape.backward(train_loss)
        state.weight_opt.step()

        state.arch_opt.zero_grad()
        if state.pf_opt is not None:
            state.pf_opt.zero_grad()
        with Tape(frozen=net.weight_parameters()) as tape:
            val_acc = net.forward_train(va_x, va_y, tau, state.rng)
            cost = cm.assemble(net.theta, net.phi, state.pf, tau, rng=state.rng)
            total = cm.total_loss(val_acc, cost.perf_loss, cost.resource)
            tape.backward(total)
        state.arch_opt.step()
        if state.pf_opt is not None:
            state.pf_opt.step()
            state.pf.assign(np.clip(state.pf.values, 0.0, cfg.device.pf_max))
    except NonFiniteError as exc:
        raise SearchAbort(str(exc), snapshot={
            "theta_absmax": float(np.abs(net.theta.values).max()),
            "phi_absmax": float(np.abs(net.phi.values).max()),
            "pf": None if state.pf is None else state.pf.values.tolist(),
        }) from exc
    return StepMetrics(
        train_acc_loss=train_loss.item(),
        val_acc_loss=val_acc.item(),
        perf_loss=cost.perf_loss.item(),
        resource=cost.resource.item(),
        total_loss=total.item(),
    )


# -- discrete design ---------------------------------------------------------------

@dataclass
class DerivedDesign:
    device_kind: str
    op_indices: list
    bit_widths: list
    parallel_factors: list  # per block ints; None for gpu
    shared_precision: bool
    predicted: dict = field(default_factory=dict)

    @property
    def global_bit_width(self):
        return self.bit_widths[0] if self.shared_precision else None


def predict_discrete(space, device, ops, bits, pfs):
    """Exact metrics of a discrete design: the cost model at its one-hot
    weights, with perf_norm 1 so that block perfs are latencies.  A design
    outside `space` raises SpaceError naming the block.  One that `device`
    cannot run raises CostError naming the block: on the GPU a second
    bit-width or any parallel factor, on an FPGA a factor that is not an
    integer in [0, floor(pf_max)], the range the retune rounds into."""
    cm = CostModel(space, device)
    theta_w, phi_w = cm.vertex_weights(ops, bits)
    if device.kind == "gpu_table":
        for i, (b, pf) in enumerate(zip(bits, pfs or [None] * len(bits))):
            if pf is not None or b != bits[0]:
                raise CostError(f"block {i}: gpu_table runs every block at one "
                                f"bit-width and no parallel factor, got "
                                f"bit_width {b}, parallel factor {pf}")
    else:
        top = math.floor(device.pf_max)
        for i, pf in enumerate([None] * len(ops) if pfs is None else pfs):
            if type(pf) is not int or not 0 <= pf <= top:  # refuses a bool
                raise CostError(f"block {i}: parallel factor {pf} is not an "
                                f"integer in 0..{top}")
    pf = cm.layout_pfs(ops, pfs)
    out = cm.apply_pf(theta_w, cm.terms(theta_w, phi_w),
                      None if pf is None else Tensor(pf))
    lats = out.block_perfs_norm
    result = {
        "block_latencies": lats,
        "latency_total": float(sum(lats)),
        "latency_bottleneck": float(max(lats)),
        "resource": out.resource.item(),
        "resource_bound": None if pf is None else float(device.res_ub),
    }
    if device.kind == "fpga_pipelined":
        result["throughput"] = 1.0 / float(max(lats))
    return result


def derive_architecture(state: SearchState) -> DerivedDesign:
    """Collapse the relaxed state: argmax over ops, then bit-widths; round
    the parallel factors.  Ties go to the lower index.  The design comes
    unpriced: designs are priced only where they are reported (`run_search`
    after the FPGA retune, `cosearch eval`)."""
    net, space, device = state.supernet, state.config.space, state.config.device
    ops = [int(np.argmax(net.theta.values[i])) for i in range(space.num_blocks)]
    phi = net.phi.values
    bits = [space.quant.bit_widths[int(np.argmax(
        phi if net.shared_precision else phi[i, m]))] for i, m in enumerate(ops)]
    pfs = None
    if state.pf is not None:
        index = state.costmodel.pf_index(ops)
        pfs = np.rint(state.pf.values[index]).astype(int).tolist()
    return DerivedDesign(
        device_kind=device.kind,
        op_indices=ops,
        bit_widths=bits,
        parallel_factors=pfs,
        shared_precision=device.shared_precision,
    )


def retune_parallel_factors(designs, cm: CostModel,
                            steps=SearchConfig.retune_steps,
                            lr=SearchConfig.retune_lr) -> list:
    """Re-optimize the parallel factors of fixed discrete architectures
    against `cm`'s hyperparameters and perf_norm; `cm` is left as it was.
    Returns the tuned integer parallel factors of each design in `designs`,
    one list of ints per design, one int per block; nothing is priced.

    The cost terms come once from each design's one-hot weights.  The
    continuous descent on performance + penalty runs for all designs at
    once, one lane each, redoing only the pf half in the device's pf
    layout (unused IPs get no gradient); the loss is the sum over lanes,
    so each lane descends exactly as it would alone.  Then, per design,
    rounding and a greedy repair that lowers the factor with the least
    latency regret by one until the resource budget holds.  A design
    outside the space raises SpaceError naming the block; one infeasible
    at parallelism 1 raises InfeasibleError naming its ops and bits.
    """
    space, device, perf_norm = cm.space, cm.device, cm.perf_norm
    if device.kind == "gpu_table":
        raise SearchError("parallel factors exist only for FPGA devices")
    if not designs:
        return []
    weights = [cm.vertex_weights(d.op_indices, d.bit_widths) for d in designs]
    terms = [cm.terms(theta_w, phi_w) for theta_w, phi_w in weights]

    def lanes(arrays):  # L x N x M, or L x 1 x M for a per-op layout
        return Tensor(np.reshape(arrays, (len(arrays), -1, space.num_ops)))

    theta_l = lanes([theta_w.values for theta_w, _ in weights])
    terms_l = (lanes([lat.values for lat, _ in terms]),
               lanes([res.values for _, res in terms]))
    starts = [cm.layout_pfs(d.op_indices, d.parallel_factors) for d in designs]
    start = lanes(starts).values

    floor = cm.apply_pf(theta_l, terms_l, Tensor(np.zeros_like(start)))
    for design, res in zip(designs, floor.resource.values):
        if res > device.res_ub:
            raise InfeasibleError(
                f"ops {list(design.op_indices)} bits "
                f"{list(design.bit_widths)}: no "
                f"feasible parallel factors: resource is {res} even at "
                f"parallelism 1, bound is {device.res_ub}")

    pf = Parameter(start)
    opt = Adam([pf], lr=lr)
    for _ in range(steps):
        opt.zero_grad()
        with Tape() as tape:
            out = cm.apply_pf(theta_l, terms_l, pf)
            tape.backward((out.perf_loss + cm.penalty(out.resource)).sum())
        opt.step()
        pf.assign(np.clip(pf.values, 0.0, device.pf_max))
    rounded = np.clip(np.round(pf.values), 0, math.floor(device.pf_max))

    def latency(out):  # in cycles; the bottleneck for a throughput target
        lats = [p * perf_norm for p in out.block_perfs_norm]
        return max(lats) if device.perf_aggregation == "lse" else sum(lats)

    tuned = []
    for design, (theta_w, _), cost, ints, lane_start in zip(
            designs, weights, terms, rounded, starts):
        ints = ints.reshape(lane_start.shape)
        current = cm.apply_pf(theta_w, cost, Tensor(ints))
        while current.resource.item() > device.res_ub:
            best = None
            for slot in np.flatnonzero(ints):
                trial = ints.copy()
                trial.flat[slot] -= 1
                out = cm.apply_pf(theta_w, cost, Tensor(trial))
                if out.resource.item() >= current.resource.item():
                    continue  # a resource-free IP: no help to the budget
                regret = latency(out) - latency(current)
                if best is None or regret < best[0] - 1e-15:
                    best = (regret, trial, out)
            if best is None:
                raise InfeasibleError(
                    f"ops {list(design.op_indices)} bits "
                    f"{list(design.bit_widths)}: "
                    f"cannot repair parallel factors below resource bound "
                    f"{device.res_ub}")
            _, ints, current = best
        tuned.append(ints[cm.pf_index(design.op_indices)].astype(int).tolist())
    return tuned


def retune_impl(design: DerivedDesign, state: SearchState) -> DerivedDesign:
    """`design` with its parallel factors retuned on the search's model."""
    cfg = state.config
    (pfs,) = retune_parallel_factors([design], state.costmodel,
                                     steps=cfg.retune_steps, lr=cfg.retune_lr)
    return replace(design, parallel_factors=pfs)


# -- full runs ---------------------------------------------------------------------

def map_workers(fn, items, workers=1):
    """[fn(item) for item in items], on `workers` threads when above 1.
    Each thread records on its own tape (tensorcore keeps tapes per
    thread), so callers keep results independent of `workers` by giving
    every item its own state and generators."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass
class SearchReport:
    config: dict
    config_hash: str
    seed: int
    epochs: list
    design: DerivedDesign
    aborted: dict = None
    wall_clock_seconds: float = 0.0  # informational; not serialized canonically


def run_search(config: SearchConfig, dataset=None) -> SearchReport:
    """initialize -> epochs x bilevel steps (annealed tau) -> derive ->
    re-tune.  Returns the trajectory and the final design; on numerical
    abort the partial trajectory is preserved on the raised error."""
    started = time.perf_counter()
    if dataset is None:
        dataset = datamod.generate_dataset(config.data)
    train, val, _ = datamod.split(dataset, config.fractions, config.data.seed)
    state = initialize(config)
    batch_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, 0xda7a]))
    epoch_rows = []
    aborted = None
    for epoch in range(config.epochs):
        tau = config.tau_at(epoch)
        tr = datamod.batches(train, config.batch_size, batch_rng)
        va = datamod.batches(val, config.batch_size, batch_rng)
        sums = np.zeros(5)
        steps = 0
        try:
            for _ in range(config.steps_per_epoch):
                tr_b = next(tr, None)
                va_b = next(va, None)
                if tr_b is None or va_b is None:
                    break
                m = bilevel_step(state, tr_b, va_b, tau)
                sums += (m.train_acc_loss, m.val_acc_loss, m.perf_loss,
                         m.resource, m.total_loss)
                steps += 1
        except SearchAbort as exc:
            aborted = {"epoch": epoch, "reason": str(exc),
                       "snapshot": exc.snapshot}
            break
        if steps == 0:
            raise SearchError(
                f"no batches available (dataset too small for batch size "
                f"{config.batch_size})")
        epoch_rows.append({
            "epoch": epoch,
            "tau": tau,
            "train_acc_loss": float(sums[0] / steps),
            "val_acc_loss": float(sums[1] / steps),
            "perf_loss": float(sums[2] / steps),
            "resource": float(sums[3] / steps),
            "total_loss": float(sums[4] / steps),
        })
    design = None
    if aborted is None:
        design = derive_architecture(state)
        if state.pf is not None:
            design = retune_impl(design, state)
        design.predicted = predict_discrete(
            config.space, config.device, design.op_indices, design.bit_widths,
            design.parallel_factors)
    return SearchReport(
        config=config_to_dict(config),
        config_hash=config_hash(config),
        seed=config.seed,
        epochs=epoch_rows,
        design=design,
        aborted=aborted,
        wall_clock_seconds=time.perf_counter() - started,
    )


def train_path(net: Supernet, design, train, steps, batch_size, lr, momentum,
               rng):
    """`steps` momentum-SGD steps of the fixed path `design` on shuffled
    batches of `train`, one permutation drawn per epoch started."""
    opt = SGD(net.weight_parameters(), lr=lr, momentum=momentum)
    done = 0
    while done < steps:
        for images, labels in datamod.batches(train, batch_size, rng):
            opt.zero_grad()
            with Tape() as tape:
                tape.backward(net.infer_loss(design, images, labels))
            opt.step()
            done += 1
            if done == steps:
                break


def retrain_design(design: DerivedDesign, config: SearchConfig, dataset=None,
                   epochs=None, seed_salt=0x7e7a):
    """Train the fixed derived path from scratch; returns (net, metrics)."""
    if dataset is None:
        dataset = datamod.generate_dataset(config.data)
    train, val, test = datamod.split(dataset, config.fractions, config.data.seed)
    epochs = config.retrain_epochs if epochs is None else epochs
    if epochs < 1:
        raise SearchError(f"retrain epochs must be >= 1, got {epochs}")
    net = Supernet(config.space, seed=int(config.seed) + seed_salt)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, seed_salt]))
    steps = epochs * math.ceil(len(train) / config.batch_size)
    train_path(net, design, train, steps, config.batch_size, config.lr_weights,
               config.momentum, rng)
    val_accuracy, val_loss = heldout(net, design, val, config.batch_size)
    test_accuracy, _ = heldout(net, design, test, config.batch_size)
    metrics = {
        "val_accuracy": val_accuracy,
        "test_accuracy": test_accuracy,
        "val_loss": val_loss,
    }
    return net, metrics


def heldout(net: Supernet, design, dataset, batch_size):
    """(accuracy, mean cross-entropy) of the fixed path `design` on
    `dataset`, forwarded in chunks of the run's training `batch_size`, so
    memory stays at one batch's.  Both are bitwise the whole set's in one
    forward: rows do not mix, and no chunk has one row unless the set does
    (a one-row head matmul takes another BLAS path, with other bits)."""
    n = len(dataset)
    starts = list(range(0, n, max(batch_size, 2)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # the one-row tail joins the chunk before it
    hits = 0
    losses = []
    for lo, hi in zip(starts, starts[1:] + [n]):
        labels = dataset.labels[lo:hi]
        logits = net.forward_infer(design, dataset.images[lo:hi])
        hits += int((np.argmax(logits.values, axis=1) == labels).sum())
        losses.append(tc.cross_entropy_rows(logits, labels).values)
    return hits / n, float(np.concatenate(losses).mean())


# -- config serialization (echoed into every report) ---------------------------------

def config_to_dict(value):
    """The config tree as plain data under its field names: dataclasses as
    mappings, tuples as lists, the GPU latency table as its mapping."""
    if is_dataclass(value):
        return {f.name: config_to_dict(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [config_to_dict(v) for v in value]
    if isinstance(value, GpuLatencyTable):
        return value.to_mapping()
    return value


def config_hash(config: SearchConfig) -> str:
    """Content hash identifying the space/device/protocol.

    The run seed is excluded so reports from different seeds can be compared
    against one oracle ranking of the same configuration.
    """
    doc = config_to_dict(config)
    del doc["seed"]
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()
