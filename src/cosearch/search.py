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
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import data as datamod
from . import tensorcore as tc
from .costmodel import (CostHyperparams, CostModel, DeviceModel,
                        GpuLatencyTable, op_work, phi_cal, psi)
from .supernet import SearchSpace, Supernet
from .tensorcore import NonFiniteError, Parameter, Tape, Tensor


class SearchError(Exception):
    pass


class InfeasibleError(SearchError):
    pass


class SearchAbort(SearchError):
    def __init__(self, message, snapshot):
        super().__init__(message)
        self.snapshot = snapshot


# -- optimizers -----------------------------------------------------------------

class SGD:
    def __init__(self, params, lr, momentum=0.0, clip_norm=5.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._vel = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        scale = 1.0
        if self.clip_norm is not None:
            total = math.sqrt(sum(float((p.grad ** 2).sum())
                                  for p in self.params))
            if total > self.clip_norm:
                scale = self.clip_norm / total
        for p, v in zip(self.params, self._vel):
            v *= self.momentum
            v += scale * p.grad
            p.assign(p.values - self.lr * v)


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            p.assign(p.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


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
        if self.data is None:
            self.data = datamod.DatasetSpec(num_classes=self.space.num_classes)
        if self.epochs < 1:
            raise SearchError(f"epochs must be >= 1, got {self.epochs}")
        if min(self.lr_weights, self.lr_arch, self.lr_pf) <= 0:
            raise SearchError("learning rates must be positive")
        if not (self.tau_start >= self.tau_end > 0):
            raise SearchError(
                f"need tau_start >= tau_end > 0, got {self.tau_start}, {self.tau_end}")

    def tau_at(self, epoch) -> float:
        """Exponential anneal from tau_start to tau_end across the run."""
        if self.epochs == 1:
            return self.tau_start
        frac = epoch / (self.epochs - 1)
        return self.tau_start * (self.tau_end / self.tau_start) ** frac


def initial_parallel_factors(device: DeviceModel, space: SearchSpace):
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
    pf0 = initial_parallel_factors(device, config.space)
    pf = Parameter(pf0) if pf0 is not None else None
    cm.initial_perf_norm(pf0)
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
    """Exact (no sampling-weight) metrics of a discrete design."""
    n = space.num_blocks
    if device.kind == "gpu_table":
        lats = [device.table.lookup(ops[i], bits[i]) for i in range(n)]
        return {
            "block_latencies": lats,
            "latency_total": float(sum(lats)),
            "latency_bottleneck": float(max(lats)),
            "resource": 0.0,
            "resource_bound": None,
        }
    lats = [phi_cal(bits[i]) * op_work(space, i, ops[i]) * 2.0 ** -pfs[i]
            for i in range(n)]
    if device.kind == "fpga_recursive":
        res = 0.0
        for m in sorted(set(ops)):
            users = [i for i in range(n) if ops[i] == m]
            res += max(psi(bits[i]) for i in users) * 2.0 ** pfs[users[0]]
    else:
        res = sum(psi(bits[i]) * 2.0 ** pfs[i] for i in range(n))
    out = {
        "block_latencies": lats,
        "latency_total": float(sum(lats)),
        "latency_bottleneck": float(max(lats)),
        "resource": float(res),
        "resource_bound": float(device.res_ub),
    }
    if device.kind == "fpga_pipelined":
        out["throughput"] = 1.0 / float(max(lats))
    return out


def derive_architecture(state: SearchState) -> DerivedDesign:
    """Collapse the relaxed state: argmax over ops, then bit-widths; round
    the parallel factors.  Ties go to the lower index."""
    net, space, device = state.supernet, state.config.space, state.config.device
    ops = [int(np.argmax(net.theta.values[i])) for i in range(space.num_blocks)]
    bits = [space.quant.bit_widths[net.phi.argmax(i, ops[i])]
            for i in range(space.num_blocks)]
    if device.kind == "gpu_table":
        pfs = None
    elif device.kind == "fpga_recursive":
        pfs = [int(round(state.pf.values[ops[i]])) for i in range(space.num_blocks)]
    else:
        pfs = [int(round(state.pf.values[i, ops[i]]))
               for i in range(space.num_blocks)]
    design = DerivedDesign(
        device_kind=device.kind,
        op_indices=ops,
        bit_widths=bits,
        parallel_factors=pfs,
        shared_precision=device.shared_precision,
    )
    design.predicted = predict_discrete(space, device, ops, bits, pfs)
    return design


def retune_parallel_factors(design: DerivedDesign, space: SearchSpace,
                            device: DeviceModel, hyper: CostHyperparams,
                            perf_norm: float, steps=400, lr=0.03) -> DerivedDesign:
    """Re-optimize the parallel factors of a fixed discrete architecture.

    Continuous descent on performance + penalty, rounding, then a greedy
    repair that halves the parallelism with the least latency regret until
    the resource budget holds.
    """
    if device.kind == "gpu_table":
        raise SearchError("parallel factors exist only for FPGA devices")
    n = space.num_blocks
    ops, bits = design.op_indices, design.bit_widths
    # variable layout: one pf per used IP (recursive) or per block (pipelined)
    if device.kind == "fpga_recursive":
        var_ops = sorted(set(ops))
        var_of_block = [var_ops.index(m) for m in ops]
        var_psi = [max(psi(bits[i]) for i in range(n) if ops[i] == m)
                   for m in var_ops]
        start = [float(design.parallel_factors[ops.index(m)]) for m in var_ops]
    else:
        var_of_block = list(range(n))
        var_psi = [psi(bits[i]) for i in range(n)]
        start = [float(p) for p in design.parallel_factors]
    lat_consts = [phi_cal(bits[i]) * op_work(space, i, ops[i]) / perf_norm
                  for i in range(n)]

    cm = CostModel(space, device, hyper)
    lat_vec, psi_vec = Tensor(lat_consts), Tensor(var_psi)
    pf = Parameter(np.asarray(start))
    opt = Adam([pf], lr=lr)
    for _ in range(steps):
        opt.zero_grad()
        with Tape() as tape:
            perf = cm.perf_loss(lat_vec * tc.pow2(-pf[var_of_block]))
            res = (psi_vec * tc.pow2(pf)).sum()
            tape.backward(perf + cm.penalty(res))
        opt.step()
        pf.assign(np.clip(pf.values, 0.0, device.pf_max))

    ints = np.clip(np.round(pf.values).astype(int), 0,
                   int(math.floor(device.pf_max)))

    def resource_of(vals):
        return sum(var_psi[v] * 2.0 ** vals[v] for v in range(len(vals)))

    def block_lats(vals):
        return [lat_consts[i] * perf_norm * 2.0 ** -vals[var_of_block[i]]
                for i in range(n)]

    floor_res = sum(p_v for p_v in var_psi)  # all pf at 0
    if floor_res > device.res_ub:
        raise InfeasibleError(
            f"no feasible parallel factors: resource is {floor_res} even at "
            f"parallelism 1, bound is {device.res_ub}")

    def aggregate(lats):
        return max(lats) if device.perf_aggregation == "lse" else sum(lats)

    while resource_of(ints) > device.res_ub:
        best = None
        for v in range(len(ints)):
            if ints[v] <= 0 or var_psi[v] == 0.0:
                continue
            trial = ints.copy()
            trial[v] -= 1
            regret = aggregate(block_lats(trial)) - aggregate(block_lats(ints))
            if best is None or regret < best[0] - 1e-15:
                best = (regret, v)
        if best is None:
            raise InfeasibleError(
                f"cannot repair parallel factors below resource bound "
                f"{device.res_ub}")
        ints[best[1]] -= 1

    pfs = [int(ints[var_of_block[i]]) for i in range(n)]
    tuned = DerivedDesign(
        device_kind=design.device_kind,
        op_indices=list(ops),
        bit_widths=list(bits),
        parallel_factors=pfs,
        shared_precision=design.shared_precision,
    )
    tuned.predicted = predict_discrete(space, device, ops, bits, pfs)
    return tuned


def retune_impl(design: DerivedDesign, state: SearchState) -> DerivedDesign:
    cfg = state.config
    return retune_parallel_factors(design, cfg.space, cfg.device, cfg.hyper,
                                   state.costmodel.perf_norm,
                                   steps=cfg.retune_steps, lr=cfg.retune_lr)


# -- full runs ---------------------------------------------------------------------

@dataclass
class SearchReport:
    config: dict
    config_hash: str
    seed: int
    epochs: list
    design: DerivedDesign
    aborted: dict = None
    wall_clock_seconds: float = 0.0  # informational; not serialized canonically


def run_search(config: SearchConfig, dataset=None, on_epoch=None) -> SearchReport:
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
        row = {
            "epoch": epoch,
            "tau": tau,
            "train_acc_loss": float(sums[0] / steps),
            "val_acc_loss": float(sums[1] / steps),
            "perf_loss": float(sums[2] / steps),
            "resource": float(sums[3] / steps),
            "total_loss": float(sums[4] / steps),
        }
        epoch_rows.append(row)
        if on_epoch is not None:
            quiet = state.costmodel.assemble(state.supernet.theta,
                                             state.supernet.phi, state.pf,
                                             tau, rng=None)
            on_epoch(row, quiet)
    design = None
    if aborted is None:
        design = derive_architecture(state)
        if config.device.kind != "gpu_table":
            design = retune_impl(design, state)
    return SearchReport(
        config=config_to_dict(config),
        config_hash=config_hash(config),
        seed=config.seed,
        epochs=epoch_rows,
        design=design,
        aborted=aborted,
        wall_clock_seconds=time.perf_counter() - started,
    )


def retrain_design(design: DerivedDesign, config: SearchConfig, dataset=None,
                   epochs=None, seed_salt=0x7e7a):
    """Train the fixed derived path from scratch; returns (net, metrics)."""
    if dataset is None:
        dataset = datamod.generate_dataset(config.data)
    train, val, test = datamod.split(dataset, config.fractions, config.data.seed)
    epochs = config.retrain_epochs if epochs is None else epochs
    net = Supernet(config.space, seed=int(config.seed) + seed_salt,
                   shared_precision=config.device.shared_precision)
    opt = SGD(net.weight_parameters(), lr=config.lr_weights,
              momentum=config.momentum)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, seed_salt]))
    for _ in range(epochs):
        for images, labels in datamod.batches(train, config.batch_size, rng):
            opt.zero_grad()
            with Tape() as tape:
                loss = net.infer_loss(design, images, labels)
                tape.backward(loss)
            opt.step()
    metrics = {
        "val_accuracy": eval_accuracy(net, design, val),
        "test_accuracy": eval_accuracy(net, design, test),
        "val_loss": float(net.infer_loss(design, val.images, val.labels).item()),
    }
    return net, metrics


def eval_accuracy(net: Supernet, design, dataset, batch_size=256) -> float:
    hits = 0
    for start in range(0, len(dataset), batch_size):
        images = dataset.images[start:start + batch_size]
        labels = dataset.labels[start:start + batch_size]
        logits = net.forward_infer(design, images)
        hits += int((np.argmax(logits.values, axis=1) == labels).sum())
    return hits / len(dataset)


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
