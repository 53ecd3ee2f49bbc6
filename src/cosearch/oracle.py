"""Brute-force ground truth for small search spaces.

Enumerates every discrete per-block (op, bit-width) choice, scores each with
the exact fused objective (accuracy trained under one shared protocol,
performance/resource from one-hot weights in the cost equations, parallel
factors re-tuned for every configuration in one batched descent) and ranks
ascending.  The accuracy table and the cost ranking are separate halves, so
one table serves any budget or cost model of its precision sharing.  The
cost math here is written out independently of the costmodel module on
purpose: it is the anti-drift check for the differentiable path.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import data as datamod
from .costmodel import CostHyperparams, CostModel, DeviceModel
from .search import (DerivedDesign, SearchConfig, config_hash,
                     retune_parallel_factors, train_path)
from .supernet import SearchSpace, Supernet
from .tensorcore import NonFiniteError


class OracleError(Exception):
    pass


@dataclass
class RankedEntry:
    config: DerivedDesign  # tuples of ops, bits and tuned parallel factors
    acc_loss: float
    perf_loss: float
    resource: float
    total_loss: float


@dataclass
class OracleRanking:
    entries: list  # RankedEntry, ascending total_loss
    excluded: list  # (DerivedDesign, reason) for diverged trainings
    config_hash: str
    perf_norm: float

    def rank_of(self, op_indices, bit_widths) -> int:
        """1-based rank of a design's (ops, bits); raises if absent."""
        key = (tuple(op_indices), tuple(bit_widths))
        for pos, entry in enumerate(self.entries):
            if (entry.config.op_indices, entry.config.bit_widths) == key:
                return pos + 1
        raise OracleError(f"design {key} not present in the ranking")


@dataclass
class OracleProtocol:
    """Identical training budget and seed for every enumerated config, so
    score differences come from the architecture, not the draw."""
    train_steps: int = 150
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    cap: int = 4096
    workers: int = 1
    retune_steps: int = SearchConfig.retune_steps
    retune_lr: float = SearchConfig.retune_lr

    def __post_init__(self):
        for name in ("train_steps", "batch_size", "workers"):
            value = getattr(self, name)
            if value < 1:
                raise OracleError(f"{name} must be >= 1, got {value}")
        for name in ("lr", "retune_lr"):
            value = getattr(self, name)
            if not value > 0:
                raise OracleError(f"{name} must be > 0, got {value}")


def enumerate_configs(space: SearchSpace, device: DeviceModel,
                      cap: int = OracleProtocol.cap):
    """All discrete (op, bit-width) assignments, duplicate-free, as
    designs with tuples of ops and bits and no parallel factors.

    Per-block bit-widths for FPGA devices; one shared bit-width for GPU.
    """
    m, q, n = space.num_ops, len(space.quant), space.num_blocks
    total = (m * q) ** n if not device.shared_precision else m ** n * q
    if total > cap:
        raise OracleError(
            f"{total} configurations exceed the enumeration cap {cap}; shrink "
            f"the space or raise the cap to at least {total}")
    levels = space.quant.bit_widths
    if device.shared_precision:
        pairs = [(ops, (b,) * n) for ops in itertools.product(range(m), repeat=n)
                 for b in levels]
    else:
        per_block = [(op, b) for op in range(m) for b in levels]
        pairs = [tuple(zip(*combo))
                 for combo in itertools.product(per_block, repeat=n)]
    return [DerivedDesign(device.kind, ops, bits, None,
                          device.shared_precision) for ops, bits in pairs]


# -- independent cost arithmetic -------------------------------------------------

def _op_work(space: SearchSpace, i, m) -> float:
    """Multiply-count walk of one op, written out long-hand."""
    spec = space.op_spec(i, m)
    mid = spec.in_channels * spec.expansion_ratio
    work = spec.h_in * spec.w_in * spec.in_channels * mid      # 1x1 expand
    work += spec.h_in * spec.w_in * mid                        # affine+act
    work += spec.kernel_size ** 2 * spec.h_out * spec.w_out * mid  # depthwise
    work += spec.h_out * spec.w_out * mid                      # affine+act
    work += spec.h_out * spec.w_out * mid * spec.out_channels  # 1x1 project
    work += spec.h_out * spec.w_out * spec.out_channels        # affine+act
    return float(work)


def _dsp_scale(q) -> float:
    if q >= 9:
        return 1.0
    if q >= 5:
        return 0.5
    return 0.0


def exact_vertex_costs(space: SearchSpace, device: DeviceModel,
                       hyper: CostHyperparams, perf_norm: float,
                       op_indices, bit_widths, pfs):
    """(perf_loss, resource, penalty) with one-hot weights in the relaxed
    equations.

    `pfs` is per-op for the recursive accelerator, per-(block, op) for the
    pipelined one (numpy array), None for GPU.  A block's bit-width applies
    to its whole candidate row, matching the per-block quantization
    convention of the enumeration.
    """
    n = space.num_blocks
    if device.kind == "gpu_table":
        lats = [device.table.lookup(op_indices[i], bit_widths[i])
                for i in range(n)]
    else:
        lats = []
        for i in range(n):
            pf_i = (pfs[op_indices[i]] if device.kind == "fpga_recursive"
                    else pfs[i, op_indices[i]])
            lats.append(bit_widths[i] * _op_work(space, i, op_indices[i])
                        * 2.0 ** -float(pf_i))
    norm = [lat / perf_norm for lat in lats]
    if device.perf_aggregation == "lse":
        mx = max(norm)
        agg = mx + math.log(sum(math.exp(v - mx) for v in norm))
    else:
        agg = sum(norm)
    perf_loss = hyper.alpha * agg

    if device.resource_mode == "fixed":
        return perf_loss, 0.0, 0.0
    if device.resource_mode == "shared":
        resource = 0.0
        for m_idx in range(space.num_ops):
            users = [i for i in range(n) if op_indices[i] == m_idx]
            if users:  # one IP, sized for its widest user
                ip_dsp = max(_dsp_scale(bit_widths[i]) for i in users)
                resource += ip_dsp * 2.0 ** float(pfs[m_idx])
    else:
        resource = sum(
            _dsp_scale(bit_widths[i]) * 2.0 ** float(pfs[i, op_indices[i]])
            for i in range(n))
    penalty = hyper.beta * hyper.base ** ((resource - device.res_ub)
                                          / hyper.res_norm)
    return perf_loss, resource, penalty


# -- accuracy protocol ------------------------------------------------------------

def _train_acc_loss(config: SearchConfig, protocol: OracleProtocol,
                    design: DerivedDesign, train, val) -> float:
    net = Supernet(config.space, seed=protocol.seed,
                   shared_precision=config.device.shared_precision)
    rng = np.random.default_rng(
        np.random.SeedSequence([protocol.seed, 0x0a11]))
    train_path(net, design, train, protocol.train_steps, protocol.batch_size,
               protocol.lr, protocol.momentum, rng)
    return float(net.infer_loss(design, val.images, val.labels).item())


def evaluate_config_exact(config: SearchConfig, protocol: OracleProtocol,
                          design: DerivedDesign, train, val):
    """One config's accuracy under the protocol: (acc_loss, None), or
    (None, reason) when its training diverged."""
    try:
        return _train_acc_loss(config, protocol, design, train, val), None
    except NonFiniteError as exc:
        return None, f"training diverged: {exc}"


@dataclass
class AccuracyTable:
    """Protocol accuracy of every enumerated config.  It depends on the
    space, data, fractions, protocol and precision sharing only, not on the
    device's costs or budget, so one table serves every cost ranking."""
    scores: list  # (DerivedDesign, acc_loss), in enumeration order
    excluded: list  # (DerivedDesign, reason) for diverged trainings
    shared_precision: bool


def accuracy_table(config: SearchConfig, protocol: OracleProtocol = None,
                   dataset=None) -> AccuracyTable:
    """Train every enumerated config of `config`'s space by the protocol."""
    protocol = protocol or OracleProtocol()
    configs = enumerate_configs(config.space, config.device, cap=protocol.cap)
    if dataset is None:
        dataset = datamod.generate_dataset(config.data)
    train, val, _ = datamod.split(dataset, config.fractions, config.data.seed)

    def job(design):
        return evaluate_config_exact(config, protocol, design, train, val)

    if protocol.workers > 1:
        with ThreadPoolExecutor(max_workers=protocol.workers) as pool:
            results = list(pool.map(job, configs))
    else:
        results = [job(c) for c in configs]
    table = AccuracyTable([], [], config.device.shared_precision)
    for design, (acc_loss, reason) in zip(configs, results):
        if reason is None:
            table.scores.append((design, acc_loss))
        else:
            table.excluded.append((design, reason))
    return table


def rank_by_cost(config: SearchConfig, table: AccuracyTable,
                 protocol: OracleProtocol = None) -> OracleRanking:
    """Rank the designs of `table` under `config`'s device, budget and cost
    hyperparameters, without training: each copied for the device, its
    parallel factors retuned in one batched descent on one CostModel from
    its start, then scored by the long-hand cost arithmetic."""
    protocol = protocol or OracleProtocol()
    device = config.device
    if table.shared_precision != device.shared_precision:
        raise OracleError(f"accuracy table of shared_precision="
                          f"{table.shared_precision} cannot rank for a "
                          f"{device.kind} device")
    cm = CostModel(config.space, device, config.hyper)
    cm.initial_perf_norm()
    pf0 = cm.initial_pf()  # None on the GPU
    designs = [replace(d, device_kind=device.kind) for d, _ in table.scores]
    if pf0 is not None:
        for d in designs:  # each retune starts from rint(pf0) at its IPs
            index = cm.pf_index(d.op_indices)
            d.parallel_factors = np.rint(pf0[index]).astype(int).tolist()
        tuned = retune_parallel_factors(
            designs, cm, steps=protocol.retune_steps, lr=protocol.retune_lr)
        for d, pfs in zip(designs, tuned):
            d.parallel_factors = tuple(pfs)

    entries = []
    for d, (_, acc_loss) in zip(designs, table.scores):
        perf_loss, resource, penalty = exact_vertex_costs(
            config.space, device, cm.hyper, cm.perf_norm, d.op_indices,
            d.bit_widths, cm.layout_pfs(d.op_indices, d.parallel_factors))
        entries.append(RankedEntry(d, acc_loss, perf_loss, resource,
                                   acc_loss * perf_loss + penalty))
    return OracleRanking(
        entries=sorted(entries, key=lambda e: e.total_loss),  # stable on ties
        excluded=[(replace(d, device_kind=device.kind), reason)
                  for d, reason in table.excluded],
        config_hash=config_hash(config),
        perf_norm=cm.perf_norm,
    )


def rank_configs(config: SearchConfig, protocol: OracleProtocol = None,
                 dataset=None) -> OracleRanking:
    """Exhaustive ranking of the whole discrete space, ascending loss: the
    accuracy table, then its cost ranking.  A budget with no positive pf
    start is refused first, before any data is generated or trained on."""
    CostModel(config.space, config.device, config.hyper).initial_pf()
    return rank_by_cost(config, accuracy_table(config, protocol, dataset),
                        protocol)
