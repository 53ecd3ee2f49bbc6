"""Differentiable device cost models.

Per-op latency/resource under a bit-width, expectation over the sampling
weights, block-level aggregation, network-level performance loss (sum for
latency targets, log-sum-exp smooth max for throughput targets), resource
with and without sharing, and the fused accuracy x performance + penalty
objective.  Everything is built from tensorcore primitives so gradients
reach the op logits, the bit-width logits and the parallel factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import tensorcore as tc
from .supernet import OpSpec, PhiArray, SearchSpace
from .tensorcore import Tensor


class CostError(Exception):
    pass


class MissingEntryError(CostError):
    def __init__(self, op_index, bit_width):
        super().__init__(f"no latency entry for op {op_index} at {bit_width}-bit")
        self.op_index = op_index
        self.bit_width = bit_width


def phi_cal(q) -> float:
    """Latency calibration versus bit-width: proportional to q."""
    return float(q)


def psi(q) -> float:
    """DSPs per unit parallelism at bit-width q.

    Full-width multipliers cost one DSP, 5..8-bit packs two per DSP, and at
    4 bits and below multiplies move to LUTs (resource-free here).
    """
    q = int(q)
    if q > 16:
        raise CostError(f"psi undefined for bit-width {q} (> 16)")
    if q >= 9:
        return 1.0
    if q >= 5:
        return 0.5
    return 0.0


@dataclass(frozen=True)
class LayerGeom:
    kind: str  # conv | dwconv | elementwise
    k: int
    h: int
    w: int
    c_in: int
    c_out: int

    def factor(self) -> float:
        """Work term of the latency model (everything except 2^-pf and q)."""
        if self.kind == "conv":
            return float(self.k ** 2 * self.h * self.w * self.c_in * self.c_out)
        if self.kind == "dwconv":
            return float(self.k ** 2 * self.h * self.w * self.c_in)
        if self.kind == "elementwise":
            return float(self.h * self.w * self.c_in)
        raise CostError(f"unknown layer kind '{self.kind}'")


def mbconv_layers(spec: OpSpec):
    """Layer walk of one inverted-bottleneck op.

    Three conv layers, each followed by one channelwise-affine/activation
    layer costed with the elementwise case.
    """
    mid = spec.mid_channels
    return [
        LayerGeom("conv", 1, spec.h_in, spec.w_in, spec.in_channels, mid),
        LayerGeom("elementwise", 1, spec.h_in, spec.w_in, mid, mid),
        LayerGeom("dwconv", spec.kernel_size, spec.h_out, spec.w_out, mid, mid),
        LayerGeom("elementwise", 1, spec.h_out, spec.w_out, mid, mid),
        LayerGeom("conv", 1, spec.h_out, spec.w_out, mid, spec.out_channels),
        LayerGeom("elementwise", 1, spec.h_out, spec.w_out, spec.out_channels,
                  spec.out_channels),
    ]


def op_work(space: SearchSpace, i, m) -> float:
    """Latency work term of op m in block i: its layers' factors summed."""
    return sum(layer.factor() for layer in mbconv_layers(space.op_spec(i, m)))


class GpuLatencyTable:
    """Measured normalized latencies keyed by (op menu index, bit-width)."""

    def __init__(self, entries):
        self.entries = {(int(m), int(q)): float(v) for (m, q), v in entries.items()}

    def lookup(self, op_index, bit_width) -> float:
        try:
            return self.entries[(int(op_index), int(bit_width))]
        except KeyError:
            raise MissingEntryError(op_index, bit_width) from None

    def validate(self, num_ops, bit_widths):
        for m in range(num_ops):
            prev = 0.0
            for q in bit_widths:
                v = self.lookup(m, q)
                if v <= 0:
                    raise CostError(f"latency for op {m} at {q}-bit must be "
                                    f"positive, got {v}")
                if v <= prev:
                    raise CostError(f"latency for op {m} must increase with "
                                    f"bit-width; {q}-bit entry {v} is not above "
                                    f"the previous level")
                prev = v
        return self

    @classmethod
    def from_mapping(cls, mapping):
        entries = {}
        for m, per_q in mapping.items():
            for q, v in per_q.items():
                entries[(int(m), int(q))] = float(v)
        return cls(entries)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            mapping = yaml.safe_load(fh)
        if not isinstance(mapping, dict):
            raise CostError(f"latency table {path}: expected a mapping of "
                            f"op index -> bit-width -> latency")
        return cls.from_mapping(mapping)

    def to_mapping(self):
        out = {}
        for (m, q), v in sorted(self.entries.items()):
            out.setdefault(m, {})[q] = v
        return out


def reference_gpu_table(space: SearchSpace) -> GpuLatencyTable:
    """Synthetic measured-latency stand-in: op work scaled by bit-width,
    normalized so the cheapest entry is 1.0."""
    entries = {}
    for m in range(space.num_ops):
        work = sum(op_work(space, i, m) for i in range(space.num_blocks))
        for q in space.quant.bit_widths:
            entries[(m, q)] = work * q
    lo = min(entries.values())
    return GpuLatencyTable({k: v / lo for k, v in entries.items()})


DEVICE_KINDS = ("fpga_recursive", "fpga_pipelined", "gpu_table")


@dataclass(frozen=True)
class DeviceModel:
    kind: str
    res_ub: float = 0.0
    table: GpuLatencyTable = None
    pf_max: float = None

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS:
            raise CostError(f"unknown device kind '{self.kind}'")
        if self.kind != "gpu_table" and self.res_ub <= 0:
            raise CostError(f"{self.kind} needs a positive resource bound, "
                            f"got {self.res_ub}")
        if self.kind == "gpu_table" and self.table is None:
            raise CostError("gpu_table device needs a latency table")
        if self.pf_max is None and self.kind != "gpu_table":
            object.__setattr__(self, "pf_max", math.log2(self.res_ub))

    @property
    def perf_aggregation(self):
        return "lse" if self.kind == "fpga_pipelined" else "sum"

    @property
    def resource_mode(self):
        return {"fpga_recursive": "shared", "fpga_pipelined": "unshared",
                "gpu_table": "fixed"}[self.kind]

    @property
    def shared_precision(self):
        return self.kind == "gpu_table"

    @property
    def default_res_norm(self):
        # the penalty exponent in units of the budget, so C^x stays tame at
        # DSP scale; the GPU kind has no penalty
        return self.res_ub if self.kind != "gpu_table" else 1.0

    @property
    def pf_layout(self):
        # recursive: one pf per shared op IP; pipelined: one per (block, op)
        return {"fpga_recursive": "per_op", "fpga_pipelined": "per_block_op",
                "gpu_table": None}[self.kind]

    @classmethod
    def fpga_recursive(cls, res_ub, pf_max=None):
        return cls(kind="fpga_recursive", res_ub=float(res_ub), pf_max=pf_max)

    @classmethod
    def fpga_pipelined(cls, res_ub, pf_max=None):
        return cls(kind="fpga_pipelined", res_ub=float(res_ub), pf_max=pf_max)

    @classmethod
    def gpu(cls, table):
        return cls(kind="gpu_table", table=table)


@dataclass
class CostHyperparams:
    alpha: float = 1.0
    beta: float = 1.0
    base: float = math.e  # penalty base C
    res_norm: float = 1.0  # divisor of the penalty exponent RES - RES_ub

    def __post_init__(self):
        if self.alpha <= 0 or self.beta < 0:
            raise CostError("alpha must be positive and beta non-negative")
        if self.base <= 1.0:
            raise CostError(f"penalty base must exceed 1, got {self.base}")
        if self.res_norm <= 0:
            raise CostError("res_norm must be positive")


@dataclass
class CostOutputs:
    perf_loss: Tensor
    resource: Tensor
    block_perfs_norm: list = field(default_factory=list)  # floats, diagnostics


class CostModel:
    """Bound to one search space + device; holds the perf normalizer."""

    def __init__(self, space: SearchSpace, device: DeviceModel,
                 hyper: CostHyperparams = None):
        self.space = space
        self.device = device
        self.hyper = hyper if hyper is not None else CostHyperparams()
        self.perf_norm = 1.0
        if device.kind != "gpu_table":
            bad = [q for q in space.quant.bit_widths if q > 16]
            if bad:
                raise CostError(f"FPGA resource model is undefined above "
                                f"16-bit, got {bad}")
        else:
            device.table.validate(space.num_ops, space.quant.bit_widths)
        self._factors = [[op_work(space, i, m) for m in range(space.num_ops)]
                         for i in range(space.num_blocks)]

    # -- expectations over the sampling weights -------------------------------

    def expected_op_cost(self, i, m, phi_weights, pf=None):
        """(perf, resource) of op (i, m) under bit-width weights."""
        bits = self.space.quant.bit_widths
        if self.device.kind == "gpu_table":
            lat = Tensor([self.device.table.lookup(m, q) for q in bits])
            return (phi_weights * lat).sum(), Tensor(0.0)
        pf = pf if isinstance(pf, Tensor) else Tensor(float(pf))
        lat_per_q = Tensor([phi_cal(q) * self._factors[i][m] for q in bits])
        res_per_q = Tensor([psi(q) for q in bits])
        perf = (phi_weights * lat_per_q).sum() * tc.pow2(-pf)
        res = (phi_weights * res_per_q).sum() * tc.pow2(pf)
        return perf, res

    @staticmethod
    def block_cost(theta_weights, op_perfs, op_ress):
        """(perf, resource) of one block: op-weight expectations."""
        perf = (theta_weights * tc.stack(op_perfs)).sum()
        res = (theta_weights * tc.stack(op_ress)).sum()
        return perf, res

    # -- network-level aggregation ---------------------------------------------

    def perf_loss(self, block_perfs) -> Tensor:
        """alpha-scaled sum (latency target) or log-sum-exp (throughput)."""
        vec = tc.stack(list(block_perfs))
        if self.device.perf_aggregation == "lse":
            agg = tc.log_sum_exp(vec)
        else:
            agg = vec.sum()
        return agg * Tensor(self.hyper.alpha)

    def shared_total_resource(self, theta_ws, phi_ws, pf):
        """Recursive-accelerator resource: one IP per op, counted once via a
        tanh usage gate.

        The IP's bit-width expectation weights each block's quantization
        weights by that block's selection weight, so tanh(u)/u <= 1 keeps the
        shared total at or below the unshared sum on any state.
        """
        if pf.values.shape != (self.space.num_ops,):
            raise CostError(
                f"shared resource needs one pf per op IP, got pf shape "
                f"{pf.values.shape}")
        n = self.space.num_blocks
        res_vec = Tensor([psi(q) for q in self.space.quant.bit_widths])
        total = None
        for m in range(self.space.num_ops):
            usage = None
            weighted = None
            for i in range(n):
                contrib = theta_ws[i][m] * (phi_ws[i][m] * res_vec).sum()
                usage = theta_ws[i][m] if usage is None else usage + theta_ws[i][m]
                weighted = contrib if weighted is None else weighted + contrib
            # the epsilon only matters at usage == 0.0, where the limit is 0
            ip_res = weighted / (usage + Tensor(1e-300)) * tc.pow2(pf[m])
            term = tc.tanh(usage) * ip_res
            total = term if total is None else total + term
        return total

    @staticmethod
    def unshared_total_resource(block_ress):
        total = None
        for r in block_ress:
            total = r if total is None else total + r
        return total

    def penalty(self, resource: Tensor) -> Tensor:
        """beta * C^((RES - RES_ub)/res_norm); zero when resource is fixed."""
        if self.device.resource_mode == "fixed":
            return Tensor(0.0)
        h = self.hyper
        expo = (resource - Tensor(self.device.res_ub)) / Tensor(h.res_norm)
        return tc.exp(expo * Tensor(math.log(h.base))) * Tensor(h.beta)

    def total_loss(self, acc_loss, perf_loss, resource) -> Tensor:
        return acc_loss * perf_loss + self.penalty(resource)

    # -- the whole relaxed cost side in one call --------------------------------

    def assemble(self, theta, phi: PhiArray, pf, tau, rng=None) -> CostOutputs:
        """Expectation costs for the current logits.

        rng=None gives noise-free softmax weights (reporting / gradient
        checks); with an rng each weight vector gets its own concrete
        sample, as during search.
        """
        space = self.space
        self._check_pf(pf)
        theta_ws, phi_ws = [], []
        shared_w = None
        if self.device.shared_precision:
            shared_w = tc.gumbel_softmax(phi.logits(0, 0), tau, rng=rng)
        for i in range(space.num_blocks):
            theta_ws.append(tc.gumbel_softmax(theta[i], tau, rng=rng))
            row = []
            for m in range(space.num_ops):
                row.append(shared_w if shared_w is not None
                           else tc.gumbel_softmax(phi.logits(i, m), tau, rng=rng))
            phi_ws.append(row)

        block_perfs, block_ress = [], []
        for i in range(space.num_blocks):
            op_perfs, op_ress = [], []
            for m in range(space.num_ops):
                perf, res = self.expected_op_cost(
                    i, m, phi_ws[i][m], pf=self._pf_scalar(pf, i, m))
                op_perfs.append(perf)
                op_ress.append(res)
            perf_i, res_i = self.block_cost(theta_ws[i], op_perfs, op_ress)
            block_perfs.append(perf_i)
            block_ress.append(res_i)

        norm = Tensor(self.perf_norm)
        block_perfs_n = [p / norm for p in block_perfs]
        ploss = self.perf_loss(block_perfs_n)

        mode = self.device.resource_mode
        if mode == "fixed":
            resource = Tensor(0.0)
        elif mode == "shared":
            resource = self.shared_total_resource(theta_ws, phi_ws, pf)
        else:
            resource = self.unshared_total_resource(block_ress)
        return CostOutputs(perf_loss=ploss, resource=resource,
                           block_perfs_norm=[float(p.values) for p in block_perfs_n])

    def _check_pf(self, pf):
        layout = self.device.pf_layout
        if layout is None:
            if pf is not None:
                raise CostError("gpu_table device takes no parallel factors")
            return
        if pf is None:
            raise CostError(f"{self.device.kind} needs parallel factors")
        want = ((self.space.num_ops,) if layout == "per_op"
                else (self.space.num_blocks, self.space.num_ops))
        if pf.values.shape != want:
            raise CostError(f"{self.device.kind} expects pf shape {want}, "
                            f"got {pf.values.shape}")

    def _pf_scalar(self, pf, i, m):
        if pf is None:
            return None
        return pf[m] if self.device.pf_layout == "per_op" else pf[(i, m)]

    # -- normalizer -----------------------------------------------------------

    def initial_perf_norm(self, pf0=None) -> float:
        """Aggregate performance of the uniform-weights starting point;
        stored and used to scale block perfs into accuracy-loss range."""
        space = self.space
        bits = space.quant.bit_widths
        perfs = []
        for i in range(space.num_blocks):
            acc = 0.0
            for m in range(space.num_ops):
                if self.device.kind == "gpu_table":
                    per_q = [self.device.table.lookup(m, q) for q in bits]
                    mean_q = sum(per_q) / len(per_q)
                else:
                    pf_val = float(pf0[m] if np.ndim(pf0) == 1 else pf0[i][m])
                    mean_q = (sum(phi_cal(q) for q in bits) / len(bits)
                              * self._factors[i][m] * 2.0 ** (-pf_val))
                acc += mean_q / space.num_ops
            perfs.append(acc)
        if self.device.perf_aggregation == "lse":
            mx = max(perfs)
            norm = mx + math.log(sum(math.exp(p - mx) for p in perfs))
        else:
            norm = sum(perfs)
        self.perf_norm = float(norm)
        return self.perf_norm
