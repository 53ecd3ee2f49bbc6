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
        if self.kind != "gpu_table" and not (math.isfinite(self.res_ub)
                                             and self.res_ub > 0):
            raise CostError(f"{self.kind} needs a finite resource bound "
                            f"res_ub > 0, got {self.res_ub}")
        if self.pf_max is not None and not (math.isfinite(self.pf_max)
                                            and self.pf_max >= 0):
            raise CostError(f"pf_max must be finite and >= 0, got {self.pf_max}")
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
        # N x M x Q per-level latencies, and DSPs per unit of parallelism
        bits = space.quant.bit_widths
        shape = (space.num_blocks, space.num_ops, len(bits))
        if device.kind == "gpu_table":
            lat = [[device.table.lookup(m, q) for q in bits]
                   for m in range(space.num_ops)]
        else:
            lat = [[[phi_cal(q) * f for q in bits] for f in row]
                   for row in self._factors]
            self._psi = Tensor(np.broadcast_to([psi(q) for q in bits], shape))
        self._lat = Tensor(np.broadcast_to(lat, shape))

    # -- expectations over the sampling weights -------------------------------

    def op_costs(self, phi_w, pf=None):
        """Expected (latency, resource) of every op under bit-width weights.

        phi_w is N x M x Q, or one Q-vector shared by every op; pf follows
        the device's pf layout.  Latency scales with 2^-pf and resource with
        2^pf; both come out N x M, and the GPU resource is None (fixed).
        """
        if self.device.kind == "gpu_table":
            return (phi_w * self._lat).sum(axis=-1), None
        lat = (phi_w * self._lat).sum(axis=-1) * tc.pow2(-pf)
        return lat, (phi_w * self._psi).sum(axis=-1) * tc.pow2(pf)

    @staticmethod
    def block_costs(theta_w, op_costs):
        """Op-weight expectation of an N x M cost array: one value per block."""
        return (theta_w * op_costs).sum(axis=-1)

    # -- network-level aggregation ---------------------------------------------

    def perf_loss(self, block_perfs) -> Tensor:
        """alpha-scaled sum (latency target) or log-sum-exp (throughput) of
        the block-perf vector."""
        if self.device.perf_aggregation == "lse":
            agg = tc.log_sum_exp(block_perfs)
        else:
            agg = block_perfs.sum()
        return agg * Tensor(self.hyper.alpha)

    def total_resource(self, theta_w, op_res) -> Tensor:
        """Network resource from N x M op weights and op resources.

        Pipelined: every (block, op) IP is its own, so the block sum.
        Recursive: one IP per op, counted once through a tanh usage gate on
        its summed selection weight u; the IP's resource is its users'
        selection-weighted mean, so tanh(u)/u <= 1 keeps the shared total
        at or below the unshared sum on any state.
        """
        mode = self.device.resource_mode
        if mode == "fixed":
            return Tensor(0.0)
        if mode == "unshared":
            return self.block_costs(theta_w, op_res).sum()
        usage = theta_w.sum(axis=0)
        # the epsilon only matters at usage == 0.0, where the limit is 0
        ip_res = (theta_w * op_res).sum(axis=0) / (usage + Tensor(1e-300))
        return (tc.tanh(usage) * ip_res).sum()

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
        checks); with an rng every weight vector gets its own concrete
        sample, from one draw taken in per-block order: the block's M op
        uniforms, then its M x Q bit-width uniforms (with shared precision
        the Q shared uniforms come first, then N x M op uniforms).
        """
        self._check_pf(pf)
        n, m, q = phi.n, phi.m, phi.q
        (phi_logits,) = phi.parameters()
        u_theta = u_phi = None
        if rng is not None and phi.shared_precision:
            u = rng.random(q + n * m)
            u_phi, u_theta = u[:q], u[q:].reshape(n, m)
        elif rng is not None:
            u = rng.random((n, m + m * q))
            u_theta, u_phi = u[:, :m], u[:, m:].reshape(n, m, q)
        theta_w = tc.gumbel_softmax_rows(theta, tau, u_theta)
        phi_w = tc.gumbel_softmax_rows(phi_logits, tau, u_phi)

        op_lat, op_res = self.op_costs(phi_w, pf)
        block_perfs_n = self.block_costs(theta_w, op_lat) / Tensor(self.perf_norm)
        return CostOutputs(perf_loss=self.perf_loss(block_perfs_n),
                           resource=self.total_resource(theta_w, op_res),
                           block_perfs_norm=block_perfs_n.values.tolist())

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
