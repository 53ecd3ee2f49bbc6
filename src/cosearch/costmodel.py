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
from .supernet import OpSpec, SearchSpace
from .tensorcore import Tensor


class CostError(Exception):
    pass


class InfeasibleError(CostError):
    """The resource budget admits no design of the requested kind."""


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
        if not (0 < self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise CostError("alpha must be positive and beta non-negative, "
                            "both finite")
        if not 1.0 < self.base < math.inf:
            raise CostError(f"penalty base must be finite and exceed 1, got "
                            f"{self.base}")
        if not 0 < self.res_norm < math.inf:
            raise CostError(f"res_norm must be finite and positive, got "
                            f"{self.res_norm}")


@dataclass
class CostOutputs:
    perf_loss: Tensor
    resource: Tensor
    block_perfs_norm: list = field(default_factory=list)  # floats, diagnostics


class CostModel:
    """Bound to one search space + device; holds the perf normalizer.

    `terms` turns op and bit-width weights into pf-free cost terms and
    `apply_pf` brings in the parallel factors: a relaxed sample, the uniform
    start and a discrete design (`vertex_weights`) all take this one path.
    """

    def __init__(self, space: SearchSpace, device: DeviceModel,
                 hyper: CostHyperparams = None):
        self.space = space
        self.device = device
        self.hyper = hyper if hyper is not None else CostHyperparams()
        self.perf_norm = 1.0
        n, m, bits = space.num_blocks, space.num_ops, space.quant.bit_widths
        # recursive: one pf per shared op IP; pipelined: one per (block, op)
        self._pf_shape = {"fpga_recursive": (m,),
                          "fpga_pipelined": (n, m)}.get(device.kind)
        # N x M x Q per-level latencies
        if device.kind == "gpu_table":
            device.table.validate(m, bits)
            lat = [[device.table.lookup(j, q) for q in bits] for j in range(m)]
        else:
            bad = [q for q in bits if q > 16]
            if bad:
                raise CostError(f"FPGA resource model is undefined above "
                                f"16-bit, got {bad}")
            lat = [[[phi_cal(q) * op_work(space, i, j) for q in bits]
                    for j in range(m)] for i in range(n)]
            levels = [psi(q) for q in bits]
            self._psi = Tensor(levels)  # DSPs per unit of parallelism
            # psi steps between levels; [j >= k] at [k, 0, 0, j], so that
            # summing weights against it gives P(width >= q_k), level-first
            self._psi_steps = Tensor(np.diff(levels, prepend=0.0)[:, None])
            self._at_least = Tensor(np.triu(np.ones((len(bits),) * 2))[:, None, None])
        self._lat = Tensor(np.broadcast_to(lat, (n, m, len(bits))))

    # -- the pf-free half: expectations over the sampling weights -------------

    def terms(self, theta_w, phi_w):
        """(latency, resource) terms before 2^-pf and 2^pf, from N x M op
        weights and bit-width weights (N x M x Q, or one shared Q-vector).

        Latency and the pipelined resource are expected per (block, op);
        the GPU has no resource term.  A recursive IP is shared by all
        blocks and sized for its widest user: its term is that user's
        expected psi under independent blocks, max psi at a vertex and at
        most the unshared sum anywhere (union bound; psi grows with q).
        """
        lat = (phi_w * self._lat).sum(axis=-1)
        mode = self.device.resource_mode
        if mode == "fixed":
            return lat, None
        if mode == "unshared":
            return lat, (phi_w * self._psi).sum(axis=-1)
        at_least = (phi_w * self._at_least).sum(axis=-1)  # Q x N x M
        idle = tc.prod(Tensor(1.0) - theta_w * at_least, axis=1)  # Q x M
        return lat, ((Tensor(1.0) - idle) * self._psi_steps).sum(axis=0)

    def vertex_weights(self, ops, bits):
        """One-hot (op, bit-width) weights of a discrete design; a block's
        bit-width applies to its whole candidate row.  A design outside the
        space raises SpaceError naming the block."""
        self.space.check_design(ops, bits)
        n, m = self.space.num_blocks, self.space.num_ops
        levels = self.space.quant.bit_widths
        theta = np.zeros((n, m))
        theta[np.arange(n), ops] = 1.0
        phi = np.zeros((n, m, len(levels)))
        phi[np.arange(n), :, [levels.index(b) for b in bits]] = 1.0
        return Tensor(theta), Tensor(phi)

    # -- the pf half: parallelism and network-level aggregation ----------------

    def apply_pf(self, theta_w, terms, pf) -> CostOutputs:
        """Perf loss and resource of `terms` at parallel factors `pf` in
        the device's pf layout (None on the GPU).

        The inputs may carry a leading lane axis, one design per lane:
        L x N x M op weights and latency terms, and the pf with its
        resource term as L x 1 x M (per op) or L x N x M.  Sums run over
        the block and op axes only, so each output has one value per lane.
        """
        lat, res = terms
        if pf is not None:
            lat = lat * tc.pow2(-pf)
        block_perfs_n = self.block_costs(theta_w, lat) / Tensor(self.perf_norm)
        mode = self.device.resource_mode
        if mode == "fixed":
            resource = Tensor(0.0)
        elif mode == "unshared":
            resource = self.block_costs(theta_w, res * tc.pow2(pf)).sum(axis=-1)
        else:
            lanes = theta_w.values.ndim - 2
            resource = (res * tc.pow2(pf)).sum(
                axis=tuple(range(lanes, pf.values.ndim)))
        return CostOutputs(perf_loss=self.perf_loss(block_perfs_n),
                           resource=resource,
                           block_perfs_norm=block_perfs_n.values.tolist())

    @staticmethod
    def block_costs(theta_w, op_costs):
        """Op-weight expectation of an N x M cost array: one value per block."""
        return (theta_w * op_costs).sum(axis=-1)

    def _aggregate(self, block_perfs) -> Tensor:
        if self.device.perf_aggregation == "lse":
            return tc.log_sum_exp(block_perfs)
        return block_perfs.sum(axis=-1)

    def perf_loss(self, block_perfs) -> Tensor:
        """alpha-scaled sum (latency target) or log-sum-exp (throughput) of
        the block-perf vector, or of each lane's."""
        return self._aggregate(block_perfs) * Tensor(self.hyper.alpha)

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

    def assemble(self, theta, phi, pf, tau, rng=None) -> CostOutputs:
        """Expectation costs for the current logits: theta N x M, phi
        N x M x Q, or one shared Q-vector.

        rng=None gives noise-free softmax weights (reporting / gradient
        checks); with an rng every weight vector gets its own concrete
        sample, from one draw taken in per-block order: the block's M op
        uniforms, then its M x Q bit-width uniforms (with shared precision
        the Q shared uniforms come first, then N x M op uniforms).
        """
        self._check_pf(pf)
        (n, m), q = theta.values.shape, phi.values.shape[-1]
        u_theta = u_phi = None
        if rng is not None and phi.values.ndim == 1:
            u = rng.random(q + n * m)
            u_phi, u_theta = u[:q], u[q:].reshape(n, m)
        elif rng is not None:
            u = rng.random((n, m + m * q))
            u_theta, u_phi = u[:, :m], u[:, m:].reshape(n, m, q)
        theta_w = tc.gumbel_softmax_rows(theta, tau, u_theta)
        phi_w = tc.gumbel_softmax_rows(phi, tau, u_phi)
        return self.apply_pf(theta_w, self.terms(theta_w, phi_w), pf)

    def _check_pf(self, pf):
        got = None if pf is None else pf.values.shape
        if got != self._pf_shape:
            raise CostError(f"{self.device.kind} expects pf shape "
                            f"{self._pf_shape}, got {got}")

    # -- parallel-factor layout --------------------------------------------------

    def pf_index(self, ops):
        """Index of each block's parallel factor in the device's pf layout
        (pf[index] lists them per block); None on the GPU."""
        if self._pf_shape is None:
            return None
        ops = np.asarray(ops, dtype=int)
        return ops if len(self._pf_shape) == 1 else (np.arange(ops.size), ops)

    def layout_pfs(self, ops, pfs):
        """A design's per-block parallel factors in the device's pf layout,
        0 for unused IPs; the users of a shared IP must agree on it."""
        index = self.pf_index(ops)
        if index is None:
            return None
        pfs = np.asarray(pfs, dtype=float)
        if pfs.shape != (len(ops),):
            raise CostError(f"design has {pfs.size} parallel factors for "
                            f"{len(ops)} blocks")
        out = np.zeros(self._pf_shape)
        out[index] = pfs
        bad = np.flatnonzero(out[index] != pfs)
        if bad.size:
            i = bad[0]
            raise CostError(f"block {i}: parallel factor {pfs[i]:g} for op "
                            f"{ops[i]}, whose shared IP runs at "
                            f"{out[index][i]:g} for another block")
        return out

    # -- the starting point --------------------------------------------------

    def initial_pf(self):
        """log2(budget / #IPs) in the device's pf layout: every IP starts
        with an equal resource slice; None on the GPU."""
        if self._pf_shape is None:
            return None
        ips = math.prod(self._pf_shape)
        if self.device.res_ub <= ips:
            raise InfeasibleError(
                f"resource bound {self.device.res_ub} <= {ips} IPs: initial "
                f"parallel factor would not be positive")
        return np.full(self._pf_shape, math.log2(self.device.res_ub / ips))

    def initial_perf_norm(self) -> float:
        """Aggregate performance of the uniform-weights starting point at
        the initial parallel factors; stored and used to scale block perfs
        into accuracy-loss range."""
        n, m, q = self.space.num_blocks, self.space.num_ops, len(self.space.quant)
        theta_w = Tensor(np.full((n, m), 1.0 / m))
        terms = self.terms(theta_w, Tensor(np.full(q, 1.0 / q)))
        pf0 = self.initial_pf()
        self.perf_norm = 1.0
        out = self.apply_pf(theta_w, terms, None if pf0 is None else Tensor(pf0))
        self.perf_norm = self._aggregate(Tensor(out.block_perfs_norm)).item()
        return self.perf_norm
