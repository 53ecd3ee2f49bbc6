"""Behaviour fingerprint: tiny fixed-seed runs whose designs and final
losses are pinned to the bit.

A change meant to leave the numbers alone (a faster kernel, a different
storage layout) must keep every line here; a change that moves them on
purpose re-records the pins and says why.
"""

import hashlib
import math

import numpy as np
import pytest

from cosearch import data as datamod
from cosearch import oracle, search
from cosearch.costmodel import DeviceModel, reference_gpu_table
from cosearch.search import (DerivedDesign, SearchConfig, retrain_design,
                             run_search)
from cosearch.supernet import QuantLevels, SearchSpace


def tiny_space(bits=(4, 8)):
    return SearchSpace(num_blocks=2, kernel_sizes=(3, 5), expansion_ratios=(2,),
                       quant=QuantLevels(bits), input_hw=(8, 8),
                       channel_plan=(8, 8), downsample_blocks=(2,),
                       stem_channels=8, num_classes=4)


def tiny_config(device, space=None, **kw):
    defaults = dict(space=space or tiny_space(), device=device,
                    data=datamod.DatasetSpec(samples_per_class=32, height=8,
                                             width=8, seed=3),
                    epochs=4, steps_per_epoch=6, batch_size=8, seed=7,
                    retune_steps=100)
    defaults.update(kw)
    return SearchConfig(**defaults)


def gpu_config():
    space = tiny_space(bits=(8, 16))
    return tiny_config(DeviceModel.gpu(reference_gpu_table(space)), space)


@pytest.fixture
def clip_log(monkeypatch):
    """Whether each SGD step's global gradient norm, the flat-buffer norm
    that the step clips by, exceeded the clip."""
    fired = []
    real_step = search.SGD.step

    def step(opt):
        norm = math.sqrt(search._grad_norm2(opt._flat.grad, "SGD"))
        fired.append(norm > opt.clip_norm)
        real_step(opt)
    monkeypatch.setattr(search.SGD, "step", step)
    return fired


# name -> (config, ops, bits, parallel factors, repr of the final epoch's
# total loss, clipped steps)
SEARCHES = {
    "fpga_recursive": (lambda: tiny_config(DeviceModel.fpga_recursive(64.0)),
                       [0, 0], [4, 4], [6, 6], "0.8369785320608618", 0),
    "fpga_pipelined": (lambda: tiny_config(DeviceModel.fpga_pipelined(64.0)),
                       [0, 0], [4, 4], [6, 6], "1.4361136117724274", 0),
    "gpu_table": (gpu_config, [0, 0], [8, 8], None, "0.7776120591562145", 0),
    # a weight learning rate at which the gradient clip fires on 7 of the
    # 24 weight steps
    "clipped": (lambda: tiny_config(DeviceModel.fpga_recursive(64.0),
                                    lr_weights=0.5),
                [0, 0], [4, 4], [6, 6], "7.135499375070633", 7),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_search_fingerprint(name, clip_log):
    make, ops, bits, pfs, loss, clipped = SEARCHES[name]
    report = run_search(make())
    design = report.design
    assert (design.op_indices, design.bit_widths,
            design.parallel_factors) == (ops, bits, pfs)
    assert repr(report.epochs[-1]["total_loss"]) == loss
    assert (sum(clip_log), len(clip_log)) == (clipped, 24)


def test_retrain_fingerprint(clip_log):
    design = DerivedDesign("fpga_recursive", [1, 0], [8, 4], [3, 3], False)
    config = tiny_config(DeviceModel.fpga_recursive(64.0))
    _, metrics = retrain_design(design, config, epochs=2)
    assert {k: repr(v) for k, v in metrics.items()} == {
        "val_accuracy": "0.5", "test_accuracy": "0.5",
        "val_loss": "1.3461735908915884"}
    assert len(clip_log) == 12


def oracle_config():
    return tiny_config(DeviceModel.fpga_recursive(64.0))


def test_oracle_training_fingerprint(clip_log):
    # 10 steps over 6 batches an epoch: the run stops inside its second
    # epoch's permutation
    config = oracle_config()
    dataset = datamod.generate_dataset(config.data)
    train, val, _ = datamod.split(dataset, config.fractions, config.data.seed)
    protocol = oracle.OracleProtocol(train_steps=10, batch_size=8)
    design = DerivedDesign("fpga_recursive", (1, 0), (8, 4), None, False)
    loss = oracle._train_acc_loss(config, protocol, design, train, val)
    assert repr(loss) == "1.2929367171023882"
    assert len(clip_log) == 10


def test_oracle_ranking_fingerprint():
    protocol = oracle.OracleProtocol(train_steps=10, batch_size=8,
                                     retune_steps=60)
    ranking = oracle.rank_configs(oracle_config(), protocol)
    top = [(e.config.op_indices, e.config.bit_widths,
            e.config.parallel_factors, repr(e.total_loss))
           for e in ranking.entries[:2]]
    assert top == [((0, 1), (4, 4), (6, 6), "0.7087171155712739"),
                   ((0, 0), (4, 4), (6, 6), "0.7258209041031461")]


def test_desk_step_gradient_bits():
    """One bilevel step at the desk config: batch 32, 16x16 inputs,
    depthwise kernels 3 and 5 at strides 1 and 2.  Unlike the tiny runs
    above, each depthwise weight-gradient entry sums up to 8192 products,
    in the order einsum picks for the desk shapes, and each conv weight
    and gamma/beta gradient entry sums over (H, W, B), batch innermost."""
    config = SearchConfig(space=SearchSpace(),
                          device=DeviceModel.fpga_recursive(900.0), seed=1)
    dataset = datamod.generate_dataset(config.data)
    train, val, _ = datamod.split(dataset, config.fractions, config.data.seed)
    state = search.initialize(config)
    rng = np.random.default_rng(0)
    search.bilevel_step(state, next(datamod.batches(train, 32, rng)),
                        next(datamod.batches(val, 32, rng)), config.tau_start)
    digests = [hashlib.sha256(opt._flat.grad.tobytes()).hexdigest()
               for opt in (state.weight_opt, state.arch_opt)]
    assert digests == [
        "157e913034b5676057871f50007d50e1403ffea3617b5e1ff3c9e7e029e5d319",
        "188dabe38210f6cf3b5f9f82ebe6b194c6a332f6e1c9d779bb9c11a0a805a12a"]
