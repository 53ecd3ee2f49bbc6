"""The benchmark's workloads, run in-process against this tree.

`perfbench/worker.py` binds names of the library: the dataclasses whose
every field it pins, the functions it calls and the result fields it
reads.  Running each workload once at its tiny size here makes a library
change that breaks one of those names fail the test suite, before a
benchmark run finds it.  One traced run does the same for the layer
tracer, which wraps every public function of every layer.  Nothing under
`perfbench/` is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
WORKLOADS = ("desk_search", "wide_space", "oracle_recovery")


@pytest.fixture(scope="module")
def worker():
    saved = list(sys.path)  # the worker puts src/ and perfbench/ first
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_workload_is_covered(worker):
    assert WORKLOADS == worker.WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_records_no_problem(worker, name, tmp_path):
    ledger = worker.Ledger(None)
    worker.run_workload(name, 1, "tiny", 1, False, ledger, str(tmp_path))
    assert ledger.attempted > 0
    assert ledger.problems == []


def test_traced_workload_records_no_problem(worker, tmp_path):
    """`perfbench --trace 1` wraps every public function of every layer: a
    public tensorcore function that returns no Tensor, say, breaks every
    traced run."""
    tracer = worker.layertrace.Tracer()
    tracer.install({layer: getattr(worker, layer)
                    for layer in worker.layertrace.LAYERS})
    try:
        ledger = worker.Ledger(tracer)
        worker.run_workload("wide_space", 1, "tiny", 1, False, ledger,
                            str(tmp_path))
    finally:
        tracer.uninstall()
    assert ledger.attempted > 0
    assert ledger.problems == []
    assert tracer.check_spans() == []
