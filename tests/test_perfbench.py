"""The benchmark's entry points still run against the library.

Each workload in ``perfbench/workloads.py`` runs its set-up and one unit at
the reduced size, and the benchmark's own output check must count no failed
operation.  Seed 99 has no recorded reference, so only the runs, the optima
and their equilibrium checks are compared.  Every full-size unit at seed
1000 must reproduce its recorded digest (``c8_paired``'s two 100-run
batches run in lockstep).  ``perfbench/`` is imported without writing bytecode into it, and
read only.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 99


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return workloads, worker


NAMES = ["c8_paired", "torus_large", "mixed_dense"]


def test_every_workload_is_covered(bench):
    workloads, _ = bench
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_passes_its_check(bench, name):
    workloads, worker = bench
    workload = workloads.WORKLOADS[name]
    cfg = workloads.SIZES["small"][name]
    outcome = workload.unit(workload.setup(SEED, cfg), cfg)
    digests = [worker.digest(workload, outcome)]
    attempted, failed, notes = worker.check(
        workload, cfg, outcome, digests, PERFBENCH / "reference.json", SEED
    )
    assert attempted > 1
    assert failed == 0, notes
    assert notes == [f"no reference outputs recorded for seed {SEED}"]


@pytest.mark.parametrize("name", ["c8_paired", "mixed_dense", "torus_large"])
def test_full_size_unit_reproduces_its_reference_digest(bench, name):
    workloads, worker = bench
    workload = workloads.WORKLOADS[name]
    cfg = workloads.SIZES["full"][name]
    outcome = workload.unit(workload.setup(1000, cfg), cfg)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert worker.digest(workload, outcome) == reference[name]["1000"]["sha256"]
