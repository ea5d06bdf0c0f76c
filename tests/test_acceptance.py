"""Acceptance suite: one test per headline criterion, stated tolerances.

The criteria themselves live in ``netalloc.verify`` (``netalloc verify``
runs all eight from there); each test times one of them, checks its
runtime ceiling where it has one, and prints its summary line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
batch-experiment criterion takes about 7 s; all bounds (tolerances and
runtime ceilings) are fixed, not tuned.
"""

import time

from netalloc import verify


def _timed(criterion):
    started = time.perf_counter()
    detail = criterion()
    return detail, time.perf_counter() - started


def _report(criterion: str, detail: str) -> None:
    print(f"\n[{criterion}] PASS  {detail}")


def test_criterion_1_k5_simultaneous_cycle():
    detail, elapsed = _timed(verify.k5_cycle)
    assert elapsed < 1.0
    _report("criterion 1", f"{detail} ({elapsed:.2f}s)")


def test_criterion_2_sequential_convergence_and_slack_laws():
    detail, elapsed = _timed(verify.slack_laws)
    assert elapsed < 60.0
    _report("criterion 2", f"{detail} ({elapsed:.1f}s)")


def test_criterion_3_weighted_potential_identity():
    detail, elapsed = _timed(verify.potential_identity)
    assert elapsed < 30.0
    _report("criterion 3", f"{detail} ({elapsed:.1f}s)")


def test_criterion_4_optimum_is_matched_equilibrium():
    detail, elapsed = _timed(verify.optimum_is_equilibrium)
    _report("criterion 4", f"{detail} ({elapsed:.1f}s)")


def test_criterion_5_quality_gap_divergence():
    detail, elapsed = _timed(verify.poa_closed_form)
    _report("criterion 5", f"{detail} ({elapsed:.1f}s)")


def test_criterion_6_solver_matches_oracle_within_quantization():
    detail, elapsed = _timed(verify.solver_vs_oracle)
    _report("criterion 6", f"{detail} ({elapsed:.1f}s)")


def test_criterion_7_equilibrium_set_geometry():
    detail, elapsed = _timed(verify.matched_equilibria_convex)
    _report("criterion 7", f"{detail} ({elapsed:.1f}s)")


def test_criterion_8_batch_experiment_direction_and_shape():
    detail, elapsed = _timed(verify.batch_shape)
    assert elapsed < 600.0
    _report("criterion 8", f"{detail} ({elapsed:.0f}s)")
