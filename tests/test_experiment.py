import csv
import json
import multiprocessing
import os
import pickle

import pytest

import netalloc.experiment as experiment
from netalloc.analysis import RankingSystem, potential_value
from netalloc.dynamics import (
    Converged,
    DynamicsConfig,
    RandomFeasible,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from netalloc.experiment import (
    ExperimentConfig,
    profile_hash,
    run_batch_experiment,
    smoothed_mode_count,
    write_histogram_csv,
    write_runs_jsonl,
    write_summary_json,
    write_trace_jsonl,
)
from netalloc.game import social_welfare
from netalloc.instances import (
    InstanceDocument,
    gen_random_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from netalloc.utility import UtilitySpec


def small_torus():
    return gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4,
                          utility=UtilitySpec.sqrt())


def test_single_run_report():
    doc = small_torus()
    report = run_batch_experiment(doc, ExperimentConfig(runs=1, seed=3))
    assert len(report.runs) == 1
    out = report.runs[0]
    assert out.converged
    assert 0.0 <= out.ratio <= 1.0
    assert sum(report.counts) == 1
    assert report.mean == out.ratio


def test_batch_deterministic_and_paired():
    doc = small_torus()
    cfg = ExperimentConfig(runs=8, seed=100, behavior="pessimistic")
    r1 = run_batch_experiment(doc, cfg)
    r2 = run_batch_experiment(doc, cfg)
    assert r1 == r2
    # paired batches share the per-run seeds
    r3 = run_batch_experiment(
        doc, ExperimentConfig(runs=8, seed=100, behavior="optimistic")
    )
    assert [o.seed for o in r3.runs] == [o.seed for o in r1.runs]


def test_ratios_never_beat_certified_optimum():
    doc = small_torus()
    report = run_batch_experiment(doc, ExperimentConfig(runs=12, seed=0))
    for o in report.runs:
        assert o.ratio <= 1.0 + 1e-6
    assert sum(report.counts) == len([o for o in report.runs if o.converged])


def test_histogram_bins_cover_min_to_one():
    doc = small_torus()
    report = run_batch_experiment(doc, ExperimentConfig(runs=10, seed=5, bins=10))
    assert len(report.counts) == 10
    assert len(report.bin_edges) == 11
    lo = min(o.ratio for o in report.runs if o.converged)
    assert report.bin_edges[0] == pytest.approx(min(lo, 1.0 - 1e-9))
    assert report.bin_edges[-1] == pytest.approx(1.0)


def test_parallel_matches_serial():
    doc = small_torus()
    serial = run_batch_experiment(doc, ExperimentConfig(runs=6, seed=9))
    parallel = run_batch_experiment(doc, ExperimentConfig(runs=6, seed=9, n_jobs=2))
    assert serial == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools a batch opens.  A stand-in pool records its
    size and maps in this process, so no worker process starts; it pickles
    the function as a real pool would."""
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            fn = pickle.loads(pickle.dumps(fn))
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return started


def test_pool_never_outnumbers_the_runs(pool_sizes, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    doc = small_torus()
    serial = run_batch_experiment(doc, ExperimentConfig(runs=3, seed=9))
    capped = run_batch_experiment(doc, ExperimentConfig(runs=3, seed=9, n_jobs=8))
    assert pool_sizes == [3]
    assert capped == serial
    run_batch_experiment(doc, ExperimentConfig(runs=1, seed=9, n_jobs=8))
    assert pool_sizes == [3]  # one run needs no pool


def test_pool_never_outnumbers_the_cpus(pool_sizes, monkeypatch):
    doc = small_torus()
    serial = run_batch_experiment(doc, ExperimentConfig(runs=6, seed=9))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    capped = run_batch_experiment(doc, ExperimentConfig(runs=6, seed=9, n_jobs=5000))
    assert pool_sizes == [3]
    assert capped == serial
    # a CPU count the host does not report counts as one: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_batch_experiment(doc, ExperimentConfig(runs=6, seed=9, n_jobs=5000)) == serial
    assert pool_sizes == [3]


def test_mode_count_shapes():
    assert smoothed_mode_count([0, 1, 5, 9, 5, 1, 0]) == 1
    assert smoothed_mode_count([9, 5, 1, 0, 0, 1, 5, 9]) == 2
    assert smoothed_mode_count([0, 0, 0, 0]) == 0
    assert smoothed_mode_count([3]) == 1
    # isolated singletons smooth into a plateau, not a mode
    assert smoothed_mode_count([0, 0, 1, 0, 0, 20, 40, 20, 0]) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(runs=1, bins=1)
    with pytest.raises(ValueError):
        ExperimentConfig(runs=1, behavior="bold")
    for n_jobs in (0, -3):
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            ExperimentConfig(runs=1, n_jobs=n_jobs)


def test_report_files(tmp_path):
    doc = small_torus()
    report = run_batch_experiment(doc, ExperimentConfig(runs=5, seed=1, bins=8))
    csv_path = tmp_path / "h.csv"
    write_histogram_csv(report, csv_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 9
    assert sum(int(r[2]) for r in rows[1:]) == 5
    # edges parse back exactly
    assert float(rows[1][0]) == report.bin_edges[0]

    sj = tmp_path / "s.json"
    write_summary_json(report, sj)
    summary = json.loads(sj.read_text())
    assert set(summary) >= {"mean", "std", "mode_count", "non_converged_count"}
    assert summary["mean"] == report.mean

    rj = tmp_path / "r.jsonl"
    write_runs_jsonl(report, rj)
    lines = [json.loads(l) for l in rj.read_text().splitlines()]
    assert len(lines) == 5
    assert lines[0]["seed"] == 1


def test_zero_optimum_refused_before_any_run(monkeypatch):
    doc = InstanceDocument(
        n=2, eta=1.0, budgets=(10, 10), behaviors=("pessimistic",) * 2, edges=()
    )
    monkeypatch.setattr(experiment, "_single_run", None)  # no run may start
    with pytest.raises(ValueError, match="optimum welfare is 0.0"):
        run_batch_experiment(doc, ExperimentConfig(runs=3))


def test_summary_without_converged_runs_is_standard_json(tmp_path):
    cfg = ExperimentConfig(runs=2, dynamics=DynamicsConfig(max_rounds=1))
    report = run_batch_experiment(small_torus(), cfg)
    assert report.non_converged == 2
    path = tmp_path / "s.json"
    write_summary_json(report, path)
    text = path.read_text()
    assert "NaN" not in text
    summary = json.loads(text)
    assert summary["mean"] is None and summary["std"] is None
    assert summary["non_converged_count"] == 2


def test_trace_compression_policy(monkeypatch, tmp_path):
    monkeypatch.setattr(experiment, "FULL_PROFILE_ROUNDS", 3)
    doc = gen_random_instance(n=8, edge_prob=0.6, seed=13, budget_units=40)
    spec = doc.to_game_spec()
    final, trace, status = run_sequential(
        spec, init_profile(spec, RandomFeasible(4)), DynamicsConfig()
    )
    assert isinstance(status, Converged)
    assert status.t > 4  # long enough to cross the snapshot horizon
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, path)
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(rows) == len(trace.records)
    for row, profile in zip(rows, trace.profiles()):
        if row["t"] < 3:
            assert row["profile"] == [
                [i, j, c] for (i, j), c in sorted(profile.counts.items())
            ]
        else:
            assert "profile" not in row
        assert row["welfare"] == social_welfare(spec, profile)
    assert all(row["profile_hash"] for row in rows[3:])
    assert rows[-1]["profile_hash"] == profile_hash(spec, final)


def _assert_trace_values(trace, ranking, path):
    """Every row's welfare and potential equal the whole-profile values
    exactly (the writer patches per-edge terms)."""
    spec = trace.spec
    write_trace_jsonl(trace, path, ranking=ranking)
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(rows) == len(trace.records) > 1
    for row, profile in zip(rows, trace.profiles()):
        assert row["welfare"] == social_welfare(spec, profile)
        assert row["potential"] == potential_value(spec, ranking, profile)


def test_trace_potential_column(tmp_path):
    doc = gen_ranked_instance(n=7, edge_prob=0.5, seed=3, budget_units=30)
    spec = doc.to_game_spec()
    ranking = doc.ranking_system()
    _, trace, _ = run_sequential(
        spec, init_profile(spec, RandomFeasible(3)), DynamicsConfig()
    )
    path = tmp_path / "t.jsonl"
    _assert_trace_values(trace, ranking, path)
    write_trace_jsonl(trace, path)
    assert all(json.loads(l)["potential"] is None for l in path.read_text().splitlines())
    unranked = RankingSystem({i: 1 + (i == 0) for i in range(spec.n)})
    with pytest.raises(ValueError, match="not induced"):
        write_trace_jsonl(trace, path, ranking=unranked)


def test_trace_values_of_simultaneous_rounds(tmp_path):
    doc = gen_ranked_instance(n=7, edge_prob=0.5, seed=3, budget_units=30)
    spec = doc.to_game_spec()
    _, trace, _ = run_simultaneous(
        spec, init_profile(spec, RandomFeasible(3)), DynamicsConfig()
    )
    _assert_trace_values(trace, doc.ranking_system(), tmp_path / "t.jsonl")


def test_trace_jsonl(tmp_path):
    doc = gen_random_instance(n=6, edge_prob=0.5, seed=2, budget_units=10)
    spec = doc.to_game_spec()
    _, trace, _ = run_sequential(
        spec, init_profile(spec, RandomFeasible(1)), DynamicsConfig()
    )
    full = tmp_path / "full.jsonl"
    write_trace_jsonl(trace, full, profiles="full")
    rows = [json.loads(l) for l in full.read_text().splitlines()]
    assert rows[0]["t"] == 0 and rows[0]["mover"] is None
    assert "profile" in rows[0]
    assert all(r["total_slack"] >= 0 for r in rows)

    hashed = tmp_path / "hash.jsonl"
    write_trace_jsonl(trace, hashed, profiles="hash")
    rows_h = [json.loads(l) for l in hashed.read_text().splitlines()]
    assert "profile" not in rows_h[0]
    assert rows_h[0]["profile_hash"]
