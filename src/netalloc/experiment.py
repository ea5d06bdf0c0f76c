"""Seeded batch experiments: many dynamics runs, one quality histogram.

Run r of a batch uses base_seed + r both for its random initial profile and
for its random player order, so two batches over the same instance (e.g. an
all-optimistic and an all-pessimistic sweep) are paired run by run.  Runs are
independent; aggregation orders results by run index, so the report is the
same serially or across worker processes (``n_jobs``, at most one per CPU).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    RankingSystem,
    global_optimum,
    potential_terms,
    ranking_violations,
)
from .dynamics import (
    Converged,
    DynamicsConfig,
    RandomFeasible,
    RandomSeeded,
    Trace,
    init_profile,
    run_sequential,
)
from .game import (
    BEHAVIORS,
    FrequencyProfile,
    GameSpec,
    left_sum,
    player_utility,
    social_welfare,
)
from .instances import InstanceDocument
from .lockstep import qualifies, run_batch


@dataclass(frozen=True)
class ExperimentConfig:
    runs: int
    seed: int = 0
    behavior: str | None = None  # None: use the instance's per-player list
    # run r takes RandomSeeded(seed + r) in both engines; dynamics.order is unread
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    bins: int = 40
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.behavior not in (None, *BEHAVIORS):
            raise ValueError(f"unknown behavior {self.behavior!r}")


@dataclass(frozen=True)
class RunOutcome:
    run: int
    seed: int
    converged: bool
    rounds: int
    final_welfare: float
    ratio: float


@dataclass(frozen=True)
class HistogramReport:
    """Equal-width histogram of quality ratios over [min ratio, 1].

    ``mode_count`` counts strict local maxima of the 3-bin moving average of
    the counts (1 means unimodal).  Non-converged runs are excluded from the
    histogram and the mean/stddev but kept in ``runs``.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean: float
    std: float
    mode_count: int
    non_converged: int
    opt_welfare: float
    runs: tuple[RunOutcome, ...]


def _single_run(
    spec: GameSpec, dynamics: DynamicsConfig, opt_sw: float, run: int, seed: int
) -> RunOutcome:
    init = init_profile(spec, RandomFeasible(seed))
    cfg = dataclasses.replace(dynamics, order=RandomSeeded(seed))
    final, _, status = run_sequential(spec, init, cfg, trace_detail="light")
    sw = social_welfare(spec, final)
    converged = isinstance(status, Converged)
    rounds = status.t if converged else dynamics.max_rounds
    return RunOutcome(run, seed, converged, rounds, sw, sw / opt_sw)


# on the criterion-8 torus, fewer runs than this are faster one by one
LOCKSTEP_MIN_RUNS = 12


def _run_tasks(spec, dynamics, opt_sw, tasks: list) -> list[RunOutcome]:
    """The (run, seed) ``tasks``, all or a worker's slice: in lockstep
    (:mod:`~netalloc.lockstep`) where the spec qualifies and there are at
    least ``LOCKSTEP_MIN_RUNS`` of them, else one by one."""
    if len(tasks) < LOCKSTEP_MIN_RUNS or not qualifies(spec):
        return [_single_run(spec, dynamics, opt_sw, r, s) for r, s in tasks]
    results = run_batch(spec, dynamics, [s for _, s in tasks])[0]
    return [RunOutcome(*t, *res, res[2] / opt_sw) for t, res in zip(tasks, results)]


def smoothed_mode_count(counts) -> int:
    """Strict local maxima of the 3-bin moving average of the counts."""
    counts = list(counts)
    k = len(counts)
    smoothed = []
    for idx in range(k):
        window = counts[max(0, idx - 1) : idx + 2]
        smoothed.append(sum(window) / len(window))
    modes = 0
    for idx in range(k):
        left = smoothed[idx - 1] if idx > 0 else -1.0
        right = smoothed[idx + 1] if idx < k - 1 else -1.0
        if smoothed[idx] > left and smoothed[idx] > right:
            modes += 1
    return modes


def run_batch_experiment(
    doc: InstanceDocument, config: ExperimentConfig
) -> HistogramReport:
    """Sequential dynamics from ``runs`` random starts; ratios vs the
    instance's global optimum, binned over [min ratio, 1].  Raises
    ValueError before any run when the optimum welfare is not positive."""
    spec = doc.to_game_spec(behavior_override=config.behavior)
    opt_sw = global_optimum(spec).welfare
    if not opt_sw > 0:
        raise ValueError(
            f"the optimum welfare is {opt_sw}, so quality ratios are undefined"
        )

    tasks = [(r, config.seed + r) for r in range(config.runs)]
    workers = min(config.n_jobs, config.runs, os.cpu_count() or 1)
    if workers > 1:
        cuts = [k * len(tasks) // workers for k in range(workers + 1)]
        parts = [(tasks[a:b],) for a, b in zip(cuts, cuts[1:])]
        run = functools.partial(_run_tasks, spec, config.dynamics, opt_sw)
        with multiprocessing.Pool(processes=workers) as pool:
            outcomes = [o for part in pool.starmap(run, parts) for o in part]
    else:
        outcomes = _run_tasks(spec, config.dynamics, opt_sw, tasks)

    ratios = [o.ratio for o in outcomes if o.converged]
    non_converged = sum(1 for o in outcomes if not o.converged)
    if ratios:
        lo = min(ratios)
        if lo >= 1.0:
            lo = 1.0 - 1e-9
        clipped = np.minimum(np.asarray(ratios), 1.0)
        counts, edges = np.histogram(
            clipped, bins=config.bins, range=(lo, 1.0)
        )
        mean = float(np.mean(ratios))
        std = float(np.std(ratios))
    else:
        counts = np.zeros(config.bins, dtype=int)
        edges = np.linspace(0.0, 1.0, config.bins + 1)
        mean = float("nan")
        std = float("nan")

    return HistogramReport(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean=mean,
        std=std,
        mode_count=smoothed_mode_count(counts),
        non_converged=non_converged,
        opt_welfare=opt_sw,
        runs=tuple(outcomes),
    )


# -- report / trace output -------------------------------------------------------


def write_histogram_csv(report: HistogramReport, path: str | Path) -> None:
    lines = ["bin_lo,bin_hi,count"]
    for k, c in enumerate(report.counts):
        lines.append(
            f"{report.bin_edges[k]!r},{report.bin_edges[k + 1]!r},{c}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_json(report: HistogramReport, path: str | Path) -> None:
    """Standard JSON: a NaN mean and std (no run converged) become null."""
    converged = not math.isnan(report.mean)
    Path(path).write_text(
        json.dumps(
            {
                "mean": report.mean if converged else None,
                "std": report.std if converged else None,
                "mode_count": report.mode_count,
                "non_converged_count": report.non_converged,
                "opt_welfare": report.opt_welfare,
                "runs": len(report.runs),
            },
            indent=2,
            allow_nan=False,
        )
        + "\n",
        encoding="utf-8",
    )


def write_runs_jsonl(report: HistogramReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for o in report.runs:
            fh.write(json.dumps(dataclasses.asdict(o)) + "\n")


FULL_PROFILE_ROUNDS = 10_000  # from this round on, traces hold profile hashes


def profile_hash(spec: GameSpec, profile: FrequencyProfile) -> str:
    key = profile.key(spec)
    return hashlib.sha1(repr(key).encode()).hexdigest()[:16]


def write_trace_jsonl(
    trace: Trace,
    path: str | Path,
    profiles: str = "full",
    ranking: RankingSystem | None = None,
) -> None:
    """One JSON record per round of a full trace, with the welfare and,
    given a ranking, the weighted potential of the profile after it.  The
    profile itself is written before round ``FULL_PROFILE_ROUNDS``, its hash
    from then on and throughout with ``profiles`` "hash".

    Each player's utility and, given a ranking, its
    :func:`~netalloc.analysis.potential_terms` are kept, re-evaluated only
    for the players a round touched, and summed in player order, as
    :func:`~netalloc.game.social_welfare` and
    :func:`~netalloc.analysis.potential_value` sum them."""
    if profiles not in ("full", "hash"):
        raise ValueError(f"unknown profile mode {profiles!r}")
    spec = trace.spec
    if ranking is not None and (bad := ranking_violations(spec, ranking)):
        raise ValueError(bad[0])
    players = [0.0] * spec.n
    terms: list[list[float]] = [[] for _ in range(spec.n)]
    with open(path, "w", encoding="utf-8") as fh:
        for rec, stable, profile in zip(
            trace.records, trace.stable_sets(), trace.profiles()
        ):
            counts = profile.counts
            # record 0 and simultaneous rounds set the whole profile
            if rec.t == 0 or rec.mover == "all":
                touched = range(spec.n)
            else:
                touched = {rec.mover, *(j for _, j in rec.changes)}
            for i in touched:
                players[i] = player_utility(spec, profile, i)
                if ranking is not None:
                    terms[i] = potential_terms(spec, ranking, profile, i)
            phi = None if ranking is None else left_sum(t for row in terms for t in row)
            row: dict = {
                "t": rec.t,
                "mover": rec.mover,
                "total_slack": rec.total_slack,
                "welfare": left_sum(players),
                "potential": phi,
                "stable_players": sorted(stable),
            }
            if profiles == "full" and rec.t < FULL_PROFILE_ROUNDS:
                row["profile"] = [
                    [i, j, c] for (i, j), c in sorted(counts.items())
                ]
            else:
                row["profile_hash"] = profile_hash(spec, profile)
            fh.write(json.dumps(row) + "\n")
