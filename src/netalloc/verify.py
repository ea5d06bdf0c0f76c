"""The eight acceptance criteria for the headline reference results.

Each criterion function recomputes one result at fixed seeds, sizes and
tolerances, returns a one-line summary of what it measured, and raises
``CriterionFailed`` on any failed condition.  ``CRITERIA`` lists them in
order.  ``tests/test_acceptance.py`` calls all eight, and ``netalloc
verify`` runs criteria 1-8 through ``verify_reference_suite``.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from . import analysis, bestresponse, instances
from .dynamics import (
    Converged,
    CycleDetected,
    DynamicsConfig,
    InvariantViolation,
    NotEquilibrium,
    OptimisticNE,
    PessimisticNE,
    RandomFeasible,
    RandomSeeded,
    classify_equilibrium,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from .experiment import ExperimentConfig, run_batch_experiment
from .game import FrequencyProfile, outcome_summary, player_utility, social_welfare
from .utility import FAMILIES, UtilitySpec


class CriterionFailed(AssertionError):
    """A reference result did not reproduce."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CriterionFailed(message)


def k5_cycle() -> str:
    """Criterion 1: simultaneous dynamics on the cycling K5 instance."""
    doc = instances.gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    _, trace, status = run_simultaneous(
        spec, start, DynamicsConfig(max_rounds=100)
    )
    _require(
        status == CycleDetected(start=0, period=2),
        f"expected a period-2 cycle from round 0, got {status}",
    )
    transposed = FrequencyProfile(
        {(j, i): c for (i, j), c in start.counts.items()}
    )
    round_one = list(trace.profiles())[1]
    _require(
        round_one == transposed,  # exact integer equality
        "round-1 profile is not the transpose of the start",
    )
    _require(
        outcome_summary(spec, round_one).agreed
        == outcome_summary(spec, start).agreed,
        "agreed levels changed in round 1",
    )
    return (
        "simultaneous cycle start=0 period=2, round-1 profile is the exact "
        "transpose, agreed levels unchanged"
    )


def slack_laws() -> str:
    """Criterion 2: sequential convergence and the slack laws on 200
    random mixed-behavior instances over all five utility families."""
    rng = random.Random(20_240_817)
    families_seen = set()
    total_rounds = 0
    for k in range(200):
        doc = instances.gen_random_instance(
            n=rng.randint(4, 20), edge_prob=0.4, seed=10_000 + k,
            budget_units=100,
        )
        spec = doc.to_game_spec()
        for e in doc.edges:
            families_seen.add(e.utility_ij.family)
            families_seen.add(e.utility_ji.family)
        _, trace, status = run_sequential(
            spec,
            init_profile(spec, RandomFeasible(k)),
            DynamicsConfig(order=RandomSeeded(k)),
            trace_detail="light",
        )
        _require(isinstance(status, Converged), f"instance {k}: {status}")
        records = trace.records
        slacks = [r.total_slack for r in records]
        _require(
            all(isinstance(s, int) for s in slacks),
            f"instance {k}: non-integer total slack",
        )
        _require(
            all(b <= a for a, b in zip(slacks, slacks[1:])),
            f"instance {k}: total slack increased",
        )
        t0 = 0
        for t in range(1, len(records)):
            if slacks[t] != slacks[t - 1]:
                t0 = t
        stable = list(trace.stable_sets())
        for t in range(t0, len(records) - 1):
            _require(
                stable[t] <= stable[t + 1],
                f"instance {k}: stable set shrank at round {t + 1} on the "
                f"slack-stable suffix",
            )
        total_rounds += status.t
    _require(
        families_seen == set(FAMILIES),
        f"utility families drawn: {sorted(families_seen)}",
    )
    return (
        f"200 mixed-behavior instances converged (avg {total_rounds / 200:.1f} "
        f"rounds), slack non-increasing exactly, stable set monotone on the "
        f"slack-stable suffix"
    )


def potential_identity() -> str:
    """Criterion 3: the weighted-potential identity on 50 rank-weighted
    instances, and the potential never decreases along a run."""
    worst = 0.0
    for k in range(50):
        doc = instances.gen_ranked_instance(
            n=9, edge_prob=0.45, seed=30_000 + k, budget_units=50
        )
        spec = doc.to_game_spec()
        ranking = doc.ranking_system()
        _, trace, status = run_sequential(
            spec,
            init_profile(spec, RandomFeasible(k)),
            DynamicsConfig(order=RandomSeeded(k)),
        )
        _require(isinstance(status, Converged), f"instance {k}: {status}")
        recs = trace.records
        profiles = list(trace.profiles())
        phi = [analysis.potential_value(spec, ranking, p) for p in profiles]
        for t in range(1, len(recs)):
            mover = recs[t].mover
            d_phi = phi[t] - phi[t - 1]
            d_u = player_utility(
                spec, profiles[t], mover
            ) - player_utility(spec, profiles[t - 1], mover)
            scale = (
                2
                * ranking.rank(mover)
                * ranking.neighbor_rank_sum(spec.neighbors, mover)
            )
            err = abs(d_phi - scale * d_u)
            bound = 1e-9 * max(1.0, abs(d_phi))
            _require(err <= bound, f"instance {k} round {t}: {err} > {bound}")
            _require(
                d_phi >= -bound,
                f"instance {k} round {t}: potential decreased by {-d_phi}",
            )
            worst = max(worst, err)
    return (
        f"50 rank-weighted instances: potential change equals twice "
        f"rank*neighbor-rank-sum times the mover's utility change "
        f"(worst error {worst:.2e}), potential monotone"
    )


def optimum_is_equilibrium() -> str:
    """Criterion 4: the welfare optimum matches down to a matched
    equilibrium at equal welfare; match-down keeps the welfare of an
    arbitrary profile and matches every edge; the optimum agrees with the
    exhaustive grid oracle on a triangle."""
    # analysis.match_down is looked up per call so a test can replace it
    for k in range(20):
        doc = instances.gen_random_instance(
            n=4 + (k % 9), edge_prob=0.5, seed=40_000 + k, budget_units=20
        )
        spec = doc.to_game_spec()
        opt = analysis.global_optimum(spec)
        matched = analysis.match_down(spec, opt.profile.to_profile(spec))
        sw = social_welfare(spec, matched)
        _require(
            abs(sw - opt.welfare) <= 1e-6 * max(1.0, abs(opt.welfare)),
            f"instance {k}: match-down welfare {sw} != optimum {opt.welfare}",
        )
        if opt.welfare > 0:
            verdict = classify_equilibrium(spec, matched)
            _require(
                isinstance(verdict, PessimisticNE),
                f"instance {k}: matched optimum classified {verdict}",
            )
        rough = init_profile(spec, RandomFeasible(k + 1))
        evened = analysis.match_down(spec, rough)
        _require(
            social_welfare(spec, evened) == social_welfare(spec, rough),
            f"instance {k}: match-down changed the welfare of a random profile",
        )
        for (i, j) in spec.edges:
            _require(
                evened.counts[(i, j)] == evened.counts[(j, i)],
                f"instance {k}: match-down left edge ({i}, {j}) unmatched",
            )

    u = UtilitySpec.capped_quadratic(1.0)
    triangle = instances.InstanceDocument(
        n=3, eta=0.05, budgets=(20,) * 3, behaviors=("pessimistic",) * 3,
        edges=tuple(
            instances.EdgeSpec(i, j, 0.5, 0.5, u, u)
            for (i, j) in ((0, 1), (0, 2), (1, 2))
        ),
    )
    spec = triangle.to_game_spec()
    opt = analysis.global_optimum(spec)
    bf_profile, bf_sw = analysis.brute_force_optimum(spec)
    _require(
        abs(opt.welfare - bf_sw) <= 1e-6 * max(1.0, bf_sw),
        f"triangle optimum {opt.welfare} vs exhaustive oracle {bf_sw}",
    )
    for e, x in bf_profile.amounts.items():
        _require(
            abs(opt.profile.amounts[e] - x) <= spec.eta,
            f"triangle edge {e}: {opt.profile.amounts[e]} vs oracle {x}",
        )
    return (
        f"20 optima match down to matched equilibria at equal welfare; "
        f"triangle optimum agrees with the exhaustive oracle "
        f"({opt.welfare:.6f} vs {bf_sw:.6f})"
    )


def poa_closed_form() -> str:
    """Criterion 5: the skewed grid's closed-form quality gap."""
    ratios = [analysis.poa_grid_ratio(e, 1.0) for e in (0.1, 0.05, 0.025, 0.0125)]
    _require(ratios[0] == 1.75, f"ratio at eps=0.1 is {ratios[0]}")  # exact
    _require(
        all(a < b for a, b in zip(ratios, ratios[1:])),
        f"ratios do not grow as eps halves: {ratios}",
    )
    doc, good, bad = instances.gen_poa_grid_instance(6, 6, 0.1, 1.0)
    spec = doc.to_game_spec()
    sw_good, sw_bad = analysis.grid_reference_welfare(0.1, 1.0, spec.n)
    for label, profile, expected in (("good", good, sw_good), ("bad", bad, sw_bad)):
        sw = social_welfare(spec, profile)
        _require(
            abs(sw - expected) <= 1e-9,
            f"{label} profile welfare {sw} vs closed form {expected}",
        )
    verdict = classify_equilibrium(spec, bad)
    _require(isinstance(verdict, PessimisticNE), f"bad profile is {verdict}")
    return (
        f"closed-form ratio 1.75 exact; halving the skew strictly raises it "
        f"({', '.join(f'{r:.3f}' for r in ratios)}); emitted profiles match "
        f"closed forms within 1e-9 and the low one is a matched equilibrium"
    )


def solver_vs_oracle() -> str:
    """Criterion 6: the best-response solver's utility equals the exhaustive
    oracle's up to rounding (1e-9 relative)."""
    rng = random.Random(60_617)
    found = 0
    checked_players = 0
    seed = 0
    while found < 100:
        seed += 1
        doc = instances.gen_random_instance(
            n=5, edge_prob=0.5, seed=60_000 + seed,
            budget_units=rng.randint(4, 12),
        )
        spec = doc.to_game_spec()
        if any(spec.degree(i) > 3 for i in range(spec.n)):
            continue
        found += 1
        profile = init_profile(spec, RandomFeasible(seed))
        for i in range(spec.n):
            br = bestresponse.best_response(spec, profile, i)
            _, oracle = bestresponse.brute_force_best_response(spec, profile, i)
            gap = oracle - br.realized_utility
            tol = 1e-9 * max(1.0, oracle)
            _require(
                abs(gap) <= tol,
                f"instance seed {60_000 + seed} player {i}: gap {gap} "
                f"outside +-{tol}",
            )
            checked_players += 1
    return (
        f"100 instances, {checked_players} player/profile pairs: solver "
        f"utility equals the exhaustive oracle's up to rounding"
    )


def matched_equilibria_convex() -> str:
    """Criterion 7: mixes of matched equilibria are matched equilibria, and
    over-matched equilibria stay equilibria on the path to their matched
    versions."""
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    cfg = DynamicsConfig()

    # 50 pairs of matched equilibria from different seeds, same instance
    spec = instances.gen_random_instance(
        n=10, edge_prob=0.45, seed=77_001, budget_units=30,
        behavior="pessimistic",
    ).to_game_spec()
    equilibria = []
    for s in range(100):
        final, _, status = run_sequential(
            spec, init_profile(spec, RandomFeasible(s)), cfg,
            trace_detail="light",
        )
        _require(isinstance(status, Converged), f"seed {s}: {status}")
        matched = analysis.match_down(spec, final)
        verdict = classify_equilibrium(spec, matched)
        _require(
            isinstance(verdict, PessimisticNE),
            f"seed {s}: matched-down equilibrium classified {verdict}",
        )
        equilibria.append(matched)
    pairs = list(zip(equilibria[:50], equilibria[50:]))
    _require(len(pairs) == 50, f"{len(pairs)} equilibrium pairs, not 50")
    for p, (a, b) in enumerate(pairs):
        for alpha in alphas:
            mix = analysis.convex_combine(spec, a, b, alpha)
            verdict = classify_equilibrium(spec, mix, tol=1e-9)
            _require(
                isinstance(verdict, PessimisticNE),
                f"pair {p} mixed at {alpha} classified {verdict}",
            )

    # 20 over-matched equilibria mixed with their matched-down versions;
    # grid equilibria are settled into continuous ones first, since the
    # 1e-9 classification tolerance measures continuous deviations
    spec2 = instances.gen_random_instance(
        n=10, edge_prob=0.45, seed=77_002, budget_units=30,
        behavior="optimistic",
    ).to_game_spec()
    over_matched = []
    s = 0
    while len(over_matched) < 20:
        final, _, status = run_sequential(
            spec2, init_profile(spec2, RandomFeasible(s)), cfg,
            trace_detail="light",
        )
        _require(isinstance(status, Converged), f"seed {s}: {status}")
        s += 1
        settled = analysis.continuous_equilibrium_polish(spec2, final)
        if isinstance(classify_equilibrium(spec2, settled), OptimisticNE):
            over_matched.append(settled)
    for q, ne in enumerate(over_matched):
        down = analysis.match_down(spec2, ne)
        for alpha in alphas:
            mix = analysis.convex_combine(spec2, ne, down, alpha)
            verdict = classify_equilibrium(spec2, mix, tol=1e-9)
            _require(
                not isinstance(verdict, NotEquilibrium),
                f"over-matched equilibrium {q} mixed at {alpha} is no "
                f"equilibrium",
            )
    return (
        "50 matched-equilibrium pairs stay matched equilibria at 9 mixing "
        "levels; 20 over-matched equilibria stay equilibria along the path "
        "to their matched versions"
    )


def batch_shape() -> str:
    """Criterion 8: 1,000 paired runs on the 10x10 torus; optimistic beats
    pessimistic in mean quality with no larger spread, both unimodal."""
    doc = instances.gen_torus_grid(
        10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
    )
    ro, rp = (
        run_batch_experiment(
            doc, ExperimentConfig(runs=1000, seed=1000, behavior=b, bins=20)
        )
        for b in ("optimistic", "pessimistic")
    )
    # each message gives the optimistic value before the pessimistic one
    _require(
        ro.non_converged == 0 and rp.non_converged == 0,
        f"non-converged runs {ro.non_converged}/{rp.non_converged}",
    )
    _require(
        all(o.ratio <= 1.0 + 1e-6 for o in ro.runs + rp.runs),
        "a run's quality ratio exceeds 1",
    )
    _require(ro.mean - rp.mean >= 0.03, f"means {ro.mean}/{rp.mean}")
    _require(ro.std <= rp.std, f"stds {ro.std}/{rp.std}")
    _require(
        ro.mode_count == 1 and rp.mode_count == 1,
        f"histogram modes {ro.mode_count}/{rp.mode_count}",
    )
    return (
        f"1000 paired runs: optimistic mean {ro.mean:.3f} (std {ro.std:.3f}) "
        f"vs pessimistic mean {rp.mean:.3f} (std {rp.std:.3f}); gap "
        f"{ro.mean - rp.mean:.3f} >= 0.03, both histograms unimodal; "
        f"reference values for comparison: means 0.908/0.806, stddevs "
        f"0.011/0.017"
    )


CRITERIA: tuple[tuple[str, Callable[[], str]], ...] = (
    ("k5-cycle", k5_cycle),
    ("slack-laws", slack_laws),
    ("potential-identity", potential_identity),
    ("optimum-is-equilibrium", optimum_is_equilibrium),
    ("poa-closed-form", poa_closed_form),
    ("solver-vs-oracle", solver_vs_oracle),
    ("matched-equilibria-convex", matched_equilibria_convex),
    ("batch-shape", batch_shape),
)


def verify_reference_suite() -> list[CheckResult]:
    """Run criteria 1-8; deterministic, no external inputs."""
    results = []
    for name, criterion in CRITERIA:
        try:
            results.append(CheckResult(name, True, criterion()))
        except (CriterionFailed, InvariantViolation) as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
