"""Self-contained verification suite for the headline reference results.

Each check recomputes a known quantity (cycle structure, closed-form welfare
ratios, potential identity, optimum-is-equilibrium, solver-vs-oracle
agreement, convexity of matched equilibria) and reports pass/fail with the
measured values.  The CLI ``verify`` subcommand exits nonzero if any fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis, bestresponse, instances
from .dynamics import (
    Converged,
    CycleDetected,
    DynamicsConfig,
    PessimisticNE,
    RandomFeasible,
    classify_equilibrium,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from .game import FrequencyProfile, player_utility, social_welfare


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


def _check_k5_cycle() -> CheckResult:
    doc = instances.gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    cfg = DynamicsConfig(max_rounds=50)
    _, trace, status = run_simultaneous(spec, start, cfg)
    if not isinstance(status, CycleDetected):
        return CheckResult("k5-cycle", False, f"no cycle: {status}")
    expected_next = FrequencyProfile(
        {(j, i): c for (i, j), c in start.counts.items()}
    )
    round_one = trace.records[1].profile
    ok = (
        status.start == 0
        and status.period == 2
        and round_one == expected_next
    )
    return CheckResult(
        "k5-cycle",
        ok,
        f"start={status.start} period={status.period} "
        f"transposed_round_1={round_one == expected_next}",
    )


def _check_poa_closed_form() -> CheckResult:
    ratio = analysis.poa_grid_ratio(0.1, 1.0)
    ok = ratio == 1.75
    ratios = [analysis.poa_grid_ratio(e, 1.0) for e in (0.1, 0.05, 0.025)]
    ok = ok and ratios[0] < ratios[1] < ratios[2]
    doc, good, bad = instances.gen_poa_grid_instance(4, 4, 0.1, 1.0)
    spec = doc.to_game_spec()
    sw_good, sw_bad = analysis.grid_reference_welfare(0.1, 1.0, spec.n)
    ok = ok and abs(social_welfare(spec, good) - sw_good) <= 1e-9
    ok = ok and abs(social_welfare(spec, bad) - sw_bad) <= 1e-9
    ok = ok and isinstance(classify_equilibrium(spec, bad), PessimisticNE)
    return CheckResult(
        "poa-closed-form",
        ok,
        f"ratio(0.1)={ratio} diverging={ratios}",
    )


def _check_potential_identity(n_instances: int = 6) -> CheckResult:
    worst = 0.0
    for k in range(n_instances):
        doc = instances.gen_ranked_instance(
            n=8, edge_prob=0.5, seed=900 + k, budget_units=40
        )
        spec = doc.to_game_spec()
        ranking = doc.ranking_system()
        init = init_profile(spec, RandomFeasible(k))
        cfg = DynamicsConfig(max_rounds=20_000)
        _, trace, status = run_sequential(spec, init, cfg, ranking=ranking)
        if not isinstance(status, Converged):
            return CheckResult(
                "potential-identity", False, f"instance {k} did not converge"
            )
        recs = trace.records
        for t in range(1, len(recs)):
            mover = recs[t].mover
            d_phi = recs[t].potential - recs[t - 1].potential
            before = player_utility(spec, recs[t - 1].profile, mover)
            after = player_utility(spec, recs[t].profile, mover)
            scale = (
                2
                * ranking.rank(mover)
                * ranking.neighbor_rank_sum(spec.neighbors, mover)
            )
            err = abs(d_phi - scale * (after - before))
            tol = 1e-9 * max(1.0, abs(d_phi))
            worst = max(worst, err)
            if err > tol:
                return CheckResult(
                    "potential-identity",
                    False,
                    f"identity off by {err} at instance {k} round {t}",
                )
            if d_phi < -tol:
                return CheckResult(
                    "potential-identity",
                    False,
                    f"potential decreased at instance {k} round {t}",
                )
    return CheckResult(
        "potential-identity", True, f"max relative error {worst:.3e}"
    )


def _check_optimum_is_equilibrium(n_instances: int = 5) -> CheckResult:
    for k in range(n_instances):
        doc = instances.gen_random_instance(
            n=7, edge_prob=0.5, seed=700 + k, budget_units=20
        )
        spec = doc.to_game_spec()
        opt = analysis.global_optimum(spec)
        profile = opt.profile.to_profile(spec)
        matched = analysis.match_down(spec, profile)
        sw = social_welfare(spec, matched)
        if abs(sw - opt.welfare) > 1e-6 * max(1.0, abs(opt.welfare)):
            return CheckResult(
                "optimum-is-equilibrium",
                False,
                f"instance {k}: match-down welfare {sw} != {opt.welfare}",
            )
        verdict = classify_equilibrium(spec, matched)
        if not isinstance(verdict, PessimisticNE):
            return CheckResult(
                "optimum-is-equilibrium",
                False,
                f"instance {k}: optimum classified {verdict}",
            )
        # the transform itself: an arbitrary (asymmetric) profile must come
        # back matched on every edge with its welfare intact
        rough = init_profile(spec, RandomFeasible(k + 1))
        evened = analysis.match_down(spec, rough)
        if social_welfare(spec, evened) != social_welfare(spec, rough):
            return CheckResult(
                "optimum-is-equilibrium",
                False,
                f"instance {k}: match-down changed welfare",
            )
        for (i, j) in spec.edges:
            if evened.counts[(i, j)] != evened.counts[(j, i)]:
                return CheckResult(
                    "optimum-is-equilibrium",
                    False,
                    f"instance {k}: match-down left edge ({i},{j}) unmatched",
                )
    return CheckResult(
        "optimum-is-equilibrium", True, f"{n_instances} instances"
    )


def _check_solver_vs_oracle(n_instances: int = 25) -> CheckResult:
    worst = 0.0
    for k in range(n_instances):
        doc = instances.gen_random_instance(
            n=5, edge_prob=0.55, seed=500 + k, budget_units=10
        )
        spec = doc.to_game_spec()
        if any(spec.degree(i) > 3 for i in range(spec.n)):
            continue
        profile = init_profile(spec, RandomFeasible(k))
        for i in range(spec.n):
            br = bestresponse.best_response(spec, profile, i)
            _, oracle_util = bestresponse.brute_force_best_response(
                spec, profile, i
            )
            gap = oracle_util - br.realized_utility
            tol = bestresponse.oracle_tolerance(spec, i)
            if gap > tol or gap < -1e-9:
                return CheckResult(
                    "solver-vs-oracle",
                    False,
                    f"instance {k} player {i}: gap {gap} vs tolerance {tol}",
                )
            worst = max(worst, gap)
    return CheckResult("solver-vs-oracle", True, f"max gap {worst:.3e}")


def _check_matched_equilibria_convex() -> CheckResult:
    doc = instances.gen_random_instance(
        n=8, edge_prob=0.5, seed=4242, budget_units=30
    )
    spec = doc.to_game_spec()
    cfg = DynamicsConfig(max_rounds=50_000)
    equilibria = []
    for seed in range(6):
        init = init_profile(spec, RandomFeasible(seed))
        final, _, status = run_sequential(spec, init, cfg, trace_detail="light")
        if not isinstance(status, Converged):
            return CheckResult(
                "matched-equilibria-convex", False, f"seed {seed} not converged"
            )
        equilibria.append(analysis.match_down(spec, final))
    for a in range(len(equilibria)):
        for b in range(a + 1, len(equilibria)):
            for alpha in (0.25, 0.5, 0.75):
                mix = analysis.convex_combine(
                    spec, equilibria[a], equilibria[b], alpha
                )
                verdict = classify_equilibrium(spec, mix)
                if not isinstance(verdict, PessimisticNE):
                    return CheckResult(
                        "matched-equilibria-convex",
                        False,
                        f"mix {a},{b}@{alpha} classified {verdict}",
                    )
    return CheckResult(
        "matched-equilibria-convex",
        True,
        f"{len(equilibria)} equilibria, all pairwise mixes matched",
    )


def verify_reference_suite() -> list[CheckResult]:
    """Run every reference check; deterministic, no external inputs."""
    return [
        _check_k5_cycle(),
        _check_poa_closed_form(),
        _check_potential_identity(),
        _check_optimum_is_equilibrium(),
        _check_solver_vs_oracle(),
        _check_matched_equilibria_convex(),
    ]
