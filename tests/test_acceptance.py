"""Acceptance suite: one test per headline criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  The batch-experiment criterion takes a few minutes; all
bounds asserted here (tolerances and runtime ceilings) are fixed, not tuned.
"""

import random
import time

from netalloc.analysis import (
    brute_force_optimum,
    continuous_equilibrium_polish,
    convex_combine,
    global_optimum,
    grid_reference_welfare,
    match_down,
    poa_grid_ratio,
)
from netalloc.bestresponse import (
    best_response,
    brute_force_best_response,
    oracle_tolerance,
)
from netalloc.dynamics import (
    Converged,
    CycleDetected,
    DynamicsConfig,
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
from netalloc.experiment import ExperimentConfig, run_batch_experiment
from netalloc.game import (
    FrequencyProfile,
    outcome_summary,
    player_utility,
    social_welfare,
)
from netalloc.instances import (
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_random_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from netalloc.utility import UtilitySpec


def _report(criterion: str, detail: str) -> None:
    print(f"\n[{criterion}] PASS  {detail}")


def test_criterion_1_k5_simultaneous_cycle():
    started = time.perf_counter()
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    final, trace, status = run_simultaneous(
        spec, start, DynamicsConfig(max_rounds=100)
    )
    assert status == CycleDetected(start=0, period=2)
    transposed = FrequencyProfile(
        {(j, i): c for (i, j), c in start.counts.items()}
    )
    assert trace.records[1].profile == transposed  # exact integer equality
    agreed_0 = outcome_summary(spec, start).agreed
    agreed_1 = outcome_summary(spec, trace.records[1].profile).agreed
    assert agreed_1 == agreed_0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(
        "criterion 1",
        f"simultaneous cycle start=0 period=2, round-1 profile is the exact "
        f"transpose, agreed levels unchanged ({elapsed:.2f}s)",
    )


def test_criterion_2_sequential_convergence_and_slack_laws():
    started = time.perf_counter()
    rng = random.Random(20_240_817)
    families_seen = set()
    total_rounds = 0
    for k in range(200):
        n = rng.randint(4, 20)
        doc = gen_random_instance(
            n=n, edge_prob=0.4, seed=10_000 + k, budget_units=100
        )
        spec = doc.to_game_spec()
        for e in doc.edges:
            families_seen.add(e.utility_ij.family)
            families_seen.add(e.utility_ji.family)
        init = init_profile(spec, RandomFeasible(k))
        final, trace, status = run_sequential(
            spec,
            init,
            DynamicsConfig(order=RandomSeeded(k), check_invariants=True),
            trace_detail="light",
        )
        assert isinstance(status, Converged), f"instance {k}: {status}"
        slacks = [r.total_slack for r in trace.records]
        assert all(isinstance(s, int) for s in slacks)
        assert all(b <= a for a, b in zip(slacks, slacks[1:]))
        t0 = 0
        for t in range(1, len(trace.records)):
            if slacks[t] != slacks[t - 1]:
                t0 = t
        for t in range(t0, len(trace.records) - 1):
            assert (
                trace.records[t].stable_players
                <= trace.records[t + 1].stable_players
            )
        total_rounds += status.t
    assert families_seen == {
        "linear", "sqrt", "log1p", "power", "capped_quadratic",
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        "criterion 2",
        f"200 mixed-behavior instances converged (avg {total_rounds / 200:.1f} "
        f"rounds), slack non-increasing exactly, stable set monotone on the "
        f"slack-stable suffix ({elapsed:.1f}s)",
    )


def test_criterion_3_weighted_potential_identity():
    started = time.perf_counter()
    worst = 0.0
    for k in range(50):
        doc = gen_ranked_instance(
            n=9, edge_prob=0.45, seed=30_000 + k, budget_units=50
        )
        spec = doc.to_game_spec()
        ranking = doc.ranking_system()
        final, trace, status = run_sequential(
            spec,
            init_profile(spec, RandomFeasible(k)),
            DynamicsConfig(order=RandomSeeded(k)),
            ranking=ranking,
        )
        assert isinstance(status, Converged)
        recs = trace.records
        for t in range(1, len(recs)):
            mover = recs[t].mover
            d_phi = recs[t].potential - recs[t - 1].potential
            d_u = player_utility(
                spec, recs[t].profile, mover
            ) - player_utility(spec, recs[t - 1].profile, mover)
            scale = (
                2
                * ranking.rank(mover)
                * ranking.neighbor_rank_sum(spec.neighbors, mover)
            )
            err = abs(d_phi - scale * d_u)
            bound = 1e-9 * max(1.0, abs(d_phi))
            assert err <= bound, f"instance {k} round {t}: {err} > {bound}"
            assert d_phi >= -bound  # potential non-decreasing along the run
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        "criterion 3",
        f"50 rank-weighted instances: potential change equals twice "
        f"rank*neighbor-rank-sum times the mover's utility change "
        f"(worst error {worst:.2e}), potential monotone ({elapsed:.1f}s)",
    )


def test_criterion_4_optimum_is_matched_equilibrium():
    started = time.perf_counter()
    for k in range(20):
        doc = gen_random_instance(
            n=4 + (k % 9), edge_prob=0.5, seed=40_000 + k, budget_units=20
        )
        spec = doc.to_game_spec()
        opt = global_optimum(spec)
        matched = match_down(spec, opt.profile.to_profile(spec))
        sw = social_welfare(spec, matched)
        assert abs(sw - opt.welfare) <= 1e-6 * max(1.0, abs(opt.welfare))
        if opt.welfare > 0:
            assert isinstance(classify_equilibrium(spec, matched), PessimisticNE)

    # independent grid oracle on the triangle instance
    u = UtilitySpec.capped_quadratic(1.0)
    from helpers import triangle_doc

    spec = triangle_doc(eta=0.05, budget_units=20, u=u).to_game_spec()
    opt = global_optimum(spec)
    bf_profile, bf_sw = brute_force_optimum(spec)
    assert abs(opt.welfare - bf_sw) <= 1e-6 * max(1.0, bf_sw)
    for e, x in bf_profile.amounts.items():
        assert abs(opt.profile.amounts[e] - x) <= spec.eta
    elapsed = time.perf_counter() - started
    _report(
        "criterion 4",
        f"20 optima match down to matched equilibria at equal welfare; "
        f"triangle optimum agrees with the exhaustive oracle "
        f"({opt.welfare:.6f} vs {bf_sw:.6f}) ({elapsed:.1f}s)",
    )


def test_criterion_5_quality_gap_divergence():
    started = time.perf_counter()
    assert poa_grid_ratio(0.1, 1.0) == 1.75  # exact closed form
    halvings = [0.1, 0.05, 0.025, 0.0125]
    ratios = [poa_grid_ratio(e, 1.0) for e in halvings]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))

    doc, good, bad = gen_poa_grid_instance(6, 6, 0.1, 1.0)
    spec = doc.to_game_spec()
    sw_good, sw_bad = grid_reference_welfare(0.1, 1.0, spec.n)
    assert abs(social_welfare(spec, good) - sw_good) <= 1e-9
    assert abs(social_welfare(spec, bad) - sw_bad) <= 1e-9
    assert isinstance(classify_equilibrium(spec, bad), PessimisticNE)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 5",
        f"closed-form ratio 1.75 exact; halving the skew strictly raises it "
        f"({', '.join(f'{r:.3f}' for r in ratios)}); emitted profiles match "
        f"closed forms within 1e-9 and the low one is a matched equilibrium "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_solver_matches_oracle_within_quantization():
    started = time.perf_counter()
    rng = random.Random(60_617)
    instances = 0
    checked_players = 0
    seed = 0
    while instances < 100:
        seed += 1
        doc = gen_random_instance(
            n=5,
            edge_prob=0.5,
            seed=60_000 + seed,
            budget_units=rng.randint(4, 12),
        )
        spec = doc.to_game_spec()
        if any(spec.degree(i) > 3 for i in range(spec.n)):
            continue
        instances += 1
        profile = init_profile(spec, RandomFeasible(seed))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            _, oracle = brute_force_best_response(spec, profile, i)
            gap = oracle - br.realized_utility
            assert gap <= oracle_tolerance(spec, i)
            assert gap >= -1e-9
            checked_players += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion 6",
        f"100 instances, {checked_players} player/profile pairs: solver "
        f"utility within the quantization bound of the exhaustive oracle, "
        f"never above it ({elapsed:.1f}s)",
    )


def test_criterion_7_equilibrium_set_geometry():
    started = time.perf_counter()
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]

    # 50 pairs of matched equilibria from different seeds, same instance
    doc = gen_random_instance(
        n=10, edge_prob=0.45, seed=77_001, budget_units=30,
        behavior="pessimistic",
    )
    spec = doc.to_game_spec()
    cfg = DynamicsConfig()
    equilibria = []
    for s in range(100):
        final, _, status = run_sequential(
            spec, init_profile(spec, RandomFeasible(s)), cfg,
            trace_detail="light",
        )
        assert isinstance(status, Converged)
        matched = match_down(spec, final)
        assert isinstance(classify_equilibrium(spec, matched), PessimisticNE)
        equilibria.append(matched)
    pairs = list(zip(equilibria[:50], equilibria[50:]))
    assert len(pairs) == 50
    for a, b in pairs:
        for alpha in alphas:
            mix = convex_combine(spec, a, b, alpha)
            assert isinstance(
                classify_equilibrium(spec, mix, tol=1e-9), PessimisticNE
            )

    # 20 over-matched equilibria mixed with their matched-down versions;
    # grid equilibria are settled into continuous ones first, since the
    # 1e-9 classification tolerance measures continuous deviations
    doc2 = gen_random_instance(
        n=10, edge_prob=0.45, seed=77_002, budget_units=30,
        behavior="optimistic",
    )
    spec2 = doc2.to_game_spec()
    over_matched = []
    s = 0
    while len(over_matched) < 20:
        final, _, status = run_sequential(
            spec2, init_profile(spec2, RandomFeasible(s)), cfg,
            trace_detail="light",
        )
        s += 1
        assert isinstance(status, Converged)
        settled = continuous_equilibrium_polish(spec2, final)
        if isinstance(classify_equilibrium(spec2, settled), OptimisticNE):
            over_matched.append(settled)
    for ne in over_matched:
        down = match_down(spec2, ne)
        for alpha in alphas:
            mix = convex_combine(spec2, ne, down, alpha)
            verdict = classify_equilibrium(spec2, mix, tol=1e-9)
            assert not isinstance(verdict, NotEquilibrium)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 7",
        f"50 matched-equilibrium pairs stay matched equilibria at 9 mixing "
        f"levels; 20 over-matched equilibria stay equilibria along the path "
        f"to their matched versions ({elapsed:.1f}s)",
    )


def test_criterion_8_batch_experiment_direction_and_shape():
    started = time.perf_counter()
    doc = gen_torus_grid(
        10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
    )
    reports = {}
    for behavior in ("optimistic", "pessimistic"):
        cfg = ExperimentConfig(runs=1000, seed=1000, behavior=behavior, bins=20)
        reports[behavior] = run_batch_experiment(doc, cfg)
    ro, rp = reports["optimistic"], reports["pessimistic"]
    assert ro.non_converged == 0 and rp.non_converged == 0
    assert all(o.ratio <= 1.0 + 1e-6 for o in ro.runs + rp.runs)
    assert ro.mean - rp.mean >= 0.03
    assert ro.std <= rp.std
    assert ro.mode_count == 1
    assert rp.mode_count == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(
        "criterion 8",
        f"1000 paired runs: optimistic mean {ro.mean:.3f} (std {ro.std:.3f}) "
        f"vs pessimistic mean {rp.mean:.3f} (std {rp.std:.3f}); gap "
        f"{ro.mean - rp.mean:.3f} >= 0.03, both histograms unimodal; "
        f"reference values for comparison: means 0.908/0.806, stddevs "
        f"0.011/0.017 ({elapsed:.0f}s)",
    )
