"""Edge-configuration regressions: satiation-heavy games, zero weights,
non-terminating-decimal quanta, unit budgets, simultaneous-mode sweeps,
invalid specs handed to the library entry points."""

import math
import time

import pytest

from netalloc.analysis import global_optimum
from netalloc.bestresponse import best_response
from netalloc.dynamics import (
    Converged,
    CycleDetected,
    DynamicsConfig,
    MaxRoundsExceeded,
    NotEquilibrium,
    RandomFeasible,
    RandomSeeded,
    classify_equilibrium,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from netalloc.game import Behavior, FrequencyProfile, GameSpec, validate_game
from netalloc.instances import (
    InstanceDocument,
    gen_random_instance,
    gen_torus_grid,
)
from netalloc.utility import UtilitySpec


def test_all_optimistic_satiating_games_converge():
    for seed in range(15):
        doc = gen_random_instance(
            n=9,
            edge_prob=0.55,
            seed=90_000 + seed,
            budget_units=40,
            behavior="optimistic",
            family="capped_quadratic",
        )
        spec = doc.to_game_spec()
        final, _, status = run_sequential(
            spec,
            init_profile(spec, RandomFeasible(seed)),
            DynamicsConfig(order=RandomSeeded(seed)),
            trace_detail="light",
        )
        assert isinstance(status, Converged)
        assert not isinstance(classify_equilibrium(spec, final), NotEquilibrium)


def _zero_weight_spec():
    u = UtilitySpec.sqrt()
    return GameSpec.build(
        n=3,
        eta=0.5,
        edges=[(0, 1), (1, 2)],
        weights={(0, 1): 1.0, (1, 0): 0.0, (1, 2): 1.0, (2, 1): 1.0},
        budgets={0: 2.0, 1: 3.0, 2: 1.0},
        utilities={(0, 1): u, (1, 0): u, (1, 2): u, (2, 1): u},
        behaviors={i: Behavior.OPTIMISTIC for i in range(3)},
    )


def test_zero_weight_direction_is_legal_and_converges():
    spec = _zero_weight_spec()
    assert validate_game(spec).ok
    final, _, status = run_sequential(
        spec, init_profile(spec, RandomFeasible(1)), DynamicsConfig()
    )
    assert isinstance(status, Converged)
    assert not isinstance(classify_equilibrium(spec, final), NotEquilibrium)


def test_optimistic_disposal_covers_zero_weight_neighbors():
    # slack spreads round-robin over the whole lose set, including neighbors
    # the player gets nothing from (matching the hopeful-reciprocation rule)
    spec = _zero_weight_spec()
    br = best_response(spec, FrequencyProfile.zeros(spec), 1)
    assert br.proposals == [3, 3]
    assert br.realized_utility == 0.0


def test_non_terminating_decimal_quantum_stays_exact():
    base = gen_random_instance(n=8, edge_prob=0.5, seed=77, budget_units=30)
    doc = InstanceDocument(
        n=base.n,
        eta=1 / 3,
        budgets=base.budgets,
        behaviors=base.behaviors,
        edges=base.edges,
    )
    spec = doc.to_game_spec()
    assert validate_game(spec).ok
    _, trace, status = run_sequential(
        spec, init_profile(spec, RandomFeasible(5)), DynamicsConfig()
    )
    assert isinstance(status, Converged)
    slacks = [r.total_slack for r in trace.records]
    assert all(isinstance(s, int) for s in slacks)
    assert all(b <= a for a, b in zip(slacks, slacks[1:]))


def test_unit_budget_games_converge():
    for seed in range(15):
        doc = gen_random_instance(
            n=7, edge_prob=0.6, seed=91_000 + seed, budget_units=1
        )
        spec = doc.to_game_spec()
        final, _, status = run_sequential(
            spec, init_profile(spec, RandomFeasible(seed)), DynamicsConfig()
        )
        assert isinstance(status, Converged)


def test_simultaneous_sweep_terminates_with_classified_statuses():
    seen = set()
    for seed in range(15):
        doc = gen_random_instance(
            n=6, edge_prob=0.5, seed=92_000 + seed, budget_units=12
        )
        spec = doc.to_game_spec()
        final, _, status = run_simultaneous(
            spec,
            init_profile(spec, RandomFeasible(seed)),
            DynamicsConfig(max_rounds=400),
        )
        seen.add(type(status))
        if isinstance(status, Converged):
            assert not isinstance(
                classify_equilibrium(spec, final), NotEquilibrium
            )
        else:
            assert isinstance(status, (CycleDetected, MaxRoundsExceeded))
    assert seen  # every run ended with a classified status


def _torus_with(weight=None, budget=None):
    """The 3x3 sqrt torus, with one weight or every budget replaced."""
    spec = gen_torus_grid(
        3, 3, beta=10.0, eta=1.0, weight_seed=3, utility=UtilitySpec.sqrt()
    ).to_game_spec()
    weights = dict(spec.weights)
    if weight is not None:
        weights[(0, 1)] = weight
    budgets = dict(spec.budgets)
    if budget is not None:
        budgets = dict.fromkeys(budgets, budget)
    return GameSpec.build(
        spec.n, spec.eta, spec.edges, weights, budgets, spec.utilities,
        spec.behaviors,
    )


@pytest.mark.parametrize(
    "call, spec, message",
    [
        (global_optimum, _torus_with(weight=math.nan), "not finite"),
        (global_optimum, _torus_with(budget=1e30), "below 2\\*\\*53"),
        (lambda s: init_profile(s, RandomFeasible(1)), _torus_with(budget=1e30),
         "below 2\\*\\*53"),
        (lambda s: init_profile(s, RandomFeasible(1)), _torus_with(budget=math.nan),
         "below 2\\*\\*53"),
    ],
    ids=["optimum-nan-weight", "optimum-huge-budget", "init-huge-budget",
         "init-nan-budget"],
)
def test_library_entry_points_refuse_invalid_specs(call, spec, message):
    # before validation these ran for more than 20 s (a NaN weight kept the
    # optimum's price search going; 1e30 quanta kept the random fill going)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        call(spec)
    assert time.perf_counter() - start < 1.0
