import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OPT, PESS, make_spec, path3_spec, profile_of, single_edge_spec
from netalloc.game import (
    Behavior,
    FrequencyProfile,
    GameSpec,
    InfeasibleProfileError,
    check_feasible,
    outcome_summary,
    player_utility,
    social_welfare,
    validate_game,
)
from netalloc.dynamics import RandomFeasible, init_profile
from netalloc.experiment import profile_hash
from netalloc.instances import gen_k5_cycle_instance, gen_random_instance
from netalloc.utility import UtilitySpec


def test_validate_k5_instance_ok():
    spec = gen_k5_cycle_instance(0.05).to_game_spec()
    report = validate_game(spec)
    assert report.ok
    assert report.violations == ()


def test_validate_catches_broken_weight_row():
    spec = gen_k5_cycle_instance(0.05).to_game_spec()
    weights = dict(spec.weights)
    for j in spec.neighbors[0]:
        weights[(0, j)] *= 2.0
    broken = GameSpec(
        n=spec.n,
        eta=spec.eta,
        edges=spec.edges,
        weights=weights,
        budgets=spec.budgets,
        utilities=spec.utilities,
        behaviors=spec.behaviors,
    )
    report = validate_game(broken)
    assert not report.ok
    assert any("weights of player 0 sum to 2" in v for v in report.violations)


def test_validate_catches_off_grid_budget():
    spec = single_edge_spec(eta=1.0, budgets=(1.5, 5.0))
    report = validate_game(spec)
    assert not report.ok
    assert any(
        "budget of player 0" in v and "not a multiple of eta" in v
        for v in report.violations
    )


def test_validate_catches_negative_weight_and_missing_direction():
    u = UtilitySpec.sqrt()
    spec = GameSpec.build(
        n=2,
        eta=1.0,
        edges=[(0, 1)],
        weights={(0, 1): -0.5},  # (1, 0) missing entirely
        budgets={0: 2.0, 1: 2.0},
        utilities={(0, 1): u},
        behaviors={0: PESS, 1: PESS},
    )
    report = validate_game(spec)
    assert any("negative" in v for v in report.violations)
    assert any("missing weight for directed edge (1, 0)" in v for v in report.violations)
    assert any("missing utility for directed edge (1, 0)" in v for v in report.violations)


def test_validate_flags_self_loop_and_unknown_player():
    u = UtilitySpec.linear()
    spec = GameSpec.build(
        n=2,
        eta=1.0,
        edges=[(1, 1), (0, 5)],
        weights={},
        budgets={0: 0.0, 1: 0.0},
        utilities={},
        behaviors={0: PESS, 1: PESS},
    )
    report = validate_game(spec)
    assert any("self-loop" in v for v in report.violations)
    assert any("unknown players" in v for v in report.violations)


def test_isolated_player_is_legal():
    u = UtilitySpec.sqrt()
    spec = make_spec(
        3, 1.0, [(0, 1, 1.0, 1.0, u, u)], [3.0, 3.0, 7.0]
    )
    assert validate_game(spec).ok
    profile = profile_of(spec, {0: {1: 2}, 1: {0: 1}})
    assert player_utility(spec, profile, 2) == 0.0


def test_outcome_summary_win_lose_and_min():
    u = UtilitySpec.sqrt()
    spec = single_edge_spec(u, eta=1.0, budgets=(8.0, 8.0))
    profile = profile_of(spec, {0: {1: 3}, 1: {0: 5}})
    s = outcome_summary(spec, profile)
    assert s.agreed[(0, 1)] == 3
    assert s.win[0] == {1}
    assert s.win[1] == frozenset()
    assert s.slack[0] == 5 and s.slack[1] == 5
    assert s.total_slack == 10


def test_outcome_summary_k5_initial():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    s = outcome_summary(spec, doc.init_profile())
    # each agreed level is 1/4 - eps; each player keeps 4 eps = 4 quanta
    assert all(c == 4 for c in s.agreed.values())
    assert all(s.slack[i] == 4 for i in range(5))
    assert s.total_slack == 20
    for i in range(5):
        assert len(s.win[i]) == 2


def test_outcome_summary_zero_profile():
    spec = single_edge_spec(budgets=(4.0, 6.0))
    s = outcome_summary(spec, FrequencyProfile.zeros(spec))
    assert s.agreed[(0, 1)] == 0
    assert s.slack == {0: 4, 1: 6}
    assert s.win[0] == frozenset() and s.win[1] == frozenset()


def test_infeasible_profile_rejected_with_player():
    spec = single_edge_spec(budgets=(2.0, 2.0))
    profile = profile_of(spec, {0: {1: 3}})
    with pytest.raises(InfeasibleProfileError) as err:
        outcome_summary(spec, profile)
    assert err.value.player == 0


def test_integer_rows_are_held_to_the_budget_exactly():
    # 2**40 quanta: a relative tolerance of 1e-9 would let 1,099 through
    spec = single_edge_spec(budgets=(2.0**40, 2.0**40))
    over = profile_of(spec, {0: {1: 2**40 + 1}})
    with pytest.raises(InfeasibleProfileError) as err:
        check_feasible(spec, over)
    assert err.value.player == 0
    check_feasible(spec, profile_of(spec, {0: {1: 2**40}}))
    # a float row keeps the relative tolerance
    check_feasible(spec, profile_of(spec, {0: {1: 2.0**40 + 500.0}}))


def _non_edge_profiles(spec):
    """Profiles with a proposal from 0 to its non-neighbour 2: in spec order
    with (0, 2) in place of (0, 1) or appended, and reordered."""
    zero = {e: 0 for e in spec.directed_edges}
    swapped = {((0, 2) if e == (0, 1) else e): c for e, c in zero.items()}
    return {
        "in_place": swapped,
        "appended": {**zero, (0, 2): 0},
        "reordered": dict(reversed(list(swapped.items()))),
    }


@pytest.mark.parametrize("stray_weight", [False, True])
@pytest.mark.parametrize("case", ["in_place", "appended", "reordered"])
def test_proposal_on_a_non_edge_is_rejected(case, stray_weight):
    spec = path3_spec()
    if stray_weight:  # an invalid spec: a weight for the non-edge (0, 2)
        spec = GameSpec(
            n=spec.n,
            eta=spec.eta,
            edges=spec.edges,
            weights={**spec.weights, (0, 2): 0.0},
            budgets=spec.budgets,
            utilities=spec.utilities,
            behaviors=spec.behaviors,
        )
        assert "weight given for non-edge (0, 2)" in validate_game(spec).violations
    profile = FrequencyProfile(_non_edge_profiles(spec)[case])
    with pytest.raises(InfeasibleProfileError, match=r"non-edge \(0, 2\)") as err:
        check_feasible(spec, profile)
    assert err.value.player == 0


def test_non_edge_is_reported_before_a_missing_proposal():
    spec = path3_spec()
    counts = {e: 0 for e in spec.directed_edges if e != (1, 0)}
    counts[(2, 0)] = 0
    with pytest.raises(InfeasibleProfileError, match=r"non-edge \(2, 0\)") as err:
        check_feasible(spec, FrequencyProfile(counts))
    assert err.value.player == 2
    del counts[(2, 0)]
    with pytest.raises(InfeasibleProfileError, match="missing proposal from 1 to 0"):
        check_feasible(spec, FrequencyProfile(counts))


def test_player_utility_examples():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    # all agreed levels at 0.2 with weight row summing to one: u = 0.2*0.8
    for i in range(5):
        assert player_utility(spec, start, i) == pytest.approx(0.16)
    assert social_welfare(spec, start) == pytest.approx(0.8)

    sq = single_edge_spec(UtilitySpec.sqrt(), eta=1.0, budgets=(4.0, 4.0))
    p = profile_of(sq, {0: {1: 4}, 1: {0: 4}})
    assert player_utility(sq, p, 0) == 2.0


def test_social_welfare_empty_graph():
    spec = make_spec(3, 1.0, [], [1.0, 2.0, 3.0])
    assert social_welfare(spec, FrequencyProfile.zeros(spec)) == 0.0


def test_monotone_in_single_proposal():
    from netalloc.dynamics import RandomFeasible, init_profile

    rng = random.Random(5)
    for k in range(20):
        doc = gen_random_instance(n=6, edge_prob=0.6, seed=k, budget_units=10)
        spec = doc.to_game_spec()
        if not spec.directed_edges:
            continue
        profile = init_profile(spec, RandomFeasible(k))
        counts = profile.counts
        base = outcome_summary(spec, profile)
        i, j = spec.directed_edges[rng.randrange(len(spec.directed_edges))]
        out_total = sum(counts[(i, k)] for k in spec.neighbors[i])
        if out_total + 1 > spec.budget_units(i):
            continue
        bumped = profile.with_proposals(i, {j: counts[(i, j)] + 1})
        after = outcome_summary(spec, bumped)
        e = (min(i, j), max(i, j))
        assert after.agreed[e] >= base.agreed[e]
        assert after.slack[i] <= base.slack[i]
        # a larger agreed level never hurts either endpoint's utility
        assert player_utility(spec, bumped, i) >= player_utility(spec, profile, i) - 1e-12
        assert player_utility(spec, bumped, j) >= player_utility(spec, profile, j) - 1e-12


def test_outcome_invariants_on_random_profiles():
    from netalloc.dynamics import RandomFeasible, init_profile

    for k in range(20):
        doc = gen_random_instance(n=8, edge_prob=0.5, seed=100 + k, budget_units=12)
        spec = doc.to_game_spec()
        profile = init_profile(spec, RandomFeasible(k))
        s = outcome_summary(spec, profile)
        for (i, j), a in s.agreed.items():
            assert a == min(profile.counts[(i, j)], profile.counts[(j, i)])
        for i in range(spec.n):
            assert s.slack[i] >= 0
            assert s.win[i] == {
                j
                for j in spec.neighbors[i]
                if profile.counts[(i, j)] < profile.counts[(j, i)]
            }
        assert s.total_slack == sum(s.slack.values())


def test_determinism_bit_identical():
    doc = gen_random_instance(n=7, edge_prob=0.5, seed=42, budget_units=9)
    spec = doc.to_game_spec()
    from netalloc.dynamics import RandomFeasible, init_profile

    p1 = init_profile(spec, RandomFeasible(3))
    p2 = init_profile(spec, RandomFeasible(3))
    assert p1 == p2
    assert social_welfare(spec, p1) == social_welfare(spec, p2)
    s1, s2 = outcome_summary(spec, p1), outcome_summary(spec, p2)
    assert s1 == s2


def test_profile_key_and_wrap():
    spec = single_edge_spec()
    p = profile_of(spec, {0: {1: 2}, 1: {0: 3}})
    assert p.key(spec) == (2, 3)
    assert all(isinstance(c, int) for c in p.counts.values())
    q = FrequencyProfile({(0, 1): 2.0, (1, 0): 3.0})
    assert not all(isinstance(c, int) for c in q.counts.values())


def test_profile_key_reads_a_dict_in_another_order():
    # a dict not in directed_edges order takes the per-edge lookup path
    spec = gen_random_instance(n=7, edge_prob=0.5, seed=42, budget_units=9).to_game_spec()
    ordered = init_profile(spec, RandomFeasible(3))
    shuffled = FrequencyProfile(dict(reversed(ordered.counts.items())))
    assert tuple(shuffled.counts) != spec.directed_edges
    assert shuffled.key(spec) == ordered.key(spec)
    assert profile_hash(spec, shuffled) == profile_hash(spec, ordered)


def test_behavior_enum_round_trip():
    assert Behavior("pessimistic") is Behavior.PESSIMISTIC
    assert Behavior("optimistic") is OPT


@st.composite
def indexed_games(draw):
    """A random game (isolated players and n = 1 included) and a feasible
    profile on it: a random start, halved into floats on request."""
    n = draw(st.integers(1, 12))
    spec = gen_random_instance(
        n=n,
        edge_prob=draw(st.sampled_from([0.0, 0.15, 0.4, 1.0])),
        seed=draw(st.integers(0, 10_000)),
        budget_units=draw(st.integers(1, 20)),
    ).to_game_spec()
    profile = init_profile(spec, RandomFeasible(draw(st.integers(0, 10_000))))
    if draw(st.booleans()):
        profile = FrequencyProfile({e: c / 2 for e, c in profile.counts.items()})
    return spec, profile


# utility arguments: zero, off-grid, grid, past a capped quadratic's peak
KERNEL_SAMPLES = (0.0, 1e-300, 0.05, 0.5, 1.0, 2.75, 3.0, 40.0, 1e6)


@pytest.mark.parametrize(
    "u",
    [
        UtilitySpec.linear(),
        UtilitySpec.sqrt(),
        UtilitySpec.log1p(),
        UtilitySpec.power(0.3),
        UtilitySpec.power(1.0),
        UtilitySpec.capped_quadratic(2.5),
    ],
    ids=lambda u: f"{u.family}-{u.a}-{u.cap}",
)
def test_row_kernels_give_the_bits_of_value_in_every_family(u):
    for w in (0.0, 0.5):
        spec = single_edge_spec(u=u, w=(w, 1.0))
        row = spec.index.rows[0]
        for x in KERNEL_SAMPLES:
            assert row.kernels[0](x).hex() == u.value(x).hex()
        assert row.zero_marginals == ((w * u.marginal(0.0) if w else 0.0),)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(indexed_games())
def test_spec_index_matches_the_edge_dicts(game):
    spec, profile = game
    rows, off, rev = spec.index
    edges = spec.directed_edges
    assert len(rows) == spec.n and len(off) == spec.n + 1
    assert off[0] == 0 and off[-1] == len(edges) == len(rev)
    for i, row in enumerate(rows):
        nbrs = spec.neighbors[i]
        assert edges[off[i] : off[i + 1]] == tuple((i, j) for j in nbrs)
        assert row.neighbors == nbrs
        assert row.weights == tuple(spec.weights[(i, j)] for j in nbrs)
        assert row.utils == tuple(spec.utilities[(i, j)] for j in nbrs)
        assert row.budget == spec.budget_units(i)
        for w, u, value, zero in zip(
            row.weights, row.utils, row.kernels, row.zero_marginals
        ):
            for x in KERNEL_SAMPLES:
                assert value(x).hex() == u.value(x).hex()
            assert zero == (w * u.marginal(0.0) if w > 0.0 else 0.0)
    for e, (i, j) in enumerate(edges):
        assert rev[rev[e]] == e
        assert edges[rev[e]] == (j, i)
    assert spec.index is spec.index  # built once

    # outcome_summary against a recomputation from the counts dict
    counts = profile.counts
    agreed = {
        (i, j): min(counts[(i, j)], counts[(j, i)]) for (i, j) in sorted(spec.edges)
    }
    slack = {
        i: spec.budget_units(i)
        - sum(agreed[(min(i, j), max(i, j))] for j in spec.neighbors[i])
        for i in range(spec.n)
    }
    win = {
        i: frozenset(j for j in spec.neighbors[i] if counts[(i, j)] < counts[(j, i)])
        for i in range(spec.n)
    }
    s = outcome_summary(spec, profile)
    assert list(s.agreed.items()) == list(agreed.items())
    assert s.slack == slack
    assert s.total_slack == sum(slack.values())
    assert s.win == win
    assert s.stable == frozenset(i for i in range(spec.n) if not win[i])
    flat, integral = check_feasible(spec, profile)
    assert flat == [counts[e] for e in edges]
    assert integral == all(isinstance(c, int) for c in counts.values())
