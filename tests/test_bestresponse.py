import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import OPT, PESS, make_spec, path3_spec, profile_of, single_edge_spec
from netalloc import bestresponse, game
from netalloc.bestresponse import (
    best_move,
    best_response,
    brute_force_best_response,
    is_best_response,
)
from netalloc.dynamics import (
    Converged,
    DynamicsConfig,
    RandomFeasible,
    RandomSeeded,
    init_profile,
    run_sequential,
)
from netalloc.game import (
    FrequencyProfile,
    outcome_summary,
    player_utility,
)
from netalloc.instances import gen_k5_cycle_instance, gen_random_instance
from netalloc.utility import INF, UtilitySpec


def _water_fill(weights, utils, caps, budget, eta):
    """The solver's water fill, with the zero-level marginals w u'(0) that
    a player row holds."""
    zeros = [game._zero_marginal(w, u) for w, u in zip(weights, utils)]
    return bestresponse._water_fill(weights, utils, zeros, caps, budget, eta)


def _realized_utility(spec, i, proposals, caps_profile):
    total = 0.0
    for j, c in zip(spec.neighbors[i], proposals):
        agreed = min(c, caps_profile.counts[(j, i)])
        total += spec.weights[(i, j)] * spec.utilities[(i, j)].value(
            agreed * spec.eta
        )
    return total


def _slack_after(spec, i, proposals, caps_profile):
    """The budget (eta units) that the response leaves unrealized."""
    return spec.budget_units(i) - sum(
        min(c, caps_profile.counts[(j, i)])
        for j, c in zip(spec.neighbors[i], proposals)
    )


# -- the solver against hand examples -----------------------------------------


def test_k5_best_response_matches_incoming_weights():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    br = best_response(spec, start, 0)
    # each neighbor's cap binds exactly: propose what they proposed to you
    assert br.proposals == [4, 4, 6, 6]
    assert _slack_after(spec, 0, br.proposals, start) == 0
    nbrs = spec.neighbors[0]
    delta, _ = _water_fill(
        [spec.weights[(0, j)] for j in nbrs],
        [spec.utilities[(0, j)] for j in nbrs],
        [start.counts[(j, 0)] for j in nbrs],
        spec.budget_units(0),
        spec.eta,
    )
    assert delta == 0.0


def test_k5_best_response_with_open_caps_recovers_own_weights():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    # everyone offering half a budget to player 0: caps no longer bind
    counts = {e: 0 for e in spec.directed_edges}
    for j in range(1, 5):
        counts[(j, 0)] = 10
    profile = FrequencyProfile(counts)
    br = best_response(spec, profile, 0)
    assert br.proposals == [6, 6, 4, 4]


def test_single_neighbor_pessimistic_vs_optimistic():
    def response(behavior):
        spec = single_edge_spec(
            UtilitySpec.sqrt(), 1.0, (5.0, 5.0), behaviors={0: behavior, 1: PESS}
        )
        profile = profile_of(spec, {1: {0: 3}})
        br = best_response(spec, profile, 0)
        return br, _slack_after(spec, 0, br.proposals, profile)

    pess, pess_slack = response(PESS)
    assert pess.proposals == [3]
    assert pess_slack == 2
    opt, opt_slack = response(OPT)
    assert opt.proposals == [5]
    assert opt_slack == 2  # realized interaction still 3
    assert opt.realized_utility == pess.realized_utility


def test_optimistic_disposal_splits_the_remainder_in_neighbor_order():
    # every cap is 1, so 5 of the 8 quanta are left over after matching:
    # each of the 3 neighbors gets 5 // 3 more, the first 5 % 3 one extra
    u = UtilitySpec.sqrt()
    spec = make_spec(
        4,
        1.0,
        [(0, j, 1.0, 1.0, u, u) for j in (1, 2, 3)],
        [8.0] + [1.0] * 3,
        {i: OPT for i in range(4)},
    )
    profile = profile_of(spec, {j: {0: 1} for j in (1, 2, 3)})
    br = best_response(spec, profile, 0)
    assert br.proposals == [3, 3, 2]
    assert all(type(c) is int for c in br.proposals)
    assert _slack_after(spec, 0, br.proposals, profile) == 5


def test_grid_mode_follows_the_players_own_caps():
    u = UtilitySpec.sqrt()
    spec = make_spec(
        3, 1.0, [(0, 1, 0.3, 1.0, u, u), (0, 2, 0.7, 1.0, u, u)], [5.0] * 3
    )
    # int caps to player 0 give a grid response even when the rest of the
    # profile (here player 0's own row) holds floats
    mixed = FrequencyProfile({(0, 1): 2.5, (0, 2): 2.5, (1, 0): 5, (2, 0): 5})
    grid = best_response(spec, mixed, 0)
    assert [type(c) for c in grid.proposals] == [int, int]
    assert sum(grid.proposals) == 5
    floats = FrequencyProfile({e: float(c) for e, c in mixed.counts.items()})
    cont = best_response(spec, floats, 0)
    assert [type(c) for c in cont.proposals] == [float, float]
    # sqrt water-filling splits the budget in proportion to squared weights
    assert cont.proposals[0] == pytest.approx(5 * 0.09 / 0.58)


def test_grid_best_responses_are_int_typed():
    for seed in range(10):
        doc = gen_random_instance(n=6, edge_prob=0.6, seed=seed, budget_units=30)
        spec = doc.to_game_spec()
        profile = init_profile(spec, RandomFeasible(seed))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            assert all(type(c) is int for c in br.proposals)


def test_no_neighbors_and_zero_budget():
    u = UtilitySpec.sqrt()
    spec = make_spec(2, 1.0, [(0, 1, 1.0, 1.0, u, u)], [0.0, 4.0])
    profile = FrequencyProfile.zeros(spec)
    br = best_response(spec, profile, 0)
    assert br.proposals == [0]
    assert br.realized_utility == 0.0
    lonely = make_spec(1, 1.0, [], [5.0])
    lonely_profile = FrequencyProfile.zeros(lonely)
    br2 = best_response(lonely, lonely_profile, 0)
    assert br2.proposals == []
    assert _slack_after(lonely, 0, br2.proposals, lonely_profile) == 5


# -- the water level ------------------------------------------------------------

def _utilities(exponents):
    return st.one_of(
        st.just(UtilitySpec.linear()),
        st.just(UtilitySpec.sqrt()),
        st.just(UtilitySpec.log1p()),
        st.sampled_from(exponents).map(UtilitySpec.power),
        st.sampled_from([0.3, 1.0, 2.5]).map(UtilitySpec.capped_quadratic),
    )


# power(0.999) demands (m / a)^-1000: it underflows to 0.0 on a short range
# of m, where a bisection on the float demand can no longer see it
UTILITIES = _utilities([0.2, 0.5, 0.8, 0.999, 1.0])
RESOLVED_UTILITIES = _utilities([0.2, 0.5, 0.8, 1.0])
WEIGHTS = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
ETAS = st.sampled_from([0.05, 0.1, 0.25, 1.0])


@st.composite
def neighbourhoods(draw, grid):
    """(weights, utilities, caps in eta units, budget units, eta).  Grid caps
    are ints; continuous ones may be 0.0, off-grid floats or INF."""
    eta = draw(ETAS)
    budget = draw(st.integers(1, 12))
    if draw(st.booleans()):
        # a sqrt neighbour demanding t < budget units at the linear weight
        # w: with the linear cap at the budget the root is the jump at w
        w = draw(st.floats(0.05, 1.0))
        t = draw(st.floats(0.01, 0.99)) * budget
        weights = [2.0 * w * math.sqrt(t * eta), w]
        utils = [UtilitySpec.sqrt(), UtilitySpec.linear()]
        caps = [draw(st.integers(math.ceil(t), 15)), budget]
        if not grid:
            caps = [float(c) if c < 15 else INF for c in caps]
        return weights, utils, caps, budget, eta
    deg = draw(st.integers(1, 4))
    weights = draw(st.lists(WEIGHTS, min_size=deg, max_size=deg))
    pool = UTILITIES if grid else RESOLVED_UTILITIES
    utils = draw(st.lists(pool, min_size=deg, max_size=deg))
    cap = (
        st.integers(0, 15)
        if grid
        else st.one_of(st.just(0.0), st.just(INF), st.floats(0.0, 15.0))
    )
    caps = draw(st.lists(cap, min_size=deg, max_size=deg))
    return weights, utils, caps, budget, eta


def _bisection_level(weights, utils, caps, budget, eta):
    """Reference: smallest delta where the demand fits, by plain bisection.
    The demand is compared with the budget exactly (``fsum``), so a tiny
    demand next to a large one is not rounded away."""

    def overfull(delta):
        terms = [-budget]
        for w, u, c in zip(weights, utils, caps):
            if w > 0.0:
                terms.append(min(c, budget, u.inverse_marginal(delta / w) / eta))
        return math.fsum(terms) > 0.0

    if not overfull(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while overfull(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if overfull(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _one_player_spec(weights, utils, caps, budget, eta):
    deg = len(weights)
    edges = [(0, k + 1, weights[k], 1.0, utils[k], utils[k]) for k in range(deg)]
    spec = make_spec(deg + 1, eta, edges, [budget * eta] + [16 * eta] * deg)
    counts = {e: 0 for e in spec.directed_edges}
    for k in range(deg):
        counts[(k + 1, 0)] = caps[k]
    return spec, FrequencyProfile(counts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(neighbourhoods(grid=True))
def test_grid_best_response_matches_exhaustive_oracle(hood):
    spec, profile = _one_player_spec(*hood)
    br = best_response(spec, profile, 0)
    _, oracle = brute_force_best_response(spec, profile, 0)
    assert abs(oracle - br.realized_utility) <= 1e-9 * max(1.0, oracle)
    assert sum(br.proposals) <= hood[3]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(neighbourhoods(grid=False))
def test_water_level_matches_bisection(hood):
    weights, utils, caps, budget, eta = hood
    delta, targets = _water_fill(weights, utils, caps, budget, eta)
    assert math.fsum(targets) <= budget
    for w, c, t in zip(weights, caps, targets):
        assert 0.0 <= t <= min(c, budget)
        if w <= 0.0:
            assert t == 0.0
    ref = _bisection_level(weights, utils, caps, budget, eta)
    assert delta == pytest.approx(ref, rel=1e-9, abs=1e-300)


def test_water_level_on_a_linear_jump(monkeypatch):
    # sqrt demands 56.25 units at the linear weight 0.4 and the linear
    # neighbour's cap of 80 overfills the budget of 100 below it: the
    # demand jumps across the budget at delta = 0.4 exactly, and the
    # linear neighbour takes the 43.75 units that sqrt leaves
    w_sqrt, w_lin, eta = 0.6, 0.4, 0.01
    sweeps = []
    inverse = UtilitySpec.inverse_marginal

    def counted(self, m):
        sweeps.append(m)
        return inverse(self, m)

    monkeypatch.setattr(UtilitySpec, "inverse_marginal", counted)
    for caps in ([200, 80], [200.0, 80.0], [INF, 80.5]):
        del sweeps[:]
        delta, targets = _water_fill(
            [w_sqrt, w_lin], [UtilitySpec.sqrt(), UtilitySpec.linear()], caps, 100, eta
        )
        assert delta == w_lin
        assert targets[0] == pytest.approx(56.25)
        assert targets[1] == pytest.approx(43.75)
        assert math.fsum(targets) <= 100
        assert len(sweeps) <= 8
    spec, profile = _one_player_spec(
        [w_sqrt, w_lin], [UtilitySpec.sqrt(), UtilitySpec.linear()], [200, 80], 100, eta
    )
    br = best_response(spec, profile, 0)
    assert sum(br.proposals) <= 100
    assert br.realized_utility == pytest.approx(
        brute_force_best_response(spec, profile, 0)[1], abs=1e-12
    )


def test_linear_jump_leaves_more_spare_quanta_than_the_exchange_bound(monkeypatch):
    # the level lands on the linear weight: the linear neighbour takes what
    # sqrt leaves, so the floors leave at most a quantum or two for the
    # polish, not one best_move step per spare quantum
    s, lin = UtilitySpec.sqrt(), UtilitySpec.linear()
    caps = [200_000, 200_000]
    assert _water_fill([0.5, 0.5], [s, lin], caps, 200_000, 1.0)[1] == [
        0.25, 199_999.75
    ]
    calls = []
    move = bestresponse.best_move

    def counted(*args):
        calls.append(None)
        if len(calls) > 100:
            raise AssertionError("more than 100 best_move steps")
        return move(*args)

    monkeypatch.setattr(bestresponse, "best_move", counted)
    spec, profile = _one_player_spec([0.5, 0.5], [s, lin], caps, 200_000, 1.0)
    br = best_response(spec, profile, 0)
    assert br.proposals == [1, 199_999]


def test_water_level_with_a_subnormal_power_demand():
    # a neighbourhood met in a random n=150 run: at the root the power(0.999)
    # neighbour demands about 1e-310, inside a mixed-family active set
    weights = [
        0.019208027696888615, 0.06941993724212721, 0.022053457673584277,
        0.061138567185039815, 0.08868476763203066, 0.09667402658459054,
        0.0962663312918871, 0.044237630848471036, 0.06141750181597282,
        0.08288465000633434, 0.0969118872959761, 0.0504942488311384,
        0.07932424139068955, 0.0952032115266298, 0.036081512978639665,
    ]
    s, lin, log = UtilitySpec.sqrt(), UtilitySpec.linear(), UtilitySpec.log1p()
    utils = [s, lin, UtilitySpec.power(0.999), s, lin, log, lin, lin, s, log,
             s, UtilitySpec.power(0.965), lin, s, s]
    caps = [59, 91, 94, 49, 91, 258, 118, 48, 76, 10, 75, 7, 93, 1, 87]
    delta, targets = _water_fill(weights, utils, caps, 1000, 0.001)
    assert math.fsum(targets) <= 1000
    assert delta == pytest.approx(
        _bisection_level(weights, utils, caps, 1000, 0.001), rel=1e-9
    )


def test_sequential_run_through_linear_jumps():
    # about one water level in nine of this run sits on a linear jump; a
    # search that creeps up to such a root ulp by ulp never finishes
    doc = gen_random_instance(n=150, edge_prob=0.1, seed=12345, budget_units=1000)
    spec = doc.to_game_spec()
    init = init_profile(spec, RandomFeasible(1))
    final, _, status = run_sequential(
        spec, init, DynamicsConfig(order=RandomSeeded(1)), trace_detail="light"
    )
    assert status == Converged(615)
    assert hashlib.sha256(repr(final.key(spec)).encode()).hexdigest() == (
        "65c9c1761eb6d594c6221ad0fb873f99f93caf26d59625456b8f3509d71e5e6e"
    )


# -- extreme budgets ----------------------------------------------------------------


def test_response_with_the_largest_budget_spends_it():
    # 2**53 - 1 quanta with the level on the linear weight: sqrt takes one
    # quantum and the linear neighbour the rest, in a few polish steps
    budget = 2**53 - 1
    s, lin = UtilitySpec.sqrt(), UtilitySpec.linear()
    spec, profile = _one_player_spec(
        [0.5, 0.5], [s, lin], [budget, budget], budget, 1.0
    )
    br = best_response(spec, profile, 0)
    assert br.proposals == [1, budget - 1]


def test_fine_grid_response_reaches_the_continuous_optimum():
    # 2**52 quanta of 2**-52: one quantum gains less than the polish's
    # threshold, so the targets must place the budget themselves.  At the
    # level 0.5 sqrt takes 0.09 and the heavier linear neighbour the rest:
    # 0.3 * 0.3 + 0.5 * 0.91 = 0.545
    budget, eta = 2**52, 2.0**-52
    lin, s = UtilitySpec.linear(), UtilitySpec.sqrt()
    spec, profile = _one_player_spec(
        [0.2, 0.5, 0.3], [lin, lin, s], [budget] * 3, budget, eta
    )
    br = best_response(spec, profile, 0)
    assert sum(br.proposals) == budget
    assert br.realized_utility == pytest.approx(0.545, abs=1e-9)


@st.composite
def large_neighbourhoods(draw):
    """Grid neighbourhoods with up to 2**53 - 1 quanta, in every family, and
    half of them with the water level on a linear neighbour's jump."""
    budget = draw(st.integers(1, 2**53 - 1))
    eta = draw(st.sampled_from([1.0, 2.0**-20, 2.0**-52]))
    if draw(st.booleans()):
        w = draw(st.floats(0.05, 1.0))
        t = draw(st.floats(0.0, 0.99)) * budget
        weights = [2.0 * w * math.sqrt(t * eta), w]
        utils = [UtilitySpec.sqrt(), UtilitySpec.linear()]
        caps = [draw(st.integers(math.ceil(t), budget)), budget]
        return weights, utils, caps, budget, eta
    deg = draw(st.integers(1, 4))
    weights = draw(st.lists(WEIGHTS, min_size=deg, max_size=deg))
    utils = draw(st.lists(UTILITIES, min_size=deg, max_size=deg))
    caps = draw(st.lists(st.integers(0, budget), min_size=deg, max_size=deg))
    return weights, utils, caps, budget, eta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(large_neighbourhoods())
def test_large_budget_responses_finish_within_budget(hood):
    spec, profile = _one_player_spec(*hood)
    calls = []
    move = bestresponse.best_move

    def counted(*args):
        calls.append(None)
        assert len(calls) <= 1000, "more than 1000 best_move steps"
        return move(*args)

    with mock.patch.object(bestresponse, "best_move", counted):
        br = best_response(spec, profile, 0)
    assert all(type(a) is int and a >= 0 for a in br.proposals)
    assert sum(br.proposals) <= hood[3]
    assert math.isfinite(br.realized_utility)


# -- the single-quantum move rule ------------------------------------------------

# few distinct values, so equal gains and equal losses are common
GAINS = st.one_of(
    st.sampled_from([-INF, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0)
)
LOSSES = st.one_of(
    st.sampled_from([INF, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0)
)


@st.composite
def move_terms(draw):
    deg = draw(st.integers(1, 6))
    up = draw(st.lists(GAINS, min_size=deg, max_size=deg))
    down = draw(st.lists(LOSSES, min_size=deg, max_size=deg))
    return up, down, draw(st.booleans())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(move_terms())
@example(([0.5], [0.0], False))  # one neighbour, no spare budget: no move
@example(([1.0, 0.5], [0.5, 0.0], True))  # an add ties an exchange
def test_best_move_matches_enumeration(terms):
    up, down, can_add = terms
    deg = len(up)
    moves = [(up[k], -1, k) for k in range(deg) if can_add]
    moves += [
        (up[k] - down[j], j, k) for j in range(deg) for k in range(deg) if j != k
    ]
    gain, src, dst = best_move(up, down, can_add)
    assert gain == max((g for g, _, _ in moves), default=-INF)
    if not moves:
        assert gain == -INF
        return
    if src == -1:
        assert can_add and up[dst] == gain
    else:
        assert src != dst and up[dst] - down[src] == gain
    if any(g == gain for g, j, _ in moves if j == -1):
        assert src == -1  # an add wins exact ties


# -- optimality oracles -----------------------------------------------------------


def _assert_no_single_quantum_improvement(spec, profile, i, br):
    """Exchange argument: a grid optimum admits no improving one-quantum
    move (add one where budget allows, or shift one between neighbors)."""
    deg = spec.degree(i)
    base = _realized_utility(spec, i, br.proposals, profile)
    budget = spec.budget_units(i)
    used = sum(br.proposals)
    for j in range(deg):
        if used + 1 <= budget:
            bumped = list(br.proposals)
            bumped[j] += 1
            assert _realized_utility(spec, i, bumped, profile) <= base + 1e-12
        for k in range(deg):
            if k == j or br.proposals[j] == 0:
                continue
            shifted = list(br.proposals)
            shifted[j] -= 1
            shifted[k] += 1
            assert _realized_utility(spec, i, shifted, profile) <= base + 1e-12


def test_br_matches_exchange_oracle_on_random_instances():
    for seed in range(30):
        doc = gen_random_instance(n=6, edge_prob=0.6, seed=seed, budget_units=15)
        spec = doc.to_game_spec()
        profile = init_profile(spec, RandomFeasible(seed + 1))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            _assert_no_single_quantum_improvement(spec, profile, i, br)


def test_br_against_exhaustive_oracle_small():
    checked = 0
    for seed in range(40):
        doc = gen_random_instance(n=5, edge_prob=0.5, seed=seed, budget_units=10)
        spec = doc.to_game_spec()
        if any(spec.degree(i) > 3 for i in range(spec.n)):
            continue
        profile = init_profile(spec, RandomFeasible(seed))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            _, oracle = brute_force_best_response(spec, profile, i)
            assert abs(oracle - br.realized_utility) <= 1e-9 * max(1.0, oracle)
            checked += 1
    assert checked > 50


def test_br_path_capped_quadratic_vs_oracle():
    spec = path3_spec()
    rng = random.Random(9)
    for _ in range(20):
        counts = {e: 0 for e in spec.directed_edges}
        counts[(0, 1)] = rng.randint(0, 20)
        caps = rng.randint(0, 10)
        counts[(2, 1)] = rng.randint(0, 20)
        counts[(1, 0)] = caps
        counts[(1, 2)] = min(rng.randint(0, 20), 20 - caps)
        profile = FrequencyProfile(counts)
        br = best_response(spec, profile, 1)
        _, oracle = brute_force_best_response(spec, profile, 1)
        assert abs(oracle - br.realized_utility) <= 1e-9 * max(1.0, oracle)


def test_br_feasible_and_never_harms():
    for seed in range(25):
        doc = gen_random_instance(n=7, edge_prob=0.5, seed=seed, budget_units=20)
        spec = doc.to_game_spec()
        profile = init_profile(spec, RandomFeasible(7 * seed))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            assert sum(br.proposals) <= spec.budget_units(i)
            assert all(c >= 0 for c in br.proposals)
            assert br.realized_utility >= player_utility(spec, profile, i) - 1e-12


def test_br_never_leaves_spare_budget_with_open_win():
    # even with satiating utilities the solver matches every still-winnable
    # neighbor before keeping slack
    for seed in range(25):
        doc = gen_random_instance(
            n=6,
            edge_prob=0.6,
            seed=seed,
            budget_units=30,
            family="capped_quadratic",
        )
        spec = doc.to_game_spec(behavior_override="pessimistic")
        profile = init_profile(spec, RandomFeasible(seed + 99))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            row = dict(zip(spec.neighbors[i], br.proposals))
            moved = profile.with_proposals(i, row)
            s = outcome_summary(spec, moved)
            assert not (s.slack[i] >= 1 and s.win[i])


def test_pessimistic_matched_exactly_when_no_wins_remain():
    for seed in range(25):
        doc = gen_random_instance(n=6, edge_prob=0.6, seed=seed, budget_units=30)
        spec = doc.to_game_spec(behavior_override="pessimistic")
        profile = init_profile(spec, RandomFeasible(seed))
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            row = dict(zip(spec.neighbors[i], br.proposals))
            moved = profile.with_proposals(i, row)
            s = outcome_summary(spec, moved)
            if s.slack[i] >= 1:
                for j, c in row.items():
                    assert c == profile.counts[(j, i)]


# -- is_best_response ---------------------------------------------------------------


def test_is_best_response_with_empty_win_set():
    spec = single_edge_spec(UtilitySpec.sqrt(), eta=1.0, budgets=(9.0, 9.0))
    profile = profile_of(spec, {0: {1: 5}, 1: {0: 3}})
    ok, improvement = is_best_response(spec, profile, 0)
    assert ok and improvement == 0.0


def test_is_best_response_k5_start_fails_for_everyone():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    for i in range(5):
        ok, improvement = is_best_response(spec, start, i)
        assert not ok
        assert improvement > 1e-6


def test_is_best_response_zero_budget():
    u = UtilitySpec.sqrt()
    spec = make_spec(2, 1.0, [(0, 1, 1.0, 1.0, u, u)], [0.0, 5.0])
    profile = profile_of(spec, {1: {0: 4}})
    ok, improvement = is_best_response(spec, profile, 0)
    assert ok and improvement <= 1e-12


# -- exhaustive oracle edge cases ------------------------------------------------------


def test_brute_force_single_neighbor():
    spec = single_edge_spec(UtilitySpec.sqrt(), eta=1.0, budgets=(5.0, 9.0))
    profile = profile_of(spec, {1: {0: 3}})
    alloc, util = brute_force_best_response(spec, profile, 0)
    assert alloc == [3]  # lexicographic smallest among ties
    assert util == pytest.approx(math.sqrt(3.0))


def test_brute_force_k5_open_caps():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    counts = {e: 0 for e in spec.directed_edges}
    for j in range(1, 5):
        counts[(j, 0)] = 10
    alloc, _ = brute_force_best_response(spec, FrequencyProfile(counts), 0)
    assert alloc == [6, 6, 4, 4]


def test_brute_force_refuses_large_instances():
    doc = gen_random_instance(n=9, edge_prob=1.0, seed=0, budget_units=100)
    spec = doc.to_game_spec()
    profile = FrequencyProfile.zeros(spec)
    with pytest.raises(ValueError, match="enumerate"):
        brute_force_best_response(spec, profile, 0)
