import builtins
import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OPT, PESS, make_spec, profile_of, single_edge_spec
from netalloc import analysis, bestresponse, dynamics, game, instances, utility
from netalloc.analysis import global_optimum
from netalloc.bestresponse import best_response, edge_terms, is_best_response
from netalloc.dynamics import (
    MARGINAL_SHIFT,
    Converged,
    CycleDetected,
    DynamicsConfig,
    Given,
    InvariantViolation,
    MaxRoundsExceeded,
    NotEquilibrium,
    OptimisticNE,
    PessimisticNE,
    RandomFeasible,
    RandomSeeded,
    RoundRobin,
    Zero,
    _place_leftover,
    _SeqState,
    classify_equilibrium,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from netalloc.game import (
    FrequencyProfile,
    InfeasibleProfileError,
    check_feasible,
    left_sum,
    outcome_summary,
    player_utility,
    social_welfare,
    validate_game,
)
from netalloc.instances import (
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_random_instance,
    gen_torus_grid,
)
from netalloc.utility import FAMILIES, UtilitySpec


def test_config_rejects_a_tolerance_that_is_not_finite():
    # an infinite tolerance would call every start an equilibrium
    for tol in (math.inf, math.nan, -1e-9):
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            DynamicsConfig(tol=tol)
    assert DynamicsConfig(tol=0.0).tol == 0.0


# -- init_profile -----------------------------------------------------------------


def test_init_zero():
    spec = gen_random_instance(5, 0.5, seed=1).to_game_spec()
    p = init_profile(spec, Zero())
    assert all(c == 0 for c in p.counts.values())


def test_init_random_deterministic_and_feasible():
    doc = gen_torus_grid(4, 4, beta=1000.0, eta=1.0, weight_seed=5, utility=UtilitySpec.sqrt())
    spec = doc.to_game_spec()
    p1 = init_profile(spec, RandomFeasible(7))
    p2 = init_profile(spec, RandomFeasible(7))
    assert p1 == p2
    assert p1 != init_profile(spec, RandomFeasible(8))
    for i in range(spec.n):
        row = [p1.counts[(i, j)] for j in spec.neighbors[i]]
        assert len(row) == 4
        assert all(isinstance(c, int) and c >= 0 for c in row)
        assert sum(row) <= 1000


def test_init_random_keys_are_the_specs_edge_tuples():
    # the start profile holds no (i, j) tuples of its own
    spec = gen_torus_grid(
        10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
    ).to_game_spec()
    counts = init_profile(spec, RandomFeasible(1000)).counts
    assert len(counts) == len(spec.directed_edges) == 400
    assert all(e is d for e, d in zip(counts, spec.directed_edges))


def test_init_given_validates():
    spec = single_edge_spec(budgets=(2.0, 2.0))
    bad = profile_of(spec, {0: {1: 3}})
    with pytest.raises(InfeasibleProfileError):
        init_profile(spec, Given(bad))
    good = profile_of(spec, {0: {1: 2}, 1: {0: 1}})
    assert init_profile(spec, Given(good)) == good


def _star_spec(budget, weights, u):
    """Player 0 proposes to players 1..len(weights) with these weights."""
    edges = [(0, k + 1, w, 1.0, u, u) for k, w in enumerate(weights)]
    return make_spec(len(weights) + 1, 1.0, edges, [budget] + [1.0] * len(weights))


def _star_floors(spec, seed):
    """Player 0's floored random split: its draws are the seed's first."""
    rng = random.Random(seed)
    draws = [rng.random() for _ in spec.neighbors[0]]
    budget = spec.budget_units(0)
    return [int(budget * d / sum(draws)) for d in draws]


def _star_row(spec, seed):
    profile = init_profile(spec, RandomFeasible(seed))
    return [profile.counts[(0, j)] for j in spec.neighbors[0]]


def test_init_leftover_goes_to_higher_weighted_marginal():
    for seed in range(20):
        # linear: the marginal is the weight, so the heavier neighbor wins
        spec = _star_spec(7.0, [0.3, 0.7], UtilitySpec.linear())
        floors = _star_floors(spec, seed)
        assert sum(floors) == 6
        assert _star_row(spec, seed) == [floors[0], floors[1] + 1]
        # sqrt at equal weights: the smaller count has the higher marginal
        spec = _star_spec(7.0, [0.5, 0.5], UtilitySpec.sqrt())
        floors = _star_floors(spec, seed)
        low = floors.index(min(floors))
        expected = list(floors)
        expected[low] += 1
        assert _star_row(spec, seed) == expected


def test_init_leftover_ties_go_to_the_first_neighbor():
    for seed in range(20):
        spec = _star_spec(10.0, [0.25, 0.25, 0.25, 0.25], UtilitySpec.linear())
        floors = _star_floors(spec, seed)
        row = _star_row(spec, seed)
        assert row == [floors[0] + 10 - sum(floors)] + floors[1:]


def _scan_leftover(alloc, spare, weights, utils, eta):
    """The random start's first leftover fill, kept as the reference: each
    quantum rescans every neighbor for the first highest positive score."""
    for _ in range(spare):
        best_k, best_score = -1, 0.0
        for k, (w, u) in enumerate(zip(weights, utils)):
            if w > 0.0:
                score = w * u.marginal((alloc[k] + MARGINAL_SHIFT) * eta)
                if score > best_score:
                    best_k, best_score = k, score
        if best_k < 0:
            break
        alloc[best_k] += 1


LEFTOVER_UTILITIES = st.sampled_from(
    [
        UtilitySpec.linear(),
        UtilitySpec.sqrt(),
        UtilitySpec.log1p(),
        UtilitySpec.power(0.5),
        UtilitySpec.capped_quadratic(3.0),  # its score reaches zero
    ]
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_leftover_scores_place_quanta_like_the_full_rescan(data):
    deg = data.draw(st.integers(1, 8))
    # few distinct weights, so scores tie often
    weights = data.draw(
        st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=deg, max_size=deg)
    )
    utils = data.draw(
        st.one_of(
            st.lists(st.just(UtilitySpec.linear()), min_size=deg, max_size=deg),
            st.lists(st.just(UtilitySpec.sqrt()), min_size=deg, max_size=deg),
            st.lists(LEFTOVER_UTILITIES, min_size=deg, max_size=deg),
        )
    )
    alloc = data.draw(st.lists(st.integers(0, 6), min_size=deg, max_size=deg))
    spare = data.draw(st.integers(-1, 25))
    eta = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    expected = list(alloc)
    _scan_leftover(expected, spare, weights, utils, eta)
    _place_leftover(alloc, spare, weights, utils, eta)
    assert alloc == expected


def test_init_zero_budget_or_zero_weight_gets_no_leftover():
    spec = _star_spec(0.0, [0.5, 0.5], UtilitySpec.sqrt())
    assert _star_row(spec, 3) == [0, 0]
    for seed in range(20):
        # sqrt's marginal at the shifted count is finite, so w = 0 scores 0
        spec = _star_spec(7.0, [0.0, 1.0], UtilitySpec.sqrt())
        floors = _star_floors(spec, seed)
        assert _star_row(spec, seed) == [floors[0], floors[1] + 1]
        # no neighbor with a positive weight: the leftover stays unspent
        spec = _star_spec(7.0, [0.0, 0.0], UtilitySpec.sqrt())
        assert _star_row(spec, seed) == _star_floors(spec, seed)


# sha256 of repr(init_profile(spec, RandomFeasible(seed)).key(spec)) on the
# criterion-8 torus, and on the first two mixed_dense instances of benchmark
# seed 1000 (gen_random_instance(n=150, edge_prob=0.1, budget_units=1000),
# the instance seed also seeding the start)
INIT_TORUS_PINS = [
    (1000, "f137e807bb94866501bae7e2f050e7a53f07653fff5fce369e39b4723e781cd3"),
    (1001, "f77d37843ad03deb52cc02c73486b0b9add1fb943b40f8623f7fc7347426e035"),
    (1002, "418da16ebbd7c51a6457e136b3226d7ea0b7ccf45b1119a6721e44cbd8cb9c47"),
    (1003, "39918a1df1c51d393c362b0e1decb65315b947fbec777625b3cda78884b3ff40"),
    (1004, "5c32601b4ee5babc55378407483fa09e9114531b8fa1b10ab2821a229028851c"),
    (1005, "3918a9604d94403ff6d7eada7bccd83be4aa771fd344382622ffdedbb6a47a61"),
    (1006, "fe8ceea78326b1f0802cbb4af498b8f6bd031d12120148c6c5c1c26c9bb05773"),
    (1007, "cf3e3e7fcd7adb53a1d2f6f0aabebf9c78921887c093329ed0a05b6fdb4a269a"),
    (1008, "a5f96564de1f1483ccec1a226960f036abd50b7da6e34c4d99080c4bebfa21f7"),
    (1009, "cf86e2f8c012bf491b2232623004c4f29a418bd2a6a1d6c2cdc4c7ebb947404e"),
    (1010, "baf585108996ba2511ad6b1dbfec5180e13397368b224a9c2c27e27d0eb054d6"),
    (1011, "cb8696b9736d96b6d8162112e928074cc4bd4d6d3aba97416f0b2d4161fb210d"),
    (1012, "44788ea169999861b43f43f6d4c4ade65127793f771a7768fdd171a337803541"),
    (1013, "b0b2bccb68015fc8425ba31ba030dd99513931568290a13f374034ced72daf5e"),
    (1014, "66fc71a6ee7c2bee98d783052efdc524df964720ce586de69443995bdd367aeb"),
    (1015, "00d9b1020bed154a5e74df01921bbcba619f7bcf81d1704807a5ddca554ad78a"),
    (1016, "c8234453ef2690e13a8f4bf28023ce95d0932ba2e1461c2e048ac2e5a03201a6"),
    (1017, "d8dcd844be78f6a7903c74da60a93be160b346a41c3180149902a769f04d6870"),
    (1018, "6436394f87db9606bff58f84800d8229c71b47c182e2d32391df582f79bdd5df"),
    (1019, "d5f32e3828670366a1c271cdfb79377a69155faf4ad77f18bdb163516411300e"),
]
INIT_MIXED_PINS = [
    (1261265115, "e9ea32ec7fa29b80a4111d73650858d51a582bed275e2ebe0017b375e4e8dfe8"),
    (612283998, "5f496e171daa0e462f82db84afbbabb9fad2834ceb8db907fd7c3a55adb0dba1"),
]


def _init_digest(spec, seed):
    key = repr(init_profile(spec, RandomFeasible(seed)).key(spec)).encode()
    return hashlib.sha256(key).hexdigest()


def test_random_start_keeps_its_pinned_profiles():
    spec = gen_torus_grid(
        10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
    ).to_game_spec()
    for seed, digest in INIT_TORUS_PINS:
        assert _init_digest(spec, seed) == digest, seed
    for seed, digest in INIT_MIXED_PINS:
        spec = gen_random_instance(
            n=150, edge_prob=0.1, seed=seed, budget_units=1000
        ).to_game_spec()
        assert _init_digest(spec, seed) == digest, seed


# -- sequential -------------------------------------------------------------------


def test_zero_budget_game_converges_immediately():
    u = UtilitySpec.sqrt()
    spec = make_spec(3, 1.0, [(0, 1, 1.0, 1.0, u, u), (1, 2, 0.5, 1.0, u, u)],
                     [0.0, 0.0, 0.0])
    final, trace, status = run_sequential(
        spec, init_profile(spec, Zero()), DynamicsConfig()
    )
    assert status == Converged(t=0)
    assert len(trace.records) == 1


def test_k5_sequential_regression():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    final, trace, status = run_sequential(
        spec, doc.init_profile(), DynamicsConfig()
    )
    assert status == Converged(t=6)
    slacks = [r.total_slack for r in trace.records]
    assert slacks == [20, 12, 8, 6, 4, 4, 4]
    assert isinstance(classify_equilibrium(spec, final), OptimisticNE)
    assert social_welfare(spec, final) == pytest.approx(0.9075)


def test_sequential_random_instances_converge_with_monotone_slack():
    for seed in range(15):
        doc = gen_random_instance(n=10, edge_prob=0.4, seed=seed, budget_units=50)
        spec = doc.to_game_spec()
        init = init_profile(spec, RandomFeasible(seed))
        final, trace, status = run_sequential(
            spec, init, DynamicsConfig(order=RandomSeeded(seed))
        )
        assert isinstance(status, Converged)
        slacks = [r.total_slack for r in trace.records]
        assert all(isinstance(s, int) for s in slacks)
        assert all(b <= a for a, b in zip(slacks, slacks[1:]))
        # quantized slack can only take so many values
        total_units = sum(spec.budget_units(i) for i in range(spec.n))
        assert len(set(slacks)) <= total_units + 1
        assert not isinstance(classify_equilibrium(spec, final), NotEquilibrium)


def _members(state):
    """The players in the state's mover set, by its membership bytes."""
    return [i for i in range(state.spec.n) if state.member[i]]


def _state(spec, profile, tol=1e-9):
    """The sequential engine's state on a feasible integer profile."""
    return _SeqState(spec, check_feasible(spec, profile)[0], tol)


def _profile(state):
    """The state's current profile."""
    return FrequencyProfile(dict(zip(state.spec.directed_edges, state.f)))


def test_incremental_state_matches_outcome_summary_after_every_move():
    for seed in range(4):
        doc = gen_random_instance(n=10, edge_prob=0.5, seed=70 + seed, budget_units=40)
        spec = doc.to_game_spec()
        state = _state(spec, init_profile(spec, RandomFeasible(seed)))
        stable = set(outcome_summary(spec, _profile(state)).stable)
        joined = left = ()
        moves = 0
        while True:
            s = outcome_summary(spec, _profile(state))
            assert state.slack == [s.slack[i] for i in range(spec.n)]
            assert state.win_count == [len(s.win[i]) for i in range(spec.n)]
            assert list(joined) == sorted(joined) and list(left) == sorted(left)
            assert not set(joined) & set(left)
            assert not set(joined) & stable and set(left) <= stable
            stable = (stable - set(left)) | set(joined)
            assert stable == s.stable
            members = _members(state)
            assert state.movers == members
            assert state.total_slack == s.total_slack
            assert type(state.total_slack) is type(s.total_slack)
            fresh = _state(spec, _profile(state))
            assert (state._util, state._up, state._down) == (
                fresh._util, fresh._up, fresh._down
            )
            assert members == _members(fresh)
            if not members:
                break
            mover = members[0]
            joined, left = state.apply_move(
                mover, best_response(spec, _profile(state), mover)
            )
            moves += 1
        assert moves > 0


@pytest.mark.parametrize(
    "behavior", ["optimistic", "pessimistic", "mixed"]
)
def test_lazy_statuses_match_is_best_response_after_every_move(behavior):
    if behavior == "mixed":
        spec = gen_random_instance(
            n=30, edge_prob=0.3, seed=41, budget_units=60
        ).to_game_spec()
    else:
        spec = gen_torus_grid(
            10, 10, beta=1000.0, eta=1.0, weight_seed=7,
            utility=UtilitySpec.sqrt(),
        ).to_game_spec(behavior_override=behavior)
    rng = random.Random(1000)
    state = _state(spec, init_profile(spec, RandomFeasible(1000)))
    lazy = 0
    settled = 0
    while True:
        movable = {
            i for i in range(spec.n)
            if not is_best_response(spec, _profile(state), i)[0]
        }
        members = _members(state)
        assert set(members) == movable
        # movers whose status the exchange test settled without a solve
        lazy += sum(state.settled_status(i) is True for i in members)
        # and players with a winning edge that it settled as best-responding
        settled += sum(
            state.settled_status(i) is False
            for i in range(spec.n)
            if i not in movable and state.win_count[i]
        )
        if not members:
            break
        mover = rng.choice(members)
        state.apply_move(mover, best_response(spec, _profile(state), mover))
    assert lazy > 0
    assert settled > 0


def _reference_movers(spec, init, order, max_rounds):
    """The movers of a sequential run picked the direct way: a choice from
    the sorted non-best-responders, or a scan of the player ids."""
    state = _state(spec, init)
    rng = random.Random(order.seed) if isinstance(order, RandomSeeded) else None
    n = spec.n
    pos = 0
    movers = []
    while (members := _members(state)) and len(movers) < max_rounds:
        if rng is not None:
            mover = rng.choice(members)
        else:
            for k in range(n):
                cand = (pos + k) % n
                if cand in members:
                    mover = cand
                    pos = (cand + 1) % n
                    break
        state.apply_move(mover, best_response(spec, _profile(state), mover))
        movers.append(mover)
    return movers


@st.composite
def ordered_games(draw):
    """A small random game, a seed, and one order of each kind: seeded
    random and round robin."""
    n = draw(st.integers(2, 12))
    spec = gen_random_instance(
        n=n,
        edge_prob=draw(st.sampled_from([0.3, 0.6, 1.0])),
        seed=draw(st.integers(0, 10_000)),
        budget_units=draw(st.integers(1, 30)),
    ).to_game_spec()
    seed = draw(st.integers(0, 10_000))
    return spec, seed, (RandomSeeded(seed), RoundRobin())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ordered_games())
def test_mover_picks_match_reference_loop(game):
    spec, seed, orders = game
    init = init_profile(spec, RandomFeasible(seed))
    for order in orders:
        cfg = DynamicsConfig(order=order, max_rounds=400)
        _, trace, _ = run_sequential(spec, init, cfg, trace_detail="light")
        movers = [r.mover for r in trace.records[1:]]
        assert movers == _reference_movers(spec, init, order, cfg.max_rounds)


def test_randrange_draws_like_choice():
    # the scalar engine picks a random mover by rng.choice over its sorted
    # movers and a lockstep batch by rng.randrange's rule over the same
    # count (lockstep._below); the two must consume and return the same
    sizes = [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 100, 255, 256, 257, 1600, 10_000]
    for seed in (0, 7, 1000, 4242):
        by_choice, by_randrange = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for k in sizes:
                assert by_choice.choice(range(k)) == by_randrange.randrange(k)
        assert by_choice.random() == by_randrange.random()


# criterion-8 runs on the 10x10 torus: seed, rounds, the sha256 of
# repr(final.key(spec)) and repr(final welfare), recorded on CPython 3.11.
# Every float sum on this path is game.left_sum, so the welfare bits hold on
# the other supported versions too (Python 3.12's built-in sum compensates).
C8_PINS = {
    "optimistic": [
        (1000, 306, "9a643ccaf88c0030a0c2f90f74d625f598266daf30bab5c4cb728f0cc30bc37a",
         "1580.5801560618395"),
        (1001, 290, "d61f7eab6ea7e2a2955a6e8bdc0bfcf4caa1a53e8654ab145e9e9c1c7dc8c6ea",
         "1579.1948913022604"),
        (1002, 338, "f039b9fe263c1d973ef794ee766718748098a3a23b5881a0df9677ebf831954b",
         "1578.173169276095"),
        (1003, 262, "9b5b8651c67fad7cfec9b403ffdc03956ce01911e5f4fd2e30a3cf7ec09df30f",
         "1560.3297344658756"),
        (1004, 305, "58b24057b2bb689d02fa1ddfd0792a2f0319b78b5c3fa629eb6e842a5de20bc9",
         "1575.0453671165528"),
        (1005, 273, "74f9db264020e2bb08d430e2b428d0ef1042281fa37d8a8878cab29f434e8eab",
         "1581.945368950397"),
        (1006, 284, "ceecfc2087ba714bbd68a84772adb04b06dbaf5807eddf63c527acbff2403ac1",
         "1568.6871023037238"),
        (1007, 250, "71d3b1006ffc22f9e95179360a40d75a04aadf3d70902562cf2019428b232e97",
         "1560.9825659240519"),
        (1008, 289, "b6bd68513752f9c0f26dcaf051a441392faff65566b79973426eb18e1aaabd68",
         "1570.425883565748"),
        (1009, 280, "77bd23908afd551cf751e514fe643a50cf09f13c5cd25d9c0c7dfe8085973b08",
         "1569.5866660225727"),
        (1010, 259, "a44bb2227773d960c2f239246c7f798dd9a083612f82fd9a53acdaf6d08f1078",
         "1591.5587761520378"),
        (1011, 231, "d9f7c447cdb7fca82b1e5c15adbb35cee51b56b7717960dc84ac1ffd5ba01760",
         "1564.6961201746103"),
        (1012, 297, "84f7581b48cef2453a738ae659521c49356b9dfbfc0d038b7e37522401e6c14a",
         "1541.1689292582575"),
        (1013, 314, "f2a4c244c6f280bef749b40057321b653f56d7249eb42a1fe8be4f1f916beea9",
         "1567.8596199532187"),
        (1014, 320, "4934a9aeb3d959ede7e45b8cb39491e26031f06ac992c70d8262d316906f6549",
         "1553.376361280567"),
        (1015, 255, "c272186e09e6d6f1d3d354da4308ada043f1baf4d9a00d0f6cee81b9f738f6c5",
         "1553.1275658356308"),
        (1016, 244, "9f2a45b885bce80f324082e83da0dee14bafd8bfc5ee722affa78566c638291e",
         "1567.287318147872"),
        (1017, 256, "3c5aba824c823452af4e7ca8d37cb7f16fb314eda155cdd75ade4e3c45dd8755",
         "1546.147656574848"),
        (1018, 250, "e5c66953630ac80e71df5af812747b975fb47930dbe402025b9a19866c93bd97",
         "1570.6072510295753"),
        (1019, 239, "ae58218a197f80e8e586e72e8ea310e28f0baee231b479257eb69a70514823be",
         "1555.6767524787385"),
    ],
    "pessimistic": [
        (1000, 82, "b4d1d587e9d5d3b4f628fb34b73cba667c05b060351a7b0156665e0ae3e11830",
         "1490.959165279111"),
        (1001, 85, "c45968418b00e9c3f304169553be9a49baac54c2cdd591d9810f9a1ca40d211d",
         "1467.4268056433273"),
        (1002, 82, "a625cb42b530438b1024bdd7ce07f5d537dae0e92cea83534157090aca41709a",
         "1446.8513807331094"),
        (1003, 78, "beed1c76fbdf0e2667deecbb28aae0aa50600b85c61c6956216e5883037ffe0e",
         "1477.8640027689032"),
        (1004, 81, "b2f84389a5b74a263462ce4668cff626e0c2e37f6be222d85280b97657df51a8",
         "1480.5979343484312"),
        (1005, 84, "15e653fecdea16c829437e7e2c08e94b6b53b81facd112b1ca295d8bfa5cd7af",
         "1480.748781932319"),
        (1006, 77, "d6c5834dd839f2effdce7c752bb58478f812b2c078bd93dea636acf8a13d27c3",
         "1483.4427183013418"),
        (1007, 79, "7c3b1ea1a880364a5c8763ea1108291c1f6008676ef24e7361d93ba72a8ad1ba",
         "1476.4300093200213"),
        (1008, 81, "54611657be302bb87febe39ed64237c3ac66828ba150e291b91c3ecdadd8b8b0",
         "1471.111242337963"),
        (1009, 86, "d864be6fc015d7f0e728ecdd70443a073bb42aa70edc6c2b6a673aeb590a4467",
         "1486.8722586206163"),
        (1010, 84, "6696166777b5325aac45147f08272dca628150fa31431eeebbe7753ae64bfb49",
         "1511.8668891258076"),
        (1011, 87, "d23263faa116c7964b3e2850d0522ee76121ac3a584da6be51976673ad7094de",
         "1472.1487499204827"),
        (1012, 80, "1fe8575e60d962c9d0095e6a6b2db54248c2e4af0cbf7888595ea246790840da",
         "1466.7375981628823"),
        (1013, 76, "3a0374716683390c76aee4174e17c69d7e914937f159d04a0c5a770aaab3e113",
         "1446.7095959021274"),
        (1014, 82, "9f9b155a400dc567cec2656dddd56d7a4ef7c0c71431f84f8a7d43531f47af24",
         "1464.6963431635222"),
        (1015, 78, "1745e919bb1026caa3e5604f7de9516a877f509020cee101bf14040ffeb7f3ab",
         "1498.840238079258"),
        (1016, 79, "efb7365f16edcc62ed1911082cb39604d856ee925723eec57e223129f4db288a",
         "1485.4222634714843"),
        (1017, 84, "85b2bc8d94d5530c3c6966bec77c744c39698e2de510ac3addfb663f290ce3b2",
         "1466.5647372006167"),
        (1018, 79, "94bcac2d17f879a0af57cb01f71bab0217fa31fde1c93710d7c9626bc3c9ed38",
         "1466.117095589187"),
        (1019, 83, "03c5af64db5777694841cf9cf8131fc6727a910f8601dcf3ce37b9a91adfe50e",
         "1474.1292443659124"),
    ],
}


@pytest.mark.parametrize("behavior", sorted(C8_PINS))
def test_criterion_8_runs_keep_rounds_and_final_profiles(behavior, monkeypatch):
    spec = gen_torus_grid(
        10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
    ).to_game_spec(behavior_override=behavior)
    solves = []

    def counted(*args, **kwargs):
        solves.append(None)
        return best_response(*args, **kwargs)

    monkeypatch.setattr(dynamics, "best_response", counted)
    for seed, rounds, digest, welfare in C8_PINS[behavior]:
        del solves[:]
        init = init_profile(spec, RandomFeasible(seed))
        cfg = DynamicsConfig(order=RandomSeeded(seed))
        final, _, status = run_sequential(spec, init, cfg, trace_detail="light")
        assert status == Converged(t=rounds), seed
        key = repr(final.key(spec)).encode()
        assert hashlib.sha256(key).hexdigest() == digest, seed
        assert repr(social_welfare(spec, final)) == welfare, seed
        # the exchange test settles every status: only movers are solved
        assert len(solves) == rounds, seed


def _neumaier_sum(values, start=0):
    """The built-in sum as CPython 3.12 computes it: exact on ints,
    compensated (Neumaier) once a float is met."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def _sum_sensitive_outputs(doc):
    """Outputs with float sums off the criterion-8 run path: continuous
    best responses (optimists whose caps, thirds of quanta, leave budget to
    dispose of), two optima and a report of weight totals."""
    spec = doc.to_game_spec(behavior_override="optimistic")
    thirds = FrequencyProfile(
        {e: c / 3 for e, c in init_profile(spec, RandomFeasible(3)).counts.items()}
    )
    responses = [
        (br.proposals, repr(br.realized_utility))
        for br in (best_response(spec, thirds, i) for i in range(spec.n))
    ]
    mixed = gen_random_instance(n=12, edge_prob=0.4, seed=0, budget_units=20)
    optima = [
        (repr(opt.welfare), repr(opt.upper_bound), opt.iterations)
        for opt in (global_optimum(spec), global_optimum(mixed.to_game_spec()))
    ]
    weights = dict(spec.weights)
    for j in spec.neighbors[0]:
        weights[(0, j)] *= 1.1
    report = validate_game(dataclasses.replace(spec, weights=weights))
    assert any("weights of player 0 sum to" in v for v in report.violations)
    return responses, optima, report


def test_criterion_8_runs_do_not_depend_on_the_builtin_sum(monkeypatch):
    # the compensated sum changes the last bits of most welfare sums, so
    # any float sum left on this path would show in a welfare repr
    assert _neumaier_sum([0.1] * 10) != builtins.sum([0.1] * 10)
    def torus():
        return gen_torus_grid(
            10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
        )

    before = _sum_sensitive_outputs(torus())
    for module in (game, utility, dynamics, bestresponse, instances, analysis):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    # generated again under the patch, so the generator's sums are covered too
    doc = torus()
    assert _sum_sensitive_outputs(doc) == before
    for behavior in C8_PINS:
        spec = doc.to_game_spec(behavior_override=behavior)
        for seed, rounds, digest, welfare in C8_PINS[behavior]:
            init = init_profile(spec, RandomFeasible(seed))
            cfg = DynamicsConfig(order=RandomSeeded(seed))
            final, _, status = run_sequential(spec, init, cfg, trace_detail="light")
            assert status == Converged(t=rounds), seed
            key = repr(final.key(spec)).encode()
            assert hashlib.sha256(key).hexdigest() == digest, seed
            assert repr(social_welfare(spec, final)) == welfare, seed


# random instances with both behaviours and all five utility families: the
# gen_random_instance seed (also the start's and the order's), rounds and the
# sha256 of repr(final.key(spec)); recorded before the engine kept its
# profile by edge id
MIXED_PINS = [
    (1, 83, "7518e257da0b5db6a42fcd377a31d0e4dca6e2c3e03ce5b5455327a16a841c82"),
    (2, 62, "f69230ecd22817d70e6ee74a3a4f00b1034a4e6cdb62ff8446fba9d8a226057a"),
    (3, 59, "d4896aba746896af9ebac78c22a4d92828b7c91a8d7c1eb5986d39540ceeba16"),
    (4, 44, "d0baa55ace2513d8de69b0cde8e67c10300545fa19de5d030be587a05947a372"),
]


def test_mixed_instance_runs_keep_rounds_and_final_profiles():
    families = set()
    for seed, rounds, digest in MIXED_PINS:
        spec = gen_random_instance(
            n=40, edge_prob=0.2, seed=seed, budget_units=100
        ).to_game_spec()
        assert {b.value for b in spec.behaviors.values()} == {
            "optimistic", "pessimistic"
        }
        families |= {u.family for u in spec.utilities.values()}
        init = init_profile(spec, RandomFeasible(seed))
        cfg = DynamicsConfig(order=RandomSeeded(seed))
        final, _, status = run_sequential(spec, init, cfg)
        assert status == Converged(t=rounds), seed
        key = repr(final.key(spec)).encode()
        assert hashlib.sha256(key).hexdigest() == digest, seed
    assert families == set(FAMILIES)


def test_round_robin_run_keeps_rounds_and_final_profile():
    spec = gen_random_instance(
        n=20, edge_prob=0.35, seed=5, budget_units=40
    ).to_game_spec()
    init = init_profile(spec, RandomFeasible(5))
    final, _, status = run_sequential(spec, init, DynamicsConfig(order=RoundRobin()))
    assert status == Converged(t=17)
    assert hashlib.sha256(repr(final.key(spec)).encode()).hexdigest() == (
        "660945c89efeac42ea88e972420a575a72c5c55b5211560522bfeef759089b87"
    )


def test_given_start_keeps_its_key_order():
    spec = gen_random_instance(
        n=16, edge_prob=0.4, seed=9, budget_units=30
    ).to_game_spec()
    start = init_profile(spec, RandomFeasible(9))
    backwards = FrequencyProfile(dict(reversed(list(start.counts.items()))))
    init = init_profile(spec, Given(backwards))
    final, _, status = run_sequential(spec, init, DynamicsConfig(order=RandomSeeded(9)))
    assert status == Converged(t=15)
    assert list(final.counts) == list(backwards.counts)
    # the whole profile, items in order
    assert hashlib.sha256(repr(list(final.counts.items())).encode()).hexdigest() == (
        "de608949d50e55dcd8683e60614053cdc68704ab58f88914a102a609231645cc"
    )


def test_stable_set_loss_on_slack_stable_suffix_raises(monkeypatch):
    spec = gen_random_instance(
        n=10, edge_prob=0.4, seed=19, budget_units=50
    ).to_game_spec()
    init = init_profile(spec, RandomFeasible(19))
    cfg = DynamicsConfig(order=RandomSeeded(19))
    _, trace, status = run_sequential(spec, init, cfg, trace_detail="light")
    assert isinstance(status, Converged)
    slacks = [r.total_slack for r in trace.records]
    last_change = max(t for t in range(1, len(slacks)) if slacks[t] != slacks[t - 1])
    assert last_change < status.t  # the run has a slack-stable suffix
    stable = list(trace.stable_sets())

    def run_losing(at_round, **config):
        """Run again, reporting one stable player as lost at at_round."""
        lost = min(stable[at_round - 1])
        calls = []
        original = _SeqState.apply_move

        def lossy(self, mover, br):
            joined, left = original(self, mover, br)
            calls.append(None)
            if len(calls) == at_round:
                return joined, tuple(sorted(left + (lost,)))
            return joined, left

        monkeypatch.setattr(_SeqState, "apply_move", lossy)
        try:
            return lost, run_sequential(
                spec, init, DynamicsConfig(order=RandomSeeded(19), **config),
                trace_detail="light",
            )
        finally:
            monkeypatch.undo()

    # a loss in the round that changed slack, or before it, is allowed
    run_losing(last_change)
    # a loss after the last slack change is reported once the run converges
    at = last_change + 1
    with pytest.raises(InvariantViolation) as err:
        run_losing(at)
    lost = min(stable[at - 1])
    assert str(err.value) == (
        f"stable set shrank on the slack-stable suffix at round {at}: "
        f"lost players [{lost}]"
    )
    # a run stopped by the round limit is not checked
    _, (_, _, status) = run_losing(at, max_rounds=at)
    assert status == MaxRoundsExceeded(rounds=at)


def test_stable_sets_rebuild_from_joins_and_leaves():
    spec = gen_random_instance(n=12, edge_prob=0.4, seed=8, budget_units=40).to_game_spec()
    init = init_profile(spec, RandomFeasible(8))
    for run in (run_sequential, run_simultaneous):
        _, trace, _ = run(spec, init, DynamicsConfig(max_rounds=60))
        sets = list(trace.stable_sets())
        assert len(sets) == len(trace.records)
        previous = frozenset()
        for rec, stable, profile in zip(trace.records, sets, trace.profiles()):
            assert stable == outcome_summary(spec, profile).stable
            assert rec.stable_joined == tuple(sorted(stable - previous))
            assert rec.stable_left == tuple(sorted(previous - stable))
            previous = stable


def test_lazy_mover_that_cannot_improve_raises(monkeypatch):
    # player 0 is past the peak of a satiating utility: it wins on the
    # edge (3 < 5) yet has nothing to gain, so it is at a best response
    u = UtilitySpec.capped_quadratic(1.0)
    spec = single_edge_spec(u=u, eta=0.25, budgets=(1.25, 1.25))
    init = profile_of(spec, {0: {1: 3}, 1: {0: 5}})
    assert is_best_response(spec, init, 0) == (True, 0.0)
    _, _, status = run_sequential(spec, init, DynamicsConfig())
    assert status == Converged(t=0)
    monkeypatch.setattr(_SeqState, "settled_status", lambda self, i: True)
    with pytest.raises(InvariantViolation, match="exchange test picked mover 0"):
        run_sequential(spec, init, DynamicsConfig())


def test_sequential_trace_round_indices_strictly_increase():
    doc = gen_random_instance(n=6, edge_prob=0.5, seed=3, budget_units=20)
    spec = doc.to_game_spec()
    _, trace, _ = run_sequential(
        spec, init_profile(spec, RandomFeasible(1)), DynamicsConfig()
    )
    ts = [r.t for r in trace.records]
    assert ts == sorted(set(ts))
    assert all(r.total_slack >= 0 for r in trace.records)


def test_sequential_mover_never_loses_utility():
    doc = gen_random_instance(n=8, edge_prob=0.5, seed=11, budget_units=30)
    spec = doc.to_game_spec()
    _, trace, status = run_sequential(
        spec, init_profile(spec, RandomFeasible(2)), DynamicsConfig()
    )
    assert isinstance(status, Converged)
    profiles = list(trace.profiles())
    for k in range(1, len(trace.records)):
        mover = trace.records[k].mover
        before = player_utility(spec, profiles[k - 1], mover)
        after = player_utility(spec, profiles[k], mover)
        assert after >= before - 1e-12


def test_active_player_utilities_nondecreasing_on_stable_suffix():
    for seed in (0, 4, 9):
        doc = gen_random_instance(n=8, edge_prob=0.5, seed=seed, budget_units=24)
        spec = doc.to_game_spec()
        _, trace, status = run_sequential(
            spec, init_profile(spec, RandomFeasible(seed)), DynamicsConfig()
        )
        assert isinstance(status, Converged)
        recs = trace.records
        stable = list(trace.stable_sets())
        profiles = list(trace.profiles())
        t0 = 0
        for k in range(1, len(recs)):
            if recs[k].total_slack != recs[k - 1].total_slack:
                t0 = k
        for k in range(t0, len(recs) - 1):
            active = set(range(spec.n)) - stable[k]
            for i in active:
                u_now = player_utility(spec, profiles[k], i)
                u_next = player_utility(spec, profiles[k + 1], i)
                assert u_next >= u_now - 1e-12
            # active players on the stable suffix hold no leftover budget
            for i in active:
                prof = profiles[k]
                realized = sum(
                    min(prof.counts[(i, j)], prof.counts[(j, i)])
                    for j in spec.neighbors[i]
                )
                assert realized == spec.budget_units(i)


def test_sequential_orders_equivalent_convergence():
    doc = gen_random_instance(n=9, edge_prob=0.5, seed=21, budget_units=40)
    spec = doc.to_game_spec()
    init = init_profile(spec, RandomFeasible(5))
    for order in (RoundRobin(), RandomSeeded(3)):
        final, _, status = run_sequential(
            spec, init, DynamicsConfig(order=order)
        )
        assert isinstance(status, Converged)
        assert not isinstance(classify_equilibrium(spec, final), NotEquilibrium)


def test_sequential_refuses_float_profiles():
    spec = gen_random_instance(n=4, edge_prob=1.0, seed=2).to_game_spec()
    ints = init_profile(spec, RandomFeasible(2))
    floats = FrequencyProfile({e: float(c) for e, c in ints.counts.items()})
    with pytest.raises(ValueError, match="integer"):
        run_sequential(spec, floats, DynamicsConfig())


def test_max_rounds_exceeded_returns_trace():
    doc = gen_torus_grid(4, 4, beta=100.0, eta=1.0, weight_seed=1, utility=UtilitySpec.sqrt())
    spec = doc.to_game_spec()
    final, trace, status = run_sequential(
        spec, init_profile(spec, RandomFeasible(0)), DynamicsConfig(max_rounds=3)
    )
    assert status == MaxRoundsExceeded(rounds=3)
    assert len(trace.records) == 4


def test_sequential_deterministic_repeat():
    doc = gen_torus_grid(5, 5, beta=1000.0, eta=1.0, weight_seed=3, utility=UtilitySpec.sqrt())
    spec = doc.to_game_spec()
    init = init_profile(spec, RandomFeasible(42))
    cfg = DynamicsConfig(order=RandomSeeded(42))
    f1, t1, s1 = run_sequential(spec, init, cfg, trace_detail="light")
    f2, t2, s2 = run_sequential(spec, init, cfg, trace_detail="light")
    assert f1 == f2 and s1 == s2
    assert [r.total_slack for r in t1.records] == [r.total_slack for r in t2.records]


def test_full_trace_changes_are_keyed_by_the_specs_own_tuples():
    # a round's changes zip the mover's row with its slice of
    # directed_edges, so every key is the spec's tuple object itself
    spec = gen_random_instance(n=12, edge_prob=0.4, seed=5, budget_units=30).to_game_spec()
    init = init_profile(spec, RandomFeasible(5))
    _, trace, _ = run_sequential(spec, init, DynamicsConfig(order=RandomSeeded(5)))
    own = {e: e for e in spec.directed_edges}
    assert len(trace.records) > 10
    for rec in trace.records[1:]:
        assert list(rec.changes) == [(rec.mover, j) for j in spec.neighbors[rec.mover]]
        assert all(e is own[e] for e in rec.changes)


# -- simultaneous -----------------------------------------------------------------


def test_k5_simultaneous_cycle():
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
    profiles = list(trace.profiles())
    assert profiles[1] == transposed
    assert profiles[2] == start


def test_k5_cycle_from_a_start_in_another_key_order():
    # the start's dict is not in directed_edges order, so its key is read
    # edge by edge; the revisit of round 0 is still found
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    start = FrequencyProfile(dict(reversed(doc.init_profile().counts.items())))
    assert tuple(start.counts) != spec.directed_edges
    _, _, status = run_simultaneous(spec, start, DynamicsConfig(max_rounds=100))
    assert status == CycleDetected(start=0, period=2)


def test_simultaneous_fixed_point_at_matched_profile():
    spec = single_edge_spec(UtilitySpec.sqrt(), eta=1.0, budgets=(5.0, 5.0))
    matched = profile_of(spec, {0: {1: 3}, 1: {0: 3}})
    final, _, status = run_simultaneous(
        spec, matched, DynamicsConfig()
    )
    assert status == Converged(t=0)
    assert final == matched


def test_simultaneous_converges_from_pessimistic_equilibrium():
    doc, good, bad = gen_poa_grid_instance(4, 4, 0.1, 1.0)
    spec = doc.to_game_spec()
    final, _, status = run_simultaneous(
        spec, bad, DynamicsConfig()
    )
    assert status == Converged(t=0)
    assert final == bad


# -- classification ----------------------------------------------------------------


def test_classify_matched_profile_pessimistic():
    doc, good, bad = gen_poa_grid_instance(3, 3, 0.1, 1.0)
    spec = doc.to_game_spec()
    assert isinstance(classify_equilibrium(spec, bad), PessimisticNE)
    assert isinstance(classify_equilibrium(spec, good), PessimisticNE)


def test_classify_over_matched_equilibrium_optimistic():
    # saturated neighbor cannot respond; the raiser's surplus goes nowhere
    spec = single_edge_spec(UtilitySpec.sqrt(), eta=1.0, budgets=(5.0, 3.0))
    profile = profile_of(spec, {0: {1: 5}, 1: {0: 3}})
    assert isinstance(classify_equilibrium(spec, profile), OptimisticNE)


def test_classify_k5_start_not_equilibrium():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    verdict = classify_equilibrium(spec, doc.init_profile())
    assert isinstance(verdict, NotEquilibrium)
    assert verdict.witness == 0
    assert verdict.improvement > 1e-6


def test_converged_profiles_classify_as_equilibria():
    for seed in (1, 5):
        for behavior in ("pessimistic", "optimistic"):
            doc = gen_random_instance(
                n=8, edge_prob=0.5, seed=seed, budget_units=30, behavior=behavior
            )
            spec = doc.to_game_spec()
            final, _, status = run_sequential(
                spec, init_profile(spec, RandomFeasible(seed)), DynamicsConfig()
            )
            assert isinstance(status, Converged)
            assert not isinstance(
                classify_equilibrium(spec, final), NotEquilibrium
            )


def test_light_trace_records_no_moves():
    doc = gen_random_instance(n=6, edge_prob=0.5, seed=2, budget_units=10)
    spec = doc.to_game_spec()
    _, trace, _ = run_sequential(
        spec,
        init_profile(spec, RandomFeasible(0)),
        DynamicsConfig(max_rounds=20),
        trace_detail="light",
    )
    assert len(trace.records) > 1
    assert trace.init is None
    assert all(r.changes is None for r in trace.records)
    assert all(r.total_slack >= 0 for r in trace.records)
    assert not hasattr(trace.records[0], "__dict__")  # slotted records
    with pytest.raises(ValueError, match="light trace"):
        next(trace.profiles())


def test_replayed_profiles_match_shorter_runs():
    """The profile replayed after round t is the final profile of the same
    run stopped after t rounds, and the last one is the returned final."""
    spec = gen_random_instance(
        n=9, edge_prob=0.5, seed=6, budget_units=30
    ).to_game_spec()
    k5 = gen_k5_cycle_instance(0.05)
    cases = [
        (run_sequential, spec, init_profile(spec, RandomFeasible(6)), RandomSeeded(6)),
        (run_simultaneous, k5.to_game_spec(), k5.init_profile(), RoundRobin()),
    ]
    for run, spec, init, order in cases:
        final, trace, _ = run(spec, init, DynamicsConfig(order=order))
        profiles = list(trace.profiles())
        assert len(profiles) == len(trace.records) > 2
        assert profiles[0] == init and profiles[-1] == final
        for t in range(1, len(profiles)):
            stopped, _, _ = run(
                spec, init, DynamicsConfig(order=order, max_rounds=t)
            )
            assert profiles[t] == stopped


def _all_rows(budget, caps_any, deg):
    # every per-player allocation of at most `budget` quanta over deg edges
    if deg == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _all_rows(budget - first, caps_any, deg - 1):
            yield (first,) + rest


def test_classification_matches_exhaustive_deviation_check():
    # first-principles cross-check on tiny games: a profile is an
    # equilibrium iff no player has a better feasible grid row against it
    u_pool = [
        UtilitySpec.sqrt(),
        UtilitySpec.linear(),
        UtilitySpec.capped_quadratic(2.0),
    ]
    for pick, u in enumerate(u_pool):
        spec = make_spec(
            3,
            1.0,
            [
                (0, 1, 1.0, 0.7, u, u),
                (1, 2, 0.3, 1.0, u, u),
            ],
            [3.0, 4.0, 3.0],
        )
        from netalloc.game import player_utility as pu

        rows = {
            0: [{1: a} for (a,) in _all_rows(3, None, 1)],
            1: [
                {0: a, 2: b}
                for (a, b) in _all_rows(4, None, 2)
            ],
            2: [{1: a} for (a,) in _all_rows(3, None, 1)],
        }
        checked = disagreements = 0
        for r0 in rows[0]:
            for r1 in rows[1]:
                for r2 in rows[2]:
                    profile = profile_of(spec, {0: r0, 1: r1, 2: r2})
                    exhaustive_ne = True
                    for i in range(3):
                        base = pu(spec, profile, i)
                        best = max(
                            pu(spec, profile.with_proposals(i, alt), i)
                            for alt in rows[i]
                        )
                        if best > base + 1e-12:
                            exhaustive_ne = False
                            break
                    verdict = classify_equilibrium(spec, profile, tol=1e-12)
                    classified_ne = not isinstance(verdict, NotEquilibrium)
                    checked += 1
                    if classified_ne != exhaustive_ne:
                        disagreements += 1
        assert checked == 4 * 15 * 4
        assert disagreements == 0, f"{disagreements} of {checked} (u={u})"


# -- the exchange test ------------------------------------------------------------

EXCHANGE_UTILITIES = st.one_of(
    st.just(UtilitySpec.linear()),
    st.just(UtilitySpec.sqrt()),
    st.just(UtilitySpec.log1p()),
    st.sampled_from([0.2, 0.5, 0.999, 1.0]).map(UtilitySpec.power),
    # satiate within a few quanta
    st.sampled_from([0.3, 1.0, 2.5]).map(UtilitySpec.capped_quadratic),
)


@st.composite
def exchange_games(draw):
    """Player 0 with 1-5 neighbors (zero weights allowed), integer caps
    below and above its budget, and a feasible integer row of its own."""
    eta = draw(st.sampled_from([0.05, 0.25, 1.0]))
    budget = draw(st.integers(1, 12))
    deg = draw(st.integers(1, 5))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
            min_size=deg, max_size=deg,
        )
    )
    utils = draw(st.lists(EXCHANGE_UTILITIES, min_size=deg, max_size=deg))
    caps = draw(st.lists(st.integers(0, 15), min_size=deg, max_size=deg))
    row = []
    left = budget
    for _ in range(deg):
        f = draw(st.integers(0, left))
        row.append(f)
        left -= f
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    edges = [(0, k + 1, weights[k], 1.0, utils[k], utils[k]) for k in range(deg)]
    spec = make_spec(deg + 1, eta, edges, [budget * eta] + [15 * eta] * deg)
    rows = {0: {k + 1: row[k] for k in range(deg)}}
    rows.update({k + 1: {0: caps[k]} for k in range(deg)})
    return spec, profile_of(spec, rows), tol


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(exchange_games())
def test_exchange_test_only_flags_players_that_improve(game):
    spec, profile, tol = game
    state = _state(spec, profile, tol)
    if state.win_count[0] and state.settled_status(0) is True:
        ok, improvement = is_best_response(spec, profile, 0, tol)
        assert not ok
        assert improvement > tol


def _least_settling_tol(state):
    """The least tolerance, to a relative 2**-50, at which the exchange test
    settles player 0 as best-responding (1e-12 if that one does)."""
    lo, hi = 0.0, 1e-12

    def settles(tol):
        state.tol = tol
        return state.settled_status(0) is False

    while not settles(hi):
        lo, hi = hi, hi * 10.0
    while lo and hi - lo > hi * 2.0**-50:
        mid = (lo + hi) / 2.0
        if settles(mid):
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(exchange_games())
def test_exchange_test_only_settles_players_that_cannot_improve(game):
    spec, profile, tol = game
    state = _state(spec, profile, tol)
    if not state.win_count[0]:
        return
    if state.settled_status(0) is False:
        assert tol > 0  # with tol = 0 the test never settles a status False
        ok, improvement = is_best_response(spec, profile, 0, tol)
        assert ok
        assert improvement <= tol
    # right at its threshold, where the best move's gain counts in full
    least = _least_settling_tol(state)
    ok, improvement = is_best_response(spec, profile, 0, least)
    assert ok
    assert improvement <= least


def test_exchange_margins_have_the_same_bits_for_numbers_and_arrays():
    # the scalar engine passes a float bound and an int budget, the lockstep
    # batch float64 and int64 arrays: both must settle the same statuses
    rng = random.Random(29)
    budgets = [1, 2, 3, 2**52 + 1, 2**53 - 1]
    budgets += [rng.randrange(1, 2 ** rng.randint(1, 53)) for _ in range(300)]
    bounds = [0.0, 5e-324] + [rng.random() * 10.0 ** rng.randint(-9, 17) for _ in budgets[2:]]
    margins = dynamics.exchange_margin(np.array(bounds), np.array(budgets))
    for deg in range(1, 65):
        ulps = dynamics.exchange_ulps(np.array(bounds), np.array(budgets), deg)
        assert margins.dtype == ulps.dtype == np.float64
        for z, budget, margin, ulp in zip(bounds, budgets, margins.tolist(), ulps.tolist()):
            scalar = dynamics.exchange_margin(z, budget), dynamics.exchange_ulps(z, budget, deg)
            assert (scalar[0].hex(), scalar[1].hex()) == (margin.hex(), ulp.hex())


def _assert_terms_at_agreed(spec, profile, i, br):
    """``br.terms`` are the edge terms at the response's agreed amounts,
    recomputed through ``UtilitySpec.value``, bit for bit, and the realized
    utility is their left-to-right sum."""
    row = spec.index.rows[i]
    caps = [profile.counts[(j, i)] for j in row.neighbors]
    expected = [
        edge_terms(w, u.value, min(a, c), c, spec.eta)
        for a, w, u, c in zip(br.proposals, row.weights, row.utils, caps)
    ]
    hexed = [tuple(v.hex() for v in t) for t in zip(*br.terms)]
    assert hexed == [tuple(v.hex() for v in t) for t in expected]
    assert br.realized_utility.hex() == left_sum(br.terms[0]).hex()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(exchange_games(), st.sampled_from([PESS, OPT]))
def test_best_response_terms_are_the_edge_terms_at_the_agreed_amounts(
    game, behavior
):
    spec, profile, _ = game
    spec = dataclasses.replace(spec, behaviors={**spec.behaviors, 0: behavior})
    _assert_terms_at_agreed(spec, profile, 0, best_response(spec, profile, 0))


def test_best_response_terms_after_cap_matching_and_disposal():
    # neighbor 2 has zero weight, so only cap matching places quanta there;
    # the optimist then disposes of the rest above both caps
    sq = UtilitySpec.sqrt()
    edges = [(0, 1, 1.0, 1.0, sq, sq), (0, 2, 0.0, 1.0, sq, sq)]
    for behavior, proposals in ((PESS, [2, 3]), (OPT, [5, 5])):
        spec = make_spec(3, 1.0, edges, [10.0, 5.0, 5.0], {0: behavior, 1: PESS, 2: PESS})
        profile = profile_of(spec, {0: {1: 0, 2: 0}, 1: {0: 2}, 2: {0: 3}})
        br = best_response(spec, profile, 0)
        assert br.proposals == proposals
        _assert_terms_at_agreed(spec, profile, 0, br)
        assert br.terms[1] == [-math.inf, -math.inf]  # both edges matched


def test_best_response_has_no_terms_off_the_grid_alone_or_without_budget():
    sq = UtilitySpec.sqrt()
    spec = make_spec(3, 1.0, [(0, 1, 1.0, 1.0, sq, sq)], [4.0, 0.0, 4.0])
    grid = profile_of(spec, {0: {1: 1}, 1: {0: 0}})
    assert best_response(spec, grid, 0).terms is not None
    floats = FrequencyProfile({e: float(c) for e, c in grid.counts.items()})
    assert best_response(spec, floats, 0).terms is None
    assert best_response(spec, grid, 1).terms is None  # budget 0
    assert best_response(spec, grid, 2).terms is None  # isolated


def _standing(state, i):
    """i's standing state as the engine hands it to its solve: its own
    proposals and its edge-term lists."""
    lo, hi = state.off[i], state.off[i + 1]
    return (state.f[lo:hi], state._util[i], state._up[i], state._down[i])


@pytest.mark.parametrize("game", ["random", "torus"])
def test_seeded_solve_matches_the_solve_from_the_profile(game):
    """A response solved from the player's standing terms is the response
    solved from the profile, in proposals, utility bits and terms, and the
    lists handed in stay as they were.  Engine states are reached by random
    moves; some floors start at the agreed amounts and others do not."""
    if game == "random":
        specs = [
            gen_random_instance(n=16, edge_prob=0.4, seed=s, budget_units=50).to_game_spec()
            for s in range(90, 94)
        ]
    else:
        doc = gen_torus_grid(
            10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=UtilitySpec.sqrt()
        )
        specs = [doc.to_game_spec(behavior_override=b) for b in ("optimistic", "pessimistic")]
    # solves where every floor is an agreed amount, none is, or some are
    kinds = {"all": 0, "none": 0, "some": 0}
    families = set()
    for seed, spec in enumerate(specs):
        rng = random.Random(seed)
        state = _state(spec, init_profile(spec, RandomFeasible(1000 + seed)))
        for _ in range(12):
            profile = _profile(state)
            for i, row in enumerate(spec.index.rows):
                if not row.neighbors or row.budget <= 0:
                    continue
                families.update(u.family for u in row.utils)
                standing = _standing(state, i)
                before = tuple(list(t) for t in standing)
                caps = [profile.counts[(j, i)] for j in row.neighbors]
                seeded = best_response(spec, None, i, caps, standing)
                plain = best_response(spec, profile, i)
                assert seeded.proposals == plain.proposals
                assert repr(seeded.realized_utility) == repr(plain.realized_utility)
                assert repr(seeded.terms) == repr(plain.terms)
                assert standing == before
                _, targets = bestresponse._water_fill(
                    row.weights, row.utils, row.zero_marginals, caps, row.budget, spec.eta
                )
                at = sum(
                    math.floor(t) == min(o, c)
                    for t, o, c in zip(targets, standing[0], caps)
                )
                kinds["all" if at == len(caps) else "some" if at else "none"] += 1
            members = _members(state)
            if not members:
                break
            mover = rng.choice(members)
            state.apply_move(mover, state.respond(mover))
    assert all(kinds.values()), kinds
    if game == "random":
        assert families == set(FAMILIES)


def test_solved_statuses_are_refreshed_after_every_move():
    """With tol = 0 the exchange test never settles "cannot improve", so
    every unsettled status is solved, and a solve reads the caps.  A move
    that changes only a neighbor's cap must still refresh such a status:
    after every move the movers are exactly the players that
    is_best_response rejects at tol = 0, and the standing terms are those
    of a fresh state."""
    solved = moves = 0
    for seed in range(12):
        spec = gen_random_instance(
            n=8, edge_prob=0.5, seed=300 + seed, budget_units=12
        ).to_game_spec()
        rng = random.Random(seed)
        state = _state(spec, init_profile(spec, RandomFeasible(seed)), tol=0.0)
        for _ in range(40):
            profile = _profile(state)
            rejected = [
                i for i in range(spec.n)
                if not is_best_response(spec, profile, i, tol=0.0)[0]
            ]
            members = _members(state)
            assert members == rejected
            fresh = _state(spec, profile, tol=0.0)
            assert (state._util, state._up, state._down) == (
                fresh._util, fresh._up, fresh._down
            )
            solved += sum(state.solved)
            if not members:
                break
            mover = rng.choice(members)
            state.apply_move(mover, state.respond(mover))
            moves += 1
    assert moves > 0
    assert solved > 0

    # By concavity a cap change above the agreed amount cannot flip a status
    # in exact arithmetic, so the random games above never see one flip; a
    # tie among linear allocations makes it flip by one ulp.  Player 1's
    # move lowers its over-proposal to player 0 from 7 to 5 and leaves 0's
    # terms alone, but 0's solver now fills its tied neighbors (5, 4, 0)
    # instead of (7, 2, 0), whose sum was an ulp above 0's utility.
    lin, sq = UtilitySpec.linear(), UtilitySpec.sqrt()
    edges = [
        (0, 1, 0.1, 1.0, lin, sq), (0, 2, 0.1, 1.0, lin, lin),
        (0, 3, 0.1, 1.0, lin, lin), (1, 4, 1.0, 1.0, sq, sq),
    ]
    behaviors = {0: PESS, 1: OPT, 2: PESS, 3: PESS, 4: PESS}
    spec = make_spec(5, 1.0, edges, [9.0, 10.0, 20.0, 20.0, 10.0], behaviors)
    start = profile_of(
        spec, {0: {1: 2, 2: 3, 3: 4}, 1: {0: 7, 4: 0}, 2: {0: 20}, 3: {0: 20}, 4: {1: 3}}
    )
    state = _state(spec, start, tol=0.0)
    assert _members(state) == [0, 1] and state.solved[0]
    terms = (state._util[0], state._up[0], state._down[0])
    state.apply_move(1, state.respond(1))
    assert state.f[state.off[1]] == 5
    assert (state._util[0], state._up[0], state._down[0]) == terms
    assert is_best_response(spec, _profile(state), 0, tol=0.0)[0]
    assert _members(state) == [4]
