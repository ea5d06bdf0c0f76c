import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_spec, profile_of, single_edge_spec, triangle_doc
from netalloc.analysis import (
    FLAT_PROX,
    SOLVED,
    OptimizerConfig,
    RankingSystem,
    _Dual,
    _Edges,
    brute_force_optimum,
    convex_combine,
    global_optimum,
    global_ranking_weights,
    grid_reference_welfare,
    match_down,
    ne_quality,
    poa_grid_ratio,
    potential_value,
)
from netalloc.bestresponse import BRUTE_FORCE_LIMIT
from netalloc.dynamics import (
    Converged,
    DynamicsConfig,
    NotEquilibrium,
    OptimisticNE,
    PessimisticNE,
    RandomFeasible,
    RandomSeeded,
    classify_equilibrium,
    init_profile,
    run_sequential,
)
from netalloc.game import FrequencyProfile, check_feasible, social_welfare
from netalloc.instances import (
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_random_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from netalloc.utility import FAMILIES, UtilitySpec


# -- rank-induced weights ------------------------------------------------------


def test_ranking_weights_triangle():
    neighbors = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    ranking = RankingSystem({0: 1, 1: 2, 2: 3})
    w = global_ranking_weights(neighbors, ranking)
    assert w[(0, 1)] == Fraction(2, 5)
    assert w[(0, 2)] == Fraction(3, 5)
    assert w[(1, 0)] == Fraction(1, 4)
    for i in neighbors:
        assert sum(w[(i, j)] for j in neighbors[i]) == 1


def test_ranking_weights_equal_ranks_uniform():
    neighbors = {0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,)}
    w = global_ranking_weights(neighbors, RankingSystem({i: 2 for i in range(4)}))
    assert w[(0, 1)] == w[(0, 2)] == w[(0, 3)] == Fraction(1, 3)


def test_ranking_weights_star_with_mixed_leaf_ranks():
    neighbors = {0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,)}
    ranking = RankingSystem({0: 5, 1: 1, 2: 1, 3: 2})
    w = global_ranking_weights(neighbors, ranking)
    assert w[(0, 1)] == Fraction(1, 4)
    assert w[(0, 2)] == Fraction(1, 4)
    assert w[(0, 3)] == Fraction(1, 2)


def test_ranking_weights_skip_isolated():
    w = global_ranking_weights({0: (), 1: ()}, RankingSystem({0: 1, 1: 1}))
    assert w == {}


def test_ranking_rejects_bad_ranks():
    with pytest.raises(ValueError):
        RankingSystem({0: 0})
    with pytest.raises(ValueError):
        RankingSystem({0: 1.5})


# -- weighted potential ----------------------------------------------------------


def _ranked_triangle(ranks=(1, 1, 1), u=None):
    u = u or UtilitySpec.capped_quadratic(1.0)
    neighbors = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    ranking = RankingSystem(dict(enumerate(ranks)))
    w = global_ranking_weights(neighbors, ranking)
    spec = make_spec(
        3,
        0.05,
        [
            (0, 1, float(w[(0, 1)]), float(w[(1, 0)]), u, u),
            (0, 2, float(w[(0, 2)]), float(w[(2, 0)]), u, u),
            (1, 2, float(w[(1, 2)]), float(w[(2, 1)]), u, u),
        ],
        [1.0, 1.0, 1.0],
    )
    return spec, ranking


def test_potential_zero_profile():
    spec, ranking = _ranked_triangle()
    assert potential_value(spec, ranking, FrequencyProfile.zeros(spec)) == 0.0


def test_potential_uniform_triangle_closed_form():
    spec, ranking = _ranked_triangle()
    c = 6  # agreed level 0.3 everywhere
    profile = profile_of(
        spec, {i: {j: c for j in spec.neighbors[i]} for i in range(3)}
    )
    u = spec.utilities[(0, 1)].value(c * spec.eta)
    assert potential_value(spec, ranking, profile) == pytest.approx(6 * u)


def test_potential_rejects_asymmetric_utilities():
    u1, u2 = UtilitySpec.sqrt(), UtilitySpec.linear()
    neighbors = {0: (1,), 1: (0,)}
    ranking = RankingSystem({0: 1, 1: 1})
    spec = make_spec(2, 1.0, [(0, 1, 1.0, 1.0, u1, u2)], [2.0, 2.0])
    with pytest.raises(ValueError, match="symmetric"):
        potential_value(spec, ranking, FrequencyProfile.zeros(spec))


def test_potential_rejects_foreign_weights():
    u = UtilitySpec.sqrt()
    spec = make_spec(2, 1.0, [(0, 1, 1.0, 1.0, u, u)], [2.0, 2.0])
    ranking = RankingSystem({0: 1, 1: 2})  # induced weights are still 1.0
    assert potential_value(spec, ranking, FrequencyProfile.zeros(spec)) == 0.0
    spec2 = make_spec(3, 1.0, [
        (0, 1, 0.7, 1.0, u, u),
        (0, 2, 0.3, 1.0, u, u),
    ], [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="not induced"):
        potential_value(
            spec2, RankingSystem({0: 1, 1: 1, 2: 1}), FrequencyProfile.zeros(spec2)
        )


def test_potential_identity_along_sequential_moves():
    for seed in (3, 8):
        doc = gen_ranked_instance(n=7, edge_prob=0.5, seed=seed, budget_units=30)
        spec = doc.to_game_spec()
        ranking = doc.ranking_system()
        final, trace, status = run_sequential(
            spec,
            init_profile(spec, RandomFeasible(seed)),
            DynamicsConfig(),
        )
        assert isinstance(status, Converged)
        recs = trace.records
        from netalloc.game import player_utility

        profiles = list(trace.profiles())
        phi = [potential_value(spec, ranking, p) for p in profiles]
        for t in range(1, len(recs)):
            mover = recs[t].mover
            d_phi = phi[t] - phi[t - 1]
            d_u = player_utility(spec, profiles[t], mover) - player_utility(
                spec, profiles[t - 1], mover
            )
            scale = 2 * ranking.rank(mover) * ranking.neighbor_rank_sum(
                spec.neighbors, mover
            )
            assert abs(d_phi - scale * d_u) <= 1e-9 * max(1.0, abs(d_phi))
            assert d_phi >= -1e-9  # potential never decreases along the run


# -- match-down -------------------------------------------------------------------


def test_match_down_identity_on_matched():
    spec = single_edge_spec(eta=1.0, budgets=(6.0, 6.0))
    p = profile_of(spec, {0: {1: 4}, 1: {0: 4}})
    assert match_down(spec, p) == p


def test_match_down_example():
    spec = single_edge_spec(eta=1.0, budgets=(6.0, 6.0))
    p = profile_of(spec, {0: {1: 5}, 1: {0: 3}})
    m = match_down(spec, p)
    assert m.counts[(0, 1)] == 3 and m.counts[(1, 0)] == 3
    assert social_welfare(spec, m) == social_welfare(spec, p)


def test_match_down_preserves_welfare_and_yields_equilibrium():
    for seed in range(8):
        doc = gen_random_instance(n=8, edge_prob=0.5, seed=seed, budget_units=16)
        spec = doc.to_game_spec()
        p = init_profile(spec, RandomFeasible(seed + 50))
        m = match_down(spec, p)
        assert social_welfare(spec, m) == social_welfare(spec, p)
        assert isinstance(classify_equilibrium(spec, m), PessimisticNE)


@st.composite
def games_and_profiles(draw):
    """A random game and a feasible profile on it, of ints or of floats."""
    spec = gen_random_instance(
        n=draw(st.integers(2, 9)),
        edge_prob=draw(st.floats(0.2, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        budget_units=draw(st.integers(1, 10**6)),
    ).to_game_spec()
    real = draw(st.booleans())
    counts = {}
    for i in range(spec.n):
        nbrs = spec.neighbors[i]
        share = spec.rows[i].budget // max(1, len(nbrs))
        amount = st.floats(0.0, share) if real else st.integers(0, share)
        for j in nbrs:
            counts[(i, j)] = draw(amount)
    return spec, FrequencyProfile(counts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(games_and_profiles())
def test_match_down_keeps_welfare_exactly_and_matches_every_edge(game):
    spec, p = game
    m = match_down(spec, p)
    assert social_welfare(spec, m) == social_welfare(spec, p)
    for (i, j) in spec.edges:
        agreed = min(p.counts[(i, j)], p.counts[(j, i)])
        assert m.counts[(i, j)] == m.counts[(j, i)] == agreed


# -- convex combinations -------------------------------------------------------------


def _two_matched_equilibria(seed):
    doc = gen_random_instance(n=7, edge_prob=0.5, seed=seed, budget_units=20)
    spec = doc.to_game_spec()
    outs = []
    for s in (seed + 1, seed + 2):
        final, _, status = run_sequential(
            spec, init_profile(spec, RandomFeasible(s)), DynamicsConfig()
        )
        assert isinstance(status, Converged)
        outs.append(match_down(spec, final))
    return spec, outs[0], outs[1]


def test_convex_combine_endpoints_exact():
    spec, a, b = _two_matched_equilibria(12)
    assert convex_combine(spec, a, b, 1.0) == a
    assert convex_combine(spec, a, b, 0.0) == b


def test_convex_combine_matched_equilibria_stay_matched():
    spec, a, b = _two_matched_equilibria(21)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        mix = convex_combine(spec, a, b, alpha)
        for (i, j) in spec.edges:
            assert mix.counts[(i, j)] == mix.counts[(j, i)]
        assert isinstance(classify_equilibrium(spec, mix), PessimisticNE)


def test_convex_combine_path_from_over_matched_equilibrium():
    # an over-matched equilibrium mixed with its match-down stays an
    # equilibrium the whole way (the over-proposal just shrinks)
    spec = single_edge_spec(UtilitySpec.sqrt(), eta=1.0, budgets=(5.0, 3.0))
    over = profile_of(spec, {0: {1: 5}, 1: {0: 3}})
    assert isinstance(classify_equilibrium(spec, over), OptimisticNE)
    down = match_down(spec, over)
    for alpha in (0.25, 0.5, 0.75):
        mix = convex_combine(spec, over, down, alpha)
        assert isinstance(classify_equilibrium(spec, mix), OptimisticNE)


def test_convex_combine_validates():
    spec, a, b = _two_matched_equilibria(5)
    with pytest.raises(ValueError):
        convex_combine(spec, a, b, 1.5)
    other = FrequencyProfile({(0, 1): 0})
    with pytest.raises(ValueError, match="edge sets"):
        convex_combine(spec, a, other, 0.5)


# -- global optimum ---------------------------------------------------------------------


def test_optimum_edge_facts_come_from_the_utilities():
    lin, sq, lg = UtilitySpec.linear(), UtilitySpec.sqrt(), UtilitySpec.log1p()
    cq = UtilitySpec.capped_quadratic
    pairs = [  # (w_ij, w_ji, u_ij, u_ji), one edge each
        (0.4, 0.6, lin, UtilitySpec.power(1.0)),
        (0.5, 0.5, lin, cq(2.0)),
        (0.5, 0.5, cq(1.0), cq(3.0)),
        (0.5, 0.5, sq, lg),
        (0.3, 0.2, sq, sq),
        (0.0, 0.5, lin, lg),
    ]
    edge_data = [(2 * e, 2 * e + 1, *pair) for e, pair in enumerate(pairs)]
    spec = make_spec(12, 1.0, edge_data, [4.0, 5.0] * 6)
    edges = _Edges.build(spec)
    assert edges.box.tolist() == [4.0] * 6
    assert edges.top.tolist() == [4.0, 4.0, 1.5, 4.0, 4.0, 4.0]
    assert edges.d0.tolist() == [1.0, 0.5 + 0.5 * 2.0, 2.0, math.inf, math.inf, 0.5]
    # flat: a linear slope (its weight over the box), and no curved term
    assert edges.rho.tolist() == [FLAT_PROX / 4.0, FLAT_PROX * 0.5 / 4.0] + [0.0] * 4
    kinds = [SOLVED] * 4 + [FAMILIES.index("sqrt"), FAMILIES.index("log1p")]
    assert edges.kind.tolist() == kinds
    for x in (0.3, 1.2, 2.5):
        value = edges.value(np.full(len(pairs), x))
        d1, d2 = edges.slopes(np.full(len(pairs), x))
        for e, (wa, wb, ua, ub) in enumerate(pairs):
            def slope(y):
                return wa * ua.marginal(y) + wb * ub.marginal(y)

            assert value[e] == pytest.approx(wa * ua.value(x) + wb * ub.value(x))
            assert d1[e] == pytest.approx(slope(x))
            fd = (slope(x + 1e-6) - slope(x - 1e-6)) / 2e-6
            assert d2[e] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_global_optimum_single_edge():
    u = UtilitySpec.sqrt()
    spec = make_spec(2, 1.0, [(0, 1, 1.0, 1.0, u, u)], [4.0, 9.0])
    result = global_optimum(spec)
    assert result.welfare == pytest.approx(4.0, abs=1e-9)
    assert result.profile.amounts[(0, 1)] == pytest.approx(4.0, abs=1e-9)
    assert result.certified


def test_global_optimum_triangle_matches_brute_force():
    doc = triangle_doc()
    spec = doc.to_game_spec()
    result = global_optimum(spec)
    bf_profile, bf_sw = brute_force_optimum(spec)
    assert abs(result.welfare - bf_sw) <= 1e-6 * max(1.0, bf_sw)
    for e, x in bf_profile.amounts.items():
        assert abs(result.profile.amounts[e] - x) <= spec.eta


def test_global_optimum_beats_reference_profile_on_skewed_grid():
    doc, good, bad = gen_poa_grid_instance(4, 4, 0.1, 1.0)
    spec = doc.to_game_spec()
    result = global_optimum(spec)
    sw_good, _ = grid_reference_welfare(0.1, 1.0, spec.n)
    assert result.welfare >= sw_good - 1e-6


def test_global_optimum_empty_graph():
    spec = make_spec(2, 1.0, [], [1.0, 1.0])
    result = global_optimum(spec)
    assert result.welfare == 0.0 and result.certified


def test_global_optimum_dominates_dynamics_equilibria():
    for seed in (2, 6):
        doc = gen_random_instance(n=8, edge_prob=0.5, seed=seed, budget_units=25)
        spec = doc.to_game_spec()
        opt = global_optimum(spec)
        for s in range(3):
            final, _, status = run_sequential(
                spec, init_profile(spec, RandomFeasible(s)), DynamicsConfig()
            )
            assert isinstance(status, Converged)
            assert social_welfare(spec, final) <= opt.welfare * (1 + 1e-6)


def test_criterion_8_optimum_keeps_its_bits():
    # every criterion-8 ratio divides by this optimum; its bits depend on
    # numpy's SIMD dispatch, so CI reruns this with dispatch turned off
    doc = gen_torus_grid(10, 10, beta=1000.0, eta=1.0, weight_seed=7,
                         utility=UtilitySpec.sqrt())
    opt = global_optimum(doc.to_game_spec())
    assert (repr(opt.welfare), repr(opt.upper_bound), opt.iterations, opt.certified) == (
        "1672.7995687370021", "1672.7995695389257", 9, True
    )
    # inside the interval that 281 colour sweeps alone certified
    assert 1672.7995679036053 <= opt.welfare <= 1672.7995695389254


class _NewtonSteps:
    """Counts the Newton steps global_optimum tries and the ones it takes."""

    def __init__(self, monkeypatch):
        self.tried = self.taken = 0
        step = _Dual.step

        def counted(dual, *args):
            result = step(dual, *args)
            self.tried += 1
            self.taken += result is not None
            return result

        monkeypatch.setattr(_Dual, "step", counted)


def _reaches(opt, sweep_welfare):
    """Certified, and no more than the gap tolerance below the welfare that
    colour sweeps alone certified on the same spec."""
    gap_tol = OptimizerConfig().gap_tol
    return opt.certified and opt.welfare >= sweep_welfare - gap_tol * max(1.0, sweep_welfare)


@pytest.mark.parametrize(
    "side, sweep_welfare, pins",
    [
        # the even torus is bipartite: raising one side's prices and lowering
        # the other's leaves every edge price as it is, so the Hessian is singular
        (10, 1672.7995679036053, ("1672.7995687370021", "1672.7995695389257", 9)),
        (9, 1349.190378286653, ("1349.1903792651506", "1349.1903795560067", 8)),
    ],
    ids=["even", "odd"],
)
def test_newton_steps_settle_the_torus(monkeypatch, side, sweep_welfare, pins):
    # the sweeps alone took 281 (10x10) and 169 (9x9) iterations; CI reruns
    # this with numpy's SIMD dispatch off, and the pins must hold either way
    steps = _NewtonSteps(monkeypatch)
    doc = gen_torus_grid(side, side, beta=1000.0, eta=1.0, weight_seed=7,
                         utility=UtilitySpec.sqrt())
    opt = global_optimum(doc.to_game_spec())
    assert _reaches(opt, sweep_welfare)
    assert (repr(opt.welfare), repr(opt.upper_bound), opt.iterations) == pins
    assert steps.tried == opt.iterations and steps.taken >= opt.iterations // 2


def _slack(spec, opt):
    return [
        spec.budgets[i] - math.fsum(x for e, x in opt.profile.amounts.items() if i in e)
        for i in range(spec.n)
    ]


def test_newton_steps_keep_a_star_s_leaves_at_price_zero(monkeypatch):
    # a leaf's one edge is boxed by its budget, so its price stays 0: it is
    # fixed in every Newton step; the linear edges keep the centre's proximal
    # term moving, so the sweep alone needs 5 iterations too
    sq, lin, lg = UtilitySpec.sqrt(), UtilitySpec.linear(), UtilitySpec.log1p()
    utils = [sq, lin, lg, lin, sq, sq]
    weights = [4 / 16, 3 / 16, 2 / 16, 2 / 16, 3 / 16, 2 / 16]
    spec = make_spec(7, 1.0, [(0, j + 1, w, 1.0, u, u) for j, (w, u) in enumerate(zip(weights, utils))],
                     [29.0, 40.0, 1.0, 3.0, 40.0, 40.0, 3.0])
    steps = _NewtonSteps(monkeypatch)
    opt = global_optimum(spec)
    assert _reaches(opt, 33.629340277777786)
    assert steps.taken >= 2
    slack = _slack(spec, opt)
    assert abs(slack[0]) <= 1e-9 and sum(s > 1.0 for s in slack[1:]) == 5


def test_newton_steps_on_a_path_with_unequal_budgets(monkeypatch):
    # four of the eight players end with budget to spare (price 0)
    u = UtilitySpec.sqrt()
    split = [1.0, 0.75, 0.25, 0.75, 0.5, 0.75, 0.25, 0.0]  # weight toward the right
    spec = make_spec(8, 1.0, [(j, j + 1, split[j], 1.0 - split[j + 1], u, u) for j in range(7)],
                     [27.0, 19.0, 6.0, 7.0, 6.0, 7.0, 6.0, 22.0])
    steps = _NewtonSteps(monkeypatch)
    opt = global_optimum(spec)
    assert _reaches(opt, 16.908683626332653)
    assert steps.taken >= 2 and opt.iterations <= 11  # 11 sweeps alone
    assert sum(s > 0.5 for s in _slack(spec, opt)) == 4


def test_newton_steps_with_flat_edges(monkeypatch):
    # three linear (flat) edges beside the curved ones: their proximal
    # centres stay put within a step, which works on the dual the sweep settles
    spec = gen_random_instance(n=7, edge_prob=0.5, seed=7, budget_units=20).to_game_spec()
    assert (_Edges.build(spec).rho > 0.0).sum() == 3
    steps = _NewtonSteps(monkeypatch)
    opt = global_optimum(spec)
    assert _reaches(opt, 2.618101240808816)
    assert steps.taken >= 2 and opt.iterations <= 76  # 76 sweeps alone


def _path4():
    # coefficients 4/3 on every edge and budgets 5 in the middle: (4, 1, 4)
    u, third = UtilitySpec.sqrt(), 1.0 / 3.0
    return make_spec(4, 1.0, [(0, 1, 1.0, third, u, u), (1, 2, 1 - third, 1 - third, u, u),
                              (2, 3, third, 1.0, u, u)], [20.0, 5.0, 5.0, 20.0])


def _cycle4():
    # bipartite, with balanced budgets: the Hessian is singular here too
    u = UtilitySpec.sqrt()
    return make_spec(4, 1.0, [(0, 1, 0.25, 0.5, u, u), (1, 2, 0.5, 0.25, u, u),
                              (2, 3, 0.75, 0.5, u, u), (0, 3, 0.75, 0.5, u, u)], [2.0] * 4)


@pytest.mark.parametrize(
    "build, sweep_welfare",
    [(_path4, 6.666666666476495), (_cycle4, 3.9999999973114324)],
    ids=["path", "cycle"],
)
def test_newton_steps_agree_with_brute_force(monkeypatch, build, sweep_welfare):
    spec = build()
    steps = _NewtonSteps(monkeypatch)
    opt = global_optimum(spec)
    profile, bf_sw = brute_force_optimum(spec)
    assert _reaches(opt, sweep_welfare) and steps.taken >= 2
    assert abs(opt.welfare - bf_sw) <= 1e-9 * max(1.0, bf_sw)
    for e, x in profile.amounts.items():
        assert abs(opt.profile.amounts[e] - x) <= 1e-6


def test_one_iteration_of_the_torus_stays_uncertified():
    # at prices 0 every edge is at its box and no Newton step has curvature:
    # the one iteration is a sweep, whose bounds are far apart
    doc = gen_torus_grid(10, 10, beta=1000.0, eta=1.0, weight_seed=7,
                         utility=UtilitySpec.sqrt())
    spec = doc.to_game_spec()
    one = global_optimum(spec, OptimizerConfig(max_iters=1))
    assert (one.iterations, one.certified) == (1, False)
    assert one.welfare < one.upper_bound
    check_feasible(spec, one.profile.to_profile(spec))
    assert one.welfare <= global_optimum(spec).welfare


def test_newton_stops_on_a_root_that_underflows(monkeypatch):
    # log1p beside power(0.999): the slope at 0 is infinite, so the edge is
    # never "at zero", but at these prices its root underflows toward 0; a
    # stop rule relative to the bracket's top ends the halving (52 slope
    # evaluations here), where one relative to hi never held while lo is 0
    spec = make_spec(2, 1.0, [(0, 1, 0.3, 0.7, UtilitySpec.log1p(), UtilitySpec.power(0.999))],
                     [1000.0, 1000.0])
    edges = _Edges.build(spec)
    assert edges.top.tolist() == [1000.0] and edges.kind.tolist() == [SOLVED]
    calls = []
    slopes = _Edges.slopes
    monkeypatch.setattr(_Edges, "slopes", lambda self, x: calls.append(x) or slopes(self, x))
    for p in (5.0, 50.0):
        calls.clear()
        x, _ = edges.newton(np.array([p]), np.array([0.0]), np.array([0.0]))
        assert 0.0 <= x[0] <= 1e-12
        assert len(calls) <= 60


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(gap_tol=0.0)
    # an infinite gap tolerance would certify any matched profile
    for gap_tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="gap_tol must be positive and finite"):
            OptimizerConfig(gap_tol=gap_tol)


def test_global_optimum_reaches_mixed_family_optimum():
    # optimum 2.952970040 by SLSQP; 2.952918595 must not pass as certified
    doc = gen_random_instance(n=7, edge_prob=0.5, seed=40003, budget_units=20)
    opt = global_optimum(doc.to_game_spec())
    assert opt.certified
    assert opt.welfare >= 2.95297


@pytest.mark.parametrize("family", [*FAMILIES, None])
def test_global_optimum_certificate_brackets_the_optimum(family):
    gap_tol = OptimizerConfig().gap_tol
    for seed in (11, 12):
        doc = gen_random_instance(
            n=7, edge_prob=0.5, seed=seed, budget_units=10, family=family
        )
        spec = doc.to_game_spec()
        opt = global_optimum(spec)
        assert opt.certified
        assert opt.welfare <= opt.upper_bound
        assert opt.upper_bound <= opt.welfare + gap_tol * max(1.0, opt.welfare)
        check_feasible(spec, opt.profile.to_profile(spec))
        for s in range(3):
            final, _, status = run_sequential(
                spec, init_profile(spec, RandomFeasible(s)), DynamicsConfig()
            )
            assert isinstance(status, Converged)
            # an equilibrium can be optimal: allow the bound's rounding
            sw = social_welfare(spec, final)
            assert sw <= opt.upper_bound + 1e-12 * max(1.0, sw)


def _slsqp_welfare(spec):
    """Reference optimum by scipy's SLSQP on the same edge problem."""
    from scipy.optimize import minimize

    edges = sorted(spec.edges)
    sides = [
        (spec.weights[(i, j)], spec.utilities[(i, j)],
         spec.weights[(j, i)], spec.utilities[(j, i)])
        for (i, j) in edges
    ]
    rows = np.zeros((spec.n, len(edges)))
    for e, (i, j) in enumerate(edges):
        rows[i, e] = rows[j, e] = 1.0
    budgets = np.array([spec.budgets[i] for i in range(spec.n)])

    def loss(x):
        return -sum(wa * ua.value(v) + wb * ub.value(v)
                    for (wa, ua, wb, ub), v in zip(sides, x))

    def grad(x):
        return -np.array([wa * ua.marginal(v) + wb * ub.marginal(v)
                          for (wa, ua, wb, ub), v in zip(sides, x)])

    start = np.full(len(edges), 0.5 * budgets.min() / rows.sum(axis=1).max())
    res = minimize(
        loss, start, jac=grad, method="SLSQP",
        bounds=[(1e-12, None)] * len(edges),
        constraints=[{"type": "ineq", "fun": lambda x: budgets - rows @ x,
                      "jac": lambda x: -rows}],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert res.success, res.message
    return -res.fun


@pytest.mark.parametrize(
    "family, seed", [("log1p", 2), ("power", 3), ("sqrt", 4)]
)
def test_global_optimum_agrees_with_slsqp(family, seed):
    pytest.importorskip("scipy")
    doc = gen_random_instance(
        n=6, edge_prob=0.6, seed=seed, budget_units=20, family=family
    )
    spec = doc.to_game_spec()
    opt = global_optimum(spec)
    reference = _slsqp_welfare(spec)
    scale = max(1.0, reference)
    # SLSQP may overshoot by its own feasibility tolerance
    assert reference <= opt.upper_bound + 1e-9 * scale
    assert opt.welfare >= reference - 2e-9 * scale


def test_import_leaves_scipy_unloaded():
    code = "import sys, netalloc; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "False"


# -- brute-force optimum -------------------------------------------------------------------


def test_brute_force_optimum_single_edge():
    u = UtilitySpec.sqrt()
    spec = make_spec(2, 1.0, [(0, 1, 1.0, 1.0, u, u)], [4.0, 9.0])
    profile, sw = brute_force_optimum(spec)
    assert profile.amounts[(0, 1)] == 4.0
    assert sw == pytest.approx(4.0)


def test_brute_force_optimum_linear_path_corner():
    u = UtilitySpec.linear()
    spec = make_spec(
        3,
        0.25,
        [(0, 1, 1.0, 0.6, u, u), (1, 2, 0.4, 1.0, u, u)],
        [1.0, 1.0, 1.0],
    )
    profile, sw = brute_force_optimum(spec)
    # middle player's whole budget goes to the heavier side
    assert profile.amounts[(0, 1)] == 1.0
    assert profile.amounts[(1, 2)] == 0.0
    assert sw == pytest.approx(1.6)


def test_brute_force_optimum_refuses_large():
    doc = gen_random_instance(n=12, edge_prob=0.9, seed=0, budget_units=50)
    spec = doc.to_game_spec()
    with pytest.raises(ValueError, match=f"the limit {BRUTE_FORCE_LIMIT} "):
        brute_force_optimum(spec)


# -- quality ratios ---------------------------------------------------------------------------


def test_ne_quality_at_optimum_and_zero():
    doc = triangle_doc()
    spec = doc.to_game_spec()
    _, bf_sw = brute_force_optimum(spec)
    opt = global_optimum(spec)
    prof = opt.profile.to_profile(spec)
    assert ne_quality(spec, prof, opt.welfare) == pytest.approx(1.0, abs=1e-9)
    assert ne_quality(spec, FrequencyProfile.zeros(spec), opt.welfare) == 0.0
    with pytest.raises(ValueError):
        ne_quality(spec, prof, 0.0)


def test_ne_quality_of_bad_vs_good_reference():
    doc, good, bad = gen_poa_grid_instance(4, 4, 0.1, 1.0)
    spec = doc.to_game_spec()
    sw_good = social_welfare(spec, good)
    ratio = ne_quality(spec, bad, sw_good)
    assert ratio == pytest.approx(0.120 / 0.210, rel=1e-9)


def test_poa_grid_ratio_exact():
    assert poa_grid_ratio(0.1, 1.0) == 1.75
    values = [poa_grid_ratio(e, 1.0) for e in (0.1, 0.05, 0.025, 0.0125)]
    assert values[0] < values[1] < values[2] < values[3]
    # profiles coincide when the two allocation levels meet at beta/4
    assert poa_grid_ratio(0.25, 1.0) == 1.0
    with pytest.raises(ValueError):
        poa_grid_ratio(0.5, 1.0)
    with pytest.raises(ValueError):
        poa_grid_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        poa_grid_ratio(0.6, 2.0)  # vertical weight 1/2 - eps would be negative


def test_global_optimum_uncertified_on_tiny_budgeted_iterations():
    doc = gen_random_instance(n=6, edge_prob=0.6, seed=8, budget_units=20)
    spec = doc.to_game_spec()
    result = global_optimum(spec, OptimizerConfig(max_iters=1))
    assert not result.certified
    assert result.iterations == 1
    full = global_optimum(spec)
    assert full.certified
    assert full.welfare >= result.welfare - 1e-12


def test_continuous_polish_removes_grid_slack():
    from netalloc.analysis import continuous_equilibrium_polish
    from netalloc.bestresponse import best_response
    from netalloc.game import player_utility

    doc = gen_random_instance(
        n=8, edge_prob=0.5, seed=321, budget_units=30, behavior="optimistic"
    )
    spec = doc.to_game_spec()
    final, _, status = run_sequential(
        spec, init_profile(spec, RandomFeasible(1)), DynamicsConfig()
    )
    assert isinstance(status, Converged)
    settled = continuous_equilibrium_polish(spec, final)
    for i in range(spec.n):
        br = best_response(spec, settled, i)
        assert (
            br.realized_utility - player_utility(spec, settled, i) <= 1e-9
        )
    assert not isinstance(
        classify_equilibrium(spec, settled, tol=1e-9), NotEquilibrium
    )


def test_continuous_polish_ignores_float_dust():
    # settling this grid equilibrium moves player 4 to propose
    # 7.000000000000002 against player 0's 7: float dust of the optimistic
    # disposal, not a lost equilibrium
    from netalloc.analysis import continuous_equilibrium_polish

    spec = gen_random_instance(
        n=10, edge_prob=0.45, seed=321, budget_units=30, behavior="optimistic"
    ).to_game_spec()
    final, _, status = run_sequential(
        spec,
        init_profile(spec, RandomFeasible(17)),
        DynamicsConfig(order=RandomSeeded(17)),
    )
    assert isinstance(status, Converged)
    settled = continuous_equilibrium_polish(spec, final)
    assert not isinstance(
        classify_equilibrium(spec, settled, tol=1e-9), NotEquilibrium
    )
