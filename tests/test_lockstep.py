"""The lockstep batch engine against the scalar engine, its oracle.

The numpy response must equal ``best_response`` field for field on random
degree-regular sqrt rows, and the numpy random start ``init_profile``'s;
a batch must equal the runs ``_single_run`` makes one by one (rounds,
welfare bits, final profiles), and a batch that does not qualify, or has
fewer than ``LOCKSTEP_MIN_RUNS`` runs, must take the scalar path."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import netalloc.experiment as experiment
from netalloc import bestresponse, dynamics, lockstep
from netalloc.bestresponse import best_move, best_response, edge_terms
from netalloc.dynamics import (
    DynamicsConfig,
    InvariantViolation,
    RandomFeasible,
    RandomSeeded,
    init_profile,
    run_sequential,
)
from netalloc.experiment import ExperimentConfig, _single_run, run_batch_experiment
from netalloc.game import (FrequencyProfile, InfeasibleProfileError, check_feasible, left_sum,
                           social_welfare, validate_game)
from netalloc.instances import gen_random_instance, gen_torus_grid
from netalloc.utility import UtilitySpec

from helpers import OPT, PESS, make_spec, rebuilt

SQRT = UtilitySpec.sqrt()


def regular_spec(n, offsets, rng, eta, budgets, weights=None):
    """A circulant graph (i ~ i +- o for each offset o), sqrt on every edge,
    the given weights on every player's sorted neighbors or random ones,
    behaviours alternating."""
    nbrs = {i: sorted({(i + o) % n for o in offsets} | {(i - o) % n for o in offsets})
            for i in range(n)}
    w = {}
    for i, js in nbrs.items():
        draws = [rng.random() + 0.01 for _ in js]
        row = weights or [x / left_sum(draws) for x in draws]
        w.update(zip([(i, j) for j in js], row))
    edge_data = [(i, j, w[(i, j)], w[(j, i)], SQRT, SQRT)
                 for i in range(n) for j in nbrs[i] if i < j]
    behaviors = {i: OPT if i % 2 else PESS for i in range(n)}
    return make_spec(n, eta, edge_data, budgets, behaviors)


def draw_caps(rng, d, budget):
    kinds = rng.random()
    if kinds < 0.15:  # every cap binds: the water fill's targets_at(0) fits
        return [rng.randrange(0, budget // d + 1) for _ in range(d)]
    caps = []
    for _ in range(d):
        u = rng.random()
        if u < 0.15:
            caps.append(0)
        elif u < 0.3:
            caps.append(budget + rng.randrange(3))  # at or above the budget
        elif u < 0.45:
            caps.append(rng.randrange(0, 3))
        else:
            caps.append(rng.randrange(0, budget + 1))
    return caps


def oracle_rows(spec, rows, rng):
    """Compare the batched grid response of each of ``rows`` (player, caps)
    with ``best_response`` from a random standing row."""
    d = len(spec.rows[0].neighbors)
    players = [i for i, _ in rows]
    caps = np.array([c for _, c in rows], dtype=np.int64)
    standings = []
    for i, cap in rows:
        row = spec.rows[i]
        own = [rng.randrange(0, row.budget + 2) for _ in range(d)]
        terms = [edge_terms(w, k, min(o, c), c, spec.eta)
                 for w, k, o, c in zip(row.weights, row.kernels, own, cap)]
        standings.append((own, *map(list, zip(*terms))))
    w = np.array([spec.rows[i].weights for i in players])
    budget = np.array([spec.rows[i].budget for i in players])
    optimistic = np.array([spec.behaviors[i] is OPT for i in players])
    with np.errstate(all="ignore"):
        alloc, terms, realized = lockstep._respond(w, caps, budget, optimistic, spec.eta)
    for k, (i, cap) in enumerate(rows):
        br = best_response(spec, None, i, cap, standings[k])
        assert alloc[k].tolist() == br.proposals, (i, cap)
        assert repr(float(realized[k])) == repr(br.realized_utility), (i, cap)
        for m in range(3):
            assert list(map(repr, terms[m, k].tolist())) == list(map(repr, br.terms[m]))


@pytest.mark.parametrize("d, offsets", [(3, (1, 4)), (4, (1, 2))])
def test_batched_response_matches_best_response(d, offsets):
    rng = random.Random(d)
    n = 8 if d == 3 else 9
    checked = 0
    for eta, equal in ((1.0, False), (0.25, False), (1.0, True)):
        budgets = [rng.choice((1, 2, 3, 7, 40, 600)) * eta for _ in range(n)]
        weights = [1.0 / d] * d if equal else None  # equal weights tie gains
        spec = regular_spec(n, offsets, rng, eta, budgets, weights)
        rows = []
        for _ in range(400):
            i = rng.randrange(n)
            rows.append((i, draw_caps(rng, d, spec.rows[i].budget)))
        oracle_rows(spec, rows, rng)
        checked += len(rows)
        assert {spec.behaviors[i] for i, _ in rows} == {OPT, PESS}
        assert any(0 in c for _, c in rows)
        assert any(max(c) >= spec.rows[i].budget for i, c in rows)
        assert any(
            sum(min(x, spec.rows[i].budget) for x in c) <= spec.rows[i].budget
            for i, c in rows
        )
    assert checked >= 1200


def fsum_rows(monkeypatch):
    """The rows ``lockstep._fits`` hands to the scalar's ``_fits`` rule
    (``math.fsum``) from now on, as (targets, budget)."""
    opened = []
    real = bestresponse._fits

    def keep(targets, budget):
        opened.append((targets, budget))
        return real(targets, budget)

    monkeypatch.setattr(bestresponse, "_fits", keep)
    return opened


def test_a_sum_on_the_budget_is_decided_by_fsum(monkeypatch):
    # on K4 with a budget near 2**53, the water fill's targets at one
    # breakpoint sum exactly to the budget while their float partial sums
    # round; the excess is zero only up to the rounding, so the TwoSum
    # bound leaves the comparison open and math.fsum decides it
    weights = [0.2959163598225536, 0.24137021978307124, 0.4627134203943751]
    caps = [3497286112119724, 3671166019273024, 3467243558593084]
    budget = 7786561830095932
    spec = regular_spec(4, (1, 2), random.Random(0), 1.0, [budget] * 4, weights)
    with monkeypatch.context() as m, np.errstate(all="ignore"):
        opened = fsum_rows(m)
        lockstep._respond(np.array([weights]), np.array([caps]), np.array([budget]),
                          np.array([False]), 1.0)
    assert budget in {b for _, b in opened}
    rng = random.Random(1)
    rows = [(0, caps)] + [(0, draw_caps(rng, 3, budget)) for _ in range(200)]
    oracle_rows(spec, rows, rng)


def cap_matching(spec, i, caps):
    """The spare quanta ``best_response``'s polish leaves player i, and the
    room below each cap there, from which cap matching takes."""
    row = spec.rows[i]
    _, targets = bestresponse._water_fill(
        row.weights, row.utils, row.zero_marginals, caps, row.budget, spec.eta
    )
    alloc = [math.floor(t) for t in targets]
    spare, _ = bestresponse._polish_exchanges(
        alloc, caps, row.budget, spec.eta, row.weights, row.kernels
    )
    return spare, [max(c - a, 0) for c, a in zip(caps, alloc)]


def test_cap_matching_matches_best_response():
    # a quantum on a 1e-14 weight gains less than POLISH_MIN_GAIN, so the
    # polish leaves the floors' spare quanta there to cap matching; with
    # weights 1:2:3 the budget of 20 splits 1.4 : 5.7 : 12.9
    rng = random.Random(7)
    weights = [1e-14, 2e-14, 3e-14, 0.5]
    spec = regular_spec(9, (1, 2), rng, 1.0, [20.0] * 9, weights)
    rows = [(i, caps) for i in (0, 1) for caps in
            ([2, 100, 100, 0], [5, 100, 100, 0], [2, 6, 13, 0], [1, 1, 100, 0])]
    for _ in range(400):
        i = rng.randrange(9)
        rows.append((i, draw_caps(rng, 4, spec.rows[i].budget)))
    oracle_rows(spec, rows, rng)
    reached = {}
    for i, caps in rows:
        spare, room = cap_matching(spec, i, caps)
        if spare > 0 and sum(room) > 0:  # the spare within or beyond the first room
            first = next(r for r in room if r > 0)
            reached.setdefault((spec.behaviors[i], spare > first), []).append(caps)
    assert set(reached) == {(b, above) for b in (OPT, PESS) for above in (False, True)}
    assert len([c for found in reached.values() for c in found]) >= 20


def assert_fits_as_fsum(targets, budget, monkeypatch):
    """``lockstep._fits`` of each row equals the scalar's ``math.fsum`` rule;
    returns the rows its TwoSum bound left open."""
    with monkeypatch.context() as m:
        opened = fsum_rows(m)
        fits = lockstep._fits(np.array(targets), np.array(budget))
    assert fits.tolist() == [math.fsum([-b, *row]) <= 0.0 for row, b in zip(targets, budget)]
    return [row for row, _ in opened]


def test_fits_equals_fsum_on_every_row(monkeypatch):
    rng = random.Random(3)
    # the exact sum is the budget, and the running sums from -budget round
    # (at 2**53 a half is below the last bit) before their errors cancel
    targets = [[0.5, 0.5, 2.0**53 - 3, 0.0]]
    budget = [2**53 - 2]
    for _ in range(3000):
        row = [rng.choice((rng.random() * 50, float(rng.randrange(20)))) for _ in range(4)]
        targets.append(row)
        budget.append(math.floor(left_sum(row)) + rng.randrange(2))
    # only the 2**53 row needs math.fsum; the bound decides the rest
    assert assert_fits_as_fsum(targets, budget, monkeypatch) == targets[:1]


@pytest.mark.parametrize("tail", ["zero", "subnormal", "ulp"])
def test_fits_decides_small_and_subnormal_rows_by_fsum(tail, monkeypatch):
    # budgets of a few quanta (every target below 2d, d = 4): a target t,
    # the rest of the budget as hi + lo (hi rounded down), and a last target
    # of 0 or a subnormal, or lo a ulp off, so the exact sum is within an
    # ulp of lo of the budget, or a subnormal above; the running sums round
    rng = random.Random(11)
    targets, budget = [], []
    for _ in range(1000):
        b = rng.randrange(1, 8)
        t = rng.random() * 0.5
        rest = Fraction(b) - Fraction(t)
        hi = float(rest)
        if Fraction(hi) > rest:
            hi = math.nextafter(hi, 0.0)
        lo = float(rest - Fraction(hi))
        s = 0.0
        if tail == "subnormal":
            s = rng.randrange(1, 2**20) * 5e-324
        elif tail == "ulp":
            lo = math.nextafter(lo, rng.choice((-math.inf, math.inf)))
        row = [t, hi, lo, s]
        rng.shuffle(row)
        targets.append(row)
        budget.append(b)
    assert all(max(row) < 8 for row in targets)
    assert len(assert_fits_as_fsum(targets, budget, monkeypatch)) >= 200


def test_direct_draw_equals_randrange_and_choice():
    # the lockstep pick draws from getrandbits by randrange's own rule; the
    # scalar engine picks by rng.choice over its sorted movers
    counts = sorted({1, 2, 3} | {2**k + o for k in range(1, 21) for o in (-1, 0, 1)})
    for seed in (0, 7, 1000, 4242):
        direct, by_randrange, by_choice = (random.Random(seed) for _ in range(3))
        for _ in range(5):
            picks = lockstep._below([direct.getrandbits] * len(counts), counts)
            assert picks == [by_randrange.randrange(c) for c in counts]
            assert picks == [by_choice.choice(range(c)) for c in counts]
        assert direct.getstate() == by_randrange.getstate() == by_choice.getstate()


def test_batched_best_move_keeps_the_tie_rules():
    rng = random.Random(5)
    values = [0.0, 1.0, 2.0, 3.0, -math.inf, math.inf]
    for d in (1, 2, 3, 4):
        up = [[rng.choice(values[:5]) for _ in range(d)] for _ in range(2000)]
        down = [[rng.choice(values[:4] + values[5:]) for _ in range(d)] for _ in range(2000)]
        can_add = [rng.random() < 0.3 for _ in range(2000)]
        gain, src, dst = lockstep._best_move(np.array(up), np.array(down), np.array(can_add))
        for k in range(2000):
            expected = best_move(up[k], down[k], can_add[k])
            if expected[0] == -math.inf:
                assert gain[k] == -math.inf
            else:
                assert (float(gain[k]), int(src[k]), int(dst[k])) == expected


def digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()


def c8_torus():
    return gen_torus_grid(10, 10, beta=1000.0, eta=1.0, weight_seed=7, utility=SQRT)


def scalar_report_runs(doc, config, monkeypatch):
    """The runs of ``config`` made one by one by ``_single_run``, and the
    final profile key of each."""
    spec = doc.to_game_spec(behavior_override=config.behavior)
    keys = []
    real = experiment.run_sequential

    def keep(spec, *args, **kwargs):
        result = real(spec, *args, **kwargs)
        keys.append(result[0].key(spec))
        return result

    with monkeypatch.context() as m:
        m.setattr(experiment, "run_sequential", keep)
        opt_sw = experiment.global_optimum(spec).welfare
        runs = [_single_run(spec, config.dynamics, opt_sw, r, config.seed + r)
                for r in range(config.runs)]
    return runs, keys


def assert_same_runs(batch, scalar):
    assert len(batch) == len(scalar)
    for a, b in zip(batch, scalar):
        assert (a.run, a.seed, a.converged, a.rounds) == (b.run, b.seed, b.converged, b.rounds)
        assert repr(a.final_welfare) == repr(b.final_welfare)
        assert repr(a.ratio) == repr(b.ratio)


@pytest.mark.parametrize("behavior", ["optimistic", "pessimistic"])
def test_criterion_8_batch_matches_the_scalar_runs(behavior, monkeypatch):
    finals = []

    def keep_finals(*args):
        results, rows = lockstep.run_batch(*args)
        finals.extend(tuple(row.tolist()) for row in rows)
        return results, rows

    monkeypatch.setattr(experiment, "run_batch", keep_finals)
    doc = c8_torus()
    config = ExperimentConfig(runs=40, seed=1000, behavior=behavior, bins=20)
    report = run_batch_experiment(doc, config)
    runs, keys = scalar_report_runs(doc, config, monkeypatch)
    assert_same_runs(report.runs, runs)
    assert list(map(digest, finals)) == list(map(digest, keys))


@pytest.mark.parametrize(
    "dynamics_config",
    [DynamicsConfig(max_rounds=5), DynamicsConfig(tol=0.0)],
    ids=["max_rounds=5", "tol=0"],
)
def test_small_torus_batch_matches_the_scalar_runs(dynamics_config, monkeypatch):
    monkeypatch.setattr(experiment, "LOCKSTEP_MIN_RUNS", 12)  # 12 runs in lockstep
    doc = gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4, utility=SQRT)
    for behavior in ("optimistic", "pessimistic"):
        config = ExperimentConfig(runs=12, seed=7, behavior=behavior,
                                  dynamics=dynamics_config)
        report = run_batch_experiment(doc, config)
        runs, _ = scalar_report_runs(doc, config, monkeypatch)
        assert_same_runs(report.runs, runs)
        if dynamics_config.max_rounds == 5:
            assert not all(o.converged for o in report.runs)


def k5_spec(budgets=(40.0,) * 5, weights=(0.25,) * 4, u01=SQRT):
    """K5 with ``u01`` on edge (0, 1) and sqrt elsewhere; every player puts
    ``weights`` on its neighbors in order."""
    edge_data = []
    for i in range(5):
        for j in range(i + 1, 5):
            u = u01 if (i, j) == (0, 1) else SQRT
            edge_data.append((i, j, weights[j - 1], weights[i], u, u))
    return make_spec(5, 1.0, edge_data, budgets)


def start_args(spec, seeds):
    """``_random_start``'s arguments for each seed's run on ``spec``."""
    rows = spec.rows
    w = np.array([row.weights for row in rows])
    return w, np.array([row.budget for row in rows]), spec.eta, seeds


def start_rows(spec, seeds):
    """The numpy random start of each seed on ``spec``, a row per seed."""
    return lockstep._random_start(*start_args(spec, seeds))


def torus(side, beta, eta=1.0):
    return gen_torus_grid(side, side, beta=beta, eta=eta, weight_seed=7,
                          utility=SQRT).to_game_spec()


@pytest.mark.parametrize(
    "spec, seeds",
    [
        (torus(10, 1000.0), range(1000, 1200)),
        (torus(10, 1000.0, eta=0.25), range(60)),
        (torus(4, 1.0), range(100)),  # budgets below the degree: every floor is 0
        (torus(4, 2.0), range(100)),
        (torus(4, 3.0), range(100)),
        (torus(3, 2.0**53 - 1), range(300)),  # floors that overspend (below)
        (k5_spec(budgets=(3.0,) * 5), range(20)),  # equal weights tie every score
        (k5_spec(), range(100)),
        (k5_spec(weights=(5e-324,) * 4), range(20)),  # scores of 0: no leftover
        (torus(3, 50.0), range(-100, 0)),
        (torus(3, 50.0), []),
    ],
    ids=["criterion-8", "eta=0.25", "budget=1", "budget=2", "budget=3",
         "budget=2**53-1", "ties-budget=3", "ties-budget=40", "zero-scores",
         "negative-seeds", "no-seeds"],
)
def test_random_start_matches_init_profile(spec, seeds):
    rows = start_rows(spec, list(seeds))
    assert rows.shape == (len(seeds), len(spec.directed_edges))
    for row, s in zip(rows.tolist(), seeds):
        assert row == list(init_profile(spec, RandomFeasible(s)).key(spec)), s


def test_a_start_near_2_53_spends_each_budget(monkeypatch):
    doc = gen_torus_grid(3, 3, beta=2.0**53 - 1, eta=1.0, weight_seed=7, utility=SQRT)
    spec = doc.to_game_spec()
    budget = spec.rows[3].budget
    # seed 7: player 3's floored shares round up to one quantum over budget
    rng = random.Random(7)
    draws = [rng.random() for _ in range(16)][12:]  # players 0-2 draw first
    floors = [math.floor(budget * x / left_sum(draws)) for x in draws]
    assert sum(floors) == budget + 1
    for s in range(40):
        start = init_profile(spec, RandomFeasible(s))
        check_feasible(spec, start)
        key = start.key(spec)
        for row, off in zip(spec.rows, spec.off):
            assert sum(key[off : off + 4]) == row.budget
    for behavior in ("optimistic", "pessimistic"):
        config = ExperimentConfig(runs=40, seed=0, behavior=behavior,
                                  dynamics=DynamicsConfig(max_rounds=20))
        report = run_batch_experiment(doc, config)
        runs, _ = scalar_report_runs(doc, config, monkeypatch)
        assert_same_runs(report.runs, runs)


@pytest.mark.parametrize(
    "beta, tol", [(1000.0, DynamicsConfig().tol), (50.0, 0.01)], ids=["criterion-8", "solved"]
)
@pytest.mark.parametrize("behavior", ["optimistic", "pessimistic"])
def test_block_start_matches_seq_state(behavior, beta, tol, monkeypatch):
    # with tol = 0.01 the exchange test leaves statuses open, and some of
    # them the response's gain makes True; the batch settles them with
    # _respond, _SeqState with best_response
    doc = gen_torus_grid(10, 10, beta=beta, eta=1.0, weight_seed=7, utility=SQRT)
    spec = doc.to_game_spec(behavior_override=behavior)
    seeds = list(range(1000, 1020))
    solved = []
    real = lockstep._respond
    monkeypatch.setattr(lockstep, "_respond", lambda *a: solved.append(a) or real(*a))
    with np.errstate(all="ignore"):
        batch = lockstep._Runs(spec, seeds, tol)
    assert bool(solved) == (tol == 0.01)
    n, e = spec.n, len(spec.directed_edges)
    for r, s in enumerate(seeds):
        start = list(init_profile(spec, RandomFeasible(s)).key(spec))
        state = dynamics._SeqState(spec, start, tol)
        players, edges = slice(r * n, (r + 1) * n), slice(r * e, (r + 1) * e)
        assert batch.slack[players].tolist() == state.slack
        assert batch.wins[players].tolist() == state.win_count
        assert batch.status[players].tolist() == list(map(bool, state.member))
        assert list(map(repr, batch.util[players].tolist())) == [
            repr(state.utility(i)) for i in range(n)
        ]
        for m, kept in enumerate((state._util, state._up, state._down)):
            assert list(map(repr, batch.terms[m, edges].tolist())) == [
                repr(v) for row in kept for v in row
            ]


@pytest.mark.parametrize(
    "faults, expected",
    [
        ({(1, 5): 1, (2, 0): -1000}, (1, "proposes")),  # run 1 overspends first
        ({(0, 9): 1003, (0, 10): -1000}, (0, "negative")),  # a sign before a spend
    ],
    ids=["overspend", "negative"],
)
def test_an_infeasible_start_raises_as_check_feasible(faults, expected, monkeypatch):
    spec = torus(3, 50.0)
    real = lockstep._random_start

    def faulty(*args):
        start = real(*args)
        for (r, x), change in faults.items():
            start[r, x] += change
        return start

    monkeypatch.setattr(lockstep, "_random_start", faulty)
    with pytest.raises(InfeasibleProfileError) as batch:
        lockstep.run_batch(spec, DynamicsConfig(), [3, 4, 5])
    run, kind = expected
    row = faulty(*start_args(spec, [3, 4, 5]))[run]
    with pytest.raises(InfeasibleProfileError) as scalar:
        check_feasible(spec, FrequencyProfile(dict(zip(spec.directed_edges, row.tolist()))))
    assert kind in str(batch.value)
    assert (batch.value.player, str(batch.value)) == (scalar.value.player, str(scalar.value))


@pytest.mark.parametrize(
    "spec",
    [
        k5_spec(weights=(0.0, 0.25, 0.25, 0.5)),
        k5_spec(budgets=(40.0,) * 4 + (0.0,)),
        k5_spec(u01=UtilitySpec.log1p()),
        make_spec(3, 1.0, [(0, 1, 1.0, 0.5, SQRT, SQRT), (1, 2, 0.5, 1.0, SQRT, SQRT)],
                  [5.0] * 3),
        make_spec(2, 1.0, [], [5.0, 5.0]),
        k5_spec(budgets=(40.0,) * 4 + (2.0**53,)),
    ],
    ids=["zero-weight", "zero-budget", "non-sqrt-edge", "unequal-degrees",
         "isolated-players", "budget=2**53"],
)
def test_qualifies_refuses_each_failing_condition(spec):
    assert lockstep.qualifies(k5_spec())
    assert lockstep.qualifies(c8_torus().to_game_spec())
    assert not lockstep.qualifies(spec)


def test_batch_refuses_an_invalid_spec():
    spec = c8_torus().to_game_spec()
    doubled = rebuilt(spec, weights={e: 2.0 * w for e, w in spec.weights.items()})
    assert lockstep.qualifies(doubled)
    first = validate_game(doubled).violations[0]
    assert first.startswith("weights of player 0 sum to 2")
    with pytest.raises(ValueError) as err:
        lockstep.run_batch(doubled, DynamicsConfig(), [0, 1])
    assert str(err.value) == first


def test_mixed_families_take_the_scalar_path(monkeypatch):
    doc = gen_random_instance(n=12, edge_prob=0.4, seed=3, budget_units=40)
    assert not lockstep.qualifies(doc.to_game_spec())

    def refuse(*args):
        raise AssertionError("a mixed-family batch reached the lockstep engine")

    monkeypatch.setattr(experiment, "run_batch", refuse)
    config = ExperimentConfig(runs=4, seed=2)
    report = run_batch_experiment(doc, config)
    monkeypatch.undo()
    runs, _ = scalar_report_runs(doc, config, monkeypatch)
    assert_same_runs(report.runs, runs)


@pytest.mark.parametrize("side", ["below", "at"])
def test_a_batch_below_the_break_even_runs_one_by_one(side, monkeypatch):
    runs = experiment.LOCKSTEP_MIN_RUNS - (side == "below")
    doc = gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4, utility=SQRT)
    assert lockstep.qualifies(doc.to_game_spec())

    def refuse(*args):
        raise AssertionError(f"a batch of {runs} runs took the other path")

    monkeypatch.setattr(experiment, "run_batch" if side == "below" else "_single_run", refuse)
    report = run_batch_experiment(doc, ExperimentConfig(runs=runs, seed=7))
    monkeypatch.undo()
    scalar, _ = scalar_report_runs(doc, ExperimentConfig(runs=runs, seed=7), monkeypatch)
    assert_same_runs(report.runs, scalar)


def test_an_empty_batch_returns_no_runs():
    spec = torus(3, 50.0)
    runs, finals = lockstep.run_batch(spec, DynamicsConfig(), [])
    assert runs == []
    assert finals.shape == (0, len(spec.directed_edges))
    assert finals.dtype == np.int64


def test_a_violation_reads_as_in_the_scalar_engine(monkeypatch):
    # a negative margin makes the exchange test flag players that cannot
    # improve; both engines read the margin from dynamics, so both must
    # stop at the same mover with the same message
    monkeypatch.setattr(dynamics, "EXCHANGE_REL_MARGIN", -1.0)
    monkeypatch.setattr(experiment, "LOCKSTEP_MIN_RUNS", 3)  # 3 runs in lockstep
    doc = gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4, utility=SQRT)
    config = ExperimentConfig(runs=3, seed=7, behavior="pessimistic")
    with pytest.raises(InvariantViolation) as batch:
        run_batch_experiment(doc, config)
    monkeypatch.setattr(experiment, "qualifies", lambda spec: False)
    with pytest.raises(InvariantViolation) as scalar:
        run_batch_experiment(doc, config)
    assert str(batch.value) == str(scalar.value)
    assert "exchange test picked mover" in str(batch.value)


def lower_first_agreed(alloc, caps):
    """Lower, in place, the first proposal that is a positive agreed amount
    (at most its cap) by one quantum."""
    for k, (a, c) in enumerate(zip(alloc, caps)):
        if 0 < a <= c:
            alloc[k] -= 1
            return


@pytest.mark.parametrize("behavior", ["optimistic", "pessimistic"])
def test_a_slack_rise_reads_as_in_the_scalar_engine(behavior, monkeypatch):
    # a response that gives one agreed quantum away but reports the true
    # utility passes the mover's gain check and raises total slack; both
    # engines must stop run 0 at the same round with the same message
    spec = gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4, utility=SQRT)
    spec = spec.to_game_spec(behavior_override=behavior)
    scalar_response, batch_response = dynamics.best_response, lockstep._respond

    def scalar_lossy(spec, profile, i, caps, standing):
        br = scalar_response(spec, profile, i, caps, standing)
        lower_first_agreed(br.proposals, caps)
        return br

    def batch_lossy(w, caps, budget, optimistic, eta):
        alloc, terms, realized = batch_response(w, caps, budget, optimistic, eta)
        for row, cap in zip(alloc, caps):
            lower_first_agreed(row, cap)
        return alloc, terms, realized

    monkeypatch.setattr(dynamics, "best_response", scalar_lossy)
    monkeypatch.setattr(lockstep, "_respond", batch_lossy)
    with pytest.raises(InvariantViolation) as batch:
        lockstep.run_batch(spec, DynamicsConfig(), [7, 8, 9])
    with pytest.raises(InvariantViolation) as scalar:
        config = DynamicsConfig(order=RandomSeeded(7))
        run_sequential(spec, init_profile(spec, RandomFeasible(7)), config, "light")
    assert str(batch.value) == str(scalar.value)
    assert str(batch.value).startswith("total slack increased at round ")


def overspend_by_one(alloc, budget):
    """Raise, in place, the first proposal so that the row proposes one
    quantum more than the budget."""
    alloc[0] += budget - sum(alloc) + 1


@pytest.mark.parametrize("behavior", ["optimistic", "pessimistic"])
def test_an_overspent_row_reads_as_in_the_scalar_engine(behavior, monkeypatch):
    # a response one quantum over the mover's budget is refused when it is
    # installed, before any law sees it; both engines stop run 0 at its
    # first move with the same message
    spec = gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4, utility=SQRT)
    spec = spec.to_game_spec(behavior_override=behavior)
    scalar_response, batch_response = dynamics.best_response, lockstep._respond

    def scalar_over(spec, profile, i, caps, standing):
        br = scalar_response(spec, profile, i, caps, standing)
        overspend_by_one(br.proposals, spec.rows[i].budget)
        return br

    def batch_over(w, caps, budget, optimistic, eta):
        alloc, terms, realized = batch_response(w, caps, budget, optimistic, eta)
        for row, b in zip(alloc, budget):
            overspend_by_one(row, b)
        return alloc, terms, realized

    monkeypatch.setattr(dynamics, "best_response", scalar_over)
    monkeypatch.setattr(lockstep, "_respond", batch_over)
    with pytest.raises(InvariantViolation) as batch:
        lockstep.run_batch(spec, DynamicsConfig(), [7, 8, 9])
    with pytest.raises(InvariantViolation) as scalar:
        config = DynamicsConfig(order=RandomSeeded(7))
        run_sequential(spec, init_profile(spec, RandomFeasible(7)), config, "light")
    assert str(batch.value) == str(scalar.value)
    assert str(batch.value).startswith("response of player ")
    assert str(batch.value).endswith(" proposes 51 quanta, over its budget of 50")


def raise_first_matched(alloc, caps):
    """Raise, in place, the first proposal equal to its cap by one quantum,
    above the budget: no agreed amount or slack changes, and that neighbor
    starts to win."""
    for k, (a, c) in enumerate(zip(alloc, caps)):
        if a == c:
            alloc[k] += 1
            return


@pytest.mark.parametrize("behavior, seed, at", [("optimistic", 22, 13), ("pessimistic", 11, 7)])
def test_a_stable_set_loss_reads_as_in_the_scalar_engine(behavior, seed, at, monkeypatch):
    # run 0's response at round `at` bids one quantum over its budget to a
    # matched neighbor, which leaves the stable set in a round that keeps
    # total slack, on the final slack-stable suffix; both engines must
    # report it with the same text.  A quantum taken from an over-proposed
    # edge cannot do this: a response over-proposes only with budget left
    # after matching every cap, so its own round lowers total slack
    spec = gen_torus_grid(3, 3, beta=50.0, eta=1.0, weight_seed=4, utility=SQRT)
    spec = spec.to_game_spec(behavior_override=behavior)
    apply_move, below, batch_response = dynamics._SeqState.apply_move, lockstep._below, lockstep._respond
    moves, steps, injected = [], [], []

    def scalar_over(state, mover, br):
        moves.append(mover)
        if len(moves) == at:
            lo, hi = state.off[mover], state.off[mover + 1]
            raise_first_matched(br.proposals, [state.f[x] for x in state.rev[lo:hi]])
        return apply_move(state, mover, br)

    def counted_below(bits, counts):
        steps.append(counts)
        return below(bits, counts)

    def batch_over(w, caps, budget, optimistic, eta):
        alloc, terms, realized = batch_response(w, caps, budget, optimistic, eta)
        if len(steps) == at and not injected:  # the step's movers, run 0 first
            injected.append(len(steps[-1]))
            raise_first_matched(alloc[0], caps[0])
        return alloc, terms, realized

    monkeypatch.setattr(dynamics._SeqState, "apply_move", scalar_over)
    monkeypatch.setattr(lockstep, "_below", counted_below)
    monkeypatch.setattr(lockstep, "_respond", batch_over)
    # both engines refuse a row over its budget; only such a row can shrink
    # the stable set on a slack-stable suffix (a row within budget that keeps
    # every agreed amount has no quantum to raise a matched edge with), so the
    # budget check lets this one quantum through
    monkeypatch.setattr(dynamics, "overspends", lambda spent, budget: spent > budget + 1)
    with pytest.raises(InvariantViolation) as batch:
        lockstep.run_batch(spec, DynamicsConfig(), [seed, seed + 1, seed + 2])
    assert injected == [3]  # every run was still live
    with pytest.raises(InvariantViolation) as scalar:
        config = DynamicsConfig(order=RandomSeeded(seed))
        run_sequential(spec, init_profile(spec, RandomFeasible(seed)), config, "light")
    assert str(batch.value) == str(scalar.value)
    assert str(batch.value).startswith("stable set shrank on the slack-stable suffix at round ")


# -- differential oracle: the batch against run_sequential over the domain
# that qualifies() admits


def random_regular_edges(rng, n, d):
    """A random simple d-regular graph on n players (d < n, n * d even): a
    circulant graph rewired by random double-edge swaps."""
    offsets = list(range(1, d // 2 + 1)) + [n // 2] * (d % 2)
    edges = sorted({tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets})
    present = set(edges)
    for _ in range(10 * len(edges) * (len(edges) > 1)):
        x, y = rng.sample(range(len(edges)), 2)
        (a, b), (c, e) = edges[x], edges[y]
        if rng.random() < 0.5:
            c, e = e, c
        new = (tuple(sorted((a, c))), tuple(sorted((b, e))))
        if a != c and b != e and not present & set(new):
            present -= {edges[x], edges[y]}
            present |= set(new)
            edges[x], edges[y] = new
    return sorted(edges)


def row_weights(rng, d):
    """d positive weights normalised to sum 1, with ties or spreads up to
    10**+-8."""
    kind = rng.randrange(3)
    if kind == 0:  # all equal
        draws = [1.0] * d
    elif kind == 1:  # a few values, so some tie
        values = [10 ** rng.uniform(-8, 8) for _ in range(2)]
        draws = [rng.choice(values) for _ in range(d)]
    else:
        draws = [10 ** rng.uniform(-8, 8) for _ in range(d)]
    total = left_sum(draws)
    return [x / total for x in draws]


def row_budget(rng, d):
    """A budget in quanta: 1, below the degree, small, or up to 2**53 - 1."""
    kind = rng.randrange(5)
    if kind == 0:
        return 1
    if kind == 1:
        return rng.randint(1, max(1, d - 1))
    if kind == 2:
        return rng.randint(1, 1000)
    if kind == 3:
        return 2**53 - 1
    return rng.randint(1, 2**53 - 1)


def draw_oracle_case(seed):
    """A spec that passes validate_game and qualifies, and a config: a random
    d-regular graph (d from 1 to 6, up to 30 players), eta from 0.01 to 3,
    behaviours and budgets per player, tol 0 or positive, few or many
    rounds."""
    rng = random.Random(seed)
    d = rng.randint(1, 6)
    n = rng.randint(d + 1, 30)
    n += n * d % 2
    edges = random_regular_edges(rng, n, d)
    eta = rng.choice([0.01, 0.1, 0.25, 1.0, 3.0, 10 ** rng.uniform(-2, math.log10(3))])
    nbrs = {i: sorted({j for e in edges if i in e for j in e} - {i}) for i in range(n)}
    w = {}
    for i in range(n):
        w.update(zip([(i, j) for j in nbrs[i]], row_weights(rng, d)))
    budgets = []
    for i in range(n):
        units = row_budget(rng, d)
        while not units * eta / eta < 2**53:  # rounding must not reach 2**53
            units -= 1
        budgets.append(units * eta)
    behaviors = {i: rng.choice((OPT, PESS)) for i in range(n)}
    edge_data = [(i, j, w[(i, j)], w[(j, i)], SQRT, SQRT) for (i, j) in edges]
    spec = make_spec(n, eta, edge_data, budgets, behaviors)
    config = DynamicsConfig(max_rounds=rng.choice([50, 3000]),
                            tol=rng.choice([0.0, 1e-9, 1e-6, 1e-3]))
    return spec, config


def assert_batch_equals_scalar(spec, config, seeds):
    """run_batch against run_sequential run by run: converged flag, rounds,
    repr of the final welfare and the final rows, or the same error (the
    batch raises its first failing run's)."""
    try:
        results, finals = lockstep.run_batch(spec, config, seeds)
        batch_error = None
    except (dynamics.InvariantViolation, ValueError) as exc:
        batch_error = exc
    scalar, scalar_error = [], None
    for s in seeds:
        cfg = dynamics.DynamicsConfig(RandomSeeded(s), config.max_rounds, config.tol)
        try:
            final, _, status = run_sequential(
                spec, init_profile(spec, RandomFeasible(s)), cfg, trace_detail="light"
            )
        except (dynamics.InvariantViolation, ValueError) as exc:
            scalar_error = exc
            break
        converged = isinstance(status, dynamics.Converged)
        rounds = status.t if converged else config.max_rounds
        welfare = repr(social_welfare(spec, final))
        scalar.append((converged, rounds, welfare, list(final.key(spec))))
    if batch_error or scalar_error:
        assert type(batch_error) is type(scalar_error)
        assert str(batch_error) == str(scalar_error)
        return
    batch = [(c, t, repr(sw), row.tolist()) for (c, t, sw), row in zip(results, finals)]
    assert batch == scalar


# a fixed subset; a change to lockstep.py runs the same check on seeds 0-749
ORACLE_SEEDS = range(48)


def test_batch_equals_the_scalar_engine_on_qualifying_specs():
    degrees = set()
    for seed in ORACLE_SEEDS:
        spec, config = draw_oracle_case(seed)
        assert validate_game(spec).ok and lockstep.qualifies(spec), seed
        degrees.add(len(spec.rows[0].neighbors))
        assert_batch_equals_scalar(spec, config, list(range(seed * 100, seed * 100 + 12)))
    assert degrees == set(range(1, 7))
