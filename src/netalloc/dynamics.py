"""Best-response dynamics: sequential and simultaneous play.

Sequential play updates one non-best-responding player per round and, on
the integer profiles it accepts, provably terminates at a Nash equilibrium;
the engine checks the two monotonicity facts that drive that argument at
runtime (total slack never increases, and once total slack has stabilized the
set of players with an empty win set only grows).  Simultaneous play updates everyone at
once against the previous round and need not converge, so the engine detects
exact profile revisits (integer state makes equality exact) and reports the
cycle's start and period.

A player's status in a sequential run is a boolean: can it still improve by
more than ``tol``?  A one-pass exchange test on the player's best
single-quantum move (``_SeqState.settled_status``) settles it both ways,
with margins that keep statuses, random picks and results bit-identical to
solving every status in full; only a status it cannot settle is solved.
Every mover is solved when it is picked, and must then improve on its
utility by more than ``tol``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

from .bestresponse import (
    BRResult,
    best_move,
    best_response,
    edge_terms,
    is_best_response,
)
from .game import (
    MAX_BUDGET_UNITS,
    DirectedEdge,
    FrequencyProfile,
    GameSpec,
    PlayerId,
    check_feasible,
    flat_outcome_summary,
    left_sum,
    outcome_summary,
)

# The random start scores a leftover quantum a hair inside the next one, so
# families with an unbounded slope at zero still compare by their weights.
MARGINAL_SHIFT = 1e-9

# Margins of the exchange test (``_SeqState.settled_status``), relative to an
# upper bound on the player's best utility and per budget quantum: the first
# three for "can improve", the ulp for "cannot".
EXCHANGE_REL_MARGIN = 1e-9
EXCHANGE_QUANTUM_MARGIN = 1e-12
EXCHANGE_REL_QUANTUM_MARGIN = 1e-15
EXCHANGE_ULP = 2.0**-52


def exchange_margin(z, budget):
    """The exchange test's "can improve" margin (``_SeqState.settled_status``)
    at utility bound z and budget in quanta, for numbers or numpy arrays; the
    constants are read at each call."""
    return EXCHANGE_REL_MARGIN * z + budget * (
        EXCHANGE_QUANTUM_MARGIN + EXCHANGE_REL_QUANTUM_MARGIN * z
    )


def exchange_ulps(z, budget, deg):
    """The exchange test's "cannot improve" ulp term at utility bound z,
    budget in quanta and degree, for numbers or numpy arrays; only needed
    once the "can improve" test fails."""
    return (16 * budget + 4 * (deg + 2)) * EXCHANGE_ULP * z


def overspends(spent, budget):
    """Whether a row that proposes ``spent`` quanta in all is over its
    budget in quanta (numbers or numpy arrays): both engines check every
    row they install."""
    return spent > budget


class InvariantViolation(AssertionError):
    """A runtime-checked dynamics law failed (indicates a solver bug)."""


def weak_move_message(mover, t, gain) -> str:
    return (
        f"exchange test picked mover {mover} at round {t}, "
        f"but its best response gains only {gain!r}"
    )


def slack_rise_message(t, before, after, mover) -> str:
    return f"total slack increased at round {t}: {before} -> {after} (mover {mover})"


def over_budget_message(mover, spent, budget) -> str:
    return f"response of player {mover} proposes {spent} quanta, over its budget of {budget}"


def stable_loss_message(t, lost) -> str:
    return (
        f"stable set shrank on the slack-stable suffix at round {t}: "
        f"lost players {list(lost)}"
    )


# -- order policies ---------------------------------------------------------


@dataclass(frozen=True)
class RoundRobin:
    """Cycle player ids 0, 1, ..., n-1, skipping the ones already
    best-responding."""


@dataclass(frozen=True)
class RandomSeeded:
    """Pick uniformly among the non-best-responders, seeded."""

    seed: int


OrderPolicy = RoundRobin | RandomSeeded


# -- initial profile policies ------------------------------------------------


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class RandomFeasible:
    seed: int


@dataclass(frozen=True)
class Given:
    profile: FrequencyProfile


InitPolicy = Zero | RandomFeasible | Given


@dataclass(frozen=True)
class DynamicsConfig:
    """Settings shared by both runners (the runner called fixes the mode)."""

    order: OrderPolicy = RoundRobin()
    max_rounds: int = 1_000_000
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


# -- termination statuses ----------------------------------------------------


@dataclass(frozen=True)
class Converged:
    t: int


@dataclass(frozen=True)
class CycleDetected:
    start: int
    period: int


@dataclass(frozen=True)
class MaxRoundsExceeded:
    rounds: int


TerminationStatus = Converged | CycleDetected | MaxRoundsExceeded


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """What round t did (t=0 is the initial profile).

    ``changes`` holds the proposals the round set, keyed by the spec's own
    tuples: the mover's new row in a sequential round, the new profile's
    counts in a simultaneous one; it is None in record 0 and in light traces.
    :meth:`Trace.profiles` replays the profiles from it.

    The stable players are those with an empty win set; on a slack-stable
    suffix of a sequential run this set only grows.  Each record holds the
    players that joined and left it in round t (sorted; record 0 lists the
    initial set as joined), and :meth:`Trace.stable_sets` rebuilds the sets.
    """

    t: int
    mover: PlayerId | str | None
    changes: dict[DirectedEdge, float] | None
    total_slack: float
    stable_joined: tuple[int, ...]
    stable_left: tuple[int, ...]


@dataclass
class Trace:
    """The round records of one run, with its game and initial profile
    (None in a light trace, whose records hold no changes)."""

    spec: GameSpec
    init: FrequencyProfile | None
    records: list[RoundRecord] = field(default_factory=list)

    def profiles(self) -> Iterator[FrequencyProfile]:
        """The profile after each record's round, in record order, replayed
        from the initial profile (raises ValueError on a light trace)."""
        if self.init is None:
            raise ValueError("a light trace records no moves to replay")
        counts = dict(self.init.counts)
        for rec in self.records:
            if rec.changes is not None:
                counts.update(rec.changes)
            yield FrequencyProfile(counts)

    def stable_sets(self) -> Iterator[frozenset[int]]:
        """The stable set after each record's round, in record order (the
        same object while it does not change)."""
        current: set[int] = set()
        view: frozenset[int] = frozenset()
        for rec in self.records:
            if rec.stable_joined or rec.stable_left:
                current.difference_update(rec.stable_left)
                current.update(rec.stable_joined)
                view = frozenset(current)
            yield view


# -- equilibrium classification ----------------------------------------------


@dataclass(frozen=True)
class NotEquilibrium:
    witness: PlayerId
    improvement: float


@dataclass(frozen=True)
class PessimisticNE:
    pass


@dataclass(frozen=True)
class OptimisticNE:
    pass


EquilibriumClass = NotEquilibrium | PessimisticNE | OptimisticNE


def classify_equilibrium(
    spec: GameSpec, profile: FrequencyProfile, tol: float = 1e-9
) -> EquilibriumClass:
    """Nash check for every player, then matched/over-matched split.

    A pessimistic equilibrium has proposals matched exactly on every edge;
    any equilibrium with a strictly over-matched proposal is optimistic.
    """
    for i in range(spec.n):
        ok, improvement = is_best_response(spec, profile, i, tol)
        if not ok:
            return NotEquilibrium(witness=i, improvement=improvement)
    for (i, j) in spec.edges:
        if profile.counts[(i, j)] != profile.counts[(j, i)]:
            return OptimisticNE()
    return PessimisticNE()


# -- initial profiles ---------------------------------------------------------


def init_profile(spec: GameSpec, policy: InitPolicy) -> FrequencyProfile:
    """Build a feasible starting profile (deterministic per policy/seed).

    ``RandomFeasible`` splits each player's whole budget over the player's
    neighbors in proportion to uniform draws, floors the shares to quanta,
    takes one back from the first largest share per quantum they overspend,
    and gives each leftover quantum to the first neighbor with the highest
    positive weighted marginal w u'((a + MARGINAL_SHIFT) eta) at its count
    a; ``lockstep._random_start`` is its batch copy (``test_lockstep.py``).
    Raises ValueError on a budget not a finite count below 2**53 quanta."""
    for i, beta in spec.budgets.items():
        if not beta / spec.eta < MAX_BUDGET_UNITS:  # also inf and nan
            raise ValueError(
                f"budget of player {i} ({beta}) is not a finite count "
                f"below 2**53 quanta"
            )
    if isinstance(policy, Zero):
        return FrequencyProfile.zeros(spec)
    if isinstance(policy, Given):
        check_feasible(spec, policy.profile)
        return FrequencyProfile(policy.profile.counts)
    if not isinstance(policy, RandomFeasible):
        raise TypeError(f"unknown init policy {policy!r}")

    rng = random.Random(policy.seed)
    counts: dict[tuple[int, int], int] = {}
    edges, off = spec.directed_edges, spec.index.off
    for i, row in enumerate(spec.index.rows):
        nbrs, budget = row.neighbors, row.budget
        if not nbrs:
            continue
        alloc = [0] * len(nbrs)
        if budget > 0:
            draws = [rng.random() for _ in nbrs]
            total = left_sum(draws)
            alloc = [int(math.floor(budget * d / total)) for d in draws]
            spare = budget - sum(alloc)
            for _ in range(-spare):  # near 2**53 the shares can round up
                alloc[alloc.index(max(alloc))] -= 1
            _place_leftover(alloc, spare, row.weights, row.utils, spec.eta)
        counts.update(zip(edges[off[i] : off[i + 1]], alloc))
    return FrequencyProfile(counts)


def _place_leftover(alloc, spare, weights, utils, eta) -> None:
    """Give each of ``spare`` quanta to the first neighbor with the highest
    positive score w u'((a + MARGINAL_SHIFT) eta) at its current count a,
    in place; stop early when no score is positive.  The scores are kept
    (0.0 for a zero weight) and only the receiver is rescored, so a quantum
    is one scan for the first maximum, as ``lockstep._random_start`` takes."""
    if spare <= 0:
        return
    scores = [
        w * u.marginal((a + MARGINAL_SHIFT) * eta) if w > 0.0 else 0.0
        for w, u, a in zip(weights, utils, alloc)
    ]
    for _ in range(spare):
        if not (top := max(scores)) > 0.0:
            return
        k = scores.index(top)
        alloc[k] += 1
        scores[k] = weights[k] * utils[k].marginal((alloc[k] + MARGINAL_SHIFT) * eta)


# -- sequential dynamics -------------------------------------------------------


class _SeqState:
    """Incrementally maintained quantities for the sequential loop.

    ``f`` is the profile as one flat list of int proposals by edge id (see
    :attr:`~netalloc.game.GameSpec.index`): for x = ``off[i] + k``, ``f[x]``
    is i's proposal to its k-th neighbor j and ``f[rev[x]]`` is j's to i.
    Starts from :func:`~netalloc.game.flat_outcome_summary`.  Only the
    mover's row changes per round, so per-player slack, win-set sizes and
    statuses are then patched for the mover and the neighbors whose
    incoming proposal actually changed, and the total slack is kept as a
    running integer.  The stable set (empty win set) is kept only as zero
    win counts; :meth:`apply_move` returns who joined or left it.

    Per-edge terms are kept at the positions of the spec's player rows.  A
    move installs the lists of the mover's response (``BRResult.terms``,
    its terms at the new agreed amounts) as the mover's own, so each
    changed edge's terms are recomputed on the neighbor's side only, and
    :meth:`respond` hands a player's row and terms back to its next solve.
    A status is a boolean (:meth:`_can_improve`); ``movers`` is the sorted
    list of the players whose status is True, and ``member`` marks them one
    byte per player.  Adding or removing a mover is a bisect and a list
    insert or delete: O(log n) compares and a move of up to n pointers, a
    small part of a round on tori up to 400x400.  No response is kept: the
    run solves each mover when it picks it, and a status only when
    :meth:`settled_status` cannot settle it.  A move refreshes a neighbor's
    status only when it changed that neighbor's terms, slack or win count,
    or when the last status was solved (``solved``; the mover's own counts
    as solved), since only a solve reads the caps.
    """

    def __init__(self, spec: GameSpec, f: list[int], tol: float):
        self.spec = spec
        self.tol = tol
        self.f = f
        self.rows, self.off, self.rev = spec.index
        summary = flat_outcome_summary(spec, f)
        self.slack = [summary.slack[i] for i in range(spec.n)]
        self.total_slack = summary.total_slack
        self.win_count = [len(summary.win[i]) for i in range(spec.n)]
        # per-edge terms of player i at position k: its utility (summed by
        # utility), and the gain and the loss of one quantum (see edge_terms)
        self._util, self._up, self._down = (
            [[0.0] * len(row.neighbors) for row in self.rows] for _ in range(3)
        )
        for i, row in enumerate(self.rows):
            for k in range(len(row.neighbors)):
                self._set_terms(i, k)
        # the players that can still improve, and whose status was solved
        self.solved = bytearray(spec.n)
        self.member = bytearray(map(self._can_improve, range(spec.n)))
        self.movers = [i for i, m in enumerate(self.member) if m]

    def respond(self, i: int) -> BRResult:
        """i's best response to the proposals made to it, solved from i's
        standing row and terms (``best_response``'s ``standing``)."""
        f, lo, hi = self.f, self.off[i], self.off[i + 1]
        caps = [f[r] for r in self.rev[lo:hi]]
        standing = (f[lo:hi], self._util[i], self._up[i], self._down[i])
        return best_response(self.spec, None, i, caps, standing)

    def _can_improve(self, i: int) -> bool:
        """i's status: can its best response gain more than ``tol``?  Solved
        only when neither the win count nor the exchange test settles it."""
        status = False  # matching everyone: no unilateral gain exists
        if self.win_count[i]:
            status = self.settled_status(i)
        self.solved[i] = status is None
        if status is not None:
            return status
        return self.respond(i).realized_utility - self.utility(i) > self.tol

    def utility(self, i: int) -> float:
        """i's current utility: the terms ``game.player_utility`` adds,
        summed in the same (neighbor) order."""
        return left_sum(self._util[i])

    def _set_terms(self, i: int, k: int) -> None:
        """Recompute i's :func:`~netalloc.bestresponse.edge_terms` on the
        edge to its k-th neighbor j: the agreed amount is a = min(f_ij,
        f_ji), with room up to f_ji."""
        row = self.rows[i]
        x = self.off[i] + k
        own, cap = self.f[x], self.f[self.rev[x]]
        a = own if own < cap else cap
        self._util[i][k], self._up[i][k], self._down[i][k] = edge_terms(
            row.weights[k], row.kernels[k], a, cap, self.spec.eta
        )

    def settled_status(self, i: int) -> bool | None:
        """Exchange test: i's status if its exchange terms settle it, else
        None (the caller then solves the response).

        It takes the gain g of i's :func:`~netalloc.bestresponse.best_move`
        from its realized allocation a_k = min(f_ik, f_ki), an add allowed
        when i has a spare quantum (slack >= 1), in O(deg) from the terms
        :meth:`apply_move` keeps.  B is i's budget in quanta and Z = U(a) +
        B * max(0, best add gain) bounds i's best utility (by concavity, no
        quantum added gains more than the best add).

        True when g > tol + 1e-9 * Z + B * (1e-12 + 1e-15 * Z).  That move
        is a feasible grid response, so the best response gains at least g.
        The margin covers, for degrees and budgets below a million, the
        float sums of ``BRResult.realized_utility`` and of i's utility
        (each within (deg + 2) ulps of Z), the rounding in g, and the
        solver's polish, which stops once no move gains more than 1e-13 and
        so is within B * (1e-13 + a few ulps of Z) of the grid optimum.

        False when B * max(g, 0) + (16 B + 4 (deg + 2)) * 2**-52 * Z < tol.
        The objective is separable and concave with one budget, so no grid
        allocation beats a by more than B * max(g*, 0), g* the exact gain:
        pair each quantum it adds to a neighbor with one it takes from
        another, or with a spare one when g is an add; each pair gains at
        most g*, and there are at most B pairs.  The solver's response is
        such an allocation (an early stop only lowers its gain).  Each term
        w u(a eta) is at most about Z and within about 3 ulps of its exact
        value (sqrt and the products round once, log1p and pow within an
        ulp), so g is within 14 ulps of Z of g* (four terms, three
        subtractions), and the solver's utility and i's are each within
        (deg + 2) ulps of Z.  The margin covers that, and the rounding of
        the left side, so the solver's gain would be at most tol.  The
        comparison is strict, so with tol = 0 the answer is never False.
        """
        up = self._up[i]
        gain, _, _ = best_move(up, self._down[i], self.slack[i] >= 1)
        budget = self.rows[i].budget
        z = self.utility(i) + budget * max(max(up), 0.0)
        if gain > self.tol + exchange_margin(z, budget):
            return True
        if budget * max(gain, 0.0) + exchange_ulps(z, budget, len(up)) < self.tol:
            return False
        return None

    def apply_move(
        self, mover: int, br: BRResult
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Install the mover's grid response: patch the proposals, slack,
        win counts and the neighbors' terms on the edges it changed, take
        the mover's own terms from ``br.terms`` (its terms at the new agreed
        amounts, see :class:`~netalloc.bestresponse.BRResult`; a player that
        can improve has neighbors and budget, so its response has them), and
        refresh the statuses of those neighbors (see the class docstring).

        Returns the players that joined and left the stable set, sorted.  A
        neighbor shares one edge with the mover, so its win count moves by
        at most one; the mover could improve, so its win count was positive
        and it can only join.  A row over the mover's budget raises
        :class:`InvariantViolation`."""
        spent, budget = sum(br.proposals), self.rows[mover].budget
        if overspends(spent, budget):
            raise InvariantViolation(over_budget_message(mover, spent, budget))
        f, rev, off, solved = self.f, self.rev, self.off, self.solved
        wins = self.win_count
        base = off[mover]
        nbrs = self.rows[mover].neighbors
        changed, joined, left = [], [], []
        # in row order, so x is the id of the edge to neighbor x - base
        for x, new in enumerate(br.proposals, base):
            old = f[x]
            if new == old:
                continue
            f[x] = new
            j = nbrs[x - base]
            cji = f[rev[x]]
            old_a = old if old < cji else cji
            new_a = new if new < cji else cji
            # the edge's exchange terms change with its agreed amount or
            # with which side binds
            retally = new_a != old_a
            if retally:
                d = new_a - old_a
                self.slack[mover] -= d
                self.slack[j] -= d
                self.total_slack -= 2 * d
            if (old < cji) != (new < cji):
                wins[mover] += 1 if new < cji else -1
                retally = True
            if (cji < old) != (cji < new):
                if cji < new:
                    wins[j] += 1
                    if wins[j] == 1:
                        left.append(j)
                else:
                    wins[j] -= 1
                    if not wins[j]:
                        joined.append(j)
                retally = True
            if retally:
                self._set_terms(j, rev[x] - off[j])
            if retally or solved[j]:
                changed.append(j)
        if not wins[mover]:
            joined.append(mover)
        self._util[mover], self._up[mover], self._down[mover] = br.terms
        solved[mover] = 1
        movers, member = self.movers, self.member
        if member[mover]:
            member[mover] = 0
            del movers[bisect_left(movers, mover)]
        for j in changed:
            if self._can_improve(j):
                if not member[j]:
                    member[j] = 1
                    insort(movers, j)
            elif member[j]:
                member[j] = 0
                del movers[bisect_left(movers, j)]
        joined.sort()
        left.sort()
        return tuple(joined), tuple(left)


def run_sequential(
    spec: GameSpec,
    init: FrequencyProfile,
    config: DynamicsConfig,
    trace_detail: str = "full",
) -> tuple[FrequencyProfile, Trace, TerminationStatus]:
    """One-player-per-round best-response dynamics.

    The order policy picks the next mover among players that can still
    improve by more than ``config.tol``; the run converges when no such
    player remains.  The profile must hold integer counts (ValueError
    otherwise).  ``trace_detail`` "light" records no moves, keeping
    slack/stable-set data for invariants.
    """
    if trace_detail not in ("full", "light"):
        raise ValueError(f"unknown trace detail {trace_detail!r}")
    flat, integral = check_feasible(spec, init)
    if not integral:
        raise ValueError("sequential dynamics need a profile of integer counts")

    order = config.order
    rng = random.Random(order.seed) if isinstance(order, RandomSeeded) else None
    full = trace_detail == "full"
    state = _SeqState(spec, flat, config.tol)
    movers = state.movers
    edges, off = spec.directed_edges, state.off
    trace = Trace(spec, init if full else None)
    records = trace.records

    slack = state.total_slack
    initial_stable = tuple(i for i, wc in enumerate(state.win_count) if wc == 0)
    records.append(RoundRecord(0, None, None, slack, initial_stable, ()))

    # the first stable-set loss since total slack last changed; once the run
    # converges, the set must only have grown on that slack-stable suffix
    first_loss: tuple[int, tuple[int, ...]] | None = None
    pos = 0  # the player to look at first (round robin)
    t = 0
    while movers and t < config.max_rounds:
        t += 1
        if rng is not None:
            mover = rng.choice(movers)
        else:
            k = bisect_left(movers, pos)
            mover = movers[k] if k < len(movers) else movers[0]
            pos = mover + 1
        br = state.respond(mover)
        gain = br.realized_utility - state.utility(mover)
        if not gain > config.tol:
            raise InvariantViolation(weak_move_message(mover, t, gain))
        prev_slack = slack
        joined, left = state.apply_move(mover, br)
        slack = state.total_slack
        if slack > prev_slack:
            raise InvariantViolation(slack_rise_message(t, prev_slack, slack, mover))
        if slack != prev_slack:
            first_loss = None
        elif left and first_loss is None:
            first_loss = (t, left)
        changes = None
        if full:  # keyed by the spec's own tuples, so a round makes none
            changes = dict(zip(edges[off[mover] : off[mover + 1]], br.proposals))
        records.append(RoundRecord(t, mover, changes, slack, joined, left))

    if movers:
        status: TerminationStatus = MaxRoundsExceeded(config.max_rounds)
    else:
        status = Converged(t)
        if first_loss is not None:
            raise InvariantViolation(stable_loss_message(*first_loss))
    counts = dict(zip(spec.directed_edges, state.f))
    if tuple(init.counts) != spec.directed_edges:  # keep the start's order
        counts = {e: counts[e] for e in init.counts}
    return FrequencyProfile(counts), trace, status


# -- simultaneous dynamics -----------------------------------------------------


def run_simultaneous(
    spec: GameSpec, init: FrequencyProfile, config: DynamicsConfig
) -> tuple[FrequencyProfile, Trace, TerminationStatus]:
    """All players best-respond at once to the previous round's profile.

    Converges only at exact fixed points of the joint update; any revisit of
    an earlier integer profile is reported as a cycle (start, period).
    It reads ``config.max_rounds`` only: everyone moves and is solved in
    full (``simulate --mode sim`` refuses ``--order``, and its ``--tol``
    only classifies the final profile).
    """
    check_feasible(spec, init)
    profile = FrequencyProfile(init.counts)
    trace = Trace(spec, profile)
    stable: frozenset[int] = frozenset()
    seen: dict[tuple, int] = {}
    for t in range(config.max_rounds + 1):
        if t:
            rows = [best_response(spec, profile, i).proposals for i in range(spec.n)]
            new_profile = FrequencyProfile(
                dict(zip(spec.directed_edges, chain.from_iterable(rows)))
            )
            if new_profile == profile:
                return profile, trace, Converged(t - 1)
            profile = new_profile
        summary = outcome_summary(spec, profile)
        joined = tuple(sorted(summary.stable - stable))
        left = tuple(sorted(stable - summary.stable))
        changes = profile.counts if t else None
        mover = "all" if t else None
        trace.records.append(
            RoundRecord(t, mover, changes, summary.total_slack, joined, left)
        )
        stable = summary.stable
        key = profile.key(spec)
        if key in seen:
            return profile, trace, CycleDetected(seen[key], t - seen[key])
        seen[key] = t
    return profile, trace, MaxRoundsExceeded(config.max_rounds)
