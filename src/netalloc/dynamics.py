"""Best-response dynamics: sequential and simultaneous play.

Sequential play updates one non-best-responding player per round and, on
quantized profiles, provably terminates at a Nash equilibrium; the engine
checks the two monotonicity facts that drive that argument at runtime (total
slack never increases, and once total slack has stabilized the set of players
with an empty win set only grows).  Simultaneous play updates everyone at
once against the previous round and need not converge, so the engine detects
exact profile revisits (integer state makes equality exact) and reports the
cycle's start and period.

Most status checks in a sequential run are about neighbors of the mover,
whose incoming proposals changed: do they still best-respond?  On integral
profiles that question is first put to a one-pass exchange test (see
``_SeqState.certainly_improves``), which can prove a player is not at a best
response without solving for the response; the response is then solved only
if that player is picked to move (and must then improve on the player's
utility by more than ``tol``).  The test answers only when the best
single-quantum move gains more than ``tol`` plus a margin (about 1e-9
relative to an upper bound on the player's utility, plus 1e-12 per budget
quantum) that covers float rounding and the solver's polish threshold;
every other case is solved as before, so statuses, random picks and results
are bit-identical to solving every status in full.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .bestresponse import (
    BRResult,
    best_response,
    is_best_response,
    quantize_allocation,
)
from .game import (
    FrequencyProfile,
    GameSpec,
    PlayerId,
    check_feasible,
    outcome_summary,
    player_utility,
    social_welfare,
)
from .utility import INF

FULL_PROFILE_ROUNDS = 10_000  # past this, traces keep only profile hashes

# Margin of the exchange test (``_SeqState.certainly_improves``): relative to
# an upper bound on the player's best utility, plus per budget quantum.
EXCHANGE_REL_MARGIN = 1e-9
EXCHANGE_QUANTUM_MARGIN = 1e-12
EXCHANGE_REL_QUANTUM_MARGIN = 1e-15


class InvariantViolation(AssertionError):
    """A runtime-checked dynamics law failed (indicates a solver bug)."""


# -- order policies ---------------------------------------------------------


@dataclass(frozen=True)
class RoundRobin:
    """Cycle player ids 0, 1, ..., n-1, skipping the ones already
    best-responding (the ``ExplicitList`` of every id in order)."""


@dataclass(frozen=True)
class RandomSeeded:
    """Pick uniformly among the non-best-responders, seeded."""

    seed: int


@dataclass(frozen=True)
class ExplicitList:
    """Cycle a fixed id sequence (must cover every player), skipping
    best-responders.  Meant for experimentation with adversarial orders."""

    order: tuple[int, ...]


OrderPolicy = RoundRobin | RandomSeeded | ExplicitList


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
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")


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


@dataclass(frozen=True)
class RoundRecord:
    """State snapshot after round t (t=0 is the initial profile).

    ``stable_players`` are those with an empty win set; on a slack-stable
    suffix of a sequential run this set only grows.  ``profile`` is omitted
    in light traces and for very long runs (the hash always identifies the
    exact integer state).
    """

    t: int
    mover: PlayerId | str | None
    profile: FrequencyProfile | None
    profile_hash: str
    total_slack: float
    welfare: float | None
    potential: float | None
    stable_players: frozenset[int]


@dataclass
class Trace:
    records: list[RoundRecord] = field(default_factory=list)


def profile_hash(spec: GameSpec, profile: FrequencyProfile) -> str:
    key = profile.key(spec)
    return hashlib.sha1(repr(key).encode()).hexdigest()[:16]


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
    """Build a feasible starting profile (deterministic per policy/seed)."""
    if isinstance(policy, Zero):
        return FrequencyProfile.zeros(spec)
    if isinstance(policy, Given):
        check_feasible(spec, policy.profile)
        return FrequencyProfile(policy.profile.counts)
    if not isinstance(policy, RandomFeasible):
        raise TypeError(f"unknown init policy {policy!r}")

    rng = random.Random(policy.seed)
    counts: dict[tuple[int, int], int] = {}
    inf = float("inf")
    for i in range(spec.n):
        nbrs = spec.neighbors[i]
        budget = spec.budget_units(i)
        if not nbrs:
            continue
        if budget <= 0:
            for j in nbrs:
                counts[(i, j)] = 0
            continue
        draws = [rng.random() for _ in nbrs]
        total = sum(draws)
        targets = [budget * d / total for d in draws]
        marginals = [
            (spec.weights[(i, j)], spec.utilities[(i, j)]) for j in nbrs
        ]
        alloc = quantize_allocation(
            targets, [inf] * len(nbrs), budget, spec.eta, marginals
        )
        for k, j in enumerate(nbrs):
            counts[(i, j)] = alloc[k]
    return FrequencyProfile(counts)


# -- sequential dynamics -------------------------------------------------------


class _SeqState:
    """Incrementally maintained quantities for the sequential loop.

    Starts from :func:`outcome_summary`.  Only the mover's row changes per
    round, so per-player slack, win-set sizes, the stable set (empty win
    set) and best-response statuses are then patched for the mover and the
    neighbors whose incoming proposal actually changed.  On integral
    profiles the total slack is kept as a running integer too.

    ``not_br`` maps every player that can still improve by more than
    ``tol`` to its best response, or to ``None`` when the exchange test
    (:meth:`certainly_improves`) settled the status without solving it.  A
    player's response depends only on its caps (the proposals made to it),
    and any change to them re-runs :meth:`_status`, so solving a ``None``
    entry when the player is picked gives the response the status check
    would have stored, bit for bit.
    """

    def __init__(self, spec: GameSpec, init: FrequencyProfile, tol: float):
        self.spec = spec
        self.tol = tol
        self.counts = dict(init.counts)
        self.view = FrequencyProfile._wrap(self.counts)
        summary = outcome_summary(spec, init)
        self.slack = [summary.slack[i] for i in range(spec.n)]
        self.integral = init.is_integral()
        self._total_slack = sum(self.slack)  # exact on integral profiles
        self.win_count = [len(summary.win[i]) for i in range(spec.n)]
        self.stable = set(summary.stable)
        self._stable_view: frozenset[int] | None = summary.stable
        if self.integral:
            # exchange-test terms of player i at the position k of neighbor
            # j (integral profiles only), see certainly_improves
            self._edge = {
                (i, j): (k, spec.weights[(i, j)], spec.utilities[(i, j)].value)
                for i in range(spec.n)
                for k, j in enumerate(spec.neighbors[i])
            }
            self._util = [[0.0] * spec.degree(i) for i in range(spec.n)]
            self._up = [[0.0] * spec.degree(i) for i in range(spec.n)]
            self._down = [[0.0] * spec.degree(i) for i in range(spec.n)]
            for (i, j) in self._edge:
                self._set_terms(i, j)
        # players that can still improve, with their best response or None
        self.not_br: dict[int, BRResult | None] = {}
        for i in range(spec.n):
            ok, br = self._status(i)
            if not ok:
                self.not_br[i] = br

    def total_slack(self) -> float:
        return self._total_slack if self.integral else sum(self.slack)

    def _status(self, i: int) -> tuple[bool, BRResult | None]:
        if self.win_count[i] == 0:
            return True, None  # matching everyone: no unilateral gain exists
        if self.integral and self.certainly_improves(i):
            return False, None
        br = best_response(self.spec, self.view, i)
        improvement = br.realized_utility - player_utility(
            self.spec, self.view, i
        )
        return improvement <= self.tol, br

    def _set_terms(self, i: int, j: int) -> None:
        """Recompute i's exchange-test terms on edge (i, j) from the agreed
        amount a = min(f_ij, f_ji): w u(a), the gain of one more quantum
        (-inf unless one fits below f_ji) and the loss of one less (inf at
        a = 0; zero-weight edges give a quantum up at no loss)."""
        f = self.counts[(i, j)]
        cap = self.counts[(j, i)]
        a = f if f < cap else cap
        k, w, value = self._edge[(i, j)]
        util, up = 0.0, -INF
        down = INF if a == 0 else 0.0
        if w != 0.0:
            eta = self.spec.eta
            if a:
                util = w * value(a * eta)
                down = util - w * value((a - 1) * eta) if a > 1 else util
            if a < cap:
                up = w * value((a + 1) * eta) - util
        self._util[i][k] = util
        self._up[i][k] = up
        self._down[i][k] = down

    def certainly_improves(self, i: int) -> bool:
        """Exchange test: True only if i's best response improves on its
        current utility by more than ``tol`` (integral profiles only).

        From i's realized allocation a_k = min(f_ik, f_ki) and spare budget
        s = budget_units(i) - sum_k a_k it takes the best single-quantum
        move: an add (s >= 1) to some k with a_k + 1 <= f_ki, or an exchange
        of one quantum from j to such a k != j with a_j >= 1.  The per-edge
        gains and losses are kept up to date by :meth:`apply_move`, so this
        is O(deg) with the top two gains and the lowest two losses.  Every
        such move is a feasible grid response, so the exact grid best
        response gains at least the move's gain g.  The answer is True when
        g > tol + margin, with

            margin = 1e-9 * Z + B * (1e-12 + 1e-15 * Z),

        B = budget_units(i) and Z = U(a) + B * max(0, best add gain), an
        upper bound on i's best utility (by concavity, no allocation gains
        more than the best single-quantum add gain per quantum added).  The margin
        covers, with room to spare for degrees and budgets below a million:

        * the float sums of ``BRResult.realized_utility`` and
          ``player_utility`` (each within about (deg + 2) ulps of Z);
        * the rounding in g (a few ulps of Z);
        * the solver's exchange polish, which stops once no single move
          gains more than 1e-13: by exchange optimality (separable concave
          objective) its allocation is then within B * (1e-13 + a few ulps
          of Z) of the grid optimum.

        When the answer is False the caller solves the response as before.
        """
        up = self._up[i]
        down = self._down[i]
        up1 = max(up)
        k = up.index(up1)
        down1 = min(down)
        if down.index(down1) != k:
            gain = up1 - down1
        else:
            gain = max(
                up1 - min(down[:k] + down[k + 1 :], default=INF),
                max(up[:k] + up[k + 1 :], default=-INF) - down1,
            )
        if self.slack[i] >= 1 and up1 > gain:
            gain = up1
        budget = self.spec.budget_units(i)
        z = sum(self._util[i]) + budget * max(up1, 0.0)
        margin = EXCHANGE_REL_MARGIN * z + budget * (
            EXCHANGE_QUANTUM_MARGIN + EXCHANGE_REL_QUANTUM_MARGIN * z
        )
        return gain > self.tol + margin

    def apply_move(self, mover: int, br: BRResult) -> None:
        counts = self.counts
        changed = []
        for j, new in br.proposals.items():
            old = counts[(mover, j)]
            if new == old:
                continue
            counts[(mover, j)] = new
            cji = counts[(j, mover)]
            old_a = old if old < cji else cji
            new_a = new if new < cji else cji
            # the edge's exchange terms change with its agreed amount or
            # with which side binds
            retally = new_a != old_a
            if retally:
                d = new_a - old_a
                self.slack[mover] -= d
                self.slack[j] -= d
                self._total_slack -= 2 * d
            if (old < cji) != (new < cji):
                self._shift_wins(mover, 1 if new < cji else -1)
                retally = True
            if (cji < old) != (cji < new):
                self._shift_wins(j, 1 if cji < new else -1)
                retally = True
            if retally and self.integral:
                self._set_terms(mover, j)
                self._set_terms(j, mover)
            changed.append(j)
        self.not_br.pop(mover, None)
        for j in changed:
            ok, brj = self._status(j)
            if ok:
                self.not_br.pop(j, None)
            else:
                self.not_br[j] = brj

    def _shift_wins(self, i: int, d: int) -> None:
        """Move i's win count by d (+1 or -1), keeping the stable set."""
        wc = self.win_count[i] + d
        self.win_count[i] = wc
        if wc == 0:
            self.stable.add(i)
            self._stable_view = None
        elif wc == 1 and d == 1:
            self.stable.discard(i)
            self._stable_view = None

    def stable_players(self) -> frozenset[int]:
        """The stable set; the same object until a win count crosses zero."""
        if self._stable_view is None:
            self._stable_view = frozenset(self.stable)
        return self._stable_view


def _check_slack_suffix(records: list[RoundRecord]) -> None:
    """Once total slack stops changing, the stable set must only grow."""
    if len(records) < 2:
        return
    t0 = 0
    for k in range(1, len(records)):
        if records[k].total_slack != records[k - 1].total_slack:
            t0 = k
    for k in range(t0, len(records) - 1):
        before, after = records[k].stable_players, records[k + 1].stable_players
        if before is not after and not before <= after:
            lost = before - after
            raise InvariantViolation(
                f"stable set shrank on the slack-stable suffix at round "
                f"{records[k + 1].t}: lost players {sorted(lost)}"
            )


def _potential_of(spec: GameSpec, ranking):
    """The weighted potential as a function of the profile, or None when no
    ranking is attached."""
    if ranking is None:
        return None
    from .analysis import potential_value

    return lambda profile: potential_value(spec, ranking, profile)


def run_sequential(
    spec: GameSpec,
    init: FrequencyProfile,
    config: DynamicsConfig,
    ranking=None,
    trace_detail: str = "full",
) -> tuple[FrequencyProfile, Trace, TerminationStatus]:
    """One-player-per-round best-response dynamics.

    The order policy picks the next mover among players that can still
    improve by more than ``config.tol``; the run converges when no such
    player remains.  ``ranking`` (a RankingSystem) attaches the weighted
    potential to each round record.  ``trace_detail`` "light" skips profile
    snapshots and welfare, keeping slack/stable-set data for invariants.
    """
    if trace_detail not in ("full", "light"):
        raise ValueError(f"unknown trace detail {trace_detail!r}")
    check_feasible(spec, init)
    integral = init.is_integral()

    potential_of = _potential_of(spec, ranking)

    state = _SeqState(spec, init, config.tol)
    trace = Trace()

    def record(t: int, mover) -> None:
        snapshot = None
        phash = ""
        if trace_detail == "full":
            snapshot = (
                FrequencyProfile(state.counts)
                if t < FULL_PROFILE_ROUNDS
                else None
            )
            phash = profile_hash(spec, state.view)
        welfare = (
            social_welfare(spec, state.view) if trace_detail == "full" else None
        )
        potential = (
            potential_of(state.view) if potential_of is not None else None
        )
        trace.records.append(
            RoundRecord(
                t=t,
                mover=mover,
                profile=snapshot,
                profile_hash=phash,
                total_slack=state.total_slack(),
                welfare=welfare,
                potential=potential,
                stable_players=state.stable_players(),
            )
        )

    record(0, None)

    order = config.order
    rng = random.Random(order.seed) if isinstance(order, RandomSeeded) else None
    if isinstance(order, ExplicitList):
        if set(order.order) != set(range(spec.n)):
            raise ValueError(
                "explicit order must cover every player and name no other id"
            )
        seq = order.order
    else:
        seq = tuple(range(spec.n))  # round robin (unused when random)
    pos = 0

    t = 0
    while state.not_br and t < config.max_rounds:
        t += 1
        if rng is not None:
            mover = rng.choice(sorted(state.not_br))
        else:
            mover = -1
            for k in range(len(seq)):
                cand = seq[(pos + k) % len(seq)]
                if cand in state.not_br:
                    mover = cand
                    pos = (pos + k + 1) % len(seq)
                    break
        br = state.not_br[mover]
        if br is None:  # its status came from the exchange test: solve now
            br = best_response(spec, state.view, mover)
            gain = br.realized_utility - player_utility(spec, state.view, mover)
            if not gain > config.tol:
                raise InvariantViolation(
                    f"exchange test picked mover {mover} at round {t}, "
                    f"but its best response gains only {gain!r}"
                )
        prev_slack = state.total_slack()
        state.apply_move(mover, br)
        now = state.total_slack()
        bound = prev_slack if integral else prev_slack + 1e-9
        if now > bound:
            raise InvariantViolation(
                f"total slack increased at round {t}: "
                f"{prev_slack} -> {now} (mover {mover})"
            )
        record(t, mover)

    if state.not_br:
        status: TerminationStatus = MaxRoundsExceeded(config.max_rounds)
    else:
        status = Converged(t)
        _check_slack_suffix(trace.records)
    return FrequencyProfile(state.counts), trace, status


# -- simultaneous dynamics -----------------------------------------------------


def run_simultaneous(
    spec: GameSpec,
    init: FrequencyProfile,
    config: DynamicsConfig,
    ranking=None,
    trace_detail: str = "full",
) -> tuple[FrequencyProfile, Trace, TerminationStatus]:
    """All players best-respond at once to the previous round's profile.

    Converges only at exact fixed points of the joint update; any revisit of
    an earlier integer profile is reported as a cycle (start, period).
    """
    check_feasible(spec, init)

    potential_of = _potential_of(spec, ranking)

    trace = Trace()

    def record(t: int, profile: FrequencyProfile) -> None:
        summary = outcome_summary(spec, profile)
        snapshot = profile if t < FULL_PROFILE_ROUNDS else None
        trace.records.append(
            RoundRecord(
                t=t,
                mover=None if t == 0 else "all",
                profile=snapshot if trace_detail == "full" else None,
                profile_hash=profile_hash(spec, profile),
                total_slack=summary.total_slack,
                welfare=(
                    social_welfare(spec, profile)
                    if trace_detail == "full"
                    else None
                ),
                potential=(
                    potential_of(profile) if potential_of is not None else None
                ),
                stable_players=summary.stable,
            )
        )

    profile = FrequencyProfile(init.counts)
    seen: dict[tuple, int] = {profile.key(spec): 0}
    record(0, profile)

    for t in range(1, config.max_rounds + 1):
        new_counts: dict[tuple[int, int], float] = {}
        for i in range(spec.n):
            br = best_response(spec, profile, i)
            for j, c in br.proposals.items():
                new_counts[(i, j)] = c
        new_profile = FrequencyProfile(new_counts)
        if new_profile == profile:
            return profile, trace, Converged(t - 1)
        key = new_profile.key(spec)
        record(t, new_profile)
        if key in seen:
            return (
                new_profile,
                trace,
                CycleDetected(start=seen[key], period=t - seen[key]),
            )
        seen[key] = t
        profile = new_profile

    return profile, trace, MaxRoundsExceeded(config.max_rounds)
