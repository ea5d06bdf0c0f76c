"""Game instances and the quantities derived from a proposal profile.

A game lives on an undirected graph.  Each player i has a resource budget
``beta_i`` and proposes an interaction level ``f[i, j]`` to every neighbor j,
subject to ``sum_j f[i, j] <= beta_i``.  A pair actually interacts at the
smaller of the two proposals ("agreed" level), each side weighting that
interaction with its own private weight ``w[i, j]`` and concave utility.

All proposals and budgets are kept as counts of a fixed quantum ``eta``:
integers for simulation state, which makes feasibility, win/lose comparisons
and cycle detection exact.  Analysis code is allowed to build profiles with
fractional counts (e.g. convex combinations); everything here accepts those
too and only the exactness guarantees weaken accordingly.

Grid rule: player i plays on the eta grid exactly when every proposal made
to i is an ``int``.  The best response of i is then an ``int`` allocation,
so a profile of ints stays one under best-response play; any ``float``
incoming proposal gets the continuous best response instead.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:  # utility imports left_sum from here
    from .utility import UtilitySpec

PlayerId = int
DirectedEdge = tuple[int, int]

WEIGHT_SUM_TOL = 1e-9
GRID_TOL = 1e-9
# budgets stay below 2**53 quanta, where floats still hold every integer count
MAX_BUDGET_UNITS = 2**53
FEASIBILITY_TOL = 1e-9


class Behavior(enum.Enum):
    """How a player disposes of budget left over after matching neighbors."""

    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


BEHAVIORS = tuple(b.value for b in Behavior)  # the names documents use


class InfeasibleProfileError(ValueError):
    """A profile violates some player's budget (or references a non-edge)."""

    def __init__(self, player: PlayerId, message: str):
        super().__init__(message)
        self.player = player


def left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, one rounding per addition:
    the bits of CPython 3.11's built-in ``sum`` on every version (3.12's
    compensates).  Float sums that reach an output or a decision use it."""
    total = 0.0
    for v in values:
        total += v
    return total


class PlayerRow(NamedTuple):
    """A player's own inputs to its best response, in neighbor order: the
    neighbors, its weights and utilities on those edges, and its budget in
    eta quanta.  Per edge it also holds the utility's value kernel
    (:meth:`~netalloc.utility.UtilitySpec.kernel`) and the zero-level
    marginal w u'(0) (0.0 where w = 0), so a solver reads them instead of
    deriving them on every call."""

    neighbors: tuple[int, ...]
    weights: tuple[float, ...]
    utils: tuple[UtilitySpec, ...]
    budget: int
    kernels: tuple
    zero_marginals: tuple[float, ...]


def _zero_marginal(w: float, u: UtilitySpec) -> float:
    """w u'(0) for w > 0, else 0.0."""
    return w * u.marginal(0.0) if w > 0.0 else 0.0


class SpecIndex(NamedTuple):
    """A spec's players by directed-edge id, the position in
    ``directed_edges``.  Player i's row position k is id ``off[i] + k``
    (``off`` has n + 1 entries), and ``rev[e]`` is the id of e reversed."""

    rows: tuple[PlayerRow, ...]
    off: list[int]
    rev: list[int]


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of one game instance.

    ``weights`` / ``utilities`` are keyed by directed edge (both directions of
    every undirected edge); ``budgets`` are in resource units and must be
    integer multiples of ``eta``.  Construction never validates -- run
    :func:`validate_game` to collect violations.  ``directed_edges`` reuses
    the ``weights`` keys, so a caller that keys both maps and ``edges`` with
    one tuple per direction keeps one per direction in the whole spec.
    """

    n: int
    eta: float
    edges: frozenset[tuple[int, int]]
    weights: Mapping[DirectedEdge, float]
    budgets: Mapping[PlayerId, float]
    utilities: Mapping[DirectedEdge, UtilitySpec]
    behaviors: Mapping[PlayerId, Behavior]
    neighbors: dict[PlayerId, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    directed_edges: tuple[DirectedEdge, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        adj: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for (i, j) in self.edges:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                continue  # flagged by validate_game, keep construction total
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(
            self, "neighbors", {i: tuple(sorted(js)) for i, js in adj.items()}
        )
        keys = {e: e for e in self.weights}
        directed = []
        for i in range(self.n):
            for j in self.neighbors[i]:
                e = (i, j)
                directed.append(keys.get(e, e))
        object.__setattr__(self, "directed_edges", tuple(directed))

    @staticmethod
    def build(
        n: int,
        eta: float,
        edges: Iterable[tuple[int, int]],
        weights: Mapping[DirectedEdge, float],
        budgets: Mapping[PlayerId, float],
        utilities: Mapping[DirectedEdge, UtilitySpec],
        behaviors: Mapping[PlayerId, Behavior],
    ) -> "GameSpec":
        norm = frozenset(e if e[0] <= e[1] else (e[1], e[0]) for e in edges)
        return GameSpec(
            n=n,
            eta=eta,
            edges=norm,
            weights=dict(weights),
            budgets=dict(budgets),
            utilities=dict(utilities),
            behaviors=dict(behaviors),
        )

    def budget_units(self, i: PlayerId) -> int:
        """Budget as an exact count of eta quanta (valid specs only)."""
        return round(self.budgets[i] / self.eta)

    def degree(self, i: PlayerId) -> int:
        return len(self.neighbors[i])

    @cached_property
    def index(self) -> SpecIndex:
        """Every player's row and the edge ids, built on first use (it needs
        every weight, utility and budget, and construction never
        validates); ``directed_edges`` lists the rows player by player."""
        nbrs = self.neighbors
        rows = []
        off = [0]
        for i in range(self.n):
            js = nbrs[i]
            weights = tuple(self.weights[(i, j)] for j in js)
            utils = tuple(self.utilities[(i, j)] for j in js)
            kernels = tuple(u.kernel() for u in utils)
            zeros = tuple(_zero_marginal(w, u) for w, u in zip(weights, utils))
            budget = self.budget_units(i)
            rows.append(PlayerRow(js, weights, utils, budget, kernels, zeros))
            off.append(off[-1] + len(js))
        rev = [off[j] + bisect_left(nbrs[j], i) for (i, j) in self.directed_edges]
        return SpecIndex(tuple(rows), off, rev)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_game(spec: GameSpec) -> ValidationReport:
    """Collect every structural violation; violations are data, not errors."""
    bad: list[str] = []
    if spec.n < 1:
        bad.append(f"player count {spec.n}: a game needs at least one player")
    eta_ok = 0.0 < spec.eta < math.inf
    if not eta_ok:
        bad.append(f"eta must be positive and finite, got {spec.eta}")

    for (i, j) in sorted(spec.edges):
        if i == j:
            bad.append(f"self-loop edge ({i},{i}) is not allowed")
        if not (0 <= i < spec.n and 0 <= j < spec.n):
            bad.append(f"edge ({i},{j}) references unknown players")

    directed = set(spec.directed_edges)
    for e in sorted(directed):
        if e not in spec.weights:
            bad.append(f"missing weight for directed edge {e}")
        if e not in spec.utilities:
            bad.append(f"missing utility for directed edge {e}")
    for e in sorted(spec.weights):
        if e not in directed:
            bad.append(f"weight given for non-edge {e}")
        elif not math.isfinite(spec.weights[e]):
            bad.append(f"weight of edge {e} is not finite ({spec.weights[e]})")
        elif spec.weights[e] < 0.0:
            bad.append(f"weight of edge {e} is negative ({spec.weights[e]})")
    for e in sorted(spec.utilities):
        if e not in directed:
            bad.append(f"utility given for non-edge {e}")

    for i in range(spec.n):
        if i not in spec.budgets:
            bad.append(f"missing budget for player {i}")
            continue
        beta = spec.budgets[i]
        if beta < 0.0:
            bad.append(f"budget of player {i} is negative ({beta})")
        elif eta_ok:
            units = beta / spec.eta
            if not units < MAX_BUDGET_UNITS:  # also inf and nan
                bad.append(
                    f"budget of player {i} ({beta}) is not a finite count "
                    f"below 2**53 quanta"
                )
            elif abs(units - round(units)) > GRID_TOL * max(1.0, abs(units)):
                bad.append(
                    f"budget of player {i} ({beta}) is not a multiple of eta"
                )
        if i not in spec.behaviors:
            bad.append(f"missing behavior for player {i}")

    for i in range(spec.n):
        if not spec.neighbors[i]:
            continue  # isolated players have no weight-sum constraint
        missing = [j for j in spec.neighbors[i] if (i, j) not in spec.weights]
        if missing:
            continue  # already reported above
        total = left_sum(spec.weights[(i, j)] for j in spec.neighbors[i])
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            bad.append(f"weights of player {i} sum to {total}")

    return ValidationReport(ok=not bad, violations=tuple(bad))


class FrequencyProfile:
    """Proposal levels per directed edge, counted in eta quanta.

    Simulation profiles hold ints; analysis may hold floats.  Instances are
    treated as immutable values -- mutate only through ``with_proposals``.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[DirectedEdge, float]):
        self.counts: dict[DirectedEdge, float] = dict(counts)

    @staticmethod
    def zeros(spec: GameSpec) -> "FrequencyProfile":
        return FrequencyProfile({e: 0 for e in spec.directed_edges})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FrequencyProfile) and self.counts == other.counts
        )

    def __repr__(self) -> str:
        return f"FrequencyProfile({self.counts!r})"

    def key(self, spec: GameSpec) -> tuple:
        """Canonical hashable snapshot (exact equality, no collisions): the
        counts in ``spec.directed_edges`` order, which most dicts keep."""
        if tuple(self.counts) == spec.directed_edges:
            return tuple(self.counts.values())
        return tuple(self.counts[e] for e in spec.directed_edges)

    def with_proposals(
        self, i: PlayerId, proposals: Mapping[PlayerId, float]
    ) -> "FrequencyProfile":
        """Copy of the profile with player i's outgoing row replaced."""
        counts = dict(self.counts)
        for j, c in proposals.items():
            counts[(i, j)] = c
        return FrequencyProfile(counts)


def check_feasible(spec: GameSpec, profile: FrequencyProfile) -> tuple[list, bool]:
    """Raise InfeasibleProfileError naming the first offending player.  A
    row of ints is held to the budget exactly, a row with a float within
    ``FEASIBILITY_TOL`` of it, relative.  Returns the proposals by edge id
    (see :attr:`GameSpec.index`) and whether they are all ints."""
    if tuple(profile.counts) != spec.directed_edges:
        for e in profile.counts:
            if e[1] not in spec.neighbors.get(e[0], ()):
                raise InfeasibleProfileError(e[0], f"proposal on non-edge {e}")
    flat = []
    integral = True
    for i in range(spec.n):
        total = 0  # stays an exact int on integer rows
        for j in spec.neighbors[i]:
            c = profile.counts.get((i, j))
            if c is None:
                raise InfeasibleProfileError(
                    i, f"missing proposal from {i} to {j}"
                )
            if c < 0:
                raise InfeasibleProfileError(
                    i, f"negative proposal from {i} to {j}: {c}"
                )
            total += c
            flat.append(c)
        limit = spec.budget_units(i)
        exact = isinstance(total, int)
        integral &= exact
        allowance = 0 if exact else FEASIBILITY_TOL * max(1.0, limit)
        if total > limit + allowance:
            raise InfeasibleProfileError(
                i,
                f"player {i} proposes {total} units, budget is {limit} units",
            )
    return flat, integral


@dataclass(frozen=True)
class OutcomeSummary:
    """Realized interaction per edge plus the per-player leftovers.

    ``agreed`` maps each undirected edge to min(f_ij, f_ji); ``slack`` is the
    budget each player did not realize; ``win`` holds the neighbors on which
    the player's own proposal is the binding one (see :func:`win_set`);
    ``stable`` holds the players with an empty win set.  All amounts are in
    eta units.  This is the one whole-profile source of these quantities;
    the sequential engine patches them per move from here.
    """

    agreed: dict[tuple[int, int], float]
    slack: dict[PlayerId, float]
    total_slack: float
    win: dict[PlayerId, frozenset[int]]
    stable: frozenset[PlayerId]


def win_set(
    spec: GameSpec, profile: FrequencyProfile, i: PlayerId
) -> list[PlayerId]:
    """Neighbors j on which i's own proposal binds (f_ij < f_ji).

    An empty win set means i matches or over-proposes to every neighbor, so
    every cap constraint of i binds and i has no unilateral gain.
    """
    counts = profile.counts
    return [j for j in spec.neighbors[i] if counts[(i, j)] < counts[(j, i)]]


def outcome_summary(spec: GameSpec, profile: FrequencyProfile) -> OutcomeSummary:
    return flat_outcome_summary(spec, check_feasible(spec, profile)[0])


def flat_outcome_summary(spec: GameSpec, flat: Sequence) -> OutcomeSummary:
    """:func:`outcome_summary` of a feasible profile's proposals by edge id,
    as :func:`check_feasible` returns them; int amounts stay exact ints."""
    rows, off, rev = spec.index
    agreed: dict[tuple[int, int], float] = {}
    slack: dict[PlayerId, float] = {}
    win: dict[PlayerId, frozenset[int]] = {}
    total_slack = 0
    for i, row in enumerate(rows):
        realized = 0
        wins = []
        for x, j in enumerate(row.neighbors, off[i]):
            r = rev[x]
            if x < r:  # i < j, so (i, j) is the edge's key
                agreed[(i, j)] = min(flat[x], flat[r])
            realized += agreed[(i, j) if x < r else (j, i)]
            if flat[x] < flat[r]:
                wins.append(j)
        slack[i] = row.budget - realized
        total_slack += slack[i]
        win[i] = frozenset(wins)
    return OutcomeSummary(
        agreed=agreed,
        slack=slack,
        total_slack=total_slack,
        win=win,
        stable=frozenset(i for i in range(spec.n) if not win[i]),
    )


def player_utility(
    spec: GameSpec, profile: FrequencyProfile, i: PlayerId
) -> float:
    """Weighted utility of player i's realized interactions (own weights).

    Leftover budget yields nothing; an isolated player scores 0.
    """
    counts = profile.counts
    row = spec.index.rows[i]
    total = 0.0
    for j, w, u in zip(row.neighbors, row.weights, row.utils):
        total += w * u.value(min(counts[(i, j)], counts[(j, i)]) * spec.eta)
    return total


def social_welfare(spec: GameSpec, profile: FrequencyProfile) -> float:
    return left_sum(player_utility(spec, profile, i) for i in range(spec.n))
