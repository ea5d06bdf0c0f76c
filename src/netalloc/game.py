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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

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


@dataclass(frozen=True, slots=True)
class EdgeSpec:
    """An undirected edge's data as documents give it: each side's weight
    and utility on the edge."""

    i: int
    j: int
    w_ij: float
    w_ji: float
    utility_ij: UtilitySpec
    utility_ji: UtilitySpec


class PlayerRow(NamedTuple):
    """A player's whole part of a game, in neighbor order: its neighbors
    (increasing), its weights and utilities on those edges, its budget in
    eta quanta and its behavior.  Per edge it also holds the utility's value
    kernel (:meth:`~netalloc.utility.UtilitySpec.kernel`) and the zero-level
    marginal w u'(0) (0.0 where w = 0), so a solver reads them instead of
    deriving them on every call."""

    neighbors: tuple[int, ...]
    weights: tuple[float, ...]
    utils: tuple[UtilitySpec, ...]
    budget: int | None
    kernels: tuple
    zero_marginals: tuple[float, ...]
    behavior: Behavior | None


class _RowView(Mapping):
    """A read-only map over a spec's rows that copies nothing: player i to
    ``get(rows[i])``, or with ``by_edge`` the directed edge (i, j) to
    ``get(rows[i])[k]``, j being i's k-th neighbor."""

    def __init__(self, spec: GameSpec, get, by_edge: bool):
        self._spec, self._get, self._by_edge = spec, get, by_edge

    def __getitem__(self, key):
        rows = self._spec.rows
        i, j = key if self._by_edge else (key, None)
        if i not in range(len(rows)):
            raise KeyError(key)
        value = self._get(rows[i])
        if not self._by_edge:
            return value
        k = bisect_left(rows[i].neighbors, j)
        if rows[i].neighbors[k : k + 1] != (j,):
            raise KeyError(key)
        return value[k]

    def __iter__(self):
        spec = self._spec
        return iter(spec.directed_edges if self._by_edge else range(len(spec.rows)))

    def __len__(self) -> int:
        return self._spec.off[-1] if self._by_edge else len(self._spec.rows)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """One game instance: a :class:`PlayerRow` per player, and edge ids.

    Edge id ``off[i] + k`` (``off`` has n + 1 entries) is player i's k-th
    neighbor, the entry of ``directed_edges`` at that id; ``rev[x]`` is the
    id of edge x reversed.  :meth:`build` and :meth:`from_edges` (which
    ``InstanceDocument.to_game_spec`` calls) never raise on bad data: they
    list it in ``violations`` (see :func:`validate_game`).  A state rows
    cannot hold (a self-loop, an unknown player, a weight or utility
    missing or on a non-edge, a missing behavior, a budget that is not a
    count of quanta below 2**53) is kept only there; its row holds weight
    0.0, a linear utility, behavior None or budget None instead.

    ``weights``, ``utilities``, ``neighbors``, ``budgets`` (resource units)
    and ``behaviors`` are read-only maps over the rows, and ``edges`` lists
    the pairs (i, j), i < j, in order; the engines read the rows instead.
    """

    n: int
    eta: float
    rows: tuple[PlayerRow, ...]
    off: tuple[int, ...]
    rev: tuple[int, ...]
    violations: tuple[str, ...] = ()

    @staticmethod
    def build(n: int, eta: float, edges: Iterable[DirectedEdge], weights: Mapping,
              budgets: Mapping, utilities: Mapping, behaviors: Mapping) -> GameSpec:
        """The spec of maps keyed by directed edge (both directions of every
        undirected edge) and by player; budgets are in resource units."""
        from .utility import UtilitySpec  # utility imports this module

        pairs = {e if e[0] <= e[1] else (e[1], e[0]) for e in edges}
        linked = {e for (i, j) in pairs if i != j and 0 <= i < n and 0 <= j < n
                  for e in ((i, j), (j, i))}
        maps = (("weight", weights), ("utility", utilities))
        faults = [f"missing {name} for directed edge {e}"
                  for e in sorted(linked) for name, given in maps if e not in given]
        faults += [f"{name} given for non-edge {e}"
                   for name, given in maps for e in sorted(given) if e not in linked]
        linear = UtilitySpec.linear()  # in place of a missing utility
        filled = [EdgeSpec(i, j, weights.get((i, j), 0.0), weights.get((j, i), 0.0),
                           utilities.get((i, j), linear), utilities.get((j, i), linear))
                  for (i, j) in pairs]
        return GameSpec.from_edges(
            n, eta, filled, [budgets.get(i) for i in range(n)],
            [behaviors.get(i) for i in range(n)], faults,
            unsummed={i for (i, j) in linked if (i, j) not in weights})

    @staticmethod
    def from_edges(n: int, eta: float, edges: Iterable[EdgeSpec], budgets: Sequence,
                   behaviors: Sequence, faults=(), unsummed=()) -> GameSpec:
        """The spec of the edges, with player i's budget ``budgets[i]`` in
        resource units and behavior ``behaviors[i]`` (None: missing).  An
        edge repeated later replaces the earlier one.  ``faults`` are the
        violations the caller found; the weight sums of the ``unsummed``
        players are not checked."""
        links: list[dict] = [{} for _ in range(n)]  # player i's EdgeSpecs by neighbor
        stray = set()
        for e in edges:
            i, j = e.i, e.j
            if i != j and 0 <= i < n and 0 <= j < n:
                links[i][j] = links[j][i] = e
            else:
                stray.add((i, j) if i <= j else (j, i))
        eta_ok = 0.0 < eta < math.inf
        bad = []
        if n < 1:
            bad.append(f"player count {n}: a game needs at least one player")
        if not eta_ok:
            bad.append(f"eta must be positive and finite, got {eta}")
        for (i, j) in sorted(stray):
            if i == j:
                bad.append(f"self-loop edge ({i},{i}) is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                bad.append(f"edge ({i},{j}) references unknown players")
        bad += faults
        players, sums = [], []
        rows, off = [], [0]
        for i in range(n):  # tuple() of a list, faster than of a generator here
            nbrs = tuple(sorted(links[i]))
            sides = [links[i][j] for j in nbrs]
            weights = tuple([e.w_ij if e.i == i else e.w_ji for e in sides])
            utils = tuple([e.utility_ij if e.i == i else e.utility_ji for e in sides])
            if nbrs:
                total = left_sum(weights)
                if not (math.isfinite(total) and min(weights) >= 0.0):
                    for j, w in zip(nbrs, weights):
                        if not math.isfinite(w):
                            bad.append(f"weight of edge {(i, j)} is not finite ({w})")
                        elif w < 0.0:
                            bad.append(f"weight of edge {(i, j)} is negative ({w})")
                if i not in unsummed and abs(total - 1.0) > WEIGHT_SUM_TOL:
                    sums.append(f"weights of player {i} sum to {total}")
            beta, budget = budgets[i], None
            if beta is None:
                players.append(f"missing budget for player {i}")
            elif beta < 0.0:
                players.append(f"budget of player {i} is negative ({beta})")
            elif eta_ok and not (units := beta / eta) < MAX_BUDGET_UNITS:  # also nan
                players.append(f"budget of player {i} ({beta}) is not a finite count "
                               f"below 2**53 quanta")
            elif eta_ok and abs(units - round(units)) > GRID_TOL * max(1.0, units):
                players.append(f"budget of player {i} ({beta}) is not a multiple of eta")
            elif eta_ok:
                budget = round(units)
            if beta is not None and behaviors[i] is None:
                players.append(f"missing behavior for player {i}")
            kernels = tuple([u.kernel() for u in utils])
            zeros = tuple([w * u.marginal(0.0) if w > 0.0 else 0.0 for w, u in zip(weights, utils)])
            rows.append(PlayerRow(nbrs, weights, utils, budget, kernels, zeros, behaviors[i]))
            off.append(off[-1] + len(nbrs))
        rev = tuple([off[j] + bisect_left(rows[j].neighbors, i)
                     for i, row in enumerate(rows) for j in row.neighbors])
        return GameSpec(n, eta, tuple(rows), tuple(off), rev, tuple(bad + players + sums))

    def __eq__(self, other: object) -> bool:
        """Same rows and violations, kernels aside (a bound ``value`` compares
        by its utility's identity; the kernels follow from the utilities)."""

        def key(spec: GameSpec) -> tuple:
            return spec.n, spec.eta, spec.violations, [r[:4] + r[5:] for r in spec.rows]

        return isinstance(other, GameSpec) and key(self) == key(other)

    @cached_property
    def directed_edges(self) -> tuple[DirectedEdge, ...]:
        """Every directed edge (i, j) by id, built on first use."""
        return tuple((i, j) for i, row in enumerate(self.rows) for j in row.neighbors)

    @property
    def edges(self) -> tuple[DirectedEdge, ...]:
        return tuple(e for e in self.directed_edges if e[0] < e[1])

    weights = property(lambda self: _RowView(self, attrgetter("weights"), True))
    utilities = property(lambda self: _RowView(self, attrgetter("utils"), True))
    neighbors = property(lambda self: _RowView(self, attrgetter("neighbors"), False))
    behaviors = property(lambda self: _RowView(self, attrgetter("behavior"), False))

    @property
    def budgets(self) -> Mapping[PlayerId, float | None]:
        eta = self.eta
        return _RowView(self, lambda r: None if r.budget is None else r.budget * eta, False)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_game(spec: GameSpec) -> ValidationReport:
    """The violations the spec's build found (see :class:`GameSpec`): player
    count and eta, edges, weights and utilities, budgets and behaviors, sums."""
    return ValidationReport(ok=not spec.violations, violations=spec.violations)


def require_valid(spec: GameSpec) -> None:
    """Raise ValueError with the spec's first violation, if it has one."""
    if spec.violations:
        raise ValueError(spec.violations[0])


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
    (see :class:`GameSpec`) and whether they are all ints."""
    counts, edges, off = profile.counts, spec.directed_edges, spec.off
    if tuple(counts) != edges:
        for e in counts:
            if not (0 <= e[0] < spec.n and e[1] in spec.rows[e[0]].neighbors):
                raise InfeasibleProfileError(e[0], f"proposal on non-edge {e}")
    flat = []
    integral = True
    for i, row in enumerate(spec.rows):
        total = 0  # stays an exact int on integer rows
        for e in edges[off[i] : off[i + 1]]:
            c = counts.get(e)
            if c is None:
                raise InfeasibleProfileError(i, f"missing proposal from {i} to {e[1]}")
            if c < 0:
                raise InfeasibleProfileError(i, f"negative proposal from {i} to {e[1]}: {c}")
            total += c
            flat.append(c)
        limit = row.budget
        exact = isinstance(total, int)
        integral &= exact
        allowance = 0 if exact else FEASIBILITY_TOL * max(1.0, limit)
        if total > limit + allowance:
            message = f"player {i} proposes {total} units, budget is {limit} units"
            raise InfeasibleProfileError(i, message)
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
    return [j for j in spec.rows[i].neighbors if counts[(i, j)] < counts[(j, i)]]


def outcome_summary(spec: GameSpec, profile: FrequencyProfile) -> OutcomeSummary:
    return flat_outcome_summary(spec, check_feasible(spec, profile)[0])


def flat_outcome_summary(spec: GameSpec, flat: Sequence) -> OutcomeSummary:
    """:func:`outcome_summary` of a feasible profile's proposals by edge id,
    as :func:`check_feasible` returns them; int amounts stay exact ints."""
    rows, off, rev = spec.rows, spec.off, spec.rev
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
    row = spec.rows[i]
    total = 0.0
    for j, w, u in zip(row.neighbors, row.weights, row.utils):
        total += w * u.value(min(counts[(i, j)], counts[(j, i)]) * spec.eta)
    return total


def social_welfare(spec: GameSpec, profile: FrequencyProfile) -> float:
    return left_sum(player_utility(spec, profile, i) for i in range(spec.n))
