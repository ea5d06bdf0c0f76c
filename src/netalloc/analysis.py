"""Equilibrium structure and welfare analysis.

Covers the rank-induced weight system and its weighted potential, the
match-down transform (any profile -> matched profile with identical welfare),
convex combinations of profiles, the global welfare optimum over symmetric
matched profiles, and the closed-form welfare-gap ratios of the skewed-grid
family whose worst equilibria get arbitrarily bad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .game import (
    FrequencyProfile,
    GameSpec,
    PlayerId,
    check_feasible,
    outcome_summary,
    social_welfare,
)

WEIGHT_MATCH_TOL = 1e-9

# projected-gradient ascent: first trial step (times the budget scale) and
# Dykstra sweeps per projection
INITIAL_STEP = 1.0
PROJECTION_SWEEPS = 25


# -- rank-induced weights and the potential ----------------------------------


@dataclass(frozen=True)
class RankingSystem:
    """Positive integer social rank per player; weights follow ranks."""

    ranks: Mapping[PlayerId, int]

    def __post_init__(self) -> None:
        for i, r in self.ranks.items():
            if not isinstance(r, int) or r < 1:
                raise ValueError(f"rank of player {i} must be a positive int")

    def rank(self, i: PlayerId) -> int:
        return self.ranks[i]

    def neighbor_rank_sum(
        self, neighbors: Mapping[PlayerId, Sequence[int]], i: PlayerId
    ) -> int:
        return sum(self.ranks[k] for k in neighbors[i])


def global_ranking_weights(
    neighbors: Mapping[PlayerId, Sequence[int]], ranking: RankingSystem
) -> dict[tuple[int, int], Fraction]:
    """Directed weights rank(j) / sum of neighbor ranks of i, as exact
    rationals so each player's weights sum to exactly one.  Players without
    neighbors get no entries (their weight constraint is vacuous)."""
    weights: dict[tuple[int, int], Fraction] = {}
    for i, nbrs in neighbors.items():
        if not nbrs:
            continue
        total = ranking.neighbor_rank_sum(neighbors, i)
        for j in nbrs:
            weights[(i, j)] = Fraction(ranking.rank(j), total)
    return weights


def potential_value(
    spec: GameSpec, ranking: RankingSystem, profile: FrequencyProfile
) -> float:
    """Weighted potential of a rank-weighted game with symmetric edge
    utilities: sum over directed edges of rank(i)*rank(j)*u(agreed).

    A single player's move shifts this by exactly twice her rank times her
    neighbor rank sum times her own utility change, which is what makes
    sequential dynamics monotone here.  Refuses games whose edge utilities
    differ by direction or whose weights do not come from the ranking.
    """
    for (i, j) in spec.edges:
        if spec.utilities[(i, j)] != spec.utilities[(j, i)]:
            raise ValueError(
                f"edge ({i},{j}) has direction-dependent utilities; "
                "the potential requires a symmetric utility on each edge"
            )
    for i in range(spec.n):
        nbrs = spec.neighbors[i]
        if not nbrs:
            continue
        total = ranking.neighbor_rank_sum(spec.neighbors, i)
        for j in nbrs:
            expected = ranking.rank(j) / total
            if abs(spec.weights[(i, j)] - expected) > WEIGHT_MATCH_TOL:
                raise ValueError(
                    f"weight of ({i},{j}) is {spec.weights[(i, j)]}, "
                    f"not induced by the ranking ({expected})"
                )
    eta = spec.eta
    counts = profile.counts
    total_phi = 0.0
    for (i, j) in spec.directed_edges:
        agreed = min(counts[(i, j)], counts[(j, i)])
        total_phi += (
            ranking.rank(i)
            * ranking.rank(j)
            * spec.utilities[(i, j)].value(agreed * eta)
        )
    return total_phi


# -- profile transforms --------------------------------------------------------


def match_down(spec: GameSpec, profile: FrequencyProfile) -> FrequencyProfile:
    """Lower every over-proposal to the other side's level.

    Agreed amounts (hence every utility and the welfare) are unchanged, and
    the result is matched on every edge, which makes it an equilibrium: no
    player can gain once every neighbor cap binds.
    """
    check_feasible(spec, profile)
    counts = dict(profile.counts)
    for (i, j) in spec.edges:
        agreed = min(counts[(i, j)], counts[(j, i)])
        counts[(i, j)] = agreed
        counts[(j, i)] = agreed
    return FrequencyProfile(counts)


def convex_combine(
    spec: GameSpec,
    profile_a: FrequencyProfile,
    profile_b: FrequencyProfile,
    alpha: float,
    snap: bool = False,
) -> FrequencyProfile:
    """Edgewise mix alpha*a + (1-alpha)*b (feasible by convexity).

    Returns real-valued counts in general; ``snap`` floors back to the grid.
    The endpoints return exact copies so integer profiles stay integer.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    if set(profile_a.counts) != set(profile_b.counts):
        raise ValueError("profiles live on different edge sets")
    check_feasible(spec, profile_a)
    check_feasible(spec, profile_b)
    if alpha == 1.0:
        return FrequencyProfile(profile_a.counts)
    if alpha == 0.0:
        return FrequencyProfile(profile_b.counts)
    counts = {
        e: alpha * profile_a.counts[e] + (1.0 - alpha) * profile_b.counts[e]
        for e in profile_a.counts
    }
    if snap:
        counts = {e: int(math.floor(c)) for e, c in counts.items()}
    return FrequencyProfile(counts)


def partition_players(
    spec: GameSpec, profile: FrequencyProfile
) -> tuple[frozenset[int], frozenset[int]]:
    """Split players into (stable, active): stable players match every
    neighbor's proposal (empty win set) and have nothing to gain; the rest
    are still out-proposed somewhere."""
    stable = outcome_summary(spec, profile).stable
    return stable, frozenset(range(spec.n)) - stable


def continuous_equilibrium_polish(
    spec: GameSpec,
    profile: FrequencyProfile,
    tol: float = 1e-12,
    max_rounds: int = 100_000,
) -> FrequencyProfile:
    """Settle a profile into a continuous-deviation equilibrium.

    Grid equilibria are exact for grid deviations but can leave up to a
    quantum's worth of continuous improvement on the table, which matters
    when classifying real-valued transforms (convex combinations, optimum
    profiles) at tight tolerances.  This reruns sequential best responses on
    a real-valued copy of the profile until no player improves by more than
    ``tol``; starting from a grid equilibrium it settles within a few moves.
    """
    from .dynamics import Converged, DynamicsConfig, run_sequential

    start = FrequencyProfile(
        {e: float(c) for e, c in profile.counts.items()}
    )
    final, _, status = run_sequential(
        spec,
        start,
        DynamicsConfig(tol=tol, max_rounds=max_rounds, check_invariants=False),
        trace_detail="light",
    )
    if not isinstance(status, Converged):
        raise RuntimeError(
            f"continuous polish did not settle within {max_rounds} rounds"
        )
    return final


# -- global optimum -------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricProfile:
    """Matched allocation: one amount per undirected edge, resource units."""

    amounts: dict[tuple[int, int], float]

    def to_profile(self, spec: GameSpec) -> FrequencyProfile:
        counts: dict[tuple[int, int], float] = {}
        for (i, j), x in self.amounts.items():
            c = x / spec.eta
            counts[(i, j)] = c
            counts[(j, i)] = c
        return FrequencyProfile(counts)


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 4000
    grad_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_iters <= 0 or self.grad_tol <= 0:
            raise ValueError("all optimizer parameters must be positive")


@dataclass(frozen=True)
class OptimumResult:
    profile: SymmetricProfile
    welfare: float
    certified: bool
    iterations: int


def _project_budget_box(y: list[float], beta: float) -> list[float]:
    """Euclidean projection onto {x >= 0, sum x <= beta} (closed form)."""
    z = [v if v > 0.0 else 0.0 for v in y]
    if sum(z) <= beta:
        return z
    if beta <= 0.0:
        return [0.0] * len(y)
    # active budget: threshold projection onto {x >= 0, sum x = beta}
    u = sorted(y, reverse=True)
    css = 0.0
    tau = 0.0
    for k, v in enumerate(u, start=1):
        css += v
        t = (css - beta) / k
        if v - t > 0.0:
            tau = t
        else:
            break
    return [max(0.0, v - tau) for v in y]


def _dykstra_project(
    x: np.ndarray,
    node_edges: list[list[int]],
    budgets: list[float],
    sweeps: int,
) -> np.ndarray:
    """Project onto the intersection of all per-node budget boxes by cyclic
    Dykstra iterations (one correction vector per node constraint)."""
    x = x.copy()
    offsets: list[list[float]] = [[0.0] * len(idx) for idx in node_edges]
    for _ in range(sweeps):
        shift = 0.0
        for i, idx in enumerate(node_edges):
            if not idx:
                continue
            off = offsets[i]
            y = [x[e] + off[k] for k, e in enumerate(idx)]
            z = _project_budget_box(y, budgets[i])
            for k, e in enumerate(idx):
                moved = abs(z[k] - x[e])
                if moved > shift:
                    shift = moved
                off[k] = y[k] - z[k]
                x[e] = z[k]
        if shift <= 1e-13 * max(1.0, max(budgets)):
            break
    np.maximum(x, 0.0, out=x)
    return x


def _repair_feasible(
    x: np.ndarray, node_edges: list[list[int]], budgets: list[float]
) -> np.ndarray:
    """Scale any overfull node's incident edges down to exact feasibility.

    Scaling only shrinks coordinates, so earlier nodes stay feasible; one
    pass suffices.  Keeps value comparisons honest: Dykstra's truncated
    projection can leave iterates slightly infeasible, which would otherwise
    inflate their score and stall the ascent below the optimum.
    """
    for i, idx in enumerate(node_edges):
        if not idx:
            continue
        total = sum(x[e] for e in idx)
        if total > budgets[i] and total > 0.0:
            factor = budgets[i] / total
            for e in idx:
                x[e] *= factor
    return x


def global_optimum(spec: GameSpec, config: OptimizerConfig | None = None) -> OptimumResult:
    """Maximize total welfare over symmetric matched profiles.

    The objective sum_e [w_ij u_ij(x_e) + w_ji u_ji(x_e)] is concave and the
    feasible set is the intersection of per-node capped simplices, so
    projected gradient ascent with a Dykstra projection converges.  The step
    grows on strict progress and halves otherwise; once it collapses below
    grad_tol (relative to the budget scale) no feasible ascent remains and
    the result is certified.  Hitting max_iters first returns the best
    iterate uncertified.  Restricting to matched profiles loses nothing:
    match-down turns any profile into a matched one with identical welfare.
    """
    if config is None:
        config = OptimizerConfig()
    edges = sorted(spec.edges)
    m = len(edges)
    if m == 0:
        return OptimumResult(SymmetricProfile({}), 0.0, True, 0)

    pairs = [
        (
            spec.weights[(i, j)],
            spec.utilities[(i, j)],
            spec.weights[(j, i)],
            spec.utilities[(j, i)],
        )
        for (i, j) in edges
    ]
    budgets = [spec.budgets.get(i, 0.0) for i in range(spec.n)]
    node_edges: list[list[int]] = [[] for _ in range(spec.n)]
    for e, (i, j) in enumerate(edges):
        node_edges[i].append(e)
        node_edges[j].append(e)

    beta_scale = max(budgets) if budgets else 1.0
    grad_eps = 1e-12 * max(1.0, beta_scale)

    def value(x: np.ndarray) -> float:
        total = 0.0
        for e in range(m):
            wa, ua, wb, ub = pairs[e]
            xe = x[e]
            total += wa * ua.value(xe) + wb * ub.value(xe)
        return total

    def gradient(x: np.ndarray) -> np.ndarray:
        g = np.empty(m)
        for e in range(m):
            wa, ua, wb, ub = pairs[e]
            xe = x[e] if x[e] > grad_eps else grad_eps
            g[e] = wa * ua.marginal(xe) + wb * ub.marginal(xe)
        return g

    def project(v: np.ndarray) -> np.ndarray:
        out = _dykstra_project(v, node_edges, budgets, PROJECTION_SWEEPS)
        return _repair_feasible(out, node_edges, budgets)

    x = np.empty(m)
    for e, (i, j) in enumerate(edges):
        cap_i = budgets[i] / max(1, len(node_edges[i]))
        cap_j = budgets[j] / max(1, len(node_edges[j]))
        x[e] = 0.5 * min(cap_i, cap_j)
    x = project(x)
    fx = value(x)
    best_x, best_f = x.copy(), fx
    scale = max(1.0, beta_scale)
    step = INITIAL_STEP * scale
    max_step = 1e3 * scale
    min_step = max(config.grad_tol, 1e-13) * scale
    certified = False
    iterations = 0

    # one trial step per iteration: strict progress grows the step, anything
    # else halves it; a collapsed step means no feasible ascent remains
    for it in range(1, config.max_iters + 1):
        iterations = it
        g = gradient(x)
        y = project(x + step * g)
        fy = float(value(y))
        if fy > fx + 1e-15 * max(1.0, abs(fx)):
            x, fx = y, fy
            if fx > best_f:
                best_f, best_x = fx, x.copy()
            step = min(step * 1.3, max_step)
        else:
            step *= 0.5
            if step < min_step:
                certified = True
                break

    x = best_x  # feasible throughout: every iterate was repaired
    sw = float(value(x))

    amounts = {edges[e]: float(x[e]) for e in range(m)}
    return OptimumResult(
        profile=SymmetricProfile(amounts),
        welfare=sw,
        certified=certified,
        iterations=iterations,
    )


def brute_force_optimum(spec: GameSpec) -> tuple[SymmetricProfile, float]:
    """Exhaustive grid oracle for the symmetric welfare optimum.

    Depth-first over edges in canonical order with per-node remaining
    budgets; refuses instances whose search space exceeds the size limit.
    Ties resolve to the lexicographically smallest allocation.
    """
    edges = sorted(spec.edges)
    m = len(edges)
    eta = spec.eta
    budgets = [spec.budget_units(i) for i in range(spec.n)]
    size = 1.0
    for (i, j) in edges:
        size *= min(budgets[i], budgets[j]) + 1
        if size > 10_000_000:
            raise ValueError(
                f"brute-force optimum search space exceeds 1e7 (>= {size:.0f})"
            )

    pairs = [
        (
            spec.weights[(i, j)],
            spec.utilities[(i, j)],
            spec.weights[(j, i)],
            spec.utilities[(j, i)],
        )
        for (i, j) in edges
    ]
    remaining = budgets.copy()
    alloc = [0] * m
    best_alloc: list[int] | None = None
    best_sw = -math.inf

    def recurse(e: int, partial: float) -> None:
        nonlocal best_alloc, best_sw
        if e == m:
            if partial > best_sw:
                best_sw = partial
                best_alloc = alloc.copy()
            return
        i, j = edges[e]
        wa, ua, wb, ub = pairs[e]
        limit = min(remaining[i], remaining[j])
        for c in range(limit + 1):
            alloc[e] = c
            remaining[i] -= c
            remaining[j] -= c
            gain = wa * ua.value(c * eta) + wb * ub.value(c * eta)
            recurse(e + 1, partial + gain)
            remaining[i] += c
            remaining[j] += c
        alloc[e] = 0

    recurse(0, 0.0)
    assert best_alloc is not None
    amounts = {edges[e]: best_alloc[e] * eta for e in range(m)}
    return SymmetricProfile(amounts), best_sw


# -- equilibrium quality ---------------------------------------------------------


def ne_quality(
    spec: GameSpec, profile: FrequencyProfile, opt_sw: float
) -> float:
    """Welfare of the profile as a fraction of the optimum."""
    sw = social_welfare(spec, profile)
    if opt_sw <= 0.0:
        raise ValueError(
            f"optimum welfare must be positive, got {opt_sw} (profile SW {sw})"
        )
    return sw / opt_sw


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))  # shortest decimal reading, exact for 0.1 etc.
    return Fraction(x)


def _grid_reference_utilities(eps, beta) -> tuple[Fraction, Fraction]:
    """Exact per-player utility of the skewed grid's high and low matched
    reference profiles."""
    e = _as_fraction(eps)
    b = _as_fraction(beta)
    half = Fraction(1, 2)
    if not (0 < e < min(half, b / 2)):
        raise ValueError(
            f"eps must be in (0, min(1/2, beta/2)), got eps={eps} beta={beta}"
        )
    good = 2 * (half - e) * (b / 2 - e) * (b / 2 + e) + 2 * e * e * (b - e)
    bad = 2 * e * (b / 2 - e) * (b / 2 + e) + 2 * (half - e) * e * (b - e)
    return good, bad


def poa_grid_ratio(eps, beta) -> float:
    """Closed-form welfare ratio of the skewed-grid family's two matched
    equilibria (high vs low), evaluated in exact rational arithmetic.

    Divergence as eps -> 0 is what makes the price of anarchy unbounded.
    """
    good, bad = _grid_reference_utilities(eps, beta)
    return float(good / bad)


def grid_reference_welfare(eps, beta, n: int) -> tuple[float, float]:
    """Closed-form total welfare of the skewed grid's high/low reference
    profiles for n players (per-player utility times n)."""
    good, bad = _grid_reference_utilities(eps, beta)
    return float(n * good), float(n * bad)
