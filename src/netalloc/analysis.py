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

from .bestresponse import BRUTE_FORCE_LIMIT, best_response, is_best_response
from .game import (
    FrequencyProfile,
    GameSpec,
    PlayerId,
    check_feasible,
    left_sum,
    social_welfare,
    validate_game,
)
from .utility import FAMILIES, LINEAR, LOG1P, POWER, SQRT, UtilitySpec

WEIGHT_MATCH_TOL = 1e-9
# continuous_equilibrium_polish: the improvement it leaves, and its move cap
POLISH_TOL = 1e-12
POLISH_MAX_ROUNDS = 100_000


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


def ranking_violations(spec: GameSpec, ranking: RankingSystem) -> list[str]:
    """Why the weighted potential does not hold for this game and ranking:
    edges whose utility depends on the direction, and weights that the
    ranking does not induce (an empty list when it holds)."""
    bad = [
        f"edge ({i},{j}) has direction-dependent utilities; "
        "the potential requires a symmetric utility on each edge"
        for (i, j) in sorted(spec.edges)
        if spec.utilities[(i, j)] != spec.utilities[(j, i)]
    ]
    for i in range(spec.n):
        nbrs = spec.neighbors[i]
        if not nbrs:
            continue
        total = ranking.neighbor_rank_sum(spec.neighbors, i)
        for j in nbrs:
            expected = ranking.rank(j) / total
            if abs(spec.weights[(i, j)] - expected) > WEIGHT_MATCH_TOL:
                bad.append(
                    f"weight of ({i},{j}) is {spec.weights[(i, j)]}, "
                    f"not induced by the ranking ({expected})"
                )
    return bad


def potential_terms(
    spec: GameSpec, ranking: RankingSystem, profile: FrequencyProfile, i: PlayerId
) -> list[float]:
    """Player i's terms rank(i)*rank(j)*u_ij(agreed) of the weighted
    potential, in neighbor order."""
    counts, eta = profile.counts, spec.eta
    return [
        ranking.rank(i)
        * ranking.rank(j)
        * spec.utilities[(i, j)].value(min(counts[(i, j)], counts[(j, i)]) * eta)
        for j in spec.neighbors[i]
    ]


def potential_value(
    spec: GameSpec, ranking: RankingSystem, profile: FrequencyProfile
) -> float:
    """Weighted potential of a rank-weighted game with symmetric edge
    utilities: sum over directed edges of rank(i)*rank(j)*u(agreed).

    A single player's move shifts this by exactly twice its rank times its
    neighbor rank sum times its own utility change, which is what makes
    sequential dynamics monotone here.  Refuses games that fail
    :func:`ranking_violations`.
    """
    bad = ranking_violations(spec, ranking)
    if bad:
        raise ValueError(bad[0])
    return left_sum(
        t for i in range(spec.n) for t in potential_terms(spec, ranking, profile, i)
    )


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
) -> FrequencyProfile:
    """Edgewise mix alpha*a + (1-alpha)*b (feasible by convexity).

    Returns real-valued counts in general.  The endpoints return exact
    copies so integer profiles stay integer.
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
    return FrequencyProfile(counts)


def continuous_equilibrium_polish(
    spec: GameSpec, profile: FrequencyProfile
) -> FrequencyProfile:
    """Settle a profile into a continuous-deviation equilibrium.

    Grid equilibria are exact for grid deviations but can leave up to a
    quantum's worth of continuous improvement on the table, which matters
    when classifying real-valued transforms (convex combinations, optimum
    profiles) at tight tolerances.  This visits the players of a real-valued
    copy of the profile round robin, moving each one that can improve by
    more than ``POLISH_TOL`` to its (continuous) best response, until a full
    pass moves no one; starting from a grid equilibrium it settles within a
    few moves.
    """
    check_feasible(spec, profile)
    current = FrequencyProfile({e: float(c) for e, c in profile.counts.items()})
    moves = 0
    idle = 0  # players visited since the last move
    i = 0
    while idle < spec.n:
        if is_best_response(spec, current, i, POLISH_TOL)[0]:
            idle += 1
        elif moves == POLISH_MAX_ROUNDS:
            raise RuntimeError(
                f"continuous polish did not settle within {POLISH_MAX_ROUNDS} moves"
            )
        else:
            br = best_response(spec, current, i)
            row = dict(zip(spec.neighbors[i], br.proposals))
            current = current.with_proposals(i, row)
            moves += 1
            idle = 0
        i = (i + 1) % spec.n
    return current


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
    """``max_iters`` caps the price updates (Newton steps or sweeps);
    ``gap_tol`` is the relative duality gap that certifies an optimum."""

    max_iters: int = 4000
    gap_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_iters <= 0 or not 0 < self.gap_tol < math.inf:
            raise ValueError("max_iters and gap_tol must be positive and finite")


@dataclass(frozen=True)
class OptimumResult:
    """A feasible matched profile, its welfare, and an upper bound on the
    optimum (never below the welfare); ``iterations`` counts price updates
    (Newton steps or sweeps).  ``certified`` holds exactly when
    upper_bound - welfare <= gap_tol * max(1, welfare)."""

    profile: SymmetricProfile
    welfare: float
    upper_bound: float
    certified: bool
    iterations: int


# Newton solves (node prices, edge demands) take their last step unchecked
# once it is below NEWTON_TOL of the value, leaving an error of about its
# square; a node price also counts as settled once its demand is within
# PRICE_TOL of its budget
NEWTON_TOL = 1e-7
PRICE_TOL = 1e-12
MAX_SOLVE_STEPS = 100
# proximal weight of a flat edge, as a share of its slope over its box
# (fastest of 0.01, 0.03, 0.1, 0.3 and 1 on random instances)
FLAT_PROX = 0.1

# an edge's kind: its single term's index in FAMILIES, or SOLVED
SOLVED = len(FAMILIES)


class _Edges:
    """Edge objectives f_e(x) = w_ij u_ij(x) + w_ji u_ji(x) of a list of
    edges, evaluated with numpy.

    ``terms`` maps (family, rank) to (weights, ``a`` or ``cap``) columns, in
    ``FAMILIES`` order: a side's utility adds its weight to the other
    side's if they are equal, and an edge has zeros in the columns it does
    not use.  ``box`` = min(beta_i, beta_j) is the largest feasible amount,
    ``top`` <= box the last peak of a term, and ``d0`` the slope at 0.  An
    edge with a single term whose marginal is not constant has its family's
    ``kind`` and a closed-form demand; the rest are SOLVED by Newton.  Among
    those, ``rho`` > 0 marks the flat ones: every term is linear or
    satiates, so a positive slope persists past the peaks and the demand is
    set-valued at that price.
    """

    FIELDS = ("box", "top", "rho", "d0", "dtop", "kind")

    def __init__(self, terms: dict, fields: dict):
        self.terms = terms
        for name in self.FIELDS:
            setattr(self, name, fields[name])

    @staticmethod
    def build(spec: GameSpec, edges: list[tuple[int, int]]) -> "_Edges":
        m = len(edges)
        columns: dict[tuple[str, int], np.ndarray] = {}
        fields = {name: np.zeros(m) for name in _Edges.FIELDS}
        fields["kind"] = np.full(m, SOLVED)
        for e, (i, j) in enumerate(edges):
            terms: dict[UtilitySpec, float] = {}
            for d in ((i, j), (j, i)):
                if spec.weights[d] != 0.0:
                    u = spec.utilities[d]
                    terms[u] = terms.get(u, 0.0) + spec.weights[d]
            fams = [u.family for u in terms]
            for k, (u, w) in enumerate(terms.items()):
                rank = k - fams.index(u.family)  # earlier terms of its family
                coef, par = columns.setdefault((u.family, rank), np.zeros((2, m)))
                coef[e], par[e] = w, u.a or u.cap or 0.0
            box = min(spec.budgets.get(i, 0.0), spec.budgets.get(j, 0.0))
            peak = max((u.inverse_marginal(0.0) for u in terms), default=math.inf)
            fields["box"][e], fields["top"][e] = box, min(box, peak)
            fields["d0"][e] = left_sum(w * u.marginal(0.0) for u, w in terms.items())
            slope = left_sum(w for u, w in terms.items() if u.constant_marginal)
            if slope > 0.0 and all(
                u.constant_marginal or u.inverse_marginal(0.0) < math.inf
                for u in terms
            ):
                fields["rho"][e] = FLAT_PROX * slope / (box if box > 0 else 1.0)
            if len(terms) == 1 and not u.constant_marginal:  # u: the only term
                fields["kind"][e] = FAMILIES.index(u.family)
        order = [(fam, rank) for fam in FAMILIES for rank in (0, 1)]
        out = _Edges({s: columns[s] for s in order if s in columns}, fields)
        out.dtop = out.slopes(out.top, second=False)[0]
        return out

    def take(self, index) -> "_Edges":
        return _Edges(
            {s: column[:, index] for s, column in self.terms.items()},
            {name: getattr(self, name)[index] for name in self.FIELDS},
        )

    def value(self, x: np.ndarray) -> np.ndarray:
        v = np.zeros_like(x)
        for (fam, _), (c, p) in self.terms.items():
            if fam == LINEAR:
                v += c * x
            elif fam == SQRT:
                v += c * np.sqrt(x)
            elif fam == LOG1P:
                v += c * np.log1p(x)
            elif fam == POWER:
                v += c * x**p
            else:
                v += c * np.where(x >= 0.5 * p, 0.25 * p * p, x * (p - x))
        return v

    def slopes(self, x: np.ndarray, second: bool = True):
        """f'(x) (the right derivative: ``d0`` at 0) and f''(x), or None unless ``second``."""
        xs = np.where(x > 0.0, x, 1.0)
        d1 = np.zeros_like(x)
        d2 = np.zeros_like(x) if second else None
        for (fam, _), (c, p) in self.terms.items():
            if fam == LINEAR:
                d1 += c
            elif fam == SQRT:
                t = c * 0.5 / np.sqrt(xs)
                d1 += t
                if second:
                    d2 -= 0.5 * t / xs
            elif fam == LOG1P:
                t = c / (1.0 + xs)
                d1 += t
                if second:
                    d2 -= t / (1.0 + xs)
            elif fam == POWER:
                t = c * p * xs ** (p - 1.0)
                d1 += t
                if second:
                    d2 += t * (p - 1.0) / xs
            else:
                d1 += c * np.maximum(0.0, p - 2.0 * xs)
                if second:
                    d2 -= 2.0 * c * (xs < 0.5 * p)
        return np.where(x > 0.0, d1, self.d0), d2

    def newton(self, p, x_warm, center):
        """Demand of Newton-solved edges at price p, and its derivative in p.

        The demand is the x in [0, top] where f'(x) - p - rho (x - center)
        changes sign, from ``x_warm`` inside a sign-checked bracket.
        """
        top, rho = self.top, self.rho
        at_zero = self.d0 - p + rho * center <= 0.0
        at_top = ~at_zero & (self.dtop - p - rho * (top - center) >= 0.0)
        free = ~(at_zero | at_top)
        x = np.where(at_zero, 0.0, top)
        if not free.any():
            return x, np.zeros_like(p)
        lo = np.zeros_like(p)
        hi = top.copy()
        xk = np.where((x_warm > 0.0) & (x_warm < top), x_warm, 0.5 * top)
        for _ in range(MAX_SOLVE_STEPS):
            d1, d2 = self.slopes(xk)
            f = d1 - p - rho * (xk - center)
            df = d2 - rho
            lo = np.where(f > 0.0, xk, lo)
            hi = np.where(f < 0.0, xk, hi)
            xn = xk - f / df
            inside = (xn > lo) & (xn < hi)
            # relative to top: while lo is 0 (a root that underflows toward 0),
            # hi - lo <= 4e-16 * hi never holds and hi halves for every step
            done = ~free | (f == 0.0) | (hi - lo <= 4e-16 * top)
            if np.all(done | (np.abs(xn - xk) <= NEWTON_TOL * xk)):
                xk = np.where(done | ~inside, xk, xn)
                break
            xk = np.where(done, xk, np.where(inside, xn, 0.5 * (lo + hi)))
        return np.where(free, xk, x), np.where(free, 1.0 / df, 0.0)


def _colour_classes(spec: GameSpec) -> list[list[int]]:
    """Greedy colouring, largest degree first; isolated players are left out
    (their price stays 0)."""
    colour: dict[int, int] = {}
    for i in sorted(range(spec.n), key=lambda i: (-spec.degree(i), i)):
        if not spec.neighbors[i]:
            continue
        used = {colour[j] for j in spec.neighbors[i] if j in colour}
        c = 0
        while c in used:
            c += 1
        colour[i] = c
    classes: list[list[int]] = [[] for _ in set(colour.values())]
    for i in sorted(colour):
        classes[colour[i]].append(i)
    return classes


class _Demand:
    """The demand of the objective's edges at ``index``, sorted by kind
    (by ``order``): a slice per closed-form family, then the solved ones."""

    def __init__(self, objective: _Edges, index):
        self.order = np.argsort(objective.kind[index], kind="stable")
        self.index = index[self.order]
        self.edges = edges = objective.take(self.index)
        kinds = edges.kind
        bounds = np.searchsorted(kinds, range(SOLVED + 1))
        self.closed = []  # (family, slice, its term's w and a, 0.5 w or w a, box)
        for k, fam in enumerate(FAMILIES):
            if bounds[k] < bounds[k + 1]:
                sl = slice(bounds[k], bounds[k + 1])
                w, par = edges.terms[fam, 0][:, sl]
                scale = 0.5 * w if fam == SQRT else w * par if fam == POWER else None
                self.closed.append((fam, sl, w, par, scale, edges.box[sl]))
        start = bounds[SOLVED]
        self.solved = slice(start, len(kinds)) if start < len(kinds) else None
        self.solved_edges = edges.take(self.solved) if self.solved else None

    def demand(self, p, x_warm, center):
        """Each edge's demand at price p, and its derivative in p: the x in
        [0, box] maximizing f(x) - p x, minus rho/2 (x - center)^2 on a
        flat edge (which makes it unique; ``center`` is its last demand).
        A single-term edge inverts its marginal in closed form."""
        parts = []
        for fam, sl, w, par, scale, box in self.closed:
            ps = p[sl]
            if fam == SQRT:
                xi = (scale / ps) ** 2  # a square, not pow: its bits do not depend on SIMD
                slope = -2.0 * xi / ps
            elif fam == LOG1P:
                xi = w / ps - 1.0
                slope = -(xi + 1.0) / ps
            elif fam == POWER:
                expo = 1.0 / (par - 1.0)
                xi = (ps / scale) ** expo
                slope = expo * xi / ps
            else:
                xi = 0.5 * (par - ps / w)
                slope = -0.5 / w
            x = np.minimum(np.maximum(xi, 0.0), box)
            parts.append((x, np.where((xi > 0.0) & (xi < box), slope, 0.0)))
        if self.solved:
            sl = self.solved
            parts.append(self.solved_edges.newton(p[sl], x_warm[sl], center[sl]))
        # the parts are the edge slices in order
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


class _PriceClass(_Demand):
    """One colour class: players that share no edge, so their prices settle
    independently and at once.  Holds the class's edges, ordered by kind."""

    def __init__(self, nodes, objective: _Edges, ends, budgets):
        nodes = np.asarray(nodes)
        local = np.full(len(budgets), -1)
        local[nodes] = np.arange(len(nodes))
        side, index = np.nonzero(local[ends] >= 0)  # the end the class holds
        super().__init__(objective, index)
        side = side[self.order]
        self.own = local[ends[side, self.index]]
        self.other = ends[1 - side, self.index]
        self.nodes = nodes
        self.budget = budgets[nodes]
        # price ceiling: above it every edge of the player wants at most
        # budget/degree, so the player's demand fits its budget
        degree = np.bincount(self.own, minlength=len(nodes))
        share = (self.budget / np.maximum(degree, 1))[self.own]
        edges, box = self.edges, self.edges.box
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = edges.slopes(np.minimum(share, box), second=False)[0]
            need = np.where(box > share, slope + edges.rho * (box - share), 0.0)
        self.ceiling = np.zeros(len(nodes))
        np.maximum.at(self.ceiling, self.own, need)

    def settle(self, lam, x, center) -> None:
        """Price each player so that its edges' demand meets its budget, or
        0 if the demand at 0 fits (exact coordinate descent on the dual), by
        Newton inside a sign-checked bracket; writes the prices into lam and
        the demand into x."""
        k = len(self.nodes)
        own = self.own
        base = lam[self.other]
        x_warm = x[self.index]
        x_center = center[self.index]
        price = lam[self.nodes]
        lo = np.zeros(k)
        hi = self.ceiling.copy()
        tried_zero = np.zeros(k, dtype=bool)
        tol = PRICE_TOL * self.budget
        for _ in range(MAX_SOLVE_STEPS):
            xe, dxdp = self.demand(price[own] + base, x_warm, x_center)
            excess = np.bincount(own, xe, k) - self.budget
            at_zero = price == 0.0
            tried_zero |= at_zero
            lo = np.where(excess > 0.0, price, lo)
            hi = np.where(excess < 0.0, price, hi)
            done = (
                (np.abs(excess) <= tol)
                | (at_zero & (excess <= 0.0))
                | (hi - lo <= 4e-16 * hi)
            )
            if done.all():
                break
            newton = price - excess / np.bincount(own, dxdp, k)
            inside = (newton > lo) & (newton < hi)
            move = np.where(done, 0.0, newton - price)
            if np.all(done | (np.abs(move) <= NEWTON_TOL * price)):
                # last step: move the demand along its derivative
                move = np.where(inside, move, 0.0)
                price = price + move
                xe = np.clip(xe + dxdp * move[own], 0.0, self.edges.box)
                break
            if done.any() or not inside.all():  # else each price takes its Newton step
                newton = np.where(inside, newton, 0.5 * (lo + hi))
                newton = np.where(~inside & (lo == 0.0) & ~tried_zero, 0.0, newton)
                newton = np.where(done, price, newton)
            price = newton
            x_warm = xe
        lam[self.nodes] = price
        x[self.index] = xe


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v rounded once (``math.fsum``): its bits depend on no BLAS kernel."""
    return math.fsum((u * v).tolist())


class _Dual(_Demand):
    """All edges, ordered by kind (``ends`` in that order): the dual at a
    fixed proximal centre, and a projected Newton step on it."""

    def __init__(self, objective: _Edges, ends, budgets):
        super().__init__(objective, np.arange(len(objective.box)))
        self.ends = ends[:, self.index]
        self.budgets = budgets

    def load(self, v):
        """Each player's sum of v over its edges."""
        n = len(self.budgets)
        return np.bincount(self.ends[0], v, n) + np.bincount(self.ends[1], v, n)

    def at(self, lam, x_warm, center):
        """The demand at prices lam, its derivative in the edge price, and
        the dual, the flat edges' proximal terms included."""
        p = lam[self.ends[0]] + lam[self.ends[1]]
        x, dxdp = self.demand(p, x_warm, center)
        value = self.edges.value(x) - p * x - 0.5 * self.edges.rho * (x - center) ** 2
        return x, dxdp, math.fsum(value.tolist()) + _dot(lam, self.budgets)

    def step(self, lam, x, center, ceiling):
        """One Newton step from prices lam: its prices and demand, or None if
        it leaves lam or does not lower the dual.  Gradient: budget minus
        load; Hessian: a signless Laplacian weighted by -dx/dp, solved by
        Jacobi-preconditioned CG on the players not fixed (at price 0 within
        budget); the step is projected onto [0, ceiling]."""
        x, dxdp, dual = self.at(lam, x, center)
        r, diag = self.load(x) - self.budgets, self.load(-dxdp)  # r: minus the gradient
        free = (diag > 0.0) & ((lam > 0.0) | (r > 0.0))
        if not free.any():
            return None
        r = np.where(free, r, 0.0)
        d, s = np.zeros_like(lam), np.where(free, r / diag, 0.0)
        rz, stop = _dot(r, s), NEWTON_TOL**2 * _dot(r, r)
        for _ in range(MAX_SOLVE_STEPS):
            q = np.where(free, self.load(-dxdp * (s[self.ends[0]] + s[self.ends[1]])), 0.0)
            sq = _dot(s, q)
            if not sq > NEWTON_TOL * _dot(s * diag, s):  # next to no curvature along s
                break
            d += rz / sq * s
            r -= rz / sq * q
            if _dot(r, r) <= stop:
                break
            z = np.where(free, r / diag, 0.0)
            rz, last = _dot(r, z), rz
            s = z + rz / last * s
        new = np.clip(lam + d, 0.0, ceiling)
        x, _, lower = self.at(new, x, center)
        return (new, x) if lower < dual and (new != lam).any() else None


def global_optimum(
    spec: GameSpec, config: OptimizerConfig | None = None
) -> OptimumResult:
    """Maximize total welfare over symmetric matched profiles, with a
    duality-gap certificate.

    The problem, max sum_e f_e(x_e) with f_e = w_ij u_ij + w_ji u_ji over
    x_e >= 0 and one budget row per player, is a network utility
    maximization, solved by dual decomposition.  Each budget gets a price
    lam_i >= 0; at prices lam, edge (i, j) demands the x in
    [0, min(beta_i, beta_j)] maximizing f(x) - (lam_i + lam_j) x.  An
    iteration moves all prices by one projected Newton step on the dual (as
    in Wei, Ozdaglar and Jadbabaie's distributed Newton method); if that does
    not lower the dual, a sweep settles them instead, Gauss-Seidel over the
    colour classes of a greedy colouring, each player at the price where its
    demand meets its budget (0 if its demand at price 0 fits).
    Flat edges (linear or power-1 utilities, alone or beside a saturated
    capped quadratic) have set-valued demand; a proximal term centred on
    their previous demand makes it unique (a proximal-point step each time).

    After each iteration the dual function at lam, with each edge's maximum
    bounded by the tangent at its demand, is an upper bound on the optimum
    whatever the accuracy of the demand; the demand scaled down at every
    overfull player is feasible, and its welfare a lower bound.  The best of
    each is kept.  The iterations stop once the gap is within gap_tol *
    max(1, welfare) (``certified``) or after max_iters.  Restricting to
    matched profiles loses nothing: match-down turns any profile into a
    matched one with identical welfare.  Raises ValueError with the first
    :func:`~netalloc.game.validate_game` violation of an invalid spec.
    """
    bad = validate_game(spec).violations
    if bad:
        raise ValueError(bad[0])
    config = config or OptimizerConfig()
    edges = sorted(spec.edges)
    m = len(edges)
    if m == 0:
        return OptimumResult(SymmetricProfile({}), 0.0, 0.0, True, 0)

    n = spec.n
    budgets = np.array([spec.budgets.get(i, 0.0) for i in range(n)])
    whole = _Dual(_Edges.build(spec, edges), np.array(edges, dtype=np.int64).T, budgets)
    objective, ends, box = whole.edges, whole.ends, whole.edges.box  # by kind
    classes = [_PriceClass(c, objective, ends, budgets) for c in _colour_classes(spec)]
    ceiling = np.zeros(n)  # no optimal price is above its sweep's bracket
    for cls in classes:
        ceiling[cls.nodes] = cls.ceiling
    lam, x = np.zeros(n), np.zeros(m)
    upper, lower, best = math.inf, -math.inf, x
    certified, iterations = False, 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, config.max_iters + 1):
            center = x.copy()
            step = whole.step(lam, x, center, ceiling)
            if step is not None:
                lam, x = step
            else:
                for cls in classes:
                    cls.settle(lam, x, center)

            price = lam[ends[0]] + lam[ends[1]]
            gain = objective.slopes(x, second=False)[0] - price
            tangent = np.maximum(
                np.where(box > x, gain * (box - x), 0.0),
                np.where(x > 0.0, -gain * x, 0.0),
            )
            dual = np.sum(objective.value(x) - price * x + tangent) + _dot(lam, budgets)
            load = whole.load(x)
            scale = np.where(load > budgets, budgets / load, 1.0)
            feasible = x * np.minimum(scale[ends[0]], scale[ends[1]])
            primal = float(np.sum(objective.value(feasible)))
            upper = min(upper, float(dual))
            if primal > lower:
                lower, best = primal, feasible
            if upper - lower <= config.gap_tol * max(1.0, lower):
                certified = True
                break

    best = best[np.argsort(whole.index)]  # back in edge order
    amounts = {edges[e]: float(best[e]) for e in range(m)}
    return OptimumResult(
        profile=SymmetricProfile(amounts),
        welfare=lower,
        # a gap closed exactly can leave the two sums a rounding apart
        upper_bound=max(upper, lower),
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
        if size > BRUTE_FORCE_LIMIT:
            raise ValueError(
                f"brute-force optimum search space exceeds the limit "
                f"{BRUTE_FORCE_LIMIT} (>= {size:.0f})"
            )

    pairs = [
        (spec.weights[(i, j)], spec.utilities[(i, j)], spec.weights[(j, i)], spec.utilities[(j, i)])
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


def _require_finite(**params) -> None:
    """Reject a NaN or infinite float parameter, naming it."""
    for name, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _grid_parameters(eps, beta) -> tuple[Fraction, Fraction]:
    """The skewed grid's eps and beta as exact rationals, checked: both
    finite, beta > 0 and 0 < eps < min(1/2, beta/2)."""
    _require_finite(eps=eps, beta=beta)
    e = _as_fraction(eps)
    b = _as_fraction(beta)
    if not b > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not (0 < e < min(Fraction(1, 2), b / 2)):
        raise ValueError(
            f"eps must be in (0, min(1/2, beta/2)), got eps={eps} beta={beta}"
        )
    return e, b


def _grid_reference_utilities(eps, beta) -> tuple[Fraction, Fraction]:
    """Exact per-player utility of the skewed grid's high and low matched
    reference profiles."""
    e, b = _grid_parameters(eps, beta)
    half = Fraction(1, 2)
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
