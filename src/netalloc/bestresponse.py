"""Exact single-player best response against a fixed proposal profile.

A player maximizes sum_j w_j * u_j(min(f_j, cap_j)) over her own proposals
f_j >= 0 with sum_j f_j <= budget, where cap_j is the neighbor's standing
proposal to her.  The maximizer has water-filling structure: there is a level
``delta >= 0`` (the budget's shadow price) such that each neighbor receives
min(cap_j, x_j) where x_j is the point at which the weighted marginal
w_j * u_j'(x) drops to delta.  We find delta exactly: a binary search over
the breakpoints of the monotone total-demand function brackets it, then a
closed form (one utility family) or Newton's method (several) solves for it
on the neighbors strictly between cap and zero there.  Where delta is a
linear neighbor's weight, at which its demand jumps from its cap to 0, that
neighbor takes what the others leave.  So the targets spend the whole budget
(up to rounding) unless every neighbor is capped or satiated at delta = 0.

Three clean-up phases follow the continuous core:

1. grid snap -- on the eta grid the targets are floored, then the best
   single-quantum move (:func:`best_move` over the per-neighbor terms of
   :func:`edge_terms`) is applied until none gains more than 1e-13: an add
   while budget is spare, which places the few quanta the floors drop, else
   an exchange.  A separable concave objective with one budget is at a grid
   optimum exactly when no such move gains, so this one rule makes the grid
   allocation optimal; the sequential engine's exchange test reads the same
   two functions, and takes a grid response's final terms as the mover's
   own.  Off the grid the targets are the allocation;
2. cap matching -- remaining budget is parked on still-unmatched neighbors up
   to their caps, ascending index.  Apart from budget that no neighbor's
   marginal pays for, that is at most the quanta the floors drop, fewer than
   one per neighbor plus rounding, each changing the mover's utility by at
   most 1e-13 (phase 1 left no larger gain).  It keeps two guarantees exact
   even for utilities with a satiation plateau: a finished mover never holds
   both spare budget and an unmatched over-proposing neighbor, and her
   realized interaction total never drops below its pre-move value;
3. optimistic disposal -- an optimistic player spreads any remaining budget
   over matched neighbors in round-robin quanta (ascending index), proposing
   above their caps in the hope of future reciprocation.  A pessimistic
   player keeps the leftover as slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .game import (
    Behavior,
    FrequencyProfile,
    GameSpec,
    PlayerId,
    left_sum,
    player_utility,
    win_set,
)
from .utility import INF, UtilitySpec, shared_level

# Newton on the active set converges in a few steps; the caps only bound the
# work on degenerate input.  A root found to within rounding is nudged up by
# at most FINISH_STEPS geometric steps until the summed targets fit.
NEWTON_MAX_STEPS = 50
NEWTON_REL_STEP = 1e-15
FINISH_REL_NUDGE = 2.0**-50
FINISH_STEPS = 17

# the exchange polish applies only moves that gain more than this, and at
# most this many exchanges besides its adds (at most the spare quanta)
POLISH_MIN_GAIN = 1e-13
POLISH_MAX_EXCHANGES = 100_000

BRUTE_FORCE_LIMIT = 10_000_000


@dataclass(frozen=True)
class BRResult:
    """Outcome of one best-response computation.

    ``proposals`` is the player's row: its amounts in eta units in neighbor
    order (ints when the player's caps are, see :func:`best_response`).
    ``realized_utility`` is computed from the agreed amounts min(f_j,
    cap_j), not from the raw proposals.  ``terms`` holds three lists in neighbor order, the
    :func:`edge_terms` utilities, gains and losses at the agreed amounts
    with room up to the caps, of a grid response of a player with
    neighbors and a positive budget; it is None otherwise.  On the grid
    ``realized_utility`` is the ``left_sum`` of the utilities.
    """

    proposals: list[float]
    realized_utility: float
    terms: tuple[list[float], list[float], list[float]] | None = None


def _fits(targets: Sequence[float], budget_units: float) -> bool:
    """Whether the targets sum to at most the budget, compared exactly (a
    tiny demand beside a large one is not rounded away)."""
    return math.fsum([-budget_units, *targets]) <= 0.0


def _water_fill(
    weights: Sequence[float],
    utils: Sequence[UtilitySpec],
    zero_marginals: Sequence[float],
    caps_units: Sequence[float],
    budget_units: float,
    eta: float,
) -> tuple[float, list[float]]:
    """Continuous core: returns (delta, per-neighbor targets in eta units).
    ``zero_marginals`` are the w_k u_k'(0) of the player's row
    (:class:`~netalloc.game.PlayerRow`).

    Targets equal min(effective cap, point where the weighted marginal falls
    to delta), and delta is the smallest level at which they sum to at most
    the budget (up to rounding; their exact sum never exceeds the budget).

    The demand D(delta) = sum_k min(eff_k, x_k(delta / w_k) / eta) is
    non-increasing and changes form only at breakpoints: where a neighbor
    leaves its cap (delta = w_k u_k'(eff_k eta)) or drops to zero (delta =
    w_k u_k'(0); both at w_k for a linear neighbor, whose demand jumps
    there).  A binary search over the sorted breakpoints brackets the root;
    inside the bracket the set of neighbors strictly between cap and zero
    is fixed and the rest of the budget is shared by them alone.  That is
    solved in closed form when they are of one family, else by Newton's
    method, which rises monotonically to the root from a lower bound because
    every interior demand is convex and decreasing in delta.  A root at or
    past the bracket's top returns the top.  Only a linear neighbor's demand
    jumps, so the demand just below the top overfills the budget only by
    the caps of the linear neighbors whose jump the top is; indifferent at
    that level, they take the budget the others leave, ascending index, each
    up to its cap.  The targets thus spend the budget unless they fit at
    delta = 0.
    """
    deg = len(weights)
    eff = [c if c < budget_units else budget_units for c in caps_units]
    live = [k for k in range(deg) if weights[k] > 0.0 and eff[k] > 0]
    # both breakpoint lists are read at live positions only
    zero = zero_marginals
    leave = [INF] * deg
    for k in live:
        leave[k] = weights[k] * utils[k].marginal(eff[k] * eta)

    def targets_at(delta: float) -> list[float]:
        out = [0.0] * deg
        for k in live:
            if delta < leave[k]:
                out[k] = eff[k]
            elif delta < zero[k]:
                t = utils[k].inverse_marginal(delta / weights[k]) / eta
                out[k] = eff[k] if t > eff[k] else t
        return out

    base = targets_at(0.0)
    if _fits(base, budget_units):
        return 0.0, base
    points = sorted({p for k in live for p in (leave[k], zero[k]) if 0.0 < p < INF})

    # the demand is over budget at points[lo_i] (or at 0) and fits at
    # points[hi_i] (taken to fit at infinity when no breakpoint does)
    lo_i, hi_i = -1, len(points)
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if _fits(targets_at(points[mid]), budget_units):
            hi_i = mid
        else:
            lo_i = mid
    lo = points[lo_i] if lo_i >= 0 else 0.0
    hi = points[hi_i] if hi_i < len(points) else INF

    held = [budget_units]  # the budget less the caps that bind throughout
    groups: dict[tuple, list[int]] = {}
    for k in live:
        if leave[k] >= hi:
            held.append(-eff[k])
        elif zero[k] > lo:
            groups.setdefault((utils[k].family, utils[k].a), []).append(k)
    rest = math.fsum(held)
    if rest > 0 and groups:
        # every family's own root is a lower bound: the others only add demand
        goal = rest * eta
        delta = lo
        for members in groups.values():
            level = shared_level([(weights[k], utils[k]) for k in members], goal)
            if level > delta:
                delta = level
        if len(groups) > 1:
            active = [k for members in groups.values() for k in members]
            for _ in range(NEWTON_MAX_STEPS):
                if delta >= hi:
                    break
                excess = -goal
                slope = 0.0
                for k in active:
                    w, u = weights[k], utils[k]
                    m = delta / w
                    x = u.inverse_marginal(m)
                    excess += x
                    if x > 0.0:
                        slope += u.inverse_marginal_slope(m, x) / w
                if excess <= 0.0 or slope >= 0.0:
                    break
                step = excess / -slope
                delta += step
                if step <= NEWTON_REL_STEP * delta:
                    break

        # rounding may leave the summed targets a hair over budget: step up
        nudge = (delta if delta > 0.0 else hi) * FINISH_REL_NUDGE
        for _ in range(FINISH_STEPS):
            if delta >= hi:
                break
            targets = targets_at(delta)
            if _fits(targets, budget_units):
                return delta, targets
            delta += nudge
            nudge *= 8.0

    # The root is the bracket's top.  Linear neighbors whose demand jumps
    # from the cap to 0 there are indifferent at that level, so they take
    # the budget the others leave, ascending index, each up to its cap.
    targets = targets_at(hi)
    last = -1
    for k in live:
        if leave[k] == zero[k] == hi < INF:
            left = -math.fsum([-budget_units, *targets])
            if left <= 0.0:
                break
            targets[k] = eff[k] if eff[k] < left else left
            last = k
    if last >= 0 and not _fits(targets, budget_units):
        # the rounded remainder was at most half an ulp too large
        targets[last] = math.nextafter(targets[last], 0.0)
    return hi, targets


def edge_terms(
    w: float, value, a: int, cap: float, eta: float
) -> tuple[float, float, float]:
    """One neighbor's terms at ``a`` agreed quanta, with room up to ``cap``:
    util = w u(a eta); up = w u((a+1) eta) - util, the gain of one quantum
    more (-inf when a >= cap or w = 0); down = util - w u((a-1) eta), the
    loss of one quantum less (inf at a = 0).  ``value`` is the edge's row
    kernel, u as a plain function (:class:`~netalloc.game.PlayerRow`;
    u(0) = 0 in every family, so util is +0.0 at a = 0 as w u(0) is)."""
    util, up = 0.0, -INF
    down = INF if a == 0 else 0.0
    if w != 0.0:
        if a:
            util = w * value(a * eta)
            down = util - w * value((a - 1) * eta) if a > 1 else util
        if a < cap:
            up = w * value((a + 1) * eta) - util
    return util, up, down


def best_move(
    up: list[float], down: list[float], can_add: bool
) -> tuple[float, int, int]:
    """The best single-quantum move, (gain, src, dst), in O(deg), from the
    :func:`edge_terms` gains and losses of at least one neighbor.

    A move adds a spare quantum to dst (src = -1; only with ``can_add``),
    gaining up[dst], or shifts one from src to dst != src, gaining up[dst]
    - down[src].  The gain is -inf when no move exists.  No loss may be
    negative (weights >= 0, non-decreasing utilities), so with ``can_add``
    the best add is a best move, and an add wins ties.  The best exchange
    pairs the largest gain with the lowest loss; where both are at one
    neighbor k, it is the better of k giving to the runner-up gain and the
    runner-up loss giving to k.  Ties go to the lowest index: the first of
    equal gains, the first of equal losses, then the lower giver.

    A separable concave objective with one budget is at a grid optimum
    exactly when no move gains anything.
    """
    up1 = max(up)
    k = up.index(up1)
    if can_add:
        return up1, -1, k
    down1 = min(down)
    j = down.index(down1)
    if j != k:
        return up1 - down1, j, k
    rest_up = up[:k] + up[k + 1 :]
    if not rest_up:
        return -INF, -1, -1
    rest_down = down[:k] + down[k + 1 :]
    k2 = rest_up.index(max(rest_up))
    j2 = rest_down.index(min(rest_down))
    k2 += k2 >= k
    j2 += j2 >= k
    give = up[k2] - down1  # from k to k2
    take = up1 - down[j2]  # from j2 to k
    if give > take or (give == take and k < j2):
        return give, k, k2
    return take, j2, k


def _polish_exchanges(
    alloc: list[int],
    caps_units: Sequence[int],
    budget_units: int,
    eta: float,
    weights: Sequence[float],
    kernels: Sequence,
    standing: tuple | None = None,
) -> tuple[int, tuple[list[float], list[float], list[float]]]:
    """Apply :func:`best_move` (the largest gain, ties as there) to ``alloc``
    in place while it gains more than ``POLISH_MIN_GAIN``, which leaves a
    grid optimum.  While budget is spare the best move is an add, so this
    also places every quantum the starting floors leave.  Only the giver's
    and the receiver's terms are redone.  No amount passes its cap, so
    ``alloc`` holds the agreed amounts.  Returns the spare quanta and the
    final :func:`edge_terms` lists (utilities, gains, losses).  With
    ``standing`` (:func:`best_response`), a start at its agreed amount
    copies its terms from there; the lists passed in are not changed."""
    deg = len(alloc)

    def settle(k: int) -> None:
        util[k], up[k], down[k] = edge_terms(
            weights[k], kernels[k], alloc[k], caps_units[k], eta
        )

    if standing is None:
        util, up, down = [0.0] * deg, [0.0] * deg, [0.0] * deg
        for k in range(deg):
            settle(k)
    else:
        own, util, up, down = standing
        util, up, down = util[:], up[:], down[:]
        for k, (a, o, c) in enumerate(zip(alloc, own, caps_units)):
            if a != (o if o < c else c):
                settle(k)
    spare = budget_units - sum(alloc)
    for _ in range(spare + POLISH_MAX_EXCHANGES):
        gain, src, dst = best_move(up, down, spare > 0)
        if not gain > POLISH_MIN_GAIN:
            break
        if src < 0:
            spare -= 1
        else:
            alloc[src] -= 1
            settle(src)
        alloc[dst] += 1
        settle(dst)
    return spare, (util, up, down)


def best_response(
    spec: GameSpec,
    profile: FrequencyProfile | None,
    i: PlayerId,
    caps: Sequence[float] | None = None,
    standing: tuple | None = None,
) -> BRResult:
    """Best response of player i against everyone else's standing proposals.

    ``caps`` are the proposals made to i, in its neighbor order, read from
    ``profile`` unless the caller passes them (the sequential engine keeps
    its profile by edge id, and passes no ``profile``).

    Grid rule: the response is on the eta grid (``int`` proposals) exactly
    when every cap ``profile.counts[(j, i)]`` is an ``int``; otherwise it is
    the continuous solution, as analysis code wants for real-valued profiles.
    Either way it starts from the :func:`_water_fill` targets, which spend
    all the budget that some marginal pays for, at any grid size; on the
    grid they are floored and polished by single-quantum moves.  Cap
    matching and optimistic disposal (module docstring) place what is left.

    A grid response carries the polish's per-edge terms (``BRResult.terms``),
    redone on the edges that cap matching raises; disposal above a cap
    leaves the agreed amount at the cap, so its terms stand.  The
    sequential engine installs them as the mover's own and passes them back
    to i's next solve as ``standing``: (own proposals, utilities, gains,
    losses) at the agreed amounts min(own, cap) of an integer profile, so
    such a call is on the grid.  The polish copies an edge's terms where
    its floor is that amount, so the response is the same.
    """
    nbrs, weights, utils, budget, kernels, zero_marginals = spec.index.rows[i]
    if caps is None:
        caps = [profile.counts[(j, i)] for j in nbrs]
    grid = standing is not None or all(isinstance(c, int) for c in caps)
    if not nbrs:
        return BRResult(proposals=[], realized_utility=0.0)

    eta = spec.eta
    deg = len(nbrs)

    if budget <= 0:
        zero = 0 if grid else 0.0
        return BRResult(proposals=[zero] * deg, realized_utility=0.0)

    _, targets = _water_fill(weights, utils, zero_marginals, caps, budget, eta)
    terms = None
    if grid:
        alloc = [int(math.floor(t)) for t in targets]
        leftover, terms = _polish_exchanges(
            alloc, caps, budget, eta, weights, kernels, standing
        )
    else:
        alloc = list(targets)
        leftover = budget - left_sum(alloc)

    # Cap matching: remaining budget parks on unmatched neighbors (no
    # quantum left to place there gains more than POLISH_MIN_GAIN).
    if leftover > (0 if grid else 1e-12 * budget):
        for k in range(deg):
            if leftover <= 0:
                break
            room = caps[k] - alloc[k]
            if room <= 0:
                continue
            take = room if room < leftover else leftover
            alloc[k] += take
            leftover -= take
            if terms is not None:
                util, up, down = terms
                util[k], up[k], down[k] = edge_terms(
                    weights[k], kernels[k], alloc[k], caps[k], eta
                )

    # Optimistic disposal: spread what is left over the (now fully matched)
    # neighborhood, round-robin one quantum at a time -- on the grid each of
    # the m matched neighbors gets leftover // m and the first leftover % m
    # one more.
    if spec.behaviors[i] is Behavior.OPTIMISTIC and leftover > 0:
        lose = [k for k in range(deg) if alloc[k] >= caps[k]]
        if lose:
            if grid:
                q, r = divmod(int(leftover), len(lose))
                for p, k in enumerate(lose):
                    alloc[k] += q + (p < r)
                leftover = 0
            else:
                share = leftover / len(lose)
                for k in lose:
                    alloc[k] += share
                leftover = 0.0

    if terms is not None:
        realized_utility = left_sum(terms[0])
    else:
        realized_utility = 0.0
        for k in range(deg):
            agreed = alloc[k] if alloc[k] < caps[k] else caps[k]
            realized_utility += weights[k] * utils[k].value(agreed * eta)

    return BRResult(alloc, realized_utility, terms)


def is_best_response(
    spec: GameSpec,
    profile: FrequencyProfile,
    i: PlayerId,
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Whether i can improve by more than tol, plus the improvement amount.

    A player with an empty :func:`~netalloc.game.win_set` is best-responding
    by construction: every cap constraint already binds.
    """
    if not win_set(spec, profile, i):
        return True, 0.0
    br = best_response(spec, profile, i)
    improvement = br.realized_utility - player_utility(spec, profile, i)
    return improvement <= tol, improvement


def brute_force_best_response(
    spec: GameSpec, profile: FrequencyProfile, i: PlayerId
) -> tuple[list[int], float]:
    """Exhaustive grid oracle for the best response (small instances only).

    Enumerates every allocation of at most the budget over the neighbors in
    lexicographic order and keeps the first maximizer, so ties resolve to the
    lexicographically smallest allocation; returns it as a row in neighbor
    order, with its utility.
    """
    row = spec.index.rows[i]
    nbrs, weights, utils, budget = row.neighbors, row.weights, row.utils, row.budget
    deg = len(nbrs)
    if deg == 0:
        return [], 0.0
    size = math.comb(budget + deg, deg)
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute-force search would enumerate {size} allocations "
            f"(limit {BRUTE_FORCE_LIMIT})"
        )
    eta = spec.eta
    caps = [profile.counts[(j, i)] for j in nbrs]

    best_alloc: list[int] | None = None
    best_util = -INF
    alloc = [0] * deg

    def recurse(k: int, remaining: int, partial: float) -> None:
        nonlocal best_alloc, best_util
        if k == deg:
            if partial > best_util:
                best_util = partial
                best_alloc = alloc.copy()
            return
        for a in range(remaining + 1):
            alloc[k] = a
            agreed = a if a < caps[k] else caps[k]
            recurse(
                k + 1,
                remaining - a,
                partial + weights[k] * utils[k].value(agreed * eta),
            )
        alloc[k] = 0

    recurse(0, budget, 0.0)
    assert best_alloc is not None
    return best_alloc, best_util
