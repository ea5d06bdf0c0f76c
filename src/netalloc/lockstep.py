"""Lockstep batches: :func:`run_batch` holds a batch's runs as flat arrays
(proposals and :func:`~netalloc.bestresponse.edge_terms` by edge id, each
player's slack, win count, status and utility) and advances all unfinished
runs one round per numpy step, as :class:`~netalloc.dynamics._SeqState` does,
with its start check, exchange margins and law messages.  Every float is the
scalar engine's: its operations in its order, ``np.sqrt`` rounding as
``math.sqrt``, sums by ``left_sum`` over the first axis; ``_fits`` takes
``math.fsum`` where its error bound cannot decide.  A step's cost is numpy
calls, not arithmetic, so each part of a response is one pass over all rows:
the polish's adds are ranked at once, two finish nudges share one fit, and cap
matching is one running sum.  The start is filled 8 players a pass, and each
run's mover is drawn from its own ``getrandbits`` by ``randrange``'s rule.
"""

from __future__ import annotations

import random
from itertools import repeat, starmap

import numpy as np

from . import bestresponse, dynamics
from .game import Behavior, FrequencyProfile, GameSpec, check_feasible, left_sum, require_valid
from .utility import INF, SQRT


def qualifies(spec: GameSpec) -> bool:
    """One degree d >= 1, budgets in (0, 2**53) quanta, sqrt with w > 0."""
    rows = spec.rows
    return bool(rows) and all(
        len(row.neighbors) == len(rows[0].neighbors) > 0
        and row.budget is not None and row.budget > 0
        and all(w > 0.0 and u.family == SQRT for w, u in zip(row.weights, row.utils))
        for row in rows
    )


def _terms(w, a, cap, eta):
    """``edge_terms`` of sqrt edges with positive weights, elementwise."""
    v = w * np.sqrt(np.maximum(np.add.outer((-1, 0, 1), a), 0) * eta)  # a - 1, a, a + 1
    up = np.where(a < cap, v[2] - v[1], -INF)
    return v[1], up, np.where(a > 1, v[1] - v[0], np.where(a > 0, v[1], INF))


def _best_move(up, down, can_add):
    """``best_move`` of each row, (gain, src, dst), with its tie rules (argmax
    and argmin take the first of equal gains and of equal losses)."""
    rows = np.arange(len(up))
    k, j = up.argmax(1), down.argmin(1)
    up1, down1 = up[rows, k], down[rows, j]
    gain = np.where(can_add, up1, up1 - down1)
    src, dst = np.where(can_add, -1, j), k
    same = ~can_add & (j == k)
    if same.any():  # k gives to the runner-up gain, or the runner-up loss to k
        up, down = up.copy(), down.copy()
        up[rows, k], down[rows, k] = -INF, INF
        k2, j2 = up.argmax(1), down.argmin(1)  # k itself only if no move gains
        give, take = up[rows, k2] - down1, up1 - down[rows, j2]
        first = (give > take) | ((give == take) & (k < j2))
        gain = np.where(same, np.where(first, give, take), gain)
        src = np.where(same, np.where(first, k, j2), src)
        dst = np.where(same, np.where(first, k2, k), dst)
    return gain, src, dst


def _fits(targets, budget):
    """``bestresponse._fits`` of each row (L x ... x d targets, L budgets):
    TwoSum adds the targets to -budget, so only the sum of its exact errors
    rounds (by < d - 1 ulps); ``math.fsum`` decides where that bound cannot."""
    total = budget.reshape(-1, *(1,) * (targets.ndim - 2)) * -1.0
    errors = magnitude = 0.0
    for k in range(targets.shape[-1]):
        t = targets[..., k]
        s = total + t
        back = s - total
        e = (total - (s - back)) + (t - back)
        errors, magnitude, total = errors + e, magnitude + np.abs(e), s
    excess = total + errors
    bound = magnitude * ((targets.shape[-1] + 3) * dynamics.EXCHANGE_ULP)
    fit = excess <= 0.0
    for k in zip(*np.nonzero(~((np.abs(excess) > bound) | (bound == 0.0)))):
        fit[k] = bestresponse._fits(targets[k].tolist(), int(budget[k[0]]))
    return fit


def _respond(w, caps, budget, optimistic, eta):
    """Each row's grid ``best_response`` (L x d weights and caps): proposals,
    terms (3 x L x d), utility."""
    eff = np.minimum(caps, budget[:, None])
    leave = np.where(eff > 0, w * (0.5 / np.sqrt(eff * eta)), INF)
    rows = np.arange(len(caps))

    def targets_at(delta):  # L x P levels -> L x P x d targets
        x = delta[:, :, None]
        m = x / w[:, None]
        t = np.minimum(0.25 / (m * m) / eta, eff[:, None])  # inverse marginal
        return np.where(x < leave[:, None], eff[:, None], t)  # 0 where not live

    # the bisection's bracket: the last breakpoint over budget, the first fit
    base = eff.sum(1) <= budget
    at_leave = targets_at(leave)
    fit = _fits(at_leave, budget)
    above = np.where(fit, leave, INF)
    top = above.argmin(1)
    lo, hi = np.where(fit, 0.0, leave).max(1), above[rows, top]
    targets = np.where((hi < INF)[:, None], at_leave[rows, top], 0.0)  # at hi
    rest = budget - np.where(leave >= hi[:, None], eff, 0).sum(1)
    group = leave < hi[:, None]
    level = 0.5 * np.sqrt(left_sum(np.where(group, w * w, 0.0).T) / (rest * eta))
    delta = np.where(level > lo, level, lo)
    nudge = np.where(delta > 0.0, delta, hi) * bestresponse.FINISH_REL_NUDGE
    go = ~base & (rest > 0) & group.any(1)
    for s in range(0, bestresponse.FINISH_STEPS, 2):  # two nudges a pass
        if not (go := go & (delta < hi)).any():
            break
        levels = np.stack([delta, delta + nudge], 1)
        fit = _fits(step := targets_at(levels), budget)
        second = go & ~fit[:, 0] & (levels[:, 1] < hi) & (s + 1 < bestresponse.FINISH_STEPS)
        hit = np.stack([go, second], 1) & fit
        targets = np.where(hit.any(1)[:, None], step[rows, hit.argmax(1)], targets)
        go = second & ~fit[:, 1]
        delta = np.where(go, levels[:, 1] + nudge * 8.0, delta)
        nudge = np.where(go, nudge * 64.0, nudge)
    # floors, then the single-quantum polish
    alloc = np.floor(np.where(base[:, None], eff, targets)).astype(np.int64)
    spare = budget - alloc.sum(1)
    if (adds := spare > 0).any():
        _place_adds(w, alloc, caps, spare, adds, eta)
    terms = np.array(_terms(w, alloc, caps, eta))
    active, limit, moves = True, spare + bestresponse.POLISH_MAX_EXCHANGES, 0
    while (active := active & (moves < limit)).any():
        gain, src, dst = _best_move(terms[1], terms[2], spare > 0)
        if not (active := active & (gain > bestresponse.POLISH_MIN_GAIN)).any():
            break
        r = np.flatnonzero(active)
        src, dst = src[r], dst[r]
        spare[r[src < 0]] -= 1
        alloc[r[src >= 0], src[src >= 0]] -= 1
        alloc[r, dst] += 1
        terms[:] = _terms(w, alloc, caps, eta)  # the same bits where unchanged
        moves += 1
    if ((fill := spare > 0)[:, None] & (alloc < caps)).any():  # cap matching, ascending index
        room = np.maximum(caps - alloc, 0).cumsum(1)
        took = np.minimum(room, np.where(fill, spare, 0)[:, None])
        alloc += np.diff(took, prepend=0)
        spare -= took[:, -1]
        terms[:] = _terms(w, alloc, caps, eta)
    if (spread := optimistic & (spare > 0)).any():
        lose = alloc >= caps  # optimistic disposal, round-robin from the first
        q, extra = np.divmod(spare, np.maximum(lose.sum(1), 1))
        share = q[:, None] + (lose.cumsum(1) <= extra[:, None])
        alloc += np.where(spread[:, None] & lose, share, 0)
    return alloc, terms, left_sum(terms[0].T)


def _place_adds(w, alloc, caps, spare, rows, eta):
    """The polish's first adds on ``rows`` in place: one at a time, up to d of
    them take the largest of the first d gains of each neighbor, ties to the
    lowest, where no neighbor's gains rise (near 2**53 their floats can)."""
    d = alloc.shape[1]
    a = alloc[:, :, None] + np.arange(d + 1)
    v = w[:, :, None] * np.sqrt(a * eta)
    gains = np.where(a[..., :-1] < caps[:, :, None], v[..., 1:] - v[..., :-1], -INF)
    rows = rows & (gains[..., 1:] <= gains[..., :-1]).all((1, 2))
    order = np.argsort(-gains.reshape(len(a), -1), 1, kind="stable")
    rank = np.argsort(order, 1).reshape(gains.shape)
    first = (rank < np.minimum(spare, d)[:, None, None]) & rows[:, None, None]
    count = (first & (gains > bestresponse.POLISH_MIN_GAIN)).sum(2)
    alloc += count
    spare -= count.sum(1)


def _random_start(w, budget, eta, seeds):
    """``init_profile``'s ``RandomFeasible`` start of each seed's run (n x d
    weights), R x 2|E| proposals; ``astype`` floors the shares (all >= 0)."""
    n, d = w.shape
    draws = (starmap(random.Random(s).random, repeat((), n * d)) for s in seeds)
    alloc = np.array([np.fromiter(x, float, n * d) for x in draws]).reshape(-1, n, d)
    totals = left_sum(np.moveaxis(alloc, 2, 0))
    alloc = (alloc * budget[:, None] / totals[..., None]).astype(np.int64)
    spare = budget - alloc.sum(2)
    while (over := np.nonzero(spare < 0))[0].size:  # give back, first largest
        alloc[(*over, alloc[over].argmax(1))] -= 1
        spare[over] += 1
    scores = w * (0.5 / np.sqrt((alloc + dynamics.MARGINAL_SHIFT) * eta))
    while (left := np.nonzero((spare > 0) & (scores.max(2) > 0.0)))[0].size:
        top = (*left, scores.argmax(2)[left])  # the first highest score
        alloc[top] += 1
        spare[left] -= 1
        shifted = alloc[top] + dynamics.MARGINAL_SHIFT
        scores[top] = w[top[1:]] * (0.5 / np.sqrt(shifted * eta))
    return alloc.reshape(len(seeds), n * d)


def _below(bits, counts):
    """``randrange(c)`` of each run's ``getrandbits`` and count c >= 1, by
    its rule: k = c.bit_length() bits, drawn again until below c."""
    picks = []
    for g, c in zip(bits, counts):
        k = c.bit_length()
        while (x := g(k)) >= c:
            pass
        picks.append(x)
    return picks


class _Runs:
    """A batch's runs, flat: player i at run * n + i, edge x at run * 2|E| + x."""

    def __init__(self, spec: GameSpec, seeds, tol: float):
        rows, rev = spec.rows, spec.rev
        self.tol, self.eta = tol, spec.eta
        self.n, self.d = n, d = spec.n, len(rows[0].neighbors)
        self.cols, self.rev = np.arange(d), np.array(rev)
        self.nbr = np.array([j for row in rows for j in row.neighbors])
        self.w = np.array([w for row in rows for w in row.weights])
        self.budget = np.array([row.budget for row in rows])
        self.optimistic = np.array([row.behavior is Behavior.OPTIMISTIC for row in rows])
        self.bits = [random.Random(s).getrandbits for s in seeds]
        start = _random_start(self.w.reshape(n, d), self.budget, self.eta, seeds).reshape(-1, n, d)
        if (bad := ((start.sum(2) > self.budget) | (start < 0).any(2)).any(1)).any():
            first = start[bad.argmax()].ravel().tolist()  # check_feasible raises its error
            check_feasible(spec, FrequencyProfile(dict(zip(spec.directed_edges, first))))
        self.f = start.reshape(-1)
        self.terms = np.empty((3, self.f.size))
        self.slack, self.wins = np.empty((2, len(seeds) * n), np.int64)
        self.status = np.zeros(len(seeds) * n, bool)
        self.util = np.empty(len(seeds) * n)  # each player's utility
        self.failed: dict[int, str] = {}  # a run's InvariantViolation message
        # a run's first stable-set loss since its slack changed: round, players
        self.loss_round, self.lost = np.zeros(len(seeds), np.int64), {}
        offset = np.arange(len(seeds))[:, None] * n
        for lo in range(0, n, 8):  # 8 players a pass keep the temporaries small
            p = (offset + np.arange(lo, min(lo + 8, n))).ravel()
            i, e, x, back = self._rows(p)
            own, caps = self.f[x], self.f[back]
            agreed = np.minimum(own, caps)
            self.terms[:, x] = _terms(self.w[e], agreed, caps, self.eta)
            self.slack[p] = self.budget[i] - agreed.sum(1)
            self.wins[p] = (own < caps).sum(1)
            self.status[p], self.util[p] = self._status(p)

    def _rows(self, p):
        """Players p's index, edge ids, and flat edges and reverse edges."""
        i = p % self.n
        e = i[:, None] * self.d + self.cols
        x = p[:, None] * self.d + self.cols
        return i, e, x, (x - e) + self.rev[e]

    def _status(self, p):
        """``_SeqState._can_improve`` of each player p, and its utility."""
        i = p % self.n
        util, up, down = self.terms[:, p[:, None] * self.d + self.cols]
        budget = self.budget[i]
        gain = _best_move(up, down, self.slack[p] >= 1)[0]
        utility = left_sum(util.T)
        z = utility + budget * np.maximum(up.max(1), 0.0)
        winning = self.wins[p] > 0
        status = winning & (gain > self.tol + dynamics.exchange_margin(z, budget))
        ulps = dynamics.exchange_ulps(z, budget, self.d)
        unsettled = winning & ~status & ~(budget * np.maximum(gain, 0.0) + ulps < self.tol)
        if (k := np.flatnonzero(unsettled)).size:  # the response's gain settles it
            i, e, _, back = self._rows(p[k])
            best = _respond(self.w[e], self.f[back], budget[k], self.optimistic[i], self.eta)[2]
            status[k] = best - utility[k] > self.tol
        return status, utility

    def run(self, max_rounds: int):
        """Each run's convergence and rounds, or its ``InvariantViolation``: on
        a valid spec, the law checks (stable-set loss too) guard the bookkeeping."""
        f, terms, slack, wins = self.f, self.terms, self.slack, self.wins
        status, util, n, fail = self.status, self.util, self.n, self.failed.setdefault
        grid = status.reshape(len(self.bits), n)
        rounds = np.zeros(len(self.bits), np.int64)
        t = 0
        while t < max_rounds:
            live = grid.any(1)
            if self.failed:
                live[list(self.failed)] = False
            if not (rr := np.flatnonzero(live)).size:
                break
            t += 1
            rounds[rr] = t
            counts = (movers := grid[rr]).sum(1)
            picks = _below([self.bits[r] for r in rr.tolist()], counts.tolist())
            p = rr * n + np.flatnonzero(movers)[counts.cumsum() - counts + picks] % n
            ii, e, x, back = self._rows(p)
            j = (p - ii)[:, None] + self.nbr[e]
            own, caps = f[x], f[back]
            budget = self.budget[ii]
            alloc, new_terms, realized = _respond(self.w[e], caps, budget, self.optimistic[ii], self.eta)
            gain = realized - util[p]
            for k in np.flatnonzero(~(gain > self.tol)).tolist():
                fail(int(rr[k]), dynamics.weak_move_message(ii[k], t, float(gain[k])))
            for k in np.flatnonzero(dynamics.overspends(total := alloc.sum(1), budget)).tolist():
                fail(int(rr[k]), dynamics.over_budget_message(ii[k], total[k], budget[k]))
            agreed = np.minimum(alloc, caps)
            moved = agreed - np.minimum(own, caps)
            spent = moved.sum(1)
            won_j = (caps < alloc).astype(int) - (caps < own)
            slack[p] -= spent
            slack[j] -= moved
            wins[p] += (alloc < caps).sum(1) - (own < caps).sum(1)
            wins[j] += won_j
            changed = alloc != own
            f[x] = alloc
            # redone terms keep their bits where amount and win side stayed
            terms[:, back] = _terms(self.w[self.rev[e]], agreed, alloc, self.eta)
            terms[:, x] = new_terms
            util[p], status[p] = realized, False
            status[cj], util[cj] = self._status(cj := j[changed])
            for k in np.flatnonzero(spent < 0).tolist():
                now = int(slack.reshape(-1, n)[rr[k]].sum())
                fail(int(rr[k]), dynamics.slack_rise_message(t, now + 2 * spent[k], now, ii[k]))
            self.loss_round[rr[spent != 0]] = 0
            # a neighbor's win count that left 0 (it equals its change) on the
            # suffix; a mover could improve, so its own count was positive
            if (calm := (spent == 0) & (self.loss_round[rr] == 0)).any():
                left = calm[:, None] & ((wins_j := wins[j]) != 0) & (wins_j == won_j)
                for k in np.flatnonzero(left.any(1)).tolist():
                    self.loss_round[rr[k]] = t
                    self.lost[int(rr[k])] = sorted((j[k][left[k]] % n).tolist())
        converged = ~grid.any(1)
        for r in np.flatnonzero(converged & (self.loss_round > 0)).tolist():
            fail(r, dynamics.stable_loss_message(int(self.loss_round[r]), self.lost[r]))
        if self.failed:
            raise dynamics.InvariantViolation(self.failed[min(self.failed)])
        return converged, np.where(converged, rounds, max_rounds)


def run_batch(spec: GameSpec, config: dynamics.DynamicsConfig, seeds: list[int]):
    """(converged, rounds, final welfare) of each seed's run, and the final
    proposals by edge id, a row per run; ``spec`` must qualify, and be valid
    (else ValueError with its first violation, as ``run_sequential``)."""
    require_valid(spec)
    with np.errstate(all="ignore"):
        batch = _Runs(spec, seeds, config.tol)
        converged, rounds = batch.run(config.max_rounds)
    # the kept utilities are player_utility's, added in social_welfare's order
    welfare = left_sum(batch.util.reshape(len(seeds), batch.n).T)
    finals = batch.f.reshape(len(seeds), batch.n * batch.d)
    return list(zip(converged.tolist(), rounds.tolist(), welfare.tolist())), finals
