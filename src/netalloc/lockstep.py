"""Lockstep batches: :func:`run_batch` holds a batch's runs as arrays
(proposals and :func:`~netalloc.bestresponse.edge_terms` by edge id, each
player's slack, win count and status) and advances all unfinished runs one
round per numpy step, as :class:`~netalloc.dynamics._SeqState` does, with its
invariant checks and messages.  Every float is the scalar engine's: its
operations in its order, ``np.sqrt`` rounding as ``math.sqrt``, sums column by
column as ``left_sum`` adds.  ``_fits`` is decided only where an error bound
proves it; a response with one left open, and a status the exchange test
leaves open, are solved by ``best_response`` from the run's arrays.
"""

from __future__ import annotations

import random
from itertools import repeat, starmap

import numpy as np

from . import bestresponse, dynamics
from .game import MAX_BUDGET_UNITS, Behavior, GameSpec
from .utility import INF, SQRT


def qualifies(spec: GameSpec) -> bool:
    """One degree d >= 1, budgets in (0, 2**53) quanta, sqrt with w > 0."""
    rows = spec.index.rows
    return bool(rows) and all(
        len(row.neighbors) == len(rows[0].neighbors) > 0
        and 0 < row.budget < MAX_BUDGET_UNITS
        and all(w > 0.0 and u.family == SQRT for w, u in zip(row.weights, row.utils))
        for row in rows
    )


def _left_sum(a):
    """``left_sum`` along the last axis: the columns added to +0.0 in order."""
    total = np.zeros(a.shape[:-1])
    for k in range(a.shape[-1]):
        total = total + a[..., k]
    return total


def _terms(w, a, cap, eta):
    """``edge_terms`` of sqrt edges with positive weights, elementwise."""
    util = w * np.sqrt(a * eta)
    up = np.where(a < cap, w * np.sqrt((a + 1) * eta) - util, -INF)
    lower = util - w * np.sqrt(np.maximum(a - 1, 0) * eta)
    return util, up, np.where(a > 1, lower, np.where(a > 0, util, INF))


def _best_move(up, down, can_add):
    """``best_move`` of each row, (gain, src, dst), with its tie rules."""
    k, j, up1, down1 = up.argmax(1), down.argmin(1), up.max(1), down.min(1)
    gain = np.where(can_add, up1, up1 - down1)
    src, dst = np.where(can_add, -1, j), k
    same = ~can_add & (j == k)
    if same.any():  # k gives to the runner-up gain, or the runner-up loss to k
        other = np.arange(up.shape[1]) != k[:, None]
        top = np.where(other, up, -INF).max(1)
        low = np.where(other, down, INF).min(1)
        k2 = (other & (up == top[:, None])).argmax(1)
        j2 = (other & (down == low[:, None])).argmax(1)
        give, take = top - down1, up1 - low
        first = (give > take) | ((give == take) & (k < j2))
        exchange = np.where(first, give, take) if up.shape[1] > 1 else -INF
        gain = np.where(same, exchange, gain)
        src = np.where(same, np.where(first, k, j2), src)
        dst = np.where(same, np.where(first, k2, k), dst)
    return gain, src, dst


def _fits(targets, budget):
    """``_fits`` of each row, and whether it is decided: TwoSum adds the targets
    to -budget, so only the sum of its exact errors rounds (by < d - 1 ulps)."""
    total = budget * -1.0
    errors = magnitude = 0.0
    for k in range(targets.shape[-1]):
        t = targets[..., k]
        s = total + t
        back = s - total
        e = (total - (s - back)) + (t - back)
        errors, magnitude, total = errors + e, magnitude + np.abs(e), s
    excess = total + errors
    bound = magnitude * ((targets.shape[-1] + 3) * dynamics.EXCHANGE_ULP)
    return excess <= 0.0, (np.abs(excess) > bound) | (bound == 0.0)


def _respond(w, caps, budget, optimistic, eta, solve):
    """Each row's grid ``best_response`` (L x d weights and caps): proposals,
    terms (3 x L x d), utility; ``solve(k)`` answers a row with a fit open."""
    eff = np.minimum(caps, budget[:, None])
    live = eff > 0
    leave = np.where(live, w * (0.5 / np.sqrt(eff * eta)), INF)

    def targets_at(delta):  # L x P levels -> L x P x d targets
        x = delta[:, :, None]
        m = x / w[:, None]
        t = np.minimum(0.25 / (m * m) / eta, eff[:, None])  # inverse marginal
        return np.where(live[:, None], np.where(x < leave[:, None], eff[:, None], t), 0)

    # the bisection's bracket: the last breakpoint over budget, the first fit
    base = eff.sum(1) <= budget
    fit, sure = _fits(targets_at(leave), budget[:, None])
    unsure = ~base & ~sure.all(1)
    lo, hi = np.where(fit, 0.0, leave).max(1), np.where(fit, leave, INF).min(1)
    rest = budget - np.where(leave >= hi[:, None], eff, 0).sum(1)
    group = live & (leave < hi[:, None])
    level = 0.5 * np.sqrt(_left_sum(np.where(group, w * w, 0.0)) / (rest * eta))
    delta = np.where(level > lo, level, lo)
    nudge = np.where(delta > 0.0, delta, hi) * bestresponse.FINISH_REL_NUDGE
    go = ~base & (rest > 0) & group.any(1)
    targets = targets_at(hi[:, None])[:, 0]
    for _ in range(bestresponse.FINISH_STEPS):
        if not (go := go & (delta < hi)).any():
            break
        step = targets_at(delta[:, None])[:, 0]
        fit, sure = _fits(step, budget)
        unsure |= go & ~sure
        targets[go & fit & sure] = step[go & fit & sure]
        go &= sure & ~fit
        delta = np.where(go, delta + nudge, delta)
        nudge = np.where(go, nudge * 8.0, nudge)
    # floors, then the single-quantum polish
    alloc = np.floor(np.where(base[:, None], eff, targets)).astype(np.int64)
    terms = np.array(_terms(w, alloc, caps, eta))
    spare = budget - alloc.sum(1)

    def settle(r, k):
        terms[:, r, k] = _terms(w[r, k], alloc[r, k], caps[r, k], eta)

    rows = np.arange(len(caps))
    active, limit, moves = ~unsure, spare + bestresponse.POLISH_MAX_EXCHANGES, 0
    while (active := active & (moves < limit)).any():
        r = rows[active]
        gain, src, dst = _best_move(terms[1, r], terms[2, r], spare[r] > 0)
        moving = gain > bestresponse.POLISH_MIN_GAIN
        active[r[~moving]] = False
        r, src, dst = r[moving], src[moving], dst[moving]
        spare[r[src < 0]] -= 1
        give, src = r[src >= 0], src[src >= 0]
        alloc[give, src] -= 1
        alloc[r, dst] += 1
        settle(np.concatenate([give, r]), np.concatenate([src, dst]))
        moves += 1
    for k in range(caps.shape[1]):  # cap matching
        take = np.clip(caps[:, k] - alloc[:, k], 0, np.maximum(spare, 0))
        alloc[:, k] += take
        spare -= take
        settle(rows[take > 0], k)
    lose = alloc >= caps  # optimistic disposal, round-robin from the first
    q, extra = np.divmod(spare, np.maximum(lose.sum(1), 1))
    spread = (optimistic & (spare > 0))[:, None] & lose
    alloc += np.where(spread, q[:, None] + (lose.cumsum(1) <= extra[:, None]), 0)
    for k in np.flatnonzero(unsure).tolist():
        br = solve(k)
        alloc[k], terms[:, k] = list(br.proposals.values()), br.terms
    return alloc, terms, _left_sum(terms[0])


def _random_start(w, budget, eta, seeds):
    """``init_profile``'s ``RandomFeasible`` start of each seed's run (n x d
    weights), R x 2|E| proposals; ``astype`` floors the shares (all >= 0)."""
    n, d = w.shape
    draws = (starmap(random.Random(s).random, repeat((), n * d)) for s in seeds)
    alloc = np.array([np.fromiter(x, float, n * d) for x in draws]).reshape(-1, n, d)
    alloc = (alloc * budget[:, None] / _left_sum(alloc)[..., None]).astype(np.int64)
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


class _Runs:
    """The runs of one batch as arrays (module docstring), a row each."""

    def __init__(self, spec: GameSpec, seeds, tol: float):
        rows, _, rev = spec.index
        self.spec, self.tol, self.eta = spec, tol, spec.eta
        self.n, self.d = n, d = spec.n, len(rows[0].neighbors)
        self.cols, self.rev = np.arange(d), np.array(rev)
        self.nbr = np.array([j for row in rows for j in row.neighbors])
        self.w = np.array([w for row in rows for w in row.weights])
        self.budget = np.array([row.budget for row in rows])
        optimistic = [spec.behaviors[i] is Behavior.OPTIMISTIC for i in range(n)]
        self.optimistic = np.array(optimistic)
        self.rngs = [random.Random(s) for s in seeds]
        self.f = _random_start(self.w.reshape(n, d), self.budget, self.eta, seeds)
        runs = np.arange(len(seeds))
        self.terms = np.empty((3, *self.f.shape))
        self.slack, self.wins = np.empty((2, len(runs), n), np.int64)
        self.status = np.zeros((len(runs), n), bool)
        self.failed: dict[int, str] = {}  # a run's InvariantViolation message
        # a run's first stable-set loss since its slack changed: round, players
        self.loss_round, self.lost = np.zeros(len(runs), np.int64), {}
        for i in range(n):  # a player at a time keeps the temporaries small
            x = slice(i * d, (i + 1) * d)
            own, caps = self.f[:, x], self.f[:, self.rev[x]]
            agreed = np.minimum(own, caps)
            self.terms[:, :, x] = _terms(self.w[x], agreed, caps, self.eta)
            self.slack[:, i] = self.budget[i] - agreed.sum(1)
            self.wins[:, i] = (own < caps).sum(1)
            self.status[:, i] = self._status(runs, np.full(len(runs), i))

    def _solve(self, r: int, i: int):
        """``best_response`` of player i in run r, from its standing row."""
        x = slice(i * self.d, (i + 1) * self.d)
        standing = (self.f[r, x].tolist(), *self.terms[:, r, x].tolist())
        caps = self.f[r, self.rev[x]].tolist()
        return bestresponse.best_response(self.spec, None, i, caps, standing)

    def _status(self, runs, players):
        """``_SeqState._can_improve`` of each (run, player)."""
        r, x = runs[:, None], players[:, None] * self.d + self.cols
        util, up, down = self.terms[:, r, x]
        budget = self.budget[players]
        gain = _best_move(up, down, self.slack[runs, players] >= 1)[0]
        utility = _left_sum(util)
        z = utility + budget * np.maximum(up.max(1), 0.0)
        margin = dynamics.EXCHANGE_REL_MARGIN * z + budget * (
            dynamics.EXCHANGE_QUANTUM_MARGIN + dynamics.EXCHANGE_REL_QUANTUM_MARGIN * z
        )
        winning = self.wins[runs, players] > 0
        status = winning & (gain > self.tol + margin)
        ulps = (16 * budget + 4 * (self.d + 2)) * dynamics.EXCHANGE_ULP
        unsettled = winning & ~status
        unsettled &= ~(budget * np.maximum(gain, 0.0) + ulps * z < self.tol)
        for k in np.flatnonzero(unsettled).tolist():
            br = self._solve(int(runs[k]), int(players[k]))
            status[k] = br.realized_utility - float(utility[k]) > self.tol
        return status

    def run(self, max_rounds: int):
        """Each run's convergence and rounds, or its ``InvariantViolation``."""
        rounds = np.zeros(len(self.rngs), np.int64)
        t = 0
        while t < max_rounds:
            live = self.status.any(1)
            live[list(self.failed)] = False
            if not (rr := np.flatnonzero(live)).size:
                break
            t += 1
            rounds[rr] = t
            counts = self.status[rr].sum(1).tolist()
            picks = [self.rngs[r].randrange(c) for r, c in zip(rr.tolist(), counts)]
            ii = (self.status[rr].cumsum(1) > np.array(picks)[:, None]).argmax(1)
            r, x = rr[:, None], ii[:, None] * self.d + self.cols
            alloc, terms, realized = _respond(
                self.w[x], self.f[r, self.rev[x]], self.budget[ii],
                self.optimistic[ii], self.eta,
                lambda k: self._solve(int(rr[k]), int(ii[k])),
            )
            gain = realized - _left_sum(self.terms[0, r, x])
            for k in np.flatnonzero(~(gain > self.tol)).tolist():
                self.failed.setdefault(int(rr[k]), (
                    f"exchange test picked mover {int(ii[k])} at round {t}, "
                    f"but its best response gains only {float(gain[k])!r}"
                ))
            back, j = self.rev[x], self.nbr[x]
            own, caps = self.f[r, x], self.f[r, back]
            stable_i, stable_j = self.wins[rr, ii] == 0, self.wins[r, j] == 0
            agreed = np.minimum(alloc, caps)
            moved = agreed - np.minimum(own, caps)
            spent = moved.sum(1)
            self.slack[rr, ii] -= spent
            self.slack[r, j] -= moved
            self.wins[rr, ii] += (alloc < caps).sum(1) - (own < caps).sum(1)
            self.wins[r, j] += (caps < alloc).astype(int) - (caps < own)
            changed = alloc != own
            self.f[r, x] = alloc
            # redone terms keep their bits where amount and win side stayed
            self.terms[:, r, back] = _terms(self.w[back], agreed, alloc, self.eta)
            self.terms[:, r, x] = terms
            self.status[rr, ii] = False
            cr, cj = np.broadcast_to(r, j.shape)[changed], j[changed]
            self.status[cr, cj] = self._status(cr, cj)
            for k in np.flatnonzero(spent < 0).tolist():
                now = int(self.slack[rr[k]].sum())
                self.failed.setdefault(int(rr[k]), (
                    f"total slack increased at round {t}: "
                    f"{now + 2 * int(spent[k])} -> {now} (mover {int(ii[k])})"
                ))
            left_i = stable_i & (self.wins[rr, ii] != 0)
            left_j = stable_j & (self.wins[r, j] != 0)
            self.loss_round[rr[spent != 0]] = 0
            first = (spent == 0) & (left_i | left_j.any(1)) & (self.loss_round[rr] == 0)
            for k in np.flatnonzero(first).tolist():
                self.loss_round[rr[k]] = t
                lost = j[k][left_j[k]].tolist() + [int(ii[k])] * bool(left_i[k])
                self.lost[int(rr[k])] = sorted(lost)
        converged = ~self.status.any(1)
        for r in np.flatnonzero(converged & (self.loss_round > 0)).tolist():
            self.failed.setdefault(r, (
                f"stable set shrank on the slack-stable suffix at round "
                f"{int(self.loss_round[r])}: lost players {self.lost[r]}"
            ))
        if self.failed:
            raise dynamics.InvariantViolation(self.failed[min(self.failed)])
        return converged, np.where(converged, rounds, max_rounds)


def run_batch(spec: GameSpec, config: dynamics.DynamicsConfig, seeds: list[int]):
    """(converged, rounds, final welfare) of each seed's run, and the final
    proposals by edge id, a row per run; ``spec`` must qualify."""
    with np.errstate(all="ignore"):
        batch = _Runs(spec, seeds, config.tol)
        converged, rounds = batch.run(config.max_rounds)
    # the final utility terms are social_welfare's, summed in its order
    terms = batch.terms[0].reshape(len(seeds), batch.n, batch.d)
    welfare = _left_sum(_left_sum(terms))
    return list(zip(converged.tolist(), rounds.tolist(), welfare.tolist())), batch.f
