"""Per-link utility functions: non-negative, increasing, concave on [0, inf).

Every family exposes these views used by the allocation solvers:

* ``value(x)``      -- utility of interacting at level x; ``kernel()`` is
  the same map as a plain function, which the game's player rows hold
* ``marginal(x)``   -- right-derivative u'(x) (may be +inf at x=0)
* ``inverse_marginal(m)`` -- smallest x >= 0 with u'(x) <= m, or +inf if the
  marginal never falls to m (e.g. a linear utility asked for m < slope)
* ``inverse_marginal_slope(m, x)`` -- its derivative 1 / u''(x), for Newton
  steps on the water level
* ``constant_marginal`` -- whether u' never changes (linear, power 1)

``shared_level`` inverts the summed inverse marginals of one family in
closed form.

The capped quadratic x*(cap - x) is extended as the constant cap^2/4 past its
peak at cap/2 so it stays (weakly) increasing on all of [0, inf); the flat
region never attracts allocation because its marginal is zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .game import left_sum

INF = float("inf")

LINEAR = "linear"
SQRT = "sqrt"
LOG1P = "log1p"
POWER = "power"
CAPPED_QUADRATIC = "capped_quadratic"

FAMILIES = (LINEAR, SQRT, LOG1P, POWER, CAPPED_QUADRATIC)

# families whose ``value`` on x >= 0 is one shared function: the identity
# (``+x`` is x itself) or one math function
_SHARED_VALUES = {LINEAR: operator.pos, SQRT: math.sqrt, LOG1P: math.log1p}


@dataclass(frozen=True, slots=True)
class UtilitySpec:
    """One utility function drawn from the admissible concave families.

    ``a`` is the exponent for the power family (0 < a <= 1); ``cap`` is the
    satiation parameter of the capped quadratic (peak value cap^2/4 reached
    at x = cap/2).  The constructors and ``from_json`` return one shared
    instance per parameterless family (linear, sqrt, log1p).
    """

    family: str
    a: float | None = None
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown utility family: {self.family!r}")
        if self.family == POWER:
            if self.a is None or not (0.0 < self.a <= 1.0):
                raise ValueError("power utility needs exponent a in (0, 1]")
        elif self.a is not None:
            raise ValueError(f"{self.family} takes no exponent")
        if self.family == CAPPED_QUADRATIC:
            if self.cap is None or not 0.0 < self.cap < INF:
                raise ValueError("capped quadratic needs a finite cap > 0")
        elif self.cap is not None:
            raise ValueError(f"{self.family} takes no cap")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def linear() -> "UtilitySpec":
        return _SHARED[LINEAR]

    @staticmethod
    def sqrt() -> "UtilitySpec":
        return _SHARED[SQRT]

    @staticmethod
    def log1p() -> "UtilitySpec":
        return _SHARED[LOG1P]

    @staticmethod
    def power(a: float) -> "UtilitySpec":
        return UtilitySpec(POWER, a=a)

    @staticmethod
    def capped_quadratic(cap: float) -> "UtilitySpec":
        return UtilitySpec(CAPPED_QUADRATIC, cap=cap)

    # -- evaluation --------------------------------------------------------

    @property
    def constant_marginal(self) -> bool:
        """Whether u'(x) is the same at every x: linear, or power 1."""
        return self.family == LINEAR or self.a == 1.0

    def value(self, x: float) -> float:
        if x < 0.0:
            raise ValueError(f"utility argument must be >= 0, got {x}")
        fam = self.family
        if fam == LINEAR:
            return x
        if fam == SQRT:
            return math.sqrt(x)
        if fam == LOG1P:
            return math.log1p(x)
        if fam == POWER:
            return x ** self.a
        half = self.cap / 2.0
        if x >= half:
            return half * half
        return x * (self.cap - x)

    def kernel(self):
        """``value`` as a function of x >= 0 with the same bits: one shared
        function for the linear, sqrt and log1p families (``operator.pos``,
        ``math.sqrt``, ``math.log1p``), which skips the family dispatch,
        else the bound ``value``."""
        return _SHARED_VALUES.get(self.family, self.value)

    def marginal(self, x: float) -> float:
        """Right-derivative at x; +inf where the slope blows up at zero."""
        if x < 0.0:
            raise ValueError(f"utility argument must be >= 0, got {x}")
        fam = self.family
        if fam == LINEAR:
            return 1.0
        if fam == SQRT:
            return 0.5 / math.sqrt(x) if x > 0.0 else INF
        if fam == LOG1P:
            return 1.0 / (1.0 + x)
        if fam == POWER:
            if self.a == 1.0:
                return 1.0
            return self.a * x ** (self.a - 1.0) if x > 0.0 else INF
        return max(0.0, self.cap - 2.0 * x)

    def inverse_marginal(self, m: float) -> float:
        """Smallest x >= 0 with marginal(x) <= m (+inf if unreachable)."""
        if m < 0.0:
            raise ValueError(f"marginal level must be >= 0, got {m}")
        fam = self.family
        if fam == LINEAR:
            return 0.0 if m >= 1.0 else INF
        if fam == SQRT:
            if m == 0.0:
                return INF
            if m == INF:
                return 0.0
            return 0.25 / (m * m)
        if fam == LOG1P:
            if m == 0.0:
                return INF
            return max(0.0, 1.0 / m - 1.0)
        if fam == POWER:
            if self.a == 1.0:
                return 0.0 if m >= 1.0 else INF
            if m == 0.0:
                return INF
            if m >= INF:
                return 0.0
            # solve a * x^(a-1) = m  (decreasing in x); guard the overflow
            # when a is close to 1 and the answer is astronomically large
            log_x = math.log(m / self.a) / (self.a - 1.0)
            if log_x > 700.0:
                return INF
            return math.exp(log_x)
        # capped quadratic: marginal cap - 2x, clamped at 0 past cap/2
        if m >= self.cap:
            return 0.0
        return (self.cap - m) / 2.0

    def inverse_marginal_slope(self, m: float, x: float) -> float:
        """Derivative of ``inverse_marginal`` at m > 0, given its value
        x = inverse_marginal(m) > 0: 1 / u''(x), written through m = u'(x)
        so that no power of a tiny x can overflow.  Only meaningful where
        the marginal is strictly decreasing (not linear or power 1)."""
        fam = self.family
        if fam == SQRT:
            return -2.0 * x / m
        if fam == LOG1P:
            return -(1.0 + x) / m
        if fam == POWER:
            return x / ((self.a - 1.0) * m)
        return -0.5  # capped quadratic below its peak

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.a is not None:
            out["a"] = self.a
        if self.cap is not None:
            out["cap"] = self.cap
        return out

    @staticmethod
    def from_json(data: dict) -> "UtilitySpec":
        u = UtilitySpec(
            family=data["family"], a=data.get("a"), cap=data.get("cap")
        )
        return _SHARED.get(u.family, u)


_SHARED = {fam: UtilitySpec(fam) for fam in _SHARED_VALUES}


def shared_level(
    members: Sequence[tuple[float, UtilitySpec]], total: float
) -> float:
    """The level delta with sum_k inverse_marginal(delta / w_k) == total.

    ``members`` are (w_k > 0, u_k) pairs of one family (one exponent for
    power; caps may differ), each taken on its interior branch, where its
    inverse marginal is positive and finite: x = w^2 / (4 delta^2) for sqrt,
    w / delta - 1 for log1p, (delta / (a w))^(1 / (a - 1)) for power and
    (cap - delta / w) / 2 for the capped quadratic.  ``total`` > 0.  The
    result may lie outside the range where every member is interior.  Sums
    are :func:`~netalloc.game.left_sum`'s.
    """
    u = members[0][1]
    fam = u.family
    if fam == SQRT:
        return 0.5 * math.sqrt(left_sum(w * w for w, _ in members) / total)
    if fam == LOG1P:
        return left_sum(w for w, _ in members) / (total + len(members))
    if fam == CAPPED_QUADRATIC:
        caps = left_sum(v.cap for _, v in members)
        return (caps - 2.0 * total) / left_sum(1.0 / w for w, _ in members)
    if fam == POWER and u.a != 1.0:
        # total = delta^p * sum_k (a w_k)^-p with p = 1 / (a - 1) < 0, in logs
        p = 1.0 / (u.a - 1.0)
        logs = [-p * math.log(u.a * w) for w, _ in members]
        top = max(logs)
        log_sum = top + math.log(left_sum(math.exp(v - top) for v in logs))
        log_delta = (math.log(total) - log_sum) / p
        return math.exp(log_delta) if log_delta < 700.0 else INF
    raise ValueError(f"{fam} utilities have no interior branch")
