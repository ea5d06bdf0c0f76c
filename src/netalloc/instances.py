"""Instance documents: generators, JSON serialization, profile I/O.

The on-disk schema keeps every amount as an integer count of the instance's
``eta`` quantum, so documents round-trip bit-exactly:

    {
      "n": 5, "eta": 0.05,
      "budgets": [20, ...],                  # eta counts
      "behaviors": ["optimistic", ...],
      "edges": [{"i": 0, "j": 1, "w_ij": 0.3, "w_ji": 0.2,
                 "utility_ij": {"family": "sqrt"},
                 "utility_ji": {"family": "sqrt"}}, ...],
      "ranking": [1, 2, ...],                # optional
      "suggested_init": [[i, j, count], ...] # optional
      "reference_profiles": {"name": [[i, j, count], ...]}  # optional
    }
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .analysis import (
    RankingSystem,
    _as_fraction,
    _grid_parameters,
    _require_finite,
    global_ranking_weights,
)
from .game import BEHAVIORS, Behavior, EdgeSpec, FrequencyProfile, GameSpec, left_sum
from .utility import _SHARED, CAPPED_QUADRATIC, FAMILIES, POWER, UtilitySpec


# -- document parsing ----------------------------------------------------------


class InstanceFormatError(ValueError):
    """An instance document lacks a required key or holds a value of the
    wrong type; the message names the key."""


_NUMBER = (int, float)
_KIND_NAMES = {int: "an integer", _NUMBER: "a number", str: "a string",
               list: "a list", dict: "a JSON object"}


def _is(value, kind) -> bool:
    """JSON type check; true/false are not numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(obj: dict, key: str, kind, where: str = ""):
    """obj[key], which must be present and of the given type."""
    at = f"{where}: " if where else ""
    if key not in obj:
        raise InstanceFormatError(f"{at}missing required key {key!r}")
    value = obj[key]
    if not _is(value, kind):
        raise InstanceFormatError(
            f"{at}key {key!r} must be {_KIND_NAMES[kind]}, "
            f"got {type(value).__name__}"
        )
    return value


def _entries(doc: dict, key: str, kind, n: int) -> tuple:
    """A list of one value of the given type per player."""
    values = _field(doc, key, list)
    if len(values) != n:
        raise InstanceFormatError(
            f"key {key!r} must have one entry per player ({n}), "
            f"got {len(values)}"
        )
    for k, v in enumerate(values):
        if not _is(v, kind):
            raise InstanceFormatError(
                f"{key}[{k}] must be {_KIND_NAMES[kind]}, got {type(v).__name__}"
            )
    return tuple(values)


def _utility(edge: dict, key: str, where: str) -> UtilitySpec:
    data = _field(edge, key, dict, where)
    _field(data, "family", str, f"{where}.{key}")
    try:
        return UtilitySpec.from_json(data)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where}.{key}: {exc}") from exc


def _rows(rows, where: str) -> tuple[tuple[int, int, int], ...]:
    """A profile listing: [i, j, count] rows of integers, one per directed
    edge."""
    if not isinstance(rows, list):
        raise InstanceFormatError(f"{where} must be a list of [i, j, count] rows")
    first: dict[tuple[int, int], int] = {}
    for k, row in enumerate(rows):
        if not (
            isinstance(row, list) and len(row) == 3 and all(_is(v, int) for v in row)
        ):
            raise InstanceFormatError(
                f"{where}[{k}] must be an [i, j, count] row of integers, "
                f"got {row!r}"
            )
        edge = (row[0], row[1])
        if edge in first:
            raise InstanceFormatError(
                f"{where}[{k}] repeats the proposal from {edge[0]} to {edge[1]} "
                f"(first given in {where}[{first[edge]}])"
            )
        first[edge] = k
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class InstanceDocument:
    n: int
    eta: float
    budgets: tuple[int, ...]  # eta counts
    behaviors: tuple[str, ...]
    edges: tuple[EdgeSpec, ...]
    ranking: tuple[int, ...] | None = None
    suggested_init: tuple[tuple[int, int, int], ...] | None = None
    reference_profiles: dict[str, tuple[tuple[int, int, int], ...]] | None = (
        None
    )

    # -- conversions -------------------------------------------------------

    def to_game_spec(self, behavior_override: str | None = None) -> GameSpec:
        """The game's player rows, filled from the edges (see
        :meth:`GameSpec.from_edges`); ``behavior_override`` forces every
        player pessimistic or optimistic (used by paired experiments)."""
        n, eta = self.n, self.eta
        names = self.behaviors if behavior_override is None else [behavior_override] * n
        kinds = {name: Behavior(name) for name in set(names)}
        return GameSpec.from_edges(n, eta, self.edges, [self.budgets[i] * eta for i in range(n)],
                                   [kinds[names[i]] for i in range(n)])

    def ranking_system(self) -> RankingSystem | None:
        if self.ranking is None:
            return None
        return RankingSystem({i: r for i, r in enumerate(self.ranking)})

    def init_profile(self) -> FrequencyProfile | None:
        if self.suggested_init is None:
            return None
        return FrequencyProfile(
            {(i, j): c for (i, j, c) in self.suggested_init}
        )

    def reference_profile(self, name: str) -> FrequencyProfile:
        if not self.reference_profiles or name not in self.reference_profiles:
            raise KeyError(f"no reference profile named {name!r}")
        return FrequencyProfile(
            {(i, j): c for (i, j, c) in self.reference_profiles[name]}
        )

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n,
            "eta": self.eta,
            "budgets": list(self.budgets),
            "behaviors": list(self.behaviors),
            "edges": [
                {
                    "i": e.i,
                    "j": e.j,
                    "w_ij": e.w_ij,
                    "w_ji": e.w_ji,
                    "utility_ij": e.utility_ij.to_json(),
                    "utility_ji": e.utility_ji.to_json(),
                }
                for e in self.edges
            ],
        }
        if self.ranking is not None:
            doc["ranking"] = list(self.ranking)
        if self.suggested_init is not None:
            doc["suggested_init"] = [list(t) for t in self.suggested_init]
        if self.reference_profiles is not None:
            doc["reference_profiles"] = {
                name: [list(t) for t in prof]
                for name, prof in self.reference_profiles.items()
            }
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "InstanceDocument":
        """Parse a document; a missing key or a value of the wrong type
        raises InstanceFormatError naming it."""
        if not isinstance(doc, dict):
            raise InstanceFormatError("an instance document must be a JSON object")
        n = _field(doc, "n", int)
        eta = _field(doc, "eta", _NUMBER)
        budgets = _entries(doc, "budgets", _NUMBER, n)
        behaviors = _entries(doc, "behaviors", str, n)
        for k, b in enumerate(behaviors):
            if b not in BEHAVIORS:
                raise InstanceFormatError(
                    f"behaviors[{k}] must be 'pessimistic' or 'optimistic', "
                    f"got {b!r}"
                )
        edges = []
        first: dict[tuple[int, int], int] = {}
        for k, e in enumerate(_field(doc, "edges", list)):
            where = f"edges[{k}]"
            if not isinstance(e, dict):
                raise InstanceFormatError(f"{where} must be a JSON object")
            i, j = _field(e, "i", int, where), _field(e, "j", int, where)
            pair = (i, j) if i <= j else (j, i)
            if pair in first:
                raise InstanceFormatError(
                    f"{where} repeats the edge between {pair[0]} and {pair[1]} "
                    f"(first given in edges[{first[pair]}])"
                )
            first[pair] = k
            edges.append(
                EdgeSpec(
                    i=i,
                    j=j,
                    w_ij=_field(e, "w_ij", _NUMBER, where),
                    w_ji=_field(e, "w_ji", _NUMBER, where),
                    utility_ij=_utility(e, "utility_ij", where),
                    utility_ji=_utility(e, "utility_ji", where),
                )
            )
        refs = None
        if "reference_profiles" in doc:
            refs = {
                name: _rows(prof, f"reference_profiles[{name!r}]")
                for name, prof in _field(doc, "reference_profiles", dict).items()
            }
        return InstanceDocument(
            n=n,
            eta=eta,
            budgets=budgets,
            behaviors=behaviors,
            edges=tuple(edges),
            ranking=(
                _entries(doc, "ranking", int, n) if "ranking" in doc else None
            ),
            suggested_init=(
                _rows(doc["suggested_init"], "suggested_init")
                if "suggested_init" in doc
                else None
            ),
            reference_profiles=refs,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @staticmethod
    def load(path: str | Path) -> "InstanceDocument":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
        return InstanceDocument.from_json_dict(doc)


# -- torus grid ----------------------------------------------------------------


def _torus_neighbors(width: int, height: int, node: int) -> list[int]:
    r, c = divmod(node, width)
    return sorted(
        {
            ((r - 1) % height) * width + c,
            ((r + 1) % height) * width + c,
            r * width + (c - 1) % width,
            r * width + (c + 1) % width,
        }
    )


def _torus_edges(
    width: int, height: int, weights_of, utility: UtilitySpec
) -> tuple[EdgeSpec, ...]:
    """The torus's edges in sorted order, with ``utility`` both ways;
    ``weights_of(i, nbrs)`` gives player i's weights on its sorted
    neighbors, called for each player in turn."""
    weights: dict[tuple[int, int], float] = {}
    for i in range(width * height):
        nbrs = _torus_neighbors(width, height, i)
        weights.update(zip([(i, j) for j in nbrs], weights_of(i, nbrs)))
    return tuple(
        EdgeSpec(i, j, weights[(i, j)], weights[(j, i)], utility, utility)
        for (i, j) in weights
        if i < j
    )


def _require_behavior(behavior: str) -> None:
    if behavior not in BEHAVIORS:
        raise ValueError(
            f"behavior must be 'pessimistic' or 'optimistic', got {behavior!r}"
        )


def gen_torus_grid(
    width: int,
    height: int,
    beta: float,
    eta: float,
    weight_seed: int,
    utility: UtilitySpec,
    behavior: str = "pessimistic",
) -> InstanceDocument:
    """Wrap-around grid, so every node has degree exactly four.

    Per-direction weights are drawn uniform(0,1) and normalized per node;
    budgets and the utility family are uniform across players and edges.
    """
    if width < 3 or height < 3:
        raise ValueError("torus needs width and height >= 3")
    _require_behavior(behavior)
    _require_finite(beta=beta, eta=eta)
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if beta / eta == float("inf"):
        raise ValueError(f"beta / eta overflows ({beta} / {eta})")
    n = width * height
    budget_units = round(beta / eta)
    if abs(budget_units * eta - beta) > 1e-9 * max(1.0, beta):
        raise ValueError(f"beta {beta} is not a multiple of eta {eta}")

    rng = random.Random(weight_seed)

    def drawn(i: int, nbrs: list[int]) -> list[float]:
        draws = [rng.random() for _ in nbrs]
        total = left_sum(draws)
        return [d / total for d in draws]

    return InstanceDocument(
        n=n,
        eta=eta,
        budgets=(budget_units,) * n,
        behaviors=(behavior,) * n,
        edges=_torus_edges(width, height, drawn, utility),
    )


# -- complete-graph cycling instance --------------------------------------------


def gen_k5_cycle_instance(eps: float) -> InstanceDocument:
    """Five players on a complete graph whose simultaneous dynamics cycle.

    Each player weights the next two players (cyclically) at 1/4 + eps and
    the other two at 1/4 - eps; budgets are 1, utilities x(1-x) capped at its
    peak, everyone optimistic, quantum eta = eps.  The suggested start makes
    every proposal equal to the proposer's own weight, which is each player's
    unconstrained optimum; from there the joint update keeps transposing the
    proposal matrix forever.
    """
    _require_finite(eps=eps)
    e = _as_fraction(eps)
    if not (0 < e < Fraction(1, 4)):
        raise ValueError(f"eps must be in (0, 1/4), got {eps}")
    high = Fraction(1, 4) + e
    low = Fraction(1, 4) - e
    budget_units = Fraction(1) / e
    high_units = high / e
    low_units = low / e
    for name, v in (
        ("budget", budget_units),
        ("1/4+eps", high_units),
        ("1/4-eps", low_units),
    ):
        if v.denominator != 1:
            raise ValueError(
                f"eps={eps}: {name} is not a whole number of eps quanta"
            )

    n = 5
    util = UtilitySpec.capped_quadratic(1.0)

    def weight(i: int, j: int) -> Fraction:
        offset = (j - i) % n
        return high if offset in (1, 2) else low

    edge_specs = [
        EdgeSpec(i, j, float(weight(i, j)), float(weight(j, i)), util, util)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    init = [
        (i, j, int(high_units if weight(i, j) == high else low_units))
        for i in range(n)
        for j in range(n)
        if i != j
    ]

    return InstanceDocument(
        n=n,
        eta=float(e),
        budgets=(int(budget_units),) * n,
        behaviors=("optimistic",) * n,
        edges=tuple(edge_specs),
        suggested_init=tuple(init),
    )


# -- skewed grid with arbitrarily bad equilibria ---------------------------------


def gen_poa_grid_instance(
    width: int, height: int, eps, beta
) -> tuple[InstanceDocument, FrequencyProfile, FrequencyProfile]:
    """Torus where everyone prefers vertical neighbors (weight 1/2 - eps)
    over horizontal ones (weight eps), with utility x*(beta - x) capped.

    Returns the instance plus two matched reference profiles: ``good`` puts
    beta/2 - eps on vertical edges, ``bad`` reverses the roles.  Both are
    equilibria; their welfare ratio diverges as eps -> 0.
    """
    if width < 3 or height < 3:
        raise ValueError("grid needs width and height >= 3")
    e, b = _grid_parameters(eps, beta)

    # exact quantum dividing eps, beta/2 - eps and beta
    quantum = _fraction_gcd(e, b / 2 - e)
    quantum = _fraction_gcd(quantum, b)
    n = width * height
    budget_units = int(b / quantum)
    high_units = int((b / 2 - e) / quantum)
    low_units = int(e / quantum)

    w_vert = float(Fraction(1, 2) - e)
    w_horiz = float(e)

    def vertical(i: int, j: int) -> bool:
        return i // width != j // width

    edges = _torus_edges(
        width,
        height,
        lambda i, nbrs: [w_vert if vertical(i, j) else w_horiz for j in nbrs],
        UtilitySpec.capped_quadratic(float(b)),
    )
    directed = [(i, j) for i in range(n) for j in _torus_neighbors(width, height, i)]
    doc = InstanceDocument(
        n=n,
        eta=float(quantum),
        budgets=(budget_units,) * n,
        behaviors=("pessimistic",) * n,
        edges=edges,
        reference_profiles={
            "good": tuple(
                (i, j, high_units if vertical(i, j) else low_units)
                for (i, j) in directed
            ),
            "bad": tuple(
                (i, j, low_units if vertical(i, j) else high_units)
                for (i, j) in directed
            ),
        },
    )
    return doc, doc.reference_profile("good"), doc.reference_profile("bad")


# -- random instances ------------------------------------------------------------


def _random_utility(rng: random.Random, beta: float, family: str | None) -> UtilitySpec:
    fam = family if family is not None else rng.choice(FAMILIES)
    if fam == POWER:
        return UtilitySpec.power(round(rng.uniform(0.2, 1.0), 3))
    if fam == CAPPED_QUADRATIC:
        return UtilitySpec.capped_quadratic(round(rng.uniform(0.5, 1.5) * beta, 3))
    return _SHARED.get(fam) or UtilitySpec(fam)


def gen_random_instance(
    n: int,
    edge_prob: float,
    seed: int,
    beta: float = 1.0,
    budget_units: int = 100,
    behavior: str | None = None,
    family: str | None = None,
    symmetric_utilities: bool = False,
) -> InstanceDocument:
    """Erdos-Renyi style test instance with random weights and utilities.

    ``behavior``/``family`` None means random per player / per direction;
    ``symmetric_utilities`` forces one utility per edge (both directions).
    """
    _require_finite(beta=beta)
    if behavior is not None:
        _require_behavior(behavior)
    if budget_units < 1:
        raise ValueError(f"budget_units must be >= 1, got {budget_units}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    rng = random.Random(seed)
    eta = beta / budget_units
    edge_list = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for (i, j) in edge_list:
        adj[i].append(j)
        adj[j].append(i)

    weights: dict[tuple[int, int], float] = {}
    for i in range(n):
        if not adj[i]:
            continue
        draws = [rng.uniform(0.05, 1.0) for _ in adj[i]]
        total = left_sum(draws)
        for j, d in zip(sorted(adj[i]), draws):
            weights[(i, j)] = d / total

    edges = []
    for (i, j) in sorted(edge_list):
        u_ij = _random_utility(rng, beta, family)
        u_ji = u_ij if symmetric_utilities else _random_utility(rng, beta, family)
        edges.append(EdgeSpec(i, j, weights[(i, j)], weights[(j, i)], u_ij, u_ji))

    if behavior is None:
        behaviors = tuple(rng.choice(BEHAVIORS) for _ in range(n))
    else:
        behaviors = (behavior,) * n
    return InstanceDocument(
        n=n,
        eta=eta,
        budgets=(budget_units,) * n,
        behaviors=behaviors,
        edges=tuple(edges),
    )


def gen_ranked_instance(
    n: int,
    edge_prob: float,
    seed: int,
    max_rank: int = 5,
    beta: float = 1.0,
    budget_units: int = 100,
    behavior: str | None = None,
) -> InstanceDocument:
    """Random instance whose weights come from a random integer ranking and
    whose edge utilities are symmetric, so the weighted potential applies."""
    rng = random.Random(seed)
    base = gen_random_instance(
        n,
        edge_prob,
        seed=rng.randrange(2**30),
        beta=beta,
        budget_units=budget_units,
        behavior=behavior,
        symmetric_utilities=True,
    )
    ranks = tuple(rng.randint(1, max_rank) for _ in range(n))
    ranking = RankingSystem({i: r for i, r in enumerate(ranks)})
    rank_weights = global_ranking_weights(base.to_game_spec().neighbors, ranking)
    edges = tuple(
        replace(
            e,
            w_ij=float(rank_weights[(e.i, e.j)]),
            w_ji=float(rank_weights[(e.j, e.i)]),
        )
        for e in base.edges
    )
    return replace(base, edges=edges, ranking=ranks)


# -- helpers ----------------------------------------------------------------------


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    import math as _math

    den = a.denominator * b.denominator // _math.gcd(
        a.denominator, b.denominator
    )
    na = a.numerator * (den // a.denominator)
    nb = b.numerator * (den // b.denominator)
    return Fraction(_math.gcd(na, nb), den)
