import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netalloc.analysis import grid_reference_welfare
from netalloc.dynamics import PessimisticNE, classify_equilibrium
from netalloc.game import outcome_summary, social_welfare, validate_game
from netalloc.instances import (
    EdgeSpec,
    InstanceDocument,
    InstanceFormatError,
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_random_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from netalloc.utility import FAMILIES, UtilitySpec


# -- torus ------------------------------------------------------------------


def test_torus_10x10_shape():
    doc = gen_torus_grid(10, 10, beta=1000.0, eta=1.0, weight_seed=0,
                         utility=UtilitySpec.sqrt())
    assert doc.n == 100
    assert len(doc.edges) == 200
    spec = doc.to_game_spec()
    assert all(spec.degree(i) == 4 for i in range(100))
    assert validate_game(spec).ok


def test_torus_3x3_shape():
    doc = gen_torus_grid(3, 3, beta=10.0, eta=1.0, weight_seed=1,
                         utility=UtilitySpec.linear())
    assert doc.n == 9
    assert len(doc.edges) == 18
    spec = doc.to_game_spec()
    assert all(spec.degree(i) == 4 for i in range(9))


def test_torus_deterministic_per_seed():
    a = gen_torus_grid(4, 5, beta=100.0, eta=1.0, weight_seed=9,
                       utility=UtilitySpec.sqrt())
    b = gen_torus_grid(4, 5, beta=100.0, eta=1.0, weight_seed=9,
                       utility=UtilitySpec.sqrt())
    c = gen_torus_grid(4, 5, beta=100.0, eta=1.0, weight_seed=10,
                       utility=UtilitySpec.sqrt())
    assert a == b
    assert a != c


def test_torus_rejects_small_or_off_grid():
    with pytest.raises(ValueError):
        gen_torus_grid(2, 5, beta=10.0, eta=1.0, weight_seed=0,
                       utility=UtilitySpec.sqrt())
    with pytest.raises(ValueError, match="multiple of eta"):
        gen_torus_grid(3, 3, beta=10.5, eta=1.0, weight_seed=0,
                       utility=UtilitySpec.sqrt())


# -- the cycling complete graph ------------------------------------------------


def test_k5_weights_row():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec()
    row = [spec.weights[(0, j)] for j in range(1, 5)]
    assert row == [0.3, 0.3, 0.2, 0.2]
    for i in range(5):
        total = sum(spec.weights[(i, j)] for j in spec.neighbors[i])
        assert total == pytest.approx(1.0, abs=1e-12)
    assert validate_game(spec).ok
    assert all(b == 20 for b in doc.budgets)
    assert doc.eta == 0.05


def test_k5_rejects_incommensurable_eps():
    with pytest.raises(ValueError):
        gen_k5_cycle_instance(0.3)
    with pytest.raises(ValueError, match="whole number"):
        gen_k5_cycle_instance(0.06)  # 1/4 is not a multiple of 0.06


def test_k5_suggested_init_feasible():
    doc = gen_k5_cycle_instance(0.025)
    spec = doc.to_game_spec()
    start = doc.init_profile()
    s = outcome_summary(spec, start)
    assert s.total_slack == 5 * 4  # 4 eps per player, eps = eta
    assert all(len(s.win[i]) == 2 for i in range(5))


# -- skewed grid ------------------------------------------------------------------


def test_poa_grid_weight_rows_sum_to_one():
    doc, good, bad = gen_poa_grid_instance(4, 4, 0.1, 1.0)
    spec = doc.to_game_spec()
    assert validate_game(spec).ok
    for i in range(spec.n):
        vert = [w for (a, j), w in spec.weights.items() if a == i and w > 0.25]
        horiz = [w for (a, j), w in spec.weights.items() if a == i and w <= 0.25]
        assert len(vert) == 2 and len(horiz) == 2
        assert vert[0] == pytest.approx(0.4) and horiz[0] == pytest.approx(0.1)


def test_poa_grid_reference_profiles_match_closed_form():
    for eps in (0.1, 0.05):
        doc, good, bad = gen_poa_grid_instance(4, 4, eps, 1.0)
        spec = doc.to_game_spec()
        sw_good, sw_bad = grid_reference_welfare(eps, 1.0, spec.n)
        assert social_welfare(spec, good) == pytest.approx(sw_good, abs=1e-9)
        assert social_welfare(spec, bad) == pytest.approx(sw_bad, abs=1e-9)
        assert isinstance(classify_equilibrium(spec, bad), PessimisticNE)
        assert isinstance(classify_equilibrium(spec, good), PessimisticNE)


def test_poa_grid_quantum_choice_exact():
    doc, good, bad = gen_poa_grid_instance(3, 3, 0.0125, 1.0)
    spec = doc.to_game_spec()
    assert validate_game(spec).ok
    # budgets exactly spent in both reference profiles
    s = outcome_summary(spec, good)
    assert s.total_slack == 0
    s = outcome_summary(spec, bad)
    assert s.total_slack == 0


def test_poa_grid_rejects_bad_eps():
    with pytest.raises(ValueError):
        gen_poa_grid_instance(4, 4, 0.6, 1.0)
    with pytest.raises(ValueError):
        gen_poa_grid_instance(2, 4, 0.1, 1.0)


def test_poa_grid_reference_profiles_round_trip():
    doc, good, bad = gen_poa_grid_instance(3, 3, 0.1, 1.0)
    assert doc.reference_profile("good") == good
    assert doc.reference_profile("bad") == bad
    with pytest.raises(KeyError):
        doc.reference_profile("ugly")


# -- random generators ---------------------------------------------------------------


def test_random_instance_valid_and_deterministic():
    a = gen_random_instance(n=12, edge_prob=0.4, seed=5)
    b = gen_random_instance(n=12, edge_prob=0.4, seed=5)
    assert a == b
    assert validate_game(a.to_game_spec()).ok


def test_random_instance_behavior_and_family_overrides():
    doc = gen_random_instance(
        n=6, edge_prob=0.8, seed=1, behavior="optimistic", family="sqrt"
    )
    assert all(b == "optimistic" for b in doc.behaviors)
    assert all(
        e.utility_ij.family == "sqrt" and e.utility_ji.family == "sqrt"
        for e in doc.edges
    )


@pytest.mark.parametrize("generate", [gen_random_instance, gen_ranked_instance])
def test_random_generators_refuse_an_unknown_behavior(generate):
    # "mixed" is the command line's word for a random behaviour per player
    with pytest.raises(
        ValueError,
        match="behavior must be 'pessimistic' or 'optimistic', got 'mixed'",
    ):
        generate(n=6, edge_prob=0.5, seed=0, behavior="mixed")


def test_ranked_instance_weights_follow_ranks():
    doc = gen_ranked_instance(n=9, edge_prob=0.5, seed=7)
    spec = doc.to_game_spec()
    assert validate_game(spec).ok
    ranking = doc.ranking_system()
    for i in range(spec.n):
        nbrs = spec.neighbors[i]
        if not nbrs:
            continue
        total = ranking.neighbor_rank_sum(spec.neighbors, i)
        for j in nbrs:
            assert spec.weights[(i, j)] == pytest.approx(
                ranking.rank(j) / total, abs=1e-12
            )
    for e in doc.edges:
        assert e.utility_ij == e.utility_ji


# -- serialization ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "doc",
    [
        gen_k5_cycle_instance(0.05),
        gen_torus_grid(3, 4, beta=50.0, eta=0.5, weight_seed=2,
                       utility=UtilitySpec.power(0.7)),
        gen_poa_grid_instance(3, 3, 0.1, 1.0)[0],
        gen_random_instance(n=8, edge_prob=0.5, seed=3),
        gen_ranked_instance(n=6, edge_prob=0.6, seed=4),
    ],
    ids=["k5", "torus", "poa", "random", "ranked"],
)
def test_round_trip_bit_exact(tmp_path, doc):
    path = tmp_path / "instance.json"
    doc.save(path)
    again = InstanceDocument.load(path)
    assert again == doc
    # and the JSON itself is stable
    doc2_path = tmp_path / "instance2.json"
    again.save(doc2_path)
    assert path.read_text() == doc2_path.read_text()
    assert validate_game(again.to_game_spec()).ok


UTILITY_SPECS = st.one_of(
    st.sampled_from(["linear", "sqrt", "log1p"]).map(UtilitySpec),
    st.floats(0.01, 1.0).map(UtilitySpec.power),
    st.floats(0.01, 100.0).map(UtilitySpec.capped_quadratic),
)
BEHAVIORS = st.sampled_from(["pessimistic", "optimistic"])


@st.composite
def generated_documents(draw):
    """A document from one of the five generators, with drawn parameters."""
    kind = draw(st.sampled_from(["torus", "k5", "poa", "random", "ranked"]))
    if kind == "torus":
        eta = draw(st.sampled_from([1.0, 0.5, 0.1, 2.0**-20]))
        return gen_torus_grid(
            draw(st.integers(3, 5)),
            draw(st.integers(3, 5)),
            beta=draw(st.integers(1, 10**6)) * eta,
            eta=eta,
            weight_seed=draw(st.integers(0, 2**32)),
            utility=draw(UTILITY_SPECS),
            behavior=draw(BEHAVIORS),
        )
    if kind == "k5":
        return gen_k5_cycle_instance(draw(st.sampled_from([0.01, 0.025, 0.05, 0.125])))
    if kind == "poa":
        return gen_poa_grid_instance(
            draw(st.integers(3, 4)),
            draw(st.integers(3, 4)),
            draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.2])),
            draw(st.sampled_from([0.5, 1.0, 3.0])),
        )[0]
    params = dict(
        n=draw(st.integers(1, 10)),
        edge_prob=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        beta=draw(st.floats(0.01, 1e6)),
        budget_units=draw(st.integers(1, 2**40)),
        behavior=draw(st.one_of(st.none(), BEHAVIORS)),
    )
    if kind == "ranked":
        return gen_ranked_instance(max_rank=draw(st.integers(1, 9)), **params)
    return gen_random_instance(
        family=draw(st.one_of(st.none(), st.sampled_from(FAMILIES))),
        symmetric_utilities=draw(st.booleans()),
        **params,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(generated_documents())
def test_generated_documents_round_trip_bit_exact(doc):
    # repr round-trips every float, so equal text means equal bits
    text = json.dumps(doc.to_json_dict(), indent=2)
    again = InstanceDocument.from_json_dict(json.loads(text))
    assert again == doc
    assert json.dumps(again.to_json_dict(), indent=2) == text


def _k5_payload():
    return gen_k5_cycle_instance(0.05).to_json_dict()


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _set(path, value):
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("edges"), "missing required key 'edges'"),
        (_drop("eta"), "missing required key 'eta'"),
        (_set(["edges"], 5), "key 'edges' must be a list, got int"),
        (_set(["n"], "5"), "key 'n' must be an integer, got str"),
        (_set(["n"], True), "key 'n' must be an integer, got bool"),
        (_set(["budgets"], [20, 20]), "'budgets' must have one entry per player (5)"),
        (_set(["budgets", 1], None), "budgets[1] must be a number, got NoneType"),
        (_set(["behaviors", 0], "greedy"), "behaviors[0] must be 'pessimistic'"),
        (_set(["edges", 2, "w_ij"], "0.3"), "edges[2]: key 'w_ij' must be a number"),
        (
            _set(["edges", 0, "utility_ji"], {}),
            "edges[0].utility_ji: missing required key 'family'",
        ),
        (
            _set(["edges", 0, "utility_ij"], {"family": "cubic"}),
            "edges[0].utility_ij: unknown utility family",
        ),
        (
            _set(["suggested_init", 3], [0, 1]),
            "suggested_init[3] must be an [i, j, count] row",
        ),
        (
            _set(["reference_profiles"], {"x": 1}),
            "reference_profiles['x'] must be a list",
        ),
    ],
)
def test_from_json_dict_names_the_bad_key(edit, message):
    doc = _k5_payload()
    edit(doc)
    with pytest.raises(InstanceFormatError) as err:
        InstanceDocument.from_json_dict(doc)
    assert message in str(err.value)
    assert isinstance(err.value, ValueError)


def test_from_json_dict_rejects_repeated_profile_rows():
    doc = _k5_payload()
    doc["suggested_init"].append([0, 2, 1])
    with pytest.raises(InstanceFormatError) as err:
        InstanceDocument.from_json_dict(doc)
    assert "suggested_init[20] repeats the proposal from 0 to 2" in str(err.value)
    doc = _k5_payload()
    doc["reference_profiles"] = {"r": [[1, 0, 1], [0, 1, 2], [1, 0, 3]]}
    with pytest.raises(InstanceFormatError, match=r"'r'\]\[2\] repeats"):
        InstanceDocument.from_json_dict(doc)


def _two_player_payload(second):
    """Two players, one edge listed twice: sqrt/sqrt, then ``second`` as
    (i, j) with linear/log1p."""
    sqrt, linear, log1p = (
        UtilitySpec.sqrt().to_json(),
        UtilitySpec.linear().to_json(),
        UtilitySpec.log1p().to_json(),
    )
    return {
        "n": 2,
        "eta": 1.0,
        "budgets": [4, 4],
        "behaviors": ["optimistic"] * 2,
        "edges": [
            {"i": 0, "j": 1, "w_ij": 1.0, "w_ji": 1.0,
             "utility_ij": sqrt, "utility_ji": sqrt},
            {"i": second[0], "j": second[1], "w_ij": 1.0, "w_ji": 1.0,
             "utility_ij": linear, "utility_ji": log1p},
        ],
    }


@pytest.mark.parametrize("second", [(0, 1), (1, 0)], ids=["same", "reversed"])
def test_from_json_dict_rejects_repeated_edges(second):
    with pytest.raises(InstanceFormatError) as err:
        InstanceDocument.from_json_dict(_two_player_payload(second))
    assert "edges[1] repeats the edge between 0 and 1 (first given in edges[0])" in (
        str(err.value)
    )


def test_load_rejects_non_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(InstanceFormatError, match="must be a JSON object"):
        InstanceDocument.load(path)
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        InstanceDocument.load(path)


def test_schema_field_names(tmp_path):
    doc = gen_k5_cycle_instance(0.05)
    payload = json.loads(json.dumps(doc.to_json_dict()))
    assert set(payload) >= {"n", "eta", "budgets", "behaviors", "edges"}
    edge = payload["edges"][0]
    assert set(edge) == {"i", "j", "w_ij", "w_ji", "utility_ij", "utility_ji"}
    assert all(isinstance(b, int) for b in payload["budgets"])
    assert "suggested_init" in payload


def test_behavior_override():
    doc = gen_k5_cycle_instance(0.05)
    spec = doc.to_game_spec(behavior_override="pessimistic")
    from netalloc.game import Behavior

    assert all(spec.behaviors[i] is Behavior.PESSIMISTIC for i in range(5))


# -- one tuple per direction, slotted records ------------------------------------


def _parsed_document() -> InstanceDocument:
    """A random document through JSON, every other edge listed j -> i."""
    doc = gen_random_instance(30, 0.3, seed=5)
    payload = json.loads(json.dumps(doc.to_json_dict()))
    for k, e in enumerate(payload["edges"]):
        if k % 2:
            e["i"], e["j"] = e["j"], e["i"]
            e["w_ij"], e["w_ji"] = e["w_ji"], e["w_ij"]
            e["utility_ij"], e["utility_ji"] = e["utility_ji"], e["utility_ij"]
    return InstanceDocument.from_json_dict(payload)


SHARING_DOCS = {
    "random": lambda: gen_random_instance(30, 0.3, seed=4),
    "torus": lambda: gen_torus_grid(
        5, 4, beta=10.0, eta=1.0, weight_seed=3, utility=UtilitySpec.log1p()
    ),
    "parsed": _parsed_document,
}


@pytest.mark.parametrize("make", SHARING_DOCS.values(), ids=SHARING_DOCS.keys())
def test_spec_shares_one_tuple_per_direction(make):
    doc = make()
    spec = doc.to_game_spec()
    assert validate_game(spec).ok
    objects = {id(e): e for e in spec.directed_edges}
    assert len(objects) == len(spec.directed_edges) == 2 * len(doc.edges)
    for mapping in (spec.weights, spec.utilities):
        assert len(mapping) == len(objects)
        for key in mapping:
            assert objects.get(id(key)) is key
    assert len(spec.edges) == len(doc.edges)
    for edge in spec.edges:
        assert edge[0] < edge[1] and objects.get(id(edge)) is edge

    utilities = [u for e in doc.edges for u in (e.utility_ij, e.utility_ji)]
    assert not hasattr(doc.edges[0], "__dict__")  # slotted records
    assert not hasattr(utilities[0], "__dict__")
    by_family: dict[str, set[int]] = {}
    for u in utilities:
        by_family.setdefault(u.family, set()).add(id(u))
    for fam in ("linear", "sqrt", "log1p"):
        assert len(by_family.get(fam, {0})) == 1, fam
    assert len(by_family) == (1 if make is SHARING_DOCS["torus"] else 5)


ROUND_TRIP_RECORDS = [
    UtilitySpec.linear(),
    UtilitySpec.sqrt(),
    UtilitySpec.log1p(),
    UtilitySpec.power(0.4),
    UtilitySpec.capped_quadratic(2.5),
    EdgeSpec(0, 1, 0.25, 0.75, UtilitySpec.sqrt(), UtilitySpec.power(0.7)),
    gen_random_instance(12, 0.4, seed=9),
]


@pytest.mark.parametrize(
    "record",
    ROUND_TRIP_RECORDS,
    ids=["linear", "sqrt", "log1p", "power", "capped_quadratic", "edge", "document"],
)
def test_slotted_records_round_trip(record):
    for copied in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        dataclasses.replace(record),
    ):
        assert copied == record
        assert hash(copied) == hash(record)
        assert type(copied) is type(record)


def test_pickled_spec_keeps_its_edges_and_index():
    spec = gen_random_instance(30, 0.3, seed=4).to_game_spec()
    rows, off, rev = spec.index
    copied = pickle.loads(pickle.dumps(spec))
    assert copied == spec
    assert copied.directed_edges == spec.directed_edges
    assert copied.neighbors == spec.neighbors
    objects = {id(e) for e in copied.directed_edges}
    assert all(id(key) in objects for key in copied.weights)
    copied.__dict__.pop("index", None)  # rebuild it from the copied maps
    new_rows, new_off, new_rev = copied.index
    assert (new_off, new_rev) == (off, rev)
    for new, old in zip(new_rows, rows):
        assert new[:4] == old[:4]
        assert new.zero_marginals == old.zero_marginals
