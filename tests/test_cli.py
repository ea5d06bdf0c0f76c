import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netalloc import verify
from netalloc.cli import _utility_from_name, main
from netalloc.dynamics import (
    Converged,
    DynamicsConfig,
    NotEquilibrium,
    RandomFeasible,
    RandomSeeded,
    classify_equilibrium,
    init_profile,
    run_sequential,
)
from netalloc.instances import (
    InstanceDocument,
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from netalloc.utility import UtilitySpec


def _run_on(command, inst, tmp_path, *options):
    args = [command, "--instance", str(inst), *options]
    if command == "experiment":
        args += ["--runs", "2", "--out-prefix", str(tmp_path / "exp")]
    return main(args)


@pytest.mark.parametrize(
    "args, message",
    [
        (["gen", "k5", "--eps", "2"], "eps must be in (0, 1/4)"),
        (["gen", "torus", "--width", "2"], "width and height >= 3"),
        (["gen", "torus", "--utility", "power"], "needs --utility-param"),
        (["simulate", "--max-rounds", "0"], "max_rounds must be >= 1"),
        (["gen", "poa-grid", "--beta", "-1"], "beta must be positive"),
        (
            ["gen", "torus", "--behavior", "mixed"],
            "behavior must be 'pessimistic' or 'optimistic', got 'mixed'",
        ),
        (["gen", "torus", "--beta", "nan"], "beta must be finite, got nan"),
        (["gen", "k5", "--eps", "nan"], "eps must be finite, got nan"),
        (["gen", "poa-grid", "--eps", "inf"], "eps must be finite, got inf"),
        (
            ["gen", "torus", "--utility", "capped_quadratic", "--utility-param", "inf"],
            "capped quadratic needs a finite cap > 0",
        ),
        (["simulate", "--tol", "-1"], "tol must be >= 0"),
        (["simulate", "--tol", "nan"], "tol must be >= 0"),
        (["optimum", "--max-iters", "0"], "must be positive"),
        (["optimum", "--gap-tol", "nan"], "must be positive"),
        (["experiment", "--runs", "0"], "runs must be >= 1"),
        (["experiment", "--bins", "1"], "bins must be >= 2"),
        (["experiment", "--max-rounds", "0"], "max_rounds must be >= 1"),
        (["experiment", "--tol", "nan"], "tol must be >= 0"),
        (["experiment", "--n-jobs", "0"], "n_jobs must be >= 1"),
        (["simulate", "--tol", "inf"], "tol must be >= 0 and finite, got inf"),
        (["optimum", "--gap-tol", "inf"], "gap_tol must be positive and finite"),
        (["experiment", "--tol", "inf"], "tol must be >= 0 and finite, got inf"),
        (
            ["gen", "torus", "--utility", "sqrt", "--utility-param", "2.5"],
            "--utility sqrt takes no --utility-param",
        ),
        (
            ["gen", "torus", "--utility", "linear", "--utility-param", "1"],
            "--utility linear takes no --utility-param",
        ),
        (["simulate", "--mode", "sim", "--order", "rr"], "--order applies to --mode seq"),
    ],
)
def test_bad_parameter_exit_code(tmp_path, capsys, args, message):
    inst = tmp_path / "k5.json"
    main(["gen", "k5", "--out", str(inst)])
    capsys.readouterr()
    rest = ["--out", str(tmp_path / "g.json")]
    if args[0] != "gen":
        rest = ["--instance", str(inst)]
        if args[0] == "experiment":
            rest += ["--out-prefix", str(tmp_path / "exp")]
    assert main(args + rest) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ")
    assert message in err
    assert not (tmp_path / "g.json").exists()
    assert not (tmp_path / "exp.summary.json").exists()


@pytest.mark.parametrize(
    "name, shared",
    [
        ("linear", UtilitySpec.linear()),
        ("sqrt", UtilitySpec.sqrt()),
        ("log1p", UtilitySpec.log1p()),
    ],
)
def test_utility_names_give_the_shared_instances(name, shared):
    assert _utility_from_name(name, None) is shared


@pytest.mark.parametrize(
    "args, message",
    [
        (["torus", "--beta", "-1"], "budget of player 0 is negative (-1.0)"),
        (["random", "--n", "0"], "player count 0: a game needs at least one"),
        (["random", "--budget-units", "0"], "budget_units must be >= 1"),
        (["torus", "--eta", "0"], "eta must be positive"),
        (["torus", "--beta", "1e300", "--eta", "1e-300"], "beta / eta overflows"),
        (["random", "--edge-prob", "2"], "edge_prob must be in [0, 1]"),
        (["random", "--beta", "0"], "beta must be positive"),
    ],
)
def test_gen_validates_before_writing(tmp_path, capsys, args, message):
    out = tmp_path / "g.json"
    assert main(["gen", *args, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, work",
    [
        ("simulate", "--trace-out", "run_sequential"),
        ("optimum", "--out", "global_optimum"),
        ("experiment", "--out-prefix", "run_batch_experiment"),
    ],
)
def test_missing_output_directory_exit_code(
    tmp_path, capsys, monkeypatch, command, option, work
):
    import netalloc.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the work started before the output path check")

    monkeypatch.setattr(cli_mod, work, never)
    inst = tmp_path / "k5.json"
    main(["gen", "k5", "--out", str(inst)])
    capsys.readouterr()
    missing = tmp_path / "absent"
    args = [command, "--instance", str(inst), option, str(missing / "out")]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err == f"validation: output directory {missing} does not exist\n"
    assert not missing.exists()
    # a directory where the output file should go is refused up front too
    target = tmp_path / "taken"
    (tmp_path / ("taken.summary.json" if command == "experiment" else "taken")).mkdir()
    args[-1] = str(target)
    assert main(args) == 4
    assert "is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
def test_missing_instance_file_exit_code(tmp_path, capsys, command):
    assert _run_on(command, tmp_path / "absent.json", tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ")
    assert "absent.json" in err


def test_gen_and_simulate_k5_cycle(tmp_path, capsys):
    inst = tmp_path / "k5.json"
    assert main(["gen", "k5", "--eps", "0.05", "--out", str(inst)]) == 0
    doc = InstanceDocument.load(inst)
    assert doc.n == 5

    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "simulate",
            "--instance",
            str(inst),
            "--mode",
            "sim",
            "--trace-out",
            str(trace),
        ]
    )
    assert code == 3  # cycle detected
    out = capsys.readouterr().out
    assert "period=2" in out
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(rows) == 3  # initial state, transposed round, revisit


def test_simulate_sequential_converges(tmp_path, capsys):
    inst = tmp_path / "k5.json"
    main(["gen", "k5", "--out", str(inst)])
    code = main(["simulate", "--instance", str(inst), "--mode", "seq"])
    assert code == 0
    assert "converged at round 6" in capsys.readouterr().out


def test_simulate_prints_the_same_with_or_without_a_trace(tmp_path, capsys, monkeypatch):
    # only a run that writes its trace records every move
    import netalloc.cli as cli_mod

    inst = tmp_path / "t.json"
    main(["gen", "torus", "--width", "6", "--height", "6", "--seed", "7",
          "--out", str(inst)])
    details = []
    run = cli_mod.run_sequential
    monkeypatch.setattr(
        cli_mod, "run_sequential", lambda *args: details.append(args[3]) or run(*args)
    )
    args = ["simulate", "--instance", str(inst), "--init", "random", "--seed", "3",
            "--order", "random"]
    capsys.readouterr()
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main([*args, "--trace-out", str(tmp_path / "trace.jsonl")]) == 0
    assert capsys.readouterr().out == plain
    assert details == ["light", "full"]


def test_simulate_classifies_at_its_own_tolerance(tmp_path, capsys):
    inst = tmp_path / "t.json"
    main(["gen", "torus", "--width", "6", "--height", "6", "--seed", "7",
          "--out", str(inst)])
    options = ["--init", "random", "--seed", "3", "--order", "random"]
    code = main(["simulate", "--instance", str(inst), *options, "--tol", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    # replay the run to classify its final profile independently
    spec = InstanceDocument.load(inst).to_game_spec()
    start = init_profile(spec, RandomFeasible(3))
    cfg = DynamicsConfig(order=RandomSeeded(3), tol=0.5)
    final, _, status = run_sequential(spec, start, cfg)
    assert isinstance(status, Converged)
    kind = type(classify_equilibrium(spec, final, 0.5)).__name__
    assert f"converged at round {status.t}: " in out
    assert out.rstrip().endswith(f"class={kind}")
    # at the default 1e-9 the same profile is no equilibrium
    assert isinstance(classify_equilibrium(spec, final), NotEquilibrium)


def test_simulate_max_rounds_exit_code(tmp_path):
    inst = tmp_path / "t.json"
    main(
        [
            "gen", "torus", "--width", "3", "--height", "3",
            "--beta", "60", "--eta", "1", "--out", str(inst),
        ]
    )
    code = main(
        [
            "simulate", "--instance", str(inst), "--init", "random",
            "--max-rounds", "2",
        ]
    )
    assert code == 2


def test_validation_failure_exit_code(tmp_path, capsys):
    inst = tmp_path / "bad.json"
    doc = gen_k5_cycle_instance(0.05)
    payload = doc.to_json_dict()
    payload["budgets"][0] = -3
    inst.write_text(json.dumps(payload))
    code = main(["simulate", "--instance", str(inst)])
    assert code == 4
    assert "validation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        (("budgets", 0), float("inf"), "budget of player 0 (inf) is not a finite"),
        (("budgets", 0), float("nan"), "budget of player 0 (nan) is not a finite"),
        (("eta",), float("inf"), "eta must be positive and finite, got inf"),
        (
            ("edges", 0, "w_ij"),
            float("nan"),
            "weight of edge (0, 1) is not finite (nan)",
        ),
        # past 2**53 quanta the random start's fill no longer finishes
        (("budgets", 0), 10**30, "(1e+30) is not a finite count below 2**53 quanta"),
        (("budgets", 0), 1e308, "(1e+308) is not a finite count below 2**53 quanta"),
    ],
    ids=["budget-inf", "budget-nan", "eta-inf", "weight-nan", "budget-1e30", "budget-1e308"],
)
def test_non_finite_or_oversized_number_exit_code(
    tmp_path, capsys, command, field, value, message
):
    inst = tmp_path / "bad.json"
    main(["gen", "torus", "--width", "3", "--height", "3", "--out", str(inst)])
    capsys.readouterr()
    payload = json.loads(inst.read_text())
    *path, last = field
    target = payload
    for key in path:
        target = target[key]
    target[last] = value
    inst.write_text(json.dumps(payload))  # written as Infinity / NaN
    options = ["--init", "random"] if command == "simulate" else []
    assert _run_on(command, inst, tmp_path, *options) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ")
    assert message in err


@pytest.mark.parametrize("cap", [float("inf"), float("nan")])
def test_non_finite_cap_exit_code(tmp_path, capsys, cap):
    inst = tmp_path / "cap.json"
    payload = gen_k5_cycle_instance(0.05).to_json_dict()
    payload["edges"][0]["utility_ij"]["cap"] = cap
    inst.write_text(json.dumps(payload))  # written as Infinity / NaN
    assert main(["simulate", "--instance", str(inst)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: edges[0].utility_ij: ")
    assert "capped quadratic needs a finite cap > 0" in err


def test_simulate_missing_suggested_proposal_exit_code(tmp_path, capsys):
    inst = tmp_path / "gap.json"
    payload = gen_k5_cycle_instance(0.05).to_json_dict()
    payload["suggested_init"] = [
        row for row in payload["suggested_init"] if row[:2] != [0, 2]
    ]
    inst.write_text(json.dumps(payload))
    code = main(["simulate", "--instance", str(inst)])
    assert code == 4
    assert "missing proposal from 0 to 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
def test_missing_key_exit_code(tmp_path, capsys, command):
    inst = tmp_path / "short.json"
    inst.write_text(
        json.dumps(
            {"n": 2, "eta": 1.0, "budgets": [1, 1], "behaviors": ["optimistic"] * 2}
        )
    )
    assert _run_on(command, inst, tmp_path) == 4
    assert "validation: missing required key 'edges'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
def test_listed_profile_off_the_edges_exit_code(tmp_path, capsys, command):
    inst = tmp_path / "stray.json"
    payload = gen_k5_cycle_instance(0.05).to_json_dict()
    payload["suggested_init"].append([0, 7, 1])
    inst.write_text(json.dumps(payload))
    assert _run_on(command, inst, tmp_path) == 4
    assert "suggested_init: proposal on non-edge (0, 7)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
def test_repeated_profile_row_exit_code(tmp_path, capsys, command):
    inst = tmp_path / "twice.json"
    payload = gen_k5_cycle_instance(0.05).to_json_dict()
    payload["suggested_init"].insert(0, [0, 1, 0])
    inst.write_text(json.dumps(payload))
    assert _run_on(command, inst, tmp_path) == 4
    err = capsys.readouterr().err
    assert "validation: suggested_init[" in err
    assert "repeats the proposal from 0 to 1" in err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
def test_repeated_edge_exit_code(tmp_path, capsys, command):
    inst = tmp_path / "twice.json"
    payload = gen_k5_cycle_instance(0.05).to_json_dict()
    first = payload["edges"][0]
    payload["edges"].append(dict(first, i=first["j"], j=first["i"]))
    inst.write_text(json.dumps(payload))
    assert _run_on(command, inst, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ")
    assert f"repeats the edge between {first['i']} and {first['j']}" in err


@pytest.mark.parametrize("command", ["simulate", "optimum", "experiment"])
def test_suggested_init_a_few_quanta_over_a_large_budget_exit_code(
    tmp_path, capsys, command
):
    # 500 quanta over 2**40 is inside a 1e-9 relative tolerance; integer
    # rows are compared exactly
    inst = tmp_path / "over.json"
    doc = gen_torus_grid(
        3, 3, beta=2.0**40, eta=1.0, weight_seed=1, utility=UtilitySpec.sqrt()
    )
    payload = doc.to_json_dict()
    rows = [[e.i, e.j, 0] for e in doc.edges] + [[e.j, e.i, 0] for e in doc.edges]
    rows[0][2] = 2**40 + 500
    payload["suggested_init"] = rows
    inst.write_text(json.dumps(payload))
    assert _run_on(command, inst, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ")
    assert f"suggested_init: player {rows[0][0]} proposes {2**40 + 500} units" in err


@pytest.mark.parametrize("command", ["optimum", "experiment"])
def test_reference_profile_over_budget_exit_code(tmp_path, capsys, command):
    inst = tmp_path / "over.json"
    doc, _, _ = gen_poa_grid_instance(3, 3, 0.1, 1.0)
    payload = doc.to_json_dict()
    payload["reference_profiles"]["good"][0][2] = 10**6
    inst.write_text(json.dumps(payload))
    assert _run_on(command, inst, tmp_path) == 4
    err = capsys.readouterr().err
    assert "validation: reference profile 'good': player 0 proposes" in err


@pytest.mark.parametrize("command", ["optimum", "experiment"])
def test_reference_profile_missing_proposal_exit_code(tmp_path, capsys, command):
    inst = tmp_path / "gap.json"
    doc, _, _ = gen_poa_grid_instance(3, 3, 0.1, 1.0)
    payload = doc.to_json_dict()
    payload["reference_profiles"]["bad"].pop()
    inst.write_text(json.dumps(payload))
    assert _run_on(command, inst, tmp_path) == 4
    assert "reference profile 'bad': missing proposal" in capsys.readouterr().err


def test_fractional_listed_count_exit_code(tmp_path, capsys):
    inst = tmp_path / "frac.json"
    payload = gen_k5_cycle_instance(0.05).to_json_dict()
    payload["suggested_init"][0][2] = 0.5
    inst.write_text(json.dumps(payload))
    assert _run_on("optimum", inst, tmp_path) == 4
    assert "suggested_init[0] must be an [i, j, count] row of integers" in (
        capsys.readouterr().err
    )


def test_experiment_zero_optimum_exit_code(tmp_path, capsys):
    inst = tmp_path / "apart.json"
    inst.write_text(
        json.dumps(
            {
                "n": 2, "eta": 1.0, "budgets": [5, 5],
                "behaviors": ["optimistic"] * 2, "edges": [],
            }
        )
    )
    assert _run_on("experiment", inst, tmp_path) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: the optimum welfare is 0.0")
    assert not (tmp_path / "exp.summary.json").exists()


def _zero_rank(payload):
    payload["ranking"][0] = 0


def _bump_rank(payload):
    payload["ranking"][0] += 1


def _asymmetric_utility(payload):
    payload["edges"][0]["utility_ij"] = {"family": "linear"}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_zero_rank, "validation: ranking: rank of player 0 must be a positive int"),
        (_bump_rank, "not induced by the ranking"),
        (_asymmetric_utility, "has direction-dependent utilities"),
    ],
)
def test_invalid_ranking_exit_code(tmp_path, capsys, edit, message):
    inst = tmp_path / "ranked.json"
    payload = gen_ranked_instance(
        n=6, edge_prob=0.6, seed=1, budget_units=20
    ).to_json_dict()
    edit(payload)
    inst.write_text(json.dumps(payload))
    assert main(["simulate", "--instance", str(inst)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation: ranking: ")
    assert message in err


def test_optimum_command(tmp_path, capsys):
    inst = tmp_path / "t.json"
    main(
        [
            "gen", "torus", "--width", "3", "--height", "3",
            "--beta", "10", "--eta", "1", "--out", str(inst),
        ]
    )
    out_path = tmp_path / "opt.json"
    code = main(["optimum", "--instance", str(inst), "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["welfare"] > 0
    assert len(payload["amounts"]) == 18
    assert payload["certified"]
    assert payload["welfare"] <= payload["upper_bound"]
    assert 0.0 <= payload["gap"] <= 1e-9


def test_experiment_command(tmp_path, capsys):
    inst = tmp_path / "t.json"
    main(
        [
            "gen", "torus", "--width", "3", "--height", "3",
            "--beta", "40", "--eta", "1", "--out", str(inst),
        ]
    )
    prefix = str(tmp_path / "exp")
    code = main(
        [
            "experiment", "--instance", str(inst), "--runs", "4",
            "--seed", "7", "--behavior", "optimistic", "--bins", "8",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    assert (tmp_path / "exp.histogram.csv").exists()
    summary = json.loads((tmp_path / "exp.summary.json").read_text())
    assert summary["non_converged_count"] == 0
    runs = [
        json.loads(l)
        for l in (tmp_path / "exp.runs.jsonl").read_text().splitlines()
    ]
    assert len(runs) == 4
    assert all(r["ratio"] <= 1.0 + 1e-6 for r in runs)


def test_gen_poa_grid_embeds_reference_profiles(tmp_path):
    inst = tmp_path / "poa.json"
    code = main(
        [
            "gen", "poa-grid", "--width", "4", "--height", "4",
            "--eps", "0.1", "--beta", "1.0", "--out", str(inst),
        ]
    )
    assert code == 0
    doc = InstanceDocument.load(inst)
    assert set(doc.reference_profiles) == {"good", "bad"}


def test_verify_command(monkeypatch, capsys):
    # tests/test_acceptance.py runs criteria 2-8: here stand-ins keep their
    # names and order, and k5-cycle stays real for its period=2 detail
    first, *rest = verify.CRITERIA
    stand_ins = [(name, lambda name=name: f"{name} stand-in") for name, _ in rest]
    monkeypatch.setattr(verify, "CRITERIA", (first, *stand_ins))
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    passed = [
        line.split(":")[0].removeprefix("[PASS] ")
        for line in out.splitlines()
        if line.startswith("[PASS] ")
    ]
    assert passed == [
        "k5-cycle",
        "slack-laws",
        "potential-identity",
        "optimum-is-equilibrium",
        "poa-closed-form",
        "solver-vs-oracle",
        "matched-equilibria-convex",
        "batch-shape",
    ]
    assert "[FAIL]" not in out
    assert "period=2" in out
    assert "all 8 checks passed" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    import netalloc.cli as cli_mod
    from netalloc.verify import CheckResult

    monkeypatch.setattr(
        cli_mod,
        "verify_reference_suite",
        lambda: [CheckResult("stub", False, "injected failure")],
    )
    assert main(["verify"]) == 5
    assert "[FAIL] stub" in capsys.readouterr().out


# -- mutated documents -----------------------------------------------------------


def _small_document():
    """A valid 4-player ranked document with every optional section."""
    doc = gen_ranked_instance(n=4, edge_prob=0.7, seed=2, budget_units=4).to_json_dict()
    rows = [[e["i"], e["j"], 1] for e in doc["edges"]]
    rows += [[e["j"], e["i"], 1] for e in doc["edges"]]
    doc["suggested_init"] = rows
    doc["reference_profiles"] = {"ones": copy.deepcopy(rows)}
    return doc


BAD_VALUES = [
    None, "x", [], {}, True, -1, 0, 4, 99, 2**60, -(2**60), 0.5, 1e308,
    math.nan, math.inf, -math.inf,
]


@st.composite
def mutated_documents(draw):
    """Up to three edits, each at a drawn place in the document: delete it,
    replace it by a value of a wrong type or range, or repeat it (a list
    entry; an edge may come back reversed)."""
    doc = _small_document()
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while (
            isinstance(parent[key], (dict, list))
            and parent[key]
            and draw(st.booleans())
        ):
            parent = parent[key]
            keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["delete", "set", "repeat"]))
        if op == "delete":
            del parent[key]
        elif op == "repeat" and isinstance(parent, list):
            entry = copy.deepcopy(parent[key])
            reversible = isinstance(entry, dict) and {"i", "j"} <= set(entry)
            if reversible and draw(st.booleans()):
                entry["i"], entry["j"] = entry["j"], entry["i"]
            parent.insert(draw(st.integers(0, len(parent))), entry)
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return doc


MUTANT_COMMANDS = [
    ["simulate"],
    ["simulate", "--init", "random", "--order", "random", "--seed", "1"],
    ["optimum"],
    ["experiment", "--runs", "2", "--n-jobs", "1"],
]


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_documents())
def test_mutated_documents_end_in_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "doc.json"
        inst.write_text(json.dumps(doc))  # NaN and inf as NaN / Infinity
        for command in MUTANT_COMMANDS:
            args = [*command, "--instance", str(inst)]
            if command[0] == "experiment":
                args += ["--out-prefix", str(Path(tmp) / "exp")]
            assert main(args) in (0, 2, 3, 4), command
