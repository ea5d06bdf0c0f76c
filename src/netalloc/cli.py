"""Command-line surface: gen, simulate, optimum, experiment, verify.

``verify`` runs acceptance criteria 1-8 from ``netalloc.verify``, the same
functions the acceptance tests call.

Exit codes: 0 success/converged, 2 round limit hit, 3 cycle detected,
4 instance validation failure or bad parameter, 5 verification-suite
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import OptimizerConfig, global_optimum, ranking_violations
from .dynamics import (
    Converged,
    CycleDetected,
    DynamicsConfig,
    Given,
    MaxRoundsExceeded,
    RandomFeasible,
    RandomSeeded,
    RoundRobin,
    Zero,
    classify_equilibrium,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from .experiment import (
    ExperimentConfig,
    run_batch_experiment,
    write_histogram_csv,
    write_runs_jsonl,
    write_summary_json,
    write_trace_jsonl,
)
from .game import (
    BEHAVIORS,
    GameSpec,
    InfeasibleProfileError,
    check_feasible,
    social_welfare,
    validate_game,
)
from .instances import (
    InstanceDocument,
    InstanceFormatError,
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_random_instance,
    gen_torus_grid,
)
from .utility import CAPPED_QUADRATIC, FAMILIES, POWER, SQRT, UtilitySpec
from .verify import verify_reference_suite

EXIT_OK = 0
EXIT_MAX_ROUNDS = 2
EXIT_CYCLE = 3
EXIT_INVALID = 4
EXIT_VERIFY_FAILED = 5


def _utility_from_name(name: str, param: float | None) -> UtilitySpec:
    if name == POWER:
        if param is None:
            raise ValueError("--utility power needs --utility-param")
        return UtilitySpec.power(param)
    if name == CAPPED_QUADRATIC:
        if param is None:
            raise ValueError("--utility capped_quadratic needs --utility-param")
        return UtilitySpec.capped_quadratic(param)
    if param is not None:
        raise ValueError(f"--utility {name} takes no --utility-param")
    return UtilitySpec.from_json({"family": name})


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.kind == "torus":
            doc = gen_torus_grid(
                width=args.width,
                height=args.height,
                beta=args.beta,
                eta=args.eta,
                weight_seed=args.seed,
                utility=_utility_from_name(args.utility, args.utility_param),
                behavior=args.behavior,
            )
        elif args.kind == "k5":
            doc = gen_k5_cycle_instance(args.eps)
        elif args.kind == "poa-grid":
            doc, _, _ = gen_poa_grid_instance(
                args.width, args.height, args.eps, args.beta
            )
        else:
            doc = gen_random_instance(
                n=args.n,
                edge_prob=args.edge_prob,
                seed=args.seed,
                beta=args.beta,
                budget_units=args.budget_units,
                behavior=args.behavior if args.behavior != "mixed" else None,
            )
    except ValueError as exc:
        return _invalid(exc)
    violations = validate_game(doc.to_game_spec()).violations
    for v in violations:
        _invalid(v)
    if violations:
        return EXIT_INVALID
    doc.save(args.out)
    print(f"wrote {args.out} (n={doc.n}, edges={len(doc.edges)})")
    return EXIT_OK


def _profile_violations(doc: InstanceDocument, spec: GameSpec) -> list[str]:
    """Check the document's listed profiles against its game: every
    proposal on a directed edge, every directed edge covered, counts
    non-negative and within budget."""
    listed = []
    if doc.suggested_init is not None:
        listed.append(("suggested_init", doc.init_profile()))
    for name in sorted(doc.reference_profiles or {}):
        listed.append((f"reference profile {name!r}", doc.reference_profile(name)))
    bad = []
    for label, profile in listed:
        try:
            check_feasible(spec, profile)
        except InfeasibleProfileError as exc:
            bad.append(f"{label}: {exc}")
    return bad


def _invalid(problem: object) -> int:
    print(f"validation: {problem}", file=sys.stderr)
    return EXIT_INVALID


def _unwritable(path: str) -> str | None:
    """Why a file cannot be written at ``path`` (None if it can): checked
    before the work starts, so a finished run is not lost to a bad path."""
    if os.path.isdir(path):
        return f"output path {path} is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"output directory {parent} does not exist"
    if not os.access(parent, os.W_OK):
        return f"output directory {parent} is not writable"
    return None


def _load_valid_instance(path: str) -> InstanceDocument | None:
    try:
        doc = InstanceDocument.load(path)
    except (InstanceFormatError, OSError) as exc:
        _invalid(exc)
        return None
    spec = doc.to_game_spec()
    violations = list(validate_game(spec).violations)
    if not violations:
        violations = _profile_violations(doc, spec)
    if not violations and doc.ranking is not None:
        # positive ranks that induce the weights on symmetric utilities
        try:
            bad = ranking_violations(spec, doc.ranking_system())
        except ValueError as exc:
            bad = [str(exc)]
        violations = [f"ranking: {v}" for v in bad]
    for v in violations:
        _invalid(v)
    return None if violations else doc


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.mode == "sim" and args.order:
        return _invalid("--order applies to --mode seq only (everyone moves)")
    order = RandomSeeded(args.seed) if args.order == "random" else RoundRobin()
    try:
        cfg = DynamicsConfig(order=order, max_rounds=args.max_rounds, tol=args.tol)
    except ValueError as exc:
        return _invalid(exc)
    problem = args.trace_out and _unwritable(args.trace_out)
    if problem:
        return _invalid(problem)
    doc = _load_valid_instance(args.instance)
    if doc is None:
        return EXIT_INVALID
    spec = doc.to_game_spec(behavior_override=args.behavior)

    if args.init == "zero":
        policy = Zero()
    elif args.init == "random":
        policy = RandomFeasible(args.seed)
    else:
        suggested = doc.init_profile()
        policy = Given(suggested) if suggested is not None else Zero()
    start = init_profile(spec, policy)

    if args.mode == "sim":
        final, trace, status = run_simultaneous(spec, start, cfg)
    else:  # only a written trace needs every move
        detail = "full" if args.trace_out else "light"
        final, trace, status = run_sequential(spec, start, cfg, detail)

    if args.trace_out:
        write_trace_jsonl(
            trace,
            args.trace_out,
            profiles=args.trace_profiles,
            ranking=doc.ranking_system(),
        )

    sw = social_welfare(spec, final)
    slack = trace.records[-1].total_slack
    if isinstance(status, Converged):
        kind = type(classify_equilibrium(spec, final, cfg.tol)).__name__
        print(
            f"converged at round {status.t}: welfare={sw!r} "
            f"total_slack={slack} units class={kind}"
        )
        return EXIT_OK
    if isinstance(status, CycleDetected):
        print(
            f"cycle detected: start={status.start} period={status.period} "
            f"welfare={sw!r}"
        )
        return EXIT_CYCLE
    assert isinstance(status, MaxRoundsExceeded)
    print(f"round limit {status.rounds} exceeded: welfare={sw!r}")
    return EXIT_MAX_ROUNDS


def _cmd_optimum(args: argparse.Namespace) -> int:
    try:
        cfg = OptimizerConfig(max_iters=args.max_iters, gap_tol=args.gap_tol)
    except ValueError as exc:
        return _invalid(exc)
    problem = args.out and _unwritable(args.out)
    if problem:
        return _invalid(problem)
    doc = _load_valid_instance(args.instance)
    if doc is None:
        return EXIT_INVALID
    spec = doc.to_game_spec()
    result = global_optimum(spec, cfg)
    # relative duality gap, the quantity --gap-tol bounds
    gap = (result.upper_bound - result.welfare) / max(1.0, result.welfare)
    print(
        f"optimum welfare={result.welfare!r} upper_bound={result.upper_bound!r} "
        f"gap={gap:.3e} certified={result.certified} "
        f"iterations={result.iterations}"
    )
    if args.out:
        payload = {
            "welfare": result.welfare,
            "upper_bound": result.upper_bound,
            "gap": gap,
            "certified": result.certified,
            "iterations": result.iterations,
            "amounts": [
                [i, j, x] for (i, j), x in sorted(result.profile.amounts.items())
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        cfg = ExperimentConfig(
            runs=args.runs,
            seed=args.seed,
            behavior=args.behavior,
            dynamics=DynamicsConfig(max_rounds=args.max_rounds, tol=args.tol),
            bins=args.bins,
            n_jobs=args.n_jobs,
        )
    except ValueError as exc:
        return _invalid(exc)
    paths = [
        f"{args.out_prefix}.{suffix}"
        for suffix in ("histogram.csv", "summary.json", "runs.jsonl")
    ]
    for path in paths:
        problem = _unwritable(path)
        if problem:
            return _invalid(problem)
    doc = _load_valid_instance(args.instance)
    if doc is None:
        return EXIT_INVALID
    try:
        report = run_batch_experiment(doc, cfg)
    except ValueError as exc:
        return _invalid(exc)
    write_histogram_csv(report, paths[0])
    write_summary_json(report, paths[1])
    write_runs_jsonl(report, paths[2])
    print(
        f"runs={len(report.runs)} mean={report.mean:.6f} std={report.std:.6f} "
        f"mode_count={report.mode_count} non_converged={report.non_converged}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_reference_suite()
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.details}")
        if not r.passed:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netalloc",
        description="Budgeted resource-allocation games on networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument(
        "kind", choices=["torus", "k5", "poa-grid", "random"]
    )
    gen.add_argument("--out", required=True)
    gen.add_argument("--width", type=int, default=10)
    gen.add_argument("--height", type=int, default=10)
    gen.add_argument("--beta", type=float, default=1000.0)
    gen.add_argument("--eta", type=float, default=1.0)
    gen.add_argument("--eps", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--edge-prob", type=float, default=0.4)
    gen.add_argument("--budget-units", type=int, default=100)
    gen.add_argument("--utility", choices=FAMILIES, default=SQRT)
    gen.add_argument("--utility-param", type=float, default=None)
    gen.add_argument(
        "--behavior", choices=[*BEHAVIORS, "mixed"], default="pessimistic"
    )
    gen.set_defaults(func=_cmd_gen)

    sim = sub.add_parser("simulate", help="run one dynamics trajectory")
    sim.add_argument("--instance", required=True)
    sim.add_argument(
        "--init", choices=["zero", "random", "suggested"], default="suggested"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mode", choices=["seq", "sim"], default="seq")
    sim.add_argument("--order", choices=["rr", "random"])
    sim.add_argument("--max-rounds", type=int, default=1_000_000)
    sim.add_argument("--tol", type=float, default=1e-9)
    sim.add_argument("--behavior", choices=BEHAVIORS)
    sim.add_argument("--trace-out")
    sim.add_argument(
        "--trace-profiles", choices=["full", "hash"], default="full"
    )
    sim.set_defaults(func=_cmd_simulate)

    opt = sub.add_parser("optimum", help="solve for the welfare optimum")
    opt.add_argument("--instance", required=True)
    opt.add_argument("--max-iters", type=int, default=4000,
                     help="cap on the price updates (Newton steps or sweeps)")
    opt.add_argument("--gap-tol", type=float, default=1e-9)
    opt.add_argument("--out")
    opt.set_defaults(func=_cmd_optimum)

    exp = sub.add_parser("experiment", help="seeded batch of dynamics runs")
    exp.add_argument("--instance", required=True)
    exp.add_argument("--runs", type=int, default=100)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--behavior", choices=BEHAVIORS, default=None)
    exp.add_argument("--bins", type=int, default=40)
    exp.add_argument("--max-rounds", type=int, default=1_000_000)
    exp.add_argument("--tol", type=float, default=1e-9)
    exp.add_argument("--n-jobs", type=int, default=1)
    exp.add_argument("--out-prefix", required=True)
    exp.set_defaults(func=_cmd_experiment)

    ver = sub.add_parser("verify", help="run acceptance criteria 1-8")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
