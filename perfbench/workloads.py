"""The benchmark's workloads.

Each workload builds its inputs from the workload seed alone (``setup``),
then runs one fixed unit of work through netalloc's public functions
(``unit``).  A unit returns its per-run outputs; the worker checks them after
the timed phase.  Functions are looked up on their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

from netalloc import dynamics, experiment, game, instances
from netalloc.utility import UtilitySpec

# the criterion-8 torus: budget 1000, quantum 1, sqrt utility, weight seed 7
TORUS = dict(beta=1000.0, eta=1.0, weight_seed=7)

SIZES = {
    "full": {
        "c8_paired": {"side": 10, "runs": 100, "opt_floor": 1672.78218},
        "torus_large": {"side": 40},
        "mixed_dense": {"n": 150, "edge_prob": 0.1, "budget_units": 1000, "instances": 12},
    },
    # reduced inputs for the harness self-test; no reference values apply
    "small": {
        "c8_paired": {"side": 4, "runs": 3, "opt_floor": None},
        "torus_large": {"side": 6},
        "mixed_dense": {"n": 24, "edge_prob": 0.3, "budget_units": 100, "instances": 2},
    },
}


@dataclass
class Outcome:
    """Outputs of one unit of work.

    ``records`` holds one ``[label, seed, rounds, welfare, converged]`` row
    per completed run (welfare as ``repr``, so equality is bit-exact);
    ``finals`` holds ``(spec, profile)`` for the same runs, in order, where
    the profile may be a compact key or None when it was not captured.
    ``optima`` holds ``(label, welfare)`` per reported optimum and
    ``optimum_results`` every ``global_optimum`` result seen.
    """

    attempted_runs: int
    records: list = field(default_factory=list)
    finals: list = field(default_factory=list)
    optima: list = field(default_factory=list)
    optimum_results: list = field(default_factory=list)
    errors: list = field(default_factory=list)


@dataclass
class State:
    docs: list
    specs: list
    seeds: list


def sequential_run(spec, seed: int, label: str, out: Outcome) -> None:
    """One sequential run from a seeded random start in seeded random
    order, as ``run_batch_experiment`` makes each of its runs, then scored."""
    init = dynamics.init_profile(spec, dynamics.RandomFeasible(seed))
    cfg = dynamics.DynamicsConfig(order=dynamics.RandomSeeded(seed))
    final, _, status = dynamics.run_sequential(spec, init, cfg, trace_detail="light")
    welfare = game.social_welfare(spec, final)
    converged = isinstance(status, dynamics.Converged)
    rounds = status.t if converged else cfg.max_rounds
    out.records.append([label, seed, rounds, repr(welfare), converged])
    out.finals.append((spec, final))


class C8Paired:
    """Criterion 8 as users run it: an optimistic and then a pessimistic
    batch on the 10x10 torus, paired by seed base."""

    name = "c8_paired"
    hash_profiles = False
    behaviors = ("optimistic", "pessimistic")
    expected_optima = len(behaviors)  # each batch reports an optimum

    def setup(self, seed: int, cfg: dict) -> State:
        side = cfg["side"]
        doc = instances.gen_torus_grid(side, side, utility=UtilitySpec.sqrt(), **TORUS)
        specs = [doc.to_game_spec(behavior_override=b) for b in self.behaviors]
        return State(docs=[doc], specs=specs, seeds=[seed])

    def unit(self, state: State, cfg: dict) -> Outcome:
        out = Outcome(attempted_runs=len(self.behaviors) * cfg["runs"])
        finals: list = []
        # keep each run's final profile and each optimum for the checks; this
        # adds one call and a key copy to each run, which takes about 100 ms
        run_sequential = experiment.run_sequential
        global_optimum = experiment.global_optimum

        def keep_final(spec, *args, **kwargs):
            result = run_sequential(spec, *args, **kwargs)
            finals.append((spec, array("q", result[0].key(spec))))
            return result

        def keep_optimum(*args, **kwargs):
            result = global_optimum(*args, **kwargs)
            out.optimum_results.append(result)
            return result

        experiment.run_sequential = keep_final
        experiment.global_optimum = keep_optimum
        try:
            for behavior, spec in zip(self.behaviors, state.specs):
                config = experiment.ExperimentConfig(
                    runs=cfg["runs"], seed=state.seeds[0], behavior=behavior, bins=20
                )
                del finals[:]
                try:
                    report = experiment.run_batch_experiment(state.docs[0], config)
                except Exception as exc:  # the batch is lost; count its runs
                    out.errors.append(f"{behavior}: {exc!r}")
                    continue
                if len(finals) != len(report.runs):
                    # the runner no longer calls experiment.run_sequential:
                    # the checks replay each run from its seed instead
                    finals[:] = [(spec, None)] * len(report.runs)
                for run in report.runs:
                    out.records.append(
                        [behavior, run.seed, run.rounds, repr(run.final_welfare), run.converged]
                    )
                out.finals.extend(finals)
                out.optima.append((behavior, report.opt_welfare))
        finally:
            experiment.run_sequential = run_sequential
            experiment.global_optimum = global_optimum
        return out


class TorusLarge:
    """One optimistic sequential run on a 40x40 torus."""

    name = "torus_large"
    hash_profiles = True
    expected_optima = 0

    def setup(self, seed: int, cfg: dict) -> State:
        side = cfg["side"]
        doc = instances.gen_torus_grid(side, side, utility=UtilitySpec.sqrt(), **TORUS)
        spec = doc.to_game_spec(behavior_override="optimistic")
        return State(docs=[doc], specs=[spec], seeds=[seed])

    def unit(self, state: State, cfg: dict) -> Outcome:
        out = Outcome(attempted_runs=1)
        try:
            sequential_run(state.specs[0], state.seeds[0], "torus", out)
        except Exception as exc:
            out.errors.append(repr(exc))
        return out


class MixedDense:
    """Sequential runs on several random instances: mixed behaviours, all
    five utility families, mean degree about 15."""

    name = "mixed_dense"
    hash_profiles = False
    expected_optima = 0

    def setup(self, seed: int, cfg: dict) -> State:
        rng = random.Random(f"mixed_dense:{seed}")
        seeds = [rng.randrange(2**31) for _ in range(cfg["instances"])]
        docs = [
            instances.gen_random_instance(
                n=cfg["n"], edge_prob=cfg["edge_prob"], seed=s, budget_units=cfg["budget_units"]
            )
            for s in seeds
        ]
        specs = [doc.to_game_spec() for doc in docs]
        return State(docs=docs, specs=specs, seeds=seeds)

    def unit(self, state: State, cfg: dict) -> Outcome:
        out = Outcome(attempted_runs=len(state.specs))
        for k, (spec, seed) in enumerate(zip(state.specs, state.seeds)):
            try:
                sequential_run(spec, seed, f"instance{k}", out)
            except Exception as exc:
                out.errors.append(f"instance{k}: {exc!r}")
        return out


WORKLOADS = {w.name: w for w in (C8Paired(), TorusLarge(), MixedDense())}


def final_profile(spec, final, record) -> game.FrequencyProfile:
    """A run's final profile: as returned, rebuilt from its compact key, or
    replayed from the run's seed when it was not captured."""
    if isinstance(final, game.FrequencyProfile):
        return final
    if final is not None:
        return game.FrequencyProfile(dict(zip(spec.directed_edges, final)))
    replay = Outcome(attempted_runs=1)
    sequential_run(spec, record[1], record[0], replay)
    if replay.records[0][2:] != record[2:]:
        raise AssertionError(f"replay of {record} gave {replay.records[0]}")
    return replay.finals[0][1]
