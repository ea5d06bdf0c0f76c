"""Record the reference outputs that the benchmark checks runs against.

    PYTHONPATH=src python3 perfbench/reference.py --seeds 0-15,1000-1015,4242

For each workload and seed this stores the sha256 of the per-run records
(worker.digest), the number of runs and the total rounds, in
perfbench/reference.json.  torus_large and mixed_dense run their unit of
work once.  c8_paired is derived independently of ``run_batch_experiment``:
each run r of a batch is replayed from its public parts (``init_profile``,
``run_sequential`` and ``social_welfare`` with seed base + r), which gives
the same records only if the batch runner makes its runs the way it
documents.  Entries for seeds not named are kept.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def c8_outcome(state, cfg) -> workloads.Outcome:
    out = workloads.Outcome(attempted_runs=0)
    for behavior, spec in zip(workloads.C8Paired.behaviors, state.specs):
        for r in range(cfg["runs"]):
            workloads.sequential_run(spec, state.seeds[0] + r, behavior, out)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_list,
                        help="comma-separated seeds or ranges, e.g. 0-15,1000")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.workloads.split(","):
        workload = workloads.WORKLOADS[name]
        cfg = workloads.SIZES[args.size][name]
        for seed in args.seeds:
            state = workload.setup(seed, cfg)
            if name == "c8_paired":
                outcome = c8_outcome(state, cfg)
            else:
                outcome = workload.unit(state, cfg)
            if outcome.errors or not all(r[4] for r in outcome.records):
                raise SystemExit(f"{name} seed {seed}: a run failed, nothing recorded")
            data.setdefault(name, {})[str(seed)] = {
                "sha256": worker.digest(workload, outcome),
                "runs": len(outcome.records),
                "rounds": sum(r[2] for r in outcome.records),
            }
            print(name, seed, data[name][str(seed)], flush=True)
            args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
