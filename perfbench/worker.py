"""One workload in one fresh process: set up, measure, check, report.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SIZE REFERENCE

MODE "imports" times importing netalloc's dependencies (numpy and the
standard-library modules it uses) and nothing else; run.py sets set-up
times against it.  MODE "setup" times set-up only.  MODE "run" repeats the
workload's unit of work, untraced, as often as fits in SECONDS (at least
once) and checks the outputs.  MODE "traced" runs one unit with the tracer
installed.  The last line of standard output is one JSON object.  run.py
starts this script with ``src`` on PYTHONPATH; it is not meant to be called
by hand.

Only ``sys`` and ``time`` are imported before the set-up clock starts, so
that set-up pays for every module netalloc imports; the rest are imported
where they are used.

The unit's untraced times are taken raw and at nominal host speed
(hostspeed.py); the metrics use the nominal times, the manifest keeps both.
Set-up times are reported raw; run.py corrects them.
"""

import sys
import time


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, size, reference = argv[1:]
    seed, seconds = int(seed), float(seconds)

    if mode == "imports":
        started = time.perf_counter()
        import argparse, dataclasses, fractions, hashlib, json, multiprocessing, random  # noqa
        import numpy  # noqa

        print(json.dumps({"imports_s": time.perf_counter() - started}))
        return 0

    # set-up: importing netalloc, generating the instances, building specs
    started = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    cfg = workloads.SIZES[size][name]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = workload.setup(seed, cfg)
    setup_s = time.perf_counter() - started

    import json

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import hostspeed

    times: list[float] = []  # raw
    nominal: list[float] = []
    digests: list[str] = []
    first = None
    phase_start = time.perf_counter()
    while True:
        if tracer is None:
            with hostspeed.Clock() as clock:
                outcome = workload.unit(state, cfg)
            times.append(clock.raw)
            nominal.append(clock.nominal)
        else:  # one unit, timed raw; kernel samples would land in the spans
            t0 = time.perf_counter()
            outcome = workload.unit(state, cfg)
            times.append(time.perf_counter() - t0)
        if first is None:
            first = outcome
        digests.append(digest(workload, outcome))
        # stop before a repetition that would end past SECONDS
        elapsed = time.perf_counter() - phase_start
        if tracer is not None or elapsed + elapsed / len(times) > seconds:
            break
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    attempted, failed, notes = check(workload, cfg, first, digests, reference, seed)
    result = {
        "setup_s": setup_s,
        "times": times,
        "nominal_times": nominal,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "manifest": manifest(workload, cfg, state, seed, size),
    }
    if tracer is None:
        import statistics

        wall = statistics.median(nominal)
        done = [r for r in first.records if r[4]]
        result["metrics"] = {
            "wall_s": wall,
            "runs_per_s": len(done) / wall,
            "rounds_per_s": sum(r[2] for r in done) / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        from pathlib import Path

        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["missing_hooks"] = tracer.missing
        out = Path(__file__).resolve().parent / "out" / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write_spans(out)
        result["spans_file"] = str(out)
    print(json.dumps(result))
    return 0


def digest(workload, outcome) -> str:
    """sha256 of the unit's per-run records; torus_large adds each final
    profile's own sha256."""
    import hashlib
    import json

    rows = [list(r) for r in outcome.records]
    if workload.hash_profiles:
        for row, (spec, final) in zip(rows, outcome.finals):
            key = repr(final.key(spec)).encode()
            row.append(hashlib.sha256(key).hexdigest())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check(workload, cfg, outcome, digests, reference, seed):
    """Count the operations attempted and failed.

    Operations are the unit's dynamics runs, its reported optima, the
    rep-to-rep determinism check and, where a reference is recorded for the
    seed, the reference comparison.  A run fails if it raised, did not
    converge, or its final profile is not an equilibrium; an optimum fails
    unless a certified ``global_optimum`` result has its welfare and that
    welfare reaches the recorded floor.
    """
    import json

    import workloads
    from netalloc import dynamics

    notes = list(outcome.errors)
    attempted = outcome.attempted_runs
    failed = outcome.attempted_runs - len(outcome.records)
    for record, (spec, final) in zip(outcome.records, outcome.finals):
        ok = record[4]
        if ok:
            try:
                profile = workloads.final_profile(spec, final, record)
                verdict = dynamics.classify_equilibrium(spec, profile)
                ok = not isinstance(verdict, dynamics.NotEquilibrium)
            except Exception as exc:
                notes.append(f"checking {record[:3]}: {exc!r}")
                ok = False
        if not ok:
            failed += 1
            notes.append(f"run {record[:3]} did not converge to an equilibrium")

    attempted += workload.expected_optima
    floor = cfg.get("opt_floor")
    passed = 0
    for label, welfare in outcome.optima:
        certified = any(r.certified and r.welfare == welfare for r in outcome.optimum_results)
        if certified and (floor is None or welfare >= floor):
            passed += 1
        else:
            notes.append(f"{label} optimum {welfare!r}: certified={certified}, floor {floor}")
    failed += workload.expected_optima - passed

    attempted += 1
    if len(set(digests)) > 1:
        failed += 1
        notes.append(f"outputs differ between reps: {sorted(set(digests))}")

    with open(reference, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload.name, {}).get(str(seed))
    if entry is None:
        notes.append(f"no reference outputs recorded for seed {seed}")
    else:
        attempted += 1
        if digests[0] != entry["sha256"]:
            failed += 1
            notes.append(f"outputs {digests[0]} differ from reference {entry['sha256']}")
    return attempted, failed, notes


def manifest(workload, cfg, state, seed, size) -> dict:
    import hashlib
    import json
    import os
    import platform

    import numpy

    def canonical_sha256(doc) -> str:
        text = json.dumps(doc.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "config": cfg,
        "instance_seeds": state.seeds,
        "instance_sha256": [canonical_sha256(doc) for doc in state.docs],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
