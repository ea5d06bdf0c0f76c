"""netalloc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload c8_paired --seed 1000 --seconds 25 --trace 0

Run from the root of a netalloc checkout; the library is imported from its
``src`` directory.  Each worker runs in a fresh process (worker.py):

* ``--trace 0`` runs the workload untraced for ``--seconds`` and times
  set-up in further fresh processes; it prints the end-to-end metrics.
* ``--trace 1`` runs it untraced and then once traced, and prints the
  per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with its manifest, is also written to ``perfbench/out``.  Exit code 0 means a
result was printed; the exit code is 2 when the checkout has no netalloc
sources and 1 when a worker crashes or runs out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7  # fresh processes whose set-up time gives setup_s's median
# the usual time of worker.py's "imports" mode on the host the benchmark was
# set up on: setup_s is given at the host speed where it takes this long
IMPORTS_NOMINAL_S = 0.1
TIME_LIMIT_S = 170.0  # the whole call, all workers included


class WorkerError(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' is the reduced input of the self-test")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="recorded outputs to check against")
    args = parser.parse_args(argv)
    args.reference = args.reference.resolve()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_worker(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode, args.workload,
        str(args.seed), str(args.seconds), args.size, str(args.reference),
    ]
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran past the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_identity() -> dict:
    """The git commit if there is one, and a digest of the library sources."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        sha.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # never look up a repository above the checkout
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": commit, "source_sha256": sha.hexdigest()}


def measure(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list]:
    """Run the workers; return the metric values, the manifest and the
    worker results that count toward attempted and failed."""
    if args.trace:
        run = run_worker("run", args, deadline)
        traced = run_worker("traced", args, deadline)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["times"][0] - statistics.median(run["times"])
        manifest = dict(
            traced["manifest"],
            untraced_rep_times_s=run["times"],
            traced_time_s=traced["times"][0],
            missing_hooks=traced["missing_hooks"],
            spans_file=os.path.relpath(traced["spans_file"], ROOT),
        )
        return values, manifest, [run, traced]
    # Set-up samples before and after the measuring worker, each between two
    # fresh processes that only import netalloc's dependencies.  Importing is
    # most of set-up and slows down less than hostspeed's kernel does, so each
    # set-up time is set against the mean of its two neighbours' import times.
    imports = [run_worker("imports", args, deadline)["imports_s"]]
    setups: list[float] = []
    for k in range(SETUP_SAMPLES):
        if k == SETUP_SAMPLES // 2:
            run = run_worker("run", args, deadline)
            setups.append(run["setup_s"])
        else:
            setups.append(run_worker("setup", args, deadline)["setup_s"])
        imports.append(run_worker("imports", args, deadline)["imports_s"])
    nominal = [
        s * IMPORTS_NOMINAL_S * 2 / (imports[k] + imports[k + 1]) for k, s in enumerate(setups)
    ]
    values = dict(run["metrics"], setup_s=statistics.median(nominal))
    manifest = dict(
        run["manifest"],
        setup_samples_s=nominal,
        setup_raw_samples_s=setups,
        imports_samples_s=imports,
        rep_times_s=run["nominal_times"],
        rep_raw_times_s=run["times"],
    )
    return values, manifest, [run]


def main(argv: list[str]) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    bench = load_benchmark()
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if not (SRC / "netalloc" / "__init__.py").is_file():
        print(f"no netalloc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        values, manifest, workers = measure(args, deadline)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    manifest.update(source_identity(), trace=args.trace, seconds=args.seconds)
    notes = [n for w in workers for n in w["notes"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(result, manifest=manifest, notes=notes), indent=2) + "\n")
    for note in notes:
        print(f"note: {note}")
    print(f"manifest: {json.dumps(manifest, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} operations: "
          "runs, optima, determinism and reference checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
