"""Self-test of the benchmark harness on reduced inputs (about a minute).

    python3 perfbench/selftest.py

Run from the root of a netalloc checkout.  It checks that:

* every workload prints the result line the benchmark contract asks for,
  with every end-to-end metric untraced and every per-layer metric traced;
* all outputs pass against freshly recorded small references;
* the count metrics of two traced runs agree exactly;
* a deliberately wrong reference fails the output check;
* without netalloc sources the benchmark exits non-zero and prints no result.

It writes only under perfbench/out and exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"
SEED = 1
COUNT_UNITS = ("count",)


def run(cmd: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def bench(workload: str, trace: int, reference: Path) -> dict:
    proc = run([
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace), "--size", "small", "--reference", str(reference),
    ])
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    reference = OUT / "reference-small.json"
    reference.unlink(missing_ok=True)
    proc = run([sys.executable, str(HERE / "reference.py"), "--seeds", str(SEED),
                "--size", "small", "--out", str(reference)])
    expect(proc.returncode == 0, f"small references recorded {proc.stderr.strip()[-300:]}")

    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, trace, reference)
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace {trace}: result has exactly the contract's keys")
            expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
                   f"{workload} trace {trace}: every metric emitted, no other")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: outputs pass ({result['attempted']} operations)")
        again = bench(workload, 1, reference)
        counts = {k: v["value"] for k, v in result["metrics"].items() if layer_units[k] in COUNT_UNITS}
        counts_again = {k: v["value"] for k, v in again["metrics"].items() if layer_units[k] in COUNT_UNITS}
        expect(counts == counts_again, f"{workload}: traced counts repeat exactly")

    wrong = OUT / "reference-wrong.json"
    data = json.loads(reference.read_text())
    data["torus_large"][str(SEED)]["sha256"] = "0" * 64
    wrong.write_text(json.dumps(data))
    result = bench("torus_large", 0, wrong)
    expect(not result["correct"] and result["failed"] == 1,
           "a wrong reference fails the output check")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run([sys.executable, "perfbench/run.py", "--workload", "torus_large", "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode} and no result")
    shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
