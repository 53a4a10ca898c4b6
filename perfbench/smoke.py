#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is the result object with
exactly the keys the benchmark contract names, that the metrics are exactly
the ones BENCHMARK.json lists for that mode, with the same units, and that
every check passed. It also checks the metrics the workload notes name
in the run's result file, and that the benchmark refuses to run, with
no result line, when the package sources are missing. Exits 1 on the first
failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
TIMEOUT_S = 180

# metrics the workload notes name, written to each run's result file
NAMED = {
    "train_shared": {"train_s": "s", "train_objective": "objective"},
    "classify_heldout": {
        "classify_samples_per_s": "1/s", "classify_one_ms_p50": "ms",
        "classify_one_ms_p90": "ms", "test_accuracy": "ratio",
    },
    "bench_coders": {
        "bench_s": "s", "train_objective": "objective", "sequential_objective": "objective",
    },
}
COMMON = {"setup_s": "s", "error_rate": "ratio", "peak_rss_mb": "MB"}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_run(workload, trace, spec):
    argv = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: checks failed\n{proc.stdout[-2000:]}")
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json "
             f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]})")
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{workload}: metric {name} value {v!r}")
        if not trace and v == 0:
            fail(f"{workload}: end-to-end metric {name} is 0")
    tag = f"{workload}-seed3-trace{trace}"
    saved = json.loads((ROOT / "perfbench" / "out" / f"result-{tag}.json").read_text())
    named = {k: v["unit"] for k, v in saved["all_metrics"].items()}
    for name, unit in {**COMMON, **NAMED[workload]}.items():
        if named.get(name) != unit:
            fail(f"{workload}: named metric {name} [{unit}] missing from the result file")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    if saved["why"] != why:
        fail(f"{workload}: why differs between workloads.py and BENCHMARK.json")
    if trace and not (ROOT / "perfbench" / "out" / f"spans-{tag}.jsonl").is_file():
        fail(f"{workload}: traced run wrote no span file")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} operations checked")


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            RUN + ["--workload", "train_shared", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"ok  bare directory refused (exit {proc.returncode})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec)
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
