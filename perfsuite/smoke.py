#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a small size.

    python3 perfsuite/smoke.py

Checks, from the root of a checkout, that:

- every workload run untraced prints every end-to-end metric of
  ``BENCHMARK.json`` with its unit, and every check passes;
- two traced runs of one seed print every per-layer metric with its unit,
  pass every check, and agree exactly on every count (except
  ``runtime.pool.steals``, which depends on which shard goes idle first);
- in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the command exits non-zero without printing a result.

Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMING_DEPENDENT_COUNTS = {"runtime.pool.steals"}
SECONDS = 2
SEED = 7


def bench(cwd: Path, workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)]
    return subprocess.run(
        SPEC["command"] + args + ["--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
    )


def check_result(out: subprocess.CompletedProcess, expected, label: str) -> dict:
    if out.returncode != 0:
        sys.exit(f"{label}: exit {out.returncode}\n{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [line for line in out.stdout.splitlines() if line.startswith("FAILED")]
        sys.exit(f"{label}: checks failed: {failures}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    print(f"ok  {label}: {result['attempted']} ops", flush=True)
    return result["metrics"]


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(bench(ROOT, workload, 0), SPEC["end_to_end"], f"{workload} --trace 0")

    first, second = (
        check_result(bench(ROOT, "atlas", 1), SPEC["per_layer"], f"traced run {i}")
        for i in (1, 2)
    )
    for m in SPEC["per_layer"]:
        name = m["name"]
        if m["unit"] in ("count", "bytes") and name not in TIMING_DEPENDENT_COUNTS:
            if first[name]["value"] != second[name]["value"]:
                sys.exit(f"count {name} drifted: {first[name]['value']} then {second[name]['value']}")
    print("ok  every count repeats exactly across two traced runs of one seed")

    harness.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, Path(bare) / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = bench(Path(bare), SPEC["workloads"][0]["name"], 0, env=env)
        lines = out.stdout.strip().splitlines()
        if out.returncode == 0 or (lines and lines[-1].startswith("{")):
            sys.exit("the benchmark ran, or printed a result, without the program")
    harness.WORK_ROOT.rmdir()
    print("ok  refuses to run without the program")


if __name__ == "__main__":
    main()
