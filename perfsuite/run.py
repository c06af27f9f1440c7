#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end or traced by layer.

    python3 perfsuite/run.py --workload atlas --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it runs one workload
untraced and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed traced pass of every workload and reports the per-layer metrics
(see ``perfsuite/README.md``).  Human-readable tables go to stdout first;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever that line was
printed, and non-zero without it when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import harness
from harness import metric, note

WORKLOADS = ("atlas", "sat", "serve", "pool")
SETUP_REPEATS = 5


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(harness.SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if harness.SRC.resolve() not in where.parents:
        raise SystemExit(f"repro imported from {where}, not from {harness.SRC}")


# ----------------------------------------------------------------------
# Untraced: one workload, end-to-end metrics.
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int, seconds: float, work: Path):
    """Cold starts, each with the mean host probe around it; for serve, the server.

    Returns ``([(seconds, host_s), ...], server)``; the last server launched
    keeps running for the ops.
    """
    import workloads as wl

    starts: List[Tuple[float, float]] = []
    server = None
    before = harness.ref_loop_seconds()
    for i in range(SETUP_REPEATS):
        if workload == "serve":
            if server is not None:
                server.stop()
            server = wl.ServerProcess(harness.subdir(work, f"service-{i}"))
            elapsed = server.startup_s
        else:
            start = time.perf_counter()
            subprocess.run(
                [
                    sys.executable,
                    str(harness.HERE / "setup_probe.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                ],
                env=harness.child_env(),
                check=True,
                timeout=120,
            )
            elapsed = time.perf_counter() - start
        after = harness.ref_loop_seconds()
        starts.append((elapsed, (before + after) / 2))
        before = after
    return starts, server


def untraced(workload: str, seed: int, seconds: float) -> int:
    import workloads as wl

    with harness.WorkDir() as work:
        starts, server = measure_setup(workload, seed, seconds, work)
        try:
            inputs = wl.BUILDERS[workload](seed, seconds)
            if workload == "serve":
                cold, warm = wl.serve_run(inputs, server)
                rss = server.peak_rss_mb()
            else:
                runner = {"atlas": wl.atlas_run, "sat": wl.sat_run, "pool": wl.pool_run}
                cold, warm = runner[workload](inputs, work)
                rss = harness.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()

    # Host speed swings by up to 2x here; every time spent computing is
    # divided by the probes around it (README, "Host normalisation").
    # ``pool`` ops sleep, so only its cold starts are normalised.
    ops_host_bound = wl.HOST_BOUND[workload]

    def summarise(normalise: bool) -> Dict[str, float]:
        def norm(seconds: float, host_s: float, host_bound: bool = True) -> float:
            return harness.normalised(seconds, host_s) if normalise and host_bound else seconds

        def rate(done) -> float:
            busy = sum(norm(wall, host, ops_host_bound) for wall, host in done.segments)
            return sum(op.units for op in done.ops) / busy

        latencies = [norm(op.latency_s, op.host_s, ops_host_bound) for op in cold.ops]
        return {
            "setup_s": harness.median([norm(*start) for start in starts]),
            "ops_per_s": rate(cold),
            "warm_ops_per_s": rate(warm),
            "op_p50_s": harness.median(latencies),
            "op_p90_s": harness.percentile(latencies, 90),
            "first_event_p50_s": harness.median(
                [norm(op.first_event_s, op.host_s, ops_host_bound) for op in cold.ops]
            ),
        }

    reported, as_timed = summarise(True), summarise(False)
    ops = cold.ops + warm.ops
    ok = sum(op.ok for op in ops)
    metrics = {
        name: metric(value, "1/s" if name.endswith("_per_s") else "s")
        for name, value in reported.items()
    }
    metrics["ok_ratio"] = metric(ok / len(ops), "ratio")
    metrics["peak_rss_mb"] = metric(rss, "MB")
    note(f"environment: {json.dumps(harness.environment(), sort_keys=True)}")
    note(
        f"workload {workload}: seed {seed}, {len(cold.ops)} cold + {len(warm.ops)} warm ops, "
        f"ops_per_s counts {wl.UNITS[workload]}; "
        f"reference loop {harness.REF_LOOP_NOMINAL_S} s nominal"
    )
    note(harness.table([("metric", "value", "unit", "as timed")] + [
        (name, f"{m['value']:.6g}", m["unit"], f"{as_timed[name]:.6g}" if name in as_timed else "")
        for name, m in metrics.items()
    ]))
    note("op latencies (s), cold: " + " ".join(f"{op.latency_s:.4f}" for op in cold.ops))
    note("op latencies (s), warm: " + " ".join(f"{op.latency_s:.4f}" for op in warm.ops))
    for label, during in (
        ("setup", [host for _, host in starts]), ("cold", cold.probes), ("warm", warm.probes)
    ):
        note(f"host_s around each op, {label}: " + " ".join(f"{p:.4f}" for p in during))
    for op in ops:
        if not op.ok:
            note(f"FAILED op: {op.problem}")
    harness.emit_result(ok == len(ops), len(ops), len(ops) - ok, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    if args.trace:
        import traced

        return traced.run(args.workload, args.seed, args.seconds)
    return untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
