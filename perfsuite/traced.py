"""The traced run: one fixed pass of every workload, broken down by layer.

Every layer metric is measured on the workload whose end-to-end metric it
should move (the table in ``perfsuite/README.md``), so each traced run
covers all four workloads whatever ``--workload`` names, and prints every
per-layer metric.  Each workload's ops run untraced first and then again
under the tracer; the ratio of the two is ``trace.overhead`` and their
exact counts must agree.  ``serve`` is hosted in-process here, so spans
inside the server are visible.

Layer times are totals over the pass, counts are exact totals, except
where the README says a metric is a median or a ratio.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import tracing
import workloads as wl
from harness import metric, note

from repro.runtime.store import ArtifactStore
from repro.service.app import ReproService

#: Sizes of the traced pass (independent of ``--seconds``).
SAT_OPS = 3
SERVE_JOBS = 24
POOL_OPS = 2
IMPORT_REPEATS = 3


class Run:
    """Accumulates ops, probes, timings and metrics across the workloads."""

    def __init__(self) -> None:
        self.tracer = tracing.Tracer()
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.probes: List[float] = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.windows: List[Tuple[float, float]] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = metric(value, unit)

    def check(self, ops, label: str) -> None:
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.problems.append(f"{label}: {op.problem}")

    def twins(self, untraced, traced, label: str, walls=None) -> None:
        """Record an untraced/traced pair of op lists of one workload.

        ``walls`` overrides the summed op latencies as the two passes'
        durations, for passes whose ops overlap.
        """
        wl.compare_counts(untraced, traced)
        self.check(untraced + traced, label)
        if walls is None:
            walls = (
                sum(op.latency_s for op in untraced),
                sum(op.latency_s for op in traced),
            )
        self.untraced_s += walls[0]
        self.traced_s += walls[1]
        note(f"{label}: untraced {walls[0]:.4f} s, traced {walls[1]:.4f} s")
        self.windows += [op.window for op in traced]

    def probe(self) -> None:
        self.probes.append(harness.ref_loop_seconds())
        harness.settle()

    def alternate(self, items, op) -> Tuple[list, list]:
        """``op(item, traced)`` untraced and traced for each item.

        Which of the two goes first alternates (ABBA), so warm-up and
        host drift do not land on one side of ``trace.overhead``.
        """
        plain, traced = [], []
        for i, item in enumerate(items):
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                self.probe()
                if is_traced:
                    with tracing.installed(self.tracer):
                        traced.append(op(item, True))
                else:
                    plain.append(op(item, False))
        return plain, traced


# ----------------------------------------------------------------------
def trace_atlas(run: Run, seed: int, work: Path) -> None:
    inputs = wl.atlas_inputs(seed, 0, count=1)
    spec, master = inputs.spec, inputs.masters[0]

    def sweep(phase: str, traced: bool):
        tag = "traced" if traced else "plain"
        run_dir = harness.subdir(work, f"atlas-{tag}-{phase}")
        return wl.atlas_sweep(spec, master, run_dir, work / f"atlas-cache-{tag}")

    plain, traced = run.alternate(("cold", "warm"), sweep)
    cache = work / "atlas-cache-traced"
    run.twins([o for o, _, _ in plain], [o for o, _, _ in traced], "atlas")

    run.probe()
    pooled, _, pool_report = wl.atlas_sweep(
        spec, master, harness.subdir(work, "atlas-pool"), work / "atlas-cache-pool", workers=2
    )
    run.check([pooled], "atlas workers=2")
    serial_report = plain[0][2]
    run.put(
        "runtime.pool.trial_inflation",
        pool_report.total_trial_seconds / serial_report.total_trial_seconds,
        "ratio",
    )
    run.put("runtime.store.bytes", ArtifactStore(cache).total_bytes(), "bytes")
    run.put(
        "runtime.runner.serial_overhead_s",
        sum(r.wall_seconds - r.total_trial_seconds for _, _, r in traced),
        "s",
    )


def trace_sat(run: Run, seed: int) -> None:
    inputs = wl.sat_inputs(seed, 0, count=SAT_OPS)
    plain, traced = run.alternate(
        inputs.ops, lambda item, traced: wl.sat_break(inputs, *item)
    )
    run.twins(plain, traced, "sat")
    run.put("locking.sat_attack.dips", sum(op.counts["dips"] for op in traced), "count")
    run.put(
        "locking.appsat.iterations",
        sum(op.counts["appsat_iterations"] for op in traced),
        "count",
    )
    run.put(
        "locking.oracle_queries", sum(op.counts["oracle_queries"] for op in traced), "count"
    )


class InProcessServer:
    """The assessment service on an event loop in a background thread."""

    def __init__(self, data_dir: Path) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = ReproService(data_dir, port=0)
        self.thread = threading.Thread(target=self.loop.run_forever, name="bench-service")
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result(60)

    def stop(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(60)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.close()


def trace_serve(run: Run, seed: int, work: Path) -> None:
    jobs = wl.serve_inputs(seed, 0, count=SERVE_JOBS)
    data_dir = harness.subdir(work, "service-traced")
    server = InProcessServer(data_dir)
    try:
        host, port = server.service.host, server.service.port
        run.probe()
        plain, plain_wall = wl.serve_pass(host, port, jobs)
        run.probe()
        with tracing.installed(run.tracer):
            traced, traced_wall = wl.serve_pass(host, port, jobs)
    finally:
        server.stop()
    references = [wl.reference_digest(job) for job in jobs]
    for outcomes in (plain, traced):
        wl.check_digests(outcomes, references)
        wl.count_job_ledgers(outcomes, data_dir)
    run.twins(
        [o.op for o in plain], [o.op for o in traced], "serve", (plain_wall, traced_wall)
    )

    done = [o for o in traced if o.op.ok]  # failures are already reported
    run_s = [o.record["finished_at"] - o.record["started_at"] for o in done]
    run.put("service.ws.handshake_s", sum(o.handshake_s for o in done), "s")
    run.put(
        "service.queue_wait_s",
        sum(o.record["started_at"] - o.record["created_at"] for o in done),
        "s",
    )
    run.put("service.job.run_s", sum(run_s), "s")
    run.put(
        "service.job.overhead_s", sum(o.op.latency_s - s for o, s in zip(done, run_s)), "s"
    )


def trace_pool(run: Run, seed: int, work: Path) -> None:
    inputs = wl.pool_inputs(seed, 0, count=POOL_OPS)
    wl.pool_reference(inputs)

    plain, traced = run.alternate(
        range(inputs.ops),
        lambda i, traced: wl.pool_op(inputs, harness.subdir(work, f"pool-{i}-{int(traced)}")),
    )
    run.twins(plain, traced, "pool")
    starts = [op.extra[k] for op in traced for k in ("pool_start_s", "sharded_start_s")]
    run.put("runtime.pool.start_s", harness.median(starts), "s")
    run.put(
        "runtime.pool.steals",
        sum(sum(s.steals) for s in run.tracer.schedulers),
        "count",
    )
    run.put(
        "runtime.pool.overhead_s",
        sum(op.latency_s - wl.POOL_MAKESPAN_S for op in traced),
        "s",
    )


# ----------------------------------------------------------------------
def import_seconds() -> float:
    """Median wall time of ``import repro`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=harness.child_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip()))
    return harness.median(times)


def scipy_import_seconds() -> float:
    """Cumulative ``-X importtime`` of scipy.stats and scipy.optimize under repro.

    scipy loads these packages lazily, so the log has lines for their
    submodules but none for the packages: every outermost line under
    either name counts.  Lines arrive children first; read in reverse,
    each module precedes the modules it imported, so a counted module's
    own imports are skipped.
    """
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=harness.child_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    rows = []
    for line in out.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if cumulative.strip().isdigit():
            rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
    total = 0
    inside = None
    for depth, cumulative, name in reversed(rows):
        if inside is not None and depth > inside:
            continue
        inside = None
        if name.startswith(("scipy.stats", "scipy.optimize")):
            total += cumulative
            inside = depth
    if not total:
        raise RuntimeError("importing repro no longer imports scipy.stats or scipy.optimize")
    return total / 1e6


# ----------------------------------------------------------------------
def layer_metrics(run: Run) -> None:
    t = run.tracer
    for span in ("pufs.crp_gen", "learning.lr.fit", "learning.mlp.fit",
                 "learning.reliability.run", "learning.predict"):
        run.put(f"{span}_s", t.seconds(span), "s")
        run.put(f"{span}.calls", t.calls(span), "count")
    for span in ("runtime.store.get", "runtime.store.put", "analysis.atlas.reduce",
                 "telemetry.ledger.append", "telemetry.ledger.write_meta",
                 "locking.cnf.encode", "service.http.submit", "service.http.get",
                 "service.persist.job_save"):
        run.put(f"{span}_s", t.seconds(span), "s")
    run.put("runtime.store.hits", t.counts["runtime.store.hits"], "count")
    run.put("runtime.store.misses", t.counts["runtime.store.misses"], "count")
    run.put("telemetry.ledger.appends", t.calls("telemetry.ledger.append"), "count")
    run.put("service.persist.saves", t.calls("service.persist.job_save"), "count")
    solve_s = t.seconds("locking.solver.solve")
    run.put("locking.solver.solve_s", solve_s, "s")
    run.put("locking.solver.solve_calls", t.calls("locking.solver.solve"), "count")
    for stat in ("propagations", "conflicts", "decisions"):
        run.put(f"locking.solver.{stat}", t.counts[f"locking.solver.{stat}"], "count")
    run.put(
        "locking.solver.propagations_per_s",
        t.counts["locking.solver.propagations"] / solve_s,
        "1/s",
    )
    run.put("locking.cnf.clauses", t.counts["locking.cnf.clauses"], "count")


def run(workload: str, seed: int, seconds: float) -> int:
    """The ``--trace 1`` entry point (``workload`` and ``seconds`` only label it)."""
    state = Run()
    with harness.WorkDir() as work:
        trace_atlas(state, seed, work)
        trace_sat(state, seed)
        trace_serve(state, seed, work)
        trace_pool(state, seed, work)
    layer_metrics(state)
    state.put("startup.import_s", import_seconds(), "s")
    state.put("startup.scipy_import_s", scipy_import_seconds(), "s")
    state.put("host.ref_loop_s", statistics.mean(state.probes), "s")
    state.put("trace.overhead", state.traced_s / state.untraced_s, "ratio")
    covered, total = state.tracer.coverage(state.windows)
    state.put("trace.coverage", covered / total, "ratio")

    note(f"environment: {json.dumps(harness.environment(), sort_keys=True)}")
    note(f"traced run (requested for workload {workload}, seed {seed}): every workload")
    note(harness.table([("metric", "value", "unit")] + [
        (name, f"{m['value']:.6g}", m["unit"]) for name, m in sorted(state.metrics.items())
    ]))
    for problem in state.problems:
        note(f"FAILED op: {problem}")
    failed = len(state.problems)
    harness.emit_result(not failed, state.attempted, failed, state.metrics)
    return 0
