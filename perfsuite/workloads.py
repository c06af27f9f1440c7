"""The four workloads: inputs made from a seed, the timed ops, their checks.

Each workload builds its inputs from ``(seed, seconds)`` alone — the same
pair always gives the same inputs — and runs every input twice: a cold
pass, then a warm pass over the same inputs in the same process (for
``atlas`` against the artifact store the cold pass filled).  An op is
correct when its output passes the workload's check and, on the warm
pass, when its exact counts (DIPs, trials, ledger appends, store entries)
equal the cold op's.

Op counts scale with ``--seconds`` through fixed nominal op costs, so a
given ``(seed, seconds)`` always does the same amount of work.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import HERE, child_env, peak_rss_mb, ref_loop_seconds, settle, subdir

from repro.analysis.atlas import expand_grid, run_atlas, smoke_spec
from repro.locking.appsat import AppSAT
from repro.locking.circuits import random_circuit
from repro.locking.sarlock import sarlock
from repro.locking.sat_attack import SATAttack
from repro.runtime.runner import TrialRunner, trial_record
from repro.runtime.store import ArtifactStore
from repro.runtime.workloads import SkewedSleepSpec, skewed_sleep_trial
from repro.service.client import ServiceClient
from repro.service.jobs import build_workload, values_digest
from repro.telemetry.ledger import RunLedger

#: Boundary-map digests of the atlas smoke grid, pinned per master seed at
#: the commit that introduced the benchmark.  A benchmark seed picks its
#: master seeds from this list, so every seed's digests are pinned.
PINS: Dict[str, str] = json.loads((HERE / "pins.json").read_text())["atlas"]


@dataclasses.dataclass
class Op:
    """One timed op: latency, time to its first result, and its check."""

    latency_s: float
    first_event_s: float
    units: int
    ok: bool
    counts: Dict[str, int]
    problem: str = ""
    window: Tuple[float, float] = (0.0, 0.0)
    #: Timings only the traced run reports (e.g. each pool's start latency).
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Mean of the host probes on either side of the op.
    host_s: float = 0.0


@dataclasses.dataclass
class Pass:
    """The ops of one pass and the stretches of wall time they took.

    A segment is ``(wall seconds, host_s)``: one op, or for ``serve`` one
    chunk of overlapping ops, with the mean of the probes around it.
    """

    ops: List[Op] = dataclasses.field(default_factory=list)
    segments: List[Tuple[float, float]] = dataclasses.field(default_factory=list)

    @property
    def probes(self) -> List[float]:
        return [host for _, host in self.segments]


def ops_for(seconds: float, op_seconds: float) -> int:
    """How many (cold, warm) op pairs fit in ``seconds`` at nominal cost."""
    return max(1, int(round(seconds / op_seconds)))


def compare_counts(cold: Sequence[Op], warm: Sequence[Op]) -> None:
    """Fail any warm op whose exact counts differ from its cold twin's."""
    for a, b in zip(cold, warm):
        if a.counts != b.counts:
            b.ok = False
            b.problem = f"counts drifted: {a.counts} then {b.counts}"


class TimedLedger(RunLedger):
    """A run ledger that notes when the trials in ``awaited`` are all recorded."""

    def __init__(self, run_dir: Path, awaited: Sequence[int]) -> None:
        super().__init__(run_dir)
        self.pending = set(awaited)
        self.complete_at: Optional[float] = None

    def append(self, record) -> None:
        super().append(record)
        self.pending.discard(record["index"])
        if not self.pending and self.complete_at is None:
            self.complete_at = time.perf_counter()


def line_count(paths: Sequence[Path]) -> int:
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def run_pairs(inputs: Sequence, op: Callable[[object, bool], Op]) -> Tuple[Pass, Pass]:
    """Run each input cold then warm, back to back, with a probe between ops.

    Each op is bracketed by the probes before and after it; their mean is
    its ``host_s``.
    """
    cold, warm = Pass(), Pass()
    before = ref_loop_seconds()
    for item in inputs:
        for is_warm, out in ((False, cold), (True, warm)):
            settle()
            done = op(item, is_warm)
            after = ref_loop_seconds()
            done.host_s = (before + after) / 2
            out.ops.append(done)
            out.segments.append((done.latency_s, done.host_s))
            before = after
    compare_counts(cold.ops, warm.ops)
    return cold, warm


# ----------------------------------------------------------------------
# atlas: the boundary-map sweep of the smoke grid, serial.
# ----------------------------------------------------------------------
ATLAS_SWEEP_S = 1.6


@dataclasses.dataclass
class AtlasInputs:
    spec: object
    masters: List[int]


def atlas_inputs(seed: int, seconds: float, count: Optional[int] = None) -> AtlasInputs:
    seeds = sorted(int(s) for s in PINS)
    order = np.random.default_rng(seed).permutation(len(seeds))
    count = count or ops_for(seconds, 2 * ATLAS_SWEEP_S)
    return AtlasInputs(smoke_spec(), [seeds[order[i % len(seeds)]] for i in range(count)])


def first_map_trials(spec) -> List[int]:
    """Trial indices of the first boundary map (one k x m heatmap) of a sweep.

    An atlas user's first result is a whole map, not one cell: a map is a
    (family, learner, representation, n, noise) slice of the grid.
    """
    def slice_of(cell):
        return cell.family, cell.learner, cell.representation, cell.n, cell.noise_sigma

    cells = expand_grid(spec)
    return [
        i * spec.replicates + r
        for i, cell in enumerate(cells)
        if slice_of(cell) == slice_of(cells[0])
        for r in range(spec.replicates)
    ]


def atlas_sweep(spec, master: int, run_dir: Path, cache_dir: Path, workers: int = 1):
    """One timed sweep; returns ``(op, payload, report)``."""
    ledger = TimedLedger(run_dir, first_map_trials(spec))
    start = time.perf_counter()
    payload, report = run_atlas(
        spec, master_seed=master, workers=workers, ledger=ledger, cache_dir=str(cache_dir)
    )
    end = time.perf_counter()
    problems = []
    if report.failures():
        problems.append(f"{len(report.failures())} trials failed")
    if payload["missing_trials"]:
        problems.append(f"{payload['missing_trials']} trials missing")
    if payload["digest"] != PINS[str(master)]:
        problems.append(f"digest {payload['digest']} != pinned {PINS[str(master)]}")
    op = Op(
        latency_s=end - start,
        first_event_s=(ledger.complete_at or end) - start,
        units=int(payload["num_cells"]),
        ok=not problems,
        counts={
            "trials": len(report.results),
            "ledger_appends": line_count([ledger.path]),
            "store_entries": len(ArtifactStore(cache_dir).entries()),
        },
        problem="; ".join(problems),
        window=(start, end),
    )
    return op, payload, report


def atlas_run(inputs: AtlasInputs, work: Path) -> Tuple[Pass, Pass]:
    def op(master: int, warm: bool) -> Op:
        tag = f"{master}-{'warm' if warm else 'cold'}"
        return atlas_sweep(
            inputs.spec, master, subdir(work, tag), work / f"cache-{master}"
        )[0]

    return run_pairs(inputs.masters, op)


# ----------------------------------------------------------------------
# sat: break SARLock-ed random circuits, exactly then approximately.
# ----------------------------------------------------------------------
SAT_OP_S = 0.85
SAT_CIRCUITS = 8
SAT_INPUTS = 12
SAT_KEY_BITS = 5
#: Every wrong SARLock key corrupts exactly 2^-5 of the inputs, and 128
#: random samples cannot tell 1% from 3%: at AppSAT's default 1% threshold
#: it settles on such keys.  5% is a threshold its sample size resolves.
APPSAT_THRESHOLD = 0.05


@dataclasses.dataclass
class SatInputs:
    circuits: List[object]
    ops: List[Tuple[int, int]]  # (circuit index, AppSAT seed)
    all_inputs: np.ndarray


def sat_circuit(index: int):
    rng = np.random.default_rng(index)
    return sarlock(random_circuit(SAT_INPUTS, 40, 3, rng), SAT_KEY_BITS, rng)


def sat_inputs(seed: int, seconds: float, count: Optional[int] = None) -> SatInputs:
    """Whole rounds over the circuit list, each round in a seed-drawn order.

    Circuits differ in cost by a third; whole rounds keep that out of the
    spread between seeds.
    """
    rng = np.random.default_rng(seed)
    rounds = ops_for(seconds, 2 * SAT_OP_S * SAT_CIRCUITS)
    order = np.concatenate([rng.permutation(SAT_CIRCUITS) for _ in range(rounds)])
    count = count or len(order)
    grid = np.arange(2**SAT_INPUTS)[:, None] >> np.arange(SAT_INPUTS)
    return SatInputs(
        circuits=[sat_circuit(i) for i in range(SAT_CIRCUITS)],
        ops=[(int(order[i]), seed * 1000 + i) for i in range(count)],
        all_inputs=(grid & 1).astype(np.int8),
    )


def sat_break(inputs: SatInputs, circuit: int, appsat_seed: int) -> Op:
    target = inputs.circuits[circuit]
    start = time.perf_counter()
    exact = SATAttack().run(target)
    first = time.perf_counter()
    approx = AppSAT(error_threshold=APPSAT_THRESHOLD).run(
        target, np.random.default_rng(appsat_seed)
    )
    end = time.perf_counter()
    problems = []
    if not (exact.success and target.key_is_functionally_correct(exact.key)):
        problems.append("exact key wrong")
    if approx.key is None:
        problems.append("AppSAT returned no key")
    else:
        x = inputs.all_inputs
        wrong = np.any(target.evaluate_locked(x, approx.key) != target.oracle(x), axis=1)
        if wrong.mean() > APPSAT_THRESHOLD:
            problems.append(f"AppSAT key error {wrong.mean():.4f}")
    return Op(
        latency_s=end - start,
        first_event_s=first - start,
        units=1,
        ok=not problems,
        counts={
            "dips": exact.iterations,
            "appsat_iterations": approx.iterations,
            "oracle_queries": exact.oracle_queries + approx.oracle_queries,
        },
        problem="; ".join(problems),
        window=(start, end),
    )


def sat_run(inputs: SatInputs, work: Path) -> Tuple[Pass, Pass]:
    return run_pairs(inputs.ops, lambda item, warm: sat_break(inputs, *item))


# ----------------------------------------------------------------------
# serve: two closed-loop clients against `python -m repro serve`.
# ----------------------------------------------------------------------
SERVE_JOB_S = 0.037
SERVE_CLIENTS = 2
SERVE_BUDGETS = (60, 100, 150)
#: Jobs between two host probes (about half a second of serving).
SERVE_CHUNK = 14


def serve_inputs(seed: int, seconds: float, count: Optional[int] = None) -> List[Dict]:
    """Job submissions: tiny interactive ``curve`` jobs, one budget each."""
    rng = np.random.default_rng(seed)
    count = count or ops_for(seconds, 2 * SERVE_JOB_S)
    return [
        {
            "workload": "curve",
            "spec": {"n": 16, "budgets": [int(rng.choice(SERVE_BUDGETS))], "test_size": 200},
            "trials": 4,
            "seed": seed * 100_000 + i,
        }
        for i in range(count)
    ]


def reference_digest(job: Dict) -> str:
    """The values digest of ``job`` run in-process on a serial TrialRunner."""
    trial_fn, spec = build_workload(job["workload"], job["spec"])
    report = TrialRunner(workers=1).run(trial_fn, job["trials"], job["seed"], {"spec": spec})
    return values_digest([trial_record(r)["value"] for r in report.results])


class ServerProcess:
    """``python -m repro serve --port 0`` in a child process."""

    def __init__(self, data_dir: Path) -> None:
        self.data_dir = data_dir
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--data-dir", str(data_dir)],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            self.host, self.port = self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _wait_healthy(self, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        info_path = self.data_dir / "service.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.proc.stderr.read().decode(errors="replace")[-2000:]
                )
            try:
                info = json.loads(info_path.read_text())
                ServiceClient(info["host"], info["port"], timeout=5).health()
                return info["host"], info["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        raise TimeoutError("server did not answer /v1/healthz")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stderr.close()


@dataclasses.dataclass
class JobOutcome:
    op: Op
    record: Dict
    handshake_s: float


def client_loop(
    host: str, port: int, api_key: str, jobs: Sequence[Tuple[int, Dict]], out: Dict[int, JobOutcome]
) -> None:
    """Submit, stream every event, GET the record, and only then submit again."""
    client = ServiceClient(host, port, api_key=api_key, timeout=60)
    for index, job in jobs:
        start = time.perf_counter()
        first = done = hello = None
        record: Dict = {}
        problem = ""
        try:
            job_id = client.submit(**job)["job_id"]
            stream_start = time.perf_counter()
            for event in client.stream_events(job_id, timeout=60):
                now = time.perf_counter()
                kind = event.get("event")
                if hello is None:
                    hello = now - stream_start
                if kind == "trial" and first is None:
                    first = now - start
                elif kind == "done":
                    done = now
            record = client.job(job_id)
        except Exception as exc:  # a failed op is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        end = done if done is not None else time.perf_counter()
        if not problem and record.get("state") != "done":
            problem = f"job ended {record.get('state')}: {record.get('error')}"
        if not problem and (done is None or first is None):
            problem = "event stream missing its trial or done event"
        result = record.get("result") or {}
        out[index] = JobOutcome(
            op=Op(
                latency_s=end - start,
                first_event_s=(first if first is not None else end - start),
                units=1,
                ok=not problem,
                counts={"completed": int(result.get("completed") or 0)},
                problem=problem,
                window=(start, end),
            ),
            record=record,
            handshake_s=hello or 0.0,
        )


def serve_pass(host: str, port: int, jobs: Sequence[Dict]) -> Tuple[List[JobOutcome], float]:
    """All ``jobs`` through :data:`SERVE_CLIENTS` closed-loop clients."""
    out: Dict[int, JobOutcome] = {}
    indexed = list(enumerate(jobs))
    threads = [
        threading.Thread(
            target=client_loop,
            args=(host, port, f"bench-client-{c}", indexed[c::SERVE_CLIENTS], out),
        )
        for c in range(SERVE_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return [out[i] for i in range(len(jobs))], wall


def check_digests(outcomes: Sequence[JobOutcome], references: Sequence[str]) -> None:
    for outcome, want in zip(outcomes, references):
        got = (outcome.record.get("result") or {}).get("digest")
        if outcome.op.ok and got != want:
            outcome.op.ok = False
            outcome.op.problem = f"result digest {got} != in-process {want}"


def count_job_ledgers(outcomes: Sequence[JobOutcome], data_dir: Path) -> None:
    """Add each finished job's ledger appends to its exact counts."""
    for outcome in outcomes:
        ledger = data_dir / "jobs" / str(outcome.record.get("job_id")) / "ledger.jsonl"
        outcome.op.counts["ledger_appends"] = line_count([ledger]) if ledger.exists() else 0


def serve_run(jobs: List[Dict], server: "ServerProcess") -> Tuple[Pass, Pass]:
    """Cold pass, then the same jobs again, in chunks with a probe between.

    The clients pause while the host probe runs, so the probe neither
    competes with them nor lands in a latency.
    """
    passes = []
    outcomes = []
    for _ in ("cold", "warm"):
        done: List[JobOutcome] = []
        this = Pass()
        before = ref_loop_seconds()
        for start in range(0, len(jobs), SERVE_CHUNK):
            settle()
            chunk, chunk_wall = serve_pass(
                server.host, server.port, jobs[start : start + SERVE_CHUNK]
            )
            after = ref_loop_seconds()
            for outcome in chunk:
                outcome.op.host_s = (before + after) / 2
            this.segments.append((chunk_wall, (before + after) / 2))
            done += chunk
            before = after
        this.ops = [o.op for o in done]
        outcomes.append(done)
        passes.append(this)
    references = [reference_digest(job) for job in jobs]
    for done in outcomes:
        check_digests(done, references)
        count_job_ledgers(done, server.data_dir)
    compare_counts(passes[0].ops, passes[1].ops)
    return passes[0], passes[1]


# ----------------------------------------------------------------------
# pool: the skewed sleep mix through both process-pool drivers.
# ----------------------------------------------------------------------
POOL_OP_S = 0.9
POOL_TRIALS = 96
POOL_SPEC = SkewedSleepSpec(slow_count=4, slow_seconds=0.1, fast_seconds=0.002)
#: The sleep-bound makespan of one op.  Each of the two drivers spreads
#: the mix over two processes, so at best it takes half the summed sleep;
#: the op runs both drivers, so its bound is the summed sleep.
POOL_MAKESPAN_S = (
    POOL_SPEC.slow_count * POOL_SPEC.slow_seconds
    + (POOL_TRIALS - POOL_SPEC.slow_count) * POOL_SPEC.fast_seconds
)


@dataclasses.dataclass
class PoolInputs:
    master_seed: int
    ops: int
    reference: List[np.ndarray]


def pool_inputs(seed: int, seconds: float, count: Optional[int] = None) -> PoolInputs:
    return PoolInputs(seed, count or ops_for(seconds, 2 * POOL_OP_S), [])


def pool_reference(inputs: PoolInputs) -> None:
    """The serial run the drivers must reproduce value for value."""
    report = TrialRunner(workers=1).run(
        skewed_sleep_trial, POOL_TRIALS, inputs.master_seed, {"spec": POOL_SPEC}
    )
    inputs.reference = [r.value for r in report.results]


class FirstResult:
    """``on_result`` hook noting when a run delivered its first trial."""

    at: Optional[float] = None

    def __call__(self, result) -> None:
        if self.at is None:
            self.at = time.perf_counter()


def pool_op(inputs: PoolInputs, run_dir: Path) -> Op:
    kwargs = {"spec": POOL_SPEC}
    sharded_ledger = RunLedger(run_dir / "sharded")
    first = [FirstResult(), FirstResult()]
    start = time.perf_counter()
    pooled = TrialRunner(workers=2).run(
        skewed_sleep_trial, POOL_TRIALS, inputs.master_seed, kwargs,
        ledger=RunLedger(run_dir / "pool"), on_result=first[0],
    )
    middle = time.perf_counter()
    sharded = TrialRunner(workers=1, shards=2).run(
        skewed_sleep_trial, POOL_TRIALS, inputs.master_seed, kwargs,
        ledger=sharded_ledger, on_result=first[1],
    )
    end = time.perf_counter()
    problems = []
    if pooled.executor != "process-pool" or not sharded.executor.startswith("sharded"):
        problems.append(f"fell back: {pooled.executor}, {sharded.executor}")
    for name, report in (("pool", pooled), ("sharded", sharded)):
        if report.failures() or len(report.results) != POOL_TRIALS:
            problems.append(f"{name}: {len(report.failures())} failed")
        elif not all(
            np.array_equal(r.value, want) for r, want in zip(report.results, inputs.reference)
        ):
            problems.append(f"{name} values differ from the serial run")
    return Op(
        latency_s=end - start,
        first_event_s=(first[0].at or end) - start,
        units=2 * POOL_TRIALS,
        ok=not problems,
        counts={
            "trials": len(pooled.results) + len(sharded.results),
            "ledger_appends": line_count(
                [run_dir / "pool" / "ledger.jsonl"] + sharded_ledger.shard_paths()
            ),
        },
        problem="; ".join(problems),
        window=(start, end),
        extra={
            "pool_start_s": (first[0].at or middle) - start,
            "sharded_start_s": (first[1].at or end) - middle,
        },
    )


def pool_run(inputs: PoolInputs, work: Path) -> Tuple[Pass, Pass]:
    pool_reference(inputs)
    return run_pairs(
        range(inputs.ops),
        lambda i, warm: pool_op(inputs, subdir(work, f"pool-{i}-{int(warm)}")),
    )


BUILDERS = {
    "atlas": atlas_inputs,
    "sat": sat_inputs,
    "serve": serve_inputs,
    "pool": pool_inputs,
}

#: Whether an op's time is spent computing on this host's cores, so that
#: host speed is divided out of its time metrics.  ``pool`` ops are sleep
#: bound: their time does not follow host speed.
HOST_BOUND = {"atlas": True, "sat": True, "serve": True, "pool": False}

#: What one unit of ``ops_per_s`` is, per workload.
UNITS = {"atlas": "cells", "sat": "circuits", "serve": "jobs", "pool": "trials"}
