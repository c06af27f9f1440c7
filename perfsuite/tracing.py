"""Spans and counters kept by the benchmark around the program's layers.

The traced run wraps public entry points of each layer (module functions
and class methods) in this process, records one span per call in memory,
and restores the originals afterwards.  Nothing in ``src/`` changes.

A span is ``(name, start, end)`` on the ``time.perf_counter`` clock, which
every thread of the process shares; counters are plain integers keyed by
metric name.  ``layer=False`` marks orchestration entry points (the trial
runner, the attack drivers): they are timed and counted, but trace
coverage is computed from the layer spans underneath them only.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` recorded as ``span``."""

    span: str
    module: str
    qualname: str
    layer: bool = True
    hook: Optional[str] = None


#: The layer boundaries the traced run times.  ``tseitin_encode`` is
#: bound by name into the SAT-attack module, so both bindings are wrapped.
TARGETS: Tuple[Target, ...] = (
    Target("pufs.crp_gen", "repro.pufs.crp", "generate_crps"),
    Target("learning.lr.fit", "repro.learning.gradient_attack", "LRAttacker.train"),
    Target("learning.mlp.fit", "repro.learning.gradient_attack", "MLPAttacker.train"),
    Target("learning.predict", "repro.learning.gradient_attack", "GradientAttack.predict"),
    Target(
        "learning.predict",
        "repro.learning.reliability_attack",
        "MultiReliabilityResult.predict",
    ),
    Target(
        "learning.reliability.run",
        "repro.learning.reliability_attack",
        "CMAReliabilityAttack.run",
    ),
    Target("runtime.store.get", "repro.runtime.store", "ArtifactStore.load", hook="store_get"),
    Target("runtime.store.put", "repro.runtime.store", "ArtifactStore.store"),
    Target("runtime.runner.run", "repro.runtime.runner", "TrialRunner.run", layer=False),
    Target(
        "runtime.pool.scheduler",
        "repro.runtime.sharding",
        "WorkStealingScheduler.__init__",
        layer=False,
        hook="scheduler",
    ),
    Target("analysis.atlas.reduce", "repro.analysis.atlas", "reduce_atlas"),
    Target("telemetry.ledger.append", "repro.telemetry.ledger", "RunLedger.append"),
    Target("telemetry.ledger.write_meta", "repro.telemetry.ledger", "RunLedger.write_meta"),
    Target("locking.solver.solve", "repro.locking.solver", "SATSolver.solve", hook="solver"),
    Target("locking.cnf.encode", "repro.locking.cnf", "tseitin_encode", hook="cnf"),
    Target("locking.cnf.encode", "repro.locking.sat_attack", "tseitin_encode", hook="cnf"),
    Target("locking.oracle", "repro.locking.combinational", "LockedCircuit.oracle"),
    Target("locking.sat_attack.run", "repro.locking.sat_attack", "SATAttack.run", layer=False),
    Target("locking.appsat.run", "repro.locking.appsat", "AppSAT.run", layer=False),
    Target("service.persist.job_save", "repro.service.jobs", "JobStore.save"),
    Target("service.http.submit", "repro.service.client", "ServiceClient.submit"),
    Target("service.http.get", "repro.service.client", "ServiceClient.job"),
)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: List[Tuple[str, float, float, bool]] = []
        self.counts: Counter = Counter()
        self.schedulers: List[object] = []

    def add(self, name: str, start: float, end: float, layer: bool = True) -> None:
        with self._lock:
            self.spans.append((name, start, end, layer))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def coverage(self, windows: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
        """``(covered, total)`` seconds of the op windows under layer spans."""
        ops = _union(windows)
        layers = _union([(s, e) for _, s, e, layer in self.spans if layer])
        covered = 0.0
        j = 0
        for start, end in ops:
            while j < len(layers) and layers[j][1] <= start:
                j += 1
            k = j
            while k < len(layers) and layers[k][0] < end:
                covered += min(end, layers[k][1]) - max(start, layers[k][0])
                k += 1
        return covered, sum(end - start for start, end in ops)


def _union(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# ----------------------------------------------------------------------
# Hooks: counters read off the arguments and results of a wrapped call.
# ----------------------------------------------------------------------
def _solver_before(args) -> Tuple[int, int, int]:
    stats = args[0].stats
    return stats.propagations, stats.conflicts, stats.decisions


def _solver_after(tracer: Tracer, args, result, before) -> None:
    stats = args[0].stats
    tracer.count("locking.solver.propagations", stats.propagations - before[0])
    tracer.count("locking.solver.conflicts", stats.conflicts - before[1])
    tracer.count("locking.solver.decisions", stats.decisions - before[2])


def _cnf_before(args) -> int:
    return len(args[1])


def _cnf_after(tracer: Tracer, args, result, before) -> None:
    tracer.count("locking.cnf.clauses", len(args[1]) - before)


def _store_get_after(tracer: Tracer, args, result, before) -> None:
    tracer.count("runtime.store.hits" if result is not None else "runtime.store.misses")


def _scheduler_after(tracer: Tracer, args, result, before) -> None:
    tracer.schedulers.append(args[0])


_HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "solver": (_solver_before, _solver_after),
    "cnf": (_cnf_before, _cnf_after),
    "store_get": (None, _store_get_after),
    "scheduler": (None, _scheduler_after),
}


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    before_hook, after_hook = _HOOKS.get(target.hook, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = before_hook(args) if before_hook else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.add(target.span, start, time.perf_counter(), target.layer)
        if after_hook:
            after_hook(tracer, args, result, before)
        return result

    return wrapper


class installed:
    """Context manager: wrap every :data:`TARGETS` entry, restore on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[Tuple[object, str, Optional[Callable]]] = []

    def __enter__(self) -> Tracer:
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            own = vars(owner).get(attr)  # None when inherited from a base
            self._restore.append((owner, attr, own))
            setattr(owner, attr, _wrap(self.tracer, target, getattr(owner, attr)))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, own in reversed(self._restore):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._restore.clear()
