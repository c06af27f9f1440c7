"""Work-stealing sharded execution: several process pools, one trial set.

One process pool is a single queue: a handful of slow trials at its head
stall every worker behind them, and one hung worker's pool rebuild
freezes *all* in-flight chunks.  Sharding splits a trial set across
``shards`` independent pools, each driven by its own parent-side thread,
with a :class:`WorkStealingScheduler` between them: every shard owns a
deque of trial items, takes chunks from its *head*, and — when its own
deque runs dry — steals a chunk from the *tail* of the longest remaining
deque.  Skewed trial mixes therefore rebalance automatically: a shard
that drew the slow trials keeps grinding while idle shards drain its
tail, and a pool rebuild (timeout, dead worker) only stalls one shard.

Each shard runs the runner's one fault-tolerant pool driver
(:class:`~repro.runtime.runner._PoolDriver`) — the same driver an
unsharded pool runs inline over a one-deque scheduler — so every
guarantee of :class:`~repro.runtime.runner.TrialRunner` holds per shard,
and trials stay pure functions of ``(master_seed, index)``:

* **Bit-identical replay** — which shard executes a trial is
  unobservable in its result; the caller re-orders by index.
* **Failure semantics** — deterministic trial errors are captured
  in-worker and never retried; worker death and per-shard-pool timeouts
  are retried under the same :class:`~repro.runtime.runner.RetryPolicy`
  with seed-derived backoff, rebuilding only that shard's pool; a result
  that cannot be pickled drains the shard serially in its driver thread.
* **Crash-safe resume** — each shard appends to its own
  ``ledger-shardNN.jsonl`` (:meth:`repro.telemetry.ledger.RunLedger.shard`),
  so shards never contend on one file and a SIGKILL mid-run leaves every
  finished trial on disk; ``RunLedger.read_latest`` merges shard files
  by trial index with replayable-record preference, so ``--resume``
  works unchanged on a partially-written sharded run.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.runner import (
    RetryPolicy,
    TrialFn,
    TrialItem,
    TrialResult,
    _PoolDriver,
    trial_record,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.telemetry.ledger import RunLedger


def partition_items(items: List[TrialItem], shards: int) -> List[List[TrialItem]]:
    """Split ``items`` into ``shards`` contiguous, near-equal slices.

    Contiguity keeps each shard's initial deque a run of consecutive
    trial indices — the natural unit for ledger inspection — and any
    imbalance in *cost* (as opposed to count) is what the stealing
    scheduler exists to fix at runtime.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(len(items), shards)
    parts: List[List[TrialItem]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        parts.append(items[start : start + size])
        start += size
    return parts


class WorkStealingScheduler:
    """Per-shard deques with tail-stealing for idle shards.

    All operations run under one lock — the unit of work is a whole
    chunk of trials (each worth milliseconds to minutes), so lock
    traffic is negligible.  A shard acquires from the *head* of its own
    deque; an empty shard steals from the *tail* of the longest other
    deque, preserving the victim's cheap-to-reach head locality and
    taking the work it was furthest from starting.
    """

    def __init__(self, partitions: List[List[TrialItem]]) -> None:
        self._lock = threading.Lock()
        self._deques: List[deque] = [deque(part) for part in partitions]
        self.steals = [0 for _ in partitions]
        self.executed = [0 for _ in partitions]

    @property
    def shards(self) -> int:
        """How many shard deques the scheduler manages."""
        return len(self._deques)

    def acquire(self, shard_id: int, chunk: int) -> List[TrialItem]:
        """Up to ``chunk`` items for ``shard_id``; steals when it is dry.

        Returns an empty list only when every deque is empty — the
        shard's signal to finish its in-flight work and exit.
        """
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        with self._lock:
            own = self._deques[shard_id]
            if own:
                taken = [own.popleft() for _ in range(min(chunk, len(own)))]
                self.executed[shard_id] += len(taken)
                return taken
            victim = max(
                (d for i, d in enumerate(self._deques) if i != shard_id),
                key=len,
                default=None,
            )
            if victim is None or not victim:
                return []
            stolen = [victim.pop() for _ in range(min(chunk, len(victim)))]
            stolen.reverse()  # restore ascending-index order within the chunk
            self.steals[shard_id] += 1
            self.executed[shard_id] += len(stolen)
            return stolen

    def remaining(self) -> int:
        """How many items are still queued across all deques."""
        with self._lock:
            return sum(len(d) for d in self._deques)


def default_shard_chunk(remaining: int, shards: int, workers: int) -> int:
    """The default per-acquisition chunk for a sharded run.

    Small enough that every (shard, worker) slot turns over several
    times — stealing needs unclaimed tail work to exist — while still
    amortising pool submission overhead.
    """
    return max(1, -(-remaining // (8 * max(1, shards) * max(1, workers))))


def run_sharded(
    trial_fn: TrialFn,
    items: List[TrialItem],
    kwargs: Dict[str, Any],
    shards: int,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trial_timeout: Optional[float] = None,
    ledger: Optional["RunLedger"] = None,
    on_result: Optional[Callable[[TrialResult], None]] = None,
    cancel: Optional[threading.Event] = None,
) -> Tuple[List[TrialResult], WorkStealingScheduler, List[Optional[str]]]:
    """Execute ``items`` across ``shards`` work-stealing process pools.

    Each shard runs ``workers`` worker processes (total parallelism is
    ``shards * workers``) and appends completed records to its own
    ``ledger-shardNN.jsonl`` when ``ledger`` is given — the caller's
    main ledger merges them transparently via
    :meth:`~repro.telemetry.ledger.RunLedger.read_latest`.  Returns the
    results (unordered; the caller sorts by index), the scheduler (for
    steal/executed accounting), and each shard's serial-fallback reason
    (None when its pool stayed healthy).

    ``on_result`` fires once per completed trial *from the shard's
    driver thread* (after its ledger append, so an observer never sees a
    trial the ledger could lose); callbacks must be thread-safe.  A set
    ``cancel`` event stops every shard acquiring new chunks; in-flight
    chunks finish and are recorded, then the drivers exit.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    retry = RetryPolicy() if retry is None else retry
    chunk = chunk_size or default_shard_chunk(len(items), shards, workers)
    scheduler = WorkStealingScheduler(partition_items(items, shards))

    def make_emit(shard_id: int) -> Callable[[TrialResult], None]:
        shard_ledger = None if ledger is None else ledger.shard(shard_id)

        def emit(result: TrialResult) -> None:
            if shard_ledger is not None:
                shard_ledger.append(trial_record(result))
            if on_result is not None:
                on_result(result)

        return emit

    drivers = [
        _PoolDriver(
            scheduler=scheduler,
            shard_id=s,
            label=f"shard {s} worker",
            trial_fn=trial_fn,
            kwargs=kwargs,
            workers=workers,
            chunk=chunk,
            retry=retry,
            trial_timeout=trial_timeout,
            emit=make_emit(s),
            cancel=cancel,
        )
        for s in range(shards)
    ]
    errors: List[BaseException] = []

    def drive(driver: _PoolDriver) -> None:
        try:
            driver.run()
        except BaseException as exc:  # pragma: no cover - defensive
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(driver,), name=f"repro-shard-{s}")
        for s, driver in enumerate(drivers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    results = [result for driver in drivers for result in driver.results]
    fallbacks = [driver.fallback for driver in drivers]
    return results, scheduler, fallbacks
