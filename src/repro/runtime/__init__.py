"""Parallel experiment runtime: deterministic trial fan-out, chunked CRP
evaluation, and on-disk CRP memoisation.

The three pieces compose into the standard experiment loop:

* :mod:`repro.runtime.seeding` — ``SeedSequence``-based fan-out so trial
  ``i`` owns a stream independent of worker count and scheduling order;
* :mod:`repro.runtime.runner` — :class:`TrialRunner`, a process-pool
  executor for independent trials with a serial fallback, per-trial
  timing, structured :class:`TrialError` capture, infrastructure-only
  retries (:class:`RetryPolicy`), per-trial timeouts with pool rebuild,
  and crash-safe resume from a run ledger — all through one pool driver;
* :mod:`repro.runtime.chunking` — blocked CRP generation/evaluation that
  keeps the working set cache-resident;
* :mod:`repro.runtime.store` — :class:`ArtifactStore`, content-addressed
  ``.npz`` memoisation of generated artifacts (CRP sets, fleet response
  planes) keyed by :func:`artifact_digest`, with LRU eviction and
  hit/miss/bytes stats;
* :mod:`repro.runtime.sharding` — the work-stealing scheduler every pool
  run draws its chunks from, and the multi-pool execution behind
  ``TrialRunner(shards=N)``, with per-shard mergeable ledgers;
* :mod:`repro.runtime.launcher` — :func:`launch_run`, the one way the
  CLI, the atlas and the service run a registered workload with a
  ledger: open the run directory, refuse a mismatched resume, write
  ``meta.json``, run.

Picklable standard workloads and their name registry ``WORKLOADS`` live
in :mod:`repro.runtime.workloads` (imported explicitly, not re-exported,
to keep this package import-light).
"""

from repro.runtime.chunking import (
    DEFAULT_BLOCK_SIZE,
    eval_blocked,
    eval_noisy_blocked,
    generate_crps_blocked,
    iter_blocks,
)
from repro.runtime.launcher import ResumeRefused, check_resume, launch_run
from repro.runtime.runner import (
    RetryPolicy,
    TrialContext,
    TrialError,
    TrialFailure,
    TrialReport,
    TrialResult,
    TrialRunner,
    result_from_record,
    trial_record,
)
from repro.runtime.seeding import as_seed_sequence, fan_out, trial_rng, trial_seed
from repro.runtime.sharding import (
    WorkStealingScheduler,
    partition_items,
    run_sharded,
)
from repro.runtime.store import ArtifactStore, artifact_digest, hash_challenges

__all__ = [
    "ResumeRefused",
    "check_resume",
    "launch_run",
    "ArtifactStore",
    "artifact_digest",
    "hash_challenges",
    "WorkStealingScheduler",
    "partition_items",
    "run_sharded",
    "DEFAULT_BLOCK_SIZE",
    "eval_blocked",
    "eval_noisy_blocked",
    "generate_crps_blocked",
    "iter_blocks",
    "RetryPolicy",
    "TrialContext",
    "TrialError",
    "TrialFailure",
    "TrialReport",
    "TrialResult",
    "TrialRunner",
    "result_from_record",
    "trial_record",
    "as_seed_sequence",
    "fan_out",
    "trial_rng",
    "trial_seed",
]
