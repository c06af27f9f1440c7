"""The one run launcher behind ``repro trials``, ``repro atlas`` and the service.

:func:`launch_run` opens (or adopts) a run's
:class:`~repro.telemetry.ledger.RunLedger`, refuses a resume whose
``meta.json`` disagrees with the invocation, writes the meta, and runs
:class:`~repro.runtime.runner.TrialRunner` over the trial function
registered in :data:`repro.runtime.workloads.WORKLOADS`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.runtime.runner import TrialReport, TrialRunner
from repro.telemetry.ledger import RunLedger


class ResumeRefused(ValueError):
    """A resume of a run directory that belongs to another invocation.

    ``details`` holds one line per disagreeing ``meta.json`` field.
    """

    def __init__(self, run_dir: Path, reason: str, details: Sequence[str] = ()) -> None:
        super().__init__(f"{run_dir}: {reason}")
        self.details = list(details)


def check_resume(
    ledger: RunLedger, workload: str, spec: Any, trials: int, seed: int
) -> Optional[Dict[str, Any]]:
    """The run's ``meta.json`` (None if absent) when resuming it is sound.

    Raises :class:`ResumeRefused` when ``meta.json`` does not parse, or
    its workload, spec, trial count or master seed differ from this
    invocation's.  The spec goes through a JSON round-trip so tuples
    compare equal to the lists ``meta.json`` stores.
    """
    try:
        meta = ledger.read_meta()
    except ValueError as exc:
        raise ResumeRefused(
            ledger.run_dir, f"{ledger.meta_path} does not parse ({exc})"
        ) from exc
    if meta is None:
        return None
    current = {
        "workload": workload,
        "spec": json.loads(json.dumps(dataclasses.asdict(spec))),
        "trials": trials,
        "master_seed": seed,
    }
    mismatches = [
        f"{key}: run has {meta[key]!r}, this invocation has {value!r}"
        for key, value in current.items()
        if key in meta and meta[key] != value
    ]
    if mismatches:
        raise ResumeRefused(
            ledger.run_dir, "its meta.json disagrees with this invocation", mismatches
        )
    return meta


def launch_run(
    workload: str,
    spec: Any,
    trials: int,
    seed: int,
    *,
    ledger: Union[None, str, Path, RunLedger] = None,
    resume: bool = False,
    meta: Optional[Dict[str, Any]] = None,
    workers: int = 1,
    shards: int = 1,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    **run_options: Any,
) -> TrialReport:
    """Run ``trials`` trials of the registered ``workload`` under ``spec``.

    ``ledger`` is a :class:`RunLedger` to adopt, a run directory to
    open, or None to record nothing.  Resuming a run that has a
    ``meta.json`` checks it (:func:`check_resume`) and keeps it; any
    other ledgered run gets a fresh meta with the caller's ``meta``
    fields added.  ``cache_dir``/``cache_max_bytes`` go to the trial
    function, ``run_options`` (``retry``, ``trial_timeout``,
    ``on_result``, ``cancel``) to :meth:`TrialRunner.run`.
    """
    from repro.runtime.workloads import WORKLOADS

    kwargs: Dict[str, Any] = {"spec": spec}
    if cache_dir is not None:
        kwargs.update(cache_dir=cache_dir, cache_max_bytes=cache_max_bytes)
    if ledger is not None:
        if not isinstance(ledger, RunLedger):
            ledger = RunLedger(ledger)
        if not resume or check_resume(ledger, workload, spec, trials, seed) is None:
            ledger.write_meta(
                {
                    "workload": workload,
                    "spec": dataclasses.asdict(spec),
                    "trials": trials,
                    "workers": workers,
                    "shards": shards,
                    "master_seed": seed,
                    **(meta or {}),
                }
            )
    return TrialRunner(workers=workers, shards=shards).run(
        WORKLOADS[workload].trial_fn,
        trials,
        seed,
        kwargs,
        ledger=ledger,
        resume_from=ledger if resume else None,
        **run_options,
    )
