"""RunLedger: JSONL round-trips, metadata, and runner integration."""

import json
import warnings

import numpy as np
import pytest

from repro.runtime import TrialRunner
from repro.telemetry import RunLedger, new_run_id


def test_round_trip_records_and_meta(tmp_path):
    ledger = RunLedger(tmp_path / "run-1")
    ledger.write_meta({"workload": "curve", "spec": {"n": 8}})
    ledger.append({"index": 0, "value": [0.5]})
    ledger.append_many([{"index": 1}, {"index": 2}])
    reopened = RunLedger.open_existing(tmp_path / "run-1")
    assert reopened.read_meta()["workload"] == "curve"
    records = reopened.read()
    assert [r["index"] for r in records] == [0, 1, 2]


class TestAtomicRewrites:
    """``meta.json``, ``job.json`` and ``quotas.json`` publish atomically: a
    rewrite that dies midway leaves the previous file whole and no
    staging file behind."""

    @staticmethod
    def writers(tmp_path):
        from repro.service.jobs import Job, JobSpec, JobStore
        from repro.service.quotas import QuotaLedger

        ledger = RunLedger(tmp_path / "run")
        jobs = JobStore(tmp_path / "service")
        job = Job(job_id="job-x", spec=JobSpec(workload="fleet"))
        quotas = QuotaLedger(tmp_path / "service", default_limit=None)

        def save_job(version):
            job.completed_trials = version
            jobs.save(job)

        return {
            "meta": (
                lambda v: ledger.write_meta({"version": v}),
                lambda: ledger.read_meta()["version"],
            ),
            "job": (save_job, lambda: jobs.load("job-x").completed_trials),
            "quotas": (
                lambda v: quotas.settle(f"job-{v}", "alice", 1),
                lambda: json.loads(quotas.path.read_text())["usage"]["alice"],
            ),
        }

    @pytest.mark.parametrize("name", ["meta", "job", "quotas"])
    def test_failed_publish_keeps_the_previous_file(self, tmp_path, monkeypatch, name):
        import os

        write, read = self.writers(tmp_path)[name]
        write(1)

        def refuse(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="killed before the rename"):
            write(2)
        monkeypatch.undo()
        assert read() == 1
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        from repro.telemetry.ledger import write_atomic

        target = tmp_path / "meta.json"
        write_atomic(target, '{"version": 1}\n')
        with pytest.raises(UnicodeEncodeError):
            write_atomic(target, '{"version": 2, "torn": "\udc80"}\n')
        assert json.loads(target.read_text()) == {"version": 1}
        assert list(tmp_path.glob("*.tmp")) == []


def test_numpy_values_serialised(tmp_path):
    ledger = RunLedger(tmp_path / "run-np")
    ledger.append(
        {"value": np.array([1.5, 2.5]), "count": np.int64(7), "f": np.float32(0.5)}
    )
    raw = ledger.path.read_text()
    record = json.loads(raw)
    assert record["value"] == [1.5, 2.5]
    assert record["count"] == 7


def test_open_existing_requires_ledger_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a run directory"):
        RunLedger.open_existing(tmp_path / "nope")


def test_new_run_id_prefix():
    run_id = new_run_id("lmn")
    assert run_id.startswith("lmn-")


def test_runner_writes_one_record_per_trial_in_index_order(tmp_path):
    from repro.runtime.workloads import LearningCurveSpec, learning_curve_trial

    spec = LearningCurveSpec(n=16, budgets=(30, 60), test_size=50)
    ledger = RunLedger(tmp_path / "run-curve")
    report = TrialRunner(workers=2).run(
        learning_curve_trial,
        4,
        master_seed=3,
        trial_kwargs={"spec": spec},
        ledger=ledger,
    )
    # Records append in completion order (crash safety), so sort by index.
    records = sorted(ledger.read(), key=lambda r: r["index"])
    assert [r["index"] for r in records] == [0, 1, 2, 3]
    for record, result in zip(records, report.results):
        assert record["status"] == "ok"
        assert record["attempts"] == 1
        assert record["value"] == pytest.approx(list(result.value))
        assert record["seconds"] == pytest.approx(result.seconds)
        assert record["cpu_seconds"] == pytest.approx(result.cpu_seconds)
        assert record["queue_wait"] >= 0.0
        # The attack spent exactly the largest budget in EX queries; the
        # held-out test draw is unmetered.
        assert record["telemetry"]["queries"]["queries"]["ex"]["queries"] == 60


def test_runner_without_ledger_writes_nothing(tmp_path):
    from repro.runtime.workloads import LearningCurveSpec, learning_curve_trial

    spec = LearningCurveSpec(n=16, budgets=(30,), test_size=50)
    TrialRunner(workers=1).run(
        learning_curve_trial, 1, master_seed=3, trial_kwargs={"spec": spec}
    )
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Shard ledger files and the read_latest merge rule.
# ----------------------------------------------------------------------
class TestShardLedgerMerge:
    def ok(self, index, value):
        return {"index": index, "status": "ok", "value": value}

    def infra(self, index):
        return {
            "index": index,
            "status": "error",
            "error": {"exc_type": "BrokenProcessPool", "category": "infra"},
        }

    def test_shard_handle_names_and_validation(self, tmp_path):
        from repro.telemetry.ledger import shard_ledger_name

        ledger = RunLedger(tmp_path / "run")
        assert ledger.shard(0).path.name == "ledger-shard00.jsonl"
        assert ledger.shard(11).path.name == "ledger-shard11.jsonl"
        assert ledger.shard(3).run_dir == ledger.run_dir
        with pytest.raises(ValueError, match="non-negative"):
            shard_ledger_name(-1)

    def test_read_latest_folds_in_shard_files(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.shard(0).append(self.ok(0, [1.0]))
        ledger.shard(1).append(self.ok(1, [2.0]))
        ledger.append(self.ok(2, [3.0]))
        merged = ledger.read_latest()
        assert sorted(merged) == [0, 1, 2]
        assert merged[1]["value"] == [2.0]
        # A shard handle reads only its own file — the merge is the main
        # handle's job.
        assert sorted(ledger.shard(0).read_latest()) == [0]

    def test_replayable_record_beats_infra_failure_across_shards(self, tmp_path):
        """A shard's infra hiccup must never shadow the same trial completed
        by another shard, in either read order."""
        ledger = RunLedger(tmp_path / "run")
        ledger.shard(0).append(self.ok(4, [0.5]))
        ledger.shard(1).append(self.infra(4))
        assert ledger.read_latest()[4]["status"] == "ok"
        other = RunLedger(tmp_path / "run2")
        other.shard(0).append(self.infra(4))
        other.shard(1).append(self.ok(4, [0.5]))
        assert other.read_latest()[4]["status"] == "ok"

    def test_equal_rank_takes_the_later_record(self, tmp_path):
        # Replayable records for one index are bit-identical by
        # construction, so "later wins" is only observable for
        # non-replayable ranks — e.g. two infra failures keep the newer
        # attempt count.
        ledger = RunLedger(tmp_path / "run")
        first = self.infra(0)
        first["attempts"] = 1
        second = self.infra(0)
        second["attempts"] = 2
        ledger.append(first)
        ledger.shard(0).append(second)
        assert ledger.read_latest()[0]["attempts"] == 2

    def test_open_existing_accepts_shard_only_directories(self, tmp_path):
        run_dir = tmp_path / "run"
        RunLedger(run_dir).shard(1).append(self.ok(0, [1.0]))
        reopened = RunLedger.open_existing(run_dir)
        assert sorted(reopened.read_latest()) == [0]
        with pytest.raises(FileNotFoundError, match="not a run directory"):
            RunLedger.open_existing(tmp_path / "empty")


class TestShardMergeRobustness:
    """Torn tails and conflicting provenances across shard files.

    A SIGKILLed sharded run can tear the final line of *any* shard file;
    each file must drop only its own torn line.  And when two files hold
    replayable records for one index whose replay payloads differ — which
    the determinism contract forbids — the merge must warn loudly, not
    silently let read order pick a winner."""

    def ok(self, index, value, meta=None):
        record = {"index": index, "status": "ok", "value": value}
        if meta is not None:
            record["value_meta"] = meta
        return record

    def test_two_shards_with_torn_tails_keep_their_good_records(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.shard(0).append(self.ok(0, [1.0]))
        ledger.shard(1).append(self.ok(1, [2.0]))
        # Tear both shard tails mid-record (killed mid-append).
        for shard_id, torn in ((0, '{"index": 2, "status": "o'),
                               (1, '{"index": 3, "val')):
            with ledger.shard(shard_id).path.open("a") as fh:
                fh.write(torn)
        with pytest.warns(RuntimeWarning, match="torn write") as caught:
            merged = ledger.read_latest()
        assert sorted(merged) == [0, 1]
        assert merged[0]["value"] == [1.0]
        assert merged[1]["value"] == [2.0]
        # one warning per torn file, each naming its own file
        torn_warnings = [w for w in caught if "torn write" in str(w.message)]
        assert len(torn_warnings) == 2
        named = {str(w.message).split(":")[0] for w in torn_warnings}
        assert {p.split("/")[-1] for p in named} == {
            "ledger-shard00.jsonl",
            "ledger-shard01.jsonl",
        }

    def test_conflicting_replayable_records_warn_and_keep_the_later(
        self, tmp_path
    ):
        ledger = RunLedger(tmp_path / "run")
        ledger.shard(0).append(self.ok(5, [1.0]))
        ledger.shard(1).append(self.ok(5, [2.0]))  # forbidden: same index
        with pytest.warns(RuntimeWarning, match="conflicting") as caught:
            merged = ledger.read_latest()
        assert merged[5]["value"] == [2.0]  # later (higher shard) wins
        assert any("trial 5" in str(w.message) for w in caught)

    def test_identical_replayable_records_do_not_warn(self, tmp_path):
        # The normal resume case: the same trial recorded twice,
        # bit-identically — replayable beats nothing, no conflict.
        ledger = RunLedger(tmp_path / "run")
        ledger.append(self.ok(5, [1.0], meta={"dtype": "float64", "shape": [1]}))
        ledger.shard(0).append(
            self.ok(5, [1.0], meta={"dtype": "float64", "shape": [1]})
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.read_latest()[5]["value"] == [1.0]

    def test_replayable_replacing_infra_does_not_warn(self, tmp_path):
        # Different rank replacement is legitimate resume behaviour.
        ledger = RunLedger(tmp_path / "run")
        ledger.append(
            {
                "index": 3,
                "status": "error",
                "error": {"exc_type": "TimeoutError", "category": "infra"},
            }
        )
        ledger.append(self.ok(3, [9.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.read_latest()[3]["status"] == "ok"

    def test_differing_timings_are_not_a_conflict(self, tmp_path):
        # Only the replay payload matters; wall time and attempt counts
        # legitimately differ between a record and its resume twin.
        ledger = RunLedger(tmp_path / "run")
        a = self.ok(7, [4.0])
        a.update(seconds=0.5, attempts=1)
        b = self.ok(7, [4.0])
        b.update(seconds=9.9, attempts=3)
        ledger.append(a)
        ledger.shard(0).append(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.read_latest()[7]["attempts"] == 3
