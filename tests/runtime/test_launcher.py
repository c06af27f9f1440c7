"""The one run launcher: meta.json, resume checks, and ledger adoption.

``launch_run`` is the only path by which the CLI, the atlas and the
service run a registered workload with a ledger.  These tests pin what
it writes, when it refuses, and that the CLI turns a refusal into exit
code 2 with the reason printed.
"""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.runtime import ResumeRefused, check_resume, launch_run
from repro.runtime.workloads import FaultInjectionSpec
from repro.telemetry import RunLedger

SPEC = FaultInjectionSpec(size=2)


class TestLaunchRun:
    def test_fresh_run_writes_meta_with_extra_fields(self, tmp_path):
        report = launch_run(
            "fault", SPEC, 3, 5, ledger=tmp_path / "run", meta={"eps": 0.1}
        )
        assert len(report.results) == 3
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta == {
            "workload": "fault",
            "spec": json.loads(json.dumps(dataclasses.asdict(SPEC))),
            "trials": 3,
            "workers": 1,
            "shards": 1,
            "master_seed": 5,
            "eps": 0.1,
        }

    def test_without_ledger_records_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = launch_run("fault", SPEC, 2, 0)
        assert report.executor == "serial"
        assert list(tmp_path.iterdir()) == []

    def test_resume_replays_and_keeps_the_runs_meta(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        first = launch_run("fault", SPEC, 3, 5, ledger=ledger, meta={"tag": "first"})
        resumed = launch_run(
            "fault", SPEC, 3, 5, ledger=ledger, resume=True, meta={"tag": "second"}
        )
        assert resumed.replayed_count == 3
        assert [r.value.tolist() for r in resumed.results] == [
            r.value.tolist() for r in first.results
        ]
        assert ledger.read_meta()["tag"] == "first"

    def test_resume_without_meta_writes_one(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        launch_run("fault", SPEC, 2, 5, ledger=ledger, resume=True)
        assert ledger.read_meta()["trials"] == 2

    def test_adopts_a_ledger_subclass(self, tmp_path):
        class CountingLedger(RunLedger):
            appended = 0

            def append(self, record):
                CountingLedger.appended += 1
                super().append(record)

        launch_run("fault", SPEC, 3, 0, ledger=CountingLedger(tmp_path / "run"))
        assert CountingLedger.appended == 3

    def test_mismatched_resume_is_refused_before_any_trial_runs(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        launch_run("fault", SPEC, 2, 5, ledger=ledger)
        before = ledger.path.read_text()
        with pytest.raises(ResumeRefused) as exc:
            launch_run("fault", SPEC, 4, 6, ledger=ledger, resume=True)
        assert "meta.json disagrees" in str(exc.value)
        assert [line.split(":")[0] for line in exc.value.details] == [
            "trials",
            "master_seed",
        ]
        assert ledger.path.read_text() == before

    def test_unparseable_meta_is_refused_naming_the_file(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.meta_path.write_text('{"workload": "fau')
        with pytest.raises(ResumeRefused, match="meta.json does not parse"):
            check_resume(ledger, "fault", SPEC, 2, 0)

    def test_a_fresh_run_overwrites_an_unparseable_meta(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.meta_path.write_text("{")
        launch_run("fault", SPEC, 1, 0, ledger=ledger)
        assert ledger.read_meta()["workload"] == "fault"


class TestCliRefusal:
    def base(self, runs_dir):
        return [
            "trials", "--workload", "fault", "--trials", "2", "--workers", "1",
            "--sleep-seconds", "0", "--skip-serial",
            "--ledger", "--run-id", "run", "--runs-dir", str(runs_dir),
        ]

    def test_resume_of_unparseable_meta_exits_2_naming_the_file(
        self, tmp_path, capsys
    ):
        assert main(self.base(tmp_path)) == 0
        meta_path = tmp_path / "run" / "meta.json"
        meta_path.write_text(meta_path.read_text()[:20])
        capsys.readouterr()
        assert main(self.base(tmp_path) + ["--resume"]) == 2
        out = capsys.readouterr().out
        assert f"cannot --resume {tmp_path / 'run'}" in out
        assert str(meta_path) in out
        assert "Traceback" not in out

    def test_mismatch_is_refused_before_the_serial_reference_runs(
        self, tmp_path, capsys
    ):
        assert main(self.base(tmp_path)) == 0
        capsys.readouterr()
        args = self.base(tmp_path)
        args.remove("--skip-serial")
        assert main(args + ["--resume", "--seed", "9"]) == 2
        out = capsys.readouterr().out
        assert "master_seed: run has 0, this invocation has 9" in out
        assert "serial:" not in out
