"""One workload registry: the CLI, the service and the table agree.

``repro.runtime.workloads.WORKLOADS`` is the only name -> workload
table.  The CLI's ``--workload`` choices, the names a service
``JobSpec`` accepts, and the specs each side builds from its defaults
must all come out of it, so a result can never be quoted under a
workload definition it was not measured under.
"""

import dataclasses

import pytest

from repro.__main__ import _trials_spec, build_parser, main
from repro.runtime.workloads import WORKLOADS, build_workload
from repro.service.jobs import JobSpec

#: The only shapes the CLI builds that the service's defaults do not.
CLI_ONLY_SHAPES = {
    # Two draws and a 0.2 s sleep: a kill window for the crash tests.
    ("fault",): {"size": 2, "sleep_seconds": 0.2},
    # ``trials --workload fleet --smoke``: a seconds-fast population.
    ("fleet", "--smoke"): {"n": 32, "size": 48, "m": 400, "repetitions": 3},
}


def cli_spec(*argv):
    return _trials_spec(build_parser().parse_args(["trials", "--workload", *argv]))


def cli_workload_choices():
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if action.dest == "command"
    )
    trials = subparsers.choices["trials"]
    return next(a for a in trials._actions if a.dest == "workload").choices


def accepted_by_jobspec(name):
    try:
        JobSpec(workload=name)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_defaults_build_the_service_default_spec(name):
    _, expected = build_workload(name, {})
    expected = dataclasses.replace(expected, **CLI_ONLY_SHAPES.get((name,), {}))
    assert cli_spec(name) == expected


def test_fleet_smoke_is_the_listed_shrink():
    _, expected = build_workload("fleet", CLI_ONLY_SHAPES[("fleet", "--smoke")])
    assert cli_spec("fleet", "--smoke") == expected


def test_flags_set_spec_fields_by_name():
    spec = cli_spec("chow", "--n", "16", "--m", "500")
    assert (spec.n, spec.m) == (16, 500)
    assert cli_spec("fleet", "--fleet-m", "300", "--m", "7").m == 300
    assert cli_spec("fault", "--fail-at", "1,3").fail_indices == (1, 3)


def test_workload_lists_are_one_set():
    choices = set(cli_workload_choices())
    candidates = choices | set(WORKLOADS) | {"nonsense"}
    accepted = {name for name in candidates if accepted_by_jobspec(name)}
    assert choices == accepted == set(WORKLOADS)
    assert len(WORKLOADS) == 10


def test_cache_support_follows_the_trial_signature():
    supported = {name for name, w in WORKLOADS.items() if w.takes_cache}
    assert supported == {"active", "atlas", "chow", "fleet"}


def test_chow_runs_from_the_cli(capsys):
    code = main(
        ["trials", "--workload", "chow", "--trials", "2", "--workers", "1",
         "--skip-serial"]
    )
    assert code == 0
    assert "per-trial timings and results (parallel run, chow)" in (
        capsys.readouterr().out
    )


def test_cache_dir_is_refused_for_a_workload_without_a_store(tmp_path, capsys):
    code = main(
        ["trials", "--workload", "sq", "--trials", "1", "--skip-serial",
         "--cache-dir", str(tmp_path)]
    )
    assert code == 2
    assert "--cache-dir is not supported by the sq workload" in (
        capsys.readouterr().out
    )
