"""Shared plumbing of the benchmark: paths, statistics, host probe, env block.

Nothing here imports ``repro``; the workloads do that after ``run.py`` has
put the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for ledgers, caches and service data dirs.  It lives in
#: the checkout (the benchmark reads and writes nowhere else) and is
#: removed when the run ends.
WORK_ROOT = ROOT / ".perfsuite_work"

#: Iterations of the pure-Python reference loop (about 50 ms on an idle
#: 2020s Xeon core): short enough to run before every op.
REF_LOOP_ITERATIONS = 500_000
#: The reference loop's nominal time.  Host-normalised metrics are in
#: seconds of a host on which the loop takes exactly this long.
REF_LOOP_NOMINAL_S = 0.05


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources, our tmp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK_ROOT)
    env.pop("PYTHONSTARTUP", None)
    return env


class WorkDir:
    """A per-run scratch directory under :data:`WORK_ROOT`, removed on exit."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        # Everything the program writes through ``tempfile`` stays inside
        # the checkout too.
        self._old_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        tempfile.tempdir = self._old_tempdir
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def subdir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir(parents=True, exist_ok=False)
    return path


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` inclusive method)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


# ----------------------------------------------------------------------
# Host probe.
# ----------------------------------------------------------------------
def ref_loop_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host-speed yardstick.

    Run before each op.  When an end-to-end number drifts together with
    this one, the host got slower, not the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc += i * i % 7
    elapsed = time.perf_counter() - start
    if acc != 999_999:  # keep the loop from being optimised into nothing
        raise AssertionError(f"reference loop computed {acc}")
    return elapsed


def normalised(seconds: float, host_s: float) -> float:
    """``seconds`` timed while the reference loop took ``host_s``, in seconds
    of the nominal host (on which it takes :data:`REF_LOOP_NOMINAL_S`)."""
    return seconds * REF_LOOP_NOMINAL_S / host_s


def settle() -> None:
    """Collect garbage outside the timed region, before each op.

    Sub-second ops otherwise pay for a collection of the previous op's
    garbage at a point that varies from run to run.
    """
    gc.collect()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB, of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment() -> Dict[str, object]:
    """CPU, core count, interpreter and library versions, BLAS threads, rev."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas: Dict[str, object] = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # the config layout differs across numpy builds
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    threads = {
        var: os.environ[var]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    blas["threads"] = threads or f"unset (OpenBLAS default: {os.cpu_count()})"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    """The checkout's commit, or a note when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if out.returncode != 0:
        return "unknown (not a git work tree)"
    return out.stdout.strip()


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
) -> None:
    """Print the one-line result object; it must be the last stdout line."""
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )


def note(message: str) -> None:
    """Human-readable progress, on stdout before the result line."""
    print(message, flush=True)


def table(rows: List[Sequence[object]]) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows
    )
