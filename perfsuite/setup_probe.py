"""Cold start of one workload: import ``repro`` and build the inputs.

``run.py`` times this script from spawn to exit in a fresh interpreter,
several times per run, and reports the median as ``setup_s``.

    PYTHONPATH=src python3 perfsuite/setup_probe.py --workload sat --seed 1 --seconds 16
"""

from __future__ import annotations

import argparse

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    workloads.BUILDERS[args.workload](args.seed, args.seconds)


if __name__ == "__main__":
    main()
