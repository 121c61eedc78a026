"""Time the Monte Carlo calibration through the repository benchmark.

Usage::

    python benchmarks/bench_calibration.py [--trials 20000] [--grid 24x24]
                                           [--seed 7] [--seconds 20]

This runs the ``calibrate`` workload of ``perfbench/run.py`` at the given
size (sigma2=3, eps=1e-6), so that calibration timings come from the
benchmark's one timing loop: fresh worker processes with one BLAS thread,
the median job time, and every report checked against a numpy restatement
of the counter-RNG contract. Its output is that of ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--grid", default="24x24")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20,
                        help="wall time of the timed loop, over all workers")
    args = parser.parse_args()
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", "calibrate", "--grid", args.grid,
        "--trials", str(args.trials), "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    # run.py benchmarks the sources under src/ of the directory it runs in
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
