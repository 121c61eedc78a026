"""Record the reference outputs that cannot be recomputed independently.

Writes ``refs.json`` beside this file: the greedy sampling sets of the
``design`` workload and the SHA-256 of each ``cli`` subcommand's stdout for
every cli input variant. The benchmark compares later versions of
graphbayes against these, so they are made once, from the commit that
defines the benchmark, and are not remade to fit a change.

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
os.environ.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
sys.path.insert(0, SRC)

import graphbayes as gb  # noqa: E402

from tracing import CLI_SUBCOMMANDS  # noqa: E402
from workloads import CLI_VARIANTS, make_inputs, write_files  # noqa: E402


def main():
    inp = make_inputs("design", 0)
    prior = gb.smoothness_prior(gb.laplacian(gb.load_edge_list(inp["text9"])), 0.0)
    greedy = [list(gb.greedy_select(prior, budget, sigma2, metric).nodes)
              for metric, sigma2, budget in inp["greedy"]]
    cli = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        for variant in range(CLI_VARIANTS):
            inp = make_inputs("cli", variant)
            write_files(inp, work)
            digests = {}
            for sub in CLI_SUBCOMMANDS:
                out = subprocess.run([sys.executable, "-m", "graphbayes", *inp["argv"][sub]],
                                     cwd=work, capture_output=True, check=True).stdout
                digests[sub] = hashlib.sha256(out).hexdigest()
            cli.append(digests)
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as handle:
        json.dump({"design_greedy": greedy, "cli": cli}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
