"""Print the manifest `files` digests of a fixed set of CLI runs as sorted JSON.

    PYTHONPATH=src python tests/digests.py > digests.json

The runs are the default config {"kind": K} of every scenario kind, and every
operation of the benchmark's store-readout and tomo-roundtrip workloads at
workload seeds 1 and 2 (`perfbench/workloads.py`, imported by path and used as
is). Each run writes into a temporary directory, so the printed JSON is the
whole output: two source trees, hash seeds or BLAS thread counts write the
same CSV bytes exactly when they print the same JSON. The program is the
`resomem` on the import path, so `PYTHONPATH=<other tree>/src` prints that
tree's side.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import resomem.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("store-readout", "tomo-roundtrip")
SEEDS = (1, 2)


def runs():
    """(run name, workloads.Op) for every run."""
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports checks.py and reference.py beside it
    import workloads

    for kind in sorted(cli._SCENARIOS):
        yield f"default/{kind}", workloads.Op(kind, {"kind": kind})
    for name in WORKLOADS:
        for seed in SEEDS:
            for op in workloads.WORKLOADS[name](seed).ops:
                yield f"{name}/{seed}/{op.name}", op


def main():
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, op) in enumerate(runs()):
            manifest = op.run(cli, Path(tmp) / str(i))
            digests[name] = json.loads(manifest.read_text())["files"]
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
