"""Run the one list of CLI runs, check the run contracts on each, and print
the manifest `files` digests as sorted JSON.

    PYTHONPATH=src python -W error::RuntimeWarning tests/digests.py > digests.json

The runs are the default config {"kind": K} of every scenario kind (a figure
kind through `resomem --figure K`), so a new kind joins by itself; the
CONFIGS below; and every operation of the benchmark's store-readout and
tomo-roundtrip workloads at workload seeds 1 and 2 (`perfbench/workloads.py`,
imported by path and used as is). Each run must keep the contracts the README
promises of every run, or the script names it on stderr and exits 1:
- its manifest's `config`, written to a file, reruns through `resomem
  --config` (`cli.main`) to the same `files` digests and the same config
- it loads no scipy module, even with scipy installed: numpy is enough
- it raises nothing, a RuntimeWarning included when the interpreter makes
  that an error (`-W` or `PYTHONWARNINGS` `error::RuntimeWarning`)

Each run writes into a temporary directory, so the printed JSON is the whole
output: two source trees, hash seeds or BLAS thread counts write the same CSV
bytes exactly when they print the same JSON. The program is the `resomem` on
the import path, so `PYTHONPATH=<other tree>/src` prints that tree's side.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import traceback
from pathlib import Path

import resomem.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("store-readout", "tomo-roundtrip")
SEEDS = (1, 2)
# configs that reach paths no default and no workload operation reaches
CONFIGS = {
    "breed_window": {"kind": "breed", "window": [-0.1, 0.1]},
    "store_T1_inf": {"kind": "store", "T1": math.inf},  # recorded as "Infinity"
    "tomo_capped": {"kind": "tomo", "state": {"type": "fock", "n": 1, "dim": 12}, "n_frames": 3000, "dim": 12,
                    "iterations": 30, "seed": 5},  # stops short of the certified optimum, and warns
    "tomo_repeated_phase": {"kind": "tomo", "state": {"type": "cat", "alpha": 1.0, "s": -1, "dim": 20},
                            "phases_deg": [150, 0, 60, 0, 90], "n_frames": 20000, "dim": 20},
}


class BrokenContract(Exception):
    """A run that exits nonzero, reruns to other bytes or loads scipy."""


def _main(*args) -> None:
    """`resomem` with `args`, in this process; a nonzero exit raises."""
    code = cli.main([str(a) for a in args])
    if code:
        raise BrokenContract(f"resomem {' '.join(map(str, args))} exited {code}")


def runs():
    """(run name, a function that writes the run into the directory it is given) for every run."""
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports checks.py and reference.py beside it
    import workloads

    for kind in sorted(cli._SCENARIOS):
        if kind in cli.FIGURE_KINDS:
            yield f"default/{kind}", lambda out, kind=kind: _main("--figure", kind, "--out", out)
        else:
            yield f"default/{kind}", lambda out, kind=kind: cli.run_scenario({"kind": kind}, out)
    for name, config in CONFIGS.items():
        yield f"config/{name}", lambda out, config=config: cli.run_scenario(dict(config), out)
    for name in WORKLOADS:
        for seed in SEEDS:
            for op in workloads.WORKLOADS[name](seed).ops:
                yield f"{name}/{seed}/{op.name}", lambda out, op=op: op.run(cli, out)


def checked(run, tmp: Path) -> dict:
    """Make `run` in tmp/first, rerun its manifest's config in tmp/rerun and
    check the contracts; returns the manifest's `files`."""
    run(tmp / "first")
    first = json.loads((tmp / "first" / "manifest.json").read_text())
    (tmp / "config.json").write_text(json.dumps(first["config"]))
    _main("--config", tmp / "config.json", "--out", tmp / "rerun")
    rerun = json.loads((tmp / "rerun" / "manifest.json").read_text())
    if rerun["files"] != first["files"]:
        moved = sorted({name for name, _ in first["files"].items() ^ rerun["files"].items()})
        raise BrokenContract(f"its manifest's config reruns to other bytes: {moved}")
    if rerun["config"] != first["config"]:
        raise BrokenContract(f"its rerun records the config {rerun['config']}, not {first['config']}")
    if _scipy():
        raise BrokenContract(f"it loaded {_scipy()}")
    return first["files"]


def _scipy() -> list:
    """The loaded scipy modules whose dotted names have no private part."""
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and "._" not in m)


def main() -> int:
    if _scipy():
        print(f"digests: import resomem.cli loaded {_scipy()}", file=sys.stderr)
        return 1
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, run) in enumerate(runs()):
            try:
                digests[name] = checked(run, Path(tmp) / str(i))
            except BrokenContract as exc:
                print(f"digests: run {name}: {exc}", file=sys.stderr)
                return 1
            except Exception as exc:  # a run that raises, a RuntimeWarning made an error among them
                traceback.print_exc()
                print(f"digests: run {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
