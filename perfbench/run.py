"""resomem benchmark: runs one workload as a closed loop of CLI calls and
prints its metrics.

    python3 perfbench/run.py --workload breed-ideal --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src/`. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, pass_s, peak_rss_mb); with
`--trace 1` it holds the per-layer metrics of a traced run. Outputs of the
last pass and the spans of a traced run are left in `perfbench/out/`.
Exits 2 without a result when the program cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
MODULES = ["fock", "gates", "breeding", "memory", "noise", "wigner", "tomo", "rates", "cli"]
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"]
SUBPROCESS_TIMEOUT = 120


class SetupError(Exception):
    """The program cannot be run from this checkout."""


def limit_threads():
    """Run numpy's native pools on one thread, set before numpy is imported.
    `--threads` and RESOMEM_THREADS do not reach these pools, so the limit is
    set here; one thread was faster than two on every workload (README)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def python(args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)


def measure_setup(env: dict) -> float:
    """Median wall time from starting a fresh interpreter to `import
    resomem.cli` returning. Run after the in-process import, which has
    written the bytecode cache."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        r = python(["-c", "import resomem.cli, os; os._exit(0)"], env)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            raise SetupError(r.stderr.strip()[-500:])
    return statistics.median(times)


def measure_import_times(env: dict) -> dict:
    """<module>.import_s: cumulative import time of each resomem module from
    `python -X importtime`, median of a few fresh interpreters."""
    seen = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        r = python(["-X", "importtime", "-c", "import resomem.cli"], env)
        if r.returncode != 0:
            raise SetupError(r.stderr.strip()[-500:])
        for line in r.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*resomem\.(\w+)\s*$", line)
            if m:
                seen[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {f"{m}.import_s": (statistics.median(seen[m]), "s") for m in MODULES}


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import resomem.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import resomem.cli: {exc}") from exc
    if Path(cli.__file__).resolve() != SRC / "resomem" / "cli.py":
        raise SetupError(f"resomem.cli imported from {cli.__file__}, not from {SRC}")
    return cli


class Loop:
    """Closed loop of whole passes over the workload's operations."""

    def __init__(self, workload, cli, outroot: Path):
        self.workload = workload
        self.cli = cli
        self.outroot = outroot
        self.attempted = 0
        self.failed_ops = set()
        self.failed = 0
        self.files = None  # manifest checksums of the first pass, per op
        self.problems = []

    def run(self, seconds: float, tracer=None) -> list:
        """Run passes until `seconds` have elapsed, at least one; returns
        the wall time of each pass."""
        times = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_index += 1
            t0 = time.perf_counter()
            failed = set()
            for op in self.workload.ops:
                try:
                    op.run(self.cli, self.outroot / op.name)
                except Exception as exc:  # a failed operation is counted and the loop goes on
                    failed.add(op.name)
                    print(f"operation {op.name} failed: {exc!r}", file=sys.stderr)
            times.append(time.perf_counter() - t0)
            self.attempted += len(self.workload.ops)
            self.failed += len(failed)
            self.failed_ops |= failed
            self._compare_files(failed)
            if time.perf_counter() - start >= seconds:
                return times

    def _compare_files(self, failed: set):
        """The same config gives byte-identical files on every pass."""
        files = {
            op.name: json.loads((self.outroot / op.name / "manifest.json").read_text())["files"]
            for op in self.workload.ops
            if op.name not in failed
        }
        if self.files is None:
            self.files = files
            return
        for name, sums in files.items():
            if name in self.files and sums != self.files[name]:
                self.problems.append(f"{name}: files differ between passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tomo-seed", type=int, default=None,
                        help="homodyne sampling seed of tomo-roundtrip (default: workloads.TOMO_SEED)")
    args = parser.parse_args(argv)

    limit_threads()
    sys.path.insert(0, str(HERE))
    import workloads  # imports numpy, so after the thread limit

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tomo_seed = workloads.TOMO_SEED if args.tomo_seed is None else args.tomo_seed
    workload = workloads.WORKLOADS[args.workload](args.seed, tomo_seed)
    outroot = OUT / args.workload
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)

    try:
        cli = import_program()
        env = child_env()
        if args.trace:
            metrics = measure_import_times(env)
        else:
            metrics = {"setup_s": (measure_setup(env), "s")}
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2

    loop = Loop(workload, cli, outroot)
    if args.trace:
        from tracing import Tracer

        untraced = loop.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layer, problems = tracer.metrics(list(range(1, tracer.pass_index + 1)))
        loop.problems += problems
        metrics.update(layer)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        tracer.write(outroot / "spans.json")
    else:
        passes = loop.run(args.seconds)
        print("pass times (s): " + " ".join(f"{t:.4f}" for t in passes), file=sys.stderr)
        metrics["pass_s"] = (statistics.median(passes), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    problems = loop.problems + workload.check(outroot, loop.failed_ops)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
