"""One pass of each gated benchmark workload runs and passes its checks.

Runs `perfbench/run.py` as the benchmark does, with `--seconds 0` (one pass),
and one traced pass, whose tracer patches library functions by name.
It writes only to the git-ignored `perfbench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def run_one_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    return result


@pytest.mark.parametrize("workload", ["tomo-roundtrip", "store-readout"])
def test_one_pass_is_correct(workload):
    run_one_pass(workload, "0")


@pytest.mark.parametrize("workload", ["tomo-roundtrip", "store-readout"])
def test_one_traced_pass_is_correct(workload):
    # the tracer looks functions up by module and name, so a renamed or
    # dropped library name fails here
    metrics = run_one_pass(workload, "1")["metrics"]
    if workload == "tomo-roundtrip":
        # sample_homodyne draws through the name the tracer patches, tomo.marginal
        assert metrics["wigner.marginal.calls"]["value"] > 0
