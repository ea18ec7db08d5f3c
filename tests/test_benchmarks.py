import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """The benchmark's own checks hold: a golden digest catches a perturbed
    tracker row, a failing job counts as failed, and tracing restores every
    function it replaced while it reads the tracker's live-track count and
    association sizes. The perturbed row must fail by its digest: a perturbation
    that raised would fail the job too, without testing the digest."""
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output[-4000:]
    assert "digest differs from the golden digest" in output, output[-4000:]
    assert "AttributeError" not in output, output[-4000:]


@pytest.mark.parametrize("workload,seed", [("dense90_byte", 0), ("sparse20_cli", 0),
                                           ("maps_fusion", 0), ("maps_fusion", 7),
                                           ("dense90_byte", 7), ("sparse20_cli", 7)],
                         ids=["dense90_byte", "sparse20_cli", "maps_fusion", "maps_fusion-seed7",
                              "dense90_byte-seed7", "sparse20_cli-seed7"])
def test_golden_digest(workload, seed):
    """Each workload reproduces its golden digests for seeds 0 and 7: the
    tracker rows and MOT report of dense90_byte (library) and sparse20_cli
    (CLI on files), and for maps_fusion the fused output and every
    parameter's gradient norm in registry order. Seed 7's crowds reach cases
    that seed 0's do not, such as maps_fusion's flow estimates. run.py keeps
    its temporary files under the ignored benchmarks/out/."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout[-2000:]
