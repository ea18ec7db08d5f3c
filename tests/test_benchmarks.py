import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """The benchmark's own checks hold: a golden digest catches a perturbed
    tracker row, a failing job counts as failed, and tracing restores every
    function it replaced while it reads the tracker's live-track count and
    association sizes."""
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
