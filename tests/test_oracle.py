"""The benchmark oracle's self-test, which calls into the package."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_oracle_self_test():
    """perfbench/oracle.py checks its strip-trapezoid reference against the
    package's adaptive Simpson rule (pulses.ADAPTIVE_SIMPSON at tolerance
    1e-14, through gate_metrics) and exits 1 past 1e-12; an API change that
    breaks it would otherwise go unseen until the benchmark runs."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "oracle.py"), "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "largest difference" in proc.stdout
