"""The benchmark harness's own self-test, run as its users run it: every
workload passes its output check and every tracer wrapper fires, so a
change to the program that leaves a traced function uncalled fails here."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_reports_no_failure():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert done.stdout.splitlines()[-1] == "0 failure(s)"
