"""Smoke tests for the scripts the README advertises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_error_sweep_demo_prints_one_block_per_ratio():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    argv = ["--ratios", "1/2,9/10", "--nmax", "10"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "error_sweep_demo.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("ratio ")]
    assert [h.split()[1] for h in headers] == ["1/2", "9/10"]
    # Each block: its header, the column titles, the rows n = 0, 1, 3, 10, a blank line.
    assert proc.stdout.count("\n") == 2 * 7


def test_check_interpreters_passes_on_the_running_interpreter():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_interpreters.py"), sys.executable],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [row] = proc.stdout.splitlines()
    assert row.startswith(sys.executable) and row.endswith("  ok")
