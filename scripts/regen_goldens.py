#!/usr/bin/env python3
"""Regenerate the committed golden outputs for the CLI case table.

Runs every case from tests/cli_cases.py through the package in this
checkout's src/ (ahead of anything else on PYTHONPATH) and rewrites
tests/goldens/<name>.out with the captured stdout. Refuses to write
anything if an exit code disagrees with the table, so a broken build
cannot silently bless itself.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from cli_cases import CASES, GOLDEN_DIR, golden_path


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    results = []
    for case in CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "zenoseq", *case.argv], capture_output=True, env=env
        )
        if proc.returncode != case.exit_code:
            print(
                f"{case.name}: expected exit {case.exit_code}, got {proc.returncode}\n"
                f"{proc.stderr.decode()}",
                file=sys.stderr,
            )
            return 1
        if case.stderr_contains and case.stderr_contains not in proc.stderr.decode():
            print(
                f"{case.name}: stderr missing {case.stderr_contains!r}", file=sys.stderr
            )
            return 1
        results.append((case.name, proc.stdout))

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, stdout in results:
        golden_path(name).write_bytes(stdout)
        print(f"{name}: {len(stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
