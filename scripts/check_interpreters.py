#!/usr/bin/env python3
"""Check this checkout's package on several Python interpreters.

    python3 scripts/check_interpreters.py /usr/bin/python3.10 /usr/bin/python3.13

Each interpreter runs this script again in isolated mode (-I), with this
checkout's src/ first on its path, and checks two things in-process:
every case of tests/cli_cases.py through cli.main, by exit code and
stdout bytes against its committed golden; and race.geometric_sums
against a plain Fraction recurrence, which exercises the Fraction slots
that race._coprime_fraction fills directly. It prints one row per
interpreter and exits 1 if any check fails or an interpreter cannot run.
Standard library only, so it needs no test runner on the interpreters.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (first, ratio, count): long, ratio above 1, zero first term, negative ratio.
ENGINE_CASES = [
    (Fraction(3, 7), Fraction(9, 10), 200),
    (Fraction(6, 5), Fraction(5, 3), 50),
    (Fraction(0), Fraction(1, 2), 5),
    (Fraction(2, 9), Fraction(-1), 6),
]


def _run_case(cli, argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def _engine_matches(race, first: Fraction, ratio: Fraction, count: int) -> bool:
    expected, total, term = [], Fraction(0), first
    for _ in range(count):
        total += term
        term *= ratio
        expected.append(total)
    got = race.geometric_sums(first, ratio, count)
    return [(v.numerator, v.denominator) for v in got] == [
        (v.numerator, v.denominator) for v in expected
    ]


def check_here() -> dict:
    """The checks on the running interpreter, as one JSON-ready record."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from cli_cases import CASES, golden_path

    from zenoseq import cli, race

    failed = [
        case.name
        for case in CASES
        if _run_case(cli, case.argv) != (case.exit_code, golden_path(case.name).read_bytes())
    ]
    failed += [
        f"engine {first}, {ratio}, {count}"
        for first, ratio, count in ENGINE_CASES
        if not _engine_matches(race, first, ratio, count)
    ]
    return {
        "version": sys.version.split()[0],
        "goldens": len(CASES),
        "engine": len(ENGINE_CASES),
        "failed": failed,
    }


def check(interpreter: str) -> tuple[str, bool]:
    """One row for `interpreter`, and whether every check passed."""
    try:
        proc = subprocess.run(
            [interpreter, "-I", __file__, "--here"], capture_output=True, text=True, timeout=300
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{interpreter}  error: {exc}", False
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return f"{interpreter}  error: exit {proc.returncode}: {last}", False
    record = json.loads(proc.stdout)
    failed = record["failed"]
    counts = f"goldens {record['goldens']}, engine cases {record['engine']}"
    verdict = "ok" if not failed else "FAILED " + "; ".join(failed)
    return f"{interpreter}  {record['version']}  {counts}  {verdict}", not failed


def main(argv: list[str]) -> int:
    if argv == ["--here"]:
        print(json.dumps(check_here()))
        return 0
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for interpreter in argv:
        row, passed = check(interpreter)
        print(row)
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
