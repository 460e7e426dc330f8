"""Golden-file case table shared by the CLI tests and the regeneration script.

Each case pins one command line: its stdout (committed under goldens/),
its exit code, and a stderr fragment for the error exits. Error exits
produce empty stdout, so their golden files are empty.
"""

from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    exit_code: int = 0
    stderr_contains: str = field(default="")


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.out"


CASES = [
    CliCase("catchup-json", ("catchup", "--x0", "1", "--sa", "2", "--st", "1", "--json")),
    CliCase("catchup-tenth", ("catchup", "--x0", "1", "--sa", "10", "--st", "1")),
    CliCase(
        "catchup-equal-speeds",
        ("catchup", "--x0", "1", "--sa", "1", "--st", "1"),
        exit_code=3,
        stderr_contains="no catch-up: ratio >= 1",
    ),
    CliCase("steps-csv", ("steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "3", "--format", "csv")),
    CliCase("steps-stationary", ("steps", "--x0", "1", "--sa", "2", "--st", "0", "--n", "2")),
    CliCase("steps-divergent", ("steps", "--x0", "1", "--sa", "1", "--st", "2", "--n", "3")),
    CliCase("steps-json", ("steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "2", "--format", "json")),
    # Ratio 1 has no closed form, so the gap check is the only one that runs.
    CliCase("steps-equal-speeds", ("steps", "--x0", "2/3", "--sa", "5", "--st", "5", "--n", "3")),
    CliCase("within-tenth", ("within", "--x0", "1", "--sa", "2", "--st", "1", "--eps", "1/10")),
    CliCase("within-loose", ("within", "--x0", "1", "--sa", "2", "--st", "1", "--eps", "2")),
    CliCase(
        "within-equal-speeds",
        ("within", "--x0", "1", "--sa", "1", "--st", "1", "--eps", "1/10"),
        exit_code=3,
        stderr_contains="no catch-up: ratio >= 1",
    ),
    CliCase("process-halving", ("process", "--first", "1/2", "--ratio", "1/2", "--k", "2")),
    CliCase("process-single", ("process", "--first", "1", "--ratio", "0", "--k", "0")),
    CliCase("process-arithmetic", ("process", "--first", "1", "--ratio", "1", "--k", "2")),
    CliCase("dichotomy-unit", ("dichotomy", "--length", "1", "--speed", "1", "--n", "2")),
    CliCase("bounce-halving", ("bounce", "--first", "1", "--ratio", "1/2")),
    CliCase("bounce-dead", ("bounce", "--first", "1", "--ratio", "0")),
    CliCase("floaterr-dyadic", ("floaterr", "--x0", "1", "--sa", "2", "--st", "1", "--nmax", "4")),
    CliCase("floaterr-tenth", ("floaterr", "--x0", "1", "--sa", "10", "--st", "1", "--nmax", "4")),
    CliCase(
        "floaterr-divergent",
        ("floaterr", "--x0", "1", "--sa", "1", "--st", "2", "--nmax", "4"),
        exit_code=3,
        stderr_contains="no catch-up: ratio >= 1",
    ),
    CliCase("catchup-digits", ("catchup", "--x0", "1", "--sa", "3", "--st", "1", "--digits", "10")),
]
