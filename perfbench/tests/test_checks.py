"""The benchmark's checks accept real zenoseq output and reject corrupted output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from zenoseq import cli, floatsum, processes, race  # noqa: E402

RACE = ["--x0", "3/7", "--sa", "10/3", "--st", "3"]
COMMANDS = {
    "steps-csv": ["steps", *RACE, "--n", "9", "--format", "csv"],
    "steps-table": ["steps", *RACE, "--n", "12"],
    "steps-json": ["steps", *RACE, "--n", "4", "--format", "json", "--digits", "9"],
    "dichotomy": ["dichotomy", "--length", "5/3", "--speed", "2", "--n", "11", "--digits", "3"],
    "process": ["process", "--first", "3/7", "--ratio", "2/3", "--k", "10"],
    "floaterr": ["floaterr", *RACE, "--nmax", "6"],
    "catchup": ["catchup", *RACE, "--digits", "20"],
    "catchup-json": ["catchup", *RACE, "--json", "--digits", "0"],
    "bounce": ["bounce", "--first", "3/7", "--ratio", "5/9"],
    "within": ["within", *RACE, "--eps", "1/1000"],
}
TABLES = ["steps-csv", "steps-table", "dichotomy", "process", "floaterr"]


def zenoseq(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check(argv, text, code=0, stderr=""):
    checks.check_cli(argv, code, text, stderr)


@pytest.mark.parametrize("name", COMMANDS)
def test_accepts_program_output(name):
    argv = COMMANDS[name]
    code, text, err = zenoseq(argv)
    check(argv, text, code, err)


@pytest.mark.parametrize("name", COMMANDS)
def test_rejects_one_changed_digit(name):
    argv = COMMANDS[name]
    _, text, _ = zenoseq(argv)
    # the last digit of the output: a value, never a label or a key
    at = max(i for i, c in enumerate(text) if c.isdigit())
    changed = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]
    with pytest.raises(checks.CheckError):
        check(argv, changed)


@pytest.mark.parametrize("name", COMMANDS)
def test_rejects_digit_changed_in_the_first_value(name):
    argv = COMMANDS[name]
    _, text, _ = zenoseq(argv)
    start = text.index("\n") + 1 if name in TABLES else text.index("= ") + 2 if "json" not in name else text.index('"exact": "') + 10
    at = next(i for i in range(start, len(text)) if text[i] in "123456789")
    changed = text[:at] + str(int(text[at]) % 9 + 1) + text[at + 1 :]
    with pytest.raises(checks.CheckError):
        check(argv, changed)


@pytest.mark.parametrize("name", TABLES)
def test_rejects_a_dropped_row(name):
    argv = COMMANDS[name]
    _, text, _ = zenoseq(argv)
    lines = text.splitlines(keepends=True)
    for drop in (1, 3, len(lines) - 2):
        with pytest.raises(checks.CheckError):
            check(argv, "".join(lines[:drop] + lines[drop + 1 :]))


def test_rejects_a_dropped_json_step():
    argv = COMMANDS["steps-json"]
    doc = json.loads(zenoseq(argv)[1])
    del doc["results"]["steps"][2]
    with pytest.raises(checks.CheckError):
        check(argv, json.dumps(doc, indent=2) + "\n")


def test_rejects_a_misaligned_table():
    argv = COMMANDS["steps-table"]
    _, text, _ = zenoseq(argv)
    with pytest.raises(checks.CheckError):
        check(argv, text.replace("  ", "   ", 1))


# x0/(sa - st) = 1/8 and sa*x0/(sa - st) = 9/8: ties at two fractional digits.
TIE = ["catchup", "--x0", "1", "--sa", "9", "--st", "1", "--digits", "2"]


def test_rounds_ties_to_even():
    assert zenoseq(TIE)[1] == "t_inf = 1/8 (0.12)\nx_inf = 9/8 (1.12)\n"
    check(TIE, "t_inf = 1/8 (0.12)\nx_inf = 9/8 (1.12)\n")


@pytest.mark.parametrize(
    "text",
    [
        "t_inf = 1/8 (0.13)\nx_inf = 9/8 (1.12)\n",  # tie rounded up
        "t_inf = 1/8 (0.12)\nx_inf = 9/8 (1.13)\n",
        "t_inf = 1/8 (0.125)\nx_inf = 9/8 (1.125)\n",  # not rounded
    ],
)
def test_rejects_wrong_rounding(text):
    with pytest.raises(checks.CheckError):
        check(TIE, text)


def test_rejects_truncation_in_json():
    argv = ["steps", "--x0", "2", "--sa", "3", "--st", "1", "--n", "3", "--format", "json", "--digits", "4"]
    _, text, _ = zenoseq(argv)
    check(argv, text)
    assert '"decimal": "0.6667"' in text
    with pytest.raises(checks.CheckError):
        check(argv, text.replace('"decimal": "0.6667"', '"decimal": "0.6666"', 1))


def test_rejects_errors_and_stderr():
    argv = COMMANDS["bounce"]
    _, text, _ = zenoseq(argv)
    with pytest.raises(checks.CheckError):
        check(argv, text, code=2)
    with pytest.raises(checks.CheckError):
        check(argv, text, stderr="warning\n")
    with pytest.raises(checks.CheckError):
        check(argv, text.rstrip("\n"))


def test_floaterr_values_are_checked_bit_for_bit():
    argv = COMMANDS["floaterr"]
    _, text, _ = zenoseq(argv)
    row = text.splitlines()[5].split(",")
    value = float(row[2])
    bumped = ",".join(row[:2] + [repr(math.nextafter(value, math.inf))] + row[3:])
    with pytest.raises(checks.CheckError):
        check(argv, text.replace(",".join(row), bumped))


def test_decimal_text_matches_fraction_rounding():
    for value in (Fraction(1, 8), Fraction(-5, 16), Fraction(2, 3), Fraction(-1, 300), Fraction(7)):
        for digits in range(5):
            units = round(abs(value) * 10**digits)
            assert checks.decimal_text(value, digits).lstrip("-").replace(".", "") == str(units).rjust(digits + 1, "0")
    assert checks.decimal_text(Fraction(-1, 300), 2) == "0.00"
    assert checks.decimal_text(Fraction(-1, 8), 2) == "-0.12"


# --- library calls -------------------------------------------------------------

CONFIG = {"x0": Fraction(3, 7), "sa": Fraction(1000), "st": Fraction(999)}
RACE_CONFIG = race.RaceConfig(**CONFIG)


def test_library_results_pass_and_corruptions_fail():
    events = race.step_sequence(RACE_CONFIG, 40)
    params = {**CONFIG, "count": 40}
    checks.check_lib("step_sequence", params, events)
    with pytest.raises(checks.CheckError):
        checks.check_lib("step_sequence", params, events[:20] + events[21:])
    bad = race.StepEvent(7, events[7].t + Fraction(1, 10**40), events[7].x)
    with pytest.raises(checks.CheckError):
        checks.check_lib("step_sequence", params, events[:7] + [bad] + events[8:])

    dich = {"length": Fraction(5, 3), "speed": Fraction(2), "count": 30}
    walk = processes.dichotomy_sequence(processes.DichotomyConfig(dich["length"], dich["speed"]), 30)
    checks.check_lib("dichotomy_sequence", dich, walk)
    with pytest.raises(checks.CheckError):
        checks.check_lib("dichotomy_sequence", dich, walk[1:])

    proc = {"first": Fraction(3, 7), "ratio": Fraction(9, 10), "count": 25}
    times = processes.event_times(processes.GeometricEventProcess(proc["first"], proc["ratio"]), 25)
    checks.check_lib("event_times", proc, times)
    with pytest.raises(checks.CheckError):
        checks.check_lib("event_times", proc, times[:-1] + [times[-1] * Fraction(10**30 + 1, 10**30)])


def test_steps_to_within_is_checked_for_minimality():
    eps = Fraction(1, 10**6)
    n = race.steps_to_within(RACE_CONFIG, eps)
    params = {**CONFIG, "eps": eps}
    checks.check_lib("steps_to_within", params, n)
    for wrong in (n - 1, n + 1):
        with pytest.raises(checks.CheckError):
            checks.check_lib("steps_to_within", params, wrong)
    # t_inf = 1/360 is already below eps: the answer is step 0
    loose = {"x0": Fraction(1), "sa": Fraction(480), "st": Fraction(120), "eps": Fraction(1, 10)}
    assert race.steps_to_within(race.RaceConfig(loose["x0"], loose["sa"], loose["st"]), loose["eps"]) == 0
    checks.check_lib("steps_to_within", loose, 0)
    with pytest.raises(checks.CheckError):
        checks.check_lib("steps_to_within", loose, 1)


def test_error_sweep_reports_are_checked():
    config = {"x0": Fraction(3, 7), "sa": Fraction(10), "st": Fraction(9)}
    params = {**config, "n_max": 30}
    sweep = floatsum.error_sweep(race.RaceConfig(**config), 30)
    checks.check_lib("error_sweep", params, sweep)
    naive, comp = sweep[12]
    nudged = floatsum.FloatReport(naive.n, naive.method, math.nextafter(naive.value, 0), naive.exact, naive.abs_error, naive.rel_error)
    with pytest.raises(checks.CheckError):
        checks.check_lib("error_sweep", params, sweep[:12] + [(nudged, comp)] + sweep[13:])
    wrong_error = floatsum.FloatReport(comp.n, comp.method, comp.value, comp.exact, comp.abs_error * 2, comp.rel_error)
    with pytest.raises(checks.CheckError):
        checks.check_lib("error_sweep", params, sweep[:12] + [(naive, wrong_error)] + sweep[13:])


# --- workload inputs -----------------------------------------------------------


def test_same_seed_same_inputs_and_sizes_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.ops(3) == workload.ops(3)
        assert workload.ops(3) != workload.ops(4)
        sizes = [[len(getattr(op, "argv", ())) for op in workload.ops(seed)] for seed in (3, 4)]
        assert sizes[0] == sizes[1]


def test_thresholds_give_the_exact_step_count():
    deep = workloads.lib_depth(5, scale=100)
    for op in deep[:2]:
        config = race.RaceConfig(op.params["x0"], op.params["sa"], op.params["st"])
        assert race.steps_to_within(config, op.params["eps"]) in (100, 200)


def test_tally_counts_failures_apart_from_wrong_output():
    argv = COMMANDS["bounce"]
    _, text, _ = zenoseq(argv)
    tally = checks.Tally()
    tally.cli(argv, 0, text, "")
    tally.cli(argv, 2, "", "error: bad input\n")
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, [])
    tally.cli(argv, 0, text.replace("(", "(1"), "")
    assert (tally.attempted, tally.failed, len(tally.wrong)) == (3, 1, 1)
