"""CLI behavior: golden outputs, exit codes, determinism, JSON round-trips."""

import dataclasses
import importlib.util
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cli_cases import CASES, CliCase, golden_path
from zenoseq import cli
from zenoseq.race import RaceConfig, catch_up, t_n_closed, x_n_closed
from zenoseq.rational import parse

F = Fraction

_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def run_cli(argv: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "zenoseq", *argv], capture_output=True, timeout=60
    )


def run_main(argv: list[str], capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldens:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_output_matches_committed_golden(self, case: CliCase):
        proc = run_cli(case.argv)
        assert proc.returncode == case.exit_code, proc.stderr.decode()
        assert proc.stdout == golden_path(case.name).read_bytes()
        if case.stderr_contains:
            assert case.stderr_contains in proc.stderr.decode()
        else:
            assert proc.stderr == b""

    @pytest.mark.parametrize(
        "case",
        [c for c in CASES if c.name in ("catchup-json", "floaterr-tenth")],
        ids=lambda c: c.name,
    )
    def test_repeat_runs_are_byte_identical(self, case: CliCase):
        assert run_cli(case.argv).stdout == run_cli(case.argv).stdout

    def test_error_exits_print_nothing_to_stdout(self):
        for case in CASES:
            if case.exit_code != 0:
                assert golden_path(case.name).read_bytes() == b""


class TestGoldenContents:
    # The goldens were produced by the code under test, so the values the
    # brief pins are asserted here against independently stated expectations.

    def test_catchup_tenth_values(self):
        text = golden_path("catchup-tenth").read_text()
        assert text == "t_inf = 1/9 (0.111111)\nx_inf = 10/9 (1.111111)\n"

    def test_steps_csv_rows(self):
        assert golden_path("steps-csv").read_text() == (
            "n,t_n,x_n,gap\n0,1/2,1,1/2\n1,3/4,3/2,1/4\n2,7/8,7/4,1/8\n"
        )

    def test_divergent_steps_still_emit_with_growing_gap(self):
        lines = golden_path("steps-divergent").read_text().splitlines()
        assert lines[0].split() == ["n", "t_n", "x_n", "gap"]
        rows = [line.split() for line in lines[1:]]
        assert rows == [["0", "1", "1", "2"], ["1", "3", "3", "4"], ["2", "7", "7", "8"]]

    def test_equal_speeds_steps_keep_a_constant_gap(self):
        # r = 1: x_n = (n+1)*x0 and t_n = x_n/sa, and the lead stays x0.
        lines = golden_path("steps-equal-speeds").read_text().splitlines()
        assert [line.split() for line in lines[1:]] == [
            ["0", "2/15", "2/3", "2/3"],
            ["1", "4/15", "4/3", "2/3"],
            ["2", "2/5", "2", "2/3"],
        ]

    def test_within_tenth(self):
        assert golden_path("within-tenth").read_text() == (
            "n = 3\nresidual = 1/16 (0.062500)\n"
        )

    def test_within_loose(self):
        assert golden_path("within-loose").read_text() == (
            "n = 0\nresidual = 1/2 (0.500000)\n"
        )

    def test_process_arithmetic_progression_prints_and_flags_divergence(self):
        text = golden_path("process-arithmetic").read_text()
        assert "accumulation point: divergent (ratio >= 1)" in text
        rows = [line.split() for line in text.splitlines()[1:4]]
        assert rows == [["0", "1"], ["1", "2"], ["2", "3"]]

    def test_process_halving(self):
        text = golden_path("process-halving").read_text()
        assert text.endswith("accumulation point = 1 (1.000000)\n")
        rows = [line.split() for line in text.splitlines()[1:4]]
        assert rows == [["0", "1/2"], ["1", "3/4"], ["2", "7/8"]]

    def test_dichotomy_unit(self):
        text = golden_path("dichotomy-unit").read_text()
        rows = [line.split() for line in text.splitlines()[1:3]]
        assert rows == [["0", "1/2", "1/2"], ["1", "3/4", "3/4"]]
        assert text.endswith("total time = 1 (1.000000)\n")

    def test_bounce_values(self):
        assert golden_path("bounce-halving").read_text() == "rest time = 2 (2.000000)\n"
        assert golden_path("bounce-dead").read_text() == "rest time = 1 (1.000000)\n"

    def test_floaterr_dyadic_all_errors_zero(self):
        lines = golden_path("floaterr-dyadic").read_text().splitlines()
        assert lines[0] == "n,method,value,exact,abs_error,rel_error"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        for row in rows:
            assert row[4] == "0.0"
            assert row[5] == "0.0"

    def test_floaterr_tenth_has_positive_errors(self):
        lines = golden_path("floaterr-tenth").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        assert all(float(row[4]) > 0 for row in rows)
        # value column must round-trip to the float the engine produced
        assert all(repr(float(row[2])) == row[2] for row in rows)

    def test_csv_goldens_use_lf_only_and_no_quotes(self):
        for name in ("steps-csv", "floaterr-dyadic", "floaterr-tenth"):
            raw = golden_path(name).read_bytes()
            assert b"\r" not in raw
            assert b'"' not in raw


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLargeTables:
    # The goldens hold at most a few rows, so column widths and cells of
    # hundreds of digits are checked here against the benchmark's oracle,
    # which recomputes every line from the closed forms.
    NINE_TENTHS = ("--x0", "3/7", "--sa", "10", "--st", "9")

    @pytest.mark.parametrize(
        "argv",
        [
            ("steps", *NINE_TENTHS, "--n", "300", "--format", "table"),
            ("steps", *NINE_TENTHS, "--n", "300", "--format", "csv"),
            ("steps", *NINE_TENTHS, "--n", "300", "--format", "json", "--digits", "11"),
            ("steps", "--x0", "5/3", "--sa", "999", "--st", "1000", "--n", "300"),
            ("dichotomy", "--length", "7/3", "--speed", "5/11", "--n", "300"),
            ("process", "--first", "5/3", "--ratio", "999/1000", "--k", "300", "--digits", "9"),
            ("floaterr", "--x0", "3/7", "--sa", "1000", "--st", "999", "--nmax", "300"),
        ],
        ids=[
            "steps-table",
            "steps-csv",
            "steps-json",
            "steps-divergent",
            "dichotomy",
            "process",
            "floaterr",
        ],
    )
    def test_output_passes_the_benchmark_checks(self, argv, capsys):
        code, out, err = run_main(list(argv), capsys)
        _load_checks().check_cli(argv, code, out, err)


positive = st.fractions(min_value=F(1, 1000), max_value=F(1000), max_denominator=1000)
ratios_strictly_inside = st.fractions(
    min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000
)


class TestWithinResidual:
    # Thresholds from t_inf/2 to 2*t_inf keep n small enough at r = 999/1000
    # that the printed residual stays under the interpreter's digit limit.
    @given(
        positive,
        positive,
        st.one_of(st.just(F(999, 1000)), ratios_strictly_inside),
        st.fractions(min_value=F(1, 2), max_value=F(2), max_denominator=100),
    )
    def test_residual_is_t_inf_minus_t_n(self, x0, sa, ratio, share):
        config = RaceConfig(x0, sa, sa * ratio)
        t_inf = catch_up(config).t_inf
        argv = ["within", "--x0", str(x0), "--sa", str(sa), "--st", str(config.st)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main([*argv, "--eps", str(t_inf * share)]) == 0
        n_line, residual_line = out.getvalue().splitlines()
        n = int(n_line.removeprefix("n = "))
        residual = parse(residual_line.split()[2])
        assert residual == t_inf - t_n_closed(config, n)


class TestJsonRoundTrip:
    def test_catchup_envelope(self):
        doc = json.loads(golden_path("catchup-json").read_text())
        assert doc["schema_version"] == 1
        assert doc["command"] == "catchup"
        assert doc["inputs"] == {"x0": "1", "sa": "2", "st": "1"}
        result = catch_up(RaceConfig(1, 2, 1))
        assert parse(doc["results"]["t_inf"]["exact"]) == result.t_inf
        assert parse(doc["results"]["x_inf"]["exact"]) == result.x_inf

    def test_steps_envelope(self):
        doc = json.loads(golden_path("steps-json").read_text())
        config = RaceConfig(1, 2, 1)
        assert doc["schema_version"] == 1
        steps = doc["results"]["steps"]
        assert [s["n"] for s in steps] == [0, 1]
        for s in steps:
            assert parse(s["t"]["exact"]) == t_n_closed(config, s["n"])
            assert parse(s["x"]["exact"]) == x_n_closed(config, s["n"])
            assert parse(s["gap"]["exact"]) == config.x0 * config.ratio ** (s["n"] + 1)

    def test_rationals_are_strings_never_numbers(self):
        for name in ("catchup-json", "steps-json"):
            doc = json.loads(golden_path(name).read_text())

            def walk(node):
                if isinstance(node, dict):
                    for key, value in node.items():
                        if key in ("exact", "decimal"):
                            assert isinstance(value, str)
                        else:
                            walk(value)
                elif isinstance(node, list):
                    for item in node:
                        walk(item)

            walk(doc["results"])


class TestExitCodes:
    def test_invalid_rational_literal_is_usage_error(self):
        proc = run_cli(("catchup", "--x0", "abc", "--sa", "2", "--st", "1"))
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_non_ascii_digits_are_usage_error(self):
        proc = run_cli(("catchup", "--x0", "\u0661", "--sa", "\uff12", "--st", "1"))
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_unknown_subcommand(self):
        proc = run_cli(("nonsense",))
        assert proc.returncode == 2

    def test_missing_required_flag(self):
        proc = run_cli(("catchup", "--x0", "1", "--sa", "2"))
        assert proc.returncode == 2

    def test_invalid_config_value(self, capsys):
        code, out, err = run_main(["catchup", "--x0", "1", "--sa", "0", "--st", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_stationary_leader_within_is_invalid(self, capsys):
        code, _, err = run_main(
            ["within", "--x0", "1", "--sa", "2", "--st", "0", "--eps", "1/10"], capsys
        )
        assert code == 2
        assert "stationary" in err

    @pytest.mark.parametrize("n", ["0", "10001"])
    def test_step_count_out_of_range(self, n, capsys):
        code, _, err = run_main(["steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", n], capsys)
        assert code == 2
        assert "between 1 and 10000" in err

    @pytest.mark.parametrize("k", ["-1", "10001"])
    def test_event_index_out_of_range(self, k, capsys):
        code, out, err = run_main(["process", "--first", "1", "--ratio", "0", "--k", k], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --k must be between 0 and 10000\n"

    def test_event_index_at_the_cap(self, capsys):
        code, out, _ = run_main(["process", "--first", "1", "--ratio", "0", "--k", "10000"], capsys)
        assert code == 0
        lines = out.splitlines()
        # header, events 0..10000, then the accumulation point
        assert len(lines) == 10_003
        assert lines[-2].split() == ["10000", "1"]

    @pytest.mark.parametrize("nmax", ["0", "10001"])
    def test_nmax_out_of_range(self, nmax, capsys):
        code, out, err = run_main(
            ["floaterr", "--x0", "1", "--sa", "2", "--st", "1", "--nmax", nmax], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: --nmax must be between 1 and 10000\n"

    @pytest.mark.parametrize(
        "x0, st, nmax",
        [("1" + "0" * 400, "0", "2"), ("1" + "0" * 308, "1/2", "5")],
        ids=["term", "t_inf"],
    )
    def test_float_overflow_is_invalid_input(self, x0, st, nmax, capsys):
        argv = ["floaterr", "--x0", x0, "--sa", "1", "--st", st, "--nmax", nmax]
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert out == ""
        assert "binary64 range" in err

    def test_eps_zero_rejected(self, capsys):
        code, _, err = run_main(
            ["within", "--x0", "1", "--sa", "2", "--st", "1", "--eps", "0"], capsys
        )
        assert code == 2
        assert "eps" in err

    def test_divergence_is_exit_three(self, capsys):
        code, out, err = run_main(["catchup", "--x0", "1", "--sa", "1", "--st", "2"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: no catch-up: ratio >= 1\n"

    def test_internal_cross_check_failure_is_exit_four(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.race, "t_n_closed", lambda config, n: F(999))
        code, out, err = run_main(["steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "3"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:")
        assert "disagree" in err

    def test_corrupted_gap_is_exit_four(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.race, "step_sequence", lambda config, count: [
            cli.race.StepEvent(n, F(2 * n), F(2 * n)) for n in range(count)
        ])
        code, _, err = run_main(["steps", "--x0", "1", "--sa", "1", "--st", "1", "--n", "3"], capsys)
        assert code == 4
        assert "gap" in err

    # A mismatch found after earlier rows were already formatted still ends
    # with nothing on stdout, in every format.
    @pytest.mark.parametrize("form", ["table", "csv", "json"])
    def test_late_closed_form_mismatch_prints_nothing(self, form, capsys, monkeypatch):
        true_x = cli.race.x_n_closed
        monkeypatch.setattr(
            cli.race, "x_n_closed", lambda config, n: true_x(config, n) + (n == 3)
        )
        argv = ["steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "5", "--format", form]
        code, out, err = run_main(argv, capsys)
        assert code == 4
        assert out == ""
        assert err == "internal error: closed form and recurrence disagree at step 3\n"

    @pytest.mark.parametrize("form", ["table", "csv", "json"])
    def test_late_gap_mismatch_prints_nothing(self, form, capsys, monkeypatch):
        config = RaceConfig(x0=F(1), sa=F(1), st=F(1))
        events = cli.race.step_sequence(config, 5)
        events[3] = dataclasses.replace(events[3], x=events[3].x + 1)
        monkeypatch.setattr(cli.race, "step_sequence", lambda config, count: events)
        argv = ["steps", "--x0", "1", "--sa", "1", "--st", "1", "--n", "5", "--format", form]
        code, out, err = run_main(argv, capsys)
        assert code == 4
        assert out == ""
        assert "gap" in err and "step 2" in err


class TestFlags:
    def test_digits_zero(self, capsys):
        code, out, _ = run_main(
            ["catchup", "--x0", "1", "--sa", "3", "--st", "1", "--digits", "0"], capsys
        )
        assert code == 0
        assert out == "t_inf = 1/2 (0)\nx_inf = 3/2 (2)\n"

    # Every command with --digits refuses a negative value before any work,
    # also where no decimal would be printed (steps table/csv, process with
    # ratio >= 1).
    @pytest.mark.parametrize(
        "argv",
        [
            ["catchup", "--x0", "1", "--sa", "3", "--st", "1"],
            ["steps", "--x0", "1", "--sa", "3", "--st", "1", "--n", "3", "--format", "table"],
            ["steps", "--x0", "1", "--sa", "3", "--st", "1", "--n", "3", "--format", "csv"],
            ["steps", "--x0", "1", "--sa", "3", "--st", "1", "--n", "3", "--format", "json"],
            ["within", "--x0", "1", "--sa", "3", "--st", "1", "--eps", "1/10"],
            ["process", "--first", "1", "--ratio", "1/2", "--k", "3"],
            ["process", "--first", "1", "--ratio", "3/2", "--k", "3"],
            ["dichotomy", "--length", "1", "--speed", "1", "--n", "3"],
            ["bounce", "--first", "1", "--ratio", "1/2"],
        ],
        ids=[
            "catchup",
            "steps-table",
            "steps-csv",
            "steps-json",
            "within",
            "process-convergent",
            "process-divergent",
            "dichotomy",
            "bounce",
        ],
    )
    def test_negative_digits_rejected(self, argv, capsys):
        code, out, err = run_main([*argv, "--digits", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --digits must be at least 0\n"

    def test_decimal_inputs_parse_exactly(self, capsys):
        code, out, _ = run_main(["catchup", "--x0", "1", "--sa", "2.5", "--st", "0.5"], capsys)
        assert code == 0
        # r = 1/5, t_inf = (2/5)/(4/5) = 1/2, x_inf = 1/(4/5) = 5/4
        assert out == "t_inf = 1/2 (0.500000)\nx_inf = 5/4 (1.250000)\n"

    def test_steps_table_format_is_default(self, capsys):
        table = run_main(["steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "2"], capsys)[1]
        explicit = run_main(
            ["steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "2", "--format", "table"],
            capsys,
        )[1]
        assert table == explicit

    def test_floaterr_rejects_non_csv_format(self):
        proc = run_cli(("floaterr", "--x0", "1", "--sa", "2", "--st", "1", "--nmax", "2", "--format", "json"))
        assert proc.returncode == 2
