"""Output checks for the benchmark, computed apart from the program.

Every expected value comes from a closed form evaluated here with exact
integer powers, never from zenoseq and never from stored output. With a
ratio r = p/q in lowest terms (p != q) the geometric partial sum is

    1 + r + ... + r^n = S_n / q^n,   S_n = (q^(n+1) - p^(n+1)) / (q - p),

and S_n is prime to q^n, so any value a/b * S_n / q^n reduces with two
gcds against the small integers a and b. That keeps a 10 000-row check
linear in the digits instead of quadratic.

CLI checks build the expected digits in :mod:`decimal` integers (exact
context, any rounding traps), whose conversion to text is linear; the
program renders with ``int.__str__``. Library checks compare numerators
and denominators as Python integers. Floats are recomputed with the
benchmark's own binary64 loop and must match bit for bit.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
from fractions import Fraction

EXACT = decimal.Context(
    prec=1_000_000,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact,
        decimal.Rounded,
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
    ],
)
DEFAULT_DIGITS = 6


class CheckError(Exception):
    """An output differs from what the closed forms say it must be."""


# --- exact values ---------------------------------------------------------


def power_sums(ratio: Fraction, count: int, one=1):
    """Yield (S_n, q^n, p^(n+1), q^(n+1)) for n = 0..count-1.

    `one` picks the integer type: 1 for Python ints, Decimal(1) for
    decimal integers (use those inside ``decimal.localcontext(EXACT)``).
    """
    p, q = ratio.numerator, ratio.denominator
    if p == q:
        raise ValueError("closed form needs a ratio other than 1")
    p_pow, q_pow = one, one
    for _ in range(count):
        p_next, q_next = p_pow * p, q_pow * q
        yield (q_next - p_next) // (q - p), q_pow, p_next, q_next
        p_pow, q_pow = p_next, q_next


def scaled(a: Fraction, top, bottom):
    """Lowest-terms (num, den) of a * top/bottom, where gcd(top, bottom) = 1."""
    g1 = math.gcd(a.numerator, int(bottom % a.numerator))
    g2 = math.gcd(a.denominator, int(top % a.denominator))
    return (a.numerator // g1) * (top // g2), (a.denominator // g2) * (bottom // g1)


def fmt(value) -> str:
    """Text form p/q of a (num, den) pair or Fraction; bare p when q = 1."""
    num, den = (value.numerator, value.denominator) if isinstance(value, Fraction) else value
    return f"{num}/{den}" if den != 1 else f"{num}"


def decimal_text(value, digits: int) -> str:
    """`value` rounded half to even to `digits` fractional digits."""
    num, den = (value.numerator, value.denominator) if isinstance(value, Fraction) else value
    with decimal.localcontext(EXACT):
        num, den = decimal.Decimal(num), decimal.Decimal(den)
        units, rest = divmod(abs(num) * 10**digits, den)
        if rest * 2 > den or (rest * 2 == den and units % 2 == 1):
            units += 1
        text = str(units).rjust(digits + 1, "0")
    if digits:
        text = text[:-digits] + "." + text[-digits:]
    return "-" + text if num < 0 and units else text


def scalar(label: str, value, digits: int) -> str:
    return f"{label} = {fmt(value)} ({decimal_text(value, digits)})"


def residual(x0: Fraction, sa: Fraction, ratio: Fraction, n: int) -> Fraction:
    """Time left after step n: (x0/sa) * r^(n+1) / (1 - r)."""
    return x0 / sa * ratio ** (n + 1) / (1 - ratio)


def float_sums(x0: Fraction, sa: Fraction, ratio: Fraction, count: int):
    """Yield (naive, compensated) binary64 sums of the first 1..count terms.

    Inputs are rounded to nearest like any float program would round them;
    terms come from repeated multiplication by the rounded ratio.
    """
    a = x0 / sa
    term = a.numerator / a.denominator
    step = ratio.numerator / ratio.denominator
    plain = kahan = low = 0.0
    for _ in range(count):
        plain += term
        y = term - low
        total = kahan + y
        low = (total - kahan) - y
        kahan = total
        yield plain, kahan
        term *= step


def float_errors(value: float, num: int, den: int) -> tuple[float, float]:
    """(|value - num/den|, that over num/den), each rounded once to binary64."""
    m, d = value.as_integer_ratio()
    diff = abs(m * den - num * d)
    return diff / (d * den), diff / (d * num)


# --- text helpers -----------------------------------------------------------


def _lines(text: str):
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    start, end = 0, len(text)
    while start < end:
        stop = text.index("\n", start)
        yield text[start:stop]
        start = stop + 1


def _short(line) -> str:
    return repr(line) if line is None or len(line) < 90 else repr(line[:40] + "..." + line[-40:])


def _expect_lines(text: str, expected) -> None:
    _compare(_lines(text), expected)


def _compare(actual, expected) -> None:
    for number, want in enumerate(expected, 1):
        got = next(actual, None)
        if got != want:
            raise CheckError(f"line {number}: expected {_short(want)}, got {_short(got)}")
    extra = next(actual, None)
    if extra is not None:
        raise CheckError(f"unexpected extra line {_short(extra)}")


def _csv(header, rows):
    yield ",".join(header)
    for row in rows:
        yield ",".join(row)


def _check_table(text: str, header, rows, tail=()) -> None:
    """Columns padded to their widest cell, two spaces apart, right-stripped.

    The widths are read from the header line and confirmed against the
    widest expected cell at the end, so the rows can be checked as they
    are generated.
    """
    actual = _lines(text)
    first = next(actual, "")
    starts = [0]
    try:
        for before, name in zip(header, header[1:]):
            starts.append(first.index(name, starts[-1] + len(before) + 2))
    except ValueError:
        raise CheckError(f"bad table header {_short(first)}") from None
    widths = [b - a - 2 for a, b in zip(starts, starts[1:])] + [0]
    widest = [len(name) for name in header]

    def layout(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    def expected():
        yield layout(header)
        for row in rows:
            for i, cell in enumerate(row):
                widest[i] = max(widest[i], len(cell))
            yield layout(row)
        yield from tail

    _compare(itertools.chain([first], actual), expected())
    if widths[:-1] != widest[:-1]:
        raise CheckError(f"column widths {widths[:-1]}, widest cells {widest[:-1]}")


def _json(text: str):
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _expect_equal(label: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{label}: expected {_short(str(want))}, got {_short(str(got))}")


def _envelope(doc, command: str, inputs: dict) -> dict:
    if not isinstance(doc, dict) or set(doc) != {"schema_version", "command", "inputs", "results"}:
        raise CheckError("JSON envelope keys are wrong")
    _expect_equal("schema_version", doc["schema_version"], 1)
    _expect_equal("command", doc["command"], command)
    _expect_equal("inputs", doc["inputs"], inputs)
    return doc["results"]


# --- CLI commands -----------------------------------------------------------


def options(argv) -> dict[str, str | bool]:
    """The --name value pairs (and bare --flags) of a command line."""
    opts, i = {}, 0
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[name], i = argv[i + 1], i + 2
        else:
            opts[name], i = True, i + 1
    return opts


def _race(opts):
    x0, sa, st = (Fraction(opts[k]) for k in ("x0", "sa", "st"))
    return x0, sa, st, st / sa


def _digits(opts) -> int:
    return int(opts.get("digits", DEFAULT_DIGITS))


def _race_rows(x0, sa, ratio, count, one):
    """(n, t_n, x_n, gap_n) for n < count as lowest-terms pairs."""
    a = x0 / sa
    for n, (s, qn, p1, q1) in enumerate(power_sums(ratio, count, one)):
        yield n, scaled(a, s, qn), scaled(x0, s, qn), scaled(x0, p1, q1)


def check_steps(opts, text: str) -> None:
    x0, sa, st, ratio = _race(opts)
    count, digits, form = int(opts["n"]), _digits(opts), opts.get("format", "table")
    header = ["n", "t_n", "x_n", "gap"]
    with decimal.localcontext(EXACT):
        rows = _race_rows(x0, sa, ratio, count, decimal.Decimal(1))
        if form == "csv":
            _expect_lines(text, _csv(header, ([str(n), fmt(t), fmt(x), fmt(g)] for n, t, x, g in rows)))
        elif form == "table":
            _check_table(text, header, ([str(n), fmt(t), fmt(x), fmt(g)] for n, t, x, g in rows))
        else:
            results = _envelope(
                _json(text), "steps", {"x0": fmt(x0), "sa": fmt(sa), "st": fmt(st), "n": count}
            )
            steps = results.get("steps") if isinstance(results, dict) else None
            if not isinstance(steps, list) or set(results) != {"steps"}:
                raise CheckError("JSON results hold no step list")
            _expect_equal("number of steps", len(steps), count)
            for got, (n, t, x, g) in zip(steps, rows):
                want = {
                    "n": n,
                    **{k: {"exact": fmt(v), "decimal": decimal_text(v, digits)} for k, v in (("t", t), ("x", x), ("gap", g))},
                }
                _expect_equal(f"step {n}", got, want)


def check_dichotomy(opts, text: str) -> None:
    length, speed = Fraction(opts["length"]), Fraction(opts["speed"])
    count, digits = int(opts["n"]), _digits(opts)
    half = length / 2
    with decimal.localcontext(EXACT):
        sums = power_sums(Fraction(1, 2), count, decimal.Decimal(1))
        rows = ([str(n), fmt(scaled(half / speed, s, qn)), fmt(scaled(half, s, qn))] for n, (s, qn, _, _) in enumerate(sums))
        _check_table(text, ["n", "t_n", "x_n"], rows, [scalar("total time", length / speed, digits)])


def check_process(opts, text: str) -> None:
    first, ratio = Fraction(opts["first"]), Fraction(opts["ratio"])
    count, digits = int(opts["k"]) + 1, _digits(opts)
    if not 0 < ratio < 1:
        raise ValueError("process checks cover 0 < ratio < 1")
    with decimal.localcontext(EXACT):
        sums = power_sums(ratio, count, decimal.Decimal(1))
        rows = ([str(k), fmt(scaled(first, s, qn))] for k, (s, qn, _, _) in enumerate(sums))
        _check_table(text, ["k", "t_k"], rows, [scalar("accumulation point", first / (1 - ratio), digits)])


def check_floaterr(opts, text: str) -> None:
    x0, sa, _, ratio = _race(opts)
    count = int(opts["nmax"]) + 1
    a = x0 / sa

    def rows():
        with decimal.localcontext(EXACT):
            exact_text = (fmt(scaled(a, s, qn)) for s, qn, _, _ in power_sums(ratio, count, decimal.Decimal(1)))
            exact = (scaled(a, s, qn) for s, qn, _, _ in power_sums(ratio, count))
            for n, floats, shown, (num, den) in zip(range(count), float_sums(x0, sa, ratio, count), exact_text, exact):
                for method, value in zip(("naive", "compensated"), floats):
                    abs_err, rel_err = float_errors(value, num, den)
                    yield [str(n), method, repr(value), shown, repr(abs_err), repr(rel_err)]

    _expect_lines(text, _csv(["n", "method", "value", "exact", "abs_error", "rel_error"], rows()))


def check_catchup(opts, text: str) -> None:
    x0, sa, st, _ = _race(opts)
    digits = _digits(opts)
    t_inf, x_inf = x0 / (sa - st), sa * x0 / (sa - st)
    if opts.get("json"):
        results = _envelope(_json(text), "catchup", {"x0": fmt(x0), "sa": fmt(sa), "st": fmt(st)})
        want = {k: {"exact": fmt(v), "decimal": decimal_text(v, digits)} for k, v in (("t_inf", t_inf), ("x_inf", x_inf))}
        _expect_equal("results", results, want)
    else:
        _expect_lines(text, [scalar("t_inf", t_inf, digits), scalar("x_inf", x_inf, digits)])


def check_bounce(opts, text: str) -> None:
    first, ratio = Fraction(opts["first"]), Fraction(opts["ratio"])
    _expect_lines(text, [scalar("rest time", first / (1 - ratio), _digits(opts))])


def check_within(opts, text: str) -> None:
    x0, sa, _, ratio = _race(opts)
    eps = Fraction(opts["eps"])
    head = next(_lines(text), "")
    if not head.startswith("n = ") or not head[4:].isdigit():
        raise CheckError(f"first line {_short(head)} names no step")
    n = int(head[4:])
    check_minimal_step(x0, sa, ratio, eps, n)
    _expect_lines(text, [head, scalar("residual", residual(x0, sa, ratio, n), _digits(opts))])


CLI_CHECKS = {
    "steps": check_steps,
    "dichotomy": check_dichotomy,
    "process": check_process,
    "floaterr": check_floaterr,
    "catchup": check_catchup,
    "bounce": check_bounce,
    "within": check_within,
}


def check_cli(argv, code: int, stdout: str, stderr: str) -> None:
    """Check one `zenoseq` run: exit 0, empty stderr, stdout as computed here."""
    if code != 0:
        raise CheckError(f"exit code {code}")
    if stderr:
        raise CheckError(f"stderr not empty: {_short(stderr)}")
    CLI_CHECKS[argv[0]](options(argv[1:]), stdout)


# --- library calls ----------------------------------------------------------


def check_minimal_step(x0, sa, ratio, eps, n: int) -> None:
    """residual(n) < eps <= residual(n - 1): n is the first step under eps.

    Steps start at 0, so n = 0 needs only residual(0) < eps.
    """
    if n < 0 or not residual(x0, sa, ratio, n) < eps or (n > 0 and residual(x0, sa, ratio, n - 1) < eps):
        raise CheckError(f"step {n} is not the first whose residual is below {eps}")


def _expect_pair(label: str, got: Fraction, want) -> None:
    if (got.numerator, got.denominator) != want:
        raise CheckError(f"{label} differs from the closed form")


def _expect_events(events, count: int, t_scale: Fraction, x_scale: Fraction, ratio: Fraction) -> None:
    _expect_equal("number of events", len(events), count)
    for n, (ev, (s, qn, _, _)) in enumerate(zip(events, power_sums(ratio, count))):
        _expect_equal("step index", ev.n, n)
        _expect_pair(f"t at step {n}", ev.t, scaled(t_scale, s, qn))
        _expect_pair(f"x at step {n}", ev.x, scaled(x_scale, s, qn))


def _expect_ratio(label: str, got: Fraction, num: int, den: int) -> None:
    if got.numerator * den != num * got.denominator:
        raise CheckError(f"{label} differs from the exact error")


def check_lib(kind: str, params: dict, result) -> None:
    """Check a library call's return value against the closed forms."""
    if kind == "steps_to_within":
        check_minimal_step(params["x0"], params["sa"], params["st"] / params["sa"], params["eps"], result)
    elif kind == "step_sequence":
        x0, sa = params["x0"], params["sa"]
        _expect_events(result, params["count"], x0 / sa, x0, params["st"] / sa)
    elif kind == "dichotomy_sequence":
        half = params["length"] / 2
        _expect_events(result, params["count"], half / params["speed"], half, Fraction(1, 2))
    elif kind == "event_times":
        count = params["count"]
        _expect_equal("number of events", len(result), count)
        for k, (t, (s, qn, _, _)) in enumerate(zip(result, power_sums(params["ratio"], count))):
            _expect_pair(f"event {k}", t, scaled(params["first"], s, qn))
    elif kind == "error_sweep":
        x0, sa, count = params["x0"], params["sa"], params["n_max"] + 1
        ratio = params["st"] / sa
        _expect_equal("number of report pairs", len(result), count)
        sums = zip(result, float_sums(x0, sa, ratio, count), power_sums(ratio, count))
        for n, (pair, floats, (s, qn, _, _)) in enumerate(sums):
            num, den = scaled(x0 / sa, s, qn)
            for report, method, value in zip(pair, ("naive", "compensated"), floats):
                _expect_equal(f"report {n} {method}", (report.n, report.method), (n, method))
                _expect_equal(f"value {n} {method}", report.value.hex(), value.hex())
                _expect_pair(f"exact {n}", report.exact, (num, den))
                m, d = value.as_integer_ratio()
                diff = abs(m * den - num * d)
                _expect_ratio(f"abs_error {n} {method}", report.abs_error, diff, d * den)
                _expect_ratio(f"rel_error {n} {method}", report.rel_error, diff, d * num)
    else:
        raise ValueError(f"unknown library call {kind}")


class Tally:
    """Operations attempted and failed, with why they failed or were wrong.

    A failed operation exited non-zero or raised; a wrong one ran but its
    output failed a check. Only wrong operations make a run incorrect.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def failure(self, what: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{what}: {why}"[:400])

    def cli(self, argv, code: int, stdout: str, stderr: str) -> None:
        if code != 0:
            self.failure(" ".join(argv), f"exit {code}: {stderr.strip()[-200:]}")
            return
        self.attempted += 1
        try:
            check_cli(argv, code, stdout, stderr)
        except CheckError as exc:
            self.wrong.append(f"wrong output of {' '.join(argv)}: {exc}"[:400])

    def lib(self, kind: str, params: dict, result) -> None:
        self.attempted += 1
        try:
            check_lib(kind, params, result)
        except CheckError as exc:
            self.wrong.append(f"wrong result of {kind}: {exc}"[:400])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures, "wrong": self.wrong}

    def add(self, other: dict) -> None:
        """Take in the counts of another process's tally (see as_dict)."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures += other["failures"]
        self.wrong += other["wrong"]
