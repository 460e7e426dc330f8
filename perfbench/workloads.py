"""The benchmark's workloads: fixed operation lists whose numbers come from a seed.

Each workload is a closed loop with one client: one operation at a time,
the next only after the previous one ended. A seed changes the numbers in
the inputs (and the small table sizes of ``cli-small``) but never the
operations or the large sizes, so every seed asks for about the same work.

- ``cli-tables``: ``steps`` (csv, table, json), ``dichotomy`` and
  ``floaterr`` at the documented cap n = 10 000, each a fresh
  ``python -m zenoseq`` process. The ratio is always 1/2: at n = 10 000
  the dyadic family is the only one whose numbers stay under CPython's
  4 300-digit int-to-str limit, which the program does not budget for.
- ``lib-depth``: library calls in one fresh interpreter per pass, no
  rendering. Big-integer arithmetic in ``race``, ``processes`` and
  ``floatsum`` does the work.
- ``cli-small``: many short commands on small inputs, where interpreter
  start-up, import and argument parsing dominate.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

CAP = 10_000
SMALL_ROUNDS = 3


@dataclass(frozen=True)
class CliOp:
    """One ``zenoseq`` command line."""

    argv: tuple[str, ...]


@dataclass(frozen=True)
class LibOp:
    """One library call: `kind` names the function, `params` its exact inputs."""

    kind: str
    params: dict = field(hash=False)


def _race_argv(x0: Fraction, sa: Fraction, st: Fraction) -> tuple[str, ...]:
    return ("--x0", str(x0), "--sa", str(sa), "--st", str(st))


# Seeded numbers are primes from 7 up, other than 37, so they share no factor
# with the ratios 1/2, 9/10 and 999/1000 = 27*37/1000, and the two parts of a
# fraction differ. Fractions built from them reduce the same way for every
# seed, which keeps the cost of a pass the same from seed to seed.
_PRIMES = [p for p in range(7, 1000) if p != 37 and all(p % d for d in range(2, int(p**0.5) + 1))]


def _prime(rng: random.Random, top: int, avoid=()) -> int:
    return rng.choice([p for p in _PRIMES if p <= top and p not in avoid])


def _rational(rng: random.Random, top: int, bottom: int) -> Fraction:
    num = _prime(rng, top)
    return Fraction(num, _prime(rng, bottom, avoid=(num,)))


def cli_tables(seed: int, n: int = CAP) -> list[CliOp]:
    rng = random.Random(f"cli-tables/{seed}")
    leader = _prime(rng, 97)
    race = _race_argv(_rational(rng, 997, 97), Fraction(2 * leader), Fraction(leader))
    digits = str(rng.randint(6, 12))
    length, speed = _rational(rng, 997, 97), _rational(rng, 97, 97)
    count = ("--n", str(n))
    return [
        CliOp(("steps", *race, *count, "--format", "csv")),
        CliOp(("steps", *race, *count, "--format", "table")),
        CliOp(("steps", *race, *count, "--format", "json", "--digits", digits)),
        CliOp(("dichotomy", "--length", str(length), "--speed", str(speed), *count, "--digits", digits)),
        CliOp(("floaterr", *race, "--nmax", str(n))),
    ]


def _small(rng: random.Random, top: int, bottom: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, bottom))


def _small_race(rng: random.Random) -> tuple[str, ...]:
    """A chase with ratio p/q < 1 and small rational speeds."""
    q = rng.randint(2, 12)
    p = rng.randint(1, q - 1)
    scale = _small(rng, 9, 5)
    return _race_argv(_small(rng, 99, 9), q * scale, p * scale)


def cli_small(seed: int, rounds: int = SMALL_ROUNDS) -> list[CliOp]:
    rng = random.Random(f"cli-small/{seed}")
    ops = []
    for _ in range(rounds):
        digits = ("--digits", str(rng.randint(0, 30)))
        q = rng.randint(2, 12)
        ops += [
            CliOp(("catchup", *_small_race(rng), *digits)),
            CliOp(("catchup", *_small_race(rng), "--json", *digits)),
            CliOp(("bounce", "--first", str(_small(rng, 99, 9)), "--ratio", str(Fraction(rng.randint(0, q - 1), q)), *digits)),
            CliOp(("within", *_small_race(rng), "--eps", f"1/{10 ** rng.randint(1, 6)}", *digits)),
            CliOp(("process", "--first", str(_small(rng, 99, 9)), "--ratio", str(Fraction(rng.randint(1, q - 1), q)), "--k", str(rng.randint(0, 50)), *digits)),
            CliOp(("steps", *_small_race(rng), "--n", str(rng.randint(1, 50)), "--format", "csv")),
            CliOp(("steps", *_small_race(rng), "--n", str(rng.randint(1, 50)))),
            CliOp(("steps", *_small_race(rng), "--n", str(rng.randint(1, 50)), "--format", "json", *digits)),
            CliOp(("dichotomy", "--length", str(_small(rng, 99, 9)), "--speed", str(_small(rng, 99, 9)), "--n", str(rng.randint(1, 50)), *digits)),
            CliOp(("floaterr", *_small_race(rng), "--nmax", str(rng.randint(1, 50)))),
        ]
    return ops


def threshold_for(x0: Fraction, sa: Fraction, ratio: Fraction, n: int) -> Fraction:
    """A short decimal eps whose first step with residual below it is exactly n.

    The residual after step k is (x0/sa) r^(k+1) / (1 - r); eps is that
    curve at k = n - 1/2 to twelve significant digits, then confirmed in
    exact arithmetic.
    """
    log10 = math.log10(x0 / sa / (1 - ratio)) + (n + 0.5) * math.log10(ratio)
    exponent = math.floor(log10) - 11
    mantissa = round(10 ** (log10 - exponent))
    eps = Fraction(mantissa) * Fraction(10) ** exponent
    tail = x0 / sa / (1 - ratio)
    if not tail * ratio ** (n + 1) < eps <= tail * ratio**n:
        raise AssertionError(f"threshold for step {n} missed")
    return eps


def lib_depth(seed: int, scale: int = 1) -> list[LibOp]:
    """`scale` divides every size; the warm-up pass uses a large one."""
    rng = random.Random(f"lib-depth/{seed}")
    deep = {"x0": _rational(rng, 997, 97), "sa": Fraction(1000), "st": Fraction(999)}
    ratio = deep["st"] / deep["sa"]
    tenth = {"x0": _rational(rng, 997, 97), "sa": Fraction(10), "st": Fraction(9)}
    ops = [
        LibOp("steps_to_within", {**deep, "eps": threshold_for(deep["x0"], deep["sa"], ratio, n // scale)})
        for n in (10_000, 20_000)
    ]
    return ops + [
        LibOp("step_sequence", {**deep, "count": CAP // scale}),
        LibOp("event_times", {"first": _rational(rng, 997, 97), "ratio": Fraction(9, 10), "count": 3000 // scale}),
        LibOp("dichotomy_sequence", {"length": _rational(rng, 997, 97), "speed": _rational(rng, 97, 97), "count": CAP // scale}),
        LibOp("error_sweep", {**tenth, "n_max": 2500 // scale}),
    ]


@dataclass(frozen=True)
class Workload:
    """`ops(seed)` is one pass; `warmup(seed)` the same calls at small sizes."""

    name: str
    cli: bool
    ops: Callable[[int], list]
    warmup: Callable[[int], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-tables", True, cli_tables, lambda seed: cli_tables(seed, n=10)),
        Workload("lib-depth", False, lib_depth, lambda seed: lib_depth(seed, scale=500)),
        Workload("cli-small", True, cli_small, lambda seed: cli_small(seed, rounds=1)),
    )
}
