"""The chase model: a fast runner starts behind a slow one and pursues it.

Each step event marks the pursuer reaching the leader's previous
position. Step times and positions are finite geometric partial sums
with ratio r = st/sa:

    t_n = (x0/sa) * (1 - r^(n+1)) / (1 - r)
    x_n = x0 * (1 - r^(n+1)) / (1 - r)

For r < 1 these converge: the pursuer draws level at t_inf =
(x0/sa)/(1 - r), x_inf = x0/(1 - r), after infinitely many step events
but finite time. Everything here is exact rational arithmetic.

The package's one geometric-series engine lives here too: geometric_sums
(the partial sums by recurrence) and geometric_sum (their closed form).
The chase, the event processes and the float audit's exact oracle adapt
it by supplying a first term and a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, inf, log, log1p
from typing import Callable, Iterator, NamedTuple

from .errors import DegenerateRatioError, DivergenceError

__all__ = [
    "MAX_STEPS",
    "RaceConfig",
    "StepEvent",
    "CatchUp",
    "Positions",
    "geometric_sums",
    "geometric_sum",
    "step_sequence",
    "t_n_closed",
    "x_n_closed",
    "check_speed_identities",
    "verify_speed_identities",
    "catch_up",
    "position_at",
    "gap_at_step",
    "steps_to_within",
]

# Digit counts of the exact step values grow linearly with the index, so a
# hard cap keeps memory bounded and predictable.
MAX_STEPS = 10_000


def as_exact(value, name: str = "value") -> Fraction:
    """Coerce ints/Fractions to Fraction; floats are refused.

    A float would smuggle its binary rounding into the exact model, so the
    caller must convert deliberately (floats belong in zenoseq.floatsum).
    """
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational, not a float")
    return Fraction(value)


@dataclass(frozen=True)
class RaceConfig:
    """Head start x0 of the leader plus the two constant speeds.

    sa is the pursuer's speed, st the leader's. r = st/sa >= 1 (pursuer
    not faster) is accepted here; only limit-taking operations reject it,
    since the step recurrence itself is well defined for any ratio.
    """

    x0: Fraction
    sa: Fraction
    st: Fraction

    def __post_init__(self):
        for name in ("x0", "sa", "st"):
            object.__setattr__(self, name, as_exact(getattr(self, name), name))
        if self.x0 <= 0:
            raise ValueError("head start x0 must be > 0")
        if self.sa <= 0:
            raise ValueError("pursuer speed sa must be > 0")
        if self.st < 0:
            raise ValueError("leader speed st must be >= 0")

    @property
    def ratio(self) -> Fraction:
        """Speed ratio r = st/sa, exact."""
        return self.st / self.sa


@dataclass(frozen=True)
class StepEvent:
    """Step n of the chase: the pursuer is at x at time t, with t = x/sa."""

    n: int
    t: Fraction
    x: Fraction


@dataclass(frozen=True)
class CatchUp:
    """The finite limit of the step events: both runners at x_inf at t_inf."""

    t_inf: Fraction
    x_inf: Fraction


class Positions(NamedTuple):
    xa: Fraction
    xt: Fraction


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("index must be >= 0")


def geometric_sums(first: Fraction, ratio: Fraction, count: int) -> Iterator[Fraction]:
    """Partial sums first*(1 + ratio + ... + ratio^k) for k = 0..count-1.

    Each sum comes from the last by s <- first + ratio*s, so a step only
    meets the small inputs; adding the terms ratio^k one by one would take
    a gcd of two growing integers at every step. Partial sums exist for
    any ratio, 1 and above included.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    s = first
    yield s
    for _ in range(count - 1):
        s = first + ratio * s
        yield s


def geometric_sum(first: Fraction, ratio: Fraction, k: int) -> Fraction:
    """Closed form first*(1 - ratio^(k+1))/(1 - ratio) of partial sum k."""
    _check_index(k)
    if ratio == 1:
        raise DegenerateRatioError("closed form undefined at ratio 1; use the partial sums")
    return first * ((1 - ratio ** (k + 1)) / (1 - ratio))


def step_sequence(config: RaceConfig, count: int) -> list[StepEvent]:
    """Events 0..count-1 of the chase recurrence.

    Event 0 is the pursuer reaching the head-start mark (t0 = x0/sa);
    afterwards x_{n+1} = x0 + st*t_n = x0 + r*x_n and t_{n+1} = x_{n+1}/sa,
    so the positions are the geometric partial sums with first term x0.
    """
    if count > MAX_STEPS:
        raise ValueError(f"count {count} exceeds the cap of {MAX_STEPS} steps")
    sa = config.sa
    return [
        StepEvent(n, x / sa, x)
        for n, x in enumerate(geometric_sums(config.x0, config.ratio, count))
    ]


def t_n_closed(config: RaceConfig, n: int) -> Fraction:
    """Closed-form step time (x0/sa)*(1 - r^(n+1))/(1 - r)."""
    return geometric_sum(config.x0 / config.sa, config.ratio, n)


def x_n_closed(config: RaceConfig, n: int) -> Fraction:
    """Closed-form step position x0*(1 - r^(n+1))/(1 - r) = sa * t_n."""
    return geometric_sum(config.x0, config.ratio, n)


def check_speed_identities(config: RaceConfig, events: list[StepEvent]) -> bool:
    """True iff the events reproduce both speeds exactly.

    The pursuer's speed must equal x_n/t_n at every event; the leader's
    speed (when nonzero) must equal (x_{n+1} - x0)/t_n, its displacement
    per elapsed step time.
    """
    for ev in events:
        if ev.x != config.sa * ev.t:
            return False
    if config.st > 0:
        for cur, nxt in zip(events, events[1:]):
            if nxt.x - config.x0 != config.st * cur.t:
                return False
    return True


def verify_speed_identities(config: RaceConfig, count: int) -> bool:
    """Generate `count` events and check the speed identities over them."""
    if count < 2:
        raise ValueError("count must be >= 2")
    return check_speed_identities(config, step_sequence(config, count))


def catch_up(config: RaceConfig) -> CatchUp:
    """Limit of the step events: requires ratio < 1.

    A pursuer that is not strictly faster never closes the gap, so the
    series diverges and this raises DivergenceError.
    """
    r = config.ratio
    if r >= 1:
        raise DivergenceError("no catch-up: ratio >= 1")
    return CatchUp(t_inf=(config.x0 / config.sa) / (1 - r), x_inf=config.x0 / (1 - r))


def position_at(config: RaceConfig, t) -> Positions:
    """Both runners' positions at time t >= 0: (sa*t, x0 + st*t)."""
    t = as_exact(t, "t")
    if t < 0:
        raise ValueError("time must be >= 0")
    return Positions(xa=config.sa * t, xt=config.x0 + config.st * t)


def gap_at_step(config: RaceConfig, n: int) -> Fraction:
    """Leader's lead x0*r^(n+1) at the instant the pursuer reaches x_n."""
    _check_index(n)
    r = config.ratio
    if r >= 1:
        raise DivergenceError("no catch-up: ratio >= 1")
    return config.x0 * r ** (n + 1)


def _log_ratio(num: int, den: int) -> float:
    """log(num/den) for positive integers of any size, never via float(num/den).

    Near 1 it takes log1p of the exact difference, so a ratio such as
    999999/1000000 keeps its digits; elsewhere no cancellation can occur.
    """
    if den <= 2 * num and num <= 2 * den:
        return log1p((num - den) / den)
    return log(num) - log(den)


def _least_true(pred: Callable[[int], bool], start: int) -> int:
    """Least m >= 1 with pred(m), for a pred that is false below it and true from it on.

    Unbounded search (Bentley & Yao, 1976): gallop from `start` by doubling
    steps until the answer is bracketed, then bisect. That takes
    O(log |answer - start|) calls of pred, and none of them is past
    max(start, 2*answer - start).
    """
    if pred(start):
        lo, hi, step = start - 1, start, 1
        while lo > 0 and pred(lo):
            hi, step = lo, 2 * step
            lo = max(0, hi - step)
    else:
        lo, hi, step = start, start + 1, 1
        while not pred(hi):
            lo, step = hi, 2 * step
            hi = lo + step
    # pred(hi) holds; pred(lo) does not, or lo == 0.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def steps_to_within(config: RaceConfig, eps) -> int:
    """Smallest n whose remaining time t_inf - t_n is strictly below eps.

    The residual after step n is (x0/sa)*r^(n+1)/(1 - r). With r = p/q and
    eps*(1 - r)/(x0/sa) = a/b, the answer is m - 1 for the least m >= 1 with
    p^m * b < a * q^m. The logarithms of those integers estimate m; exact
    integer comparisons then correct the estimate by galloping and
    bisection, so no float of eps can underflow and a tie residual(n) == eps
    steps past n. Cost: O(log n) pows of integers of about n*log2(q) bits,
    usually two or three; the largest integer built is about the size of
    r^(n+1) itself.
    """
    eps = as_exact(eps, "eps")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if config.st == 0:
        raise ValueError("stationary leader: the residual is 0 from step 0")
    r = config.ratio
    if r >= 1:
        raise DivergenceError("no catch-up: ratio >= 1")
    p, q = r.numerator, r.denominator
    a, b = (eps * (1 - r) * config.sa / config.x0).as_integer_ratio()
    rate = _log_ratio(q, p)
    estimate = _log_ratio(b, a) / rate if rate > 0 else 0.0
    start = floor(estimate) + 1 if 0 < estimate < inf else 1
    return _least_true(lambda m: p**m * b < a * q**m, start) - 1
