"""Geometric event processes: the chase generalized, plus two classic kin.

A geometric event process fires event k at time

    first_interval * (1 + ratio + ... + ratio^k),

so consecutive inter-event intervals shrink (or grow) by a constant
ratio. For ratio < 1 the event times accumulate at a finite instant,
first_interval/(1 - ratio): infinitely many events inside a finite time
interval. The chase race, the half-the-remaining-distance walk, and the
bouncing ball whose flight times shrink geometrically are all instances.

Every event time is a partial sum of race.geometric_sums, the shared
recurrence t <- first_interval + ratio*t; race.geometric_sum is its
closed form. This module only supplies each process's first interval
and ratio. The halving walk over length L at speed v is the chase with
head start x0 = L/2, pursuer speed v and leader speed v/2 (r = 1/2), so
its step events come from race.step_sequence and its event process from
race_as_process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergenceError
from .race import (
    MAX_STEPS,
    RaceConfig,
    StepEvent,
    convergent,
    exact_fields,
    geometric_sum,
    geometric_sums,
    step_sequence,
)

__all__ = [
    "GeometricEventProcess",
    "DichotomyConfig",
    "BounceConfig",
    "event_time",
    "event_times",
    "accumulation_point",
    "race_as_process",
    "dichotomy_process",
    "dichotomy_sequence",
    "bounce_process",
]


@dataclass(frozen=True)
class GeometricEventProcess:
    """Event intervals first_interval, first_interval*ratio, ..."""

    first_interval: Fraction
    ratio: Fraction

    def __post_init__(self):
        exact_fields(self, "first_interval", "ratio")
        if self.first_interval <= 0:
            raise ValueError("first_interval must be > 0")
        if self.ratio < 0:
            raise ValueError("ratio must be >= 0")


@dataclass(frozen=True)
class DichotomyConfig:
    """A runner on a track of the given length, forever covering half of
    what remains."""

    length: Fraction
    speed: Fraction

    def __post_init__(self):
        exact_fields(self, "length", "speed")
        if self.length <= 0:
            raise ValueError("length must be > 0")
        if self.speed <= 0:
            raise ValueError("speed must be > 0")


@dataclass(frozen=True)
class BounceConfig:
    """A ball whose successive flight times shrink by a constant ratio.

    Parameterized directly in the time domain: the physical form (drop
    height, restitution c, gravity) needs square roots, which leave exact
    rational arithmetic. For a coefficient of restitution c, successive
    flight times scale by c, so time_ratio = c.
    """

    first_flight: Fraction
    time_ratio: Fraction

    def __post_init__(self):
        exact_fields(self, "first_flight", "time_ratio")
        if self.first_flight <= 0:
            raise ValueError("first_flight must be > 0")
        if not 0 <= self.time_ratio < 1:
            raise ValueError("time_ratio must satisfy 0 <= ratio < 1")


def event_time(process: GeometricEventProcess, k: int) -> Fraction:
    """Closed-form time of event k: first_interval*(1 - ratio^(k+1))/(1 - ratio)."""
    return geometric_sum(process.first_interval, process.ratio, k)


def event_times(process: GeometricEventProcess, count: int) -> list[Fraction]:
    """Times of events 0..count-1 by the shared recurrence t <- first + ratio*t.

    Partial sums are well defined whether or not the process converges,
    so unlike event_time this also covers ratio = 1 (an arithmetic
    progression of event times). A count above MAX_STEPS + 1 (last index
    MAX_STEPS, as for process --k) raises ValueError.
    """
    if count > MAX_STEPS + 1:
        raise ValueError(f"count {count} exceeds the cap of {MAX_STEPS + 1} events")
    return list(geometric_sums(process.first_interval, process.ratio, count))


def accumulation_point(process: GeometricEventProcess) -> Fraction:
    """The finite instant first_interval/(1 - ratio) the event times crowd
    against; requires ratio < 1."""
    if process.ratio >= 1:
        raise DivergenceError("no accumulation point: ratio >= 1")
    return process.first_interval / (1 - process.ratio)


def race_as_process(config: RaceConfig) -> GeometricEventProcess:
    """The chase's step times as an event process.

    The inter-step intervals are t_0 = x0/sa, then shrink by r per step,
    so the accumulation point of the result is exactly the catch-up time.
    Requires ratio < 1 (see race.convergent).
    """
    return GeometricEventProcess(
        first_interval=config.x0 / config.sa, ratio=convergent(config.ratio)
    )


def _dichotomy_chase(config: DichotomyConfig) -> RaceConfig:
    """The chase the halving walk is: x0 = length/2, sa = speed, st = speed/2."""
    return RaceConfig(config.length / 2, config.speed, config.speed / 2)


def dichotomy_process(config: DichotomyConfig) -> GeometricEventProcess:
    """The halving walk as an event process: first half takes length/(2*speed),
    each further half takes half as long again."""
    return race_as_process(_dichotomy_chase(config))


def dichotomy_sequence(config: DichotomyConfig, count: int) -> list[StepEvent]:
    """Events 0..count-1 of the halving walk, count <= race.MAX_STEPS.

    Event n is the runner reaching length*(1 - (1/2)^(n+1)) at time
    x/speed, strictly short of the full length.
    """
    return step_sequence(_dichotomy_chase(config), count)


def bounce_process(config: BounceConfig) -> GeometricEventProcess:
    """Flight times as an event process; its accumulation point is the
    instant the ball comes to rest after infinitely many bounces."""
    return GeometricEventProcess(
        first_interval=config.first_flight, ratio=config.time_ratio
    )
