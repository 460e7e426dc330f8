"""Convergent infinite event sequences, exactly and in binary64.

A fast pursuer chasing a slow leader generates an infinite sequence of
step events whose times form a geometric series; with speed ratio below
one they all fit before a finite catch-up instant. This package computes
those sequences with exact rational arithmetic, generalizes them to any
geometric event process (the halving walk, the bouncing ball), and
audits binary64 float evaluation of the same sums against the exact
oracle. The `zenoseq` command exposes everything on the command line.
"""

from .errors import DegenerateRatioError, DivergenceError
from .floatsum import COMPENSATED, NAIVE, FloatReport, error_sweep, sum_compensated, sum_naive
from .processes import (
    BounceConfig,
    DichotomyConfig,
    GeometricEventProcess,
    accumulation_point,
    bounce_process,
    dichotomy_process,
    dichotomy_sequence,
    event_time,
    event_times,
    race_as_process,
)
from .race import (
    MAX_STEPS,
    CatchUp,
    Positions,
    RaceConfig,
    StepEvent,
    catch_up,
    check_speed_identities,
    gap_at_step,
    position_at,
    step_sequence,
    steps_to_within,
    t_n_closed,
    verify_speed_identities,
    x_n_closed,
)
from .rational import parse, render, to_decimal_string

__version__ = "0.1.0"

__all__ = [
    "BounceConfig",
    "COMPENSATED",
    "CatchUp",
    "DegenerateRatioError",
    "DichotomyConfig",
    "DivergenceError",
    "FloatReport",
    "GeometricEventProcess",
    "MAX_STEPS",
    "NAIVE",
    "Positions",
    "RaceConfig",
    "StepEvent",
    "accumulation_point",
    "bounce_process",
    "catch_up",
    "check_speed_identities",
    "dichotomy_process",
    "dichotomy_sequence",
    "error_sweep",
    "event_time",
    "event_times",
    "gap_at_step",
    "parse",
    "position_at",
    "race_as_process",
    "render",
    "step_sequence",
    "steps_to_within",
    "sum_compensated",
    "sum_naive",
    "t_n_closed",
    "to_decimal_string",
    "verify_speed_identities",
    "x_n_closed",
]
