"""Binary64 evaluation of the chase's step-time series, audited exactly.

The step time t_n is the partial sum of (x0/sa)*r^k for k = 0..n. This
module evaluates it the way a float implementation would: inputs rounded
to binary64, terms generated by iterated multiplication
term_{k+1} = term_k * r, accumulated either naively left to right or
with Kahan compensation. Every finite double is itself a rational, so
each result is converted back exactly and compared against the exact
closed form; the error fields carry no rounding of their own. The input
conversion error is charged to the float side, not the oracle.

CPython floats are strict IEEE-754 binary64 with no fused multiply-add
and no reassociation, so all values here reproduce bit for bit. Every
exact partial sum is at most t_inf, so the inputs convert to finite
doubles whenever t_inf is inside the binary64 range. A t_inf above it
raises ValueError before any summing, and so does a float partial sum
that rounding still carries to infinity.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterator

from .race import MAX_STEPS, RaceConfig, catch_up, geometric_sums, t_n_closed

__all__ = ["NAIVE", "COMPENSATED", "FloatReport", "sum_naive", "sum_compensated", "error_sweep"]

NAIVE = "naive"
COMPENSATED = "compensated"


@dataclass(frozen=True)
class FloatReport:
    """One float evaluation of t_n next to its exact value.

    abs_error is |value - exact| computed in exact rational arithmetic
    after converting the float back to a rational; rel_error divides by
    the exact value (always positive here, since t_n >= x0/sa > 0).
    """

    n: int
    method: str
    value: float
    exact: Fraction
    abs_error: Fraction
    rel_error: Fraction


def _float_sums(config: RaceConfig, n: int) -> Iterator[tuple[int, float, float]]:
    """(k, naive, compensated) float partial sums for k = 0..n, in one pass."""
    if n < 0:
        raise ValueError("last term index must be >= 0")
    if n > MAX_STEPS:
        raise ValueError(f"last term index {n} exceeds the cap of {MAX_STEPS}")
    if catch_up(config).t_inf > sys.float_info.max:
        raise ValueError(f"catch-up time is above the binary64 range (max {sys.float_info.max!r})")
    # float() on a Fraction divides the integer parts, which CPython rounds
    # correctly to nearest/even.
    ratio = float(config.ratio)
    term = float(config.x0 / config.sa)
    naive = comp = carry = 0.0
    for k in range(n + 1):
        naive += term
        y = term - carry
        t = comp + y
        carry = (t - comp) - y  # the low bits the addition just dropped
        comp = t
        if naive == inf or comp == inf:
            raise ValueError(f"float partial sum {k} overflows the binary64 range")
        yield k, naive, comp
        term *= ratio


def _report(n: int, method: str, value: float, exact: Fraction) -> FloatReport:
    # |value/exact - 1| is err/exact (exact > 0), but its gcds pair the
    # double's 53-bit parts with big integers, never two big integers.
    rational = Fraction(value)
    err, rel = abs(rational - exact), abs(rational / exact - 1)
    return FloatReport(
        n=n, method=method, value=value, exact=exact, abs_error=err, rel_error=rel
    )


def sum_naive(config: RaceConfig, n: int) -> FloatReport:
    """Left-to-right float accumulation of the first n+1 terms."""
    _, naive, _ = deque(_float_sums(config, n), maxlen=1).pop()
    return _report(n, NAIVE, naive, t_n_closed(config, n))


def sum_compensated(config: RaceConfig, n: int) -> FloatReport:
    """Kahan-compensated accumulation of the same terms as sum_naive."""
    _, _, comp = deque(_float_sums(config, n), maxlen=1).pop()
    return _report(n, COMPENSATED, comp, t_n_closed(config, n))


def error_sweep(config: RaceConfig, n_max: int) -> list[tuple[FloatReport, FloatReport]]:
    """Reports (naive, compensated) for every n = 0..n_max in one pass.

    The float state and the exact partial sums (race.geometric_sums) advance
    together, one step per n. The sweep is not O(n_max) in time, though:
    for r = p/q each exact sum and error field gains about log10(q) digits
    per step. Every report pairs those big integers only with small ones
    (the double's 53-bit parts), so it costs time linear in their digits
    and the whole sweep about O(n_max^2 * log q); a ratio with a large
    denominator (r = 999/1000, say) still makes a long sweep slow.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exact = geometric_sums(config.x0 / config.sa, config.ratio, n_max + 1)
    return [
        (_report(n, NAIVE, naive, s), _report(n, COMPENSATED, comp, s))
        for (n, naive, comp), s in zip(_float_sums(config, n_max), exact)
    ]
