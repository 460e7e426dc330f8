"""Exact rational arithmetic surface used by every other module.

The carrier type is :class:`fractions.Fraction`: arbitrary-precision
integer parts, always stored normalized (positive denominator, lowest
terms, zero as 0/1). Arithmetic, powers and ordering are the type's
native operators; this module adds the strict text grammar shared by
the CLI and JSON output, and correctly rounded decimal rendering. The
grammar is ASCII-only; once text passes it, the value comes from
Fraction's own constructor, and the rounding from Fraction's round().

No floating point enters here. Floats are confined to
:mod:`zenoseq.floatsum`, where they are the object of study.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["parse", "render", "to_decimal_string"]

# integer := [-]?digits ; ratio := integer "/" digits ; decimal := [-]?digits "." digits
# Deliberately stricter than Fraction's constructor: no whitespace, no "+",
# no exponents, no "_" separators, no bare "." forms, no non-ASCII digits.
_LITERAL = re.compile(r"-?\d+(?:/(\d+)|\.\d+)?", re.ASCII)


def parse(text: str) -> Fraction:
    """Parse "p", "p/q", or a finite decimal such as "0.25" exactly.

    Decimals convert in base 10 with no rounding (0.2 -> 1/5). Malformed
    text and zero denominators raise ValueError.
    """
    m = _LITERAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    # Fraction itself raises ZeroDivisionError, which argparse would not
    # report as a usage error.
    den = m.group(1)
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


def render(a: Fraction) -> str:
    """Canonical text form: "p/q" with q > 0, or bare "p" when q = 1."""
    return str(a)


def to_decimal_string(a: Fraction, digits: int) -> str:
    """Decimal expansion of `a` with exactly `digits` fractional digits.

    Rounds half to even on the exact scaled value (Fraction's round()), so
    the result is the correctly rounded expansion, not a float detour. A
    value that rounds to zero never carries a minus sign.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    units = round(abs(a) * 10**digits)
    text = str(units).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{text}" if a < 0 and units else text
