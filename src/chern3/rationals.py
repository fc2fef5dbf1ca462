"""Exact rational plumbing and the "p/q" wire codec.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, positive denominator, always lowest terms.  On the wire they are
strings, "p/q" for proper fractions and "n" for integers.  Floats are
rejected everywhere so no value is ever silently rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import InvalidInput

# The wire form of a rational, as a JSON-schema ``pattern``: "n" or "p/q".
RAT_PATTERN = "^-?[0-9]+(/[1-9][0-9]*)?$"
_RAT_RE = re.compile(RAT_PATTERN)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact Fraction.

    A string must match ``RAT_PATTERN``, tested as a JSON-schema validator
    tests a ``pattern``, so the API accepts exactly the strings the CLI
    schema does.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInput(f"expected a rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.search(value):
            raise InvalidInput(f"cannot parse rational {value!r}: expected 'p/q' or 'n'")
        return Fraction(value)
    raise InvalidInput(f"expected int, 'p/q' string or Fraction, got {type(value).__name__}")


def rats(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def rat_str(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "n" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

