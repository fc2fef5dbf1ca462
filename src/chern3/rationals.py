"""Exact rational plumbing and the "p/q" wire codec.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, positive denominator, always lowest terms.  On the wire they are
strings, "p/q" for proper fractions and "n" for integers, which is what
``str`` writes for a Fraction.  Floats are rejected everywhere so no value
is ever silently rounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable

from .errors import InvalidInput

# The version of the wire documents: requests, reports and threefolds.
SCHEMA_VERSION = "1"

# The wire form of a rational, as a JSON-schema ``pattern``: "n" or "p/q".
# Python's "$" also matches before a final newline, where ECMA-262's does
# not; "(?!\n)" makes both dialects, and jsonschema's ``re.search``, reject
# "7\n".
RAT_PATTERN = r"^-?[0-9]+(/[1-9][0-9]*)?$(?!\n)"
_RAT_RE = re.compile(RAT_PATTERN)
# CPython's default cap on the digits int() reads (none before 3.10.7).  rat()
# holds every string to it, also while the CLI lifts the cap to write results.
MAX_DIGITS = getattr(sys.int_info, "default_max_str_digits", 0)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact Fraction.

    A string must match ``RAT_PATTERN`` as a whole, so the API accepts
    exactly the strings the CLI schema does.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInput(f"expected a rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.fullmatch(value):
            raise InvalidInput(f"cannot parse rational {value!r}: expected 'p/q' or 'n'")
        if 0 < MAX_DIGITS < len(value) and max(map(len, value.lstrip("-").split("/"))) > MAX_DIGITS:
            raise InvalidInput(f"rational of {len(value)} characters has more than {MAX_DIGITS} digits")
        return Fraction(value)
    raise InvalidInput(f"expected int, 'p/q' string or Fraction, got {type(value).__name__}")


def require_ints(name: str, *values: object) -> None:
    """Raise InvalidInput unless every value is an int; a bool or a float is not one."""
    for value in values:
        if type(value) is not int:
            raise InvalidInput(f"{name}: expected an integer, got {type(value).__name__} {value!r}")


def rats(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else rat(v) for v in values)

