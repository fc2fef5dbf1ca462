"""Chern-class data of coherent sheaves and the operations applied to it.

``ChernData`` carries (rank, c1, c2, c3) of a sheaf on a fixed threefold;
``CharacterData`` is the Chern-character presentation of the same data.
Tensor products are computed through characters, which multiply degreewise,
because that route is uniform in rank; the closed-form rank-by-rank tensor
formulas of ``splitting`` are an independent oracle in the test suite.

``euler_char`` evaluates Hirzebruch-Riemann-Roch on a threefold term by term;
the terms are exposed for audit output, since an eight-term formula with
fractional weights is where a transcription slip would go unnoticed.

Weight bound: give c1 and a twist weight 1, c2 weight 2, c3 weight 3.  Classes
multiply only by type and scale only by ranks and constants, so each c_i
returned has weight i <= 3, each intersection number weight <= 3, and the
degree is at most the weight.  The tests prove identities on {x in N^n :
sum x <= 3}, unisolvent for degree <= 3 (Chung and Yao, 1977).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .chow import CurveClass, DivClass, Threefold, _check_len, mul_div_div, pair_div_curve, triple
from .errors import DegenerateLine, DimensionMismatch, InvalidInput, NonIntegralRank
from .rationals import rat


class ChernData(namedtuple("_ChernData", "rank c1 c2 c3")):
    """Rank and Chern classes (c1, c2, c3) of a coherent sheaf.

    A named tuple built and checked in one step: the rank is an int >= 1,
    and c1, c2 and c3 are coerced to ``DivClass``, ``CurveClass`` and
    ``Fraction`` unless they are all of those types already.  ``_make`` and
    ``_replace`` go through the same checks.
    """

    __slots__ = ()

    def __new__(cls, rank: int, c1: DivClass, c2: CurveClass, c3: Fraction) -> ChernData:
        if type(rank) is not int or rank < 1:
            raise InvalidInput(f"rank must be a positive integer, got {rank!r}")
        if type(c1) is not DivClass or type(c2) is not CurveClass or type(c3) is not Fraction:
            c1, c2, c3 = DivClass.of(c1), CurveClass.of(c2), rat(c3)
        return tuple.__new__(cls, (rank, c1, c2, c3))

    _make = classmethod(lambda cls, it: cls(*it))


class CharacterData(namedtuple("_CharacterData", "ch0 ch1 ch2 ch3")):
    """Chern character: (ch0, ch1, ch2, ch3) with ch0 the rank.

    Built and checked in one step, as ``ChernData`` is: ch0 and ch3 are
    coerced to ``Fraction``, ch1 and ch2 to ``DivClass`` and ``CurveClass``.
    """

    __slots__ = ()

    def __new__(cls, ch0: Fraction, ch1: DivClass, ch2: CurveClass, ch3: Fraction) -> CharacterData:
        return tuple.__new__(cls, (rat(ch0), DivClass.of(ch1), CurveClass.of(ch2), rat(ch3)))

    _make = classmethod(lambda cls, it: cls(*it))


def _check_on(X: Threefold, F: ChernData) -> None:
    if not len(F.c1.coords) == len(F.c2.coords) == X.m:  # m once: on a Threefold it is an instance-dict read
        raise DimensionMismatch(
            f"sheaf data of length ({len(F.c1)}, {len(F.c2)}) does not live on a "
            f"threefold with {X.m} generators"
        )


def to_character(X: Threefold, F: ChernData) -> CharacterData:
    """Newton-identity conversion: ch2 = (c1^2 - 2c2)/2, ch3 = (c1^3 - 3c1c2 + 3c3)/6."""
    _check_on(X, F)
    c1_sq = mul_div_div(X, F.c1, F.c1)
    ch2 = (c1_sq - F.c2 * 2) * Fraction(1, 2)
    ch3 = (
        triple(X, F.c1, F.c1, F.c1) - pair_div_curve(X, F.c1, F.c2) * 3 + F.c3 * 3
    ) * Fraction(1, 6)
    return CharacterData(Fraction(F.rank), F.c1, ch2, ch3)


def from_character(X: Threefold, ch: CharacterData) -> ChernData:
    """Exact inverse of ``to_character``."""
    if ch.ch0.denominator != 1 or ch.ch0 <= 0:
        raise NonIntegralRank(f"ch0 = {ch.ch0} is not a positive integer")
    if len(ch.ch1) != X.m or len(ch.ch2) != X.m:
        raise DimensionMismatch("character data does not match the threefold")
    c1 = ch.ch1
    c1_sq = mul_div_div(X, c1, c1)
    c2 = (c1_sq - ch.ch2 * 2) * Fraction(1, 2)
    c3 = (
        ch.ch3 * 2
        - triple(X, c1, c1, c1) * Fraction(1, 3)
        + pair_div_curve(X, c1, c2)
    )
    return ChernData(int(ch.ch0), c1, c2, c3)


def tensor(X: Threefold, E: ChernData, F: ChernData) -> ChernData:
    """Chern data of E (x) F, via degreewise multiplication of characters."""
    a = to_character(X, E)
    b = to_character(X, F)
    ch0 = a.ch0 * b.ch0
    ch1 = a.ch1 * b.ch0 + b.ch1 * a.ch0
    ch2 = a.ch2 * b.ch0 + b.ch2 * a.ch0 + mul_div_div(X, a.ch1, b.ch1)
    ch3 = (
        a.ch3 * b.ch0
        + b.ch3 * a.ch0
        + pair_div_curve(X, a.ch1, b.ch2)
        + pair_div_curve(X, b.ch1, a.ch2)
    )
    return from_character(X, CharacterData(ch0, ch1, ch2, ch3))


def dual(X: Threefold, F: ChernData) -> ChernData:
    """Dual sheaf data: ch_i picks up (-1)^i, so c1 and c3 flip sign."""
    _check_on(X, F)
    return ChernData(F.rank, -F.c1, F.c2, -F.c3)


def twist(X: Threefold, F: ChernData, L: DivClass) -> ChernData:
    """Tensor with the line-bundle data (1, L, 0, 0)."""
    _check_len("divisor class", len(L), X.m)
    line = ChernData(1, L, CurveClass.zero(X.m), 0)
    return tensor(X, F, line)


def discriminant(X: Threefold, F: ChernData) -> CurveClass:
    """Twist-invariant discriminant 2r c2 - (r-1) c1^2, equal to c2(F (x) F*)."""
    _check_on(X, F)
    return F.c2 * (2 * F.rank) - mul_div_div(X, F.c1, F.c1) * (F.rank - 1)


_RR_TERM_LABELS = (
    "c1(F)^3/6",
    "-c1(F).c2(F)/2",
    "-c1(X).c2(F)/2",
    "c1(X).c1(F)^2/4",
    "c1(X)^2.c1(F)/12",
    "c2(X).c1(F)/12",
    "r.c1(X).c2(X)/24",
    "c3(F)/2",
)


def rr_intersections(X: Threefold, F: ChernData) -> tuple[tuple[str, Fraction], ...]:
    """The intersection numbers feeding the Riemann-Roch expression."""
    _check_on(X, F)
    return (
        ("c1(F)^3", triple(X, F.c1, F.c1, F.c1)),
        ("c1(F).c2(F)", pair_div_curve(X, F.c1, F.c2)),
        ("c1(X).c2(F)", pair_div_curve(X, X.c1X, F.c2)),
        ("c1(X).c1(F)^2", triple(X, X.c1X, F.c1, F.c1)),
        ("c1(X)^2.c1(F)", triple(X, X.c1X, X.c1X, F.c1)),
        ("c2(X).c1(F)", pair_div_curve(X, F.c1, X.c2X)),
        ("c1(X).c2(X)", pair_div_curve(X, X.c1X, X.c2X)),
        ("c3(F)", F.c3),
    )


def rr_terms(X: Threefold, F: ChernData) -> tuple[tuple[str, Fraction], ...]:
    """The eight weighted Riemann-Roch terms, in display order."""
    return rr_weigh(F.rank, rr_intersections(X, F))


def rr_weigh(rank: int, numbers: Iterable[tuple[str, Fraction]]) -> tuple[tuple[str, Fraction], ...]:
    """Weigh the output of ``rr_intersections`` into the eight terms."""
    numbers = dict(numbers)
    values = (
        numbers["c1(F)^3"] / 6,
        -numbers["c1(F).c2(F)"] / 2,
        -numbers["c1(X).c2(F)"] / 2,
        numbers["c1(X).c1(F)^2"] / 4,
        numbers["c1(X)^2.c1(F)"] / 12,
        numbers["c2(X).c1(F)"] / 12,
        Fraction(rank) * numbers["c1(X).c2(X)"] / 24,
        numbers["c3(F)"] / 2,
    )
    return tuple(zip(_RR_TERM_LABELS, values))


def euler_char(X: Threefold, F: ChernData) -> Fraction:
    """Exact Euler characteristic of F by Riemann-Roch on a threefold."""
    return sum((value for _, value in rr_terms(X, F)), Fraction(0))


def slope(X: Threefold, F: ChernData, L: DivClass) -> Fraction:
    """Normalized degree c1(F).L^2 / (rank * L^3) used in stability comparisons."""
    _check_on(X, F)
    volume = triple(X, L, L, L)
    if volume == 0:
        raise DegenerateLine("slope is undefined: L^3 = 0")
    return triple(X, F.c1, L, L) / (F.rank * volume)


def chern_to_json(F: ChernData) -> dict:
    return {
        "rank": F.rank,
        "c1": [str(c) for c in F.c1.coords],
        "c2": [str(c) for c in F.c2.coords],
        "c3": str(F.c3),
    }


def chern_from_json(doc: dict) -> ChernData:
    """Inverse of ``chern_to_json``; a missing ``c3`` is 0."""
    return ChernData(doc["rank"], doc["c1"], doc["c2"], doc.get("c3", 0))
