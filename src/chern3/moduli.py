"""Numerical moduli formulas: Ext Euler characteristics, expected dimensions,
Serre-correspondence conversions, and the section-ledger dimension count.

These are polynomial identities in Chern data.  The geometric hypotheses
under which they compute actual moduli dimensions (stability, reflexivity,
vanishing of the relevant cohomology) are the caller's responsibility;
nothing here inspects a sheaf.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction

from .chow import CurveClass, DivClass, Threefold, pair_div_curve
from .errors import (
    InsufficientLedger,
    IntegralityWarning,
    InvalidInput,
    NegativeDimension,
    RankUnsupported,
)
from .rationals import rat
from .sheaf import ChernData, _check_on, discriminant

_ZERO = Fraction(0)


def ext_euler(X: Threefold, F: ChernData) -> Fraction:
    """Alternating sum of Ext^i(F, F) dimensions for homological dimension 1.

    Equals r^2 c1(X).c2(X)/24 - c1(X).Delta(F)/2, which depends on F only
    through its discriminant and is therefore twist invariant.  The first
    term reads X.chi_O, the ``todd_genus`` of X derived once per threefold.
    """
    delta = pair_div_curve(X, X.c1X, discriminant(X, F))
    return F.rank**2 * X.chi_O - delta / 2


def expected_dim(X: Threefold, F: ChernData) -> Fraction:
    """Expected dimension dim Ext^1(F,F) - dim Ext^2(F,F) for stable rank-2 data.

    On a threefold with c1(X) = 0 the expected dimension vanishes
    identically (Serre duality pairs Ext^3 with Hom there, instead of
    killing Ext^3), so the canonically trivial case is returned as 0 rather
    than through the 1 - ext_euler form.
    """
    if F.rank != 2:
        raise RankUnsupported(f"expected dimension is computed for rank 2, got rank {F.rank}")
    _check_on(X, F)
    if X.c1X_is_zero:
        return _ZERO
    return 1 - ext_euler(X, F)


def serre_c3(X: Threefold, detF: DivClass, c2F: CurveClass, genus: Fraction | int | str) -> Fraction:
    """c3 of the rank-2 sheaf attached to a curve of the given arithmetic genus:
    2g - 2 + c1(X).c2(F) - c1(F).c2(F)."""
    g = rat(genus)
    return (
        2 * g
        - 2
        + pair_div_curve(X, X.c1X, c2F)
        - pair_div_curve(X, detF, c2F)
    )


def serre_genus(X: Threefold, detF: DivClass, c2F: CurveClass, c3: Fraction | int | str) -> Fraction:
    """Arithmetic genus for the given c3: inverts ``serre_c3``, affine in g with slope 2.

    Warns (never errors) when the result is not a nonnegative integer; the
    formula stays meaningful for arbitrary numerical input.
    """
    g = (rat(c3) - serre_c3(X, detF, c2F, 0)) / 2
    if g.denominator != 1 or g < 0:
        warnings.warn(
            f"genus {g} is not a nonnegative integer; the input does "
            "not describe a curve",
            IntegralityWarning,
            stacklevel=2,
        )
    return g


class CohomologyLedger(namedtuple("_CohomologyLedger", "h0_N h0_F h0_IF h1_IC_zero")):
    """User-supplied cohomology dimensions for the section dimension count.

    ``h0_N`` is h0 of the normal bundle of the zero curve, ``h0_F`` is h0 of
    the sheaf, ``h0_IF`` is h0 of the twisted ideal sheaf I_C (x) F, and
    ``h1_IC_zero``, a bool, asserts H1(X, I_C) = 0, which forces h0_IF = 1.
    """

    __slots__ = ()

    def __new__(
        cls, h0_N: int, h0_F: int, h0_IF: int | None = None, h1_IC_zero: bool = False
    ) -> CohomologyLedger:
        counts = (("h0_N", h0_N), ("h0_F", h0_F)) + (() if h0_IF is None else (("h0_IF", h0_IF),))
        for name, value in counts:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidInput(f"{name} must be a nonnegative integer, got {value!r}")
        if type(h1_IC_zero) is not bool:
            raise InvalidInput(f"h1_IC_zero must be a bool, got {h1_IC_zero!r}")
        if h1_IC_zero and h0_IF is not None and h0_IF != 1:
            raise InvalidInput(f"H1(I_C) = 0 forces h0(I_C (x) F) = 1, but ledger says {h0_IF}")
        return tuple.__new__(cls, (h0_N, h0_F, h0_IF, h1_IC_zero))

    _make = classmethod(lambda cls, it: cls(*it))


def ext1_ledger(ledger: CohomologyLedger) -> int:
    """dim Ext^1(F, F) = h0(N) - h0(F) + h0(I_C (x) F) from ledger values."""
    if ledger.h1_IC_zero:
        h0_IF = 1
    elif ledger.h0_IF is not None:
        h0_IF = ledger.h0_IF
    else:
        raise InsufficientLedger("provide h0_IF or assert h1_IC_zero")
    value = ledger.h0_N - ledger.h0_F + h0_IF
    if value < 0:
        raise NegativeDimension(
            f"h0(N) - h0(F) + h0(I_C (x) F) = {value} < 0; the ledger is inconsistent"
        )
    return value
