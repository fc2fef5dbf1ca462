"""Complete-intersection threefold presets and truncated Chern-series arithmetic.

A transverse intersection of hypersurfaces of degrees (d_1, ..., d_m) in
P^n with n - m = 3 is a smooth projective threefold whose total tangent
Chern class, restricted to the hyperplane generator H, is

    c(T_X) = (1 + H)^(n+1) / prod_i (1 + d_i H)

truncated after degree 3.  This module computes that series exactly,
classifies the canonical type by comparing sum(d_i) with n + 1, and builds
the corresponding one-generator Threefold model.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .chow import CurveClass, Threefold, make_threefold
from .errors import DimensionMismatch, InvalidInput, NonUnitSeries, RedundantDegreeWarning
from .rationals import rat


@dataclass(frozen=True)
class TruncSeries:
    """Power series in one variable, truncated after degree 3."""

    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction

    def __post_init__(self) -> None:
        for name in ("c0", "c1", "c2", "c3"):
            object.__setattr__(self, name, rat(getattr(self, name)))

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2, self.c3)


SERIES_ONE = TruncSeries(1, 0, 0, 0)


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Coefficientwise convolution truncated at degree 3."""
    x, y = a.coeffs, b.coeffs
    return TruncSeries(
        x[0] * y[0],
        x[0] * y[1] + x[1] * y[0],
        x[0] * y[2] + x[1] * y[1] + x[2] * y[0],
        x[0] * y[3] + x[1] * y[2] + x[2] * y[1] + x[3] * y[0],
    )


def series_inv(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse; exists exactly when the constant term is nonzero."""
    if a.c0 == 0:
        raise NonUnitSeries("series with zero constant term has no inverse")
    b0 = 1 / a.c0
    b1 = -(a.c1 * b0) / a.c0
    b2 = -(a.c1 * b1 + a.c2 * b0) / a.c0
    b3 = -(a.c1 * b2 + a.c2 * b1 + a.c3 * b0) / a.c0
    return TruncSeries(b0, b1, b2, b3)


def series_pow(a: TruncSeries, n: int) -> TruncSeries:
    if n < 0:
        raise InvalidInput("series_pow expects a nonnegative exponent")
    out = SERIES_ONE
    for _ in range(n):
        out = series_mul(out, a)
    return out


@dataclass(frozen=True)
class CIPreset:
    """Complete intersection of the given degrees in P^ambient."""

    ambient: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if self.ambient < 3:
            raise InvalidInput(f"ambient projective space P^{self.ambient} is too small")
        if any(d < 1 for d in self.degrees):
            raise InvalidInput("hypersurface degrees must be positive")
        if self.ambient - len(self.degrees) != 3:
            raise DimensionMismatch(
                f"{len(self.degrees)} hypersurfaces in P^{self.ambient} cut a "
                f"{self.ambient - len(self.degrees)}-fold, not a threefold"
            )
        if 1 in self.degrees:
            reduced = tuple(d for d in self.degrees if d != 1)
            dropped = len(self.degrees) - len(reduced)
            reduced_name = f"[{','.join(str(d) for d in reduced)}] in P{self.ambient - dropped}"
            warnings.warn(
                "degree-1 hypersurfaces re-embed the same variety; the "
                f"equivalent reduced preset is {reduced_name!r}",
                RedundantDegreeWarning,
                stacklevel=3,
            )


class CanonicalType(Enum):
    FANO = "Fano"
    CALABI_YAU = "CalabiYau"
    GENERAL_TYPE = "GeneralType"


def classify(p: CIPreset) -> CanonicalType:
    """Canonical type from the degree sum: Fano below n+1, Calabi-Yau at n+1."""
    total = sum(p.degrees)
    if total < p.ambient + 1:
        return CanonicalType.FANO
    if total == p.ambient + 1:
        return CanonicalType.CALABI_YAU
    return CanonicalType.GENERAL_TYPE


def tangent_chern(p: CIPreset) -> TruncSeries:
    """Total tangent Chern class as a truncated series in the hyperplane H."""
    numerator = series_pow(TruncSeries(1, 1, 0, 0), p.ambient + 1)
    denominator = SERIES_ONE
    for d in p.degrees:
        denominator = series_mul(denominator, TruncSeries(1, d, 0, 0))
    return series_mul(numerator, series_inv(denominator))


def build_ci(p: CIPreset) -> Threefold:
    """One-generator Threefold model of the preset.

    H^3 is the product of the degrees; c2(X) is stored through its pairing
    with H.  The curve lattice defaults to the class of a line, the single
    generator l with H.l = 1, so integral curve classes pair integrally
    with H.  c3(X) is reported by ``tangent_chern`` but not stored: no
    downstream formula consumes it.
    """
    chern = tangent_chern(p)
    degree = math.prod(p.degrees)
    return make_threefold(
        ("H",),
        (((degree,),),),
        (chern.c1,),
        (chern.c2 * degree,),
        curve_lattice=(CurveClass((Fraction(1),)),),
    )


# ASCII digits only: "\d" would also take digits such as "٢", which int() parses.
_PRESET_RE = re.compile(r"^\[\s*(?P<degrees>[0-9]+(?:\s*,\s*[0-9]+)*)?\s*\]\s+in\s+P(?P<ambient>[0-9]+)$")


def parse_preset(name: str) -> CIPreset:
    """Parse the literal preset syntax "[d1,...,dm] in Pn"."""
    match = _PRESET_RE.match(name.strip())
    if match is None:
        raise InvalidInput(f'cannot parse preset {name!r}; expected e.g. "[2,3] in P5"')
    raw = match.group("degrees")
    degrees = tuple(int(d) for d in raw.split(",")) if raw else ()
    return CIPreset(int(match.group("ambient")), degrees)


def format_preset(p: CIPreset) -> str:
    return f"[{','.join(str(d) for d in p.degrees)}] in P{p.ambient}"


# Catalog of the named presets used throughout the reports: the seven Fano
# case-analysis entries plus projective space and the Calabi-Yau quintic.
PRESET_CATALOG: tuple[str, ...] = (
    "[] in P3",
    "[1] in P4",
    "[2] in P4",
    "[3] in P4",
    "[4] in P4",
    "[5] in P4",
    "[2,2] in P5",
    "[2,3] in P5",
    "[2,2,2] in P6",
)
