"""Complete-intersection threefold presets and their tangent Chern classes.

A transverse intersection of hypersurfaces of degrees (d_1, ..., d_m) in
P^n with n - m = 3 is a smooth projective threefold whose total tangent
Chern class, restricted to the hyperplane generator H, is

    c(T_X) = (1 + H)^(n+1) / prod_i (1 + d_i H)

truncated after degree 3.  Every factor of the denominator has constant
term 1, so dividing by it takes no division of numbers: the coefficients
stay integers, and this module computes them on Python ints, exactly.  It
also classifies the canonical type by comparing sum(d_i) with n + 1, and
builds the corresponding one-generator Threefold model.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import namedtuple
from enum import Enum

from .chow import Threefold, make_threefold
from .errors import DimensionMismatch, InvalidInput, RedundantDegreeWarning
from .rationals import require_ints


class CIPreset(namedtuple("_CIPreset", "ambient degrees")):
    """Complete intersection of the given degrees in P^ambient."""

    __slots__ = ()

    def __new__(cls, ambient: int, degrees: tuple[int, ...]) -> CIPreset:
        try:
            degrees = tuple(degrees)
        except TypeError:
            raise InvalidInput(f"degrees: expected a sequence of integers, got {degrees!r}") from None
        require_ints("ambient", ambient)
        require_ints("degrees", *degrees)
        if ambient < 3:
            raise InvalidInput(f"ambient projective space P^{ambient} is too small")
        if any(d < 1 for d in degrees):
            raise InvalidInput("hypersurface degrees must be positive")
        if ambient - len(degrees) != 3:
            raise DimensionMismatch(
                f"{len(degrees)} hypersurfaces in P^{ambient} cut a "
                f"{ambient - len(degrees)}-fold, not a threefold"
            )
        if 1 in degrees:
            reduced = CIPreset(ambient - degrees.count(1), tuple(d for d in degrees if d != 1))
            warnings.warn(
                "degree-1 hypersurfaces re-embed the same variety; the "
                f"equivalent reduced preset is {format_preset(reduced)!r}",
                RedundantDegreeWarning,
                stacklevel=2,
            )
        return tuple.__new__(cls, (ambient, degrees))

    _make = classmethod(lambda cls, it: cls(*it))


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


def tangent_chern(p: CIPreset) -> tuple[int, int, int, int]:
    """Total tangent Chern class (1, c1, c2, c3), indexed by degree in H.

    Starts from the binomial coefficients of (1 + H)^(n+1) and divides by
    each 1 + d H in place: c[j] -= d * c[j-1] for j = 1, 2, 3 in turn.
    """
    c = [math.comb(p.ambient + 1, j) for j in range(4)]
    for d in p.degrees:
        for j in range(1, 4):
            c[j] -= d * c[j - 1]
    return tuple(c)


def build_ci(p: CIPreset) -> Threefold:
    """One-generator Threefold model of the preset.

    H^3 is the product of the degrees; c1(X) and c2(X) are the integer
    coefficients from ``tangent_chern``, c2(X) stored through its pairing
    with H.  The curve lattice defaults to the class of a line, the single
    generator l with H.l = 1, so integral curve classes pair integrally
    with H.  c3(X) is reported by ``tangent_chern`` but not stored: no
    downstream formula consumes it.
    """
    _, c1, c2, _ = tangent_chern(p)
    degree = math.prod(p.degrees)
    return make_threefold(
        ("H",),
        (((degree,),),),
        (c1,),
        (c2 * degree,),
        curve_lattice=((1,),),
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
