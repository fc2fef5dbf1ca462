"""Solve expected-dimension-zero conditions over integer twist lattices.

On a one-generator threefold with hyperplane class H and a declared curve
lattice generated by a single class l, rank-2 data is parametrized by the
determinant twist k (c1 = kH) and the lattice coordinate c (c2 = c l).  The
expected dimension is then an exact affine-in-(c, k^2) form

    D(k, c) = a c + b k^2 + e

whose integer zero set is decided completely by congruences modulo the
cleared-denominator coefficient of c.  Reports carry either explicit
congruence-class witnesses or a single-modulus impossibility certificate,
and every verdict is double-checked by dumb exhaustive enumeration over the
requested rectangle, because a certified claim should not depend on the
clever path being right.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .chow import CurveClass, DivClass, Threefold
from .ci import build_ci, parse_preset
from .errors import (
    ClaimViolation,
    InvalidInput,
    LimitExceeded,
    MissingCurveLattice,
    SelfCheckFailed,
    UnsupportedPicardRank,
)
from .moduli import expected_dim
from .sheaf import ChernData

ENUM_CAP_ENV = "CHERN3_MAX_ENUM"
_DEFAULT_ENUM_CAP = 10**6


def _enum_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return _DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # rejected below with the same message
    if cap <= 0:
        raise InvalidInput(f"{ENUM_CAP_ENV}={raw!r} is not a positive integer")
    return cap


def _require_line_lattice(X: Threefold) -> CurveClass:
    if X.m != 1:
        raise UnsupportedPicardRank(
            f"the twist search needs a single divisor generator, got {X.m}"
        )
    if not X.curve_lattice or len(X.curve_lattice) != 1:
        raise MissingCurveLattice("declare exactly one curve lattice generator")
    generator = X.curve_lattice[0]
    if generator.coords[0] == 0:
        raise MissingCurveLattice("the lattice generator pairs to 0 with H")
    return generator


@dataclass(frozen=True)
class DZeroProblem:
    """Search rectangle for integer (k, c) with expected dimension zero."""

    threefold: Threefold
    k_range: tuple[int, int]
    c_range: tuple[int, int]

    def __post_init__(self) -> None:
        _require_line_lattice(self.threefold)
        for name in ("k_range", "c_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidInput(f"{name} [{lo}, {hi}] is empty")
            object.__setattr__(self, name, (int(lo), int(hi)))


@dataclass(frozen=True)
class Obstruction:
    """Named impossibility certificate; ``modulus`` is set for congruences."""

    kind: str
    modulus: int | None
    description: str


class Condition(NamedTuple):
    """Rationals with expected_dim = a c + b k^2 + e."""

    a: Fraction
    b: Fraction
    e: Fraction


class Normalized(NamedTuple):
    """The condition as coprime integers A c + B k^2 + E = 0, leading sign positive."""

    A: int
    B: int
    E: int


@dataclass(frozen=True)
class DZeroReport:
    """Affine condition, solvability verdict, and in-range witnesses."""

    condition: Condition
    normalized: Normalized
    relation: str
    solvable: bool
    modulus: int | None
    residues: tuple[int, ...] | None
    obstruction: Obstruction | None
    witnesses: tuple[tuple[int, int], ...]
    k_range: tuple[int, int]
    c_range: tuple[int, int]
    grid_checked: bool


def _dim_at(X: Threefold, generator: CurveClass, k: int, c: int) -> Fraction:
    """expected_dim of the rank-2 data with c1 = k H, c2 = c l and c3 = 0."""
    return expected_dim(X, ChernData(2, DivClass((k,)), generator * c, 0))


def dzero_condition(X: Threefold) -> Condition:
    """Rationals (a, b, e) with expected_dim = a c + b k^2 + e identically.

    Extracted by evaluating expected_dim at (0,0), (0,1), (1,0) and verified
    at three further pseudorandom points; a mismatch there would mean the
    dimension formula stopped being affine in (c, k^2), which cannot happen.
    """
    generator = _require_line_lattice(X)
    e = _dim_at(X, generator, 0, 0)
    a = _dim_at(X, generator, 0, 1) - e
    b = _dim_at(X, generator, 1, 0) - e
    rng = random.Random(97)
    for _ in range(3):
        k, c = rng.randint(-9, 9), rng.randint(-9, 9)
        if _dim_at(X, generator, k, c) != a * c + b * k * k + e:
            raise SelfCheckFailed(
                "dzero affine reduction", f"expected_dim at ({k}, {c}) is off a c + b k^2 + e"
            )
    return Condition(a, b, e)


def _normalize(a: Fraction, b: Fraction, e: Fraction) -> Normalized:
    """Clear denominators and divide by the gcd; sign fixed so A >= 0 leads."""
    scale = math.lcm(a.denominator, b.denominator, e.denominator)
    A, B, E = (int(x * scale) for x in (a, b, e))
    g = math.gcd(math.gcd(abs(A), abs(B)), abs(E))
    if g > 1:
        A, B, E = A // g, B // g, E // g
    lead = next((x for x in (A, B, E) if x != 0), 0)
    if lead < 0:
        A, B, E = -A, -B, -E
    return Normalized(A, B, E)


def relation_str(normalized: tuple[int, int, int]) -> str:
    """Render A c + B k^2 + E = 0 as "A c = B' k^2 + E'" with positive lead."""
    A, B, E = normalized
    if A == 0 and B == 0 and E == 0:
        return "0 = 0"
    lhs = f"{A}c" if A not in (0, 1) else ("c" if A == 1 else "0")
    terms = []
    k_coeff, const = -B, -E
    if k_coeff != 0:
        if abs(k_coeff) == 1:
            terms.append(("-" if k_coeff < 0 else "") + "k^2")
        else:
            terms.append(f"{k_coeff}k^2")
    if const != 0 or not terms:
        terms.append(str(const) if not terms else (f"+ {const}" if const > 0 else f"- {-const}"))
    return f"{lhs} = {' '.join(terms)}"


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [d for d in range(2, n + 1) if n % d == 0]
    return out


def _congruence_residues(B: int, E: int, q: int) -> list[int]:
    return [k for k in range(q) if (B * k * k + E) % q == 0]


def _certificate_for_modulus_scan(B: int, E: int, moduli: list[int]) -> Obstruction | None:
    for q in moduli:
        if not _congruence_residues(B, E, q):
            kind = "parity" if q == 2 else "congruence"
            detail = (
                "left side is even, right side is odd"
                if q == 2
                else f"no residue k (mod {q}) satisfies {B}k^2 + {E} = 0 (mod {q})"
            )
            return Obstruction(kind, q, detail)
    return None


def _grid_zeros(
    a: Fraction, b: Fraction, e: Fraction, k_range: tuple[int, int], c_range: tuple[int, int]
) -> list[tuple[int, int]]:
    """Every (k, c) of the rectangle with a c + b k^2 + e = 0, in (k, c) order.

    The independent dumb check behind every dzero verdict: it tests each
    point, on integers it gets by clearing the denominators of (a, b, e)
    itself, and never reads the normalized relation, so a fault in
    _normalize or in the congruence solver cannot hide here.
    """
    scale = math.lcm(a.denominator, b.denominator, e.denominator)
    ia, ib, ie = (x.numerator * (scale // x.denominator) for x in (a, b, e))
    zeros = []
    for k in range(k_range[0], k_range[1] + 1):
        rest = ib * k * k + ie
        zeros += [(k, c) for c in range(c_range[0], c_range[1] + 1) if ia * c + rest == 0]
    return zeros


def solve_dzero(problem: DZeroProblem) -> DZeroReport:
    """Decide a c + b k^2 + e = 0 over the integers and enumerate the rectangle.

    For a != 0 the congruence on k modulo the cleared coefficient of c is a
    complete decision procedure, so unsolvable cases always carry a
    certificate.  Certificates restricted to a single modulus may not exist
    in the degenerate a = 0 branch; the report then says so instead of
    pretending.
    """
    X = problem.threefold
    k_lo, k_hi = problem.k_range
    c_lo, c_hi = problem.c_range
    points = (k_hi - k_lo + 1) * (c_hi - c_lo + 1)
    cap = _enum_cap()
    if points > cap:
        raise LimitExceeded(
            f"rectangle has {points} lattice points, above the {ENUM_CAP_ENV} cap {cap}"
        )

    a, b, e = condition = dzero_condition(X)
    A, B, E = normalized = _normalize(a, b, e)

    solvable: bool
    modulus: int | None = None
    residues: tuple[int, ...] | None = None
    obstruction: Obstruction | None = None
    witnesses: list[tuple[int, int]] = []

    if A == 0 and B == 0 and E == 0:
        solvable = True
        modulus, residues = 1, (0,)
        witnesses = [(k, c) for k in range(k_lo, k_hi + 1) for c in range(c_lo, c_hi + 1)]
    elif A == 0 and B == 0:
        solvable = False
        obstruction = Obstruction("nonzero-constant", None, f"the condition reads {E} = 0")
    elif A == 0:
        # B k^2 + E = 0 with c unconstrained: k^2 must equal -E/B exactly.
        solvable = False
        if E % B == 0:
            target = -E // B
            if target >= 0 and math.isqrt(target) ** 2 == target:
                solvable = True
                k0 = math.isqrt(target)
                ks = sorted({k0, -k0})
                witnesses = [
                    (k, c) for k in ks if k_lo <= k <= k_hi for c in range(c_lo, c_hi + 1)
                ]
        if not solvable:
            obstruction = _certificate_for_modulus_scan(B, E, list(range(2, 1000)))
            if obstruction is None:
                obstruction = Obstruction(
                    "no-certificate",
                    None,
                    "k^2 has no integer solution (exact square test); no "
                    "single-modulus congruence certificate found",
                )
    else:
        found = _congruence_residues(B, E, A)
        if found:
            solvable = True
            modulus, residues = A, tuple(found)
            for k in range(k_lo, k_hi + 1):
                value = B * k * k + E
                if value % A == 0:
                    c = -value // A
                    if c_lo <= c <= c_hi:
                        witnesses.append((k, c))
        else:
            solvable = False
            obstruction = _certificate_for_modulus_scan(B, E, _divisors(A))
            if obstruction is None:  # cannot happen: q = A itself certifies
                raise SelfCheckFailed("dzero congruence check", f"no certificate modulo {A}")

    witnesses.sort()

    if _grid_zeros(a, b, e, problem.k_range, problem.c_range) != witnesses:
        raise SelfCheckFailed(
            "dzero grid check", "exhaustive enumeration disagrees with the congruence solver"
        )

    generator = _require_line_lattice(X)
    for k, c in witnesses:
        if _dim_at(X, generator, k, c) != 0:
            raise SelfCheckFailed("dzero witness check", f"witness ({k}, {c}) fails re-evaluation")

    return DZeroReport(
        condition=condition,
        normalized=normalized,
        relation=relation_str(normalized),
        solvable=solvable,
        modulus=modulus,
        residues=residues,
        obstruction=obstruction,
        witnesses=tuple(witnesses),
        k_range=problem.k_range,
        c_range=problem.c_range,
        grid_checked=True,
    )


@dataclass(frozen=True)
class PresetClaim:
    preset: str
    expected_solvable: bool
    report: DZeroReport


@dataclass(frozen=True)
class PaperClaimsReport:
    entries: tuple[PresetClaim, ...]

    @property
    def solvable_count(self) -> int:
        return sum(1 for entry in self.entries if entry.report.solvable)

    @property
    def certificate_count(self) -> int:
        return sum(1 for entry in self.entries if entry.report.obstruction is not None)


# The certified case analysis over Fano complete intersections: whether the
# expected dimension can vanish, and for the two solvable cases the exact
# normalized relation {A c + B k^2 + E = 0} that characterizes the zeros.
_CLAIMS: tuple[tuple[str, bool, tuple[int, int, int] | None], ...] = (
    ("[1] in P4", False, None),
    ("[2] in P4", True, (2, -1, -1)),
    ("[3] in P4", False, None),
    ("[4] in P4", False, None),
    ("[2,2] in P5", False, None),
    ("[2,3] in P5", True, (2, -3, -3)),
    ("[2,2,2] in P6", False, None),
)


def verify_paper_claims(
    k_range: tuple[int, int] = (-50, 50), c_range: tuple[int, int] = (-50, 50)
) -> PaperClaimsReport:
    """Re-derive the case analysis for the seven catalogued presets.

    Raises ClaimViolation when any computed report disagrees with the
    recorded claim; by construction that signals a build bug, not bad input.
    """
    entries = []
    for name, want_solvable, want_normalized in _CLAIMS:
        X = build_ci(parse_preset(name))
        report = solve_dzero(DZeroProblem(X, k_range, c_range))
        if report.solvable != want_solvable:
            raise ClaimViolation(
                name,
                f"expected solvable={want_solvable}, computed {report.solvable} "
                f"for {report.relation}",
            )
        if want_solvable:
            if report.normalized != want_normalized:
                raise ClaimViolation(
                    name,
                    f"expected relation {want_normalized}, computed {report.normalized}",
                )
            if not report.witnesses:
                raise ClaimViolation(name, "solvable but no witness in the search range")
        else:
            if report.obstruction is None:
                raise ClaimViolation(name, "unsolvable but no certificate produced")
            if report.witnesses:
                raise ClaimViolation(name, f"witnesses {report.witnesses[:3]} contradict the claim")
        entries.append(PresetClaim(name, want_solvable, report))
    return PaperClaimsReport(tuple(entries))
