"""Solve expected-dimension-zero conditions over integer twist lattices.

On a one-generator threefold with hyperplane class H and a declared curve
lattice generated by a single class l, rank-2 data is parametrized by the
determinant twist k (c1 = kH) and the lattice coordinate c (c2 = c l).  The
expected dimension is then an exact affine-in-(c, k^2) form

    D(k, c) = a c + b k^2 + e

proved at six fixed integer points on every call by the weight bound of
``sheaf``.  Its integer zero set is decided completely by congruences modulo
the cleared-denominator coefficient A of c.

Lemma: a = 2 c1(X).l, so A = 0 only for the zero condition.  Indeed
D = 1 - c1(X).c2(X)/6 + c1(X).Delta/2 with Delta = 4c l - k^2 H^2, and
D = 0 identically when c1(X) = 0; with c1(X) = tH and H.l = p != 0 the
coefficient of c is a = 2tp, which vanishes only when t = 0.

Reports carry either explicit congruence-class witnesses or a single-modulus
impossibility certificate, and every verdict is double-checked by dumb
exhaustive enumeration over the requested rectangle, because a certified
claim should not depend on the clever path being right.  When A = 0 every
point is a witness, and the report holds the rectangle itself as a
``WitnessRectangle`` rather than one pair per point.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, compress, product, repeat

from .chow import CurveClass, DivClass, Threefold, _Frozen
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
from .rationals import require_ints
from .sheaf import ChernData

ENUM_CAP_ENV = "CHERN3_MAX_ENUM"
_DEFAULT_ENUM_CAP = 10**6
_RECHECK_COLUMNS = 4096  # values of c that the witness re-check, or a WitnessRectangle's iteration, holds at once


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


def _int_range(name: str, value: object) -> tuple[int, int]:
    """``value`` as a nonempty range (lo, hi) of ints, or InvalidInput naming ``name``."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise InvalidInput(f"{name}: expected a pair of integers, got {value!r}") from None
    require_ints(name, lo, hi)
    if lo > hi:
        raise InvalidInput(f"{name} [{lo}, {hi}] is empty")
    return lo, hi


class DZeroProblem(namedtuple("_DZeroProblem", "threefold k_range c_range")):
    """Search rectangle for integer (k, c) with expected dimension zero."""

    __slots__ = ()

    def __new__(cls, threefold: Threefold, k_range: tuple[int, int], c_range: tuple[int, int]) -> DZeroProblem:
        if not isinstance(threefold, Threefold):
            raise InvalidInput(f"threefold: expected a Threefold, got {type(threefold).__name__}")
        _require_line_lattice(threefold)
        return tuple.__new__(cls, (threefold, _int_range("k_range", k_range), _int_range("c_range", c_range)))

    _make = classmethod(lambda cls, it: cls(*it))


class Obstruction(namedtuple("_Obstruction", "kind modulus description")):
    """Named impossibility certificate: no k satisfies the condition modulo ``modulus``."""

    __slots__ = ()


class Condition(namedtuple("_Condition", "a b e")):
    """Rationals with expected_dim = a c + b k^2 + e."""

    __slots__ = ()


class Normalized(namedtuple("_Normalized", "A B E")):
    """The condition as coprime integers A c + B k^2 + E = 0, leading sign positive."""

    __slots__ = ()


class WitnessRectangle(_Frozen):
    """Every (k, c) of ``k_range`` x ``c_range`` in (k, c) order, built on demand.

    The witnesses of an A = 0 search, where every point is one.  It is
    immutable, and it equals and hashes by its ranges ``ks`` and ``cs``, so
    hashing costs no pair; it equals no tuple.  ``len`` takes constant time,
    and iteration, which is how a report is written, makes each pair by
    ``itertools.product``.  ``product`` copies the ranges it crosses, so the
    rectangle is crossed a few rows at a time: whole rows when a row has at
    most ``_RECHECK_COLUMNS`` points, and one row's block of that many c's
    otherwise.  No cross yields more than ``_RECHECK_COLUMNS`` pairs, and
    iterating a one-row or one-column rectangle of 10^6 points never holds
    all of its values.
    """

    __slots__ = ("ks", "cs")

    def __init__(self, k_range: tuple[int, int], c_range: tuple[int, int]) -> None:
        # Checked as DZeroProblem checks them; the walker writes no empty block.
        (k_lo, k_hi), (c_lo, c_hi) = _int_range("k_range", k_range), _int_range("c_range", c_range)
        object.__setattr__(self, "ks", range(k_lo, k_hi + 1))
        object.__setattr__(self, "cs", range(c_lo, c_hi + 1))

    def __len__(self) -> int:
        return len(self.ks) * len(self.cs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        ks, cs = self.ks, self.cs
        rows = max(1, _RECHECK_COLUMNS // len(cs))  # 1 exactly when a row takes more than one block
        blocks = [cs[i:i + _RECHECK_COLUMNS] for i in range(0, len(cs), _RECHECK_COLUMNS)]
        return chain.from_iterable(
            product(ks[i:i + rows], block) for i in range(0, len(ks), rows) for block in blocks
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is WitnessRectangle:
            return (self.ks, self.cs) == (other.ks, other.cs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ks, self.cs))

    def _ranges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.ks.start, self.ks.stop - 1), (self.cs.start, self.cs.stop - 1)

    def __repr__(self) -> str:
        return "WitnessRectangle(k_range=%r, c_range=%r)" % self._ranges()

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__, not setattr
        return WitnessRectangle, self._ranges()


class DZeroReport(namedtuple("_DZeroReport", "condition normalized relation solvable modulus residues "
                                              "obstruction witnesses k_range c_range grid_checked")):
    """Affine condition, solvability verdict, and in-range witnesses.

    ``modulus``, ``residues`` (a tuple of ints) and ``obstruction`` are None
    where they do not apply.  ``witnesses`` is a tuple of (k, c) int pairs,
    or a ``WitnessRectangle`` when every point of the rectangle is one.
    """

    __slots__ = ()


def _dim_at(X: Threefold, generator: CurveClass, k: int, c: int) -> Fraction:
    """expected_dim of the rank-2 data with c1 = k H, c2 = c l and c3 = 0."""
    return expected_dim(X, ChernData(2, DivClass((k,)), generator * c, Fraction(0)))


def dzero_condition(X: Threefold) -> Condition:
    """Rationals (a, b, e) with expected_dim = a c + b k^2 + e identically.

    Read at (0,0), (0,1), (1,0) and checked at (2,0), (3,0), (1,1): a proof,
    conditional on the weight bound of ``sheaf``.  c1 = kH has weight 1 and
    c2 = c l weight 2, and every c_i the code returns has weight i <= 3, so D
    lies in the span of {1, k, k^2, k^3, c, kc}, and these six points are
    unisolvent for it.
    """
    generator = _require_line_lattice(X)
    e = _dim_at(X, generator, 0, 0)
    a = _dim_at(X, generator, 0, 1) - e
    b = _dim_at(X, generator, 1, 0) - e
    for k, c in ((2, 0), (3, 0), (1, 1)):
        if _dim_at(X, generator, k, c) != a * c + b * k * k + e:
            raise SelfCheckFailed(
                "dzero affine reduction", f"expected_dim at ({k}, {c}) is off a c + b k^2 + e"
            )
    return Condition(a, b, e)


def _normalize(a: Fraction, b: Fraction, e: Fraction) -> Normalized:
    """Clear denominators and divide by the gcd, signed so that A >= 0."""
    scale = math.lcm(a.denominator, b.denominator, e.denominator)
    A, B, E = (int(x * scale) for x in (a, b, e))
    g = math.gcd(A, B, E) or 1
    if A < 0:
        g = -g
    return Normalized(A // g, B // g, E // g)


def relation_str(normalized: tuple[int, int, int]) -> str:
    """Render A c + B k^2 + E = 0 as "A c = B' k^2 + E'" with positive lead."""
    A, B, E = normalized
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


def _residues(B: int, E: int, q: int) -> list[int]:
    return [k for k in range(q) if (B * k * k + E) % q == 0]


def _grid_rows(
    a: Fraction, b: Fraction, e: Fraction, k_range: tuple[int, int], c_range: tuple[int, int]
) -> Iterator[range | list[int]]:
    """For each k of the rectangle, in order, the c with a c + b k^2 + e = 0.

    The independent dumb check behind every dzero verdict: it tests each
    point, on integers it gets by clearing the denominators of (a, b, e)
    itself, and never reads the normalized relation, so a fault in
    _normalize or in the congruence solver cannot hide here.

    The column of values a c is built once; in each row of k, ``list.count``
    compares every one of them with -(b k^2 + e), so every point is still
    tested once per row.  A row whose count is its width is all zeros and
    is the whole c range; otherwise ``list.index`` finds each zero.  Memory
    is one int per c of the range, at most the enumeration cap.
    """
    scale = math.lcm(a.denominator, b.denominator, e.denominator)
    ia, ib, ie = (x.numerator * (scale // x.denominator) for x in (a, b, e))
    c_lo, c_hi = c_range
    whole = range(c_lo, c_hi + 1)
    column = [ia * c for c in whole]
    for k in range(k_range[0], k_range[1] + 1):
        target = -(ib * k * k + ie)
        count = column.count(target)
        if count == len(column):
            yield whole
            continue
        zeros, j = [], -1
        for _ in range(count):
            j = column.index(target, j + 1)
            zeros.append(c_lo + j)
        yield zeros


def solve_dzero(problem: DZeroProblem, *, cap: int | None = None) -> DZeroReport:
    """Decide a c + b k^2 + e = 0 over the integers and enumerate the rectangle.

    ``cap`` bounds the rectangle and the modulus A; None reads CHERN3_MAX_ENUM.

    By the module's lemma A = 0 only for the zero condition, which every
    point solves; modulo 1 that is the residue 0.  Otherwise the congruence
    B k^2 + E = 0 (mod A) is a complete decision procedure, and an
    unsolvable case carries the least divisor q >= 2 of A with no residue
    as its certificate.
    """
    X = problem.threefold
    k_lo, k_hi = problem.k_range
    c_lo, c_hi = problem.c_range
    points = (k_hi - k_lo + 1) * (c_hi - c_lo + 1)
    cap = _enum_cap() if cap is None else cap
    if points > cap:
        raise LimitExceeded(
            f"rectangle has {points} lattice points, above the {ENUM_CAP_ENV} cap {cap}"
        )

    a, b, e = condition = dzero_condition(X)
    A, B, E = normalized = _normalize(a, b, e)
    if A == 0 and (B, E) != (0, 0):
        raise SelfCheckFailed(
            "dzero affine reduction", f"a = 0 but the condition reads {relation_str(normalized)}"
        )
    # The residue and divisor scans take O(A) steps; the same cap bounds them.
    if A > cap:
        raise LimitExceeded(
            f"congruence modulus A = {A} is above the {ENUM_CAP_ENV} cap {cap}"
        )
    modulus = A or 1
    residues = tuple(_residues(B, E, modulus))
    obstruction = None
    if not residues:
        # No residue means A >= 2, since modulo 1 the residue 0 always exists,
        # and then q = A itself has none: the search always ends.
        q = next(q for q in range(2, A + 1) if A % q == 0 and not _residues(B, E, q))
        obstruction = Obstruction(
            "parity" if q == 2 else "congruence",
            q,
            "left side is even, right side is odd"
            if q == 2
            else f"no residue k (mod {q}) satisfies {B}k^2 + {E} = 0 (mod {q})",
        )

    # One pass over the rows of k.  A row's zeros by the solver, the whole c
    # range when A = 0 and else at most one c, must be the grid's; when
    # A != 0 the row's witness then goes through expected_dim and is kept.
    generator = X.curve_lattice[0]  # DZeroProblem checked it
    ks, whole, c3, pairs = range(k_lo, k_hi + 1), range(c_lo, c_hi + 1), Fraction(0), []
    for k, grid_row in zip(ks, _grid_rows(a, b, e, problem.k_range, problem.c_range)):
        row = whole
        if A:
            c, rest = divmod(-(B * k * k + E), A)
            row = [c] if rest == 0 and c in whole else []
        if grid_row != row and list(grid_row) != list(row):  # a range and a list may hold the same c
            raise SelfCheckFailed(
                "dzero grid check", "exhaustive enumeration disagrees with the congruence solver"
            )
        if A and row:
            if expected_dim(X, ChernData(2, DivClass((k,)), generator * c, c3)):
                raise SelfCheckFailed("dzero witness check", f"witness ({k}, {c}) fails re-evaluation")
            pairs.append((k, c))
    # When A = 0 every point is a witness.  They go through expected_dim block
    # by block of at most _RECHECK_COLUMNS values of c, whose curve classes are
    # built once, and in (k, c) order within a block; compress stops at the
    # first whose dimension is not 0.
    if not A:
        for start in range(0, len(whole), _RECHECK_COLUMNS):
            block = whole[start:start + _RECHECK_COLUMNS]
            curves = [generator * c for c in block]
            for k in ks:
                sheaves = map(ChernData, repeat(2), repeat(DivClass((k,))), curves, repeat(c3))
                bad = next(compress(block, map(expected_dim, repeat(X), sheaves)), None)
                if bad is not None:
                    raise SelfCheckFailed("dzero witness check", f"witness ({k}, {bad}) fails re-evaluation")

    return DZeroReport(
        condition=condition,
        normalized=normalized,
        relation=relation_str(normalized),
        solvable=bool(residues),
        modulus=modulus if residues else None,
        residues=residues or None,
        obstruction=obstruction,
        witnesses=tuple(pairs) if A else WitnessRectangle(problem.k_range, problem.c_range),
        k_range=problem.k_range,
        c_range=problem.c_range,
        grid_checked=True,
    )


PresetClaim = namedtuple("PresetClaim", "preset report")


class PaperClaimsReport(namedtuple("_PaperClaimsReport", "entries")):
    """The catalogued presets' claims, each a ``PresetClaim``, and how many are solvable or certified."""

    __slots__ = ()

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


# The rectangle every claim is searched over, for both k and c.
_CLAIMS_GRID = (-50, 50)


def verify_paper_claims() -> PaperClaimsReport:
    """Re-derive the case analysis for the seven catalogued presets.

    Raises ClaimViolation when any computed report disagrees with the
    recorded claim; by construction that signals a build bug, not bad input.
    The grid is fixed, not a user search, so CHERN3_MAX_ENUM does not cap it.
    """
    entries = []
    for name, want_solvable, want_normalized in _CLAIMS:
        X = build_ci(parse_preset(name))
        report = solve_dzero(DZeroProblem(X, _CLAIMS_GRID, _CLAIMS_GRID), cap=_DEFAULT_ENUM_CAP)
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
                    f"expected relation {relation_str(want_normalized)}, "
                    f"computed {relation_str(report.normalized)}",
                )
            if not report.witnesses:
                raise ClaimViolation(name, "solvable but no witness in the search range")
        else:
            if report.obstruction is None:
                raise ClaimViolation(name, "unsolvable but no certificate produced")
            if report.witnesses:
                raise ClaimViolation(name, f"witnesses {report.witnesses[:3]} contradict the claim")
        entries.append(PresetClaim(name, report))
    return PaperClaimsReport(tuple(entries))
