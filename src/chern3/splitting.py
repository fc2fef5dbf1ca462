"""Proof and replayable checks of the closed-form tensor Chern-class formulas.

``tensor_closed_form`` transcribes the rank-by-rank closed formulas for
c_i(E (x) F); ``tensor_from_roots`` computes the same classes directly, by
the splitting principle, as elementary symmetric polynomials of the summed
Chern roots.  The two routes are independent, which is the point: each one
certifies the other.

``verify_tensor_formulas`` proves the identity for each rank pair by a
finite check.  Both sides of c_i are symmetric in E's roots and in F's
roots and homogeneous of degree i <= 3, so they agree everywhere once they
agree at the sorted points of the lattice {x in N^(r1 + r2) : sum x <= 3}:
E's roots a partition padded with zeros, F's roots another, of total size
at most 3.  That is at most 18 integer points per pair (``_proved``).
The same identity is then evaluated at 36 fixed small-integer root patterns
and at seeded random integer points: replayable samples that show a wrong
formula as concrete numbers: ``_counterexample`` reports the values it
compared, as Fractions.  An integer point x decides its whole ray of
rational points: both sides of c_i are homogeneous of degree i, so at t x
each is t^i times its value at x.  Each random root is uniform on the 2^20
integers in [-2^19, 2^19), so a wrong form whose difference is a nonzero
polynomial of degree d in the roots passes a sample with probability at
most d/2^20 (Schwartz, J. ACM 27(4), 1980).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptyRoots, InvalidInput, LimitExceeded
from .rationals import rat, rats, require_ints

_ROOT_BOUND = 10**6
MAX_RANK = 6
MAX_TRIALS = 1000


Scalar = int | Fraction
_SCALAR_TYPES = (int, Fraction)


class _ScalarFields(NamedTuple):
    c1: Scalar
    c2: Scalar
    c3: Scalar


class ScalarChern(_ScalarFields):
    """Chern classes specialized to numbers: ints or Fractions.

    A "p/q" string from the API is parsed to a Fraction; ints and Fractions
    are kept as they are, and floats and bools are rejected.  A named tuple
    built and checked in one step, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, c1: Scalar, c2: Scalar, c3: Scalar) -> ScalarChern:
        if type(c1) not in _SCALAR_TYPES or type(c2) not in _SCALAR_TYPES or type(c3) not in _SCALAR_TYPES:
            c1, c2, c3 = (v if type(v) in _SCALAR_TYPES else rat(v) for v in (c1, c2, c3))
        return tuple.__new__(cls, (c1, c2, c3))

    @classmethod
    def _make(cls, iterable: Iterable) -> ScalarChern:
        return cls(*iterable)


@dataclass(frozen=True)
class RootSpec:
    """Rational Chern roots for a pair of bundles of ranks |rootsE|, |rootsF|."""

    rootsE: tuple[Fraction, ...]
    rootsF: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rootsE", rats(self.rootsE))
        object.__setattr__(self, "rootsF", rats(self.rootsF))
        if not self.rootsE or not self.rootsF:
            raise EmptyRoots("root lists must be nonempty")
        for root in self.rootsE + self.rootsF:
            if abs(root.numerator) > _ROOT_BOUND or root.denominator > _ROOT_BOUND:
                raise InvalidInput(f"root {root} exceeds the 10^6 size bound")


def _elementary_symmetric(roots: Sequence[Scalar]) -> tuple[Scalar, Scalar, Scalar]:
    e1: Scalar = 0
    e2: Scalar = 0
    e3: Scalar = 0
    for r in roots:
        e3 += r * e2
        e2 += r * e1
        e1 += r
    return e1, e2, e3


def chern_from_roots(roots: Sequence[Fraction | int | str]) -> ScalarChern:
    """c_i = e_i(roots), the elementary symmetric polynomials (0 past the rank)."""
    values = rats(roots)
    if not values:
        raise EmptyRoots("cannot take Chern classes of an empty root list")
    return ScalarChern(*_elementary_symmetric(values))


def tensor_from_roots(spec: RootSpec) -> ScalarChern:
    """Chern classes of the tensor product: e_i of the summed-root multiset."""
    summed = [a + b for a in spec.rootsE for b in spec.rootsF]
    return ScalarChern(*_elementary_symmetric(summed))


def tensor_closed_form(r1: int, r2: int, cE: ScalarChern, cF: ScalarChern) -> ScalarChern:
    """Closed-form c_i(E (x) F) for rank(E) = r1, rank(F) = r2.

    Every coefficient is an integer, so int classes give int classes: the
    proof and the samples evaluate it on ints.  Binomial coefficients C(r, k)
    vanish for r < k, which makes the formulas uniform over all ranks >= 1,
    and (r - 1)(n - 2) is always even.  The c3(E) and c3(F) contributions carry the complementary
    rank alone: specializing F to a trivial bundle of rank r2 turns the
    product into the direct sum of r2 copies of E, whose total Chern class
    is c(E)^r2, so c3(E) enters with coefficient exactly r2
    (column-by-column, the multinomial expansion of c(E)^r2 contributes
    r2 c3 + r2(r2-1) c1 c2 + C(r2,3) c1^3 in degree 3).
    """
    if r1 < 1 or r2 < 1:
        raise InvalidInput("ranks must be positive")
    n = r1 * r2
    c1E, c2E, c3E = cE.c1, cE.c2, cE.c3
    c1F, c2F, c3F = cF.c1, cF.c2, cF.c3

    c1 = r2 * c1E + r1 * c1F
    c2 = (
        comb(r2, 2) * c1E**2
        + r2 * c2E
        + (n - 1) * c1E * c1F
        + r1 * c2F
        + comb(r1, 2) * c1F**2
    )
    c3 = (
        comb(r2, 3) * c1E**3
        + 2 * comb(r2, 2) * c1E * c2E
        + (n - 2) * c1E * c2F
        + ((r2 - 1) * (n - 2)) // 2 * c1E**2 * c1F
        + ((r1 - 1) * (n - 2)) // 2 * c1E * c1F**2
        + (n - 2) * c2E * c1F
        + 2 * comb(r1, 2) * c1F * c2F
        + comb(r1, 3) * c1F**3
        + r2 * c3E
        + r1 * c3F
    )
    return ScalarChern(c1, c2, c3)


ClosedForm = Callable[[int, int, ScalarChern, ScalarChern], ScalarChern]


class Counterexample(NamedTuple):
    spec: RootSpec
    closed_form: ScalarChern
    from_roots: ScalarChern


class RankPairResult(NamedTuple):
    r1: int
    r2: int
    passed: bool
    grid_checks: int
    counterexample: Counterexample | None


class TensorFormulaReport(NamedTuple):
    """``ok`` is true when every rank pair passed."""

    max_rank: int
    trials: int
    seed: int
    ok: bool
    pairs: tuple[RankPairResult, ...]


def _grid_patterns(rank: int) -> tuple[tuple[int, ...], ...]:
    # Deterministic small-integer root patterns; enough variety to separate
    # every monomial of degree <= 3 while staying replayable without a seed.
    return (
        (0,) * rank,
        (1,) * rank,
        tuple(range(1, rank + 1)),
        tuple((-1) ** i for i in range(rank)),
        tuple((i % 3) - 1 for i in range(rank)),
        tuple(2 * i - rank for i in range(rank)),
    )


_GRID_CHECKS = 36  # 6 patterns for E times 6 for F


def _grid_points(r1: int, r2: int) -> Iterator[Sequence[int]]:
    for pe in _grid_patterns(r1):
        for pf in _grid_patterns(r2):
            yield pe + pf


def _random_points(rng: random.Random, n_roots: int, trials: int) -> Iterator[Sequence[int]]:
    # Integer roots, E's first, one draw each, uniform on [-2^19, 2^19): within RootSpec's bound.
    for _ in range(trials):
        yield [rng.getrandbits(20) - 2**19 for _ in range(n_roots)]


def _counterexample(
    form: ClosedForm, r1: int, r2: int, rootsE: Sequence[Scalar], rootsF: Sequence[Scalar]
) -> Counterexample | None:
    """Compare both routes once at these roots; report a disagreement with the values compared."""
    cE = ScalarChern(*_elementary_symmetric(rootsE))
    cF = ScalarChern(*_elementary_symmetric(rootsF))
    predicted = form(r1, r2, cE, cF)
    compared = (predicted.c1, predicted.c2, predicted.c3)
    actual = _elementary_symmetric([a + b for a in rootsE for b in rootsF])
    if compared == actual:
        return None
    return Counterexample(RootSpec(rootsE, rootsF), ScalarChern(*rats(compared)), ScalarChern(*rats(actual)))


def _orbit_points(rank: int) -> list[tuple[int, ...]]:
    # Every partition of size <= 3 into at most ``rank`` parts, padded with zeros.
    return [roots for roots in combinations_with_replacement(range(4), rank) if sum(roots) <= 3]


def _proved(form: ClosedForm, r1: int, r2: int) -> bool:
    """Check both routes at one point per orbit of the degree-3 lattice.

    Let P_i = form(...).c_i - e_i(summed roots).  The form sees only e_j(E)
    and e_j(F), so P_i is invariant under permuting E's roots and F's roots,
    and it has degree <= 3 in the roots, as both sides of c_i are homogeneous
    of degree i.  A P of degree <= d vanishing on {x in N^n : sum x <= d} is 0,
    by induction on n + d: P(0, x') vanishes on the lattice of n - 1
    variables, so P = x1 Q, and Q(x1 + 1, x') vanishes on the lattice of
    degree d - 1, so Q = 0.  By invariance, vanishing on the lattice is
    vanishing at one sorted point per orbit, which is a pair of partitions.
    """
    pointsF = _orbit_points(r2)
    return all(
        _counterexample(form, r1, r2, rootsE, rootsF) is None
        for rootsE in _orbit_points(r1)
        for rootsF in pointsF
        if sum(rootsE) + sum(rootsF) <= 3
    )


def verify_tensor_formulas(
    max_rank: int = 4,
    trials: int = 100,
    seed: int = 42,
    closed_form: ClosedForm | None = None,
) -> TensorFormulaReport:
    """Prove, then sample, the closed form for every rank pair up to max_rank.

    ``closed_form`` must work on ints and Fractions, as ``tensor_closed_form``
    does.  A pair passes when the proof's partition points, all 36 grid
    points and all ``trials`` random points agree.
    Identity failures are report content, never exceptions; the first
    sampled counterexample per rank pair is recorded so a red run replays
    directly (a pair refuted by the proof alone has none).
    """
    for name, value in (("max_rank", max_rank), ("trials", trials), ("seed", seed)):
        require_ints(name, value)
    if max_rank < 1:
        raise InvalidInput("max_rank must be at least 1")
    if max_rank > MAX_RANK:
        raise LimitExceeded(f"max_rank is capped at {MAX_RANK} to keep runs in seconds")
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise LimitExceeded(f"trials is capped at {MAX_TRIALS} to keep runs in seconds")
    form = closed_form if closed_form is not None else tensor_closed_form

    pairs = []
    for r1 in range(1, max_rank + 1):
        for r2 in range(1, max_rank + 1):
            proved = _proved(form, r1, r2)
            rng = random.Random(seed * 10007 + r1 * 101 + r2)
            checked, counterexample = 0, None
            for point in chain(_grid_points(r1, r2), _random_points(rng, r1 + r2, trials)):
                checked += 1
                counterexample = _counterexample(form, r1, r2, point[:r1], point[r1:])
                if counterexample is not None:
                    break
            passed = proved and counterexample is None
            pairs.append(
                RankPairResult(r1, r2, passed, min(checked, _GRID_CHECKS), counterexample)
            )
    return TensorFormulaReport(max_rank, trials, seed, all(p.passed for p in pairs), tuple(pairs))
