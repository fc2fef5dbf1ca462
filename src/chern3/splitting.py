"""Independent verification of the closed-form tensor Chern-class formulas.

By the splitting principle, any polynomial identity in the Chern classes of
two bundles may be certified by specializing their Chern roots to rational
numbers: the identity in question has degree at most 3 in at most 8 root
variables, so agreement at a few hundred random rational points makes a
false positive vanishingly improbable, and exact Fraction arithmetic rules
out rounding artifacts entirely.  A fixed grid of small-integer root
patterns is checked as well so that failures replay without a seed.

``tensor_closed_form`` transcribes the rank-by-rank closed formulas for
c_i(E (x) F); ``tensor_from_roots`` computes the same classes directly as
elementary symmetric polynomials of the summed roots.  The two routes are
independent, which is the point: each one certifies the other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

from .errors import EmptyRoots, InvalidInput, LimitExceeded
from .rationals import rat, rats

_ROOT_BOUND = 10**6


@dataclass(frozen=True)
class ScalarChern:
    """Chern classes specialized to scalars (products are plain multiplication)."""

    c1: Fraction
    c2: Fraction
    c3: Fraction

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3"):
            object.__setattr__(self, name, rat(getattr(self, name)))


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


def _elementary_symmetric(roots: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    e = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    for r in roots:
        for i in (3, 2, 1):
            e[i] += r * e[i - 1]
    return e[1], e[2], e[3]


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

    Binomial coefficients C(r, k) vanish for r < k, which makes the
    formulas uniform over all ranks >= 1.  The c3(E) and c3(F)
    contributions carry the complementary rank alone: specializing F to a
    trivial bundle of rank r2 turns the product into the direct sum of r2
    copies of E, whose total Chern class is c(E)^r2, so c3(E) enters with
    coefficient exactly r2 (column-by-column, the multinomial expansion of
    c(E)^r2 contributes r2 c3 + r2(r2-1) c1 c2 + C(r2,3) c1^3 in degree 3).
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
        + Fraction(r2 - 1, 2) * (n - 2) * c1E**2 * c1F
        + Fraction(r1 - 1, 2) * (n - 2) * c1E * c1F**2
        + (n - 2) * c2E * c1F
        + 2 * comb(r1, 2) * c1F * c2F
        + comb(r1, 3) * c1F**3
        + r2 * c3E
        + r1 * c3F
    )
    return ScalarChern(c1, c2, c3)


@dataclass(frozen=True)
class Counterexample:
    spec: RootSpec
    closed_form: ScalarChern
    from_roots: ScalarChern


@dataclass(frozen=True)
class RankPairResult:
    r1: int
    r2: int
    passed: bool
    grid_checks: int
    counterexample: Counterexample | None


@dataclass(frozen=True)
class TensorFormulaReport:
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


def _random_spec(rng: random.Random, r1: int, r2: int) -> RootSpec:
    def draw(rank: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rank)
        )

    return RootSpec(draw(r1), draw(r2))


def _check_spec(
    spec: RootSpec, closed_form: Callable[[int, int, ScalarChern, ScalarChern], ScalarChern]
) -> Counterexample | None:
    cE = chern_from_roots(spec.rootsE)
    cF = chern_from_roots(spec.rootsF)
    predicted = closed_form(len(spec.rootsE), len(spec.rootsF), cE, cF)
    actual = tensor_from_roots(spec)
    if predicted != actual:
        return Counterexample(spec, predicted, actual)
    return None


def verify_tensor_formulas(
    max_rank: int = 4,
    trials: int = 100,
    seed: int = 42,
    closed_form: Callable[[int, int, ScalarChern, ScalarChern], ScalarChern] | None = None,
) -> TensorFormulaReport:
    """Randomized plus fixed-grid identity check over all rank pairs up to max_rank.

    Identity failures are report content, never exceptions; the first
    counterexample per rank pair is recorded so a red run replays directly.
    """
    if max_rank < 1:
        raise InvalidInput("max_rank must be at least 1")
    if max_rank > 6:
        raise LimitExceeded("max_rank is capped at 6 to keep runs in seconds")
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    form = closed_form if closed_form is not None else tensor_closed_form

    pairs = []
    for r1 in range(1, max_rank + 1):
        for r2 in range(1, max_rank + 1):
            rng = random.Random(seed * 10007 + r1 * 101 + r2)
            counterexample = None
            grid_checks = 0
            for pe in _grid_patterns(r1):
                for pf in _grid_patterns(r2):
                    grid_checks += 1
                    counterexample = _check_spec(RootSpec(pe, pf), form)
                    if counterexample is not None:
                        break
                if counterexample is not None:
                    break
            if counterexample is None:
                for _ in range(trials):
                    counterexample = _check_spec(_random_spec(rng, r1, r2), form)
                    if counterexample is not None:
                        break
            pairs.append(
                RankPairResult(r1, r2, counterexample is None, grid_checks, counterexample)
            )
    return TensorFormulaReport(max_rank, trials, seed, all(p.passed for p in pairs), tuple(pairs))
