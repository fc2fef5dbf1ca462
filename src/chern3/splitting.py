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
formula as concrete numbers: ``_first_disagreement`` reports the values
it compared, as Fractions.  An integer point x decides its whole ray of
rational points: both sides of c_i are homogeneous of degree i, so at t x
each is t^i times its value at x.  Each random root is uniform on the 2^20
integers in [-2^19, 2^19), so a wrong form whose difference is a nonzero
polynomial of degree d in the roots passes a sample with probability at
most d/2^20 (Schwartz, J. ACM 27(4), 1980).

A rank pair is evaluated as one integer kernel, ``_first_disagreement``,
run over the proof's points, then the grid's, then the samples', in that
order, up to the first disagreement.  Points come grouped by E's root list,
each list with its classes: E's and F's classes are computed once per
distinct root list (6 + 6 for the grid, one partition at a time for the
proof), the closed form is called once per point, and the summed roots
a + b are accumulated into e_1, e_2, e_3 in a nested loop over the r1 r2
pairs.  The closed form reads its rank-only coefficients from a per-pair
cache, and the Fraction report is built only when the routes disagree.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .errors import EmptyRoots, InvalidInput, LimitExceeded
from .rationals import rat, rats, require_ints, require_rational_list

_ROOT_BOUND = 10**6
MAX_RANK = 6
MAX_TRIALS = 1000


Scalar = int | Fraction
_SCALAR_TYPES = (int, Fraction)


class ScalarChern(namedtuple("_ScalarChern", "c1 c2 c3")):
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

    _make = classmethod(lambda cls, it: cls(*it))


class RootSpec(namedtuple("_RootSpec", "rootsE rootsF")):
    """Rational Chern roots for a pair of bundles of ranks |rootsE|, |rootsF|."""

    __slots__ = ()

    def __new__(cls, rootsE: Sequence[Scalar | str], rootsF: Sequence[Scalar | str]) -> RootSpec:
        require_rational_list("rootsE", rootsE)
        require_rational_list("rootsF", rootsF)
        rootsE, rootsF = rats(rootsE), rats(rootsF)
        if not rootsE or not rootsF:
            raise EmptyRoots("root lists must be nonempty")
        for root in rootsE + rootsF:
            if abs(root.numerator) > _ROOT_BOUND or root.denominator > _ROOT_BOUND:
                raise InvalidInput(f"root {root} exceeds the 10^6 size bound")
        return tuple.__new__(cls, (rootsE, rootsF))

    _make = classmethod(lambda cls, it: cls(*it))


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
    require_rational_list("roots", roots)
    values = rats(roots)
    if not values:
        raise EmptyRoots("cannot take Chern classes of an empty root list")
    return ScalarChern(*_elementary_symmetric(values))


def tensor_from_roots(spec: RootSpec) -> ScalarChern:
    """Chern classes of the tensor product: e_i of the summed-root multiset."""
    summed = [a + b for a in spec.rootsE for b in spec.rootsF]
    return ScalarChern(*_elementary_symmetric(summed))


@lru_cache(maxsize=64)
def _rank_coefficients(r1: int, r2: int) -> tuple[int, ...]:
    # The rank-only coefficients of the closed form, computed once per rank
    # pair; tensor_closed_form passes it ints only.
    if r1 < 1 or r2 < 1:
        raise InvalidInput("ranks must be positive")
    n = r1 * r2
    k2E, k2F = comb(r2, 2), comb(r1, 2)
    return (
        k2E, k2F, 2 * k2E, 2 * k2F, comb(r2, 3), comb(r1, 3), n - 1, n - 2,
        ((r2 - 1) * (n - 2)) // 2, ((r1 - 1) * (n - 2)) // 2,
    )


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

    With n = r1 r2, written out:

        c1 = r2 c1E + r1 c1F
        c2 = C(r2,2) c1E^2 + r2 c2E + (n-1) c1E c1F + r1 c2F + C(r1,2) c1F^2
        c3 = C(r2,3) c1E^3 + 2 C(r2,2) c1E c2E + (n-2) c1E c2F
             + (r2-1)(n-2)/2 c1E^2 c1F + (r1-1)(n-2)/2 c1E c1F^2
             + (n-2) c2E c1F + 2 C(r1,2) c1F c2F + C(r1,3) c1F^3
             + r2 c3E + r1 c3F

    and evaluated grouped by c1E and c1F.  The ranks must be ints >= 1.
    """
    if type(r1) is not int or type(r2) is not int:
        require_ints("r1", r1)
        require_ints("r2", r2)
    k2E, k2F, d2E, d2F, k3E, k3F, n1, n2, kEEF, kEFF = _rank_coefficients(r1, r2)
    c1E, c2E, c3E = cE.c1, cE.c2, cE.c3
    c1F, c2F, c3F = cF.c1, cF.c2, cF.c3

    c1 = r2 * c1E + r1 * c1F
    c2 = c1E * (k2E * c1E + n1 * c1F) + k2F * c1F * c1F + r2 * c2E + r1 * c2F
    c3 = (
        c1E * (c1E * (k3E * c1E + kEEF * c1F) + kEFF * c1F * c1F + d2E * c2E + n2 * c2F)
        + c1F * (k3F * c1F * c1F + n2 * c2E + d2F * c2F)
        + r2 * c3E
        + r1 * c3F
    )
    return ScalarChern(c1, c2, c3)


ClosedForm = Callable[[int, int, ScalarChern, ScalarChern], ScalarChern]


Counterexample = namedtuple("Counterexample", "spec closed_form from_roots")
RankPairResult = namedtuple("RankPairResult", "r1 r2 passed grid_checks counterexample")


class TensorFormulaReport(namedtuple("_TensorFormulaReport", "max_rank trials seed ok pairs")):
    """``ok`` is true when every rank pair passed; ``pairs`` holds a ``RankPairResult`` per pair."""

    __slots__ = ()


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


def _random_points(rng: random.Random, n_roots: int, trials: int) -> Iterator[Sequence[int]]:
    # Integer roots, E's first, one draw each, uniform on [-2^19, 2^19): within RootSpec's bound.
    for _ in range(trials):
        yield [rng.getrandbits(20) - 2**19 for _ in range(n_roots)]


def _with_classes(roots: Sequence[int]) -> tuple[Sequence[int], ScalarChern]:
    # Integer roots have integer classes: nothing for ScalarChern to check or coerce.
    return roots, tuple.__new__(ScalarChern, _elementary_symmetric(roots))


# A run of points: each of E's root lists with the F root lists it meets, in
# order, every list with its classes: (rootsE, cE, ((rootsF, cF), ...)).
_Group = tuple[Sequence[int], ScalarChern, Sequence[tuple[Sequence[int], ScalarChern]]]


def _first_disagreement(
    form: ClosedForm, r1: int, r2: int, groups: Iterable[_Group]
) -> tuple[int, Counterexample | None]:
    """Compare both routes at each point of ``groups`` in order, up to the first disagreement.

    Returns the number of points compared and the disagreement, if any,
    reported as Fractions with the values compared.  Each point calls the
    closed form once, with its root lists' classes, and sums the r1 r2
    roots a + b into e_1, e_2, e_3 in a nested loop.
    """
    checked = 0
    for rootsE, cE, pointsF in groups:
        for rootsF, cF in pointsF:
            checked += 1
            predicted = form(r1, r2, cE, cF)
            e1 = e2 = e3 = 0
            for a in rootsE:
                for b in rootsF:
                    s = a + b
                    e3 += s * e2
                    e2 += s * e1
                    e1 += s
            compared = (predicted.c1, predicted.c2, predicted.c3)
            if compared != (e1, e2, e3):
                spec, actual = RootSpec(rootsE, rootsF), (e1, e2, e3)
                return checked, Counterexample(spec, ScalarChern(*rats(compared)), ScalarChern(*rats(actual)))
    return checked, None


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

    The kernel takes these points in ``_orbit_points`` order, E's partition
    by E's partition, and for each the F partitions of small enough size in
    turn; each partition's classes are computed once for the pair, and the
    first disagreement ends the proof.
    """
    pointsF = [(_with_classes(rootsF), sum(rootsF)) for rootsF in _orbit_points(r2)]
    groups = []
    for rootsE in _orbit_points(r1):
        size = sum(rootsE)
        groups.append((*_with_classes(rootsE), [pointF for pointF, sizeF in pointsF if size + sizeF <= 3]))
    return _first_disagreement(form, r1, r2, groups)[1] is None


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
            gridF = [_with_classes(pf) for pf in _grid_patterns(r2)]
            grid = [(*_with_classes(pe), gridF) for pe in _grid_patterns(r1)]
            checked, counterexample = _first_disagreement(form, r1, r2, grid)
            if counterexample is None:
                rng = random.Random(seed * 10007 + r1 * 101 + r2)
                samples = (
                    (*_with_classes(point[:r1]), (_with_classes(point[r1:]),))
                    for point in _random_points(rng, r1 + r2, trials)
                )
                counterexample = _first_disagreement(form, r1, r2, samples)[1]
            passed = proved and counterexample is None
            pairs.append(RankPairResult(r1, r2, passed, checked, counterexample))
    return TensorFormulaReport(max_rank, trials, seed, all(p.passed for p in pairs), tuple(pairs))
