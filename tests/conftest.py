import itertools
import random
from collections.abc import Iterator
from fractions import Fraction

import pytest

from chern3.chow import CurveClass, DivClass, Threefold, make_threefold
from chern3.ci import CIPreset, build_ci
from chern3.sheaf import ChernData


# P1 x P2: g0 the class of a fibre, g1 the pulled-back hyperplane, g0.g1.g1 = 1.
P1_X_P2 = (["g0", "g1"], (((0, 0), (0, 1)), ((0, 1), (1, 0))), (2, 3), (3, 6))


@pytest.fixture
def quadric():
    return build_ci(CIPreset(4, (2,)))


@pytest.fixture
def p3():
    return build_ci(CIPreset(3, ()))


@pytest.fixture
def quintic():
    return build_ci(CIPreset(4, (5,)))


@pytest.fixture
def ci23():
    return build_ci(CIPreset(5, (2, 3)))


def random_rat(rng: random.Random, span: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_symmetric_form(rng: random.Random, m: int):
    entries = {}
    for idx in itertools.combinations_with_replacement(range(m), 3):
        entries[idx] = random_rat(rng)
    return tuple(
        tuple(
            tuple(entries[tuple(sorted((i, j, k)))] for k in range(m)) for j in range(m)
        )
        for i in range(m)
    )


def random_threefold(rng: random.Random, m: int | None = None, zero_c1: bool = False) -> Threefold:
    m = m or rng.randint(1, 3)
    T = random_symmetric_form(rng, m)
    if zero_c1:
        c1 = DivClass.zero(m)
    else:
        while True:
            c1 = DivClass(tuple(random_rat(rng) for _ in range(m)))
            if not c1.is_zero:
                break
    c2 = CurveClass(tuple(random_rat(rng) for _ in range(m)))
    return make_threefold([f"g{i}" for i in range(m)], T, c1, c2)


def random_div(rng: random.Random, X: Threefold) -> DivClass:
    return DivClass(tuple(random_rat(rng) for _ in range(X.m)))


def random_curve(rng: random.Random, X: Threefold) -> CurveClass:
    return CurveClass(tuple(random_rat(rng) for _ in range(X.m)))


def random_chern(rng: random.Random, X: Threefold, rank: int | None = None) -> ChernData:
    rank = rank or rng.randint(1, 4)
    return ChernData(rank, random_div(rng, X), random_curve(rng, X), random_rat(rng))


def lattice_points(n: int, d: int = 3) -> Iterator[tuple[int, ...]]:
    """Every x in N^n with sum x <= d, as C(n + d, d) tuples.

    The set is unisolvent for polynomials of degree <= d (Chung and Yao,
    SIAM J. Numer. Anal. 14, 1977): one that vanishes on it is 0.  Each
    point is a multiset of d slots out of n + 1, the last slot the slack.
    """
    for slots in itertools.combinations_with_replacement(range(n + 1), d):
        x = [0] * (n + 1)
        for i in slots:
            x[i] += 1
        yield tuple(x[:n])


# The threefolds of the lattice proofs, of Picard rank 1 and 2, and their sheaf ranks.
PROOF_THREEFOLDS = (build_ci(CIPreset(4, (2,))), make_threefold(*P1_X_P2))
PROOF_RANKS = range(1, 5)


def lattice_data(X: Threefold, ranks: tuple[int, ...], divisors: int = 0) -> Iterator[tuple]:
    """Sheaves of the given ranks, then ``divisors`` divisor classes, at every
    point of ``lattice_points`` in their coordinates: c1, c2 and c3 of each
    sheaf (2m + 1 of them on X of Picard rank m), then m per divisor class.

    The outputs of the sheaf operations have weight <= 3 in these coordinates
    (see the ``chern3.sheaf`` docstring), so two sides of an identity differ
    by a polynomial of degree <= 3, and agreeing here proves the identity for
    all rational data of these ranks on X.
    """
    m = X.m
    for x in lattice_points(len(ranks) * (2 * m + 1) + divisors * m):
        coords = iter(x)
        take = lambda n: tuple(itertools.islice(coords, n))
        sheaves = tuple(ChernData(r, DivClass(take(m)), CurveClass(take(m)), next(coords)) for r in ranks)
        yield sheaves + tuple(DivClass(take(m)) for _ in range(divisors))
