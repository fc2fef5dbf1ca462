import itertools
import random
from fractions import Fraction

import pytest

from chern3.chow import CurveClass, DivClass, Threefold, make_threefold
from chern3.ci import CIPreset, build_ci
from chern3.sheaf import ChernData


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
