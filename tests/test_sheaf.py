import itertools
import random
from fractions import Fraction

import pytest

from chern3.chow import (
    CurveClass,
    DivClass,
    mul_div_div,
    pair_div_curve,
    todd_genus,
    triple,
)
from chern3.ci import CIPreset, build_ci
from chern3.errors import DegenerateLine, DimensionMismatch, NonIntegralRank
from chern3.sheaf import (
    ChernData,
    CharacterData,
    chern_from_json,
    chern_to_json,
    discriminant,
    dual,
    euler_char,
    from_character,
    rr_terms,
    slope,
    tensor,
    to_character,
    twist,
)
from chern3.splitting import ScalarChern, tensor_closed_form

from conftest import random_chern, random_div, random_threefold


def line_bundle(X, coeffs):
    return ChernData(1, DivClass(coeffs), CurveClass.zero(X.m), Fraction(0))


def structure_sheaf(X):
    return line_bundle(X, (0,) * X.m)


# ---------------------------------------------------------------- characters


def test_to_character_trivial(quadric):
    ch = to_character(quadric, ChernData(2, (0,), (0,), 0))
    assert (ch.ch0, ch.ch1, ch.ch2, ch.ch3) == (
        2,
        DivClass((0,)),
        CurveClass((0,)),
        Fraction(0),
    )


def test_to_character_quadric_golden(quadric):
    ch = to_character(quadric, ChernData(2, (1,), (1,), 0))
    assert ch.ch2 == CurveClass((0,))
    assert ch.ch3 == Fraction(-1, 6)


def test_to_character_line_bundle_exponential(quadric):
    # rank 1: ch = (1, L, L^2/2, L^3/6); with L = H on the quadric,
    # pairings are 2/2 = 1 and degree 2/6 = 1/3
    ch = to_character(quadric, line_bundle(quadric, (1,)))
    assert ch.ch2 == CurveClass((1,))
    assert ch.ch3 == Fraction(1, 3)


def test_from_character_round_trips(quadric):
    rng = random.Random(31)
    for _ in range(100):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        assert from_character(X, to_character(X, F)) == F


def test_from_character_rejects_non_integral_rank(quadric):
    bad = CharacterData(Fraction(3, 2), DivClass((0,)), CurveClass((0,)), 0)
    with pytest.raises(NonIntegralRank):
        from_character(quadric, bad)


# ---------------------------------------------------------------- tensor


def test_tensor_unit(quadric):
    rng = random.Random(17)
    unit = structure_sheaf(quadric)
    for _ in range(20):
        F = random_chern(rng, quadric)
        assert tensor(quadric, unit, F) == F


def test_tensor_quadric_golden(quadric):
    E = ChernData(2, (1,), (1,), 0)
    out = tensor(quadric, E, E)
    assert out.rank == 4
    assert out.c1 == DivClass((4,))
    assert out.c2 == CurveClass((14,))
    assert out.c3 == Fraction(12)


def test_tensor_commutative_and_associative():
    rng = random.Random(19)
    for _ in range(30):
        X = random_threefold(rng)
        E, F, G = (random_chern(rng, X) for _ in range(3))
        assert tensor(X, E, F) == tensor(X, F, E)
        assert tensor(X, tensor(X, E, F), G) == tensor(X, E, tensor(X, F, G))


def test_tensor_matches_closed_form_on_quadric(quadric):
    # m = 1 classes are multiples of powers of H: identify coefficients via
    # H^3 = 2 and compare with the scalar closed-form route.
    t = Fraction(2)
    rng = random.Random(41)
    for _ in range(50):
        E = random_chern(rng, quadric)
        F = random_chern(rng, quadric)
        scalar = lambda D: ScalarChern(
            D.c1.coords[0], D.c2.coords[0] / t, D.c3 / t
        )
        predicted = tensor_closed_form(E.rank, F.rank, scalar(E), scalar(F))
        actual = scalar(tensor(quadric, E, F))
        assert (actual.c1, actual.c2, actual.c3) == (
            predicted.c1,
            predicted.c2,
            predicted.c3,
        )


# ---------------------------------------------------------------- dual, twist


def test_dual_sign_rule(quadric):
    F = ChernData(2, (1,), (1,), 4)
    assert dual(quadric, F) == ChernData(2, (-1,), (1,), -4)
    assert dual(quadric, structure_sheaf(quadric)) == structure_sheaf(quadric)


def test_dual_involution():
    rng = random.Random(43)
    for _ in range(50):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        assert dual(X, dual(X, F)) == F


def test_twist_quadric_golden(quadric):
    F = ChernData(2, (1,), (1,), 0)
    out = twist(quadric, F, DivClass((1,)))
    assert out.c1 == DivClass((3,))
    assert out.c2 == CurveClass((5,))


def test_twist_rank2_closed_form():
    rng = random.Random(47)
    for _ in range(40):
        X = random_threefold(rng)
        F = random_chern(rng, X, rank=2)
        L = random_div(rng, X)
        out = twist(X, F, L)
        assert out.c1 == F.c1 + L * 2
        assert out.c2 == F.c2 + mul_div_div(X, F.c1, L) + mul_div_div(X, L, L)


def test_twist_group_action():
    rng = random.Random(53)
    for _ in range(40):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        L = random_div(rng, X)
        assert twist(X, twist(X, F, L), -L) == F
        assert twist(X, F, DivClass.zero(X.m)) == F


# ---------------------------------------------------------------- discriminant


def test_discriminant_goldens(quadric, ci23):
    assert discriminant(quadric, ChernData(2, (1,), (1,), 0)) == CurveClass((2,))
    assert discriminant(ci23, ChernData(2, (1,), (3,), 0)) == CurveClass((6,))
    assert discriminant(quadric, line_bundle(quadric, (7,))).is_zero


def test_discriminant_equals_c2_of_endomorphisms():
    rng = random.Random(59)
    for _ in range(50):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        assert discriminant(X, F) == tensor(X, F, dual(X, F)).c2


def test_discriminant_twist_invariance():
    rng = random.Random(61)
    for _ in range(200):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        L = random_div(rng, X)
        assert discriminant(X, twist(X, F, L)) == discriminant(X, F)


# ---------------------------------------------------------------- Riemann-Roch


def test_euler_char_of_structure_sheaf_is_todd():
    rng = random.Random(67)
    for _ in range(30):
        X = random_threefold(rng)
        assert euler_char(X, structure_sheaf(X)) == todd_genus(X)


def test_euler_char_p3_hyperplane(p3):
    assert euler_char(p3, line_bundle(p3, (1,))) == 4


def test_rr_terms_p3_hyperplane(p3):
    values = [v for _, v in rr_terms(p3, line_bundle(p3, (1,)))]
    assert values == [
        Fraction(1, 6),
        0,
        0,
        1,
        Fraction(4, 3),
        Fraction(1, 2),
        1,
        0,
    ]


def test_euler_char_quadric_rank2_golden(quadric):
    # frozen from a term-by-term hand evaluation:
    # 1/3 - 1/2 - 3/2 + 3/2 + 3/2 + 2/3 + 2 + 0 = 4
    F = ChernData(2, (1,), (1,), 0)
    terms = rr_terms(quadric, F)
    assert [v for _, v in terms] == [
        Fraction(1, 3),
        Fraction(-1, 2),
        Fraction(-3, 2),
        Fraction(3, 2),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(2),
        Fraction(0),
    ]
    assert euler_char(quadric, F) == 4


def binomial_poly(j: int, n: int) -> Fraction:
    # C(j + n, n) as a polynomial in j, exact for every integer j
    num = Fraction(1)
    for i in range(1, n + 1):
        num *= Fraction(j + i, i)
    return num


@pytest.mark.parametrize(
    "ambient,degrees",
    [(3, ()), (4, (2,)), (4, (3,)), (4, (5,)), (5, (2, 3)), (5, (2, 2)), (6, (2, 2, 2))],
)
def test_euler_char_line_bundles_against_koszul_oracle(ambient, degrees):
    # chi(O_X(k)) by inclusion-exclusion over the defining equations,
    # an oracle completely independent of the Riemann-Roch route
    X = build_ci(CIPreset(ambient, degrees))
    for k in range(-6, 7):
        expected = Fraction(0)
        for bits in itertools.product((0, 1), repeat=len(degrees)):
            shift = sum(b * d for b, d in zip(bits, degrees))
            sign = (-1) ** sum(bits)
            expected += sign * binomial_poly(k - shift, ambient)
        assert euler_char(X, line_bundle(X, (k,))) == expected, (ambient, degrees, k)


def test_euler_char_matches_todd_class_route():
    # independent reformulation: chi = ch3 + ch2.c1(X)/2
    #   + ch1.(c1(X)^2 + c2(X))/12 + rank c1(X).c2(X)/24
    rng = random.Random(137)
    for _ in range(100):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        ch = to_character(X, F)
        todd_route = (
            ch.ch3
            + pair_div_curve(X, X.c1X, ch.ch2) / 2
            + (
                triple(X, X.c1X, X.c1X, ch.ch1)
                + pair_div_curve(X, ch.ch1, X.c2X)
            )
            / 12
            + ch.ch0 * pair_div_curve(X, X.c1X, X.c2X) / 24
        )
        assert euler_char(X, F) == todd_route


def test_to_character_is_left_inverse_too():
    rng = random.Random(139)
    for _ in range(100):
        X = random_threefold(rng)
        ch = CharacterData(
            Fraction(rng.randint(1, 5)),
            random_div(rng, X),
            CurveClass(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(X.m))),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        assert to_character(X, from_character(X, ch)) == ch


def test_chi_duality_identity():
    rng = random.Random(71)
    for _ in range(200):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        lhs = euler_char(X, F) + euler_char(X, dual(X, F))
        c1x_c2f = pair_div_curve(X, X.c1X, F.c2)
        c1x_c1f2 = pair_div_curve(X, X.c1X, mul_div_div(X, F.c1, F.c1))
        c1x_c2x = pair_div_curve(X, X.c1X, X.c2X)
        rhs = -c1x_c2f + Fraction(1, 2) * c1x_c1f2 + Fraction(F.rank, 12) * c1x_c2x
        assert lhs == rhs


# ---------------------------------------------------------------- slope


def test_slope_quadric(quadric):
    F = ChernData(2, (1,), (1,), 0)
    assert slope(quadric, F, DivClass((1,))) == Fraction(1, 2)
    assert slope(quadric, structure_sheaf(quadric), DivClass((1,))) == 0
    with pytest.raises(DegenerateLine):
        slope(quadric, F, DivClass((0,)))


def test_dimension_mismatch_surfaces(quadric):
    rng = random.Random(73)
    Y = random_threefold(rng, m=2)
    F = random_chern(rng, Y)
    with pytest.raises(DimensionMismatch):
        euler_char(quadric, F)
    with pytest.raises(DimensionMismatch):
        tensor(quadric, F, F)


def test_chern_json_round_trip(quadric):
    F = ChernData(2, ("1/2",), (3,), "-4/7")
    doc = chern_to_json(F)
    assert doc == {"rank": 2, "c1": ["1/2"], "c2": ["3"], "c3": "-4/7"}
    assert chern_from_json(doc) == F
    del doc["c3"]
    assert chern_from_json(doc).c3 == 0


@pytest.mark.parametrize("c3, value", [(-3, -3), ("-3/4", Fraction(-3, 4)), (Fraction(5, 7), Fraction(5, 7))])
def test_c3_is_a_plain_fraction(c3, value):
    F = ChernData(2, (1,), (1,), c3)
    assert type(F.c3) is Fraction and F.c3 == value
    ch = CharacterData(2, (1,), (1,), c3)
    assert type(ch.ch3) is Fraction and ch.ch3 == value
