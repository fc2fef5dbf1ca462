import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chern3.chow import (
    CurveClass,
    DivClass,
    mul_div_div,
    pair_div_curve,
    todd_genus,
    triple,
)
from chern3.ci import CIPreset, build_ci
from chern3.dzero import DZeroProblem
from chern3.errors import DegenerateLine, DimensionMismatch, InvalidInput, NonIntegralRank
from chern3.rationals import rat
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
from chern3.splitting import ScalarChern, tensor_closed_form, verify_tensor_formulas

from conftest import PROOF_RANKS, PROOF_THREEFOLDS, lattice_data, random_chern, random_div, random_threefold


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
    for X, rank in itertools.product(PROOF_THREEFOLDS, PROOF_RANKS):
        for (F,) in lattice_data(X, (rank,)):
            assert from_character(X, to_character(X, F)) == F


def test_from_character_rejects_non_integral_rank(quadric):
    for ch0 in (Fraction(3, 2), 0):
        bad = CharacterData(ch0, DivClass((0,)), CurveClass((0,)), 0)
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
    # A pair of sheaves has 286 lattice points at Picard rank 2 and a triple
    # 816, so there each proof takes one rank tuple.
    quadric, p1_x_p2 = PROOF_THREEFOLDS
    pairs = [(quadric, (r, r % 4 + 1)) for r in PROOF_RANKS]
    for X, ranks in pairs + [(p1_x_p2, (3, 4))]:
        for E, F in lattice_data(X, ranks):
            assert tensor(X, E, F) == tensor(X, F, E)
    triples = [(quadric, (r, r % 4 + 1, (r + 1) % 4 + 1)) for r in PROOF_RANKS]
    for X, ranks in triples + [(p1_x_p2, (2, 3, 4))]:
        for E, F, G in lattice_data(X, ranks):
            assert tensor(X, tensor(X, E, F), G) == tensor(X, E, tensor(X, F, G))


def test_tensor_matches_closed_form_on_quadric(quadric):
    # m = 1 classes are multiples of powers of H: identify coefficients via
    # H^3 = 2 and compare with the scalar closed-form route.
    t = Fraction(2)
    scalar = lambda D: ScalarChern(
        D.c1.coords[0], D.c2.coords[0] / t, D.c3 / t
    )
    rng = random.Random(41)
    for _ in range(50):
        E = random_chern(rng, quadric)
        F = random_chern(rng, quadric)
        predicted = tensor_closed_form(E.rank, F.rank, scalar(E), scalar(F))
        actual = scalar(tensor(quadric, E, F))
        assert (actual.c1, actual.c2, actual.c3) == (
            predicted.c1,
            predicted.c2,
            predicted.c3,
        )
    # The proof, at the 84 lattice points of E's and F's six coordinates.
    for ranks in itertools.product(PROOF_RANKS, repeat=2):
        for E, F in lattice_data(quadric, ranks):
            predicted = tensor_closed_form(E.rank, F.rank, scalar(E), scalar(F))
            assert scalar(tensor(quadric, E, F)) == predicted


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
    for X, rank in itertools.product(PROOF_THREEFOLDS, PROOF_RANKS):
        for (F,) in lattice_data(X, (rank,)):
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
    # 220 lattice points per rank at Picard rank 2, so there one rank is proved.
    quadric, p1_x_p2 = PROOF_THREEFOLDS
    for X, rank in [(quadric, rank) for rank in PROOF_RANKS] + [(p1_x_p2, 3)]:
        for F, L, M in lattice_data(X, (rank,), divisors=2):
            assert twist(X, twist(X, F, L), M) == twist(X, F, L + M)


def test_twist_names_a_wrong_length_line_bundle(quadric):
    F = ChernData(2, (1,), (1,), 0)
    with pytest.raises(DimensionMismatch, match=r"^divisor class has length 2, expected 1$"):
        twist(quadric, F, DivClass((1, 2)))


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
    for X, rank in itertools.product(PROOF_THREEFOLDS, PROOF_RANKS):
        for F, L in lattice_data(X, (rank,), divisors=1):
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


def todd_route(X, F):
    # independent reformulation: chi = ch3 + ch2.c1(X)/2
    #   + ch1.(c1(X)^2 + c2(X))/12 + rank c1(X).c2(X)/24
    ch = to_character(X, F)
    return (
        ch.ch3
        + pair_div_curve(X, X.c1X, ch.ch2) / 2
        + (
            triple(X, X.c1X, X.c1X, ch.ch1)
            + pair_div_curve(X, ch.ch1, X.c2X)
        )
        / 12
        + ch.ch0 * pair_div_curve(X, X.c1X, X.c2X) / 24
    )


def test_euler_char_matches_todd_class_route():
    rng = random.Random(137)
    for _ in range(100):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        assert euler_char(X, F) == todd_route(X, F)
    for X, rank in itertools.product(PROOF_THREEFOLDS, PROOF_RANKS):
        for (F,) in lattice_data(X, (rank,)):
            assert euler_char(X, F) == todd_route(X, F)


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
    # the guard names the sheaf data before a deeper length check can fire
    message = r"^sheaf data of length \(2, 2\) does not live on a threefold with 1 generators$"
    with pytest.raises(DimensionMismatch, match=message):
        euler_char(quadric, F)
    with pytest.raises(DimensionMismatch, match=message):
        tensor(quadric, F, F)


def test_from_character_rejects_data_of_another_threefold(quadric):
    ch = CharacterData(2, DivClass((1, 0)), CurveClass((0, 0)), 0)
    with pytest.raises(DimensionMismatch, match="^character data does not match the threefold$"):
        from_character(quadric, ch)


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


@pytest.mark.parametrize("build", [
    lambda: rat(1.5),
    lambda: DivClass((1, 1.5)),
    lambda: ChernData(2, (1.5,), (0,), 0),
    lambda: ChernData(2, (1,), (0,), 1.5),
    lambda: ScalarChern(0, 1.5, 0),
    lambda: ChernData(2, DivClass((1,)), CurveClass((0,)), 1.5),
    lambda: CIPreset(4, (2.9,)),
    lambda: CIPreset(4.0, (2,)),
    lambda: DZeroProblem(build_ci(CIPreset(4, (2,))), (-1.5, 2.7), (0, 1)),
    lambda: verify_tensor_formulas(max_rank=2.5),
    lambda: verify_tensor_formulas(trials=2.5),
    lambda: verify_tensor_formulas(seed=1.5),
], ids=["rat", "DivClass", "ChernData.c1", "ChernData.c3", "ScalarChern", "ChernData.c3 beside classes",
        "CIPreset.degrees", "CIPreset.ambient", "DZeroProblem.k_range", "max_rank", "trials", "seed"])
def test_floats_are_rejected_everywhere(build):
    with pytest.raises(InvalidInput, match="got float"):
        build()


@pytest.mark.parametrize("rank", [0, True, 2.0])
def test_chern_data_rank_must_be_a_positive_integer(rank):
    with pytest.raises(InvalidInput, match="rank must be a positive integer"):
        ChernData(rank, (0,), (0,), 0)


@pytest.mark.parametrize("build, message", [
    (lambda: ChernData(2, DivClass((1,)), DivClass((1,)), 0), "cannot use DivClass as CurveClass"),
    (lambda: ChernData(2, CurveClass((1,)), CurveClass((1,)), 0), "cannot use CurveClass as DivClass"),
    (lambda: CharacterData(2, DivClass((1,)), DivClass((1,)), 0), "cannot use DivClass as CurveClass"),
    (lambda: CharacterData(2, CurveClass((1,)), CurveClass((1,)), 0), "cannot use CurveClass as DivClass"),
    # exact c3: each class is still checked, not only when all three types fit
    (lambda: ChernData(2, DivClass((1,)), DivClass((1,)), Fraction(0)), "cannot use DivClass as CurveClass"),
    (lambda: ChernData(2, CurveClass((1,)), CurveClass((1,)), Fraction(0)), "cannot use CurveClass as DivClass"),
    # a string is not split into digits, nor is a scalar a class
    (lambda: ChernData(2, "12", "34", 0), "^DivClass: expected a sequence of rationals, got '12'$"),
    (lambda: ChernData(2, (1,), "34", 0), "^CurveClass: expected a sequence of rationals, got '34'$"),
    (lambda: ChernData(2, 5, (1,), 0), "^DivClass: expected a sequence of rationals, got 5$"),
    (lambda: CharacterData(2, (1,), b"3", 0), r"^CurveClass: expected a sequence of rationals, got b'3'$"),
])
def test_a_class_of_the_other_codimension_is_named(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


# Each drawn input is a pair (raw, typed): ``typed`` is what a constructor
# coerces ``raw`` to, or None when ``raw`` must be refused with InvalidInput.
_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
_good_rationals = st.one_of(
    st.integers(-50, 50).map(lambda n: (n, Fraction(n))),
    _rationals.map(lambda q: (q, q)),
    _rationals.map(lambda q: (f"{q.numerator}/{q.denominator}", q)),
)
_bad_rationals = st.sampled_from([1.5, 2.0, True, False, "1.5", "x", "1/0", None]).map(lambda v: (v, None))
_ranks = st.one_of(
    st.integers(1, 9).map(lambda r: (r, r)),
    st.sampled_from([0, -1, -7, True, False, 2.0, 1.5, "2", Fraction(2)]).map(lambda v: (v, None)),
)


def _vectors(cls, other):
    coords = st.lists(_good_rationals, min_size=1, max_size=3)
    good = st.one_of(
        coords.map(lambda pairs: ([raw for raw, _ in pairs], cls(tuple(q for _, q in pairs)))),
        coords.map(lambda pairs: (tuple(raw for raw, _ in pairs), cls(tuple(q for _, q in pairs)))),
        coords.map(lambda pairs: (cls(tuple(q for _, q in pairs)),) * 2),
    )
    bad = st.one_of(
        st.tuples(_good_rationals, _bad_rationals).map(lambda pair: ([pair[0][0], pair[1][0]], None)),
        st.sampled_from(["12", "1/2", b"12", 5, Fraction(1, 2), None, other((1,))]).map(lambda v: (v, None)),
    )
    return good | bad


_FIELDS = ("rank", "c1", "c2", "c3")
_BASE = ChernData(1, DivClass((0,)), CurveClass((0,)), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(_ranks, _vectors(DivClass, CurveClass), _vectors(CurveClass, DivClass), _good_rationals | _bad_rationals,
       st.sampled_from(["ChernData", "_make", "_replace"]), st.sets(st.sampled_from(_FIELDS), min_size=1))
def test_every_way_of_making_chern_data_checks_and_coerces(rank, c1, c2, c3, how, replaced):
    raw = dict(zip(_FIELDS, (rank[0], c1[0], c2[0], c3[0])))
    typed = dict(zip(_FIELDS, (rank[1], c1[1], c2[1], c3[1])))
    if how == "_replace":  # the fields not replaced keep the base's values
        raw = {name: raw[name] for name in replaced}
        typed = {**_BASE._asdict(), **{name: typed[name] for name in replaced}}
    build = {"ChernData": lambda: ChernData(*raw.values()), "_make": lambda: ChernData._make(raw.values()),
             "_replace": lambda: _BASE._replace(**raw)}[how]
    if any(value is None for value in typed.values()):
        with pytest.raises(InvalidInput):
            build()
        return
    F = build()
    want = tuple(typed.values())
    assert type(F) is ChernData and F == ChernData(*want) == want and hash(F) == hash(want)
    assert (type(F.rank), type(F.c1), type(F.c2), type(F.c3)) == (int, DivClass, CurveClass, Fraction)
    assert F._asdict() == typed


@settings(max_examples=100, deadline=None)
@given(st.lists(_good_rationals | _bad_rationals, min_size=3, max_size=3),
       st.sampled_from(["ScalarChern", "_make", "_replace"]))
def test_every_way_of_making_scalar_chern_checks_and_coerces(values, how):
    raw = [v for v, _ in values]
    build = {
        "ScalarChern": lambda: ScalarChern(*raw),
        "_make": lambda: ScalarChern._make(raw),
        "_replace": lambda: ScalarChern(0, 0, 0)._replace(c1=raw[0], c2=raw[1], c3=raw[2]),
    }[how]
    if any(q is None for _, q in values):
        with pytest.raises(InvalidInput):
            build()
        return
    c = build()
    assert type(c) is ScalarChern and c == tuple(q for _, q in values)
    # An int stays an int and a Fraction a Fraction; a "p/q" string becomes a Fraction.
    assert [type(x) for x in c] == [int if type(v) is int else Fraction for v in raw]
