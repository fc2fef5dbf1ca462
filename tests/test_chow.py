import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chern3.chow import (
    CurveClass,
    DivClass,
    Threefold,
    make_threefold,
    mul_div_div,
    pair_div_curve,
    threefold_from_json,
    threefold_to_json,
    todd_genus,
    triple,
)
from chern3.errors import AsymmetricForm, DimensionMismatch, IntegralityWarning, InvalidInput
from chern3.rationals import rats

from conftest import P1_X_P2, random_div, random_rat, random_threefold


def test_make_threefold_quadric_model(quadric):
    assert quadric.m == 1
    assert quadric.T[0][0][0] == 2
    assert quadric.c1X == DivClass((3,))
    assert quadric.c2X == CurveClass((8,))


def test_make_threefold_p3_model(p3):
    assert p3.T[0][0][0] == 1
    assert p3.c1X == DivClass((4,))
    assert p3.c2X == CurveClass((6,))


def test_make_threefold_rejects_asymmetric_form():
    T = (((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(0))),
         ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(AsymmetricForm):
        make_threefold(["a", "b"], T, (1, 0), (0, 0))


_ASYMMETRIC = (((0, 1), (0, 0)), ((0, 0), (0, 0)))


@pytest.mark.parametrize("build", [
    lambda: make_threefold(P1_X_P2[0], _ASYMMETRIC, *P1_X_P2[2:]),
    lambda: Threefold(P1_X_P2[0], _ASYMMETRIC, *P1_X_P2[2:]),
    lambda: Threefold._make((P1_X_P2[0], _ASYMMETRIC, *P1_X_P2[2:], None)),
    lambda: make_threefold(*P1_X_P2)._replace(T=_ASYMMETRIC),
], ids=["make_threefold", "constructor", "_make", "_replace"])
def test_every_way_in_refuses_an_asymmetric_form(build):
    with pytest.raises(AsymmetricForm, match=r"^T\[0\]\[0\]\[1\] = 1 but T\[0\]\[1\]\[0\] = 0$"):
        build()


# Symmetric forms at Picard rank 2 and 3 with one entry changed, and the first
# unequal pair the symmetry check names, in its loop order.
@pytest.mark.parametrize("m, entries, changed, message", [
    (2, {(0, 1, 1): 1}, {(1, 0, 1): "1/2"}, "T[0][1][1] = 1 but T[1][0][1] = 1/2"),
    (2, {(0, 0, 1): "2/3", (1, 1, 1): 5}, {(1, 0, 0): "-2/3"}, "T[0][0][1] = 2/3 but T[1][0][0] = -2/3"),
    (3, {(0, 1, 2): "3/4", (2, 2, 2): 1}, {(2, 1, 0): "3/5"}, "T[0][1][2] = 3/4 but T[2][1][0] = 3/5"),
    (3, {(1, 1, 2): 2, (0, 0, 0): "1/2"}, {(2, 1, 1): 3}, "T[1][1][2] = 2 but T[2][1][1] = 3"),
])
def test_an_asymmetric_form_names_its_first_unequal_entries(m, entries, changed, message):
    T = [[[entries.get(tuple(sorted((i, j, k))), 0) for k in range(m)] for j in range(m)] for i in range(m)]
    for (i, j, k), value in changed.items():
        T[i][j][k] = value
    with pytest.raises(AsymmetricForm, match=f"^{re.escape(message)}$"):
        Threefold([f"g{i}" for i in range(m)], T, (1,) * m, (0,) * m)


@pytest.mark.parametrize("fields, message", [
    ((5, (((1,),),), (1,), (1,)), "generator_names: expected a sequence of names, got 5"),
    (("Hx", P1_X_P2[1], (1, 1), (1, 1)), "generator_names: expected a sequence of names, got 'Hx'"),
    ((["H"], 5, (1,), (1,)), "T: expected a sequence of planes, got 5"),
    ((["H"], (5,), (1,), (1,)), "T: expected a sequence of rows, got 5"),
    ((["H"], (("1",),), (1,), (1,)), "T: expected a sequence of rationals, got '1'"),
    ((["H"], (((1,),),), (1,), (1,), 5), "curve_lattice: expected a sequence of curve classes, got 5"),
    ((["H"], (((1,),),), 5, (1,)), "c1X: expected a sequence of rationals, got 5"),
    ((["H"], (((1,),),), (1,), "x"), "c2X: expected a sequence of rationals, got 'x'"),
    ((["H"], (((1,),),), (1,), (1,), (5,)), "curve_lattice: expected a sequence of rationals, got 5"),
])
def test_a_field_of_the_wrong_shape_is_refused_by_name(fields, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        Threefold(*fields)


def test_make_threefold_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        make_threefold(["a"], (((1,),),), (1, 2), (1,))
    with pytest.raises(DimensionMismatch, match="at least one divisor generator"):
        make_threefold([], [], [], [])


def test_symmetry_validation_catches_random_perturbation():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(2, 3)
        X = random_threefold(rng, m)
        T = [[[X.T[i][j][k] for k in range(m)] for j in range(m)] for i in range(m)]
        # perturb one off-diagonal entry; a fully repeated index stays symmetric
        while True:
            i, j, k = (rng.randrange(m) for _ in range(3))
            if not i == j == k:
                break
        T[i][j][k] += 1
        with pytest.raises(AsymmetricForm):
            make_threefold(X.generator_names, T, X.c1X, X.c2X)


def test_mul_div_div_quadric(quadric):
    h = DivClass((1,))
    assert mul_div_div(quadric, h, h) == CurveClass((2,))


def test_mul_div_div_bilinear(p3):
    a, b = DivClass((2,)), DivClass((3,))
    assert mul_div_div(p3, a, b) == CurveClass((6,))
    zero = DivClass((0,))
    assert mul_div_div(p3, zero, b).is_zero


def test_pair_div_curve_quadric(quadric):
    assert pair_div_curve(quadric, quadric.c1X, quadric.c2X) == 24


def test_pair_div_curve_ci23(ci23):
    assert pair_div_curve(ci23, ci23.c1X, ci23.c2X) == 24
    assert pair_div_curve(ci23, DivClass((0,)), ci23.c2X) == 0


def test_triple_degrees(quadric, ci23, p3):
    h = DivClass((1,))
    assert triple(quadric, h, h, h) == 2
    assert triple(ci23, h, h, h) == 6
    assert triple(p3, h, h, DivClass((-1,))) == -1
    assert type(triple(quadric, h, h, h)) is Fraction
    assert type(pair_div_curve(quadric, h, quadric.c2X)) is Fraction


def test_todd_genus_values(quadric, quintic, p3):
    assert todd_genus(quadric) == 1
    assert todd_genus(quintic) == 0
    assert todd_genus(p3) == 1


def test_quintic_model_fields(quintic):
    assert quintic.T[0][0][0] == 5
    assert quintic.c1X.is_zero
    assert quintic.c2X == CurveClass((50,))


def test_exact_arithmetic_associativity_and_lowest_terms():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (random_rat(rng, span=50, max_den=40) for _ in range(3))
        assert (a + b) + c == a + (b + c)
    stored = DivClass((Fraction(2, 4), "6/9"))
    assert stored.coords[0] == Fraction(1, 2)
    assert stored.coords[0].denominator == 2
    assert stored.coords[1] == Fraction(2, 3)


def test_vector_arithmetic_keeps_type_and_rejects_mixing():
    D, C = DivClass((1, 2)), CurveClass((3, 4))
    assert 2 * D - D == D and type(-D) is DivClass
    assert C + CurveClass.zero(2) == C and type(C * "1/2") is CurveClass
    with pytest.raises(InvalidInput, match="CurveClass to DivClass"):
        D + C
    with pytest.raises(InvalidInput, match="DivClass to CurveClass"):
        C - D
    with pytest.raises(DimensionMismatch, match="CurveClass has length 1"):
        C + CurveClass((1,))


# A rational in each form the API takes: an int, a "p/q" string or a Fraction.
rationals = st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) < 10**6)
coercibles = st.one_of(
    st.integers(-10**6, 10**6),
    rationals.map(lambda q: f"{q.numerator}/{q.denominator}"),
    rationals,
)


@given(st.lists(coercibles, min_size=1, max_size=4), st.sampled_from([DivClass, CurveClass]),
       coercibles)
def test_class_vectors_coerce_every_coordinate_and_scalar_to_a_fraction(values, cls, scalar):
    v = cls(tuple(values))
    assert v.coords == rats(values) == tuple(Fraction(x) for x in values)
    assert all(type(x) is Fraction for x in v.coords)
    w = v * scalar
    assert type(w) is cls and w == scalar * v
    assert w.coords == tuple(x * Fraction(scalar) for x in v.coords)
    assert all(type(x) is Fraction for x in w.coords)
    with pytest.raises(InvalidInput, match="got bool"):
        cls((*values, True))
    with pytest.raises(InvalidInput, match="got bool"):
        v * False
    assert cls.of(values) == cls.of(v) == v
    # A string is not split into digits, and a scalar is not a vector.
    for bad in ("".join(map(str, range(1, len(values) + 2))), b"12", 5, Fraction(1, 2), None):
        message = re.escape(f"{cls.__name__}: expected a sequence of rationals, got {bad!r}")
        for build in (cls, cls.of):
            with pytest.raises(InvalidInput, match=f"^{message}$"):
                build(bad)


# Rationals with denominators, drawn as conftest.random_rat draws them.
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def threefold_with_classes(draw):
    """A threefold of Picard rank 1 to 3, three divisor classes and a curve class on it."""
    m = draw(st.integers(1, 3))
    vector = st.tuples(*[small_rationals] * m)
    entries = {idx: draw(small_rationals) for idx in itertools.combinations_with_replacement(range(m), 3)}
    T = [[[entries[tuple(sorted((i, j, k)))] for k in range(m)] for j in range(m)] for i in range(m)]
    X = Threefold([f"g{i}" for i in range(m)], T, draw(vector), draw(vector))
    return X, *(DivClass(draw(vector)) for _ in range(3)), CurveClass(draw(vector))


@given(threefold_with_classes())
def test_products_equal_the_textbook_fraction_sums(drawn):
    X, a, b, c, q = drawn
    R = range(X.m)
    a, b, c, q = a.coords, b.coords, c.coords, q.coords
    product = mul_div_div(X, DivClass(a), DivClass(b))
    assert type(product) is CurveClass and all(type(x) is Fraction for x in product.coords)
    assert product.coords == tuple(sum((a[j] * b[k] * X.T[j][k][i] for j in R for k in R), Fraction(0)) for i in R)
    pairing = pair_div_curve(X, DivClass(a), CurveClass(q))
    assert type(pairing) is Fraction and pairing == sum((x * y for x, y in zip(a, q)), Fraction(0))
    number = triple(X, DivClass(a), DivClass(b), DivClass(c))
    terms = (a[i] * b[j] * c[k] * X.T[i][j][k] for i in R for j in R for k in R)
    assert type(number) is Fraction and number == sum(terms, Fraction(0))
    assert X.chi_O == sum((x * y for x, y in zip(X.c1X.coords, X.c2X.coords)), Fraction(0)) / 24
    # Vector arithmetic builds its result from Fractions without coercing them again.
    for cls, u, v in ((DivClass, a, b), (CurveClass, q, c)):
        for result, want in ((cls(u) + cls(v), map(Fraction.__add__, u, v)),
                             (cls(u) - cls(v), map(Fraction.__sub__, u, v)),
                             (-cls(u), (-x for x in u)), (cls(u) * 3, (x * 3 for x in u))):
            assert type(result) is cls and result.coords == tuple(want)
            assert all(type(x) is Fraction for x in result.coords)


def test_triple_permutation_invariance():
    rng = random.Random(7)
    for _ in range(40):
        X = random_threefold(rng)
        a, b, c = (random_div(rng, X) for _ in range(3))
        base = triple(X, a, b, c)
        assert triple(X, a, c, b) == base
        assert triple(X, b, a, c) == base
        assert triple(X, b, c, a) == base
        assert triple(X, c, a, b) == base
        assert triple(X, c, b, a) == base


def test_triple_factors_through_mul_div_div():
    rng = random.Random(13)
    for _ in range(40):
        X = random_threefold(rng)
        a, b, c = (random_div(rng, X) for _ in range(3))
        assert triple(X, a, b, c) == pair_div_curve(X, a, mul_div_div(X, b, c))


def test_json_round_trip_is_bit_exact(quadric):
    doc = threefold_to_json(quadric)
    assert doc["c1X"] == ["3"]
    assert doc["T"] == [[["2"]]]
    again = threefold_from_json(doc)
    assert again == quadric
    assert threefold_to_json(again) == doc


def test_json_round_trip_random_models():
    rng = random.Random(23)
    for _ in range(20):
        X = random_threefold(rng)
        assert threefold_from_json(threefold_to_json(X)) == X


def test_derived_fields_follow_the_generators_and_c1X(quintic):
    rng = random.Random(31)
    models = [quintic, random_threefold(rng, 2, zero_c1=True)] + [random_threefold(rng) for _ in range(6)]
    for X in models:
        doc = threefold_to_json(X)
        lattice = set() if X.curve_lattice is None else {"curve_lattice"}
        assert set(doc) == {"schema", "generators", "T", "c1X", "c2X"} | lattice
        assert repr(X) == (f"Threefold(generator_names={X.generator_names!r}, T={X.T!r}, c1X={X.c1X!r}, "
                           f"c2X={X.c2X!r}, curve_lattice={X.curve_lattice!r})")
        again = threefold_from_json(doc)
        flipped = X._replace(c1X=DivClass((1,) * X.m) if X.c1X_is_zero else DivClass.zero(X.m))
        for Y in (X, again, flipped):
            assert Y.m == len(Y.generator_names)
            assert Y.c1X_is_zero == Y.c1X.is_zero
            assert Y.chi_O == todd_genus(Y)
        assert flipped.c1X_is_zero != X.c1X_is_zero
        assert again == X and hash(again) == hash(X) and threefold_to_json(again) == doc
        # The derived fields take no part in ==, hash, repr or pickle.
        derived = ("m", "c1X_is_zero", "chi_O", "T_num", "T_den")
        object.__setattr__(again, "m", X.m + 1)
        object.__setattr__(again, "c1X_is_zero", not X.c1X_is_zero)
        object.__setattr__(again, "chi_O", X.chi_O + 1)
        object.__setattr__(again, "T_num", ())
        object.__setattr__(again, "T_den", 0)
        assert again == X and hash(again) == hash(X) and repr(again) == repr(X)
        twin = pickle.loads(pickle.dumps(again))
        assert [getattr(twin, name) for name in derived] == [getattr(X, name) for name in derived]


@pytest.mark.parametrize("key", ["generators", "T", "c1X", "c2X"])
def test_threefold_document_missing_key(quadric, key):
    doc = threefold_to_json(quadric)
    del doc[key]
    with pytest.raises(InvalidInput, match=f"^threefold document is missing '{key}'$"):
        threefold_from_json(doc)


def test_fractional_rationals_round_trip():
    X = make_threefold(["H"], ((("1/2",),),), ("2/3",), ("-5/7",))
    doc = threefold_to_json(X)
    assert doc["T"] == [[["1/2"]]]
    assert doc["c2X"] == ["-5/7"]
    assert threefold_from_json(doc) == X


@pytest.mark.parametrize("lattice, message", [
    (((1, 1), (1, -1)), "c2X is not an integral combination of the declared curve lattice"),
    (((2, 1), (0, 1)), "c2X is not an integral combination of the declared curve lattice"),
    (((1, 1), (2, 2)), "c2X is not a rational combination of the declared curve lattice"),
    (((1, 2), (2, 4)), None),  # dependent generators: membership is not decided
    (((2, 4), (1, 2)), None),  # the same, where a pivot-only solution is (3/2, 0)
])
def test_lattice_check_eliminates_across_two_generators(lattice, message):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_threefold(*P1_X_P2, curve_lattice=lattice)
    assert [str(w.message) for w in caught] == ([message] if message else [])
    assert all(w.category is IntegralityWarning for w in caught)


_OUTSIDE = (["H"], (((2,),),), (3,), ("1/2",), ((1,),))


@pytest.mark.parametrize("build", [
    lambda: make_threefold(*_OUTSIDE),
    lambda: Threefold(*_OUTSIDE),
    lambda: Threefold._make(_OUTSIDE),
    lambda: make_threefold(*_OUTSIDE[:3], (4,), _OUTSIDE[4])._replace(c2X=_OUTSIDE[3]),
], ids=["make_threefold", "constructor", "_make", "_replace"])
def test_lattice_warning_names_the_callers_line(build):
    with pytest.warns(IntegralityWarning) as caught:
        build()
    assert [w.filename for w in caught] == [__file__]


def test_lattice_consistency_warning():
    with pytest.warns(IntegralityWarning):
        make_threefold(["H"], (((2,),),), (3,), ("1/2",), curve_lattice=((1,),))
    # integral combination: silent
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_threefold(["H"], (((2,),),), (3,), (8,), curve_lattice=((1,),))
