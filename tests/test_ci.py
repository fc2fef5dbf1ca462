import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chern3.chow import CurveClass, DivClass, todd_genus
from chern3.ci import (
    CanonicalType,
    CIPreset,
    build_ci,
    classify,
    format_preset,
    parse_preset,
    tangent_chern,
)
from chern3.errors import (
    DimensionMismatch,
    InvalidInput,
    RedundantDegreeWarning,
)


def poly_div_truncated(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Independent oracle: power-series long division, four coefficients."""
    out = []
    for k in range(4):
        acc = num[k] if k < len(num) else Fraction(0)
        for j, q in enumerate(out):
            d = k - j
            acc -= q * (den[d] if d < len(den) else Fraction(0))
        out.append(acc / den[0])
    return out


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def tangent_series_oracle(ambient: int, degrees: tuple[int, ...]) -> tuple[Fraction, ...]:
    num = [Fraction(1)]
    for _ in range(ambient + 1):
        num = poly_mul(num, [Fraction(1), Fraction(1)])
    den = [Fraction(1)]
    for d in degrees:
        den = poly_mul(den, [Fraction(1), Fraction(d)])
    return tuple(poly_div_truncated(num, den))


@pytest.mark.parametrize(
    "ambient,degrees,expected",
    [
        (4, (2,), (1, 3, 4, 2)),
        (5, (2, 3), (1, 1, 4, -6)),
        (4, (5,), (1, 0, 10, -40)),
        (3, (), (1, 4, 6, 4)),
        (4, (3,), (1, 2, 4, -2)),
        (4, (4,), (1, 1, 6, -14)),
        (5, (2, 2), (1, 2, 3, 0)),
        (6, (2, 2, 2), (1, 1, 3, -3)),
    ],
)
def test_tangent_chern_against_long_division_oracle(ambient, degrees, expected):
    series = tangent_chern(CIPreset(ambient, degrees))
    assert series == tuple(Fraction(c) for c in expected)
    assert series == tangent_series_oracle(ambient, degrees)


# Degree 1 is left out: it raises RedundantDegreeWarning, an error under pytest.
_presets = st.integers(3, 10).flatmap(
    lambda n: st.lists(st.integers(2, 50), min_size=n - 3, max_size=n - 3).map(
        lambda degrees: CIPreset(n, tuple(degrees))
    )
)


@given(_presets)
def test_tangent_chern_is_the_integer_series_and_its_c1_classifies(preset):
    series = tangent_chern(preset)
    assert series == tangent_series_oracle(preset.ambient, preset.degrees)
    assert all(type(c) is int for c in series)
    c1 = series[1]
    assert (classify(preset) is CanonicalType.FANO) == (c1 > 0)
    assert (classify(preset) is CanonicalType.CALABI_YAU) == (c1 == 0)


def test_tangent_chern_quintic_euler_characteristic():
    # top Chern class integrates to the topological Euler characteristic
    series = tangent_chern(CIPreset(4, (5,)))
    assert series[3] * 5 == -200


def test_build_ci_models(quadric, ci23, p3):
    assert (quadric.T[0][0][0], quadric.c1X, quadric.c2X) == (
        2,
        DivClass((3,)),
        CurveClass((8,)),
    )
    assert (ci23.T[0][0][0], ci23.c1X, ci23.c2X) == (6, DivClass((1,)), CurveClass((24,)))
    assert (p3.T[0][0][0], p3.c1X, p3.c2X) == (1, DivClass((4,)), CurveClass((6,)))


def test_build_ci_default_lattice_is_a_line(quadric):
    assert quadric.curve_lattice == (CurveClass((1,)),)


def test_classify():
    assert classify(CIPreset(4, (2,))) is CanonicalType.FANO
    assert classify(CIPreset(4, (5,))) is CanonicalType.CALABI_YAU
    assert classify(CIPreset(6, (2, 3, 3))) is CanonicalType.GENERAL_TYPE
    assert classify(CIPreset(6, (2, 2, 3))) is CanonicalType.CALABI_YAU


def test_todd_genus_one_for_all_small_fano_presets():
    # degree sums capped at the ambient dimension, so every preset is Fano
    for ambient in range(3, 9):
        for degrees in _degree_tuples(ambient - 3, ambient):
            preset = CIPreset(ambient, degrees)
            assert classify(preset) is CanonicalType.FANO
            assert todd_genus(build_ci(preset)) == 1, preset


def _degree_tuples(count: int, max_total: int):
    if count == 0:
        yield ()
        return
    for first in range(2, max_total + 1):
        for rest in _degree_tuples(count - 1, max_total - first):
            if rest and rest[0] < first:
                continue
            yield (first,) + rest


def test_calabi_yau_presets_have_zero_c1():
    for preset in (CIPreset(4, (5,)), CIPreset(5, (2, 4)), CIPreset(5, (3, 3)),
                   CIPreset(6, (2, 2, 3)), CIPreset(7, (2, 2, 2, 2))):
        assert classify(preset) is CanonicalType.CALABI_YAU
        X = build_ci(preset)
        assert X.c1X.is_zero
        assert todd_genus(X) == 0


def test_rederiving_tangent_chern_from_threefold_fields():
    for name in ("[2] in P4", "[2,3] in P5", "[] in P3", "[5] in P4"):
        preset = parse_preset(name)
        X = build_ci(preset)
        series = tangent_chern(preset)
        degree = math.prod(preset.degrees)
        assert X.T[0][0][0] == degree
        assert X.c1X.coords[0] == series[1]
        assert X.c2X.coords[0] == series[2] * degree


def test_preset_validation():
    with pytest.raises(DimensionMismatch, match=r"^1 hypersurfaces in P\^5 cut a 4-fold, not a threefold$"):
        CIPreset(5, (2,))
    with pytest.raises(InvalidInput):
        CIPreset(2, ())
    with pytest.raises(InvalidInput):
        CIPreset(4, (0,))
    # Degrees and the ambient dimension are ints: none is truncated or coerced.
    for ambient, degrees, got in ((4, (2.9,), "float 2.9"), (4, (True,), "bool True"), (4, ("2",), "str '2'"),
                                  (4.0, (2,), "float 4.0"), (True, (), "bool True")):
        with pytest.raises(InvalidInput, match=f"expected an integer, got {got}$"):
            CIPreset(ambient, degrees)
    with pytest.raises(InvalidInput, match=r"^degrees: expected a sequence of integers, got 2$"):
        CIPreset(4, 2)


def test_degree_one_warns_with_reduced_preset():
    with pytest.warns(RedundantDegreeWarning, match=r"\[\] in P3") as caught:
        CIPreset(4, (1,))
    assert caught[0].filename == __file__  # the warning names the caller's line
    with pytest.warns(RedundantDegreeWarning, match=r"\[2\] in P4"):
        CIPreset(5, (1, 2))


def test_degree_one_preset_matches_reduced_model(p3):
    with pytest.warns(RedundantDegreeWarning):
        X = build_ci(CIPreset(4, (1,)))
    assert X == p3


def test_parse_and_format_preset():
    p = parse_preset("[2,3] in P5")
    assert p == CIPreset(5, (2, 3))
    assert format_preset(p) == "[2,3] in P5"
    assert parse_preset("[ 2 , 3 ]  in  P5") == p
    assert parse_preset("[] in P3") == CIPreset(3, ())
    with pytest.raises(InvalidInput):
        parse_preset("quadric")


@pytest.mark.parametrize("name", ["[\u0662] in P4", "[2] in P\u0664"])
def test_presets_take_ascii_digits_only(name):
    with pytest.raises(InvalidInput, match="cannot parse preset"):
        parse_preset(name)


def test_every_catalogued_preset_parses_and_builds():
    import warnings

    from chern3.ci import PRESET_CATALOG

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantDegreeWarning)
        for name in PRESET_CATALOG:
            preset = parse_preset(name)
            assert format_preset(preset) == name
            assert build_ci(preset).m == 1
