import dataclasses
import json
import random
import time
import warnings
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from chern3 import dzero
from chern3.chow import DivClass, make_threefold, pair_div_curve
from chern3.ci import build_ci, parse_preset
from chern3.cli import Response, main, response_json, response_table
from chern3.dzero import (
    DZeroProblem,
    WitnessRectangle,
    dzero_condition,
    relation_str,
    solve_dzero,
    verify_paper_claims,
)
from chern3.errors import (
    ClaimViolation,
    IntegralityWarning,
    InvalidInput,
    LimitExceeded,
    MissingCurveLattice,
    RedundantDegreeWarning,
    SelfCheckFailed,
    UnsupportedPicardRank,
)
from chern3.moduli import expected_dim
from chern3.sheaf import ChernData

from conftest import random_threefold


def model(name):
    return build_ci(parse_preset(name))


def brute_force_witnesses(X, k_range, c_range):
    """Independent oracle: test expected_dim directly on every grid point."""
    H = DivClass((1,))
    ell = X.curve_lattice[0]
    out = []
    for k in range(k_range[0], k_range[1] + 1):
        for c in range(c_range[0], c_range[1] + 1):
            F = ChernData(2, H * k, ell * c, Fraction(0))
            if expected_dim(X, F) == 0:
                out.append((k, c))
    return out


def test_condition_quadric():
    a, b, e = dzero_condition(model("[2] in P4"))
    assert (a, b, e) == (6, -3, -3)
    assert a * 1 + b * 1 + e == 0  # the line witness (k, c) = (1, 1)


def test_condition_ci23():
    a, b, e = dzero_condition(model("[2,3] in P5"))
    assert (a, b, e) == (2, -3, -3)
    assert a * 3 + b * 1 + e == 0  # the plane-cubic witness (k, c) = (1, 3)


def test_condition_quintic_identically_zero():
    assert dzero_condition(model("[5] in P4")) == (0, 0, 0)


def test_condition_matches_expected_dim_at_random_points():
    rng = random.Random(131)
    H = DivClass((1,))
    for name in ("[2] in P4", "[3] in P4", "[2,3] in P5", "[5] in P4", "[] in P3"):
        X = model(name)
        a, b, e = dzero_condition(X)
        ell = X.curve_lattice[0]
        for _ in range(25):
            k, c = rng.randint(-20, 20), rng.randint(-20, 20)
            F = ChernData(2, H * k, ell * c, Fraction(0))
            assert expected_dim(X, F) == a * c + b * k * k + e


def test_solve_p3_parity_obstruction():
    report = solve_dzero(DZeroProblem(model("[] in P3"), (-10, 10), (-10, 10)))
    assert not report.solvable
    assert report.normalized == (8, -2, -3)
    assert report.obstruction is not None
    assert report.obstruction.kind == "parity"
    assert report.obstruction.modulus == 2
    assert report.witnesses == ()
    assert report.grid_checked


def test_solve_quadric_witnesses():
    report = solve_dzero(DZeroProblem(model("[2] in P4"), (-5, 5), (-5, 5)))
    assert report.solvable
    assert report.relation == "2c = k^2 + 1"
    assert report.modulus == 2 and report.residues == (1,)
    assert set(report.witnesses) == {(1, 1), (-1, 1), (3, 5), (-3, 5)}
    assert report.normalized == (2, -1, -1) and report.normalized.A == 2
    a, b, e = report.condition
    assert (a, b, e) == (6, -3, -3) and report.condition.a == 6


def test_solve_cubic_mod4_obstruction():
    report = solve_dzero(DZeroProblem(model("[3] in P4"), (-50, 50), (-50, 50)))
    assert not report.solvable
    assert report.obstruction.kind == "congruence"
    assert report.obstruction.modulus == 4
    assert report.witnesses == ()


def test_solve_quintic_every_point_is_a_witness():
    report = solve_dzero(DZeroProblem(model("[5] in P4"), (-3, 3), (-2, 2)))
    assert report.solvable
    assert report.relation == "0 = 0"
    assert len(report.witnesses) == 7 * 5


def test_witnesses_match_brute_force_oracle():
    for name in ("[2] in P4", "[2,3] in P5", "[4] in P4", "[2,2] in P5", "[6] in P4"):
        X = model(name)
        report = solve_dzero(DZeroProblem(X, (-12, 12), (-30, 30)))
        assert list(report.witnesses) == brute_force_witnesses(X, (-12, 12), (-30, 30))


def test_general_type_condition_is_normalized_to_a_positive_lead():
    # On the sextic c1(X) = -H, so a = -2 and _normalize flips every sign.
    X = model("[6] in P4")
    assert dzero_condition(X) == (-2, 3, 17)
    report = solve_dzero(DZeroProblem(X, (-12, 12), (-30, 30)))
    assert report.normalized == (2, -3, -17)
    assert report.relation == "2c = 3k^2 + 17"
    assert report.witnesses == ((-3, 22), (-1, 10), (1, 10), (3, 22))


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def line_threefold(T, c1X, c2X, l):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegralityWarning)
        return make_threefold(["H"], (((T,),),), (c1X,), (c2X,), curve_lattice=((l,),))


@st.composite
def line_threefolds(draw):
    """One-generator threefolds with a lattice generator l != 0, c1(X) = 0 at times."""
    c1X = draw(st.one_of(st.just(Fraction(0)), RATIONALS))
    return line_threefold(draw(RATIONALS), c1X, draw(RATIONALS), draw(RATIONALS.filter(bool)))


@settings(max_examples=100, deadline=None)
@given(line_threefolds())
def test_the_c_coefficient_is_twice_c1X_dot_l(X):
    a, b, e = dzero_condition(X)
    assert a == 2 * pair_div_curve(X, X.c1X, X.curve_lattice[0])
    assert ((a, b, e) == (0, 0, 0)) == X.c1X.is_zero


def from_condition(a, b, e):
    """A threefold whose dzero condition is (a, b, e), for any a != 0."""
    return line_threefold(-2 * b, 1, 6 * (1 - e), Fraction(a) / 2)


@settings(max_examples=100, deadline=None)
@given(RATIONALS.filter(bool), RATIONALS, RATIONALS)
def test_every_condition_with_a_nonzero_comes_from_a_threefold(a, b, e):
    assert dzero_condition(from_condition(a, b, e)) == (a, b, e)


def has_residue(B, E, q):
    return any((B * k * k + E) % q == 0 for k in range(q))


# Small integer conditions put witnesses in small rectangles more often.
SMALL_CONDITIONS = st.builds(from_condition, st.integers(1, 12) | st.integers(-12, -1),
                             st.integers(-6, 6), st.integers(-20, 20))


@settings(max_examples=150, deadline=None)
@given(line_threefolds() | SMALL_CONDITIONS, st.integers(-6, 3), st.integers(0, 6), st.integers(-20, 5), st.integers(0, 20))
def test_solver_equals_brute_force_with_the_least_certificate(X, k_lo, k_len, c_lo, c_len):
    k_range, c_range = (k_lo, k_lo + k_len), (c_lo, c_lo + c_len)
    report = solve_dzero(DZeroProblem(X, k_range, c_range))
    assert list(report.witnesses) == brute_force_witnesses(X, k_range, c_range)
    A, B, E = report.normalized
    if report.solvable:
        modulus = A or 1
        assert report.modulus == modulus and report.obstruction is None
        assert report.residues == tuple(k for k in range(modulus) if (B * k * k + E) % modulus == 0)
    else:
        q = report.obstruction.modulus
        assert report.residues is None and not has_residue(B, E, A)
        assert A % q == 0 and not has_residue(B, E, q)
        assert q == min(d for d in range(2, A + 1) if A % d == 0 and not has_residue(B, E, d))


_CALABI_YAU = ("[5] in P4", "[3,3] in P5", "[2,4] in P5", "[2,2,3] in P6", "[2,2,2,2] in P7")
_FANO = ("[2] in P4", "[3] in P4", "[2,3] in P5", "[] in P3")
_slice_ends = st.none() | st.integers(-40, 40)
_slices = st.builds(slice, _slice_ends, _slice_ends, st.none() | st.integers(-3, 3).filter(bool))


def ranges(lo_min, lo_max, max_length):
    return st.integers(lo_min, lo_max).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + max_length)))


def rendered(report):
    data = {"threefold": "X", **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)}}
    response = Response("ok", "dzero", data, ())
    return response_json(response), response_table(response)


@settings(max_examples=60, deadline=None)
@example("[5] in P4", (-3, 3), (-2, 2), slice(None, None, -1))
@given(st.sampled_from(_CALABI_YAU + _FANO) | line_threefolds(), ranges(-4, 2, 4), ranges(-6, 6, 6), _slices)
def test_a_witness_rectangle_is_the_tuple_it_stands_for(X, k_range, c_range, cut):
    X = model(X) if type(X) is str else X
    report = solve_dzero(DZeroProblem(X, k_range, c_range))
    witnesses = report.witnesses
    assert list(witnesses) == brute_force_witnesses(X, k_range, c_range)
    pairs = tuple(witnesses)
    plain = dataclasses.replace(report, witnesses=pairs)
    assert rendered(report) == rendered(plain)
    assert report == plain and hash(report) == hash(plain)
    if report.normalized.A:
        assert type(witnesses) is tuple
        return
    assert type(witnesses) is WitnessRectangle and X.c1X.is_zero
    n = len(pairs)
    assert len(witnesses) == n == (k_range[1] - k_range[0] + 1) * (c_range[1] - c_range[0] + 1)
    assert [witnesses[i] for i in range(-n, n)] == [pairs[i] for i in range(-n, n)]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            witnesses[i]
    assert witnesses[cut] == pairs[cut] and type(witnesses[cut]) is tuple
    assert witnesses == pairs and pairs == witnesses and not witnesses != pairs and not pairs != witnesses
    assert witnesses == WitnessRectangle(k_range, c_range) and hash(witnesses) == hash(pairs)
    for other in (pairs[:-1], pairs + pairs[:1], pairs[::-1] if n > 1 else ((0, 0.5),), list(pairs), None):
        assert witnesses != other and not witnesses == other and (pairs == other) == (witnesses == other)
    (k_lo, k_hi), (c_lo, c_hi) = k_range, c_range
    outside = ((k_lo - 1, c_lo), (k_hi, c_hi + 1), [k_lo, c_lo], (k_lo,), (k_lo, c_lo, 0), (k_lo, c_lo + 0.5))
    for probe in pairs + outside:
        assert (probe in witnesses) == (probe in pairs)


def test_a_vanishing_c_coefficient_with_a_nonzero_condition_is_a_build_bug(monkeypatch, capsys):
    # The module's lemma rules out A = 0 with (B, E) != 0; reaching it is a fault.
    monkeypatch.setattr(dzero, "_normalize", lambda a, b, e: dzero.Normalized(0, -1, 1))
    with pytest.raises(SelfCheckFailed, match="^dzero affine reduction: "):
        solve_dzero(DZeroProblem(model("[2] in P4"), (-5, 5), (-5, 5)))
    assert main(["dzero", "--preset", "[2] in P4", "--k", "-5..5", "--c", "-5..5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SelfCheckFailed: dzero affine reduction: ")
    assert "Traceback" not in err


def test_dzero_condition_reads_expected_dim_at_the_six_proof_points(monkeypatch):
    # The six points are unisolvent for the span of 1, k, k^2, k^3, c, k c:
    # dropping or moving one makes the reduction check no proof.
    calls = []

    def recording(X, F):
        calls.append((F.c1.coords[0], F.c2.coords[0] / X.curve_lattice[0].coords[0]))
        return expected_dim(X, F)

    monkeypatch.setattr(dzero, "expected_dim", recording)
    dzero_condition(model("[2] in P4"))
    assert calls == [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (1, 1)]


@pytest.mark.parametrize("term, point", [
    (lambda k, c: k, (2, 0)),
    (lambda k, c: k**3, (2, 0)),
    (lambda k, c: k * c, (1, 1)),
    (lambda k, c: k**3 * c, (1, 1)),
], ids=["k", "k^3", "k*c", "k^3*c"])
def test_a_dimension_formula_off_the_affine_form_fails_the_reduction_check(monkeypatch, capsys, term, point):
    # Each term has weight <= 3 but is off the affine form.  At the three
    # points (a, b, e) are read from it vanishes or is absorbed into b, so
    # the first of the three check points it moves is ``point``.
    def perturbed(X, F):
        return expected_dim(X, F) + term(F.c1.coords[0], F.c2.coords[0])

    monkeypatch.setattr(dzero, "expected_dim", perturbed)
    message = f"dzero affine reduction: expected_dim at ({point[0]}, {point[1]}) is off a c + b k^2 + e"
    with pytest.raises(SelfCheckFailed) as exc:
        solve_dzero(DZeroProblem(model("[2] in P4"), (-5, 5), (-5, 5)))
    assert str(exc.value) == message
    assert main(["dzero", "--preset", "[2] in P4", "--k", "-5..5", "--c", "-5..5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[0] == f"SelfCheckFailed: {message}"
    assert "Traceback" not in err


def test_every_witness_reevaluates_to_zero():
    H = DivClass((1,))
    for name in ("[2] in P4", "[2,3] in P5"):
        X = model(name)
        ell = X.curve_lattice[0]
        report = solve_dzero(DZeroProblem(X, (-50, 50), (-50, 50)))
        assert report.witnesses
        for k, c in report.witnesses:
            F = ChernData(2, H * k, ell * c, Fraction(0))
            assert expected_dim(X, F) == 0


@pytest.mark.parametrize("name, k_range, c_range, bad", [
    ("[5] in P4", (10, 12), (-2, 2), (11, -1)),  # Calabi-Yau: every point is a witness
    ("[2] in P4", (10, 14), (0, 100), (13, 85)),  # Fano: 2c = k^2 + 1
])
def test_every_witness_reaches_expected_dim(monkeypatch, capsys, name, k_range, c_range, bad):
    # k >= 10 keeps the witnesses apart from the points dzero_condition evaluates.
    X = model(name)
    ell = X.curve_lattice[0]
    seen, flip = [], [False]

    def recording(X, F):
        if F.c1.coords[0] >= 10:
            seen.append(F)
        if flip[0] and F == ChernData(2, DivClass((bad[0],)), ell * bad[1], 0):
            return Fraction(1)
        return expected_dim(X, F)

    monkeypatch.setattr(dzero, "expected_dim", recording)
    report = solve_dzero(DZeroProblem(X, k_range, c_range))
    assert bad in report.witnesses
    assert seen == [ChernData(2, DivClass((k,)), ell * c, 0) for k, c in report.witnesses]

    flip[0] = True
    with pytest.raises(SelfCheckFailed, match=rf"^dzero witness check: witness \({bad[0]}, {bad[1]}\) "):
        solve_dzero(DZeroProblem(X, k_range, c_range))
    argv = ["dzero", "--preset", name, "--k", "{}..{}".format(*k_range), "--c", "{}..{}".format(*c_range)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("SelfCheckFailed: dzero witness check: ")
    assert "Traceback" not in err


def test_problem_validation():
    X = model("[2] in P4")
    with pytest.raises(InvalidInput):
        DZeroProblem(X, (5, -5), (0, 0))
    # A range of the wrong shape is named with its value, not a bare unpacking error.
    with pytest.raises(InvalidInput, match=r"^k_range: expected a pair of integers, got \(1, 2, 3\)$"):
        DZeroProblem(X, (1, 2, 3), (0, 1))
    with pytest.raises(InvalidInput, match=r"^k_range: expected a pair of integers, got 5$"):
        DZeroProblem(X, 5, (0, 1))
    rng = random.Random(3)
    Y = random_threefold(rng, m=2)
    with pytest.raises(UnsupportedPicardRank):
        DZeroProblem(Y, (0, 1), (0, 1))
    no_lattice = make_threefold(["H"], (((2,),),), (3,), (8,))
    with pytest.raises(MissingCurveLattice):
        DZeroProblem(no_lattice, (0, 1), (0, 1))
    with pytest.warns(IntegralityWarning):
        degenerate = make_threefold(["H"], (((2,),),), (3,), (8,), curve_lattice=((0,),))
    with pytest.raises(MissingCurveLattice):
        DZeroProblem(degenerate, (0, 1), (0, 1))


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("CHERN3_MAX_ENUM", "100")
    with pytest.raises(LimitExceeded):
        solve_dzero(DZeroProblem(model("[2] in P4"), (-50, 50), (-50, 50)))
    monkeypatch.setenv("CHERN3_MAX_ENUM", "1000000")
    solve_dzero(DZeroProblem(model("[2] in P4"), (-5, 5), (-5, 5)))
    # a rectangle of exactly the cap's size is searched, Calabi-Yau targets included
    monkeypatch.setenv("CHERN3_MAX_ENUM", "1")
    assert solve_dzero(DZeroProblem(model("[5] in P4"), (0, 0), (0, 0))).witnesses == ((0, 0),)


def test_the_congruence_modulus_is_capped_before_any_scan(monkeypatch, capsys):
    # On this threefold A = 6p: the modulus grows with the curve lattice entry p.
    monkeypatch.delenv("CHERN3_MAX_ENUM", raising=False)
    doc = {"generators": ["H"], "T": [[["2"]]], "c1X": ["3"], "c2X": ["12"], "curve_lattice": [["10000019"]]}
    start = time.perf_counter()
    assert main(["dzero", "--threefold", json.dumps(doc), "--k", "-2..2", "--c", "-2..2"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "LimitExceeded: congruence modulus A = 60000114 is above the CHERN3_MAX_ENUM cap 1000000\n")
    with pytest.warns(IntegralityWarning):
        X = make_threefold(["H"], (((2,),),), (3,), (12,), curve_lattice=((7,),))
    monkeypatch.setenv("CHERN3_MAX_ENUM", "41")
    with pytest.raises(LimitExceeded, match="A = 42 "):
        solve_dzero(DZeroProblem(X, (-2, 2), (-2, 2)))
    monkeypatch.setenv("CHERN3_MAX_ENUM", "42")
    assert solve_dzero(DZeroProblem(X, (-2, 2), (-2, 2))).obstruction.modulus == 3


@pytest.mark.parametrize("raw", ["0", "-1", "x"])
def test_enumeration_cap_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("CHERN3_MAX_ENUM", raw)
    with pytest.raises(InvalidInput, match=f"CHERN3_MAX_ENUM='{raw}' is not a positive integer"):
        solve_dzero(DZeroProblem(model("[2] in P4"), (0, 0), (0, 0)))


def grid_pairs(a, b, e, k_range, c_range):
    """_grid_rows flattened into its (k, c) zeros, one row per k of the range."""
    ks = range(k_range[0], k_range[1] + 1)
    rows = list(dzero._grid_rows(a, b, e, k_range, c_range))
    assert len(rows) == len(ks)
    return [(k, c) for k, row in zip(ks, rows) for c in row]


def grid_model(name):
    if name != "custom":
        return model(name)
    # (a, b, e) = (1/3, -1/8, 1/3): every coefficient has a denominator.
    return make_threefold(["H"], ((("1/2",),),), ("1/2",), (8,), curve_lattice=(("1/3",),))


@pytest.mark.parametrize("name", [*(claim[0] for claim in dzero._CLAIMS), "[5] in P4", "custom"])
def test_integer_grid_equals_fraction_grid(name):
    with pytest.warns(RedundantDegreeWarning) if name == "[1] in P4" else nullcontext():
        a, b, e = dzero_condition(grid_model(name))
    k_range, c_range = (-20, 20), (-60, 60)
    fraction_grid = [
        (k, c)
        for k in range(k_range[0], k_range[1] + 1)
        for c in range(c_range[0], c_range[1] + 1)
        if a * c + b * k * k + e == 0
    ]
    assert grid_pairs(a, b, e, k_range, c_range) == fraction_grid
    if name == "custom":
        assert all(x.denominator > 1 for x in (a, b, e)) and fraction_grid


@st.composite
def grid_cases(draw):
    """A condition (a, b, e) and a rectangle of one row, one column or both
    drawn; half the time e is chosen so that a point of the rectangle is a
    zero, and with a = 0 that makes its whole row zeros."""
    k_lo, c_lo = draw(st.integers(-8, 8)), draw(st.integers(-30, 30))
    shape = draw(st.sampled_from(("row", "column", "general")))
    k_hi = k_lo if shape == "row" else k_lo + draw(st.integers(0, 8))
    c_hi = c_lo if shape == "column" else c_lo + draw(st.integers(0, 30))
    a, b = draw(st.just(Fraction(0)) | RATIONALS), draw(RATIONALS)
    if draw(st.booleans()):
        k, c = draw(st.integers(k_lo, k_hi)), draw(st.integers(c_lo, c_hi))
        e = -(a * c + b * k * k)
    else:
        e = draw(RATIONALS)
    return (a, b, e), (k_lo, k_hi), (c_lo, c_hi)


@settings(max_examples=300, deadline=None)
@example(((Fraction(0),) * 3, (-3, 3), (-5, 5)))  # the Calabi-Yau condition: every point is a zero
@given(grid_cases())
def test_grid_zeros_equal_the_fraction_grid_on_drawn_conditions(case):
    (a, b, e), k_range, c_range = case
    fraction_grid = [
        (k, c)
        for k in range(k_range[0], k_range[1] + 1)
        for c in range(c_range[0], c_range[1] + 1)
        if a * c + b * k * k + e == 0
    ]
    assert grid_pairs(a, b, e, k_range, c_range) == fraction_grid


def test_grid_check_does_not_read_the_normalized_relation(monkeypatch, capsys):
    normalize = dzero._normalize

    def perturbed(a, b, e):
        A, B, E = normalize(a, b, e)
        return A, B, E + 1

    monkeypatch.setattr(dzero, "_normalize", perturbed)
    with pytest.raises(SelfCheckFailed, match="^dzero grid check: ") as exc:
        solve_dzero(DZeroProblem(model("[2] in P4"), (-5, 5), (-5, 5)))
    assert isinstance(exc.value, ClaimViolation)
    assert main(["dzero", "--preset", "[2] in P4", "--k", "-5..5", "--c", "-5..5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SelfCheckFailed: dzero grid check: ")
    assert "Traceback" not in err


def test_the_grid_check_compares_the_zeros_within_each_row(monkeypatch):
    # A shift of E by A keeps every residue, so the solver finds a zero in
    # the same rows of k as the grid, one column off: 2c = k^2 - 1, not + 1.
    normalize = dzero._normalize

    def shifted(a, b, e):
        A, B, E = normalize(a, b, e)
        return dzero.Normalized(A, B, E + A)

    monkeypatch.setattr(dzero, "_normalize", shifted)
    with pytest.raises(SelfCheckFailed, match="^dzero grid check: "):
        solve_dzero(DZeroProblem(model("[2] in P4"), (-5, 5), (-5, 5)))


def test_overridden_lattice_generator():
    # a coarser generator (pairing 2 with H) rescales the affine form and
    # flips the quadric's verdict: 4c = k^2 + 1 needs k^2 = 3 (mod 4)
    X = make_threefold(["H"], (((2,),),), (3,), (8,), curve_lattice=((2,),))
    a, b, e = dzero_condition(X)
    assert (a, b, e) == (12, -3, -3)
    report = solve_dzero(DZeroProblem(X, (-9, 9), (-9, 9)))
    assert not report.solvable
    assert report.normalized == (4, -1, -1)
    assert report.obstruction.modulus == 4
    assert report.witnesses == ()


def test_relation_rendering():
    assert relation_str((2, -1, -1)) == "2c = k^2 + 1"
    assert relation_str((2, -3, -3)) == "2c = 3k^2 + 3"
    assert relation_str((8, -2, -3)) == "8c = 2k^2 + 3"
    assert relation_str((0, 0, 0)) == "0 = 0"
    assert relation_str((1, 1, 0)) == "c = -k^2"
    assert relation_str((3, 0, 2)) == "3c = -2"


@pytest.mark.parametrize("argv", [["verify", "--suite", "paper"], ["dzero", "--verify-paper"]])
def test_the_search_cap_does_not_apply_to_the_claims_grid(monkeypatch, capsys, argv):
    monkeypatch.delenv("CHERN3_MAX_ENUM", raising=False)
    assert main(argv) == 0
    default = capsys.readouterr()
    monkeypatch.setenv("CHERN3_MAX_ENUM", "5000")
    assert main(argv) == 0
    assert capsys.readouterr() == default
    with pytest.raises(LimitExceeded, match="10201 lattice points"):
        solve_dzero(DZeroProblem(model("[2] in P4"), (-50, 50), (-50, 50)))


def test_verify_paper_claims_full_run():
    with pytest.warns(RedundantDegreeWarning):
        report = verify_paper_claims()
    assert len(report.entries) == 7
    assert report.solvable_count == 2
    assert report.certificate_count == 5
    by_name = {entry.preset: entry.report for entry in report.entries}
    assert by_name["[2] in P4"].relation == "2c = k^2 + 1"
    assert by_name["[2,3] in P5"].relation == "2c = 3k^2 + 3"
    assert (1, 1) in by_name["[2] in P4"].witnesses
    assert (1, 3) in by_name["[2,3] in P5"].witnesses
    assert {(entry.report.k_range, entry.report.c_range) for entry in report.entries} == {((-50, 50), (-50, 50))}
    for name in ("[1] in P4", "[3] in P4", "[4] in P4", "[2,2] in P5", "[2,2,2] in P6"):
        entry = by_name[name]
        assert not entry.solvable
        assert entry.obstruction is not None
        assert entry.witnesses == ()


# One claim per raise site of verify_paper_claims.  A doctor, where there is
# one, edits the computed report to break a claim the grid itself keeps.
WRONG_CLAIMS = {
    "relation": (("[2] in P4", True, (2, -1, -2)), None,
                 "expected relation 2c = k^2 + 2, computed 2c = k^2 + 1"),
    "solvability": (("[2] in P4", False, None), None,
                    "expected solvable=False, computed True for 2c = k^2 + 1"),
    "no-witness": (("[2] in P4", True, (2, -1, -1)), partial(dataclasses.replace, witnesses=()),
                   "solvable but no witness in the search range"),
    "no-certificate": (("[3] in P4", False, None), partial(dataclasses.replace, obstruction=None),
                       "unsolvable but no certificate produced"),
    # Four witnesses, of which the message names the first three.
    "witness": (("[3] in P4", False, None), partial(dataclasses.replace, witnesses=((1, 1), (2, 2), (3, 3), (4, 4))),
                "witnesses ((1, 1), (2, 2), (3, 3)) contradict the claim"),
}


@pytest.mark.parametrize("claim, doctor, message", WRONG_CLAIMS.values(), ids=WRONG_CLAIMS)
def test_a_wrong_claim_is_a_claim_violation(monkeypatch, capsys, claim, doctor, message):
    monkeypatch.setattr(dzero, "_CLAIMS", (claim,))
    if doctor is not None:
        solve = dzero.solve_dzero
        monkeypatch.setattr(dzero, "solve_dzero", lambda *args, **kw: doctor(solve(*args, **kw)))
    preset = claim[0]
    with pytest.raises(ClaimViolation) as info:
        verify_paper_claims()
    assert info.value.preset == preset
    assert str(info.value) == f"{preset}: {message}"
    assert main(["dzero", "--verify-paper"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == f"ClaimViolation: {preset}: {message}"
