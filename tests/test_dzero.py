import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from chern3 import dzero
from chern3.chow import DivClass, make_threefold
from chern3.ci import build_ci, parse_preset
from chern3.cli import main
from chern3.dzero import (
    DZeroProblem,
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
    for name in ("[2] in P4", "[2,3] in P5", "[4] in P4", "[2,2] in P5"):
        X = model(name)
        report = solve_dzero(DZeroProblem(X, (-12, 12), (-30, 30)))
        assert list(report.witnesses) == brute_force_witnesses(X, (-12, 12), (-30, 30))


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


def test_problem_validation():
    X = model("[2] in P4")
    with pytest.raises(InvalidInput):
        DZeroProblem(X, (5, -5), (0, 0))
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


@pytest.mark.parametrize("raw", ["0", "-1", "x"])
def test_enumeration_cap_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("CHERN3_MAX_ENUM", raw)
    with pytest.raises(InvalidInput, match=f"CHERN3_MAX_ENUM='{raw}' is not a positive integer"):
        solve_dzero(DZeroProblem(model("[2] in P4"), (0, 0), (0, 0)))


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
    assert dzero._grid_zeros(a, b, e, k_range, c_range) == fraction_grid
    if name == "custom":
        assert all(x.denominator > 1 for x in (a, b, e)) and fraction_grid


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
    for name in ("[1] in P4", "[3] in P4", "[4] in P4", "[2,2] in P5", "[2,2,2] in P6"):
        entry = by_name[name]
        assert not entry.solvable
        assert entry.obstruction is not None
        assert entry.witnesses == ()
