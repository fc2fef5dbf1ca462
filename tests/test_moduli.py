import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chern3.chow import CurveClass, DivClass
from chern3.ci import CIPreset, build_ci
from chern3.errors import (
    InsufficientLedger,
    IntegralityWarning,
    InvalidInput,
    NegativeDimension,
    RankUnsupported,
)
from chern3.moduli import (
    CohomologyLedger,
    expected_dim,
    ext1_ledger,
    ext_euler,
    serre_c3,
    serre_genus,
)
from chern3.sheaf import ChernData, dual, euler_char, tensor, twist

from conftest import PROOF_RANKS, PROOF_THREEFOLDS, lattice_data, random_chern, random_div, random_threefold


def test_ext_euler_goldens(quadric, ci23):
    assert ext_euler(quadric, ChernData(2, (1,), (1,), 0)) == 1
    assert ext_euler(ci23, ChernData(2, (1,), (3,), 0)) == 1


def test_ext_euler_vanishes_when_c1X_zero(quintic):
    rng = random.Random(79)
    for _ in range(100):
        F = random_chern(rng, quintic)
        assert ext_euler(quintic, F) == 0
    for _ in range(20):
        X = random_threefold(rng, zero_c1=True)
        assert ext_euler(X, random_chern(rng, X)) == 0


def test_ext_euler_twist_invariant():
    rng = random.Random(83)
    for _ in range(100):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        L = random_div(rng, X)
        assert ext_euler(X, twist(X, F, L)) == ext_euler(X, F)
    for X, rank in itertools.product(PROOF_THREEFOLDS, PROOF_RANKS):
        for F, L in lattice_data(X, (rank,), divisors=1):
            assert ext_euler(X, twist(X, F, L)) == ext_euler(X, F)


def test_ext_euler_is_chi_of_end_F():
    # Two routes to chi(F, F): the closed form through the discriminant, and
    # Riemann-Roch on F* (x) F.  Proved on lattice points (conftest.lattice_data).
    for X, rank in itertools.product(PROOF_THREEFOLDS, PROOF_RANKS):
        for (F,) in lattice_data(X, (rank,)):
            assert ext_euler(X, F) == euler_char(X, tensor(X, dual(X, F), F))


def test_expected_dim_paper_instances(quadric, ci23):
    assert expected_dim(quadric, ChernData(2, (1,), (1,), 0)) == 0
    assert expected_dim(ci23, ChernData(2, (1,), (3,), 0)) == 0


def test_expected_dim_zero_on_calabi_yau(quintic):
    rng = random.Random(89)
    for _ in range(100):
        F = random_chern(rng, quintic, rank=2)
        assert expected_dim(quintic, F) == 0


def test_expected_dim_is_one_minus_ext_euler():
    rng = random.Random(97)
    for _ in range(100):
        X = random_threefold(rng)  # c1X drawn nonzero
        F = random_chern(rng, X, rank=2)
        assert expected_dim(X, F) == 1 - ext_euler(X, F)


def test_expected_dim_rejects_other_ranks(quadric):
    with pytest.raises(RankUnsupported):
        expected_dim(quadric, ChernData(3, (1,), (1,), 0))


# ---------------------------------------------------------------- Serre


def test_serre_c3_goldens(quadric, ci23, quintic):
    # locally free cases: the conversion returns 0 exactly
    assert serre_c3(quadric, DivClass((1,)), CurveClass((1,)), 0) == 0
    assert serre_c3(ci23, DivClass((1,)), CurveClass((3,)), 1) == 0
    assert serre_c3(quintic, DivClass((1,)), CurveClass((6,)), 4) == 0


def test_serre_genus_goldens(quadric, quintic):
    assert serre_genus(quadric, DivClass((1,)), CurveClass((1,)), 0) == 0
    assert serre_genus(quintic, DivClass((1,)), CurveClass((6,)), 0) == 4


def test_serre_round_trip():
    rng = random.Random(101)
    import warnings

    for _ in range(100):
        X = random_threefold(rng)
        det = random_div(rng, X)
        c2F = CurveClass(tuple(Fraction(rng.randint(-6, 6)) for _ in range(X.m)))
        genus = Fraction(rng.randint(-5, 12))
        c3 = serre_c3(X, det, c2F, genus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegralityWarning)
            assert serre_genus(X, det, c2F, c3) == genus


P3 = build_ci(CIPreset(3, ()))


@given(st.integers(-20, 20), st.integers(-50, 50), st.integers(0, 100))
def test_hartshorne_anchor_on_p3(c1, c2, g):
    # c3 = 2g - 2 + c2(4 - c1) for rank 2 on P3 (Hartshorne, Math. Ann. 254, 1980)
    c3 = 2 * g - 2 + c2 * (4 - c1)
    det, c2F = DivClass((c1,)), CurveClass((c2,))
    assert serre_c3(P3, det, c2F, g) == c3
    assert serre_genus(P3, det, c2F, c3) == g


def test_serre_c3_affine_slope_two(quadric):
    det, c2F = DivClass((2,)), CurveClass((3,))
    at = [serre_c3(quadric, det, c2F, g) for g in (0, 1, 5)]
    assert at[1] - at[0] == 2
    assert at[2] - at[0] == 10


def test_serre_genus_warns_on_non_geometric_values(quadric):
    with pytest.warns(IntegralityWarning):
        serre_genus(quadric, DivClass((1,)), CurveClass((1,)), 1)  # half-integral
    with pytest.warns(IntegralityWarning):
        serre_genus(quadric, DivClass((1,)), CurveClass((1,)), -6)  # negative
    with pytest.warns(IntegralityWarning):
        serre_genus(quadric, DivClass((1,)), CurveClass((1,)), -2)  # genus -1


# ---------------------------------------------------------------- ledger


def test_ledger_secant_line_instance():
    ledger = CohomologyLedger(h0_N=2, h0_F=3, h1_IC_zero=True)
    assert ext1_ledger(ledger) == 0


def test_ledger_canonical_curve_pattern():
    # with h0(F) = 2 and H1(I_C) = 0 the count is h0(N) - 1
    for h0_N in (1, 5, 9):
        assert ext1_ledger(CohomologyLedger(h0_N=h0_N, h0_F=2, h1_IC_zero=True)) == h0_N - 1


def test_ledger_explicit_h0_IF():
    assert ext1_ledger(CohomologyLedger(h0_N=4, h0_F=3, h0_IF=2)) == 3


def test_ledger_errors():
    with pytest.raises(InsufficientLedger):
        ext1_ledger(CohomologyLedger(h0_N=2, h0_F=1))
    with pytest.raises(NegativeDimension):
        ext1_ledger(CohomologyLedger(h0_N=0, h0_F=2, h1_IC_zero=True))
    # Only a bool asserts H1(I_C) = 0: a truthy string or int is refused, not read as True.
    for flag in ("no", 1):
        with pytest.raises(InvalidInput, match=f"^h1_IC_zero must be a bool, got {flag!r}$"):
            CohomologyLedger(3, 1, h1_IC_zero=flag)


def test_ledger_invariant_h1_forces_h0_IF_one():
    with pytest.raises(InvalidInput):
        CohomologyLedger(h0_N=2, h0_F=3, h0_IF=2, h1_IC_zero=True)
    ledger = CohomologyLedger(h0_N=2, h0_F=3, h0_IF=1, h1_IC_zero=True)
    assert ext1_ledger(ledger) == 0
    with pytest.raises(InvalidInput):
        CohomologyLedger(h0_N=-1, h0_F=0)


@pytest.mark.parametrize("field", ["h0_N", "h0_F", "h0_IF"])
def test_ledger_rejects_bool_counts(field):
    counts = {"h0_N": 2, "h0_F": 3, "h0_IF": 1, field: True}
    with pytest.raises(InvalidInput, match=f"^{field} must be a nonnegative integer, got True$"):
        CohomologyLedger(**counts)
