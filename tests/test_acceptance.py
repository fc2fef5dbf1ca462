"""Acceptance gate: one test per shipped criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; a failure shows up as an
ordinary pytest failure for the criterion's number.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

import chern3
from chern3.chow import DivClass, pair_div_curve, todd_genus
from chern3.ci import CIPreset, build_ci
from chern3.cli import Request, run
from chern3.dzero import verify_paper_claims
from chern3.errors import RedundantDegreeWarning
from chern3.moduli import (
    CohomologyLedger,
    expected_dim,
    ext1_ledger,
    ext_euler,
    serre_genus,
)
from chern3.sheaf import ChernData, discriminant, dual, euler_char, twist
from chern3.splitting import verify_tensor_formulas
from chern3.chow import mul_div_div

from conftest import random_chern, random_div, random_threefold


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_case_analysis_suite():
    """Certified solvability pattern over the seven catalogued presets."""
    with pytest.warns(RedundantDegreeWarning):
        report = verify_paper_claims(k_range=(-50, 50), c_range=(-50, 50))
    by_name = {entry.preset: entry.report for entry in report.entries}

    quadric = by_name["[2] in P4"]
    assert quadric.solvable and quadric.normalized == (2, -1, -1)
    assert all(2 * c == k * k + 1 for k, c in quadric.witnesses)

    ci23 = by_name["[2,3] in P5"]
    assert ci23.solvable and ci23.normalized == (2, -3, -3)
    assert all(2 * c == 3 * (1 + k * k) for k, c in ci23.witnesses)

    for name in ("[1] in P4", "[3] in P4", "[4] in P4", "[2,2] in P5", "[2,2,2] in P6"):
        entry = by_name[name]
        assert not entry.solvable
        assert entry.obstruction is not None and entry.obstruction.modulus is not None
        assert entry.grid_checked and entry.witnesses == ()

    resp = run(Request("verify", {"suite": "paper"}, "json"))
    assert resp.data["ok"] is True
    _report(1, "verify --suite paper certifies 2 solvable + 5 certified-impossible presets")


def test_criterion_2_worked_instances():
    """The two worked zero-dimension instances, plus their genus conversions."""
    quadric = build_ci(CIPreset(4, (2,)))
    ci23 = build_ci(CIPreset(5, (2, 3)))
    assert expected_dim(quadric, ChernData(2, (1,), (1,), 0)) == 0
    assert expected_dim(ci23, ChernData(2, (1,), (3,), 0)) == 0
    from chern3.chow import CurveClass

    assert serre_genus(quadric, DivClass((1,)), CurveClass((1,)), 0) == 0
    assert serre_genus(ci23, DivClass((1,)), CurveClass((3,)), 0) == 1
    _report(2, "D = 0 at (quadric, k=1, c=1) and ((2,3), k=1, c=3); genus 0 and 1")


def test_criterion_3_tensor_formula_oracle():
    """Closed form vs Chern-root specialization on [1,4]^2, exactly."""
    report = verify_tensor_formulas(max_rank=4, trials=100, seed=42)
    assert report.ok
    assert len(report.pairs) == 16
    for pair in report.pairs:
        assert pair.passed and pair.grid_checks == 36
    _report(3, "tensor_closed_form = tensor_from_roots on 16 rank pairs, 100 trials + grid each")


def test_criterion_4_riemann_roch_sanity():
    """chi(O) on Fano presets and the quintic; chi(O_P3(1)) = 4."""
    checked = 0
    for ambient in range(3, 9):
        for degrees in _fano_degree_tuples(ambient - 3, ambient):
            X = build_ci(CIPreset(ambient, degrees))
            assert pair_div_curve(X, X.c1X, X.c2X) == 24
            assert todd_genus(X) == 1
            checked += 1
    assert checked == 7  # all Fano CIs with degrees >= 2 live in P3..P6
    quintic = build_ci(CIPreset(4, (5,)))
    assert todd_genus(quintic) == 0
    p3 = build_ci(CIPreset(3, ()))
    hyperplane = ChernData(1, (1,), (0,), 0)
    assert euler_char(p3, hyperplane) == 4
    _report(4, f"chi(O) = 1 on {checked} Fano presets, 0 on the quintic; chi(O_P3(1)) = 4")


def _fano_degree_tuples(count, max_total):
    if count == 0:
        yield ()
        return
    for first in range(2, max_total + 1):
        for rest in _fano_degree_tuples(count - 1, max_total - first):
            if rest and rest[0] < first:
                continue
            yield (first,) + rest


def test_criterion_5_identity_suite():
    """Discriminant twist-invariance and the chi-duality identity, 200 each."""
    rng = random.Random(2024)
    for _ in range(200):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        L = random_div(rng, X)
        assert discriminant(X, twist(X, F, L)) == discriminant(X, F)
    for _ in range(200):
        X = random_threefold(rng)
        F = random_chern(rng, X)
        lhs = euler_char(X, F) + euler_char(X, dual(X, F))
        rhs = (
            -pair_div_curve(X, X.c1X, F.c2)
            + pair_div_curve(X, X.c1X, mul_div_div(X, F.c1, F.c1)) / 2
            + Fraction(F.rank, 12) * pair_div_curve(X, X.c1X, X.c2X)
        )
        assert lhs == rhs
    _report(5, "Delta(F (x) L) = Delta(F) and chi(F) + chi(F*) identity, 200 random inputs each")


def test_criterion_6_calabi_yau_degeneration():
    """ext_euler and expected_dim vanish identically when c1(X) = 0."""
    rng = random.Random(777)
    quintic = build_ci(CIPreset(4, (5,)))
    for i in range(100):
        X = quintic if i % 2 == 0 else random_threefold(rng, zero_c1=True)
        F = random_chern(rng, X, rank=2)
        assert ext_euler(X, F) == 0
        assert expected_dim(X, F) == 0
    _report(6, "ext_euler = expected_dim = 0 on 100 random rank-2 inputs with c1(X) = 0")


def test_criterion_7_ledger_reproduction():
    """Ext^1 dimension counts from the two worked cohomology ledgers."""
    assert ext1_ledger(CohomologyLedger(h0_N=2, h0_F=3, h1_IC_zero=True)) == 0
    for h0_N in range(1, 8):
        ledger = CohomologyLedger(h0_N=h0_N, h0_F=2, h1_IC_zero=True)
        assert ext1_ledger(ledger) == h0_N - 1
    _report(7, "Ext^1 = 0 from (h0N=2, h0F=3, H1(I_C)=0) and the h0(N) - 1 pattern")


def test_criterion_8_scope_boundary():
    """Smoothness and virtual-cycle conclusions stay out of numerical scope.

    The engine exposes no sheaf-cohomology computation and issues no
    smoothness verdicts; its guarantees for that material are the identity
    and case-analysis suites above, applied to user-supplied dimensions.
    """
    exported = set(dir(chern3))
    for forbidden in ("sheaf_cohomology", "is_smooth", "hilbert_scheme", "virtual_cycle"):
        assert not any(forbidden in name.lower() for name in exported)
    # dimension counts only enter through explicit user ledgers
    assert "CohomologyLedger" in exported
    _report(8, "no smoothness or cohomology claims in the API; ledger inputs are explicit")
