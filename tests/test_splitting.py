import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chern3.errors import EmptyRoots, InvalidInput, LimitExceeded
from chern3.splitting import (
    RootPoly,
    RootSpec,
    ScalarChern,
    chern_from_roots,
    tensor_closed_form,
    tensor_from_roots,
    verify_tensor_formulas,
    _elementary_symmetric,
    _proved,
    _random_points,
    _terms,
)


def test_chern_from_roots_basics():
    assert chern_from_roots([Fraction(5)]) == ScalarChern(5, 0, 0)
    assert chern_from_roots([1, 2]) == ScalarChern(3, 2, 0)
    assert chern_from_roots([1, 2, 3]) == ScalarChern(6, 11, 6)
    with pytest.raises(EmptyRoots):
        chern_from_roots([])


def test_chern_from_roots_permutation_invariant():
    rng = random.Random(7)
    for _ in range(50):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        shuffled = roots[:]
        rng.shuffle(shuffled)
        assert chern_from_roots(roots) == chern_from_roots(shuffled)


def test_tensor_from_roots_examples():
    assert tensor_from_roots(RootSpec(("3",), ("4",))) == ScalarChern(7, 0, 0)
    x = Fraction(5, 3)
    spec = RootSpec((0, 0), (x,))
    assert tensor_from_roots(spec) == ScalarChern(2 * x, x * x, 0)
    assert tensor_from_roots(RootSpec((1, -1), (0,))) == ScalarChern(0, -1, 0)


def test_root_spec_validation():
    with pytest.raises(EmptyRoots):
        RootSpec((), (1,))
    with pytest.raises(InvalidInput):
        RootSpec((Fraction(10**7),), (1,))


def test_closed_form_line_times_line():
    out = tensor_closed_form(1, 1, ScalarChern(3, 0, 0), ScalarChern("1/2", 0, 0))
    assert out == ScalarChern(Fraction(7, 2), 0, 0)


def test_closed_form_reproduces_rank2_twist():
    # r1 = 2, r2 = 1 specializes the c2 formula to c2 + c1 L + L^2
    c1, c2, L = Fraction(3), Fraction(5), Fraction(2)
    out = tensor_closed_form(2, 1, ScalarChern(c1, c2, 0), ScalarChern(L, 0, 0))
    assert out.c1 == c1 + 2 * L
    assert out.c2 == c2 + c1 * L + L * L


def test_closed_form_direct_sum_specialization():
    # F trivial of rank s: the product is E^s with total class c(E)^s
    rng = random.Random(11)
    for s in (1, 2, 3, 4):
        for _ in range(20):
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
            cE = chern_from_roots(roots)
            out = tensor_closed_form(3, s, cE, ScalarChern(0, 0, 0))
            assert out.c1 == s * cE.c1
            assert out.c2 == comb(s, 2) * cE.c1**2 + s * cE.c2
            assert out.c3 == (
                comb(s, 3) * cE.c1**3 + s * (s - 1) * cE.c1 * cE.c2 + s * cE.c3
            )


def test_oracle_equivalence_all_rank_pairs():
    report = verify_tensor_formulas(max_rank=4, trials=100, seed=42)
    assert report.ok
    assert len(report.pairs) == 16
    for pair in report.pairs:
        assert pair.passed, (pair.r1, pair.r2, pair.counterexample)


def test_oracle_equivalence_other_seeds():
    for seed in (0, 1, 12345):
        assert verify_tensor_formulas(max_rank=3, trials=40, seed=seed).ok


def test_trivial_single_trial():
    assert verify_tensor_formulas(max_rank=1, trials=1, seed=0).ok


def test_harness_detects_perturbed_closed_form():
    def flipped(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        return ScalarChern(good.c1, good.c2 - 2 * r2 * cE.c2, good.c3)

    report = verify_tensor_formulas(max_rank=3, trials=20, seed=42, closed_form=flipped)
    assert not report.ok
    bad = [p for p in report.pairs if not p.passed]
    assert bad
    for pair in bad:
        assert pair.counterexample is not None
        assert pair.counterexample.closed_form != pair.counterexample.from_roots


def test_verify_guards():
    with pytest.raises(LimitExceeded):
        verify_tensor_formulas(max_rank=7)
    with pytest.raises(InvalidInput):
        verify_tensor_formulas(trials=0)


def test_reports_are_deterministic_for_a_seed():
    a = verify_tensor_formulas(max_rank=3, trials=25, seed=9)
    b = verify_tensor_formulas(max_rank=3, trials=25, seed=9)
    assert a == b


def test_trials_are_capped():
    with pytest.raises(LimitExceeded):
        verify_tensor_formulas(max_rank=1, trials=1001)
    assert verify_tensor_formulas(max_rank=1, trials=1000).ok


# ---------------------------------------------------------------- the proof


def test_proof_alone_rejects_the_flipped_form():
    def flipped(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        return ScalarChern(good.c1, good.c2 - 2 * r2 * cE.c2, good.c3)

    for r1 in range(1, 7):
        for r2 in range(1, 7):
            assert _proved(tensor_closed_form, r1, r2)
            # c2 of a line bundle vanishes, so for r1 = 1 the perturbation is 0
            assert _proved(flipped, r1, r2) == (r1 == 1), (r1, r2)


def test_a_refuted_proof_fails_the_pair_even_when_every_sample_agrees():
    def wrong_on_variables(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        if isinstance(cE.c1, RootPoly):
            return ScalarChern(good.c1, good.c2 + cE.c1 * cF.c1, good.c3)
        return good

    report = verify_tensor_formulas(max_rank=2, trials=5, seed=1, closed_form=wrong_on_variables)
    assert not report.ok
    for pair in report.pairs:
        assert not pair.passed
        assert (pair.grid_checks, pair.counterexample) == (36, None)


def test_each_pair_calls_the_closed_form_once_per_proof_and_sample():
    calls = []

    def counting(r1, r2, cE, cF):
        calls.append((r1, r2))
        return tensor_closed_form(r1, r2, cE, cF)

    assert verify_tensor_formulas(max_rank=3, trials=7, seed=5, closed_form=counting).ok
    assert len(calls) == 9 * (1 + 36 + 7)


def test_random_points_scale_the_seeded_rational_draws():
    # each root is rng.randint(-30, 30) / rng.randint(1, 12), drawn in that order
    for n_roots in (2, 7, 12):
        rng, replay = random.Random(n_roots), random.Random(n_roots)
        for roots, scale in _random_points(rng, n_roots, 25):
            want = [Fraction(replay.randint(-30, 30), replay.randint(1, 12)) for _ in range(n_roots)]
            assert [Fraction(x, scale) for x in roots] == want


# ---------------------------------------------------------------- RootPoly

N_VARS = 4


def _poly(monomials):
    """A RootPoly from (variable indices, coefficient) pairs."""
    terms = {}
    for indices, coeff in monomials:
        key = len(indices) + sum(1 << 2 * i + 2 for i in indices)
        terms[key] = terms.get(key, 0) + coeff
    return RootPoly({key: coeff for key, coeff in terms.items() if coeff})


def _evaluate(poly, point, degree=None):
    """Direct integer evaluation, optionally of one homogeneous part."""
    total = 0
    for key, coeff in poly.terms.items():
        if degree is None or key & 3 == degree:
            value = coeff
            for i, x in enumerate(point):
                value *= x ** ((key >> 2 * i + 2) & 3)
            total += value
    return total


_monomials = st.lists(
    st.tuples(st.lists(st.integers(0, N_VARS - 1), max_size=3), st.integers(-20, 20)),
    max_size=8,
)
_polys = _monomials.map(_poly)
_points = st.lists(st.integers(-9, 9), min_size=N_VARS, max_size=N_VARS)
_affine = st.lists(
    st.tuples(st.lists(st.integers(0, N_VARS - 1), max_size=1), st.integers(-5, 5)), max_size=3
).map(_poly)


@given(_polys, _polys, st.integers(-9, 9), _points)
def test_root_poly_sum_matches_evaluation(p, q, k, point):
    assert _evaluate(p + q, point) == _evaluate(p, point) + _evaluate(q, point)
    assert _evaluate(p - q, point) == _evaluate(p, point) - _evaluate(q, point)
    assert _evaluate(k + p, point) == k + _evaluate(p, point)
    assert p - p == 0 and (p + q) - q == p


@given(_polys, _polys, st.integers(-9, 9), _points)
def test_root_poly_product_matches_evaluation_up_to_degree_3(p, q, k, point):
    product = p * q
    assert all(product.terms.values())  # no zero coefficients are stored
    for d in range(4):
        want = sum(_evaluate(p, point, i) * _evaluate(q, point, d - i) for i in range(d + 1))
        assert _evaluate(product, point, d) == want
    assert _evaluate(k * p, point) == k * _evaluate(p, point)
    assert p**2 == p * p and p**3 == p * p * p


@given(st.lists(_affine, max_size=7), _points)
def test_elementary_symmetric_of_polynomial_roots_matches_evaluation(roots, point):
    # roots of degree <= 1 give e_i of degree <= i <= 3: no truncation
    want = _elementary_symmetric([_evaluate(r, point) for r in roots])
    got = _elementary_symmetric(roots)
    assert tuple(_evaluate(RootPoly(_terms(e)), point) for e in got) == want


def test_root_poly_truncates_above_degree_3():
    x, y = RootPoly.variable(0), RootPoly.variable(1)
    assert x**4 == 0 and (x * y) * (x * y) == 0
    assert (1 + x) ** 4 == 1 + 4 * x + 6 * x**2 + 4 * x**3
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
