import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chern3.errors import EmptyRoots, InvalidInput, LimitExceeded
from chern3.splitting import (
    RootSpec,
    ScalarChern,
    chern_from_roots,
    tensor_closed_form,
    tensor_from_roots,
    verify_tensor_formulas,
    _proved,
    _random_points,
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
    with pytest.raises(InvalidInput, match="exceeds the 10"):
        RootSpec((10**6 + 1,), (1,))
    # the bound itself is inside, for numerators and denominators alike
    assert RootSpec((10**6,), (Fraction(1, 10**6),)).rootsF == (Fraction(1, 10**6),)


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
        cx = pair.counterexample
        assert cx is not None
        assert cx.closed_form != cx.from_roots
        assert cx.from_roots == tensor_from_roots(cx.spec)
        assert cx.closed_form == flipped(
            pair.r1, pair.r2, chern_from_roots(cx.spec.rootsE), chern_from_roots(cx.spec.rootsF))

    # E = (1, 1) against F = (0,) is the first grid point where c2(E) != 0
    report = verify_tensor_formulas(max_rank=2, trials=20, seed=42, closed_form=flipped)
    (pair,) = [p for p in report.pairs if (p.r1, p.r2) == (2, 1)]
    assert pair.grid_checks == 7
    assert (pair.counterexample.spec.rootsE, pair.counterexample.spec.rootsF) == ((1, 1), (0,))


def test_a_sampled_counterexample_reports_what_was_compared():
    # Wrong only far out, where no proof or grid point goes: the first seeded sample refutes it.
    def wrong_far_out(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        return ScalarChern(good.c1, good.c2, good.c3 + 1) if abs(cE.c1) > 1000 else good

    report = verify_tensor_formulas(max_rank=2, trials=5, seed=42, closed_form=wrong_far_out)
    assert not report.ok and len(report.pairs) == 4
    for pair in report.pairs:
        r1, r2, cx = pair.r1, pair.r2, pair.counterexample
        assert not pair.passed and pair.grid_checks == 36
        assert _proved(wrong_far_out, r1, r2)
        (first,) = _random_points(random.Random(42 * 10007 + r1 * 101 + r2), r1 + r2, 1)
        assert cx.spec == RootSpec(first[:r1], first[r1:])
        assert cx.from_roots == tensor_from_roots(cx.spec)
        cE, cF = chern_from_roots(cx.spec.rootsE), chern_from_roots(cx.spec.rootsF)
        assert cx.closed_form == wrong_far_out(r1, r2, cE, cF)
        assert cx.closed_form != cx.from_roots
        values = (*cx.spec.rootsE, *cx.spec.rootsF, *tuple(cx.closed_form), *tuple(cx.from_roots))
        assert all(type(v) is Fraction for v in values)


def test_verify_guards():
    with pytest.raises(LimitExceeded):
        verify_tensor_formulas(max_rank=7)
    with pytest.raises(InvalidInput):
        verify_tensor_formulas(trials=0)
    with pytest.raises(InvalidInput, match="max_rank must be at least 1"):
        verify_tensor_formulas(max_rank=0)
    for name, value in (("max_rank", 2.5), ("trials", 2.5), ("seed", 1.5), ("trials", True), ("seed", "1")):
        with pytest.raises(InvalidInput, match=f"^{name}: expected an integer, got {type(value).__name__} "):
            verify_tensor_formulas(**{name: value})
    for r1, r2 in ((0, 1), (1, 0)):
        with pytest.raises(InvalidInput, match="ranks must be positive"):
            tensor_closed_form(r1, r2, ScalarChern(0, 0, 0), ScalarChern(0, 0, 0))


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
    # Wrong only where E's roots are (3, 0, ...) and F's are all 0: an orbit
    # point of the proof that no grid pattern and no seed-1 sample reaches.
    def wrong_at_one_orbit(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        if (cE.c1, cE.c2, cE.c3, cF.c1, cF.c2, cF.c3) == (3, 0, 0, 0, 0, 0):
            return ScalarChern(good.c1, good.c2 + 1, good.c3)
        return good

    report = verify_tensor_formulas(max_rank=2, trials=5, seed=1, closed_form=wrong_at_one_orbit)
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

    def partitions(size, parts):
        # nonincreasing tuples of at most `parts` positive integers summing to `size`
        return sum(
            1 for n in range(parts + 1) for p in product(range(1, size + 1), repeat=n)
            if sum(p) == size and list(p) == sorted(p, reverse=True)
        )

    proof = sum(
        partitions(a, r1) * partitions(b, r2)
        for r1 in range(1, 4) for r2 in range(1, 4) for a in range(4) for b in range(4 - a)
    )
    assert proof == 132
    assert len(calls) == proof + 9 * (36 + 7)


def test_random_points_replay_one_seeded_draw_per_root():
    # each root is rng.getrandbits(20) - 2**19, drawn in order, E's roots first
    for n_roots in (2, 7, 12):
        rng, replay = random.Random(n_roots), random.Random(n_roots)
        points = list(_random_points(rng, n_roots, 25))
        assert points == [[replay.getrandbits(20) - 2**19 for _ in range(n_roots)] for _ in range(25)]
        assert all(type(x) is int and -(2**19) <= x < 2**19 for point in points for x in point)


# Monomials in (c1E, c2E, c3E, c1F, c2F, c3F) as exponent tuples, of weight
# 1 to 3: 2 of weight 1, 5 of weight 2 and 10 of weight 3.
WEIGHTS = (1, 2, 3, 1, 2, 3)


def _weight(exps):
    return sum(w * e for w, e in zip(WEIGHTS, exps))


MONOMIALS = [exps for exps in product(range(4), repeat=6) if 1 <= _weight(exps) <= 3]


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from(MONOMIALS), st.integers(-3, 3), max_size=4))
def test_the_proof_refutes_exactly_the_perturbations_that_survive_the_ranks(combination):
    """Adding to c_i an integer combination of weight-i monomials in the classes
    breaks the identity exactly when a monomial with a nonzero coefficient uses
    only c_j(E), j <= r1, and c_j(F), j <= r2: those e_j are algebraically
    independent, and every other c_j vanishes."""
    assert sorted(map(_weight, MONOMIALS)) == [1] * 2 + [2] * 5 + [3] * 10

    def perturbed(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        values = (cE.c1, cE.c2, cE.c3, cF.c1, cF.c2, cF.c3)
        extra = [0, 0, 0]
        for exps, coeff in combination.items():
            extra[_weight(exps) - 1] += coeff * prod(v**e for v, e in zip(values, exps))
        return ScalarChern(good.c1 + extra[0], good.c2 + extra[1], good.c3 + extra[2])

    for r1 in range(1, 7):
        for r2 in range(1, 7):
            survives = any(
                coeff and all(e == 0 or j % 3 < (r1 if j < 3 else r2) for j, e in enumerate(exps))
                for exps, coeff in combination.items()
            )
            assert _proved(perturbed, r1, r2) == (not survives), (r1, r2, combination)
