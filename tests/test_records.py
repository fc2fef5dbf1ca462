"""The contract every chern3 record keeps: immutable, copyable, picklable,
and checked the same way by its constructor, ``_make`` and ``_replace``."""

import copy
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from chern3.chow import CurveClass, DivClass, Threefold
from chern3.ci import CIPreset, build_ci, parse_preset
from chern3.cli import COMMANDS, Command, Flag, Request, Response, _IntRows, run
from chern3.dzero import (
    Condition,
    DZeroProblem,
    DZeroReport,
    Normalized,
    Obstruction,
    PaperClaimsReport,
    PresetClaim,
    WitnessRectangle,
    solve_dzero,
)
from chern3.errors import DimensionMismatch, EmptyRoots, InvalidInput
from chern3.moduli import CohomologyLedger
from chern3.sheaf import CharacterData, ChernData, to_character
from chern3.splitting import (
    Counterexample,
    RankPairResult,
    RootSpec,
    ScalarChern,
    TensorFormulaReport,
    verify_tensor_formulas,
)

from conftest import random_chern, random_curve, random_div, random_rat, random_threefold


def _problem(rng):
    X = build_ci(parse_preset(rng.choice(["[2] in P4", "[5] in P4", "[2,3] in P5", "[] in P3"])))
    k_lo, c_lo = rng.randint(-4, 4), rng.randint(-6, 6)
    return DZeroProblem(X, (k_lo, k_lo + rng.randint(0, 3)), (c_lo, c_lo + rng.randint(0, 3)))


def _preset(rng):
    ambient = rng.randint(3, 6)
    return CIPreset(ambient, tuple(rng.randint(2, 5) for _ in range(ambient - 3)))


def _character(rng):
    X = random_threefold(rng)
    return to_character(X, random_chern(rng, X))


def _ledger(rng):
    h1_IC_zero = rng.random() < 0.5
    h0_IF = rng.choice([None, 1] if h1_IC_zero else [None, 0, 1, 3])
    return CohomologyLedger(rng.randint(0, 5), rng.randint(0, 5), h0_IF, h1_IC_zero)


def _ranges(rng):
    k_lo, c_lo = rng.randint(-9, 9), rng.randint(-9, 9)
    return (k_lo, k_lo + rng.randint(0, 5)), (c_lo, c_lo + rng.randint(0, 5))


def _ledger_request(rng):
    h0_F = rng.randint(0, 5)
    payload = {"h0_N": h0_F + rng.randint(0, 5), "h0_F": h0_F, "h1_IC_zero": True}
    return Request("ledger", payload, rng.choice(["table", "json"]))


# A partial equals only itself, so no copy of a flag that parses through one would equal it.
_FLAGS = [flag for command in COMMANDS.values() for flag in command.flags if type(flag.parse) is not partial]


def _tensor_report(rng):
    return verify_tensor_formulas(rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 99))


def _counterexample(rng):
    spec = RECORDS[RootSpec](rng)
    return Counterexample(spec, RECORDS[ScalarChern](rng), RECORDS[ScalarChern](rng))


# A valid record of each type from a seeded generator.
RECORDS = {
    DivClass: lambda rng: random_div(rng, random_threefold(rng)),
    CurveClass: lambda rng: random_curve(rng, random_threefold(rng)),
    Threefold: lambda rng: random_threefold(rng, zero_c1=rng.random() < 0.3),
    CIPreset: _preset,
    CharacterData: _character,
    CohomologyLedger: _ledger,
    DZeroProblem: _problem,
    DZeroReport: lambda rng: solve_dzero(_problem(rng)),
    RootSpec: lambda rng: RootSpec(*([random_rat(rng) for _ in range(rng.randint(1, 3))] for _ in "EF")),
    ChernData: lambda rng: random_chern(rng, random_threefold(rng)),
    ScalarChern: lambda rng: ScalarChern(rng.randint(-9, 9), random_rat(rng), rng.randint(-9, 9)),
    Request: _ledger_request,
    Response: lambda rng: run(_ledger_request(rng)),
    Flag: lambda rng: rng.choice(_FLAGS),
    Command: lambda rng: Command("help", COMMANDS["ledger"].handler, tuple(rng.sample(_FLAGS, 2))),
    _IntRows: lambda rng: _IntRows("rows", rng.choice([((1, 2), (3, 4)), WitnessRectangle(*_ranges(rng))]), 2),
    Obstruction: lambda rng: Obstruction("congruence", rng.randint(2, 9), "no residue"),
    Condition: lambda rng: Condition(random_rat(rng), random_rat(rng), random_rat(rng)),
    Normalized: lambda rng: Normalized(rng.randint(0, 9), rng.randint(-9, 9), rng.randint(-9, 9)),
    PresetClaim: lambda rng: PresetClaim("[2] in P4", RECORDS[DZeroReport](rng)),
    PaperClaimsReport: lambda rng: PaperClaimsReport((RECORDS[PresetClaim](rng),)),
    WitnessRectangle: lambda rng: WitnessRectangle(*_ranges(rng)),
    Counterexample: _counterexample,
    RankPairResult: lambda rng: rng.choice(_tensor_report(rng).pairs),
    TensorFormulaReport: _tensor_report,
}
# Records that hold a dict, and so do not hash.
UNHASHABLE = {Request, Response, Flag, Command}
# The attributes of the records that are not named tuples.
SLOTS = {DivClass: ("coords",), CurveClass: ("coords",), WitnessRectangle: ("ks", "cs")}

# For each type that validates: a field, a value it refuses, and the named error.
REFUSED = {
    # Refused at every drawn Picard rank (1 to 3); names are checked first.  The
    # asymmetric form, which needs rank 2 or more, is a case in test_chow.py.
    Threefold: [("c2X", (1, 2, 3, 4), DimensionMismatch), ("generator_names", ("H\udcff",), InvalidInput),
                ("generator_names", 5, InvalidInput), ("generator_names", "Hx", InvalidInput),
                ("T", 5, InvalidInput), ("curve_lattice", 5, InvalidInput), ("c1X", 5, InvalidInput),
                ("c2X", "x", InvalidInput), ("curve_lattice", (5,), InvalidInput)],
    CIPreset: [("ambient", 2, InvalidInput), ("degrees", (0,) * 9, InvalidInput),
               ("degrees", "ab", InvalidInput)],
    CharacterData: [("ch0", 1.5, InvalidInput), ("ch1", CurveClass((1,)), InvalidInput)],
    CohomologyLedger: [("h0_N", -1, InvalidInput), ("h0_IF", True, InvalidInput),
                       ("h1_IC_zero", "no", InvalidInput)],
    DZeroProblem: [("threefold", "x", InvalidInput), ("k_range", (5, -5), InvalidInput),
                   ("c_range", (0, 1.0), InvalidInput)],
    RootSpec: [("rootsE", (), EmptyRoots), ("rootsF", (10**7,), InvalidInput), ("rootsE", "12", InvalidInput)],
    ChernData: [("rank", 0, InvalidInput), ("c3", 0.5, InvalidInput), ("c1", CurveClass((1,)), InvalidInput)],
    ScalarChern: [("c1", True, InvalidInput), ("c2", 0.5, InvalidInput)],
}


def _error(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(RECORDS)), st.integers(0, 2**32), st.data())
def test_records_copy_refuse_assignment_and_validate_every_way(kind, seed, data):
    value = RECORDS[kind](random.Random(seed))
    assert type(value) is kind
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is kind and twin == value
        assert kind in UNHASHABLE or hash(twin) == hash(value)
        if kind is Threefold:
            assert (twin.m, twin.c1X_is_zero, twin.chi_O) == (value.m, value.c1X_is_zero, value.chi_O)

    names = SLOTS.get(kind) or value._fields
    for name in (*names, *getattr(value, "__dict__", ()), "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    if kind in (DivClass, CurveClass):
        other = (CurveClass if kind is DivClass else DivClass)(value.coords)
        assert value != other and not value == other
        return
    if kind in REFUSED:
        field, bad, error = data.draw(st.sampled_from(REFUSED[kind]))
        fields = {**value._asdict(), field: bad}
        refused = _error(lambda: kind(**fields))
        assert refused[0] is error
        assert _error(lambda: value._replace(**{field: bad})) == refused
        assert _error(lambda: kind._make(fields.values())) == refused
