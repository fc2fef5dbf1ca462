"""The benchmark's own tests: each output check accepts the program's answer
and rejects a perturbed one.

    python3 -m pytest bench/test_oracle.py -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import chern3.cli as cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Mismatch  # noqa: E402
from worker import Checker  # noqa: E402


def render(op: workloads.Op) -> str:
    response = cli.run(cli.Request(op.command, op.payload, op.mode))
    return cli.response_json(response) if op.mode == "json" else cli.response_table(response)


def flat_of(op: workloads.Op) -> dict[str, str]:
    return oracle.parse_output(op.command, op.mode, render(op))


def bump(value: str) -> str:
    if value in ("true", "false"):
        return "false" if value == "true" else "true"
    return oracle.text(Fraction(value) + 1)


def find(ops, predicate) -> workloads.Op:
    return next(op for op in ops if predicate(op))


@pytest.fixture(scope="module")
def checker() -> Checker:
    return Checker(cli)


@pytest.fixture(scope="module")
def requests_ops() -> list[workloads.Op]:
    return workloads.build("requests", 1)


# ------------------------------------------------------- independent anchors


def test_koszul_matches_known_values():
    p3 = workloads.P3
    for a in range(-8, 8):
        assert p3.chi_line(a) == Fraction(math.comb(a + 3, 3) if a >= -3 else -math.comb(-a - 1, 3))
    quintic, quadric = workloads.Preset(4, (5,)), workloads.Preset(4, (2,))
    assert quintic.chi_line(0) == 0 and quintic.chi_line(1) == 5
    assert quadric.chi_line(1) == 5
    assert quintic.tangent_class(2) == 10 and quintic.tangent_class(3) * 5 == -200


def test_hrr_agrees_with_koszul_on_complete_intersections():
    for preset in workloads.FANO + workloads.CALABI_YAU + workloads.GENERAL:
        X = preset.model()
        doc_only = oracle.Model(X.T, X.c1X, X.c2X, X.lattice)
        for a in range(-3, 4):
            assert doc_only.chi_line((Fraction(a),)) == X.chi_line((Fraction(a),)), preset.name


def test_hartshorne_anchor_on_p3():
    X = workloads.P3.model()
    for c1, c2, g in ((0, 1, 0), (-1, 2, 0), (0, 3, 1), (1, 5, 2)):
        want = 2 * g - 2 + c2 * (4 - c1)
        generic = 2 * g - 2 + X.pair((X.c1X[0] - c1,), (Fraction(c2),))
        assert oracle.serre_c3(X, (Fraction(c1),), (Fraction(c2),), Fraction(g)) == want == generic


# ------------------------------------------------- every workload op passes


def test_every_requests_op_passes(checker, requests_ops):
    for i, op in enumerate(requests_ops):
        for mode in ("json", "table"):
            other = dataclasses.replace(op, mode=mode)
            checker.check(("both", i, mode), other, render(other))


def test_small_search_and_verify_ops_pass(checker):
    ops = [op for op in workloads.build("search", 1) if op.points <= 5_000]
    ops += [op for op in workloads.build("verify", 1)
            if op.meta.get("max_rank", 9) <= 2 or op.meta.get("verify_paper")]
    for i, op in enumerate(ops):
        checker.check(("small", i), op, render(op))


def test_cold_requests_pass(checker):
    for name in ("requests", "search"):
        _, op = workloads.cold_request(name, 1)
        checker.check(("cold", name), op, render(op))


# ------------------------------------------------- perturbed answers fail


def rejects(checker: Checker, op: workloads.Op, key: str, flat: dict[str, str] | None = None) -> None:
    flat = dict(flat or flat_of(op))
    checker.check_flat(id(op), op, flat)
    assert key in flat, key
    flat[key] = bump(flat[key])
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, flat)


@pytest.mark.parametrize("key", ["tangent_chern.c1", "tangent_chern.c2", "threefold.T[0][0][0]",
                                 "threefold.c1X[0]", "classification"])
def test_threefold_check(checker, requests_ops, key):
    op = find(requests_ops, lambda o: o.command == "threefold")
    if key == "classification":
        flat = flat_of(op)
        flat[key] = "Fano" if flat[key] != "Fano" else "GeneralType"
        with pytest.raises(Mismatch):
            checker.check_flat(id(op), op, flat)
    else:
        rejects(checker, op, key)


@pytest.mark.parametrize("custom", [False, True])
def test_chi_check(checker, requests_ops, custom):
    op = find(requests_ops, lambda o: o.command == "chi" and (o.target.preset is None) == custom)
    rejects(checker, op, "chi")
    rejects(checker, op, "sheaf.c1[0]")


@pytest.mark.parametrize("key", ["ext_euler", "expected_dim"])
def test_moduli_dim_check(checker, requests_ops, key):
    op = find(requests_ops, lambda o: o.command == "moduli-dim" and o.target.c1X[0] != 0)
    rejects(checker, op, key)


@pytest.mark.parametrize("variant,key", [("tensor", "result.c2[0]"), ("tensor", "result.c3"),
                                         ("twist", "result.c1[0]"), ("dual", "result.c3"),
                                         ("delta", "delta[0]")])
def test_chern_check(checker, requests_ops, variant, key):
    op = find(requests_ops, lambda o: o.command == "chern" and o.payload["op"] == variant)
    rejects(checker, op, key)


def test_delta_is_checked_against_the_untwisted_sheaf(checker):
    ops = workloads.build("requests", 3)
    twisted = [op for op in ops if op.command == "chern" and op.payload["op"] == "delta"
               and op.payload["F"] != oracle.chern_of_roots(op.target, op.meta["F"]).doc()]
    assert twisted
    for op in twisted:
        checker.check_flat(id(op), op, flat_of(op))


class _WrongProgram:
    """Stands in for chern3.cli and returns a wrong answer to every request."""

    Request = cli.Request

    @staticmethod
    def run(request):
        response = cli.run(request)
        data = dict(response.data)
        if "result" in data:
            data["result"] = dict(data["result"], c3="12345")
        for key in ("c3", "genus"):
            if key in data:
                data[key] = "12345"
        return cli.Response(response.status, response.command, data, response.audit)


@pytest.mark.parametrize("command,variant", [("chern", "dual"), ("serre", "to-c3"),
                                             ("serre", "to-genus")])
def test_round_trips_use_the_program(requests_ops, command, variant):
    key = "op" if command == "chern" else "direction"
    op = find(requests_ops, lambda o: o.command == command and o.payload[key] == variant)
    flat = flat_of(op)
    Checker(cli).check_flat(id(op), op, flat)
    with pytest.raises(Mismatch):
        Checker(_WrongProgram).check_flat(id(op), op, flat)


@pytest.mark.parametrize("variant,key", [("to-c3", "c3"), ("to-genus", "genus")])
def test_serre_check(checker, requests_ops, variant, key):
    for p3 in (True, False):
        op = find(requests_ops, lambda o: o.command == "serre" and o.payload["direction"] == variant
                  and (o.payload.get("preset") == "[] in P3") == p3)
        rejects(checker, op, key)


def test_serre_genus_warning_is_checked(checker):
    for seed in range(1, 40):
        ops = workloads.build("requests", seed)
        half = [op for op in ops if op.command == "serre" and op.meta["direction"] == "to-genus"
                and op.meta["c3"].denominator == 1 and "[] in P3" != op.payload.get("preset")
                and (op.meta["c3"] - oracle.serre_c3(op.target, op.meta["det"], op.meta["c2"],
                                                     Fraction(0))) % 2 == 1]
        if half:
            break
    flat = flat_of(half[0])
    checker.check_flat(id(half[0]), half[0], flat)
    without = {k: v for k, v in flat.items() if not k.startswith("warnings")}
    with pytest.raises(Mismatch):
        checker.check_flat(id(half[0]), half[0], without)


def test_ledger_check(checker, requests_ops):
    for op in requests_ops:
        if op.command == "ledger":
            rejects(checker, op, "ext1")


def _search_op(predicate) -> workloads.Op:
    for seed in range(1, 20):
        for op in workloads.build("search", seed):
            if op.points <= 5_000 and predicate(op):
                return op
    raise AssertionError("no such search op")


def test_dzero_witness_set_is_exact(checker):
    op = _search_op(lambda o: o.payload.get("preset") == "[2] in P4")
    flat = flat_of(op)
    checker.check_flat(id(op), op, flat)
    n = sum(1 for k in flat if k.startswith("witnesses[") and k.endswith("[0]"))
    assert n >= 2
    dropped = {k: v for k, v in flat.items() if not k.startswith(f"witnesses[{n - 1}]")}
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, dropped)
    moved = dict(flat, **{"witnesses[0][1]": bump(flat["witnesses[0][1]"])})
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, moved)


@pytest.mark.parametrize("key", ["condition.a", "condition.b", "condition.e", "normalized.E",
                                 "solvable"])
def test_dzero_condition_and_verdict(checker, key):
    op = _search_op(lambda o: o.payload.get("preset") == "[2] in P4")
    rejects(checker, op, key)


def test_dzero_certificate_modulus_is_checked(checker):
    op = _search_op(lambda o: o.payload.get("preset") in ("[3] in P4", "[2,2] in P5"))
    flat = flat_of(op)
    checker.check_flat(id(op), op, flat)
    assert flat["solvable"] == "false" and flat["obstruction.modulus"] != "null"
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, dict(flat, **{"obstruction.modulus": "1"}))


def test_dzero_common_factor_is_rejected(checker):
    op = _search_op(lambda o: o.payload.get("preset") == "[2] in P4")
    flat = flat_of(op)
    doubled = dict(flat, **{f"normalized.{x}": str(2 * int(flat[f"normalized.{x}"])) for x in "ABE"})
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, doubled)


def test_calabi_yau_witnesses_cover_the_rectangle(checker):
    op = _search_op(lambda o: o.target.preset is not None and o.target.preset.c1 == 0)
    flat = flat_of(op)
    checker.check_flat(id(op), op, flat)
    last = max(int(k[len("witnesses["):k.index("]")]) for k in flat if k.startswith("witnesses["))
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, {k: v for k, v in flat.items()
                                         if not k.startswith(f"witnesses[{last}]")})


@pytest.fixture(scope="module")
def verify_paper_flat():
    op = workloads.Op("dzero", {"verify_paper": True}, "json", meta={"verify_paper": True})
    return op, flat_of(op)


@pytest.mark.parametrize("key", ["claims.presets[1].solvable", "claims.presets[0].solvable",
                                 "claims.solvable_count", "claims.certificate_count",
                                 "claims.presets[1].witnesses[0][0]", "ok"])
def test_claims_check(checker, verify_paper_flat, key):
    op, flat = verify_paper_flat
    rejects(checker, op, key, flat)


@pytest.fixture(scope="module")
def tensor_op():
    op = workloads.Op("verify", {"tensor_formulas": True, "max_rank": 2, "trials": 5, "seed": 7},
                      "table", meta={"max_rank": 2, "trials": 5, "seed": 7})
    return op, flat_of(op)


@pytest.mark.parametrize("key", ["ok", "tensor_formulas.trials", "tensor_formulas.max_rank",
                                 "tensor_formulas.seed", "tensor_formulas.pairs[3].grid_checks",
                                 "tensor_formulas.pairs[2].passed", "tensor_formulas.pairs[1].r2"])
def test_tensor_report_check(checker, tensor_op, key):
    op, flat = tensor_op
    rejects(checker, op, key, flat)


def test_tensor_report_pair_count_is_checked(checker, tensor_op):
    op, flat = tensor_op
    extra = dict(flat, **{"tensor_formulas.pairs[4].r1": "3"})
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, extra)
    missing = {k: v for k, v in flat.items() if not k.startswith("tensor_formulas.pairs[3]")}
    with pytest.raises(Mismatch):
        checker.check_flat(id(op), op, missing)


def test_table_rows_are_parsed_and_checked(checker, requests_ops):
    op = find(requests_ops, lambda o: o.command == "chi" and o.mode == "table")
    rendered = render(op)
    checker.check(("table", 0), op, rendered)
    lines = rendered.split("\n")
    row = next(i for i, line in enumerate(lines) if line.split()[0] == "chi")
    lines[row] = lines[row].rstrip() + "1"
    with pytest.raises(Mismatch):
        checker.check(("table", 1), op, "\n".join(lines))


def test_json_envelope_is_checked(requests_ops):
    op = find(requests_ops, lambda o: o.command == "chi" and o.mode == "json")
    rendered = render(op).replace('"status": "ok"', '"status": "error"')
    with pytest.raises(Mismatch):
        oracle.parse_output(op.command, op.mode, rendered)
