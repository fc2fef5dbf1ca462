import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from chern3 import cli, splitting
from chern3.chow import CurveClass, DivClass, threefold_to_json
from chern3.ci import CIPreset, build_ci
from chern3.cli import (
    COMMANDS,
    PAYLOAD_SCHEMAS,
    REQUEST_SCHEMA,
    Request,
    Response,
    _RAT,
    _schema_message,
    load_config,
    main,
    response_json,
    response_table,
    run,
    validate_payload,
)
from chern3.dzero import Condition, DZeroReport, Normalized, Obstruction, WitnessRectangle
from chern3.errors import InvalidInput, SchemaError, SelfCheckFailed
from chern3.rationals import MAX_DIGITS, rat
from chern3.sheaf import ChernData, euler_char
from chern3.splitting import (
    Counterexample,
    RankPairResult,
    RootSpec,
    ScalarChern,
    TensorFormulaReport,
    tensor_closed_form,
    verify_tensor_formulas,
)


def run_json(command, payload):
    return run(Request(command, payload, "json"))


def rendered_data(response):
    """``data`` as the JSON output has it: report objects become JSON values."""
    return json.loads(response_json(response))["data"]


# ---------------------------------------------------------------- run()


def test_run_threefold_quadric():
    resp = run_json("threefold", {"ambient": 4, "degrees": [2]})
    assert resp.status == "ok"
    doc = resp.data["threefold"]
    assert doc["T"] == [[["2"]]]
    assert doc["c1X"] == ["3"]
    assert resp.data["classification"] == "Fano"
    assert resp.data["tangent_chern"] == {"c1": "3", "c2": "4", "c3": "2"}


def test_run_moduli_dim_paper_instance():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    resp = run_json("moduli-dim", payload)
    assert resp.data["expected_dim"] == 0
    assert resp.data["ext_euler"] == 1
    assert resp.audit  # mandatory for moduli-dim
    assert ("expected_dim", 0) in resp.audit


def test_run_chi_audit_populated():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    resp = run_json("chi", payload)
    assert resp.data["chi"] == 4
    names = [n for n, _ in resp.audit]
    assert "c1(X).c2(X)" in names
    assert "r.c1(X).c2(X)/24" in names
    assert names[-1] == "chi"
    assert len([n for n in names if n.endswith("/24") or "/" in n]) >= 8


def test_run_chern_ops():
    sheaf = {"rank": 2, "c1": ["1"], "c2": ["1"], "c3": "0"}
    resp = run_json("chern", {"op": "dual", "preset": "[2] in P4", "F": sheaf})
    assert resp.data["result"]["c1"] == ["-1"]
    resp = run_json(
        "chern", {"op": "tensor", "preset": "[2] in P4", "E": sheaf, "F": sheaf}
    )
    assert resp.data["result"] == {"rank": 4, "c1": ["4"], "c2": ["14"], "c3": "12"}
    resp = run_json(
        "chern", {"op": "twist", "preset": "[2] in P4", "F": sheaf, "L": ["1"]}
    )
    assert resp.data["result"]["c1"] == ["3"]
    assert resp.data["result"]["c2"] == ["5"]
    resp = run_json("chern", {"op": "delta", "preset": "[2] in P4", "F": sheaf})
    assert resp.data["delta"] == CurveClass((2,))


def test_run_serre_directions():
    base = {"preset": "[5] in P4", "det": ["1"], "c2": ["6"]}
    resp = run_json("serre", dict(base, direction="to-genus", c3="0"))
    assert resp.data["genus"] == "4"
    resp = run_json("serre", dict(base, direction="to-c3", genus="4"))
    assert resp.data["c3"] == "0"


def test_run_ledger():
    resp = run_json("ledger", {"h0_N": 2, "h0_F": 3, "h1_IC_zero": True})
    assert resp.data["ext1"] == 0


def test_run_dzero():
    payload = {"preset": "[2] in P4", "k_range": [-5, 5], "c_range": [-5, 5]}
    data = rendered_data(run_json("dzero", payload))
    assert data["solvable"] is True
    assert data["relation"] == "2c = k^2 + 1"
    assert [1, 1] in data["witnesses"]
    assert data["grid_checked"] is True
    default = rendered_data(run_json("dzero", {"preset": "[2] in P4"}))
    assert default["k_range"] == default["c_range"] == [-50, 50]


def test_run_verify_paper_suite():
    data = rendered_data(run_json("verify", {"suite": "paper"}))
    assert data["ok"] is True
    assert data["claims"]["solvable_count"] == 2
    assert data["claims"]["certificate_count"] == 5
    assert data["tensor_formulas"]["ok"] is True


def test_run_custom_threefold_payload():
    from chern3.chow import threefold_to_json
    from chern3.ci import CIPreset, build_ci

    doc = threefold_to_json(build_ci(CIPreset(4, (2,))))
    payload = {"threefold": doc, "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    resp = run_json("moduli-dim", payload)
    assert resp.data["expected_dim"] == 0


# ---------------------------------------------------------------- schemas


def test_schema_rejects_unknown_key():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0", "c4": [1]}
    with pytest.raises(SchemaError, match="c4"):
        run_json("chi", payload)


def test_schema_rejects_floats_and_bad_rationals():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1.5], "c2": [1], "c3": "0"}
    with pytest.raises(SchemaError):
        run_json("chi", payload)
    payload["c1"] = ["1/0"]
    with pytest.raises(SchemaError):
        run_json("chi", payload)


@pytest.mark.parametrize("text", ["1e3", " 0.5 ", "1.5", "+2", "01/02", "1/0", "", "1/-2"])
def test_rat_rejects_strings_outside_the_wire_pattern(text):
    import jsonschema

    with pytest.raises(InvalidInput, match="cannot parse rational"):
        rat(text)
    assert not jsonschema.Draft202012Validator(_RAT).is_valid(text)


@pytest.mark.parametrize("value, want", [("7", 7), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
                                         (5, 5), (Fraction(2, 3), Fraction(2, 3))])
def test_rat_accepts_the_wire_pattern(value, want):
    import jsonschema

    assert rat(value) == want
    if isinstance(value, str):
        assert jsonschema.Draft202012Validator(_RAT).is_valid(value)


def test_a_trailing_newline_is_not_a_rational(capsys):
    import jsonschema

    # Python's "$" matches before a final newline; rat and the schema must not
    with pytest.raises(InvalidInput, match="cannot parse rational"):
        rat("7\n")
    assert not jsonschema.Draft202012Validator(_RAT).is_valid("7\n")
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": ["1\n"], "c3": "0"}
    with pytest.raises(SchemaError, match="c2/0"):
        run_json("chi", payload)
    assert main(["chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1", "--c3", "7\n"]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: chi: '7\\n'")


@pytest.mark.parametrize("text", ["\u0661..\u0663", "1..3\n", "-\u0662..2"])
def test_range_flags_take_ascii_digits_only(text, capsys):
    assert main(["dzero", "--preset", "[2] in P4", "--k", text]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: range ")


def test_trials_flag_is_capped(capsys):
    assert main(["verify", "--tensor-formulas", "--max-rank", "1", "--trials", "1001"]) == 2
    assert capsys.readouterr().err.startswith(
        "SchemaError: verify: 1001 is greater than the maximum of 1000 (at trials)")


def test_schema_requires_exactly_one_target():
    from chern3.chow import threefold_to_json
    from chern3.ci import CIPreset, build_ci

    doc = threefold_to_json(build_ci(CIPreset(4, (2,))))
    payload = {"rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    with pytest.raises(SchemaError):
        run_json("chi", payload)
    with pytest.raises(SchemaError):
        run_json("chi", dict(payload, preset="[2] in P4", threefold=doc))


@pytest.mark.parametrize("schema", [*PAYLOAD_SCHEMAS.values(), REQUEST_SCHEMA],
                         ids=[*PAYLOAD_SCHEMAS, "request"])
def test_schemas_pass_the_metaschema(schema):
    import jsonschema

    jsonschema.validators.validator_for(schema).check_schema(schema)


QUADRIC_DOC = threefold_to_json(build_ci(CIPreset(4, (2,))))
SHEAF = {"rank": 2, "c1": [1], "c2": [1]}
SHEAF_DOC = {**SHEAF, "c3": 0}
F_FLAG = json.dumps(SHEAF_DOC)


@pytest.mark.parametrize("command, payload", [
    ("chi", {"preset": "[2] in P4", **SHEAF, "c4": [1]}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "c1": ["1/0"]}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "c1": [1.5]}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "rank": "2"}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "schema": "2"}),
    ("verify", {"tensor_formulas": True, "max_rank": 7}),
    ("verify", {"suite": "paper", "max_rank": 0}),
    ("chi", {"threefold": {**QUADRIC_DOC, "T": "2"}, **SHEAF}),
    ("moduli-dim", {"threefold": {**QUADRIC_DOC, "extra": 1}, **SHEAF}),
    ("dzero", {"threefold": {**QUADRIC_DOC, "c1X": ["1/2/3"]}}),
    ("dzero", {"preset": "[2] in P4", "k_range": [1]}),
    ("chern", {"op": "dual", "preset": "[2] in P4", "F": {"rank": 2, "c1": [1], "c3": 0}}),
    ("threefold", {"ambient": 4, "degrees": [0]}),
    ("ledger", {"h0_N": -1, "h0_F": 0}),
    ("dzero", {"preset": "[2] in P4", "k_range": [1, 2, 3]}),
])
def test_validate_payload_reports_what_jsonschema_validate_raises(command, payload):
    import jsonschema

    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(payload, PAYLOAD_SCHEMAS[command])
    with pytest.raises(SchemaError) as got:
        validate_payload(command, payload)
    assert str(got.value) == f"{command}: {_schema_message(expected.value)}"


@pytest.mark.parametrize("command, payload, argv", [
    ("chi", {"preset": "[2] in P4", "threefold": QUADRIC_DOC, **SHEAF},
     ["--preset", "[2] in P4", "--threefold", json.dumps(QUADRIC_DOC),
      "--rank", "2", "--c1", "1", "--c2", "1"]),
    ("chern", {"op": "dual", "preset": "[2] in P4", "F": {**SHEAF, "c3": 0}, "L": [1]},
     ["dual", "--preset", "[2] in P4", "--f", json.dumps({**SHEAF, "c3": 0}), "--l", "1"]),
    ("serre", {"preset": "[2] in P4", "det": [1], "c2": [1]},
     ["--preset", "[2] in P4", "--det", "1", "--c2", "1"]),
    ("dzero", {"verify_paper": True, "k_range": [-3, 3]}, ["--verify-paper", "--k", "-3..3"]),
    # No target and an --e/--l rule broken too: the CLI used to name only the target rule.
    ("chern", {"op": "tensor", "F": SHEAF_DOC}, ["tensor", "--f", F_FLAG]),
    ("chern", {"op": "twist", "F": SHEAF_DOC}, ["twist", "--f", F_FLAG]),
    ("chern", {"op": "dual", "F": SHEAF_DOC, "E": SHEAF_DOC}, ["dual", "--f", F_FLAG, "--e", F_FLAG]),
    ("chern", {"op": "dual", "F": SHEAF_DOC, "L": [1]}, ["dual", "--f", F_FLAG, "--l", "1"]),
    ("chern", {"op": "delta", "F": SHEAF_DOC, "E": SHEAF_DOC}, ["delta", "--f", F_FLAG, "--e", F_FLAG]),
    ("chern", {"op": "delta", "F": SHEAF_DOC, "L": [1]}, ["delta", "--f", F_FLAG, "--l", "1"]),
    ("chern", {"op": "tensor", "F": SHEAF_DOC, "L": [1]}, ["tensor", "--f", F_FLAG, "--l", "1"]),
    ("chern", {"op": "twist", "F": SHEAF_DOC, "E": SHEAF_DOC}, ["twist", "--f", F_FLAG, "--e", F_FLAG]),
])
def test_json_payload_names_the_failed_rule(capsys, command, payload, argv):
    with pytest.raises(SchemaError) as exc:
        run_json(command, payload)
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == f"SchemaError: {exc.value}\n"
    assert not str(exc.value).startswith(f"{command}: {{")


@pytest.mark.parametrize("command, payload, where", [
    ("verify", {"tensor_formulas": True, "max_rank": 2.0, "trials": 3}, "2.0 (at max_rank)"),
    ("verify", {"tensor_formulas": True, "trials": 3.0}, "3.0 (at trials)"),
    ("verify", {"tensor_formulas": True, "max_rank": 1, "seed": 1.0}, "1.0 (at seed)"),
    ("threefold", {"ambient": 4.0, "degrees": [2]}, "4.0 (at ambient)"),
    ("threefold", {"ambient": 4, "degrees": [2.0]}, "2.0 (at degrees/0)"),
    ("chi", {"preset": "[2] in P4", **SHEAF, "rank": 2.0}, "2.0 (at rank)"),
    ("moduli-dim", {"preset": "[2] in P4", **SHEAF, "rank": 2.0}, "2.0 (at rank)"),
    ("chern", {"op": "dual", "preset": "[2] in P4", "F": {**SHEAF_DOC, "rank": 2.0}}, "2.0 (at F/rank)"),
    ("serre", {"preset": "[2] in P4", "direction": "to-c3", "det": [1], "c2": [1.0], "genus": 0},
     "1.0 (at c2/0)"),
    ("ledger", {"h0_N": 3.0, "h0_F": 2}, "3.0 (at h0_N)"),
    ("dzero", {"preset": "[2] in P4", "k_range": [-2.0, 2]}, "-2.0 (at k_range/0)"),
])
def test_an_integral_float_is_not_an_integer(tmp_path, capsys, command, payload, where):
    # Draft 2020-12 counts 2.0 as an integer; these payloads used to reach a
    # handler and end in a traceback or a domain error.
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"command": command, "payload": payload}))
    assert main(["--config", str(path)]) == 2
    value, at = where.split(" ", 1)
    types = "'integer', 'string'" if command == "serre" else "'integer'"
    assert capsys.readouterr().err == f"SchemaError: {command}: {value} is not of type {types} {at}\n"


def test_schema_version_field_accepted():
    payload = {"schema": "1", "preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    assert run_json("chi", payload).data["chi"] == 4
    with pytest.raises(SchemaError):
        run_json("chi", dict(payload, schema="2"))


# ---------------------------------------------------------------- config


def test_load_config_round_trip(tmp_path):
    doc = {
        "schema": "1",
        "command": "moduli-dim",
        "payload": {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"},
        "output_mode": "json",
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    request = load_config(path)
    assert request.command == "moduli-dim"
    assert run(request).data["expected_dim"] == 0


def test_load_config_rejects_unknown_key(tmp_path):
    import jsonschema

    path = tmp_path / "request.json"
    path.write_text(json.dumps({"command": "chi", "payload": {}, "extra": 1}))
    with pytest.raises(SchemaError, match="extra") as got:
        load_config(path)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(json.loads(path.read_text()), REQUEST_SCHEMA)
    assert str(got.value) == f"{path}: {_schema_message(expected.value)}"


def test_load_config_reports_position_on_bad_json(tmp_path):
    path = tmp_path / "request.json"
    path.write_text('{"command": "chi",\n  broken\n}')
    with pytest.raises(SchemaError, match=r":2:"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------- rendering


RAT_TOKEN = re.compile(r"^-?\d+(/\d+)?$")


def test_table_and_json_agree_on_every_numeric_value():
    payloads = [
        ("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}),
        ("dzero", {"preset": "[2] in P4", "k_range": [-5, 5], "c_range": [-5, 5]}),
        ("threefold", {"ambient": 5, "degrees": [2, 3]}),
    ]
    for command, payload in payloads:
        resp = run(Request(command, payload, "table"))
        table = response_table(resp)
        doc = json.loads(response_json(resp))

        def leaves(value, prefix=""):
            if isinstance(value, dict):
                for k, v in value.items():
                    yield from leaves(v, f"{prefix}.{k}" if prefix else k)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    yield from leaves(v, f"{prefix}[{i}]")
            else:
                yield prefix, value

        table_rows = {}
        for line in table.splitlines():
            m = re.match(r"^  (\S+)\s{2,}(.*)$", line)
            if m:
                table_rows[m.group(1)] = m.group(2).strip()
        for name, value in leaves(doc["data"]):
            if isinstance(value, str) and RAT_TOKEN.match(value):
                assert name in table_rows, name
                assert rat(table_rows[name]) == rat(value), name


def test_json_output_is_idempotent():
    request = Request("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}, "json")
    first = response_json(run(request))
    second = response_json(run(request))
    assert first == second
    # re-feeding the emitted threefold reproduces the same numbers
    built = run(Request("threefold", {"ambient": 4, "degrees": [2]}, "json"))
    payload = {"threefold": built.data["threefold"], "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    assert run(Request("chi", payload, "json")).data["chi"] == 4


# The renderers the walker replaced, kept as its oracle: ``_wire`` copied a
# report into JSON data, which ``json.dumps`` or ``_flatten`` then rendered.


def _wire(value):
    """Report objects as JSON data: dataclasses and named tuples become objects
    in field order, other tuples and class vectors lists, and Fractions "p/q"
    strings; dicts and lists, which ``Response.data`` held already, are copied
    through."""
    if type(value) in (type(None), bool, int, str):
        return value
    if type(value) in (tuple, list, WitnessRectangle):
        return [_wire(item) for item in value]
    if type(value) is dict:
        return {key: _wire(item) for key, item in value.items()}
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, (DivClass, CurveClass)):
        return _wire(value.coords)
    if isinstance(value, tuple):
        return dict(zip(value._fields, map(_wire, value)))
    return {f.name: _wire(getattr(value, f.name)) for f in dataclasses.fields(value)}


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    elif isinstance(value, bool):
        rows.append((prefix, "true" if value else "false"))
    else:
        rows.append((prefix, "null" if value is None else str(value)))


def old_response_json(response):
    doc = {
        "schema": "1",
        "status": response.status,
        "command": response.command,
        "data": _wire(response.data),
        "audit": [{"name": n, "value": _wire(v)} for n, v in response.audit],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def old_response_table(response):
    rows = []
    _flatten("", _wire(response.data), rows)
    lines = [f"{response.command}: {response.status}"]
    width = max((len(name) for name, _ in rows), default=0)
    lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
    if response.audit:
        lines.append("audit:")
        audit_width = max(len(name) for name, _ in response.audit)
        lines += [f"  {name.ljust(audit_width)}  {_wire(value)}" for name, value in response.audit]
    return "\n".join(lines)


# Hypothesis prints a failing example's objects as the calls that made them,
# and each nested call prints its arguments four times over.  So the drawn
# values are plain recipes, a (class, *fields) tuple per object, made into
# objects in one step, and the sizes are bounded: a failing example then
# prints in linear time.  12 rows still reach a two-digit row index.
def _make(cls, *fields):
    return st.tuples(st.just(cls), *fields)


def _build(value):
    """``value`` with each recipe in it made into its object, innermost first."""
    if type(value) is dict:
        return {key: _build(item) for key, item in value.items()}
    if type(value) not in (list, tuple):
        return value
    items = [_build(item) for item in value]
    if type(value) is tuple and value and isinstance(value[0], type):
        return items[0](*items[1:])
    return items if type(value) is list else tuple(items)


_ints = st.integers()
_fractions = st.fractions()
_text = st.text(max_size=12)
_scalars = st.none() | st.booleans() | _ints | _fractions | _text


def _rows(row):
    return st.lists(row, max_size=12).flatmap(lambda rows: st.sampled_from([rows, tuple(rows)]))


def _tuples(item, max_size):
    return _make(tuple, st.lists(item, max_size=max_size))


# Blocks at the edge of the int-row fast path: witness pairs, 3-int and
# 10-int rows, a bool in a row, rows of unequal length, and rows mixed with
# other items.
_int_rows = st.one_of(
    _rows(st.tuples(_ints, _ints)),
    _rows(st.tuples(_ints, _ints, _ints)),
    _rows(st.tuples(*[_ints] * 10)),
    _rows(st.tuples(_ints, st.booleans())),
    _rows(st.tuples(_ints) | st.tuples(_ints, _ints)),
    _rows(st.tuples(_ints, _ints) | st.lists(_ints, max_size=2) | _ints | st.just(())),
)
# A nonempty range of at most four ints: a rectangle has at most 16 pairs.
_short_ranges = _ints.flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 3)))
_vector = _tuples(_ints | _fractions, 3)
_classes = _make(DivClass, _vector) | _make(CurveClass, _vector)
_sheaves = _make(ChernData, st.integers(1, 9), _make(DivClass, _vector), _make(CurveClass, _vector),
                 _ints | _fractions)
_roots = _make(tuple, st.lists(st.fractions(-9, 9, max_denominator=9), min_size=1, max_size=3))
_scalar_chern = _make(ScalarChern, _ints | _fractions, _ints | _fractions, _ints | _fractions)
_counterexample = _make(Counterexample, _make(RootSpec, _roots, _roots), _scalar_chern, _scalar_chern)
_reports = st.one_of(
    _make(DZeroReport, _make(Condition, _fractions, _fractions, _fractions),
          _make(Normalized, _ints, _ints, _ints), _text, st.booleans(),
          st.none() | _ints, st.none() | _tuples(_ints, 12),
          st.none() | _make(Obstruction, _text, _ints, _text),
          _tuples(st.tuples(_ints, _ints), 12) | _make(WitnessRectangle, _short_ranges, _short_ranges),
          st.tuples(_ints, _ints),
          st.tuples(_ints, _ints), st.booleans()),
    _make(TensorFormulaReport, _ints, _ints, _ints, st.booleans(), _tuples(_make(
        RankPairResult, _ints, _ints, st.booleans(), _ints, st.none() | _counterexample), 6)),
)


def _containers(children):
    return st.one_of(
        _rows(children),
        st.dictionaries(_text, children, max_size=4),
        _make(Normalized, children, children, children),
        _make(Obstruction, children, children, children),
    )


_values = st.recursive(_scalars | _int_rows | _reports | _classes | _sheaves, _containers, max_leaves=12)
_responses = _make(
    Response, st.just("ok"), st.sampled_from(sorted(COMMANDS)),
    st.dictionaries(_text, _values, max_size=5),
    _tuples(st.tuples(st.text(min_size=1, max_size=12), _text | _ints | _fractions), 12),
).map(_build)


# No shrink phase: shrinking the large drawn responses of a failure took minutes.
@settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_responses, st.integers(1, 4))
# Rows of width 1 and 10: the longest name of a block ends in [0] and in [9].
@example(Response("ok", "chi", {"x": [(1,)]}, ()), 1)
@example(Response("ok", "chi", {"x": [tuple(range(10))]}, ()), 1)
def test_the_walker_renders_what_the_old_renderers_did(response, chunk_rows):
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        assert response_json(response) == old_response_json(response)
        assert response_table(response) == old_response_table(response)


# One request per command, the search on a Calabi-Yau target (every point a witness).
REQUESTS_OF_EVERY_COMMAND = [
    ("threefold", {"ambient": 5, "degrees": [2, 3]}),
    ("chern", {"op": "tensor", "preset": "[2] in P4", "E": {"rank": 2, "c1": ["1"], "c2": ["1"], "c3": "0"},
               "F": {"rank": 3, "c1": ["1/2"], "c2": ["1"], "c3": "1"}}),
    ("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}),
    ("moduli-dim", {"preset": "[2,3] in P5", "rank": 2, "c1": [1], "c2": [3], "c3": "0"}),
    ("serre", {"preset": "[2] in P4", "direction": "to-genus", "det": ["1"], "c2": ["1"], "c3": "1"}),
    ("ledger", {"h0_N": 2, "h0_F": 3, "h1_IC_zero": True}),
    ("dzero", {"preset": "[5] in P4", "k_range": [-12, 110], "c_range": [-1, 1]}),
    ("dzero", {"verify_paper": True}),
    ("verify", {"suite": "paper", "max_rank": 2, "trials": 3}),
    # 10 and 11 witnesses: the row index gains a digit, so the padding changes.
    ("dzero", {"preset": "[5] in P4", "k_range": [0, 9], "c_range": [0, 0]}),
    ("dzero", {"preset": "[5] in P4", "k_range": [0, 10], "c_range": [0, 0]}),
]


@pytest.mark.parametrize("command, payload", REQUESTS_OF_EVERY_COMMAND)
def test_every_command_renders_as_the_old_renderers_did(command, payload):
    response = run(Request(command, payload))
    assert response_json(response) == old_response_json(response)
    assert response_table(response) == old_response_table(response)


# ---------------------------------------------------------------- main()


def test_main_exit_codes(capsys, tmp_path):
    assert main(["chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1"]) == 0
    capsys.readouterr()

    # rank 3 expected dimension: domain error, exit 1, error name surfaced
    rc = main(["moduli-dim", "--preset", "[2] in P4", "--rank", "3", "--c1", "1", "--c2", "1"])
    assert rc == 1
    assert "RankUnsupported" in capsys.readouterr().err

    rc = main(["chi", "--preset", "nonsense", "--rank", "2", "--c1", "1", "--c2", "1"])
    assert rc == 1
    assert "InvalidInput" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "chi", "payload": {}, "x": 1}')
    assert main(["--config", str(bad)]) == 2
    capsys.readouterr()

    assert main(["--config", str(tmp_path / "missing.json")]) == 1
    assert "IOError" in capsys.readouterr().err

    # The least value each schema admits.
    for argv in (["chi", "--preset", "[2] in P4", "--rank", "1", "--c1", "1", "--c2", "1"],
                 ["verify", "--tensor-formulas", "--max-rank", "1", "--trials", "1"],
                 ["threefold", "--ambient", "5", "--degrees", "1,2"],
                 ["ledger", "--h0-n", "0", "--h0-f", "0", "--h0-if", "0"]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.endswith("ledger: ok\n  ext1  0\n")

    # python -m chern3.cli reads sys.argv and exits with main's code.
    argv = [sys.executable, "-m", "chern3.cli", "chi", "--preset", "[2] in P4", "--rank", "0", *CHI_FLAGS[2:]]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "SchemaError: chi: 0 is less than the minimum of 1 (at rank)\n"


def test_main_verify_suite_exit_zero(capsys):
    assert main(["verify", "--suite", "paper"]) == 0
    capsys.readouterr()
    assert main(["verify", "--tensor-formulas", "--max-rank", "3", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--tensor-formulas", "--max-rank", "2", "--trials", "5", "--json"],
    ["verify", "--suite", "paper", "--json"],
])
def test_main_a_failing_verification_suite_exits_1(monkeypatch, capsys, argv):
    good = splitting.tensor_closed_form

    def flipped(r1, r2, cE, cF):
        right = good(r1, r2, cE, cF)
        return ScalarChern(right.c1, right.c2 - 2 * r2 * cE.c2, right.c3)

    monkeypatch.setattr(splitting, "tensor_closed_form", flipped)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert '"ok": false' in out
    assert "Traceback" not in out + err


def test_validate_payload_rejects_an_unknown_command():
    with pytest.raises(SchemaError, match="unknown command 'nope'"):
        validate_payload("nope", {})


def test_main_dzero_flags_and_verify_paper(capsys):
    rc = main(["dzero", "--preset", "[2,3] in P5", "--k", "-10..10", "--c", "-50..50", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"]["relation"] == "2c = 3k^2 + 3"
    assert [1, 3] in doc["data"]["witnesses"]

    assert main(["dzero", "--verify-paper"]) == 0
    capsys.readouterr()


def test_main_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["threefold", "--preset", "[2] in P4", "--json", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["data"]["classification"] == "Fano"


def test_main_threefold_doc_from_file(tmp_path, capsys):
    out = tmp_path / "threefold.json"
    main(["threefold", "--preset", "[2] in P4", "--json", "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())["data"]["threefold"]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    rc = main(["chi", "--threefold", str(model_path), "--rank", "2", "--c1", "1", "--c2", "1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["data"]["chi"] == "4"


def test_main_bad_json_flags_are_schema_errors(tmp_path, capsys):
    rc = main(["chi", "--threefold", "{bad", "--rank", "2", "--c1", "1", "--c2", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "SchemaError: --threefold:1:2: Expecting property name enclosed in double quotes\n")
    listed = tmp_path / "sheaf.json"
    listed.write_text("[1]")
    assert main(["chern", "dual", "--preset", "[2] in P4", "--f", str(listed)]) == 2
    assert capsys.readouterr().err == "SchemaError: --f: expected a JSON object\n"


NEEDS_CAP = pytest.mark.skipif(not MAX_DIGITS, reason="Python < 3.10.7 caps no int conversion")
NINES = "9" * 5000
CHI_FLAGS = ["--rank", "2", "--c1", "1", "--c2", "1"]
LONG_CONFIG = f'{{"command": "chi", "payload": {{"preset": "[2] in P4", "rank": {NINES}, "c1": [1], "c2": [1]}}}}'


@pytest.mark.parametrize("content, argv, code, message", [
    (b"\xff\xfe{", ["--config", "PATH"], 2, "SchemaError: PATH: not UTF-8 (invalid start byte at byte 0)"),
    (b"\xff\xfe{", ["chi", "--threefold", "PATH", *CHI_FLAGS], 2,
     "SchemaError: --threefold: not UTF-8 (invalid start byte at byte 0)"),
    (b"\xff\xfe{", ["chern", "dual", "--preset", "[2] in P4", "--f", "PATH"], 2,
     "SchemaError: --f: not UTF-8 (invalid start byte at byte 0)"),
    (b"\xff\xfe{", ["chern", "tensor", "--preset", "[2] in P4", "--f", F_FLAG, "--e", "PATH"], 2,
     "SchemaError: --e: not UTF-8 (invalid start byte at byte 0)"),
    (b"[" * 100000, ["--config", "PATH"], 2, "SchemaError: PATH: JSON nested too deeply"),
    (b"[" * 100000, ["chern", "dual", "--preset", "[2] in P4", "--f", "PATH"], 2,
     "SchemaError: --f: JSON nested too deeply"),
    (None, ["chi", "--threefold", '{"T": ' + "[" * 100000, *CHI_FLAGS], 2,
     "SchemaError: --threefold: JSON nested too deeply"),
    pytest.param(LONG_CONFIG.encode(), ["--config", "PATH"], 2, "SchemaError: PATH: a number has more than 4300 digits",
                 marks=NEEDS_CAP),
    pytest.param(None, ["chi", "--preset", "[2] in P4", *CHI_FLAGS, "--c3", NINES], 1,
                 "InvalidInput: rational of 5000 characters has more than 4300 digits", marks=NEEDS_CAP),
    pytest.param(None, ["dzero", "--preset", "[2] in P4", "--k", f"0..{NINES}"], 2,
                 "SchemaError: range: a number has more than 4300 digits", marks=NEEDS_CAP),
])
def test_malformed_text_input_is_a_named_error_not_a_traceback(tmp_path, capsys, content, argv, code, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    assert main([arg.replace("PATH", str(path)) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", message.replace("PATH", str(path)) + "\n")


@pytest.mark.parametrize("depth", [500, 950, 980, 990, 999])
def test_a_document_nested_nearly_as_deep_as_the_decoder_reads_is_a_schema_error(capsys, depth):
    # The decoder may read it, and then an error message's repr may not.
    text = json.dumps({**QUADRIC_DOC, "T": "@"}).replace('"@"', "[" * depth + "]" * depth)
    assert main(["chi", "--threefold", text, *CHI_FLAGS]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: ")


@NEEDS_CAP
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_a_result_of_any_length_is_written_exactly(capsys, mode):
    c1 = "9" * 4000
    digits = sys.get_int_max_str_digits()
    assert main(["chi", "--preset", "[2] in P4", "--rank", "2", "--c1", c1, "--c2", "1", *mode]) == 0
    assert sys.get_int_max_str_digits() == digits
    out = capsys.readouterr().out
    chi = euler_char(build_ci(CIPreset(4, (2,))), ChernData(2, (int(c1),), (1,), 0))
    sys.set_int_max_str_digits(0)
    try:
        want = str(chi)
        got = json.loads(out)["data"]["chi"] if mode else re.search(r"^  chi +(\S+)$", out, re.M).group(1)
    finally:
        sys.set_int_max_str_digits(digits)
    assert got == want and len(want) > digits


@pytest.mark.parametrize("data, audit", [
    ({"value": 0.5}, ()),
    ({"nested": [1, {"x": 0.5}], "sheaf": ChernData(1, (0,), (0,), 0)}, ()),
    ({"chi": Fraction(1, 2)}, (("chi", 0.5),)),
])
def test_the_walker_refuses_a_value_that_is_not_exact(data, audit):
    response = Response("ok", "chi", data, audit)
    for render in (response_json, response_table):
        with pytest.raises(SelfCheckFailed) as exc:
            render(response)
        assert str(exc.value) == "report rendering: float 0.5 is not an exact value"


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("result", [({"ext1": 0.5}, []), ({"ext1": 1}, [("ext1", 0.5)])], ids=["data", "audit"])
def test_main_refuses_a_float_in_a_report(monkeypatch, capsys, tmp_path, mode, result):
    ledger = COMMANDS["ledger"]._replace(handler=lambda payload: result)
    monkeypatch.setitem(COMMANDS, "ledger", ledger)
    out = tmp_path / "report"
    out.write_text("an earlier report\n")
    argv = ["ledger", "--h0-n", "1", "--h0-f", "1", "--h1-ic-zero", *mode]
    # Nothing is written, to stdout or to --out, and an existing --out file keeps its bytes.
    for extra in ([], ["--out", str(out)]):
        assert main([*argv, *extra]) == 1
        assert capsys.readouterr() == ("", "SelfCheckFailed: report rendering: float 0.5 is not an exact value\n")
        assert out.read_text() == "an earlier report\n"


def test_main_without_a_command_prints_the_help(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out.startswith("usage: chern3 ")


def test_main_config_with_json_flag_prints_json(tmp_path, capsys):
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"command": "chi", "payload": {"preset": "[2] in P4", **SHEAF}}))
    assert main(["--config", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["command"], doc["data"]["chi"]) == ("chi", "4")


def test_warnings_surface_in_response():
    resp = run_json("serre", {"preset": "[2] in P4", "direction": "to-genus",
                              "det": ["1"], "c2": ["1"], "c3": "1"})
    assert resp.data["genus"] == "1/2"
    assert any("genus" in w for w in resp.data["warnings"])


# ---------------------------------------------------------------- flags reach the payload


def test_verify_paper_suite_passes_rank_and_trials(capsys):
    assert main(["verify", "--suite", "paper", "--max-rank", "2", "--trials", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["data"]["tensor_formulas"]
    assert (report["max_rank"], report["trials"], len(report["pairs"])) == (2, 3, 4)


@pytest.mark.parametrize("extra", [["--preset", "[2] in P4"], ["--k", "-3..3"], ["--c", "-3..3"]])
def test_dzero_verify_paper_rejects_search_flags(capsys, extra):
    assert main(["dzero", "--verify-paper", *extra]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: dzero: --verify-paper takes no")


@pytest.mark.parametrize("extra", [{"preset": "[2] in P4"}, {"k_range": [-3, 3]}, {"c_range": [0, 1]}])
def test_dzero_verify_paper_payload_rejects_search_keys(extra):
    with pytest.raises(SchemaError):
        run_json("dzero", {"verify_paper": True, **extra})


def test_verify_suite_and_tensor_formulas_exclude_each_other(capsys):
    assert main(["verify", "--suite", "paper", "--tensor-formulas"]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: verify:")
    with pytest.raises(SchemaError):
        run_json("verify", {"suite": "paper", "tensor_formulas": True})


def test_seed_belongs_to_verify_only(capsys):
    chi = ["chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1"]
    with pytest.raises(SystemExit) as exc:
        main(chi + ["--seed", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "verify", "--tensor-formulas", "--max-rank", "1", "--trials", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "--tensor-formulas", "--max-rank", "1", "--trials", "2", "--seed", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["tensor_formulas"]["seed"] == 7


@pytest.mark.parametrize("argv, message", [
    (["serre", "--to-c3", "--to-genus", "--preset", "[2] in P4", "--det", "1", "--c2", "1", "--genus", "0"],
     "give only one of --to-c3, --to-genus"),
    (["serre", "--to-c3", "--preset", "[2] in P4", "--det", "1", "--c2", "1", "--genus", "0", "--c3", "0"],
     "give only one of --genus, --c3"),
    (["threefold", "--ambient", "5", "--preset", "[2] in P4"], "give only one of --ambient, --preset"),
    (["chern", "dual", "--preset", "[2] in P4", "--f", '{"rank":1,"c1":[0],"c2":[0],"c3":0}', "--l", "1"],
     "and only twist, takes --l"),
    (["--config", "CONFIG", "chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1"],
     "give --config or a command, not both"),
])
def test_flags_the_command_would_ignore_are_rejected(tmp_path, capsys, argv, message):
    config = tmp_path / "request.json"
    config.write_text(json.dumps({"command": "ledger", "payload": {"h0_N": 2, "h0_F": 3, "h1_IC_zero": True}}))
    assert main([str(config) if token == "CONFIG" else token for token in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


# Flag values: drawn text (no NUL, which OS argv cannot carry), edge cases,
# and, half the time, text that the flag's parser reads, so that drawn argv
# also reach the schemas and the handlers.  "\udcff" is the byte 0xff, as
# Python reads it from argv.
_DRAWN_TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=10) | st.sampled_from(
    ["", "-", "1/0", "1e3", "0..", "[]", "{}", '{"rank": 1}', "[0] in P4", "[2] in P99999", "1,,2", "\udcff"])
_WELL_FORMED = {
    "--ambient": ["4", "5"], "--degrees": ["2", "2,3", ""], "--preset": ["[2] in P4", "[5] in P4", "[2,3] in P5"],
    "--f": [F_FLAG], "--e": [F_FLAG], "--k": ["-2..2", "3..1", "0..600"], "--c": ["-2..2", "0..0"],
}
_INTEGERS = ["1", "2", "0", "-1"]
_RATIONALS = ["1", "0", "-1", "1/2", "1,0"]  # and vectors


def _flag_value(flag):
    if flag.name == "--threefold":  # the quadric, its generator named by drawn text
        well_formed = _DRAWN_TEXT.map(lambda name: json.dumps({**QUADRIC_DOC, "generators": [name]}, ensure_ascii=False))
    else:
        numbers = _INTEGERS if flag.schema.get("type") == "integer" else _RATIONALS
        well_formed = st.sampled_from(flag.schema.get("enum") or _WELL_FORMED.get(flag.name, numbers))
    return st.one_of(_DRAWN_TEXT, well_formed, well_formed)


@st.composite
def _argv(draw):
    """A command, its required flags and drawn others, in drawn order, each with a drawn value."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[name].flags
    drawn = [f for f in flags if f.required] + draw(st.lists(st.sampled_from(flags), max_size=4))
    argv = [name]
    for flag in draw(st.permutations(drawn)):
        argv += [flag.name] if flag.name.startswith("-") else []
        argv += [draw(_flag_value(flag))] if flag.const is None else []
    return argv + draw(st.sampled_from([[], ["--json"]]))


def test_no_drawn_argv_ends_in_a_traceback(monkeypatch):
    monkeypatch.setenv("CHERN3_MAX_ENUM", "500")  # every drawn dzero search stays cheap

    @settings(max_examples=100, deadline=None)
    @given(_argv())
    def check(argv):
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()  # stdout as a UTF-8 terminal
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        out.flush()
        assert code in (0, 1, 2), (code, err.getvalue())
        assert "Traceback" not in out.buffer.getvalue().decode() + err.getvalue()

    check()


def test_a_generator_name_that_is_not_utf8_is_refused_before_writing(tmp_path, capsys):
    doc = json.dumps({**QUADRIC_DOC, "generators": ["H\udcff"]}, ensure_ascii=False)  # the byte 0xff in argv
    out = tmp_path / "report"
    argv = ["moduli-dim", "--threefold", doc, "--rank", "2", "--c1", "1", "--c2", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "InvalidInput: generator name 'H\\udcff' is not UTF-8 text\n"
    assert not out.exists()


def test_threefold_degrees_must_be_integers(capsys):
    assert main(["threefold", "--ambient", "4", "--degrees", "2,x"]) == 2
    assert capsys.readouterr().err == "SchemaError: degrees '2,x' must be comma-separated integers\n"


# ---------------------------------------------------------------- output errors


def test_main_out_to_missing_directory_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["threefold", "--preset", "[2] in P4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("IOError: ")


def test_main_closed_stdout_is_an_io_error(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["threefold", "--preset", "[2] in P4", "--json"]) == 1
    assert capsys.readouterr().err.startswith("IOError: [Errno 32] Broken pipe")


def test_wire_renders_a_tensor_counterexample_as_rationals():
    def flipped(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        return ScalarChern(good.c1, good.c2 - 2 * r2 * cE.c2, good.c3)

    report = verify_tensor_formulas(max_rank=2, trials=5, seed=42, closed_form=flipped)
    response = Response("ok", "verify", {"ok": report.ok, "tensor_formulas": report}, ())
    doc = rendered_data(response)["tensor_formulas"]
    # JSON sorts keys; the table keeps field order.
    assert doc["ok"] is False and list(doc) == ["max_rank", "ok", "pairs", "seed", "trials"]
    names = [line.split()[0] for line in response_table(response).splitlines()[1:]]
    assert names[:5] == ["ok", "tensor_formulas.max_rank", "tensor_formulas.trials",
                         "tensor_formulas.seed", "tensor_formulas.ok"]
    pair = next(p for p in doc["pairs"] if not p["passed"])
    assert list(pair) == ["counterexample", "grid_checks", "passed", "r1", "r2"]
    counterexample = pair["counterexample"]
    assert list(counterexample) == ["closed_form", "from_roots", "spec"]
    assert list(counterexample["spec"]) == ["rootsE", "rootsF"]
    assert list(counterexample["closed_form"]) == ["c1", "c2", "c3"]
    leaves = [*counterexample["spec"]["rootsE"], *counterexample["spec"]["rootsF"],
              *counterexample["closed_form"].values(), *counterexample["from_roots"].values()]
    assert all(isinstance(x, str) and re.fullmatch(r"-?\d+(/\d+)?", x) for x in leaves)
    assert counterexample["closed_form"] != counterexample["from_roots"]


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_main_out_writes_the_bytes_of_stdout(tmp_path, capsysbinary, mode):
    argv = ["dzero", "--preset", "[5] in P4", "--k", "-60..60", "--c", "-1..1", *mode]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == stdout
