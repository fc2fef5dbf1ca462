"""The built-in schema checker against jsonschema, which stays the oracle."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import chern3
from chern3 import checker
from chern3.cli import (COMMANDS, PAYLOAD_SCHEMAS, REQUEST_SCHEMA, Command, Flag, Request, _payload_schema,
                        _schema_message, response_json, response_table, run)
from chern3.errors import Chern3Error

SCHEMAS = {**PAYLOAD_SCHEMAS, "request": REQUEST_SCHEMA}
ORACLES = {name: jsonschema.validators.validator_for(schema)(schema) for name, schema in SCHEMAS.items()}

# Values no schema asks for: each breaks some type, range, pattern or rule.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(-3, 8, allow_nan=False),
    st.sampled_from(["", "x", "7\n", "1/0", "01/02", "1.5", "+2", "2", "[2] in P4", "paper", "tensor"]),
    st.lists(st.integers(-1, 2), max_size=3),
    st.just({}),
)
WELL_FORMED = st.sampled_from(["7", "-3/4", "6/4", "0"])
RATIONALS = st.one_of(st.integers(-5, 5), WELL_FORMED, st.sampled_from(["1/0", "7\n", "01/02", "1.5", "+2", " 1"]))


def fitting(schema, stray=1):
    """Instances built from ``schema`` with no junk in them.  Optional keys
    come and go, so rules break.  With ``stray=1`` integers and array lengths
    stray one past their bounds, and one rational in three is malformed; with
    ``stray=0`` only the rules can break."""
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if kind == "object":
        properties = {key: fitting(sub, stray) for key, sub in schema.get("properties", {}).items()}
        required = schema.get("required", ())
        return st.fixed_dictionaries({key: properties[key] for key in required if key in properties},
                                     optional={k: v for k, v in properties.items() if k not in required})
    if kind == "array":
        return st.lists(fitting(schema["items"], stray), min_size=max(schema.get("minItems", 0) - stray, 0),
                        max_size=schema.get("maxItems", 2) + stray)
    if "pattern" in schema:
        return RATIONALS if stray else st.integers(-5, 5) | WELL_FORMED
    if kind == "integer":
        low = schema.get("minimum", -5)
        return st.integers(low - stray, schema.get("maximum", low + 10) + stray)
    if kind == "string":
        return st.sampled_from(["[2] in P4", "[5] in P4", "H"])
    if kind == "boolean":
        return st.booleans()
    return JUNK


def mutation(value):
    """One change somewhere in ``value``: junk in place of a node, or a key
    dropped from or added to an object."""
    options = [JUNK]
    if isinstance(value, dict):
        options.append(st.just({**value, "extra": 1}))
        if value:
            keys = st.sampled_from(sorted(value))
            options.append(keys.map(lambda key: {k: v for k, v in value.items() if k != key}))
            options.append(keys.flatmap(lambda key: mutation(value[key]).map(lambda new: {**value, key: new})))
    if isinstance(value, list) and value:
        options.append(st.integers(0, len(value) - 1).flatmap(
            lambda i: mutation(value[i]).map(lambda new: [*value[:i], new, *value[i + 1:]])))
    return st.one_of(options)


@st.composite
def near(draw, schema):
    """An instance drawn from ``schema``, then changed up to twice."""
    value = draw(fitting(schema))
    for _ in range(draw(st.integers(0, 2))):
        value = draw(mutation(value))
    return value


def has_integral_float(value):
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, dict):
        return any(map(has_integral_float, value.values()))
    if isinstance(value, list):
        return any(map(has_integral_float, value))
    return False


def verdict(error):
    return None if error is None else (_schema_message(error), list(error.absolute_schema_path))


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_checker_agrees_with_jsonschema_best_match(name, data):
    schema = SCHEMAS[name]
    instance = data.draw(near(schema))
    expected = verdict(jsonschema.exceptions.best_match(ORACLES[name].iter_errors(instance)))
    got = verdict(checker.best_match(schema, instance))
    if has_integral_float(instance):
        # The one intended disagreement: jsonschema counts 2.0 as an "integer",
        # the checker does not, so it may only reject more.
        assert got is not None or expected is None
    else:
        assert got == expected


def test_checker_agrees_with_jsonschema_that_max_items_zero_means_empty():
    # No schema of the package has maxItems: 0, so the draws above never reach this message.
    schema = {"type": "array", "maxItems": 0}
    oracle = jsonschema.validators.validator_for(schema)(schema)
    expected = verdict(jsonschema.exceptions.best_match(oracle.iter_errors([1])))
    assert verdict(checker.best_match(schema, [1])) == expected == ("[1] is expected to be empty", ["maxItems"])


@pytest.mark.parametrize("command, payload", [
    ("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}),
    ("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0", "threefold": {}}),
    ("chi", {"rank": 2.0, "c1": ["7\n", 1.5], "c2": [], "c4": None}),
    ("chern", {"op": "dual", "F": {"rank": 0, "c1": [1]}, "E": {"rank": "2", "c2": [], "x": 1}, "L": [1]}),
    ("serre", {"direction": "to-c3", "det": [1], "c2": ["1/0"], "c3": 0, "genus": 1}),
    ("dzero", {"verify_paper": True, "preset": "[2] in P4", "k_range": [1, 2, 3]}),
    ("verify", {"suite": "paper", "tensor_formulas": 1, "max_rank": 9, "trials": 0}),
])
def test_checker_yields_every_error_in_schema_order(command, payload):
    schema = PAYLOAD_SCHEMAS[command]

    def errors(found):
        return [(e.message, list(e.absolute_path), list(e.absolute_schema_path), e.validator)
                for e in found if not has_integral_float(e.instance)]

    assert errors(checker.iter_errors(schema, payload)) == errors(ORACLES[command].iter_errors(payload))


def test_importing_the_cli_and_running_a_request_loads_no_jsonschema():
    code = ("import sys, chern3.cli\n"
            "rc = chern3.cli.main(['chi', '--preset', '[2] in P4', '--rank', '2', '--c1', '1', '--c2', '1'])\n"
            "assert rc == 0, rc\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n")
    src = str(Path(chern3.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "chi: ok" in proc.stdout


def test_an_unsupported_keyword_fails_when_the_schema_table_is_built():
    dated = Flag("--when", "when", {"type": "string", "format": "date"})
    with pytest.raises(ValueError, match="unsupported schema keyword 'format'"):
        _payload_schema(Command("dated command", COMMANDS["ledger"].handler, (dated,)))


@pytest.mark.parametrize("schema, message", [
    ({"type": "number"}, "unsupported schema type 'number'"),
    ({"additionalProperties": {"type": "string"}}, "additionalProperties must be false"),
    ({"items": {"$ref": "other.json#/x"}}, "unsupported schema keyword '\\$ref'"),
    ({"allOf": [{"anyOf": []}]}, "unsupported schema keyword 'anyOf'"),
    ({"dependentSchemas": {"a": {}}}, "unsupported schema keyword 'dependentSchemas'"),
    ({"if": {"propertyNames": {"enum": ["a"]}}}, "unsupported schema keyword 'propertyNames'"),
])
def test_supported_rejects_what_the_checker_would_not_enforce(schema, message):
    with pytest.raises(ValueError, match=message):
        checker.supported(schema)


# Small enough that each drawn verify request stays cheap.  Both keys are
# always sent, because leaving them out means rank 4 and 100 trials.
CHEAP = {"max_rank": {"type": "integer", "minimum": 1, "maximum": 3},
         "trials": {"type": "integer", "minimum": 1, "maximum": 20}}


@st.composite
def valid_payloads(draw, schema):
    """Schema-valid payloads: a value for every key, then one of the subsets
    of the optional keys that keep every rule.  Dropping optional keys at
    random, as ``fitting`` does, almost never keeps the chern and serre rules."""
    full = draw(st.fixed_dictionaries(
        {key: fitting(CHEAP.get(key, sub), stray=0) for key, sub in schema["properties"].items()}))
    optional = [key for key in full if key not in schema["required"] and key not in CHEAP]
    subsets = (set(keys) for n in range(len(optional) + 1) for keys in itertools.combinations(optional, n))
    payloads = ({k: v for k, v in full.items() if k not in optional or k in keys} for keys in subsets)
    valid = [payload for payload in payloads if checker.best_match(schema, payload) is None]
    assume(valid)
    return draw(st.sampled_from(valid))


@pytest.mark.parametrize("command", PAYLOAD_SCHEMAS)
def test_no_schema_valid_payload_ends_in_a_traceback(monkeypatch, command):
    # Small enough that every drawn dzero rectangle stays cheap; the paper
    # claims' fixed 101 x 101 grids are not user searches and ignore the cap.
    monkeypatch.setenv("CHERN3_MAX_ENUM", "500")
    drawn = []

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=valid_payloads(PAYLOAD_SCHEMAS[command]))
    def check(payload):
        drawn.append(payload)
        try:
            response = run(Request(command, payload, "json"))
        except Chern3Error:
            return
        response_json(response)
        response_table(response)

    check()
    assert drawn, f"no schema-valid {command} payload was drawn"
