"""The built-in schema checker against jsonschema, which stays the oracle."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import chern3
from chern3 import checker
from chern3.ci import PRESET_CATALOG
from chern3.cli import (COMMANDS, PAYLOAD_SCHEMAS, REQUEST_SCHEMA, Command, Flag, Request, _parse_range,
                        _payload_schema, _schema_message, main, response_json, response_table, run)
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


def fitting(schema, stray=1, length=None):
    """Instances built from ``schema`` with no junk in them.  Optional keys
    come and go, so rules break.  With ``stray=1`` integers and array lengths
    stray one past their bounds, and one rational in three is malformed; with
    ``stray=0`` only the rules can break.  With ``length`` every array of no
    fixed size has that many items, as the vectors of a threefold with
    ``length`` generators do."""
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if kind == "object":
        properties = {key: fitting(sub, stray, length) for key, sub in schema.get("properties", {}).items()}
        required = schema.get("required", ())
        return st.fixed_dictionaries({key: properties[key] for key in required if key in properties},
                                     optional={k: v for k, v in properties.items() if k not in required})
    if kind == "array":
        if length and "maxItems" not in schema:
            return st.lists(fitting(schema["items"], stray, length), min_size=length, max_size=length)
        return st.lists(fitting(schema["items"], stray, length), min_size=max(schema.get("minItems", 0) - stray, 0),
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


def every_error(found):
    """Each error's message, paths and keyword, but not those at an integral float."""
    return [(e.message, list(e.absolute_path), list(e.absolute_schema_path), e.validator)
            for e in found if not has_integral_float(e.instance)]


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_checker_yields_every_error_in_schema_order_on_drawn_instances(name, data):
    instance = data.draw(near(SCHEMAS[name]))
    expected = every_error(ORACLES[name].iter_errors(instance))
    assert every_error(checker.iter_errors(SCHEMAS[name], instance)) == expected


# With site, a .pth file may import typing, pathlib or contextlib before chern3
# does; under -S only what chern3 itself imports is loaded.
@pytest.mark.parametrize("flags, unused", [
    ((), ("dataclasses", "inspect")),
    (("-S",), ("dataclasses", "inspect", "typing", "pathlib", "contextlib")),
], ids=["site", "no-site"])
def test_importing_the_cli_and_running_a_request_loads_no_jsonschema(flags, unused):
    code = ("import sys, chern3.cli\n"
            "rc = chern3.cli.main(['chi', '--preset', '[2] in P4', '--rank', '2', '--c1', '1', '--c2', '1'])\n"
            "assert rc == 0, rc\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
            f"loaded = set({unused!r}) & set(sys.modules)\n"
            "assert not loaded, f'{sorted(loaded)} imported'\n")
    src = str(Path(chern3.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60)
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
        checker.compile(schema)


# Small enough that each drawn verify request stays cheap.  Both keys are
# always sent, because leaving them out means rank 4 and 100 trials.
CHEAP = {"max_rank": {"type": "integer", "minimum": 1, "maximum": 3},
         "trials": {"type": "integer", "minimum": 1, "maximum": 20}}


def symmetric(T):
    """The form that agrees with ``T`` at every sorted index triple."""
    def at(*index):
        i, j, k = sorted(index)
        return T[i][j][k]

    n = len(T)
    return [[[at(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]


@st.composite
def valid_payloads(draw, command):
    """Schema-valid payloads: a value for every key, then one of the subsets
    of the optional keys that keep every rule.  Dropping optional keys at
    random, as ``fitting`` does, almost never keeps the chern and serre rules.

    A command with a target gets a catalogued preset, or a threefold
    document with a symmetric form, one generator for dzero and one or two
    otherwise, and every vector has the target's generator count.  A dzero
    range is in order, and moduli-dim, stated for rank 2, gets rank 2.  So
    most of these payloads succeed, and a property over them compares
    answers, not only error lines."""
    schema = PAYLOAD_SCHEMAS[command]
    properties = {key: CHEAP.get(key, sub) for key, sub in schema["properties"].items()}
    length = None
    if "threefold" in properties:
        target = draw(st.sampled_from(["preset", "threefold"]))
        length = draw(st.integers(1, 1 if target == "preset" or command == "dzero" else 2))
        del properties["threefold" if target == "preset" else "preset"]
        if target == "preset":
            properties["preset"] = {"enum": list(PRESET_CATALOG)}
    if command == "moduli-dim":
        properties["rank"] = {"const": 2}
    full = draw(st.fixed_dictionaries({key: fitting(sub, 0, length) for key, sub in properties.items()}))
    if "threefold" in full:
        full["threefold"]["T"] = symmetric(full["threefold"]["T"])
    for key in ("k_range", "c_range"):
        if key in full:
            full[key].sort()
    optional = [key for key in full if key not in schema["required"] and key not in CHEAP]
    subsets = (set(keys) for n in range(len(optional) + 1) for keys in itertools.combinations(optional, n))
    payloads = ({k: v for k, v in full.items() if k not in optional or k in keys} for keys in subsets)
    valid = [payload for payload in payloads if checker.best_match(schema, payload) is None]
    assume(valid)
    # Half the time the one with the most keys: a dzero search without both
    # ranges takes the default grid, which the tests' CHERN3_MAX_ENUM refuses.
    return draw(st.sampled_from(valid) | st.just(valid[-1]))


@pytest.mark.parametrize("command", PAYLOAD_SCHEMAS)
def test_no_schema_valid_payload_ends_in_a_traceback(monkeypatch, command):
    # Small enough that every drawn dzero rectangle stays cheap; the paper
    # claims' fixed 101 x 101 grids are not user searches and ignore the cap.
    monkeypatch.setenv("CHERN3_MAX_ENUM", "500")
    drawn = []

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=valid_payloads(command))
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


def flag_text(flag, value):
    """``value`` written as the text that ``flag``'s parser reads."""
    if flag.parse is _parse_range:
        return "%d..%d" % tuple(value)
    if type(value) is list:  # a vector or the degrees
        return ",".join(map(str, value))
    return json.dumps(value) if type(value) is dict else str(value)


def catalogued(name):
    """The threefold payload of the catalogued preset ``name``."""
    degrees, ambient = name.split(" in P")
    return {"ambient": int(ambient), "degrees": json.loads(degrees)}


def as_argv(command, payload, preset=False):
    """The command line that fills ``payload`` but its version, or None if no flags fill it.
    With ``preset``, a threefold payload of a catalogued preset is written through ``--preset``."""
    if command == "threefold" and preset:
        name = "[%s] in P%d" % (",".join(map(str, payload.get("degrees", []))), payload["ambient"])
        if name in PRESET_CATALOG:
            return [command, "--preset", name]
    argv = [command]
    for key, value in payload.items():
        if key == "schema":  # a document's version, which no flag sets
            continue
        flags = [f for f in COMMANDS[command].flags if f.key == key and f.const in (None, value)]
        if not flags:  # h1_IC_zero false
            return None
        flag = flags[0]
        argv += [flag.name] if flag.name.startswith("-") else []
        argv += [] if flag.const is not None else [flag_text(flag, value)]
    return argv


@pytest.mark.parametrize("command", PAYLOAD_SCHEMAS)
def test_flags_and_a_config_document_give_one_answer(monkeypatch, tmp_path, capsys, command):
    monkeypatch.setenv("CHERN3_MAX_ENUM", "500")
    config = tmp_path / "request.json"
    codes = []

    def answer(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err.split("\n")[0]

    payloads = valid_payloads(command)
    if command == "threefold":
        payloads |= st.sampled_from(PRESET_CATALOG).map(catalogued)
    argvs = []

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=payloads, mode=st.sampled_from(["table", "json"]), preset=st.booleans())
    def check(payload, mode, preset):
        argv = as_argv(command, payload, preset)
        assume(argv is not None)
        config.write_text(json.dumps({"command": command, "payload": payload, "output_mode": mode}))
        flags = answer(argv + ["--json"] * (mode == "json"))
        assert flags == answer(["--config", str(config)])
        codes.append(flags[0])
        argvs.append(argv)

    if command == "threefold":  # one catalogued payload through both doors, whatever else is drawn
        for preset in (False, True):
            check = example(payload=catalogued("[1] in P4"), mode="json", preset=preset)(check)
    check()
    if command == "threefold":
        assert any("--preset" in argv for argv in argvs), "no drawn threefold payload was written through --preset"
    if "threefold" in PAYLOAD_SCHEMAS[command]["properties"]:  # a command with a target
        assert 0 in codes, f"no drawn {command} payload succeeded: exit codes {codes}"
