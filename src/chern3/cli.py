"""Command-line front end: schema-validated requests, exact-string output.

Every request is a (command, payload) pair; payloads are validated against
per-command JSON schemas before any computation runs, and all rationals in
responses are rendered as "p/q" strings, never floating point.  Table mode
renders the same data as JSON mode, flattened to name/value rows, so the
two modes cannot drift apart.

Each command is defined once, as a ``COMMANDS`` entry; the payload schemas,
the argparse subcommands and the mapping from flags to payload are built
from that table, so CLI and JSON requests cannot drift apart either.

Exit codes: 0 ok, 1 domain error (or a failing verification suite),
2 schema error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import jsonschema

from .chow import (
    CurveClass,
    DivClass,
    Threefold,
    pair_div_curve,
    threefold_from_json,
    threefold_to_json,
)
from .ci import (
    CIPreset,
    PRESET_CATALOG,
    build_ci,
    classify,
    format_preset,
    parse_preset,
    tangent_chern,
)
from .dzero import DZeroProblem, PaperClaimsReport, solve_dzero, verify_paper_claims
from .errors import Chern3Error, SchemaError
from .moduli import (
    CohomologyLedger,
    ext1_ledger,
    ext_euler,
    expected_dim,
    serre_c3,
    serre_genus,
)
from .rationals import RAT_PATTERN, rat, rat_str
from .sheaf import (
    chern_from_json,
    chern_to_json,
    discriminant,
    dual,
    rr_intersections,
    rr_weigh,
    tensor,
    twist,
)
from .splitting import verify_tensor_formulas

SCHEMA_VERSION = "1"

_RAT = {"type": ["integer", "string"], "pattern": RAT_PATTERN}
_RAT_VEC = {"type": "array", "items": _RAT, "minItems": 1}
_RANGE = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}
_VERSION = {"const": SCHEMA_VERSION}


def _object(properties: dict, required: list[str]) -> dict:
    """Schema of a JSON object with these properties and no others."""
    return {"type": "object", "properties": properties, "required": required,
            "additionalProperties": False}


_THREEFOLD_DOC = _object(
    {
        "schema": _VERSION,
        "generators": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "T": {"type": "array", "items": {"type": "array", "items": _RAT_VEC}},
        "c1X": _RAT_VEC,
        "c2X": _RAT_VEC,
        "curve_lattice": {"type": "array", "items": _RAT_VEC, "minItems": 1},
    },
    ["generators", "T", "c1X", "c2X"],
)


@dataclass(frozen=True)
class Request:
    command: str
    payload: dict
    output_mode: str = "table"


@dataclass(frozen=True)
class Response:
    status: str
    command: str
    data: dict
    audit: tuple[tuple[str, str], ...]


def _resolve_threefold(payload: dict) -> tuple[Threefold, str]:
    if "preset" in payload:
        preset = parse_preset(payload["preset"])
        return build_ci(preset), format_preset(preset)
    return threefold_from_json(payload["threefold"]), "custom threefold"


def _handle_threefold(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    preset = CIPreset(payload["ambient"], tuple(payload.get("degrees", ())))
    chern = tangent_chern(preset)
    X = build_ci(preset)
    data = {
        "preset": format_preset(preset),
        "classification": classify(preset).value,
        "tangent_chern": {
            "c1": rat_str(chern.c1),
            "c2": rat_str(chern.c2),
            "c3": rat_str(chern.c3),
        },
        "threefold": threefold_to_json(X),
    }
    return data, []


def _handle_chern(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    X, label = _resolve_threefold(payload)
    F = chern_from_json(payload["F"])
    op = payload["op"]
    if op == "delta":
        delta = discriminant(X, F)
        return {"threefold": label, "op": op, "delta": [rat_str(x) for x in delta.coords]}, []
    if op == "tensor":
        result = tensor(X, chern_from_json(payload["E"]), F)
    elif op == "dual":
        result = dual(X, F)
    else:
        result = twist(X, F, DivClass(tuple(payload["L"])))
    return {"threefold": label, "op": op, "result": chern_to_json(result)}, []


def _handle_chi(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    X, label = _resolve_threefold(payload)
    F = chern_from_json(payload)
    numbers = rr_intersections(X, F)
    terms = rr_weigh(F.rank, numbers)
    total = sum((v for _, v in terms), start=rat(0))
    audit = [(name, rat_str(v)) for name, v in numbers]
    audit += [(name, rat_str(v)) for name, v in terms]
    audit.append(("chi", rat_str(total)))
    return {
        "threefold": label,
        "sheaf": chern_to_json(F),
        "terms": {name: rat_str(v) for name, v in terms},
        "chi": rat_str(total),
    }, audit


def _handle_moduli_dim(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    X, label = _resolve_threefold(payload)
    F = chern_from_json(payload)
    delta = discriminant(X, F)
    c1c2 = pair_div_curve(X, X.c1X, X.c2X)
    c1_delta = pair_div_curve(X, X.c1X, delta)
    chi_ext = ext_euler(X, F)
    dim = expected_dim(X, F)
    audit = [("c1(X).c2(X)", rat_str(c1c2))]
    audit += [
        (f"Delta(F).{X.generator_names[i]}", rat_str(delta.coords[i]))
        for i in range(X.m)
    ]
    audit += [
        ("c1(X).Delta(F)", rat_str(c1_delta)),
        ("ext_euler", rat_str(chi_ext)),
        ("expected_dim", rat_str(dim)),
    ]
    return {
        "threefold": label,
        "sheaf": chern_to_json(F),
        "ext_euler": rat_str(chi_ext),
        "expected_dim": rat_str(dim),
        "note": "expected dimension under the stable rank-2 hypotheses",
    }, audit


def _handle_serre(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    X, label = _resolve_threefold(payload)
    det = DivClass(tuple(payload["det"]))
    c2F = CurveClass(tuple(payload["c2"]))
    if payload["direction"] == "to-c3":
        value = serre_c3(X, det, c2F, rat(payload["genus"]))
        return {"threefold": label, "direction": "to-c3", "c3": rat_str(value)}, []
    value = serre_genus(X, det, c2F, rat(payload["c3"]))
    return {"threefold": label, "direction": "to-genus", "genus": rat_str(value)}, []


def _handle_ledger(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    ledger = CohomologyLedger(
        payload["h0_N"],
        payload["h0_F"],
        payload.get("h0_IF"),
        payload.get("h1_IC_zero", False),
    )
    return {"ext1": ext1_ledger(ledger)}, []


_SCALARS = (type(None), bool, int, str)


def _wire(value: Any) -> Any:
    """A report as JSON data: dataclasses and named tuples become objects in
    field order, other tuples lists, and Fractions "p/q" strings."""
    if type(value) in _SCALARS:
        return value
    if type(value) is tuple:
        return [_wire(item) for item in value]
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, tuple):
        return dict(zip(value._fields, map(_wire, value)))
    return {f.name: _wire(getattr(value, f.name)) for f in fields(value)}


def _claims_json(claims: PaperClaimsReport) -> dict:
    return {
        "presets": [
            {
                "preset": entry.preset,
                "solvable": entry.report.solvable,
                "relation": entry.report.relation,
                "obstruction": (
                    entry.report.obstruction.description
                    if entry.report.obstruction is not None
                    else None
                ),
                "witnesses": [[k, c] for k, c in entry.report.witnesses[:8]],
            }
            for entry in claims.entries
        ],
        "solvable_count": claims.solvable_count,
        "certificate_count": claims.certificate_count,
    }


def _handle_dzero(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    if payload.get("verify_paper"):
        claims = verify_paper_claims()
        return {"verify_paper": True, "claims": _claims_json(claims), "ok": True}, []
    X, label = _resolve_threefold(payload)
    k_range = tuple(payload.get("k_range", (-50, 50)))
    c_range = tuple(payload.get("c_range", (-50, 50)))
    report = solve_dzero(DZeroProblem(X, k_range, c_range))
    return {"threefold": label, **_wire(report)}, []


def _handle_verify(payload: dict) -> tuple[dict, list[tuple[str, str]]]:
    formulas = verify_tensor_formulas(
        max_rank=payload.get("max_rank", 4),
        trials=payload.get("trials", 100),
        seed=payload.get("seed", 42),
    )
    report = _wire(formulas)
    if "suite" not in payload:
        return {"ok": formulas.ok, "tensor_formulas": report}, []
    claims = _claims_json(verify_paper_claims())
    return {"suite": "paper", "ok": formulas.ok, "claims": claims, "tensor_formulas": report}, []


_RANGE_FLAG = re.compile(r"^-?\d+\.\.-?\d+$")


def _parse_range(text: str) -> list[int]:
    if not _RANGE_FLAG.match(text):
        raise SchemaError(f"range {text!r} must look like -10..10")
    lo, hi = text.split("..")
    return [int(lo), int(hi)]


def _parse_vector(text: str) -> list[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _parse_degrees(text: str) -> list[int]:
    try:
        return [int(d) for d in _parse_vector(text)]
    except ValueError:
        raise SchemaError(f"degrees {text!r} must be comma-separated integers") from None


def _parse_json_flag(text: str, label: str) -> dict:
    raw = text
    if not text.lstrip().startswith("{"):
        raw = Path(text).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{label}: {exc.msg} at line {exc.lineno}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{label}: expected a JSON object")
    return doc


def _preset_fields(text: str) -> dict:
    preset = parse_preset(text)
    return {"ambient": preset.ambient, "degrees": list(preset.degrees)}


@dataclass(frozen=True)
class Flag:
    """A CLI flag: the payload key it fills, its schema and its text parser.

    Integer flags are parsed by argparse.  A flag with ``const`` takes no
    value and stores ``const``.  A flag without a key merges the fields it
    parses into the payload; two flags that set one key exclude each other.
    A name without dashes is a positional argument.
    """

    name: str
    key: str | None
    schema: dict
    parse: Callable[[str], Any] | None = None
    required: bool = False
    const: Any = None
    help: str | None = None


@dataclass(frozen=True)
class Command:
    """A CLI command: help text, handler, flags and payload rules, each rule a
    JSON-schema fragment every payload satisfies and the CLI's message if not."""

    help: str
    handler: Callable[[dict], tuple[dict, list[tuple[str, str]]]]
    flags: tuple[Flag, ...]
    rules: tuple[tuple[str, dict], ...] = ()


def _one_of(*keys: str) -> dict:
    return {"oneOf": [{"required": [key]} for key in keys]}


def _when(key: str, value: str, then: dict, otherwise: dict | None = None) -> dict:
    rule = {"if": {"properties": {key: {"const": value}}}, "then": then}
    if otherwise is not None:
        rule["else"] = otherwise
    return rule


_PRESET_HELP = "preset name; catalogued: " + ", ".join(PRESET_CATALOG)
_TARGET = (
    Flag("--preset", "preset", {"type": "string"}, help=_PRESET_HELP),
    Flag("--threefold", "threefold", _THREEFOLD_DOC, partial(_parse_json_flag, label="--threefold"),
         help="threefold JSON document or a path to one"),
)
_TARGET_RULE = ("{command}: provide --preset or --threefold", _one_of("preset", "threefold"))
_SHEAF_FLAGS = (
    Flag("--rank", "rank", {"type": "integer", "minimum": 1}, required=True),
    Flag("--c1", "c1", _RAT_VEC, _parse_vector, required=True),
    Flag("--c2", "c2", _RAT_VEC, _parse_vector, required=True),
    Flag("--c3", "c3", _RAT, help="defaults to 0"),
)
# A sheaf document holds the same fields as the sheaf flags, c3 included.
_CHERN_DOC = _object({f.key: f.schema for f in _SHEAF_FLAGS}, [f.key for f in _SHEAF_FLAGS])
_COUNT = {"type": "integer", "minimum": 0}

COMMANDS: dict[str, Command] = {
    "threefold": Command("build a complete-intersection threefold model", _handle_threefold, (
        Flag("--ambient", "ambient", {"type": "integer", "minimum": 3}),
        Flag("--degrees", "degrees", {"type": "array", "items": {"type": "integer", "minimum": 1}},
             _parse_degrees,
             help="comma-separated degrees, empty for none"),
        Flag("--preset", None, {"type": "string"}, _preset_fields, help=_PRESET_HELP),
    ), (("threefold: provide --preset or --ambient/--degrees", {"required": ["ambient"]}),)),
    "chern": Command("sheaf Chern-class operations", _handle_chern, (
        Flag("op", "op", {"enum": ["tensor", "dual", "twist", "delta"]}, required=True),
        *_TARGET,
        Flag("--f", "F", _CHERN_DOC, partial(_parse_json_flag, label="--f"), required=True,
             help="sheaf JSON document or path"),
        Flag("--e", "E", {"$ref": "#/properties/F"}, partial(_parse_json_flag, label="--e"),
             help="second sheaf JSON document, for tensor"),
        Flag("--l", "L", _RAT_VEC, _parse_vector, help="comma-separated divisor class, for twist"),
    ), (
        _TARGET_RULE,
        ("chern: tensor, and only tensor, takes --e",
         _when("op", "tensor", {"required": ["E"]}, {"not": {"required": ["E"]}})),
        ("chern: twist, and only twist, takes --l",
         _when("op", "twist", {"required": ["L"]}, {"not": {"required": ["L"]}})),
    )),
    "chi": Command(
        "Riemann-Roch Euler characteristic", _handle_chi, _TARGET + _SHEAF_FLAGS, (_TARGET_RULE,)
    ),
    "moduli-dim": Command(
        "rank-2 moduli dimension", _handle_moduli_dim, _TARGET + _SHEAF_FLAGS, (_TARGET_RULE,)
    ),
    "serre": Command("curve genus and c3 conversions", _handle_serre, (
        Flag("--to-c3", "direction", {"enum": ["to-c3", "to-genus"]}, const="to-c3"),
        Flag("--to-genus", "direction", {"enum": ["to-c3", "to-genus"]}, const="to-genus"),
        *_TARGET,
        Flag("--det", "det", _RAT_VEC, _parse_vector, required=True),
        Flag("--c2", "c2", _RAT_VEC, _parse_vector, required=True),
        Flag("--genus", "genus", _RAT),
        Flag("--c3", "c3", _RAT),
    ), (
        ("serre: provide --to-c3 or --to-genus", {"required": ["direction"]}),
        ("serre --to-c3 needs --genus", _when("direction", "to-c3", {"required": ["genus"]})),
        ("serre --to-genus needs --c3", _when("direction", "to-genus", {"required": ["c3"]})),
        ("serre: give only one of --genus, --c3", {"not": {"required": ["genus", "c3"]}}),
        _TARGET_RULE,
    )),
    "ledger": Command("Ext^1 dimension count from cohomology values", _handle_ledger, (
        Flag("--h0-n", "h0_N", _COUNT, required=True),
        Flag("--h0-f", "h0_F", _COUNT, required=True),
        Flag("--h0-if", "h0_IF", _COUNT),
        Flag("--h1-ic-zero", "h1_IC_zero", {"type": "boolean"}, const=True),
    )),
    "dzero": Command("expected-dimension-zero search", _handle_dzero, (
        *_TARGET,
        Flag("--k", "k_range", _RANGE, _parse_range, help="twist range lo..hi, default -50..50"),
        Flag("--c", "c_range", _RANGE, _parse_range, help="curve range lo..hi, default -50..50"),
        Flag("--verify-paper", "verify_paper", {"const": True}, const=True),
    ), (
        ("dzero: --verify-paper takes no --preset, --threefold, --k or --c", {"dependentSchemas": {
            "verify_paper": {"propertyNames": {"enum": ["schema", "verify_paper"]}},
        }}),
        ("dzero: provide --preset or --threefold", _one_of("verify_paper", "preset", "threefold")),
    )),
    "verify": Command("verification suites", _handle_verify, (
        Flag("--suite", "suite", {"enum": ["paper"]}),
        Flag("--tensor-formulas", "tensor_formulas", {"const": True}, const=True),
        Flag("--max-rank", "max_rank", {"type": "integer", "minimum": 1, "maximum": 6}),
        Flag("--trials", "trials", {"type": "integer", "minimum": 1}),
        Flag("--seed", "seed", {"type": "integer"}, help="seed for randomized verification"),
    ), (
        ("verify: provide --suite paper or --tensor-formulas", _one_of("suite", "tensor_formulas")),
    )),
}


def _payload_schema(command: Command) -> dict:
    flags = [flag for flag in command.flags if flag.key]
    schema = _object(
        {"schema": _VERSION, **{flag.key: flag.schema for flag in flags}},
        [flag.key for flag in flags if flag.required],
    )
    if command.rules:
        schema["allOf"] = [rule for _, rule in command.rules]
    return schema


PAYLOAD_SCHEMAS: dict[str, dict] = {name: _payload_schema(c) for name, c in COMMANDS.items()}

REQUEST_SCHEMA = _object(
    {
        "schema": _VERSION,
        "command": {"enum": sorted(PAYLOAD_SCHEMAS)},
        "payload": {"type": "object"},
        "output_mode": {"enum": ["table", "json"]},
    },
    ["command", "payload"],
)


def _schema_message(exc: jsonschema.ValidationError) -> str:
    path = "/".join(str(p) for p in exc.absolute_path)
    return f"{exc.message}" + (f" (at {path})" if path else "")


@functools.cache
def _validator(command: str | None, rule: int | None = None) -> Any:
    """The validator of a command's payload schema, of its rule number ``rule``,
    or, for no command, of the request document.

    Built on first use and kept for the process.  ``check_schema`` runs once
    here, which is what makes it cheaper than ``jsonschema.validate``: that
    re-checks the schema against the metaschema on every call.
    """
    if command is None:
        schema = REQUEST_SCHEMA
    elif rule is None:
        schema = PAYLOAD_SCHEMAS[command]
    else:
        schema = COMMANDS[command].rules[rule][1]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _first_error(
    instance: dict, command: str | None, rule: int | None = None
) -> jsonschema.ValidationError | None:
    """The error ``jsonschema.validate`` would raise for this schema, or None."""
    return jsonschema.exceptions.best_match(_validator(command, rule).iter_errors(instance))


def validate_payload(command: str, payload: dict) -> None:
    if command not in PAYLOAD_SCHEMAS:
        raise SchemaError(f"unknown command {command!r}")
    error = _first_error(payload, command)
    if error is None:
        return
    # An error inside allOf[i] breaks the command's rule i: name it as the CLI does.
    where = error.absolute_schema_path
    if len(where) > 1 and where[0] == "allOf":
        raise SchemaError(COMMANDS[command].rules[where[1]][0].format(command=command))
    raise SchemaError(f"{command}: {_schema_message(error)}")


def load_config(path: str | Path) -> Request:
    """Parse a request document from a JSON file, rejecting unknown keys."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    error = _first_error(doc, None)
    if error is not None:
        raise SchemaError(f"{path}: {_schema_message(error)}")
    return Request(doc["command"], doc["payload"], doc.get("output_mode", "table"))


def run(request: Request) -> Response:
    """Validate, dispatch, and collect warnings into the response data."""
    validate_payload(request.command, request.payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data, audit = COMMANDS[request.command].handler(request.payload)
    messages = sorted({str(w.message) for w in caught})
    if messages:
        data["warnings"] = messages
    return Response("ok", request.command, data, tuple(audit))


def response_json(response: Response) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "status": response.status,
        "command": response.command,
        "data": response.data,
        "audit": [{"name": n, "value": v} for n, v in response.audit],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
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


def response_table(response: Response) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", response.data, rows)
    lines = [f"{response.command}: {response.status}"]
    width = max((len(name) for name, _ in rows), default=0)
    lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
    if response.audit:
        lines.append("audit:")
        audit_width = max(len(name) for name, _ in response.audit)
        lines += [f"  {name.ljust(audit_width)}  {value}" for name, value in response.audit]
    return "\n".join(lines)


# Rationals, vectors and ranges may start with "-".
_NEGATIVE_FLAGS = {
    flag.name
    for command in COMMANDS.values()
    for flag in command.flags
    if flag.schema is _RAT or flag.schema.get("type") == "array"
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Turn "--k -10..10" into "--k=-10..10" so argparse keeps the value."""
    merged: list[str] = []
    for token in argv:
        if merged and merged[-1] in _NEGATIVE_FLAGS and token.startswith("-"):
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def _add_flags(parser: argparse.ArgumentParser, flags: tuple[Flag, ...]) -> None:
    for flag in flags:
        kwargs: dict[str, Any] = {"help": flag.help}
        if flag.const is not None:
            kwargs.update(action="store_const", const=flag.const)
        else:
            kwargs.update(choices=flag.schema.get("enum"))
            if flag.schema.get("type") == "integer":
                kwargs.update(type=int)
        if flag.name.startswith("-"):
            kwargs.update(dest=flag.name.lstrip("-"), required=flag.required)
        parser.add_argument(flag.name, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    # Output flags live on a parent parser with SUPPRESS defaults so they are
    # accepted on either side of the subcommand without clobbering each other.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit JSON instead of a table",
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS,
        help="write the report to this path instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="chern3",
        description="Exact characteristic-class calculator for sheaves on threefolds",
        parents=[common],
    )
    parser.set_defaults(json=False, out=None)
    parser.add_argument("--config", help="read a full request document from a JSON file")
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)
    for name, command in COMMANDS.items():
        _add_flags(sub.add_parser(name, parents=[common], help=command.help), command.flags)
    return parser


def _payload_from_args(args: argparse.Namespace) -> Request:
    command = COMMANDS[args.command]
    payload: dict[str, Any] = {}
    given: dict[str, str] = {}  # payload key -> the flag that set it
    for flag in command.flags:
        value = getattr(args, flag.name.lstrip("-"))
        if value is None:
            continue
        if flag.parse is not None:
            value = flag.parse(value)
        for key, field in ({flag.key: value} if flag.key else value).items():
            if key in given:
                raise SchemaError(f"{args.command}: give only one of {given[key]}, {flag.name}")
            payload[key] = field
            given[key] = flag.name
    for i, (message, _) in enumerate(command.rules):
        if _first_error(payload, args.command, i) is not None:
            raise SchemaError(message.format(command=args.command))
    return Request(args.command, payload, "json" if args.json else "table")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_negative_values(argv))

    try:
        if args.config:
            request = load_config(args.config)
            if args.json:
                request = Request(request.command, request.payload, "json")
        else:
            if not args.command:
                parser.print_help()
                return 2
            request = _payload_from_args(args)
        response = run(request)
        rendered = (
            response_json(response) if request.output_mode == "json" else response_table(response)
        )
        if args.out:
            Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        else:
            print(rendered, flush=True)
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 2
    except Chern3Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 1

    if response.data.get("ok") is False:
        return 1
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
