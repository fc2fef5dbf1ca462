"""Command-line front end: schema-validated requests, exact-string output.

Every request is a (command, payload) pair; payloads are validated against
per-command JSON schemas before any computation runs, and all rationals in
responses are rendered as "p/q" strings, never floating point.

``Response.data`` and ``Response.audit`` hold exact values (ints, Fractions,
class vectors, report objects) beside JSON values; only what a client feeds
back as a request keeps its wire form: a threefold document, a chern result,
a serre answer.  One walker writes every number, in both modes: JSON text,
and the same data flattened to name/value rows for a table, so the two
modes cannot drift apart.  It writes a class vector as its coordinates, so
``ChernData`` reads as ``chern_to_json`` writes it, and refuses a value that
is not exact, a float say, with ``SelfCheckFailed``.  A report is rendered,
and so checked, in full before ``--out`` is opened or a byte written; then
it is written in chunks, int rows such as dzero witnesses a row at a time.

The schemas are compiled once, at import, by ``chern3.checker``, which
reads exactly the keywords they use and gives jsonschema's messages;
building the schema table fails on any other keyword, and no request
imports jsonschema.

Each command is defined once, as a ``COMMANDS`` entry; the payload schemas,
the argparse subcommands and the mapping from flags to payload are built
from that table, so CLI and JSON requests cannot drift apart either.

Exit codes: 0 ok, 1 domain error (or a failing verification suite),
2 schema error, such as input that is not UTF-8, JSON nested too deeply or
a number longer than int() reads.  A request is read under that cap on
digits; ``run`` and the renderers lift it, so a result of any length is
written exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from operator import itemgetter

from . import checker
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
from .dzero import DZeroProblem, PaperClaimsReport, WitnessRectangle, solve_dzero, verify_paper_claims
from .errors import Chern3Error, SchemaError, SelfCheckFailed
from .moduli import (
    CohomologyLedger,
    ext1_ledger,
    ext_euler,
    expected_dim,
    serre_c3,
    serre_genus,
)
from .rationals import RAT_PATTERN, SCHEMA_VERSION, rat
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
from .splitting import MAX_RANK, MAX_TRIALS, verify_tensor_formulas

_DZERO_RANGE = (-50, 50)  # the default k and c ranges of a dzero search

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


Request = namedtuple("Request", "command payload output_mode", defaults=("table",))
Response = namedtuple("Response", "status command data audit")


def _resolve_threefold(payload: dict) -> tuple[Threefold, str]:
    if "preset" in payload:
        preset = parse_preset(payload["preset"])
        return build_ci(preset), format_preset(preset)
    return threefold_from_json(payload["threefold"]), "custom threefold"


def _handle_threefold(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    preset = CIPreset(payload["ambient"], tuple(payload.get("degrees", ())))
    _, c1, c2, c3 = tangent_chern(preset)
    X = build_ci(preset)
    data = {
        "preset": format_preset(preset),
        "classification": classify(preset).value,
        "tangent_chern": {"c1": str(c1), "c2": str(c2), "c3": str(c3)},
        "threefold": threefold_to_json(X),
    }
    return data, []


def _handle_chern(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    X, label = _resolve_threefold(payload)
    F = chern_from_json(payload["F"])
    op = payload["op"]
    if op == "delta":
        return {"threefold": label, "op": op, "delta": discriminant(X, F)}, []
    if op == "tensor":
        result = tensor(X, chern_from_json(payload["E"]), F)
    elif op == "dual":
        result = dual(X, F)
    else:
        result = twist(X, F, DivClass(tuple(payload["L"])))
    return {"threefold": label, "op": op, "result": chern_to_json(result)}, []


def _handle_chi(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    X, label = _resolve_threefold(payload)
    F = chern_from_json(payload)
    numbers = rr_intersections(X, F)
    terms = rr_weigh(F.rank, numbers)
    total = sum((v for _, v in terms), start=rat(0))
    audit = [*numbers, *terms, ("chi", total)]
    return {"threefold": label, "sheaf": F, "terms": dict(terms), "chi": total}, audit


def _handle_moduli_dim(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    X, label = _resolve_threefold(payload)
    F = chern_from_json(payload)
    delta = discriminant(X, F)
    c1c2 = pair_div_curve(X, X.c1X, X.c2X)
    c1_delta = pair_div_curve(X, X.c1X, delta)
    chi_ext = ext_euler(X, F)
    dim = expected_dim(X, F)
    audit = [
        ("c1(X).c2(X)", c1c2),
        *((f"Delta(F).{name}", x) for name, x in zip(X.generator_names, delta.coords)),
        ("c1(X).Delta(F)", c1_delta),
        ("ext_euler", chi_ext),
        ("expected_dim", dim),
    ]
    return {
        "threefold": label,
        "sheaf": F,
        "ext_euler": chi_ext,
        "expected_dim": dim,
        "note": "expected dimension under the stable rank-2 hypotheses",
    }, audit


def _handle_serre(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    X, label = _resolve_threefold(payload)
    det = DivClass(tuple(payload["det"]))
    c2F = CurveClass(tuple(payload["c2"]))
    # The answer stays a wire string: a client feeds it back as --genus or --c3.
    if payload["direction"] == "to-c3":
        value = serre_c3(X, det, c2F, rat(payload["genus"]))
        return {"threefold": label, "direction": "to-c3", "c3": str(value)}, []
    value = serre_genus(X, det, c2F, rat(payload["c3"]))
    return {"threefold": label, "direction": "to-genus", "genus": str(value)}, []


def _handle_ledger(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    ledger = CohomologyLedger(
        payload["h0_N"],
        payload["h0_F"],
        payload.get("h0_IF"),
        payload.get("h1_IC_zero", False),
    )
    return {"ext1": ext1_ledger(ledger)}, []


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
                "witnesses": entry.report.witnesses[:8],
            }
            for entry in claims.entries
        ],
        "solvable_count": claims.solvable_count,
        "certificate_count": claims.certificate_count,
    }


def _handle_dzero(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    if payload.get("verify_paper"):
        claims = verify_paper_claims()
        return {"verify_paper": True, "claims": _claims_json(claims), "ok": True}, []
    X, label = _resolve_threefold(payload)
    k_range = tuple(payload.get("k_range", _DZERO_RANGE))
    c_range = tuple(payload.get("c_range", _DZERO_RANGE))
    report = solve_dzero(DZeroProblem(X, k_range, c_range))
    return {"threefold": label, **report._asdict()}, []


def _handle_verify(payload: dict) -> tuple[dict, list[tuple[str, object]]]:
    given = {key: payload[key] for key in ("max_rank", "trials", "seed") if key in payload}
    formulas = verify_tensor_formulas(**given)  # its signature holds the only defaults
    if "suite" not in payload:
        return {"ok": formulas.ok, "tensor_formulas": formulas}, []
    claims = _claims_json(verify_paper_claims())
    return {"suite": "paper", "ok": formulas.ok, "claims": claims, "tensor_formulas": formulas}, []


# An integer as JSON writes it; int() would also read "2_0", "+2", "02" and digits such as "١".
_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_DEGREE = re.compile(_JSON_INT)
_RANGE_FLAG = re.compile(rf"{_JSON_INT}\.\.{_JSON_INT}")


def _parse_range(text: str) -> list[int]:
    if not _RANGE_FLAG.fullmatch(text):
        raise SchemaError(f"range {text!r} must look like -10..10")
    try:
        return [int(bound) for bound in text.split("..")]
    except ValueError:  # a bound longer than int() reads
        raise SchemaError(f"range: a number has more than {sys.get_int_max_str_digits()} digits") from None


def _parse_vector(text: str) -> list[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _parse_degrees(text: str) -> list[int]:
    degrees = _parse_vector(text)
    try:
        if all(map(_DEGREE.fullmatch, degrees)):
            return [int(d) for d in degrees]
    except ValueError:  # a degree longer than int() reads
        pass
    raise SchemaError(f"degrees {text!r} must be comma-separated integers")


def _read_json(label: str, source: str | os.PathLike, inline: bool = False) -> object:
    """The JSON document in the file at ``source``, or ``source`` itself if
    ``inline``.  Anything but a UTF-8 JSON document that int() and the
    recursion limit can read is a SchemaError naming ``label``."""
    try:
        if inline:
            text = source
        else:
            with open(source, encoding="utf-8") as file:
                text = file.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{label}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{label}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise SchemaError(f"{label}: JSON nested too deeply") from None
    except ValueError:  # the remaining decode error: an over-long integer
        raise SchemaError(f"{label}: a number has more than {sys.get_int_max_str_digits()} digits") from None


def _parse_json_flag(text: str, label: str) -> dict:
    doc = _read_json(label, text, inline=text.lstrip().startswith("{"))
    if not isinstance(doc, dict):
        raise SchemaError(f"{label}: expected a JSON object")
    return doc


def _preset_fields(text: str) -> dict:
    preset = parse_preset(text)
    return {"ambient": preset.ambient, "degrees": list(preset.degrees)}


class Flag(namedtuple("_Flag", "name key schema parse required const help",
                       defaults=(None, False, None, None))):
    """A CLI flag: the payload key it fills, its schema and its text parser.

    ``parse`` maps the flag's text to a payload value, or is None.  The text
    of an integer flag is read as JSON, as ``--config`` reads its payload.
    A flag with ``const`` takes no value and stores ``const``.  A flag
    without a key merges the fields it parses, a dict, into the payload;
    two flags that set one key exclude each other.  A name without dashes
    is a positional argument.
    """

    __slots__ = ()


class Command(namedtuple("_Command", "help handler flags rules", defaults=((),))):
    """A CLI command: help text, handler, flags and payload rules, each rule a
    JSON-schema fragment every payload satisfies and the CLI's message if not.

    The handler maps a payload to ``Response.data`` and a list of the
    audit's (name, value) pairs; ``rules`` is a tuple of (message, rule) pairs.
    """

    __slots__ = ()


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
        Flag("--e", "E", _CHERN_DOC, partial(_parse_json_flag, label="--e"),
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
        Flag("--k", "k_range", _RANGE, _parse_range, help="twist range lo..hi, default %d..%d" % _DZERO_RANGE),
        Flag("--c", "c_range", _RANGE, _parse_range, help="curve range lo..hi, default %d..%d" % _DZERO_RANGE),
        Flag("--verify-paper", "verify_paper", {"const": True}, const=True),
    ), (
        ("dzero: --verify-paper takes no --preset, --threefold, --k or --c", {
            "if": {"required": ["verify_paper"]},
            "then": {"allOf": [{"not": {"required": [key]}}
                               for key in ("preset", "threefold", "k_range", "c_range")]},
        }),
        ("dzero: provide --preset or --threefold", _one_of("verify_paper", "preset", "threefold")),
    )),
    "verify": Command("verification suites", _handle_verify, (
        Flag("--suite", "suite", {"enum": ["paper"]}),
        Flag("--tensor-formulas", "tensor_formulas", {"const": True}, const=True),
        Flag("--max-rank", "max_rank", {"type": "integer", "minimum": 1, "maximum": MAX_RANK}),
        Flag("--trials", "trials", {"type": "integer", "minimum": 1, "maximum": MAX_TRIALS}),
        Flag("--seed", "seed", {"type": "integer"}, help="seed for randomized verification"),
    ), (
        ("verify: provide --suite paper or --tensor-formulas", _one_of("suite", "tensor_formulas")),
    )),
}


def _payload_schema(command: Command) -> tuple[dict, Callable]:
    """A command's payload schema and its compiled checker."""
    flags = [flag for flag in command.flags if flag.key]
    schema = _object(
        {"schema": _VERSION, **{flag.key: flag.schema for flag in flags}},
        [flag.key for flag in flags if flag.required],
    )
    if command.rules:
        schema["allOf"] = [rule for _, rule in command.rules]
    return schema, checker.compile(schema)


_PAYLOADS = {name: _payload_schema(c) for name, c in COMMANDS.items()}
PAYLOAD_SCHEMAS: dict[str, dict] = {name: schema for name, (schema, _) in _PAYLOADS.items()}

REQUEST_SCHEMA = _object(
    {
        "schema": _VERSION,
        "command": {"enum": sorted(PAYLOAD_SCHEMAS)},
        "payload": {"type": "object"},
        "output_mode": {"enum": ["table", "json"]},
    },
    ["command", "payload"],
)
_CHECK_REQUEST = checker.compile(REQUEST_SCHEMA)


def _schema_message(exc: object) -> str:
    """An error's message and the payload path it is at, if any; ``exc`` is a
    ``checker.Violation`` or anything with its ``message`` and ``absolute_path``."""
    path = "/".join(str(p) for p in exc.absolute_path)
    return f"{exc.message}" + (f" (at {path})" if path else "")


def _best_match(check: Callable, doc: object, label: str) -> checker.Violation | None:
    try:
        return checker.most_relevant(check(doc))
    except RecursionError:  # decoded, but too deep for an error message's repr
        raise SchemaError(f"{label}: JSON nested too deeply") from None
    except ValueError:  # an int longer than an error message's repr writes
        raise SchemaError(f"{label}: a number has more than {sys.get_int_max_str_digits()} digits") from None


def validate_payload(command: str, payload: dict) -> None:
    if command not in _PAYLOADS:
        raise SchemaError(f"unknown command {command!r}")
    error = _best_match(_PAYLOADS[command][1], payload, command)
    if error is None:
        return
    # An error inside allOf[i] breaks the command's rule i: name it as the CLI does.
    where = error.absolute_schema_path
    if where[0] == "allOf":
        raise SchemaError(COMMANDS[command].rules[where[1]][0].format(command=command))
    raise SchemaError(f"{command}: {_schema_message(error)}")


def load_config(path: str | os.PathLike) -> Request:
    """Parse a request document from a JSON file, rejecting unknown keys."""
    doc = _read_json(str(path), path)
    error = _best_match(_CHECK_REQUEST, doc, str(path))
    if error is not None:
        raise SchemaError(f"{path}: {_schema_message(error)}")
    return Request(doc["command"], doc["payload"], doc.get("output_mode", "table"))


class _any_length:
    """Lift int's digit cap in a ``with`` block, so a result of any length is
    written in full, and put it back after.  A class: ``contextlib`` costs a
    fresh process an import."""

    def __enter__(self) -> None:
        self.digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no cap, as before Python 3.10.7
        if self.digits:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc: object) -> None:
        if self.digits:
            sys.set_int_max_str_digits(self.digits)


def run(request: Request) -> Response:
    """Validate under the digit cap, then dispatch without it and collect
    warnings into the response data."""
    validate_payload(request.command, request.payload)
    with _any_length(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data, audit = COMMANDS[request.command].handler(request.payload)
    messages = sorted({str(w.message) for w in caught})
    if messages:
        data["warnings"] = messages
    return Response("ok", request.command, data, tuple(audit))


_escape = json.encoder.encode_basestring_ascii
_LEAVES = frozenset({str, int, bool, type(None), Fraction})
_CHUNK_ROWS = 4096  # int rows per chunk of output


class _IntRows(namedtuple("_IntRows", "name rows width")):
    """``rows``, tuples of ``width`` ints: ``name[i][j]`` in a table; in JSON ``name`` is their indent."""

    __slots__ = ()


def _int_row_width(rows: tuple | list) -> int:
    """n if ``rows`` is a nonempty sequence of plain tuples of n >= 1 ints, else 0.

    Such a block, a ``witnesses`` list say, is formatted a row at a time.
    A bool is not an int here: JSON writes it as ``true``.
    """
    if not rows or set(map(type, rows)) != {tuple}:
        return 0
    widths = set(map(len, rows))
    if len(widths) != 1:
        return 0
    (width,) = widths
    return width if width and set(map(type, chain.from_iterable(rows))) == {int} else 0


def _members(value: object) -> list[tuple[str, object]] | None:
    """The (key, member) pairs of a dict or named tuple, in insertion or
    field order; None for a scalar."""
    if type(value) is dict:
        return list(value.items())
    if isinstance(value, tuple):
        return list(zip(value._fields, value))
    return None


def _table_scalar(value: object) -> str:
    """A scalar's text: ``str`` writes an int, a string, and a Fraction as "p/q"."""
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    if type(value) in (int, str, Fraction):
        return str(value)
    raise SelfCheckFailed("report rendering", f"{type(value).__name__} {value!r} is not an exact value")


def _json_scalar(value: object) -> str:
    if type(value) is str or type(value) is Fraction:
        return _escape(str(value))
    return _table_scalar(value)


def _walk(value: object, at: str, table: bool) -> Iterator[str | tuple[str, str] | _IntRows]:
    """Render a report in one pass over its objects.

    Dicts and named tuples are objects, lists, plain tuples and class
    vectors arrays, and Fractions "p/q" strings.  For JSON (``table``
    false) it yields text, ``at`` being the newline and indent that
    ``value``'s last line starts with, and sorts keys as
    ``json.dumps(sort_keys=True)`` does.  For a table it yields a (name,
    text) row per scalar, ``at`` being the name of ``value``, in field
    order.  In both modes a block of int rows is one ``_IntRows`` item, and
    so is a ``WitnessRectangle``, a block of width 2.
    """
    if isinstance(value, (DivClass, CurveClass)):
        value = value.coords
    elif type(value) is WitnessRectangle:  # ints by construction: no row is scanned
        yield _IntRows(at, value, 2)
        return
    array = type(value) is list or type(value) is tuple
    if array:
        width = _int_row_width(value)
        if width:
            yield _IntRows(at, value, width)
            return
        members = enumerate(value)
    else:
        members = _members(value)
        if members is None:
            yield (at, _table_scalar(value)) if table else _json_scalar(value)
            return
    if table:
        for key, member in members:
            name = f"{at}[{key}]" if array else f"{at}.{key}" if at else str(key)
            if type(member) in _LEAVES:
                yield name, _table_scalar(member)
            else:
                yield from _walk(member, name, True)
        return
    if not array:
        members.sort(key=itemgetter(0))
    inner = at + "  "
    opening, closing = "[]" if array else "{}"
    sep = opening
    for key, member in members:
        head = sep + inner if array else sep + inner + _escape(key) + ": "
        sep = ","
        if type(member) in _LEAVES:
            yield head + _json_scalar(member)
        else:
            yield head
            yield from _walk(member, inner, False)
    yield at + closing if sep == "," else opening + closing


def _json_rows(block: _IntRows) -> Iterator[str]:
    """The JSON text of an int-row block, one format string per row."""
    inner = block.name + "  "
    row = "[" + ",".join([inner + "  %d"] * block.width) + inner + "]"
    glue = "," + inner
    rows = iter(block.rows)
    for start in range(0, len(block.rows), _CHUNK_ROWS):
        yield (glue if start else "[" + inner) + glue.join(map(row.__mod__, islice(rows, _CHUNK_ROWS)))
    yield block.name + "]"


def _json_chunks(response: Response) -> Iterator[str]:
    doc = {
        "schema": SCHEMA_VERSION,
        "status": response.status,
        "command": response.command,
        "data": response.data,
        "audit": [{"name": n, "value": v} for n, v in response.audit],
    }
    # The walk is rendered, so checked, before the first yield; int rows stay one item.
    items = list(_walk(doc, "\n", False))
    for item in items:
        if type(item) is _IntRows:
            yield from _json_rows(item)
        else:
            yield item


def _name_length(item: tuple[str, str] | _IntRows) -> int:
    if type(item) is _IntRows:  # its longest name is its last one
        return len(f"{item.name}[{len(item.rows) - 1}][{item.width - 1}]")
    return len(item[0])


def _table_rows(block: _IntRows, width: int) -> Iterator[str]:
    """The lines of an int-row block, one format string per row.

    Rows whose indices have d digits share one padding, so each run of
    them shares one format string.
    """
    name = block.name.replace("%", "%%")
    rows = iter(block.rows)
    start, stop = 0, len(block.rows)
    while start < stop:
        digits = len(str(start))
        end = min(10**digits, stop)
        pad = [" " * (width - len(block.name) - digits - 4 - len(str(j))) for j in range(block.width)]
        # "\n  name[%d][j]<pad>  %d" per column, filled with the row index and the row's value j.
        row = "".join(f"\n  {name}[%d][{j}]{pad[j]}  %d" for j in range(block.width))
        for first in range(start, end, _CHUNK_ROWS):
            index = range(first, min(first + _CHUNK_ROWS, end))
            columns = zip(*islice(rows, len(index)))
            yield "".join(map(row.__mod__, zip(*[x for column in columns for x in (index, column)])))
        start = end


def _table_chunks(response: Response) -> Iterator[str]:
    # Both lists are rendered, so checked, before the first yield; int rows are one item.
    items = list(_walk(response.data, "", True))
    audit = [(name, _table_scalar(value)) for name, value in response.audit]
    width = max(map(_name_length, items), default=0)
    yield f"{response.command}: {response.status}"
    for item in items:
        if type(item) is _IntRows:
            yield from _table_rows(item, width)
        else:
            yield f"\n  {item[0].ljust(width)}  {item[1]}"
    if audit:
        yield "\naudit:"
        audit_width = max(len(name) for name, _ in audit)
        for name, text in audit:
            yield f"\n  {name.ljust(audit_width)}  {text}"


def response_json(response: Response) -> str:
    with _any_length():
        return "".join(_json_chunks(response))


def response_table(response: Response) -> str:
    with _any_length():
        return "".join(_table_chunks(response))


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
        kwargs: dict[str, object] = {"help": flag.help}
        if flag.const is not None:
            kwargs.update(action="store_const", const=flag.const)
        else:
            kwargs.update(choices=flag.schema.get("enum"))
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
    payload: dict[str, object] = {}
    given: dict[str, str] = {}  # payload key -> the flag that set it
    for flag in command.flags:
        value = getattr(args, flag.name.lstrip("-"))
        if value is None:
            continue
        if flag.parse is not None:
            value = flag.parse(value)
        elif flag.schema.get("type") == "integer":  # so the schema judges "2.0" as in a --config payload
            value = _read_json(flag.name, value, inline=True)
        for key, field in ({flag.key: value} if flag.key else value).items():
            if key in given:
                raise SchemaError(f"{args.command}: give only one of {given[key]}, {flag.name}")
            payload[key] = field
            given[key] = flag.name
    return Request(args.command, payload, "json" if args.json else "table")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_negative_values(argv))

    try:
        if args.config:
            if args.command:  # its flags would be dropped, not rejected
                raise SchemaError("give --config or a command, not both")
            request = load_config(args.config)
            if args.json:
                request = request._replace(output_mode="json")
        else:
            if not args.command:
                parser.print_help()
                return 2
            request = _payload_from_args(args)
        response = run(request)
        with _any_length():
            chunks = _json_chunks(response) if request.output_mode == "json" else _table_chunks(response)
            # next() renders, so checks, the whole report before --out is opened or a byte written.
            chunks = chain([next(chunks)], chunks, ["\n"])
            stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
            try:
                for chunk in chunks:  # a chunk at a time, so the report is never one string
                    stream.write(chunk)
                stream.flush()
            finally:
                if args.out:
                    stream.close()
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
