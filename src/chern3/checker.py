"""A JSON-schema checker for the keywords the CLI's schemas use, and no others.

It reads draft 2020-12 schemas built from ``type``, ``properties``,
``required``, ``additionalProperties: false``, ``items``,
``minItems``/``maxItems``, ``minimum``/``maximum``, ``pattern``, ``enum``,
``const``, ``oneOf``, ``allOf``, ``if``/``then``/``else`` and ``not``.
``supported`` rejects a schema with any other keyword, so a schema cannot
silently mean less here than it says.

Errors come in schema order with jsonschema's message texts and paths, and
``best_match`` picks one by jsonschema's relevance rule, so a message reads
as it would from jsonschema.  Two choices differ on purpose: ``"integer"``
means a Python ``int`` (jsonschema also takes an integral float such as
``2.0``), and a ``pattern`` must match the whole string (``re.fullmatch``).

Errors are flat: a ``oneOf`` error keeps no tree of its branches' errors.
jsonschema's ``best_match`` descends into that tree only when one branch
error is strictly more relevant than the others, and the CLI's ``oneOf``
branches are each ``{"required": [key]}``, whose errors always tie; so the
most relevant error of the flat list is the one jsonschema picks.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any, Callable, Iterable, Iterator

_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: type(x) is int,
    "boolean": lambda x: isinstance(x, bool),
}


def _type_names(types: str | list[str]) -> list[str]:
    return [types] if isinstance(types, str) else types


def _is_number(x: Any) -> bool:
    return type(x) in (int, float)


def _same(x: Any, y: Any) -> bool:
    return type(x) is type(y) and x == y


class Violation:
    """One way an instance breaks a schema, shaped like jsonschema's
    ``ValidationError``; ``path`` and ``schema_path`` start at the root."""

    __slots__ = ("message", "validator", "instance", "schema", "path", "schema_path")

    def __init__(self, message: str) -> None:
        self.message = message
        self.validator: str | None = None
        self.instance: Any = None
        self.schema: dict | None = None
        self.path: deque = deque()
        self.schema_path: deque = deque()

    absolute_path = property(lambda self: self.path)
    absolute_schema_path = property(lambda self: self.schema_path)


def _descend(instance: Any, schema: dict, path: Any = None,
             schema_path: Any = None) -> Iterator[Violation]:
    for keyword, value in schema.items():
        for error in _KEYWORDS[keyword](instance, value, schema):
            if error.validator is None:
                error.validator, error.instance, error.schema = keyword, instance, schema
            if keyword != "if":
                error.schema_path.appendleft(keyword)
            if path is not None:
                error.path.appendleft(path)
            if schema_path is not None:
                error.schema_path.appendleft(schema_path)
            yield error


def _valid(instance: Any, schema: dict) -> bool:
    return next(_descend(instance, schema), None) is None


def _type(instance, types, schema):
    names = _type_names(types)
    if any(_TYPES[name](instance) for name in names):
        return ()
    return (Violation(f"{instance!r} is not of type {', '.join(map(repr, names))}"),)


def _properties(instance, properties, schema):
    if isinstance(instance, dict):
        for key, subschema in properties.items():
            if key in instance:
                yield from _descend(instance[key], subschema, path=key, schema_path=key)


def _required(instance, required, schema):
    if isinstance(instance, dict):
        return [Violation(f"{key!r} is a required property") for key in required if key not in instance]
    return ()


def _additional_properties(instance, allowed, schema):
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        extras = sorted({key for key in instance if key not in properties}, key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            listed = ", ".join(map(repr, extras))
            return (Violation(f"Additional properties are not allowed ({listed} {verb} unexpected)"),)
    return ()


def _items(instance, items, schema):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            yield from _descend(item, items, path=index)


def _min_items(instance, least, schema):
    if isinstance(instance, list) and len(instance) < least:
        return (Violation(f"{instance!r} " + ("should be non-empty" if least == 1 else "is too short")),)
    return ()


def _max_items(instance, most, schema):
    if isinstance(instance, list) and len(instance) > most:
        return (Violation(f"{instance!r} " + ("is expected to be empty" if most == 0 else "is too long")),)
    return ()


def _minimum(instance, least, schema):
    if _is_number(instance) and instance < least:
        return (Violation(f"{instance!r} is less than the minimum of {least!r}"),)
    return ()


def _maximum(instance, most, schema):
    if _is_number(instance) and instance > most:
        return (Violation(f"{instance!r} is greater than the maximum of {most!r}"),)
    return ()


def _pattern(instance, pattern, schema):
    if isinstance(instance, str) and not re.fullmatch(pattern, instance):
        return (Violation(f"{instance!r} does not match {pattern!r}"),)
    return ()


def _enum(instance, values, schema):
    if any(_same(instance, value) for value in values):
        return ()
    return (Violation(f"{instance!r} is not one of {values!r}"),)


def _const(instance, value, schema):
    return () if _same(instance, value) else (Violation(f"{value!r} was expected"),)


def _one_of(instance, subschemas, schema):
    valid = [subschema for subschema in subschemas if _valid(instance, subschema)]
    if not valid:
        yield Violation(f"{instance!r} is not valid under any of the given schemas")
    elif len(valid) > 1:  # jsonschema lists the later valid branches, then the first
        listed = ", ".join(map(repr, valid[1:] + valid[:1]))
        yield Violation(f"{instance!r} is valid under each of {listed}")


def _all_of(instance, subschemas, schema):
    for index, subschema in enumerate(subschemas):
        yield from _descend(instance, subschema, schema_path=index)


def _if(instance, condition, schema):
    branch = "then" if _valid(instance, condition) else "else"
    if branch in schema:
        yield from _descend(instance, schema[branch], schema_path=branch)


def _not(instance, subschema, schema):
    if _valid(instance, subschema):
        return (Violation(f"{instance!r} should not be valid under {subschema!r}"),)
    return ()


def _branch(instance, value, schema):
    return ()  # "then" and "else" are read by "if"


_KEYWORDS: dict[str, Callable[[Any, Any, dict], Iterable[Violation]]] = {
    "type": _type, "properties": _properties, "required": _required,
    "additionalProperties": _additional_properties, "items": _items,
    "minItems": _min_items, "maxItems": _max_items, "minimum": _minimum, "maximum": _maximum,
    "pattern": _pattern, "enum": _enum, "const": _const, "oneOf": _one_of, "allOf": _all_of,
    "if": _if, "then": _branch, "else": _branch, "not": _not,
}


def supported(schema: dict) -> dict:
    """Return ``schema`` after checking that this module reads all of it.

    Raises ``ValueError`` naming the first keyword it would not enforce: an
    unknown keyword, a ``type`` it does not know, or ``additionalProperties``
    other than ``false``.
    """
    for keyword, value in schema.items():
        if keyword not in _KEYWORDS:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        if keyword == "type" and not set(_type_names(value)) <= set(_TYPES):
            raise ValueError(f"unsupported schema type {value!r}")
        if keyword == "additionalProperties" and value is not False:
            raise ValueError("additionalProperties must be false")
        if keyword == "properties":
            nested = value.values()
        elif keyword in ("oneOf", "allOf"):
            nested = value
        elif keyword in ("items", "if", "then", "else", "not"):
            nested = (value,)
        else:
            nested = ()
        for subschema in nested:
            supported(subschema)
    return schema


def _relevance(error: Violation) -> tuple:
    """jsonschema's ``relevance`` key, for ``max``: shallow errors first, then
    the path that sorts last, ``oneOf`` weak, and an error whose instance
    lacks the type its schema declares before one whose instance has it."""
    names = _type_names((error.schema or {}).get("type", []))
    matches_type = any(_TYPES[name](error.instance) for name in names)
    return (-len(error.path), error.path, error.validator != "oneOf", not matches_type)


def iter_errors(schema: dict, instance: Any) -> Iterator[Violation]:
    """Every way ``instance`` breaks ``schema``, in schema order."""
    return _descend(instance, schema)


def best_match(schema: dict, instance: Any) -> Violation | None:
    """The error jsonschema's ``best_match`` would pick, or None if valid."""
    return max(iter_errors(schema, instance), key=_relevance, default=None)
