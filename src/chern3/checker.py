"""A JSON-schema checker for the keywords the CLI's schemas use, and no others.

It reads draft 2020-12 schemas built from ``type``, ``properties``,
``required``, ``additionalProperties: false``, ``items``,
``minItems``/``maxItems``, ``minimum``/``maximum``, ``pattern``, ``enum``,
``const``, ``oneOf``, ``allOf``, ``if``/``then``/``else`` and ``not``.
``compile`` walks a schema once and returns a tree of closures, one per
schema node, that every instance then runs: types become predicates,
patterns compiled matchers and key lists sets.  Compiling is where a schema
with any other keyword fails, so a schema cannot silently mean less here
than it says.

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
from collections.abc import Callable

_CLASSES = {"object": dict, "array": list, "string": str, "boolean": bool}  # "integer" is an int, not a bool


def _type_test(types: str | list[str]) -> Callable[[object], bool]:
    names = [types] if isinstance(types, str) else types
    if not set(names) <= {"integer", *_CLASSES}:
        raise ValueError(f"unsupported schema type {types!r}")
    classes = tuple(_CLASSES[name] for name in names if name != "integer")
    if "integer" in names:
        return lambda x: type(x) is int or isinstance(x, classes)
    return lambda x: isinstance(x, classes)


def _is_number(x: object) -> bool:
    return type(x) in (int, float)


def _same(x: object, y: object) -> bool:
    return type(x) is type(y) and x == y


class Violation:
    """One way an instance breaks a schema, shaped like jsonschema's
    ``ValidationError``; ``path`` and ``schema_path`` start at the root."""

    __slots__ = ("message", "validator", "instance", "schema", "path", "schema_path")

    def __init__(self, message: str, validator: str, instance: object, schema: dict) -> None:
        self.message = message
        self.validator = validator
        self.instance = instance
        self.schema = schema
        self.path: deque = deque()
        self.schema_path: deque = deque((validator,))

    absolute_path = property(lambda self: self.path)
    absolute_schema_path = property(lambda self: self.schema_path)


def _nested(found: list[Violation], path: str | int | None, *schema_path: str | int) -> list[Violation]:
    """``found``, a child's errors, moved under ``path`` and ``schema_path``."""
    for error in found:
        if path is not None:
            error.path.appendleft(path)
        error.schema_path.extendleft(reversed(schema_path))
    return found


def _type(types, schema):
    test = _type_test(types)
    listed = ", ".join(map(repr, [types] if isinstance(types, str) else types))
    return lambda x: () if test(x) else [Violation(f"{x!r} is not of type {listed}", "type", x, schema)]


def _properties(properties, schema):
    children = [(key, compile(subschema)) for key, subschema in properties.items()]

    def check(instance):
        errors = ()
        if isinstance(instance, dict):
            for key, child in children:
                if key in instance:
                    found = child(instance[key])
                    if found:
                        errors = [*errors, *_nested(found, key, "properties", key)]
        return errors
    return check


def _required(required, schema):
    keys = frozenset(required)

    def check(instance):
        if isinstance(instance, dict) and not keys <= instance.keys():
            return [Violation(f"{key!r} is a required property", "required", instance, schema)
                    for key in required if key not in instance]
        return ()
    return check


def _additional_properties(allowed, schema):
    if allowed is not False:
        raise ValueError("additionalProperties must be false")
    known = frozenset(schema.get("properties", ()))

    def check(instance):
        if isinstance(instance, dict) and not instance.keys() <= known:
            extras = sorted(instance.keys() - known, key=str)
            verb = "was" if len(extras) == 1 else "were"
            listed = ", ".join(map(repr, extras))
            message = f"Additional properties are not allowed ({listed} {verb} unexpected)"
            return [Violation(message, "additionalProperties", instance, schema)]
        return ()
    return check


def _items(items, schema):
    child = compile(items)

    def check(instance):
        errors = ()
        if isinstance(instance, list):
            for index, item in enumerate(instance):
                found = child(item)
                if found:
                    errors = [*errors, *_nested(found, index, "items")]
        return errors
    return check


def _min_items(least, schema):
    words = "should be non-empty" if least == 1 else "is too short"
    return lambda x: ([Violation(f"{x!r} {words}", "minItems", x, schema)]
                      if isinstance(x, list) and len(x) < least else ())


def _max_items(most, schema):
    words = "is expected to be empty" if most == 0 else "is too long"
    return lambda x: ([Violation(f"{x!r} {words}", "maxItems", x, schema)]
                      if isinstance(x, list) and len(x) > most else ())


def _minimum(least, schema):
    return lambda x: ([Violation(f"{x!r} is less than the minimum of {least!r}", "minimum", x, schema)]
                      if _is_number(x) and x < least else ())


def _maximum(most, schema):
    return lambda x: ([Violation(f"{x!r} is greater than the maximum of {most!r}", "maximum", x, schema)]
                      if _is_number(x) and x > most else ())


def _pattern(pattern, schema):
    match = re.compile(pattern).fullmatch
    return lambda x: ([Violation(f"{x!r} does not match {pattern!r}", "pattern", x, schema)]
                      if isinstance(x, str) and not match(x) else ())


def _enum(values, schema):
    def check(instance):
        for value in values:
            if _same(instance, value):
                return ()
        return [Violation(f"{instance!r} is not one of {values!r}", "enum", instance, schema)]
    return check


def _const(value, schema):
    return lambda x: () if _same(x, value) else [Violation(f"{value!r} was expected", "const", x, schema)]


def _one_of(subschemas, schema):
    children = [(subschema, compile(subschema)) for subschema in subschemas]

    def check(instance):
        valid = [subschema for subschema, child in children if not child(instance)]
        if len(valid) == 1:
            return ()
        if not valid:
            message = f"{instance!r} is not valid under any of the given schemas"
        else:  # jsonschema lists the later valid branches, then the first
            message = f"{instance!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
        return [Violation(message, "oneOf", instance, schema)]
    return check


def _all_of(subschemas, schema):
    children = [compile(subschema) for subschema in subschemas]

    def check(instance):
        errors = ()
        for index, child in enumerate(children):
            found = child(instance)
            if found:
                errors = [*errors, *_nested(found, None, "allOf", index)]
        return errors
    return check


def _if(condition, schema):
    test = compile(condition)
    then, otherwise = (compile(schema[name]) if name in schema else None for name in ("then", "else"))

    def check(instance):
        branch, child = ("else", otherwise) if test(instance) else ("then", then)
        found = child(instance) if child else ()
        return _nested(found, None, branch) if found else ()
    return check


def _branch(subschema, schema):
    if "if" not in schema:  # "if" runs its branches; a branch without it is only checked
        compile(subschema)


def _not(subschema, schema):
    child = compile(subschema)
    return lambda x: (() if child(x) else
                      [Violation(f"{x!r} should not be valid under {subschema!r}", "not", x, schema)])


_COMPILERS: dict[str, Callable[[object, dict], Callable | None]] = {
    "type": _type, "properties": _properties, "required": _required,
    "additionalProperties": _additional_properties, "items": _items,
    "minItems": _min_items, "maxItems": _max_items, "minimum": _minimum, "maximum": _maximum,
    "pattern": _pattern, "enum": _enum, "const": _const, "oneOf": _one_of, "allOf": _all_of,
    "if": _if, "then": _branch, "else": _branch, "not": _not,
}


def compile(schema: dict) -> Callable[[object], list[Violation] | tuple[()]]:
    """The checker of ``schema``: it maps an instance to every way the
    instance breaks ``schema``, in schema order, a fresh list, or () if valid.

    Raises ``ValueError`` naming the first keyword it would not enforce: an
    unknown keyword, a ``type`` it does not know, or ``additionalProperties``
    other than ``false``.
    """
    checks = []
    for keyword, value in schema.items():
        if keyword not in _COMPILERS:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        check = _COMPILERS[keyword](value, schema)
        if check is not None:
            checks.append(check)
    if len(checks) == 1:
        return checks[0]

    def node(instance):
        errors = ()
        for check in checks:
            found = check(instance)
            if found:
                errors = [*errors, *found]
        return errors
    return node


def _relevance(error: Violation) -> tuple:
    """jsonschema's ``relevance`` key, for ``max``: shallow errors first, then
    the path that sorts last, ``oneOf`` weak, and an error whose instance
    lacks the type its schema declares before one whose instance has it."""
    types = error.schema.get("type")
    matches_type = types is not None and _type_test(types)(error.instance)
    return (-len(error.path), error.path, error.validator != "oneOf", not matches_type)


def most_relevant(errors: list[Violation] | tuple[()]) -> Violation | None:
    """The error of ``errors`` that jsonschema's ``best_match`` would pick, or None."""
    return max(errors, key=_relevance, default=None)


def iter_errors(schema: dict, instance: object) -> list[Violation] | tuple[()]:
    """Every way ``instance`` breaks ``schema``, in schema order."""
    return compile(schema)(instance)


def best_match(schema: dict, instance: object) -> Violation | None:
    """The error jsonschema's ``best_match`` would pick, or None if valid."""
    return most_relevant(compile(schema)(instance))
