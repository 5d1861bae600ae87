"""JSON form of the frozen dataclasses, derived from their fields.

`to_dict` writes every init field under its key (`metadata["key"]` when
set, else the field name), nested dataclasses as objects, tuples as lists
and dicts as objects with string keys.  `from_dict` is its strict inverse
for the specs, configs and checkpoints, which hold no dicts.  It builds:
it maps keys to fields, objects to nested dataclasses and arrays to
tuples, and an unknown key at any depth or a missing field without a
default raises ValueError naming the key's dotted path.  `check_fields`
checks, whether a dataclass is built from JSON or from Python: an `int`
field holds integers, a `float` field finite reals stored as floats
(neither a boolean), a `str` field strings, a `tuple[X, ...]` field a
list, tuple or 1-D numpy array of X stored as a tuple, and a dataclass
field an instance of its class; and each field holds the rules in its
metadata, `min` (>=), `above` (>), `below` (<) and `one_of`, for each
item of a tuple, named `key[i]`.  Each such error is a FieldError that
starts with the field's dotted path at any depth, as
`domain_transforms[0].scale: must be > 0, got 0.0`; `from_dict` prefixes
an error of a rule relating two fields with the object's path, as
`loss: need …`.  `write_json` is the one JSON writer.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
import types
import typing

import numpy as np

_JSON_TYPES = {
    dict: "object",
    list: "array",
    str: "string",
    bool: "boolean",
    int: "integer",
    float: "number",
    type(None): "null",
}
# a scalar field's type: (what its values must be, how a mismatch names it)
_SCALARS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}
# metadata key: (holds(value, bound), how the message states the rule)
_RULES = {
    "min": (operator.ge, ">="),
    "above": (operator.gt, ">"),
    "below": (operator.lt, "<"),
    "one_of": (lambda value, choices: value in choices, "one of"),
}


class FieldError(ValueError):
    """A field's value breaks its type, finiteness or rule; the message
    starts with the field's dotted path."""


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def to_dict(obj) -> dict:
    return {
        _key(f): _dump(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init
    }


def _dump(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _dump(v) for k, v in value.items()}
    return value


def from_dict(cls, d, path: str = ""):
    if not isinstance(d, dict):
        raise _mismatch(path or cls.__name__, "an object", d)
    fields = {_key(f): f for f in dataclasses.fields(cls) if f.init}
    unknown = [_join(path, k) for k in sorted(set(d) - set(fields), key=str)]
    if unknown:
        raise ValueError(f"unknown key(s): {', '.join(unknown)}")
    hints = _hints(cls)
    kwargs = {}
    for key, f in fields.items():
        if key in d:
            kwargs[f.name] = _load(hints[f.name], d[key], _join(path, key))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"missing required key {_join(path, key)!r}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        if not path:
            raise
        if isinstance(e, FieldError):
            raise FieldError(f"{path}.{e}") from e
        raise ValueError(f"{path}: {e}") from e


def write_json(obj, path) -> None:
    """Write `obj` to `path` as JSON: keys sorted, indented by 2, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(tp, value, path: str):
    # structure only: each dataclass checks its values when it is built
    tp = _without_none(tp)
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, path)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        item = typing.get_args(tp)[0]
        return tuple(_load(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    return value


def check_fields(obj) -> None:
    """Hold each field of the frozen dataclass `obj` to its annotation and
    rules with `check_value`, and store the checked value; a `None` in an
    `X | None` field is left as it is."""
    hints = _hints(type(obj))
    for f in dataclasses.fields(obj):
        value, tp = getattr(obj, f.name), hints[f.name]
        if value is not None or _without_none(tp) is tp:
            value = check_value(_without_none(tp), value, _key(f), f.metadata)
            object.__setattr__(obj, f.name, value)


def check_value(tp, value, path: str, rules):
    """`value` as a field of type `tp` stores it (see the module docstring),
    held to `rules`; a mismatch, a float that is not finite or a broken
    rule raises FieldError naming `path`, or `path[i]` for a tuple's item."""
    if typing.get_origin(tp) is tuple:
        array = isinstance(value, np.ndarray) and value.ndim == 1
        if not (array or isinstance(value, (list, tuple))):
            raise _mismatch(path, "an array", value)
        item = typing.get_args(tp)[0]
        return tuple(check_value(item, v, f"{path}[{i}]", rules) for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, tp):
            raise _mismatch(path, f"a {tp.__name__}", value)
        return value
    kind, wanted = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _mismatch(path, wanted, value)
    value = _finite(value, path) if tp is float else tp(value)
    for rule, bound in rules.items():
        if rule in _RULES and not _RULES[rule][0](value, bound):
            raise FieldError(f"{path}: must be {_RULES[rule][1]} {bound}, got {value!r}")
    return value


def _finite(value, path: str) -> float:
    try:
        number = float(value)
    except OverflowError:
        raise FieldError(
            f"{path}: expected a finite number, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise FieldError(f"{path}: expected a finite number, got {value!r}")
    return number


def _without_none(tp):
    # X for `X | None`, the only union in the configs; else tp itself
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    return tp


@functools.cache
def _hints(cls) -> types.MappingProxyType:
    # resolving the string annotations compiles each one, so once per class;
    # read-only, as every caller shares it
    return types.MappingProxyType(typing.get_type_hints(cls))


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _mismatch(path: str, wanted: str, value) -> FieldError:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return FieldError(f"{path}: expected {wanted}, got {got} {value!r}")
