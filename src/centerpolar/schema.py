"""JSON form of the frozen dataclasses, derived from their fields.

`to_dict` writes every init field under its key (`metadata["key"]` when
set, else the field name), nested dataclasses as objects, tuples as lists
and dicts as objects with string keys.  `from_dict` is its strict inverse
for the specs, configs and checkpoints, which hold no dicts: an unknown
key at any depth, a missing field without a default, or a value that does
not match the field's annotation raises ValueError naming the dotted path
of the key, and a nested dataclass's own ValueError is prefixed with its
path.  `int` takes JSON integers only, `float` any JSON number (stored as
a float), and neither takes a boolean.  `check_integers` holds the `int`
fields to the same rule at construction.  `write_json` is the one JSON
writer.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import types
import typing

_JSON_TYPES = {
    dict: "object",
    list: "array",
    str: "string",
    bool: "boolean",
    int: "integer",
    float: "number",
    type(None): "null",
}
_WANTED = {int: "an integer", float: "a number", str: "a string"}


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
        raise ValueError(f"{path}: {e}") from e


def write_json(obj, path) -> None:
    """Write `obj` to `path` as JSON: keys sorted, indented by 2, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(tp, value, path: str):
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        # only `X | None` occurs in the configs
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _load(tp, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _mismatch(path, "an array", value)
        return tuple(_load(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool):
        raise _mismatch(path, _WANTED[tp], value)
    if tp is float and isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, tp):
        return value
    raise _mismatch(path, _WANTED[tp], value)


def check_integers(obj) -> None:
    """Store each `int` field of the frozen dataclass `obj`, and each item of
    a `tuple[int, ...]` field, as an int.  A boolean or a non-integer (numpy
    integers are integers) raises ValueError naming the field."""
    hints = _hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if hints[f.name] is int:
            value = integer(value, f.name)
        elif hints[f.name] == tuple[int, ...]:
            value = tuple(integer(v, f"{f.name}[{i}]") for i, v in enumerate(value))
        else:
            continue
        object.__setattr__(obj, f.name, value)


def integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _mismatch(path, "an integer", value)
    return int(value)


@functools.cache
def _hints(cls) -> types.MappingProxyType:
    # resolving the string annotations compiles each one, so once per class;
    # read-only, as every caller shares it
    return types.MappingProxyType(typing.get_type_hints(cls))


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _mismatch(path: str, wanted: str, value) -> ValueError:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return ValueError(f"{path}: expected {wanted}, got {got} {value!r}")
