"""Strict JSON reading and the one canonical JSON writer of the package."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import types
import typing

# field annotation -> the JSON values it accepts, and its name in errors
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    list: ((list,), "a list"),
    type(None): ((type(None),), "null"),
}


def _json_types(annotation) -> list:
    """Accepted value types and names of a field annotation; empty if unchecked."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        options = typing.get_args(annotation)
    else:
        options = (typing.get_origin(annotation) or annotation,)
    return [_JSON_TYPES[t] for t in options if t in _JSON_TYPES]


def read_json(path, error: type[Exception]):
    """The JSON document at `path`; a key repeated within one object, or a
    file that is not UTF-8, raises `error`.

    `json.load` alone keeps the last of a repeated key without a word.
    """
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = next(k for k, n in collections.Counter(k for k, _ in pairs).items() if n > 1)
            raise error(f"{path}: repeated JSON key {key!r}")
        return obj

    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=unique_keys)
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def write_json(path, obj) -> None:
    """Write `obj` to `path` as indented, key-sorted JSON with a final newline.

    The text goes to `<path>.tmp` first and is moved into place, so a
    reader never sees a half-written file.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def read_config_fields(path, cls, error: type[Exception]) -> dict:
    """Keyword arguments for dataclass `cls` from the JSON object at `path`.

    A key that is not a field, or a value whose JSON type does not fit
    the field's annotation, raises `error` naming the key, so a misspelled
    or mistyped option fails instead of silently keeping its default or
    crashing later.
    """
    raw = read_json(path, error)
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object")
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise error(f"{path}: unknown config key(s): {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        accepted = _json_types(hints[name])
        # JSON true/false load as bool, a subclass of int; no field takes one
        if accepted and (isinstance(value, bool)
                         or not any(isinstance(value, allowed) for allowed, _ in accepted)):
            expected = " or ".join(label for _, label in accepted)
            raise error(f"{path}: {name!r} must be {expected}, got {value!r}")
    return raw


def require_finite(obj, error: type[Exception]) -> None:
    """Raise `error` naming the first field of dataclass `obj` holding a NaN or infinite float.

    NaN fails every range comparison, so a `<= 0` check alone lets it through.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")
