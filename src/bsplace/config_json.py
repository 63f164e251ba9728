"""Strict JSON loading for the package's config dataclasses."""

from __future__ import annotations

import json


def read_config_fields(path, cls, error: type[Exception], aliases=None) -> dict:
    """Keyword arguments for dataclass `cls` from the JSON object at `path`.

    `aliases` maps accepted alternative spellings to field names. A key that
    is neither a field nor an alias raises `error` naming the key, so a
    misspelled option fails instead of silently keeping its default.
    """
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object")
    for alias, name in (aliases or {}).items():
        if alias in raw:
            if name in raw:
                raise error(f"{path}: both {alias!r} and {name!r} given")
            raw[name] = raw.pop(alias)
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise error(f"{path}: unknown config key(s): {', '.join(map(repr, unknown))}")
    return raw
