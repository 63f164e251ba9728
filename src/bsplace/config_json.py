"""Strict JSON reading and checking, the one canonical JSON writer of the
package, and `DataError`, the one error every module raises for bad input.

A `DataError` message starts with the file it came from wherever one was
read; the CLI prints it and exits 1.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import operator
import os
import reprlib
import sys
import types
import typing

import numpy as np


class DataError(Exception):
    """Bad input data or configuration: a file, a config field or an argument
    the pipeline cannot use."""


# JSON value kind -> its name in errors
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               list: "a list", type(None): "null"}
# JSON value kind -> the types of the JSON values `is_kind` admits for it
_KIND_TYPES = {bool: {bool}, int: {int}, float: {int, float}, list: {list},
               type(None): {type(None)}}


def is_kind(value, kind: type) -> bool:
    """Whether JSON `value` is of `kind`: bool (true/false only), int (never a
    bool), float (an int or float, never a bool, NaN, infinite or too large
    for a float), list, or `type(None)` (null)."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        # False for NaN and +-inf; an int compares exactly, without overflow
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _key_name(entry, key) -> str:
    """A key in errors: `users[3].priority` within an entry, `'users'` at the top."""
    return f"{entry}.{key}" if entry else repr(key)


def check_object(obj, kinds: dict, required, path, entry=None) -> dict:
    """`obj`, if it is a JSON object holding every key of `required` and only
    keys of `kinds`, each with a value of one of its kinds; else raise
    DataError naming the file `path`, the `entry` (such as "users[3]") if
    `obj` is one, and the key.
    """
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {entry or 'the file'} must be a JSON object, "
                        f"got {reprlib.repr(obj)}")
    for key, value in obj.items():
        if key not in kinds:
            raise DataError(f"{path}: unknown key {_key_name(entry, key)}")
        for kind in kinds[key]:
            if is_kind(value, kind):
                break
        else:
            expected = " or ".join(_KIND_NAMES[kind] for kind in kinds[key])
            raise DataError(f"{path}: {_key_name(entry, key)} must be {expected}, "
                            f"got {reprlib.repr(value)}")
    for key in required:
        if key not in obj:
            raise DataError(f"{path}: missing key {_key_name(entry, key)}")
    return obj


def finite_array(values):
    """`values`, nested lists of JSON numbers, as a float array if every
    number in it certainly passes `is_kind(v, float)`; else None.

    NaN, the infinities and an int past the largest float (which converts
    to that float or overflows) fail `abs(v) < max`; so does the largest
    float itself, which `is_kind` admits, and which only the per-value test
    can then tell from a large int.
    """
    try:
        array = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or huge
        return None
    return array if (np.abs(array) < sys.float_info.max).all() else None


def check_entries(entries: list, kinds: dict, path, group: str) -> dict:
    """Each key of `kinds` -> the list of its values in `entries`, a list of
    JSON objects each of which holds exactly the keys of `kinds`, each with
    a value of one of its kinds; else raise the DataError of `check_object`
    for the first bad entry, named like `users[3]` for `group` "users".

    One pass over the list per key checks the whole list: the entry types,
    their key counts (with every key present, a count of `len(kinds)`
    leaves room for no other key), and each key's value types, its numbers
    through one `finite_array`. Only where that pass finds fault does
    `check_object` go entry by entry, so that the first bad entry is named
    as it names it.
    """
    columns = _entry_columns(entries, kinds)
    if columns is None:
        for i, entry in enumerate(entries):
            check_object(entry, kinds, kinds, path, f"{group}[{i}]")
        columns = {key: [entry[key] for entry in entries] for key in kinds}
    return columns


def _entry_columns(entries: list, kinds: dict):
    """The columns `check_entries` returns, or None where its one pass per
    key cannot vouch for every entry."""
    if not (set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {len(kinds)}):
        return None
    columns = {}
    for key, key_kinds in kinds.items():
        try:
            column = list(map(operator.itemgetter(key), entries))
        except KeyError:
            return None
        if not set(map(type, column)) <= set().union(*map(_KIND_TYPES.get, key_kinds)):
            return None
        if float in key_kinds and finite_array(column) is None:
            return None
        columns[key] = column
    return columns


@functools.cache
def _field_kinds(cls) -> dict:
    """Each field of dataclass `cls` -> the kinds its annotation admits."""
    return {name: typing.get_args(a) if typing.get_origin(a) in (typing.Union, types.UnionType)
            else (typing.get_origin(a) or a,) for name, a in typing.get_type_hints(cls).items()}


def read_json(path):
    """The JSON document at `path`; a file that is not UTF-8 or not JSON, an
    integer longer than Python converts, nesting deeper than the parser
    recurses, or a key repeated within one object raises DataError naming
    `path`.

    `json.load` alone keeps the last of a repeated key without a word.
    """
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = next(k for k, n in collections.Counter(k for k, _ in pairs).items() if n > 1)
            raise DataError(f"{path}: repeated JSON key {key!r}")
        return obj

    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=unique_keys)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except (ValueError, RecursionError) as e:  # bad syntax, or past the parser's limits
        raise DataError(f"{path}: not valid JSON: {e}") from None


@contextlib.contextmanager
def prefixed(label):
    """Re-raise a DataError from the block with `label: ` before its message."""
    try:
        yield
    except DataError as e:
        raise DataError(f"{label}: {e}") from None


# json's C encoder, which runs only where `indent` is None
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ": "))
_MARKS = bytes(c in b'[]{},"' for c in range(256))  # translate table: 1 at each byte laid out
_STEP2 = np.array([2 * ((c in b"[{") - (c in b"]}")) for c in range(128)])  # two spaces per depth


def _indented(text: str) -> str:
    """`text`, compact ASCII JSON, with the line breaks and indents of
    `json.dumps(indent=2)`: outside strings, after each `[`, `{` and `,` and
    before each `]` and `}`, but none inside an empty `[]` or `{}`."""
    # with escaped backslashes and quotes blanked, strings lie between quotes of odd and even rank
    blanked = text.replace("\\\\", "  ").replace('\\"', "  ").encode("ascii")
    at = np.flatnonzero(np.frombuffer(blanked.translate(_MARKS), bool))
    byte = np.frombuffer(blanked, np.uint8)[at]
    quote = byte == ord('"')
    outside = ~(quote | np.logical_xor.accumulate(quote))
    at, step = at[outside], _STEP2[byte[outside]]
    before = at + (step >= 0)  # the byte each break goes before
    width = np.cumsum(step)
    width += 1  # the break and the indent
    if "[]" in text or "{}" in text:  # two breaks before one byte: keep neither
        apart = np.ones(at.size + 1, dtype=bool)
        np.not_equal(before[1:], before[:-1], out=apart[1:-1])
        keep = apart[:-1] & apart[1:]
        before, width = before[keep], width[keep]
    # each byte's place: one past the byte before it, and past the break before it
    place = np.ones(len(blanked), dtype=np.intp)
    place[0] = 0
    place[before] += width
    np.cumsum(place, out=place)
    out = np.full(int(place[-1]) + 1, ord(" "), dtype=np.uint8)
    out[place] = np.frombuffer(text.encode("ascii"), np.uint8)
    out[place[before] - width] = ord("\n")
    return out.tobytes().decode("ascii")


def write_json(path, obj) -> None:
    """Write `obj` to `path` as indented, key-sorted JSON with a final newline:
    the bytes of `json.dumps(obj, indent=2, sort_keys=True)`, from one pass
    of the C encoder and one numpy pass that lays out the lines.

    The text goes to `<path>.tmp` first and is moved into place, so a
    reader never sees a half-written file. A NaN or infinity raises
    ValueError: neither is JSON.
    """
    text = _indented(_ENCODER.encode(obj)) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def read_config_fields(path, cls) -> dict:
    """Keyword arguments for dataclass `cls` from the JSON object at `path`:
    any of its fields, each of a kind its annotation admits."""
    return check_object(read_json(path), _field_kinds(cls), (), path)


def require_finite(obj) -> None:
    """Raise DataError naming the first `float` field of dataclass `obj` that
    is not a finite number.

    NaN fails every range comparison, so a `<= 0` check alone lets it through.
    """
    for name, kinds in _field_kinds(type(obj)).items():
        value = getattr(obj, name)
        if float in kinds and not any(is_kind(value, kind) for kind in kinds):
            raise DataError(f"{name} must be finite, got {reprlib.repr(value)}")
