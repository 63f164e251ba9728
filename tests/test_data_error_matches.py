"""Every `pytest.raises(DataError)` in the suite names the message it expects.

All bad input raises the one `config_json.DataError`, so the type alone no
longer tells which check fired; a `match=` does. The test files are read
by path and parsed with `ast`, not imported.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _data_error_raises(source: str):
    """(line, has a match=) of each `pytest.raises(DataError, ...)` call in `source`."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises" and node.args
                and "DataError" in (getattr(node.args[0], "id", None),
                                    getattr(node.args[0], "attr", None))):
            yield node.lineno, any(k.arg == "match" for k in node.keywords)


def test_the_check_sees_a_bare_raises():
    source = ("with pytest.raises(DataError):\n    f()\n"
              "with pytest.raises(config_json.DataError, match='x'):\n    f()\n")
    assert list(_data_error_raises(source)) == [(1, False), (3, True)]


def test_every_data_error_raises_has_a_match():
    found = {path.name: list(_data_error_raises(path.read_text()))
             for path in sorted(TESTS.glob("*.py"))}
    assert sum(map(len, found.values())) >= 91
    bare = [f"{name}:{line}" for name, raises in found.items()
            for line, matched in raises if not matched]
    assert bare == []
