"""`config_json.write_json` is the package's one JSON writer: no other module
calls `json.dump` or `json.dumps`, so every file the package writes has
one layout (see the `config_json` docstring).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsplace"

WRITERS = {"dump", "dumps"}


def _json_writes(source: str) -> list[tuple[int, str]]:
    """(line, name) of each reach for `json.dump` or `json.dumps` in
    `source`: an attribute of the json module under any alias, or a name
    imported from it."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "json"}
    writes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            writes += [(node.lineno, alias.name) for alias in node.names if alias.name in WRITERS]
        elif (isinstance(node, ast.Attribute) and node.attr in WRITERS
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            writes.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(writes)


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "config_json.py"}),
                         ids=lambda p: p.name)
def test_only_config_json_writes_json(path):
    assert _json_writes(path.read_text()) == []


def test_the_scan_flags_a_second_writer():
    source = ("import json\n"
              "import json as j\n"
              "from json import dumps as to_text, loads\n"
              "def save(obj, f):\n"
              "    json.dump(obj, f)\n"
              "    return j.dumps(obj), json.loads('1'), to_text(obj), loads\n"
              "class Other:\n"
              "    def dumps(self):\n"
              "        return self.dumps\n")
    assert _json_writes(source) == [(3, "dumps"), (5, "json.dump"), (6, "j.dumps")]
