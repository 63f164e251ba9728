"""Every module-level import in the package is used by its module.

A line marked `# noqa: F401` imports a name for others to reach (the
benchmark's traced layers wrap the reference `sinr_from_rx` in `optimizer`
and `baselines` too, though the package scores through
`LinkGainTable.sinr_for`), so it is exempt, as is `from __future__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsplace"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that it never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [name for alias in node.names
                   if (name := alias.asname or alias.name.split(".")[0]) not in used]
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_import_nothing_they_do_not_use(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_flags_an_import_left_behind():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .radio import LinkGainTable, build_link_table\n"
              "from .radio import sinr_from_rx  # noqa: F401\n"
              "def f(t: LinkGainTable):\n"
              "    return t\n")
    assert _unused_imports(source) == ["math", "build_link_table"]
