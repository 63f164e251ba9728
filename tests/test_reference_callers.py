"""The scalar reference routes are test oracles: in the package only the
references themselves call one another, and every route a run takes goes
through the vectorized kernels (`los_mask`, `sector_rx_dbm`,
`LinkGainTable.sinr_for`).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsplace"

REFERENCES = {"sinr_from_rx", "sinr_db", "link_budget", "los_blocked",
              "segment_polygon_interval", "point_in_polygon", "point_to_polygon_distance"}


def _scopes(tree):
    """(name, node) of each module-level function and each method, named
    `Class.name`; every other statement is in scope None."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield None, item
            else:
                yield (item.name if item is node else f"{node.name}.{item.name}"), item


def _reference_uses(source: str) -> list[tuple[str | None, str]]:
    """(scope, reference) for each name or attribute that reads a reference
    route in `source` outside the references themselves."""
    uses = []
    for scope, body in _scopes(ast.parse(source)):
        if scope in REFERENCES:
            continue
        for node in ast.walk(body):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in REFERENCES:
                uses.append((scope, name))
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_references_call_the_references(path):
    assert _reference_uses(path.read_text()) == []


def test_the_scan_flags_a_route_through_a_reference():
    source = ("from .radio import sinr_from_rx  # noqa: F401\n"
              "def link_budget(u):\n"
              "    return los_blocked(u)\n"
              "def evaluate(rx):\n"
              "    return sinr_from_rx(rx)\n"
              "class Table:\n"
              "    def score(self):\n"
              "        return geometry.point_in_polygon(self)\n"
              "HOOK = sinr_db\n")
    assert _reference_uses(source) == [("evaluate", "sinr_from_rx"),
                                       ("Table.score", "point_in_polygon"),
                                       (None, "sinr_db")]
