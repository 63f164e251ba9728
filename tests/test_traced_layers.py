"""The benchmark reaches into the package by name.

Its traced run wraps package functions by (module, name), and its workloads
read package attributes and pass keywords to package calls and configs. A
refactor that drops or renames one of them would fail only in a benchmark
run; these tests fail in the ordinary suite instead. The benchmark files
are read by path, without importing the benchmark package or writing
anything next to it.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
RUN = PERFBENCH / "run.py"
WORKLOADS = PERFBENCH / "workloads.py"
CONFIGS = {"RadioParams", "SceneConfig", "GeneratorConfig", "GaConfig", "KmeansConfig"}


def _targets() -> list:
    """The (module, name, attrs) triples the traced run wraps."""
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), namespace)
    return namespace["targets"]()


def test_every_wrapped_name_resolves():
    targets = _targets()
    assert targets
    missing = [f"{module.__name__}.{name}" for module, name, _ in targets
               if not callable(getattr(module, name, None))]
    assert missing == []


def _dotted(node) -> list[str] | None:
    """The names of a chain `a.b.c` of attributes on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _span_names_read(tree) -> set[str]:
    """Every span name `tree` looks up: a constant key of `total`, `self_s` or
    `calls`, an entry of `REPORT_FUNCTIONS`, or what `s.name` is compared with."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and _dotted(node.value) in (["total"], ["self_s"],
                                                                        ["calls"])
                and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
        elif isinstance(node, ast.Assign) and _dotted(node.targets[0]) == ["REPORT_FUNCTIONS"]:
            names.update(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.Compare) and _dotted(node.left) == ["s", "name"]:
            names.update(c.value for c in node.comparators if isinstance(c, ast.Constant))
    return names


def test_every_span_name_read_is_a_wrapped_function():
    # a span is named after the wrapped function's own module (spans.installed),
    # so a layer function that moves to another module would read 0 in its metric
    wrapped = {f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
               for module, name, _ in _targets() for fn in [getattr(module, name)]}
    read = _span_names_read(ast.parse(LAYERS.read_text(), str(LAYERS)))
    read |= _span_names_read(ast.parse(RUN.read_text(), str(RUN)))
    # one name of each kind of lookup, so the scan is seen to find them
    assert {"scene.load_raster", "cli.main", "optimizer.evaluate_sites",
            "eval_report.coverage_curve", "geometry.los_mask",
            "eval_report.generate_synthetic_scene"} <= read
    assert sorted(read - wrapped) == []


def _imported(module: str, name: str):
    """What `from module import name` binds, or None where it would fail."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _class_dicts(tree) -> dict:
    """Keys of each class-level `name = dict(...)` or `{...}`, by (class, name)."""
    out = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for stmt in cls.body:
            if not (isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and _dotted(value.func) == ["dict"]:
                out[cls.name, stmt.targets[0].id] = [kw.arg for kw in value.keywords]
            elif isinstance(value, ast.Dict):
                out[cls.name, stmt.targets[0].id] = [k.value for k in value.keys]
    return out


def test_every_workload_name_and_keyword_resolves():
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    bound = {alias.asname or alias.name: _imported(node.module, alias.name)
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bsplace"
             for alias in node.names}
    missing = [name for name, obj in bound.items() if obj is None]

    def resolve(path):
        obj = bound[path[0]]
        for attr in path[1:]:
            obj = getattr(obj, attr, None)
        return obj

    # every attribute read off an imported module or class
    for node in ast.walk(tree):
        path = _dotted(node) if isinstance(node, ast.Attribute) else None
        if path and bound.get(path[0]) is not None and resolve(path) is None:
            missing.append(".".join(path))

    # every keyword passed to a package callable, directly or through
    # functools.partial, with `**self.name` read from the class's own dict
    dicts = _class_dicts(tree)
    owner = {call: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for call in ast.walk(cls) if isinstance(call, ast.Call)}
    checked = set()
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        if _dotted(func) == ["functools", "partial"]:
            func = call.args[0]
        path = _dotted(func)
        if not path or bound.get(path[0]) is None or not callable(target := resolve(path)):
            continue
        names = []
        for kw in call.keywords:
            if kw.arg is None:
                unpacked = _dotted(kw.value)
                assert unpacked and unpacked[0] == "self", ast.unparse(kw.value)
                names += dicts[owner[call], unpacked[1]]
            else:
                names.append(kw.arg)
        params = inspect.signature(target).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            missing += [f"{'.'.join(path)}({name}=)" for name in names if name not in params]
        checked.add(path[-1])
    assert CONFIGS <= checked
    assert missing == []
